import numpy as np
import pytest

from pszsim.acoustics import response_matrix
from pszsim.filter_design import (
    RenderingMode,
    default_beta,
    program_channels,
    solve_stack,
    target_stack,
)
from pszsim.scene import default_scene


def random_instance(rng, k=4, l_count=8, channels=4):
    h = rng.standard_normal((k, l_count)) + 1j * rng.standard_normal((k, l_count))
    m_t = rng.standard_normal((k, channels)) + 1j * rng.standard_normal((k, channels))
    return h, m_t


def solve(h, m_t, beta, frequency=1000.0):
    """The filters of one (points, speakers) H and target, through ``solve_stack``."""
    filters, kept, failures = solve_stack(h[None], m_t[None], [beta], [frequency])
    assert kept.all() and failures == []
    return filters[0]


def objective(h, c, m_t, beta):
    """The design objective J(C) = ||H C - M_T||_F^2 + beta ||C||_F^2, written out."""
    return float(
        np.linalg.norm(h @ c - m_t, "fro") ** 2 + beta * np.linalg.norm(c, "fro") ** 2
    )


def test_identity_exact_match():
    c = solve(np.eye(2), np.eye(2), 0.0)
    assert np.allclose(c, np.eye(2), atol=1e-14)


def test_identity_shrinkage_closed_form():
    beta = 4e-4
    c = solve(np.eye(2), np.eye(2), beta)
    assert c[0, 0].real == pytest.approx(1.0 / (1.0 + beta), rel=1e-14)
    assert c[0, 0].real == pytest.approx(0.99960016, abs=5e-9)
    assert abs(c[0, 1]) == 0.0


def test_solution_minimizes_cost():
    rng = np.random.default_rng(42)
    h, m_t = random_instance(rng)
    beta = 1e-3
    c_star = solve(h, m_t, beta)
    base = objective(h, c_star, m_t, beta)
    for _ in range(100):
        e = 1e-4 * (
            rng.standard_normal(c_star.shape)
            + 1j * rng.standard_normal(c_star.shape)
        )
        assert objective(h, c_star + e, m_t, beta) >= base


def test_normal_equation_residual():
    rng = np.random.default_rng(3)
    for _ in range(20):
        h, m_t = random_instance(rng)
        beta = float(rng.uniform(1e-6, 1e-2))
        c = solve(h, m_t, beta)
        gram = h.conj().T @ h + beta * np.eye(h.shape[1])
        rhs = h.conj().T @ m_t
        residual = np.linalg.norm(gram @ c - rhs) / np.linalg.norm(rhs)
        assert residual <= 1e-8


def test_filter_norm_non_increasing_in_beta():
    rng = np.random.default_rng(8)
    h, m_t = random_instance(rng)
    betas = [1e-6, 1e-4, 1e-2, 1.0, 100.0]
    norms = [np.linalg.norm(solve(h, m_t, b), "fro") for b in betas]
    assert all(a >= b for a, b in zip(norms, norms[1:]))


def test_residual_vanishes_as_beta_to_zero():
    rng = np.random.default_rng(15)
    h, m_t = random_instance(rng, k=4, l_count=8)
    for beta, bound in ((1e-2, 1e-1), (1e-6, 1e-5), (1e-12, 1e-9)):
        c = solve(h, m_t, beta)
        assert np.linalg.norm(h @ c - m_t) < bound


def test_scaling_target_scales_solution():
    rng = np.random.default_rng(21)
    h, m_t = random_instance(rng)
    alpha = 2.5 - 1.25j
    c1 = solve(h, m_t, 1e-3)
    c2 = solve(h, alpha * m_t, 1e-3)
    assert np.allclose(c2, alpha * c1, rtol=1e-13)


def test_singular_normal_matrix_names_frequency():
    h = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    filters, kept, failures = solve_stack(h[None], np.eye(2)[None], [0.0], [432.1])
    assert filters.shape == (0, 2, 2) and not kept.any()
    assert failures == [(432.1, "normal matrix is singular at 432.1 Hz (beta = 0.0)")]


def test_solve_stack_skips_exactly_the_frequencies_that_fail():
    # 300 frequencies span two blocks; beta 0 with a silent speaker fails
    rng = np.random.default_rng(8)
    n = 300
    h = rng.normal(size=(n, 2, 3)) + 1j * rng.normal(size=(n, 2, 3))
    m_t = rng.normal(size=(n, 2, 2)) + 0j
    betas = np.where(np.arange(n) % 7 == 3, 0.0, 1e-3)
    h[betas == 0, :, 2] = 0.0
    freqs = 100.0 + np.arange(n)
    filters, kept, failures = solve_stack(h, m_t, betas, freqs)
    assert np.array_equal(kept, betas > 0)
    assert failures == [
        (f, f"normal matrix is singular at {f} Hz (beta = 0.0)")
        for f in freqs[betas == 0].tolist()
    ]
    assert filters.shape == (kept.sum(), 3, 2)
    for c, hf, mf, beta in zip(filters, h[kept], m_t[kept], betas[kept]):
        normal = hf.conj().T @ hf + beta * np.eye(3)
        expected = np.linalg.solve(normal, hf.conj().T @ mf)
        # two backward-stable solves agree to within the normal matrix's
        # condition number times a few units of roundoff
        bound = 10 * np.finfo(float).eps * np.linalg.cond(normal)
        assert np.linalg.norm(c - expected) <= bound * np.linalg.norm(expected)
    # the blocks change nothing: each frequency solved alone gives the same bits
    alone = [solve(hf, mf, beta) for hf, mf, beta in zip(h[kept], m_t[kept], betas[kept])]
    assert np.array_equal(filters, np.array(alone))


@pytest.mark.parametrize("h_shape, m_t_shape, betas, match", [
    ((1, 2, 2), (1, 2, 2), [-1.0], "beta must be >= 0, got -1.0"),
    ((1, 2, 2), (1, 3, 2), [1e-3], "H has 2 rows but the target has 3"),
    ((2, 2, 2), (1, 2, 2), [1e-3, 1e-3], "frequency counts differ"),
    ((2, 2, 2), (2, 2, 2), [1e-3], "frequency counts differ"),
], ids=["negative_beta", "point_count", "target_frequency_count", "beta_count"])
def test_solve_stack_rejects_inconsistent_input(h_shape, m_t_shape, betas, match):
    h, m_t = np.ones(h_shape, dtype=complex), np.ones(m_t_shape, dtype=complex)
    with pytest.raises(ValueError, match=match):
        solve_stack(h, m_t, betas, 100.0 * np.arange(1, h_shape[0] + 1))


def test_cost_examples():
    # the objective oracle itself, on hand values
    h = np.eye(3)
    m_t = np.arange(9, dtype=complex).reshape(3, 3)
    assert objective(h, m_t.copy(), m_t, 0.0) == pytest.approx(0.0, abs=1e-30)
    zero = np.zeros((3, 3), dtype=complex)
    assert objective(h, zero, m_t, 0.5) == pytest.approx(np.linalg.norm(m_t, "fro") ** 2)


def test_cost_decomposes_per_column():
    # each target column is its own design problem: the joint solve equals
    # the column-by-column solves, and the objective is their sum
    rng = np.random.default_rng(30)
    h, m_t = random_instance(rng)
    c = solve(h, m_t, 1e-3)
    total = objective(h, c, m_t, 1e-3)
    columns = [solve(h, m_t[:, [i]], 1e-3) for i in range(m_t.shape[1])]
    assert np.allclose(np.hstack(columns), c, rtol=1e-13, atol=0)
    per_column = sum(
        np.linalg.norm(h @ c[:, i] - m_t[:, i]) ** 2
        + 1e-3 * np.linalg.norm(c[:, i]) ** 2
        for i in range(m_t.shape[1])
    )
    assert total == pytest.approx(per_column, rel=1e-12)


def test_mono_target_averages_virtual_sources():
    scene = default_scene()
    h = response_matrix(scene, scene.control_points, 800.0)
    m_t = target_stack(scene, h, RenderingMode.MONO)
    assert m_t.shape == (4, 2)
    expected_a = h[:2, [0, 3]].mean(axis=1)
    assert np.allclose(m_t[:2, 0], expected_a, rtol=1e-15)
    assert np.all(m_t[2:, 0] == 0.0)
    expected_b = h[2:, [4, 7]].mean(axis=1)
    assert np.allclose(m_t[2:, 1], expected_b, rtol=1e-15)
    assert np.all(m_t[:2, 1] == 0.0)


def test_stereo_target_uses_single_sources():
    scene = default_scene()
    h = response_matrix(scene, scene.control_points, 800.0)
    m_t = target_stack(scene, h, RenderingMode.STEREO)
    assert m_t.shape == (4, 4)
    # second channel targets speaker index 3 in zone A only
    assert np.array_equal(m_t[:2, 1], h[:2, 3])
    assert np.all(m_t[2:, 1] == 0.0)
    # dark zone rows are exactly zero for every channel
    assert np.all(m_t[2:, :2] == 0.0)
    assert np.all(m_t[:2, 2:] == 0.0)


def test_xtc_target_keeps_one_entry_per_channel():
    scene = default_scene()
    h = response_matrix(scene, scene.control_points, 800.0)
    m_t = target_stack(scene, h, RenderingMode.XTC)
    expected_diag = [
        h[0, 0],
        h[1, 3],
        h[2, 4],
        h[3, 7],
    ]
    assert np.allclose(np.diag(m_t), expected_diag, rtol=1e-15)
    off_diagonal = m_t[~np.eye(4, dtype=bool)]
    assert np.all(off_diagonal == 0.0)


def test_xtc_requires_matching_channel_and_point_counts():
    scene = default_scene()
    import dataclasses

    lopsided = dataclasses.replace(scene, program_a=(0,), program_b=(1, 2, 3))
    h = response_matrix(lopsided, lopsided.control_points, 800.0)
    with pytest.raises(ValueError, match="one channel per zone point"):
        target_stack(lopsided, h, RenderingMode.XTC)


def test_program_channels_per_mode():
    scene = default_scene()
    assert program_channels(scene, RenderingMode.MONO) == ((0,), (1,))
    assert program_channels(scene, RenderingMode.STEREO) == ((0, 1), (2, 3))
    assert program_channels(scene, RenderingMode.XTC) == ((0, 1), (2, 3))


def test_system_matrix_exact_solve_regime():
    # a square H at beta = 0 matches the target exactly: M = H C = M_T
    rng = np.random.default_rng(6)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m_t = rng.standard_normal((4, 2)) + 0j
    assert np.allclose(h @ solve(h, m_t, 0.0, 700.0), m_t, atol=1e-8)


def test_default_beta():
    assert default_beta(4, 1e-4) == 4e-4
    assert default_beta(4, 0.0) == 0.0
    assert default_beta(2, 1e-4) == 2e-4
    with pytest.raises(ValueError):
        default_beta(0, 1e-4)
    with pytest.raises(ValueError):
        default_beta(4, -1e-4)
