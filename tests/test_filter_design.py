import numpy as np
import pytest

from pszsim.acoustics import TransferMatrix, transfer_matrix
from pszsim.filter_design import (
    FilterMatrix,
    IllConditionedError,
    RenderingMode,
    TargetMatrix,
    build_target_matrix,
    cost,
    default_beta,
    pressure_matching,
    program_channels,
    solve_stack,
    system_matrix,
)
from pszsim.scene import default_scene


def random_instance(rng, k=4, l_count=8, channels=4):
    h = TransferMatrix(
        1000.0, rng.standard_normal((k, l_count)) + 1j * rng.standard_normal((k, l_count))
    )
    m_t = TargetMatrix(
        1000.0, rng.standard_normal((k, channels)) + 1j * rng.standard_normal((k, channels))
    )
    return h, m_t


def test_identity_exact_match():
    h = TransferMatrix(100.0, np.eye(2))
    m_t = TargetMatrix(100.0, np.eye(2))
    c = pressure_matching(h, m_t, 0.0)
    assert np.allclose(c.entries, np.eye(2), atol=1e-14)


def test_identity_shrinkage_closed_form():
    beta = 4e-4
    h = TransferMatrix(100.0, np.eye(2))
    m_t = TargetMatrix(100.0, np.eye(2))
    c = pressure_matching(h, m_t, beta)
    assert c.entries[0, 0].real == pytest.approx(1.0 / (1.0 + beta), rel=1e-14)
    assert c.entries[0, 0].real == pytest.approx(0.99960016, abs=5e-9)
    assert abs(c.entries[0, 1]) == 0.0


def test_solution_minimizes_cost():
    rng = np.random.default_rng(42)
    h, m_t = random_instance(rng)
    beta = 1e-3
    c_star = pressure_matching(h, m_t, beta)
    base = cost(h, c_star, m_t, beta)
    for _ in range(100):
        e = 1e-4 * (
            rng.standard_normal(c_star.entries.shape)
            + 1j * rng.standard_normal(c_star.entries.shape)
        )
        perturbed = FilterMatrix(h.frequency, c_star.entries + e)
        assert cost(h, perturbed, m_t, beta) >= base


def test_normal_equation_residual():
    rng = np.random.default_rng(3)
    for _ in range(20):
        h, m_t = random_instance(rng)
        beta = float(rng.uniform(1e-6, 1e-2))
        c = pressure_matching(h, m_t, beta)
        gram = h.entries.conj().T @ h.entries + beta * np.eye(h.entries.shape[1])
        rhs = h.entries.conj().T @ m_t.entries
        residual = np.linalg.norm(gram @ c.entries - rhs) / np.linalg.norm(rhs)
        assert residual <= 1e-8


def test_filter_norm_non_increasing_in_beta():
    rng = np.random.default_rng(8)
    h, m_t = random_instance(rng)
    betas = [1e-6, 1e-4, 1e-2, 1.0, 100.0]
    norms = [
        np.linalg.norm(pressure_matching(h, m_t, b).entries, "fro") for b in betas
    ]
    assert all(a >= b for a, b in zip(norms, norms[1:]))


def test_residual_vanishes_as_beta_to_zero():
    rng = np.random.default_rng(15)
    h, m_t = random_instance(rng, k=4, l_count=8)
    for beta, bound in ((1e-2, 1e-1), (1e-6, 1e-5), (1e-12, 1e-9)):
        c = pressure_matching(h, m_t, beta)
        assert np.linalg.norm(h.entries @ c.entries - m_t.entries) < bound


def test_scaling_target_scales_solution():
    rng = np.random.default_rng(21)
    h, m_t = random_instance(rng)
    alpha = 2.5 - 1.25j
    c1 = pressure_matching(h, m_t, 1e-3)
    c2 = pressure_matching(h, TargetMatrix(h.frequency, alpha * m_t.entries), 1e-3)
    assert np.allclose(c2.entries, alpha * c1.entries, rtol=1e-13)


def test_singular_normal_matrix_names_frequency():
    h = TransferMatrix(432.1, np.array([[1.0, 0.0], [0.0, 0.0]]))
    m_t = TargetMatrix(432.1, np.eye(2))
    with pytest.raises(IllConditionedError, match="432.1"):
        pressure_matching(h, m_t, 0.0)


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
    assert filters.shape == (kept.sum(), 3, 2)
    expected_failures, expected_filters = [], []
    for f, hf, mf, beta in zip(freqs, h, m_t, betas):
        try:
            c = pressure_matching(TransferMatrix(f, hf), TargetMatrix(f, mf), beta)
        except IllConditionedError as exc:
            expected_failures.append((f, str(exc)))
        else:
            expected_filters.append(c.entries)
    assert failures == expected_failures
    assert np.array_equal(filters, np.array(expected_filters))


def test_beta_validation_and_frequency_mismatch():
    h = TransferMatrix(100.0, np.eye(2))
    m_t = TargetMatrix(100.0, np.eye(2))
    with pytest.raises(ValueError, match="beta"):
        pressure_matching(h, m_t, -1.0)
    with pytest.raises(ValueError, match="frequency"):
        pressure_matching(h, TargetMatrix(200.0, np.eye(2)), 1e-3)


def test_cost_examples():
    h = TransferMatrix(100.0, np.eye(3))
    m_t = TargetMatrix(100.0, np.arange(9, dtype=complex).reshape(3, 3))
    exact = FilterMatrix(100.0, m_t.entries.copy())
    assert cost(h, exact, m_t, 0.0) == pytest.approx(0.0, abs=1e-30)
    zero = FilterMatrix(100.0, np.zeros((3, 3), dtype=complex))
    assert cost(h, zero, m_t, 0.5) == pytest.approx(np.linalg.norm(m_t.entries, "fro") ** 2)


def test_cost_decomposes_per_column():
    rng = np.random.default_rng(30)
    h, m_t = random_instance(rng)
    c = pressure_matching(h, m_t, 1e-3)
    total = cost(h, c, m_t, 1e-3)
    per_column = sum(
        np.linalg.norm(h.entries @ c.entries[:, i] - m_t.entries[:, i]) ** 2
        + 1e-3 * np.linalg.norm(c.entries[:, i]) ** 2
        for i in range(m_t.entries.shape[1])
    )
    assert total == pytest.approx(per_column, rel=1e-12)


def test_mono_target_averages_virtual_sources():
    scene = default_scene()
    h = transfer_matrix(scene, scene.control_points, 800.0)
    m_t = build_target_matrix(scene, h, RenderingMode.MONO).entries
    assert m_t.shape == (4, 2)
    expected_a = h.entries[:2, [0, 3]].mean(axis=1)
    assert np.allclose(m_t[:2, 0], expected_a, rtol=1e-15)
    assert np.all(m_t[2:, 0] == 0.0)
    expected_b = h.entries[2:, [4, 7]].mean(axis=1)
    assert np.allclose(m_t[2:, 1], expected_b, rtol=1e-15)
    assert np.all(m_t[:2, 1] == 0.0)


def test_stereo_target_uses_single_sources():
    scene = default_scene()
    h = transfer_matrix(scene, scene.control_points, 800.0)
    m_t = build_target_matrix(scene, h, RenderingMode.STEREO).entries
    assert m_t.shape == (4, 4)
    # second channel targets speaker index 3 in zone A only
    assert np.array_equal(m_t[:2, 1], h.entries[:2, 3])
    assert np.all(m_t[2:, 1] == 0.0)
    # dark zone rows are exactly zero for every channel
    assert np.all(m_t[2:, :2] == 0.0)
    assert np.all(m_t[:2, 2:] == 0.0)


def test_xtc_target_keeps_one_entry_per_channel():
    scene = default_scene()
    h = transfer_matrix(scene, scene.control_points, 800.0)
    m_t = build_target_matrix(scene, h, RenderingMode.XTC).entries
    expected_diag = [
        h.entries[0, 0],
        h.entries[1, 3],
        h.entries[2, 4],
        h.entries[3, 7],
    ]
    assert np.allclose(np.diag(m_t), expected_diag, rtol=1e-15)
    off_diagonal = m_t[~np.eye(4, dtype=bool)]
    assert np.all(off_diagonal == 0.0)


def test_xtc_requires_matching_channel_and_point_counts():
    scene = default_scene()
    import dataclasses

    lopsided = dataclasses.replace(scene, program_a=(0,), program_b=(1, 2, 3))
    h = transfer_matrix(lopsided, lopsided.control_points, 800.0)
    with pytest.raises(ValueError, match="one channel per zone point"):
        build_target_matrix(lopsided, h, RenderingMode.XTC)


def test_program_channels_per_mode():
    scene = default_scene()
    assert program_channels(scene, RenderingMode.MONO) == ((0,), (1,))
    assert program_channels(scene, RenderingMode.STEREO) == ((0, 1), (2, 3))
    assert program_channels(scene, RenderingMode.XTC) == ((0, 1), (2, 3))


def test_system_matrix_identity_propagation():
    rng = np.random.default_rng(5)
    h = TransferMatrix(
        700.0, rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    )
    c = FilterMatrix(700.0, np.eye(8, dtype=complex))
    m = system_matrix(h, c)
    assert np.array_equal(m.entries, h.entries)


def test_system_matrix_exact_solve_regime():
    rng = np.random.default_rng(6)
    h = TransferMatrix(
        700.0, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    )
    m_t = TargetMatrix(700.0, rng.standard_normal((4, 2)) + 0j)
    c = pressure_matching(h, m_t, 0.0)
    m = system_matrix(h, c)
    assert np.allclose(m.entries, m_t.entries, atol=1e-8)


def test_system_matrix_checks():
    h = TransferMatrix(700.0, np.eye(3))
    with pytest.raises(ValueError, match="frequency"):
        system_matrix(h, FilterMatrix(500.0, np.eye(3)))
    with pytest.raises(ValueError, match="dimensions"):
        system_matrix(h, FilterMatrix(700.0, np.eye(4)))


def test_default_beta():
    assert default_beta(4, 1e-4) == 4e-4
    assert default_beta(4, 0.0) == 0.0
    assert default_beta(2, 1e-4) == 2e-4
    with pytest.raises(ValueError):
        default_beta(0, 1e-4)
    with pytest.raises(ValueError):
        default_beta(4, -1e-4)
