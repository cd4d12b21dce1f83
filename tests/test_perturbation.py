import dataclasses

import numpy as np
import pytest

from pszsim.acoustics import TransferMatrix, response_matrix, transfer_matrix
from pszsim.perturbation import (
    UncertaintyModel,
    _generator,
    averaged_perturbed,
    averaged_perturbed_stacks,
)
from pszsim.scene import ListenerDisplacement, default_scene, move_listener


@pytest.fixture
def nominal():
    scene = default_scene()
    return transfer_matrix(scene, scene.control_points, 1000.0)


def test_zero_variance_returns_input_unchanged(nominal):
    model = UncertaintyModel(0.0, 0.0, trials=1, seed=7)
    out = averaged_perturbed(nominal, model, "design")
    assert np.array_equal(out.entries, nominal.entries)


def test_zero_variance_returns_the_matrix_itself(nominal):
    model = UncertaintyModel(0.0, 0.0, trials=3, seed=7)
    assert averaged_perturbed(nominal, model, "design") is nominal
    stack = nominal.entries[None]
    assert averaged_perturbed_stacks([stack], [1000.0], model, "design")[0] is stack


def test_stacks_equal_one_frequency_calls_across_blocks():
    # 60 frequencies of 10 trials span three blocks of draws; two scenes share them
    scene = default_scene()
    moved = move_listener(scene, ListenerDisplacement("A", -0.3, -0.2))
    freqs = 100.0 * 2 ** (np.arange(60) / 12)
    model = UncertaintyModel(1e-4, 2e-4, trials=10, seed=4)
    stacks = [response_matrix(s, s.control_points, freqs) for s in (scene, moved)]
    out = averaged_perturbed_stacks(stacks, freqs, model, "eval")
    for stack, averaged in zip(stacks, out):
        single = [
            averaged_perturbed(TransferMatrix(f, h), model, "eval").entries
            for f, h in zip(freqs, stack)
        ]
        assert np.array_equal(averaged, np.array(single))


def test_zero_variance_averaging_is_exact(nominal):
    model = UncertaintyModel(0.0, 0.0, trials=7, seed=7)
    out = averaged_perturbed(nominal, model, "eval")
    assert np.array_equal(out.entries, nominal.entries)


def test_same_seed_and_stream_is_bit_identical(nominal):
    model = UncertaintyModel(1e-4, 1e-4, trials=10, seed=3)
    single = dataclasses.replace(model, trials=1)
    a = averaged_perturbed(nominal, single, "design")
    b = averaged_perturbed(nominal, single, "design")
    assert np.array_equal(a.entries, b.entries)
    c = averaged_perturbed(nominal, model, "design")
    d = averaged_perturbed(nominal, model, "design")
    assert np.array_equal(c.entries, d.entries)


def test_distinct_streams_differ(nominal):
    model = UncertaintyModel(1e-4, 1e-4, seed=3)
    a = averaged_perturbed(nominal, model, "design")
    b = averaged_perturbed(nominal, model, "eval")
    assert not np.array_equal(a.entries, b.entries)


def test_distinct_seeds_differ(nominal):
    a = averaged_perturbed(nominal, UncertaintyModel(1e-4, 1e-4, seed=1), "design")
    b = averaged_perturbed(nominal, UncertaintyModel(1e-4, 1e-4, seed=2), "design")
    assert not np.array_equal(a.entries, b.entries)


def test_distinct_frequencies_draw_independently():
    scene = default_scene()
    model = UncertaintyModel(1e-4, 1e-4, seed=0)
    h1 = transfer_matrix(scene, scene.control_points, 1000.0)
    h2 = TransferMatrix(2000.0, h1.entries)  # same entries, other frequency
    a = averaged_perturbed(h1, model, "design")
    b = averaged_perturbed(h2, model, "design")
    assert not np.array_equal(a.entries - h1.entries, b.entries - h2.entries)


def test_single_trial_is_one_literal_draw(nominal):
    # one trial is the documented draw itself, A * exp(1j*phi) from the
    # (seed, stream, frequency) generator, with no averaging arithmetic
    model = UncertaintyModel(1e-4, 4e-4, trials=1, seed=11)
    z = _generator(11, "design", 1000.0).standard_normal((2, *nominal.shape))
    amp = np.abs(nominal.entries) + 1e-2 * z[0]
    phase = np.angle(nominal.entries) + 2e-2 * z[1]
    assert (amp > 0).all()  # no amplitude is clamped at this variance
    assert np.array_equal(
        averaged_perturbed(nominal, model, "design").entries,
        amp * np.exp(1j * phase),
    )


def test_amplitude_sample_mean_converges():
    # one nominal value replicated across a wide matrix gives 1e5
    # independent draws of the same distribution in a single call
    n = 100_000
    sigma_sq = 1e-4
    nominal_value = 0.8 * np.exp(0.3j)
    H = TransferMatrix(500.0, np.full((1, n), nominal_value))
    out = averaged_perturbed(H, UncertaintyModel(sigma_sq, sigma_sq, seed=5), "design")
    amp = np.abs(out.entries)
    sigma = np.sqrt(sigma_sq)
    assert abs(amp.mean() - 0.8) < 3 * sigma / np.sqrt(n)
    assert amp.std() == pytest.approx(sigma, rel=0.02)
    phase = np.angle(out.entries)
    assert abs(phase.mean() - 0.3) < 3 * sigma / np.sqrt(n)


def test_averaging_shrinks_error_like_sqrt_trials():
    # entrywise deviation of a 10-trial mean has standard error
    # sigma/sqrt(10); estimate it over 1000 independent entries
    n = 1000
    sigma_sq = 1e-4
    H = TransferMatrix(500.0, np.full((1, n), 1.0 + 0.0j))
    model = UncertaintyModel(sigma_sq, 0.0, trials=10, seed=9)
    out = averaged_perturbed(H, model, "design")
    deviation = np.abs(out.entries) - 1.0
    expected = np.sqrt(sigma_sq / 10)
    assert deviation.std() == pytest.approx(expected, rel=0.15)


def test_error_decreases_with_trial_count(nominal):
    sigma_sq = 1e-4
    errors = []
    for trials in (1, 10, 100, 1000):
        model = UncertaintyModel(sigma_sq, sigma_sq, trials=trials, seed=2)
        out = averaged_perturbed(nominal, model, "design")
        errors.append(np.abs(out.entries - nominal.entries).mean())
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_negative_amplitudes_clamp_to_zero():
    # nominal magnitude far below sigma makes negative draws common
    H = TransferMatrix(100.0, np.full((1, 2000), 1e-6 + 0j))
    out = averaged_perturbed(H, UncertaintyModel(1e-2, 0.0, seed=1), "design")
    assert np.abs(out.entries).min() == 0.0


def test_model_validation():
    with pytest.raises(ValueError, match="sigma_amp_sq"):
        UncertaintyModel(-1e-4, 0.0)
    with pytest.raises(ValueError, match="sigma_phase_sq"):
        UncertaintyModel(0.0, -1.0)
    with pytest.raises(ValueError, match="trials"):
        UncertaintyModel(0.0, 0.0, trials=0)
