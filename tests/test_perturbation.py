import dataclasses

import numpy as np
import pytest

from pszsim.acoustics import response_matrix
from pszsim.perturbation import UncertaintyModel, _generator, averaged_perturbed_stacks
from pszsim.scene import ListenerDisplacement, default_scene, move_listener


def perturbed(h, frequency, model, stream_id):
    """One matrix at one frequency, through a one-element stack."""
    (stack,) = averaged_perturbed_stacks([h[None]], [frequency], model, stream_id)
    return stack[0]


def literal_average(h, frequency, model, stream_id):
    """The documented average of ``model.trials`` draws of one matrix, written out."""
    z = _generator(model.seed, stream_id, frequency).standard_normal((model.trials, 2, *h.shape))
    amp = np.maximum(np.abs(h) + np.sqrt(model.sigma_amp_sq) * z[:, 0], 0.0)
    phase = np.angle(h) + np.sqrt(model.sigma_phase_sq) * z[:, 1]
    return (amp * np.exp(1j * phase)).mean(axis=0)


@pytest.fixture
def nominal():
    scene = default_scene()
    return response_matrix(scene, scene.control_points, 1000.0)


def test_zero_variance_returns_input_unchanged(nominal):
    model = UncertaintyModel(0.0, 0.0, trials=1, seed=7)
    out = perturbed(nominal, 1000.0, model, "design")
    assert np.array_equal(out, nominal)


def test_zero_variance_returns_the_matrix_itself(nominal):
    model = UncertaintyModel(0.0, 0.0, trials=3, seed=7)
    stack = nominal[None]
    assert averaged_perturbed_stacks([stack], [1000.0], model, "design")[0] is stack


def test_stacks_equal_one_frequency_calls_across_blocks():
    # 60 frequencies of 10 trials span three blocks of draws; two scenes share
    # them, and every frequency is the written-out average of its own draws
    scene = default_scene()
    moved = move_listener(scene, ListenerDisplacement("A", -0.3, -0.2))
    freqs = 100.0 * 2 ** (np.arange(60) / 12)
    model = UncertaintyModel(1e-4, 2e-4, trials=10, seed=4)
    stacks = [response_matrix(s, s.control_points, freqs) for s in (scene, moved)]
    out = averaged_perturbed_stacks(stacks, freqs, model, "eval")
    for stack, averaged in zip(stacks, out):
        single = [literal_average(h, f, model, "eval") for f, h in zip(freqs, stack)]
        assert np.array_equal(averaged, np.array(single))


def test_zero_variance_averaging_is_exact(nominal):
    model = UncertaintyModel(0.0, 0.0, trials=7, seed=7)
    out = perturbed(nominal, 1000.0, model, "eval")
    assert np.array_equal(out, nominal)


def test_same_seed_and_stream_is_bit_identical(nominal):
    model = UncertaintyModel(1e-4, 1e-4, trials=10, seed=3)
    single = dataclasses.replace(model, trials=1)
    a = perturbed(nominal, 1000.0, single, "design")
    b = perturbed(nominal, 1000.0, single, "design")
    assert np.array_equal(a, b)
    c = perturbed(nominal, 1000.0, model, "design")
    d = perturbed(nominal, 1000.0, model, "design")
    assert np.array_equal(c, d)


def test_distinct_streams_differ(nominal):
    model = UncertaintyModel(1e-4, 1e-4, seed=3)
    a = perturbed(nominal, 1000.0, model, "design")
    b = perturbed(nominal, 1000.0, model, "eval")
    assert not np.array_equal(a, b)


def test_distinct_seeds_differ(nominal):
    a = perturbed(nominal, 1000.0, UncertaintyModel(1e-4, 1e-4, seed=1), "design")
    b = perturbed(nominal, 1000.0, UncertaintyModel(1e-4, 1e-4, seed=2), "design")
    assert not np.array_equal(a, b)


def test_distinct_frequencies_draw_independently():
    scene = default_scene()
    model = UncertaintyModel(1e-4, 1e-4, seed=0)
    h = response_matrix(scene, scene.control_points, 1000.0)
    a = perturbed(h, 1000.0, model, "design")
    b = perturbed(h, 2000.0, model, "design")  # same entries, other frequency
    assert not np.array_equal(a - h, b - h)


def test_single_trial_is_one_literal_draw(nominal):
    # one trial is the documented draw itself, A * exp(1j*phi) from the
    # (seed, stream, frequency) generator, with no averaging arithmetic
    model = UncertaintyModel(1e-4, 4e-4, trials=1, seed=11)
    z = _generator(11, "design", 1000.0).standard_normal((2, *nominal.shape))
    amp = np.abs(nominal) + 1e-2 * z[0]
    phase = np.angle(nominal) + 2e-2 * z[1]
    assert (amp > 0).all()  # no amplitude is clamped at this variance
    assert np.array_equal(perturbed(nominal, 1000.0, model, "design"), amp * np.exp(1j * phase))


def test_amplitude_sample_mean_converges():
    # one nominal value replicated across a wide matrix gives 1e5
    # independent draws of the same distribution in a single call
    n = 100_000
    sigma_sq = 1e-4
    nominal_value = 0.8 * np.exp(0.3j)
    H = np.full((1, n), nominal_value)
    out = perturbed(H, 500.0, UncertaintyModel(sigma_sq, sigma_sq, seed=5), "design")
    amp = np.abs(out)
    sigma = np.sqrt(sigma_sq)
    assert abs(amp.mean() - 0.8) < 3 * sigma / np.sqrt(n)
    assert amp.std() == pytest.approx(sigma, rel=0.02)
    phase = np.angle(out)
    assert abs(phase.mean() - 0.3) < 3 * sigma / np.sqrt(n)


def test_averaging_shrinks_error_like_sqrt_trials():
    # entrywise deviation of a 10-trial mean has standard error
    # sigma/sqrt(10); estimate it over 1000 independent entries
    n = 1000
    sigma_sq = 1e-4
    H = np.full((1, n), 1.0 + 0.0j)
    model = UncertaintyModel(sigma_sq, 0.0, trials=10, seed=9)
    out = perturbed(H, 500.0, model, "design")
    deviation = np.abs(out) - 1.0
    expected = np.sqrt(sigma_sq / 10)
    assert deviation.std() == pytest.approx(expected, rel=0.15)


def test_error_decreases_with_trial_count(nominal):
    sigma_sq = 1e-4
    errors = []
    for trials in (1, 10, 100, 1000):
        model = UncertaintyModel(sigma_sq, sigma_sq, trials=trials, seed=2)
        out = perturbed(nominal, 1000.0, model, "design")
        errors.append(np.abs(out - nominal).mean())
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_negative_amplitudes_clamp_to_zero():
    # nominal magnitude far below sigma makes negative draws common
    H = np.full((1, 2000), 1e-6 + 0j)
    out = perturbed(H, 100.0, UncertaintyModel(1e-2, 0.0, seed=1), "design")
    assert np.abs(out).min() == 0.0


def test_model_validation():
    with pytest.raises(ValueError, match="sigma_amp_sq"):
        UncertaintyModel(-1e-4, 0.0)
    with pytest.raises(ValueError, match="sigma_phase_sq"):
        UncertaintyModel(0.0, -1.0)
    with pytest.raises(ValueError, match="trials"):
        UncertaintyModel(0.0, 0.0, trials=0)
