import copy
import dataclasses
import hashlib
import struct

import numpy as np
import pytest
import scipy.special

from pszsim.acoustics import response_matrix
from pszsim.cli import _DESIGN_STREAM, _EVAL_STREAM
from pszsim.config import default_config_dict, resolve_config
from pszsim.perturbation import (
    _BLOCK_NORMALS,
    UncertaintyModel,
    _key,
    _prefix,
    averaged_perturbed_stacks,
)
from pszsim.scene import ListenerDisplacement, default_scene, move_listener


def perturbed(h, frequency, model, stream_id):
    """One matrix at one frequency, through a one-element stack."""
    (stack,) = averaged_perturbed_stacks([h[None]], [frequency], model, stream_id)
    return stack[0]


def literal_key(seed, stream_id, frequency):
    """The documented key: blake2s of (seed, stream, NUL, frequency), read big-endian."""
    message = struct.pack(">q", seed) + stream_id.encode() + b"\0" + struct.pack(">d", frequency)
    return int.from_bytes(hashlib.blake2s(message, digest_size=16).digest(), "big")


def fresh_generator(seed, stream_id, frequency):
    """A generator built new for the (seed, stream, frequency) key, as documented."""
    return np.random.Generator(np.random.Philox(key=literal_key(seed, stream_id, frequency)))


def literal_average(h, frequency, model, stream_id):
    """The documented average of ``model.trials`` draws of one matrix, written out."""
    rng = fresh_generator(model.seed, stream_id, frequency)
    z = rng.standard_normal((model.trials, 2, *h.shape))
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


@pytest.mark.parametrize("trials", [1, 10])
def test_rekeyed_draws_equal_fresh_generators(trials):
    # 300 frequencies are more than one block of draws even at one trial,
    # the last revisits the first after all the others, and the two streams'
    # calls interleave: every average is still built from the draws of a
    # generator constructed fresh for its own key, so no state carries over
    rng = np.random.default_rng(3)
    freqs = np.append(1000.0 * 2 ** (np.arange(299) / 48), 1000.0)
    stack = rng.normal(size=(300, 4, 8)) + 1j * rng.normal(size=(300, 4, 8))
    stack[-1] = stack[0]
    assert len(freqs) > _BLOCK_NORMALS // (2 * 4 * 8)
    model = UncertaintyModel(1e-4, 2e-4, trials=trials, seed=6)
    for stream in ("design", "eval", "design"):
        (out,) = averaged_perturbed_stacks([stack], freqs, model, stream)
        expected = [literal_average(h, f, model, stream) for h, f in zip(stack, freqs)]
        assert np.array_equal(out, np.array(expected))
        assert np.array_equal(out[-1], out[0])


@pytest.mark.parametrize("trials", [1, 2, 10])
def test_clamped_averages_equal_the_complex_literal_bit_for_bit(trials):
    # at unit variance about half of the amplitude samples are clamped to
    # zero; the real-arithmetic kernel must give the complex literal's every
    # bit, signed zeros included, which np.array_equal would not tell apart
    rng = np.random.default_rng(12)
    freqs = 500.0 + np.arange(300)
    stacks = [0.01 * (rng.normal(size=(300, 4, 8)) + 1j * rng.normal(size=(300, 4, 8)))
              for _ in range(2)]
    assert len(freqs) > _BLOCK_NORMALS // (2 * trials * 4 * 8)
    model = UncertaintyModel(1.0, 1.0, trials=trials, seed=2)
    out = averaged_perturbed_stacks(stacks, freqs, model, "eval")
    clamped = 0
    for stack, averaged in zip(stacks, out):
        expected = np.array([literal_average(h, f, model, "eval") for h, f in zip(stack, freqs)])
        assert np.array_equal(averaged.view(np.uint64), expected.view(np.uint64))
        assert (expected.view(float) == 0.0).any()
        z = np.array([fresh_generator(2, "eval", f).standard_normal((trials, 2, 4, 8))
                      for f in freqs])
        clamped += np.count_nonzero(np.abs(stack)[:, None] + z[:, :, 0] < 0.0)
    assert 0.4 < clamped / (2 * 300 * trials * 32) < 0.6


def assert_each_is_its_own_call(stacks, freqs, model, stream):
    """Each stack's average in one call of all ``stacks`` has every bit of its
    average in a one-stack call, NaN payloads and signed zeros included."""
    for h, averaged in zip(stacks, averaged_perturbed_stacks(stacks, freqs, model, stream)):
        (alone,) = averaged_perturbed_stacks([h], freqs, model, stream)
        assert np.array_equal(averaged.view(np.uint64), alone.view(np.uint64))


@pytest.mark.parametrize("trials", [9, 16])
def test_later_stacks_of_one_speaker_have_the_bits_of_their_own_calls(trials):
    # one speaker: the second stack shares 3 of its 4 point rows, so its own
    # rows would be a single entry per draw, whose trials numpy sums pairwise
    # from 9 on, not in order as it sums them over a whole stack; the third
    # computes 2 rows, whose trials numpy sums in order only in C order
    rng = np.random.default_rng(21)
    freqs = 200.0 + np.arange(300)
    a = rng.normal(size=(300, 4, 1)) + 1j * rng.normal(size=(300, 4, 1))
    b, c = a.copy(), a.copy()
    b[:, 2] *= 1.5
    c[:, [0, 2]] *= 0.5
    model = UncertaintyModel(1e-2, 2e-2, trials=trials, seed=5)
    assert len(freqs) > _BLOCK_NORMALS // (2 * trials * 4)
    assert_each_is_its_own_call([a, b, c], freqs, model, "eval")


def test_a_stack_copies_each_shared_row_from_the_first_stack_that_holds_it():
    # stack 3 shares row 0 with stack 1 and row 1 with stack 2, at the same
    # points, and computes row 2; rows equal at other points share no draws
    rng = np.random.default_rng(22)
    freqs = 300.0 + np.arange(40)
    one, two, three = (rng.normal(size=(40, 3, 2)) + 1j * rng.normal(size=(40, 3, 2))
                       for _ in range(3))
    three[:, 0], three[:, 1] = one[:, 0], two[:, 1]
    two[:, 2] = one[:, 0]
    model = UncertaintyModel(1e-2, 2e-2, trials=10, seed=6)
    assert_each_is_its_own_call([one, two, three], freqs, model, "design")
    out = averaged_perturbed_stacks([one, two, three], freqs, model, "design")
    assert np.array_equal(out[2][:, :2], np.stack([out[0][:, 0], out[1][:, 1]], axis=1))
    assert not np.array_equal(out[1][:, 2], out[0][:, 0])


def test_a_row_that_is_nan_in_two_stacks_keeps_the_bits_of_each_own_call():
    rng = np.random.default_rng(23)
    freqs = 400.0 + np.arange(30)
    stacks = [rng.normal(size=(30, 4, 3)) + 1j * rng.normal(size=(30, 4, 3)) for _ in range(2)]
    for h in stacks:
        h[:, 1] = np.nan
        h[5, 3, 2] = complex(np.nan, 1.0)
    model = UncertaintyModel(1e-2, 2e-2, trials=3, seed=7)
    assert_each_is_its_own_call(stacks, freqs, model, "eval")


def test_template_scenes_take_the_cosine_of_6_point_rows_per_block(monkeypatch):
    # the moved-listener scene shares zone B's 2 point rows with the base
    # scene, so each block takes cos over the base scene's 4 rows and the
    # moved scene's 2 zone A rows, 6 and not 8, and every bit stays its own
    config = resolve_config(default_config_dict())
    model, freqs = config.model, config.frequencies
    base, moved = config.scenes.values()
    stacks = [response_matrix(s, s.control_points, freqs) for s in (base, moved)]
    assert np.array_equal(stacks[0][:, base.zone_b], stacks[1][:, base.zone_b])
    shapes, cos = [], np.cos

    def counting_cos(x, *args, **kwargs):
        shapes.append(x.shape)
        return cos(x, *args, **kwargs)

    monkeypatch.setattr(np, "cos", counting_cos)
    averaged_perturbed_stacks(stacks, freqs, model, _EVAL_STREAM)
    monkeypatch.undo()
    step = _BLOCK_NORMALS // (model.trials * 2 * 4 * 8)
    blocks = -(-len(freqs) // step)
    assert [shape[1:] for shape in shapes] == [(10, 4, 8), (10, 2, 8)] * blocks
    assert sum(shape[0] * shape[2] for shape in shapes) == 6 * len(freqs)
    assert_each_is_its_own_call(stacks, freqs, model, _EVAL_STREAM)


EDGE_FREQUENCIES = [5e-324, 1e300, 1000.0, float(np.nextafter(1000.0, np.inf))]


def as_integers(state):
    """A bit generator state with every number an int and every array a list of ints."""
    if isinstance(state, dict):
        return {name: as_integers(value) for name, value in state.items()}
    if isinstance(state, str):
        return state
    if np.ndim(state):
        return [int(value) for value in state]
    return int(state)


@pytest.mark.parametrize("seed", [-(2**63), 2**63 - 1])
def test_assigned_states_equal_fresh_philox_states_field_by_field(seed, monkeypatch):
    # every state dict the generator is re-keyed with has exactly the fields
    # of a Philox built on the literal key, each equal as integers, so a
    # numpy that adds, drops or renames a state field fails here; key words
    # above 2**63 come from the extreme seeds and the edge frequencies
    assigned, philox = [], np.random.Philox

    class Philox(philox):  # the state setter checks the class name
        @property
        def state(self):
            return philox.state.__get__(self)

        @state.setter
        def state(self, value):
            assigned.append(copy.deepcopy(value))
            philox.state.__set__(self, value)

    expected = [as_integers(philox(key=literal_key(seed, "eval", f)).state)
                for f in EDGE_FREQUENCIES]
    assert max(key for state in expected for key in state["state"]["key"]) >= 2**63
    stack = np.ones((len(EDGE_FREQUENCIES), 2, 3), dtype=complex)
    monkeypatch.setattr(np.random, "Philox", Philox)
    averaged_perturbed_stacks([stack], EDGE_FREQUENCIES, UncertaintyModel(1e-4, 2e-4, 3, seed),
                              "eval")
    assert [as_integers(state) for state in assigned] == expected


@pytest.mark.parametrize("seed", [-(2**63), 0, 2**63 - 1])
@pytest.mark.parametrize("stream", ["design", "évaluation ζ"])
def test_key_equals_literal_blake2s_oracle(seed, stream):
    # extreme seeds, a non-ASCII stream id, the smallest subnormal, a huge
    # frequency and two adjacent doubles: each key is the literal hash, and
    # the draws of a stack are those of Philox generators built on it
    keys = [literal_key(seed, stream, f) for f in EDGE_FREQUENCIES]
    prefix = _prefix(seed, stream)
    assert [_key(prefix, struct.pack(">d", f)) for f in EDGE_FREQUENCIES] == keys
    assert len(set(keys)) == len(keys)
    rng = np.random.default_rng(8)
    stack = rng.normal(size=(4, 2, 3)) + 1j * rng.normal(size=(4, 2, 3))
    model = UncertaintyModel(1e-4, 2e-4, trials=2, seed=seed)
    (out,) = averaged_perturbed_stacks([stack], EDGE_FREQUENCIES, model, stream)
    expected = [literal_average(h, f, model, stream) for h, f in zip(stack, EDGE_FREQUENCIES)]
    assert np.array_equal(out, np.array(expected))


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
    z = fresh_generator(11, "design", 1000.0).standard_normal((2, *nominal.shape))
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


def template_stacks():
    """The template config and the nominal (F, K, L) stack of each of its scenes."""
    config = resolve_config(default_config_dict())
    stacks = [response_matrix(s, s.control_points, config.frequencies)
              for s in config.scenes.values()]
    return config, stacks


def test_template_spectra_clamps_amplitudes_at_the_piston_nulls():
    # the template's design and evaluation draws of both scenes, counted from
    # generators built fresh for each key: 1,105 of 408,320 amplitude samples
    # (0.27 %) are negative, at 51 frequencies from 4.46 kHz up, where |H| at
    # the piston's directivity nulls falls far below sigma_amp = 0.01
    config, stacks = template_stacks()
    model, freqs = config.model, config.frequencies
    amp_sd, phase_sd = np.sqrt(model.sigma_amp_sq), np.sqrt(model.sigma_phase_sq)
    clamped, samples = {}, 0
    for stream in (_DESIGN_STREAM, _EVAL_STREAM):
        averaged = averaged_perturbed_stacks(stacks, freqs, model, stream)
        for i, f in enumerate(freqs):
            z = fresh_generator(model.seed, stream, f).standard_normal((model.trials, 2, 4, 8))
            for h, out in zip(stacks, averaged):
                amp = np.abs(h[i]) + amp_sd * z[:, 0]
                samples += amp.size
                if (amp < 0).any():
                    clamped[f] = clamped.get(f, 0) + np.count_nonzero(amp < 0)
                    # the library's average is the clamped one, not the raw one
                    phase = np.exp(1j * (np.angle(h[i]) + phase_sd * z[:, 1]))
                    assert np.array_equal(out[i], (np.maximum(amp, 0.0) * phase).mean(axis=0))
                    assert not np.array_equal(out[i], (amp * phase).mean(axis=0))
    assert (sum(clamped.values()), samples, len(clamped)) == (1105, 408320, 51)
    assert round(min(clamped), 1) == 4460.6


def draw_moments(h, model):
    """(E[H~], v, E[A], E[A^2]) of one draw of each entry of ``h``, from the closed forms.

    With A ~ N(mu, sigma_a^2) clamped at 0, phi ~ N(theta, sigma_p^2), mu = |H|,
    theta = arg H and z = mu / sigma_a: E[A] = mu Phi(z) + sigma_a phi(z),
    E[A^2] = (mu^2 + sigma_a^2) Phi(z) + mu sigma_a phi(z), E[H~] = E[A] e^(i theta)
    e^(-sigma_p^2 / 2), and the variance v = E[A^2] - |E[H~]|^2. A T-trial average
    has mean E[H~] and E|average - E[H~]|^2 = v / T.
    """
    mu, sigma_a = np.abs(h), np.sqrt(model.sigma_amp_sq)
    z = mu / sigma_a
    cdf, pdf = scipy.special.ndtr(z), np.exp(-z * z / 2) / np.sqrt(2 * np.pi)
    mean_a = mu * cdf + sigma_a * pdf
    mean_a2 = (mu * mu + model.sigma_amp_sq) * cdf + mu * sigma_a * pdf
    mean = mean_a * np.exp(1j * np.angle(h)) * np.exp(-model.sigma_phase_sq / 2)
    return mean, mean_a2 - np.abs(mean) ** 2, mean_a, mean_a2


def scatter_bound(entries):
    """How far from 1 the mean of |average - E[H~]|^2 / (v / T) over ``entries``
    independent entries may fall: 5 standard errors. Each term has mean 1 and,
    for a Gaussian error, variance 2(a^2 + b^2) / (a + b)^2 <= 2, a and b the
    variances along its principal axes (2 with all of it along one)."""
    return 5 * np.sqrt(2 / entries)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("stream", [_DESIGN_STREAM, _EVAL_STREAM])
def test_template_averages_scatter_about_the_closed_form_mean_by_v_over_trials(seed, stream):
    # every entry of a stack draws its own normals, so its 10,208 entries
    # (319 frequencies x 4 points x 8 speakers) are independent; the mean
    # normalized squared error read 0.995 to 1.032 at seed 0
    config, stacks = template_stacks()
    model = dataclasses.replace(config.model, seed=seed)
    for h, averaged in zip(stacks, averaged_perturbed_stacks(stacks, config.frequencies,
                                                             model, stream)):
        mean, v, _, _ = draw_moments(h, model)
        error = np.abs(averaged - mean) ** 2 / (v / model.trials)
        assert error.size == 10208
        assert abs(error.mean() - 1) < scatter_bound(error.size)
    # v is not the constant sigma^2 that auto beta assumes: on the base scene
    # it runs from 0.345 sigma^2 (mu near 0) to 2 sigma^2 (|H| near 1)
    _, v, _, _ = draw_moments(stacks[0], model)
    assert (round(v.min() / model.sigma_amp_sq, 3), round(v.max() / model.sigma_amp_sq, 3)) \
        == (0.345, 1.998)


@pytest.mark.parametrize("stream", [_DESIGN_STREAM, _EVAL_STREAM])
def test_at_1000_trials_the_closed_form_mean_passes_and_the_nominal_fails(stream):
    # every 16th template frequency, 640 entries per stack: the scatter about
    # E[H~] stays near 1 (0.975 to 0.995), while the scatter about the nominal
    # H carries the phase noise's shrink and the clamp's bias (1.43 to 2.15)
    config, stacks = template_stacks()
    model = dataclasses.replace(config.model, trials=1000)
    stacks = [h[::16] for h in stacks]
    for h, averaged in zip(stacks, averaged_perturbed_stacks(
            stacks, config.frequencies[::16], model, stream)):
        mean, v, _, _ = draw_moments(h, model)
        bound = scatter_bound(h.size)
        assert h.size == 640
        assert abs((np.abs(averaged - mean) ** 2 / (v / model.trials)).mean() - 1) < bound
        assert (np.abs(averaged - h) ** 2 / (v / model.trials)).mean() - 1 > bound


@pytest.mark.parametrize("stream", [_DESIGN_STREAM, _EVAL_STREAM])
def test_the_clamp_biases_the_mean_amplitude_by_the_closed_form_amount(stream):
    # from 4.46 kHz up, the template's clamped frequencies, at 1,000 trials:
    # over the entries with mu < sigma_a, the average's amplitude along arg H,
    # Re(average e^(-i theta)) e^(sigma_p^2 / 2), exceeds mu by E[A] - mu on
    # average, within 5 standard errors, and by far more than 5 above 0
    config, stacks = template_stacks()
    model = dataclasses.replace(config.model, trials=1000)
    high = config.frequencies >= 4460.0
    assert round(config.frequencies[high][0], 1) == 4460.6
    stacks = [h[high] for h in stacks]
    shrink = np.exp(-model.sigma_phase_sq / 2)
    for h, averaged in zip(stacks, averaged_perturbed_stacks(
            stacks, config.frequencies[high], model, stream)):
        _, _, mean_a, mean_a2 = draw_moments(h, model)
        mu = np.abs(h)
        low = mu < np.sqrt(model.sigma_amp_sq)
        measured = (averaged * np.exp(-1j * np.angle(h))).real[low] / shrink - mu[low]
        # Var(A cos(phi - theta)) = E[A^2] (1 + e^(-2 sigma_p^2)) / 2 - (E[A] e^(-sigma_p^2 / 2))^2
        var = mean_a2[low] * (1 + shrink ** 4) / 2 - (mean_a[low] * shrink) ** 2
        standard_error = np.sqrt(var.sum() / model.trials) / shrink / low.sum()
        bias = (mean_a - mu)[low]
        assert low.sum() >= 58 and bias.min() > 0
        assert abs(measured.mean() - bias.mean()) < 5 * standard_error
        assert measured.mean() > 20 * standard_error


def test_the_expected_cost_regularizer_is_a_fraction_of_auto_beta():
    # with H~ = E[H~] + E, independent zero-mean entries E of variance v / T, the
    # expected cost E||H~ C - M||^2 + beta ||C||^2 adds tr(C^H D C), D the diagonal
    # D_l = sum_k v_kl / T; auto beta = K sigma^2 is 5.6 to 12 times it on the
    # template's base scene
    config, (h, _) = template_stacks()
    _, v, _, _ = draw_moments(h, config.model)
    ratio = v.sum(axis=1) / config.model.trials / config.beta_at(config.frequencies)[:, None]
    assert (round(ratio.min(), 3), round(np.median(ratio), 3), round(ratio.max(), 3)) \
        == (0.085, 0.164, 0.18)


def test_model_validation():
    with pytest.raises(ValueError, match="sigma_amp_sq"):
        UncertaintyModel(-1e-4, 0.0)
    with pytest.raises(ValueError, match="sigma_phase_sq"):
        UncertaintyModel(0.0, -1.0)
    with pytest.raises(ValueError, match="trials"):
        UncertaintyModel(0.0, 0.0, trials=0)
