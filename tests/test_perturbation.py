import copy
import dataclasses
import hashlib
import struct

import numpy as np
import pytest

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


def test_template_spectra_clamps_amplitudes_at_the_piston_nulls():
    # the template's design and evaluation draws of both scenes, counted from
    # generators built fresh for each key: 1,105 of 408,320 amplitude samples
    # (0.27 %) are negative, at 51 frequencies from 4.46 kHz up, where |H| at
    # the piston's directivity nulls falls far below sigma_amp = 0.01
    config = resolve_config(default_config_dict())
    model, freqs = config.model, config.frequencies
    stacks = [response_matrix(s, s.control_points, freqs) for s in config.scenes.values()]
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


def test_model_validation():
    with pytest.raises(ValueError, match="sigma_amp_sq"):
        UncertaintyModel(-1e-4, 0.0)
    with pytest.raises(ValueError, match="sigma_phase_sq"):
        UncertaintyModel(0.0, -1.0)
    with pytest.raises(ValueError, match="trials"):
        UncertaintyModel(0.0, 0.0, trials=0)
