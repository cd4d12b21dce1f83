import mpmath
import numpy as np
import pytest
import scipy.special

from pszsim.acoustics import directivity, response_matrix
from pszsim.scene import Scene, default_scene

C_SOUND = 343.0
RADIUS = 0.05


def j1_reference(x: float) -> float:
    """Bessel J1 by its power series at 50-digit working precision.

    Independent of the implementation's Bessel routine. The alternating
    terms grow to ~1e9 before decaying at x = 25, so float64 summation
    would lose seven digits to cancellation; extended precision keeps the
    reference good to far better than the 1e-10 compared against.
    """
    with mpmath.workdps(50):
        half = mpmath.mpf(x) / 2
        term = half
        total = term
        m = 0
        while True:
            m += 1
            term *= -(half * half) / (m * (m + 1))
            new_total = total + term
            if new_total == total:
                return float(total)
            total = new_total


def piston_response(source_pos, source_axis, field_pos, frequency, piston_radius, sound_speed):
    """Scalar oracle: one baffled piston facing any axis, at one field point.

    D(theta) * exp(-1j*k*r) / r with theta taken from the projection of
    the source-to-field vector on the normalized axis, one point at a
    time, where the library takes all points at once from the fixed +y
    axis.
    """
    d = np.asarray(field_pos, dtype=float) - np.asarray(source_pos, dtype=float)
    r = float(np.linalg.norm(d))
    axis = np.asarray(source_axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    axial = float(d @ axis)
    sin_theta = float(np.linalg.norm(d - axial * axis)) / r
    k = 2.0 * np.pi * frequency / sound_speed
    return complex(directivity(k * piston_radius * sin_theta) * np.exp(-1j * k * r) / r)


def one_piston(field_pos, frequency):
    """``response_matrix`` of one speaker at the origin facing +y, at one point."""
    scene = Scene([[0, 0, 0]], [field_pos], (), (), (), (), (), C_SOUND, RADIUS)
    return complex(response_matrix(scene, [field_pos], frequency)[0, 0])


def test_response_matrix_matches_scalar_oracle_entrywise():
    scene = default_scene()
    points = np.vstack([scene.control_points, [[0.3, 1.2, -0.1], [-1.1, 0.4, 0.2]]])
    for frequency in (63.0, 500.0, 1234.5, 4000.0, 10000.0):
        got = response_matrix(scene, points, frequency)
        for k, point in enumerate(points):
            for l, speaker in enumerate(scene.speakers):
                want = piston_response(
                    speaker, [0, 1, 0], point, frequency, scene.piston_radius, scene.sound_speed
                )
                assert got[k, l] == pytest.approx(want, rel=1e-12)


def test_on_axis_unit_distance():
    resp = one_piston([0, 1, 0], 1000.0)
    k = 2 * np.pi * 1000.0 / C_SOUND
    assert abs(resp) == pytest.approx(1.0, abs=1e-12)
    assert np.angle(resp) == pytest.approx(np.angle(np.exp(-1j * k)), abs=1e-12)


def test_spherical_spreading_on_axis():
    r1 = one_piston([0, 1, 0], 1000.0)
    r2 = one_piston([0, 2, 0], 1000.0)
    k = 2 * np.pi * 1000.0 / C_SOUND
    assert abs(r2) == pytest.approx(abs(r1) / 2.0, rel=1e-12)
    assert np.angle(r2 * np.exp(2j * k)) == pytest.approx(0.0, abs=1e-9)


def test_directivity_matches_series_oracle_at_spot_value():
    # f = 2 kHz, a = 0.05 m, theta = 60 degrees
    k = 2 * np.pi * 2000.0 / C_SOUND
    x = k * RADIUS * np.sin(np.pi / 3)
    expected = 2.0 * j1_reference(x) / x
    assert directivity(x) == pytest.approx(expected, rel=1e-10)
    # frozen from a 60-digit evaluation of the same series
    assert abs(directivity(x)) == pytest.approx(0.7167238291440721, rel=1e-9)
    resp = one_piston([1.0 * np.sin(np.pi / 3), np.cos(np.pi / 3), 0.0], 2000.0)
    assert abs(resp) == pytest.approx(abs(expected), rel=1e-10)


def test_directivity_accuracy_over_argument_range():
    xs = np.linspace(0.01, 25.0, 400)
    got = directivity(xs)
    expected = np.array([2.0 * j1_reference(x) / x for x in xs])
    assert np.allclose(got, expected, rtol=1e-10, atol=1e-13)


def test_directivity_small_argument_limit_and_branch_seam():
    assert directivity(0.0) == 1.0
    # Taylor branch and Bessel branch agree where they meet
    below, above = 0.99e-4, 1.01e-4
    assert directivity(below) == pytest.approx(directivity(above), rel=1e-10)
    assert directivity(below) == pytest.approx(1.0, abs=1e-8)


def scipy_directivity(x):
    """2*J1(x)/x through ``scipy.special.j1``, with directivity's Taylor form below 1e-4."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    with np.errstate(all="ignore"):
        d = 2.0 * scipy.special.j1(x) / x
    small = np.abs(x) < 1e-4
    xs = x[small]
    d[small] = 1.0 - xs * xs / 8.0 + xs**4 / 192.0
    return d


def assert_same_bits(got, want):
    """Equal float64 bit patterns, NaN matched as NaN whatever its payload."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    differ = (got.view(np.int64) != want.view(np.int64)) & ~nan
    assert not differ.any(), f"{differ.sum()} differ, first at flat index {np.argmax(differ)}"


def around(value, steps=64):
    """``value`` and its ``steps`` float64 neighbours on each side, by np.nextafter."""
    below, above = [value], [value]
    for _ in range(steps):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return np.array(below[:0:-1] + above)


def test_directivity_is_scipy_j1_bit_for_bit():
    rng = np.random.default_rng(2209)
    xs = np.concatenate([
        rng.uniform(1e-4, 60.0, 10**6),
        10.0 ** rng.uniform(-4.0, 12.0, 10**5),  # log-uniform up to 1e12
        around(5.0),  # the seam of Cephes's two forms
        around(1e-4),  # the seam of the Taylor branch
        scipy.special.jn_zeros(1, 20),
        [0.0, -0.0, np.nan, np.inf, -np.inf, 1e300, -1e-5, -3.0, -5.0, -7.5, -1e9],
    ])
    assert_same_bits(directivity(xs), scipy_directivity(xs))
    assert_same_bits(directivity(-xs), scipy_directivity(-xs))


@pytest.mark.parametrize("shape", [
    (2**13 - 1,), (2**13,), (2**13 + 1,), (0,), (3, 1001, 8),
    (32760,),  # one block of a map at 0.01 m: 1365 points x 3 frequencies x 8 speakers
    (63392,),  # the spectra's F x K x L arguments on a 1981-frequency grid
])
def test_directivity_blocks_keep_the_bits_at_every_shape(shape):
    # arguments in [-12, 12] put both of Cephes's forms into every call
    x = np.random.default_rng(sum(shape)).uniform(-12.0, 12.0, shape)
    got = directivity(x)
    assert got.shape == shape
    assert_same_bits(got, scipy_directivity(x).reshape(shape))


@pytest.mark.parametrize("x", [0.0, -0.0, 5e-5, 0.7, 5.0, 8.25, -9.16, 1e6, np.nan])
def test_directivity_of_a_scalar_is_a_float_with_the_array_bits(x):
    got = directivity(x)
    assert type(got) is float
    assert_same_bits(got, scipy_directivity(x)[0])
    assert_same_bits(directivity(np.array(x)), directivity(np.array([x]))[0])


def test_frozen_response_spot_value():
    # frozen from a 60-digit evaluation: source at the origin facing +y,
    # field point (0.3, 1.2, -0.1), f = 1234.5 Hz
    resp = one_piston([0.3, 1.2, -0.1], 1234.5)
    assert resp.real == pytest.approx(-0.77978060499201461, rel=1e-12)
    assert resp.imag == pytest.approx(-0.16712830372458703, rel=1e-12)


def test_transfer_matrix_shape_and_frequency():
    scene = default_scene()
    H = response_matrix(scene, scene.control_points, 1000.0)
    assert H.shape == (4, 8) and H.dtype == complex
    assert np.all(np.isfinite(H))
    assert response_matrix(scene, scene.control_points, [1000.0]).shape == (1, 4, 8)


def test_transfer_matrix_mirror_symmetry_is_exact():
    # mirroring the scene maps zone A rows onto reversed zone B rows with
    # the speaker order flipped; the default scene is built so this holds
    # bit for bit
    scene = default_scene()
    H = response_matrix(scene, scene.control_points, 3000.0)
    h_a = H[list(scene.zone_a)]
    h_b = H[list(scene.zone_b)]
    assert np.array_equal(h_b, h_a[::-1, ::-1])


def test_unit_wavenumber_closed_form():
    # k = 2*pi means f = c; on axis at 1 m the response is exp(-2j*pi) = 1
    resp = one_piston([0, 1, 0], C_SOUND)
    assert resp == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_phase_is_minus_kr_where_directivity_positive():
    scene = default_scene()
    frequency = 4000.0
    H = response_matrix(scene, scene.control_points, frequency)
    k = 2 * np.pi * frequency / scene.sound_speed
    diff = scene.control_points[:, None, :] - scene.speakers[None, :, :]
    r = np.linalg.norm(diff, axis=-1)
    sin_t = np.hypot(diff[..., 0], diff[..., 2]) / r
    d = directivity(k * scene.piston_radius * sin_t)
    positive = d > 1e-6
    # strip propagation and spreading; what remains must be real positive
    residual = H * r * np.exp(1j * k * r)
    assert np.allclose(residual.imag[positive], 0.0, atol=1e-9)
    assert np.all(residual.real[positive] > 0)


def test_magnitude_decreases_with_distance_on_axis():
    mags = [
        abs(one_piston([0, r, 0], 2000.0)) for r in (0.5, 1.0, 2.0, 4.0)
    ]
    assert all(a > b for a, b in zip(mags, mags[1:]))


def test_swap_source_and_field_keeps_magnitude_on_axis():
    # the library has only the +y axis; this checks the oracle's general
    # axis, which the entrywise comparison above relies on
    a = piston_response([0, 0.2, 0], [0, 1, 0], [0, 1.7, 0], 1500.0, RADIUS, C_SOUND)
    b = piston_response([0, 1.7, 0], [0, -1, 0], [0, 0.2, 0], 1500.0, RADIUS, C_SOUND)
    assert abs(a) == pytest.approx(abs(b), rel=1e-12)


def test_response_matrix_nan_mode_flags_instead_of_raising():
    scene = default_scene()
    points = np.vstack([scene.speakers[3], [0.0, 1.0, 0.0]])
    rows = response_matrix(scene, points, 1000.0)
    assert np.isnan(rows[0, 3])
    assert np.all(np.isfinite(rows[1]))


def test_rejects_nonpositive_frequency():
    # NaN compares false with everything and inf is positive: both must still fail
    for frequency in (0.0, -100.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"frequency must be .*positive, got {frequency}$"):
            one_piston([0, 1, 0], frequency)


def test_frequency_stack_equals_one_frequency_calls_bit_for_bit():
    scene = default_scene()
    points = np.vstack([scene.control_points, scene.speakers[2], [0.3, 0.7, 0.2]])
    freqs = 50.0 * 2 ** (np.arange(40) / 5)
    stack = response_matrix(scene, points, freqs)
    assert stack.shape == (40, len(points), scene.n_speakers)
    single = np.array([response_matrix(scene, points, f) for f in freqs])
    assert np.array_equal(stack, single, equal_nan=True)
    assert np.isnan(stack[:, 4, 2]).all()


def test_response_phase_has_the_bits_of_the_complex_exponential():
    # the complex-exp form of H is the oracle: a 0.02 m grid over the template
    # region, a point on speaker 0 (its NaNs compare as NaNs) and random
    # points, at the template's 319 grid frequencies and at 20 kHz
    scene = default_scene()
    iy, ix = np.divmod(np.arange(51 * 101), 51)
    grid = np.column_stack([-1.0 + ix * 0.02, iy * 0.02, np.zeros(ix.size)])
    rng = np.random.default_rng(11)
    points = np.vstack([grid, scene.speakers[0], rng.uniform(-3.0, 3.0, (200, 3))])
    freqs = np.append(100.0 * 2.0 ** (np.arange(319) / 48), 20000.0)
    diff = points[:, None, :] - scene.speakers[None, :, :]
    r = np.linalg.norm(diff, axis=-1)
    r[r == 0.0] = np.nan
    sin_theta = np.hypot(diff[..., 0], diff[..., 2]) / r
    k = (2.0 * np.pi * freqs / scene.sound_speed)[:, None, None]
    with np.errstate(invalid="ignore"):
        d_gain = directivity(k * scene.piston_radius * sin_theta)
        want = d_gain * np.exp(-1j * k * r) * (1.0 / r)
    got = response_matrix(scene, points, freqs)
    assert np.isnan(want).any()
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("shape", [(3,), (2, 2), (1, 3, 1)])
def test_response_matrix_rejects_points_that_are_not_n_by_3(shape):
    with pytest.raises(ValueError) as caught:
        response_matrix(default_scene(), np.zeros(shape), [1000.0])
    assert str(caught.value) == f"points must be (n, 3), got shape {shape}"


def test_frequency_stack_rejects_a_nonpositive_entry():
    scene = default_scene()
    with pytest.raises(ValueError, match="positive, got -5.0"):
        response_matrix(scene, scene.control_points, np.array([100.0, -5.0, 200.0]))
