import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from pszsim.metrics import ipi_ratios, izi_ratios, min_db, smooth_db


def izi(entries, *sets):
    return metric(izi_ratios, entries, *sets)


def ipi(entries, *sets):
    return metric(ipi_ratios, entries, *sets)


def metric(ratios, entries, *sets):
    """corr, uncorr, value and db of one (points, channels) matrix, as floats."""
    corr, uncorr = ratios(np.asarray(entries, dtype=complex), *sets)
    value, db = min_db(corr, uncorr)
    return SimpleNamespace(corr=float(corr), uncorr=float(uncorr), value=float(value), db=float(db))


def acoustic_contrast(h_a, h_b, q):
    """Point-averaged power ratio between two zones for one filter vector.

    (||H_A q||^2 / n_A) / (||H_B q||^2 / n_B), the classic acoustic
    contrast: what IZI reduces to for a single-channel program.
    """
    q = np.asarray(q, dtype=complex).reshape(-1)
    num = float(np.sum(np.abs(h_a @ q) ** 2)) / h_a.shape[0]
    den = float(np.sum(np.abs(h_b @ q) ** 2)) / h_b.shape[0]
    return num / den


def smoothing_windows(freqs, db):
    """The 1/3-octave window of each bin of one (F,) row, by a literal frequency mask."""
    half = 2.0 ** (1.0 / 6.0)
    return [db[(freqs >= f / half) & (freqs <= f * half)] for f in freqs]


def smoothing_oracle(freqs, db):
    """1/3-octave smoothing of one (F,) row: each window's first bin plus
    numpy's sum of the rest, over the window's size."""
    return np.array([(w[0] + np.sum(w[1:])) / w.size for w in smoothing_windows(freqs, db)])


def test_izi_single_channel_hand_ratio():
    result = izi([[1.0], [0.1]], (0,), (1,), (0,))
    assert result.corr == pytest.approx(100.0)
    assert result.uncorr == pytest.approx(100.0)
    assert result.db == pytest.approx(20.0)


def test_izi_symmetric_field_is_zero_db():
    result = izi(np.ones((4, 2)), (0, 1), (2, 3), (0, 1))
    assert result.value == pytest.approx(1.0)
    assert result.db == pytest.approx(0.0)


def test_izi_two_channel_hand_oracle():
    result = izi([[1.0, 1.0], [0.0, 1.0]], (0,), (1,), (0, 1))
    assert result.corr == pytest.approx(4.0)
    assert result.uncorr == pytest.approx(2.0)
    assert result.value == pytest.approx(2.0)


def test_ipi_single_channel_hand_ratio():
    result = ipi([[1.0, 0.1]], (0,), (0,), (1,))
    assert result.value == pytest.approx(100.0)
    assert result.db == pytest.approx(20.0)


def test_ipi_identical_programs_is_zero_db():
    col = np.array([[0.3 + 0.1j], [0.7 - 0.2j]])
    result = ipi(np.hstack([col, col]), (0, 1), (0,), (1,))
    assert result.value == pytest.approx(1.0)
    assert result.db == pytest.approx(0.0, abs=1e-12)


def test_ipi_two_channel_hand_oracle():
    result = ipi([[1.0, 1.0, 0.1, 0.3]], (0,), (0, 1), (2, 3))
    assert result.corr == pytest.approx(25.0)
    assert result.uncorr == pytest.approx(20.0)
    assert result.value == pytest.approx(20.0)


def test_zero_interferer_gives_unbounded_sentinel():
    result = ipi([[1.0, 0.0]], (0,), (0,), (1,))
    assert result.db == math.inf
    assert result.value == math.inf


def test_silent_zone_on_both_sides_is_unbounded():
    # perfect cancellation in the denominator wins, even over a silent
    # numerator: 0/0 reads as +inf, the same rule as any zero denominator
    m = [[0.0, 0.0], [1.0, 1.0]]
    result = izi(m, (1,), (0,), (0, 1))
    assert result.value == result.db == math.inf
    result = ipi(m, (0,), (0,), (1,))
    assert result.value == math.inf


def test_nan_entry_gives_nan_not_minus_infinity():
    m = [[1.0, 0.5], [math.nan, 0.1]]
    silent = [[math.nan, 0.0]]  # a zero denominator alone reads +inf
    for result in (
        izi(m, (0,), (1,), (0, 1)),
        izi(m, (1,), (0,), (0, 1)),
        ipi(m, (1,), (0,), (1,)),
        ipi(silent, (0,), (0,), (1,)),
    ):
        assert math.isnan(result.value) and math.isnan(result.db)


def test_zero_target_gives_minus_infinity_db():
    result = ipi([[0.0, 1.0]], (0,), (0,), (1,))
    assert result.db == -math.inf
    assert result.value == 0.0


def test_min_contract():
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        r = izi(m, (0, 1), (2, 3), (0, 1))
        assert r.value <= r.corr and r.value <= r.uncorr
        r = ipi(m, (0, 1), (0, 1), (2, 3))
        assert r.value <= r.corr and r.value <= r.uncorr


def test_permutation_invariance():
    # index order must not matter; numpy's reduction order can shift the
    # last ulp, so compare tightly instead of bit for bit
    rng = np.random.default_rng(9)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    pairs = (
        (izi(m, (0, 1), (2, 3), (0, 1)), izi(m, (1, 0), (3, 2), (1, 0))),
        (ipi(m, (0, 1), (0, 1), (2, 3)), ipi(m, (1, 0), (1, 0), (3, 2))),
    )
    for a, b in pairs:
        assert a.corr == pytest.approx(b.corr, rel=1e-14)
        assert a.uncorr == pytest.approx(b.uncorr, rel=1e-14)
        assert a.value == pytest.approx(b.value, rel=1e-14)


def test_scale_invariance():
    rng = np.random.default_rng(14)
    entries = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    alpha = 0.3 - 1.7j
    a = izi(entries, (0, 1), (2, 3), (0, 1))
    b = izi(alpha * entries, (0, 1), (2, 3), (0, 1))
    assert a.value == pytest.approx(b.value, rel=1e-12)
    c = ipi(entries, (0, 1), (0, 1), (2, 3))
    d = ipi(alpha * entries, (0, 1), (0, 1), (2, 3))
    assert c.value == pytest.approx(d.value, rel=1e-12)


def test_index_validation():
    m = np.ones((2, 2))
    with pytest.raises(ValueError, match="must not be empty"):
        izi_ratios(m, (), (1,), (0,))
    with pytest.raises(ValueError, match="overlap"):
        izi_ratios(m, (0,), (0,), (0,))
    with pytest.raises(ValueError, match="out of range"):
        izi_ratios(m, (0,), (5,), (0,))
    with pytest.raises(ValueError, match="overlap"):
        ipi_ratios(m, (0,), (0,), (0,))


def test_acoustic_contrast_matches_single_channel_izi():
    rng = np.random.default_rng(1)
    for _ in range(20):
        h_a = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
        h_b = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
        q = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        m = np.vstack([h_a @ q, h_b @ q]).reshape(4, 1)
        contrast = acoustic_contrast(h_a, h_b, q)
        r = izi(m, (0, 1), (2, 3), (0,))
        assert r.corr == pytest.approx(contrast, rel=1e-12)
        assert r.uncorr == pytest.approx(contrast, rel=1e-12)


def test_acoustic_contrast_identical_zones():
    # the oracle itself: equal zones give a contrast of one
    rng = np.random.default_rng(2)
    h = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    q = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    assert acoustic_contrast(h, h, q) == pytest.approx(1.0, rel=1e-14)


def test_acoustic_contrast_brute_force_pressures():
    # the oracle itself against literal sums of the pressures
    rng = np.random.default_rng(7)
    h_a = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
    h_b = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    q = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    num = sum(abs(sum(h_a[k, l] * q[l] for l in range(8))) ** 2 for k in range(2)) / 2
    den = sum(abs(sum(h_b[k, l] * q[l] for l in range(8))) ** 2 for k in range(3)) / 3
    assert acoustic_contrast(h_a, h_b, q) == pytest.approx(num / den, rel=1e-12)


def test_smoothing_leaves_constant_spectrum_unchanged():
    freqs = 100.0 * 2 ** (np.arange(40) / 12)
    out = smooth_db(freqs, np.full(40, 17.0))
    assert out.shape == (40,)
    assert np.allclose(out, 17.0, atol=1e-12)


def test_smoothing_spreads_and_reduces_a_spike():
    freqs = 100.0 * 2 ** (np.arange(49) / 12)
    dbs = np.zeros(49)
    dbs[24] = 30.0
    out = smooth_db(freqs, dbs)
    assert out[24] < 30.0
    assert out[22] > 0.0 and out[26] > 0.0  # energy spread into the window
    assert out[0] == pytest.approx(0.0, abs=1e-12)  # far bins untouched


def test_smoothing_matches_windowed_mean_oracle():
    rng = np.random.default_rng(11)
    freqs = 100.0 * 2 ** (np.arange(97) / 24)
    dbs = rng.uniform(-10.0, 40.0, size=97)
    out = smooth_db(freqs, dbs)
    half = 2 ** (1 / 6)
    for i, f in enumerate(freqs):
        members = [d for fj, d in zip(freqs, dbs) if f / half <= fj <= f * half]
        assert out[i] == pytest.approx(sum(members) / len(members), rel=1e-12)


def test_metric_value_from_ratios():
    value, db = min_db(np.array([4.0, math.inf]), np.array([2.0, math.inf]))
    assert value[0] == 2.0
    assert db[0] == pytest.approx(10 * math.log10(2.0))
    assert value[1] == db[1] == math.inf


@pytest.mark.parametrize("corr, uncorr", [(math.nan, 5.0), (5.0, math.nan), (math.inf, math.nan)])
def test_metric_value_nan_ratio_propagates_in_either_order(corr, uncorr):
    value, db = min_db(np.array(corr), np.array(uncorr))
    assert math.isnan(value) and math.isnan(db)


def test_smoothing_nan_window_stays_nan():
    freqs = 100.0 * 2 ** (np.arange(12) / 12)
    dbs = np.full(12, 10.0)
    dbs[6] = math.nan
    out = smooth_db(freqs, dbs)
    half = 2 ** (1 / 6)
    for f, db in zip(freqs, out):
        if f / half <= freqs[6] <= f * half:
            assert math.isnan(db)
        else:
            assert db == pytest.approx(10.0, abs=1e-12)


def test_smoothing_a_window_of_plus_and_minus_inf_gives_nan_without_a_warning():
    freqs = 100.0 * 2 ** (np.arange(12) / 12)
    dbs = np.full(12, 10.0)
    dbs[5], dbs[7] = math.inf, -math.inf
    with np.errstate(invalid="ignore"):
        expected = smoothing_oracle(freqs, dbs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = smooth_db(freqs, dbs)
    assert np.array_equal(out, expected, equal_nan=True)
    half = 2 ** (1 / 6)
    both = np.array([f / half <= freqs[5] and freqs[7] <= f * half for f in freqs])
    assert both.any() and np.isnan(out[both]).all() and not np.isnan(out[~both]).any()


def test_smoothing_equals_literal_mask_oracle_bit_for_bit():
    # a random increasing grid, with bins exactly on some window edges and a
    # dense stretch whose windows hold hundreds of bins, and rows holding
    # +-inf and NaN among finite dB
    rng = np.random.default_rng(5)
    half = 2.0 ** (1.0 / 6.0)
    centers = rng.uniform(100.0, 10000.0, size=20)
    freqs = np.unique(np.concatenate([
        rng.uniform(50.0, 20000.0, size=260), rng.uniform(2000.0, 2600.0, size=900),
        centers, centers / half, centers * half,
    ]))
    n = len(freqs)
    dbs = rng.uniform(-20.0, 60.0, size=(3, n))
    for row, special in zip(dbs, (math.inf, -math.inf, math.nan)):
        row[rng.choice(n, size=4, replace=False)] = special

    out = smooth_db(freqs, dbs)
    for row, smoothed in zip(dbs, out):
        expected = smoothing_oracle(freqs, row)
        assert np.array_equal(smoothed, expected, equal_nan=True)
        assert np.isinf(expected).any() or np.isnan(expected).any()
        # windows of 3 or more bins tell this order from np.mean's pairwise
        # sum of the whole window, so a smoother that takes that sum fails
        means = np.array([np.mean(w) for w in smoothing_windows(freqs, row)])
        assert not np.array_equal(expected, means, equal_nan=True)
    assert np.array_equal(smooth_db(freqs, dbs[2]), smoothing_oracle(freqs, dbs[2]), equal_nan=True)


def test_smoothing_moves_only_the_last_bits_of_np_mean():
    # a window's sum is not np.mean's, yet each smoothed value lies within
    # 1e-13 of its window's mean |dB| of np.mean's value; not relative to
    # the value, which a window of mixed signs can make tiny
    rng = np.random.default_rng(7)
    freqs = np.arange(100.0, 10000.0 + 1e-9, 5.0)  # windows of 3 to ~900 bins
    db = rng.uniform(-20.0, 60.0, size=freqs.size)
    windows = smoothing_windows(freqs, db)
    means = np.array([np.mean(w) for w in windows])
    scale = np.array([np.mean(np.abs(w)) for w in windows])
    out = smooth_db(freqs, db)
    assert np.all(np.abs(out - means) <= 1e-13 * scale)
    assert not np.array_equal(out, means)


@pytest.mark.parametrize("shape", [(0,), (3, 0), (2, 4, 0)])
def test_smoothing_an_empty_grid_gives_empty_rows(shape):
    out = smooth_db(np.zeros(0), np.zeros(shape))
    assert out.shape == shape and out.dtype == np.float64


@pytest.mark.parametrize("freqs", [
    100.0 * 2.0 ** (np.arange(319) / 48),  # the template grid
    np.arange(100.0, 10000.0 + 1e-9, 5.0),  # 5 Hz linear, windows of up to ~900 bins
], ids=["log48", "linear5"])
def test_smoothing_treats_rows_independently(freqs):
    # 12 random rows, some windows holding NaN, +inf or -inf, smoothed as
    # one (12, F) and one (3, 4, F) stack: each row's bits equal those of
    # the row smoothed alone
    rng = np.random.default_rng(9)
    n = len(freqs)
    rows = rng.uniform(-20.0, 60.0, size=(12, n))
    for row, special in zip(rows[:6], (math.nan, math.inf, -math.inf) * 2):
        row[rng.choice(n, size=3, replace=False)] = special
    alone = [smooth_db(freqs, row) for row in rows]
    for stacked in (smooth_db(freqs, rows), smooth_db(freqs, rows.reshape(3, 4, n)).reshape(12, n)):
        for i, row in enumerate(alone):
            assert np.array_equal(stacked[i], row, equal_nan=True)
    assert np.isnan(alone[0]).any() and np.isposinf(alone[1]).any() and np.isneginf(alone[2]).any()


def test_min_db_is_within_2_ulp_of_math_log10():
    # min_db takes numpy's vectorized log10, which may differ from
    # math.log10 in the last bits: by at most 2 ulp of the dB value on
    # 200,000 random ratios over the same range
    rng = np.random.default_rng(3)
    corr = np.exp(rng.uniform(-30.0, 30.0, size=2000))
    uncorr = np.exp(rng.uniform(-30.0, 30.0, size=2000))
    corr[:4] = [0.0, math.inf, math.nan, 7.0]
    uncorr[:4] = [3.0, math.inf, 1.0, math.nan]
    value, db = min_db(corr, uncorr)
    assert db[0] == -math.inf and db[1] == math.inf
    assert math.isnan(value[2]) and math.isnan(db[2]) and math.isnan(db[3])
    expected = np.array([10.0 * math.log10(min(a, b)) for a, b in zip(corr[4:], uncorr[4:])])
    assert np.all(np.abs(db[4:] - expected) <= 2 * np.spacing(np.abs(expected)))


def test_ratios_of_a_stack_equal_those_of_each_matrix():
    rng = np.random.default_rng(4)
    stack = rng.normal(size=(30, 4, 4)) + 1j * rng.normal(size=(30, 4, 4))
    for fn, args in ((izi_ratios, ((0, 1), (2, 3), (0, 1))), (ipi_ratios, ((2, 3), (2, 3), (0,)))):
        corr, uncorr = fn(stack, *args)
        assert corr.shape == uncorr.shape == (30,)
        single = np.array([fn(m, *args) for m in stack])
        assert np.array_equal(np.stack([corr, uncorr], axis=1), single)
