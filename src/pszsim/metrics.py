"""Isolation metrics for two-zone program reproduction.

All metrics are ratios of averaged acoustic power computed from the
system matrix M (points x channels), under the two extreme assumptions
about a program's channels:

- correlated: channels carry the same signal, pressures add coherently,
  power at a point is |sum_i M_ki|^2.
- uncorrelated: channels carry independent signals, powers add,
  power at a point is sum_i |M_ki|^2.

Real program material sits between the extremes, so each metric reports
both ratios, and :func:`min_db` takes their minimum as its value.

Inter-zone isolation (IZI, :func:`izi_ratios`) compares one program's
power between its bright zone and dark zone, averaging over the points of
each zone. Inter-program isolation (IPI, :func:`ipi_ratios`) compares the
target program against the interfering program within one zone,
normalizing each program by its channel count. For a single channel both
reduce to the classic acoustic contrast ratio. Both are one kernel over
blocks of M, for one matrix or a stack of them, which also gives
:func:`~pszsim.spatial_analysis.ipi_map` its one-point zones.

Ratios are linear power ratios; the dB form is 10*log10(value). A zero
denominator (perfect cancellation) yields an infinite ratio rather than
an error, so frequency sweeps stay total. A NaN entry makes the ratio,
the value and the dB form NaN.
"""

from __future__ import annotations

import math

import numpy as np

_THIRD_OCTAVE_HALF_WIDTH = 2.0 ** (1.0 / 6.0)


def min_db(corr: np.ndarray, uncorr: np.ndarray):
    """``value`` = min(corr, uncorr) and its dB form 10*log10(value), elementwise.

    A NaN ratio propagates to both. A zero denominator, an unbounded
    ratio, gives +inf dB; a zero numerator gives value 0 and -inf dB, a
    bounded, if extreme, outcome. Arrays of any shape, 0-d included. The
    logarithm is ``math.log10`` per value, because numpy's vectorized
    log10 differs from it in the last bit for some inputs.
    """
    value = np.minimum(corr, uncorr)
    db = np.where(value <= 0.0, -math.inf, value)  # +inf and NaN stay
    finite = np.isfinite(value) & (value > 0.0)
    db[finite] = [10.0 * math.log10(v) for v in value[finite].tolist()]
    return value, db


def _ratio(num, den):
    """num / den elementwise; +inf where den is zero, NaN where either is NaN."""
    # where den is zero the fill num + inf stands: inf, or NaN for a NaN num
    return np.divide(num, den, out=np.asarray(num + np.inf), where=den != 0.0)


def _check_indices(name: str, indices, bound: int):
    idx = tuple(int(i) for i in indices)
    if not idx:
        raise ValueError(f"{name} must not be empty")
    bad = [i for i in idx if not 0 <= i < bound]
    if bad:
        raise ValueError(f"{name} indices out of range: {bad}")
    return idx


def _check_disjoint(name_a: str, a, name_b: str, b, bound: int):
    """Validated index tuples of two sets that must not share an index."""
    a = _check_indices(name_a, a, bound)
    b = _check_indices(name_b, b, bound)
    if set(a) & set(b):
        raise ValueError(f"{name_a} and {name_b} overlap: {sorted(set(a) & set(b))}")
    return a, b


def _isolation(num, num_count: int, den, den_count: int):
    """(corr, uncorr) power ratios of two (..., points, channels) blocks of M.

    A block's coherent power sums |channel sum|^2 over its points, its
    incoherent power sums every |entry|^2; each is divided by its count.
    """

    def powers(block, count):
        coh = (np.abs(block.sum(axis=-1)) ** 2).sum(axis=-1) / count
        # one flat sum keeps numpy's summation order of the whole block
        inc = (np.abs(block) ** 2).reshape(*block.shape[:-2], -1).sum(axis=-1) / count
        return coh, inc

    (num_coh, num_inc), (den_coh, den_inc) = powers(num, num_count), powers(den, den_count)
    return _ratio(num_coh, den_coh), _ratio(num_inc, den_inc)


def izi_ratios(M: np.ndarray, bz_points, dz_points, program_channels):
    """Inter-zone isolation of one program in a (..., points, channels) stack of M.

    Ratio of the program's point-averaged power in its bright zone to that
    in the dark zone, under both channel correlation extremes:

        corr   = [sum_bz |sum_i M_ki|^2 / n_bz] / [same over dz]
        uncorr = [sum_bz sum_i |M_ki|^2 / n_bz] / [same over dz]

    Returns the (corr, uncorr) arrays of the leading shape. Point sets must
    be disjoint.
    """
    bz, dz = _check_disjoint("bz_points", bz_points, "dz_points", dz_points, M.shape[-2])
    chans = _check_indices("program_channels", program_channels, M.shape[-1])
    return _isolation(M[..., bz, :][..., chans], len(bz), M[..., dz, :][..., chans], len(dz))


def ipi_ratios(M: np.ndarray, zone_points, target_channels, interferer_channels):
    """Inter-program isolation within one zone of a (..., points, channels) stack of M.

    Ratio of the target program's power to the interfering program's
    power over the same points, each normalized by its channel count:

        corr   = [sum_z |sum_{i in T} M_ki|^2 / n_T] / [sum_z |sum_{i in J} M_ki|^2 / n_J]
        uncorr = analogous with |.|^2 inside the channel sum

    Returns the (corr, uncorr) arrays of the leading shape. The channel
    sets must be disjoint. Note the normalizers count channels, not
    points; the point sums run over the same zone in numerator and
    denominator.
    """
    zone = _check_indices("zone_points", zone_points, M.shape[-2])
    target, interferer = _check_disjoint(
        "target_channels", target_channels, "interferer_channels", interferer_channels,
        M.shape[-1],
    )
    rows = M[..., zone, :]
    return _isolation(rows[..., target], len(target), rows[..., interferer], len(interferer))


def smooth_db(frequencies: np.ndarray, db: np.ndarray) -> np.ndarray:
    """1/3-octave sliding mean of (..., F) dB values over F increasing frequencies.

    Bin i averages the bins whose frequency lies in [f_i * 2^(-1/6),
    f_i * 2^(1/6)]; on an increasing grid they are one contiguous slice,
    found by binary search. Every row is smoothed alike.
    """
    lo = np.searchsorted(frequencies, frequencies / _THIRD_OCTAVE_HALF_WIDTH, "left")
    hi = np.searchsorted(frequencies, frequencies * _THIRD_OCTAVE_HALF_WIDTH, "right")
    return np.stack([np.mean(db[..., a:b], axis=-1) for a, b in zip(lo, hi)], axis=-1)

