"""Isolation metrics for two-zone program reproduction.

All metrics are ratios of averaged acoustic power computed from the
system matrix M (points x channels), under the two extreme assumptions
about a program's channels:

- correlated: channels carry the same signal, pressures add coherently,
  power at a point is |sum_i M_ki|^2.
- uncorrelated: channels carry independent signals, powers add,
  power at a point is sum_i |M_ki|^2.

Real program material sits between the extremes, so each metric reports
both ratios and takes the minimum as its value.

Inter-zone isolation (IZI) compares one program's power between its
bright zone and dark zone, averaging over the points of each zone.
Inter-program isolation (IPI) compares the target program against the
interfering program within one zone, normalizing each program by its
channel count. For a single channel both reduce to the classic acoustic
contrast ratio. Both are one kernel over blocks of M, which also gives
:func:`~pszsim.spatial_analysis.ipi_map` its one-point zones.

Values are linear power ratios; ``db`` is 10*log10(value). A zero
denominator (perfect cancellation) yields an infinite ratio flagged by
``unbounded`` rather than an error, so frequency sweeps stay total. A NaN
entry makes the ratio, the value and ``db`` NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filter_design import SystemMatrix

_THIRD_OCTAVE_HALF_WIDTH = 2.0 ** (1.0 / 6.0)


@dataclass(frozen=True)
class MetricValue:
    """One metric evaluation at one frequency.

    ``corr`` and ``uncorr`` are the coherent and incoherent power ratios,
    ``value`` their minimum and ``db`` its decibel form. ``unbounded``
    marks a zero denominator; ``db`` is then +inf. A zero numerator gives
    db = -inf with ``unbounded`` False (silence in the numerator is a
    bounded, if extreme, outcome). A NaN ratio makes ``value`` and ``db``
    NaN.
    """

    frequency: float
    corr: float
    uncorr: float
    value: float
    db: float
    unbounded: bool = False

    @classmethod
    def from_ratios(cls, frequency: float, corr: float, uncorr: float) -> "MetricValue":
        corr, uncorr = float(corr), float(uncorr)
        (value,), (db,) = (a.tolist() for a in min_db(np.array([corr]), np.array([uncorr])))
        return cls(
            frequency=float(frequency),
            corr=corr,
            uncorr=uncorr,
            value=value,
            db=db,
            unbounded=value == math.inf,
        )


def min_db(corr: np.ndarray, uncorr: np.ndarray):
    """``value`` = min(corr, uncorr) and its dB form, elementwise, as in :class:`MetricValue`.

    A NaN ratio propagates; value 0 gives -inf dB, +inf stays +inf. The
    logarithm is ``math.log10`` per value, because numpy's vectorized
    log10 differs from it in the last bit for some inputs.
    """
    value = np.minimum(corr, uncorr)
    db = np.where(value <= 0.0, -math.inf, value)  # +inf and NaN stay
    finite = np.isfinite(value) & (value > 0.0)
    db[finite] = [10.0 * math.log10(v) for v in value[finite].tolist()]
    return value, db


@dataclass(frozen=True)
class MetricSpectrum:
    """A labeled metric evaluated over a frequency grid.

    Frequencies must be strictly increasing. ``label`` names the metric
    and zone, e.g. "IZI_A" or "IPI_B".
    """

    label: str
    values: tuple[MetricValue, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        freqs = [v.frequency for v in self.values]
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ValueError("spectrum frequencies must be strictly increasing")

    def frequencies(self) -> np.ndarray:
        return np.array([v.frequency for v in self.values])

    def db(self) -> np.ndarray:
        return np.array([v.db for v in self.values])

    def __len__(self) -> int:
        return len(self.values)


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
    """(corr, uncorr) arrays of :func:`izi` for a (..., points, channels) stack of M."""
    bz, dz = _check_disjoint("bz_points", bz_points, "dz_points", dz_points, M.shape[-2])
    chans = _check_indices("program_channels", program_channels, M.shape[-1])
    return _isolation(M[..., bz, :][..., chans], len(bz), M[..., dz, :][..., chans], len(dz))


def ipi_ratios(M: np.ndarray, zone_points, target_channels, interferer_channels):
    """(corr, uncorr) arrays of :func:`ipi` for a (..., points, channels) stack of M."""
    zone = _check_indices("zone_points", zone_points, M.shape[-2])
    target, interferer = _check_disjoint(
        "target_channels", target_channels, "interferer_channels", interferer_channels,
        M.shape[-1],
    )
    rows = M[..., zone, :]
    return _isolation(rows[..., target], len(target), rows[..., interferer], len(interferer))


def izi(M: SystemMatrix, bz_points, dz_points, program_channels) -> MetricValue:
    """Inter-zone isolation of one program.

    Ratio of the program's point-averaged power in its bright zone to
    that in the dark zone, under both channel correlation extremes:

        corr   = [sum_bz |sum_i M_ki|^2 / n_bz] / [same over dz]
        uncorr = [sum_bz sum_i |M_ki|^2 / n_bz] / [same over dz]

    and value = min(corr, uncorr). Point sets must be disjoint.
    """
    return MetricValue.from_ratios(
        M.frequency, *izi_ratios(M.entries, bz_points, dz_points, program_channels)
    )


def ipi(M: SystemMatrix, zone_points, target_channels, interferer_channels) -> MetricValue:
    """Inter-program isolation within one zone.

    Ratio of the target program's power to the interfering program's
    power over the same points, each normalized by its channel count:

        corr   = [sum_z |sum_{i in T} M_ki|^2 / n_T] / [sum_z |sum_{i in J} M_ki|^2 / n_J]
        uncorr = analogous with |.|^2 inside the channel sum

    and value = min(corr, uncorr). The channel sets must be disjoint.
    Note the normalizers count channels, not points; the point sums run
    over the same zone in numerator and denominator.
    """
    return MetricValue.from_ratios(
        M.frequency, *ipi_ratios(M.entries, zone_points, target_channels, interferer_channels)
    )


def acoustic_contrast(H_A: np.ndarray, H_B: np.ndarray, q: np.ndarray) -> float:
    """Point-averaged power ratio between two zones for one filter vector.

    Returns (||H_A q||^2 / n_A) / (||H_B q||^2 / n_B) as a plain linear
    ratio (inf when zone B receives exactly nothing). For a single-channel
    program this is what izi reduces to.
    """
    h_a = np.asarray(H_A, dtype=complex)
    h_b = np.asarray(H_B, dtype=complex)
    q = np.asarray(q, dtype=complex).reshape(-1)
    num = float(np.sum(np.abs(h_a @ q) ** 2)) / h_a.shape[0]
    den = float(np.sum(np.abs(h_b @ q) ** 2)) / h_b.shape[0]
    return float(_ratio(num, den))


def smooth_db(frequencies: np.ndarray, db: np.ndarray) -> np.ndarray:
    """1/3-octave sliding mean of (..., F) dB values over F increasing frequencies.

    Bin i averages the bins whose frequency lies in [f_i * 2^(-1/6),
    f_i * 2^(1/6)]; on an increasing grid they are one contiguous slice,
    found by binary search. Every row is smoothed alike.
    """
    lo = np.searchsorted(frequencies, frequencies / _THIRD_OCTAVE_HALF_WIDTH, "left")
    hi = np.searchsorted(frequencies, frequencies * _THIRD_OCTAVE_HALF_WIDTH, "right")
    return np.stack([np.mean(db[..., a:b], axis=-1) for a, b in zip(lo, hi)], axis=-1)


def third_octave_smooth(spectrum: MetricSpectrum) -> MetricSpectrum:
    """Smooth a spectrum with a 1/3-octave sliding window.

    Each output bin is the dB-domain mean (geometric mean of the linear
    ratios) over all input bins whose frequency lies within a third of an
    octave centered on the output frequency, [f * 2^(-1/6), f * 2^(1/6)].
    Windows truncate at the grid edges. Smoothed bins carry the averaged
    value in ``corr``, ``uncorr`` and ``value`` alike, since smoothing
    happens after the min.
    """
    if len(spectrum) == 0:
        raise ValueError("cannot smooth an empty spectrum")
    freqs = spectrum.frequencies()
    smoothed = []
    for f, db in zip(freqs.tolist(), smooth_db(freqs, spectrum.db()).tolist()):
        value = 10.0 ** (db / 10.0)  # +-inf dB give inf and 0, NaN stays NaN
        smoothed.append(
            MetricValue(
                frequency=f,
                corr=value,
                uncorr=value,
                value=value,
                db=db,
                unbounded=db == math.inf,
            )
        )
    return MetricSpectrum(label=spectrum.label, values=tuple(smoothed))
