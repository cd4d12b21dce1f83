"""Free-field transfer functions for baffled piston sources.

Each loudspeaker is modeled as a circular piston in an infinite baffle,
evaluated in the far field. The complex response from a source to a field
point at distance r is

    H = D(theta) * exp(-1j * k * r) / r

with wavenumber k = 2*pi*f/c, the angle theta measured off the piston
axis, and the directivity

    D(theta) = 2 * J1(k * a * sin(theta)) / (k * a * sin(theta))

which tends to 1 on axis. The time convention is exp(+1j*omega*t), so
outward propagation carries exp(-1j*k*r). Pressures are normalized: unit
magnitude on axis at 1 m.
"""

from __future__ import annotations

import numpy as np
from scipy.special import j1

from .scene import Scene

# Below this argument the directivity is evaluated by its Taylor series to
# sidestep the 0/0 form; the two branches agree to ~1e-16 at the seam.
_SMALL_ARG = 1e-4


class CoincidentPointError(ValueError):
    """A field point sits exactly on a source position.

    ``pairs`` lists the offending (point_index, speaker_index) tuples.
    """

    def __init__(self, pairs: list[tuple[int, int]]):
        self.pairs = pairs
        listed = ", ".join(f"(point {k}, speaker {l})" for k, l in pairs)
        super().__init__(f"field point coincides with source: {listed}")


def directivity(x):
    """Far-field piston directivity 2*J1(x)/x with the limit D(0) = 1.

    Accepts scalars or arrays. For |x| < 1e-4 the Taylor expansion
    1 - x^2/8 + x^4/192 is used; otherwise the Bessel form directly.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    small = np.abs(x) < _SMALL_ARG
    xs = x[small]
    out[small] = 1.0 - xs * xs / 8.0 + xs**4 / 192.0
    xl = x[~small]
    out[~small] = 2.0 * j1(xl) / xl
    return float(out[0]) if scalar else out


def response_matrix(
    scene: Scene, points, frequency, on_coincident: str = "raise"
) -> np.ndarray:
    """Vectorized piston responses from all scene speakers to many points.

    Returns a complex (n_points, n_speakers) array for one frequency, or an
    (F, n_points, n_speakers) stack for a 1-D array of F frequencies; each
    matrix of the stack is bit for bit the one-frequency result. Entry
    (k, l) is the normalized pressure at point k per unit input to speaker
    l: rows follow the input point order, columns the scene's. All
    speakers share the scene's +y axis. ``on_coincident`` selects what
    happens when a point sits exactly on a speaker: "raise" throws
    CoincidentPointError with the offending index pairs, "nan" fills that
    row/column entry with NaN so grid scans can skip the cell.
    """
    freqs = np.asarray(frequency, dtype=float)
    if np.any(freqs <= 0):
        bad = frequency if freqs.ndim == 0 else freqs[freqs <= 0][0]
        raise ValueError(f"frequency must be positive, got {bad}")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be (n, 3), got shape {pts.shape}")
    diff = pts[:, None, :] - scene.speakers[None, :, :]
    r = np.linalg.norm(diff, axis=-1)

    hit = r == 0.0
    if np.any(hit):
        if on_coincident == "raise":
            pairs = [(int(k), int(l)) for k, l in zip(*np.nonzero(hit))]
            raise CoincidentPointError(pairs)
        r = np.where(hit, np.nan, r)

    # speakers face +y: sin(theta) = sqrt(dx^2 + dz^2) / r
    lateral = np.hypot(diff[..., 0], diff[..., 2])
    k = (2.0 * np.pi * freqs / scene.sound_speed)[..., None, None]
    with np.errstate(invalid="ignore"):  # NaN radii are deliberate here
        d_gain = directivity(k * scene.piston_radius * (lateral / r))
        return d_gain * np.exp(-1j * k * r) / r

