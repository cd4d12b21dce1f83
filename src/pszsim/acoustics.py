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
magnitude on axis at 1 m. ``response_matrix`` evaluates H, with the distances
and angles of its points computed once for all of its frequencies; a point
exactly on a speaker has a NaN distance, so its responses from it are NaN.

J1 is evaluated by the rational approximations of the Cephes library
(S. L. Moshier, ``j1.c``) in Cephes's operation order, so it equals
``scipy.special.j1``, which evaluates the same code, bit for bit.
"""

from __future__ import annotations

import numpy as np

from .scene import Scene

# Below this argument the directivity is evaluated by its Taylor series to
# sidestep the 0/0 form; the two branches agree to ~1e-16 at the seam.
_SMALL_ARG = 1e-4

# Cephes j1.c's coefficients, spelled as their shortest doubles; _RQ, _QQ lead with p1evl's 1.0
_RP = (-8.999712257055594e8, 4.5222829799819403e11, -7.274942452218183e13, 3.682957328638529e15)
_RQ = (1.0, 6.208364781180543e2, 2.5698725675774884e5, 8.351467914319493e7, 2.215115954797925e10,
       4.749141220799914e12, 7.843696078762359e14, 8.952223361846274e16, 5.322786203326801e18)
_PP = (7.621256162081731e-4, 7.313970569409176e-2, 1.1271960812968493e0, 5.112079511468076e0,
       8.424045901417724e0, 5.214515986823615e0, 1.0)
_PQ = (5.713231280725487e-4, 6.884559087544954e-2, 1.105142326340617e0, 5.073863861286015e0,
       8.399855543276042e0, 5.209828486823619e0, 1.0)
_QP = (5.108625947501766e-2, 4.982138729512334e0, 7.582382841325453e1, 3.667796093601508e2,
       7.108563049989261e2, 5.974896124006136e2, 2.1168875710057213e2, 2.5207020585802372e1)
_QQ = (1.0, 7.423732770356752e1, 1.0564488603826283e3, 4.986410583376536e3,
       9.562318924047562e3, 7.997041604473507e3, 2.8261927851763908e3, 3.360936078106983e2)
_Z1, _Z2 = 1.4681970642123893e1, 4.92184563216946e1
_THPIO4, _SQ2OPI = 2.356194490192345, 7.978845608028654e-1


def _polevl(z, coefs):
    """Cephes's polevl: Horner from coefs[0], each step one multiply, then one add."""
    out = z * coefs[0]
    out += coefs[1]
    for c in coefs[2:]:
        out *= z
        out += c
    return out


def directivity(x):
    """Far-field piston directivity 2*J1(x)/x with the limit D(0) = 1.

    Accepts scalars or arrays, of a size the caller bounds. For |x| < 1e-4
    the Taylor expansion 1 - x^2/8 + x^4/192 is used; otherwise the Bessel form.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x).reshape(-1)  # D is even and J1 odd: 2*J1(|x|)/|x| is 2*J1(x)/x bit for bit
    with np.errstate(all="ignore"):  # lanes that another branch overwrites may overflow or be 0/0
        # J1 for x <= 5 in place: numpy reuses no temporary below 256 KiB; a map block is 262,080 B
        z = ax * ax
        out = _polevl(z, _RP)
        out /= _polevl(z, _RQ)
        out *= ax
        out *= z - _Z1
        out *= z - _Z2
        if (large := ax > 5.0).any():
            xl = ax[large]
            w = 5.0 / xl
            z = w * w
            p = _polevl(z, _PP) / _polevl(z, _PQ)
            q = _polevl(z, _QP) / _polevl(z, _QQ)
            xn = xl - _THPIO4
            out[large] = (p * np.cos(xn) - w * q * np.sin(xn)) * _SQ2OPI / np.sqrt(xl)
        out *= 2.0  # D = 2 * J1 / x
        out /= ax
    small = ax < _SMALL_ARG
    xs = ax[small]
    out[small] = 1.0 - xs * xs / 8.0 + xs**4 / 192.0
    out = out.reshape(x.shape)
    return float(out) if x.ndim == 0 else out


def response_matrix(scene: Scene, points, frequency) -> np.ndarray:
    """Vectorized piston responses from all scene speakers to many points.

    Returns a complex (n_points, n_speakers) array for one frequency, or an
    (F, n_points, n_speakers) stack for a 1-D array of F frequencies; each
    matrix of the stack is bit for bit the one-frequency result. Entry
    (k, l) is the normalized pressure at point k per unit input to speaker
    l: rows follow the input point order, columns the scene's. All
    speakers share the scene's +y axis. An entry whose point sits exactly
    on its speaker is NaN, from a NaN distance r; r sums the squares in
    ``np.linalg.norm``'s order, so it is that norm bit for bit.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be (n, 3), got shape {pts.shape}")
    freqs = np.asarray(frequency, dtype=float)
    if (bad := ~((freqs > 0) & (freqs < np.inf))).any():  # NaN compares false
        raise ValueError(f"frequency must be finite and positive, got {freqs[bad][0]}")
    diff = pts[:, None, :] - scene.speakers[None, :, :]
    dx, dy, dz = diff[..., 0], diff[..., 1], diff[..., 2]
    r = np.sqrt((dx * dx + dy * dy) + dz * dz)
    r[r == 0.0] = np.nan
    # speakers face +y: sin(theta) = sqrt(dx^2 + dz^2) / r
    sin_theta = np.hypot(dx, dz) / r
    k = (2.0 * np.pi * freqs / scene.sound_speed)[..., None, None]
    with np.errstate(invalid="ignore"):  # NaN radii are deliberate here
        d_gain = directivity(k * scene.piston_radius * sin_theta)
        # exp(-1j * k * r) in real arithmetic: its argument's real part is +0.0, and
        # numpy's complex exp then gives cos and sin of the imaginary part, bit for bit
        kr = k * r
        out = np.empty(kr.shape, dtype=complex)
        np.cos(kr, out=out.real)
        np.sin(kr, out=out.imag)
        np.negative(out.imag, out=out.imag)
        out *= d_gain
        # the bits of "/ r": numpy divides a complex by a real (Smith) by multiplying by 1 / r
        out *= 1.0 / r
        return out
