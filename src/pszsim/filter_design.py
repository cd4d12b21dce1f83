"""Target stacks and regularized pressure matching filters.

Both work on stacks batched over frequency: :func:`target_stack` builds
the target M_T (control points x program channels) of a rendering mode
from the transfer stack H (control points x speakers), and
:func:`solve_stack` designs the filters C (speakers x program channels).
The system matrix M = H C maps program channels directly to control point
pressures and is what all isolation metrics consume.
"""

from __future__ import annotations

import enum
import importlib.util
import sys
from importlib.machinery import PathFinder
from pathlib import Path

import numpy as np

from .scene import Scene

_BLOCK_FREQUENCIES = 256  # normal matrices formed at once; bounds the temporaries
_FLAPACK = "scipy.linalg._flapack"


def _cholesky_routines():
    """LAPACK's complex Cholesky ``zpotrf`` and ``zpotrs``, from scipy's f2py extension.

    The import system's path finder finds the extension in scipy's ``linalg``
    folder, and it is loaded alone, under its real module name, at the first
    call, after a plain ``import scipy`` for the libraries that its
    ``_distributor_init`` sets up; the ``scipy.linalg`` package (over 300
    modules) is never imported. A module already in ``sys.modules`` is
    reused, and a later ``import scipy.linalg`` finds this one.
    """
    module = sys.modules.get(_FLAPACK)
    if module is None:
        import scipy

        folder = str(Path(scipy.__path__[0], "linalg"))
        spec = PathFinder.find_spec(_FLAPACK, [folder])
        if spec is None:
            raise ImportError(f"no _flapack extension in {folder}")
        module = importlib.util.module_from_spec(spec)
        sys.modules[_FLAPACK] = module
        spec.loader.exec_module(module)
    return module.zpotrf, module.zpotrs


class RenderingMode(enum.Enum):
    MONO = "mono"
    STEREO = "stereo"
    XTC = "xtc"


def program_channels(scene: Scene, mode: RenderingMode):
    """Channel index sets (zone A, zone B) of the system built for a mode.

    Stereo and xtc keep the scene's native channel layout. Mono collapses
    each zone's program to a single channel, so the designed system has
    two channels: index 0 feeds zone A, index 1 feeds zone B.
    """
    if mode is RenderingMode.MONO:
        return (0,), (1,)
    return tuple(scene.program_a), tuple(scene.program_b)


def target_stack(scene: Scene, H: np.ndarray, mode: RenderingMode) -> np.ndarray:
    """Target pressures for a rendering mode from a (..., points, speakers) stack.

    Returns the (..., points, channels) target stack, gathered for every
    leading index (frequency) at once; one (points, speakers) matrix gives
    one target matrix. Every column belongs to one zone's program and is
    zero at the other zone's points. The nonzero block is taken from the
    virtual source columns of H, so the target is "what those speakers
    would have done", restricted to the bright zone:

    - mono: one channel per zone; its target field is the average of the
      zone's virtual source transfer functions over the zone's own points.
    - stereo: one channel per virtual source; each channel's target is its
      source's transfer functions over the zone's points.
    - xtc: like stereo, but each channel is additionally cancelled at the
      other ear of its own zone, leaving one nonzero entry per column
      (channel j of a zone targets only the zone's j-th point).

    Raises ``ValueError`` when H does not cover the scene's control points
    or when xtc is requested for a zone whose channel count differs from
    its point count.
    """
    k_points = scene.n_points
    if H.shape[-2] != k_points:
        raise ValueError(
            f"H has {H.shape[-2]} rows but the scene has {k_points} control points"
        )
    if not isinstance(mode, RenderingMode):
        raise ValueError(f"unknown rendering mode: {mode!r}")

    blocks = []
    for zone, channels in ((scene.zone_a, scene.program_a), (scene.zone_b, scene.program_b)):
        zone = list(zone)
        sources = [scene.virtual_source_map[c] for c in channels]
        if mode is RenderingMode.XTC and len(channels) != len(zone):
            raise ValueError(
                "xtc needs one channel per zone point, got "
                f"{len(channels)} channels for {len(zone)} points"
            )
        n_cols = 1 if mode is RenderingMode.MONO else len(sources)
        block = np.zeros((*H.shape[:-2], k_points, n_cols), dtype=complex)
        if mode is RenderingMode.MONO:
            block[..., zone, 0] = H[..., zone, :][..., sources].mean(axis=-1)
        elif mode is RenderingMode.STEREO:
            block[..., zone, :] = H[..., zone, :][..., sources]
        else:  # channel j of the zone targets only the zone's j-th point
            cols = np.arange(len(zone))
            block[..., zone, cols] = H[..., zone, sources]
        blocks.append(block)
    return np.concatenate(blocks, axis=-1)


def solve_stack(H: np.ndarray, M_T: np.ndarray, betas, frequencies):
    """Regularized pressure matching filters at F frequencies at once.

    ``H`` is an (F, points, speakers) stack, ``M_T`` an (F, points,
    channels) stack, ``betas`` the F regularization weights and
    ``frequencies`` the F frequencies that failure messages name. At each
    frequency the filters C minimize

        J(C) = ||H C - M_T||_F^2 + beta * ||C||_F^2

    for any speaker/point count relation; the closed form is
    C = (H^H H + beta I)^(-1) H^H M_T. The normal matrices and right hand
    sides are formed for blocks of frequencies at once and checked for
    infs and NaNs once per block; each frequency is then factorized and
    solved by LAPACK's complex Cholesky routines ``zpotrf`` and ``zpotrs``,
    called directly and shared by all right hand side columns, with no
    explicit inverse. They are the f2py wrappers that ``scipy.linalg`` uses,
    taken from scipy's LAPACK extension alone at the first call (see
    :func:`_cholesky_routines`); no ``scipy.linalg`` package module is
    imported. So every filter of a complex stack is bit for bit what a
    one-frequency ``scipy.linalg.cho_factor``/``cho_solve`` gives. With
    beta = 0 the normal matrix must be invertible; a frequency where it
    does not factorize is reported, not raised.
    Returns ``(filters, kept, failures)``: the (F_kept, speakers, channels)
    filters of the frequencies whose normal matrix factorized, the (F,)
    boolean mask of those frequencies, and a ``(frequency, message)`` pair
    naming every other one, in grid order.

    Raises ``ValueError`` for a negative beta, for H and M_T of different
    point counts, for inputs that disagree on the frequency count, and for
    a normal matrix or right hand side that holds an inf or a NaN.
    """
    betas = np.asarray(betas, dtype=float)
    if np.any(betas < 0):
        raise ValueError(f"beta must be >= 0, got {betas[betas < 0][0]}")
    if H.shape[-2] != M_T.shape[-2]:
        raise ValueError(f"H has {H.shape[-2]} rows but the target has {M_T.shape[-2]}")
    if not len(H) == len(M_T) == len(betas) == len(frequencies):
        raise ValueError(
            f"frequency counts differ: H {len(H)}, M_T {len(M_T)}, "
            f"betas {len(betas)}, frequencies {len(frequencies)}"
        )
    filters = np.empty((len(betas), H.shape[-1], M_T.shape[-1]), dtype=complex)
    kept = np.ones(len(betas), dtype=bool)
    failures = []
    potrf, potrs = _cholesky_routines()
    diag = np.arange(H.shape[-1])
    for start in range(0, len(betas), _BLOCK_FREQUENCIES):
        block = slice(start, start + _BLOCK_FREQUENCIES)
        h_herm = H[block].conj().swapaxes(-1, -2)
        normal = h_herm @ H[block]
        normal[..., diag, diag] += betas[block, None]
        rhs = h_herm @ M_T[block]
        if not (np.isfinite(normal).all() and np.isfinite(rhs).all()):
            raise ValueError("array must not contain infs or NaNs")
        for i, n, b in zip(range(start, len(betas)), normal, rhs):
            factor, info = potrf(n, lower=False, clean=False)
            if info > 0:  # a leading minor is not positive definite
                frequency, beta = float(frequencies[i]), float(betas[i])
                failures.append(
                    (frequency, f"normal matrix is singular at {frequency} Hz (beta = {beta})")
                )
                kept[i] = False
                continue
            if info == 0:
                filters[i], info = potrs(factor, b, lower=False)
            if info != 0:  # a negative info from either routine names a bad argument
                raise ValueError(f"LAPACK: illegal argument {-info} at {frequencies[i]} Hz")
    return (filters if kept.all() else filters[kept]), kept, failures


def default_beta(n_points: int, sigma_sq: float) -> float:
    """Regularization matched to the uncertainty level: beta = K * sigma^2.

    Minimizes the expected design objective J when the design transfer
    functions carry entrywise variance sigma^2 across K control points.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    if sigma_sq < 0:
        raise ValueError(f"sigma_sq must be >= 0, got {sigma_sq}")
    return n_points * sigma_sq
