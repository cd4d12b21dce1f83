"""Target stacks and regularized pressure matching filters.

Both work on stacks batched over frequency: :func:`target_stack` builds
the target M_T (control points x program channels) of a rendering mode
from the transfer stack H (control points x speakers), and
:func:`solve_stack` designs the filters C (speakers x program channels).
The system matrix M = H C maps program channels directly to control point
pressures and is what all isolation metrics consume. Each frequency's
filters take one LAPACK ``zposv`` call, in place, on column-major operands.
"""

from __future__ import annotations

import enum
import importlib.util
import sys
from importlib.machinery import PathFinder
from pathlib import Path

import numpy as np

from .scene import Scene

_BLOCK_FREQUENCIES = 128  # normal matrices formed at once; bounds the temporaries
_FLAPACK = "scipy.linalg._flapack"


def _cholesky_solver():
    """LAPACK's complex Cholesky solver ``zposv``, from scipy's f2py extension.

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
    return module.zposv


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


def solve_stack(H: np.ndarray, targets, betas, frequencies):
    """Regularized pressure matching filters at F frequencies at once, for
    every target of one design.

    ``H`` is an (F, points, speakers) stack, ``targets`` a sequence of
    (F, points, channels_i) target stacks M_T, ``betas`` the F
    regularization weights and ``frequencies`` the F frequencies that
    failure messages name. At each frequency the filters C of each target
    minimize

        J(C) = ||H C - M_T||_F^2 + beta * ||C||_F^2

    for any speaker/point count relation; the closed form is
    C = (H^H H + beta I)^(-1) H^H M_T. The normal matrices and right hand
    sides, each target's H^H M_T in its own columns, are formed for blocks
    of frequencies at once and checked for infs and NaNs once per block;
    each frequency is then factorized once for all targets and solved by
    one call of LAPACK's ``zposv``, which is ``zpotrf`` then ``zpotrs``,
    shared by all right hand side columns, with no explicit inverse, in
    place on a Fortran-ordered copy of each block, so f2py copies none. It
    is the f2py wrapper that ``scipy.linalg`` uses, taken from scipy's LAPACK
    extension alone at the first call (see :func:`_cholesky_solver`); no
    ``scipy.linalg`` package module is imported. So every filter of a
    complex stack is bit for bit what a one-frequency, one-target
    ``scipy.linalg.cho_factor``/``cho_solve`` gives. With beta = 0 the
    normal matrix must be invertible; a frequency where it does not
    factorize is reported, not raised.
    Returns ``(filters, kept, failures)``: one (F_kept, speakers,
    channels_i) filter stack per target (views of one array), of the
    frequencies whose normal matrix factorized, the (F,) boolean mask of
    those frequencies, and a ``(frequency, message)`` pair naming every
    other one, in grid order; the mask and the failures hold for every
    target.

    Raises ``ValueError`` for a negative beta, for H and a target of
    different point counts, for inputs that disagree on the frequency
    count, and for a normal matrix or right hand side that holds an inf or
    a NaN, which an overflow in forming them gives without a warning.
    """
    betas = np.asarray(betas, dtype=float)
    if np.any(betas < 0):
        raise ValueError(f"beta must be >= 0, got {betas[betas < 0][0]}")
    for M_T in targets:
        if H.shape[-2] != M_T.shape[-2]:
            raise ValueError(f"H has {H.shape[-2]} rows but the target has {M_T.shape[-2]}")
        if not len(H) == len(M_T) == len(betas) == len(frequencies):
            raise ValueError(
                f"frequency counts differ: H {len(H)}, M_T {len(M_T)}, "
                f"betas {len(betas)}, frequencies {len(frequencies)}"
            )
    # target i's columns of the right hand side and the solution are cols[i]:cols[i + 1]
    cols = np.cumsum([0] + [M_T.shape[-1] for M_T in targets]).tolist()
    filters = np.empty((len(betas), H.shape[-1], cols[-1]), dtype=complex)
    kept = np.ones(len(betas), dtype=bool)
    failures = []
    posv = _cholesky_solver()
    diag = np.arange(H.shape[-1])
    # one block's normal matrices and right hand sides, allocated once per call,
    # and their copies in LAPACK's column-major layout, so that f2py copies none
    size = min(len(betas), _BLOCK_FREQUENCIES)
    normal_c = np.empty((size, H.shape[-1], H.shape[-1]), dtype=complex)
    rhs_c = np.empty((size, H.shape[-1], cols[-1]), dtype=complex)
    normal_f, rhs_f = (np.empty_like(a.swapaxes(-1, -2), order="C").swapaxes(-1, -2)
                       for a in (normal_c, rhs_c))
    for start in range(0, len(betas), _BLOCK_FREQUENCIES):
        block = slice(start, start + _BLOCK_FREQUENCIES)
        h_herm = H[block].conj().swapaxes(-1, -2)
        n_block = len(h_herm)
        normal, rhs = normal_c[:n_block], rhs_c[:n_block]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            np.matmul(h_herm, H[block], out=normal)
            normal[..., diag, diag] += betas[block, None]
            # one product per target: H^H of all targets' columns at once moves last bits
            for M_T, lo, hi in zip(targets, cols, cols[1:]):
                np.matmul(h_herm, M_T[block], out=rhs[..., lo:hi])
        if not (np.isfinite(normal).all() and np.isfinite(rhs).all()):
            raise ValueError("array must not contain infs or NaNs")
        normal_f[:n_block], rhs_f[:n_block] = normal, rhs
        for i, n, b in zip(range(start, len(betas)), normal_f[:n_block], rhs_f[:n_block]):
            # lower, overwrite_a, overwrite_b: by position, which f2py parses faster
            _, _, info = posv(n, b, False, True, True)
            if info > 0:  # a leading minor is not positive definite
                frequency, beta = float(frequencies[i]), float(betas[i])
                failures.append(
                    (frequency, f"normal matrix is singular at {frequency} Hz (beta = {beta})")
                )
                kept[i] = False
                continue
            if info != 0:  # a negative info names a bad argument
                raise ValueError(f"LAPACK: illegal argument {-info} at {frequencies[i]} Hz")
        filters[block] = rhs_f[:n_block]  # solved in place; C-ordered again for the H C products
    filters = filters if kept.all() else filters[kept]
    return [filters[..., lo:hi] for lo, hi in zip(cols, cols[1:])], kept, failures


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
