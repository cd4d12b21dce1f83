"""Target matrices and regularized pressure matching filters.

Given a transfer matrix H (control points x speakers) and a target matrix
M_T (control points x program channels), the filter matrix C minimizes

    J(C) = ||H C - M_T||_F^2 + beta * ||C||_F^2

whose closed form is C = (H^H H + beta I)^(-1) H^H M_T. The solve goes
through a Cholesky factorization of the Hermitian normal matrix, shared
by all right hand side columns; no explicit inverse is formed. The system
matrix M = H C maps program channels directly to control point pressures
and is what all isolation metrics consume.

Three rendering modes define the target:

- mono: one channel per zone; its target field is the average of the
  zone's virtual source transfer functions over the zone's own points,
  zero in the other zone.
- stereo: two channels per zone; each channel's target is a single
  virtual source's transfer functions over the zone's points, zero in
  the other zone.
- xtc: like stereo, but each channel is additionally cancelled at the
  other ear of its own zone, leaving one nonzero entry per column
  (channel j of a zone targets only the zone's j-th point).
"""

from __future__ import annotations

import enum

import numpy as np
import scipy.linalg

from .acoustics import TransferMatrix
from .scene import Scene

_BLOCK_FREQUENCIES = 256  # normal matrices formed at once; bounds the temporaries


class RenderingMode(enum.Enum):
    MONO = "mono"
    STEREO = "stereo"
    XTC = "xtc"


class IllConditionedError(RuntimeError):
    """The normal matrix could not be factorized (singular at beta = 0)."""


class TargetMatrix(TransferMatrix):
    """Desired pressures per program channel, shape (points, channels)."""


class FilterMatrix(TransferMatrix):
    """Speaker driving filters per program channel, shape (speakers, channels)."""


class SystemMatrix(TransferMatrix):
    """End to end response per program channel, shape (points, channels)."""


def program_channels(scene: Scene, mode: RenderingMode):
    """Channel index sets (zone A, zone B) of the system built for a mode.

    Stereo and xtc keep the scene's native channel layout. Mono collapses
    each zone's program to a single channel, so the designed system has
    two channels: index 0 feeds zone A, index 1 feeds zone B.
    """
    if mode is RenderingMode.MONO:
        return (0,), (1,)
    return tuple(scene.program_a), tuple(scene.program_b)


def _zone_layout(scene: Scene):
    return (
        (tuple(scene.zone_a), tuple(scene.program_a)),
        (tuple(scene.zone_b), tuple(scene.program_b)),
    )


def target_stack(scene: Scene, H: np.ndarray, mode: RenderingMode) -> np.ndarray:
    """Target pressures for a rendering mode from a (..., points, speakers) stack.

    Returns the (..., points, channels) stack that :func:`build_target_matrix`
    describes, gathered for every leading index (frequency) at once.
    """
    k_points = scene.n_points
    if H.shape[-2] != k_points:
        raise ValueError(
            f"H has {H.shape[-2]} rows but the scene has {k_points} control points"
        )
    if not isinstance(mode, RenderingMode):
        raise ValueError(f"unknown rendering mode: {mode!r}")

    blocks = []
    for zone, channels in _zone_layout(scene):
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


def build_target_matrix(scene: Scene, H: TransferMatrix, mode: RenderingMode) -> TargetMatrix:
    """Target pressure matrix for a rendering mode.

    Every column belongs to one zone's program and is zero at the other
    zone's points. The nonzero block is taken from the virtual source
    columns of H, so the target is "what those speakers would have done",
    restricted to the bright zone.

    Raises ``ValueError`` when H does not cover the scene's control points
    or when xtc is requested for a zone whose channel count differs from
    its point count.
    """
    return TargetMatrix(H.frequency, target_stack(scene, H.entries, mode))


def solve_stack(H: np.ndarray, M_T: np.ndarray, betas, frequencies):
    """Regularized pressure matching filters at F frequencies at once.

    ``H`` is an (F, points, speakers) stack, ``M_T`` an (F, points,
    channels) stack and ``betas`` the F regularization weights. The normal
    matrices and right hand sides are formed for blocks of frequencies at
    once; each frequency is then factorized and solved by LAPACK's Cholesky
    routines, so every filter is bit for bit what a one-frequency solve
    gives.
    Returns ``(filters, kept, failures)``: the (F_kept, speakers, channels)
    filters of the frequencies whose normal matrix factorized, the (F,)
    boolean mask of those frequencies, and a ``(frequency, message)`` pair
    for every other one, in grid order.
    """
    betas = np.asarray(betas, dtype=float)
    filters = np.empty((len(betas), H.shape[-1], M_T.shape[-1]), dtype=complex)
    kept = np.ones(len(betas), dtype=bool)
    failures = []
    diag = np.arange(H.shape[-1])
    for start in range(0, len(betas), _BLOCK_FREQUENCIES):
        block = slice(start, start + _BLOCK_FREQUENCIES)
        h_herm = H[block].conj().swapaxes(-1, -2)
        normal = h_herm @ H[block]
        normal[..., diag, diag] += betas[block, None]
        rhs = h_herm @ M_T[block]
        for i, n, b in zip(range(start, len(betas)), normal, rhs):
            try:
                factor = scipy.linalg.cho_factor(n)
            except np.linalg.LinAlgError:
                frequency, beta = float(frequencies[i]), float(betas[i])
                failures.append(
                    (frequency, f"normal matrix is singular at {frequency} Hz (beta = {beta})")
                )
                kept[i] = False
                continue
            filters[i] = scipy.linalg.cho_solve(factor, b)
    return (filters if kept.all() else filters[kept]), kept, failures


def pressure_matching(H: TransferMatrix, M_T: TargetMatrix, beta: float) -> FilterMatrix:
    """Solve the regularized least squares filter design problem.

    Returns the minimizer of ||H C - M_T||_F^2 + beta ||C||_F^2. Works for
    any speaker/point count relation; with beta = 0 the normal matrix must
    be invertible, otherwise :class:`IllConditionedError` is raised naming
    the frequency.
    """
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    if H.frequency != M_T.frequency:
        raise ValueError(
            f"frequency mismatch: H at {H.frequency} Hz, target at {M_T.frequency} Hz"
        )
    if H.entries.shape[0] != M_T.entries.shape[0]:
        raise ValueError(
            f"H has {H.entries.shape[0]} rows but the target has {M_T.entries.shape[0]}"
        )
    filters, _, failures = solve_stack(
        H.entries[None], M_T.entries[None], [beta], [H.frequency]
    )
    if failures:
        raise IllConditionedError(failures[0][1])
    return FilterMatrix(H.frequency, filters[0])


def cost(H: TransferMatrix, C: FilterMatrix, M_T: TargetMatrix, beta: float) -> float:
    """Value of the design objective ||H C - M_T||_F^2 + beta ||C||_F^2."""
    residual = H.entries @ C.entries - M_T.entries
    return float(
        np.linalg.norm(residual, "fro") ** 2
        + beta * np.linalg.norm(C.entries, "fro") ** 2
    )


def system_matrix(H_eval: TransferMatrix, C: FilterMatrix) -> SystemMatrix:
    """End to end system M = H C.

    ``H_eval`` may differ from the design matrix (moved listener,
    independent evaluation measurement); both operands must agree on
    frequency and inner dimension.
    """
    if H_eval.frequency != C.frequency:
        raise ValueError(
            f"frequency mismatch: H at {H_eval.frequency} Hz, filters at {C.frequency} Hz"
        )
    if H_eval.entries.shape[1] != C.entries.shape[0]:
        raise ValueError(
            f"inner dimensions differ: H is {H_eval.entries.shape}, C is {C.entries.shape}"
        )
    return SystemMatrix(H_eval.frequency, H_eval.entries @ C.entries)


def default_beta(n_points: int, sigma_sq: float) -> float:
    """Regularization matched to the uncertainty level: beta = K * sigma^2.

    Minimizes the expected design cost when the design transfer functions
    carry entrywise variance sigma^2 across K control points.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    if sigma_sq < 0:
        raise ValueError(f"sigma_sq must be >= 0, got {sigma_sq}")
    return n_points * sigma_sq
