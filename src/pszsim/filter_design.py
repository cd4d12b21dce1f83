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
    k_points = scene.n_points
    if H.entries.shape[0] != k_points:
        raise ValueError(
            f"H has {H.entries.shape[0]} rows but the scene has {k_points} control points"
        )

    columns = []
    for zone, channels in _zone_layout(scene):
        sources = [scene.virtual_source_map[c] for c in channels]
        if mode is RenderingMode.MONO:
            col = np.zeros(k_points, dtype=complex)
            col[list(zone)] = H.entries[list(zone)][:, sources].mean(axis=1)
            columns.append(col)
        elif mode is RenderingMode.STEREO:
            for src in sources:
                col = np.zeros(k_points, dtype=complex)
                col[list(zone)] = H.entries[list(zone), src]
                columns.append(col)
        elif mode is RenderingMode.XTC:
            if len(channels) != len(zone):
                raise ValueError(
                    "xtc needs one channel per zone point, got "
                    f"{len(channels)} channels for {len(zone)} points"
                )
            for point, src in zip(zone, sources):
                col = np.zeros(k_points, dtype=complex)
                col[point] = H.entries[point, src]
                columns.append(col)
        else:
            raise ValueError(f"unknown rendering mode: {mode!r}")

    return TargetMatrix(H.frequency, np.column_stack(columns))


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
    h = H.entries
    if h.shape[0] != M_T.entries.shape[0]:
        raise ValueError(
            f"H has {h.shape[0]} rows but the target has {M_T.entries.shape[0]}"
        )
    normal = h.conj().T @ h
    normal[np.diag_indices_from(normal)] += beta
    try:
        factor = scipy.linalg.cho_factor(normal)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(
            f"normal matrix is singular at {H.frequency} Hz (beta = {beta})"
        ) from exc
    filters = scipy.linalg.cho_solve(factor, h.conj().T @ M_T.entries)
    return FilterMatrix(H.frequency, filters)


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
