"""Geometry of a sound zone reproduction setup.

A :class:`Scene` bundles everything the acoustic model needs to know about
the physical layout: loudspeaker positions, control points grouped into two
zones, the assignment of program input channels to zones, the virtual
source of each channel, and the physical constants of the radiation model.

Conventions
-----------
Positions are 3D in meters. The loudspeaker array lies along the x axis,
centered at the origin, and radiates toward positive y. Listeners sit in
the z = 0 plane facing the array. All indices (control points, speakers,
channels) are 0-based; configuration files use 1-based labels and the CLI
converts at the boundary.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np


def _frozen(values, dtype) -> np.ndarray:
    """``values`` as a read-only ``dtype`` array that shares no memory with the caller's."""
    arr = np.array(values, dtype=dtype)  # a copy, also of a view, subclass or memoryview
    arr.setflags(write=False)
    return arr


def _readonly_array(values, dtype, shape_hint: str) -> np.ndarray:
    arr = _frozen(values, dtype)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"{shape_hint} must be an (n, 3) array, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Scene:
    """Immutable description of the reproduction setup.

    Parameters
    ----------
    speakers : array_like of shape (L, 3)
        Loudspeaker positions in meters. Every speaker radiates along +y.
    control_points : array_like of shape (K, 3)
        Evaluation positions in meters, typically the listeners' ears.
    zone_a, zone_b : tuple of int
        Indices into ``control_points`` forming the two zones. Together
        they must partition the control points.
    program_a, program_b : tuple of int
        Indices of the program input channels intended for zone A and
        zone B respectively.
    virtual_source_map : tuple of int
        For each input channel, the index of the loudspeaker whose
        transfer functions define that channel's target sound field.
    sound_speed : float
        Speed of sound in m/s.
    piston_radius : float
        Radius of the circular piston model for every speaker, in meters.

    Notes
    -----
    The constructor only enforces array shapes so that malformed setups
    can still be built and inspected. Semantic problems (overlapping
    zones, out-of-range indices, coincident geometry) are reported by
    :func:`validate` as data rather than exceptions.
    """

    speakers: np.ndarray
    control_points: np.ndarray
    zone_a: tuple[int, ...]
    zone_b: tuple[int, ...]
    program_a: tuple[int, ...]
    program_b: tuple[int, ...]
    virtual_source_map: tuple[int, ...]
    sound_speed: float = 343.0
    piston_radius: float = 0.05

    def __post_init__(self):
        object.__setattr__(
            self, "speakers", _readonly_array(self.speakers, float, "speakers")
        )
        object.__setattr__(
            self,
            "control_points",
            _readonly_array(self.control_points, float, "control_points"),
        )
        for name in ("zone_a", "zone_b", "program_a", "program_b", "virtual_source_map"):
            object.__setattr__(self, name, tuple(int(i) for i in getattr(self, name)))

    @property
    def n_speakers(self) -> int:
        return self.speakers.shape[0]

    @property
    def n_points(self) -> int:
        return self.control_points.shape[0]

    @property
    def n_channels(self) -> int:
        return len(self.virtual_source_map)

    def zone_points(self, listener_id: str) -> tuple[int, ...]:
        """Control point indices of one listener's zone ('A' or 'B')."""
        zid = str(listener_id).upper()
        if zid == "A":
            return self.zone_a
        if zid == "B":
            return self.zone_b
        raise ValueError(f"unknown listener id: {listener_id!r} (expected 'A' or 'B')")


@dataclass(frozen=True)
class ListenerDisplacement:
    """Rigid in-plane displacement of one listener's ear pair.

    ``listener_id`` is the zone label ('A' or 'B'); ``dx`` and ``dy`` are
    meters. The z coordinate never changes.
    """

    listener_id: str
    dx: float
    dy: float


def default_scene() -> Scene:
    """Build the reference two-listener setup used throughout the docs.

    Eight speakers spaced 0.25 m apart on the x axis, two listeners 1 m
    in front of the array with their zone midpoints 1 m apart, and an ear
    spacing of 0.168 m. Each listener gets a stereo program whose virtual
    sources are the outermost and an inner speaker on their side of the
    array (speakers 1 and 4 for A, 5 and 8 for B, counting from 1).

    Zone B is an exact mirror image of zone A: every x coordinate on the
    B side is the floating point negation of its A side counterpart, so
    symmetry checks hold to the last bit.
    """
    n_spk = 8
    spacing = 0.25
    x_spk = (np.arange(n_spk) - (n_spk - 1) / 2) * spacing
    speakers = np.column_stack([x_spk, np.zeros(n_spk), np.zeros(n_spk)])

    half_gap = 0.5   # zone midpoints at x = -0.5 and +0.5
    half_ear = 0.084  # ear pair spans 0.168 m
    distance = 1.0   # array to listener plane
    ax = np.array([-half_gap - half_ear, -half_gap + half_ear])
    bx = -ax[::-1]   # negation keeps the mirror exact in floats
    control_points = np.array(
        [
            [ax[0], distance, 0.0],
            [ax[1], distance, 0.0],
            [bx[0], distance, 0.0],
            [bx[1], distance, 0.0],
        ]
    )
    return Scene(
        speakers=speakers,
        control_points=control_points,
        zone_a=(0, 1),
        zone_b=(2, 3),
        program_a=(0, 1),
        program_b=(2, 3),
        virtual_source_map=(0, 3, 4, 7),
    )


def move_listener(scene: Scene, d: ListenerDisplacement) -> Scene:
    """Return a copy of the scene with one listener's ears translated.

    Both control points of the listener's zone move rigidly by
    ``(d.dx, d.dy, 0)``; everything else is unchanged. Raises
    ``ValueError`` for an unknown listener id.
    """
    idx = list(scene.zone_points(d.listener_id))
    points = scene.control_points.copy()
    points[idx] += np.array([d.dx, d.dy, 0.0])
    return dataclasses.replace(scene, control_points=points)


def validate(scene: Scene) -> list[str]:
    """Check all scene invariants and return a list of violations.

    An empty list means the scene is sound. Violations are returned as
    human readable strings instead of raised, so partially built or
    deliberately broken scenes can be inspected.
    """
    violations: list[str] = []
    k, l_count = scene.n_points, scene.n_speakers

    za, zb = set(scene.zone_a), set(scene.zone_b)
    if not za:
        violations.append("zone A has no control points")
    if not zb:
        violations.append("zone B has no control points")
    overlap = sorted(za & zb)
    if overlap:
        violations.append(f"zones A and B share control point(s) {overlap}")
    out_of_range = sorted(i for i in za | zb if not 0 <= i < k)
    if out_of_range:
        violations.append(f"zone indices out of range: {out_of_range}")
    unassigned = sorted(set(range(k)) - za - zb)
    if unassigned:
        violations.append(f"control point(s) {unassigned} not assigned to any zone")

    pa, pb = set(scene.program_a), set(scene.program_b)
    if not pa:
        violations.append("program A has no channels")
    if not pb:
        violations.append("program B has no channels")
    chan_overlap = sorted(pa & pb)
    if chan_overlap:
        violations.append(f"programs A and B share channel(s) {chan_overlap}")
    n_chan = scene.n_channels
    bad_chan = sorted(i for i in pa | pb if not 0 <= i < n_chan)
    if bad_chan:
        violations.append(f"program channel indices out of range: {bad_chan}")

    bad_src = sorted(
        {s for s in scene.virtual_source_map if not 0 <= s < l_count}
    )
    if bad_src:
        violations.append(f"virtual source speaker indices out of range: {bad_src}")

    if k and l_count:
        diff = scene.control_points[:, None, :] - scene.speakers[None, :, :]
        with np.errstate(over="ignore"):  # an overflowed distance is a violation
            dist = np.linalg.norm(diff, axis=-1)
        for ki, li in zip(*np.nonzero(dist == 0.0)):
            violations.append(
                f"control point {int(ki)} coincides with speaker {int(li)}"
            )
        far = np.flatnonzero(~np.isfinite(dist).all(axis=1)).tolist()
        if far:
            violations.append(f"control point(s) {far}: distance to a speaker overflows")

    return violations
