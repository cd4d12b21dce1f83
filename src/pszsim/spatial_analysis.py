"""Spatial isolation maps, iso-level contours and enclosed area.

A planar grid of single-point IPI values shows where in the sound field a
listener would still enjoy a given isolation level. Contours at chosen
levels (marching squares with linear interpolation) outline those
regions, and the area they enclose is a scalar robustness proxy: the
larger the area, the more a listener can move before isolation drops
below the level.

The maps of all frequencies are evaluated together, one block of grid
points at a time: a block's distances and angles to the speakers are
computed once for every frequency, so the memory that ``ipi_map`` needs
beside the maps' values is bounded by a block, not by the grid. Contours
and area share one table of per-cell polygon walks, so the area is
exactly the shoelace area of the polygonized superlevel region and the
two views can never disagree.
Cells with any non-finite corner (grid point on a speaker, or an
unbounded ratio) are excluded from both. Each level is one pass: one
numpy classification of its cells, then one loop over the walk table that
computes each walk's vertices once, from two tables of corner offsets and
edge corners, for its shoelace term and its contour chords. Only the
chaining of chords into polylines runs in Python, on integer edge ids. An
edge vertex belongs to at most two finite cells, each giving it one
chord, so the chords form disjoint paths and cycles, and chaining walks
each of them once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .acoustics import response_matrix
from .metrics import ipi_ratios, min_db
from .scene import Scene, _frozen


@dataclass(frozen=True)
class IpiMap:
    """Single-point IPI in dB over a rectangular grid.

    ``values_db[iy, ix]`` belongs to the point (x0 + ix*spacing,
    y0 + iy*spacing) in the z = 0 plane. Values are untruncated; the CLI
    caps them only when it writes the map. Invalid cells (grid point on a
    speaker) hold NaN.
    """

    frequency: float
    x0: float
    y0: float
    spacing: float
    values_db: np.ndarray

    def __post_init__(self):
        arr = _frozen(self.values_db, float)
        if arr.ndim != 2:
            raise ValueError(f"values_db must be a 2-D array, got shape {arr.shape}")
        object.__setattr__(self, "values_db", arr)

    @property
    def nx(self) -> int:
        return self.values_db.shape[1]

    @property
    def ny(self) -> int:
        return self.values_db.shape[0]

    def x_coords(self) -> np.ndarray:
        return self.x0 + np.arange(self.nx) * self.spacing

    def y_coords(self) -> np.ndarray:
        return self.y0 + np.arange(self.ny) * self.spacing


@dataclass(frozen=True)
class ContourSet:
    """Iso-level polylines of one map at one level, and the area they enclose.

    Each polyline is an (n, 2) array of (x, y) vertices in meters lying
    on grid cell edges. A polyline whose first and last vertices are
    identical is closed. ``area_m2`` is the area in m^2 where the map is at
    or above the level: the cell walks that give the chords, summed, so it
    is the shoelace area of the closed contours whenever the region stays
    clear of the map border. Cells with non-finite corners add nothing.
    """

    level_db: float
    polylines: tuple[np.ndarray, ...]
    area_m2: float

    def __post_init__(self):
        object.__setattr__(
            self, "polylines", tuple(_frozen(line, float) for line in self.polylines)
        )


MAX_BYTES = np.iinfo(np.intp).max  # the largest numpy array, in bytes
# (frequency, point, speaker) entries per block of grid points in ipi_map: a
# block's complex temporaries are 0.5 MB each, whatever the grid, and together
# they fit a core's L2 cache (2^14 is slower, 2^16 holds more memory)
_BLOCK_ENTRIES = 2**15


def grid_shape(region, resolution: float) -> tuple[int, int]:
    """(nx, ny) of the grid covering ``region`` = (x_min, x_max, y_min, y_max)
    at ``resolution``; ValueError unless both extents are positive integer multiples
    of a positive resolution (to 1e-6 of a step) and numpy can create the (points,)
    float64 array of one map's values."""
    if resolution <= 0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    x_min, x_max, y_min, y_max = (float(v) for v in region)
    if x_max <= x_min or y_max <= y_min:
        raise ValueError(f"region must have positive extent, got {region}")
    counts = []
    for name, extent in (("x", x_max - x_min), ("y", y_max - y_min)):
        steps = extent / resolution
        # an infinite step count (extent overflowed) has no nearest integer
        if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-6:
            raise ValueError(
                f"region {name} extent {extent} is not a multiple of resolution {resolution}"
            )
        if round(steps) < 1:
            raise ValueError(
                f"region {name} extent {extent:.3g} is below the resolution {resolution}"
            )
        counts.append(int(round(steps)) + 1)
    if counts[0] * counts[1] * 8 > MAX_BYTES:
        raise ValueError(f"{float(counts[0]) * counts[1]:.3g} grid points, too many for one array")
    return counts[0], counts[1]


def ipi_map(
    scene: Scene,
    filters: np.ndarray,
    region,
    resolution: float,
    frequencies,
    target_channels,
    interferer_channels,
) -> list[IpiMap]:
    """Evaluate single-point IPI on a grid in the z = 0 plane, one map per frequency.

    Parameters
    ----------
    filters : (F, speakers, channels) array
        Filters designed at each of the F ``frequencies``, as
        ``solve_stack`` returns them for its kept frequencies.
    region : (x_min, x_max, y_min, y_max)
        Rectangle in meters. Both extents must be integer multiples of
        ``resolution`` so the grid covers the region exactly.
    target_channels, interferer_channels
        Disjoint channel index sets of the designed system.

    At each grid point the 1 x L transfer row is formed and multiplied by
    the filters; the resulting channel row is a one-point zone whose IPI
    is :func:`~pszsim.metrics.ipi_ratios`, with its channel checks. A grid
    point exactly on a speaker yields NaN for that cell instead of failing
    the whole map. The grid is evaluated in row-major blocks of points, all
    frequencies at once, with about ``_BLOCK_ENTRIES`` (frequency, point,
    speaker) entries per block; every value has the bits of a whole-grid
    evaluation.
    """
    if len(filters) != len(frequencies):
        raise ValueError(f"{len(filters)} filter sets for {len(frequencies)} frequencies")
    nx, ny = grid_shape(region, resolution)
    x_min, _, y_min, _ = (float(v) for v in region)
    freqs = np.asarray(frequencies, dtype=float)

    # each map's values come first, so a grid too large for memory fails in
    # one allocation before any work; x varies fastest along the flat index
    n = ny * nx
    values = [np.empty(n) for _ in freqs]
    # no block holds a single point: numpy multiplies one row by another BLAS
    # routine, whose last bits differ from those of the many-row product
    step = max(2, _BLOCK_ENTRIES // max(1, freqs.size * len(scene.speakers)))
    for start in range(0, n - 1, step):
        stop = start + step if start + step < n - 1 else n
        iy, ix = np.divmod(np.arange(start, stop), nx)
        points = np.zeros((ix.size, 3))
        points[:, 0] = x_min + ix * resolution
        points[:, 1] = y_min + iy * resolution
        # one single-point zone per grid point: (F, n_points, 1, n_channels)
        m = (response_matrix(scene, points, freqs) @ filters)[:, :, None, :]  # NaN rows propagate
        _, values_db = min_db(*ipi_ratios(m, (0,), target_channels, interferer_channels))
        for v, block in zip(values, values_db):
            v[start:stop] = block
    # each map copies its values, and the pop frees the original right after
    return [
        IpiMap(frequency=float(f), x0=x_min, y0=y_min, spacing=float(resolution),
               values_db=values.pop(0).reshape(ny, nx))
        for f in freqs
    ]


# Per-cell polygon walks of the superlevel region by cell code: the mask of
# the corners at or above the level, plus 16 for a saddle cell (5 or 10)
# whose center mean lies below it. Corners c0..c3 run counterclockwise from
# the bottom-left; e0..e3 are the level crossings on the bottom, right, top
# and left edges. A cell's region is the union of its polygons; each
# cyclically consecutive pair of crossing vertices is a contour chord.
_CODE_WALKS = {
    0: [],
    1: [("c0", "e0", "e3")],
    2: [("e0", "c1", "e1")],
    3: [("c0", "c1", "e1", "e3")],
    4: [("e1", "c2", "e2")],
    5: [("c0", "e0", "e1", "c2", "e2", "e3")],
    6: [("e0", "c1", "c2", "e2")],
    7: [("c0", "c1", "c2", "e2", "e3")],
    8: [("e2", "c3", "e3")],
    9: [("c0", "e0", "e2", "c3")],
    10: [("e0", "c1", "e1", "e2", "c3", "e3")],
    11: [("c0", "c1", "e1", "e2", "c3")],
    12: [("e1", "c2", "c3", "e3")],
    13: [("c0", "e0", "e1", "c2", "c3")],
    14: [("e0", "c1", "c2", "c3", "e3")],
    15: [("c0", "c1", "c2", "c3")],
    21: [("c0", "e0", "e3"), ("e1", "c2", "e2")],
    26: [("e0", "c1", "e1"), ("e2", "c3", "e3")],
}

# Corner k's (x, y) offset in cells from its cell's bottom-left corner.
_CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))
# Edge token -> (low corner, high corner, vertical): the crossing lies
# between the two corners, and edge e of cell (ix, iy) is the grid edge
# (vertical, (ix, iy) + the low corner's offset), the one its neighbor shares.
_EDGES = {"e0": (0, 1, 0), "e1": (1, 2, 1), "e2": (3, 2, 0), "e3": (0, 3, 1)}


def extract_contours(m: IpiMap, level_db: float) -> ContourSet:
    """Iso-level polylines at ``level_db`` from the untruncated values, and their area.

    Marching squares with linear interpolation along cell edges; saddle
    cells are resolved by the side of the cell-center mean, so the result
    is deterministic. Chord segments from neighboring cells are chained
    into maximal polylines: open paths first, each from its smaller end
    key and in the order of those keys, then loops, each from its smallest
    key, which come back closed (first vertex repeated at the end). An
    empty set is returned when the level is never crossed.
    """
    level = float(level_db)
    v = m.values_db
    nx, ny, s = m.nx, m.ny, m.spacing
    corners = [c.ravel() for c in (v[:-1, :-1], v[:-1, 1:], v[1:, 1:], v[1:, :-1])]
    c0, c1, c2, c3 = corners
    finite = np.isfinite(c0) & np.isfinite(c1) & np.isfinite(c2) & np.isfinite(c3)
    mask = sum((c >= level).astype(np.int64) << bit for bit, c in enumerate(corners))
    with np.errstate(invalid="ignore", over="ignore"):
        center_inside = (((c0 + c1) + c2) + c3) / 4.0 >= level
    split_saddle = ((mask == 5) | (mask == 10)) & ~center_inside
    # each cell's _CODE_WALKS key in row-major order, 0 with a non-finite corner
    codes = np.where(finite, mask + 16 * split_saddle, 0)
    terms = np.zeros((codes.size, 2))  # one shoelace term per (cell, walk)
    chord_ends = []  # (processing order, edge id, x, y) arrays
    for code in np.flatnonzero(np.bincount(codes)).tolist():
        if not _CODE_WALKS[code]:
            continue
        cells = np.flatnonzero(codes == code)
        iy, ix = np.divmod(cells, nx - 1)
        cx, cy = m.x0 + ix * s, m.y0 + iy * s
        for w, walk in enumerate(_CODE_WALKS[code]):
            # each vertex's (x, y, edge id or None), by one expression per
            # token: two cells that share an edge vertex may differ in its
            # last bit; a corner token is its own low corner, with no crossing
            verts = []
            for token in walk:
                lo, hi, vertical = _EDGES.get(token, (int(token[1]), None, None))
                dx, dy = _CORNERS[lo]
                x, y, edge = cx + dx * s, cy + dy * s, None
                if hi is not None:
                    a = corners[lo][cells]
                    ts = (level - a) / (corners[hi][cells] - a) * s
                    x, y = x + (0.0 if vertical else ts), y + (ts if vertical else 0.0)
                    # integer order is that of (vertical, ix + dx, iy + dy)
                    edge = vertical * (nx - 1) * ny + (ix + dx) * (ny - vertical) + iy + dy
                verts.append((x, y, edge))
            acc = 0.0
            for i, ((x1, y1, e1), (x2, y2, e2)) in enumerate(zip(verts, verts[1:] + verts[:1])):
                acc = acc + (x1 * y2 - x2 * y1)
                # a chord joins two cyclically consecutive edge vertices;
                # order by cell, walk (< 2), position (< 6), end (< 2)
                if e1 is not None and e2 is not None:
                    order = cells * 24 + w * 12 + i * 2
                    chord_ends += [(order, e1, x1, y1), (order + 1, e2, x2, y2)]
            terms[cells, w] = np.abs(acc) / 2.0
    # cumsum adds in order (np.sum pairs): row-major cells, then walks;
    # the leading 0.0 is the empty sum
    area = float(np.cumsum(np.append(0.0, terms))[-1])
    if not chord_ends:
        return ContourSet(level, (), area)

    order, ids, xs, ys = (np.concatenate(c) for c in zip(*chord_ends))
    by_order = np.argsort(order)  # the two ends of chord n land at 2n and 2n + 1
    ids = ids[by_order]
    # vertex j: the j-th smallest edge id, reached first at chord end
    # first[j] and last at last[j]
    _, first, index = np.unique(ids, return_index=True, return_inverse=True)
    last = ids.size - 1 - np.unique(ids[::-1], return_index=True)[1]
    # the first cell to reach a shared edge vertex sets its coordinate
    xy = np.column_stack([xs[by_order], ys[by_order]])[first]
    partner = index[np.arange(ids.size) ^ 1]
    # a vertex's neighbors in chord order; the same one twice at a path end
    nbr0, nbr1 = partner[first].tolist(), partner[last].tolist()

    def chain(start):
        """The path from the end ``start``, or the cycle from ``start`` back to it.

        Both visit each vertex once (a cycle ends on ``start`` again), so a
        walk past ``first.size + 1`` vertices means that some vertex has
        more than two chords: it raises ``RuntimeError`` rather than loop
        forever.
        """
        path = [start, nbr0[start]]
        for _ in range(first.size):
            here = path[-1]
            a, b = nbr0[here], nbr1[here]
            if here == start or a == b:
                return path
            path.append(b if a == path[-2] else a)
        raise RuntimeError(f"contour at {level} dB does not close: a vertex has over two chords")

    polylines = []
    chained: set = set()
    # open paths first; the vertices left after them lie on cycles
    for start in np.flatnonzero(first == last).tolist() + list(range(first.size)):
        if start not in chained:
            path = chain(start)
            chained.update(path)
            polylines.append(xy[path])
    return ContourSet(level, tuple(polylines), area)
