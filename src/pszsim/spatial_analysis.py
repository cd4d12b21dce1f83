"""Spatial isolation maps, iso-level contours and enclosed area.

A planar grid of single-point IPI values shows where in the sound field a
listener would still enjoy a given isolation level. Contours at chosen
levels (marching squares with linear interpolation) outline those
regions, and the area they enclose is a scalar robustness proxy: the
larger the area, the more a listener can move before isolation drops
below the level.

The maps of all frequencies are evaluated together, one block of grid
points at a time, so the memory that ``ipi_map`` needs beside the maps'
values is bounded by a block and a grid row, not by the grid. A block's
responses are those of its rows at the distinct |dx| of grid columns from
speakers: dx enters a response only as dx*dx and hypot(dx, dz), and dy and
dz are fixed by the row and the speakers' (y, z). Contours
and area share one table of per-cell polygon walks, so the area is
exactly the shoelace area of the polygonized superlevel region and the
two views can never disagree.
Cells with any non-finite corner (grid point on a speaker, or an
unbounded ratio) are excluded from both. Each map is one call for all of
its levels. What no level changes is computed once per map: the cells
with four finite corners, the saddle center means, the cells' corner
coordinates by column and by row, and the shoelace term of a cell inside
the region. Each level then takes one numpy classification of its cells;
a cell inside the region takes the shared term, and only the cells the
level crosses go through one numpy pass over their (walk, slot)
vertices, read from per-code tables of the walk table, which gives each
walk's shoelace term and its contour chords in processing order. Only
the chaining of chords into polylines runs in Python, on integer edge
ids. An edge vertex belongs to at most two finite cells, each giving it
one chord, so the chords form disjoint paths and cycles, and chaining
walks each of them once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .acoustics import _piston
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
    speaker) entries per block. Speakers that share (y, z) share each row's dy
    and dz, and dx enters a response only as dx*dx and hypot(dx, dz), so each
    (row, distinct |dx|, speaker (y, z)) is evaluated once per block, with
    the bits of :func:`~pszsim.acoustics.response_matrix` on the grid's points.
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
    xs, ys = x_min + np.arange(nx) * resolution, y_min + np.arange(ny) * resolution
    # per group of speakers at one (y, z), by its bits: the distinct |dx| to the
    # grid columns, and each (column, speaker)'s index among them
    keys = [s[1:].tobytes() for s in scene.speakers]
    groups = []
    for key in dict.fromkeys(keys):
        cols = [col for col, other in enumerate(keys) if other == key]
        (_, y, z), x = scene.speakers[cols[0]], scene.speakers[cols, 0]
        adx, inverse = np.unique(np.abs(xs[:, None] - x), return_inverse=True)
        groups.append((cols, y, 0.0 - z, adx, inverse.reshape(nx, len(cols))))
    # no block holds a single point: numpy multiplies one row by another BLAS
    # routine, whose last bits differ from those of the many-row product
    step = max(2, _BLOCK_ENTRIES // max(1, freqs.size * len(scene.speakers)))
    for start in range(0, n - 1, step):
        stop = start + step if start + step < n - 1 else n
        iy, ix = np.divmod(np.arange(start, stop), nx)
        h = np.empty((freqs.size, ix.size, len(scene.speakers)), dtype=complex)
        for cols, y, dz, adx, inverse in groups:
            at = inverse[ix]  # the |dx| the block uses: a table of at most about 3 blocks
            used = np.zeros(adx.size, dtype=bool)
            used[at] = True
            table = _piston(scene, freqs, adx[used], (ys[iy[0]:iy[-1] + 1] - y)[:, None], dz)
            h[:, :, cols] = table[:, (iy - iy[0])[:, None], (np.cumsum(used) - 1)[at]]
        # one single-point zone per grid point: (F, n_points, 1, n_channels)
        m = (h @ filters)[:, :, None, :]  # NaN rows propagate
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


def _walk_tables(edges):
    """``_CODE_WALKS`` as tables by cell code and slot: (lo, hi, vertical, nxt, chord).

    Column ``w * 6 + j`` of a code's row is slot j of its walk w (walks
    < 2, slots < 6). A slot's token has the low and high corners ``lo`` and
    ``hi`` and the direction ``vertical`` of its edge in ``edges``; a corner
    token is its own low and high corner. ``nxt`` is the column of the slot
    that follows it in its walk, and ``chord`` marks a slot that starts a
    contour chord: it and the slot after it are edge crossings. A column past
    the end of its walk is corner 0, followed by itself, so its shoelace term
    ``x*y - x*y`` is exactly 0.
    """
    slots = max(len(walk) for walks in _CODE_WALKS.values() for walk in walks)
    shape = (max(_CODE_WALKS) + 1, 2 * slots)
    lo, hi, vertical = (np.zeros(shape, dtype=np.int8) for _ in range(3))
    nxt = np.broadcast_to(np.arange(2 * slots, dtype=np.int8), shape).copy()
    chord = np.zeros(shape, dtype=bool)
    for code, walks in _CODE_WALKS.items():
        for w, walk in enumerate(walks):
            for j, token in enumerate(walk):
                col, after, corner = w * slots + j, (j + 1) % len(walk), int(token[1])
                lo[code, col], hi[code, col], vertical[code, col] = edges.get(
                    token, (corner, corner, 0))
                nxt[code, col] = w * slots + after
                chord[code, col] = token in edges and walk[after] in edges
    return lo, hi, vertical, nxt, chord


_WALK_TABLES = _walk_tables(_EDGES)


def extract_contours(m: IpiMap, levels_db) -> list[ContourSet]:
    """Iso-level polylines at each of ``levels_db`` from the untruncated values, and their area.

    Returns one :class:`ContourSet` per level, in the order given. Marching
    squares with linear interpolation along cell edges; saddle cells are
    resolved by the side of the cell-center mean, so the result is
    deterministic. Chord segments from neighboring cells are chained into
    maximal polylines: open paths first, each from its smaller end key and
    in the order of those keys, then loops, each from its smallest key,
    which come back closed (first vertex repeated at the end). A level
    that is never crossed gives an empty set.
    """
    v = m.values_db
    nx, ny = m.nx, m.ny
    x0, y0, s = float(m.x0), float(m.y0), float(m.spacing)
    c0, c1, c2, c3 = v[:-1, :-1], v[:-1, 1:], v[1:, 1:], v[1:, :-1]
    # what no level changes, once per map: the cells with four finite corners,
    # the saddle center means, each cell's bottom-left corner by column and by
    # row, and the shoelace term of a cell inside the region
    finite = (np.isfinite(c0) & np.isfinite(c1) & np.isfinite(c2) & np.isfinite(c3)).ravel()
    with np.errstate(invalid="ignore", over="ignore"):
        center = ((((c0 + c1) + c2) + c3) / 4.0).ravel()
    cx, cy = x0 + np.arange(nx - 1) * s, y0 + np.arange(ny - 1) * s
    interior = _inside_terms(cx, cy, s)
    dx, dy = np.array(_CORNERS).T
    flat, corner_offsets = v.ravel(), dy * nx + dx  # a corner's flat index from corner 0's

    def walks(level):
        """The area at ``level`` and its chord ends' edge ids, x and y, in processing order."""
        above = (v >= level).view(np.uint8)
        # each cell's _CODE_WALKS key in row-major order, 0 with a non-finite corner
        codes = (above[:-1, :-1] | above[:-1, 1:] << 1 | above[1:, 1:] << 2
                 | above[1:, :-1] << 3).ravel()
        codes[((codes == 5) | (codes == 10)) & ~(center >= level)] += 16
        codes *= finite
        # the cells with a walk, in row-major order, and the ones among them that
        # the level crosses, one row of (walk, slot) vertices each
        nonzero = np.flatnonzero(codes)
        at = np.flatnonzero(codes[nonzero] != 15)
        cells = nonzero[at]
        lo, hi, vertical, nxt, chord = (table[codes[cells]] for table in _WALK_TABLES)
        iy, ix = np.divmod(cells, nx - 1)
        x = cx[ix, None] + (dx * s)[lo]
        y = cy[iy, None] + (dy * s)[lo]
        # an edge crossing starts at its low corner and moves ts along its edge;
        # two cells that share an edge vertex may differ in its last bit
        edge = lo != hi
        base = (iy * nx + ix)[:, None]
        a = flat[(base + corner_offsets[lo])[edge]]
        ts = (level - a) / (flat[(base + corner_offsets[hi])[edge]] - a) * s
        along_y = vertical[edge] == 1
        x[edge] += np.where(along_y, 0.0, ts)
        y[edge] += np.where(along_y, ts, 0.0)
        follow = nxt + nxt.shape[1] * np.arange(cells.size)[:, None]
        cross = (x * y.take(follow) - x.take(follow) * y).reshape(-1, 2, nxt.shape[1] // 2)
        acc = 0.0
        for j in range(cross.shape[2]):
            acc = acc + cross[:, :, j]
        walk_terms = np.abs(acc) / 2.0
        terms = interior[nonzero]  # each cell's first walk's shoelace term
        terms[at] = walk_terms[:, 0]
        # cumsum adds in order (np.sum pairs): row-major cells, then walks, the
        # second walk of a split saddle right after its first; the leading 0.0
        # is the empty sum, and as no term is -0.0, the 0.0 terms left out or
        # added move no bit
        split = codes[cells] >= 16
        terms = np.insert(terms, at[split] + 1, walk_terms[split, 1])
        area = float(np.cumsum(np.append(0.0, terms))[-1])
        # both ends of each chord in processing order: cell, walk, position, end
        cell, col = np.nonzero(chord)
        ends = np.repeat(cell, 2), np.column_stack([col, nxt[cell, col]]).ravel()
        end_lo, end_vertical = lo[ends], vertical[ends].astype(np.intp)
        # integer order is that of (vertical, ix + dx, iy + dy)
        ids = (end_vertical * (nx - 1) * ny + (ix[ends[0]] + dx[end_lo]) * (ny - end_vertical)
               + iy[ends[0]] + dy[end_lo])
        return area, ids, x[ends], y[ends]

    sets = []
    # a level's arrays are freed when walks returns, before its chords are chained
    for level in map(float, levels_db):
        area, ids, xs, ys = walks(level)
        sets.append(ContourSet(level, _chain(ids, xs, ys, level), area))
    return sets


def _inside_terms(cx, cy, s) -> np.ndarray:
    """The shoelace term of each cell's code-15 walk, in row-major cell order.

    The cells' bottom-left corners, ``cx`` by column and ``cy`` by row,
    broadcast, so every cell runs the expression that a crossing cell's walk
    runs on its corners. A corner's x depends only on its dx and its y only
    on its dy, so each of the four products x * y is formed once.
    """
    xy = {(dx, dy): (cx + dx * s) * (cy[:, None] + dy * s) for dx in (0, 1) for dy in (0, 1)}
    walk = [_CORNERS[int(token[1])] for token in _CODE_WALKS[15][0]]
    acc = 0.0
    for (dx1, dy1), (dx2, dy2) in zip(walk, walk[1:] + walk[:1]):
        acc = acc + (xy[dx1, dy2] - xy[dx2, dy1])
    return (np.abs(acc) / 2.0).ravel()


def _chain(ids, xs, ys, level: float) -> tuple[np.ndarray, ...]:
    """The polylines through chord ends with edge ids ``ids`` at (``xs``, ``ys``).

    Ends 2n and 2n + 1 are chord n's, in processing order; the first end
    to reach an edge vertex sets its coordinate.
    """
    if not ids.size:
        return ()
    # vertex j: the j-th smallest edge id, reached first at chord end
    # first[j] and last at last[j]; the stable sort keeps equal ids in chord order
    by_id = np.argsort(ids, kind="stable")
    new = np.ones(ids.size, dtype=bool)
    new[1:] = ids[by_id[1:]] != ids[by_id[:-1]]
    starts = np.flatnonzero(new)
    first, last = by_id[starts], by_id[np.append(starts[1:], ids.size) - 1]
    index = np.empty_like(by_id)
    index[by_id] = np.cumsum(new) - 1
    xy = np.column_stack([xs, ys])[first]
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
    return tuple(polylines)
