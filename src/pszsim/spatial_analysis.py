"""Spatial isolation maps, iso-level contours and enclosed area.

A planar grid of single-point IPI values shows where in the sound field a
listener would still enjoy a given isolation level. Contours at chosen
levels (marching squares with linear interpolation) outline those
regions, and the area they enclose is a scalar robustness proxy: the
larger the area, the more a listener can move before isolation drops
below the level.

Contours and area share one table of per-cell polygon walks, so the area
is exactly the shoelace area of the polygonized superlevel region and the
two views can never disagree. Cells with any non-finite corner (grid
point on a speaker, or an unbounded ratio) are excluded from both. Both
classify the cells of a level in one numpy pass; only the chaining of
contour chords into polylines runs in Python. An edge vertex belongs to at
most two finite cells, each giving it one chord, so the chords form
disjoint paths and cycles, and chaining walks each of them once.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .acoustics import response_matrix
from .metrics import ipi_ratios
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
    """Iso-level polylines of one map at one level.

    Each polyline is an (n, 2) array of (x, y) vertices in meters lying
    on grid cell edges. A polyline whose first and last vertices are
    identical is closed.
    """

    level_db: float
    polylines: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "polylines", tuple(_frozen(line, float) for line in self.polylines)
        )


MAX_POINTS = np.iinfo(np.intp).max  # the most points a numpy array can index


def grid_shape(region, resolution: float) -> tuple[int, int]:
    """(nx, ny) of the grid covering ``region`` = (x_min, x_max, y_min, y_max)
    at ``resolution``; ValueError unless both extents are positive integer multiples
    of a positive resolution (to 1e-6 of a step) and numpy can index the points."""
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
        counts.append(int(round(steps)) + 1)
    if counts[0] * counts[1] > MAX_POINTS:
        raise ValueError(f"{float(counts[0]) * counts[1]:.3g} grid points, too many to index")
    return counts[0], counts[1]


def ipi_map(
    scene: Scene,
    C: np.ndarray,
    region,
    resolution: float,
    frequency: float,
    target_channels,
    interferer_channels,
) -> IpiMap:
    """Evaluate single-point IPI on a grid in the z = 0 plane.

    Parameters
    ----------
    region : (x_min, x_max, y_min, y_max)
        Rectangle in meters. Both extents must be integer multiples of
        ``resolution`` so the grid covers the region exactly.
    C : (speakers, channels) array
        Filters designed at ``frequency``.
    target_channels, interferer_channels
        Disjoint channel index sets of the designed system.

    At each grid point the 1 x L transfer row is formed and multiplied by
    C; the resulting channel row is a one-point zone whose IPI is
    :func:`~pszsim.metrics.ipi_ratios`, with its channel checks. A grid
    point exactly on a speaker yields NaN for that cell instead of failing
    the whole map.
    """
    nx, ny = grid_shape(region, resolution)
    x_min, _, y_min, _ = (float(v) for v in region)

    xs = x_min + np.arange(nx) * resolution
    ys = y_min + np.arange(ny) * resolution
    gx, gy = np.meshgrid(xs, ys)  # (ny, nx), x varies along axis 1
    points = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])

    rows = response_matrix(scene, points, frequency, on_coincident="nan")
    # one single-point zone per grid point: (n_points, 1, n_channels)
    m = (rows @ C)[:, None, :]  # NaN rows propagate
    corr, uncorr = ipi_ratios(m, (0,), target_channels, interferer_channels)
    with np.errstate(divide="ignore"):
        values_db = 10.0 * np.log10(np.minimum(corr, uncorr))

    return IpiMap(
        frequency=float(frequency),
        x0=x_min,
        y0=y_min,
        spacing=float(resolution),
        values_db=values_db.reshape(ny, nx),
    )


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

# Edge endpoints as corner indices (low, high).
_EDGE_CORNERS = {"e0": (0, 1), "e1": (1, 2), "e2": (3, 2), "e3": (0, 3)}
# Edge token -> (kind, dx, dy): edge e of cell (ix, iy) has the global key
# (kind, ix + dx, iy + dy), the key its neighbor gives the same edge.
_EDGE_KEYS = {"e0": ("h", 0, 0), "e1": ("v", 1, 0), "e2": ("h", 0, 1), "e3": ("v", 0, 0)}

# The contour chords of each code: cyclically consecutive crossing vertices
# of its walks, in walk order.
_CODE_CHORDS = {
    code: [
        (a, b)
        for walk in walks
        for a, b in zip(walk, walk[1:] + walk[:1])
        if a[0] == "e" and b[0] == "e"
    ]
    for code, walks in _CODE_WALKS.items()
}


def _classify(m: IpiMap, level: float):
    """(codes, vertex) of the grid cells at ``level``.

    ``codes`` holds the ``_CODE_WALKS`` key of every cell in row-major
    order, 0 for a cell with a non-finite corner. ``vertex(token, cells)``
    gives the (x, y) arrays of one walk vertex of the cells at those flat
    indices. It evaluates one floating-point expression per token, so the
    two cells that share an edge vertex may differ in its last bit.
    """
    v = m.values_db
    corners = [c.ravel() for c in (v[:-1, :-1], v[:-1, 1:], v[1:, 1:], v[1:, :-1])]
    c0, c1, c2, c3 = corners
    finite = np.isfinite(c0) & np.isfinite(c1) & np.isfinite(c2) & np.isfinite(c3)
    mask = sum((c >= level).astype(np.int64) << bit for bit, c in enumerate(corners))
    with np.errstate(invalid="ignore", over="ignore"):
        center_inside = (((c0 + c1) + c2) + c3) / 4.0 >= level
    split_saddle = ((mask == 5) | (mask == 10)) & ~center_inside
    codes = np.where(finite, mask + 16 * split_saddle, 0)
    s = m.spacing

    def vertex(token: str, cells: np.ndarray):
        iy, ix = np.divmod(cells, m.nx - 1)
        cx = m.x0 + ix * s
        cy = m.y0 + iy * s
        if token[0] == "c":
            corner = int(token[1])
            return cx + (s if corner in (1, 2) else 0.0), cy + (s if corner in (2, 3) else 0.0)
        lo, hi = (corners[k][cells] for k in _EDGE_CORNERS[token])
        ts = (level - lo) / (hi - lo) * s
        if token in ("e0", "e2"):
            return cx + ts, cy + (s if token == "e2" else 0.0)
        return cx + (s if token == "e1" else 0.0), cy + ts

    return codes, vertex


def extract_contours(m: IpiMap, level_db: float) -> ContourSet:
    """Iso-level polylines at ``level_db`` from the untruncated values.

    Marching squares with linear interpolation along cell edges; saddle
    cells are resolved by the side of the cell-center mean, so the result
    is deterministic. Chord segments from neighboring cells are chained
    into maximal polylines: open paths first, each from its smaller end
    key and in the order of those keys, then loops, each from its smallest
    key, which come back closed (first vertex repeated at the end). An
    empty set is returned when the level is never crossed.
    """
    level = float(level_db)
    codes, vertex = _classify(m, level)
    cells = np.flatnonzero((codes != 0) & (codes != 15))  # row-major
    # every edge of every crossed cell; a cell reads only its crossed edges
    with np.errstate(divide="ignore", invalid="ignore"):
        edge_xy = {t: [a.tolist() for a in vertex(t, cells)] for t in _EDGE_KEYS}
    coords: dict = {}
    adjacency = defaultdict(list)

    for n, (cell, code) in enumerate(zip(cells.tolist(), codes[cells].tolist())):
        iy, ix = divmod(cell, m.nx - 1)
        for a, b in _CODE_CHORDS[code]:
            ka, kb = [(kind, ix + dx, iy + dy) for kind, dx, dy in (_EDGE_KEYS[a], _EDGE_KEYS[b])]
            # the first cell to reach a shared edge vertex sets its coordinate
            coords.setdefault(ka, (edge_xy[a][0][n], edge_xy[a][1][n]))
            coords.setdefault(kb, (edge_xy[b][0][n], edge_xy[b][1][n]))
            adjacency[ka].append(kb)
            adjacency[kb].append(ka)

    def chain(start):
        """The path from the end ``start``, or the cycle from ``start`` back to it."""
        path = [start, adjacency[start][0]]
        while path[-1] != start and len(adjacency[path[-1]]) == 2:
            a, b = adjacency[path[-1]]
            path.append(b if a == path[-2] else a)
        return path

    polylines = []
    chained: set = set()
    ends = sorted(k for k, nbrs in adjacency.items() if len(nbrs) == 1)
    # open paths first; the vertices left after them lie on cycles
    for start in ends + sorted(adjacency):
        if start not in chained:
            path = chain(start)
            chained.update(path)
            polylines.append(np.array([coords[k] for k in path]))

    return ContourSet(level_db=level, polylines=tuple(polylines))


def enclosed_area(contours: ContourSet, m: IpiMap) -> float:
    """Area in m^2 of the region where the map is at or above the level.

    Interior cells count fully, boundary cells fractionally through the
    same interpolated polygon walks that produce the contour chords, so
    the total equals the shoelace area of the closed contours whenever
    the region stays clear of the map border. Cells with non-finite
    corners contribute nothing.
    """
    codes, vertex = _classify(m, float(contours.level_db))
    # one shoelace term per (cell, walk); a cell has at most two walks
    terms = np.zeros((codes.size, 2))
    for code in np.unique(codes).tolist():
        cells = np.flatnonzero(codes == code)
        for w, walk in enumerate(_CODE_WALKS[code]):
            pts = [vertex(t, cells) for t in walk]
            acc = 0.0
            for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]):
                acc = acc + (x1 * y2 - x2 * y1)
            terms[cells, w] = np.abs(acc) / 2.0
    # cumsum adds in order (np.sum pairs): row-major cells, then walks;
    # the leading 0.0 is the empty sum
    return float(np.cumsum(np.append(0.0, terms))[-1])
