import collections
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import pszsim.cli
import pszsim.spatial_analysis
from pszsim.acoustics import response_matrix
from pszsim.cli import main
from pszsim.config import default_config_dict
from pszsim.filter_design import RenderingMode, program_channels, solve_stack, target_stack
from pszsim.metrics import ipi_ratios, min_db
from pszsim.scene import Scene, default_scene
from pszsim.spatial_analysis import (
    ContourSet,
    IpiMap,
    extract_contours,
    grid_shape,
    ipi_map,
)
from conftest import run_python
from test_golden import ABOVE_AVX2


def radial_map(resolution=0.02, half=1.0, peak=40.0, slope=25.0):
    """Synthetic cone peak_db - slope * r centered on the grid."""
    n = int(round(2 * half / resolution)) + 1
    xs = -half + np.arange(n) * resolution
    gx, gy = np.meshgrid(xs, xs)
    values = peak - slope * np.hypot(gx, gy)
    return IpiMap(
        frequency=1000.0,
        x0=-half,
        y0=-half,
        spacing=resolution,
        values_db=values,
    )


def polyline_is_closed(line):
    return np.array_equal(line[0], line[-1])


def shoelace(line):
    x, y = line[:, 0], line[:, 1]
    return 0.5 * abs(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


def test_contour_of_radial_field_is_a_circle():
    m = radial_map()
    level = 20.0
    expected_radius = (40.0 - level) / 25.0  # 0.8 m
    (cs,) = extract_contours(m, [level])
    assert len(cs.polylines) == 1
    line = cs.polylines[0]
    assert polyline_is_closed(line)
    radii = np.hypot(line[:, 0], line[:, 1])
    assert np.max(np.abs(radii - expected_radius)) < m.spacing


def test_enclosed_area_approximates_circle_area():
    m = radial_map()
    (cs,) = extract_contours(m, [20.0])
    area = cs.area_m2
    exact = np.pi * 0.8**2
    assert abs(area - exact) / exact < 0.05


def test_enclosed_area_equals_contour_shoelace_away_from_border():
    m = radial_map()
    (cs,) = extract_contours(m, [20.0])
    assert cs.area_m2 == pytest.approx(shoelace(cs.polylines[0]), rel=1e-9)


def test_area_non_increasing_in_level():
    m = radial_map()
    areas = [cs.area_m2 for cs in extract_contours(m, [10.0, 15.0, 20.0, 25.0, 30.0])]
    assert all(a >= b for a, b in zip(areas, areas[1:]))


def test_area_converges_with_resolution():
    areas = {}
    for res in (0.08, 0.04, 0.02):
        m = radial_map(resolution=res)
        areas[res] = extract_contours(m, [20.0])[0].area_m2
    step1 = abs(areas[0.04] - areas[0.08])
    step2 = abs(areas[0.02] - areas[0.04])
    assert step2 < step1


def test_constant_map_below_level_has_no_contours():
    m = IpiMap(1000.0, 0.0, 0.0, 0.1, np.full((5, 5), 3.0))
    (cs,) = extract_contours(m, [20.0])
    assert cs.polylines == ()
    assert cs.area_m2 == 0.0


def test_level_above_all_values_is_empty():
    m = radial_map()  # peak value 40
    (cs,) = extract_contours(m, [45.0])
    assert cs.polylines == ()
    assert cs.area_m2 == 0.0


def test_map_uniformly_above_level_covers_whole_region():
    m = IpiMap(1000.0, 0.0, 0.0, 0.25, np.full((5, 9), 35.0))
    area = extract_contours(m, [20.0])[0].area_m2
    assert area == pytest.approx(2.0 * 1.0, rel=1e-12)


def test_map_at_or_above_level_everywhere_has_exactly_the_cell_count_area():
    # far from the origin, a cell's shoelace term is a difference of products
    # of about 1e6 m^2 that cancel to 1e-4 m^2; an inside cell adds s * s
    values = np.random.default_rng(5).uniform(20.0, 30.0, size=(37, 53))
    values[::4, ::3] = 20.0  # corners on the level count as inside
    m = IpiMap(1000.0, 1234.56, -987.65, 0.01, values)
    (cs,) = extract_contours(m, [20.0])
    assert cs.polylines == ()
    assert type(cs.area_m2) is float
    assert cs.area_m2 == (m.nx - 1) * (m.ny - 1) * (0.01 * 0.01)


def test_saddle_resolution_follows_cell_center():
    # one cell whose diagonal corners sit above the level
    values = np.array([[30.0, 0.0], [0.0, 30.0]])
    m = IpiMap(1000.0, 0.0, 0.0, 1.0, values)
    # center mean 15: at level 10 the region is connected (one chord pair
    # forming a band), at level 20 it splits into two corner triangles
    connected, split = extract_contours(m, [10.0, 20.0])
    assert len(connected.polylines) == 2
    assert len(split.polylines) == 2
    assert connected.area_m2 > split.area_m2


def test_nan_cells_are_excluded():
    values = np.full((3, 3), 30.0)
    values[0, 0] = np.nan
    m = IpiMap(1000.0, 0.0, 0.0, 0.5, values)
    area = extract_contours(m, [20.0])[0].area_m2
    # three of four cells contribute
    assert area == pytest.approx(3 * 0.25, rel=1e-12)


def test_contour_set_holds_its_level_polylines_and_area_only():
    # nothing of the map it came from: sets from two maps with no crossing
    # compare and print alike
    assert [f.name for f in dataclasses.fields(ContourSet)] == ["level_db", "polylines", "area_m2"]
    (below,) = extract_contours(IpiMap(1000.0, 0.0, 0.0, 0.1, np.full((5, 5), 3.0)), [20.0])
    (other,) = extract_contours(IpiMap(500.0, 1.0, 0.0, 0.2, np.full((4, 6), 5.0)), [20.0])
    assert below == other == ContourSet(20.0, (), 0.0)
    assert repr(below) == repr(other) == "ContourSet(level_db=20.0, polylines=(), area_m2=0.0)"


def test_a_map_run_classifies_each_level_of_each_map_once(tmp_path, monkeypatch, capsys):
    # one call per map carries all its levels
    calls = collections.Counter()
    contours = pszsim.cli.extract_contours

    def counting_contours(m, levels):
        calls[m.frequency, tuple(levels)] += 1
        return contours(m, levels)

    monkeypatch.setattr(pszsim.cli, "extract_contours", counting_contours)
    cfg = default_config_dict()
    cfg["map"]["resolution_m"] = 0.1
    cfg["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["map", str(path)]) == 0
    assert calls == {(f, (20.0, 30.0)): 1 for f in (500.0, 1000.0, 2000.0)}


def test_a_map_run_computes_the_grid_geometry_once(tmp_path, monkeypatch, capsys):
    # three map frequencies, one response table: the 0.1 m grid is 11 x 21
    # points, its one block spans all 21 rows, and the 8 speakers, all at
    # y = z = 0, see 50 distinct |dx| where the 11 x 8 (column, speaker)
    # pairs would need 88
    shapes = []
    piston = pszsim.spatial_analysis._piston

    def counting_piston(*args):
        out = piston(*args)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(pszsim.spatial_analysis, "_piston", counting_piston)
    cfg = default_config_dict()
    cfg["map"]["resolution_m"] = 0.1
    cfg["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cfg["map"]["frequencies_hz"] == [500.0, 1000.0, 2000.0]
    assert main(["map", str(path)]) == 0
    assert shapes == [(3, 21, 50)]
    assert len(list((tmp_path / "out").glob("map_*.csv"))) == 3


def designed_filters(scene, frequency, mode=RenderingMode.MONO, beta=4e-4):
    """The (1, speakers, channels) filter stack of the nominal scene at one frequency."""
    h = response_matrix(scene, scene.control_points, [frequency])
    (filters,), _, _ = solve_stack(h, [target_stack(scene, h, mode)], [beta], [frequency])
    return filters


def test_ipi_map_high_at_design_ear():
    scene = default_scene()
    frequency = 500.0
    filters = designed_filters(scene, frequency)
    target, interferer = program_channels(scene, RenderingMode.MONO)
    # small patch centered on the zone A left ear (x=-0.584, y=1)
    (m,) = ipi_map(
        scene, filters, (-0.684, -0.484, 0.9, 1.1), 0.05, [frequency], target, interferer
    )
    ix = int(round((-0.584 - m.x0) / m.spacing))
    iy = int(round((1.0 - m.y0) / m.spacing))
    assert m.values_db[iy, ix] >= 20.0


def test_ipi_map_mirrored_region_with_swapped_programs():
    # grid nodes and speakers mirror exactly in floats (dyadic grid); the
    # filters carry rounding from the solve, so compare to a tight
    # tolerance rather than bit for bit
    scene = default_scene()
    frequency = 1000.0
    filters = designed_filters(scene, frequency)
    target, interferer = program_channels(scene, RenderingMode.MONO)
    (left,) = ipi_map(
        scene, filters, (-0.75, -0.25, 0.5, 1.5), 0.125, [frequency], target, interferer
    )
    (right,) = ipi_map(
        scene, filters, (0.25, 0.75, 0.5, 1.5), 0.125, [frequency], interferer, target
    )
    assert np.allclose(left.values_db, right.values_db[:, ::-1], rtol=0, atol=1e-9)


def _brute_point_ipi_db(row, target, interferer):
    """10 log10 of the IPI of one channel row, from literal nested sums."""
    def coherent(channels):
        s = 0 + 0j
        for i in channels:
            s = s + row[i]
        return abs(s) ** 2 / len(channels)

    def incoherent(channels):
        total = 0.0
        for i in channels:
            total = total + abs(row[i]) ** 2
        return total / len(channels)

    corr = coherent(target) / coherent(interferer)
    uncorr = incoherent(target) / incoherent(interferer)
    return 10.0 * math.log10(min(corr, uncorr))


@pytest.mark.parametrize("mode", [RenderingMode.MONO, RenderingMode.STEREO], ids=lambda m: m.value)
def test_ipi_map_matches_literal_nested_sums(mode):
    scene = default_scene()
    frequency = 1000.0
    filters = designed_filters(scene, frequency, mode=mode)
    target, interferer = program_channels(scene, mode)
    (m,) = ipi_map(
        scene, filters, (-0.75, -0.25, 0.75, 1.25), 0.125, [frequency], target, interferer
    )
    assert m.values_db.shape == (5, 5) and np.isfinite(m.values_db).all()
    for iy, y in enumerate(m.y_coords()):
        for ix, x in enumerate(m.x_coords()):
            row = (response_matrix(scene, [[x, y, 0.0]], frequency) @ filters[0])[0]
            want = _brute_point_ipi_db(row.tolist(), target, interferer)
            assert m.values_db[iy, ix] == pytest.approx(want, rel=1e-12)


def test_ipi_map_speaker_coincidence_marks_cell_invalid():
    scene = default_scene()
    frequency = 500.0
    filters = designed_filters(scene, frequency)
    target, interferer = program_channels(scene, RenderingMode.MONO)
    # speaker 0 sits at (-0.875, 0, 0), a node of this dyadic grid
    (m,) = ipi_map(
        scene, filters, (-1.0, -0.75, 0.0, 0.25), 0.125, [frequency], target, interferer
    )
    ix = int(round((-0.875 - m.x0) / m.spacing))
    assert np.isnan(m.values_db[0, ix])
    assert np.isfinite(m.values_db[2]).all()


def varied_scene():
    """The template with speakers off the line y = z = 0, in four (y, z) groups:
    speaker 1 sits at y = -0.0, a group apart from y = 0.0."""
    scene = default_scene()
    speakers = scene.speakers.copy()
    speakers[1, 1] = -0.0
    speakers[[2, 5], 1] = 0.03
    speakers[[3, 6], 2] = -0.02
    return dataclasses.replace(scene, speakers=speakers)


# (scene, region, resolution, frequencies, NaN cells per map)
ORACLE_CASES = {
    # the grid lands on speaker 0
    "on_a_speaker": (default_scene, (-1.0, -0.75, 0.0, 0.25), 0.125, [500.0], 1),
    # mirrored columns share their |dx| entries; 8 kHz takes the far J1 form
    "straddling_x_0": (default_scene, (-0.5, 0.5, 0.25, 1.75), 0.0625, [500.0, 8000.0], 0),
    # the grid lands on speaker 0 at y = 0.0 and speaker 1 at y = -0.0
    "four_speaker_groups": (varied_scene, (-1.0, 0.0, 0.0, 0.5), 0.125, [1000.0, 8000.0], 2),
    "two_columns": (default_scene, (-0.5, -0.49, 0.0, 1.0), 0.01, [2000.0], 0),
    # 10001 columns: no block holds a whole row
    "wider_than_a_block": (default_scene, (-0.5, 0.5, 1.0, 1.0001), 1e-4, [500.0], 0),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_ipi_map_values_are_min_db_of_the_grid_ipi_ratios(case):
    # the map's dB values are those of the grid points' own responses through
    # the one dB kernel, bit for bit, NaN cells included
    make_scene, region, resolution, frequencies, nan_cells = ORACLE_CASES[case]
    scene = make_scene()
    filters = np.concatenate([designed_filters(scene, f) for f in frequencies])
    target, interferer = program_channels(scene, RenderingMode.MONO)
    maps = ipi_map(scene, filters, region, resolution, frequencies, target, interferer)
    gx, gy = np.meshgrid(maps[0].x_coords(), maps[0].y_coords())
    points = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    rows = (response_matrix(scene, points, frequencies) @ filters)[:, :, None, :]
    _, want = min_db(*ipi_ratios(rows, (0,), target, interferer))
    for m, w in zip(maps, want, strict=True):
        assert np.isnan(w).sum() == nan_cells
        assert m.values_db.tobytes() == w.reshape(m.ny, m.nx).tobytes()


def test_ipi_map_values_are_min_db_of_the_grid_ipi_ratios_on_numpys_avx2_loops(tmp_path):
    found = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    disabled = [target for target in ABOVE_AVX2 if target in found]
    if not disabled:
        pytest.skip(f"numpy finds none of {', '.join(ABOVE_AVX2)} here: "
                    "the oracle already ran on the AVX2 loops")
    oracle = f"{__file__}::test_ipi_map_values_are_min_db_of_the_grid_ipi_ratios"
    done = run_python(["-m", "pytest", "-q", "-p", "no:cacheprovider", oracle], tmp_path,
                      NPY_DISABLE_CPU_FEATURES=" ".join(disabled))
    assert done.returncode == 0, done.stdout + done.stderr
    assert f"{len(ORACLE_CASES)} passed" in done.stdout


def test_ipi_map_evaluates_only_the_dx_a_block_uses(monkeypatch):
    # the 10001 x 2 grid has 26,036 distinct |dx| to the speakers, and no
    # block of 1,365 points holds a row: each row is 7 segments of 1,365
    # points and one of 446; a table of a block's row at all |dx| would be up
    # to 4.8 blocks, one at the |dx| the segment uses is 2 at most
    sizes = []
    piston = pszsim.spatial_analysis._piston

    def recording_piston(*args):
        out = piston(*args)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(pszsim.spatial_analysis, "_piston", recording_piston)
    frequencies = [500.0, 1000.0, 2000.0]
    scene = default_scene()
    filters = np.concatenate([designed_filters(scene, f) for f in frequencies])
    target, interferer = program_channels(scene, RenderingMode.MONO)
    ipi_map(scene, filters, (-0.5, 0.5, 1.0, 1.0001), 1e-4, frequencies, target, interferer)
    assert len(sizes) == 16
    assert max(sizes) <= 2 * 3 * 1365 * 8


def test_ipi_map_evaluates_each_row_once_at_each_of_its_dx(monkeypatch):
    # a budget of 130 points is 3 whole rows of the 41 x 81 grid: 27 blocks,
    # each row of the grid in one of them, at each distinct |dx| of the grid's
    # columns to the 8 speakers (all at y = z = 0), so F x ny x n_dx responses
    # in all; blocks of 130 points would share rows and evaluate them twice
    shapes = []
    piston = pszsim.spatial_analysis._piston

    def recording_piston(*args):
        out = piston(*args)
        shapes.append(out.shape)
        return out

    frequencies = [500.0, 4000.0]
    scene = default_scene()
    filters = np.concatenate([designed_filters(scene, f) for f in frequencies])
    target, interferer = program_channels(scene, RenderingMode.MONO)
    monkeypatch.setattr(pszsim.spatial_analysis, "_piston", recording_piston)
    monkeypatch.setattr(pszsim.spatial_analysis, "_BLOCK_ENTRIES", 130 * 2 * 8)
    (m, _) = ipi_map(scene, filters, (-1.0, 0.0, 0.0, 2.0), 0.025, frequencies,
                     target, interferer)
    n_dx = np.unique(np.abs(m.x_coords()[:, None] - scene.speakers[:, 0])).size
    assert (m.nx, m.ny, n_dx) == (41, 81, 109)
    assert shapes == [(2, 3, n_dx)] * 27
    assert sum(np.prod(shape) for shape in shapes) == 2 * 81 * n_dx


@pytest.mark.parametrize("points_per_block", [2, 7, 20, 40, 100, 123])
def test_ipi_map_block_edges_move_no_bits(monkeypatch, points_per_block):
    # the 0.025 m grid is 41 x 81 points and lands on speakers (NaN cells);
    # below a row (41 points) a block is a segment of one row: 2, 20 and 40
    # leave one point over in each row, which joins the segment before it, so
    # no block holds a single point; 100 and 123 points hold 2 and 3 whole
    # rows, and blocks of 2 rows leave one row over
    frequencies = [500.0, 4000.0]
    scene = default_scene()
    filters = np.concatenate([designed_filters(scene, f) for f in frequencies])
    target, interferer = program_channels(scene, RenderingMode.MONO)
    args = (scene, filters, (-1.0, 0.0, 0.0, 2.0), 0.025, frequencies, target, interferer)
    want = ipi_map(*args)
    assert all(np.isnan(m.values_db).any() for m in want)
    entries = len(frequencies) * len(scene.speakers)
    sizes = []
    kernel = pszsim.spatial_analysis.min_db

    def recording_min_db(corr, uncorr):
        sizes.append(corr.shape[1])
        return kernel(corr, uncorr)

    monkeypatch.setattr(pszsim.spatial_analysis, "min_db", recording_min_db)
    monkeypatch.setattr(pszsim.spatial_analysis, "_BLOCK_ENTRIES", points_per_block * entries)
    got = ipi_map(*args)
    assert sum(sizes) == 41 * 81 and min(sizes) >= 2
    assert max(sizes) <= points_per_block + 1
    for g, w in zip(got, want, strict=True):
        assert g.frequency == w.frequency
        assert np.array_equal(g.values_db.view(np.uint64), w.values_db.view(np.uint64))


def test_ipi_map_memory_is_bounded_by_its_maps_not_by_the_grid():
    # 201 x 401 points, three maps: the values returned are 1.9 MB, and what
    # ipi_map holds besides them must not grow with the grid
    frequencies = [500.0, 1000.0, 2000.0]
    scene = default_scene()
    filters = np.concatenate([designed_filters(scene, f) for f in frequencies])
    target, interferer = program_channels(scene, RenderingMode.MONO)
    tracemalloc.start()
    try:
        maps = ipi_map(scene, filters, (-1.0, 0.0, 0.0, 2.0), 0.005, frequencies,
                       target, interferer)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    values = sum(m.values_db.nbytes for m in maps)
    assert values == 3 * 201 * 401 * 8
    assert peak <= 3 * values + 4 * 2**20


def test_ipi_map_block_budget_above_the_grid_holds_no_more_than_the_grid(monkeypatch):
    # a budget of 100,000 points on the 41 x 81 grid is one block of its 81
    # rows, which must take what a budget of exactly the grid's 3,321 points
    # takes, not an index for 2,439 rows
    frequencies = [500.0, 4000.0]
    scene = default_scene()
    filters = np.concatenate([designed_filters(scene, f) for f in frequencies])
    target, interferer = program_channels(scene, RenderingMode.MONO)
    peaks = []
    for points in (3321, 100_000):
        entries = points * len(frequencies) * len(scene.speakers)
        monkeypatch.setattr(pszsim.spatial_analysis, "_BLOCK_ENTRIES", entries)
        tracemalloc.start()
        try:
            ipi_map(scene, filters, (-1.0, 0.0, 0.0, 2.0), 0.025, frequencies, target, interferer)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0]


def test_contours_at_all_levels_of_a_map_peak_below_its_one_level_pass(map_fine_run):
    # one call per map_fine map at its three levels; the one-level pass that
    # it replaced peaked at 3.27 MB for a single level
    _, maps = map_fine_run
    for m in maps:
        tracemalloc.start()
        try:
            sets = extract_contours(m, [10.0, 20.0, 30.0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sets) == 3 and any(cs.polylines for cs in sets)
        assert peak < 2.5e6


def test_ipi_map_validates_inputs():
    scene = default_scene()
    filters = designed_filters(scene, 500.0)
    target, interferer = program_channels(scene, RenderingMode.MONO)
    for resolution in (0.0, -0.1):
        with pytest.raises(ValueError, match=f"^resolution must be positive, got {resolution}$"):
            grid_shape((-1.0, 0.0, 0.0, 1.0), resolution)
    with pytest.raises(ValueError, match="multiple of resolution"):
        ipi_map(scene, filters, (-1.0, 0.0, 0.0, 0.95), 0.1, [500.0], target, interferer)
    with pytest.raises(ValueError, match="overlap"):
        ipi_map(scene, filters, (-1.0, 0.0, 0.0, 1.0), 0.1, [500.0], (0,), (0, 1))
    # a zip of the two would drop the maps of the unmatched frequencies
    with pytest.raises(ValueError, match="1 filter sets for 2 frequencies"):
        ipi_map(scene, filters, (-1.0, 0.0, 0.0, 1.0), 0.1, [500.0, 1000.0], target, interferer)
    with pytest.raises(ValueError, match="positive, got 0.0"):
        ipi_map(scene, filters, (-1.0, 0.0, 0.0, 1.0), 0.1, [0.0], target, interferer)
    for bad in ("nan", "inf"):
        with pytest.raises(ValueError, match=f"^frequency must be finite and positive, got {bad}$"):
            ipi_map(scene, filters, (-1.0, 0.0, 0.0, 1.0), 0.1, [float(bad)], target, interferer)
    # an extent that rounds to no step: a 1 x 1 grid would leave its one value unwritten
    for region, axis in [((-0.5, -0.4999999, 1.0, 1.0000001), "x"),
                         ((-1.0, 0.0, 1.0, 1.0000001), "y")]:
        message = f"^region {axis} extent 1e-07 is below the resolution 1.0$"
        with pytest.raises(ValueError, match=message):
            ipi_map(scene, filters, region, 1.0, [500.0], target, interferer)


def test_contour_vertices_lie_on_cell_edges():
    m = radial_map(resolution=0.1)
    (cs,) = extract_contours(m, [20.0])
    for line in cs.polylines:
        for x, y in line:
            on_x = abs((x - m.x0) / m.spacing - round((x - m.x0) / m.spacing)) < 1e-9
            on_y = abs((y - m.y0) / m.spacing - round((y - m.y0) / m.spacing)) < 1e-9
            assert on_x or on_y


@pytest.mark.parametrize("wrap", [np.asarray, np.ma.asarray, memoryview],
                         ids=["ndarray", "masked", "memoryview"])
@pytest.mark.parametrize("holder", ["scene", "ipi_map", "contours"])
def test_frozen_arrays_are_read_only_copies(holder, wrap):
    # a masked array or a memoryview of the caller's array is a view of it, and is copied too
    owned = np.arange(6.0).reshape(2, 3)
    given = wrap(owned)
    if holder == "scene":
        stored = Scene(given, owned + 5.0, (0,), (1,), (0,), (1,), (0, 1)).speakers
    elif holder == "ipi_map":
        stored = IpiMap(1000.0, 0.0, 0.0, 0.1, given).values_db
    else:
        (stored,) = ContourSet(20.0, (given,), 0.0).polylines
    assert type(stored) is np.ndarray and np.array_equal(stored, owned)
    assert not np.shares_memory(stored, owned)
    assert not stored.flags.writeable and owned.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        stored[0, 0] = 1.0


def test_frozen_holders_keep_their_shape_errors():
    with pytest.raises(ValueError, match=r"speakers must be an \(n, 3\) array, got shape \(2, 2\)"):
        Scene(np.zeros((2, 2)), np.ones((1, 3)), (0,), (), (), (), ())
    with pytest.raises(ValueError, match=r"values_db must be a 2-D array, got shape \(6,\)"):
        IpiMap(1000.0, 0.0, 0.0, 0.1, np.zeros(6))


# The per-cell marching squares walk that the numpy classification replaced,
# copied as it stood, kept as the reference that contours and area must match
# bit for bit: the same polylines in the same order and direction, and the
# same area.
ORACLE_WALKS = {
    0: [],
    1: [("c0", "e0", "e3")],
    2: [("e0", "c1", "e1")],
    3: [("c0", "c1", "e1", "e3")],
    4: [("e1", "c2", "e2")],
    6: [("e0", "c1", "c2", "e2")],
    7: [("c0", "c1", "c2", "e2", "e3")],
    8: [("e2", "c3", "e3")],
    9: [("c0", "e0", "e2", "c3")],
    11: [("c0", "c1", "e1", "e2", "c3")],
    12: [("e1", "c2", "c3", "e3")],
    13: [("c0", "e0", "e1", "c2", "c3")],
    14: [("e0", "c1", "c2", "c3", "e3")],
    15: [("c0", "c1", "c2", "c3")],
}
ORACLE_SADDLE = {
    (5, True): [("c0", "e0", "e1", "c2", "e2", "e3")],
    (5, False): [("c0", "e0", "e3"), ("e1", "c2", "e2")],
    (10, True): [("e0", "c1", "e1", "e2", "c3", "e3")],
    (10, False): [("e0", "c1", "e1"), ("e2", "c3", "e3")],
}
ORACLE_EDGE_CORNERS = {"e0": (0, 1), "e1": (1, 2), "e2": (3, 2), "e3": (0, 3)}


def oracle_edge_key(token, ix, iy):
    if token == "e0":
        return ("h", ix, iy)
    if token == "e2":
        return ("h", ix, iy + 1)
    if token == "e3":
        return ("v", ix, iy)
    return ("v", ix + 1, iy)  # e1


def oracle_cell_geometry(m, level, saddles=None):
    """Yield (ix, iy, corner values, walks) for every contributing cell;
    count each saddle resolution met in ``saddles``."""
    v = m.values_db
    for iy in range(m.ny - 1):
        for ix in range(m.nx - 1):
            corners = (
                v[iy, ix],
                v[iy, ix + 1],
                v[iy + 1, ix + 1],
                v[iy + 1, ix],
            )
            if not all(math.isfinite(c) for c in corners):
                continue
            mask = 0
            for bit, val in enumerate(corners):
                if val >= level:
                    mask |= 1 << bit
            if mask == 0:
                continue
            if mask in (5, 10):
                center_inside = sum(corners) / 4.0 >= level
                walks = ORACLE_SADDLE[(mask, center_inside)]
                if saddles is not None:
                    saddles[mask, center_inside] += 1
            else:
                walks = ORACLE_WALKS[mask]
            yield ix, iy, corners, walks


def oracle_vertex_xy(token, ix, iy, corners, level, m):
    s = m.spacing
    cx = m.x0 + ix * s
    cy = m.y0 + iy * s
    if token[0] == "c":
        corner = int(token[1])
        dx = s if corner in (1, 2) else 0.0
        dy = s if corner in (2, 3) else 0.0
        return (cx + dx, cy + dy)
    lo, hi = ORACLE_EDGE_CORNERS[token]
    t = (level - corners[lo]) / (corners[hi] - corners[lo])
    if token in ("e0", "e2"):
        return (cx + t * s, cy + (s if token == "e2" else 0.0))
    return (cx + (s if token == "e1" else 0.0), cy + t * s)


def oracle_contours(m, level_db, saddles=None):
    level = float(level_db)
    coords = {}
    adjacency = collections.defaultdict(list)
    for ix, iy, corners, walks in oracle_cell_geometry(m, level, saddles):
        for walk in walks:
            n = len(walk)
            for i in range(n):
                a, b = walk[i], walk[(i + 1) % n]
                if a[0] == "e" and b[0] == "e":
                    ka = oracle_edge_key(a, ix, iy)
                    kb = oracle_edge_key(b, ix, iy)
                    coords.setdefault(ka, oracle_vertex_xy(a, ix, iy, corners, level, m))
                    coords.setdefault(kb, oracle_vertex_xy(b, ix, iy, corners, level, m))
                    adjacency[ka].append(kb)
                    adjacency[kb].append(ka)

    used = set()

    def walk_from(start):
        path = [start]
        current = start
        while True:
            step = None
            for neighbor in adjacency[current]:
                seg = (current, neighbor) if current <= neighbor else (neighbor, current)
                if seg not in used:
                    used.add(seg)
                    step = neighbor
                    break
            if step is None:
                return path
            path.append(step)
            current = step

    polylines = []
    endpoints = sorted(k for k, nbrs in adjacency.items() if len(nbrs) == 1)
    for start in endpoints:
        if any(
            ((start, n) if start <= n else (n, start)) not in used
            for n in adjacency[start]
        ):
            path = walk_from(start)
            polylines.append(np.array([coords[k] for k in path]))
    for start in sorted(adjacency):  # remaining segments form loops
        if any(
            ((start, n) if start <= n else (n, start)) not in used
            for n in adjacency[start]
        ):
            path = walk_from(start)
            polylines.append(np.array([coords[k] for k in path]))
    return polylines


def oracle_area(m, level_db):
    """Each cell inside the region (all four corners at or above the level)
    counts s * s; the shoelace terms of the crossed cells' walks are summed
    exactly."""
    level = float(level_db)
    inside, terms = 0, []
    for ix, iy, corners, walks in oracle_cell_geometry(m, level):
        if all(c >= level for c in corners):
            inside += 1
            continue
        for walk in walks:
            pts = [oracle_vertex_xy(t, ix, iy, corners, level, m) for t in walk]
            acc = 0.0
            n = len(pts)
            for i in range(n):
                x1, y1 = pts[i]
                x2, y2 = pts[(i + 1) % n]
                acc += x1 * y2 - x2 * y1
            terms.append(abs(acc) / 2.0)
    return inside * (m.spacing * m.spacing) + math.fsum(terms)


def assert_matches_oracle(m, levels, saddles=None):
    """Contours and area of ``m`` at each of ``levels``, from one call, equal the
    oracle's level by level, bit for bit; returns the contour sets."""
    sets = extract_contours(m, levels)
    assert [cs.level_db for cs in sets] == [float(level) for level in levels]
    for cs, level in zip(sets, levels):
        want = oracle_contours(m, level, saddles)
        assert len(cs.polylines) == len(want)
        for got, line in zip(cs.polylines, want):
            # bytes, so the sign of a zero coordinate counts too
            assert got.shape == line.shape and got.tobytes() == line.tobytes()
        area = cs.area_m2
        assert type(area) is float
        assert area == oracle_area(m, level)
    return sets


def grid_map(values, x0=-0.3, y0=-0.7, spacing=0.1):
    return IpiMap(1000.0, x0, y0, spacing, values)


def random_maps(seed):
    """Random maps with NaN and infinite corners; the one-cell-wide grids put
    chord ends on the first and last edge ids of both edge kinds."""
    rng = np.random.default_rng(seed)
    for shape in ((23, 31), (2, 31), (23, 2), (2, 2)):
        values = rng.normal(20.0, 8.0, size=shape)
        values[rng.random(values.shape) < 0.05] = np.nan
        values[rng.random(values.shape) < 0.01] = np.inf
        values[rng.random(values.shape) < 0.01] = -np.inf
        yield grid_map(values)


@pytest.mark.parametrize("seed", range(6))
def test_random_maps_with_nonfinite_corners_match_the_cell_walk(seed):
    for m in random_maps(seed):
        assert_matches_oracle(m, [12.5, 20.0, 27.0])


@pytest.mark.parametrize("seed", range(3))
def test_unsorted_repeated_and_out_of_range_levels_match_the_cell_walk(seed):
    # each level in the order given, a repeated one each time, and levels
    # above and below every value, which cross no cell
    for m in random_maps(seed):
        finite = m.values_db[np.isfinite(m.values_db)]
        high, low = finite.max() + 1.0, finite.min() - 1.0
        sets = assert_matches_oracle(m, [27.0, 12.5, high, 20.0, 12.5, low, 27.0])
        assert sets[2].polylines == sets[5].polylines == () and sets[2].area_m2 == 0.0


def test_a_vertex_with_over_two_chords_raises_instead_of_looping(monkeypatch):
    # edge ids taken from each edge's high corner no longer name the edge a
    # neighbor shares; on this map a vertex then gets more than two chords,
    # and chaining must fail rather than walk forever
    high_corner = {k: (hi, lo, vertical)
                   for k, (lo, hi, vertical) in pszsim.spatial_analysis._EDGES.items()}
    monkeypatch.setattr(pszsim.spatial_analysis, "_WALK_TABLES",
                        pszsim.spatial_analysis._walk_tables(high_corner))
    m = next(random_maps(4))
    with pytest.raises(RuntimeError, match="^contour at 27.0 dB does not close"):
        extract_contours(m, [27.0])


def test_values_equal_to_the_level_match_the_cell_walk():
    # integers around the level: many corners, and some saddle center means,
    # sit exactly on it
    values = np.random.default_rng(7).integers(18, 23, size=(19, 27)).astype(float)
    m = grid_map(values)
    assert np.count_nonzero(values == 20.0) > 50
    saddles = collections.Counter()
    assert_matches_oracle(m, [19.0, 20.0, 21.0], saddles)
    assert saddles[5, True] and saddles[10, True]


def test_both_saddle_resolutions_match_the_cell_walk():
    # a checkerboard: every cell is a saddle, its center mean falls on
    # either side of the level as the noise has it
    iy, ix = np.indices((15, 21))
    noise = np.random.default_rng(3).uniform(-4.0, 4.0, size=iy.shape)
    values = 20.0 + 10.0 * (-1.0) ** (ix + iy) + noise
    m = grid_map(values)
    saddles = collections.Counter()
    assert_matches_oracle(m, [19.0, 20.0, 21.0], saddles)
    assert sorted(saddles) == [(5, False), (5, True), (10, False), (10, True)]


def test_region_touching_the_border_matches_the_cell_walk():
    # a cone centered near the right edge: its superlevel set runs off the
    # map, so the contours are open polylines that end on the border
    xs = -0.3 + np.arange(31) * 0.1
    ys = -0.7 + np.arange(23) * 0.1
    gx, gy = np.meshgrid(xs, ys)
    m = grid_map(40.0 - 25.0 * np.hypot(gx - 2.6, gy - 0.4))
    for cs in assert_matches_oracle(m, [10.0, 20.0, 30.0]):
        assert cs.polylines and not any(polyline_is_closed(line) for line in cs.polylines)


def test_map_fine_maps_match_the_cell_walk(map_fine_run):
    _, maps = map_fine_run
    assert [m.frequency for m in maps] == [500.0, 1000.0, 2000.0]
    for m in maps:
        assert_matches_oracle(m, [10.0, 20.0, 30.0])
