import math

import numpy as np
import pytest

from pszsim.filter_design import RenderingMode, build_target_matrix, pressure_matching, program_channels
from pszsim.acoustics import TransferMatrix, response_matrix, transfer_matrix
from pszsim.scene import Scene, default_scene
from pszsim.spatial_analysis import (
    ContourSet,
    IpiMap,
    enclosed_area,
    extract_contours,
    ipi_map,
)


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
        nx=n,
        ny=n,
        values_db=values,
        cap_db=peak,
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
    cs = extract_contours(m, level)
    assert len(cs.polylines) == 1
    line = cs.polylines[0]
    assert polyline_is_closed(line)
    radii = np.hypot(line[:, 0], line[:, 1])
    assert np.max(np.abs(radii - expected_radius)) < m.spacing


def test_enclosed_area_approximates_circle_area():
    m = radial_map()
    cs = extract_contours(m, 20.0)
    area = enclosed_area(cs, m)
    exact = np.pi * 0.8**2
    assert abs(area - exact) / exact < 0.05


def test_enclosed_area_equals_contour_shoelace_away_from_border():
    m = radial_map()
    cs = extract_contours(m, 20.0)
    assert enclosed_area(cs, m) == pytest.approx(shoelace(cs.polylines[0]), rel=1e-9)


def test_area_non_increasing_in_level():
    m = radial_map()
    areas = [enclosed_area(extract_contours(m, lv), m) for lv in (10.0, 15.0, 20.0, 25.0, 30.0)]
    assert all(a >= b for a, b in zip(areas, areas[1:]))


def test_area_converges_with_resolution():
    areas = {}
    for res in (0.08, 0.04, 0.02):
        m = radial_map(resolution=res)
        areas[res] = enclosed_area(extract_contours(m, 20.0), m)
    step1 = abs(areas[0.04] - areas[0.08])
    step2 = abs(areas[0.02] - areas[0.04])
    assert step2 < step1


def test_constant_map_below_level_has_no_contours():
    m = IpiMap(1000.0, 0.0, 0.0, 0.1, 5, 5, np.full((5, 5), 3.0), cap_db=40.0)
    cs = extract_contours(m, 20.0)
    assert cs.polylines == ()
    assert enclosed_area(cs, m) == 0.0


def test_level_above_all_values_is_empty():
    m = radial_map()  # peak value 40
    cs = extract_contours(m, 45.0)
    assert cs.polylines == ()
    assert enclosed_area(cs, m) == 0.0


def test_map_uniformly_above_level_covers_whole_region():
    m = IpiMap(1000.0, 0.0, 0.0, 0.25, 9, 5, np.full((5, 9), 35.0), cap_db=40.0)
    area = enclosed_area(extract_contours(m, 20.0), m)
    assert area == pytest.approx(2.0 * 1.0, rel=1e-12)


def test_saddle_resolution_follows_cell_center():
    # one cell whose diagonal corners sit above the level
    values = np.array([[30.0, 0.0], [0.0, 30.0]])
    m = IpiMap(1000.0, 0.0, 0.0, 1.0, 2, 2, values, cap_db=40.0)
    # center mean 15: at level 10 the region is connected (one chord pair
    # forming a band), at level 20 it splits into two corner triangles
    connected = extract_contours(m, 10.0)
    split = extract_contours(m, 20.0)
    assert len(connected.polylines) == 2
    assert len(split.polylines) == 2
    assert enclosed_area(connected, m) > enclosed_area(split, m)


def test_nan_cells_are_excluded():
    values = np.full((3, 3), 30.0)
    values[0, 0] = np.nan
    m = IpiMap(1000.0, 0.0, 0.0, 0.5, 3, 3, values, cap_db=40.0)
    area = enclosed_area(extract_contours(m, 20.0), m)
    # three of four cells contribute
    assert area == pytest.approx(3 * 0.25, rel=1e-12)


def test_capped_values_truncate_only_export():
    values = np.array([[10.0, 50.0], [39.0, 41.0]])
    m = IpiMap(1000.0, 0.0, 0.0, 1.0, 2, 2, values, cap_db=40.0)
    capped = m.capped_values()
    assert capped.max() == 40.0
    assert m.values_db[0, 1] == 50.0  # raw data untouched
    # a contour between cap and raw max still exists
    assert len(extract_contours(m, 45.0).polylines) == 1


def designed_filters(scene, frequency, mode=RenderingMode.MONO, beta=4e-4):
    h = transfer_matrix(scene, scene.control_points, frequency)
    m_t = build_target_matrix(scene, h, mode)
    return pressure_matching(h, m_t, beta)


def test_ipi_map_high_at_design_ear():
    scene = default_scene()
    frequency = 500.0
    filters = designed_filters(scene, frequency)
    target, interferer = program_channels(scene, RenderingMode.MONO)
    # small patch centered on the zone A left ear (x=-0.584, y=1)
    m = ipi_map(
        scene, filters, (-0.684, -0.484, 0.9, 1.1), 0.05, frequency, target, interferer
    )
    ix = int(round((-0.584 - m.x0) / m.spacing))
    iy = int(round((1.0 - m.y0) / m.spacing))
    assert m.values_db[iy, ix] >= 20.0


def test_ipi_map_cap_applies_to_export():
    scene = default_scene()
    frequency = 500.0
    filters = designed_filters(scene, frequency)
    target, interferer = program_channels(scene, RenderingMode.MONO)
    m = ipi_map(
        scene, filters, (-0.75, -0.25, 0.75, 1.25), 0.125, frequency, target,
        interferer, cap_db=40.0,
    )
    assert np.nanmax(m.capped_values()) <= 40.0


def test_ipi_map_mirrored_region_with_swapped_programs():
    # grid nodes and speakers mirror exactly in floats (dyadic grid); the
    # filters carry rounding from the solve, so compare to a tight
    # tolerance rather than bit for bit
    scene = default_scene()
    frequency = 1000.0
    filters = designed_filters(scene, frequency)
    target, interferer = program_channels(scene, RenderingMode.MONO)
    left = ipi_map(
        scene, filters, (-0.75, -0.25, 0.5, 1.5), 0.125, frequency, target, interferer
    )
    right = ipi_map(
        scene, filters, (0.25, 0.75, 0.5, 1.5), 0.125, frequency, interferer, target
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
    m = ipi_map(
        scene, filters, (-0.75, -0.25, 0.75, 1.25), 0.125, frequency, target, interferer
    )
    assert m.values_db.shape == (5, 5) and np.isfinite(m.values_db).all()
    for iy, y in enumerate(m.y_coords()):
        for ix, x in enumerate(m.x_coords()):
            row = (response_matrix(scene, [[x, y, 0.0]], frequency) @ filters.entries)[0]
            want = _brute_point_ipi_db(row.tolist(), target, interferer)
            assert m.values_db[iy, ix] == pytest.approx(want, rel=1e-12)


def test_ipi_map_speaker_coincidence_marks_cell_invalid():
    scene = default_scene()
    frequency = 500.0
    filters = designed_filters(scene, frequency)
    target, interferer = program_channels(scene, RenderingMode.MONO)
    # speaker 0 sits at (-0.875, 0, 0), a node of this dyadic grid
    m = ipi_map(
        scene, filters, (-1.0, -0.75, 0.0, 0.25), 0.125, frequency, target, interferer
    )
    ix = int(round((-0.875 - m.x0) / m.spacing))
    assert np.isnan(m.values_db[0, ix])
    assert np.isfinite(m.values_db[2]).all()


def test_ipi_map_validates_inputs():
    scene = default_scene()
    filters = designed_filters(scene, 500.0)
    target, interferer = program_channels(scene, RenderingMode.MONO)
    with pytest.raises(ValueError, match="multiple of resolution"):
        ipi_map(scene, filters, (-1.0, 0.0, 0.0, 0.95), 0.1, 500.0, target, interferer)
    with pytest.raises(ValueError, match="designed at"):
        ipi_map(scene, filters, (-1.0, 0.0, 0.0, 1.0), 0.1, 600.0, target, interferer)
    with pytest.raises(ValueError, match="overlap"):
        ipi_map(scene, filters, (-1.0, 0.0, 0.0, 1.0), 0.1, 500.0, (0,), (0, 1))


def test_contour_vertices_lie_on_cell_edges():
    m = radial_map(resolution=0.1)
    cs = extract_contours(m, 20.0)
    for line in cs.polylines:
        for x, y in line:
            on_x = abs((x - m.x0) / m.spacing - round((x - m.x0) / m.spacing)) < 1e-9
            on_y = abs((y - m.y0) / m.spacing - round((y - m.y0) / m.spacing)) < 1e-9
            assert on_x or on_y


@pytest.mark.parametrize("holder", ["scene", "transfer", "ipi_map", "contours"])
def test_frozen_arrays_are_read_only_copies(holder):
    given = np.arange(6.0).reshape(2, 3)
    if holder == "scene":
        stored = Scene(given, given + 5.0, (0,), (1,), (0,), (1,), (0, 1)).speakers
    elif holder == "transfer":
        given = given.astype(complex)
        stored = TransferMatrix(1000.0, given).entries
    elif holder == "ipi_map":
        stored = IpiMap(1000.0, 0.0, 0.0, 0.1, 3, 2, given).values_db
    else:
        (stored,) = ContourSet(20.0, (given,)).polylines
    assert np.array_equal(stored, given) and not np.shares_memory(stored, given)
    assert not stored.flags.writeable and given.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        stored[0, 0] = 1.0


def test_frozen_holders_keep_their_shape_errors():
    with pytest.raises(ValueError, match=r"speakers must be an \(n, 3\) array, got shape \(2, 2\)"):
        Scene(np.zeros((2, 2)), np.ones((1, 3)), (0,), (), (), (), ())
    with pytest.raises(ValueError, match=r"entries must be 2D, got shape \(3,\)"):
        TransferMatrix(1000.0, np.zeros(3))
    with pytest.raises(ValueError, match=r"values_db shape \(2, 3\) does not match \(ny, nx\) = \(3, 2\)"):
        IpiMap(1000.0, 0.0, 0.0, 0.1, 2, 3, np.zeros((2, 3)))
