import collections
import errno
import io
import itertools
import json
import os

import numpy as np
import pytest

import pszsim.cli
import pszsim.filter_design
import pszsim.perturbation

from pszsim import ListenerDisplacement
from pszsim.cli import (
    _GRID,
    ConfigError,
    default_config_dict,
    load_config,
    main,
    run_map,
    run_spectra,
)
from pszsim.config import resolve_config
from pszsim.spatial_analysis import ContourSet, IpiMap, extract_contours
from conftest import CLI, run_python
from snapshot_outputs import runs, snapshot
from test_metrics import smoothing_oracle


def small_config(tmp_path, **overrides):
    cfg = default_config_dict()
    cfg["frequency_grid"]["points_per_octave"] = 6
    cfg["modes"] = ["mono"]
    cfg["listener_cases"] = [{"name": "centered"}]
    cfg["filter_positions"] = ["matched"]
    cfg["map"].update({"frequencies_hz": [500.0], "resolution_m": 0.1})
    cfg["output_dir"] = str(tmp_path / "out")
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


def test_template_frequency_grid_is_48_points_per_octave():
    grid = resolve_config(default_config_dict()).frequencies
    assert len(grid) == 319
    assert grid[0] == 100.0
    assert grid[-1] <= 10000.0
    assert np.allclose(np.diff(np.log2(grid)), 1 / 48)
    for start, stop, problem in [(0.0, 100.0, "frequency_grid.start_hz: must be > 0"),
                                 (100.0, 100.0, "frequency_grid: stop_hz must exceed start_hz")]:
        raw = default_config_dict()
        raw["frequency_grid"] = {"start_hz": start, "stop_hz": stop, "points_per_octave": 3}
        with pytest.raises(ConfigError) as err:
            resolve_config(raw)
        assert [p.partition(",")[0] for p in err.value.problems] == [problem]


@pytest.mark.parametrize("grid, count", [
    # 100 * 2^(2/3) is the third point, though 3 * log2 of the ratio reads 1.999...
    ({"start_hz": 100.0, "stop_hz": 100 * 2 ** (2 / 3), "points_per_octave": 3}, 3),
    # 10 steps of 1e8 Hz: 1e-9 Hz past 2e9 Hz is below one ulp of it
    ({"start_hz": 1e9, "stop_hz": 2e9, "step_hz": 1e8}, 11),
    # 100 steps of 1e-12 Hz: 1e-9 Hz past the stop would be 1000 steps more
    ({"start_hz": 1.0, "stop_hz": 1 + 1e-10, "step_hz": 1e-12}, 101),
], ids=["log", "linear_large", "linear_tiny_step"])
def test_frequency_grids_keep_an_on_grid_stop_and_end_there(grid, count):
    raw = default_config_dict()
    raw["frequency_grid"] = grid
    freqs = resolve_config(raw).frequencies
    assert len(freqs) == count
    assert freqs[0] == grid["start_hz"]
    # the last point is the stop up to the rounding of its own arithmetic
    assert np.all(freqs[:-1] < grid["stop_hz"])
    assert freqs[-1] == pytest.approx(grid["stop_hz"], rel=1e-13, abs=0)
    if "step_hz" in grid:  # each point is start + i * step, bit for bit, so these end at the stop
        assert freqs.tolist() == (grid["start_hz"] + grid["step_hz"] * np.arange(count)).tolist()
        assert freqs[-1] == grid["stop_hz"]


def test_template_round_trips_through_validate(capsys):
    assert main(["template"]) == 0
    raw = json.loads(capsys.readouterr().out)
    config = resolve_config(raw)
    assert config.scene.n_speakers == 8
    assert config.model.trials == 10
    assert config.beta_at(1000.0) == pytest.approx(4e-4)


@pytest.mark.parametrize(
    "beta", ["auto", 3e-4, {"frequencies_hz": [200, 900, 4000], "values": [1e-2, 0, 5e-4]}]
)
def test_beta_over_an_array_equals_beta_at_each_frequency(beta):
    raw = default_config_dict()
    raw["beta"] = beta
    config = resolve_config(raw)
    betas = config.beta_at(config.frequencies)
    assert isinstance(betas, np.ndarray) and betas.shape == config.frequencies.shape
    assert betas.tolist() == [config.beta_at(f) for f in config.frequencies.tolist()]
    assert all(type(config.beta_at(f)) is float for f in (100.0, 950.5))


def test_spectra_computes_each_transfer_draw_and_design_once(tmp_path, monkeypatch):
    # template: 2 scenes, 2 streams x 319 frequencies of keyed draws, one
    # design per design scene, each factorizing its 319 normal matrices once
    # for all 3 modes, and 9 distinct systems of 12 combinations, since
    # centered listeners get the same design under both filter positions,
    # evaluated by one call per mode on the mode's 3 stacked systems;
    # a draw is counted by its key and a factorization by its LAPACK solve;
    # a map solves its one mode at its 3 frequencies in one design
    counts = collections.Counter()
    stacked = []
    spectra_db = pszsim.cli._spectra_db

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    posv = pszsim.filter_design._cholesky_solver()
    for module, name, label in (
        (pszsim.cli, "response_matrix", "transfers"),
        (pszsim.perturbation, "_key", "draws"),
        (pszsim.cli, "solve_stack", "designs"),
    ):
        monkeypatch.setattr(module, name, counting(label, getattr(module, name)))
    monkeypatch.setattr(pszsim.filter_design, "_cholesky_solver",
                        lambda: counting("solves", posv))

    def recording_db(config, mode, m):
        stacked.append(m.shape)
        return spectra_db(config, mode, m)

    monkeypatch.setattr(pszsim.cli, "_spectra_db", counting("evaluations", recording_db))
    cfg = default_config_dict()
    cfg["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["spectra", str(path)]) == 0
    assert counts == {"transfers": 2, "draws": 2 * 319, "designs": 2, "solves": 2 * 319,
                      "evaluations": 3}
    # M is points x channels: 2 channels for mono, 4 for stereo and xtc
    assert stacked == [(3, 319, 4, 2), (3, 319, 4, 4), (3, 319, 4, 4)]
    counts.clear()
    assert main(["map", str(path)]) == 0
    assert counts == {"transfers": 1, "draws": 3, "designs": 1, "solves": 3}


def test_spectra_smooths_each_kept_set_once_against_the_mask_oracle(tmp_path, monkeypatch,
                                                                    capsys):
    # the template keeps every frequency, so its 9 distinct systems are
    # evaluated in one call per mode and smoothed in one call; with each
    # design scene dropping a frequency of its own, there is one evaluation
    # per mode and design scene, one smoothing per design scene, and every
    # CSV's smoothed columns are still the literal-mask oracle of its own
    # raw dB (the recorded, unstacked evaluation whose "%.9g" text its raw
    # columns hold)
    smooth_calls, combos, raws, db_calls = [], [], [], []
    smooth_db, spectra_db = pszsim.cli.smooth_db, pszsim.cli._spectra_db
    report_skips, solve_stack = pszsim.cli._report_skips, pszsim.cli.solve_stack

    def counting_smooth(freqs, db):
        smooth_calls.append(db.shape)
        return smooth_db(freqs, db)

    def recording_skips(key, kept, failures, log):
        combos.append((key, kept.copy()))
        return report_skips(key, kept, failures, log)

    def recording_db(*args):
        db = spectra_db(*args)
        db_calls.append(db.shape)
        raws.extend(db)
        return db

    drops = itertools.count(3, 7)  # a frequency of its own for each design scene

    def dropping_solve(H, targets, betas, frequencies):
        filters, kept, failures = solve_stack(H, targets, betas, frequencies)
        assert kept.all() and not failures
        drop = next(drops)
        kept[drop] = False
        return ([np.delete(c, drop, axis=0) for c in filters], kept,
                [(float(frequencies[drop]), "dropped by the test")])

    for name, fn in (("smooth_db", counting_smooth), ("_report_skips", recording_skips),
                     ("_spectra_db", recording_db)):
        monkeypatch.setattr(pszsim.cli, name, fn)
    cfg = default_config_dict()
    freqs = resolve_config(cfg).frequencies
    for run, wrap in (("template", False), ("dropping", True)):
        if wrap:
            monkeypatch.setattr(pszsim.cli, "solve_stack", dropping_solve)
        for log in (smooth_calls, combos, raws, db_calls):
            log.clear()
        cfg["output_dir"] = str(tmp_path / run)
        path = tmp_path / f"{run}.json"
        path.write_text(json.dumps(cfg))
        assert main(["spectra", str(path)]) == 0
        assert capsys.readouterr().err.count("dropped by the test") == 12 * wrap
        assert len(combos) == 12 and len(raws) == 9
        assert sorted(db_calls) == ([(1, 4, 318)] * 3 + [(2, 4, 318)] * 3 if wrap
                                    else [(3, 4, 319)] * 3)
        assert len(smooth_calls) == len({kept.tobytes() for _, kept in combos})
        # per mode, the centered design scene serves two systems, a moved one one
        assert sorted(smooth_calls) == ([(3, 4, 318), (6, 4, 318)] if wrap
                                        else [(9, 4, 319)])
        raw_text = [[",".join(f"{x:.9g}" for x in col) for col in raw.T] for raw in raws]
        for key, kept in combos:
            text = (tmp_path / run / f"spectra_{key}.csv").read_text().splitlines()[1:]
            assert len(text) == kept.sum() == 319 - wrap
            own = [i for i, t in enumerate(raw_text)
                   if t == [",".join(line.split(",")[1:5]) for line in text]]
            assert len(own) == 1
            smoothed = np.array([smoothing_oracle(freqs[kept], row) for row in raws[own[0]]])
            for line, row in zip(text, smoothed.T):
                assert line.split(",")[5:] == [f"{x:.9g}" for x in row]


def test_csv_writer_prints_nine_significant_digits():
    # the edge values are pinned as written; random bit patterns (NaN
    # payloads, subnormals and extremes included) match f"{x:.9g}" per value
    edge = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324,
            2.2250738585072014e-308, 1e16, 123456789.5, 1 / 3, -2.5e-7, 7, -3, 10**20]
    bits = np.random.default_rng(1).integers(0, 2**64, size=(2000, 5), dtype=np.uint64)
    rows = bits.view(np.float64).tolist()
    text = pszsim.cli._csv_text([f"c{i}" for i in range(len(edge))], [edge])
    assert text == (
        "c0,c1,c2,c3,c4,c5,c6,c7,c8,c9,c10,c11,c12,c13\n"
        "nan,inf,-inf,-0,0,4.94065646e-324,2.22507386e-308,1e+16,123456790,0.333333333,"
        "-2.5e-07,7,-3,1e+20\n"
    )
    text = pszsim.cli._csv_text(list("abcde"), rows)
    expected = ["a,b,c,d,e"] + [",".join(f"{x:.9g}" for x in row) for row in rows]
    assert text == "\n".join(expected) + "\n"


def test_csv_writer_writes_an_empty_table_as_its_header():
    for rows in ([], np.empty((0, 3))):
        assert pszsim.cli._csv_text(["a", "b", "c"], rows) == "a,b,c\n"


def test_csv_writer_gives_row_tuples_and_an_array_of_them_the_same_text():
    # the area summary passes row tuples (a numpy scalar among them), the
    # spectra a 2-D array: one text, each value as f"{x:.9g}"
    header = ["frequency_hz", "level_db", "area_m2"]
    rows = [(500.0, 20.0, np.float64(0.123456789123)), (1000.0, 30.0, float("nan")),
            (2000.0, -0.0, 5e-324), (4000.0, 10.0, 1e300)]
    text = pszsim.cli._csv_text(header, rows)
    assert text == pszsim.cli._csv_text(header, np.array(rows))
    assert text.endswith("\n") and text.splitlines() == [",".join(header)] + [
        ",".join(f"{x:.9g}" for x in row) for row in rows]


EDGE_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1.0, 40.0, 5e-324,
               1e300, 1e-07, 0.1, 1 / 3, -12.889413447005644, 2.2250738585072014e-308]
BIT_FLOATS = np.random.default_rng(2).integers(0, 2**64, size=(300, 7), dtype=np.uint64).view(
    np.float64
)


def json_dump_text(payload):
    """What json.dump(indent=2, sort_keys=True) and a newline write, NaN as null."""
    def nan_as_none(v):
        if isinstance(v, dict):
            return {k: nan_as_none(x) for k, x in v.items()}
        if isinstance(v, list):
            return [nan_as_none(x) for x in v]
        return None if isinstance(v, float) and v != v else v

    fh = io.StringIO()
    json.dump(nan_as_none(payload), fh, indent=2, sort_keys=True)
    return fh.getvalue() + "\n"


def assert_same_lines(text, expected):
    # lines, not one string: pytest reports the first differing line at once
    # instead of diffing the whole file
    assert text.splitlines(keepends=True) == expected.splitlines(keepends=True)


def map_payload(values, frequency=1000.0, x0=-1.0, y0=0.0, spacing=0.01, cap_db=40.0):
    """A map file's fields, ``values`` as the floats that json.dump writes."""
    values = np.asarray(values, dtype=float)
    return {"frequency_hz": frequency, "x0_m": x0, "y0_m": y0, "spacing_m": spacing,
            "nx": values.shape[1], "ny": values.shape[0], "cap_db": cap_db,
            "values_db": values.tolist()}


# a map CSV cell's text -> that number's text in JSON
CSV_TO_JSON = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def map_csv_cells(csv_text):
    """The ipi_db cells of a map_*.csv text in file order, each as JSON writes its number."""
    cells = [line.rsplit(",", 1)[1] for line in csv_text.splitlines()[1:]]
    return [CSV_TO_JSON.get(c, c) for c in cells]


def map_json_cells(json_text):
    """The values_db numbers of a map_*.json text row by row, each as the file writes it."""
    grid = json.loads(json_text, parse_int=str, parse_float=str, parse_constant=str)
    return ["null" if v is None else v for row in grid["values_db"] for v in row]


def map_json_oracle(m, cap_db, csv_text):
    """json.dump's text of map ``m``'s file, with each values_db number written
    as its cell of the map's CSV ``csv_text``."""
    layout = json_dump_text(map_payload(np.zeros((m.ny, m.nx)), m.frequency, m.x0, m.y0,
                                        m.spacing, cap_db))
    # json.dump writes each value on a line of its own, the only lines 6 deep
    cells = iter(map_csv_cells(csv_text))
    lines = [line.replace("0.0", next(cells), 1) if line.startswith(" " * 6) else line
             for line in layout.splitlines(keepends=True)]
    assert next(cells, None) is None
    return "".join(lines)


CLOSED = [[-0.5, 0.25], [-0.4, 0.3125], [-0.5, 0.375], [-0.6, 0.3125], [-0.5, 0.25]]
JSON_PAYLOADS = {
    "map of edge values": map_payload([EDGE_FLOATS[:7], EDGE_FLOATS[7:]]),
    "1x2 map": map_payload([[float("nan"), -0.0]]),
    "map of random bits": map_payload(BIT_FLOATS),
    "no levels": {"frequency_hz": 500.0, "contours": []},
    "level without polylines": {"frequency_hz": 500.0,
                                "contours": [{"level_db": 20.0, "polylines": []}]},
    "flat and mixed lists": {
        "flat": EDGE_FLOATS, "ints and bools": [1, 2.5, True, False],
        "mixed": [1.0, "a", None, float("nan"), [], {}, [[]], [[1.0], [2.0, float("inf")]]],
    },
    "open and closed polylines": {"frequency_hz": 2000.0, "contours": [
        {"level_db": 10.0, "polylines": [[[-1.0, 0.5], [-0.95, 0.5600000000000001]]]},
        {"level_db": 30.0, "polylines": [CLOSED]},
    ]},
}


# a grid's indent in its file: values_db is a key of the top-level object, a
# polyline is an item of contours[i].polylines
GRID_INDENT = {"values_db": 2, "polylines": 8}


def split_grids(payload):
    """(``payload`` with a map's values_db and each contour polyline as ``_GRID``,
    their (indent, body) as ``_json_text`` takes them, in file order)."""
    grids = []

    def grid(rows, key):
        sep, row_sep = pszsim.cli._grid_seps(GRID_INDENT[key])
        grids.append((GRID_INDENT[key], row_sep.join(sep.join(map(repr, row)) for row in rows)))
        return _GRID

    if "values_db" in payload:
        payload = dict(payload, values_db=grid(payload["values_db"], "values_db"))
    if "contours" in payload:
        payload = dict(payload, contours=[
            dict(c, polylines=[grid(line, "polylines") for line in c["polylines"]])
            for c in payload["contours"]
        ])
    return payload, grids


def fill_grids(payload, grids):
    """``payload`` with each ``_GRID`` replaced by the numbers of the next of ``grids``."""
    grids = iter(grids)

    def fill(value):
        if value == _GRID:
            indent, body = next(grids)
            sep, row_sep = pszsim.cli._grid_seps(indent)
            return [[float(x) for x in row.split(sep)] for row in body.split(row_sep)]
        if isinstance(value, dict):  # in json's key order, the order of the grids
            return {k: fill(v) for k, v in sorted(value.items())}
        return [fill(v) for v in value] if isinstance(value, list) else value

    filled = fill(payload)
    assert next(grids, None) is None
    return filled


@pytest.mark.parametrize("name", JSON_PAYLOADS)
def test_json_writer_writes_the_text_of_json_dump(name):
    payload, grids = split_grids(JSON_PAYLOADS[name])
    text = pszsim.cli._json_text(payload, grids)
    if grids:  # NaN in a grid is null
        assert_same_lines(text, json_dump_text(JSON_PAYLOADS[name]))
    else:  # a NaN elsewhere is json's own NaN
        assert_same_lines(text, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def test_json_writer_raises_unless_each_placeholder_has_one_grid():
    for payload, grids in (({"a": _GRID, "b": _GRID}, [(2, "1.5")]),
                           ({"a": _GRID}, [(2, "1"), (2, "2")]),
                           ({"a": [1.0]}, [(2, "1")]), ({"a": _GRID}, [])):
        with pytest.raises(ValueError, match="zip"):
            pszsim.cli._json_text(payload, grids)
    # a body laid out for another depth
    for payload, indent in (({"a": _GRID}, 4), ({"a": [_GRID]}, 2)):
        with pytest.raises(ValueError, match=f"^a grid laid out at indent {indent} is on "):
            pszsim.cli._json_text(payload, [(indent, "1")])


def test_json_writer_writes_the_text_of_json_dump_for_every_file_of_a_run(tmp_path, monkeypatch):
    # beta 0 below 1 kHz skips frequencies, so both manifests list skips; each
    # call is a whole file's payload and grids; a map file is json.dump's
    # layout with its CSV's numbers
    calls, maps = [], []
    json_text, ipi_map = pszsim.cli._json_text, pszsim.cli.ipi_map

    def recording_json_text(payload, grids=()):
        calls.append((payload, grids))
        return json_text(payload, grids)

    def recording_ipi_map(*args):
        computed = ipi_map(*args)
        maps.extend(computed)
        return computed

    monkeypatch.setattr(pszsim.cli, "_json_text", recording_json_text)
    monkeypatch.setattr(pszsim.cli, "ipi_map", recording_ipi_map)
    path = small_config(tmp_path, beta={"frequencies_hz": [1000, 1001], "values": [0, 4e-4]},
                        uncertainty={"sigma_sq": 0, "trials": 1},
                        map={"frequencies_hz": [500.0, 2000.0]})
    assert main(["spectra", str(path)]) == 0
    assert main(["map", str(path)]) == 0
    files = sorted((tmp_path / "out").glob("*.json"))
    assert [p.name for p in files] == [
        "contours_mono_2000hz.json", "manifest_map.json", "manifest_spectra.json",
        "map_mono_2000hz.json",
    ]
    *others, grid = (p.read_text(encoding="utf-8") for p in files)
    (m,) = maps
    csv_text = (tmp_path / "out" / "map_mono_2000hz.csv").read_text(encoding="utf-8")
    assert_same_lines(grid, map_json_oracle(m, 40.0, csv_text))
    # the manifests and the contours are json.dump's text of their payload with its grids
    assert len(calls) == len(files)
    whole = [fill_grids(payload, grids) for payload, grids in calls
             if payload.get("values_db") != _GRID]
    assert len(whole) == len(others)
    assert sorted(others) == sorted(json_dump_text(payload) for payload in whole)
    assert any(payload.get("contours") for payload in whole)
    for payload in whole:
        if "command" in payload:  # a manifest
            assert payload["skipped_frequencies"]


def test_no_run_writes_a_non_finite_number_outside_values_db(tmp_path):
    # _json_text writes a NaN outside a grid as json's NaN, not null: no file
    # of these runs holds one, nor a null, an Infinity or a -Infinity
    class Constant(str):
        pass

    def non_finite(value, where):
        if isinstance(value, dict):
            return [hit for k, v in value.items() for hit in non_finite(v, f"{where}.{k}")]
        if isinstance(value, list):
            return [hit for v in value for hit in non_finite(v, f"{where}[]")]
        return [where] if value is None or isinstance(value, Constant) else []

    found = {}
    for name, command, config in runs():
        if name in ("speaker_grid", "partial_skip"):
            work = tmp_path / f"{name}-{command}"
            snapshot(work, command, config, 0)
            for path in sorted((work / "out").glob("*.json")):
                data = json.loads(path.read_text(encoding="utf-8"), parse_constant=Constant)
                found[f"{work.name}/{path.name}"] = set(non_finite(data, ""))
    assert len(found) == 11
    assert {where for places in found.values() for where in places} == {".values_db[][]"}
    # the speaker grid's maps hold NaN cells
    assert all(found[f"speaker_grid-map/map_mono_{f}hz.json"] for f in (500, 1000, 2000))


def test_map_csv_writer_formats_each_point_as_nine_significant_digits():
    for values in (np.array([EDGE_FLOATS[:7], EDGE_FLOATS[7:]]), np.array([[1.0, -0.0]]),
                   BIT_FLOATS):
        m = IpiMap(1000.0, -1.0, 0.0, 0.01, values)
        expected = ["x_m,y_m,ipi_db"] + [
            f"{x:.9g},{y:.9g},{v:.9g}"
            for y, row in zip(m.y_coords().tolist(), np.minimum(values, 40.0).tolist())
            for x, v in zip(m.x_coords().tolist(), row)
        ]
        ((csv_text, json_text),) = pszsim.cli._map_texts([m], 40.0)
        assert_same_lines(csv_text, "\n".join(expected) + "\n")
        assert_same_lines(json_text, map_json_oracle(m, 40.0, csv_text))


def map_csv_oracle(m, values):
    """The map_*.csv text of ``m`` with ``values``, each number an f-string's "%.9g"."""
    return "x_m,y_m,ipi_db\n" + "".join(
        f"{x:.9g},{y:.9g},{v:.9g}\n"
        for y, row in zip(m.y_coords().tolist(), values.tolist())
        for x, v in zip(m.x_coords().tolist(), row)
    )


@pytest.mark.parametrize("cap_db", [40.0, np.inf])
def test_maps_on_one_grid_share_its_csv_row_templates(cap_db):
    # one set of row templates serves every map of the grid: each map's CSV is
    # the f-string oracle of its capped values and its JSON json.dump's layout
    # with the CSV's cells
    first = np.array([[np.nan, np.inf, -np.inf, -0.0], [0.0, 1 / 3, 40.0, 5e-324],
                      [-12.889413447005644, 1e300, 0.1, 2.2250738585072014e-308]])
    second = np.array([[-0.0, np.nan, 12.5, np.inf], [np.nan, -np.inf, 0.0, -0.0],
                       [7.0, 1e-07, np.nan, -1e-300]])
    maps = [IpiMap(f, -0.5, 1.25, 0.05, v) for f, v in ((500.0, first), (2000.0, second))]
    texts = pszsim.cli._map_texts(maps, cap_db)
    for m, (csv_text, json_text) in zip(maps, texts, strict=True):
        assert_same_lines(csv_text, map_csv_oracle(m, np.minimum(m.values_db, cap_db)))
        assert_same_lines(json_text, map_json_oracle(m, cap_db, csv_text))
        cells = set(map_csv_cells(csv_text))
        assert {"null", "-Infinity", "-0"} <= cells
        assert ("Infinity" in cells) == (cap_db == np.inf)


def nine_digit_json(values):
    """Each of ``values`` as an f-string's "%.9g", written as JSON writes nan and the infinities."""
    return [CSV_TO_JSON.get(t, t) for t in (f"{v:.9g}" for v in values)]


def contour_json_oracle(frequency, sets):
    """json.dump's text of the contour file of ``sets``, each vertex number
    written as its ``nine_digit_json`` text."""
    layout = json_dump_text({"frequency_hz": frequency, "contours": [
        {"level_db": cs.level_db, "polylines": [np.zeros(line.shape).tolist()
                                                for line in cs.polylines]}
        for cs in sets]})
    # json.dump writes each vertex number on a line of its own, the only lines 12 deep
    cells = iter(nine_digit_json(
        [v for cs in sets for line in cs.polylines for v in line.ravel().tolist()]))
    lines = [line.replace("0.0", next(cells), 1) if line.startswith(" " * 12) else line
             for line in layout.splitlines(keepends=True)]
    assert next(cells, None) is None
    return "".join(lines)


@pytest.mark.parametrize("name", ["edge", "bits"])
def test_contour_file_rows_are_the_9_digit_texts_of_the_polyline_vertices(
        tmp_path, monkeypatch, name):
    # a map run whose contours are polylines of extreme and random floats; real
    # contours never hold a non-finite vertex, but the writer's layout does not
    # depend on that: nan is null and inf Infinity, as json.dump writes them
    flat = np.array(EDGE_FLOATS) if name == "edge" else BIT_FLOATS.ravel()[:2 * 1050]
    lines = [flat.reshape(-1, 2), flat[:4].reshape(2, 2), flat[::-1].reshape(-1, 2)]
    sets = [ContourSet(10.0, tuple(lines[:2]), 1.5), ContourSet(20.0, (), 0.0),
            ContourSet(30.0, tuple(lines[2:]), 0.25)]
    monkeypatch.setattr(pszsim.cli, "extract_contours", lambda m, levels: sets)
    assert main(["map", str(small_config(tmp_path))]) == 0
    text = (tmp_path / "out" / "contours_mono_500hz.json").read_text(encoding="utf-8")
    assert_same_lines(text, contour_json_oracle(500.0, sets))
    # each vertex is one row of the file, its two numbers on the only lines 12 deep
    numbers = [line.strip().rstrip(",") for line in text.splitlines() if line.startswith(" " * 12)]
    assert numbers == nine_digit_json([v for line in lines for v in line.ravel().tolist()])
    if name == "edge":
        assert numbers[:4] == ["null", "Infinity", "-Infinity", "-0"]
        assert "4.94065646e-324" in numbers and "0.333333333" in numbers


def test_validate_command(tmp_path, capsys):
    path = small_config(tmp_path)
    assert main(["validate", str(path)]) == 0
    echo = json.loads(capsys.readouterr().out)
    assert echo["beta_resolved_hint"] == pytest.approx(4e-4)


def test_validate_rejects_negative_sigma(tmp_path, capsys):
    path = small_config(tmp_path, uncertainty={"sigma_sq": -1e-4})
    assert main(["validate", str(path)]) == 1
    assert "sigma" in capsys.readouterr().err


def test_validate_rejects_inverted_grid(tmp_path, capsys):
    path = small_config(tmp_path, frequency_grid={"start_hz": 5000.0, "stop_hz": 100.0})
    assert main(["validate", str(path)]) == 1
    assert "stop_hz" in capsys.readouterr().err


def test_validate_reports_json_syntax_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "scene": "default",\n  oops\n}\n')
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "broken.json:3" in err


def test_unknown_keys_are_rejected(tmp_path):
    path = small_config(tmp_path, typo_key=1)
    with pytest.raises(ConfigError, match="typo_key"):
        load_config(str(path))


def test_zone_letters_are_case_insensitive(tmp_path):
    path = small_config(
        tmp_path,
        listener_cases=[{"name": "moved_b", "listener": "b", "dx": 0.1}],
        map={"bright_zone": "b"},
    )
    config = load_config(str(path))
    assert config.cases == {"moved_b": ListenerDisplacement("B", 0.1, 0.0)}
    assert config.map_request.bright_zone == "B"
    assert config.echo["listener_cases"][0]["listener"] == "B"


def test_repeated_case_names_keep_every_problem_in_order():
    # every listed case is checked under its own index, though its name repeats
    raw = default_config_dict()
    raw["listener_cases"] = [{"name": "c", "listener": "A", "dx": 1e200},
                             {"name": "c", "listener": "B", "dx": 1e200},
                             {"name": "d"}, {"name": "c", "dy": 2.0}]
    with pytest.raises(ConfigError) as err:
        resolve_config(raw)
    assert err.value.problems == [
        "listener_cases[1].name: duplicate name 'c'",
        "listener_cases[3].name: duplicate name 'c'",
        "listener_cases[0]: control point(s) [0, 1]: distance to a speaker overflows",
        "listener_cases[1]: control point(s) [2, 3]: distance to a speaker overflows",
    ]


def test_spectra_symmetry_without_noise(tmp_path):
    path = small_config(tmp_path, uncertainty={"sigma_sq": 0.0, "trials": 1}, beta=4e-4)
    config = load_config(str(path))
    outputs = run_spectra(config)
    csv = next(p for p in outputs if p.name == "spectra_mono_centered_matched.csv")
    header, rows = read_csv(csv)
    izi_a = rows[:, header.index("izi_a_db")]
    ipi_a = rows[:, header.index("ipi_a_db")]
    assert np.max(np.abs(izi_a - ipi_a)) <= 1e-9


def test_spectra_outputs_and_manifest(tmp_path):
    path = small_config(tmp_path)
    config = load_config(str(path))
    outputs = run_spectra(config)
    names = {p.name for p in outputs}
    assert "spectra_mono_centered_matched.csv" in names
    assert "manifest_spectra.json" in names
    manifest = json.loads((config.output_dir / "manifest_spectra.json").read_text())
    assert manifest["config"]["uncertainty"]["seed"] == 0
    assert sorted(manifest["outputs"]) == manifest["outputs"]
    assert "spectra_mono_centered_matched.csv" in manifest["outputs"]
    # no timestamps anywhere in the manifest
    assert "time" not in json.dumps(manifest).lower()


def test_spectra_runs_are_byte_identical(tmp_path):
    path_a = small_config(tmp_path, output_dir=str(tmp_path / "a"))
    config_a = load_config(str(path_a))
    path_b = tmp_path / "config_b.json"
    raw = json.loads(path_a.read_text())
    raw["output_dir"] = str(tmp_path / "b")
    path_b.write_text(json.dumps(raw))
    config_b = load_config(str(path_b))
    outputs_a = sorted(run_spectra(config_a), key=lambda p: p.name)
    outputs_b = sorted(run_spectra(config_b), key=lambda p: p.name)
    for pa, pb in zip(outputs_a, outputs_b):
        if pa.name.startswith("manifest"):
            continue  # differs only in the output_dir echo
        assert pa.read_bytes() == pb.read_bytes(), pa.name


def test_seed_override_changes_results(tmp_path):
    path = small_config(tmp_path)
    base = run_spectra(load_config(str(path), output_override=str(tmp_path / "s0")))
    other = run_spectra(
        load_config(str(path), seed_override=99, output_override=str(tmp_path / "s99"))
    )
    csv_a = next(p for p in base if p.suffix == ".csv")
    csv_b = next(p for p in other if p.name == csv_a.name)
    assert csv_a.read_bytes() != csv_b.read_bytes()


def test_moved_listener_with_centered_filters_degrades_ipi(tmp_path):
    path = small_config(
        tmp_path,
        listener_cases=[
            {"name": "centered"},
            {"name": "moved_a", "listener": "A", "dx": -0.3, "dy": -0.2},
        ],
        filter_positions=["matched", "centered"],
    )
    config = load_config(str(path))
    outputs = run_spectra(config)

    def mean_ipi_a(name):
        header, rows = read_csv(next(p for p in outputs if p.name == name))
        freqs = rows[:, 0]
        band = (freqs >= 200.0) & (freqs <= 2000.0)
        return rows[band, header.index("ipi_a_smooth_db")].mean()

    stale = mean_ipi_a("spectra_mono_moved_a_centered.csv")
    reoptimized = mean_ipi_a("spectra_mono_moved_a_matched.csv")
    assert stale < reoptimized


def test_map_outputs(tmp_path):
    path = small_config(tmp_path)
    config = load_config(str(path))
    outputs = run_map(config)
    names = {p.name for p in outputs}
    assert {"map_mono_500hz.csv", "map_mono_500hz.json",
            "contours_mono_500hz.json", "area_summary.csv",
            "manifest_map.json"} <= names

    header, rows = read_csv(config.output_dir / "map_mono_500hz.csv")
    assert header == ["x_m", "y_m", "ipi_db"]
    finite = rows[np.isfinite(rows[:, 2])]
    assert finite[:, 2].max() <= 40.0  # cap applied on export

    grid = json.loads((config.output_dir / "map_mono_500hz.json").read_text())
    assert grid["nx"] == 11 and grid["ny"] == 21

    contours = json.loads((config.output_dir / "contours_mono_500hz.json").read_text())
    levels = [c["level_db"] for c in contours["contours"]]
    assert levels == [20.0, 30.0]

    header, rows = read_csv(config.output_dir / "area_summary.csv")
    assert header == ["frequency_hz", "level_db", "area_m2"]
    area_20 = rows[rows[:, 1] == 20.0][0, 2]
    area_30 = rows[rows[:, 1] == 30.0][0, 2]
    assert area_20 >= area_30 > 0.0


def test_map_files_are_capped_and_contours_are_not(tmp_path, monkeypatch):
    # a cap below the 30 dB level: both map files stop at the cap, while the
    # contours and the area at 30 dB come from the untruncated maps; at
    # 0.025 m the grid lands on speakers, so the maps hold NaN cells
    maps = []
    ipi_map = pszsim.cli.ipi_map

    def recording_ipi_map(*args):
        computed = ipi_map(*args)
        maps.extend(computed)
        return computed

    monkeypatch.setattr(pszsim.cli, "ipi_map", recording_ipi_map)
    config = load_config(str(small_config(tmp_path, map={
        "cap_db": 25.0, "resolution_m": 0.025, "frequencies_hz": [500.0, 1000.0, 2000.0]})))
    run_map(config)
    assert len(maps) == 3
    _, areas = read_csv(config.output_dir / "area_summary.csv")
    for m in maps:
        tag = f"mono_{m.frequency:.0f}hz"
        assert np.nanmax(m.values_db) > 30.0 and np.isnan(m.values_db).any()
        capped = np.minimum(m.values_db, 25.0)

        csv_text = (config.output_dir / f"map_{tag}.csv").read_text(encoding="utf-8")
        _, rows = read_csv(config.output_dir / f"map_{tag}.csv")
        assert np.nanmax(rows[:, 2]) == 25.0
        assert np.allclose(rows[:, 2], capped.ravel(), rtol=1e-8, atol=0, equal_nan=True)
        json_text = (config.output_dir / f"map_{tag}.json").read_text(encoding="utf-8")
        assert json.loads(json_text)["cap_db"] == 25.0
        # each value of the JSON is the text of its point's CSV cell
        cells = map_csv_cells(csv_text)
        assert "null" in cells and "25" in cells
        assert map_json_cells(json_text) == cells

        contours = json.loads((config.output_dir / f"contours_{tag}.json").read_text())
        at_30 = [c["polylines"] for c in contours["contours"] if c["level_db"] == 30.0][0]
        # each vertex of the file is its "%.9g" text, read back exactly
        assert at_30 and at_30 == [[[float(f"{v:.9g}") for v in row] for row in line.tolist()]
                                   for line in extract_contours(m, [30.0])[0].polylines]
        assert areas[(areas[:, 0] == m.frequency) & (areas[:, 1] == 30.0)][0, 2] > 0.0

    # a -inf cell, which no run above holds
    values = np.array([[-np.inf, 12.5, 1 / 3], [np.nan, 40.0, -0.0]])
    m = IpiMap(1000.0, -1.0, 0.0, 0.01, values)
    ((csv_text, json_text),) = pszsim.cli._map_texts([m], 40.0)
    assert map_csv_cells(csv_text) == ["-Infinity", "12.5", "0.333333333", "null", "40", "-0"]
    assert map_json_cells(json_text) == map_csv_cells(csv_text)
    assert_same_lines(json_text, map_json_oracle(m, 40.0, csv_text))


def test_map_runs_are_byte_identical(tmp_path):
    path = small_config(tmp_path)
    out_a = run_map(load_config(str(path), output_override=str(tmp_path / "ma")))
    out_b = run_map(load_config(str(path), output_override=str(tmp_path / "mb")))
    for pa, pb in zip(sorted(out_a, key=lambda p: p.name), sorted(out_b, key=lambda p: p.name)):
        if pa.name.startswith("manifest"):
            continue
        assert pa.read_bytes() == pb.read_bytes(), pa.name


def custom_scene_config(output_dir):
    cfg = default_config_dict()
    cfg["scene"] = {
        "speakers": [[-0.3, 0.0, 0.0], [-0.1, 0.0, 0.0], [0.1, 0.0, 0.0], [0.3, 0.0, 0.0]],
        "control_points": [[-0.2, 1.0, 0.0], [0.2, 1.0, 0.0]],
        "zone_a": [1],
        "zone_b": [2],
        "program_a": [1],
        "program_b": [2],
        "virtual_sources": [1, 4],
    }
    cfg["modes"] = ["mono"]
    cfg["frequency_grid"]["points_per_octave"] = 4
    cfg["listener_cases"] = [{"name": "centered"}]
    cfg["filter_positions"] = ["matched"]
    del cfg["map"]
    cfg["output_dir"] = output_dir
    return cfg


def test_custom_scene_uses_one_based_indices(tmp_path):
    cfg = custom_scene_config(str(tmp_path / "custom"))
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(cfg))
    config = load_config(str(path))
    assert config.scene.zone_a == (0,)
    assert config.scene.virtual_source_map == (0, 3)
    outputs = run_spectra(config)
    assert any(p.name == "spectra_mono_centered_matched.csv" for p in outputs)


def test_custom_scene_validation_failures_surface(tmp_path):
    cfg = default_config_dict()
    cfg["scene"] = {
        "speakers": [[0.0, 0.0, 0.0], [0.25, 0.0, 0.0]],
        "control_points": [[0.0, 1.0, 0.0], [0.25, 1.0, 0.0]],
        "zone_a": [1],
        "zone_b": [1],
        "program_a": [1],
        "program_b": [2],
        "virtual_sources": [1, 2],
    }
    path = tmp_path / "bad_scene.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match="share control point"):
        load_config(str(path))


def test_map_command_requires_map_section(tmp_path):
    cfg = default_config_dict()
    del cfg["map"]
    cfg["output_dir"] = str(tmp_path / "nomapped")
    path = tmp_path / "nomap.json"
    path.write_text(json.dumps(cfg))
    config = load_config(str(path))
    with pytest.raises(ConfigError, match="map"):
        run_map(config)


def test_cli_exit_codes(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["validate", str(missing)]) == 1
    path = small_config(tmp_path, beta=-2.0)
    assert main(["spectra", str(path)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command", ["validate", "spectra"])
def test_listener_moved_onto_a_speaker_is_a_config_error(tmp_path, capsys, command):
    # ears of the default scene sit at x = -0.584, -0.416, 0.416, 0.584 and
    # y = 1; speakers at y = 0, x = -0.875 + 0.25 k; the sums are exact
    cases = [
        {"name": "centered"},
        {"name": "a_on_speaker", "listener": "A", "dx": 0.209, "dy": -1.0},
        {"name": "b_on_speakers", "listener": "B", "dx": -0.041, "dy": -1.0},
        {"name": "b_clear", "listener": "B", "dx": -0.041, "dy": -0.5},
    ]
    path = small_config(tmp_path, listener_cases=cases)
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: listener_cases[1]: control point 0 coincides with speaker 2",
        "config error: listener_cases[2]: control point 2 coincides with speaker 5",
    ]
    assert not (tmp_path / "out").exists()


def test_numerical_failure_exits_2(tmp_path, capsys):
    # beta 0 with fewer points than speakers leaves the normal matrix
    # rank deficient, so every solve fails and the run aborts
    path = small_config(tmp_path, beta=0.0, uncertainty={"sigma_sq": 0.0, "trials": 1})
    assert main(["spectra", str(path)]) == 2
    err = capsys.readouterr().err
    assert "runtime error" in err
    assert "skipped" in err
    assert not (tmp_path / "out").exists()


def test_map_numerical_failure_exits_2(tmp_path, capsys):
    # as above: no map frequency can be designed, so no map file is written
    path = small_config(tmp_path, beta=0.0, uncertainty={"sigma_sq": 0.0, "trials": 1},
                        map={"frequencies_hz": [500.0, 1000.0]})
    assert main(["map", str(path)]) == 2
    *warnings, error = capsys.readouterr().err.splitlines()
    assert [line.split(" Hz: ")[0] for line in warnings] == [
        "warning: map: skipped 500", "warning: map: skipped 1000"
    ]
    assert error == "runtime error: map: every frequency failed to solve"
    assert not (tmp_path / "out").exists()


def test_map_grid_too_large_for_memory_exits_2(tmp_path, capsys):
    # 2e16 grid points pass the config's size check: numpy allows the 1.6e17
    # bytes of a map's values, but no 64-bit address space holds them, so the
    # first map array fails to allocate without touching memory
    path = small_config(tmp_path, map={"resolution_m": 1e-8})
    assert main(["map", str(path)]) == 2
    (error,) = capsys.readouterr().err.splitlines()
    assert error.startswith("runtime error: map: Unable to allocate ")
    assert not (tmp_path / "out").exists()


def test_map_grid_too_large_for_all_its_maps_at_once_exits_2(tmp_path, capsys):
    # 3.2e17 grid points: numpy allows the 2.6e18 bytes of one map's values,
    # but not the 1e19 of four maps in one array
    path = small_config(
        tmp_path, map={"resolution_m": 2.5e-9, "frequencies_hz": [500.0, 1000.0, 2000.0, 4000.0]}
    )
    assert main(["map", str(path)]) == 2
    (error,) = capsys.readouterr().err.splitlines()
    assert error.startswith("runtime error: map: Unable to allocate ")
    assert not (tmp_path / "out").exists()


def test_frequency_grid_too_large_for_one_array_exits_1(tmp_path, capsys):
    # 4.7e18 points fit an index, but not their 8 bytes each in one array
    cfg = default_config_dict()
    cfg["frequency_grid"] = {"start_hz": 100.0, "stop_hz": 10000.0, "step_hz": 2.1e-15}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == (
        "config error: frequency_grid: 4.71e+18 points, too many for one array\n"
    )


@pytest.mark.parametrize("command", ["spectra", "map"])
@pytest.mark.parametrize("sub", ["", "sub"])
def test_uncreatable_output_dir_is_a_config_error(tmp_path, capsys, command, sub):
    blocker = tmp_path / "afile"
    blocker.write_text("keep")
    out = blocker / sub if sub else blocker
    assert main([command, str(small_config(tmp_path)), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [f"config error: output_dir: cannot create {out}: "
                                + ("Not a directory" if sub else "File exists")]
    assert blocker.read_text() == "keep"


@pytest.mark.parametrize("command, name", [
    ("spectra", "spectra_mono_centered_matched.csv"),
    ("map", "map_mono_500hz.json"),
    ("map", "manifest_map.json"),
])
def test_unwritable_output_file_is_a_config_error(tmp_path, capsys, command, name):
    # a directory sits on the name of one output file
    blocker = tmp_path / "out" / name
    blocker.mkdir(parents=True)
    assert main([command, str(small_config(tmp_path))]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [f"config error: output_dir: cannot write {blocker}: File exists"]
    assert blocker.is_dir() and not any(blocker.iterdir())


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_failed_write_names_the_output_dir(tmp_path, capsys, monkeypatch):
    # the file opens, but its data cannot be flushed: the error names no file
    def open_full(path, mode, **kwargs):
        return open("/dev/full", "w", **kwargs)

    monkeypatch.setattr(pszsim.cli, "open", open_full, raising=False)
    assert main(["spectra", str(small_config(tmp_path))]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"config error: output_dir: cannot write {tmp_path / 'out'}: No space left on device"
    ]


def file_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("command, first", [
    ("spectra", "spectra_mono_centered_matched.csv"),
    ("map", "map_mono_500hz.csv"),
])
def test_rerun_into_a_used_directory_changes_no_file(tmp_path, capsys, command, first):
    # every file is taken; the refusal lists each, in the order the run writes them
    path = str(small_config(tmp_path))
    assert main([command, path]) == 0
    before = file_bytes(tmp_path / "out")
    written = capsys.readouterr().out.splitlines()
    assert written[0] == str(tmp_path / "out" / first)
    assert main([command, path]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: output_dir: cannot write {p}: File exists" for p in written
    ]
    assert file_bytes(tmp_path / "out") == before


def test_refused_run_writes_no_file(tmp_path, capsys):
    # the xtc CSV is free, but the run is refused as a whole: writing it
    # would leave a CSV that no manifest lists
    assert main(["spectra", str(small_config(tmp_path))]) == 0
    before = file_bytes(tmp_path / "out")
    capsys.readouterr()
    assert main(["spectra", str(small_config(tmp_path, modes=["xtc", "mono"]))]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: output_dir: cannot write {tmp_path / 'out' / name}: File exists"
        for name in ("spectra_mono_centered_matched.csv", "manifest_spectra.json")
    ]
    assert file_bytes(tmp_path / "out") == before


@pytest.mark.parametrize("taken", [False, True], ids=["disk full", "name taken meanwhile"])
def test_failed_write_removes_the_files_of_the_run(tmp_path, capsys, monkeypatch, taken):
    # the third file fails to open; the two written before it are removed,
    # while the files the run did not write stay: one that was there before,
    # and one that another writer put on the third name after the check
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("keep")
    kept = file_bytes(out)
    opened = []

    def open_third_fails(path, *args, **kwargs):
        opened.append(path)
        if len(opened) == 3:
            if not taken:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
            path.write_text("other")
            kept[path.name] = b"other"
        return open(path, *args, **kwargs)

    monkeypatch.setattr(pszsim.cli, "open", open_third_fails, raising=False)
    assert main(["map", str(small_config(tmp_path))]) == 1
    reason = "File exists" if taken else "No space left on device"
    assert capsys.readouterr().err.splitlines() == [
        f"config error: output_dir: cannot write {opened[2]}: {reason}"
    ]
    assert [p.name for p in opened] == [
        "map_mono_500hz.csv", "map_mono_500hz.json", "contours_mono_500hz.json"
    ]
    assert file_bytes(out) == kept


@pytest.mark.parametrize("command", ["spectra", "map"])
@pytest.mark.parametrize("value", ["", "a\0b"], ids=["empty", "NUL"])
def test_output_dir_override_is_checked_like_the_field(tmp_path, capsys, command, value):
    assert main([command, str(small_config(tmp_path)), "-o", value]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: -o: must be a non-empty string without NUL, got {value!r}"
    ]
    assert not (tmp_path / "out").exists()


def test_fewer_modes_into_a_three_mode_directory_is_refused(tmp_path, capsys):
    # the mono run's files are a subset of the three-mode run's names; writing
    # them would leave the other modes' CSVs beside a manifest that omits them
    assert main(["spectra", str(small_config(tmp_path, modes=["mono", "stereo", "xtc"]))]) == 0
    before = file_bytes(tmp_path / "out")
    assert len(before) == 4
    capsys.readouterr()
    assert main(["spectra", str(small_config(tmp_path))]) == 1
    assert "File exists" in capsys.readouterr().err
    assert file_bytes(tmp_path / "out") == before


def test_spectra_then_map_share_one_directory(tmp_path):
    # the two commands write disjoint file names, so a shared output_dir
    # (the default "results") holds both runs, each listed by its manifest
    path = str(small_config(tmp_path))
    assert main(["spectra", path]) == 0
    assert main(["map", path]) == 0
    out = tmp_path / "out"
    spectra, maps = (
        json.loads((out / f"manifest_{c}.json").read_text())["outputs"] + [f"manifest_{c}.json"]
        for c in ("spectra", "map")
    )
    assert not set(spectra) & set(maps)
    assert sorted(p.name for p in out.iterdir()) == sorted(spectra + maps)


@pytest.mark.parametrize("argv", [
    ["spectra", "CONFIG", "--seed", "abc"],
    ["spectra"],
    ["map", "CONFIG", "--bogus"],
])
def test_usage_errors_exit_1(tmp_path, capsys, argv):
    path = str(small_config(tmp_path))
    assert main([path if a == "CONFIG" else a for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: pszsim") and "error:" in err
    assert not (tmp_path / "out").exists()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: pszsim")


def test_back_to_back_calls_in_one_process_match_separate_processes(tmp_path, capsys,
                                                                    monkeypatch):
    # main builds its parser once per process: a usage error, validate,
    # spectra with a seed and --help, called in turn in this process, give
    # each the exit code, output and files of its own fresh interpreter
    path = str(small_config(tmp_path))
    calls = [["spectra", path, "--seed", "abc"], ["validate", path],
             ["spectra", path, "--seed", "3", "-o", "out"], ["--help"]]
    monkeypatch.setenv("COLUMNS", "80")  # the help text's width
    for side in ("here", "fresh"):
        (tmp_path / side).mkdir()
    monkeypatch.chdir(tmp_path / "here")
    for argv in calls:
        code = main(argv)
        here = capsys.readouterr()
        fresh = run_python(["-c", CLI, *argv], tmp_path / "fresh", COLUMNS="80")
        assert (code, here.out, here.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert code == 0 and here.out.startswith("usage: pszsim")
    here, fresh = (sorted((tmp_path / side / "out").iterdir()) for side in ("here", "fresh"))
    assert [p.name for p in here] == [p.name for p in fresh] and len(here) == 2
    assert [p.read_bytes() for p in here] == [p.read_bytes() for p in fresh]


# Resolved echoes that `validate` printed before the config format became a
# table of fields; the echo is also the "config" of every manifest.
TEMPLATE_ECHO = {
    "beta": "auto",
    "beta_resolved_hint": 0.0004,
    "filter_positions": ["matched", "centered"],
    "frequency_grid": {"points_per_octave": 48, "start_hz": 100.0, "stop_hz": 10000.0},
    "listener_cases": [
        {"name": "centered"},
        {"dx": -0.3, "dy": -0.2, "listener": "A", "name": "moved_a"},
    ],
    "map": {
        "bright_zone": "A",
        "cap_db": 40.0,
        "frequencies_hz": [500.0, 1000.0, 2000.0],
        "levels_db": [20.0, 30.0],
        "mode": "mono",
        "region": {"x_max": 0.0, "x_min": -1.0, "y_max": 2.0, "y_min": 0.0},
        "resolution_m": 0.02,
    },
    "modes": ["mono", "stereo", "xtc"],
    "output_dir": "results",
    "scene": "default",
    "uncertainty": {"seed": 0, "sigma_amp_sq": 0.0001, "sigma_phase_sq": 0.0001, "trials": 10},
}


def test_template_text_is_pinned(capsys):
    template = {
        "scene": "default",
        "frequency_grid": {"start_hz": 100.0, "stop_hz": 10000.0, "points_per_octave": 48},
        "modes": ["mono", "stereo", "xtc"],
        "uncertainty": {"sigma_sq": 1e-4, "trials": 10, "seed": 0},
        "beta": "auto",
        "listener_cases": [
            {"name": "centered"},
            {"name": "moved_a", "listener": "A", "dx": -0.3, "dy": -0.2},
        ],
        "filter_positions": ["matched", "centered"],
        "map": {
            "mode": "mono",
            "bright_zone": "A",
            "frequencies_hz": [500.0, 1000.0, 2000.0],
            "levels_db": [20.0, 30.0],
            "region": {"x_min": -1.0, "x_max": 0.0, "y_min": 0.0, "y_max": 2.0},
            "resolution_m": 0.02,
            "cap_db": 40.0,
        },
        "output_dir": "results",
    }
    assert main(["template"]) == 0
    assert capsys.readouterr().out == json.dumps(template, indent=2) + "\n"


def _template_with(**changes):
    cfg = default_config_dict()
    cfg.update(changes)
    return cfg


@pytest.mark.parametrize(
    "cfg, echo",
    [
        (default_config_dict(), TEMPLATE_ECHO),
        (
            _template_with(
                uncertainty={"sigma_amp_sq": 2e-4, "sigma_phase_sq": 5e-5, "trials": 3, "seed": 7}
            ),
            {
                **TEMPLATE_ECHO,
                "beta_resolved_hint": 0.0008,
                "uncertainty": {
                    "seed": 7, "sigma_amp_sq": 0.0002, "sigma_phase_sq": 5e-05, "trials": 3,
                },
            },
        ),
        (
            _template_with(frequency_grid={"start_hz": 100.0, "stop_hz": 2000.0, "step_hz": 50.0}),
            {
                **TEMPLATE_ECHO,
                "frequency_grid": {"start_hz": 100.0, "step_hz": 50.0, "stop_hz": 2000.0},
            },
        ),
        (
            _template_with(
                beta={"frequencies_hz": [100.0, 1000.0, 10000.0], "values": [1e-3, 4e-4, 1e-4]}
            ),
            {
                **TEMPLATE_ECHO,
                "beta": {
                    "frequencies_hz": [100.0, 1000.0, 10000.0],
                    "values": [0.001, 0.0004, 0.0001],
                },
                "beta_resolved_hint": 0.001,
            },
        ),
        (
            custom_scene_config("custom"),
            {
                "beta": "auto",
                "beta_resolved_hint": 0.0002,
                "filter_positions": ["matched"],
                "frequency_grid": {"points_per_octave": 4, "start_hz": 100.0, "stop_hz": 10000.0},
                "listener_cases": [{"name": "centered"}],
                "modes": ["mono"],
                "output_dir": "custom",
                "scene": {
                    "control_points": [[-0.2, 1.0, 0.0], [0.2, 1.0, 0.0]],
                    "program_a": [1],
                    "program_b": [2],
                    "speakers": [
                        [-0.3, 0.0, 0.0], [-0.1, 0.0, 0.0], [0.1, 0.0, 0.0], [0.3, 0.0, 0.0],
                    ],
                    "virtual_sources": [1, 4],
                    "zone_a": [1],
                    "zone_b": [2],
                },
                "uncertainty": {
                    "seed": 0, "sigma_amp_sq": 0.0001, "sigma_phase_sq": 0.0001, "trials": 10,
                },
            },
        ),
    ],
    ids=["template", "sigma_split", "step_grid", "beta_table", "custom_scene"],
)
def test_validate_echo_is_pinned(tmp_path, capsys, cfg, echo):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == echo


@pytest.mark.parametrize(
    "section, value, field",
    [
        ("uncertainty", {"sigma_sq": float("nan")}, "uncertainty.sigma_sq"),
        ("frequency_grid", {"stop_hz": float("inf")}, "frequency_grid.stop_hz"),
    ],
)
def test_nan_and_infinity_are_config_errors(tmp_path, capsys, section, value, field):
    path = small_config(tmp_path, **{section: value})
    assert "NaN" in path.read_text() or "Infinity" in path.read_text()
    assert main(["validate", str(path)]) == 1
    assert f"config error: {field}: must be a finite number" in capsys.readouterr().err


def test_map_resolution_must_divide_the_region(tmp_path, capsys):
    path = small_config(tmp_path, map={"resolution_m": 0.03})
    assert main(["map", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error: map: region x extent 1.0" in err
    assert "resolution 0.03" in err
    assert not (tmp_path / "out").exists()


def test_map_frequencies_must_not_share_a_file_tag(tmp_path, capsys):
    path = small_config(tmp_path, map={"frequencies_hz": [1000, 1000.0000001]})
    assert main(["map", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error: map.frequencies_hz: [1000.0, 1000.0000001]" in err
    assert "mono_1000hz" in err
    assert not (tmp_path / "out").exists()


def test_seed_override_out_of_range_is_a_config_error(tmp_path, capsys):
    path = small_config(tmp_path)
    assert main(["spectra", str(path), "--seed", str(2**63)]) == 1
    assert "config error: --seed: must be <" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b'{"scene": "\xff"}')
    assert main(["validate", str(path)]) == 1
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "spectra", "map"])
def test_config_path_with_a_nul_is_a_config_error(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    assert main([command, "a\0b"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: cannot read a\0b: embedded null byte"
    ]
    assert not list(tmp_path.iterdir())


# Runs ``pszsim.cli.main(argv)`` in a fresh interpreter and prints its exit
# code and the scipy modules it loaded; this process has scipy loaded already.
SCIPY_PROBE = """
import contextlib, io, json, sys
import pszsim.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = pszsim.cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def run_probe(probe, arg, cwd):
    """The JSON that ``probe`` prints when run with ``arg`` in a fresh interpreter."""
    done = run_python(["-c", probe, arg], cwd)
    done.check_returncode()
    return json.loads(done.stdout)


def test_smoothing_windows_of_plus_and_minus_inf_db_print_no_warning(tmp_path):
    # one trial at sigma^2 = 1 gives +-inf dB bins, and some 1/3-octave
    # windows hold both: they average to NaN, which a default-filtered
    # interpreter must not report on stderr
    path = small_config(tmp_path, modes=["xtc"], frequency_grid={"points_per_octave": 12},
                        uncertainty={"sigma_sq": 1.0, "trials": 1})
    done = run_python(["-c", CLI, "spectra", str(path)], tmp_path, PYTHONWARNINGS="default")
    assert (done.returncode, done.stderr) == (0, "")
    header, rows = read_csv(tmp_path / "out" / "spectra_xtc_centered_matched.csv")
    smoothed = rows[:, [i for i, name in enumerate(header) if name.endswith("_smooth_db")]]
    assert np.isnan(smoothed).any()


def scipy_modules_after(argv, cwd):
    return run_probe(SCIPY_PROBE, json.dumps(argv), cwd)


@pytest.mark.parametrize("argv, code", [
    (["validate", "CONFIG"], 0),
    (["template"], 0),
    (["--help"], 0),
    (["spectra", "missing.json"], 1),
], ids=["validate", "template", "help", "config_error"])
def test_start_up_and_config_exits_load_no_scipy(tmp_path, argv, code):
    config = str(small_config(tmp_path))
    argv = [config if a == "CONFIG" else a for a in argv]
    assert scipy_modules_after(argv, tmp_path) == [code, []]


@pytest.mark.parametrize("command", ["spectra", "map"])
def test_runs_load_scipy_lapack_extension_and_no_linalg_or_special_module(tmp_path, command):
    code, loaded = scipy_modules_after([command, str(small_config(tmp_path))], tmp_path)
    assert code == 0
    assert [m for m in loaded if m.split(".")[:2] in (["scipy", "linalg"], ["scipy", "special"])
            ] == ["scipy.linalg._flapack"]


# Runs a template-derived spectra in a fresh interpreter, recording the
# LAPACK routine solve_stack takes, then imports scipy.linalg and prints
# whether it reuses the loaded extension and hands out that same routine.
REUSE_PROBE = """
import contextlib, io, json, sys
import numpy as np
import pszsim.cli, pszsim.filter_design as fd
used = []
solver = fd._cholesky_solver
fd._cholesky_solver = lambda: used.append(solver()) or used[-1]
with contextlib.redirect_stdout(io.StringIO()):
    code = pszsim.cli.main(["spectra", sys.argv[1]])
loaded = sys.modules["scipy.linalg._flapack"]
import scipy.linalg
posv = used[0]
print(json.dumps([
    code, len(used) > 0, all(u is posv for u in used),
    sys.modules["scipy.linalg._flapack"] is loaded, scipy.linalg.lapack._flapack is loaded,
    loaded.zposv is posv, scipy.linalg.lapack.zposv is posv,
    scipy.linalg.get_lapack_funcs(("posv",), (np.eye(2, dtype=complex),)) == [posv],
]))
"""


def test_scipy_linalg_imported_after_a_run_reuses_its_lapack_routines(tmp_path):
    assert run_probe(REUSE_PROBE, str(small_config(tmp_path)), tmp_path) == [0] + [True] * 7


# Points scipy at an empty folder in a fresh interpreter and prints whether
# the extension got registered and the ImportError the solve's loader raises.
MISSING_PROBE = """
import json, sys
import scipy
scipy.__path__ = [sys.argv[1]]
from pszsim.filter_design import _cholesky_solver
try:
    _cholesky_solver()
except ImportError as exc:
    print(json.dumps(["scipy.linalg._flapack" in sys.modules, str(exc)]))
"""


def test_missing_lapack_extension_is_an_import_error_naming_its_folder(tmp_path):
    assert run_probe(MISSING_PROBE, str(tmp_path), tmp_path) == [
        False, f"no _flapack extension in {tmp_path / 'linalg'}"
    ]
