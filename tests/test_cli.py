import collections
import errno
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pszsim.cli
import pszsim.filter_design
import pszsim.perturbation

from pszsim import ListenerDisplacement
from pszsim.cli import (
    ConfigError,
    default_config_dict,
    load_config,
    main,
    run_map,
    run_spectra,
)
from pszsim.config import log_frequency_grid, resolve_config
from pszsim.spatial_analysis import IpiMap, extract_contours
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


def test_log_frequency_grid():
    grid = log_frequency_grid(100.0, 10000.0, 48)
    assert len(grid) == 319
    assert grid[0] == 100.0
    assert grid[-1] <= 10000.0
    assert np.allclose(np.diff(np.log2(grid)), 1 / 48)


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
    # template: 2 scenes, 2 streams x 319 frequencies of keyed draws, and
    # 3 modes x 2 design scenes x 319 frequencies of designs; a draw is
    # counted by its key and a design by its LAPACK Cholesky factorization
    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    potrf, potrs = pszsim.filter_design._cholesky_routines()
    for module, name, label in (
        (pszsim.cli, "response_matrix", "transfers"),
        (pszsim.perturbation, "_key", "draws"),
    ):
        monkeypatch.setattr(module, name, counting(label, getattr(module, name)))
    monkeypatch.setattr(pszsim.filter_design, "_cholesky_routines",
                        lambda: (counting("factors", potrf), potrs))
    cfg = default_config_dict()
    cfg["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["spectra", str(path)]) == 0
    assert counts == {"transfers": 2, "draws": 2 * 319, "factors": 3 * 2 * 319}


def test_spectra_smooths_each_kept_set_once_against_the_mask_oracle(tmp_path, monkeypatch,
                                                                    capsys):
    # the template keeps every frequency, so all 12 combinations are smoothed
    # in one call; with each design dropping a frequency of its own, there
    # is one call per design, and every CSV's smoothed columns are still the
    # literal-mask oracle of that combination's own raw dB and frequencies
    smooth_calls, combos = [], []
    smooth_db, spectra_db = pszsim.cli.smooth_db, pszsim.cli._spectra_db
    report_skips, solve_stack = pszsim.cli._report_skips, pszsim.cli.solve_stack

    def counting_smooth(freqs, db):
        smooth_calls.append(db.shape)
        return smooth_db(freqs, db)

    def recording_skips(key, kept, failures, log):
        combos.append([key, kept.copy()])
        return report_skips(key, kept, failures, log)

    def recording_db(*args):
        combos[-1].append(spectra_db(*args))
        return combos[-1][-1]

    drops = itertools.count(3, 7)  # a frequency of its own for each design

    def dropping_solve(H, M_T, betas, frequencies):
        filters, kept, failures = solve_stack(H, M_T, betas, frequencies)
        assert kept.all() and not failures
        drop = next(drops)
        kept[drop] = False
        return (np.delete(filters, drop, axis=0), kept,
                [(float(frequencies[drop]), "dropped by the test")])

    for name, fn in (("smooth_db", counting_smooth), ("_report_skips", recording_skips),
                     ("_spectra_db", recording_db)):
        monkeypatch.setattr(pszsim.cli, name, fn)
    cfg = default_config_dict()
    freqs = log_frequency_grid(100.0, 10000.0, 48)
    for run, wrap in (("template", False), ("dropping", True)):
        if wrap:
            monkeypatch.setattr(pszsim.cli, "solve_stack", dropping_solve)
        smooth_calls.clear()
        combos.clear()
        cfg["output_dir"] = str(tmp_path / run)
        path = tmp_path / f"{run}.json"
        path.write_text(json.dumps(cfg))
        assert main(["spectra", str(path)]) == 0
        assert capsys.readouterr().err.count("dropped by the test") == 12 * wrap
        distinct = {kept.tobytes() for _, kept, _ in combos}
        assert len(combos) == 12 and len(smooth_calls) == len(distinct)
        # per mode, the centered design serves three combinations, a moved one one
        assert sorted(smooth_calls) == ([(1, 4, 318)] * 3 + [(3, 4, 318)] * 3 if wrap
                                        else [(12, 4, 319)])
        for key, kept, raw in combos:
            text = (tmp_path / run / f"spectra_{key}.csv").read_text().splitlines()[1:]
            assert len(text) == kept.sum() == 319 - wrap
            smoothed = np.array([smoothing_oracle(freqs[kept], row) for row in raw])
            for line, own in zip(text, smoothed.T):
                assert line.split(",")[5:] == [f"{x:.9g}" for x in own]


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


def map_payload(values):
    values = np.asarray(values, dtype=float)
    return pszsim.cli._map_payload(IpiMap(1000.0, -1.0, 0.0, 0.01, values), values, 40.0)


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


@pytest.mark.parametrize("name", JSON_PAYLOADS)
def test_json_writer_writes_the_text_of_json_dump(name):
    text = pszsim.cli._json_text(JSON_PAYLOADS[name]) + "\n"
    assert_same_lines(text, json_dump_text(JSON_PAYLOADS[name]))


def test_json_writer_writes_the_text_of_json_dump_for_every_file_of_a_run(tmp_path, monkeypatch):
    # beta 0 below 1 kHz skips frequencies, so both manifests list skips;
    # a call at indent "" is a whole file's payload, the others its parts
    payloads = []
    json_text = pszsim.cli._json_text

    def recording_json_text(value, indent=""):
        if indent == "":
            payloads.append(value)
        return json_text(value, indent)

    monkeypatch.setattr(pszsim.cli, "_json_text", recording_json_text)
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
    assert len(payloads) == len(files)
    assert sorted(p.read_text(encoding="utf-8") for p in files) == sorted(
        json_dump_text(payload) for payload in payloads)
    for payload in payloads:
        assert_same_lines(json_text(payload) + "\n", json_dump_text(payload))
        if "command" in payload:  # a manifest
            assert payload["skipped_frequencies"]


def test_map_csv_writer_formats_each_point_as_nine_significant_digits():
    for values in (np.array([EDGE_FLOATS[:7], EDGE_FLOATS[7:]]), np.array([[1.0, -0.0]]),
                   BIT_FLOATS):
        m = IpiMap(1000.0, -1.0, 0.0, 0.01, values)
        expected = ["x_m,y_m,ipi_db"] + [
            f"{x:.9g},{y:.9g},{v:.9g}"
            for y, row in zip(m.y_coords().tolist(), values.tolist())
            for x, v in zip(m.x_coords().tolist(), row)
        ]
        assert_same_lines(pszsim.cli._map_csv_text(m, values), "\n".join(expected) + "\n")


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
    assert config.cases[0].displacement == ListenerDisplacement("B", 0.1, 0.0)
    assert config.map_request.bright_zone == "B"
    assert config.echo["listener_cases"][0]["listener"] == "B"


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
    # contours and the area at 30 dB come from the untruncated map
    maps = []
    ipi_map = pszsim.cli.ipi_map

    def recording_ipi_map(*args):
        computed = ipi_map(*args)
        maps.extend(computed)
        return computed

    monkeypatch.setattr(pszsim.cli, "ipi_map", recording_ipi_map)
    config = load_config(str(small_config(tmp_path, map={"cap_db": 25.0})))
    run_map(config)
    (m,) = maps
    assert np.nanmax(m.values_db) > 30.0
    capped = np.minimum(m.values_db, 25.0)

    _, rows = read_csv(config.output_dir / "map_mono_500hz.csv")
    assert np.nanmax(rows[:, 2]) == 25.0
    assert np.allclose(rows[:, 2], capped.ravel(), rtol=1e-8, atol=0, equal_nan=True)
    grid = json.loads((config.output_dir / "map_mono_500hz.json").read_text())
    assert grid["cap_db"] == 25.0
    assert grid["values_db"] == [[None if np.isnan(v) else v for v in r] for r in capped.tolist()]

    contours = json.loads((config.output_dir / "contours_mono_500hz.json").read_text())
    at_30 = [c["polylines"] for c in contours["contours"] if c["level_db"] == 30.0][0]
    assert at_30 and at_30 == [line.tolist() for line in extract_contours(m, 30.0).polylines]
    _, areas = read_csv(config.output_dir / "area_summary.csv")
    assert areas[areas[:, 1] == 30.0][0, 2] > 0.0


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
    # 2e16 grid points pass the config's size check: numpy allows the 4.8e17
    # bytes of their coordinates, but no 64-bit address space holds them, so
    # the first grid array fails to allocate without touching memory
    path = small_config(tmp_path, map={"resolution_m": 1e-8})
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
    src = str(Path(pszsim.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", probe, arg],
        cwd=cwd, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


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
# routines solve_stack takes, then imports scipy.linalg and prints whether
# it reuses the loaded extension and hands out those same routines.
REUSE_PROBE = """
import contextlib, io, json, sys
import numpy as np
import pszsim.cli, pszsim.filter_design as fd
used = []
routines = fd._cholesky_routines
fd._cholesky_routines = lambda: used.append(routines()) or used[-1]
with contextlib.redirect_stdout(io.StringIO()):
    code = pszsim.cli.main(["spectra", sys.argv[1]])
loaded = sys.modules["scipy.linalg._flapack"]
import scipy.linalg
potrf, potrs = used[0]
print(json.dumps([
    code, len(used) > 0, all(u == used[0] for u in used),
    sys.modules["scipy.linalg._flapack"] is loaded, scipy.linalg.lapack._flapack is loaded,
    scipy.linalg.lapack.zpotrf is potrf, scipy.linalg.lapack.zpotrs is potrs,
    scipy.linalg.get_lapack_funcs(("potrf", "potrs"), (np.eye(2, dtype=complex),))
    == [potrf, potrs],
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
from pszsim.filter_design import _cholesky_routines
try:
    _cholesky_routines()
except ImportError as exc:
    print(json.dumps(["scipy.linalg._flapack" in sys.modules, str(exc)]))
"""


def test_missing_lapack_extension_is_an_import_error_naming_its_folder(tmp_path):
    assert run_probe(MISSING_PROBE, str(tmp_path), tmp_path) == [
        False, f"no _flapack extension in {tmp_path / 'linalg'}"
    ]
