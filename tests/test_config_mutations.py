"""Seeded mutation test of config handling: a malformed config never raises.

Mutants of the built-in template and of a few variants go through
``pszsim validate``. Each must exit 0 or 1, never raise, and print at least
one ``config error:`` line when it exits 1. A handful of the mutants that
validate also run through reduced ``spectra`` and ``map`` runs, which may
exit 0 or 2 (numerical failure) but never raise.

The fixed cases are configs that ended in a traceback, or were silently
accepted, before the config format became one table of fields.

A sweep puts every numeric field of ``FIELDS`` at the float extremes and
runs each config through ``validate``, and through ``spectra`` and ``map``
when it validates and stays narrow, in one child process under an
address-space limit; the maps it writes are checked against cells
recomputed outside ``ipi_map``, and each spectra CSV must hold a row for
every grid frequency that was not skipped, in increasing order.

The mutants come from stdlib ``random`` with a fixed seed, so every run
checks the same configs.
"""

import contextlib
import copy
import io
import json
import math
import random
import resource
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pszsim.cli
from conftest import run_python
from pszsim.acoustics import response_matrix
from pszsim.cli import ConfigError, default_config_dict, main
from pszsim.config import FIELDS, _Invalid, map_tag, resolve_config
from pszsim.metrics import ipi_ratios, min_db
from pszsim.spatial_analysis import grid_shape

SEED = 2022
N_MUTANTS = 300
N_RUNS = 5

# values that no field, or only some fields, accept
ODD_VALUES = [
    "x", "", "auto", "A", 5, -1, 0, 2.5, 10**400, True, False, None,
    [], {}, [1, "a"], [[]], {"k": 1}, float("nan"), float("inf"), -float("inf"),
]
BOUND_PAIRS = [
    ("frequency_grid", "start_hz", "stop_hz"),
    ("map.region", "x_min", "x_max"),
    ("map.region", "y_min", "y_max"),
]


CUSTOM_SCENE = {
    "speakers": [[-0.3, 0.0, 0.0], [-0.1, 0.0, 0.0], [0.1, 0.0, 0.0], [0.3, 0.0, 0.0]],
    "control_points": [[-0.2, 1.0, 0.0], [0.2, 1.0, 0.0]],
    "zone_a": [1],
    "zone_b": [2],
    "program_a": [1],
    "program_b": [2],
    "virtual_sources": [1, 4],
}


def variants():
    """The template and variants that reach the fields it leaves out."""
    template = default_config_dict()
    split = copy.deepcopy(template)
    split["uncertainty"] = {"sigma_amp_sq": 2e-4, "sigma_phase_sq": 5e-5, "trials": 3}
    split["frequency_grid"] = {"start_hz": 100.0, "stop_hz": 2000.0, "step_hz": 50.0}
    table = copy.deepcopy(template)
    table["beta"] = {"frequencies_hz": [100.0, 1000.0], "values": [1e-3, 1e-4]}
    custom = copy.deepcopy(template)
    custom["scene"] = dict(copy.deepcopy(CUSTOM_SCENE), sound_speed=343.0)
    return [template, split, table, custom]


def reduced(cfg):
    """A config whose spectra and map runs take a few tens of milliseconds."""
    cfg = copy.deepcopy(cfg)
    cfg["frequency_grid"] = {"start_hz": 200.0, "stop_hz": 1600.0, "points_per_octave": 2}
    cfg["modes"] = ["mono"]
    cfg["listener_cases"] = [{"name": "moved", "listener": "B", "dx": 0.1, "dy": 0.0}]
    cfg["filter_positions"] = ["centered"]
    cfg["uncertainty"]["trials"] = 2
    cfg["map"].update(frequencies_hz=[500.0], resolution_m=0.1)
    return cfg


def nodes(tree, path=()):
    """(container, key, path) of every value in a JSON tree."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree)
    for key, value in items:
        yield tree, key, path + (key,)
        if isinstance(value, (dict, list)):
            yield from nodes(value, path + (key,))


def lookup(tree, dotted):
    for key in dotted.split("."):
        if not isinstance(tree, dict) or key not in tree:
            return None
        tree = tree[key]
    return tree


def mutate(cfg, rng):
    """Apply one random mutation to ``cfg`` in place; returns its description."""
    container, key, path = rng.choice(list(nodes(cfg)))
    value = container[key]
    op = rng.choice(["replace", "bool", "empty", "container", "swap", "unknown", "delete"])
    if op == "bool" and isinstance(value, int) and not isinstance(value, bool):
        container[key] = rng.choice([True, False])
    elif op == "empty" and isinstance(value, (list, dict)):
        container[key] = type(value)()
    elif op == "container" and isinstance(value, list):
        container[key] = rng.choice([{"0": value[0] if value else 1}, "mono", 1.0])
    elif op == "swap":
        section, low, high = rng.choice(BOUND_PAIRS)
        parent = lookup(cfg, section)
        if isinstance(parent, dict) and low in parent and high in parent:
            parent[low], parent[high] = parent[high], parent[low]
        return f"swap {section}.{low}/{high}"
    elif op == "unknown":
        dicts = [c for c, _, _ in nodes(cfg) if isinstance(c, dict)]
        target = rng.choice(dicts)
        target[rng.choice(["typo", "trial", "resolutionm", "Name", "start_Hz"])] = 1
        return "unknown key"
    elif op == "delete" and isinstance(container, dict):
        del container[key]
    else:
        container[key] = copy.deepcopy(rng.choice(ODD_VALUES))
        op = "replace"
    return f"{op} {'.'.join(map(str, path))}"


def mutants(count, bases, rng):
    for _ in range(count):
        cfg = copy.deepcopy(rng.choice(bases))
        steps = [mutate(cfg, rng) for _ in range(rng.choice([1, 1, 1, 2, 3]))]
        yield cfg, steps


def run(tmp_path, capsys, argv_head, cfg, steps):
    """Exit code of one CLI call on ``cfg``; fails the test if it raises."""
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(cfg))
    try:
        code = main([*argv_head, str(path)])
    except Exception as exc:  # any raise is the failure this test looks for
        pytest.fail(f"{argv_head[0]} raised {exc!r} after {steps}: {json.dumps(cfg)}")
    err = capsys.readouterr().err
    if code == 1:
        assert "config error: " in err, (steps, err)
    return code


def test_mutated_configs_validate_or_list_their_problems(tmp_path, capsys):
    rng = random.Random(SEED)
    codes = [
        run(tmp_path, capsys, ["validate"], cfg, steps)
        for cfg, steps in mutants(N_MUTANTS, variants(), rng)
    ]
    assert set(codes) == {0, 1}
    assert codes.count(1) > N_MUTANTS // 2  # most mutations break the config


def test_valid_mutants_run_or_fail_numerically(tmp_path, capsys):
    rng = random.Random(SEED + 1)
    bases = [reduced(cfg) for cfg in variants()]
    ran = 0
    for i, (cfg, steps) in enumerate(mutants(200, bases, rng)):
        if ran == N_RUNS or not isinstance(cfg.get("map"), dict):
            continue
        try:
            config = resolve_config(cfg)
        except ConfigError:
            continue
        # keep the file fast: skip mutants that restored a long default grid
        passes = len(config.frequencies) * len(config.modes) * len(config.cases)
        if passes * len(config.filter_positions) > 40 or config.map_request.resolution < 0.05:
            continue
        cfg["output_dir"] = str(tmp_path / f"out{i}")
        assert run(tmp_path, capsys, ["spectra"], cfg, steps) in (0, 2), steps
        assert run(tmp_path, capsys, ["map"], cfg, steps) in (0, 2), steps
        ran += 1
    assert ran == N_RUNS


def set_path(dotted, value):
    def edit(cfg):
        *parents, leaf = dotted.split(".")
        node = cfg
        for key in parents:
            node = node[key]
        node[leaf] = value

    return edit


FIXED = {
    "map frequency 'x'": (set_path("map.frequencies_hz", [500.0, "x"]), "map.frequencies_hz[1]"),
    "level 'x'": (set_path("map.levels_db", ["x"]), "map.levels_db[0]"),
    "cap_db 'x'": (set_path("map.cap_db", "x"), "map.cap_db"),
    "points_per_octave 'abc'": (
        set_path("frequency_grid.points_per_octave", "abc"), "frequency_grid.points_per_octave",
    ),
    "beta table of strings": (
        set_path("beta", {"frequencies_hz": [100.0, 1000.0], "values": ["a", "b"]}),
        "beta.values[0]",
    ),
    "resolution 0.03": (set_path("map.resolution_m", 0.03), "map: region x extent"),
    "start_hz 'x'": (set_path("frequency_grid.start_hz", "x"), "frequency_grid.start_hz"),
    "modes 5": (set_path("modes", 5), "modes"),
    "modes []": (set_path("modes", []), "modes"),
    "levels_db []": (set_path("map.levels_db", []), "map.levels_db"),
    "filter_positions [{}]": (set_path("filter_positions", [{}]), "filter_positions[0]"),
    "listener_cases 5": (set_path("listener_cases", 5), "listener_cases"),
    "output_dir 5": (set_path("output_dir", 5), "output_dir"),
    "output_dir ''": (set_path("output_dir", ""), "output_dir"),
    "output_dir with NUL": (set_path("output_dir", "a\0b"), "output_dir"),
    "stop_hz Infinity": (set_path("frequency_grid.stop_hz", float("inf")), "frequency_grid.stop_hz"),
    "sigma_sq NaN": (set_path("uncertainty.sigma_sq", float("nan")), "uncertainty.sigma_sq"),
    "trials 2.5": (set_path("uncertainty.trials", 2.5), "uncertainty.trials"),
    "trials true": (set_path("uncertainty.trials", True), "uncertainty.trials"),
    "uncertainty.trial typo": (set_path("uncertainty.trial", 3), "uncertainty.trial"),
    "map.resolutionm typo": (set_path("map.resolutionm", 0.05), "map.resolutionm"),
    "map file tag collision": (
        set_path("map.frequencies_hz", [1000, 1000.0000001]), "map.frequencies_hz",
    ),
    "sigma_sq with sigma_amp_sq": (
        set_path("uncertainty.sigma_amp_sq", 0.01),
        "uncertainty: give sigma_sq or sigma_amp_sq/sigma_phase_sq, not both",
    ),
    "step_hz with points_per_octave": (
        set_path("frequency_grid.step_hz", 5.0),
        "frequency_grid: give step_hz or points_per_octave, not both",
    ),
    "listener moved 1e200 m": (
        set_path("listener_cases", [{"name": "far", "listener": "A", "dx": 1e200}]),
        "listener_cases[0]: control point(s) [0, 1]: distance to a speaker overflows",
    ),
    "speaker at 1e200 m": (
        set_path("scene", dict(CUSTOM_SCENE, speakers=[[-0.3, 0.0, 0.0], [-0.1, 0.0, 0.0],
                                                        [0.1, 0.0, 0.0], [1e200, 0.0, 0.0]])),
        "scene: control point(s) [0, 1]: distance to a speaker overflows",
    ),
    "step_hz 1e-300": (
        set_path("frequency_grid", {"start_hz": 100.0, "stop_hz": 10000.0, "step_hz": 1e-300}),
        "frequency_grid: 9.9e+303 points",
    ),
    "step_hz 2.1e-15": (
        set_path("frequency_grid", {"start_hz": 100.0, "stop_hz": 10000.0, "step_hz": 2.1e-15}),
        "frequency_grid: 4.71e+18 points",
    ),
    "step_hz 1e-13": (  # 7.9e17 bytes: numpy allows them, no 64-bit address space holds them
        set_path("frequency_grid", {"start_hz": 100.0, "stop_hz": 10000.0, "step_hz": 1e-13}),
        "frequency_grid: 9.9e+16 points: Unable to allocate",
    ),
    "step_hz below one ulp of start_hz": (  # start + i * step rounds to 10 floats
        set_path("frequency_grid", {"start_hz": 1e6, "stop_hz": 1e6 + 1e-9, "step_hz": 1e-11}),
        "frequency_grid: 105 points hold only 10 distinct finite frequencies",
    ),
    "points_per_octave 1e17 over one ulp": (  # 2 ** (i / 1e17) rounds to 1 or its next float
        set_path("frequency_grid", {"start_hz": 100.0, "stop_hz": 100.00000000000003,
                                    "points_per_octave": 1e17}),
        "frequency_grid: 33 points hold only 2 distinct finite frequencies",
    ),
    "linear grid past the float maximum": (  # 3 steps of max / 3 round past it, to inf
        set_path("frequency_grid", {"start_hz": 1.0, "stop_hz": sys.float_info.max,
                                    "step_hz": sys.float_info.max / 3}),
        "frequency_grid: 4 points hold only 3 distinct finite frequencies",
    ),
    "points_per_octave 1e30": (
        set_path("frequency_grid.points_per_octave", 1e30), "frequency_grid: 6.64e+30 points",
    ),
    "map region 1e300 m wide": (
        set_path("map.region", {"x_min": 0.0, "x_max": 1e300, "y_min": 0.0, "y_max": 2.0}),
        "map: 5.05e+303 grid points",
    ),
    "map region 1e8 m tall": (  # a map's values need 2e19 bytes
        set_path("map.region", {"x_min": 0.0, "x_max": 1e7, "y_min": 0.0, "y_max": 1e8}),
        "map: 2.5e+18 grid points",
    ),
    "point not a triple": (
        set_path("scene", dict(CUSTOM_SCENE, control_points=[[-0.2, 1.0, 0.0], [0.2, 1.0]])),
        "scene.control_points[1]: must have 3 entries",
    ),
    "duplicate modes": (set_path("modes", ["mono", "xtc", "mono"]), "modes: duplicate"),
    "duplicate filter_positions": (
        set_path("filter_positions", ["matched", "matched"]), "filter_positions: duplicate",
    ),
    "duplicate listener case names": (
        set_path("listener_cases", [{"name": "c"}, {"name": "c"}]),
        "listener_cases[1].name: duplicate name 'c'",
    ),
    "beta table lengths differ": (
        set_path("beta", {"frequencies_hz": [100.0, 1000.0], "values": [1e-3]}),
        "beta: frequencies_hz and values must have the same length",
    ),
}


@pytest.mark.filterwarnings("error")  # a numpy warning would print more than the errors
@pytest.mark.parametrize("name", FIXED)
def test_fixed_malformed_config_exits_1_naming_the_field(tmp_path, capsys, name):
    edit, field = FIXED[name]
    cfg = default_config_dict()
    edit(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"config error: {field}" in err
    assert all(line.startswith("config error: ") for line in err.splitlines())


@pytest.mark.parametrize("root", [[], [{"scene": "default"}], "config", 5, None])
def test_config_root_that_is_not_an_object_exits_1(tmp_path, capsys, root):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(root))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == "config error: config root must be a JSON object\n"


XTC_LINE = "xtc needs one channel per zone point, got 2 channels for 3 points in zone A"
# zone A has 3 points but program A only 2 channels
UNEVEN_SCENE = dict(
    CUSTOM_SCENE,
    control_points=[[-0.3, 1.0, 0.0], [-0.2, 1.0, 0.0], [-0.1, 1.0, 0.0], [0.2, 1.0, 0.0]],
    zone_a=[1, 2, 3], zone_b=[4], program_a=[1, 2], program_b=[3], virtual_sources=[1, 2, 4],
)


def uneven_xtc_map(cfg):
    set_path("scene", UNEVEN_SCENE)(cfg)
    cfg["modes"] = ["mono"]
    cfg["map"]["mode"] = "xtc"


def each_command(code, line):
    return {command: (code, line) for command in ("validate", "spectra", "map")}


NARROW_GRID = {"start_hz": 1000.0, "stop_hz": 1100.0, "points_per_octave": 3}
OCTAVE_GRID = {"start_hz": 1000.0, "stop_hz": 2000.0, "points_per_octave": 12}


# Configs that validated and then ended in a traceback in spectra or map:
# name -> (edit, command -> (exit code, its one stderr line)); a command
# left out exits 0 and prints nothing to stderr.
RUN_FIXED = {
    "xtc with 2 channels for 3 points": (
        set_path("scene", UNEVEN_SCENE), each_command(1, f"config error: modes: {XTC_LINE}"),
    ),
    "xtc map with 2 channels for 3 points": (
        uneven_xtc_map, each_command(1, f"config error: map.mode: {XTC_LINE}"),
    ),
    "map region below one resolution step": (  # a 1 x 1 grid, whose value no block wrote
        lambda cfg: cfg["map"].update(resolution_m=1.0, region={
            "x_min": -0.5, "x_max": -0.4999999, "y_min": 1.0, "y_max": 1.0000001}),
        each_command(1, "config error: map: region x extent 1e-07 is below the resolution 1.0"),
    ),
    "stop_hz 5e-324": (  # stop / start underflows to 0, which has no log2
        set_path("frequency_grid.stop_hz", 5e-324),
        each_command(1, "config error: frequency_grid: stop_hz must exceed start_hz"),
    ),
    "frequency grid at 1e308 Hz": (
        set_path("frequency_grid", {"start_hz": 1e308, "stop_hz": 1.7e308}),
        {"spectra": (2, "runtime error: transfer functions overflow at 1e+308 Hz")},
    ),
    "sound_speed 1e-307": (
        set_path("scene", dict(CUSTOM_SCENE, sound_speed=1e-307)), {
            "spectra": (2, "runtime error: transfer functions overflow at 100 Hz"),
            "map": (2, "runtime error: transfer functions overflow at 500 Hz"),
        },
    ),
    "trials 2**62": (  # numpy: array is too big
        lambda cfg: cfg.update(frequency_grid=NARROW_GRID,
                               uncertainty={"sigma_sq": 1e-4, "trials": 2**62}),
        each_command(1, "config error: uncertainty.trials: 2.95e+20 normals per frequency, "
                        "too many for one array"),
    ),
    "trials at the float maximum": (  # its normals count overflowed a float as it printed
        lambda cfg: cfg.update(frequency_grid=NARROW_GRID,
                               uncertainty={"sigma_sq": 1e-4, "trials": sys.float_info.max}),
        each_command(1, "config error: uncertainty.trials: inf normals per frequency, "
                        "too many for one array"),
    ),
    "trials 10**15": (  # 455 PiB of normals, beyond any 64-bit address space
        lambda cfg: cfg.update(frequency_grid=NARROW_GRID,
                               uncertainty={"sigma_sq": 1e-4, "trials": 10**15}),
        {command: (2, f"runtime error: {command}: Unable to allocate 455. PiB for an array with "
                      "shape (1, 1000000000000000, 2, 4, 8) and data type float64")
         for command in ("spectra", "map")},
    ),
    "sigma_sq 1e308 with auto beta": (
        lambda cfg: cfg.update(frequency_grid=OCTAVE_GRID, uncertainty={"sigma_sq": 1e308}),
        each_command(1, "config error: beta: auto is 4 * 1e+308 = inf, not a finite number; "
                        "give beta a value"),
    ),
    "sigma_sq 1e308 with beta 1": (  # the normal matrices overflow
        lambda cfg: cfg.update(frequency_grid=OCTAVE_GRID,
                               uncertainty={"sigma_sq": 1e308, "trials": 1}, beta=1.0),
        {command: (2, "runtime error: mono filter design: array must not contain infs or NaNs")
         for command in ("spectra", "map")},
    ),
}


@pytest.mark.filterwarnings("error")  # a numpy warning would print more than the error
@pytest.mark.parametrize("command", ["validate", "spectra", "map"])
@pytest.mark.parametrize("name", RUN_FIXED)
def test_fixed_config_that_raised_in_a_run_prints_one_error_line(tmp_path, capsys, name,
                                                                 command):
    edit, expected = RUN_FIXED[name]
    cfg = default_config_dict()
    edit(cfg)
    cfg["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code, line = expected.get(command, (0, None))
    assert main([command, str(path)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == ([line] if line else [])
    # a failed run writes nothing, not even its directory
    assert (tmp_path / "out").exists() == (code == 0 and command != "validate")


# Every numeric field at the float extremes, each config through validate, and
# through spectra and map when it validates and stays as narrow as its base.
EXTREMES = [5e-324, -5e-324, 1e-300, -1e-300, 1e-12, 1e-6, 1e6, 1e12, 1e300,
            sys.float_info.max, -sys.float_info.max, 0.0, -0.0]
# the form of its section that a field needs, where the narrow base has another
FORMS = {
    "frequency_grid.step_hz": {"start_hz": 1000.0, "stop_hz": 2000.0, "step_hz": 500.0},
    "uncertainty.sigma_amp_sq": {"sigma_amp_sq": 1e-4, "sigma_phase_sq": 2e-4, "trials": 3},
    "uncertainty.sigma_phase_sq": {"sigma_amp_sq": 1e-4, "sigma_phase_sq": 2e-4, "trials": 3},
    "beta.frequencies_hz": {"frequencies_hz": [100.0, 10000.0], "values": [1e-3, 1e-4]},
    "beta.values": {"frequencies_hz": [100.0, 10000.0], "values": [1e-3, 1e-4]},
}
SWEEP_AS_BYTES = 2**30  # the sweep's address space: no config may take gigabytes of memory
SWEEP_CELLS = 3  # map cells recomputed per map file


def narrow_base():
    """The template on a custom scene, 3 frequencies and a 0.1 m map of 11 x 21 points."""
    cfg = default_config_dict()
    cfg["scene"] = dict(copy.deepcopy(CUSTOM_SCENE), sound_speed=343.0, piston_radius=0.05)
    cfg["frequency_grid"] = {"start_hz": 1000.0, "stop_hz": 2000.0, "points_per_octave": 2}
    cfg["uncertainty"]["trials"] = 3
    cfg["map"]["resolution_m"] = 0.1
    return cfg


def numeric_fields():
    """(path, sample) of each field of FIELDS whose kind takes a number, a
    list of numbers or a list of points, with the sample it takes."""
    for f in FIELDS:
        for sample in (1.0, [1.0], [[1.0, 1.0, 1.0]]):
            try:
                if f.kind is not None:
                    f.kind(copy.deepcopy(sample))
                    yield f.path, sample
                    break
            except _Invalid:
                pass


def extreme_configs():
    """(name, config) for each numeric field at each extreme: the field's
    number, its list's first entry or its first point's x; the last object
    of a list of objects."""
    for path, sample in numeric_fields():
        for value in EXTREMES:
            cfg = narrow_base()
            *parents, leaf = path.split(".")
            node = cfg
            for key in parents:
                node = node[key[:-2]][-1] if key.endswith("[]") else node[key]
            if path in FORMS:
                node = cfg[parents[0]] = copy.deepcopy(FORMS[path])
            if sample == 1.0:
                node[leaf] = value
            elif sample == [1.0]:
                node[leaf][0] = value
            else:
                node[leaf][0][0] = value
            yield f"{path}={value!r}", cfg


def is_narrow(config):
    """No more work than the narrow base: 3 frequencies, 3 trials, 3 maps of 231 points."""
    request = config.map_request
    nx, ny = grid_shape(request.region, request.resolution)
    return (len(config.frequencies) <= 3 and config.model.trials <= 3
            and len(request.frequencies) <= 3 and nx * ny <= 11 * 21)


def recompute_cells(captured, out_dir, cap_db):
    """Problems found by recomputing SWEEP_CELLS cells of each map CSV from the
    filters that ``ipi_map`` was given, outside ``ipi_map``."""
    problems = []
    (scene, filters, region, resolution, freqs, target, interferer), mode = captured
    nx, ny = grid_shape(region, resolution)
    flat = np.unique(np.linspace(0, nx * ny - 1, SWEEP_CELLS).astype(int))
    iy, ix = np.divmod(flat, nx)
    points = np.column_stack([region[0] + ix * resolution, region[2] + iy * resolution,
                              np.zeros(flat.size)])
    for f, c in zip(freqs, filters):
        rows = response_matrix(scene, points, [f]) @ c
        _, want = min_db(*ipi_ratios(rows[:, :, None, :], (0,), target, interferer))
        want = np.minimum(want[0], cap_db)
        lines = (out_dir / f"map_{map_tag(mode, f)}.csv").read_text().splitlines()
        got = [float(lines[1 + j].split(",")[2]) for j in flat]
        for j, g, w in zip(flat.tolist(), got, want.tolist()):
            same = (math.isnan(g) and math.isnan(w)) or math.isclose(g, w, rel_tol=1e-8,
                                                                     abs_tol=1e-9)
            if not same:
                problems.append(f"map at {f} Hz, cell {j}: {g} in the CSV, {w} recomputed")
    return problems


def check_spectra(out_dir, frequencies):
    """Problems found in the ``frequency_hz`` column of each spectra CSV: it must
    hold, in increasing order, every grid frequency that the manifest does not
    list as skipped; and the count of CSVs checked."""
    skipped = json.loads((out_dir / "manifest_spectra.json").read_text())["skipped_frequencies"]
    paths = sorted(out_dir.glob("spectra_*.csv"))
    problems = []
    for path in paths:
        key = path.stem.removeprefix("spectra_")
        gone = {entry["frequency_hz"] for entry in skipped.get(key, [])}
        want = [float(f"{f:.9g}") for f in frequencies if f not in gone]
        got = [float(line.partition(",")[0]) for line in path.read_text().splitlines()[1:]]
        if got != want or any(b <= a for a, b in zip(got, got[1:])):
            problems.append(f"{path.name}: frequency_hz {got}, want {want} in increasing order")
    return problems, len(paths)


def sweep(cases_path):
    """Run every (name, config) of ``cases_path``; print the problems found and
    the counts of configs validated and run, as one JSON object.

    validate must exit 0, or 1 with only ``config error:`` lines and no output
    directory; spectra and map, 0, or 2 with one ``runtime error:`` line.
    """
    resource.setrlimit(resource.RLIMIT_AS, (SWEEP_AS_BYTES, SWEEP_AS_BYTES))
    warnings.simplefilter("error", RuntimeWarning)  # a numpy warning fails the sweep
    ipi_map, captured = pszsim.cli.ipi_map, []

    def capturing_ipi_map(*args):
        captured.append(args)
        return ipi_map(*args)

    pszsim.cli.ipi_map = capturing_ipi_map
    problems, counts = [], {"validated": 0, "ran": 0, "recomputed": 0, "spectra_checked": 0}
    for i, (name, cfg) in enumerate(json.loads(Path(cases_path).read_text())):
        out_dir = Path(f"out{i}")
        cfg["output_dir"] = str(out_dir)
        Path("config.json").write_text(json.dumps(cfg))
        for command in ("validate", "spectra", "map"):
            captured.clear()
            err = io.StringIO()
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = pszsim.cli.main([command, "config.json"])
            except Exception as exc:  # any raise is a failure the sweep looks for
                problems.append(f"{name}: {command} raised {exc!r}")
                break
            # skipped frequencies print warning lines, whatever the exit code
            lines = [x for x in err.getvalue().splitlines() if not x.startswith("warning: ")]
            if command == "validate":
                if code == 1 and lines and all(x.startswith("config error: ") for x in lines):
                    if out_dir.exists():
                        problems.append(f"{name}: validate exited 1 and left {out_dir}")
                    break
                if code != 0 or lines or out_dir.exists():
                    problems.append(f"{name}: validate exited {code}: {lines}")
                    break
                counts["validated"] += 1
                config = resolve_config(cfg)
                if not is_narrow(config):
                    break
                counts["ran"] += 1
            elif code == 2 and len(lines) == 1 and lines[0].startswith("runtime error: "):
                continue
            elif code != 0 or lines:
                problems.append(f"{name}: {command} exited {code}: {lines}")
            elif command == "spectra":
                found, checked = check_spectra(out_dir, config.frequencies.tolist())
                problems += [f"{name}: {p}" for p in found]
                counts["spectra_checked"] += checked
            else:
                counts["recomputed"] += len(captured[0][1])
                problems += [f"{name}: {p}" for p in recompute_cells(
                    (captured[0], cfg["map"]["mode"]), out_dir, cfg["map"]["cap_db"])]
    print(json.dumps({"problems": problems, **counts}))


def test_every_numeric_field_at_the_float_extremes_runs_or_fails_cleanly(tmp_path):
    cases = list(extreme_configs())
    fields = {name.partition("=")[0] for name, _ in cases}
    assert len(cases) == len(fields) * len(EXTREMES)
    assert {"scene.speakers", "frequency_grid.step_hz", "beta", "beta.values",
            "listener_cases[].dx", "map.levels_db", "map.region.y_max"} <= fields
    (tmp_path / "cases.json").write_text(json.dumps(cases))
    # one child holds the sweep, under an address-space limit that acts on it alone
    done = run_python([__file__, "cases.json"], tmp_path, OPENBLAS_NUM_THREADS="1")
    assert done.returncode == 0 and not done.stderr, done.stderr
    result = json.loads(done.stdout)
    assert result["problems"] == []
    assert result["validated"] > len(cases) // 3
    assert result["ran"] > len(fields) * 3 and result["recomputed"] >= 3 * result["ran"] // 2
    assert result["spectra_checked"] >= result["ran"]


if __name__ == "__main__":
    sweep(sys.argv[1])
