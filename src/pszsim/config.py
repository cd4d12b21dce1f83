"""Experiment configuration: one table of fields is the config format.

Each entry of :data:`FIELDS` gives a dotted path, the kind of value it
takes (type and bounds), the value a missing key takes and, where it
differs, the value ``pszsim template`` prints. One walker over the table
prints the template, checks a raw config, collecting every problem and
rejecting unknown keys at every level, and fills in defaults. The filled
in result is the resolved echo that ``pszsim validate`` prints and that
every manifest embeds. A few checks that relate several fields run once
every field is well formed.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import sys
from dataclasses import dataclass
from itertools import pairwise
from pathlib import Path

import numpy as np

from .filter_design import RenderingMode, default_beta
from .perturbation import UncertaintyModel
from .scene import ListenerDisplacement, Scene, default_scene, move_listener
from .scene import validate as validate_scene
from .spatial_analysis import MAX_BYTES, grid_shape


class ConfigError(Exception):
    """Invalid configuration; ``problems`` lists human readable messages."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def map_tag(mode: str, frequency: float) -> str:
    """The tag in the file names of one map; no two map frequencies may share one."""
    return f"{mode}_{frequency:g}hz"


@dataclass(frozen=True)
class MapRequest:
    mode: RenderingMode
    bright_zone: str
    frequencies: tuple[float, ...]
    levels_db: tuple[float, ...]
    region: tuple[float, float, float, float]
    resolution: float
    cap_db: float


@dataclass(frozen=True)
class ExperimentConfig:
    """Each fact of a run, resolved once by :func:`resolve_config`: a grid
    ``start_hz + i * step_hz`` or ``start_hz * 2 ** (i / points_per_octave)``
    that strictly increases, and each listener case's name -> its scene key."""

    scenes: dict  # the scene of each listener displacement; None is the base scene
    frequencies: np.ndarray
    modes: tuple[RenderingMode, ...]
    model: UncertaintyModel
    beta_table: tuple[list, list]  # (frequencies, values), interpolated linearly
    cases: dict  # name -> ListenerDisplacement, None for the base scene
    filter_positions: tuple[str, ...]
    map_request: MapRequest | None
    output_dir: Path
    echo: dict  # the resolved config as `validate` prints it and manifests embed it

    @property
    def scene(self) -> Scene:
        return self.scenes[None]

    def beta_at(self, frequency):
        """beta at one frequency, as a float, or at an array of them, as an array."""
        beta = np.interp(frequency, *self.beta_table)
        return float(beta) if np.ndim(beta) == 0 else beta


class _Invalid(Exception):
    """A value of the wrong type or out of bounds; ``at`` locates it in a list."""

    def __init__(self, message: str, at: str = ""):
        super().__init__(message)
        self.at = at


_MAX = sys.float_info.max


def _number(gt=None, ge=None, lt=None, integer=False):
    """A finite JSON number (not a bool) as float; with ``integer``, one
    without a fractional part, as int."""

    def check(v):
        # abs(v) <= max is false for NaN, the infinities and ints too big for a float
        finite = not isinstance(v, bool) and isinstance(v, (int, float)) and abs(v) <= _MAX
        if integer and not (finite and float(v).is_integer()):
            raise _Invalid(f"must be an integer, got {v!r}")
        if not finite:
            raise _Invalid(f"must be a finite number, got {v!r}")
        if gt is not None and not v > gt:
            raise _Invalid(f"must be > {gt}, got {v!r}")
        if ge is not None and not v >= ge:
            raise _Invalid(f"must be >= {ge}, got {v!r}")
        if lt is not None and not v < lt:
            raise _Invalid(f"must be < {lt}, got {v!r}")
        return int(v) if integer else float(v)

    return check


def _path(v):
    if not isinstance(v, str) or not v or "\0" in v:
        raise _Invalid(f"must be a non-empty string without NUL, got {v!r}")
    return v


def _case_name(v):
    # names become part of output file names
    if not isinstance(v, str) or not v or not all(c.isalnum() or c in "_-" for c in v):
        raise _Invalid(f"use letters, digits, '-' or '_', got {v!r}")
    return v


def _choice(*options, fold_case=False):
    """One of ``options``; with ``fold_case`` a string matches in any case."""

    def check(v):
        key = v.upper() if fold_case and isinstance(v, str) else v
        if key not in options:
            raise _Invalid(f"must be one of {', '.join(options)}, got {v!r}")
        return key

    return check


def _list(item, length=None, unique=False):
    """A non-empty list whose entries ``item`` checks."""

    def check(v):
        if not isinstance(v, list) or not v:
            raise _Invalid(f"must be a non-empty list, got {v!r}")
        if length is not None and len(v) != length:
            raise _Invalid(f"must have {length} entries, got {v!r}")
        out = []
        for i, entry in enumerate(v):
            try:
                out.append(item(entry))
            except _Invalid as exc:
                raise _Invalid(str(exc), f"[{i}]{exc.at}") from None
        if unique and len(set(out)) != len(out):
            raise _Invalid(f"duplicate entries in {v!r}")
        return out

    return check


_REQUIRED, _ABSENT, _AS_DEFAULT = object(), object(), object()


@dataclass(frozen=True)
class _Field:
    path: str  # dotted; "x[]" stands for each item of the list of objects x
    kind: object  # checks and normalizes a value; None: only an object is allowed
    default: object = _REQUIRED  # what a missing key means; _ABSENT leaves it out
    template: object = _AS_DEFAULT  # what `pszsim template` prints


# A default or template of {} stands for the object of the fields under it.
# An object field also takes its default ("default", "auto", null) as written.
_MODES = tuple(m.value for m in RenderingMode)
_POINTS = _list(_list(_number(), length=3))  # [x, y, z] in meters
_INDICES = _list(_number(integer=True))  # 1-based; range-checked by scene.validate
_ZONE = _choice("A", "B", fold_case=True)

FIELDS = (
    _Field("scene", None, "default"),
    _Field("scene.speakers", _POINTS),
    _Field("scene.control_points", _POINTS),
    _Field("scene.zone_a", _INDICES),
    _Field("scene.zone_b", _INDICES),
    _Field("scene.program_a", _INDICES),
    _Field("scene.program_b", _INDICES),
    _Field("scene.virtual_sources", _INDICES),
    _Field("scene.sound_speed", _number(gt=0), Scene.sound_speed),
    _Field("scene.piston_radius", _number(gt=0), Scene.piston_radius),
    _Field("frequency_grid", None, {}),
    _Field("frequency_grid.start_hz", _number(gt=0), 100.0),
    _Field("frequency_grid.stop_hz", _number(gt=0), 10000.0),
    _Field("frequency_grid.points_per_octave", _number(ge=1, integer=True), 48),
    _Field("frequency_grid.step_hz", _number(gt=0), _ABSENT),  # a linear grid instead
    _Field("modes", _list(_choice(*_MODES), unique=True), list(_MODES)),
    _Field("uncertainty", None, {}),
    _Field("uncertainty.sigma_sq", _number(ge=0), _ABSENT, 1e-4),  # sets both below
    _Field("uncertainty.sigma_amp_sq", _number(ge=0), 0.0, _ABSENT),
    _Field("uncertainty.sigma_phase_sq", _number(ge=0), 0.0, _ABSENT),
    _Field("uncertainty.trials", _number(ge=1, integer=True), UncertaintyModel.trials, 10),
    _Field("uncertainty.seed", _number(ge=-(2**63), lt=2**63, integer=True), UncertaintyModel.seed),
    _Field("beta", _number(ge=0), "auto"),
    _Field("beta.frequencies_hz", _list(_number())),
    _Field("beta.values", _list(_number(ge=0))),
    _Field(
        "listener_cases", None, [{"name": "centered"}],
        [{"name": "centered"}, {"name": "moved_a", "listener": "A", "dx": -0.3, "dy": -0.2}],
    ),
    _Field("listener_cases[].name", _case_name),
    _Field("listener_cases[].listener", _ZONE, _ABSENT),
    _Field("listener_cases[].dx", _number(), 0.0),
    _Field("listener_cases[].dy", _number(), 0.0),
    _Field(
        "filter_positions", _list(_choice("matched", "centered"), unique=True),
        ["matched", "centered"],
    ),
    _Field("map", None, None, {}),
    _Field("map.mode", _choice(*_MODES), "mono"),
    _Field("map.bright_zone", _ZONE, "A"),
    _Field("map.frequencies_hz", _list(_number(gt=0)), _REQUIRED, [500.0, 1000.0, 2000.0]),
    _Field("map.levels_db", _list(_number()), _REQUIRED, [20.0, 30.0]),
    _Field("map.region", None, {}),
    _Field("map.region.x_min", _number(), _REQUIRED, -1.0),
    _Field("map.region.x_max", _number(), _REQUIRED, 0.0),
    _Field("map.region.y_min", _number(), _REQUIRED, 0.0),
    _Field("map.region.y_max", _number(), _REQUIRED, 2.0),
    _Field("map.resolution_m", _number(gt=0), 0.02),
    _Field("map.cap_db", _number(), 40.0),
    _Field("output_dir", _path, "results"),
)


@functools.cache
def _fields(prefix: str) -> dict[str, _Field]:
    """The fields of the object at ``prefix`` ("" for the top level) by name."""
    return {f.path.rpartition(".")[2]: f for f in FIELDS if f.path.rpartition(".")[0] == prefix}


def _template(prefix: str) -> dict:
    out = {}
    for name, f in _fields(prefix).items():
        value = f.default if f.template is _AS_DEFAULT else f.template
        if value is not _ABSENT:
            out[name] = _template(f.path) if value == {} else copy.deepcopy(value)
    return out


def _walk(prefix: str, raw: dict, where: str, problems: list[str]) -> dict:
    """``raw`` checked against the fields under ``prefix``, with defaults filled in."""
    fields = _fields(prefix)
    problems += [f"{where}{key}: unknown config key" for key in raw if key not in fields]
    out = {}
    for name, f in fields.items():
        value = _check(f, raw.get(name, f.default), where + name, problems)
        if value is not _ABSENT:
            out[name] = value
    return out


def _check(f: _Field, value, where: str, problems: list[str]):
    """The checked value of one field; _ABSENT if it is left out or has a problem."""
    if value is _ABSENT:
        return value
    items = f.path + "[]"
    try:
        if value is _REQUIRED:
            raise _Invalid("required")
        if _fields(f.path):
            if isinstance(value, dict):
                return _walk(f.path, value, where + ".", problems)
            if value == f.default:  # "default", "auto" or null in place of an object
                return value
        if _fields(items):
            if not (isinstance(value, list) and value and all(isinstance(x, dict) for x in value)):
                raise _Invalid(f"must be a non-empty list of objects, got {value!r}")
            return [_walk(items, item, f"{where}[{i}].", problems) for i, item in enumerate(value)]
        if f.kind is None:
            raise _Invalid(f"must be an object, got {value!r}")
        return f.kind(value)
    except _Invalid as exc:
        problems.append(f"{where}{exc.at}: {exc}")
        return _ABSENT


def default_config_dict() -> dict:
    """The built-in experiment template as a plain dict."""
    return _template("")


def _build_scene(spec) -> Scene:
    if spec == "default":
        return default_scene()
    # config files use 1-based indices; convert at this boundary
    return Scene(
        speakers=spec["speakers"],
        control_points=spec["control_points"],
        zone_a=tuple(i - 1 for i in spec["zone_a"]),
        zone_b=tuple(i - 1 for i in spec["zone_b"]),
        program_a=tuple(i - 1 for i in spec["program_a"]),
        program_b=tuple(i - 1 for i in spec["program_b"]),
        virtual_source_map=tuple(i - 1 for i in spec["virtual_sources"]),
        sound_speed=spec["sound_speed"],
        piston_radius=spec["piston_radius"],
    )


def resolve_config(raw: dict, seed_override: int | None = None,
                   output_override: str | None = None) -> ExperimentConfig:
    """Check against FIELDS and the cross-field rules, fill defaults, build the
    grid from one point count; raises ConfigError listing every problem."""
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a JSON object"])
    problems: list[str] = []
    echo = _walk("", raw, "", problems)
    # the walk fills in defaults, so the form a config chose shows only in its raw keys
    for section, key, others in (("uncertainty", "sigma_sq", ("sigma_amp_sq", "sigma_phase_sq")),
                                 ("frequency_grid", "step_hz", ("points_per_octave",))):
        given = raw.get(section)
        if isinstance(given, dict) and key in given and any(k in given for k in others):
            problems.append(f"{section}: give {key} or {'/'.join(others)}, not both")
    if problems:
        raise ConfigError(problems)

    grid, model, request = echo["frequency_grid"], echo["uncertainty"], echo["map"]
    start, stop, step = grid["start_hz"], grid["stop_hz"], grid.get("step_hz")
    if stop <= start:  # checked before the log2 below: stop / start may underflow to 0
        problems.append("frequency_grid: stop_hz must exceed start_hz")
    else:
        points = ((stop - start) / step if step
                  else grid["points_per_octave"] * math.log2(stop / start))
        if (points + 1) * 8 > MAX_BYTES:  # counted before numpy is asked for the float64 grid
            problems.append(f"frequency_grid: {points:.3g} points, too many for one array")
        else:
            if step:
                del grid["points_per_octave"]
            try:  # the points up to the stop plus 1e-9 of a step: an on-grid stop stays
                i = np.arange(math.floor(points + 1e-9) + 1, dtype=float)
                with np.errstate(over="ignore"):  # a point past the float maximum is inf
                    frequencies = (start + step * i if step
                                   else start * 2.0 ** (i / grid["points_per_octave"]))
            except MemoryError as exc:  # a grid numpy allows but memory cannot hold
                problems.append(f"frequency_grid: {points:.3g} points: {exc}")
            else:  # a step below one ulp repeats points
                if not (frequencies[1:] > frequencies[:-1]).all() or frequencies[-1] == np.inf:
                    distinct = len(np.unique(frequencies[frequencies < np.inf]))
                    problems.append(f"frequency_grid: {len(frequencies)} points hold only "
                                    f"{distinct} distinct finite frequencies")
    if seed_override is not None:
        seed = _fields("uncertainty")["seed"]
        model["seed"] = _check(seed, seed_override, "--seed", problems)
    if output_override is not None:
        output_dir = _fields("")["output_dir"]
        echo["output_dir"] = _check(output_dir, output_override, "-o", problems)
    if "sigma_sq" in model:
        model["sigma_amp_sq"] = model["sigma_phase_sq"] = model.pop("sigma_sq")
    scene = _build_scene(echo["scene"])
    # a frequency's (trials, amplitude and phase, K, L) float64 normals are one array;
    # counted as a float, which prints as inf where an int would not convert to one
    normals = float(model["trials"]) * 2 * scene.n_points * scene.n_speakers
    if normals * 8 > MAX_BYTES:
        problems.append(f"uncertainty.trials: {normals:.3g} normals per frequency, "
                        "too many for one array")
    beta = echo["beta"]
    if beta == "auto":
        sigma_sq = max(model["sigma_amp_sq"], model["sigma_phase_sq"])
        beta = default_beta(scene.n_points, sigma_sq)
        if not math.isfinite(beta):
            problems.append(f"beta: auto is {scene.n_points} * {sigma_sq:.6g} = {beta}, "
                            "not a finite number; give beta a value")
    beta_table = [0.0], [beta]  # a number is a one-point table
    if isinstance(beta, dict):
        beta_table = freqs, values = beta["frequencies_hz"], beta["values"]
        if len(freqs) != len(values):
            problems.append("beta: frequencies_hz and values must have the same length")
        if any(b <= a for a, b in pairwise(freqs)):
            problems.append(f"beta.frequencies_hz: must increase, got {freqs}")
    cases, moves = {}, []  # moves: (index, displacement) of each case that moves a listener
    for i, case in enumerate(echo["listener_cases"]):
        displacement = None
        if "listener" in case:
            displacement = ListenerDisplacement(case["listener"], case["dx"], case["dy"])
            moves.append((i, displacement))
        else:  # an offset without a listener moves nobody
            del case["dx"], case["dy"]
        if case["name"] in cases:
            problems.append(f"listener_cases[{i}].name: duplicate name {case['name']!r}")
        cases[case["name"]] = displacement
    violations = validate_scene(scene)
    # xtc cancels each channel at the zone's other points: one channel per point
    uneven = [f"xtc needs one channel per zone point, got {len(channels)} channels for "
              f"{len(zone)} points in zone {z}" for z, zone, channels in
              (("A", scene.zone_a, scene.program_a), ("B", scene.zone_b, scene.program_b))
              if len(channels) != len(zone)]
    problems += [f"modes: {x}" for x in uneven if "xtc" in echo["modes"]]
    problems += [f"scene: {violation}" for violation in violations]
    # a moved listener may land an ear on a speaker; a moved copy of an
    # invalid scene would only repeat its violations
    scenes = {None: scene}
    if not violations:
        for i, displacement in moves:
            moved = scenes[displacement] = move_listener(scene, displacement)
            problems += [f"listener_cases[{i}]: {v}" for v in validate_scene(moved)]
    map_request = None
    if request is None:
        del echo["map"]
    else:
        region = tuple(request["region"][k] for k in ("x_min", "x_max", "y_min", "y_max"))
        try:
            grid_shape(region, request["resolution_m"])
        except ValueError as exc:
            problems.append(f"map: {exc}")
        problems += [f"map.mode: {x}" for x in uneven if request["mode"] == "xtc"]
        tags = [map_tag(request["mode"], f) for f in request["frequencies_hz"]]
        for tag in sorted({t for t in tags if tags.count(t) > 1}):
            shared = [f for f, t in zip(request["frequencies_hz"], tags) if t == tag]
            problems.append(f"map.frequencies_hz: {shared} share the file tag {tag!r}")
        map_request = MapRequest(
            RenderingMode(request["mode"]), request["bright_zone"],
            tuple(request["frequencies_hz"]), tuple(request["levels_db"]),
            region, request["resolution_m"], request["cap_db"],
        )
    if problems:
        raise ConfigError(problems)

    echo["scene"] = raw.get("scene", "default")  # a custom scene is echoed as written
    echo["output_dir"] = str(Path(echo["output_dir"]))
    config = ExperimentConfig(
        scenes=scenes,
        frequencies=frequencies,
        modes=tuple(RenderingMode(mode) for mode in echo["modes"]),
        model=UncertaintyModel(**model),
        beta_table=beta_table,
        cases=cases,
        filter_positions=tuple(echo["filter_positions"]),
        map_request=map_request,
        output_dir=Path(echo["output_dir"]),
        echo=echo,
    )
    echo["beta_resolved_hint"] = config.beta_at(float(frequencies[0]))
    return config


def load_config(path: str, seed_override=None, output_override=None) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc.strerror or exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"]) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError([f"{path}: not UTF-8 text: {exc.reason}"]) from exc
    except ValueError as exc:  # open's, for a path with a NUL byte
        raise ConfigError([f"cannot read {path}: {exc}"]) from exc
    return resolve_config(raw, seed_override, output_override)
