"""Experiment runner: sweeps, maps, deterministic output.

Subcommands
-----------
template
    Print the default experiment configuration as JSON.
validate <config>
    Parse a config, fill defaults, report problems; prints the resolved
    configuration on success.
spectra <config>
    For every rendering mode, listener case and filter position, design
    filters from the design perturbation set, evaluate the system with
    the independent evaluation set and write raw plus 1/3-octave
    smoothed IZI/IPI spectra as CSV.
map <config>
    Evaluate single-point IPI maps at the requested frequencies, extract
    iso-level contours and write an area summary.

The config format is defined in :mod:`pszsim.config`. All randomness
flows from the seed in the config (overridable with --seed), and outputs
never embed timestamps, so identical inputs give byte-identical files.
A run builds its files in memory and ``_write_run`` writes all of them
or none: nothing if any of them exists, nothing on exit 2.
Exit codes: 0 success, 1 config or usage error, 2 runtime numerical
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .acoustics import response_matrix
from .config import ConfigError, ExperimentConfig, default_config_dict, load_config, map_tag
from .filter_design import RenderingMode, program_channels, solve_stack, target_stack
from .metrics import ipi_ratios, izi_ratios, min_db, smooth_db
from .perturbation import averaged_perturbed_stacks
from .spatial_analysis import extract_contours, ipi_map

_DESIGN_STREAM = "design"
_EVAL_STREAM = "eval"


def _design_filters(config: ExperimentConfig, key, h_design, modes, frequencies):
    """Filters of each of ``modes`` from the design-set transfer stack of the
    scene ``config.scenes[key]``: ``solve_stack``'s ([filters per mode], kept,
    failures).

    Raises RuntimeError naming the first mode if a normal matrix overflows.
    """
    targets = [target_stack(config.scenes[key], h_design, mode) for mode in modes]
    try:
        return solve_stack(h_design, targets, config.beta_at(frequencies), frequencies)
    except ValueError as exc:  # the checked inputs leave only a non-finite normal matrix
        raise RuntimeError(f"{modes[0].value} filter design: {exc}") from exc


def _perturbed_transfers(config: ExperimentConfig, streams: dict, freqs) -> dict:
    """(scene key, stream) -> averaged perturbed (F, K, L) transfer stack at ``freqs``.

    ``streams`` maps each stream to the keys in ``config.scenes`` of the
    scenes it perturbs. Each scene's nominal stack is computed once over all
    frequencies, and each stream's draws once for all of its scenes. Raises
    RuntimeError naming the first frequency at which a stack holds an inf
    or a NaN.
    """
    scenes, stacks = config.scenes, {}
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        nominal = {
            key: response_matrix(scenes[key], scenes[key].control_points, freqs)
            for key in dict.fromkeys(key for keys in streams.values() for key in keys)
        }
        for stream, keys in streams.items():
            perturbed = averaged_perturbed_stacks([nominal[k] for k in keys], freqs,
                                                  config.model, stream)
            stacks.update(((key, stream), h) for key, h in zip(keys, perturbed))
    finite = np.logical_and.reduce([np.isfinite(h).all(axis=(1, 2)) for h in stacks.values()])
    if not finite.all():
        raise RuntimeError(f"transfer functions overflow at {freqs[~finite][0]:.6g} Hz")
    return stacks


def _spectra_db(config: ExperimentConfig, mode: RenderingMode, m):
    """(..., 4, F) raw dB of IZI_A, IZI_B, IPI_A and IPI_B from (..., F, K, C) system
    stacks. The kernels reduce only trailing axes: each system keeps its own bits."""
    scene = config.scene
    prog_a, prog_b = program_channels(scene, mode)
    zone_a, zone_b = scene.zone_a, scene.zone_b
    ratios = (
        izi_ratios(m, zone_a, zone_b, prog_a),
        izi_ratios(m, zone_b, zone_a, prog_b),
        ipi_ratios(m, zone_a, prog_a, prog_b),
        ipi_ratios(m, zone_b, prog_b, prog_a),
    )
    return np.stack([min_db(corr, uncorr)[1] for corr, uncorr in ratios], axis=-2)


_SPECTRA_HEADER = ["frequency_hz"] + [
    f"{c}_{kind}db" for kind in ("", "smooth_") for c in ("izi_a", "izi_b", "ipi_a", "ipi_b")
]


def _csv_text(header, rows) -> str:
    # one "%.9g" template of all the rows (a 2-D array or row tuples), one %
    values = np.asarray(rows, dtype=float).ravel().tolist()
    line = ",".join(["%.9g"] * len(header)) + "\n"
    return ",".join(header) + "\n" + line * (len(values) // len(header)) % tuple(values)


_GRID = "\0grid"  # a grid's place in a payload; no config string holds a NUL


def _grid_seps(indent: int) -> tuple[str, str]:
    """What ``json.dumps(indent=2)`` writes between two numbers of a row and
    between two rows of a list of number lists on a line indented by ``indent``."""
    inner, deeper = " " * (indent + 2), " " * (indent + 4)
    return ",\n" + deeper, f"\n{inner}],\n{inner}[\n{deeper}"


def _json_text(payload, grids=()) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)`` and a newline, each
    ``_GRID`` in ``payload`` written as the next of ``grids``.

    A grid is a list of non-empty number lists, given as (indent, body): its
    placeholder line's indent, and its numbers' text ("%.9g"'s or ``repr``'s)
    joined by the two texts of ``_grid_seps(indent)``, nan as null and inf as
    Infinity; ``json``'s pure-Python encoder visits no number. Grids hold the
    only non-finite numbers of a run: a NaN elsewhere would be written as
    ``json`` writes it, NaN. ValueError if the ``_GRID`` count is not the
    grid count, or a grid's indent is not its placeholder's.
    """
    parts = (json.dumps(payload, indent=2, sort_keys=True) + "\n").split(json.dumps(_GRID))
    out = [parts[0]]
    for (indent, body), tail in zip(grids, parts[1:], strict=True):
        line = out[-1].rpartition("\n")[2]  # the placeholder's line up to it
        if len(line) - len(line.lstrip()) != indent:
            raise ValueError(f"a grid laid out at indent {indent} is on the line {line!r}")
        if "n" in body:  # nan, inf and -inf
            body = body.replace("nan", "null").replace("inf", "Infinity")
        pad = " " * indent
        out += ("[\n", pad, "  [\n", pad, "    ", body, "\n", pad, "  ]\n", pad, "]", tail)
    return "".join(out)


def _write_run(config: ExperimentConfig, command: str, files: dict[str, str],
               skipped) -> list[Path]:
    """Write ``files`` (name -> text) and the run's manifest into ``output_dir``:
    all of them or none.

    Nothing is written if any of the files exists. If a write fails, the
    files this run created are removed and a ConfigError names the file,
    or ``output_dir`` when the failure names none.
    """
    files[f"manifest_{command}.json"] = _json_text({
        "command": command,
        "config": config.echo,
        "outputs": sorted(files),
        "skipped_frequencies": skipped,
        "version": __version__,
    })
    try:
        config.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError([f"output_dir: cannot create {config.output_dir}: {exc.strerror}"])
    paths = [config.output_dir / name for name in files]
    taken = [f"output_dir: cannot write {p}: File exists" for p in paths if os.path.lexists(p)]
    if taken:
        raise ConfigError(taken)
    created = []
    try:
        for path, text in zip(paths, files.values()):
            with open(path, "x", encoding="utf-8") as fh:
                created.append(path)
                fh.write(text)
    except OSError as exc:
        for path in created:
            path.unlink(missing_ok=True)
        where = exc.filename or config.output_dir  # a failed flush names no file
        raise ConfigError([f"output_dir: cannot write {where}: {exc.strerror}"]) from exc
    return paths


def _report_skips(key: str, kept, failures, skipped_log: dict) -> None:
    """Warn about and log each skipped frequency of ``key``; RuntimeError if none is kept."""
    if failures:
        skipped_log[key] = [{"frequency_hz": f, "reason": reason} for f, reason in failures]
    for f, reason in failures:
        print(f"warning: {key}: skipped {f:.6g} Hz: {reason}", file=sys.stderr)
    if not kept.any():
        raise RuntimeError(f"{key}: every frequency failed to solve")


def run_spectra(config: ExperimentConfig) -> list[Path]:
    """Run all sweep combinations and write CSVs plus a manifest.

    The plan maps each combination to its system: (mode, design scene key,
    evaluation scene key), keys of ``config.scenes``. A ``matched`` filter
    is designed on its evaluation scene, a ``centered`` one on the base
    scene (key None). One pipeline over the whole frequency grid:
    every transfer stack and draw is computed once per run, and one design
    per design scene serves all modes. Each system is evaluated, smoothed
    and formatted once, and its text is written under every combination
    that shares it. The systems that kept the same frequencies are evaluated
    by one ``_spectra_db`` call per mode on their stacked (S, F_kept, K, C)
    system matrices and smoothed by one ``smooth_db`` call on their stacked
    (S, 4, F_kept) raw dB rows, which give each system the bits it gets alone.
    """
    freqs = config.frequencies
    plan = {
        f"{mode.value}_{name}_{strategy}":
            (mode, displacement if strategy == "matched" else None, displacement)
        for mode in config.modes
        for name, displacement in config.cases.items()
        for strategy in config.filter_positions
    }
    design_keys = list(dict.fromkeys(design for _, design, _ in plan.values()))
    h = _perturbed_transfers(config, {
        _DESIGN_STREAM: design_keys,
        _EVAL_STREAM: list(dict.fromkeys(evaluation for _, _, evaluation in plan.values())),
    }, freqs)
    designs = {key: _design_filters(config, key, h[key, _DESIGN_STREAM], config.modes, freqs)
               for key in design_keys}
    skipped_log: dict[str, list] = {}
    for key, (_, design, _) in plan.items():
        _report_skips(key, *designs[design][1:], skipped_log)
    # kept set -> mode -> its systems: one _spectra_db call per mode on the
    # systems' stacked M = H_eval C, one smooth_db call per kept set
    groups: dict[bytes, dict] = {}
    for system in dict.fromkeys(plan.values()):
        kept_set = designs[system[1]][1].tobytes()
        groups.setdefault(kept_set, {}).setdefault(system[0], []).append(system)
    texts = {}
    for by_mode in groups.values():
        systems = sum(by_mode.values(), [])
        kept = designs[systems[0][1]][1]
        raw = np.concatenate([_spectra_db(config, mode, np.stack(
            [h[evaluation, _EVAL_STREAM][kept] @ designs[design][0][config.modes.index(mode)]
             for _, design, evaluation in group])) for mode, group in by_mode.items()])
        for system, db, smooth in zip(systems, raw, smooth_db(freqs[kept], raw)):
            texts[system] = _csv_text(_SPECTRA_HEADER,
                                      np.column_stack([freqs[kept], db.T, smooth.T]))
    files = {f"spectra_{key}.csv": texts[system] for key, system in plan.items()}
    return _write_run(config, "spectra", files, skipped_log)


def _map_texts(maps, cap_db: float) -> list[tuple[str, str]]:
    """The ``map_*.csv`` and ``map_*.json`` texts of each of ``maps`` (one grid),
    capped at ``cap_db``. The CSV row templates format each x and y once; each
    value row is formatted once, at "%.9g", in the JSON layout of ``values_db``
    (a top-level key), and that text, split, fills its CSV row template."""
    xs = [f"{x:.9g}" for x in maps[0].x_coords().tolist()]
    templates = [tail.join(xs) + tail for tail in map(",{:.9g},%s\n".format,
                                                       maps[0].y_coords().tolist())]
    sep, row_sep = _grid_seps(2)
    row_format = sep.join(["%.9g"] * maps[0].nx)
    texts = []
    for m in maps:
        rows = [row_format % tuple(row) for row in np.minimum(m.values_db, cap_db).tolist()]
        csv_text = "x_m,y_m,ipi_db\n" + "".join(
            [template % tuple(row.split(sep)) for template, row in zip(templates, rows)])
        texts.append((csv_text, _json_text(
            {"frequency_hz": m.frequency, "x0_m": m.x0, "y0_m": m.y0, "spacing_m": m.spacing,
             "nx": m.nx, "ny": m.ny, "cap_db": cap_db, "values_db": _GRID},
            [(2, row_sep.join(rows))])))
    return texts


def run_map(config: ExperimentConfig) -> list[Path]:
    """Evaluate the configured IPI maps, contours and area summary.

    The filters come from the same perturbed design stack, design and skip
    reporting as ``run_spectra``'s, at the map frequencies.
    """
    request = config.map_request
    if request is None:
        raise ConfigError(["map: section required for the map command"])
    scene = config.scene
    prog_a, prog_b = program_channels(scene, request.mode)
    target, interferer = (prog_a, prog_b) if request.bright_zone == "A" else (prog_b, prog_a)

    freqs = np.array(request.frequencies)
    h = _perturbed_transfers(config, {_DESIGN_STREAM: [None]}, freqs)
    (filters,), kept, failures = _design_filters(
        config, None, h[None, _DESIGN_STREAM], [request.mode], freqs
    )
    skipped: dict[str, list] = {}
    _report_skips("map", kept, failures, skipped)

    maps = ipi_map(scene, filters, request.region, request.resolution, freqs[kept],
                   target, interferer)

    files: dict[str, str] = {}
    area_rows = []
    # a polyline's vertices in its layout as contours[i].polylines[j]
    sep, row_sep = _grid_seps(8)
    # the files are capped; the contours and area below use the untruncated values
    for m, texts in zip(maps, _map_texts(maps, request.cap_db)):
        tag = map_tag(request.mode.value, m.frequency)
        files[f"map_{tag}.csv"], files[f"map_{tag}.json"] = texts
        contour_sets = extract_contours(m, request.levels_db)
        files[f"contours_{tag}.json"] = _json_text({
            "frequency_hz": m.frequency,
            "contours": [{"level_db": cs.level_db, "polylines": [_GRID] * len(cs.polylines)}
                         for cs in contour_sets],
        }, [(8, row_sep.join([f"%r{sep}%r"] * len(line)) % tuple(line.ravel().tolist()))
            for cs in contour_sets for line in cs.polylines])
        area_rows += [(m.frequency, cs.level_db, cs.area_m2) for cs in contour_sets]

    files["area_summary.csv"] = _csv_text(["frequency_hz", "level_db", "area_m2"], area_rows)
    return _write_run(config, "map", files, skipped)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process for back-to-back ``main`` calls."""
    parser = argparse.ArgumentParser(
        prog="pszsim",
        description="Sound zone simulation: filter design, isolation metrics, maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("template", help="print the default experiment config")

    for name, help_text in (
        ("validate", "check a config file and print the resolved settings"),
        ("spectra", "run the isolation spectra sweeps"),
        ("map", "run the spatial IPI maps"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a JSON config file")
        if name != "validate":
            p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
            p.add_argument(
                "-o", "--output-dir", default=None, help="override the output directory"
            )
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # --help exits 0; a usage error exits 1, not argparse's 2
        return 1 if exc.code else 0

    if args.command == "template":
        print(json.dumps(default_config_dict(), indent=2))
        return 0

    try:
        if args.command == "validate":
            config = load_config(args.config)
            print(json.dumps(config.echo, indent=2, sort_keys=True))
            return 0
        config = load_config(args.config, args.seed, args.output_dir)
        if args.command == "spectra":
            outputs = run_spectra(config)
        else:
            outputs = run_map(config)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an array numpy allows but memory cannot hold
        print(f"runtime error: {args.command}: {exc}", file=sys.stderr)
        return 2

    for path in outputs:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
