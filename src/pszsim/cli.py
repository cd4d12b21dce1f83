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
import json
import os
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .acoustics import response_matrix
from .config import (
    ConfigError,
    ExperimentConfig,
    ListenerCase,
    default_config_dict,
    load_config,
    map_tag,
)
from .filter_design import RenderingMode, program_channels, solve_stack, target_stack
from .metrics import ipi_ratios, izi_ratios, min_db, smooth_db
from .perturbation import averaged_perturbed_stacks
from .scene import Scene
from .spatial_analysis import extract_contours, ipi_map

_DESIGN_STREAM = "design"
_EVAL_STREAM = "eval"


def _design_filters(config: ExperimentConfig, scene: Scene, h_design, mode: RenderingMode,
                    frequencies):
    """Filters from the design-set transfer stack: ``solve_stack``'s (filters, kept, failures)."""
    target = target_stack(scene, h_design, mode)
    return solve_stack(h_design, target, config.beta_at(frequencies), frequencies)


def _perturbed_transfers(config: ExperimentConfig, scenes: dict, streams: dict, freqs) -> dict:
    """(scene key, stream) -> averaged perturbed (F, K, L) transfer stack at ``freqs``.

    ``streams`` maps each stream to the keys of the scenes it perturbs. Each
    scene's nominal stack is computed once over all frequencies, and each
    stream's draws once for all of its scenes. Raises RuntimeError naming
    the first frequency at which a stack holds an inf or a NaN.
    """
    stacks = {}
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


def _spectra_db(scene: Scene, mode: RenderingMode, m):
    """(4, F) raw dB of IZI_A, IZI_B, IPI_A and IPI_B from an (F, K, C) system stack."""
    prog_a, prog_b = program_channels(scene, mode)
    zone_a, zone_b = scene.zone_a, scene.zone_b
    ratios = (
        izi_ratios(m, zone_a, zone_b, prog_a),
        izi_ratios(m, zone_b, zone_a, prog_b),
        ipi_ratios(m, zone_a, prog_a, prog_b),
        ipi_ratios(m, zone_b, prog_b, prog_a),
    )
    return np.array([min_db(corr, uncorr)[1] for corr, uncorr in ratios])


_SPECTRA_HEADER = ["frequency_hz"] + [
    f"{c}_{kind}db" for kind in ("", "smooth_") for c in ("izi_a", "izi_b", "ipi_a", "ipi_b")
]


def _csv_text(header, rows) -> str:
    # one "%.9g" template formats a whole row
    line = ",".join(["%.9g"] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join(line % tuple(row) for row in rows)


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` nested at ``indent``, NaN as null.

    With ``indent`` set, ``json`` encodes in pure Python, one value at a
    time. Here a list of non-empty lists of numbers (map rows, polyline
    vertices) is formatted by one C-level ``repr``, whose numbers are
    ``json``'s text, and re-indented by ``str.replace``.
    """
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{json.dumps(k)}: {_json_text(v, inner)}" for k, v in sorted(value.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if not isinstance(value, (list, tuple)):
        return "null" if value != value else json.dumps(value)  # NaN is the only x != x
    if not value:
        return "[]"
    # exact types: a bool is an int, but repr writes True where json writes true
    if set(map(type, value)) == {list} and all(value) and {int, float}.issuperset(
            map(type, chain.from_iterable(value))):
        # "[[a, b], [c, d]]": rows end at "], [", numbers within a row at ", "
        deeper = inner + "  "
        text = repr(value)[2:-2].replace("], [", f"\n{inner}],\n{inner}[\n{deeper}")
        text = text.replace(", ", ",\n" + deeper)
        if "n" in text:  # repr writes nan, inf and -inf; json writes Infinity and -Infinity
            text = text.replace("nan", "null").replace("inf", "Infinity")
        return f"[\n{inner}[\n{deeper}{text}\n{inner}]\n{indent}]"
    items = [_json_text(v, inner) for v in value]
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


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
    }) + "\n"
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

    One pipeline over the whole frequency grid: every transfer stack,
    draw and design is computed once per run and shared by the
    combinations that use it. The combinations that kept the same
    frequencies are smoothed by one ``smooth_db`` call on their stacked
    (4, F_kept) raw dB rows, which gives each row the bits it gets alone.
    """
    scenes, freqs = config.scenes, config.frequencies

    def design_key(case: ListenerCase, strategy: str):
        return case.displacement if strategy == "matched" else None

    combos = [
        (mode, case, strategy)
        for mode in config.modes
        for case in config.cases
        for strategy in config.filter_positions
    ]
    h = _perturbed_transfers(config, scenes, {
        _DESIGN_STREAM: list(dict.fromkeys(design_key(c, s) for _, c, s in combos)),
        _EVAL_STREAM: list(dict.fromkeys(c.displacement for c in config.cases)),
    }, freqs)
    designs = {}
    raw = {}  # combination key -> (kept mask, (4, F_kept) raw dB)
    skipped_log: dict[str, list] = {}
    for mode, case, strategy in combos:
        scene_key = design_key(case, strategy)
        if (mode, scene_key) not in designs:
            designs[mode, scene_key] = _design_filters(
                config, scenes[scene_key], h[scene_key, _DESIGN_STREAM], mode, freqs
            )
        filters, kept, failures = designs[mode, scene_key]
        key = f"{mode.value}_{case.name}_{strategy}"
        _report_skips(key, kept, failures, skipped_log)
        m = h[case.displacement, _EVAL_STREAM][kept] @ filters
        raw[key] = kept, _spectra_db(config.scene, mode, m)
    # one smooth_db call per set of kept frequencies
    groups: dict[bytes, list[str]] = {}
    for key, (kept, _) in raw.items():
        groups.setdefault(kept.tobytes(), []).append(key)
    smooth = {}
    for keys in groups.values():
        kept = raw[keys[0]][0]
        smooth.update(zip(keys, smooth_db(freqs[kept], np.stack([raw[k][1] for k in keys]))))
    files = {
        f"spectra_{key}.csv": _csv_text(_SPECTRA_HEADER, np.column_stack(
            [freqs[kept], db.T, smooth[key].T]).tolist())
        for key, (kept, db) in raw.items()
    }
    return _write_run(config, "spectra", files, skipped_log)


def _map_csv_text(m, values) -> str:
    # one template per map formats each x once; a row fills it with one % as
    # (y, v0, y, v1, ...), the y text and "%.9g" for each value
    row_text = "".join(f"{x:.9g},%s,%.9g\n" for x in m.x_coords().tolist())
    args = [None] * (2 * m.nx)
    lines = ["x_m,y_m,ipi_db\n"]
    for y, row in zip(m.y_coords().tolist(), values.tolist()):
        args[::2] = [f"{y:.9g}"] * m.nx
        args[1::2] = row
        lines.append(row_text % tuple(args))
    return "".join(lines)


def _map_payload(m, values, cap_db: float) -> dict:
    return {
        "frequency_hz": m.frequency,
        "x0_m": m.x0,
        "y0_m": m.y0,
        "spacing_m": m.spacing,
        "nx": m.nx,
        "ny": m.ny,
        "cap_db": cap_db,
        "values_db": values.tolist(),
    }


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
    h = _perturbed_transfers(config, {None: scene}, {_DESIGN_STREAM: [None]}, freqs)
    filters, kept, failures = _design_filters(
        config, scene, h[None, _DESIGN_STREAM], request.mode, freqs
    )
    skipped: dict[str, list] = {}
    _report_skips("map", kept, failures, skipped)

    try:
        maps = ipi_map(scene, filters, request.region, request.resolution, freqs[kept],
                       target, interferer)
    except MemoryError as exc:  # a grid numpy allows but memory cannot hold
        raise RuntimeError(f"map: {exc}") from exc

    files: dict[str, str] = {}
    area_rows = []
    for m in maps:
        # the files are capped; the contours and area below use the untruncated values
        capped = np.minimum(m.values_db, request.cap_db)
        tag = map_tag(request.mode.value, m.frequency)
        files[f"map_{tag}.csv"] = _map_csv_text(m, capped)
        files[f"map_{tag}.json"] = _json_text(_map_payload(m, capped, request.cap_db)) + "\n"
        contour_sets = [extract_contours(m, level) for level in request.levels_db]
        files[f"contours_{tag}.json"] = _json_text({
            "frequency_hz": m.frequency,
            "contours": [
                {"level_db": cs.level_db, "polylines": [line.tolist() for line in cs.polylines]}
                for cs in contour_sets
            ],
        }) + "\n"
        area_rows += [(m.frequency, cs.level_db, cs.area_m2) for cs in contour_sets]

    files["area_summary.csv"] = _csv_text(["frequency_hz", "level_db", "area_m2"], area_rows)
    return _write_run(config, "map", files, skipped)


def main(argv=None) -> int:
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

    try:
        args = parser.parse_args(argv)
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

    for path in outputs:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
