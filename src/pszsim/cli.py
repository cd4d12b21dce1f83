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
Exit codes: 0 success, 1 config error, 2 runtime numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .acoustics import response_matrix
# log_frequency_grid and resolve_config stay importable from pszsim.cli
from .config import (  # noqa: F401
    ConfigError,
    ExperimentConfig,
    ListenerCase,
    default_config_dict,
    load_config,
    log_frequency_grid,
    map_tag,
    resolve_config,
)
from .filter_design import RenderingMode, program_channels, solve_stack, target_stack
from .metrics import ipi_ratios, izi_ratios, min_db, smooth_db
from .perturbation import averaged_perturbed_stacks
from .scene import Scene, move_listener
from .spatial_analysis import enclosed_area, extract_contours, ipi_map

_DESIGN_STREAM = "design"
_EVAL_STREAM = "eval"


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _design_filters(config: ExperimentConfig, scene: Scene, h_design, mode: RenderingMode,
                    frequencies):
    """Filters from the design-set transfer stack: ``solve_stack``'s (filters, kept, failures)."""
    target = target_stack(scene, h_design, mode)
    return solve_stack(h_design, target, config.beta_at(frequencies), frequencies)


def _perturbed_transfers(config: ExperimentConfig, scenes: dict, streams: dict) -> dict:
    """(scene key, stream) -> averaged perturbed (F, K, L) transfer stack.

    ``streams`` maps each stream to the keys of the scenes it perturbs. Each
    scene's nominal stack is computed once over the whole grid, and each
    stream's draws once for all of its scenes.
    """
    freqs = config.frequencies
    nominal = {
        key: response_matrix(scenes[key], scenes[key].control_points, freqs)
        for key in dict.fromkeys(key for keys in streams.values() for key in keys)
    }
    stacks = {}
    for stream, keys in streams.items():
        perturbed = averaged_perturbed_stacks([nominal[k] for k in keys], freqs, config.model, stream)
        stacks.update(((key, stream), h) for key, h in zip(keys, perturbed))
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


def _write_spectra_csv(path: Path, freqs, raw, smoothed):
    columns = ["izi_a", "izi_b", "ipi_a", "ipi_b"]
    header = (
        ["frequency_hz"]
        + [f"{c}_db" for c in columns]
        + [f"{c}_smooth_db" for c in columns]
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in np.column_stack([freqs, raw.T, smoothed.T]):
            fh.write(",".join(_fmt(x) for x in row.tolist()) + "\n")


def _write_manifest(config: ExperimentConfig, command: str, outputs, skipped):
    manifest = {
        "command": command,
        "config": config.echo,
        "outputs": sorted(str(p.name) for p in outputs),
        "skipped_frequencies": skipped,
        "version": __version__,
    }
    path = config.output_dir / f"manifest_{command}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def run_spectra(config: ExperimentConfig) -> list[Path]:
    """Run all sweep combinations and write CSVs plus a manifest.

    One pipeline over the whole frequency grid: every transfer stack,
    draw and design is computed once per run and shared by the
    combinations that use it.
    """
    config.output_dir.mkdir(parents=True, exist_ok=True)
    base, freqs = config.scene, config.frequencies
    # scenes are keyed by the displacement that makes them; None is the base scene
    scenes = {None: base}
    for case in config.cases:
        if case.displacement is not None:
            scenes[case.displacement] = move_listener(base, case.displacement)

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
    })
    designs = {}
    outputs: list[Path] = []
    skipped_log: dict[str, list] = {}
    for mode, case, strategy in combos:
        scene_key = design_key(case, strategy)
        if (mode, scene_key) not in designs:
            designs[mode, scene_key] = _design_filters(
                config, scenes[scene_key], h[scene_key, _DESIGN_STREAM], mode, freqs
            )
        filters, kept, skipped = designs[mode, scene_key]
        key = f"{mode.value}_{case.name}_{strategy}"
        if skipped:
            skipped_log[key] = [{"frequency_hz": f, "reason": reason} for f, reason in skipped]
            for f, reason in skipped:
                print(f"warning: {key}: skipped {f:.6g} Hz: {reason}", file=sys.stderr)
        if not kept.any():
            raise RuntimeError(f"{key}: every frequency failed to solve")
        m = h[case.displacement, _EVAL_STREAM][kept] @ filters
        raw = _spectra_db(base, mode, m)
        path = config.output_dir / f"spectra_{key}.csv"
        _write_spectra_csv(path, freqs[kept], raw, smooth_db(freqs[kept], raw))
        outputs.append(path)
    outputs.append(_write_manifest(config, "spectra", outputs, skipped_log))
    return outputs


def _write_map_csv(path: Path, m) -> None:
    # each axis value is formatted once, not once per grid point
    xs = [_fmt(x) for x in m.x_coords().tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x_m,y_m,ipi_db\n")
        for y, row in zip(m.y_coords().tolist(), m.capped_values()):
            y_text = _fmt(y)
            fh.write("".join(f"{x},{y_text},{v:.9g}\n" for x, v in zip(xs, row.tolist())))


def _write_map_json(path: Path, m) -> None:
    capped = m.capped_values()
    values = [
        [None if math.isnan(v) else v for v in row] for row in capped.tolist()
    ]
    payload = {
        "frequency_hz": m.frequency,
        "x0_m": m.x0,
        "y0_m": m.y0,
        "spacing_m": m.spacing,
        "nx": m.nx,
        "ny": m.ny,
        "cap_db": m.cap_db,
        "values_db": values,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_contours_json(path: Path, frequency: float, contour_sets) -> None:
    payload = {
        "frequency_hz": frequency,
        "contours": [
            {
                "level_db": cs.level_db,
                "polylines": [line.tolist() for line in cs.polylines],
            }
            for cs in contour_sets
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_map(config: ExperimentConfig) -> list[Path]:
    """Evaluate the configured IPI maps, contours and area summary."""
    request = config.map_request
    if request is None:
        raise ConfigError(["map: section required for the map command"])
    config.output_dir.mkdir(parents=True, exist_ok=True)
    scene = config.scene
    prog_a, prog_b = program_channels(scene, request.mode)
    if request.bright_zone == "A":
        target, interferer = prog_a, prog_b
    else:
        target, interferer = prog_b, prog_a

    freqs = np.array(request.frequencies)
    (h_design,) = averaged_perturbed_stacks(
        [response_matrix(scene, scene.control_points, freqs)], freqs, config.model, _DESIGN_STREAM
    )
    filters, kept, failures = _design_filters(config, scene, h_design, request.mode, freqs)
    skipped: dict[str, list] = {}
    for frequency, reason in failures:
        skipped.setdefault("map", []).append({"frequency_hz": frequency, "reason": reason})
        print(f"warning: map: skipped {frequency:.6g} Hz: {reason}", file=sys.stderr)

    outputs: list[Path] = []
    area_rows = []
    kept_freqs = [f for f, ok in zip(request.frequencies, kept) if ok]
    for frequency, c in zip(kept_freqs, filters):
        m = ipi_map(scene, c, request.region, request.resolution, frequency, target, interferer,
                    cap_db=request.cap_db)
        tag = map_tag(request.mode.value, frequency)
        csv_path = config.output_dir / f"map_{tag}.csv"
        _write_map_csv(csv_path, m)
        json_path = config.output_dir / f"map_{tag}.json"
        _write_map_json(json_path, m)
        contour_sets = [extract_contours(m, level) for level in request.levels_db]
        contour_path = config.output_dir / f"contours_{tag}.json"
        _write_contours_json(contour_path, frequency, contour_sets)
        outputs += [csv_path, json_path, contour_path]
        for cs in contour_sets:
            area_rows.append((frequency, cs.level_db, enclosed_area(cs, m)))

    if not area_rows:
        raise RuntimeError("map: every requested frequency failed to solve")
    area_path = config.output_dir / "area_summary.csv"
    lines = ["frequency_hz,level_db,area_m2"]
    for frequency, level, area in area_rows:
        lines.append(f"{_fmt(frequency)},{_fmt(level)},{_fmt(area)}")
    area_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    outputs.append(area_path)
    outputs.append(_write_manifest(config, "map", outputs, skipped))
    return outputs


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

    args = parser.parse_args(argv)

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
