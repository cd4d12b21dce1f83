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

from . import __version__
from .acoustics import transfer_matrix
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
from .filter_design import (
    IllConditionedError,
    RenderingMode,
    build_target_matrix,
    pressure_matching,
    program_channels,
    system_matrix,
)
from .metrics import MetricSpectrum, ipi, izi, third_octave_smooth
from .perturbation import averaged_perturbed
from .scene import Scene, move_listener
from .spatial_analysis import enclosed_area, extract_contours, ipi_map

_DESIGN_STREAM = "design"
_EVAL_STREAM = "eval"


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _design_filters(config: ExperimentConfig, design_scene: Scene,
                    mode: RenderingMode, frequency: float):
    """Design-set perturbed transfer functions, target and filters."""
    h_nominal = transfer_matrix(design_scene, design_scene.control_points, frequency)
    h_design = averaged_perturbed(h_nominal, config.model, _DESIGN_STREAM)
    target = build_target_matrix(design_scene, h_design, mode)
    beta = config.beta_at(frequency)
    return pressure_matching(h_design, target, beta)


def _spectra_for(config: ExperimentConfig, mode: RenderingMode,
                 case: ListenerCase, strategy: str):
    """Four metric spectra for one (mode, case, strategy) combination."""
    base = config.scene
    eval_scene = (
        move_listener(base, case.displacement) if case.displacement else base
    )
    design_scene = eval_scene if strategy == "matched" else base
    prog_a, prog_b = program_channels(base, mode)
    zone_a, zone_b = base.zone_a, base.zone_b

    kept, skipped = [], []
    for frequency in config.frequencies:
        try:
            filters = _design_filters(config, design_scene, mode, frequency)
        except IllConditionedError as exc:
            skipped.append((frequency, str(exc)))
            continue
        h_nominal = transfer_matrix(eval_scene, eval_scene.control_points, frequency)
        h_eval = averaged_perturbed(h_nominal, config.model, _EVAL_STREAM)
        m = system_matrix(h_eval, filters)
        kept.append(
            (
                izi(m, zone_a, zone_b, prog_a),
                izi(m, zone_b, zone_a, prog_b),
                ipi(m, zone_a, prog_a, prog_b),
                ipi(m, zone_b, prog_b, prog_a),
            )
        )
    labels = ("IZI_A", "IZI_B", "IPI_A", "IPI_B")
    spectra = tuple(
        MetricSpectrum(label, tuple(r[j] for r in kept))
        for j, label in enumerate(labels)
    )
    return spectra, skipped


def _write_spectra_csv(path: Path, spectra, smoothed):
    columns = ["izi_a", "izi_b", "ipi_a", "ipi_b"]
    header = (
        ["frequency_hz"]
        + [f"{c}_db" for c in columns]
        + [f"{c}_smooth_db" for c in columns]
    )
    lines = [",".join(header)]
    freqs = spectra[0].frequencies()
    raw_db = [s.db() for s in spectra]
    smooth_db = [s.db() for s in smoothed]
    for i, f in enumerate(freqs):
        row = [_fmt(f)]
        row += [_fmt(col[i]) for col in raw_db]
        row += [_fmt(col[i]) for col in smooth_db]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    """Run all sweep combinations and write CSVs plus a manifest."""
    config.output_dir.mkdir(parents=True, exist_ok=True)
    outputs: list[Path] = []
    skipped_log: dict[str, list] = {}
    for mode in config.modes:
        for case in config.cases:
            for strategy in config.filter_positions:
                spectra, skipped = _spectra_for(config, mode, case, strategy)
                key = f"{mode.value}_{case.name}_{strategy}"
                if skipped:
                    skipped_log[key] = [
                        {"frequency_hz": f, "reason": reason} for f, reason in skipped
                    ]
                    for f, reason in skipped:
                        print(f"warning: {key}: skipped {f:.6g} Hz: {reason}", file=sys.stderr)
                if len(spectra[0]) == 0:
                    raise RuntimeError(f"{key}: every frequency failed to solve")
                smoothed = tuple(third_octave_smooth(s) for s in spectra)
                path = config.output_dir / f"spectra_{key}.csv"
                _write_spectra_csv(path, spectra, smoothed)
                outputs.append(path)
    outputs.append(_write_manifest(config, "spectra", outputs, skipped_log))
    return outputs


def _write_map_csv(path: Path, m) -> None:
    capped = m.capped_values()
    xs, ys = m.x_coords(), m.y_coords()
    lines = ["x_m,y_m,ipi_db"]
    for iy in range(m.ny):
        for ix in range(m.nx):
            lines.append(f"{_fmt(xs[ix])},{_fmt(ys[iy])},{_fmt(capped[iy, ix])}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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

    outputs: list[Path] = []
    skipped: dict[str, list] = {}
    area_rows = []
    for frequency in request.frequencies:
        try:
            filters = _design_filters(config, scene, request.mode, frequency)
        except IllConditionedError as exc:
            skipped.setdefault("map", []).append(
                {"frequency_hz": frequency, "reason": str(exc)}
            )
            print(f"warning: map: skipped {frequency:.6g} Hz: {exc}", file=sys.stderr)
            continue
        m = ipi_map(
            scene,
            filters,
            request.region,
            request.resolution,
            frequency,
            target,
            interferer,
            cap_db=request.cap_db,
        )
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
