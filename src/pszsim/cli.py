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
Exit codes: 0 success, 1 config or usage error, 2 runtime numerical
failure.
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


def _perturbed_transfers(config: ExperimentConfig, scenes: dict, streams: dict, freqs) -> dict:
    """(scene key, stream) -> averaged perturbed (F, K, L) transfer stack at ``freqs``.

    ``streams`` maps each stream to the keys of the scenes it perturbs. Each
    scene's nominal stack is computed once over all frequencies, and each
    stream's draws once for all of its scenes.
    """
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


_SPECTRA_HEADER = ["frequency_hz"] + [
    f"{c}_{kind}db" for kind in ("", "smooth_") for c in ("izi_a", "izi_b", "ipi_a", "ipi_b")
]


def _write_csv(path: Path, header, rows) -> Path:
    # "%.9g" formats a number as _fmt does; one template formats a whole row
    line = ",".join(["%.9g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % tuple(row) for row in rows)
    return path


def _write_json(path: Path, payload) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_manifest(config: ExperimentConfig, command: str, outputs, skipped) -> Path:
    return _write_json(config.output_dir / f"manifest_{command}.json", {
        "command": command,
        "config": config.echo,
        "outputs": sorted(str(p.name) for p in outputs),
        "skipped_frequencies": skipped,
        "version": __version__,
    })


def _make_output_dir(config: ExperimentConfig) -> None:
    try:
        config.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError([f"output_dir: cannot create {config.output_dir}: {exc.strerror}"])


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
    combinations that use it.
    """
    _make_output_dir(config)
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
    outputs: list[Path] = []
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
        raw = _spectra_db(config.scene, mode, m)
        rows = np.column_stack([freqs[kept], raw.T, smooth_db(freqs[kept], raw).T]).tolist()
        outputs.append(_write_csv(config.output_dir / f"spectra_{key}.csv", _SPECTRA_HEADER, rows))
    outputs.append(_write_manifest(config, "spectra", outputs, skipped_log))
    return outputs


def _write_map_csv(path: Path, m, values) -> Path:
    # each axis value is formatted once, not once per grid point
    xs = [_fmt(x) for x in m.x_coords().tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x_m,y_m,ipi_db\n")
        for y, row in zip(m.y_coords().tolist(), values):
            y_text = _fmt(y)
            fh.write("".join(f"{x},{y_text},{v:.9g}\n" for x, v in zip(xs, row.tolist())))
    return path


def _map_payload(m, values, cap_db: float) -> dict:
    return {
        "frequency_hz": m.frequency,
        "x0_m": m.x0,
        "y0_m": m.y0,
        "spacing_m": m.spacing,
        "nx": m.nx,
        "ny": m.ny,
        "cap_db": cap_db,
        "values_db": [[None if math.isnan(v) else v for v in row] for row in values.tolist()],
    }


def run_map(config: ExperimentConfig) -> list[Path]:
    """Evaluate the configured IPI maps, contours and area summary.

    The filters come from the same perturbed design stack, design and skip
    reporting as ``run_spectra``'s, at the map frequencies.
    """
    request = config.map_request
    if request is None:
        raise ConfigError(["map: section required for the map command"])
    _make_output_dir(config)
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

    outputs: list[Path] = []
    area_rows = []
    for frequency, c in zip(freqs[kept].tolist(), filters):
        m = ipi_map(scene, c, request.region, request.resolution, frequency, target, interferer)
        # the files are capped; the contours and area below use the untruncated values
        capped = np.minimum(m.values_db, request.cap_db)
        tag = map_tag(request.mode.value, frequency)
        outputs.append(_write_map_csv(config.output_dir / f"map_{tag}.csv", m, capped))
        outputs.append(_write_json(config.output_dir / f"map_{tag}.json",
                                   _map_payload(m, capped, request.cap_db)))
        contour_sets = [extract_contours(m, level) for level in request.levels_db]
        outputs.append(_write_json(config.output_dir / f"contours_{tag}.json", {
            "frequency_hz": frequency,
            "contours": [
                {"level_db": cs.level_db, "polylines": [line.tolist() for line in cs.polylines]}
                for cs in contour_sets
            ],
        }))
        area_rows += [(frequency, cs.level_db, enclosed_area(cs, m)) for cs in contour_sets]

    header = ["frequency_hz", "level_db", "area_m2"]
    outputs.append(_write_csv(config.output_dir / "area_summary.csv", header, area_rows))
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
