"""Snapshot everything the CLI prints and writes, for a byte-for-byte comparison.

Usage::

    python tests/snapshot_outputs.py OUTDIR

runs the pszsim of this checkout (its ``src``) on the template ``spectra``
and ``map``, on the template ``map`` at 0.025 m (a grid that lands on four
speakers, so its maps hold NaN cells), on the three benchmark workloads and
on the partial-skip config of ``tests/test_golden.py``, on a ``spectra``
of that config with the template's three modes and two filter positions
(``partial_skip_all``: several combinations with skips), and on a ``rerun``
of the template ``spectra`` into an ``out`` that already holds the file of
its last combination (``TAKEN``), each at seeds 0 and 1, in a fresh
interpreter per invocation. Each invocation gets its own directory under
OUTDIR, named ``<run>-<command>-seed<seed>``, holding ``config.json``,
``stdout.txt``, ``stderr.txt``, ``exit_code.txt`` and the ``out`` directory
it wrote.
Workload configs are built as the benchmark builds them, with
``perfbench/outputs.workload_config`` from ``perfbench/workloads.json``.

Two checkouts whose outputs should not differ are compared by running the
script in each and then::

    diff -r SNAPSHOT_A SNAPSHOT_B

OUTDIR must not exist yet.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import PERFBENCH, perfbench_outputs  # noqa: E402
from test_golden import partial_skip_config  # noqa: E402

from pszsim.config import default_config_dict  # noqa: E402

# run name -> the file its ``out`` holds before the invocation
TAKEN = {"rerun": "spectra_xtc_moved_a_centered.csv"}


def runs() -> list[tuple[str, str, dict]]:
    """(run name, command, config) of every invocation, seeds aside."""
    spec = json.loads((PERFBENCH / "workloads.json").read_text(encoding="utf-8"))
    make = perfbench_outputs().workload_config
    listed = [("template", command, default_config_dict()) for command in ("spectra", "map")]
    on_speakers = default_config_dict()
    on_speakers["map"]["resolution_m"] = 0.025
    listed.append(("speaker_grid", "map", on_speakers))
    listed += [
        (name, workload["command"], make(spec["template"], workload["delta"]))
        for name, workload in spec["workloads"].items()
    ]
    listed += [("partial_skip", command, partial_skip_config()) for command in ("spectra", "map")]
    skip_all = partial_skip_config()
    skip_all["modes"] = default_config_dict()["modes"]
    skip_all["filter_positions"] = default_config_dict()["filter_positions"]
    listed.append(("partial_skip_all", "spectra", skip_all))
    listed.append(("rerun", "spectra", default_config_dict()))
    return listed


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    outdir = Path(argv[0])
    outdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name, command, config in runs():
        for seed in (0, 1):
            work = outdir / f"{name}-{command}-seed{seed}"
            work.mkdir()
            (work / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
            if name in TAKEN:
                (work / "out").mkdir()
                (work / "out" / TAKEN[name]).write_text("taken\n", encoding="utf-8")
            done = subprocess.run(
                [sys.executable, "-m", "pszsim.cli", command, "config.json",
                 "--seed", str(seed), "-o", "out"],
                cwd=work, env=env, capture_output=True, text=True,
            )
            (work / "stdout.txt").write_text(done.stdout, encoding="utf-8")
            (work / "stderr.txt").write_text(done.stderr, encoding="utf-8")
            (work / "exit_code.txt").write_text(f"{done.returncode}\n", encoding="utf-8")
            print(f"{work.name}: exit {done.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
