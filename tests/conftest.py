"""The benchmark's workloads, run as the benchmark runs them.

Each config is built exactly as the benchmark builds it, from
``perfbench/workloads.json`` with ``perfbench/outputs.workload_config``, and
the run writes into ``out`` under a temporary working directory, the output
directory name of the committed references. ``map_fine`` and
``spectra_default`` run once per test session; the IPI maps ``map_fine``
computes are kept for the tests that check contours and area on them.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pszsim.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_outputs():
    """``perfbench/outputs.py`` as a module (``perfbench`` is not a package)."""
    spec = importlib.util.spec_from_file_location("perfbench_outputs", PERFBENCH / "outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_python(args, cwd, **env) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter in ``cwd`` that imports this pszsim,
    with ``env`` added to the environment; stdout and stderr captured as text."""
    src = str(Path(pszsim.cli.__file__).resolve().parents[1])
    environ = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env={**environ, **env},
                          capture_output=True, text=True)


# ``python -c CLI argv...`` runs ``pszsim.cli.main(argv)`` and exits with its code
CLI = "import sys, pszsim.cli; sys.exit(pszsim.cli.main(sys.argv[1:]))"


def workload(name: str) -> tuple[str, dict]:
    """(command, config) of the benchmark workload ``name``."""
    spec = json.loads((PERFBENCH / "workloads.json").read_text(encoding="utf-8"))
    listed = spec["workloads"][name]
    return listed["command"], perfbench_outputs().workload_config(spec["template"], listed["delta"])


def run_cli(command: str, config: dict, work: Path) -> Path:
    """Run ``command`` on ``config`` at seed 0 in ``work``, as the benchmark
    runs a workload; its output directory."""
    (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
    argv = [command, "config.json", "--seed", "0", "-o", "out"]
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.chdir(work)
        assert pszsim.cli.main(argv) == 0
    return work / "out"


def run_workload(name: str, work: Path) -> Path:
    """Run the benchmark workload ``name`` at seed 0 in ``work``; its output directory."""
    return run_cli(*workload(name), work)


@pytest.fixture(scope="session")
def spectra_default_run(tmp_path_factory):
    """Output directory of ``spectra_default`` at seed 0, beside its ``config.json``.
    Shared by the session: tests only read it."""
    return run_workload("spectra_default", tmp_path_factory.mktemp("spectra_default"))


@pytest.fixture(scope="session")
def map_fine_run(tmp_path_factory):
    """(output directory, IPI maps in computed order) of ``map_fine`` at seed 0."""
    maps = []
    ipi_map = pszsim.cli.ipi_map

    def recording_ipi_map(*args, **kwargs):
        computed = ipi_map(*args, **kwargs)
        maps.extend(computed)
        return computed

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pszsim.cli, "ipi_map", recording_ipi_map)
        out = run_workload("map_fine", tmp_path_factory.mktemp("map_fine"))
    return out, maps
