"""Snapshot everything the CLI prints and writes, for a byte-for-byte comparison.

Usage::

    python tests/snapshot_outputs.py OUTDIR
    python tests/snapshot_outputs.py --digests

runs the pszsim of this checkout (its ``src``) on the template ``spectra``
and ``map``, on the template ``map`` at 0.025 m (a grid that lands on four
speakers, so its maps hold NaN cells), on the template ``map`` at 4, 8 and
10 kHz (``far_branch``: much of its grid drives the piston directivity's
|x| > 5 Bessel branch), on the three benchmark workloads and on the
partial-skip config of ``tests/test_golden.py``, on a ``spectra`` of that
config with the template's three modes and two filter positions
(``partial_skip_all``: several combinations with skips), and on a ``rerun``
of the template ``spectra`` into an ``out`` that already holds the file of
its last combination (``TAKEN``), each at seeds 0 and 1. Every invocation
calls ``pszsim.cli.main`` in this process, in its own working directory
named ``<run>-<command>-seed<seed>``, which ends up holding
``config.json``, ``stdout.txt``, ``stderr.txt``, ``exit_code.txt`` and the
``out`` directory it wrote.
Workload configs are built as the benchmark builds them, with
``perfbench/outputs.workload_config`` from ``perfbench/workloads.json``.

With OUTDIR (which must not exist yet) the directories are kept there.
With ``--digests`` they go to a temporary directory, and ``DIGESTS``
(``tests/golden/digests.json``) records the sha256 of every output file,
stdout, stderr and exit code of each invocation, with the environment
they were taken in. ``tests/test_digests.py`` runs the same invocations
through :func:`snapshot_all` and compares. Re-record the digests only for
an intended change of outputs, and list the files that moved in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import PERFBENCH, perfbench_outputs  # noqa: E402
from test_golden import partial_skip_config  # noqa: E402

import pszsim.cli  # noqa: E402
from pszsim.config import default_config_dict  # noqa: E402

DIGESTS = ROOT / "tests" / "golden" / "digests.json"
# run name -> the file its ``out`` holds before the invocation
TAKEN = {"rerun": "spectra_xtc_moved_a_centered.csv"}
_OUTPUTS = perfbench_outputs()


def runs() -> list[tuple[str, str, dict]]:
    """(run name, command, config) of every invocation, seeds aside."""
    spec = json.loads((PERFBENCH / "workloads.json").read_text(encoding="utf-8"))
    make = _OUTPUTS.workload_config
    listed = [("template", command, default_config_dict()) for command in ("spectra", "map")]
    on_speakers = default_config_dict()
    on_speakers["map"]["resolution_m"] = 0.025
    listed.append(("speaker_grid", "map", on_speakers))
    far_branch = default_config_dict()
    far_branch["map"]["frequencies_hz"] = [4000.0, 8000.0, 10000.0]
    listed.append(("far_branch", "map", far_branch))
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


def snapshot(work: Path, command: str, config: dict, seed: int, taken: str | None = None):
    """Run one invocation in ``work`` (created here); sha256 of what it printed and wrote.

    The digests are keyed ``exit_code``, ``stdout``, ``stderr`` and
    ``out/<file>`` for each file of the output directory.
    """
    work.mkdir()
    (work / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
    if taken:
        (work / "out").mkdir()
        (work / "out" / taken).write_text("taken\n", encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.chdir(work), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = pszsim.cli.main([command, "config.json", "--seed", str(seed), "-o", "out"])
    printed = {"exit_code": f"{code}\n", "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    for name, text in printed.items():
        (work / f"{name}.txt").write_text(text, encoding="utf-8")
    sha = {name: hashlib.sha256(text.encode("utf-8")).hexdigest() for name, text in printed.items()}
    if (work / "out").is_dir():
        sha.update((f"out/{name}", d) for name, d in _OUTPUTS.digests(work / "out").items())
    return sha


def snapshot_all(outdir: Path) -> dict[str, dict[str, str]]:
    """:func:`snapshot` of every invocation under ``outdir``, by directory name."""
    return {
        f"{name}-{command}-seed{seed}": snapshot(
            outdir / f"{name}-{command}-seed{seed}", command, config, seed, TAKEN.get(name))
        for name, command, config in runs()
        for seed in (0, 1)
    }


def environment() -> dict[str, str]:
    """What can change the last bits of the outputs: interpreter, libraries, BLAS, CPU."""
    import numpy
    import scipy

    def blas(config) -> str:
        return "{name} {version}".format(**config["Build Dependencies"]["blas"])

    numpy_config = numpy.show_config(mode="dicts")

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_blas": blas(numpy_config),
        # the SIMD kernels numpy dispatches to on this CPU
        "numpy_simd": " ".join(numpy_config["SIMD Extensions"]["found"]),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "cpu": cpu,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    if argv[0] == "--digests":
        with tempfile.TemporaryDirectory() as tmp:
            invocations = snapshot_all(Path(tmp))
        DIGESTS.write_text(json.dumps(
            {"environment": environment(), "invocations": invocations}, indent=1, sort_keys=True
        ) + "\n", encoding="utf-8")
        print(f"wrote {DIGESTS} ({len(invocations)} invocations)")
        return 0
    outdir = Path(argv[0])
    outdir.mkdir(parents=True)
    for work in snapshot_all(outdir):
        print(f"{work}: exit {(outdir / work / 'exit_code.txt').read_text().strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
