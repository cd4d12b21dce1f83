"""One workload process: back-to-back pszsim CLI invocations in a closed loop.

Started by run.py in a fresh interpreter with one BLAS thread. Each
invocation is ``pszsim.cli.main([command, config, --seed, -o out])`` into
the same output directory name, which is removed before every invocation
so that no run depends on files a previous one left. The first successful
invocation's outputs are kept as ``checked/`` for run.py to compare with
the reference; every later one must be byte-identical to it.

The fixed kernel of calibrate.py runs once before the loop and once after
every invocation; each invocation records the mean of the kernel's times
on either side of it (``cal_s``), so that run.py can report its wall time
in kernel units.

With ``--trace 1`` the invocations alternate untraced and traced; the
traced ones record spans (see spans.py). The result, one JSON file, goes
to ``<work>/worker_result.json``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import calibrate
import outputs
import spans


def _invoke(main, argv):
    """(wall s, CPU s, None or the error) of one CLI call, its stdout discarded."""
    saved, sys.stdout = sys.stdout, io.StringIO()
    cpu_start = time.process_time()
    start = time.perf_counter()
    try:
        code = main(argv)
        error = None if code == 0 else f"exit code {code}"
    except Exception as exc:  # any raise is a failed invocation, not a crash
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        sys.stdout = saved
    return wall, cpu, error


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--command", choices=("spectra", "map"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(args.work)
    import pszsim.cli as cli

    argv = [args.command, "config.json", "--seed", str(args.seed), "-o", "out"]
    out, checked = Path("out"), Path("checked")
    first_digests = None
    invocations, traces = [], []
    calibrate.kernel(10)  # warm-up
    cal_before = calibrate.timed()
    loop_start = time.perf_counter()
    while True:
        shutil.rmtree(out, ignore_errors=True)
        traced = bool(args.trace) and len(invocations) % 2 == 1
        if traced:
            tracer = spans.Tracer()
            tracer.install()
            try:
                wall, cpu, error = _invoke(lambda a: tracer.run(cli.main, a), argv)
            finally:
                tracer.uninstall()
        else:
            wall, cpu, error = _invoke(cli.main, argv)
        if error is None and not out.is_dir():
            error = "wrote no output directory"
        if error is None:
            found = outputs.digests(out)
            if first_digests is None:
                first_digests = found
                os.rename(out, checked)
            elif found != first_digests:
                error = "outputs differ from the first invocation's"
        if traced and error is None:
            traces.append(tracer.summary())
        cal_after = calibrate.timed()
        invocations.append({
            "wall_s": wall, "cpu_s": cpu, "cal_s": (cal_before + cal_after) / 2,
            "traced": traced, "error": error,
        })
        cal_before = cal_after
        elapsed = time.perf_counter() - loop_start
        if len(invocations) >= 1 + args.trace and elapsed + wall + cal_after > args.seconds:
            break

    result = {
        "module": cli.__file__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "invocations": invocations,
        "traces": traces,
        "environment": _environment(),
    }
    Path("worker_result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


def _environment() -> dict:
    import platform

    import numpy as np
    import scipy

    def blas(show_config):
        try:
            dep = show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (KeyError, TypeError, ValueError):
            return "unknown"
        return f"{dep.get('name')} {dep.get('version')}"

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy_blas": blas(scipy.show_config),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PSZSIM_WORKERS")
        },
    }


if __name__ == "__main__":
    sys.exit(main())
