#!/usr/bin/env python3
"""pszsim benchmark: closed-loop CLI invocations with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload spectra_default --seed 0 --seconds 36 --trace 0

Workloads are defined in perfbench/workloads.json as deltas from a frozen
copy of the built-in template. One run:

1. writes the workload config to ``.perfbench_run/<workload>/config.json``;
2. starts one workload process (worker.py) that calls the CLI back to back
   for ``--seconds`` into a fixed output directory name;
3. before and after it, starts SETUP_SAMPLES fresh interpreters each (after
   one warm-up) that import ``pszsim.cli`` and resolve the config
   (``pszsim validate``): ``setup_s`` is the median time from process start
   to resolved config;
4. checks the outputs: byte-identical across invocations, structurally
   complete, and equal to the stored reference for this seed within the
   tolerance in outputs.py (a seed without a reference is "unchecked").

Invocation times are reported in units of the calibration kernel
(calibrate.py) timed next to each invocation, because the host's CPU speed
drifts; the plain clock readings are printed too, but not compared.

Every process gets one BLAS thread and no PSZSIM_WORKERS. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics from spans with ``--trace 1``). The line before it
holds the details: environment, reference status, problems, exact counts.
Exit code 0 when correct, 1 when not, 2 when the run could not be made
(for instance, no pszsim source in this checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import outputs
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_run"
REFERENCE_DIR = BENCH_DIR / "reference"
SPEC = json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))
WORKLOADS = SPEC["workloads"]

SETUP_SAMPLES = 4  # before and again after the closed loop
DEADLINE_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Self times add up to the root span's duration by construction; only float
# rounding may separate them.
SELF_SUM_TOLERANCE_S = 1e-6

_PROBE = """\
import time
t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
import pszsim.cli as cli
t1 = time.clock_gettime(time.CLOCK_MONOTONIC)
import io, sys
sys.stdout, shown = io.StringIO(), sys.stdout
code = cli.main(["validate", "config.json"])
t2 = time.clock_gettime(time.CLOCK_MONOTONIC)
sys.stdout = shown
print(t0, t1, t2, code, cli.__file__)
"""


class BenchError(Exception):
    """The run could not be made; no result is printed."""


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}.json.xz"


def pinned_env() -> dict:
    env = dict(os.environ)
    env.pop("PSZSIM_WORKERS", None)
    env.update({name: "1" for name in BLAS_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def _check_module(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported pszsim from {path}, not from {SRC}")


class Run:
    """One benchmark run of one workload: its directory, clock and children."""

    def __init__(self, workload: str):
        self.spec = WORKLOADS[workload]
        self.work = WORK_ROOT / workload
        self.env = pinned_env()
        self.deadline = time.monotonic() + DEADLINE_S

    def prepare(self) -> None:
        if not (SRC / "pszsim" / "cli.py").is_file():
            raise BenchError(f"no pszsim source at {SRC}")
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        config = outputs.workload_config(SPEC["template"], self.spec["delta"])
        (self.work / "config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")

    def _child(self, cmd: list[str], limit_s: float) -> subprocess.CompletedProcess:
        timeout = min(limit_s, self.deadline - time.monotonic())
        if timeout <= 0:
            raise BenchError("out of time")
        try:
            return subprocess.run(
                cmd, cwd=self.work, env=self.env, timeout=timeout,
                stdout=subprocess.PIPE, text=True,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{cmd[1]} exceeded {timeout:.0f} s") from exc

    def setup_sample(self) -> dict:
        """One fresh interpreter's time to import pszsim.cli and resolve the config."""
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = self._child([sys.executable, "-c", _PROBE], 30.0)
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 5 or fields[3] != "0":
            raise BenchError(f"set-up probe failed (exit {proc.returncode}): {proc.stdout!r}")
        _check_module(fields[4])
        t0, t1, t2 = (float(v) for v in fields[:3])
        return {"setup_s": t2 - spawned, "import_s": t1 - t0, "config_s": t2 - t1}

    def worker(self, seed: int, seconds: int, trace: int) -> dict:
        cmd = [
            sys.executable, str(BENCH_DIR / "worker.py"), "--work", str(self.work),
            "--command", self.spec["command"], "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ]
        proc = self._child(cmd, seconds + 100.0)
        result_path = self.work / "worker_result.json"
        if proc.returncode != 0 or not result_path.is_file():
            raise BenchError(f"workload process failed with exit code {proc.returncode}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        _check_module(result["module"])
        return result


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _trace_metrics(traces: list[dict], problems: list[str]) -> tuple[dict, dict]:
    """Per-layer metrics (self times as medians over traced invocations) and exact counts."""
    def counts(trace):
        return {
            layer: {k: v for k, v in entry.items() if k != "self_s"}
            for layer, entry in trace["layers"].items()
        }

    exact = counts(traces[0])
    if any(counts(t) != exact for t in traces[1:]):
        problems.append("call counts differ between traced invocations")
    for t in traces:
        if abs(t["self_sum_error_s"]) > SELF_SUM_TOLERANCE_S:
            problems.append(f"self times miss the traced wall by {t['self_sum_error_s']:.3g} s")
    metrics = {}
    for layer in spans.layer_names():
        entry = exact[layer]
        metrics[f"{layer}.calls"] = (entry["calls"], "count")
        metrics[f"{layer}.self_s"] = (_median([t["layers"][layer]["self_s"] for t in traces]), "s")
        if "unique" in entry:
            ratio = entry["unique"] / entry["calls"] if entry["calls"] else 0.0
            metrics[f"{layer}.unique_ratio"] = (ratio, "ratio")
        for counter, value in entry.items():
            if counter not in ("calls", "unique"):
                metrics[f"{layer}.{counter}"] = (value, "count")
    metrics["cli.self_s"] = (_median([t["layers"][spans.ROOT_LAYER]["self_s"] for t in traces]), "s")
    return metrics, exact


def measure(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result, details) of one run; raises BenchError when it cannot be made."""
    run = Run(workload)
    run.prepare()
    run.setup_sample()  # warm-up: may compile the bytecode of a fresh checkout
    # Half the set-up samples before the closed loop and half after it, so
    # that their median spans the run rather than a few seconds of it.
    setup = [run.setup_sample() for _ in range(SETUP_SAMPLES)]
    worker = run.worker(seed, seconds, trace)
    setup += [run.setup_sample() for _ in range(SETUP_SAMPLES)]
    invocations = worker["invocations"]
    attempted = len(invocations)
    failed = sum(inv["error"] is not None for inv in invocations)
    problems = sorted({inv["error"] for inv in invocations if inv["error"]})

    checked = run.work / "checked"
    reference = "no successful invocation"
    parsed = {}
    if checked.is_dir():
        try:
            parsed = outputs.parse_dir(checked)
        except ValueError as exc:  # includes malformed JSON
            found, reference, mismatches = [f"unreadable output: {exc}"], "not compared", []
        else:
            found = outputs.structure_problems(parsed, run.spec["command"], run.spec["units_per_invocation"])
            reference, mismatches = outputs.check_reference(parsed, reference_path(workload, seed))
        if found or mismatches:
            # every successful invocation wrote these same bytes
            failed = attempted
            problems += found + mismatches

    untraced = [inv["wall_s"] for inv in invocations if not inv["traced"] and inv["error"] is None]
    traced = [inv["wall_s"] for inv in invocations if inv["traced"] and inv["error"] is None]
    details = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "reference": reference,
        "problems": problems,
        "invocations": invocations,
        "setup": setup,
        "environment": worker["environment"],
    }

    if trace:
        if not worker["traces"]:
            raise BenchError("no traced invocation succeeded")
        trace_problems: list[str] = []
        layer_metrics, exact = _trace_metrics(worker["traces"], trace_problems)
        if trace_problems:
            failed = attempted
            problems += trace_problems
        layer_metrics.update({
            "cli.import_s": (_median([s["import_s"] for s in setup]), "s"),
            "cli.config.self_s": (_median([s["config_s"] for s in setup]), "s"),
            "cli.bytes_written": (sum(p.stat().st_size for p in checked.iterdir()) if parsed else 0, "bytes"),
            "cli.files_written": (len(parsed), "count"),
            "trace.overhead_s": (_median(traced) - _median(untraced), "s"),
        })
        metrics = layer_metrics
        details.update({
            "counts": exact,
            "traced_wall_s": _median([t["wall_s"] for t in worker["traces"]]),
            "absent": worker["traces"][0]["absent"],
            "unmeasured": worker["traces"][0]["unmeasured"],
        })
    else:
        timed = [inv for inv in invocations if inv["error"] is None] or invocations
        wall = _median([inv["wall_s"] for inv in timed])
        cal = _median([inv["cal_s"] for inv in timed])
        wall_cal = _median([inv["wall_s"] / inv["cal_s"] for inv in timed])
        units = outputs.count_units(parsed, run.spec["command"]) if parsed else 0
        metrics = {
            "setup_s": (_median([s["setup_s"] for s in setup]), "s"),
            "wall_cal": (wall_cal, "cal"),
            "units_per_cal": (units / wall_cal, "1/cal"),
            "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
        }
        # Plain clock readings, shown but not compared: they follow the host's speed.
        details["clock"] = {
            name: {"value": value, "unit": unit}
            for name, value, unit in (("wall_s", wall, "s"), ("units_per_s", units / wall, "1/s"), ("cal_s", cal, "s"))
        }

    details["fail_rate"] = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (run.work / "result.json").write_text(
        json.dumps({"result": result, "details": details}, indent=1) + "\n", encoding="utf-8"
    )
    return result, details


def _summary(result: dict, details: dict) -> str:
    lines = [
        f"pszsim {details['workload']} seed {details['seed']} trace {details['trace']}: "
        f"{result['attempted']} invocations, reference {details['reference']}"
    ]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    lines.append(f"  {'fail_rate':34s} {details['fail_rate']:.6g} "
                 f"({result['failed']} of {result['attempted']})")
    for name, m in details.get("clock", {}).items():
        lines.append(f"  {name:34s} {m['value']:.6g} {m['unit']} (clock, not compared)")
    lines += [f"  problem: {p}" for p in details["problems"]]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, details = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(_summary(result, details))
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
