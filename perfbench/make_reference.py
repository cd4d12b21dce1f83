#!/usr/bin/env python3
"""Store the outputs of one invocation per (workload, seed) as the reference.

    python3 perfbench/make_reference.py --seeds 0 1 [--workload map_fine ...]

Run it only on a commit whose outputs are known good, and only when an
intended change of numbers is being re-baselined; say so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import sys

import outputs
from run import WORKLOADS, BenchError, Run, reference_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), nargs="+", default=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    for workload in args.workload:
        for seed in args.seeds:
            run = Run(workload)
            try:
                run.prepare()
                result = run.worker(seed, seconds=0, trace=0)
            except BenchError as exc:
                print(f"make_reference: {exc}", file=sys.stderr)
                return 2
            errors = [inv["error"] for inv in result["invocations"] if inv["error"]]
            parsed = outputs.parse_dir(run.work / "checked") if not errors else {}
            problems = errors or outputs.structure_problems(
                parsed, run.spec["command"], run.spec["units_per_invocation"])
            if problems:
                print(f"make_reference: {workload} seed {seed}: {problems}", file=sys.stderr)
                return 1
            path = reference_path(workload, seed)
            outputs.write_reference(path, parsed)
            print(f"{path.name}: {path.stat().st_size} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
