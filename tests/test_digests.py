"""Byte identity of everything the CLI prints and writes.

Every invocation of ``tests/snapshot_outputs.py`` runs here in-process, and
the sha256 of each output file, stdout, stderr and exit code must equal
``tests/golden/digests.json``. The golden and benchmark tests compare
values to a relative 2e-8; this test catches a change in the last digit of
any file, the 17-digit contour vertices included.

Another interpreter, numpy, scipy, BLAS build or CPU may change last bits
with the code unchanged; a failure there says so first. The tolerance-based
golden tests cover such a change only where no draw depends on it: the
log-grid spectra key their perturbations by each frequency's bits, which
numpy's SIMD dispatch can move (``tests/test_golden.py``'s AVX2 test, an
expected failure). Re-record the digests only for an intended change of
outputs::

    PYTHONPATH=src python tests/snapshot_outputs.py --digests
"""

from __future__ import annotations

import json

import pytest

from snapshot_outputs import DIGESTS, environment, snapshot_all


def moved(recorded: dict, got: dict) -> list[str]:
    """One line per invocation or file whose digest differs, is missing or is new."""
    problems = []
    for run in sorted(recorded.keys() | got.keys()):
        if run not in got or run not in recorded:
            problems.append(f"{run}: {'not run' if run not in got else 'not recorded'}")
            continue
        want, have = recorded[run], got[run]
        problems += [
            f"{run}: {name} " + ("missing" if name not in have else
                                 "new" if name not in want else "moved")
            for name in sorted(want.keys() | have.keys()) if want.get(name) != have.get(name)
        ]
    return problems


def test_every_invocation_prints_and_writes_the_recorded_bytes(tmp_path):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    problems = moved(recorded["invocations"], snapshot_all(tmp_path))
    if problems:
        env, want = environment(), recorded["environment"]
        differs = [f"{k} {env.get(k)!r} (recorded {want.get(k)!r})"
                   for k in sorted(env.keys() | want.keys()) if env.get(k) != want.get(k)]
        if differs:
            problems.insert(0, "environment differs from the recorded one, so last bits may "
                               "move with the code unchanged: " + "; ".join(differs))
        pytest.fail("\n".join(problems), pytrace=False)


def test_the_comparison_names_each_moved_missing_and_new_file():
    recorded = {"a-map-seed0": {"stdout": "1", "out/x.csv": "2", "out/y.json": "3"},
                "b-spectra-seed0": {"stdout": "4"}}
    got = {"a-map-seed0": {"stdout": "1", "out/x.csv": "9", "out/z.json": "3"},
           "c-map-seed1": {"stdout": "4"}}
    assert moved(recorded, got) == [
        "a-map-seed0: out/x.csv moved",
        "a-map-seed0: out/y.json missing",
        "a-map-seed0: out/z.json new",
        "b-spectra-seed0: not run",
        "c-map-seed1: not recorded",
    ]
    assert moved(recorded, recorded) == []
