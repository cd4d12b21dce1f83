"""Tests of the benchmark itself: exact traced counts, the output check, robustness.

    python3 -m pytest -q perfbench

Each traced case runs the real CLI once untraced and once traced (about
5-12 s each on a 2-CPU machine).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import outputs
import run
import spans

# (calls, unique) per keyed layer at the seed commit, identical for every seed.
EXPECTED = {
    "spectra_default": {
        "acoustics.transfer": (7656, 638),
        "perturbation": (7656, 1276),
        "filter_design.solve": (3828, 1914),
    },
    "spectra_unshared": {
        "acoustics.transfer": (3962, 1981),
        "perturbation": (3962, 3962),
        "filter_design.solve": (1981, 1981),
    },
    "map_fine": {
        "acoustics.transfer": (3, 3),
        "perturbation": (3, 3),
        "filter_design.solve": (3, 3),
    },
}


def _run(capsys, *args) -> tuple[int, dict, dict]:
    code = run.main(list(args))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_traced_counts_are_exact(capsys, workload, seed):
    code, details, result = _run(
        capsys, "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert code == 0 and result["correct"], details["problems"]
    assert details["reference"] == "checked"
    counts = details["counts"]
    for layer, (calls, unique) in EXPECTED[workload].items():
        assert (counts[layer]["calls"], counts[layer]["unique"]) == (calls, unique), layer
    assert counts["filter_design.solve"]["skipped"] == 0
    assert details["absent"] == [] and details["unmeasured"] == []

    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in json.loads(
        (run.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    # One traced invocation: its self times add up to its wall time.
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s") and k != "cli.config.self_s")
    assert math.isclose(self_sum, details["traced_wall_s"], rel_tol=0, abs_tol=1e-6)


def test_untraced_run_reports_the_end_to_end_metrics(capsys):
    code, details, result = _run(
        capsys, "--workload", "map_fine", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert code == 0 and result["correct"], details["problems"]
    declared = {m["name"]: m["unit"] for m in json.loads(
        (run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # One invocation: the calibrated time is its clock time in units of the kernel's.
    (inv,) = details["invocations"]
    wall_cal = result["metrics"]["wall_cal"]["value"]
    assert math.isclose(wall_cal, inv["wall_s"] / inv["cal_s"])
    assert math.isclose(details["clock"]["wall_s"]["value"], inv["wall_s"])


@pytest.mark.parametrize("workload", ["spectra_unshared", "map_fine"])
def test_perturbed_beta_fails_the_output_check(capsys, monkeypatch, workload):
    # auto beta is K * sigma^2 = 4e-4 for the default scene
    delta = dict(run.WORKLOADS[workload]["delta"], beta=4.01e-4)
    monkeypatch.setitem(run.WORKLOADS[workload], "delta", delta)
    code, details, result = _run(
        capsys, "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0")
    assert code == 1 and not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert details["fail_rate"] == 1.0
    assert details["reference"] == "mismatch"
    assert "values differ from the reference" in details["problems"][0]


def test_tolerance_admits_a_last_digit_flip_only():
    assert outputs._numbers_close(1.23456789, 1.2345679)
    assert outputs._numbers_close(-41.0000001, -41.0000002)
    assert not outputs._numbers_close(1.23456789, 1.23456799)
    assert not outputs._numbers_close(20.0, 20.0 * (1 + 1e-6))


def test_seed_without_reference_is_unchecked():
    path = run.reference_path("map_fine", 987654321)
    assert not path.exists()
    assert outputs.check_reference({}, path) == ("unchecked", [])


def test_absent_names_are_reported_not_fatal():
    original = json.dumps
    tracer = spans.Tracer(layers=(
        ("metrics.isolation", "json", "no_such_function"),
        ("metrics.isolation", "pszsim_no_such_module", "izi"),
        ("metrics.isolation", "json", "dumps"),
    ))
    tracer.install()
    try:
        tracer.run(lambda: json.dumps([1]))
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["absent"] == ["json.no_such_function", "pszsim_no_such_module.izi"]
    assert summary["layers"]["metrics.isolation"]["calls"] == 1
    assert json.dumps is original


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "map_fine", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
