"""Golden reference: every number a reduced default run writes.

The run is the template experiment at 6 points per octave with the map at
0.05 m: all modes, listener cases and filter positions through ``spectra``,
and the template map through ``map``. Every CSV cell and every JSON value
of every file written, manifests included, is compared with
``tests/golden/reference.json``.

Files are parsed and compared with the benchmark's own parser and checker
(``perfbench/outputs.py``). Numbers match when they agree to its relative
``REL_TOL`` = 2e-8 or absolute ``ABS_TOL`` = 1e-12 (grid coordinates that
come out as 0 or 1e-16). The writers print 9 significant digits, so one
unit in the last printed digit is up to 1e-8 of the value: a tighter
tolerance, such as 1e-9 dB, would demand an exact match of the printed
digits, and a refactor that moves the numbers by ~1e-12 relative (a
batched solve in place of the per-frequency Cholesky solve) may flip a
last digit. Changing beta by one part in a million already moves many
values by more than the tolerance, as the second test shows. Byte
identity is ``tests/test_digests.py``'s check.

A third test pins a run in which only part of the grid can be designed:
with beta 0 below 1 kHz and no perturbation, the normal matrix of the
4-point, 8-speaker design is singular there, so ``spectra`` and ``map``
skip those frequencies and go on with the rest. Its warnings and the
manifests' skipped frequencies must match ``tests/golden/partial_skip.json``
exactly, and its spectra and area values within the tolerance above.

Three more tests check the benchmark's ``map_fine``, ``spectra_default`` and
``spectra_unshared`` runs at seed 0 against the benchmark's own committed
references, with the benchmark's own checker.

Regenerate the references only for an intended change of numbers, and
record that change in CHANGES.md::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy
import pytest

from conftest import CLI, PERFBENCH, perfbench_outputs, run_python, run_workload
from pszsim.cli import main as cli_main
from pszsim.config import default_config_dict

REFERENCE = Path(__file__).resolve().parent / "golden" / "reference.json"
PARTIAL_SKIP = REFERENCE.with_name("partial_skip.json")
OUTPUTS = perfbench_outputs()


def golden_config() -> dict:
    cfg = default_config_dict()
    cfg["frequency_grid"]["points_per_octave"] = 6
    cfg["map"]["resolution_m"] = 0.05
    # relative to the working directory, so no manifest names a temp path
    cfg["output_dir"] = "out"
    return cfg


def partial_skip_config() -> dict:
    cfg = default_config_dict()
    cfg["beta"] = {"frequencies_hz": [1000, 1001], "values": [0, 4e-4]}
    cfg["uncertainty"] = {"sigma_sq": 0, "trials": 1, "seed": 0}
    cfg["modes"] = ["mono"]
    cfg["filter_positions"] = ["matched"]
    cfg["frequency_grid"]["points_per_octave"] = 6
    cfg["output_dir"] = "out"
    return cfg


def run_partial_skip() -> dict:
    """Warnings, manifest skips and spectra and area values of the partial-skip run."""
    Path("config.json").write_text(json.dumps(partial_skip_config()), encoding="utf-8")
    out = {}
    for command in ("spectra", "map"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            assert cli_main([command, "config.json"]) == 0
        manifest = json.loads(Path("out", f"manifest_{command}.json").read_text(encoding="utf-8"))
        out[command] = {"stderr": err.getvalue(), "skipped": manifest["skipped_frequencies"]}
    out["files"] = {p.name: OUTPUTS.parse_file(p) for p in sorted(Path("out").glob("*.csv"))
                    if not p.name.startswith("map_")}
    return out


def run(cfg: dict, commands=("spectra", "map")) -> dict:
    """Run ``commands`` in the working directory; every file written, parsed, by name."""
    Path("config.json").write_text(json.dumps(cfg), encoding="utf-8")
    for command in commands:
        assert cli_main([command, "config.json"]) == 0
    return OUTPUTS.parse_dir(Path(cfg["output_dir"]))


def mismatches(ref, out) -> tuple[int, list[str]]:
    """(count, the first few) of the places where ``out`` differs from ``ref``
    beyond the tolerance, by the benchmark's checker."""
    problems: list[str] = []
    return OUTPUTS._compare(ref, out, "", problems), problems


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def test_reduced_default_run_matches_the_golden_reference(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert mismatches(load_reference(), run(golden_config())) == (0, [])


def test_beta_changed_by_one_part_in_a_million_fails_the_comparison(tmp_path, monkeypatch):
    # auto beta is K * sigma^2 = 4 * 1e-4: given as that number the spectra
    # match; one part in a million more moves hundreds of their 4320 values
    monkeypatch.chdir(tmp_path)
    reference = load_reference()
    counts = []
    for beta, out_dir in ((4e-4, "same"), (4e-4 * (1 + 1e-6), "nudged")):
        cfg = golden_config()
        cfg["beta"], cfg["output_dir"] = beta, out_dir
        out = run(cfg, commands=("spectra",))
        names = [n for n in out if n.startswith("spectra_")]
        assert len(names) == 12
        counts.append(mismatches({n: reference[n] for n in names}, {n: out[n] for n in names})[0])
    assert counts[0] == 0 and counts[1] > 100, counts


def test_partial_skip_inside_one_batch_matches_the_pinned_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    reference = json.loads(PARTIAL_SKIP.read_text(encoding="utf-8"))
    out = run_partial_skip()
    for command in ("spectra", "map"):
        assert out[command] == reference[command]
    assert len(reference["spectra"]["skipped"]["mono_centered_matched"]) == 20
    assert mismatches(reference["files"], out["files"]) == (0, [])


def check_benchmark_reference(name: str, out: Path) -> tuple[str, list[str]]:
    """The benchmark checker's verdict on ``out`` against workload ``name`` at seed 0."""
    return OUTPUTS.check_reference(
        OUTPUTS.parse_dir(out), PERFBENCH / "reference" / f"{name}-seed0.json.xz"
    )


def test_map_fine_matches_the_benchmark_reference(map_fine_run):
    out, _ = map_fine_run
    assert check_benchmark_reference("map_fine", out) == ("checked", [])


def test_spectra_default_matches_the_benchmark_reference(tmp_path):
    out = run_workload("spectra_default", tmp_path)
    assert check_benchmark_reference("spectra_default", out) == ("checked", [])


def test_spectra_unshared_matches_the_benchmark_reference(tmp_path):
    out = run_workload("spectra_unshared", tmp_path)
    assert check_benchmark_reference("spectra_unshared", out) == ("checked", [])


# numpy's dispatch targets above AVX2 (X86_V3): NPY_DISABLE_CPU_FEATURES can
# switch off those the CPU has, so that numpy takes its AVX2 loops
ABOVE_AVX2 = ("AVX512_ICL", "AVX512_SPR", "X86_V4")


@pytest.mark.xfail(strict=True, reason=(
    "resolve_config builds the log grid with numpy's SIMD power, whose last bits depend "
    "on the dispatch, and the draws are keyed by each frequency's bits; the fix builds "
    "the grid in scalar arithmetic"))
def test_spectra_default_is_the_same_with_numpy_on_its_avx2_loops(tmp_path):
    found = numpy.show_config(mode="dicts")["SIMD Extensions"]["found"]
    disabled = [target for target in ABOVE_AVX2 if target in found]
    if not disabled:
        pytest.skip(f"numpy finds none of {', '.join(ABOVE_AVX2)} here: "
                    "both runs would take the same loops")
    (tmp_path / "here").mkdir()
    here = run_workload("spectra_default", tmp_path / "here")
    child = tmp_path / "child"
    child.mkdir()
    (child / "config.json").write_bytes((tmp_path / "here" / "config.json").read_bytes())
    done = run_python(["-c", CLI, "spectra", "config.json", "--seed", "0", "-o", "out"], child,
                      NPY_DISABLE_CPU_FEATURES=" ".join(disabled))
    assert done.returncode == 0, done.stderr
    count, problems = mismatches(OUTPUTS.parse_dir(here), OUTPUTS.parse_dir(child / "out"))
    assert count == 0, [f"{count} values differ with {' '.join(disabled)} disabled", *problems]


if __name__ == "__main__":
    home = os.getcwd()
    for path, make in ((REFERENCE, lambda: OUTPUTS._round9(run(golden_config()))),
                       (PARTIAL_SKIP, run_partial_skip)):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            parsed = make()
            os.chdir(home)
        path.parent.mkdir(exist_ok=True)
        path.write_text(
            json.dumps(parsed, sort_keys=True, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {path} ({path.stat().st_size} bytes)", file=sys.stderr)
