"""Golden tests: the benchmark's references, the partial-skip store, and the
grid independence that lets them stand for coarser runs.

Three tests check the benchmark's ``map_fine``, ``spectra_default`` and
``spectra_unshared`` runs at seed 0 against the benchmark's own committed
references (``perfbench/reference/*-seed0.json.xz``), with the benchmark's
own parser and checker (``perfbench/outputs.py``). Numbers match when they
agree to its relative ``REL_TOL`` = 2e-8 or absolute ``ABS_TOL`` = 1e-12
(grid coordinates that come out as 0 or 1e-16). The writers print 9
significant digits, so one unit in the last printed digit is up to 1e-8 of
the value: a tighter tolerance, such as 1e-9 dB, would demand an exact
match of the printed digits, and a refactor that moves the numbers by
~1e-12 relative (a batched solve in place of the per-frequency Cholesky
solve) may flip a last digit. Changing beta by one part in a million
already moves thousands of ``spectra_default``'s values by more than the
tolerance, as the beta test shows. Byte identity is
``tests/test_digests.py``'s check.

A draw is keyed by its frequency's bits, not by where the frequency sits in
a grid, so a coarser grid whose points are bitwise in the template's writes
the same raw spectra values: the grid-independence test checks that the
template at 6 points per octave writes, text for text, the rows of
``spectra_default`` at its 40 frequencies. A store of such a run would hold
nothing the benchmark reference does not.

Another test pins a run in which only part of the grid can be designed:
with beta 0 below 1 kHz and no perturbation, the normal matrix of the
4-point, 8-speaker design is singular there, so ``spectra`` and ``map``
skip those frequencies and go on with the rest. Its warnings and the
manifests' skipped frequencies must match ``tests/golden/partial_skip.json``
exactly, and its spectra and area values within the tolerance above; and the
generator below must write that file byte for byte, so the store never
goes stale in form.

This module regenerates one store, ``tests/golden/partial_skip.json``.
Regenerate it only for an intended change of numbers, and record that
change in CHANGES.md::

    PYTHONPATH=src python tests/test_golden.py

The benchmark references are re-recorded by ``perfbench/make_reference.py``
and the digests by ``tests/snapshot_outputs.py --digests``.
"""

from __future__ import annotations

import contextlib
import io
import json
import lzma
import os
import sys
import tempfile
from pathlib import Path

import numpy
import pytest

from conftest import CLI, PERFBENCH, perfbench_outputs, run_cli, run_python, run_workload, workload
from pszsim.cli import main as cli_main
from pszsim.config import default_config_dict, resolve_config

PARTIAL_SKIP = Path(__file__).resolve().parent / "golden" / "partial_skip.json"
OUTPUTS = perfbench_outputs()
# the spectra CSV columns that no smoothing window mixes across frequencies
RAW_COLUMNS = ("izi_a_db", "izi_b_db", "ipi_a_db", "ipi_b_db")


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


def store_bytes(payload: dict) -> bytes:
    """A store's file content: ``payload`` as sorted, compact JSON and a newline."""
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def mismatches(ref, out) -> tuple[int, list[str]]:
    """(count, the first few) of the places where ``out`` differs from ``ref``
    beyond the tolerance, by the benchmark's checker."""
    problems: list[str] = []
    return OUTPUTS._compare(ref, out, "", problems), problems


def benchmark_reference(name: str) -> Path:
    return PERFBENCH / "reference" / f"{name}-seed0.json.xz"


def test_beta_changed_by_one_part_in_a_million_fails_the_comparison(tmp_path):
    # auto beta is K * sigma^2 = 4 * 1e-4: given as that number the spectra
    # match the spectra_default reference; one part in a million more moves
    # 4,777 of its 34,452 spectra values
    reference = json.loads(lzma.decompress(benchmark_reference("spectra_default").read_bytes()))
    command, cfg = workload("spectra_default")
    counts = []
    for beta, label in ((4e-4, "same"), (4e-4 * (1 + 1e-6), "nudged")):
        cfg["beta"] = beta
        (tmp_path / label).mkdir()
        out = OUTPUTS.parse_dir(run_cli(command, cfg, tmp_path / label))
        names = [n for n in out if n.startswith("spectra_")]
        assert len(names) == 12
        counts.append(mismatches({n: reference[n] for n in names}, {n: out[n] for n in names})[0])
    assert counts[0] == 0 and counts[1] > 1000, counts


def test_spectra_on_a_coarser_nested_grid_are_the_rows_of_the_template(
        spectra_default_run, tmp_path):
    command, cfg = workload("spectra_default")
    cfg["frequency_grid"]["points_per_octave"] = 6
    coarse_out = run_cli(command, cfg, tmp_path)
    fine_cfg = json.loads((spectra_default_run.parent / "config.json").read_text(encoding="utf-8"))
    assert fine_cfg["frequency_grid"]["points_per_octave"] == 48
    coarse, fine = (resolve_config(c).frequencies.view(numpy.uint64) for c in (cfg, fine_cfg))
    assert len(coarse) == 40 and numpy.isin(coarse, fine).all()
    at = numpy.searchsorted(fine, coarse)  # same order: positive floats sort as their bits
    names = sorted(p.name for p in coarse_out.glob("spectra_*.csv"))
    assert len(names) == 12
    differing = rows = 0
    for name in names:
        coarse_lines, fine_lines = ((d / name).read_text(encoding="utf-8").splitlines()
                                    for d in (coarse_out, spectra_default_run))
        header = coarse_lines[0].split(",")
        assert header == fine_lines[0].split(",")
        keep = [header.index(c) for c in ("frequency_hz", *RAW_COLUMNS)]
        for k, line in enumerate(coarse_lines[1:]):
            cells, fine_cells = line.split(","), fine_lines[1 + at[k]].split(",")
            differing += [cells[j] for j in keep] != [fine_cells[j] for j in keep]
            rows += 1
    assert (differing, rows) == (0, 480)


def test_partial_skip_inside_one_batch_matches_the_pinned_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    reference = json.loads(PARTIAL_SKIP.read_text(encoding="utf-8"))
    out = run_partial_skip()
    for command in ("spectra", "map"):
        assert out[command] == reference[command]
    assert len(reference["spectra"]["skipped"]["mono_centered_matched"]) == 20
    assert mismatches(reference["files"], out["files"]) == (0, [])


def test_partial_skip_generator_writes_its_store_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert store_bytes(run_partial_skip()) == PARTIAL_SKIP.read_bytes()


def check_benchmark_reference(name: str, out: Path) -> tuple[str, list[str]]:
    """The benchmark checker's verdict on ``out`` against workload ``name`` at seed 0."""
    return OUTPUTS.check_reference(OUTPUTS.parse_dir(out), benchmark_reference(name))


def test_map_fine_matches_the_benchmark_reference(map_fine_run):
    out, _ = map_fine_run
    assert check_benchmark_reference("map_fine", out) == ("checked", [])


def test_spectra_default_matches_the_benchmark_reference(spectra_default_run):
    assert check_benchmark_reference("spectra_default", spectra_default_run) == ("checked", [])


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
def test_spectra_default_is_the_same_with_numpy_on_its_avx2_loops(spectra_default_run, tmp_path):
    found = numpy.show_config(mode="dicts")["SIMD Extensions"]["found"]
    disabled = [target for target in ABOVE_AVX2 if target in found]
    if not disabled:
        pytest.skip(f"numpy finds none of {', '.join(ABOVE_AVX2)} here: "
                    "both runs would take the same loops")
    (tmp_path / "config.json").write_bytes((spectra_default_run.parent / "config.json").read_bytes())
    done = run_python(["-c", CLI, "spectra", "config.json", "--seed", "0", "-o", "out"], tmp_path,
                      NPY_DISABLE_CPU_FEATURES=" ".join(disabled))
    assert done.returncode == 0, done.stderr
    count, problems = mismatches(OUTPUTS.parse_dir(spectra_default_run),
                                 OUTPUTS.parse_dir(tmp_path / "out"))
    assert count == 0, [f"{count} values differ with {' '.join(disabled)} disabled", *problems]


if __name__ == "__main__":
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        payload = run_partial_skip()
        os.chdir(home)
    PARTIAL_SKIP.write_bytes(store_bytes(payload))
    print(f"wrote {PARTIAL_SKIP} ({PARTIAL_SKIP.stat().st_size} bytes)", file=sys.stderr)
