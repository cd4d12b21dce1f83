"""Workload configs, and parsing and checking of the files a pszsim run writes.

A reference holds every value of every output file of one invocation, CSV
columns and JSON trees alike, rounded to the 9 significant digits the CSV
writers print. Outputs match a reference when every string is equal and
every number agrees within ``REL_TOL``: one unit in the 9th digit is 1e-8
of the value at most, so a refactor that moves numbers by ~1e-12 (a batched
solve in place of per-frequency Cholesky) may flip a printed last digit and
still pass, while a 0.25 % change of beta fails on thousands of values.
"""

from __future__ import annotations

import copy
import hashlib
import json
import lzma
import math
from pathlib import Path

REL_TOL = 2e-8
# Grid coordinates such as -1.0 + 100 * 0.01 may come out as 0 or 1e-16
# depending on how they are computed; below this they count as equal.
ABS_TOL = 1e-12
MAX_REPORTED = 10


def workload_config(template: dict, delta: dict) -> dict:
    """The template with each dotted path of ``delta`` replaced."""
    config = copy.deepcopy(template)
    for path, value in delta.items():
        *parents, leaf = path.split(".")
        node = config
        for key in parents:
            node = node[key]
        node[leaf] = copy.deepcopy(value)
    return config


def digests(directory: Path) -> dict[str, str]:
    """sha256 of every file in ``directory``, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
    }


def parse_file(path: Path):
    """A CSV as ``{"header", "columns"}``; a JSON file as its parsed tree."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text)
    if path.suffix != ".csv":
        raise ValueError(f"{path.name}: unexpected output type")
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    for i, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ValueError(f"{path.name}:{i}: {len(row)} cells, header has {len(header)}")
    columns = [[float(row[j]) for row in rows] for j in range(len(header))]
    return {"header": header, "columns": columns}


def parse_dir(directory: Path) -> dict:
    return {p.name: parse_file(p) for p in sorted(directory.iterdir())}


def _round9(node):
    if isinstance(node, float) and math.isfinite(node):
        return float(f"{node:.9g}")
    if isinstance(node, list):
        return [_round9(v) for v in node]
    if isinstance(node, dict):
        return {k: _round9(v) for k, v in node.items()}
    return node


def write_reference(path: Path, parsed: dict) -> None:
    text = json.dumps(_round9(parsed), sort_keys=True, separators=(",", ":"))
    path.write_bytes(lzma.compress(text.encode("utf-8"), preset=9 | lzma.PRESET_EXTREME))


def _numbers_close(a: float, b: float) -> bool:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _compare(ref, out, where: str, problems: list[str]) -> int:
    """Append mismatches under ``where`` (up to MAX_REPORTED); return their count."""
    def report(message: str) -> int:
        if len(problems) < MAX_REPORTED:
            problems.append(f"{where}: {message}")
        return 1

    if _is_number(ref) and _is_number(out):
        return 0 if _numbers_close(float(ref), float(out)) else report(f"{out!r} != {ref!r}")
    if isinstance(ref, dict) and isinstance(out, dict):
        if set(ref) != set(out):
            return report(f"keys {sorted(out)} != {sorted(ref)}")
        return sum(_compare(ref[k], out[k], f"{where}.{k}", problems) for k in sorted(ref))
    if isinstance(ref, list) and isinstance(out, list):
        if len(ref) != len(out):
            return report(f"{len(out)} items != {len(ref)}")
        return sum(_compare(r, o, f"{where}[{i}]", problems) for i, (r, o) in enumerate(zip(ref, out)))
    return 0 if ref == out else report(f"{out!r} != {ref!r}")


def check_reference(parsed: dict, path: Path) -> tuple[str, list[str]]:
    """("checked" | "unchecked" | "mismatch", problems) against a stored reference.

    A missing reference file is "unchecked": nothing was compared, so
    nothing is claimed to have passed.
    """
    if not path.is_file():
        return "unchecked", []
    reference = json.loads(lzma.decompress(path.read_bytes()).decode("utf-8"))
    problems: list[str] = []
    if set(reference) != set(parsed):
        problems.append(f"files {sorted(parsed)} != reference {sorted(reference)}")
        return "mismatch", problems
    count = sum(_compare(reference[name], parsed[name], name, problems) for name in sorted(reference))
    if count:
        problems.insert(0, f"{count} values differ from the reference")
        return "mismatch", problems
    return "checked", []


def count_units(parsed: dict, command: str) -> int:
    """Rows written: one per (mode, case, position, frequency) or map grid point."""
    prefix = "spectra_" if command == "spectra" else "map_"
    return sum(
        len(v["columns"][0]) for name, v in parsed.items()
        if name.startswith(prefix) and name.endswith(".csv")
    )


def structure_problems(parsed: dict, command: str, units_expected: int) -> list[str]:
    """Checks that hold for any seed, with or without a reference."""
    problems = []
    manifest_name = f"manifest_{command}.json"
    manifest = parsed.get(manifest_name)
    if not isinstance(manifest, dict):
        return [f"{manifest_name} missing"]
    listed = set(manifest.get("outputs", [])) | {manifest_name}
    if listed != set(parsed):
        problems.append(f"manifest lists {sorted(listed)}, directory holds {sorted(parsed)}")
    units = count_units(parsed, command)
    if units != units_expected:
        problems.append(f"{units} rows written, expected {units_expected}")
    if command == "spectra":
        for name, value in parsed.items():
            if name.endswith(".csv") and any(math.isnan(x) for col in value["columns"] for x in col):
                problems.append(f"{name}: NaN in a spectrum")
    return problems
