"""Output checks: one CLI invocation passes only if every rule here holds.

Rules: exit code 0; the CSV header is exact; the row keys
``(kind, H, N, M, epsilon)`` match the reference in order; ``bound_value``
is within 1e-9 relative of the reference (finite-horizon delay rows: within
the command's absolute tolerance); validate rows also need
``empirical_frequency <= epsilon``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
REL_TOL = 1e-9


def load_reference(path: Path = REFERENCE_FILE) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def digest(outputs) -> str:
    """One hash of a pass's outputs, to compare passes byte for byte."""
    return hashlib.sha256("\0".join(outputs).encode()).hexdigest()


def _as_float(text: str) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def row_key(row: dict) -> list:
    return [row["kind"], int(row["H"]), int(row["N"]), int(row["M"]), float(row["epsilon"])]


def check_output(command, exit_code, text: str, reference: dict) -> list:
    """Problems found in one invocation's result; an empty list means it passed."""
    if exit_code != 0:
        return [f"{command.ref}: exit code {exit_code!r}, expected 0"]
    lines = text.splitlines()
    if not lines or lines[0] != reference["header"]:
        return [f"{command.ref}: CSV header is {lines[0] if lines else ''!r}"]
    expected = reference["commands"][command.ref]
    try:
        rows = list(csv.DictReader(io.StringIO(text)))
        keys = [row_key(r) for r in rows]
        values = [float(r["bound_value"]) for r in rows]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"{command.ref}: unparsable CSV row ({exc})"]
    if keys != [e["key"] for e in expected]:
        return [f"{command.ref}: row keys differ from the reference"]
    problems = []
    for row, value, ref in zip(rows, values, expected):
        if command.delay_abs_tol_s and row["kind"] == "delay":
            ok = abs(value - ref["bound_value"]) <= command.delay_abs_tol_s
        else:
            ok = math.isclose(value, ref["bound_value"], rel_tol=REL_TOL, abs_tol=0.0)
        if not ok:
            problems.append(f"{command.ref} {row_key(row)}: bound_value {value!r}, "
                            f"reference {ref['bound_value']!r}")
        if command.check_empirical:
            freq = row["empirical_frequency"]
            if not _as_float(freq) <= float(row["epsilon"]):
                problems.append(f"{command.ref} {row_key(row)}: empirical_frequency {freq!r} "
                                f"exceeds epsilon")
    return problems
