"""Output oracle: the expected data rows of every cell variant.

`expected.json.gz` maps each cell's argument string to the header and data
rows that cell printed when the oracle was generated.  A cell's output
matches when:

* the `#` config-echo lines are ignored (they carry `cache_dir` and other
  settings that planned refactors may change);
* the header (CSV) or row keys (JSON) and the number of rows are the same;
* integer, exact-rational, boolean and text values are equal byte for byte;
* float values agree within the column's tolerance in FLOAT_TOLERANCE;
* residual columns in GATES pass their gate instead of being compared.

Regenerate the file (only when the program's output is meant to change) with

    python3 perfbench/oracle.py

from the repository root; it runs every variant of every workload once.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json.gz")

DEFAULT_TOLERANCE = (1e-9, 1e-12)  # (rtol, atol): |got - want| <= atol + rtol*|want|
# Columns that are differences of nearly equal sums, or values near zero.
FLOAT_TOLERANCE = {
    "residual": (1e-6, 1e-6),
    "normalized_residual": (1e-6, 1e-12),
    "prediction_residual": (1e-6, 1e-12),
    "lambda_R": (1e-9, 1e-9),
    "biglambda_R": (1e-9, 1e-9),
}


def _exact_zero_or_small(value: str, row: dict[str, str], scale_col: str, rtol: float) -> bool:
    got = Fraction(value)
    if "/" in value or _is_int(value):
        return got == 0
    return abs(got) <= rtol * max(1, abs(Fraction(row[scale_col])))


# Residual columns: checked against the gate the program itself asserts.
GATES = {
    "identity_residual_2": lambda v, row: float(v) <= 1e-6,
    "identity_residual_3": lambda v, row: float(v) <= 1e-6,
    "expansion_residual": lambda v, row: v == "" or _exact_zero_or_small(v, row, "computed", 1e-9),
    "max_abs_diff": lambda v, row: float(v) <= 1e-12 * abs(float(row["direct"])),
}


def _is_int(text: str) -> bool:
    return text.lstrip("-").isdigit()


def _is_float(text: str) -> bool:
    if _is_int(text) or "/" in text:
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


def _json_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_rows(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of one cell's stdout (CSV or JSON)."""
    if text.lstrip().startswith("{"):
        rows = json.loads(text)["rows"]
        header = sorted(rows[0]) if rows else []
        return header, [[_json_cell(row.get(k)) for k in header] for row in rows]
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    table = list(csv.reader(lines))
    return (table[0], table[1:]) if table else ([], [])


def _float_close(got: str, want: str, column: str) -> bool:
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    if math.isnan(w):
        return math.isnan(g)
    rtol, atol = FLOAT_TOLERANCE.get(column, DEFAULT_TOLERANCE)
    return abs(g - w) <= atol + rtol * abs(w)


def compare(text: str, expected: dict) -> list[str]:
    """Mismatches between a cell's stdout and its expected rows (empty if none)."""
    try:
        header, rows = parse_rows(text)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparsable output: {exc}"]
    if header != expected["header"]:
        return [f"header {header} != {expected['header']}"]
    if len(rows) != len(expected["rows"]):
        return [f"{len(rows)} rows, expected {len(expected['rows'])}"]
    problems = []
    for i, (got_row, want_row) in enumerate(zip(rows, expected["rows"])):
        if len(got_row) != len(header):
            problems.append(f"row {i}: {len(got_row)} fields")
            continue
        named = dict(zip(header, got_row))
        for column, got, want in zip(header, got_row, want_row):
            gate = GATES.get(column)
            if gate is not None:
                try:
                    ok = gate(got, named)
                except (ValueError, ZeroDivisionError, KeyError):
                    ok = False
            elif _is_float(want):
                ok = _float_close(got, want, column)
            else:
                ok = got == want
            if not ok:
                problems.append(f"row {i} {column}: {got[:40]!r} (expected {want[:40]!r})")
        if len(problems) >= 5:
            break
    return problems


def load_expected() -> dict:
    with gzip.open(EXPECTED_PATH, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def generate(root: Path) -> dict:
    """Run every variant of every workload once and record its rows."""
    from workloads import WORKLOADS

    env = {k: v for k, v in os.environ.items()
           if k not in ("PRIMELAB_CACHE_DIR", "PRIMELAB_BACKEND")}
    env["PYTHONPATH"] = str(root / "src")
    out = {}
    for workload in WORKLOADS.values():
        for argv in workload.variants():
            key = " ".join(argv)
            proc = subprocess.run([sys.executable, "-m", "primelab", *argv],
                                  cwd=root, env=env, capture_output=True,
                                  text=True, check=True)
            header, rows = parse_rows(proc.stdout)
            out[key] = {"header": header, "rows": rows}
            print(f"{key}: {len(rows)} rows", file=sys.stderr)
    return out


if __name__ == "__main__":
    data = generate(Path(__file__).resolve().parent.parent)
    with gzip.GzipFile(EXPECTED_PATH, "wb", mtime=0) as raw:
        raw.write(json.dumps(data, sort_keys=True, indent=0).encode("utf-8"))
