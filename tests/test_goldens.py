"""Cross-environment goldens: the benchmark's seed-0 cells against its oracle.

``perfbench/expected.json.gz`` holds the data rows of every benchmark cell,
and ``perfbench/oracle.py`` compares a cell's stdout with them: integers and
fractions byte for byte, floats to a per-column tolerance, residuals against
their gates.  Running the canonical (seed-0) pass of each workload through
that oracle checks the CLI's numbers with no second copy of the rules.
"""

from __future__ import annotations

import os
from pathlib import Path
import subprocess
import sys

ROOT = Path(__file__).resolve().parent.parent


def test_seed0_cells_match_the_oracle(tmp_path, monkeypatch):
    """Every seed-0 cell of every workload, run in a fresh interpreter with
    one shared, initially empty cache dir, exits 0 with the expected rows."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import oracle
    from workloads import WORKLOADS

    expected = oracle.load_expected()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PRIMELAB_CACHE_DIR=str(tmp_path))
    problems = []
    for workload in WORKLOADS.values():
        for argv in workload.pick(0):
            key = " ".join(argv)
            proc = subprocess.run([sys.executable, "-m", "primelab", *argv],
                                  capture_output=True, text=True, env=env, timeout=300)
            if proc.returncode != 0:
                problems.append(f"{key}: exit {proc.returncode}: {proc.stderr[-300:]}")
            else:
                problems += [f"{key}: {p}" for p in oracle.compare(proc.stdout, expected[key])]
    assert problems == []
