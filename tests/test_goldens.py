"""Cross-environment goldens: benchmark cells against the benchmark's oracle.

``perfbench/expected.json.gz`` holds the data rows of every benchmark cell,
and ``perfbench/oracle.py`` compares a cell's stdout with them: integers and
fractions byte for byte, floats to a per-column tolerance, residuals against
their gates.  Running the canonical (seed-0) pass of each workload, and the
other variants of the window-sum and lemma cells, through that oracle
checks the CLI's numbers with no second copy of the rules.
"""

from __future__ import annotations

import os
from pathlib import Path
import subprocess
import sys

ROOT = Path(__file__).resolve().parent.parent


def _oracle_problems(cells, cache_dir, monkeypatch) -> list[str]:
    """Run each argv in a fresh interpreter with one shared cache dir and
    list every nonzero exit and every row the oracle rejects."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import oracle

    expected = oracle.load_expected()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PRIMELAB_CACHE_DIR=str(cache_dir))
    problems = []
    for argv in cells:
        key = " ".join(argv)
        proc = subprocess.run([sys.executable, "-m", "primelab", *argv],
                              capture_output=True, text=True, env=env, timeout=300)
        if proc.returncode != 0:
            problems.append(f"{key}: exit {proc.returncode}: {proc.stderr[-300:]}")
        else:
            problems += [f"{key}: {p}" for p in oracle.compare(proc.stdout, expected[key])]
    return problems


def _workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    return WORKLOADS


def test_seed0_cells_match_the_oracle(tmp_path, monkeypatch):
    """Every seed-0 cell of every workload, run in a fresh interpreter with
    one shared, initially empty cache dir, exits 0 with the expected rows."""
    cells = [argv for w in _workloads(monkeypatch).values() for argv in w.pick(0)]
    assert _oracle_problems(cells, tmp_path, monkeypatch) == []


def test_moments_variants_match_the_oracle(tmp_path, monkeypatch):
    """The `moments` and `lemma` variants of cells_1e6_warm that seed 0
    does not run (another lambda for psi_R, another h for the psi windows
    and the first moment, j = 4 and 6 for the log-weighted Lemma 4) exit 0
    with the expected rows."""
    warm = _workloads(monkeypatch)["cells_1e6_warm"]
    seed0 = warm.pick(0)
    cells = [argv for argv in warm.variants()
             if argv[0] in ("moments", "lemma") and argv not in seed0]
    assert len(cells) == 5
    assert _oracle_problems(cells, tmp_path, monkeypatch) == []
