"""The benchmark's traced functions exist in the library, and a traced
pass of each workload gives every declared per-layer metric.

``perfbench/tracer.py`` times the functions its ``TRACED`` tuple names, as
``(module, function)`` pairs looked up in ``primelab.<module>``.  A pair that
no longer resolves is reported as absent there and the per-layer metrics it
feeds are left out, so a traced run changes the shape of its result.  The
first test fails first, when a traced function is deleted or renamed.  A
metric can also go missing with every name resolving, when a pass stops
calling what feeds it (``tables.cache_hit_ratio`` needs a table load or a
top-level build): the second test runs each workload's seed-0 cells
through the tracer and holds the names of the result to ``BENCHMARK.json``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
import importlib
import json
import os
from pathlib import Path
import subprocess
import sys

ROOT = Path(__file__).resolve().parent.parent

#: the metrics perfbench/run.py adds to those of ``tracer.layer_metrics``
RUN_METRICS = {"trace.wall_s", "trace.overhead_s", "cli.stdout_bytes",
               "cli.sympy_imports", "cli.import_s"}


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import TRACED

    absent = [f"{home}.{func}" for home, func in TRACED
              if not callable(getattr(importlib.import_module(f"primelab.{home}"), func, None))]
    assert TRACED
    assert absent == []


def _traced_pass(name: str, work: Path) -> list[dict]:
    """The span dumps of one traced seed-0 pass of a workload, run in work
    as the benchmark runs it: a warm workload on a cache dir that one
    untraced pass has filled, a fresh one on an empty dir."""
    from workloads import WORKLOADS  # perfbench is on the path

    workload = WORKLOADS[name]
    cache = work / "cache"
    cache.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k not in ("PRIMELAB_BACKEND", "PYTHONPATH")}
    env.update(PYTHONPATH=str(ROOT / "src"), PRIMELAB_CACHE_DIR=str(cache))
    cells = workload.pick(0)

    def run(cmd):
        done = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, (cmd, done.stderr[-500:])

    if workload.cache == "warm":
        for argv in cells:
            run([sys.executable, "-m", "primelab", *argv])
    dumps = []
    for i, argv in enumerate(cells):
        spans = work / f"cell{i}.spans.json"
        run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), *argv])
        dumps.append(json.loads(spans.read_text()))
    return dumps


def test_traced_passes_give_every_declared_metric(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {metric["name"] for metric in bench["per_layer"]}
    names = [workload["name"] for workload in bench["workloads"]]
    with ThreadPoolExecutor(max_workers=2) as pool:
        passes = dict(zip(names, pool.map(lambda n: _traced_pass(n, tmp_path / n), names)))
    for name, dumps in passes.items():
        metrics, absent = tracer.layer_metrics(dumps)
        assert absent == [], name
        assert set(metrics) | RUN_METRICS == declared, name
