"""The primelab benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads are defined in workloads.py; the default seed 0 runs the ROADMAP's
canonical cells.  One client runs a pass's cells one after another, each in
a fresh `python -m primelab` process (a closed loop with one request
outstanding), and checks every cell's rows against the oracle (oracle.py).

Set-up (untimed by the metrics below, timed as `setup_s`) is a warm-up
`--help` process and, for the warm-cache workload, the pass that fills the
cache.  It is repeated at least SETUP_REPEATS times, and up to
SETUP_MAX_REPEATS times while SETUP_SECONDS have not gone by, and the median
is reported.

--trace 0 runs timed passes for about --seconds (the pass count is --seconds
over the typical pass length, rounded, and at least one; a pass is never cut
short) and prints the end-to-end metrics, medians over the passes:

    wall_s       wall seconds of one pass
    cpu_s        user+sys seconds of the pass's cell processes (os.wait4)
    peak_rss_mb  largest per-cell peak RSS in a pass (os.wait4)
    disk_mb      MB on disk after a pass: its cache dir plus the cells' output
    setup_s      median seconds of one set-up
    ok_ratio     cells that exited 0 with the expected rows / cells attempted

--trace 1 runs one untraced pass and one traced pass (tracer.py) and prints
the per-layer metrics of the traced pass, plus `trace.overhead_s` (traced
minus untraced wall time).

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  A fuller record (environment, every pass, the spread
between passes, failures) is written to .perfbench/results/ in the root.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import oracle
import tracer
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().with_name("tracer.py")

CELL_TIMEOUT_S = 60
SETUP_REPEATS = 3
# A cheap set-up (a --help process) is repeated more, for a steadier median.
SETUP_MAX_REPEATS = 9
SETUP_SECONDS = 3.0
# No new pass starts once this much of the run has gone by, so that a run
# ends well within the 180 s a run may take.
RUN_BUDGET_S = 120
IMPORT_REPEATS = 5

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "disk_mb": "MB", "setup_s": "s", "ok_ratio": "ratio"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("ratio"):
        return "ratio"
    if "bytes" in name:
        return "bytes"
    return "count"


@dataclass
class CellRun:
    argv: list[str]
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout_bytes: int
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class PassRun:
    label: str
    wall_s: float
    cells: list[CellRun]
    disk_mb: float

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.cells)

    @property
    def peak_rss_mb(self) -> float:
        return max(c.peak_rss_mb for c in self.cells)


class Bench:
    """One benchmark run: a workload, a seed and a working directory."""

    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.cells = workload.pick(seed)
        self.expected = oracle.load_expected()
        self.work = work
        self.cache_dir = work / "cache"
        self.out_dir = work / "out"
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PRIMELAB_CACHE_DIR", "PRIMELAB_BACKEND", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(SRC)
        if workload.cache is not None:
            self.env["PRIMELAB_CACHE_DIR"] = str(self.cache_dir)

    # -- one process ------------------------------------------------------

    def spawn(self, cmd: list[str], out_path: Path):
        """Run cmd with stdout to out_path: (wall s, exit code, rusage, timed out)."""
        timed_out = threading.Event()
        err_path = out_path.with_suffix(".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.work, env=self.env)

            def kill() -> None:
                timed_out.set()
                proc.kill()

            timer = threading.Timer(CELL_TIMEOUT_S, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage, timed_out.is_set()

    def run_cell(self, argv: list[str], index: int, spans: Path | None = None) -> CellRun:
        out_path = self.out_dir / f"cell{index}.out"
        if spans is None:
            cmd = [sys.executable, "-m", "primelab", *argv]
        else:
            cmd = [sys.executable, str(TRACER), str(spans), *argv]
        wall, code, usage, timed_out = self.spawn(cmd, out_path)
        cell = CellRun(argv=argv, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                       peak_rss_mb=usage.ru_maxrss / 1024.0, exit_code=code,
                       stdout_bytes=out_path.stat().st_size)
        if timed_out:
            cell.problems.append(f"timed out after {CELL_TIMEOUT_S} s")
        elif code != 0:
            err = out_path.with_suffix(".err").read_text(errors="replace")
            cell.problems.append(f"exit {code}: {err.strip()[-300:]}")
        return cell

    # -- passes -----------------------------------------------------------

    def run_pass(self, label: str, traced: bool = False) -> tuple[PassRun, list[dict]]:
        if self.workload.cache == "fresh":
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir.mkdir()
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir()
        spans = [self.out_dir / f"cell{i}.spans.json" for i in range(len(self.cells))] \
            if traced else [None] * len(self.cells)
        t0 = time.perf_counter()
        cells = [self.run_cell(argv, i, spans[i]) for i, argv in enumerate(self.cells)]
        wall = time.perf_counter() - t0
        # Checks and disk accounting happen after the pass, outside its time.
        disk = tracer.tree_bytes(self.cache_dir)
        for i, cell in enumerate(cells):
            out_path = self.out_dir / f"cell{i}.out"
            disk += out_path.stat().st_size
            if cell.exit_code == 0:
                want = self.expected.get(" ".join(cell.argv))
                if want is None:
                    cell.problems.append("no expected rows for this cell")
                else:
                    cell.problems += oracle.compare(out_path.read_text(), want)
        dumps = [json.loads(p.read_text()) for p in spans if p is not None and p.exists()]
        return PassRun(label=label, wall_s=wall, cells=cells, disk_mb=disk / 1e6), dumps

    def setup(self) -> tuple[float, list[PassRun]]:
        """One set-up: warm-up process, and the cache-filling pass if warm."""
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir(parents=True)
        self.out_dir.mkdir(exist_ok=True)
        t0 = time.perf_counter()
        help_run = self.run_cell(["--help"], -1)
        fills = [self.run_pass("setup")[0]] if self.workload.cache == "warm" else []
        elapsed = time.perf_counter() - t0
        if help_run.exit_code != 0:
            raise RuntimeError(f"primelab --help failed: {help_run.problems}")
        return elapsed, fills

    def import_seconds(self) -> float:
        """Median time for a fresh interpreter to `import primelab`."""
        code = ("import time; t = time.perf_counter(); import primelab; "
                "print(time.perf_counter() - t)")
        times = []
        for _ in range(IMPORT_REPEATS):
            proc = subprocess.run([sys.executable, "-c", code], cwd=self.work, env=self.env,
                                  capture_output=True, text=True, check=True)
            times.append(float(proc.stdout))
        return statistics.median(times)


def _quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else None}


def speed_probe() -> float:
    """Median seconds of a fixed pure-Python loop: how fast the machine is now."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment() -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                  capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "primelab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "nproc": os.cpu_count(),
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "sympy_importable": importlib.util.find_spec("sympy") is not None,
        "platform": platform.platform(),
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    work = ROOT / ".perfbench" / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record: dict = {"workload": workload.name, "seed": seed, "seconds": seconds,
                    "trace": trace, "environment": environment(),
                    "loadavg_start": os.getloadavg(), "probe_s_start": speed_probe()}
    bench = Bench(workload, seed, work)
    record["cells"] = [" ".join(argv) for argv in bench.cells]
    try:
        setups, fills = [], []
        while len(setups) < SETUP_REPEATS or (
                len(setups) < SETUP_MAX_REPEATS and sum(setups) < SETUP_SECONDS):
            elapsed, filled = bench.setup()
            setups.append(elapsed)
            fills += filled
        passes: list[PassRun] = []
        if trace:
            plain, _ = bench.run_pass("untraced")
            traced, dumps = bench.run_pass("traced", traced=True)
            passes = [plain, traced]
            metrics, absent = tracer.layer_metrics(dumps)
            metrics["trace.wall_s"] = traced.wall_s
            metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
            metrics["cli.stdout_bytes"] = sum(c.stdout_bytes for c in traced.cells)
            metrics["cli.sympy_imports"] = sum(d["sympy_imported"] for d in dumps)
            metrics["cli.import_s"] = bench.import_seconds()
            record["absent"] = absent
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            # Start another pass if one more of the typical length ends at most
            # half a pass after --seconds (and within the run's budget), so
            # the pass count is --seconds over the pass length, rounded; at
            # least one pass runs.
            measure_start = time.perf_counter()
            while True:
                passes.append(bench.run_pass(f"pass{len(passes)}")[0])
                typical = statistics.median(p.wall_s for p in passes)
                now = time.perf_counter()
                if (now - measure_start + typical / 2 > seconds
                        or now - start + typical > RUN_BUDGET_S):
                    break
            metrics = {
                "wall_s": statistics.median(p.wall_s for p in passes),
                "cpu_s": statistics.median(p.cpu_s for p in passes),
                "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
                "disk_mb": statistics.median(p.disk_mb for p in passes),
                "setup_s": statistics.median(setups),
            }
            units = dict(END_TO_END_UNITS)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_cells = [c for p in fills + passes for c in p.cells]
    failed = [c for c in all_cells if not c.ok]
    if not trace:
        metrics["ok_ratio"] = (len(all_cells) - len(failed)) / len(all_cells)
    record.update({
        "loadavg_end": os.getloadavg(),
        "probe_s_end": speed_probe(),
        "setup_s": setups,
        "passes": [{"label": p.label, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
                    "peak_rss_mb": p.peak_rss_mb, "disk_mb": p.disk_mb,
                    "cells": [asdict(c) for c in p.cells]} for p in fills + passes],
        "spread_between_passes": {} if trace or len(passes) < 2 else {
            key: _quartiles([getattr(p, key) for p in passes])
            for key in ("wall_s", "cpu_s", "peak_rss_mb")},
        "slowest_pass_wall_s": max(p.wall_s for p in passes),
        "failures": [{"cell": " ".join(c.argv), "problems": c.problems} for c in failed],
        "metrics": metrics,
    })
    if trace:
        wall = metrics["trace.wall_s"]
        record["design_checks"] = {
            "sieve_and_walk_share": (metrics.get("tables.build_tables.self_s", 0.0)
                                     + metrics.get("lemmas.multiplicative_values.self_s", 0.0)) / wall,
            "tables_share": (metrics.get("tables.build_tables.self_s", 0.0)
                             + metrics.get("tables.load_tables.self_s", 0.0)) / wall,
        }
    record["result"] = {
        "correct": not failed,
        "attempted": len(all_cells),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "primelab" / "__init__.py").is_file():
        print(f"perfbench: no primelab sources under {SRC}", file=sys.stderr)
        return 2
    record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    for failure in record["failures"][:5]:
        print(f"FAILED {failure['cell']}: {failure['problems'][:2]}", file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
