"""Spans around primelab's public functions, and the per-layer metrics they give.

Run as a script, it executes one CLI cell with tracing on:

    python tracer.py SPANS.json ARG...

It imports primelab, replaces each function in TRACED by a timing wrapper
under every `primelab.*` module name that binds it (so `primes_up_to` is
wrapped in `constants`, `lemmas` and `singular` alike), runs
`primelab.cli.main(ARG...)` and, when the cell ends, writes the spans it kept
in memory to SPANS.json.  The library is not changed and no `backend=` is
passed.  A name in TRACED that no longer exists is reported as absent, and
the metrics that need it are left out.

Imported by run.py, it turns the span files of one traced pass into the
per-layer metrics (`layer_metrics`).
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

# (module, function) pairs timed by the traced run; the module is the layer.
TRACED = (
    ("tables", "build_tables"),
    ("tables", "save_tables"),
    ("tables", "load_tables"),
    ("approximants", "build_weights"),
    ("approximants", "lambda_R_range"),
    ("singular", "singular_vector"),
    ("singular", "singular_Sn"),
    ("singular", "constant_C"),
    ("constants", "primes_up_to"),
    ("correlations", "s_k"),
    ("correlations", "s_tilde_k"),
    ("moments", "moment_psiR"),
    ("moments", "moment_psi"),
    ("moments", "first_moment_identity"),
    ("moments", "omega_experiment"),
    ("lemmas", "multiplicative_values"),
    ("lemmas", "lemma2"),
    ("lemmas", "lemma4_log"),
    ("cli", "main"),
)

RSS_LAYERS = ("tables", "approximants", "correlations", "moments", "lemmas")


# ---------------------------------------------------------------------------
# child side: wrapping and span recording
# ---------------------------------------------------------------------------

def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def tree_bytes(path) -> int:
    """Bytes of the regular files under a directory (0 if it does not exist)."""
    if not path or not os.path.isdir(path):
        return 0
    return sum(os.path.getsize(os.path.join(top, name))
               for top, _, names in os.walk(path) for name in names)


def _array_bytes(obj) -> int:
    """Bytes of the numpy arrays an object holds (computed from nbytes)."""
    return sum(getattr(v, "nbytes", 0) for v in vars(obj).values()
               if hasattr(v, "dtype"))


def _counts(label: str, result) -> dict:
    """Work counts measured at the boundary of one call."""
    if label == "tables.build_tables":
        return {"entries": int(result.n_max) + 1, "bytes": _array_bytes(result)}
    if label == "tables.load_tables":
        return {"bytes": _array_bytes(result)}
    if label in ("approximants.lambda_R_range", "lemmas.multiplicative_values"):
        return {"entries": int(result.size)}
    return {}


class Recorder:
    """Keeps the spans of one process in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def wrap(self, label: str, fn):
        cache_dir = os.environ.get("PRIMELAB_CACHE_DIR")
        measure_disk = label == "tables.save_tables"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            disk0 = tree_bytes(cache_dir) if measure_disk else 0
            span = {"name": label, "parent": self.stack[-1] if self.stack else -1,
                    "rss0": _maxrss_kb()}
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                span["rss1"] = _maxrss_kb()
                self.stack.pop()
            try:
                span.update(_counts(label, result))
            except (AttributeError, TypeError, ValueError):
                pass  # a changed result type loses only the count
            if measure_disk:
                span["bytes"] = tree_bytes(cache_dir) - disk0
            return result

        return traced


def install(recorder: Recorder) -> list[str]:
    """Wrap every TRACED function wherever primelab binds it; return the absent."""
    import importlib

    importlib.import_module("primelab")
    modules = {}
    for name in ("tables", "approximants", "singular", "constants",
                 "correlations", "moments", "lemmas", "cli"):
        try:
            modules[name] = importlib.import_module(f"primelab.{name}")
        except ImportError:
            pass
    bindings = [m for n, m in sys.modules.items()
                if m is not None and (n == "primelab" or n.startswith("primelab."))]
    absent = []
    for home, func in TRACED:
        label = f"{home}.{func}"
        original = getattr(modules.get(home), func, None)
        if original is None:
            absent.append(label)
            continue
        wrapper = recorder.wrap(label, original)
        for module in bindings:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
    return absent


def run_cell(spans_path: str, argv: list[str]) -> int:
    recorder = Recorder()
    absent = install(recorder)
    import primelab.cli

    code = 1
    try:
        code = primelab.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": recorder.spans, "absent": absent,
                       "sympy_imported": "sympy" in sys.modules}, fh)
    return code


# ---------------------------------------------------------------------------
# parent side: per-layer metrics from the span files of one traced pass
# ---------------------------------------------------------------------------

def _self_values(spans: list[dict], key0: str, key1: str) -> list[float]:
    """Each span's own share: its extent minus its direct children's extents."""
    own = [s[key1] - s[key0] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s[key1] - s[key0]
    return own


def layer_metrics(cells: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced pass, and the traced names found absent.

    `cells` holds one span dump per cell; self times and counts are summed
    over the pass, and rss deltas are the largest rise in one cell.
    """
    absent = sorted({label for cell in cells for label in cell["absent"]})
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    rss_kb = {layer: 0 for layer in RSS_LAYERS}
    loads = top_builds = 0
    for cell in cells:
        spans = cell["spans"]
        own_t = _self_values(spans, "t0", "t1")
        own_rss = _self_values(spans, "rss0", "rss1")
        cell_rss = {layer: 0 for layer in RSS_LAYERS}
        for span, t, rss in zip(spans, own_t, own_rss):
            name = span["name"]
            self_s[name] = self_s.get(name, 0.0) + t
            calls[name] = calls.get(name, 0) + 1
            for key in ("entries", "bytes"):
                if key in span:
                    slot = f"{name}.{key}"
                    counts[slot] = counts.get(slot, 0) + span[key]
            layer = name.split(".")[0]
            if layer in cell_rss:
                cell_rss[layer] += rss
            if name == "tables.load_tables":
                loads += 1
            elif name == "tables.build_tables":
                parent = span["parent"]
                if parent < 0 or spans[parent]["name"] == "cli.main":
                    top_builds += 1
        for layer, kb in cell_rss.items():
            rss_kb[layer] = max(rss_kb[layer], kb)

    metrics: dict[str, float] = {}
    for home, func in TRACED:
        label = f"{home}.{func}"
        if label not in absent:
            metrics[f"{label}.self_s"] = self_s.get(label, 0.0)
    derived = {
        "tables.build_tables.calls": ("tables.build_tables", calls.get("tables.build_tables", 0)),
        "tables.entries_built": ("tables.build_tables", counts.get("tables.build_tables.entries", 0)),
        "tables.bytes_built": ("tables.build_tables", counts.get("tables.build_tables.bytes", 0)),
        "tables.bytes_written": ("tables.save_tables", counts.get("tables.save_tables.bytes", 0)),
        "tables.bytes_read": ("tables.load_tables", counts.get("tables.load_tables.bytes", 0)),
        "approximants.build_weights.calls": ("approximants.build_weights", calls.get("approximants.build_weights", 0)),
        "approximants.lambda_R_range.entries": ("approximants.lambda_R_range", counts.get("approximants.lambda_R_range.entries", 0)),
        "lemmas.multiplicative_values.entries": ("lemmas.multiplicative_values", counts.get("lemmas.multiplicative_values.entries", 0)),
    }
    for metric, (needs, value) in derived.items():
        if needs not in absent:
            metrics[metric] = value
    if loads + top_builds and not {"tables.load_tables", "tables.build_tables"} & set(absent):
        metrics["tables.cache_hit_ratio"] = loads / (loads + top_builds)
    for layer, kb in rss_kb.items():
        metrics[f"{layer}.rss_delta_mb"] = kb / 1024.0
    return metrics, absent


if __name__ == "__main__":
    sys.exit(run_cell(sys.argv[1], sys.argv[2:]))
