"""The benchmark's traced functions exist in the library.

``perfbench/tracer.py`` times the functions its ``TRACED`` tuple names, as
``(module, function)`` pairs looked up in ``primelab.<module>``.  A pair that
no longer resolves is reported as absent there and the per-layer metrics it
feeds are left out, so a traced run changes the shape of its result.  This
test fails first, when a traced function is deleted or renamed.
"""

from __future__ import annotations

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import TRACED

    absent = [f"{home}.{func}" for home, func in TRACED
              if not callable(getattr(importlib.import_module(f"primelab.{home}"), func, None))]
    assert TRACED
    assert absent == []
