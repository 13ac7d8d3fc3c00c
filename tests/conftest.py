"""Shared fixture: arithmetic tables for the tests that read table arrays
themselves, built once per session.  The library fetches its own tables.

tables_small  n_max ~ 2*10^4
"""

from __future__ import annotations

import os

import pytest

# before any test module loads numpy, so that its BLAS has one thread
from primelab import build_tables

# the subprocess tests run `python -m primelab`: they find the package in
# src/ as pytest does (pyproject's pythonpath), with no install
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

SMALL_N_MAX = 20_100


@pytest.fixture(scope="session")
def tables_small():
    return build_tables(SMALL_N_MAX)

