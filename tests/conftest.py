"""Shared fixture: arithmetic tables for the tests that read table arrays
themselves, built once per session.  The library fetches its own tables.

tables_small  n_max ~ 2*10^4
"""

from __future__ import annotations

import pytest

from primelab import build_tables

SMALL_N_MAX = 20_100


@pytest.fixture(scope="session")
def tables_small():
    return build_tables(SMALL_N_MAX)
