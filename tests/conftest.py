"""Shared fixture: arithmetic tables for the tests that read table arrays
themselves, built once per session.  The library fetches its own tables.

tables_small  n_max ~ 2*10^4

and one that reads memory use: mapped_rss, the resident bytes of this
process's mappings of a file.
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


@pytest.fixture
def mapped_rss():
    """A function of a file path: the sum of the Rss lines of
    /proc/self/smaps over this process's mappings of that file, in bytes.
    Skips the test where smaps is absent."""
    smaps = "/proc/self/smaps"
    if not os.path.exists(smaps):
        pytest.skip("no /proc/self/smaps")

    def rss(path) -> int:
        inode = str(os.stat(path).st_ino)
        total, inside = 0, False
        with open(smaps) as fh:
            for line in fh:
                fields = line.split()
                if not fields[0].endswith(":"):  # a mapping's header line
                    inside = len(fields) > 4 and fields[4] == inode
                elif inside and fields[0] == "Rss:":
                    total += int(fields[1]) * 1024
        return total

    return rss
