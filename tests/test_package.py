"""Tests for the package namespace: every public name is importable from
`primelab` and resolves to its home module's object on first access."""

from __future__ import annotations

import importlib
import subprocess
import sys

import pytest

import primelab


@pytest.mark.parametrize("name", sorted(set(primelab.__all__) - {"__version__"}))
def test_public_name_is_its_home_object(name):
    home = importlib.import_module(f"primelab.{primelab._HOME[name]}")
    assert getattr(primelab, name) is getattr(home, name)


def test_dir_lists_every_public_name():
    assert set(primelab.__all__) <= set(dir(primelab))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from primelab import *", namespace)
    assert set(primelab.__all__) <= set(namespace)
    assert namespace["s_k"] is primelab.correlations.s_k


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        primelab.no_such_name
    with pytest.raises(ImportError):
        exec("from primelab import no_such_name", {})


def test_bare_import_loads_nothing_and_reaches_submodules():
    """`import primelab` loads no library module and no numpy, and its
    submodules stay reachable as attributes, as when it imported them all."""
    code = ("import sys, primelab\n"
            "before = [m for m in sys.modules if m.startswith('primelab.') or m == 'numpy']\n"
            "print(before, primelab.tables.TABLE_MAX == 2**31 - 2)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.split() == ["[]", "True"]
