"""Run the doctests of every qbruhat module."""

import doctest
import importlib
import pkgutil

import pytest

import qbruhat

MODULES = sorted(m.name for m in pkgutil.iter_modules(qbruhat.__path__, "qbruhat."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} doctests failed"
