"""The package names the benchmark in ``perfbench/`` reaches by lookup.

``perfbench/tracer.py`` wraps every function its ``LAYERS`` table names by
``getattr``, and ``perfbench/workloads.py`` empties the package's three
``lru_cache``s between ops, so a rename in the package breaks the benchmark
without breaking an import.  These checks catch such a rename in the fast
suite rather than in the benchmark's own self-test.
"""

import importlib
import os
import pkgutil

import pytest

import manymatch
from manymatch import axioms, stability

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    return importlib.import_module("tracer")


def test_every_traced_name_is_a_callable_in_its_module(tracer):
    names = [(module, fn) for module, fns in tracer.LAYERS.items() for fn in fns]
    assert names
    for module, fn in names:
        target = getattr(importlib.import_module(f"manymatch.{module}"), fn, None)
        assert callable(target), f"manymatch.{module}.{fn}"


@pytest.mark.parametrize("cached", [
    axioms.check_substitutable, axioms.check_lad, stability._enumerate_cached,
], ids=["check_substitutable", "check_lad", "_enumerate_cached"])
def test_benchmark_caches_expose_clear_and_info(cached):
    assert callable(cached.cache_clear)
    assert callable(cached.cache_info)


def test_enumeration_cache_reset_exists():
    # workloads.reset_caches empties the enumeration cache through it
    assert callable(stability.clear_enumeration_cache)


def test_package_caches_are_exactly_the_known_ones():
    # perfbench resets the three result caches so that every op starts cold.
    # A new result cache that the benchmark does not reset fails here by
    # name instead of quietly warming a "cold" workload.
    found = set()
    modules = [manymatch] + [importlib.import_module(f"manymatch.{info.name}")
                             for info in pkgutil.iter_modules(manymatch.__path__)]
    for module in modules:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                found.add(f"{value.__module__}.{value.__qualname__}")
    assert found == {
        "manymatch.axioms.check_substitutable",
        "manymatch.axioms.check_lad",
        "manymatch.stability._enumerate_cached",
    }
