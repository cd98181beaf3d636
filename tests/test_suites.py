"""Family suites share one product memo per generator.

A family suite gives every family it runs the one ``_Products`` memo of
their generator (M_ij or E_ij), so a product two families read is built
once, and the memo is dropped when the suite returns. These tests check that
sharing changes no verdict, builds each product once, serves the one
stored value to every family that reads it, and keeps nothing alive.
"""

import gc
import weakref

import pytest

from dunklalg import suites
from dunklalg.cherednik import CherednikContext
from dunklalg.coxeter import build_root_system
from test_general_group import rotated_b2

SYSTEMS = {"A3": lambda: build_root_system("A", 3), "B2-rotated": rotated_b2}

# suite, root system, a product key that several of its families read
CASES = [
    ("relations-so", "A3", ("gg", 0, 1, 2, 0)),
    ("crossing", "A3", ("gg", 0, 1, 2, 0)),
    ("relations-gl", "A3", ("gg", 0, 1, 2, 0)),
    ("coxeter-general", "B2-rotated", ("gg", 0, 1, 1, 0)),
]


def _ctx(system):
    return CherednikContext(SYSTEMS[system]())


def _names(suite, ctx):
    return suites.FAMILY_SUITES[suite][0 if ctx.rs.is_type_a() else 1]


def _run(suite, ctx):
    return suites.SUITE_TABLE[suite][0](ctx, None, None)


def _summary(results):
    return [(r.name, r.instances, r.failures) for r in results]


def _patch_products(monkeypatch, wrong_key=None):
    """Make every product memo record its builds (one list per memo) and
    return twice the right product for wrong_key; returns the lists and
    weak references to each memo's owner and build function, which only
    the memo holds."""
    builds, refs = [], []

    class Patched(suites._Products):
        def __init__(self, ctx, gen):
            super().__init__(ctx, gen)
            build, built = self._memo.build, []

            def patched(key):
                built.append(key)
                value = build(key)
                return value.scaled(2) if key == wrong_key else value

            self._memo.build = patched
            builds.append(built)
            refs.extend((weakref.ref(self), weakref.ref(patched)))

    monkeypatch.setattr(suites, "_Products", Patched)
    return builds, refs


@pytest.mark.parametrize("suite,system,key", CASES)
def test_suite_results_equal_each_family_run_alone(suite, system, key):
    ctx = _ctx(system)
    together = _run(suite, ctx)
    alone = [suites.family(name, _ctx(system)) for name in _names(suite, ctx)]
    assert _summary(together) == _summary(alone)
    assert all(r.passed and r.instances for r in together if r.name != "cros-class")


@pytest.mark.parametrize("suite,system,key", CASES)
def test_each_product_is_built_once_per_suite(monkeypatch, suite, system, key):
    builds, _ = _patch_products(monkeypatch)
    _run(suite, _ctx(system))
    used = [built for built in builds if built]
    # one memo of the suite's one generator holds every product
    assert len(used) == 1
    assert len(used[0]) == len(set(used[0])) and key in used[0]
    # run alone, the families build some products more than once in all
    builds.clear()
    ctx = _ctx(system)
    for name in _names(suite, ctx):
        suites.family(name, ctx)
    alone = [k for built in builds for k in built]
    assert set(alone) == set(used[0]) and len(alone) > len(used[0])


@pytest.mark.parametrize("suite,system,key", CASES)
def test_a_wrong_product_fails_every_family_that_reads_it(monkeypatch, suite, system, key):
    builds, _ = _patch_products(monkeypatch)
    ctx = _ctx(system)
    readers = set()
    for name in _names(suite, ctx):
        builds.clear()
        suites.family(name, ctx)
        if any(key in built for built in builds):
            readers.add(name)
    assert len(readers) >= 2
    _patch_products(monkeypatch, wrong_key=key)
    failed = {r.name for r in _run(suite, _ctx(system)) if not r.passed}
    assert failed == readers


@pytest.mark.parametrize("suite,system,key", CASES)
def test_no_product_memo_outlives_its_suite(monkeypatch, suite, system, key):
    _, refs = _patch_products(monkeypatch)
    ctx = _ctx(system)
    results = _run(suite, ctx)
    gc.collect()
    assert refs and results and ctx.rs is not None
    assert all(ref() is None for ref in refs)
