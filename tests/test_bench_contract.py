"""The engine names the benchmark's tracer patches must keep resolving.

``perfbench/tracing.py`` wraps engine functions by name from outside. A
refactor that removes or renames one of them makes the tracer drop its
metrics and list them as absent, which breaks the benchmark's result line.
These tests load the tracer read-only and fail first.
"""

import importlib.util
import json
import os
import sys

import dunklalg  # noqa: F401
from dunklalg import cherednik, coxeter, exactmath, expr, polyrep, subalgebra, suites  # noqa: F401
from dunklalg.cherednik import CherednikContext, d_gen, x_gen
from dunklalg.coxeter import build_root_system
from dunklalg.subalgebra import SubAlgebra, SubWord

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING = os.path.join(ROOT, "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    tracing = load_tracing()
    for module_name, path, prefix, _ in tracing.TARGETS:
        module = sys.modules["dunklalg." + module_name]
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        assert owner is not None, prefix
        assert getattr(owner, attr, None) is not None, prefix
        if owner_name:
            assert attr in vars(owner), prefix


def test_traced_run_has_no_absent_metric():
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        ctx = CherednikContext(build_root_system("A", 2))
        alg = SubAlgebra(ctx, "so")
        product = d_gen(ctx, 0) * x_gen(ctx, 1)
        nf = alg.normal_form_word(SubWord(((0, 1), (0, 1)), ctx.e))
    finally:
        tracer.remove()
    counts, times = tracer.layers()
    assert tracer.absent == []
    assert not product.is_zero() and nf
    assert counts["cherednik.PBWElement.mul.calls"] == 1
    assert counts["subalgebra.normal_form_word.calls"] == 1
    # every per-layer metric of the result line, except the ratio that
    # perfbench/run.py forms from untraced repetitions
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    assert names - set(counts) - set(times) == {"trace.overhead_ratio"}


def test_group_elements_expose_perm():
    for rs in (build_root_system("A", 3), build_root_system("B", 2)):
        for w in rs.group():
            assert hasattr(w, "perm")


def test_suite_table_calls_traced_engine_functions():
    # the suite table must look the engine functions up when it runs, so that
    # the tracer's patches of the module globals see every call
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        ctx = CherednikContext(build_root_system("A", 2))
        reports = [suites.run_suite(name, ctx, "A", degree=1)
                   for name in ("restriction", "hamiltonian", "pbw")]
        reports.append(suites.run_suite("centre", ctx, "A", degree=1, mode="gl"))
    finally:
        tracer.remove()
    counts, _ = tracer.layers()
    assert all(r.status == "pass" for r in reports)
    for prefix in ("polyrep.restrict_check", "polyrep.verify_hamiltonian_identity",
                   "subalgebra.pbw_rank_check", "subalgebra.centralizer"):
        assert counts[prefix + ".calls"] > 0, prefix
