"""Per-layer spans and counts, taken by wrapping the engine from outside.

No engine source is edited. ``Tracer.install`` replaces each traced function
or method by a wrapper everywhere it is looked up: on its class, and in every
loaded ``dunklalg`` module that imported it by name (``subalgebra`` and
``suites`` import ``sparse_rank_symbolic``, ``restrict_check`` and others
that way). ``Tracer.remove`` puts the originals back. A target that a
refactor has removed, or a private cache that is gone, is reported as absent
instead of failing the run.

Spans sit only at coarse boundaries and record self time (duration minus the
time covered by nested spans) and, for the outermost call of a recursive
function, total time. Hot scalar methods get count-only wrappers.
"""

from __future__ import annotations

import sys
import time
from functools import wraps

# (module, attribute path, metric prefix, kind); kind "span" times each call,
# "count" only counts it, "register" keeps each constructed instance so that
# its memos can be read at the end and is not itself a metric.
TARGETS = (
    ("exactmath", "sparse_rank_symbolic", "exactmath.sparse_rank_symbolic", "span"),
    ("exactmath", "sparse_rank_numeric", "exactmath.sparse_rank_numeric", "span"),
    ("exactmath", "sparse_nullspace", "exactmath.sparse_nullspace", "span"),
    ("exactmath", "XPoly.try_divide", "exactmath.XPoly.try_divide", "span"),
    ("exactmath", "LocPoly.__add__", "exactmath.LocPoly.add", "count"),
    ("exactmath", "CoeffPoly.__mul__", "exactmath.CoeffPoly.mul", "count"),
    ("exactmath", "CoeffPoly.__add__", "exactmath.CoeffPoly.add", "count"),
    ("coxeter", "GroupElement.__init__", "coxeter.GroupElement.new", "count"),
    ("coxeter", "GroupElement.__mul__", "coxeter.GroupElement.mul", "count"),
    ("coxeter", "GroupElement.__eq__", "coxeter.GroupElement.eq", "count"),
    ("coxeter", "RootSystem.group", "coxeter.RootSystem.group", "span"),
    ("cherednik", "PBWElement.__mul__", "cherednik.PBWElement.mul", "span"),
    ("cherednik", "CherednikContext.db_x", "cherednik.db_x", "count"),
    ("cherednik", "CherednikContext.__init__", "cherednik.CherednikContext", "register"),
    ("subalgebra", "SubAlgebra.__init__", "subalgebra.SubAlgebra", "register"),
    ("subalgebra", "SubAlgebra.embed_word", "subalgebra.embed_word", "count"),
    ("subalgebra", "SubAlgebra.normal_form_word", "subalgebra.normal_form_word", "span"),
    ("subalgebra", "pbw_rank_check", "subalgebra.pbw_rank_check", "span"),
    ("subalgebra", "centralizer", "subalgebra.centralizer", "span"),
    ("polyrep", "restrict_check", "polyrep.restrict_check", "span"),
    ("polyrep", "verify_hamiltonian_identity", "polyrep.verify_hamiltonian_identity", "span"),
    ("polyrep", "nabla_apply", "polyrep.nabla_apply", "count"),
    ("expr", "parse_expression", "expr.parse_expression", "span"),
    ("expr", "evaluate", "expr.evaluate", "span"),
)


class _Stat:
    __slots__ = ("kind", "calls", "self_s", "total_s", "depth", "extra")

    def __init__(self, kind: str):
        self.kind = kind
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.depth = 0
        self.extra = 0  # rows in, or terms out, where a target has one


def _rows_in(args):
    rows = args[0]
    if not isinstance(rows, list):
        rows = list(rows)
    return (rows,) + tuple(args[1:]), len(rows)


def _terms_out(result):
    return len(getattr(result, "terms", ()))


# extra per-call quantities: (argument hook, result hook)
EXTRA = {
    "exactmath.sparse_rank_symbolic": ("rows", _rows_in, None),
    "cherednik.PBWElement.mul": ("terms_out", None, _terms_out),
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.absent: list[str] = []
        self.instances: dict[str, list] = {}  # registered prefix -> instances
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------------

    def _register(self, fn, stat, prefix):
        keep = self.instances.setdefault(prefix, [])

        @wraps(fn)
        def wrapper(obj, *args, **kwargs):
            keep.append(obj)
            return fn(obj, *args, **kwargs)
        return wrapper

    def _counter(self, fn, stat, prefix):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, fn, stat, prefix):
        stack = self._stack
        clock = time.perf_counter
        _, arg_hook, result_hook = EXTRA.get(prefix, (None, None, None))

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            if arg_hook is not None:
                args, n = arg_hook(args)
                stat.extra += n
            stat.depth += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stat.self_s += d - stack.pop()
                if stack:
                    stack[-1] += d
                stat.depth -= 1
                if stat.depth == 0:
                    stat.total_s += d
            if result_hook is not None:
                stat.extra += result_hook(result)
            return result
        return wrapper

    # -- install / remove ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "dunklalg" or name.startswith("dunklalg."))]
        for module_name, path, prefix, kind in TARGETS:
            module = sys.modules.get("dunklalg." + module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None or (owner_name and attr not in vars(owner)):
                self.absent.append(prefix)
                continue
            stat = self.stats.setdefault(prefix, _Stat(kind))
            make = {"span": self._span, "count": self._counter, "register": self._register}[kind]
            wrapper = make(fn, stat, prefix)
            if owner_name:
                # every class attribute bound to the same function (__rmul__ = __mul__)
                for name, value in list(vars(owner).items()):
                    if value is fn:
                        self._patch(owner, name, wrapper)
            else:
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, name, wrapper)

    def _patch(self, owner, name, wrapper) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def remove(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def _cache_fills(self, prefix: str, attr: str):
        """Entries in a private memo over every instance created while traced,
        or None when the memo no longer exists."""
        objs = self.instances.get(prefix)
        if objs is None:
            return None
        total = 0
        for obj in objs:
            cache = getattr(obj, attr, None)
            if not isinstance(cache, dict):
                return None
            total += len(cache)
        return total

    def layers(self) -> tuple[dict, dict]:
        """(counts, times): deterministic counts and measured seconds."""
        counts: dict[str, float] = {}
        times: dict[str, float] = {}
        for prefix, stat in self.stats.items():
            if stat.kind == "register":
                continue
            counts[prefix + ".calls"] = stat.calls
            extra = EXTRA.get(prefix)
            if extra is not None:
                counts[prefix + "." + extra[0]] = stat.extra
            if stat.kind == "span":
                times[prefix + ".self_s"] = stat.self_s
                times[prefix + ".total_s"] = stat.total_s
        self._ratio(counts, "cherednik.db_x", "cherednik.CherednikContext", "_dbx")
        self._ratio(counts, "subalgebra.embed_word", "subalgebra.SubAlgebra", "_embed_cache")
        memo = self._cache_fills("subalgebra.SubAlgebra", "_memo")
        if memo is not None:
            counts["subalgebra.straighten.fills"] = memo
        else:
            self.absent.append("subalgebra.straighten.fills")
        return counts, times

    def _ratio(self, counts, prefix, registry, attr) -> None:
        fills = self._cache_fills(registry, attr)
        calls = counts.get(prefix + ".calls")
        if fills is None or calls is None:
            self.absent.append(prefix + ".fills")
            return
        counts[prefix + ".fills"] = fills
        counts[prefix + ".hit_ratio"] = (1 - fills / calls) if calls else 0.0
