"""The benchmark's workloads: inputs, set-up, timed requests and verdict checks.

Each workload is one fresh-interpreter repetition (see worker.py). ``inputs``
builds everything the engine is given from the seed, using only the standard
library, before the engine is imported. ``setup`` builds the contexts and
enumerates W. ``requests`` yields (label, call) pairs; each call is one
request whose answer is a verdict. ``check`` compares one answer with its
expected value outside the timed region.

Expected answers are written out by hand from the acceptance criteria; they
are never computed by the engine under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

# ---------------------------------------------------------------------------
# Expected verdicts
# ---------------------------------------------------------------------------

PASS = "pass"

# rewrite: every relation family holds exactly with symbolic couplings.
REWRITE_SUITES = (
    ("A", 4, "relations-so"),
    ("A", 4, "crossing"),
    ("A", 4, "coxeter-general"),
    ("A", 4, "pfaffian"),
    ("A", 3, "relations-gl"),
    ("B", 3, "relations-so"),
    ("B", 3, "coxeter-general"),
    ("D", 4, "relations-so"),
)

# elimination: PBW flatness counts and cumulative ranks of the so words at
# rank 4 degree 3, and the two centre verdicts of criterion 9.
PBW_SO_RANK4_COUNTS = [1, 6, 20, 50]
PBW_SO_RANK4_RANKS = [1, 7, 27, 77]
CENTRE_B2_WITNESS = "computed dimension 11"

# general_w: B4 rotated by a rational rotation in one coordinate plane.
B4_ORDER = 384
B4_SIGNED_PERMUTATIONS = 32


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _suite_verdict(results) -> str:
    """'pass' when every check passed, else the first failure as text."""
    for res in results:
        if not res.passed:
            return "%s: %s" % (res.name, res.failures[0])
    if not results or not all(res.instances for res in results):
        return "empty"
    return PASS


class Workload:
    """Defaults shared by the workloads below."""

    name = ""

    def inputs(self, seed: int):
        return None  # exhaustive suites take no input; the seed is only recorded

    def setup_verdicts(self, state) -> list:
        """(label, ok, detail) for verdicts that set-up itself produces."""
        return []

    def oracle_checked(self, state):
        """Answers re-derived by an independent path, or None."""
        return None


def _context(family: str, n: int):
    from dunklalg.cherednik import CherednikContext
    from dunklalg.coxeter import build_root_system
    return CherednikContext(build_root_system(family, n))


# ---------------------------------------------------------------------------
# rewrite: relation families, cold caches
# ---------------------------------------------------------------------------

class Rewrite(Workload):
    name = "rewrite"

    def setup(self, inputs):
        ranks = sorted({(f, n) for f, n, _ in REWRITE_SUITES})
        return {key: _context(*key) for key in ranks}

    def requests(self, state):
        from dunklalg import suites
        run = {
            "relations-so": suites.relations_so,
            "crossing": suites.crossing_suite,
            "coxeter-general": suites.coxeter_general,
            "pfaffian": suites.pfaffian_suite,
            "relations-gl": suites.relations_gl,
        }
        for family, n, suite in REWRITE_SUITES:
            ctx = state[(family, n)]
            yield "%s %s%d" % (suite, family, n), (lambda f=run[suite], c=ctx: f(c))

    def check(self, state, label, answer):
        verdict = _suite_verdict(answer)
        return verdict == PASS, verdict


# ---------------------------------------------------------------------------
# elimination: PBW flatness rank and centralizers
# ---------------------------------------------------------------------------

class Elimination(Workload):
    name = "elimination"

    def setup(self, inputs):
        return {"D4": _context("D", 4), "B2": _context("B", 2), "A2": _context("A", 2)}

    def requests(self, state):
        from dunklalg import subalgebra, suites
        yield "pbw so D4 d3", lambda: subalgebra.pbw_rank_check("so", state["D4"], 3)
        yield "centre so B2 d4", lambda: suites.centre_suite("so", state["B2"], 4)
        yield "centre gl A2 d2", lambda: suites.centre_suite("gl", state["A2"], 2)

    def check(self, state, label, answer):
        if label.startswith("pbw"):
            result, details = answer
            counts = [e["count"] for e in details["per_degree"]]
            ranks = [e["rank"] for e in details["per_degree"]]
            ok = (result.passed and counts == PBW_SO_RANK4_COUNTS
                  and ranks == PBW_SO_RANK4_RANKS)
            return ok, "counts %s ranks %s passed %s" % (counts, ranks, result.passed)
        (result,) = answer
        if label.startswith("centre so B2"):
            # the honest discrepancy: the derived expectation fails, and the
            # computed dimension is reported
            witnesses = [f.get("witness") or "" for f in result.failures]
            ok = (not result.passed and len(witnesses) == 1
                  and CENTRE_B2_WITNESS in witnesses[0])
            return ok, "failures %s" % witnesses
        verdict = _suite_verdict([result])
        return verdict == PASS, verdict  # pass means dimension 3 = 1, rho, rho^2


# ---------------------------------------------------------------------------
# localized: restriction and Hamiltonian identities in LocPoly arithmetic
# ---------------------------------------------------------------------------

class Localized(Workload):
    name = "localized"

    def setup(self, inputs):
        return {"A4": _context("A", 4), "A3": _context("A", 3)}

    def requests(self, state):
        from dunklalg import polyrep, suites
        yield "restriction A4 d1", lambda: suites.restriction_suite(state["A4"], 1)
        yield "restriction A3 d3", lambda: suites.restriction_suite(state["A3"], 3)
        yield "hamiltonian A3 d3", lambda: [polyrep.verify_hamiltonian_identity(
            polyrep.DunklContext.of(state["A3"]), 3)]

    def check(self, state, label, answer):
        verdict = _suite_verdict(answer)
        if label.startswith("restriction") and [r.name for r in answer] != ["restriction", "gamma-pm"]:
            verdict = "missing gamma-pm"
        return verdict == PASS, verdict


# ---------------------------------------------------------------------------
# general_w: a rotated B4 given as a config mapping
# ---------------------------------------------------------------------------

def _b4_roots():
    n = 4
    e = [tuple(Fraction(int(k == i)) for k in range(n)) for i in range(n)]
    long_roots = []
    for i in range(n):
        for j in range(i + 1, n):
            long_roots.append(tuple(a - b for a, b in zip(e[i], e[j])))
            long_roots.append(tuple(a + b for a, b in zip(e[i], e[j])))
    return long_roots, e


def rotated_b4_config(seed: int) -> dict:
    """B4 rotated by (3/5, 4/5) in a seeded coordinate plane and direction.

    Every choice is conjugate to every other by a signed permutation, so the
    seed changes the input but not the amount of work.
    """
    rng = random.Random(seed)
    i, j = sorted(rng.sample(range(4), 2))
    c, s = rng.choice(((Fraction(3, 5), Fraction(4, 5)), (Fraction(4, 5), Fraction(3, 5))))
    s *= rng.choice((1, -1))

    def rotate(v):
        out = list(v)
        out[i] = c * v[i] - s * v[j]
        out[j] = s * v[i] + c * v[j]
        return out

    long_roots, short_roots = _b4_roots()
    roots = [rotate(r) for r in long_roots + short_roots]
    return {
        "rank": 4,
        "roots": [[str(x) for x in r] for r in roots],
        "orbits": [1] * len(long_roots) + [2] * len(short_roots),
        "label": "B4-rotated",
    }


class GeneralW(Workload):
    name = "general_w"

    def inputs(self, seed: int):
        return rotated_b4_config(seed)

    def setup(self, config):
        from dunklalg.cherednik import CherednikContext
        from dunklalg.coxeter import load_root_system
        rs = load_root_system(config)
        group = rs.group()
        return {"ctx": CherednikContext(rs), "group": group}

    def requests(self, state):
        from dunklalg import suites
        yield "coxeter-general B4-rotated", lambda: suites.coxeter_general(state["ctx"])

    def setup_verdicts(self, state):
        group = state["group"]
        signed = sum(1 for w in group if w.perm is not None)
        ok = len(group) == B4_ORDER and signed == B4_SIGNED_PERMUTATIONS
        return [("group order", ok, "order %d, %d signed permutations" % (len(group), signed))]

    def check(self, state, label, answer):
        verdict = _suite_verdict(answer)
        return verdict == PASS, verdict


# ---------------------------------------------------------------------------
# queries: interactive normal-form requests, one closed-loop client
# ---------------------------------------------------------------------------

QUERY_COUNT = 1000
QUERY_RANK = 4
QUERY_POOL_SEED = 1
# answers per mode re-derived by an independent path, per repetition
QUERY_CHECK_SAMPLE = {"so": 8, "gl": 10, "cherednik": 6}


def _word(rng, atoms, lo, hi):
    return "*".join(rng.choice(atoms) for _ in range(rng.randint(lo, hi)))


def query_stream(seed: int, count: int = QUERY_COUNT, n: int = QUERY_RANK):
    """Half so-mode M-words of degree 2-4, a quarter gl-mode E-words of
    degree 1-3, a quarter cherednik-mode words in x, D, s and M.

    The words come from a fixed pool and the seed draws their order and the
    oracle sample. A seed that drew the words themselves changed the work
    (memo fills, p50, peak memory) by up to 10%; with a fixed pool every seed
    does the same work and the seed decides which request pays each fill.
    """
    pool = random.Random(QUERY_POOL_SEED)
    idx = range(1, n + 1)
    m_atoms = ["M[%d,%d]" % (i, j) for i in idx for j in idx if i != j]
    e_atoms = ["E[%d,%d]" % (i, j) for i in idx for j in idx]
    c_atoms = (["x[%d]" % i for i in idx] + ["D[%d]" % i for i in idx]
               + ["s[%d,%d]" % (i, j) for i in idx for j in idx if i < j] + m_atoms)
    out = [("so", _word(pool, m_atoms, 2, 4)) for _ in range(count // 2)]
    out += [("gl", _word(pool, e_atoms, 1, 3)) for _ in range(count // 4)]
    out += [("cherednik", _word(pool, c_atoms, 2, 4)) for _ in range(count - len(out))]
    rng = random.Random(seed)
    rng.shuffle(out)
    sample = []
    for mode, size in QUERY_CHECK_SAMPLE.items():
        sample += rng.sample([k for k, (m, _) in enumerate(out) if m == mode], size)
    return out, sorted(sample)


def _oracle_word(rs, text: str):
    """A cherednik-mode word as polyrep generator steps: a list of
    alternatives per factor (M[i,j] = x_i D_j - x_j D_i)."""
    steps = []
    for atom in text.split("*"):
        kind = atom[0]
        args = [int(v) - 1 for v in atom[2:-1].split(",")]
        if kind in "xD":
            steps.append([(1, [(kind, args[0])])])
        elif kind == "s":
            i, j = args
            vec = tuple(Fraction(1 if t == i else (-1 if t == j else 0)) for t in range(rs.rank))
            steps.append([(1, [("w", rs.reflection(rs.find_root(vec)[0]))])])
        else:
            i, j = args
            steps.append([(1, [("x", i), ("D", j)]), (-1, [("x", j), ("D", i)])])
    return steps


class Queries(Workload):
    name = "queries"

    def inputs(self, seed: int):
        return query_stream(seed), seed

    def setup(self, inputs):
        (stream, sample), seed = inputs
        # one context per mode, reused by every request of that mode
        return {"stream": stream, "sample": set(sample), "seed": seed,
                "ctx": {mode: _context("A", QUERY_RANK) for mode in ("so", "gl", "cherednik")}}

    def requests(self, state):
        from dunklalg import expr

        def request(mode, text, ctx):
            value = expr.evaluate(text, ctx, mode)
            rendered = value.canonical_str() if mode == "cherednik" else value.render()
            return value, rendered

        for k, (mode, text) in enumerate(state["stream"]):
            yield "%d %s %s" % (k, mode, text), (
                lambda m=mode, t=text, c=state["ctx"][mode]: request(m, t, c))

    def oracle_checked(self, state):
        return len(state["sample"])

    def check(self, state, label, answer):
        """Every so/gl answer must be supported on the basis; a seeded sample
        is re-derived by an independent path."""
        k, mode, text = label.split(" ", 2)
        value, rendered = answer
        if not rendered:
            return False, "empty rendering"
        if mode != "cherednik" and not value.is_supported_on_basis():
            return False, "not basis-normal"
        if int(k) not in state["sample"]:
            return True, PASS
        return self._oracle(state, mode, text, value)

    def _oracle(self, state, mode, text, value):
        from dunklalg import expr, polyrep
        if mode != "cherednik":
            # the whole-algebra product of the same text against the embedding
            ctx = value.alg.ctx
            ok = expr.evaluate(text, ctx, "cherednik") == value.embed()
            return ok, "embedding mismatch" if not ok else PASS
        # the polynomial representation, applied factor by factor
        ctx = value.ctx
        dctx = state.get("dunkl")
        if dctx is None:
            dctx = state["dunkl"] = polyrep.DunklContext.of(ctx)
        rng = random.Random("%d %s" % (state["seed"], text))
        exp = tuple(rng.randint(0, 2) for _ in range(ctx.n))
        p = dctx.monomial(exp) + dctx.monomial((1,) + (0,) * (ctx.n - 1)).scaled(Fraction(rng.randint(1, 5)))
        polys = [p]
        for alternatives in reversed(_oracle_word(ctx.rs, text)):
            nxt = []
            for q in polys:
                for sign, steps in alternatives:
                    nxt.append(polyrep.apply_generator_word(dctx, steps, q).scaled(Fraction(sign)))
            polys = nxt
        stepwise = dctx.zero_poly()
        for q in polys:
            stepwise = stepwise + q
        ok = polyrep.apply_element(dctx, value, p) == stepwise
        return ok, "oracle mismatch" if not ok else PASS


WORKLOADS = {w.name: w for w in (Rewrite(), Elimination(), Localized(), Queries(), GeneralW())}
