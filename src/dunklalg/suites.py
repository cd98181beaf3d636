"""Named verification suites over the rewriting engine.

Each relation family is a generator ``_name(ctx, pr)`` of ``(instance,
LHS - RHS)`` pairs over all admissible index tuples, where ``pr`` is its
``_Products`` memo. ``FAMILIES`` maps each reported name to its generator and
to the generator (M_ij, E_ij or none) that the memo multiplies; ``family``
runs one family, counts its instances and keeps the canonical form of each
nonzero difference as witness. A family run alone gets a fresh memo; a
family suite gives one memo per generator to all its families, so a product
they share is built once, and drops it when it returns. ``FAMILY_SUITES``
lists the families of the suites made only of families. ``SUITE_TABLE`` maps
each suite to its results(ctx, degree, mode), default degree and default
mode (None where it takes none); ``run_suite``, ``SUITES`` and
``default_degree`` read it, and a degree or mode a suite does not take is
rejected. ``run_suite`` returns the untimed ``Report``; the CLI times it.
``all`` gives one memo per generator to every family suite it runs, and
drops them when it returns.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import combinations, permutations, product

from .cherednik import (
    CherednikContext,
    WrongRootSystem,
    _perm_sign,
    adjoint,
    angular_hamiltonian,
    angular_momentum,
    angular_momentum_ij,
    commutator,
    d_gen,
    e_generator,
    euler_xd,
    group,
    hamiltonian_H,
    m_squared,
    pfaffian_sum,
    rho,
    s_elem,
    s_sum,
    scalar,
    x_gen,
    x_squared,
    zero,
    gamma_pm,
)
from .exactmath import Memo, in_span
from .polyrep import DunklContext, restrict_check, verify_hamiltonian_identity
from .reporting import CheckResult, Report
from .subalgebra import (
    SubElement,
    SubWord,
    centralizer,
    get_subalgebra,
    h_omega_subelement,
    pbw_rank_check,
    rho_subelement,
)


class _Products:
    """Cache of the normal forms G_ab G_cd, G_ab S_cd and S_ab G_cd, where
    G_ab = gen(ctx, a, b) is M_ab (so relations) or E_ab (gl), for one
    family run or one family suite: at most 3 n^4 products."""

    def __init__(self, ctx: CherednikContext, gen):
        # a closure, not a bound method, so the memo holds no cycle back to
        # self and its products are freed as soon as its run ends
        def product(key):
            kind, a, b, c, d = key
            left = s_elem(ctx, a, b) if kind == "sg" else gen(ctx, a, b)
            right = s_elem(ctx, c, d) if kind == "gs" else gen(ctx, c, d)
            return left * right

        self._memo = Memo(product)

    def gg(self, a, b, c, d):
        return self._memo["gg", a, b, c, d]

    def gs(self, a, b, c, d):
        return self._memo["gs", a, b, c, d]

    def sg(self, a, b, c, d):
        return self._memo["sg", a, b, c, d]

    def com(self, a, b, c, d):
        return self.gg(a, b, c, d) - self.gg(c, d, a, b)


# ---------------------------------------------------------------------------
# Type A: group-algebra and creation-operator relations, the so(3) example
# ---------------------------------------------------------------------------

def _s_coupling_square(ctx: CherednikContext):
    g = ctx.gmap.of_orbit(0)
    return scalar(ctx, g * g)


def _com_ss(ctx: CherednikContext, pr: _Products):
    n = ctx.n
    for (i, j, k) in permutations(range(n), 3):
        yield (i, j, k), (s_elem(ctx, i, j) * s_elem(ctx, i, k)
                          - s_elem(ctx, j, k) * s_elem(ctx, i, j))
    for (i, j, k, l) in permutations(range(n), 4):
        yield (i, j, k, l), commutator(s_elem(ctx, i, j), s_elem(ctx, k, l))
    if n >= 2:  # with fewer than two coordinates there is no root, so no coupling
        gsq = _s_coupling_square(ctx)
        for (i, j) in permutations(range(n), 2):
            yield ("square", i, j), s_elem(ctx, i, j) * s_elem(ctx, i, j) - gsq
            yield ("sym", i, j), s_elem(ctx, i, j) - s_elem(ctx, j, i)


def _com_sii(ctx: CherednikContext, pr: _Products):
    for (i, j) in permutations(range(ctx.n), 2):
        yield (i, j), (s_elem(ctx, i, j) * s_elem(ctx, j, j)
                       - s_elem(ctx, i, i) * s_elem(ctx, i, j))
    for (i, j, k) in permutations(range(ctx.n), 3):
        yield (i, j, k), commutator(s_elem(ctx, i, j), s_elem(ctx, k, k))


def _a_ops(ctx: CherednikContext):
    # sqrt(2)/2 factors cleared: quadratic relations keep a factor 1/2
    plus = [x_gen(ctx, i) - d_gen(ctx, i) for i in range(ctx.n)]
    minus = [x_gen(ctx, i) + d_gen(ctx, i) for i in range(ctx.n)]
    return plus, minus


def _ai(ctx: CherednikContext, pr: _Products):
    plus, minus = _a_ops(ctx)
    for i in range(ctx.n):
        for j in range(ctx.n):
            yield ("mixed", i, j), (commutator(minus[i], plus[j]).scaled(Fraction(1, 2))
                                    - s_elem(ctx, i, j))
            yield ("lower", i, j), commutator(minus[i], minus[j])
            yield ("raise", i, j), commutator(plus[i], plus[j])


def _com_sx(ctx: CherednikContext, pr: _Products):
    n = ctx.n
    for ops in _a_ops(ctx):
        for (i, j) in permutations(range(n), 2):
            yield (i, j), s_elem(ctx, i, j) * ops[i] - ops[j] * s_elem(ctx, i, j)
            for k in range(n):
                if k not in (i, j):
                    yield (i, j, k), commutator(s_elem(ctx, i, j), ops[k])


def _sjj_a(ctx: CherednikContext, pr: _Products):
    n = ctx.n
    for ops in _a_ops(ctx):
        for (i, j) in permutations(range(n), 2):
            rhs = (ops[i] - ops[j]) * s_elem(ctx, i, j)
            yield ("diag", i, j), commutator(s_elem(ctx, j, j), ops[i]) - rhs
            yield ("mixed", i, j), commutator(s_elem(ctx, i, j), ops[j]) - rhs
        for j in range(n):
            rhs = sum(((ops[j] - ops[k]) * s_elem(ctx, k, j) for k in range(n) if k != j),
                      zero(ctx))
            yield ("own", j), commutator(s_elem(ctx, j, j), ops[j]) - rhs


def _com_ms(ctx: CherednikContext, pr: _Products):
    for (i, j, k, l) in permutations(range(ctx.n), 4):
        yield (i, j, k, l), pr.sg(i, j, k, l) - pr.gs(k, l, i, j)
    for (i, j) in permutations(range(ctx.n), 2):
        yield ("anti", i, j), pr.sg(i, j, i, j) + pr.gs(i, j, i, j)
    for (i, j, k) in permutations(range(ctx.n), 3):
        yield (i, j, k), pr.sg(i, j, i, k) - pr.gs(j, k, i, j)


def _so3(ctx: CherednikContext, pr: _Products):
    if not ctx.rs.is_type_a():
        raise WrongRootSystem("the so(3) example is stated for type A")
    if ctx.n != 3:
        raise ValueError("the so(3) example needs rank 3")
    M = [angular_momentum_ij(ctx, i, j) for i, j in ((1, 2), (2, 0), (0, 1))]
    S = [s_elem(ctx, i, j) for i, j in ((1, 2), (2, 0), (0, 1))]
    gsq = _s_coupling_square(ctx)
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        yield ("ss", a), S[a] * S[b] - S[c] * S[a]
        yield ("square", a), S[a] * S[a] - gsq
        yield ("anti", a), S[a] * M[a] + M[a] * S[a]
        yield ("rot1", a), S[a] * M[b] + M[c] * S[a]
        yield ("rot2", a), S[a] * M[c] + M[b] * S[a]
        rhs = -M[c] + (M[c] - M[b]) * S[a] + (M[c] - M[a]) * S[b]
        yield ("com", a), commutator(M[a], M[b]) - rhs
        rhs2 = -M[c] + (M[c] * (S[a] + S[b]) + (S[a] + S[b]) * M[c])
        yield ("com-sym", a), commutator(M[a], M[b]) - rhs2


# ---------------------------------------------------------------------------
# Commutation and crossing relations (any reflection group; basis tuples)
# ---------------------------------------------------------------------------

def _commutation(ctx: CherednikContext, pr: _Products):
    for (i, j, k, l) in product(range(ctx.n), repeat=4):
        rhs = (pr.gs(i, l, j, k) + pr.gs(j, k, i, l)
               - pr.gs(i, k, l, j) - pr.gs(j, l, i, k))
        yield (i, j, k, l), pr.com(i, j, k, l) - rhs


def _commutation_rev(ctx: CherednikContext, pr: _Products):
    for (i, j, k, l) in product(range(ctx.n), repeat=4):
        rhs = (pr.sg(j, k, i, l) + pr.sg(i, l, j, k)
               - pr.sg(l, j, i, k) - pr.sg(i, k, j, l))
        yield (i, j, k, l), pr.com(i, j, k, l) - rhs


def _cyclic(i, j, k):
    return ((i, j, k), (j, k, i), (k, i, j))


def _crossing(ctx: CherednikContext, pr: _Products):
    for (i, j, k, l) in product(range(ctx.n), repeat=4):
        lhs = rhs = zero(ctx)
        for (a, b, c) in _cyclic(i, j, k):
            lhs = lhs + pr.gg(a, b, c, l)
            rhs = rhs + pr.gs(a, b, c, l)
        yield (i, j, k, l), lhs - rhs


def _crossing_cyc2(ctx: CherednikContext, pr: _Products):
    for (i, j, k, l) in product(range(ctx.n), repeat=4):
        diff = zero(ctx)
        for (a, b, c) in _cyclic(i, j, k):
            diff = diff + pr.gg(a, b, c, l) - pr.sg(c, l, a, b)
        yield (i, j, k, l), diff


def _crossing_cyc3(ctx: CherednikContext, pr: _Products):
    for (i, j, k, l) in product(range(ctx.n), repeat=4):
        s1 = s2 = s3 = s4 = zero(ctx)
        for (a, b, c) in _cyclic(i, j, k):
            s1 = s1 + pr.gg(l, a, b, c)
            s2 = s2 + pr.sg(l, a, b, c)
            s3 = s3 + pr.gs(a, b, c, l)
            s4 = s4 + pr.gg(a, b, c, l)
        yield ("12", i, j, k, l), s1 - s2
        yield ("23", i, j, k, l), s2 - s3
        yield ("34", i, j, k, l), s3 - s4


def _crossing_anticomm(ctx: CherednikContext, pr: _Products):
    for (i, j, k, l) in product(range(ctx.n), repeat=4):
        acc = zero(ctx)
        for (a, b, c) in _cyclic(i, j, k):
            acc = acc + pr.gg(a, b, c, l) + pr.gg(c, l, a, b)
        yield (i, j, k, l), acc


def _crossing_class(ctx: CherednikContext, pr: _Products):
    """Antisymmetrized quadratic products vanish (per 4-subset)."""
    for subset in combinations(range(ctx.n), 4):
        yield subset, sum((pr.gg(*(subset[p] for p in perm)).scaled(_perm_sign(perm))
                           for perm in permutations(range(4))), zero(ctx))


def _com_mw(ctx: CherednikContext, pr: _Products):
    n = ctx.n
    for widx, w in enumerate(ctx.rs.reflections()):
        gw = group(ctx, w)
        for i in range(n):
            for j in range(n):
                lhs = gw * angular_momentum_ij(ctx, i, j)
                rhs = angular_momentum(ctx, w.cols[i], w.cols[j]) * gw
                yield ("s%d" % widx, i, j), lhs - rhs


def _m2_decomposition(ctx: CherednikContext, pr: _Products):
    d2 = hamiltonian_H(ctx).scaled(-2)
    xd = euler_xd(ctx)
    scoef = s_sum(ctx).scaled(2) - scalar(ctx, ctx.n - 2)
    rhs = x_squared(ctx) * d2 - xd * xd + scoef * xd
    yield "M2 = x2 D2 - (x.D)^2 + (2S-N+2)(x.D)", m_squared(ctx) - rhs


def _centrality_so(ctx: CherednikContext, pr: _Products):
    homega = angular_hamiltonian(ctx)
    ham = hamiltonian_H(ctx)
    x2 = x_squared(ctx)
    for i in range(ctx.n):
        for j in range(i + 1, ctx.n):
            m = angular_momentum_ij(ctx, i, j)
            yield ("H", i, j), commutator(ham, m)
            yield ("x2", i, j), commutator(x2, m)
            yield ("HOmega", i, j), commutator(homega, m)
    for widx, w in enumerate(ctx.rs.reflections()):
        yield ("HOmega-w", widx), commutator(homega, group(ctx, w))


def _s_central(ctx: CherednikContext, pr: _Products):
    S = s_sum(ctx)
    for widx, w in enumerate(ctx.rs.reflections()):
        yield widx, commutator(S, group(ctx, w))


def _pfaffian(ctx: CherednikContext, pr: _Products):
    # single-factor edge case at N = 2: the contraction is 2 M_12, not zero
    yield "N=%d" % ctx.n, pfaffian_sum(ctx) - (
        angular_momentum_ij(ctx, 0, 1).scaled(2) if ctx.n == 2 else zero(ctx))


# ---------------------------------------------------------------------------
# gl relations
# ---------------------------------------------------------------------------

def _com_es(ctx: CherednikContext, pr: _Products):
    for (i, j, k, l) in permutations(range(ctx.n), 4):
        yield (i, j, k, l), pr.sg(i, j, k, l) - pr.gs(k, l, i, j)
    for (i, j) in permutations(range(ctx.n), 2):
        yield ("flip", i, j), pr.sg(i, j, i, j) - pr.gs(j, i, i, j)
    for (i, j, k) in permutations(range(ctx.n), 3):
        yield ("left", i, j, k), pr.sg(i, j, i, k) - pr.gs(j, k, i, j)
        yield ("right", i, j, k), pr.sg(i, j, k, i) - pr.gs(k, j, i, j)


def _crosgl(ctx: CherednikContext, pr: _Products):
    for (i, j, k, l) in product(range(ctx.n), repeat=4):
        lhs = pr.gg(i, j, k, l) - pr.gg(i, l, k, j)
        rhs = pr.gs(i, l, k, j) - pr.gs(i, j, k, l)
        yield (i, j, k, l), lhs - rhs


def _crosgl2(ctx: CherednikContext, pr: _Products):
    for (i, j, k, l) in product(range(ctx.n), repeat=4):
        yield ("jl", i, j, k, l), (pr.gg(i, j, k, l) + pr.gs(i, j, k, l)
                                   - pr.gg(i, l, k, j) - pr.gs(i, l, k, j))
        yield ("ik", i, j, k, l), (pr.gg(i, j, k, l) + pr.sg(i, j, k, l)
                                   - pr.gg(k, j, i, l) - pr.sg(k, j, i, l))


def _relgln1(ctx: CherednikContext, pr: _Products):
    for (i, j, k, l) in product(range(ctx.n), repeat=4):
        rhs = (pr.gs(i, l, j, k) - pr.sg(i, l, k, j)
               + pr.sg(k, l, i, j) - pr.gs(i, j, k, l))
        yield (i, j, k, l), pr.com(i, j, k, l) - rhs


def _relgln2(ctx: CherednikContext, pr: _Products):
    n = ctx.n
    for (i, j, k, l) in permutations(range(n), 4):
        yield ("a", i, j, k, l), pr.com(i, j, k, l) - (pr.gs(i, l, j, k) - pr.gs(k, j, i, l))
    for (i, k, l) in permutations(range(n), 3):
        yield ("b", i, k, l), pr.com(i, i, k, l) - (pr.gs(i, l, i, k) - pr.gs(k, l, i, l))
    for (i, j) in permutations(range(n), 2):
        yield ("c", i, j), pr.com(i, i, j, j) - (pr.gs(i, i, i, j) - pr.gs(j, j, i, j))
    for (i, j, l) in permutations(range(n), 3):
        rhs = (pr.gs(i, l, j, j) + pr.gs(i, l, j, l) - pr.gs(i, j, j, l)
               - pr.gs(j, j, i, l))
        yield ("d", i, j, l), pr.com(i, j, j, l) - rhs
    for (i, j) in permutations(range(n), 2):
        yield ("e", i, j), pr.com(i, i, i, j) - (pr.gs(i, j, i, i) - pr.gs(i, i, i, j))
        # conjugate relation
        yield ("e+", i, j), pr.com(i, i, j, i) - (pr.sg(i, j, i, i) - pr.sg(i, i, j, i))
    for (i, j, k) in permutations(range(n), 3):
        yield ("f", i, j, k), pr.com(i, j, k, j) - (pr.gs(i, k, j, k) - pr.gs(k, i, i, j))
        yield ("f+", j, k, i), pr.com(j, k, j, i) - (pr.sg(j, k, k, i) - pr.sg(i, j, i, k))
    for (i, j) in permutations(range(n), 2):
        rhs = (pr.gs(i, i, j, j) - pr.gs(j, j, i, i)
               + pr.gs(i, i, i, j) - pr.gs(j, j, i, j)
               - pr.gs(i, j, i, j) + pr.gs(j, i, i, j))
        yield ("g", i, j), pr.com(i, j, j, i) - rhs


def _herm_e(ctx: CherednikContext, pr: _Products):
    for i in range(ctx.n):
        for j in range(ctx.n):
            yield (i, j), adjoint(e_generator(ctx, i, j)) - e_generator(ctx, j, i)
    for (i, j) in permutations(range(ctx.n), 2):
        yield ("S", i, j), adjoint(s_elem(ctx, i, j)) - s_elem(ctx, i, j)


def _rho_central(ctx: CherednikContext, pr: _Products):
    p = rho(ctx)
    for k in range(ctx.n):
        for l in range(ctx.n):
            yield (k, l), commutator(p, e_generator(ctx, k, l))
    for widx, w in enumerate(ctx.rs.reflections()):
        yield ("w", widx), commutator(p, group(ctx, w))


# ---------------------------------------------------------------------------
# Families and suites
# ---------------------------------------------------------------------------

# name -> (generator of its pairs, the G whose products G G, G S and S G its
# memo multiplies, or None); aliases share one generator
_M, _E = angular_momentum_ij, e_generator
FAMILIES = {
    "com-ss": (_com_ss, None), "com-sii": (_com_sii, None), "ai": (_ai, None),
    "com-sx": (_com_sx, None), "Sjjai/Sjjaj": (_sjj_a, None), "com-MS": (_com_ms, _M),
    "son": (_commutation, _M), "amcoxcom": (_commutation, _M),
    "son-rev": (_commutation_rev, _M), "cros-quant": (_crossing, _M),
    "amcoxcross": (_crossing, _M), "cros-cyc-2": (_crossing_cyc2, _M),
    "cros-cyc-3": (_crossing_cyc3, _M), "cros-anticomm": (_crossing_anticomm, _M),
    "cros-class": (_crossing_class, _M), "com-Mw": (_com_mw, None),
    "m2-decomposition": (_m2_decomposition, None), "centrality-so": (_centrality_so, None),
    "S-central": (_s_central, None), "pfaffian": (_pfaffian, None),
    "com-ES": (_com_es, _E), "crosgl": (_crosgl, _E), "crosgl2": (_crosgl2, _E),
    "relgln1": (_relgln1, _E), "relgln2": (_relgln2, _E), "herm-E": (_herm_e, None),
    "rho-central": (_rho_central, None), "so3-example": (_so3, None),
}


def family(name: str, ctx: CherednikContext, pr: _Products | None = None) -> CheckResult:
    """Run one relation family on the product memo pr of its generator, a
    fresh one when pr is None."""
    pairs, gen = FAMILIES[name]
    result = CheckResult(name)
    for instance, diff in pairs(ctx, _Products(ctx, gen) if pr is None else pr):
        result.instances += 1
        if not diff.is_zero():
            result.record(instance, diff.canonical_str())
    return result


_CROSSING = ("cros-quant", "cros-cyc-2", "cros-cyc-3", "cros-anticomm", "cros-class")
_COXETER = ("com-Mw", "amcoxcom", "amcoxcross", "m2-decomposition", "S-central")
# family suite -> (its families at type A, its families elsewhere); com-ES
# and relgln2 are stated with type-A pairings
FAMILY_SUITES = {
    "relations-so": (("com-ss", "com-sii", "ai", "com-sx", "Sjjai/Sjjaj", "com-MS", "son",
                      "son-rev", "centrality-so"),
                     ("amcoxcom", "amcoxcross", "com-Mw", "centrality-so")),
    "crossing": (_CROSSING, _CROSSING),
    "relations-gl": (("com-ES", "crosgl", "crosgl2", "relgln1", "relgln2", "herm-E",
                      "rho-central"),
                     ("crosgl", "crosgl2", "relgln1", "herm-E", "rho-central")),
    "coxeter-general": (_COXETER, _COXETER),
    "pfaffian": (("pfaffian",), ("pfaffian",)),
}


def _families(suite: str, ctx: CherednikContext, skip=(), memos=None) -> list[CheckResult]:
    """Run the families of a family suite on ctx, except those in skip; the
    families of one generator share its product memo, read from memos (a
    Memo of _Products by generator) when given, else from one made here."""
    if memos is None:
        memos = Memo(partial(_Products, ctx))
    names = FAMILY_SUITES[suite][0 if ctx.rs.is_type_a() else 1]
    return [family(name, ctx, memos[FAMILIES[name][1]]) for name in names if name not in skip]


# the family suites as functions of ctx
relations_so = partial(_families, "relations-so")
crossing_suite = partial(_families, "crossing")
relations_gl = partial(_families, "relations-gl")
coxeter_general = partial(_families, "coxeter-general")
pfaffian_suite = partial(_families, "pfaffian")


def restriction_suite(ctx: CherednikContext, degree: int) -> list[CheckResult]:
    results = [restrict_check(DunklContext.of(ctx), degree)]
    if ctx.rs.is_type_a() and ctx.n >= 2:
        r = CheckResult("gamma-pm")
        g = ctx.gmap.of_orbit(0)
        n = ctx.n
        for sign in (1, -1):
            sigma = g * Fraction(-sign * n * (n - 1), 2)
            expected = (sigma * sigma - sigma * (n - 2)) * Fraction(1, 2)
            r.instances += 1
            if not (gamma_pm(ctx, sign) - expected).is_zero():
                r.record("sign %+d" % sign)
        results.append(r)
    return results


def centre_suite(family: str, ctx: CherednikContext, degree: int,
                 solutions: list[SubElement] | None = None) -> list[CheckResult]:
    """Centralizer dimension and generator membership at desk scale.

    Expected dimension counts the powers of the central generator fitting in
    the degree bound (generator degree 2 for so, 1 for gl), up to the first
    zero power (H_Omega is 0 at N = 1). Each power, a product and so in normal
    form, must lie in the span of the solutions' term maps. ``solutions`` is
    the basis ``centralizer(family, ctx, degree)`` returns, when the caller
    has it.
    """
    if solutions is None:
        solutions = centralizer(family, ctx, degree)
    r = CheckResult("centre-%s" % family)
    alg = get_subalgebra(ctx, family)
    gen, gen_degree = (h_omega_subelement(alg), 2) if family == "so" else (rho_subelement(alg), 1)
    powers = [SubElement.of(alg, SubWord((), ctx.e))]
    while len(powers) <= degree // gen_degree:
        power = powers[-1] * gen
        if power.is_zero():
            break
        powers.append(power)
    r.instances += 1
    if len(solutions) != len(powers):
        r.record("dimension", "computed dimension %d, expected %d powers of the"
                 " central generator" % (len(solutions), len(powers)))
    vectors = [s.terms for s in solutions]
    for k, power in enumerate(powers):
        r.instances += 1
        if not in_span(vectors, power.terms):
            r.record("power %d not in centralizer span" % k)
    return [r]


def _pbw(ctx: CherednikContext, degree: int, mode) -> list[CheckResult]:
    out = [pbw_rank_check("so", ctx, degree)[0]]
    if ctx.rs.is_type_a():
        out.append(pbw_rank_check("gl", ctx, min(degree, 2))[0])
    return out


def _all(ctx: CherednikContext, degree: int, mode) -> list[CheckResult]:
    type_a = ctx.rs.is_type_a()
    names = [name for name, runs in (
        ("relations-so", True), ("crossing", type_a), ("relations-gl", type_a),
        ("restriction", type_a and ctx.n >= 2), ("so3-example", type_a and ctx.n == 3),
        ("coxeter-general", True), ("hamiltonian", True), ("pfaffian", ctx.n % 2 == 0))
        if runs]
    # one product memo per generator for the whole run, dropped on return
    memos = Memo(partial(_Products, ctx))
    out: list[CheckResult] = []
    for name in names:
        # a family that two suites share runs once, at its first position
        out += (_families(name, ctx, {r.name for r in out}, memos) if name in FAMILY_SUITES
                else SUITE_TABLE[name][0](ctx, degree, mode))
    return out


def _by_rank(ctx: CherednikContext, mode) -> int:
    return 4 if ctx.n <= 2 else 3


# suite -> (results(ctx, degree, mode), default degree(ctx, mode) or None when
# the suite takes no degree, default mode or None when it takes no mode).
# Entries call module globals, so a patched engine function is seen.
SUITE_TABLE = {
    "relations-so": (lambda ctx, d, m: relations_so(ctx), None, None),
    "relations-gl": (lambda ctx, d, m: relations_gl(ctx), None, None),
    "crossing": (lambda ctx, d, m: crossing_suite(ctx), None, None),
    "pbw": (_pbw, lambda ctx, m: 4 if ctx.n <= 3 else 2, None),
    "hamiltonian": (lambda ctx, d, m: [verify_hamiltonian_identity(DunklContext.of(ctx), d)],
                    _by_rank, None),
    "restriction": (lambda ctx, d, m: restriction_suite(ctx, d), _by_rank, None),
    "centre": (lambda ctx, d, m: centre_suite(m, ctx, d),
               lambda ctx, m: 4 if m == "so" else 2, "so"),
    "pfaffian": (lambda ctx, d, m: pfaffian_suite(ctx), None, None),
    "so3-example": (lambda ctx, d, m: [family("so3-example", ctx)], None, None),
    "coxeter-general": (lambda ctx, d, m: coxeter_general(ctx), None, None),
    "all": (_all, _by_rank, None),
}

SUITES = tuple(SUITE_TABLE)


def default_degree(suite: str, mode: str | None, ctx: CherednikContext) -> int | None:
    """The degree a suite runs at when none is given; None if it takes none."""
    of = SUITE_TABLE[suite][1]
    return of(ctx, mode) if of is not None else None


def run_suite(name: str, ctx: CherednikContext, family: str,
              degree: int | None = None, mode: str | None = None) -> Report:
    """Run suite ``name`` on ctx and report it under ``family`` at rank ctx.n."""
    if name not in SUITE_TABLE:
        raise ValueError("unknown suite %r" % name)
    results, degree_of, default_mode = SUITE_TABLE[name]
    if degree is not None and degree_of is None:
        raise ValueError("suite %s takes no degree" % name)
    if mode is not None and default_mode is None:
        raise ValueError("suite %s takes no mode" % name)
    mode = mode or default_mode
    params: dict = {}
    if degree_of is not None:
        params["degree"] = degree if degree is not None else degree_of(ctx, mode)
    if mode is not None:
        params["mode"] = mode
    return Report(check=name, family=family, rank=ctx.n, params=params,
                  results=results(ctx, params.get("degree"), mode))
