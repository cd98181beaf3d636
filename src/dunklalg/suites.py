"""Named verification suites over the rewriting engine.

Every suite iterates a family of identities over all admissible index
tuples, asserts that the normal form of LHS - RHS is exactly zero with
symbolic couplings, and reports instance counts plus any counterexample.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import combinations, permutations, product

from .cherednik import (
    CherednikContext,
    WrongRootSystem,
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
from .polyrep import DunklContext, restrict_check, verify_hamiltonian_identity
from .reporting import CheckResult, Report
from .subalgebra import (
    SubElement,
    SubWord,
    centralizer,
    element_coordinates,
    get_subalgebra,
    h_omega_subelement,
    in_span,
    pbw_rank_check,
    rho_subelement,
)


class _Products:
    """Per-run cache of the normal forms G_ab G_cd, G_ab S_cd and S_ab G_cd,
    where G_ab = gen(ctx, a, b) is M_ab (so relations) or E_ab (gl)."""

    def __init__(self, ctx: CherednikContext, gen):
        self.ctx = ctx
        self.gen = gen
        self._memo = {}

    def _product(self, kind: str, a, b, c, d):
        key = (kind, a, b, c, d)
        v = self._memo.get(key)
        if v is None:
            left = s_elem(self.ctx, a, b) if kind == "sg" else self.gen(self.ctx, a, b)
            right = s_elem(self.ctx, c, d) if kind == "gs" else self.gen(self.ctx, c, d)
            v = self._memo[key] = left * right
        return v

    def gg(self, a, b, c, d):
        return self._product("gg", a, b, c, d)

    def gs(self, a, b, c, d):
        return self._product("gs", a, b, c, d)

    def sg(self, a, b, c, d):
        return self._product("sg", a, b, c, d)

    def com(self, a, b, c, d):
        return self.gg(a, b, c, d) - self.gg(c, d, a, b)


def _check(result: CheckResult, instance, diff) -> None:
    result.instances += 1
    if not diff.is_zero():
        result.record(instance, diff.canonical_str())


# ---------------------------------------------------------------------------
# Group-algebra and creation-operator relations (type A)
# ---------------------------------------------------------------------------

def _s_coupling_square(ctx: CherednikContext):
    g = ctx.gmap.of_orbit(0)
    return scalar(ctx, g * g)


def check_com_ss(ctx: CherednikContext) -> CheckResult:
    r = CheckResult("com-ss")
    n = ctx.n
    for (i, j, k) in permutations(range(n), 3):
        _check(r, (i, j, k), s_elem(ctx, i, j) * s_elem(ctx, i, k)
               - s_elem(ctx, j, k) * s_elem(ctx, i, j))
    for (i, j, k, l) in permutations(range(n), 4):
        _check(r, (i, j, k, l), commutator(s_elem(ctx, i, j), s_elem(ctx, k, l)))
    if n >= 2:  # with fewer than two coordinates there is no root, so no coupling
        gsq = _s_coupling_square(ctx)
        for (i, j) in permutations(range(n), 2):
            _check(r, ("square", i, j), s_elem(ctx, i, j) * s_elem(ctx, i, j) - gsq)
            _check(r, ("sym", i, j), s_elem(ctx, i, j) - s_elem(ctx, j, i))
    return r


def check_com_sii(ctx: CherednikContext) -> CheckResult:
    r = CheckResult("com-sii")
    n = ctx.n
    for (i, j) in permutations(range(n), 2):
        _check(r, (i, j), s_elem(ctx, i, j) * s_elem(ctx, j, j)
               - s_elem(ctx, i, i) * s_elem(ctx, i, j))
    for (i, j, k) in permutations(range(n), 3):
        _check(r, (i, j, k), commutator(s_elem(ctx, i, j), s_elem(ctx, k, k)))
    return r


def _a_ops(ctx: CherednikContext):
    # sqrt(2)/2 factors cleared: quadratic relations keep a factor 1/2
    plus = [x_gen(ctx, i) - d_gen(ctx, i) for i in range(ctx.n)]
    minus = [x_gen(ctx, i) + d_gen(ctx, i) for i in range(ctx.n)]
    return plus, minus


def check_ai(ctx: CherednikContext) -> CheckResult:
    r = CheckResult("ai")
    plus, minus = _a_ops(ctx)
    for i in range(ctx.n):
        for j in range(ctx.n):
            _check(r, ("mixed", i, j),
                   commutator(minus[i], plus[j]).scaled(Fraction(1, 2)) - s_elem(ctx, i, j))
            _check(r, ("lower", i, j), commutator(minus[i], minus[j]))
            _check(r, ("raise", i, j), commutator(plus[i], plus[j]))
    return r


def check_com_sx(ctx: CherednikContext) -> CheckResult:
    r = CheckResult("com-sx")
    plus, minus = _a_ops(ctx)
    n = ctx.n
    for ops in (plus, minus):
        for (i, j) in permutations(range(n), 2):
            _check(r, (i, j), s_elem(ctx, i, j) * ops[i] - ops[j] * s_elem(ctx, i, j))
            for k in range(n):
                if k not in (i, j):
                    _check(r, (i, j, k), commutator(s_elem(ctx, i, j), ops[k]))
    return r


def check_sjj_a(ctx: CherednikContext) -> CheckResult:
    r = CheckResult("Sjjai/Sjjaj")
    plus, minus = _a_ops(ctx)
    n = ctx.n
    for ops in (plus, minus):
        for (i, j) in permutations(range(n), 2):
            rhs = (ops[i] - ops[j]) * s_elem(ctx, i, j)
            _check(r, ("diag", i, j), commutator(s_elem(ctx, j, j), ops[i]) - rhs)
            _check(r, ("mixed", i, j), commutator(s_elem(ctx, i, j), ops[j]) - rhs)
        for j in range(n):
            rhs = zero(ctx)
            for k in range(n):
                if k != j:
                    rhs = rhs + (ops[j] - ops[k]) * s_elem(ctx, k, j)
            _check(r, ("own", j), commutator(s_elem(ctx, j, j), ops[j]) - rhs)
    return r


def check_com_ms(ctx: CherednikContext) -> CheckResult:
    r = CheckResult("com-MS")
    pr = _Products(ctx, angular_momentum_ij)
    n = ctx.n
    for (i, j, k, l) in permutations(range(n), 4):
        _check(r, (i, j, k, l), pr.sg(i, j, k, l) - pr.gs(k, l, i, j))
    for (i, j) in permutations(range(n), 2):
        _check(r, ("anti", i, j), pr.sg(i, j, i, j) + pr.gs(i, j, i, j))
    for (i, j, k) in permutations(range(n), 3):
        _check(r, (i, j, k), pr.sg(i, j, i, k) - pr.gs(j, k, i, j))
    return r


# ---------------------------------------------------------------------------
# Commutation and crossing relations (any reflection group; basis tuples)
# ---------------------------------------------------------------------------

def check_commutation(ctx: CherednikContext, name: str = "son") -> CheckResult:
    r = CheckResult(name)
    pr = _Products(ctx, angular_momentum_ij)
    n = ctx.n
    for (i, j, k, l) in product(range(n), repeat=4):
        rhs = (pr.gs(i, l, j, k) + pr.gs(j, k, i, l)
               - pr.gs(i, k, l, j) - pr.gs(j, l, i, k))
        _check(r, (i, j, k, l), pr.com(i, j, k, l) - rhs)
    return r


def check_commutation_rev(ctx: CherednikContext, name: str = "son-rev") -> CheckResult:
    r = CheckResult(name)
    pr = _Products(ctx, angular_momentum_ij)
    n = ctx.n
    for (i, j, k, l) in product(range(n), repeat=4):
        rhs = (pr.sg(j, k, i, l) + pr.sg(i, l, j, k)
               - pr.sg(l, j, i, k) - pr.sg(i, k, j, l))
        _check(r, (i, j, k, l), pr.com(i, j, k, l) - rhs)
    return r


def _cyclic(i, j, k):
    return ((i, j, k), (j, k, i), (k, i, j))


def check_crossing(ctx: CherednikContext, name: str = "cros-quant") -> CheckResult:
    r = CheckResult(name)
    pr = _Products(ctx, angular_momentum_ij)
    n = ctx.n
    for (i, j, k, l) in product(range(n), repeat=4):
        lhs = zero(ctx)
        rhs = zero(ctx)
        for (a, b, c) in _cyclic(i, j, k):
            lhs = lhs + pr.gg(a, b, c, l)
            rhs = rhs + pr.gs(a, b, c, l)
        _check(r, (i, j, k, l), lhs - rhs)
    return r


def check_crossing_cyc2(ctx: CherednikContext) -> CheckResult:
    r = CheckResult("cros-cyc-2")
    pr = _Products(ctx, angular_momentum_ij)
    n = ctx.n
    for (i, j, k, l) in product(range(n), repeat=4):
        diff = zero(ctx)
        for (a, b, c) in _cyclic(i, j, k):
            diff = diff + pr.gg(a, b, c, l) - pr.sg(c, l, a, b)
        _check(r, (i, j, k, l), diff)
    return r


def check_crossing_cyc3(ctx: CherednikContext) -> CheckResult:
    r = CheckResult("cros-cyc-3")
    pr = _Products(ctx, angular_momentum_ij)
    n = ctx.n
    for (i, j, k, l) in product(range(n), repeat=4):
        s1 = zero(ctx)
        s2 = zero(ctx)
        s3 = zero(ctx)
        s4 = zero(ctx)
        for (a, b, c) in _cyclic(i, j, k):
            s1 = s1 + pr.gg(l, a, b, c)
            s2 = s2 + pr.sg(l, a, b, c)
            s3 = s3 + pr.gs(a, b, c, l)
            s4 = s4 + pr.gg(a, b, c, l)
        _check(r, ("12", i, j, k, l), s1 - s2)
        _check(r, ("23", i, j, k, l), s2 - s3)
        _check(r, ("34", i, j, k, l), s3 - s4)
    return r


def check_crossing_anticomm(ctx: CherednikContext) -> CheckResult:
    r = CheckResult("cros-anticomm")
    pr = _Products(ctx, angular_momentum_ij)
    n = ctx.n
    for (i, j, k, l) in product(range(n), repeat=4):
        acc = zero(ctx)
        for (a, b, c) in _cyclic(i, j, k):
            acc = acc + pr.gg(a, b, c, l) + pr.gg(c, l, a, b)
        _check(r, (i, j, k, l), acc)
    return r


def check_crossing_class(ctx: CherednikContext) -> CheckResult:
    """Antisymmetrized quadratic products vanish (per 4-subset)."""
    r = CheckResult("cros-class")
    pr = _Products(ctx, angular_momentum_ij)
    from .cherednik import _perm_sign
    for subset in combinations(range(ctx.n), 4):
        acc = zero(ctx)
        for perm in permutations(range(4)):
            sign = _perm_sign(perm)
            a, b, c, d = (subset[p] for p in perm)
            acc = acc + pr.gg(a, b, c, d).scaled(sign)
        _check(r, subset, acc)
    return r


def check_com_mw(ctx: CherednikContext) -> CheckResult:
    r = CheckResult("com-Mw")
    n = ctx.n
    basis = [tuple(Fraction(1 if t == s else 0) for t in range(n)) for s in range(n)]
    for widx, w in enumerate(ctx.rs.reflections()):
        gw = group(ctx, w)
        for i in range(n):
            for j in range(n):
                lhs = gw * angular_momentum_ij(ctx, i, j)
                rhs = angular_momentum(ctx, w.apply(basis[i]), w.apply(basis[j])) * gw
                _check(r, ("s%d" % widx, i, j), lhs - rhs)
    return r


def check_m2_decomposition(ctx: CherednikContext) -> CheckResult:
    r = CheckResult("m2-decomposition")
    d2 = hamiltonian_H(ctx).scaled(-2)
    xd = euler_xd(ctx)
    scoef = s_sum(ctx).scaled(2) - scalar(ctx, ctx.n - 2)
    rhs = x_squared(ctx) * d2 - xd * xd + scoef * xd
    _check(r, "M2 = x2 D2 - (x.D)^2 + (2S-N+2)(x.D)", m_squared(ctx) - rhs)
    return r


def check_centrality_so(ctx: CherednikContext) -> CheckResult:
    r = CheckResult("centrality-so")
    homega = angular_hamiltonian(ctx)
    ham = hamiltonian_H(ctx)
    x2 = x_squared(ctx)
    for i in range(ctx.n):
        for j in range(i + 1, ctx.n):
            m = angular_momentum_ij(ctx, i, j)
            _check(r, ("H", i, j), commutator(ham, m))
            _check(r, ("x2", i, j), commutator(x2, m))
            _check(r, ("HOmega", i, j), commutator(homega, m))
    for widx, w in enumerate(ctx.rs.reflections()):
        _check(r, ("HOmega-w", widx), commutator(homega, group(ctx, w)))
    return r


# ---------------------------------------------------------------------------
# gl relations
# ---------------------------------------------------------------------------

def check_com_es(ctx: CherednikContext) -> CheckResult:
    r = CheckResult("com-ES")
    pr = _Products(ctx, e_generator)
    n = ctx.n
    for (i, j, k, l) in permutations(range(n), 4):
        _check(r, (i, j, k, l), pr.sg(i, j, k, l) - pr.gs(k, l, i, j))
    for (i, j) in permutations(range(n), 2):
        _check(r, ("flip", i, j), pr.sg(i, j, i, j) - pr.gs(j, i, i, j))
    for (i, j, k) in permutations(range(n), 3):
        _check(r, ("left", i, j, k), pr.sg(i, j, i, k) - pr.gs(j, k, i, j))
        _check(r, ("right", i, j, k), pr.sg(i, j, k, i) - pr.gs(k, j, i, j))
    return r


def check_crosgl(ctx: CherednikContext) -> CheckResult:
    r = CheckResult("crosgl")
    pr = _Products(ctx, e_generator)
    n = ctx.n
    for (i, j, k, l) in product(range(n), repeat=4):
        lhs = pr.gg(i, j, k, l) - pr.gg(i, l, k, j)
        rhs = pr.gs(i, l, k, j) - pr.gs(i, j, k, l)
        _check(r, (i, j, k, l), lhs - rhs)
    return r


def check_crosgl2(ctx: CherednikContext) -> CheckResult:
    r = CheckResult("crosgl2")
    pr = _Products(ctx, e_generator)
    n = ctx.n
    for (i, j, k, l) in product(range(n), repeat=4):
        first = (pr.gg(i, j, k, l) + pr.gs(i, j, k, l)
                 - pr.gg(i, l, k, j) - pr.gs(i, l, k, j))
        _check(r, ("jl", i, j, k, l), first)
        second = (pr.gg(i, j, k, l) + pr.sg(i, j, k, l)
                  - pr.gg(k, j, i, l) - pr.sg(k, j, i, l))
        _check(r, ("ik", i, j, k, l), second)
    return r


def check_relgln1(ctx: CherednikContext) -> CheckResult:
    r = CheckResult("relgln1")
    pr = _Products(ctx, e_generator)
    n = ctx.n
    for (i, j, k, l) in product(range(n), repeat=4):
        rhs = (pr.gs(i, l, j, k) - pr.sg(i, l, k, j)
               + pr.sg(k, l, i, j) - pr.gs(i, j, k, l))
        _check(r, (i, j, k, l), pr.com(i, j, k, l) - rhs)
    return r


def check_relgln2(ctx: CherednikContext) -> CheckResult:
    r = CheckResult("relgln2")
    pr = _Products(ctx, e_generator)
    n = ctx.n
    for (i, j, k, l) in permutations(range(n), 4):
        _check(r, ("a", i, j, k, l),
               pr.com(i, j, k, l) - (pr.gs(i, l, j, k) - pr.gs(k, j, i, l)))
    for (i, k, l) in permutations(range(n), 3):
        _check(r, ("b", i, k, l),
               pr.com(i, i, k, l) - (pr.gs(i, l, i, k) - pr.gs(k, l, i, l)))
    for (i, j) in permutations(range(n), 2):
        _check(r, ("c", i, j),
               pr.com(i, i, j, j) - (pr.gs(i, i, i, j) - pr.gs(j, j, i, j)))
    for (i, j, l) in permutations(range(n), 3):
        rhs = (pr.gs(i, l, j, j) + pr.gs(i, l, j, l) - pr.gs(i, j, j, l)
               - pr.gs(j, j, i, l))
        _check(r, ("d", i, j, l), pr.com(i, j, j, l) - rhs)
    for (i, j) in permutations(range(n), 2):
        _check(r, ("e", i, j),
               pr.com(i, i, i, j) - (pr.gs(i, j, i, i) - pr.gs(i, i, i, j)))
        # conjugate relation
        _check(r, ("e+", i, j),
               pr.com(i, i, j, i) - (pr.sg(i, j, i, i) - pr.sg(i, i, j, i)))
    for (i, j, k) in permutations(range(n), 3):
        _check(r, ("f", i, j, k),
               pr.com(i, j, k, j) - (pr.gs(i, k, j, k) - pr.gs(k, i, i, j)))
        _check(r, ("f+", j, k, i),
               pr.com(j, k, j, i) - (pr.sg(j, k, k, i) - pr.sg(i, j, i, k)))
    for (i, j) in permutations(range(n), 2):
        rhs = (pr.gs(i, i, j, j) - pr.gs(j, j, i, i)
               + pr.gs(i, i, i, j) - pr.gs(j, j, i, j)
               - pr.gs(i, j, i, j) + pr.gs(j, i, i, j))
        _check(r, ("g", i, j), pr.com(i, j, j, i) - rhs)
    return r


def check_herm_e(ctx: CherednikContext) -> CheckResult:
    r = CheckResult("herm-E")
    for i in range(ctx.n):
        for j in range(ctx.n):
            _check(r, (i, j), adjoint(e_generator(ctx, i, j)) - e_generator(ctx, j, i))
    for (i, j) in permutations(range(ctx.n), 2):
        _check(r, ("S", i, j), adjoint(s_elem(ctx, i, j)) - s_elem(ctx, i, j))
    return r


def check_rho_central(ctx: CherednikContext) -> CheckResult:
    r = CheckResult("rho-central")
    p = rho(ctx)
    for k in range(ctx.n):
        for l in range(ctx.n):
            _check(r, (k, l), commutator(p, e_generator(ctx, k, l)))
    for widx, w in enumerate(ctx.rs.reflections()):
        _check(r, ("w", widx), commutator(p, group(ctx, w)))
    return r


# ---------------------------------------------------------------------------
# so(3) example
# ---------------------------------------------------------------------------

def check_so3(ctx: CherednikContext) -> CheckResult:
    r = CheckResult("so3-example")
    if not ctx.rs.is_type_a():
        raise WrongRootSystem("the so(3) example is stated for type A")
    if ctx.n != 3:
        raise ValueError("the so(3) example needs rank 3")
    M = [angular_momentum_ij(ctx, 1, 2), angular_momentum_ij(ctx, 2, 0),
         angular_momentum_ij(ctx, 0, 1)]
    S = [s_elem(ctx, 1, 2), s_elem(ctx, 2, 0), s_elem(ctx, 0, 1)]
    gsq = _s_coupling_square(ctx)
    for a in range(3):
        b = (a + 1) % 3
        c = (a + 2) % 3
        _check(r, ("ss", a), S[a] * S[b] - S[c] * S[a])
        _check(r, ("square", a), S[a] * S[a] - gsq)
        _check(r, ("anti", a), S[a] * M[a] + M[a] * S[a])
        _check(r, ("rot1", a), S[a] * M[b] + M[c] * S[a])
        _check(r, ("rot2", a), S[a] * M[c] + M[b] * S[a])
        rhs = -M[c] + (M[c] - M[b]) * S[a] + (M[c] - M[a]) * S[b]
        _check(r, ("com", a), commutator(M[a], M[b]) - rhs)
        rhs2 = -M[c] + (M[c] * (S[a] + S[b]) + (S[a] + S[b]) * M[c])
        _check(r, ("com-sym", a), commutator(M[a], M[b]) - rhs2)
    return r


# ---------------------------------------------------------------------------
# Suite assembly
# ---------------------------------------------------------------------------

def relations_so(ctx: CherednikContext) -> list[CheckResult]:
    if ctx.rs.is_type_a():
        return [check_com_ss(ctx), check_com_sii(ctx), check_ai(ctx),
                check_com_sx(ctx), check_sjj_a(ctx), check_com_ms(ctx),
                check_commutation(ctx), check_commutation_rev(ctx),
                check_centrality_so(ctx)]
    return [check_commutation(ctx, "amcoxcom"), check_crossing(ctx, "amcoxcross"),
            check_com_mw(ctx), check_centrality_so(ctx)]


def crossing_suite(ctx: CherednikContext) -> list[CheckResult]:
    return [check_crossing(ctx), check_crossing_cyc2(ctx), check_crossing_cyc3(ctx),
            check_crossing_anticomm(ctx), check_crossing_class(ctx)]


def relations_gl(ctx: CherednikContext) -> list[CheckResult]:
    if ctx.rs.is_type_a():
        return [check_com_es(ctx), check_crosgl(ctx), check_crosgl2(ctx),
                check_relgln1(ctx), check_relgln2(ctx), check_herm_e(ctx),
                check_rho_central(ctx)]
    return [check_crosgl(ctx), check_crosgl2(ctx), check_relgln1(ctx),
            check_herm_e(ctx), check_rho_central(ctx)]


def coxeter_general(ctx: CherednikContext) -> list[CheckResult]:
    out = [check_com_mw(ctx), check_commutation(ctx, "amcoxcom"),
           check_crossing(ctx, "amcoxcross"), check_m2_decomposition(ctx)]
    S = s_sum(ctx)
    r = CheckResult("S-central")
    for widx, w in enumerate(ctx.rs.reflections()):
        _check(r, widx, commutator(S, group(ctx, w)))
    out.append(r)
    return out


def pfaffian_suite(ctx: CherednikContext) -> list[CheckResult]:
    r = CheckResult("pfaffian")
    if ctx.n == 2:
        # single-factor edge case: the contraction is 2 M_12, not zero
        _check(r, "N=2", pfaffian_sum(ctx) - angular_momentum_ij(ctx, 0, 1).scaled(2))
    else:
        _check(r, "N=%d" % ctx.n, pfaffian_sum(ctx))
    return [r]


def hamiltonian_suite(ctx: CherednikContext, degree: int) -> list[CheckResult]:
    return [verify_hamiltonian_identity(DunklContext.of(ctx), degree)]


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
                 solved: tuple[list[SubElement], dict] | None = None) -> list[CheckResult]:
    """Centralizer dimension and generator membership at desk scale.

    Expected dimension counts the powers of the central generator fitting in
    the degree bound (generator degree 2 for so, 1 for gl). ``solved`` is the
    result of ``centralizer(family, ctx, degree)`` when the caller has it.
    """
    solutions, aux = solved if solved is not None else centralizer(family, ctx, degree)
    r = CheckResult("centre-%s" % family)
    alg = get_subalgebra(ctx, family)
    if family == "so":
        gen = h_omega_subelement(alg)
        gen_degree = 2
    else:
        gen = rho_subelement(alg)
        gen_degree = 1
    npowers = degree // gen_degree + 1
    r.instances += 1
    if len(solutions) != npowers:
        r.record("dimension", "computed dimension %d, expected %d powers of the"
                 " central generator" % (len(solutions), npowers))
    power = SubElement.of(alg, SubWord((), ctx.e))
    for k in range(npowers):
        coords = element_coordinates(power.normal_form(), aux["unknowns"])
        r.instances += 1
        if coords is None or not in_span(aux["vectors"], coords):
            r.record("power %d not in centralizer span" % k)
        if k + 1 < npowers:
            power = power * gen
    return [r]


def pbw_suite(ctx: CherednikContext, so_degree: int, gl_degree: int | None = None) -> list[CheckResult]:
    out = [pbw_rank_check("so", ctx, so_degree)[0]]
    if gl_degree is not None:
        out.append(pbw_rank_check("gl", ctx, gl_degree)[0])
    return out


SUITES = ("relations-so", "relations-gl", "crossing", "pbw", "hamiltonian",
          "restriction", "centre", "pfaffian", "so3-example", "coxeter-general",
          "all")


def default_degree(suite: str, family: str, ctx: CherednikContext) -> int:
    if suite == "hamiltonian":
        return 4 if ctx.n <= 2 else 3
    if suite == "restriction":
        return 4 if ctx.n <= 2 else 3
    if suite == "centre":
        return 4 if family == "so" else 2
    if suite == "pbw":
        return 4 if ctx.n <= 3 else 2
    return 4


def run_suite(name: str, ctx: CherednikContext, family: str, rank: int,
              degree: int | None = None, mode: str | None = None,
              timing: bool = False) -> Report:
    start = time.monotonic()
    params: dict = {}
    results: list[CheckResult] = []

    def _run(suite_name: str):
        if suite_name == "relations-so":
            results.extend(relations_so(ctx))
        elif suite_name == "relations-gl":
            results.extend(relations_gl(ctx))
        elif suite_name == "crossing":
            results.extend(crossing_suite(ctx))
        elif suite_name == "pbw":
            d = degree if degree is not None else default_degree("pbw", "so", ctx)
            params["degree"] = d
            gl_d = min(d, 2) if ctx.rs.is_type_a() else None
            results.extend(pbw_suite(ctx, d, gl_d))
        elif suite_name == "hamiltonian":
            d = degree if degree is not None else default_degree("hamiltonian", "", ctx)
            params["degree"] = d
            results.extend(hamiltonian_suite(ctx, d))
        elif suite_name == "restriction":
            d = degree if degree is not None else default_degree("restriction", "", ctx)
            params["degree"] = d
            results.extend(restriction_suite(ctx, d))
        elif suite_name == "centre":
            fam = mode if mode in ("so", "gl") else "so"
            d = degree if degree is not None else default_degree("centre", fam, ctx)
            params["degree"] = d
            params["mode"] = fam
            results.extend(centre_suite(fam, ctx, d))
        elif suite_name == "pfaffian":
            results.extend(pfaffian_suite(ctx))
        elif suite_name == "so3-example":
            results.append(check_so3(ctx))
        elif suite_name == "coxeter-general":
            results.extend(coxeter_general(ctx))
        else:
            raise ValueError("unknown suite %r" % suite_name)

    if name == "all":
        _run("relations-so")
        if ctx.rs.is_type_a():
            _run("crossing")
            _run("relations-gl")
            if ctx.n >= 2:
                _run("restriction")
            if ctx.n == 3:
                _run("so3-example")
        _run("coxeter-general")
        _run("hamiltonian")
        if ctx.n % 2 == 0:
            _run("pfaffian")
    else:
        _run(name)

    report = Report(check=name, family=family, rank=rank, params=params, results=results)
    if timing:
        report.timing = time.monotonic() - start
    return report
