"""Faithful polynomial representation of the rewriting engine.

Two realizations of the same abstract relations live here. The
polynomial-preserving Dunkl operators

    D_xi p = d_xi p + sum_{alpha > 0} g_alpha (alpha, xi) / (alpha, x) (1 - s_alpha) p

act on XPoly and serve as the oracle validating every normal form computed
by the rewriting engine. The gauged operators

    nabla_xi = d_xi - sum_{alpha > 0} g_alpha (alpha, xi) / (alpha, x) s_alpha

do not preserve polynomials; they act on LocPoly and exist to verify the
analytically phrased Hamiltonian and restriction identities exactly as
printed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import permutations as _permutations
from typing import Iterable, Sequence

from .cherednik import CherednikContext, PBWElement, WrongRootSystem
from .coxeter import GroupElement, MultiplicityMap, RootSystem
from .exactmath import CoeffPoly, LocPoly, NotDivisible, XPoly
from .reporting import CheckResult


def _dot(a, b) -> int | Fraction:
    """(a, b) for vectors of exact scalars, over their common nonzero entries."""
    return sum(x * y for x, y in zip(a, b) if x and y)


class DunklContext:
    """Root system and coupling map of the polynomial representation."""

    def __init__(self, rs: RootSystem, gmap: MultiplicityMap | None = None):
        self.rs = rs
        self.gmap = gmap if gmap is not None else MultiplicityMap.symbolic(rs)
        self.n = rs.rank
        self.nsym = self.gmap.nsym
        self.roots = rs.positive_roots

    @staticmethod
    def of(ctx: CherednikContext) -> DunklContext:
        return DunklContext(ctx.rs, ctx.gmap)

    def zero_poly(self) -> XPoly:
        return XPoly.zero(self.n, self.nsym)

    def one_poly(self) -> XPoly:
        return XPoly.one(self.n, self.nsym)

    def monomial(self, exp: Sequence[int]) -> XPoly:
        return XPoly.monomial(exp, self.n, self.nsym)

    def act_group(self, w: GroupElement, p: XPoly) -> XPoly:
        return p.map_monomials(partial(self.rs.act_exp, w))


def dunkl_apply(ctx: DunklContext, xi: Sequence, p: XPoly) -> XPoly:
    """Apply the polynomial-preserving Dunkl operator in direction xi."""
    xi = tuple(Fraction(v) for v in xi)
    out = p.derivative_dir(xi)
    for i, alpha in enumerate(ctx.roots):
        axi = _dot(alpha, xi)
        if not axi:
            continue
        diff = p - ctx.act_group(ctx.rs.reflection(i), p)
        if diff.is_zero():
            continue
        quot = diff.div_linear(alpha)
        if quot is None:
            raise NotDivisible("divided difference is not a polynomial")
        out = out + quot.scaled(ctx.gmap.of_root(ctx.rs, i) * axi)
    return out


def dunkl_apply_i(ctx: DunklContext, i: int, p: XPoly) -> XPoly:
    return dunkl_apply(ctx, [1 if k == i else 0 for k in range(ctx.n)], p)


def apply_element(ctx: DunklContext, e: PBWElement, p: XPoly) -> XPoly:
    """Evaluate a PBW element on a polynomial, term by term."""
    total = ctx.zero_poly()
    for (a, w, b), c in e.terms.items():
        q = p
        for i, power in enumerate(b):
            for _ in range(power):
                q = dunkl_apply_i(ctx, i, q)
            if q.is_zero():
                break
        if q.is_zero():
            continue
        q = ctx.act_group(w, q)
        for i, power in enumerate(a):
            if power:
                q = q * ctx.monomial(tuple(power if k == i else 0 for k in range(ctx.n)))
        total = total + q.scaled(c)
    return total


def apply_generator_word(ctx: DunklContext, word: Iterable, p: XPoly) -> XPoly:
    """Stepwise evaluation of a word of generators, rightmost factor first.

    Word entries: ("x", i), ("D", i), ("w", GroupElement), or ("c", scalar).
    """
    word = list(word)
    q = p
    for kind, payload in reversed(word):
        if kind == "x":
            q = q * ctx.monomial(tuple(1 if k == payload else 0 for k in range(ctx.n)))
        elif kind == "D":
            q = dunkl_apply_i(ctx, payload, q)
        elif kind == "w":
            q = ctx.act_group(payload, q)
        elif kind == "c":
            q = q.scaled(payload)
        else:
            raise ValueError("unknown generator kind %r" % kind)
    return q


# ---------------------------------------------------------------------------
# The localized (gauged) representation
# ---------------------------------------------------------------------------

def to_loc(ctx: DunklContext, p: XPoly) -> LocPoly:
    return LocPoly.from_poly(p, ctx.roots)


def loc_act_group(ctx: DunklContext, w: GroupElement, f: LocPoly) -> LocPoly:
    """The action of an element of W, which permutes the denominator forms."""
    return f.act(partial(ctx.rs.act_exp, w), w.roots)


class NablaOperator:
    """A gauged Dunkl operator in a fixed direction, acting on LocPoly."""

    def __init__(self, ctx: DunklContext, direction):
        self.ctx = ctx
        self.direction = direction

    def __call__(self, f: LocPoly) -> LocPoly:
        return nabla_apply(self.ctx, self.direction, f)


def nabla_apply(ctx: DunklContext, xi, f: LocPoly) -> LocPoly:
    """Apply the gauged operator nabla_xi to a localized polynomial; xi is a
    direction vector, or a coordinate index for the unit direction."""
    return _nabla_all(ctx, (xi,), f)[0]


def _nabla_all(ctx: DunklContext, directions, f: LocPoly) -> list[LocPoly]:
    """nabla_xi f for every xi in directions (vectors or coordinate indices).

    Each reflected term s_a f / (a, x) is formed once, on the first direction
    with (a, xi) != 0, and each derivative d_k f once, so directions that share
    a root share its term. Every sum adds the reflected terms first and the
    derivatives last. The canonical form of a LocPoly is unique, so the order
    does not change the result, but a late derivative lifts fewer terms."""
    reflected: dict[int, LocPoly] = {}
    derivatives: dict[int, LocPoly] = {}
    out = []
    for xi in directions:
        if isinstance(xi, int):
            xi = [int(k == xi) for k in range(ctx.n)]
        xi = tuple(Fraction(v) for v in xi)
        acc = None
        for i, alpha in enumerate(ctx.roots):
            axi = _dot(alpha, xi)
            if not axi:
                continue
            term = reflected.get(i)
            if term is None:
                s = ctx.rs.reflection(i)
                term = reflected[i] = loc_act_group(ctx, s, f).over_form(i)
            term = term.scaled(-(ctx.gmap.of_root(ctx.rs, i) * axi))
            acc = term if acc is None else acc + term
        for k, v in enumerate(xi):
            if v:
                d = derivatives.get(k)
                if d is None:
                    d = derivatives[k] = f.derivative(k)
                if v != 1:
                    d = d.scaled(v)
                acc = d if acc is None else acc + d
        out.append(acc if acc is not None else LocPoly.from_poly(ctx.zero_poly(), ctx.roots))
    return out


def _hamiltonian_lhs(ctx: DunklContext, f: LocPoly) -> LocPoly:
    """-1/2 sum_i nabla_i^2 f: the inner nabla_i f come from one _nabla_all
    call, which forms each reflected term of f once."""
    acc = None
    for i, g in enumerate(_nabla_all(ctx, range(ctx.n), f)):
        t = nabla_apply(ctx, i, g)
        acc = t if acc is None else acc + t
    return acc.scaled(Fraction(-1, 2))


def _kinetic(ctx: DunklContext, f: LocPoly) -> LocPoly:
    """-1/2 Lap f."""
    lap = None
    for i in range(ctx.n):
        t = f.derivative(i).derivative(i)
        lap = t if lap is None else lap + t
    return lap.scaled(Fraction(-1, 2))


def _hamiltonian_rhs(ctx: DunklContext, f: LocPoly, potential_sign: int = 1) -> LocPoly:
    acc = _kinetic(ctx, f)
    for i, alpha in enumerate(ctx.roots):
        g = ctx.gmap.of_root(ctx.rs, i)
        aa = _dot(alpha, alpha)
        term = f.scaled(g * g) - loc_act_group(ctx, ctx.rs.reflection(i), f).scaled(g)
        term = term.scaled(CoeffPoly.const(potential_sign * aa / 2, ctx.nsym))
        acc = acc + term.over_form(i, 2)
    return acc


def monomials_up_to(n: int, bound: int):
    def rec(slots, remaining):
        if slots == 0:
            yield ()
            return
        for k in range(remaining + 1):
            for rest in rec(slots - 1, remaining - k):
                yield (k,) + rest
    return rec(n, bound)


def verify_hamiltonian_identity(ctx: DunklContext, degree_bound: int,
                                potential_sign: int = 1) -> CheckResult:
    """Check -1/2 sum nabla_i^2 = -1/2 Lap + sum_a g_a (g_a - s_a)(a,a)/(2(a,x)^2)
    on every monomial of degree <= degree_bound, in localized arithmetic."""
    result = CheckResult("hamiltonian-identity")
    for exp in monomials_up_to(ctx.n, degree_bound):
        f = to_loc(ctx, ctx.monomial(exp))
        lhs = _hamiltonian_lhs(ctx, f)
        rhs = _hamiltonian_rhs(ctx, f, potential_sign)
        result.instances += 1
        if not (lhs - rhs).is_zero():
            result.record("monomial %s" % (exp,), (lhs - rhs).render(ctx.rs.symbols))
            break
    return result


# ---------------------------------------------------------------------------
# Restriction to symmetric / antisymmetric polynomials (type A)
# ---------------------------------------------------------------------------

def partitions_up_to(total: int, parts: int):
    def rec(maxpart, slots, remaining):
        if slots == 0 or remaining == 0:
            yield ()
            return
        for k in range(min(maxpart, remaining), 0, -1):
            for rest in rec(k, slots - 1, remaining - k):
                yield (k,) + rest
    for tot in range(total + 1):
        for lam in rec(tot, parts, tot):
            if sum(lam) == tot:
                yield lam


def monomial_symmetric(ctx: DunklContext, lam: Sequence[int]) -> XPoly:
    n = ctx.n
    padded = tuple(lam) + (0,) * (n - len(lam))
    exps = sorted(set(_permutations(padded)))
    out = ctx.zero_poly()
    for e in exps:
        out = out + ctx.monomial(e)
    return out


def vandermonde(ctx: DunklContext) -> XPoly:
    out = ctx.one_poly()
    for i in range(ctx.n):
        for j in range(i + 1, ctx.n):
            xi = XPoly.variable(i, ctx.n, ctx.nsym)
            xj = XPoly.variable(j, ctx.n, ctx.nsym)
            out = out * (xi - xj)
    return out


def _restricted_potential(ctx: DunklContext, f: LocPoly, shift: int) -> LocPoly:
    """-1/2 Lap f + sum_a g_a (g_a - shift)(a,a)/(2(a,x)^2) f."""
    acc = _kinetic(ctx, f)
    for i, alpha in enumerate(ctx.roots):
        g = ctx.gmap.of_root(ctx.rs, i)
        aa = _dot(alpha, alpha)
        term = f.scaled((g * g - g * shift) * (aa / 2))
        acc = acc + term.over_form(i, 2)
    return acc


def restrict_check(ctx: DunklContext, degree_bound: int) -> CheckResult:
    """On (anti)symmetric inputs the gauged Hamiltonian restricts to the
    scalar Calogero-Moser operators, and S acts by -+ g N(N-1)/2 (type A)."""
    if not ctx.rs.is_type_a():
        raise WrongRootSystem("restriction checks are defined for type A")
    n = ctx.n
    if n < 2:
        raise WrongRootSystem("restriction checks need N >= 2")
    result = CheckResult("restriction")
    g = ctx.gmap.of_orbit(0)
    scal = g * Fraction(n * (n - 1), 2)
    vdm = vandermonde(ctx)
    sym_set = [monomial_symmetric(ctx, lam) for lam in partitions_up_to(degree_bound, n)]
    for sign, span in ((1, sym_set), (-1, [vdm * p for p in sym_set])):
        for p in span:
            f = to_loc(ctx, p)
            lhs = _hamiltonian_lhs(ctx, f)
            rhs = _restricted_potential(ctx, f, sign)
            result.instances += 1
            if not (lhs - rhs).is_zero():
                result.record("H restriction sign %+d on %s" % (sign, p.render(ctx.rs.symbols)))
                return result
            # S p = -+ g N(N-1)/2 p
            sp = ctx.zero_poly()
            for i in range(len(ctx.roots)):
                sp = sp + ctx.act_group(ctx.rs.reflection(i), p).scaled(-g)
            expected = p.scaled(scal * (-sign))
            result.instances += 1
            if not (sp - expected).is_zero():
                result.record("S restriction sign %+d on %s" % (sign, p.render(ctx.rs.symbols)))
                return result
    return result
