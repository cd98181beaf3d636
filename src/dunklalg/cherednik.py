"""PBW rewriting engine for the rational Cherednik algebra.

Elements are stored in the normal form  x^a * w * D^b  with CoeffPoly
coefficients. The generators obey

    [D_i, x_j] = S_{e_i e_j},   w x_xi w^{-1} = x_{w(xi)},
    w D_xi w^{-1} = D_{w(xi)},  [x_i, x_j] = [D_i, D_j] = 0,

and multiplication renormalizes products by commuting single D factors
across single x factors, inserting group-algebra terms from the S pairing.
One memo per context holds the normal form of D^b x^c (``db_x``): the entry
for a single D_i follows D_i x^c = x_j (D_i x^(c-e_j)) + S_ij x^(c-e_j), and
a longer D^b moves one D_i across the entries of D^(b-e_i) x^c. Moving x^a
or D^b across a group element uses the root system's memoized ``act_exp``.
On top of these, each context memoizes the product template of
(w1 D^b1)(x^a2 w2), so a product of two terms costs one exponent shift and
one coefficient product per output term. The named elements (M_ij, E_kl,
H_Omega, rho, the subalgebras, ...) are memoized per context by ``named``.
Every memo is an exactmath.Memo, filled once with setdefault and never
evicted (``named`` stores the same way), so threads that race share the
entry that won.

The engine never commits to a gauge for the D generators: both the
polynomial-preserving and the localized realizations satisfy the same
relations, and the faithful check lives in polyrep.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from operator import add
from typing import Sequence

from .coxeter import GroupElement, MultiplicityMap, RootSystem, invariant_sum_S, s_pair
from .exactmath import (CoeffPoly, Combination, ContextMismatch, Memo, add_term, grevlex_key,
                        render_monomial, render_terms)


class WrongRootSystem(ValueError):
    """Operation restricted to another root-system family."""


class OddRank(ValueError):
    """Operation requires an even rank."""


TermKey = tuple[tuple[int, ...], GroupElement, tuple[int, ...]]


def _bump(exp: tuple[int, ...], j: int, k: int = 1) -> tuple[int, ...]:
    return exp[:j] + (exp[j] + k,) + exp[j + 1:]


class CherednikContext:
    """Root system plus coupling map, with the rewriting caches."""

    def __init__(self, rs: RootSystem, gmap: MultiplicityMap | None = None):
        self.rs = rs
        self.gmap = gmap if gmap is not None else MultiplicityMap.symbolic(rs)
        self.n = rs.rank
        self.nsym = self.gmap.nsym
        self.e = rs.identity
        self.zero_exp = (0,) * self.n
        self.one = CoeffPoly.one(self.nsym)
        self._s_terms = Memo(self._s_pair_terms)
        self._dbx = Memo(self._d_x)
        self._tm = Memo(self._template)
        self._named: dict = {}

    def named(self, key, build):
        """The value stored under key, made by build() on first use. It is
        stored with setdefault, so a thread that loses a race to build it
        gets the value that won and every caller shares one object."""
        cached = self._named.get(key)
        if cached is None:
            cached = self._named.setdefault(key, build())
        return cached

    def s_terms(self, i: int, j: int) -> tuple[tuple[GroupElement, CoeffPoly], ...]:
        """S_{e_i e_j} as (group element, coefficient) pairs."""
        return self._s_terms[i, j]

    def _s_pair_terms(self, key: tuple[int, int]):
        i, j = key
        return tuple(s_pair([1 if k == i else 0 for k in range(self.n)],
                            [1 if k == j else 0 for k in range(self.n)],
                            self.rs, self.gmap).items())

    def db_x(self, b: tuple[int, ...], c: tuple[int, ...]):
        """Normal form of D^b x^c: ((coef, xexp, w, dexp), ...)."""
        if b == self.zero_exp:
            return ((self.one, c, self.e, self.zero_exp),)
        return self._dbx[b, c]

    def _d_x(self, key: tuple[tuple[int, ...], tuple[int, ...]]):
        b, c = key
        i = next(k for k, p in enumerate(b) if p)
        e_i = _bump(self.zero_exp, i)
        acc: dict[TermKey, CoeffPoly] = {}
        if b == e_i:
            # D_i x^c = x_j (D_i x^(c - e_j)) + S_ij x^(c - e_j)
            if c == self.zero_exp:
                return ((self.one, c, self.e, b),)
            j = next(k for k, p in enumerate(c) if p)
            c2 = _bump(c, j, -1)
            for coef, a, w, d in self._dbx[b, c2]:
                add_term(acc, (_bump(a, j), w, d), coef)
            for w, kappa in self.s_terms(i, j):
                for f, a in self.rs.act_exp(w, c2):
                    add_term(acc, (a, w, self.zero_exp), kappa * f if f != 1 else kappa)
        else:
            for coef, alpha, u, beta in self.db_x(_bump(b, i, -1), c):
                for coef2, a2, u2, d in self._dbx[e_i, alpha]:
                    w = u2 * u
                    cc = coef * coef2
                    if d != self.zero_exp:
                        # the surviving D_i still has to cross u
                        for f, db in self.rs.act_exp(u.inverse(), d):
                            bout = tuple(x + y for x, y in zip(db, beta))
                            add_term(acc, (a2, w, bout), cc * f if f != 1 else cc)
                    else:
                        add_term(acc, (a2, w, beta), cc)
        return tuple((v, a, w, bb) for (a, w, bb), v in acc.items())

    def template(self, w1: GroupElement, b1: tuple[int, ...], a2: tuple[int, ...],
                 w2: GroupElement):
        """Normal form of (w1 D^b1)(x^a2 w2): ((ax, w, bx, coef), ...).

        (x^a1 w1 D^b1)(x^a2 w2 D^b2) is then the sum of coef x^(a1+ax) w
        D^(bx+b2). Entries are in the order the rewriting produces them and
        repeated keys are not merged, so products fill their accumulators in
        one fixed order. Memoized per (w1, b1, a2, w2)."""
        return self._tm[w1, b1, a2, w2]

    def _template(self, key):
        w1, b1, a2, w2 = key
        act = self.rs.act_exp
        w2inv = w2.inverse()
        out = []
        for coef, alpha, u, beta in self.db_x(b1, a2):
            w = (w1 * u) * w2
            for f1, ax in act(w1, alpha):
                c1 = coef * f1 if f1 != 1 else coef
                if beta == self.zero_exp:
                    out.append((ax, w, self.zero_exp, c1))
                else:
                    for f2, bx in act(w2inv, beta):
                        out.append((ax, w, bx, c1 * f2 if f2 != 1 else c1))
        return tuple(out)


class PBWElement(Combination):
    """Linear combination of normal-form words x^a * w * D^b."""

    __slots__ = ("ctx",)

    def __init__(self, ctx: CherednikContext, terms: dict[TermKey, CoeffPoly] | None = None):
        self.ctx = ctx
        self.terms = terms if terms is not None else {}

    def _context(self) -> tuple:
        return (self.ctx,)

    def _unit(self) -> PBWElement:
        return one(self.ctx)

    def __mul__(self, other) -> PBWElement:
        if other.__class__ is not PBWElement:
            return super().__mul__(other)
        self._check(other)
        ctx = self.ctx
        zero = ctx.zero_exp
        acc: dict[TermKey, CoeffPoly] = {}
        for (a1, w1, b1), c1 in self.terms.items():
            shift_a = a1 != zero
            for (a2, w2, b2), c2 in other.terms.items():
                shift_b = b2 != zero
                c12 = c1 * c2
                for ax, w, bx, c in ctx.template(w1, b1, a2, w2):
                    if shift_a:
                        ax = tuple(map(add, a1, ax))
                    if shift_b:
                        bx = tuple(map(add, bx, b2))
                    add_term(acc, (ax, w, bx), c12 * c)
        return PBWElement(ctx, acc)

    # -- canonical serialization ---------------------------------------------

    def _term_sort_key(self, key: TermKey):
        a, w, b = key
        return (-(sum(a) + sum(b)), -sum(a),
                tuple(-v for v in grevlex_key(a)[1]),
                tuple(-v for v in grevlex_key(b)[1]),
                w.sort_key())

    @staticmethod
    def _render_group(w: GroupElement) -> str:
        if w.is_identity():
            return ""
        if w.perm is not None and all(s == 1 for s in w.signs):
            moved = [j for j in range(w.n) if w.perm[j] != j]
            if len(moved) == 2:
                i, j = moved
                return "s(%d%d)" % (i + 1, j + 1)
        return w.render()

    def canonical_str(self) -> str:
        names = self.ctx.rs.symbols
        xs = ["x%d" % (i + 1) for i in range(self.ctx.n)]
        ds = ["D%d" % (i + 1) for i in range(self.ctx.n)]

        def body(a, w, b) -> str:
            factors = (render_monomial(a, xs), self._render_group(w), render_monomial(b, ds))
            return "*".join(f for f in factors if f) or "1"

        return render_terms((self.terms[key].render_atom(names), body(*key))
                            for key in sorted(self.terms, key=self._term_sort_key))

    def __repr__(self) -> str:
        return "PBWElement(%s)" % self.canonical_str()


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def zero(ctx: CherednikContext) -> PBWElement:
    return PBWElement(ctx)

def one(ctx: CherednikContext) -> PBWElement:
    return PBWElement(ctx, {(ctx.zero_exp, ctx.e, ctx.zero_exp): ctx.one})

def scalar(ctx: CherednikContext, c) -> PBWElement:
    return one(ctx).scaled(c)

def x_gen(ctx: CherednikContext, i: int) -> PBWElement:
    return PBWElement(ctx, {(_bump(ctx.zero_exp, i), ctx.e, ctx.zero_exp): ctx.one})

def d_gen(ctx: CherednikContext, i: int) -> PBWElement:
    return PBWElement(ctx, {(ctx.zero_exp, ctx.e, _bump(ctx.zero_exp, i)): ctx.one})

def group(ctx: CherednikContext, w: GroupElement) -> PBWElement:
    if w.rs is not ctx.rs:
        raise ContextMismatch("group element from another root system")
    return PBWElement(ctx, {(ctx.zero_exp, w, ctx.zero_exp): ctx.one})

def s_elem(ctx: CherednikContext, i: int, j: int) -> PBWElement:
    """S_{e_i e_j} as an element of the algebra."""
    return PBWElement(ctx, {(ctx.zero_exp, w, ctx.zero_exp): c for w, c in ctx.s_terms(i, j)})

def s_sum(ctx: CherednikContext) -> PBWElement:
    return ctx.named("s_sum", lambda: PBWElement(ctx, {
        (ctx.zero_exp, w, ctx.zero_exp): c for w, c in invariant_sum_S(ctx.rs, ctx.gmap).items()}))


def commutator(p: PBWElement, q: PBWElement) -> PBWElement:
    return p * q - q * p

def anticommutator(p: PBWElement, q: PBWElement) -> PBWElement:
    return p * q + q * p


def angular_momentum(ctx: CherednikContext, xi: Sequence, eta: Sequence) -> PBWElement:
    """M_{xi,eta} = (x,xi) D_eta - (x,eta) D_xi, already in normal form.

    The term x_i D_j has coefficient xi_i eta_j - eta_i xi_j, which vanishes
    unless xi or eta is nonzero at both i and j, so only that support is
    visited, i then j in increasing order."""
    xi = [_rational(v) for v in xi]
    eta = [_rational(v) for v in eta]
    support = [k for k in range(len(xi)) if xi[k] or eta[k]]
    z = ctx.zero_exp
    terms: dict[TermKey, CoeffPoly] = {}
    for i in support:
        a, b = xi[i], eta[i]
        for j in support:
            c = a * eta[j] - b * xi[j]
            if c:
                terms[_bump(z, i), ctx.e, _bump(z, j)] = CoeffPoly.const(c, ctx.nsym)
    return PBWElement(ctx, terms)


def _rational(v) -> int | Fraction:
    """A coordinate as an exact value: an int when integral, else a Fraction."""
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def angular_momentum_ij(ctx: CherednikContext, i: int, j: int) -> PBWElement:
    """M_ij = x_i D_j - x_j D_i, zero when i == j; its terms are in the order
    angular_momentum gives them (lower x index first)."""
    def build():
        if i == j:
            return PBWElement(ctx)
        z = ctx.zero_exp
        plus = ((_bump(z, i), ctx.e, _bump(z, j)), ctx.one)
        minus = ((_bump(z, j), ctx.e, _bump(z, i)), -ctx.one)
        return PBWElement(ctx, dict((plus, minus) if i < j else (minus, plus)))
    return ctx.named(("M", i, j), build)


def e_generator(ctx: CherednikContext, k: int, l: int) -> PBWElement:
    """E_kl = a+_k a_l = (x_k - D_k)(x_l + D_l) / 2 in normal form."""
    def build():
        plus = x_gen(ctx, k) - d_gen(ctx, k)
        minus = x_gen(ctx, l) + d_gen(ctx, l)
        return (plus * minus).scaled(Fraction(1, 2))
    return ctx.named(("E", k, l), build)


def hamiltonian_H(ctx: CherednikContext) -> PBWElement:
    def build():
        half = CoeffPoly.const(Fraction(-1, 2), ctx.nsym)
        return PBWElement(ctx, {
            (ctx.zero_exp, ctx.e, _bump(ctx.zero_exp, i, 2)): half for i in range(ctx.n)})
    return ctx.named("H", build)


def x_squared(ctx: CherednikContext) -> PBWElement:
    return PBWElement(ctx, {
        (_bump(ctx.zero_exp, i, 2), ctx.e, ctx.zero_exp): ctx.one for i in range(ctx.n)})


def euler_xd(ctx: CherednikContext) -> PBWElement:
    """sum_i x_i D_i."""
    return PBWElement(ctx, {
        (_bump(ctx.zero_exp, i), ctx.e, _bump(ctx.zero_exp, i)): ctx.one for i in range(ctx.n)})


def m_squared(ctx: CherednikContext) -> PBWElement:
    def build():
        acc = PBWElement(ctx)
        for i in range(ctx.n):
            for j in range(i + 1, ctx.n):
                m = angular_momentum_ij(ctx, i, j)
                acc = acc + m * m
        return acc
    return ctx.named("M2", build)


def angular_hamiltonian(ctx: CherednikContext) -> PBWElement:
    """H_Omega = -M^2/2 + S(S - N + 2)/2."""
    def build():
        S = s_sum(ctx)
        shifted = S - scalar(ctx, ctx.n - 2)
        return (S * shifted - m_squared(ctx)).scaled(Fraction(1, 2))
    return ctx.named("HOmega", build)


def rho(ctx: CherednikContext) -> PBWElement:
    def build():
        acc = PBWElement(ctx)
        for i in range(ctx.n):
            acc = acc + e_generator(ctx, i, i)
        return acc - s_sum(ctx)
    return ctx.named("rho", build)


def gamma_pm(ctx: CherednikContext, sign: int) -> CoeffPoly:
    """Restriction scalars gamma_{+-} = g N(N-1) (g N(N-1) +- 2(N-2)) / 8 (type A)."""
    if not ctx.rs.is_type_a():
        raise WrongRootSystem("the restriction scalars are defined for type A only")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    n = ctx.n
    if n < 2:
        raise WrongRootSystem("need N >= 2")
    gnn = ctx.gmap.of_orbit(0) * (n * (n - 1))
    return (gnn * gnn + gnn * (sign * 2 * (n - 2))) * Fraction(1, 8)


def adjoint(p: PBWElement) -> PBWElement:
    """Formal conjugation: x_i -> x_i, D_i -> -D_i, w -> w^{-1}, products reversed."""
    ctx = p.ctx
    acc: dict[TermKey, CoeffPoly] = {}
    for (a, w, b), c in p.terms.items():
        winv = w.inverse()
        sign = -1 if sum(b) % 2 else 1
        for f, b2 in ctx.rs.act_exp(w, b):
            c0 = c * (sign * f)
            for ax, w2, bx, c2 in ctx.template(winv, b2, a, ctx.e):
                add_term(acc, (ax, w2, bx), c0 * c2)
    return PBWElement(ctx, acc)


def exchange_antiauto(p: PBWElement) -> PBWElement:
    """The involutive antiautomorphism swapping x_i and D_i (and w -> w^{-1})."""
    ctx = p.ctx
    out: dict[TermKey, CoeffPoly] = {}
    for (a, w, b), c in p.terms.items():
        add_term(out, (b, w.inverse(), a), c)
    return PBWElement(ctx, out)


def pfaffian_sum(ctx: CherednikContext) -> PBWElement:
    """Levi-Civita contraction of M factors: sum eps(i) M_{i1 i2} ... M_{i(N-1) iN}."""
    n = ctx.n
    if n % 2:
        raise OddRank("the Pfaffian contraction needs an even rank")
    acc = PBWElement(ctx)
    for perm in permutations(range(n)):
        sign = _perm_sign(perm)
        prod = one(ctx)
        for k in range(0, n, 2):
            prod = prod * angular_momentum_ij(ctx, perm[k], perm[k + 1])
        acc = acc + prod.scaled(sign)
    return acc


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign
