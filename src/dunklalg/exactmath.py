"""Exact arithmetic substrate.

Provides the scalar ring Q[g1..gk] of coupling polynomials (CoeffPoly),
polynomials in the coordinates with such coefficients (XPoly), polynomials
localized at products of root linear forms (LocPoly), and linear algebra
over Q(g1..gk) on sparse rows: a rank certificate modulo 2^61 - 1 at a fixed
point, and a fraction-free sparse echelon for exact ranks. Nullspaces stay in
the same polynomial arithmetic: the echelon is reduced fraction-free
(Gauss-Jordan) and each basis vector is read off over a common multiple of
the pivots, so no rational function of the couplings is ever formed.

Linear algebra reads and returns term maps ({key: CoeffPoly} without zeros):
a row, a nullspace vector and a span test's vectors alike. numbered_rows
numbers the keys of term maps as columns, and in_span tests membership in
the span of term maps.

A rational coefficient is an ``int`` or a ``Fraction``, never a ``float``,
and an integral coefficient of a CoeffPoly is always an ``int``, so the bulk
of the products are int products; every division goes through ``Fraction``.

Coupling polynomials are interned: each CoeffPoly value exists once per
process, in a table filled with setdefault and never evicted, so equality
of two CoeffPolys is identity and they hash by identity. Products, sums and
differences of interned values are read from Memos keyed by the operand
pair, and so is the text of a value, keyed by the value and the symbol
names. No order that reaches the output is read from those identity hashes.

All values are immutable after construction and every operation is a pure
function, so they are safe to share across threads. Every engine memo is a
Memo: filled once per key with setdefault and never evicted.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from operator import add
from typing import Iterable, Sequence

_F0 = Fraction(0)


class NotDivisible(ArithmeticError):
    """An exact polynomial division left a remainder."""


class ContextMismatch(ValueError):
    """Operands belong to different algebra contexts."""


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into a Fraction; a zero q is a ValueError."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def grevlex_key(exp: tuple[int, ...]) -> tuple:
    """Sort key for graded reverse-lexicographic order (larger key = larger)."""
    return (sum(exp), tuple(-e for e in reversed(exp)))


def add_term(acc: dict, key, value) -> None:
    """acc[key] += value in a sparse linear combination that stores no zero:
    a sum that cancels deletes the key, so a key that comes back later is
    inserted again at the end of acc."""
    prev = acc.get(key)
    if prev is not None:
        value = prev + value
    if value:
        acc[key] = value
    elif prev is not None:
        del acc[key]


class Memo(dict):
    """A dict that fills a missing key with build(key), stored with
    setdefault: a build that finds its key filled when it returns (a racing
    thread won) yields, so every caller gets one object. Never evicted."""

    __slots__ = ("build",)

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        return self.setdefault(key, self.build(key))


def sub_term(acc: dict, key, value) -> None:
    """acc[key] -= value under add_term's rule, without negating value first
    when acc already holds key."""
    prev = acc.get(key)
    value = -value if prev is None else prev - value
    if value:
        acc[key] = value
    elif prev is not None:
        del acc[key]


def render_terms(terms: Iterable[tuple[str, str]]) -> str:
    """A linear combination as text, from (coefficient, body) pairs in order.

    The body "1" is the unit and shows only its coefficient; a coefficient
    "1" or "-1" in front of another body shows as nothing or a sign.
    """
    text = ""
    for coeff, body in terms:
        if body == "1":
            part = coeff
        elif coeff == "1":
            part = body
        elif coeff == "-1":
            part = "-" + body
        else:
            part = coeff + "*" + body
        if not text:
            text = part
        elif part.startswith("-"):
            text += " - " + part[1:]
        else:
            text += " + " + part
    return text or "0"


class Combination:
    """A sparse linear combination: ``terms`` maps keys to nonzero CoeffPoly
    coefficients, in the order add_term leaves them, over a context that the
    operands of one operation share.

    The module arithmetic of PBWElement, SubElement and XPoly lives here
    once; a bare term map (such as the group-algebra pairings coxeter
    returns) accumulates through add_term alone. A subclass keeps its context in its own slots and
    supplies ``_context()``, the constructor arguments before ``terms`` (so
    ``cls(*context, terms)`` builds an element), ``_unit()``, and its own
    product in ``__mul__``, which hands an operand of any other type to
    ``Combination.__mul__``. An operand of another type gives NotImplemented,
    so a mixed operation raises TypeError; operands from different contexts
    raise ContextMismatch.
    """

    __slots__ = ("terms",)

    def _context(self) -> tuple:
        raise NotImplementedError

    def _unit(self):
        raise NotImplementedError

    @classmethod
    def zero(cls, *context):
        return cls(*context)

    def _new(self, terms: dict):
        """An element of this context with the given terms."""
        return self.__class__(*self._context(), terms)

    def _check(self, other) -> None:
        if self._context() != other._context():
            raise ContextMismatch("operands from different %s contexts" % self.__class__.__name__)

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            add_term(out, key, c)
        return self._new(out)

    def __neg__(self):
        return self._new({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            sub_term(out, key, c)
        return self._new(out)

    def scaled(self, c):
        """c * self for a CoeffPoly or a number; a number enters as an exact
        scalar, so by 1 each coefficient is shared, not copied."""
        if not isinstance(c, CoeffPoly):
            c = _exact_scalar(c)
        if not c:
            return self._new({})
        return self._new({key: v * c for key, v in self.terms.items()})

    def __mul__(self, other):
        """The multiple by a scalar, from either side; a subclass multiplies
        two of its own elements in its __mul__."""
        if not isinstance(other, CoeffPoly):
            try:
                other = _exact_scalar(other)
            except TypeError:
                # not a scalar: another type may multiply in its __rmul__
                return NotImplemented
        return self.scaled(other)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = self._unit()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._context() == other._context() and self.terms == other.terms

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.terms


def render_monomial(exp: Sequence[int], names: Sequence[str]) -> str:
    """The factors names[i]^exp[i] joined by "*"; empty for exponent zero."""
    factors = []
    for name, p in zip(names, exp):
        if p == 1:
            factors.append(name)
        elif p > 1:
            factors.append("%s^%d" % (name, p))
    return "*".join(factors)


def _add_scaled(acc: dict, terms: dict, r) -> None:
    """acc += r * terms on raw coefficient maps; r is an int or a Fraction,
    and 1 or -1 forms no product. Zeros and integral Fractions may remain."""
    get = acc.get
    if r == 1:
        for s, v in terms.items():
            p = get(s)
            acc[s] = v if p is None else p + v
    elif r == -1:
        for s, v in terms.items():
            p = get(s)
            acc[s] = -v if p is None else p - v
    else:
        for s, v in terms.items():
            p = get(s)
            acc[s] = v * r if p is None else p + v * r


def _exact_scalar(v) -> int | Fraction:
    """v as an exact coefficient value: an int when it is integral, else a
    Fraction. Floats are converted exactly, never stored. A string is not a
    scalar and raises TypeError, like any other non-number."""
    if v.__class__ is int:
        return v
    if v.__class__ is not Fraction:
        if isinstance(v, str):
            raise TypeError("not a scalar: %r" % (v,))
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def _div(a, b) -> int | Fraction:
    """a / b for int or Fraction values, through Fraction: never a float."""
    if a.__class__ is int and b.__class__ is int:
        quo, rem = divmod(a, b)
        if not rem:
            return quo
    return _exact_scalar(Fraction(a) / b)


def _exact_terms(terms: dict) -> dict:
    """A raw coefficient map without its zeros, integral Fractions as ints."""
    return {e: v if v.__class__ is int else _exact_scalar(v) for e, v in terms.items() if v}


def _rat_content(coeffs: Iterable[int | Fraction]) -> int | Fraction:
    num = 0
    den = 1
    for c in coeffs:
        num = math.gcd(num, c.numerator)
        den = den * c.denominator // math.gcd(den, c.denominator)
    if num == 0:
        return 1
    return num if den == 1 else Fraction(num, den)


# ---------------------------------------------------------------------------
# CoeffPoly: the scalar ring Q[g1..gk]
# ---------------------------------------------------------------------------

class CoeffPoly:
    """Polynomial in the coupling symbols with rational coefficients.

    ``terms`` maps exponent tuples of length ``nsym`` to nonzero ``int`` or
    ``Fraction`` values, never ``float``, and an integral value is always an
    ``int``; division goes through ``Fraction``. The zero polynomial has an
    empty term map.

    Values are interned: ``CoeffPoly(nsym, terms)`` returns the one object
    with that value, held in a table keyed by (nsym, frozenset of the terms)
    and never evicted. The key is looked up first; only on a miss are the
    terms canonicalised (zeros dropped, integral Fractions made ints) and the
    new object stored with setdefault, so two threads that build one value
    get one object. Equality of two CoeffPolys is therefore identity, and the
    hash is the identity hash. A product, sum or difference with a CoeffPoly,
    int or Fraction is read from a Memo keyed by the operand pair, so each is
    computed once per process; ``render`` and ``render_atom`` read Memos
    keyed by (value, symbol names). Values are shared, so nothing may write
    into a CoeffPoly's ``terms``.
    """

    __slots__ = ("nsym", "terms")

    def __new__(cls, nsym: int, terms: dict[tuple[int, ...], int | Fraction] | None = None):
        value = _VALUES.get((nsym, frozenset(terms.items() if terms else ())))
        if value is None:
            value = object.__new__(cls)
            value.nsym = nsym
            value.terms = _exact_terms(terms) if terms else {}
            value = _VALUES.setdefault((nsym, frozenset(value.terms.items())), value)
        return value

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(nsym: int) -> CoeffPoly:
        return CoeffPoly(nsym)

    @staticmethod
    def const(value, nsym: int) -> CoeffPoly:
        v = _exact_scalar(value)
        return CoeffPoly(nsym, {(0,) * nsym: v} if v else None)

    @staticmethod
    def one(nsym: int) -> CoeffPoly:
        return CoeffPoly.const(1, nsym)

    @staticmethod
    def symbol(index: int, nsym: int) -> CoeffPoly:
        exp = tuple(1 if i == index else 0 for i in range(nsym))
        return CoeffPoly(nsym, {exp: 1})

    def _coerce(self, other) -> CoeffPoly | None:
        """other as a polynomial of this ring, or None when it is not a scalar."""
        if isinstance(other, CoeffPoly):
            if other.nsym != self.nsym:
                raise ContextMismatch("mixed coupling contexts: %d vs %d symbols"
                                      % (self.nsym, other.nsym))
            return other
        try:
            return CoeffPoly.const(other, self.nsym)
        except TypeError:
            return None

    # -- ring operations ----------------------------------------------------
    #
    # The memos _SUMS, _DIFFERENCES and _PRODUCTS take operand pairs whose
    # second entry is a CoeffPoly, an int or a Fraction; another number is
    # made exact first, and anything else is not a scalar (NotImplemented).

    def __add__(self, other) -> CoeffPoly:
        if other.__class__ not in _OPERANDS:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _SUMS[self, other]

    __radd__ = __add__

    def __neg__(self) -> CoeffPoly:
        return _PRODUCTS[self, -1]

    def __sub__(self, other) -> CoeffPoly:
        if other.__class__ not in _OPERANDS:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _DIFFERENCES[self, other]

    def __rsub__(self, other) -> CoeffPoly:
        other = self._coerce(other)
        return NotImplemented if other is None else other - self

    def __mul__(self, other) -> CoeffPoly:
        if other.__class__ not in _OPERANDS:
            try:
                other = _exact_scalar(other)
            except TypeError:
                # not a scalar: an algebra element scales itself in __rmul__
                return NotImplemented
        return _PRODUCTS[self, other]

    __rmul__ = __mul__

    def _scaled(self, v: int | Fraction) -> CoeffPoly:
        """self * v for an exact scalar v; by 1 that is self itself."""
        if v == 1:
            return self
        return CoeffPoly(self.nsym, {e: c * v for e, c in self.terms.items()} if v else None)

    def __pow__(self, n: int) -> CoeffPoly:
        if n < 0:
            raise ValueError("negative power")
        out = CoeffPoly.one(self.nsym)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if other.__class__ is not CoeffPoly:
            try:
                other = CoeffPoly.const(other, self.nsym)
            except (TypeError, ValueError, OverflowError):
                # not a scalar, or a float nan or infinity: never equal
                return NotImplemented
        return self is other

    __hash__ = object.__hash__

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading(self) -> tuple[tuple[int, ...], int | Fraction]:
        e = max(self.terms, key=grevlex_key)
        return e, self.terms[e]

    # -- exact division and gcd --------------------------------------------

    def divexact(self, q: CoeffPoly) -> CoeffPoly:
        """Divide by q, raising NotDivisible unless the division is exact."""
        q = self._coerce(q)
        if q.is_zero():
            raise ZeroDivisionError("division by zero CoeffPoly")
        if self.is_zero():
            return CoeffPoly(self.nsym)
        qe, qc = q.leading()
        rem = dict(self.terms)
        out: dict[tuple[int, ...], int | Fraction] = {}
        while rem:
            re = max(rem, key=grevlex_key)
            m = tuple(a - b for a, b in zip(re, qe))
            if any(e < 0 for e in m):
                raise NotDivisible("coupling polynomial division is not exact")
            c = _div(rem[re], qc)
            add_term(out, m, c)
            for e2, c2 in q.terms.items():
                add_term(rem, tuple(a + b for a, b in zip(m, e2)), -c * c2)
        return CoeffPoly(self.nsym, out)

    def content(self) -> int | Fraction:
        """Positive rational content (gcd of the coefficients)."""
        return _rat_content(self.terms.values())

    def monomial_content(self) -> tuple[int, ...]:
        if not self.terms:
            return (0,) * self.nsym
        mins = [min(e[i] for e in self.terms) for i in range(self.nsym)]
        return tuple(mins)

    def primitive(self) -> CoeffPoly:
        """Divide out the rational content; leading coefficient > 0."""
        if self.is_zero():
            return self
        c = self.content()
        _, lc = self.leading()
        if lc < 0:
            c = -c
        return CoeffPoly(self.nsym, {e: _div(v, c) for e, v in self.terms.items()})

    def substitute(self, values: Sequence[Fraction]) -> Fraction:
        """Evaluate at rational values of the coupling symbols."""
        total = _F0
        for e, c in self.terms.items():
            v = c
            for i, p in enumerate(e):
                if p:
                    v *= values[i] ** p
            total += v
        return total

    # -- rendering ----------------------------------------------------------

    def render(self, names: Sequence[str]) -> str:
        return _RENDERED[self, tuple(names)]

    def render_atom(self, names: Sequence[str]) -> str:
        """Render for use as a multiplicative prefix (parenthesized if a sum)."""
        return _ATOMS[self, tuple(names)]

    def __repr__(self) -> str:
        return "CoeffPoly(%s)" % self.render(tuple("g%d" % (i + 1) for i in range(self.nsym)))


def _combine(step, pair: tuple[CoeffPoly, CoeffPoly | int | Fraction]) -> CoeffPoly:
    """a + b with step add_term, a - b with step sub_term."""
    a, b = pair
    out = dict(a.terms)
    for e, c in a._coerce(b).terms.items():
        step(out, e, c)
    return CoeffPoly(a.nsym, out)


def _product(pair: tuple[CoeffPoly, CoeffPoly | int | Fraction]) -> CoeffPoly:
    a, b = pair
    if b.__class__ is not CoeffPoly:
        return a._scaled(b)
    b = a._coerce(b)
    if len(a.terms) > len(b.terms):
        a, b = b, a
    if len(a.terms) == 1:
        (e, v), = a.terms.items()
        if not any(e):
            return b._scaled(v)
    out: dict[tuple[int, ...], int | Fraction] = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            add_term(out, tuple(map(add, e1, e2)), c1 * c2)
    return CoeffPoly(a.nsym, out)


def _render(key: tuple[CoeffPoly, tuple[str, ...]]) -> str:
    p, names = key
    return render_terms((format_rational(p.terms[e]), render_monomial(e, names) or "1")
                        for e in sorted(p.terms, key=grevlex_key, reverse=True))


def _render_atom(key: tuple[CoeffPoly, tuple[str, ...]]) -> str:
    s = _RENDERED[key]
    return "(" + s + ")" if len(key[0].terms) > 1 else s


_VALUES: dict[tuple[int, frozenset], CoeffPoly] = {}
_OPERANDS = (CoeffPoly, int, Fraction)
_SUMS = Memo(partial(_combine, add_term))
_DIFFERENCES = Memo(partial(_combine, sub_term))
_PRODUCTS = Memo(_product)
# text per (value, symbol names), one entry per value rendered
_RENDERED = Memo(_render)
_ATOMS = Memo(_render_atom)


def coeff_gcd(a: CoeffPoly, b: CoeffPoly) -> CoeffPoly:
    """A useful common divisor of a and b.

    For a univariate coupling ring this is the true polynomial gcd; with
    several symbols it falls back to the rational/monomial content, which is
    all the solver needs for normalization.
    """
    if a.is_zero():
        return b.primitive()
    if b.is_zero():
        return a.primitive()
    if a.nsym <= 1:
        return _gcd_univariate(a, b)
    m = tuple(min(x, y) for x, y in zip(a.monomial_content(), b.monomial_content()))
    c = math.gcd(a.content().numerator, b.content().numerator)
    return CoeffPoly(a.nsym, {m: max(c, 1)})


def _dense(p: CoeffPoly) -> list[int | Fraction]:
    d = p.degree()
    out = [0] * (d + 1)
    for e, c in p.terms.items():
        out[e[0] if e else 0] = c
    return out


def _gcd_univariate(a: CoeffPoly, b: CoeffPoly) -> CoeffPoly:
    fa, fb = _dense(a), _dense(b)
    while fb and any(fb):
        while fa and fa[-1] == 0:
            fa.pop()
        while fb and fb[-1] == 0:
            fb.pop()
        if len(fa) < len(fb):
            fa, fb = fb, fa
            continue
        lead = fb[-1]
        shift = len(fa) - len(fb)
        factor = _div(fa[-1], lead)
        for i, c in enumerate(fb):
            fa[i + shift] -= factor * c
        fa.pop()
    nsym = a.nsym
    poly = CoeffPoly(nsym, {(i,) * nsym if nsym else (): c for i, c in enumerate(fa) if c})
    if poly.is_zero():
        return CoeffPoly.one(nsym)
    return poly.primitive()


# ---------------------------------------------------------------------------
# XPoly: polynomials in the coordinates
# ---------------------------------------------------------------------------

class XPoly(Combination):
    """Polynomial in x1..xN with CoeffPoly coefficients.

    ``terms`` maps exponent tuples of length ``nvars`` to nonzero CoeffPoly.
    """

    __slots__ = ("nvars", "nsym")

    def __init__(self, nvars: int, nsym: int, terms: dict[tuple[int, ...], CoeffPoly] | None = None):
        self.nvars = nvars
        self.nsym = nsym
        self.terms = terms if terms is not None else {}

    def _context(self) -> tuple:
        return self.nvars, self.nsym

    def _unit(self) -> XPoly:
        return XPoly.one(self.nvars, self.nsym)

    @staticmethod
    def const(value, nvars: int, nsym: int) -> XPoly:
        return XPoly.monomial((0,) * nvars, nvars, nsym, value)

    @staticmethod
    def one(nvars: int, nsym: int) -> XPoly:
        return XPoly.const(1, nvars, nsym)

    @staticmethod
    def monomial(exp: Sequence[int], nvars: int, nsym: int, coeff=1) -> XPoly:
        c = coeff if isinstance(coeff, CoeffPoly) else CoeffPoly.const(coeff, nsym)
        if c.is_zero():
            return XPoly(nvars, nsym)
        return XPoly(nvars, nsym, {tuple(exp): c})

    @staticmethod
    def variable(i: int, nvars: int, nsym: int) -> XPoly:
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return XPoly.monomial(exp, nvars, nsym)

    @staticmethod
    def linear_form(vec: Sequence[Fraction], nsym: int) -> XPoly:
        n = len(vec)
        terms = {}
        for i, v in enumerate(vec):
            if v:
                exp = tuple(1 if j == i else 0 for j in range(n))
                terms[exp] = CoeffPoly.const(v, nsym)
        return XPoly(n, nsym, terms)

    def __mul__(self, other) -> XPoly:
        if other.__class__ is not XPoly:
            # a scalar; a localized or algebra element multiplies in __rmul__
            return super().__mul__(other)
        self._check(other)
        out: dict[tuple[int, ...], CoeffPoly] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                add_term(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return XPoly(self.nvars, self.nsym, out)

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def derivative(self, i: int) -> XPoly:
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                add_term(out, tuple(p - 1 if j == i else p for j, p in enumerate(e)), c * e[i])
        return XPoly(self.nvars, self.nsym, out)

    def derivative_dir(self, vec: Sequence[Fraction]) -> XPoly:
        out = XPoly.zero(self.nvars, self.nsym)
        for i, v in enumerate(vec):
            if v:
                out = out + self.derivative(i).scaled(v)
        return out

    def map_monomials(self, image) -> XPoly:
        """The image under a map given on monomials: image(e) lists the
        image of x^e as ((rational, exponent), ...)."""
        out: dict[tuple[int, ...], CoeffPoly] = {}
        for e, c in self.terms.items():
            for r, e2 in image(e):
                add_term(out, e2, c if r == 1 else c * r)
        return XPoly(self.nvars, self.nsym, out)

    def try_divide(self, q: XPoly) -> XPoly | None:
        """Exact quotient self/q, or None when q does not divide exactly."""
        self._check(q)
        if q.is_zero():
            raise ZeroDivisionError("division by zero XPoly")
        if self.is_zero():
            return XPoly.zero(self.nvars, self.nsym)
        qe = max(q.terms, key=grevlex_key)
        qc = q.terms[qe]
        rem = dict(self.terms)
        out: dict[tuple[int, ...], CoeffPoly] = {}
        while rem:
            re = max(rem, key=grevlex_key)
            m = tuple(a - b for a, b in zip(re, qe))
            if any(p < 0 for p in m):
                return None
            try:
                c = rem[re].divexact(qc)
            except NotDivisible:
                return None
            add_term(out, m, c)
            for e2, c2 in q.terms.items():
                add_term(rem, tuple(a + b for a, b in zip(m, e2)), -c * c2)
        return XPoly(self.nvars, self.nsym, out)

    def mul_linear(self, *vecs: Sequence[Fraction]) -> XPoly:
        """Product with the linear forms (vec, x), one per vec: one exponent
        shift per nonzero entry of each. The chain runs on raw coefficient
        maps and builds the CoeffPolys once, at the end; an empty chain
        returns self."""
        if any(len(vec) != self.nvars for vec in vecs):
            raise ContextMismatch("mixed polynomial contexts")
        if not vecs:
            return self
        acc = {e: c.terms for e, c in self.terms.items()}  # read, never written
        for vec in vecs:
            parts = [(k, _exact_scalar(v)) for k, v in enumerate(vec) if v]
            src, acc = acc, {}
            for e, c in src.items():
                for k, r in parts:
                    key = e[:k] + (e[k] + 1,) + e[k + 1:]
                    tgt = acc.get(key)
                    if tgt is None:
                        # a new map: c may be a live CoeffPoly's own terms
                        acc[key] = dict(c) if r == 1 else {s: v * r for s, v in c.items()}
                    else:
                        _add_scaled(tgt, c, r)
        return XPoly(self.nvars, self.nsym, _coeff_polys(acc, self.nsym))

    def div_linear(self, vec: Sequence[Fraction]) -> XPoly | None:
        """Exact quotient by the linear form (vec, x), or None on a remainder.

        Synthetic division in x_j, the first coordinate with vec[j] != 0.
        Terms are taken in falling x_j-degree buckets: each one gives the
        quotient term t = term / (vec[j] x_j), and t times the rest of the form
        is subtracted from the bucket one degree lower. What is left in the
        x_j-free bucket is the remainder. Exact over Q[g] since vec[j] is a
        nonzero rational.
        """
        if len(vec) != self.nvars:
            raise ContextMismatch("mixed polynomial contexts")
        j = next((k for k, v in enumerate(vec) if v), None)
        if j is None:
            raise ZeroDivisionError("division by the zero linear form")
        inv = _div(1, vec[j])
        rest = [(k, _exact_scalar(-v * inv)) for k, v in enumerate(vec) if v and k != j]
        rem = {e: dict(c.terms) for e, c in self.terms.items()}
        buckets: dict[int, list[tuple[int, ...]]] = {}
        for e in rem:
            buckets.setdefault(e[j], []).append(e)
        out: dict[tuple[int, ...], dict] = {}
        for d in range(max(buckets, default=0), 0, -1):
            lower = buckets.setdefault(d - 1, [])
            for e in buckets.pop(d, ()):
                c = {s: v for s, v in rem.pop(e).items() if v}
                if not c:
                    continue
                # e leaves rem here, and m differs from e only in x_j, so
                # each quotient exponent is written once; c is a new map
                m = e[:j] + (d - 1,) + e[j + 1:]
                out[m] = c if inv == 1 else {s: v * inv for s, v in c.items()}
                for k, r in rest:
                    key = m[:k] + (m[k] + 1,) + m[k + 1:]
                    tgt = rem.get(key)
                    if tgt is None:
                        rem[key] = dict(c) if r == 1 else {s: v * r for s, v in c.items()}
                        lower.append(key)
                    else:
                        _add_scaled(tgt, c, r)
        if any(v for c in rem.values() for v in c.values()):
            return None
        return XPoly(self.nvars, self.nsym, _coeff_polys(out, self.nsym))

    def render(self, symbol_names: Sequence[str], var: str = "x") -> str:
        names = ["%s%d" % (var, i + 1) for i in range(self.nvars)]
        return render_terms((self.terms[e].render_atom(symbol_names),
                             render_monomial(e, names) or "1")
                            for e in sorted(self.terms, key=grevlex_key, reverse=True))

    def __repr__(self) -> str:
        return "XPoly(%s)" % self.render(tuple("g%d" % (i + 1) for i in range(self.nsym)))


def _coeff_polys(acc: dict[tuple[int, ...], dict], nsym: int) -> dict[tuple[int, ...], CoeffPoly]:
    """Raw coefficient maps to nonzero CoeffPoly terms, dropping zeros."""
    out = {}
    for e, t in acc.items():
        c = CoeffPoly(nsym, t)
        if c:
            out[e] = c
    return out


def poly_divide_exact(p: XPoly, q: XPoly) -> XPoly:
    """Exact division in the polynomial ring; NotDivisible on any remainder."""
    r = p.try_divide(q)
    if r is None:
        raise NotDivisible("polynomial division is not exact")
    return r


# ---------------------------------------------------------------------------
# LocPoly: polynomials divided by products of root linear forms
# ---------------------------------------------------------------------------

class LocPoly:
    """XPoly divided by a product of powers of the root linear forms (alpha, x).

    ``den`` maps a positive-root index to the power of (alpha, x) in the
    denominator. The stored form is canonical: the numerator is not divisible
    by any root form appearing in the denominator.

    The roots must be pairwise non-proportional, as ``RootSystem`` checks.
    Then distinct root forms are non-associate primes of Q[g][x], so a form
    divides a product only if it divides a factor. With canonical operands,
    each operation knows which forms can divide its new numerator and tries
    synthetic division by those alone; the constructor tries every form.

    - Sum: only forms with the same power in both summands. If F has powers
      p < q, the lifted numerator of the p summand carries F^(q-p), so mod F
      the sum's numerator is the q summand's numerator times forms prime to
      F, which is nonzero.
    - Derivative in x_i: a form F with F_i != 0 is folded in at power m + 1,
      and mod F the new numerator is -m F_i num times the other folded forms,
      which is nonzero. A form with F_i = 0 is free of x_i, keeps power m and
      is not multiplied in; only these forms are tried.
    - ``over_form(idx)``: only idx, and only when it was not in the
      denominator already.
    - Product: forms in both denominators divide neither numerator, so only
      the forms in exactly one are tried. A product with an XPoly tries every
      form of the denominator, and a scalar none, since a nonzero element of
      Q[g] is prime to every form.
    """

    __slots__ = ("roots", "num", "den")

    def __init__(self, roots: tuple[tuple[Fraction, ...], ...], num: XPoly,
                 den: dict[int, int] | None = None, reduce: bool = True):
        self.roots = roots
        self.num = num
        # zero has the empty denominator, also when the caller skips reduction
        self.den = dict(den) if den and not num.is_zero() else {}
        if reduce:
            self._reduce(list(self.den))

    def _reduce(self, forms: Iterable[int]) -> LocPoly:
        """Divide out each given form as often as it goes. Called only on a
        value under construction, which it returns."""
        den = self.den
        for idx in forms:
            m = den.get(idx, 0)
            while m:
                q = self.num.div_linear(self.roots[idx])
                if q is None:
                    break
                self.num = q
                m -= 1
            if m:
                den[idx] = m
            else:
                den.pop(idx, None)
        return self

    @staticmethod
    def from_poly(p: XPoly, roots) -> LocPoly:
        return LocPoly(tuple(roots), p, None, reduce=False)

    def _check(self, other: LocPoly) -> None:
        if self.roots != other.roots:
            raise ContextMismatch("mixed localization contexts")

    def _lifted(self, den: dict[int, int]) -> XPoly:
        """The numerator over den, a multiple of this denominator: one
        mul_linear call for the whole product of missing forms."""
        own = self.den
        forms = [self.roots[idx] for idx, m in den.items() for _ in range(m - own.get(idx, 0))]
        return self.num.mul_linear(*forms) if forms else self.num

    def __add__(self, other: LocPoly | XPoly) -> LocPoly:
        if not isinstance(other, LocPoly):
            if not isinstance(other, XPoly):
                return NotImplemented
            other = LocPoly.from_poly(other, self.roots)
        self._check(other)
        den = dict(self.den)
        for idx, m in other.den.items():
            den[idx] = max(den.get(idx, 0), m)
        num = self._lifted(den) + other._lifted(den)
        return LocPoly(self.roots, num, den, reduce=False)._reduce(
            [idx for idx, m in self.den.items() if other.den.get(idx) == m])

    def __radd__(self, other: XPoly) -> LocPoly:
        if isinstance(other, XPoly):
            return LocPoly.from_poly(other, self.roots) + self
        return NotImplemented

    def __neg__(self) -> LocPoly:
        return LocPoly(self.roots, -self.num, self.den, reduce=False)

    def __sub__(self, other: LocPoly | XPoly) -> LocPoly:
        if not isinstance(other, (LocPoly, XPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: XPoly) -> LocPoly:
        if isinstance(other, XPoly):
            return LocPoly.from_poly(other, self.roots) - self
        return NotImplemented

    def __mul__(self, other) -> LocPoly:
        if isinstance(other, LocPoly):
            self._check(other)
            den = dict(self.den)
            for idx, m in other.den.items():
                den[idx] = den.get(idx, 0) + m
            return LocPoly(self.roots, self.num * other.num, den, reduce=False)._reduce(
                [idx for idx in den if (idx in self.den) != (idx in other.den)])
        if isinstance(other, XPoly):
            return LocPoly(self.roots, self.num * other, self.den)
        return self.scaled(other)

    __rmul__ = __mul__

    def scaled(self, c) -> LocPoly:
        return LocPoly(self.roots, self.num.scaled(c), self.den, reduce=False)

    def over_form(self, idx: int, power: int = 1) -> LocPoly:
        """Divide by (alpha_idx, x)^power."""
        den = dict(self.den)
        had = den.get(idx, 0)
        den[idx] = had + power
        out = LocPoly(self.roots, self.num, den, reduce=False)
        return out if had else out._reduce((idx,))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, LocPoly):
            return NotImplemented
        return self.roots == other.roots and self.num == other.num and self.den == other.den

    __hash__ = None

    def derivative(self, i: int) -> LocPoly:
        """Quotient rule over the denominator forms F^m that involve x_i.

        Folding in one such form at a time, the numerator becomes
        num * F - m F_i * lifted, where lifted is the original numerator
        times the forms folded in so far. Forms free of x_i are constants
        for d/dx_i: they keep their power and are the only ones reduced."""
        num = self.num.derivative(i)
        roots = self.roots
        folded = [(idx, m) for idx, m in self.den.items() if roots[idx][i]]
        lifted = self.num
        for n, (idx, m) in enumerate(folded, 1):
            form = roots[idx]
            num = num.mul_linear(form) + lifted.scaled(-m * form[i])
            if n < len(folded):
                lifted = lifted.mul_linear(form)
        den = {idx: m + 1 if roots[idx][i] else m for idx, m in self.den.items()}
        return LocPoly(roots, num, den, reduce=False)._reduce(
            [idx for idx in den if not roots[idx][i]])

    def act(self, image, root_images: Sequence[int]) -> LocPoly:
        """Apply a group element w (f -> f o w^{-1}): image(e) expands w x^e
        as in XPoly.map_monomials, and root_images[k] is the index of w(root
        k) in the list of the roots followed by their negatives."""
        num = self.num.map_monomials(image)
        m = len(self.roots)
        den: dict[int, int] = {}
        for idx, power in self.den.items():
            jdx = root_images[idx]
            if jdx >= m:
                jdx -= m
                if power % 2:
                    num = -num
            den[jdx] = den.get(jdx, 0) + power
        return LocPoly(self.roots, num, den, reduce=False)

    def render(self, symbol_names: Sequence[str]) -> str:
        num = self.num.render(symbol_names)
        if not self.den:
            return num
        parts = []
        for idx in sorted(self.den):
            form = XPoly.linear_form(self.roots[idx], self.num.nsym).render(symbol_names)
            m = self.den[idx]
            parts.append("(%s)" % form if m == 1 else "(%s)^%d" % (form, m))
        return "(%s) / %s" % (num, "*".join(parts))

    def __repr__(self) -> str:
        return "LocPoly(%s)" % self.render(tuple("g%d" % (i + 1) for i in range(self.num.nsym)))


# ---------------------------------------------------------------------------
# Linear algebra over Q(g1..gk): a modular certificate and an exact echelon
# ---------------------------------------------------------------------------
#
# Specialising the couplings, or reducing mod a prime, can only lower a rank
# (Schwartz 1980; Zippel 1979). So a full row rank mod _P at one point proves
# full row rank over Q(g); the exact echelon runs only when that falls short.
# Every exact row, in the echelon or in a nullspace basis, is a vector of
# CoeffPolys in one normal form (_normalize_row). Duplicate rows are not
# searched for: a second copy of a row is never a modular pivot row, and the
# exact echelon reduces it to zero.

_P = (1 << 61) - 1


def _generic_point(nsym: int) -> tuple[int, ...]:
    """The fixed point mod _P at which the certificate evaluates the couplings;
    large residues, not the small rationals (such as g = -1/2) where ranks drop."""
    return tuple(0x9E3779B97F4A7C15 * (k + 1) % _P for k in range(nsym))


def _mod_pivot_rows(rows: Sequence[dict[int, CoeffPoly]], point: Sequence[Fraction | int]
                    ) -> list[int] | None:
    """Indices of the pivot rows of a sparse echelon of rows at point, mod _P.

    The rows they index are independent over Q(g), so their number is a
    lower bound on the rank over Q(g) and on the rank at point. None (no
    certificate) when a denominator of the point or of a coefficient
    vanishes mod _P.
    """
    inverses: dict[int, int | None] = {}

    def residue(x) -> int | None:
        d = x.denominator
        if d not in inverses:
            inverses[d] = pow(d, -1, _P) if d % _P else None
        inv = inverses[d]
        return None if inv is None else x.numerator * inv % _P

    pt = [residue(v) for v in point]
    if None in pt:
        return None
    monomials: dict[tuple[int, ...], int] = {}
    pivots: dict[int, dict[int, int]] = {}
    chosen = []
    for idx, row in enumerate(rows):
        r = {}
        for col, p in row.items():
            total = 0
            for e, c in p.terms.items():
                m = monomials.get(e)
                if m is None:
                    m = monomials[e] = math.prod(pow(x, k, _P) for x, k in zip(pt, e)) % _P
                v = residue(c)
                if v is None:
                    return None
                total += v * m
            total %= _P
            if total:
                r[col] = total
        while r:
            col = min(r)
            pr = pivots.get(col)
            if pr is None:
                inv = pow(r[col], -1, _P)
                pivots[col] = {k: v * inv % _P for k, v in r.items()}
                chosen.append(idx)
                break
            f = r[col]
            for k, v in pr.items():
                t = (r.get(k, 0) - f * v) % _P
                if t:
                    r[k] = t
                else:
                    r.pop(k, None)
    return chosen


def _normalize_row(row: dict[int, CoeffPoly]) -> dict[int, CoeffPoly]:
    """A sparse row without zeros over a common divisor of its entries (the
    true gcd with one coupling symbol; the monomial and integer content with
    several), scaled to rational content 1 with its lowest column's leading
    coefficient > 0; an empty row stays empty. Echelon rows and nullspace
    vectors share this form."""
    if not row:
        return row
    g: CoeffPoly | None = None
    for p in row.values():
        g = p if g is None else coeff_gcd(g, p)
        if g.degree() <= 0:
            break
    if g.degree() > 0:
        row = {k: p.divexact(g) for k, p in row.items()}
    r = _rat_content(v for p in row.values() for v in p.terms.values())
    if row[min(row)].leading()[1] < 0:
        r = -r
    if r != 1:
        inv = _div(1, r)
        row = {k: p * inv for k, p in row.items()}
    return row


def _eliminate(row: dict[int, CoeffPoly], pr: dict[int, CoeffPoly], c: int
               ) -> dict[int, CoeffPoly]:
    """pr[c] * row - row[c] * pr, which is 0 at column c, normalized (or {})."""
    f1, f2 = pr[c], -row[c]
    new = {k: f1 * v for k, v in row.items()}
    for k, v in pr.items():
        add_term(new, k, f2 * v)
    return _normalize_row(new)


def _sparse_echelon(rows: Iterable[dict[int, CoeffPoly]]) -> dict[int, dict[int, CoeffPoly]]:
    """Fraction-free sparse elimination; returns pivot_column -> pivot row,
    whose lowest column is the pivot column."""
    pivots: dict[int, dict[int, CoeffPoly]] = {}
    for row in rows:
        row = _normalize_row({c: p for c, p in row.items() if p})
        while row:
            c = min(row)
            pr = pivots.get(c)
            if pr is None:
                pivots[c] = row
                break
            row = _eliminate(row, pr, c)
    return pivots


def _echelon_nullspace(rows: Iterable[dict[int, CoeffPoly]], cols: Iterable[int], nsym: int
                       ) -> list[dict[int, CoeffPoly]]:
    """Nullspace basis over Q(g) of rows supported on cols (ascending): for
    each non-pivot column f of the exact echelon, the vector with 1 at f and 0
    at the other non-pivot columns, normalized.

    The pivot rows are reduced fraction-free, highest pivot first, until each
    keeps only its pivot and non-pivot columns; a pivot row c then reads
    x_c = -row[f] / row[c] at f, and the vector is taken over a common
    multiple of those pivots.
    """
    pivots = _sparse_echelon(rows)
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for k in [k for k in row if k != c and k in pivots]:
            row = _eliminate(row, pivots[k], k)
        pivots[c] = row
    hits: dict[int, list[int]] = {}
    for c, row in pivots.items():
        for k in row:
            if k != c:
                hits.setdefault(k, []).append(c)
    basis = []
    for f in cols:
        if f in pivots:
            continue
        common = CoeffPoly.one(nsym)
        for c in hits.get(f, ()):
            den = pivots[c][c]
            common = common * den.divexact(coeff_gcd(common, den))
        vec = {f: common}
        for c in hits.get(f, ()):
            row = pivots[c]
            vec[c] = -(row[f] * common.divexact(row[c]))
        basis.append(_normalize_row(vec))
    return basis


def sparse_nullspace(rows: list[dict[int, CoeffPoly]], ncols: int, nsym: int
                     ) -> list[dict[int, CoeffPoly]]:
    """Nullspace basis over Q(g) of sparse rows on columns 0..ncols-1, as
    sparse vectors (column -> nonzero CoeffPoly).

    Rows are term maps without zeros, and are never written: a row that
    loses a forced column is copied. Rows whose support shrinks to a single
    column force that variable to zero; this pruning loop usually collapses
    most of the matrix. The exact echelon then runs on the rows that the
    modular certificate finds independent, and the basis is verified exactly
    against every other row; for each basis vector some row violates, the
    first such row joins the solved rows and the solve repeats. The solved
    vectors come by free column, then the unit vector of each column no row
    touches.
    """
    work = rows
    forced: set[int] = set()
    changed = True
    while changed:
        changed = False
        remaining = []
        for row in work:
            if not forced.isdisjoint(row):
                row = {c: p for c, p in row.items() if c not in forced}
            if len(row) == 1:
                forced.add(next(iter(row)))
                changed = True
            elif row:
                remaining.append(row)
        work = remaining
    live = sorted({c for row in work for c in row})

    # simple rows first keep the pivot rows, and so the exact elimination, low-degree
    work.sort(key=lambda row: (max(p.degree() for p in row.values()),
                               len(row),
                               sum(len(p.terms) for p in row.values())))
    chosen = _mod_pivot_rows(work, _generic_point(nsym))
    picked = set(range(len(work)) if chosen is None else chosen)
    zero = CoeffPoly.zero(nsym)

    def annihilates(row: dict[int, CoeffPoly], vec: dict[int, CoeffPoly]) -> bool:
        acc = zero
        for c, p in row.items():
            v = vec.get(c)
            if v is not None:
                acc = acc + p * v
        return acc.is_zero()

    # a row that violates a basis vector lies outside the span of the picked
    # rows, so each round raises their rank: at most len(live) rounds
    while True:
        core = _echelon_nullspace((work[i] for i in sorted(picked)), live, nsym)
        violated = {next((i for i, row in enumerate(work)
                          if i not in picked and not annihilates(row, vec)), None)
                    for vec in core}
        violated.discard(None)
        if not violated:
            break
        picked |= violated

    constrained = forced.union(live)
    one = CoeffPoly.one(nsym)
    return core + [{c: one} for c in range(ncols) if c not in constrained]


def sparse_rank_symbolic(rows: Iterable[dict[int, CoeffPoly]]) -> int:
    """Rank over Q(g1..gk): the row count when the modular certificate
    reaches it, and otherwise the rank of the exact echelon."""
    rows = list(rows)
    nsym = next((p.nsym for row in rows for p in row.values()), 0)
    chosen = _mod_pivot_rows(rows, _generic_point(nsym))
    if chosen is not None and len(chosen) == len(rows):
        return len(rows)
    return len(_sparse_echelon(rows))


def numbered_rows(maps: Iterable[dict]) -> list[dict[int, CoeffPoly]]:
    """Term maps with any hashable keys as sparse rows: each key becomes a
    column, numbered in first-seen order."""
    col: dict = {}
    return [{col.setdefault(k, len(col)): v for k, v in m.items()} for m in maps]


def in_span(vectors: Iterable[dict], candidate: dict) -> bool:
    """Whether the term map candidate lies in the Q(g)-span of the term maps
    vectors; a key no vector holds counts as a column of its own."""
    rows = numbered_rows([*vectors, candidate])
    return sparse_rank_symbolic(rows[:-1]) == sparse_rank_symbolic(rows)


def sparse_rank_numeric(rows: Iterable[dict[int, CoeffPoly]], values: Sequence[Fraction]) -> int:
    """Rank mod _P at the rational point values, a lower bound on the rank at
    that point; where the point has no residue mod _P, the exact rank there.
    The point gives one value per coupling symbol of the rows."""
    rows = list(rows)
    nsym = next((p.nsym for row in rows for p in row.values()), len(values))
    if len(values) != nsym:
        raise ValueError("expected %d coupling values, got %d" % (nsym, len(values)))
    chosen = _mod_pivot_rows(rows, values)
    if chosen is not None:
        return len(chosen)
    return len(_sparse_echelon({c: CoeffPoly.const(p.substitute(values), 0) for c, p in row.items()}
                               for row in rows))
