"""Root systems, reflection-group elements, and group-algebra pairings.

A RootSystem fixes a rational realization of the positive roots together
with the orbit structure that labels the coupling symbols.

Each group element is created once per root system and never changes. An
element of W is determined by how it permutes the +-roots, because W fixes the
orthogonal complement of the root span pointwise (the representation CHEVIE
uses). Every element carries that permutation from its creation on.
``RootSystem.group()`` enumerates W on those permutations alone: each step
composes two tuples and looks the result up, and an element it creates
keeps its BFS parent, from which its matrix columns ``cols`` and, for
signed permutations, ``perm``/``signs`` are filled once, on first use. An
element made any other way gets them at creation. Equality is identity, so
an element hashes by its address, natively, as an interned coefficient
does; no order that reaches the output is read from those hashes. A product
is read from the left factor's product Memo (at most |W| entries per
element of W); its first build is, for two elements of W, a tuple
composition and one dict lookup. Root-system automorphisms that move the
complement, such as -1 in type A, lie outside W; they are interned by their
columns and multiplied as matrices. Interning and the product Memos go
through ``dict.setdefault``, and the matrix, inverse and key slots are
filled lazily with values that a racing thread computes equal (the same
interned element, equal tuples and strings), so sharing elements across
threads is safe.

``RootSystem.act_exp`` is the one action of W on monomials; cherednik,
polyrep and exactmath's ``XPoly.map_monomials`` and ``LocPoly.act`` all go
through it. Its memo is an exactmath.Memo, filled once with setdefault and
never evicted.

The module also builds the group-algebra pairing S_{xi,eta} and the
invariant sum S, which drive every deformed commutation relation upstream.
Both are term maps {group element: CoeffPoly} with no zero coefficient; the
algebras hold them as elements (cherednik's ``s_elem`` and ``s_sum``,
tail-only subalgebra words) and multiply them there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exactmath import (CoeffPoly, Memo, add_term, format_rational, parse_rational,
                        sparse_nullspace)

Vector = tuple[Fraction, ...]


class UnsupportedRank(ValueError):
    """Requested family/rank combination has no standard realization."""


class InvalidRootSystem(ValueError):
    """A user-supplied root configuration violates a root-system axiom."""


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _as_vector(v: Iterable) -> Vector:
    return tuple(Fraction(x) for x in v)


def _apply_cols(cols: Sequence[Vector], vec: Sequence[Fraction]) -> Vector:
    """sum_j vec_j cols[j], skipping zero entries of vec."""
    out = [Fraction(0)] * len(cols)
    for j, v in enumerate(vec):
        if v:
            for k, c in enumerate(cols[j]):
                if c:
                    out[k] += c * v
    return tuple(out)


def _transpose(cols: Sequence[Vector]) -> tuple[Vector, ...]:
    """The inverse of an orthogonal matrix."""
    return tuple(zip(*cols))


def _matrix(cols: tuple[Vector, ...]) -> tuple[tuple[Vector, ...], tuple | None, tuple | None]:
    """(cols, perm, signs): perm/signs are the signed permutation the columns
    make, with int signs, or None when they make none."""
    perm: list[int] = []
    signs: list[int] = []
    for col in cols:
        nz = [(k, v) for k, v in enumerate(col) if v]
        if len(nz) != 1 or abs(nz[0][1]) != 1:
            return cols, None, None
        perm.append(nz[0][0])
        signs.append(int(nz[0][1]))
    return cols, tuple(perm), tuple(signs)


class GroupElement:
    """A group element, created once by its RootSystem.

    ``roots`` is the permutation of the +-roots (``roots[k]`` is the index of
    w(root k) in the root system's signed-root list) when the element also
    fixes the complement of the root span, as every element of W does; it is
    None otherwise. ``cols[j]`` is the image of e_j. ``perm``/``signs``
    (``int`` signs) are set when the element is a signed permutation,
    enabling monomial-to-monomial actions. Elements are interned, so equality
    is identity and the hash is the native identity hash.

    An element first reached by enumerating W is created from its roots and
    its BFS parent (w, s) alone, with w*s equal to it. Its ``cols``,
    ``perm`` and ``signs`` are filled together into one slot on first use,
    as w applied to the columns of s; every other element is created with
    them. Everything else an element answers is a pure function of it,
    computed on first use and then read back: its products from a Memo keyed
    by the other factor, its inverse, and its sort key and rendering, built
    together into one slot.
    """

    __slots__ = ("rs", "roots", "_parent", "_mat", "_products", "_inverse", "_keys")

    def __init__(self, rs: RootSystem, cols: tuple[Vector, ...] | None,
                 roots: tuple[int, ...] | None,
                 parent: tuple[GroupElement, GroupElement] | None = None):
        self.rs = rs
        self.roots = roots
        self._parent = parent
        self._mat = None if cols is None else _matrix(cols)
        self._products = Memo(self._compose)
        self._inverse: GroupElement | None = None
        self._keys: tuple[tuple, str] | None = None

    def __eq__(self, other) -> bool:
        return self is other

    __hash__ = object.__hash__

    def _fill_mat(self) -> tuple[tuple[Vector, ...], tuple | None, tuple | None]:
        """(cols, perm, signs) of an element created from its BFS parent
        (w, s), stored on first use: w*s maps e_j to w(s(e_j)). Filling w
        first recurses one BFS level up, so the depth is below the rank: an
        element of W is a product of at most rank reflections. A thread that
        races another here stores an equal tuple."""
        w, s = self._parent
        mat = _matrix(tuple(w.apply(col) for col in s.cols))
        self._mat = mat
        return mat

    @property
    def cols(self) -> tuple[Vector, ...]:
        return (self._mat or self._fill_mat())[0]

    @property
    def perm(self) -> tuple[int, ...] | None:
        return (self._mat or self._fill_mat())[1]

    @property
    def signs(self) -> tuple[int, ...] | None:
        return (self._mat or self._fill_mat())[2]

    @property
    def n(self) -> int:
        return self.rs.rank

    def is_identity(self) -> bool:
        return self is self.rs.identity

    def apply(self, vec: Sequence[Fraction]) -> Vector:
        """Image of a vector: w(v) = sum_j v_j w(e_j)."""
        return _apply_cols(self.cols, vec)

    def __mul__(self, other: GroupElement) -> GroupElement:
        """Composition: (self*other)(v) = self(other(v))."""
        return self._products[other]

    def _compose(self, other: GroupElement) -> GroupElement:
        """self*other by composing root permutations, or by matrices when
        either factor lies outside W."""
        if self.roots is None or other.roots is None:
            return self.rs.element(tuple(self.apply(col) for col in other.cols))
        roots = tuple(map(self.roots.__getitem__, other.roots))
        w = self.rs._by_roots.get(roots)
        if w is None:
            w = self.rs._intern(tuple(self.apply(col) for col in other.cols), roots)
        return w

    def inverse(self) -> GroupElement:
        w = self._inverse
        if w is None:
            if self.roots is None:
                w = self.rs.element(_transpose(self.cols))
            else:
                roots = tuple(sorted(range(len(self.roots)), key=self.roots.__getitem__))
                w = self.rs._by_roots.get(roots)
                if w is None:
                    w = self.rs._intern(_transpose(self.cols), roots)
            self._inverse = w
        return w

    def _fill_keys(self) -> tuple[tuple, str]:
        """(sort key, rendering), stored on first use. A thread that races
        another here stores an equal tuple."""
        if self.perm is not None:
            image = tuple(s * (p + 1) for s, p in zip(self.signs, self.perm))
            keys = ((0, image), "w(%s)" % ",".join(map(str, image)))
        else:
            keys = ((1, tuple(v for col in self.cols for v in col)),
                    "w{%s}" % ";".join(",".join(map(format_rational, col)) for col in self.cols))
        self._keys = keys
        return keys

    def sort_key(self) -> tuple:
        """Printing order: signed permutations first, by their signed
        images, then every other element by its columns."""
        return (self._keys or self._fill_keys())[0]

    def render(self) -> str:
        return (self._keys or self._fill_keys())[1]

    def __repr__(self) -> str:
        return self.render()


class RootSystem:
    """Positive roots with orbit labels and the generated reflection group."""

    group_cap = 10000              # most elements W may have

    def __init__(self, rank: int, positive_roots: Sequence[Vector], orbit_of: Sequence[int],
                 label: str = "custom", symbols: Sequence[str] | None = None):
        self.rank = rank
        self.positive_roots = tuple(_as_vector(r) for r in positive_roots)
        self.orbit_of = tuple(orbit_of)
        self.label = label
        self.norbits = (max(orbit_of) + 1) if orbit_of else 0
        if symbols is None:
            symbols = ("g",) if self.norbits == 1 else tuple("g%d" % (i + 1) for i in range(self.norbits))
        self.symbols = tuple(symbols)
        self._check_roots()
        # signed roots: k < m is positive root k, m + k is its negative
        signed = self.positive_roots + tuple(tuple(-c for c in r) for r in self.positive_roots)
        self._root_pos = {r: k for k, r in enumerate(signed)}
        # a basis of the orthogonal complement of the root span
        rows = [{k: CoeffPoly.const(c, 0) for k, c in enumerate(r) if c} for r in self.positive_roots]
        self._complement = tuple(tuple(vec[k].substitute(()) if k in vec else 0 for k in range(rank))
                                 for vec in sparse_nullspace(rows, rank, 0))
        self._by_roots: dict[tuple[int, ...], GroupElement] = {}
        self._by_cols: dict[tuple[Vector, ...], GroupElement] = {}
        self._group: tuple[GroupElement, ...] | None = None
        self._act = Memo(self._act_exp)
        self.identity = self._intern(
            tuple(tuple(Fraction(int(i == j)) for i in range(rank)) for j in range(rank)),
            tuple(range(len(signed))))
        self._reflections = tuple(self.element(self._reflection_cols(alpha))
                                  for alpha in self.positive_roots)
        self._check_closure()

    # -- interning ------------------------------------------------------------

    def _intern(self, cols: tuple[Vector, ...] | None, roots: tuple[int, ...] | None,
                parent: tuple[GroupElement, GroupElement] | None = None) -> GroupElement:
        """The one element with these columns, or, when cols is None, the
        element parent[0]*parent[1]. An element that fixes the complement of
        the root span is keyed by ``roots``, anything else by ``cols``;
        setdefault makes a racing creator get the element that won."""
        w = GroupElement(self, cols, roots, parent)
        if roots is None:
            return self._by_cols.setdefault(cols, w)
        return self._by_roots.setdefault(roots, w)

    def _root_action(self, cols: tuple[Vector, ...]) -> tuple[int, ...] | None:
        """Permutation of the +-roots under cols, or None when cols moves a
        root off the root set or moves the complement of the root span."""
        m = len(self.positive_roots)
        images = []
        for r in self.positive_roots:
            k = self._root_pos.get(_apply_cols(cols, r))
            if k is None:
                return None
            images.append(k)
        if any(_apply_cols(cols, v) != v for v in self._complement):
            return None
        return tuple(images) + tuple(k + m if k < m else k - m for k in images)

    def element(self, cols: tuple[Vector, ...]) -> GroupElement:
        """The element with these columns. An element of W is found by its
        root permutation the first time and then by its columns."""
        w = self._by_cols.get(cols)
        if w is None:
            roots = self._root_action(cols)
            w = self._by_roots.get(roots) or self._intern(cols, roots)
            w = self._by_cols.setdefault(cols, w)
        return w

    def _reflection_cols(self, alpha: Vector) -> tuple[Vector, ...]:
        aa = _dot(alpha, alpha)
        cols = []
        for j in range(self.rank):
            factor = 2 * alpha[j] / aa
            cols.append(tuple(Fraction(int(k == j)) - factor * alpha[k] for k in range(self.rank)))
        return tuple(cols)

    def reflection(self, root_index: int) -> GroupElement:
        return self._reflections[root_index]

    def reflections(self) -> tuple[GroupElement, ...]:
        return self._reflections

    def is_type_a(self) -> bool:
        """Whether the positive roots, up to sign, are exactly the e_i - e_j
        (i < j) in these coordinates, whatever the label says: the families
        stated with type-A pairings need those coordinates."""
        n = self.rank
        roots = {tuple(int(k == i) - int(k == j) for k in range(n))
                 for i in range(n) for j in range(i + 1, n)}
        return (len(self.positive_roots) == len(roots)
                and all(r in roots or tuple(-c for c in r) in roots for r in self.positive_roots))

    def find_root(self, vec: Sequence[Fraction]) -> tuple[int, int] | None:
        k = self._root_pos.get(tuple(vec))
        if k is None:
            return None
        m = len(self.positive_roots)
        return (k, 1) if k < m else (k - m, -1)

    def group(self) -> tuple[GroupElement, ...]:
        """Enumerate W by breadth-first search over the root permutations of
        products with the reflections. A step composes two permutations and
        looks the result up; it fills no product Memo, and an element it
        creates gets its matrix on first use."""
        if self._group is None:
            gens = self.reflections()
            by_roots = self._by_roots
            seen = {self.identity: None}
            frontier = [self.identity]
            while frontier:
                new = []
                for w in frontier:
                    image = w.roots.__getitem__
                    for s in gens:
                        roots = tuple(map(image, s.roots))
                        nxt = by_roots.get(roots)
                        if nxt is None:
                            nxt = self._intern(None, roots, (w, s))
                        if nxt not in seen:
                            seen[nxt] = None
                            new.append(nxt)
                            if len(seen) > self.group_cap:
                                raise InvalidRootSystem(
                                    "group enumeration exceeded the cap of %d" % self.group_cap)
                frontier = new
            self._group = tuple(seen)
        return self._group

    # -- the action on monomials ----------------------------------------------

    def act_exp(self, w: GroupElement, a: tuple[int, ...]):
        """Expansion of w x^a w^{-1} as ((coefficient, exponent), ...).

        The one place where W acts on polynomials: a signed permutation
        moves the exponents, any other element expands the product of the
        images of the x_j. Memoized per (w, a)."""
        return self._act[w, a]

    def _act_exp(self, key: tuple[GroupElement, tuple[int, ...]]):
        w, a = key
        if w.perm is not None:
            out = [0] * self.rank
            sign = 1
            for j, p in enumerate(a):
                if p:
                    out[w.perm[j]] = p
                    if w.signs[j] != 1 and p % 2:
                        sign = -sign
            return ((sign, tuple(out)),)
        terms = {(0,) * self.rank: 1}
        for j, p in enumerate(a):
            for _ in range(p):
                new: dict[tuple[int, ...], Fraction] = {}
                for exp, c in terms.items():
                    for k, v in enumerate(w.cols[j]):
                        if v:
                            add_term(new, exp[:k] + (exp[k] + 1,) + exp[k + 1:], c * v)
                terms = new
        return tuple((c, e2) for e2, c in terms.items())

    # -- validation -----------------------------------------------------------

    def _check_roots(self) -> None:
        n = self.rank
        seen: set[Vector] = set()
        directions: dict[Vector, int] = {}
        for i, alpha in enumerate(self.positive_roots):
            if len(alpha) != n:
                raise InvalidRootSystem("root has wrong length")
            if _dot(alpha, alpha) == 0:
                raise InvalidRootSystem("root with (alpha, alpha) = 0")
            if alpha in seen:
                raise InvalidRootSystem("duplicate root")
            neg = tuple(-c for c in alpha)
            if neg in seen:
                raise InvalidRootSystem("both alpha and -alpha stored")
            seen.add(alpha)
            lead = next(c for c in alpha if c)
            direction = tuple(c / lead for c in alpha)
            if direction in directions:
                raise InvalidRootSystem(
                    "roots %d and %d are proportional" % (directions[direction], i))
            directions[direction] = i
        if len(self.orbit_of) != len(self.positive_roots):
            raise InvalidRootSystem("orbit labels do not match the root list")
        if set(self.orbit_of) != set(range(self.norbits)):
            raise InvalidRootSystem("orbit labels must number the orbits 1..k, each used")

    def _check_closure(self) -> None:
        m = len(self.positive_roots)
        for i, s in enumerate(self._reflections):
            if s.roots is None:
                j = next(j for j, beta in enumerate(self.positive_roots)
                         if self.find_root(s.apply(beta)) is None)
                raise InvalidRootSystem(
                    "root set not closed under reflections: s_%d(root %d) is not a root" % (i, j))
            for j in range(m):
                k = s.roots[j] % m
                if self.orbit_of[k] != self.orbit_of[j]:
                    raise InvalidRootSystem(
                        "orbit labels are not W-invariant: roots %d and %d" % (j, k))

    def __repr__(self) -> str:
        return "RootSystem(%s, rank=%d, %d positive roots)" % (self.label, self.rank, len(self.positive_roots))


def build_root_system(family: str, n: int) -> RootSystem:
    """Standard rational realizations: A(n-1) in R^n, B(n), D(n)."""
    family = family.upper()
    e = lambda i: tuple(Fraction(1) if k == i else Fraction(0) for k in range(n))

    def diff(i, j):
        return tuple(a - b for a, b in zip(e(i), e(j)))

    def plus(i, j):
        return tuple(a + b for a, b in zip(e(i), e(j)))

    if family == "A":
        if n < 1:
            raise UnsupportedRank("type A needs n >= 1")
        roots = [diff(i, j) for i in range(n) for j in range(i + 1, n)]
        orbits = [0] * len(roots)
        return RootSystem(n, roots, orbits, label="A%d" % (n - 1))
    if family == "B":
        if n < 1:
            raise UnsupportedRank("type B needs n >= 1")
        roots = [diff(i, j) for i in range(n) for j in range(i + 1, n)]
        roots += [plus(i, j) for i in range(n) for j in range(i + 1, n)]
        orbits = [0] * len(roots)
        roots += [e(i) for i in range(n)]
        orbits += [1 if orbits else 0] * n  # at B1 the short roots are the only orbit
        return RootSystem(n, roots, orbits, label="B%d" % n)
    if family == "D":
        if n < 2:
            raise UnsupportedRank("type D needs n >= 2")
        roots = [diff(i, j) for i in range(n) for j in range(i + 1, n)]
        roots += [plus(i, j) for i in range(n) for j in range(i + 1, n)]
        orbits = [0] * len(roots)
        return RootSystem(n, roots, orbits, label="D%d" % n)
    raise UnsupportedRank("unknown family %r" % family)


def _integer(value, what: str) -> int:
    """An integral number in a config, as an int; never truncated."""
    number = parse_rational(str(value))
    if number.denominator != 1:
        raise ValueError("%s %s is not an integer" % (what, value))
    return number.numerator


def load_root_system(config: dict) -> RootSystem:
    """Validate and build a root system from a configuration mapping.

    Expected fields: rank, roots (lists of rationals, "p/q" strings allowed),
    orbits (orbit index per root: 1..k with each used, or 0-based 0..k-1),
    optional symbols, optional label.
    """
    if not isinstance(config, dict):
        raise InvalidRootSystem("malformed config: expected a JSON object, got %s"
                                % type(config).__name__)
    try:
        rank = _integer(config["rank"], "rank")
        roots = [tuple(parse_rational(str(v)) for v in row) for row in config["roots"]]
        orbits_raw = [_integer(o, "orbit label") for o in config["orbits"]]
    except (KeyError, ValueError, TypeError) as exc:
        raise InvalidRootSystem("malformed config: %s" % exc) from None
    if rank < 1:
        raise InvalidRootSystem("malformed config: rank %d is below 1" % rank)
    if orbits_raw and min(orbits_raw) == 1:
        orbits = [o - 1 for o in orbits_raw]
    else:
        orbits = orbits_raw
    if any(o < 0 for o in orbits):
        raise InvalidRootSystem("malformed config: negative orbit label")
    symbols = config.get("symbols")
    norbits = max(orbits) + 1 if orbits else 0
    if symbols is not None and not (isinstance(symbols, list) and len(symbols) == norbits
                                    and all(isinstance(name, str) for name in symbols)):
        raise InvalidRootSystem("malformed config: symbols must list %d names, one per orbit"
                                % norbits)
    if symbols is not None and len(set(symbols)) < len(symbols):
        twice = next(name for k, name in enumerate(symbols) if name in symbols[:k])
        raise InvalidRootSystem("malformed config: symbol %r names two orbits" % twice)
    label = config.get("label", "custom")
    if not isinstance(label, str):
        raise InvalidRootSystem("malformed config: label must be a string")
    return RootSystem(rank, roots, orbits, label=label, symbols=symbols)


def load_root_system_file(path: str) -> RootSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return load_root_system(json.load(fh))


@dataclass(frozen=True)
class MultiplicityMap:
    """Coupling values per root orbit: formal symbols or rational numbers."""

    values: tuple[CoeffPoly, ...]
    nsym: int

    @staticmethod
    def symbolic(rs: RootSystem) -> MultiplicityMap:
        k = rs.norbits
        return MultiplicityMap(tuple(CoeffPoly.symbol(i, k) for i in range(k)), k)

    @staticmethod
    def numeric(rs: RootSystem, rationals: Sequence) -> MultiplicityMap:
        vals = [Fraction(v) for v in rationals]
        if len(vals) != rs.norbits:
            raise ValueError("expected %d coupling values, got %d" % (rs.norbits, len(vals)))
        return MultiplicityMap(tuple(CoeffPoly.const(v, 0) for v in vals), 0)

    def of_orbit(self, orbit: int) -> CoeffPoly:
        return self.values[orbit]

    def of_root(self, rs: RootSystem, root_index: int) -> CoeffPoly:
        return self.values[rs.orbit_of[root_index]]


def s_pair(xi: Sequence, eta: Sequence, rs: RootSystem,
           g: MultiplicityMap) -> dict[GroupElement, CoeffPoly]:
    """The group-algebra pairing replacing the Euclidean metric, as a term map
    (group element -> nonzero coefficient):

        S_{xi,eta} = (xi, eta) + sum_{alpha > 0} 2 g_alpha (alpha, xi)(alpha, eta)
                                                 / (alpha, alpha) * s_alpha
    """
    xi = _as_vector(xi)
    eta = _as_vector(eta)
    terms: dict[GroupElement, CoeffPoly] = {}
    add_term(terms, rs.identity, CoeffPoly.const(_dot(xi, eta), g.nsym))
    for i, alpha in enumerate(rs.positive_roots):
        axi = _dot(alpha, xi)
        if not axi:
            continue
        aeta = _dot(alpha, eta)
        if not aeta:
            continue
        add_term(terms, rs.reflection(i), g.of_root(rs, i) * (2 * axi * aeta / _dot(alpha, alpha)))
    return terms


def invariant_sum_S(rs: RootSystem, g: MultiplicityMap) -> dict[GroupElement, CoeffPoly]:
    """S = -sum_{alpha > 0} g_alpha s_alpha, central in the group algebra, as
    a term map."""
    terms: dict[GroupElement, CoeffPoly] = {}
    for i in range(len(rs.positive_roots)):
        add_term(terms, rs.reflection(i), -g.of_root(rs, i))
    return terms
