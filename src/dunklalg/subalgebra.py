"""The angular-momenta subalgebras: bases, straightening, flatness, centre.

A word (SubWord) is a sequence of generator pairs (i, j), one per factor
of the quadratic generators (antisymmetric M_ij for the so family, E_ij for
the gl family), times a group tail. Products, normal forms and centralizer
rows all work on that pair sequence, and words are reduced to the canonical
basis. SubAlgebra.pairs holds the family's generator pairs and
SubAlgebra.basis(d) its basis words of degree d:

  so basis words: factor list sorted by (i, then j), arc diagram without
  crossing semicircles (i_s < i_s' < j_s implies j_s' <= j_s);
  gl basis words: both index sequences weakly increasing.

Straightening is plain diagram rewriting. It terminates because every
rewrite strictly decreases a well-founded measure: commutation swaps fix
the factor multiset and only cost corrections of lower degree, while an
uncrossing move replaces a crossing pair of arcs by a nested pair (same
arc-length sum, strictly fewer crossings; a crossing arc pair never gains
crossings against a third arc when uncrossed) plus a disjoint pair
(strictly smaller arc-length sum) plus lower-degree corrections. The
measure (degree, arc-length sum, crossing count) therefore decreases at
every recursion through the memo table, and the same wire-uncrossing
argument bounds the gl move by the count of incomparable factor pairs.

The centralizer is solved in these coordinates: each commutator of an
unknown basis word times a group tail with a constraint is straightened with
SubElement arithmetic, one column per basis word times tail of degree up to
d + 1, and nothing is embedded into H_c to build the rows. Each sparse
nullspace vector becomes one SubElement of the returned basis, and its
terms are the term map that exactmath.in_span tests membership against.

  soundness: the straightening rules are the relations that the
  relations-so, relations-gl and crossing suites verify in H_c, so a vector
  whose commutators have zero coordinates is central;
  completeness: nothing is missed when the basis words times tails of
  degree <= d + 1 are independent in H_c. symbol_certificate proves it on
  every call from the rank of their g-free top symbols, and the returned
  elements are checked to commute in H_c as well;
  pruning: the constraints are M_12 (gl: E_11, E_12) and the reflections.
  An element that commutes with the reflections is W-invariant, so it
  commutes with every W-conjugate of a kept generator; for a custom root
  system constraint_pairs keeps each generator those conjugates miss.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, groupby, permutations
from typing import NamedTuple, Sequence

from .cherednik import (
    CherednikContext,
    PBWElement,
    angular_momentum_ij,
    e_generator,
    group,
    one,
    zero,
)
from .coxeter import GroupElement, invariant_sum_S
from .exactmath import (
    CoeffPoly,
    Combination,
    Memo,
    XPoly,
    add_term,
    in_span,
    numbered_rows,
    render_terms,
    sparse_nullspace,
    sparse_rank_symbolic,
)
from .reporting import CheckResult

Pair = tuple[int, int]


class DegreeBound(ValueError):
    """Input word exceeds the configured straightening degree bound."""


class CertificateFailure(ArithmeticError):
    """An exact certificate behind a centralizer basis did not hold."""


class SubWord(NamedTuple):
    """Ordered product of generators followed by a group tail.

    ``pairs`` is the generator sequence: (i, j) stands for M_ij (so) or E_ij
    (gl), and a power is a run of equal pairs.
    """

    pairs: tuple[Pair, ...]
    tail: GroupElement

    def degree(self) -> int:
        return len(self.pairs)

    def _factors(self) -> tuple[tuple[int, int, int], ...]:
        """The runs of equal pairs as (i, j, power)."""
        return tuple((i, j, len(list(run))) for (i, j), run in groupby(self.pairs))

    def sort_key(self):
        # runs, not pairs, so that M[1,2]^2 sorts after M[1,2]*M[1,3]; the
        # tail by signed images or columns, without GroupElement's class tag
        return (-self.degree(), self._factors(), self.tail.sort_key()[1])

    def render(self, family: str) -> str:
        sym = "M" if family == "so" else "E"
        parts = []
        for (i, j, p) in self._factors():
            base = "%s[%d,%d]" % (sym, i + 1, j + 1)
            parts.append(base if p == 1 else base + "^%d" % p)
        if not self.tail.is_identity():
            parts.append(self.tail.render())
        return "*".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# The combinatorial counters (independent oracles for SubAlgebra.basis)
# ---------------------------------------------------------------------------

def _count_clash_free(gens: list[tuple[int, int]], d: int, clash) -> int:
    """Multisets of d generator pairs in which no ordered pair of factors
    clashes."""
    return sum(1 for combo in combinations_with_replacement(gens, d)
               if not any(clash(p, q) for p, q in permutations(combo, 2)))


def count_noncrossing_multisets(n: int, d: int) -> int:
    """Independent brute-force counter for the so basis (kept separate)."""
    return _count_clash_free([(i, j) for i in range(n) for j in range(i + 1, n)], d,
                             lambda p, q: p[0] < q[0] < p[1] < q[1])


def count_chain_multisets(n: int, d: int) -> int:
    """Independent counter for the gl basis: multisets of index pairs that
    are pairwise comparable in the product order."""
    return _count_clash_free([(i, j) for i in range(n) for j in range(n)], d,
                             lambda p, q: (p[0] - q[0]) * (p[1] - q[1]) < 0)


# ---------------------------------------------------------------------------
# The straightening engine
# ---------------------------------------------------------------------------

class SubAlgebra:
    """Rewriting context for one family over one Cherednik context. Its
    straightening, conjugation, embedding and word-text memos are
    exactmath.Memos."""

    def __init__(self, ctx: CherednikContext, family: str, max_degree: int = 12):
        if family not in ("so", "gl"):
            raise ValueError("family must be 'so' or 'gl'")
        self.ctx = ctx
        self.family = family
        self.max_degree = max_degree
        n = ctx.n
        self.pairs: tuple[Pair, ...] = tuple(
            (i, j) for i in range(n) for j in range(i + 1 if family == "so" else 0, n))
        self._memo = Memo(self._straighten)
        self._embed_cache = Memo(self._embed)
        self._conj = Memo(self._conj_one)
        # (sort key, text) per word rendered
        self._word_text = Memo(lambda word: (word.sort_key(), word.render(family)))

    # -- generator-level data --------------------------------------------------

    def generator(self, i: int, j: int) -> PBWElement:
        if self.family == "so":
            return angular_momentum_ij(self.ctx, i, j)
        return e_generator(self.ctx, i, j)

    def norm_pair(self, i: int, j: int) -> tuple[int, Pair] | None:
        """so generators are antisymmetric; gl generators are free."""
        if self.family == "gl":
            return (1, (i, j))
        if i == j:
            return None
        if i < j:
            return (1, (i, j))
        return (-1, (j, i))

    def conj_pairs(self, w: GroupElement, pairs: Sequence[Pair]):
        """w (word) w^{-1} as a combination of words: [(pairs, coeff), ...]."""
        if w.is_identity() or not pairs:
            return [(tuple(pairs), self.ctx.one)]
        results = [((), 1)]
        for pair in pairs:
            results = [(acc + (p2,), c0 * c1) for (acc, c0) in results
                       for (p2, c1) in self._conj[w, pair]]
        return [(acc, self.ctx.one * c) for (acc, c) in results]

    def _conj_one(self, key: tuple[GroupElement, Pair]):
        """w gen_pair w^{-1}, key (w, pair), as ((pair, rational), ...) in pair
        order: the generator of (w e_i, w e_j), expanded through norm_pair."""
        w, (i, j) = key
        acc: dict[Pair, Fraction] = {}
        for k, a in enumerate(w.cols[i]):
            for l, b in enumerate(w.cols[j]):
                norm = self.norm_pair(k, l)
                if a and b and norm is not None:
                    add_term(acc, norm[1], norm[0] * a * b)
        return tuple(sorted(acc.items()))

    # -- relation right-hand sides ---------------------------------------------

    def _swap_corrections(self, u: Pair, v: Pair):
        """[gen_u, gen_v] as [(sign, left_s or None, pair, right_s or None)]."""
        (i, j), (k, l) = u, v
        if self.family == "so":
            return [(1, None, (i, l), (j, k)), (1, None, (j, k), (i, l)),
                    (-1, None, (i, k), (l, j)), (-1, None, (j, l), (i, k))]
        # gl commutation: [E_ij, E_kl] = E_il S_jk - S_il E_kj + S_kl E_ij - E_ij S_kl
        return [(1, None, (i, l), (j, k)), (-1, (i, l), (k, j), None),
                (1, (k, l), (i, j), None), (-1, None, (i, j), (k, l))]

    def _uncross(self, u: Pair, v: Pair):
        """The move on an adjacent bad pair: ([(coefficient, pair, pair)],
        corrections). so, by the cyclic relation,
        M_ij M_kl = -M_jk M_il - M_ki M_jl + M_ij S_kl + M_jk S_il + M_ki S_jl;
        gl: E_ij E_kl = E_il E_kj + E_il S_kj - E_ij S_kl (i < k, j > l)."""
        (i, j), (k, l) = u, v
        if self.family == "gl":
            return ([(self.ctx.one, (i, l), (k, j))],
                    [(1, None, (i, l), (k, j)), (-1, None, (i, j), (k, l))])
        tops = []
        for p1, p2 in (((j, k), (i, l)), ((k, i), (j, l))):
            # crossing arcs have four distinct ends, so both pairs are proper
            (s1, a), (s2, b) = self.norm_pair(*p1), self.norm_pair(*p2)
            tops.append((self.ctx.one * (-s1 * s2), a, b))
        return tops, [(1, None, (i, j), (k, l)), (1, None, (j, k), (i, l)),
                      (1, None, (k, i), (j, l))]

    # -- the rewriting loop ------------------------------------------------------

    def _is_basis(self, pairs: tuple[Pair, ...]) -> bool:
        return (all(pairs[r] <= pairs[r + 1] for r in range(len(pairs) - 1))
                and self._first_bad(pairs) is None)

    def _first_bad(self, word: Sequence[Pair]) -> tuple[int, int] | None:
        """In a sorted word, the first positions (p, q) the basis rule
        rejects: crossing arcs (so), or an adjacent descent in j (gl)."""
        if self.family == "so":
            for p, q in combinations(range(len(word)), 2):
                (a, b), (c, d) = word[p], word[q]
                if a < c < b < d:
                    return p, q
            return None
        for r in range(len(word) - 1):
            if word[r][1] > word[r + 1][1]:
                return r, r + 1
        return None

    def basis(self, d: int) -> list[SubWord]:
        """The basis words of degree exactly d, with the identity tail."""
        return [SubWord(combo, self.ctx.e) for combo in combinations_with_replacement(self.pairs, d)
                if self._is_basis(combo)]

    def _emit_corrections(self, acc, prefix, corrections, suffix, coeff):
        """Insert first-order relation terms, pushing group factors right.

        Each correction (sign, left_pair, mid_pair, right_pair) contributes
        words  prefix . gen(mid') . w . suffix  with w ranging over the group
        terms of the named S pairing; w is conjugated through the suffix and
        becomes part of the tail.
        """
        for (sign, left, mid, right) in corrections:
            if left is not None:
                for (w, kappa) in self.ctx.s_terms(*left):
                    for (mid2, cmid) in self._conj[w, mid]:
                        self._push_word(acc, prefix + (mid2,), w, suffix,
                                        coeff * kappa * cmid * sign)
            else:
                normed = self.norm_pair(*mid)
                if normed is None:
                    continue
                s2, mid2 = normed
                for (w, kappa) in self.ctx.s_terms(*right):
                    self._push_word(acc, prefix + (mid2,), w, suffix,
                                    coeff * kappa * (sign * s2))

    def _push_word(self, acc, prefix, w, suffix, coeff):
        """Record prefix . w . suffix as words with the group moved right."""
        if coeff.is_zero():
            return
        for (suf2, csuf) in self.conj_pairs(w, suffix):
            acc.append((prefix + suf2, w, coeff * csuf))

    def _straighten(self, pairs: tuple[Pair, ...]) -> dict[SubWord, CoeffPoly]:
        if self._is_basis(pairs):
            return {SubWord(pairs, self.ctx.e): self.ctx.one}
        out: dict[SubWord, CoeffPoly] = {}

        word = list(pairs)
        pending: list[tuple[tuple[Pair, ...], GroupElement, CoeffPoly]] = []
        # phase 1: bubble sort by commutation, collecting lower-degree terms
        while True:
            r = next((r for r in range(len(word) - 1) if word[r] > word[r + 1]), None)
            if r is None:
                break
            self._swap(word, r, pending)
        # phase 2: bring the first bad partners adjacent, then apply the move
        bad = self._first_bad(word)
        if bad is None:
            tops = [(self.ctx.one, tuple(word))]
        else:
            p, q = bad
            for t in range(q - 1, p, -1):
                self._swap(word, t, pending)
            moves, corr = self._uncross(word[p], word[p + 1])
            prefix, suffix = tuple(word[:p]), tuple(word[p + 2:])
            tops = [(c, prefix + (a, b) + suffix) for (c, a, b) in moves]
            self._emit_corrections(pending, prefix, corr, suffix, self.ctx.one)

        for (c, top) in tops:
            if self._is_basis(top):
                add_term(out, SubWord(top, self.ctx.e), c)
            else:
                for word, c2 in self._memo[top].items():
                    add_term(out, word, c * c2)
        for (pw, w, c) in pending:
            for (bp, tail), c2 in self._memo[pw].items():
                add_term(out, SubWord(bp, tail * w), c * c2)
        return out

    def _swap(self, word: list[Pair], t: int, pending) -> None:
        """Commute the factors at t and t + 1 in place; the commutator's
        lower-degree terms go to pending."""
        u, v = word[t], word[t + 1]
        word[t], word[t + 1] = v, u
        self._emit_corrections(pending, tuple(word[:t]), self._swap_corrections(u, v),
                               tuple(word[t + 2:]), self.ctx.one)

    # -- public word/element operations -----------------------------------------

    def normal_form_word(self, word: SubWord) -> dict[SubWord, CoeffPoly]:
        if word.degree() > self.max_degree:
            raise DegreeBound("word degree %d exceeds bound %d" % (word.degree(), self.max_degree))
        out: dict[SubWord, CoeffPoly] = {}
        for (bp, tail), c in self._memo[word.pairs].items():
            add_term(out, SubWord(bp, tail * word.tail), c)
        return out

    def embed_word(self, word: SubWord) -> PBWElement:
        return self._embed_cache[word]

    def _embed(self, word: SubWord) -> PBWElement:
        acc = one(self.ctx)
        for (i, j) in word.pairs:
            acc = acc * self.generator(i, j)
        if not word.tail.is_identity():
            acc = acc * group(self.ctx, word.tail)
        return acc


class SubElement(Combination):
    """CoeffPoly-linear combination of SubWords."""

    __slots__ = ("alg",)

    def __init__(self, alg: SubAlgebra, terms: dict[SubWord, CoeffPoly] | None = None):
        self.alg = alg
        self.terms = terms if terms is not None else {}

    def _context(self) -> tuple:
        return (self.alg,)

    def _unit(self) -> SubElement:
        return SubElement.of(self.alg, SubWord((), self.alg.ctx.e))

    @staticmethod
    def of(alg: SubAlgebra, word: SubWord, coeff=None) -> SubElement:
        unit = SubElement(alg, {word: alg.ctx.one})
        return unit if coeff is None else unit.scaled(coeff)

    def __mul__(self, other) -> SubElement:
        """Product followed by straightening to the basis."""
        if other.__class__ is not SubElement:
            return super().__mul__(other)
        self._check(other)
        alg = self.alg
        terms: dict[SubWord, CoeffPoly] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                c12 = c1 * c2
                for (p2, cc) in alg.conj_pairs(w1.tail, w2.pairs):
                    nf = alg.normal_form_word(SubWord(w1.pairs + p2, w1.tail * w2.tail))
                    for word, c3 in nf.items():
                        add_term(terms, word, c12 * cc * c3)
        return SubElement(alg, terms)

    def normal_form(self) -> SubElement:
        terms: dict[SubWord, CoeffPoly] = {}
        for word, c in self.terms.items():
            for word2, c2 in self.alg.normal_form_word(word).items():
                add_term(terms, word2, c * c2)
        return SubElement(self.alg, terms)

    def embed(self) -> PBWElement:
        acc = zero(self.alg.ctx)
        for word, c in self.terms.items():
            acc = acc + self.alg.embed_word(word).scaled(c)
        return acc

    def is_supported_on_basis(self) -> bool:
        return all(self.alg._is_basis(w.pairs) for w in self.terms)

    def render(self) -> str:
        names = self.alg.ctx.rs.symbols
        text = self.alg._word_text
        entries = sorted(((text[word], c) for word, c in self.terms.items()),
                         key=lambda entry: entry[0][0])
        return render_terms((c.render_atom(names), body) for (_, body), c in entries)

    def __repr__(self) -> str:
        return "SubElement(%s)" % self.render()


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------

def get_subalgebra(ctx: CherednikContext, family: str) -> SubAlgebra:
    return ctx.named(("subalg", family), lambda: SubAlgebra(ctx, family))


def h_omega_subelement(alg: SubAlgebra) -> SubElement:
    """H_Omega written directly over basis words (so family)."""
    ctx = alg.ctx
    terms: dict[SubWord, CoeffPoly] = {}
    half = Fraction(-1, 2)
    for i in range(ctx.n):
        for j in range(i + 1, ctx.n):
            add_term(terms, SubWord(((i, j), (i, j)), ctx.e), ctx.one * half)
    S = SubElement(alg, {SubWord((), w): c for w, c in invariant_sum_S(ctx.rs, ctx.gmap).items()})
    for word, c in (S * S - S.scaled(ctx.n - 2)).terms.items():
        add_term(terms, word, c * Fraction(1, 2))
    return SubElement(alg, terms)


def rho_subelement(alg: SubAlgebra) -> SubElement:
    """rho = sum_i E_ii - S over basis words (gl family)."""
    ctx = alg.ctx
    terms: dict[SubWord, CoeffPoly] = {}
    for i in range(ctx.n):
        add_term(terms, SubWord(((i, i),), ctx.e), ctx.one)
    for w, c in invariant_sum_S(ctx.rs, ctx.gmap).items():
        add_term(terms, SubWord((), w), -c)
    return SubElement(alg, terms)


# ---------------------------------------------------------------------------
# PBW flatness and the centre
# ---------------------------------------------------------------------------

def _symbol_ranks(alg: SubAlgebra, d: int):
    """(k, basis words of degree k, rank of their top symbols) for k <= d.

    In gr H_c = C[x, xi] x| W the symbol of a degree-k word is the product of
    its generators' symbols: x_i xi_j - x_j xi_i for M_ij, and for E_ij the
    product a+_i a_j of two independent linear forms, which the invertible
    substitution (x - xi, x + xi) -> (x, xi) turns into x_i xi_j. These
    symbols are g-free, and C[x, xi] x| W is free over C[x, xi] on W, so a
    full rank in each degree certifies that the words times group tails are
    independent in H_c for every g, and that the filtration respects them.
    """
    n = alg.ctx.n
    x = [XPoly.variable(k, 2 * n, 0) for k in range(2 * n)]
    symbol = {(i, j): x[i] * x[n + j] - x[j] * x[n + i] if alg.family == "so"
              else x[i] * x[n + j] for (i, j) in alg.pairs}
    for k in range(d + 1):
        words = alg.basis(k)
        yield k, words, sparse_rank_symbolic(numbered_rows(
            math.prod((symbol[pair] for pair in word.pairs), start=XPoly.one(2 * n, 0)).terms
            for word in words))


def pbw_rank_check(family: str, ctx: CherednikContext, d: int) -> tuple[CheckResult, dict]:
    """PBW flatness up to degree d, by two checks per degree: the basis
    count equals the combinatorial count, and the basis words' top symbols
    are independent (see _symbol_ranks), a verdict for every value of g.
    Spanning comes from straightening, which uses only the relations the
    relation suites verify. The per-degree ranks in details are cumulative."""
    alg = get_subalgebra(ctx, family)
    counter = count_noncrossing_multisets if family == "so" else count_chain_multisets
    result = CheckResult("pbw-flatness-%s" % family)
    details = {"per_degree": []}
    cumulative = rank = 0
    for deg, words, sym_rank in _symbol_ranks(alg, d):
        expected = counter(ctx.n, deg)
        cumulative += len(words)
        rank += sym_rank
        details["per_degree"].append({"degree": deg, "count": len(words), "combinatorial": expected,
                                      "cumulative": cumulative, "rank": rank})
        result.instances += 1
        if len(words) != expected:
            result.record("degree %d count %d != combinatorial %d" % (deg, len(words), expected))
        if rank != cumulative:
            result.record("degree <= %d rank %d != word count %d" % (deg, rank, cumulative))
    return result, details


def constraint_pairs(alg: SubAlgebra) -> list[Pair]:
    """Generators kept as centralizer constraints beside the reflections.

    Commuting with the reflections makes B W-invariant, so B then commutes
    with every W-conjugate of a generator it commutes with. Keep M_12 (gl:
    E_11, E_12), then, in generator order, each generator outside the Q-span
    of the W-conjugates of those kept; for the A, B and D families that
    span is everything already.
    """
    one = alg.ctx.one
    seeds = [(0, 1)] if alg.family == "so" else [(0, 0), (0, 1)]
    order = [p for p in seeds if p in alg.pairs] + [p for p in alg.pairs if p not in seeds]
    kept: list[Pair] = []
    # each W-conjugate of a kept generator once, keyed by its sorted terms
    rows: dict[tuple, dict[Pair, CoeffPoly]] = {}
    for pair in order:
        if in_span(rows.values(), {pair: one}):
            continue
        kept.append(pair)
        for w in alg.ctx.rs.group():
            conj = alg._conj[w, pair]
            rows.setdefault(conj, {p2: one * c for p2, c in conj})
    return kept


def symbol_certificate(alg: SubAlgebra, d: int) -> None:
    """Raise CertificateFailure unless the basis words of each degree k <= d
    have linearly independent top symbols."""
    for k, words, rank in _symbol_ranks(alg, d):
        if rank != len(words):
            raise CertificateFailure("%s degree %d: symbol rank %d < %d basis words"
                                     % (alg.family, k, rank, len(words)))


def centralizer(family: str, ctx: CherednikContext, d: int) -> list[SubElement]:
    """Basis of {B : [B, generators] = 0} over basis words of degree <= d
    with arbitrary group tails; solved exactly over Q(g) in the subalgebra's
    own coordinates (see the module docstring). Each element is one
    nullspace vector, its terms in unknown order."""
    alg = get_subalgebra(ctx, family)
    if d + 1 > alg.max_degree:
        raise DegreeBound("centralizer degree %d: commutators reach degree %d, above bound %d"
                          % (d, d + 1, alg.max_degree))
    symbol_certificate(alg, d + 1)
    grp = ctx.rs.group()
    unknowns = [SubWord(word.pairs, tail)
                for deg in range(d + 1) for word in alg.basis(deg) for tail in grp]
    kept = constraint_pairs(alg)
    constraints = [SubElement.of(alg, SubWord((pair,), ctx.e)) for pair in kept]
    constraints += [SubElement.of(alg, SubWord((), s)) for s in ctx.rs.reflections()]
    rows_by_key: dict = {}
    for u_idx, word in enumerate(unknowns):
        p = SubElement.of(alg, word)
        for c_idx, gen in enumerate(constraints):
            for key, coeff in (p * gen - gen * p).terms.items():
                rows_by_key.setdefault((c_idx, key), {})[u_idx] = coeff
    # the unknowns are distinct words, so no two coordinates share a key
    solutions = [SubElement(alg, {unknowns[idx]: vec[idx] for idx in sorted(vec)})
                 for vec in sparse_nullspace(list(rows_by_key.values()), len(unknowns), ctx.nsym)]
    gens = [alg.generator(i, j) for (i, j) in kept] + [group(ctx, s) for s in ctx.rs.reflections()]
    for sol in solutions:
        p = sol.embed()
        if any(not (p * g - g * p).is_zero() for g in gens):
            raise CertificateFailure("centralizer element does not commute in H_c: %s"
                                     % sol.render())
    return solutions
