"""Basis enumeration, straightening soundness, flatness, and the centre."""

import itertools
import random
import threading
import time
from fractions import Fraction

import pytest

from dunklalg.cherednik import (
    CherednikContext,
    angular_hamiltonian,
    angular_momentum_ij,
    e_generator,
    group,
    rho,
)
from dunklalg import subalgebra
from dunklalg.coxeter import build_root_system, load_root_system
from dunklalg.exactmath import (
    CoeffPoly,
    add_term,
    in_span,
    numbered_rows,
    sparse_nullspace,
    sparse_rank_numeric,
    sparse_rank_symbolic,
)
from dunklalg.polyrep import DunklContext, apply_element
from dunklalg.reporting import CheckResult
from dunklalg.subalgebra import (
    CertificateFailure,
    DegreeBound,
    SubAlgebra,
    SubElement,
    SubWord,
    centralizer,
    constraint_pairs,
    count_chain_multisets,
    count_noncrossing_multisets,
    get_subalgebra,
    h_omega_subelement,
    pbw_rank_check,
    rho_subelement,
    symbol_certificate,
)
from test_general_group import ROT


def actx(n, family="A"):
    return CherednikContext(build_root_system(family, n))


def random_subelement(alg: SubAlgebra, rng: random.Random, max_degree: int = 3,
                      nwords: int = 3) -> SubElement:
    ctx = alg.ctx
    n = ctx.n
    grp = ctx.rs.group()
    terms: dict[SubWord, CoeffPoly] = {}
    for _ in range(rng.randint(1, nwords)):
        deg = rng.randint(0, max_degree)
        pairs = []
        for _ in range(deg):
            if alg.family == "so":
                i = rng.randrange(n - 1)
                j = rng.randrange(i + 1, n)
            else:
                i = rng.randrange(n)
                j = rng.randrange(n)
            pairs.append((i, j))
        tail = grp[rng.randrange(len(grp))]
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if c:
            add_term(terms, SubWord(tuple(pairs), tail), ctx.one * c)
    return SubElement(alg, terms)


# rational points per degree at which embedded_rank_oracle re-ranks
SPECIALIZATIONS = 3
SPECIALIZATION_SEED = 12345


def embedded_rank_oracle(family: str, ctx: CherednikContext, d: int):
    """The embedded flatness check that pbw_rank_check's top symbols
    replace: the basis words of degree <= d, embedded in H_c, ranked over
    Q(g) per cumulative degree and again mod 2^61 - 1 at seeded rational
    points. Counters and basis are read through the engine, so a patch
    reaches both checks."""
    alg = get_subalgebra(ctx, family)
    counter = (subalgebra.count_noncrossing_multisets if family == "so"
               else subalgebra.count_chain_multisets)
    result = CheckResult("pbw-flatness-%s" % family)
    details = {"per_degree": []}
    rng = random.Random(SPECIALIZATION_SEED)
    words: list[SubWord] = []
    for deg in range(d + 1):
        batch = alg.basis(deg)
        expected = counter(ctx.n, deg)
        words.extend(batch)
        rows = numbered_rows(alg.embed_word(word).terms for word in words)
        sym_rank = sparse_rank_symbolic(rows)
        num_ranks = []
        for _ in range(SPECIALIZATIONS):
            vals = [Fraction(rng.randint(2, 60), rng.randint(1, 7)) for _ in range(max(ctx.nsym, 1))]
            num_ranks.append(sparse_rank_numeric(rows, vals[:ctx.nsym]))
        entry = {"degree": deg, "count": len(batch), "combinatorial": expected,
                 "cumulative": len(words), "rank": sym_rank, "numeric_ranks": num_ranks}
        details["per_degree"].append(entry)
        result.instances += 1
        if len(batch) != expected:
            result.record("degree %d count %d != combinatorial %d" % (deg, len(batch), expected))
        if sym_rank != len(words):
            result.record("degree <= %d rank %d != word count %d" % (deg, sym_rank, len(words)))
        if any(r != sym_rank for r in num_ranks):
            result.record("degree <= %d specialized rank disagrees: %s vs %d"
                          % (deg, num_ranks, sym_rank))
    return result, details


def _failure_texts(result: CheckResult) -> list[str]:
    return [f["instance"] for f in result.failures]


def test_enumerate_so_counts():
    def so(n):
        return get_subalgebra(actx(n), "so")
    assert len(so(3).basis(2)) == 6
    assert len(so(4).basis(2)) == 20
    assert len(so(2).basis(3)) == 1
    for n, d in ((3, 2), (3, 3), (4, 2), (4, 3), (2, 5)):
        assert len(so(n).basis(d)) == count_noncrossing_multisets(n, d)


def test_enumerate_gl_counts():
    def gl(n):
        return get_subalgebra(actx(n), "gl")
    assert len(gl(1).basis(3)) == 1
    assert len(gl(2).basis(1)) == 4
    assert len(gl(2).basis(2)) == 9
    for n, d in ((2, 2), (2, 3), (3, 2)):
        assert len(gl(n).basis(d)) == count_chain_multisets(n, d)


def test_arc_diagram_crossings():
    alg = get_subalgebra(actx(4), "so")
    assert alg._first_bad(((0, 2), (1, 3))) == (0, 1)
    assert alg._first_bad(((0, 3), (1, 2))) is None
    assert alg._first_bad(((0, 1), (2, 3))) is None


def test_basis_words_sort_by_runs_not_pairs():
    # as runs M[1,2]^2 = ((0, 1, 2),) follows M[1,2]*M[1,3] = ((0, 1, 1), (0, 2, 1));
    # as pairs ((0, 1), (0, 1)) would come first
    ctx = actx(3)
    so = get_subalgebra(ctx, "so")
    square = SubWord(((0, 1), (0, 1)), ctx.e)
    mixed = SubWord(((0, 1), (0, 2)), ctx.e)
    assert sorted([square, mixed], key=SubWord.sort_key) == [mixed, square]
    both = SubElement.of(so, square) + SubElement.of(so, mixed)
    assert both.render() == "M[1,2]*M[1,3] + M[1,2]^2"


def test_racing_threads_share_one_subalgebra(monkeypatch):
    # both threads build while the other is still building; the memo must
    # hand both the algebra that was stored first
    ctx = actx(2)
    real = SubAlgebra.__init__

    def slow(self, *args, **kwargs):
        time.sleep(0.05)
        real(self, *args, **kwargs)

    monkeypatch.setattr(SubAlgebra, "__init__", slow)
    found = []
    threads = [threading.Thread(target=lambda: found.append(get_subalgebra(ctx, "so")))
               for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert len(found) == 2
    a, b = found
    assert a is b is get_subalgebra(ctx, "so")
    unit = SubElement.of(a, SubWord((), ctx.e)) + SubElement.of(b, SubWord((), ctx.e))
    assert unit == SubElement.of(a, SubWord((), ctx.e), 2)


def test_embed_single_factor():
    ctx = actx(3)
    alg = get_subalgebra(ctx, "so")
    sigma = ctx.rs.reflection(0)
    word = SubWord(((0, 1),), sigma)
    assert alg.embed_word(word) == angular_momentum_ij(ctx, 0, 1) * group(ctx, sigma)


def test_embed_son_relation_is_zero():
    ctx = actx(4)
    alg = get_subalgebra(ctx, "so")
    m12 = SubElement.of(alg, SubWord(((0, 1),), ctx.e))
    m34 = SubElement.of(alg, SubWord(((2, 3),), ctx.e))
    lhs = m12 * m34 - m34 * m12          # straightened commutator
    rhs_pbw = (angular_momentum_ij(ctx, 0, 1) * angular_momentum_ij(ctx, 2, 3)
               - angular_momentum_ij(ctx, 2, 3) * angular_momentum_ij(ctx, 0, 1))
    assert lhs.embed() == rhs_pbw


def test_normal_form_swap_example():
    ctx = actx(3)
    alg = get_subalgebra(ctx, "so")
    e = SubElement.of(alg, SubWord(((1, 2), (0, 1)), ctx.e))
    nf = e.normal_form()
    assert nf.is_supported_on_basis()
    assert nf.embed() == e.embed()
    tops = [w for w in nf.terms if w.degree() == 2]
    assert tops == [SubWord(((0, 1), (1, 2)), ctx.e)]
    firsts = [w for w in nf.terms if w.degree() == 1]
    assert firsts and any(not w.tail.is_identity() for w in firsts)


def test_normal_form_untangles_crossing():
    ctx = actx(4)
    alg = get_subalgebra(ctx, "so")
    e = SubElement.of(alg, SubWord(((0, 2), (1, 3)), ctx.e))
    nf = e.normal_form()
    assert nf.is_supported_on_basis()
    assert nf.embed() == e.embed()
    tops = {w.pairs: c for w, c in nf.terms.items() if w.degree() == 2}
    assert set(tops) == {((0, 3), (1, 2)), ((0, 1), (2, 3))}
    for c in tops.values():
        assert c == CoeffPoly.one(1)


def test_normal_form_idempotent():
    ctx = actx(3)
    alg = get_subalgebra(ctx, "so")
    rng = random.Random(97)
    for _ in range(5):
        e = random_subelement(alg, rng, max_degree=3)
        nf = e.normal_form()
        assert nf.normal_form() == nf


def test_straightening_soundness_random():
    rng = random.Random(101)
    for family, n in (("so", 3), ("so", 4), ("gl", 2), ("gl", 3)):
        ctx = actx(n)
        alg = get_subalgebra(ctx, family)
        for _ in range(6):
            e = random_subelement(alg, rng, max_degree=3)
            nf = e.normal_form()
            assert nf.is_supported_on_basis()
            assert nf.embed() == e.embed()


@pytest.mark.parametrize("family,n,d", [("so", 4, 3), ("gl", 3, 2)])
def test_straightening_over_every_word(family, n, d):
    # so A4 d3 is the smallest case where crossing partners start apart
    ctx = actx(n)
    alg = get_subalgebra(ctx, family)
    basis = {w.pairs for k in range(d + 1) for w in alg.basis(k)}
    for k in range(d + 1):
        for pairs in itertools.product(alg.pairs, repeat=k):
            word = SubWord(pairs, ctx.e)
            nf = alg.normal_form_word(word)
            assert (nf == {word: ctx.one}) == (pairs in basis)
            assert all(w.pairs in basis for w in nf)
            assert SubElement(alg, nf).embed() == alg.embed_word(word)


def test_normal_form_equivariance():
    ctx = actx(3)
    alg = get_subalgebra(ctx, "so")
    rng = random.Random(103)
    grp = ctx.rs.group()
    for _ in range(4):
        e = random_subelement(alg, rng, max_degree=2)
        sigma = grp[rng.randrange(len(grp))]
        left = SubElement.of(alg, SubWord((), sigma))
        right = SubElement.of(alg, SubWord((), sigma.inverse()))
        conj = (left * e) * right
        assert conj.embed() == (group(ctx, sigma) * e.embed()) * group(ctx, sigma.inverse())


def test_gl_normal_form_example():
    ctx = actx(2)
    alg = get_subalgebra(ctx, "gl")
    e = SubElement.of(alg, SubWord(((0, 1), (1, 0)), ctx.e))
    nf = e.normal_form()
    assert nf.is_supported_on_basis()
    assert nf.embed() == e.embed()


def test_gl_dual_path_oracle():
    ctx = actx(2)
    alg = get_subalgebra(ctx, "gl")
    dctx = DunklContext.of(ctx)
    rng = random.Random(107)
    word = SubElement.of(alg, SubWord(((0, 1), (1, 0)), ctx.e))
    pbw = word.embed()
    e12 = e_generator(ctx, 0, 1)
    e21 = e_generator(ctx, 1, 0)
    for _ in range(5):
        exp = tuple(rng.randint(0, 2) for _ in range(2))
        p = dctx.monomial(exp)
        assert apply_element(dctx, pbw, p) == apply_element(dctx, e12, apply_element(dctx, e21, p))


def test_degree_bound_raised():
    ctx = actx(2)
    alg = SubAlgebra(ctx, "so", max_degree=3)
    with pytest.raises(DegreeBound):
        alg.normal_form_word(SubWord(((0, 1),) * 4, ctx.e))


def test_h_omega_and_rho_subelements_match_engine():
    ctx = actx(3)
    so = get_subalgebra(ctx, "so")
    assert h_omega_subelement(so).embed() == angular_hamiltonian(ctx)
    gl = get_subalgebra(ctx, "gl")
    assert rho_subelement(gl).embed() == rho(ctx)


def test_pbw_rank_small():
    ctx = actx(3)
    result, details = pbw_rank_check("so", ctx, 2)
    assert result.passed
    assert [e["count"] for e in details["per_degree"]] == [1, 3, 6]
    ctx2 = actx(2)
    result2, details2 = pbw_rank_check("gl", ctx2, 2)
    assert result2.passed
    assert [e["count"] for e in details2["per_degree"]] == [1, 4, 9]


@pytest.mark.parametrize("family,group,n,d", [
    ("so", "A", 3, 4), ("so", "A", 4, 2), ("so", "D", 4, 3), ("gl", "A", 2, 2), ("gl", "A", 3, 2),
])
def test_pbw_rank_check_matches_the_embedded_oracle(family, group, n, d):
    ctx = actx(n, group)
    result, details = pbw_rank_check(family, ctx, d)
    oracle, oracle_details = embedded_rank_oracle(family, ctx, d)
    assert result.passed and oracle.passed, (result.failures, oracle.failures)
    assert (result.name, result.instances) == (oracle.name, oracle.instances)
    keys = ("degree", "count", "combinatorial", "cumulative", "rank")
    assert details["per_degree"] == [{k: e[k] for k in keys} for e in oracle_details["per_degree"]]
    for e in oracle_details["per_degree"]:
        assert e["numeric_ranks"] == [e["rank"]] * SPECIALIZATIONS


def test_centralizer_gl_n2():
    ctx = actx(2)
    sols = centralizer("gl", ctx, 2)
    assert len(sols) == 3
    gl = get_subalgebra(ctx, "gl")
    rho_sub = rho_subelement(gl)
    rho_sq = rho_sub * rho_sub
    one_sub = SubElement.of(gl, SubWord((), ctx.e))
    vectors = [sol.terms for sol in sols]
    for cand in (one_sub, rho_sub, rho_sq):
        assert in_span(vectors, cand.normal_form().terms)


def test_centralizer_so_n3_low_degree():
    ctx = actx(3)
    sols = centralizer("so", ctx, 2)
    assert len(sols) == 2
    so = get_subalgebra(ctx, "so")
    for cand in (SubElement.of(so, SubWord((), ctx.e)), h_omega_subelement(so)):
        assert in_span([sol.terms for sol in sols], cand.normal_form().terms)


def test_centralizer_solutions_commute():
    ctx = actx(2)
    sols = centralizer("gl", ctx, 1)
    for sol in sols:
        p = sol.embed()
        for k in range(2):
            for l in range(2):
                e_kl = e_generator(ctx, k, l)
                assert (p * e_kl - e_kl * p).is_zero()
        for s in ctx.rs.reflections():
            w = group(ctx, s)
            assert (p * w - w * p).is_zero()


# ---------------------------------------------------------------------------
# The centralizer against the embedded oracle
# ---------------------------------------------------------------------------

def embedded_centralizer(family, ctx, d):
    """The centralizer solved in H_c: every unknown word times tail is
    embedded in PBW form and commuted there with every generator and every
    reflection, one row per (constraint, H_c monomial)."""
    alg = get_subalgebra(ctx, family)
    grp = ctx.rs.group()
    unknowns = []
    for deg in range(d + 1):
        for word in alg.basis(deg):
            for tail in grp:
                unknowns.append(SubWord(word.pairs, tail))
    if family == "so":
        constraints = [angular_momentum_ij(ctx, i, j)
                       for i in range(ctx.n) for j in range(i + 1, ctx.n)]
    else:
        constraints = [e_generator(ctx, k, l) for k in range(ctx.n) for l in range(ctx.n)]
    constraints += [group(ctx, s) for s in ctx.rs.reflections()]
    rows_by_key = {}
    for u_idx, word in enumerate(unknowns):
        p = alg.embed_word(word)
        for c_idx, gen in enumerate(constraints):
            com = p * gen - gen * p
            for key, coeff in com.terms.items():
                rows_by_key.setdefault((c_idx, key), {})[u_idx] = coeff
    return unknowns, sparse_nullspace(list(rows_by_key.values()), len(unknowns), ctx.nsym)


def rotated_b2(pad=0):
    """B2 rotated by (3/5, 4/5) in the first two coordinates of R^(2 + pad):
    no element is a signed permutation, and for pad = 1 the W-conjugates of
    M_12 span M_12 alone."""
    base = build_root_system("B", 2)
    roots = [tuple(ROT[0][k] * r[0] + ROT[1][k] * r[1] for k in range(2)) + (0,) * pad
             for r in base.positive_roots]
    return load_root_system({"rank": 2 + pad, "roots": [[str(c) for c in r] for r in roots],
                             "orbits": [o + 1 for o in base.orbit_of], "label": "B2-rotated"})


@pytest.mark.parametrize("family,make,d", [
    ("so", lambda: build_root_system("B", 2), 4),
    ("gl", lambda: build_root_system("A", 2), 2),
    ("so", lambda: build_root_system("A", 3), 3),
    ("so", rotated_b2, 3),
    ("so", lambda: rotated_b2(1), 2),
], ids=["so-B2-d4", "gl-A2-d2", "so-A3-d3", "so-B2rot-d3", "so-B2rot-R3-d2"])
def test_centralizer_matches_embedded_oracle(family, make, d):
    # separate contexts, so words are compared by their rendering
    sols = centralizer(family, CherednikContext(make()), d)
    unknowns, vectors = embedded_centralizer(family, CherednikContext(make()), d)
    assert len(sols) == len(vectors)
    for mine, theirs in zip(sols, vectors):
        assert [(word.render(family), c) for word, c in mine.terms.items()] == \
            [(unknowns[k].render(family), theirs[k]) for k in sorted(theirs)]


def test_constraint_pairs_keep_what_the_conjugates_miss():
    assert constraint_pairs(get_subalgebra(actx(4), "so")) == [(0, 1)]
    assert constraint_pairs(get_subalgebra(actx(3, "B"), "gl")) == [(0, 0), (0, 1)]
    rotated = CherednikContext(rotated_b2(1))
    # the rotated plane is W-stable, so M_12 maps to +-M_12 and M_13 to the
    # span of M_13 and M_23
    assert constraint_pairs(get_subalgebra(rotated, "so")) == [(0, 1), (0, 2)]


def test_symbol_certificate_rejects_a_dependent_word(monkeypatch):
    ctx = actx(4)
    alg = get_subalgebra(ctx, "so")
    symbol_certificate(alg, 4)
    real = SubAlgebra.basis

    def with_crossing(self, d):
        # M_13 M_24 has the symbol p13 p24 = p12 p34 + p14 p23 (Pluecker)
        words = real(self, d)
        if d == 2:
            words.append(SubWord(((0, 2), (1, 3)), words[0].tail))
        return words

    monkeypatch.setattr(SubAlgebra, "basis", with_crossing)
    with pytest.raises(CertificateFailure):
        symbol_certificate(alg, 2)
    # pbw_rank_check decides by the same symbols; the embedded oracle misses
    # the word, whose S-terms make it independent in H_c, so only the
    # symbols see that it breaks the filtration
    result, _ = pbw_rank_check("so", ctx, 2)
    assert _failure_texts(result) == ["degree 2 count 21 != combinatorial 20",
                                      "degree <= 2 rank 27 != word count 28"]
    oracle, _ = embedded_rank_oracle("so", ctx, 2)
    assert _failure_texts(oracle) == ["degree 2 count 21 != combinatorial 20"]
    # centralizer certifies before it solves
    with pytest.raises(CertificateFailure):
        centralizer("so", ctx, 1)

    def with_repeat(self, d):
        words = real(self, d)
        return words + words[-1:] if d == 2 else words

    monkeypatch.setattr(SubAlgebra, "basis", with_repeat)
    monkeypatch.setattr(subalgebra, "count_noncrossing_multisets",
                        lambda n, d: count_noncrossing_multisets(n, d) + (d == 2))
    for check in (pbw_rank_check, embedded_rank_oracle):
        result, _ = check("so", ctx, 2)
        assert _failure_texts(result) == ["degree <= 2 rank 27 != word count 28"], check


def test_centralizer_rejects_an_element_that_does_not_commute(monkeypatch):
    ctx = actx(2)
    real = subalgebra.sparse_nullspace

    def with_extra(rows, ncols, nsym):
        # column ncols - 1 is a degree-1 word times a tail
        return real(rows, ncols, nsym) + [{ncols - 1: CoeffPoly.one(nsym)}]

    monkeypatch.setattr(subalgebra, "sparse_nullspace", with_extra)
    with pytest.raises(CertificateFailure):
        centralizer("gl", ctx, 1)


def test_centralizer_degree_bound_checked_first():
    ctx = actx(2)
    alg = get_subalgebra(ctx, "so")
    with pytest.raises(DegreeBound):
        centralizer("so", ctx, alg.max_degree)
    assert not alg._memo
