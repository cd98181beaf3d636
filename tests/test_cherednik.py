"""PBW rewriting engine: normal forms, named elements, (anti)automorphisms."""

import random
import sys
import threading
from fractions import Fraction

import pytest

from dunklalg.cherednik import (
    CherednikContext,
    ContextMismatch,
    OddRank,
    PBWElement,
    WrongRootSystem,
    _bump,
    adjoint,
    angular_hamiltonian,
    angular_momentum,
    angular_momentum_ij,
    commutator,
    d_gen,
    e_generator,
    euler_xd,
    exchange_antiauto,
    gamma_pm,
    group,
    hamiltonian_H,
    m_squared,
    one,
    pfaffian_sum,
    rho,
    s_elem,
    s_sum,
    scalar,
    x_gen,
    x_squared,
    zero,
)
from dunklalg.coxeter import build_root_system
from dunklalg.exactmath import CoeffPoly, add_term
from test_general_group import rotated_b2


def ctx_a(n):
    return CherednikContext(build_root_system("A", n))


def ctx_b(n):
    return CherednikContext(build_root_system("B", n))


def rand_element(ctx, rng, nterms=3, maxexp=2, grp=None):
    grp = grp if grp is not None else ctx.rs.group()
    p = zero(ctx)
    for _ in range(rng.randint(1, nterms)):
        a = tuple(rng.randint(0, maxexp) for _ in range(ctx.n))
        b = tuple(rng.randint(0, maxexp) for _ in range(ctx.n))
        w = grp[rng.randrange(len(grp))]
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        p = p + PBWElement(ctx, {(a, w, b): CoeffPoly.const(c, ctx.nsym)}) if c else p
    return p


def test_d_times_x_single():
    ctx = ctx_a(2)
    got = d_gen(ctx, 0) * x_gen(ctx, 0)
    expected = x_gen(ctx, 0) * d_gen(ctx, 0) + s_elem(ctx, 0, 0)
    assert got == expected
    assert got.canonical_str() == "x1*D1 + 1 + g*s(12)"


def test_d_times_x_product():
    ctx = ctx_a(2)
    x1x2 = x_gen(ctx, 0) * x_gen(ctx, 1)
    got = d_gen(ctx, 0) * x1x2
    expected = x1x2 * d_gen(ctx, 0) + x_gen(ctx, 1)
    assert got == expected


def test_group_pushes_right():
    ctx = ctx_a(2)
    s12 = group(ctx, ctx.rs.reflection(0))
    assert s12 * x_gen(ctx, 0) == x_gen(ctx, 1) * s12


def test_xx_and_dd_commute():
    ctx = ctx_a(3)
    assert commutator(x_gen(ctx, 0), x_gen(ctx, 1)).is_zero()
    assert commutator(d_gen(ctx, 0), d_gen(ctx, 1)).is_zero()


def M(ctx, i, j):
    return angular_momentum_ij(ctx, i, j)


def S(ctx, i, j):
    return s_elem(ctx, i, j)


def test_son_relation_all_distinct():
    ctx = ctx_a(4)
    lhs = commutator(M(ctx, 0, 1), M(ctx, 2, 3))
    rhs = (M(ctx, 0, 3) * S(ctx, 1, 2) + M(ctx, 1, 2) * S(ctx, 0, 3)
           - M(ctx, 0, 2) * S(ctx, 3, 1) - M(ctx, 1, 3) * S(ctx, 0, 2))
    assert lhs == rhs


def test_son_relation_shared_index():
    ctx = ctx_a(3)
    # k = j case: [M_ij, M_jl]
    i, j, l = 0, 1, 2
    lhs = commutator(M(ctx, i, j), M(ctx, j, l))
    rhs = (M(ctx, i, l) * S(ctx, j, j) + M(ctx, j, j) * S(ctx, i, l)
           - M(ctx, i, j) * S(ctx, l, j) - M(ctx, j, l) * S(ctx, i, j))
    assert lhs == rhs


def test_angular_momentum_antisymmetry_bilinearity():
    ctx = ctx_a(3)
    assert angular_momentum(ctx, (1, 0, 0), (1, 0, 0)).is_zero()
    assert angular_momentum(ctx, (1, 0, 0), (0, 1, 0)) == x_gen(ctx, 0) * d_gen(ctx, 1) - x_gen(ctx, 1) * d_gen(ctx, 0)
    xi = (1, 2, 0)
    eta = (0, -1, 3)
    assert angular_momentum(ctx, xi, eta) == -angular_momentum(ctx, eta, xi)


@pytest.mark.parametrize("family,n", [("A", 3), ("A", 4), ("B", 3)])
def test_angular_momentum_ij_is_angular_momentum_of_unit_vectors(family, n):
    # M_ij is built from its two terms; angular_momentum, the general-vector
    # path, is the oracle, also for the order of the terms
    ctx = CherednikContext(build_root_system(family, n))
    for i in range(n):
        for j in range(n):
            unit = [[int(k == t) for k in range(n)] for t in (i, j)]
            want = angular_momentum(ctx, *unit)
            got = angular_momentum_ij(ctx, i, j)
            assert got == want and list(got.terms) == list(want.terms)
            assert got.is_zero() == (i == j)


def test_angular_momentum_equivariance():
    ctx = ctx_b(2)
    for w in ctx.rs.group():
        lhs = group(ctx, w) * M(ctx, 0, 1)
        rhs = angular_momentum(ctx, w.apply((Fraction(1), Fraction(0))),
                               w.apply((Fraction(0), Fraction(1)))) * group(ctx, w)
        assert lhs == rhs


def _angular_momentum_full_loop(ctx, xi, eta):
    # the n^2 Fraction loop angular_momentum used before it visited only its
    # support: the oracle for values and term order
    xi = tuple(Fraction(v) for v in xi)
    eta = tuple(Fraction(v) for v in eta)
    terms = {}
    for i, a in enumerate(xi):
        for j, b in enumerate(eta):
            c = a * b - (eta[i] * xi[j])
            if c:
                add_term(terms, (_bump(ctx.zero_exp, i), ctx.e, _bump(ctx.zero_exp, j)),
                         CoeffPoly.const(c, ctx.nsym))
    return PBWElement(ctx, terms)


@pytest.mark.parametrize("name", ["B3", "D4", "B2-rotated"])
def test_angular_momentum_of_reflected_columns_matches_full_loop(name):
    rs = {"B3": lambda: build_root_system("B", 3), "D4": lambda: build_root_system("D", 4),
          "B2-rotated": rotated_b2}[name]()
    ctx = CherednikContext(rs)
    as_int = lambda col: tuple(v.numerator if v.denominator == 1 else v for v in col)
    for w in rs.reflections():
        gw, gwinv = group(ctx, w), group(ctx, w.inverse())
        for i in range(ctx.n):
            for j in range(ctx.n):
                xi, eta = w.cols[i], w.cols[j]
                got = angular_momentum(ctx, xi, eta)
                want = _angular_momentum_full_loop(ctx, xi, eta)
                assert list(got.terms.items()) == list(want.terms.items())
                assert got == gw * angular_momentum_ij(ctx, i, j) * gwinv
                for spelled in ((as_int(xi), as_int(eta)),
                                (tuple(map(str, xi)), tuple(map(str, eta)))):
                    again = angular_momentum(ctx, *spelled)
                    assert list(again.terms.items()) == list(got.terms.items())


def test_e_generator_difference_is_m():
    ctx = ctx_a(3)
    assert e_generator(ctx, 0, 1) - e_generator(ctx, 1, 0) == M(ctx, 0, 1)


def test_e_generator_cartan_commutator():
    ctx = ctx_a(2)
    lhs = commutator(e_generator(ctx, 0, 0), e_generator(ctx, 1, 1))
    rhs = (e_generator(ctx, 0, 0) - e_generator(ctx, 1, 1)) * S(ctx, 0, 1)
    assert lhs == rhs


def test_e_generator_adjoint():
    ctx = ctx_a(3)
    assert adjoint(e_generator(ctx, 0, 1)) == e_generator(ctx, 1, 0)


def test_hamiltonian_rank_one():
    ctx = ctx_a(1)
    assert hamiltonian_H(ctx) == (d_gen(ctx, 0) * d_gen(ctx, 0)).scaled(Fraction(-1, 2))


def test_rho_small():
    ctx = ctx_a(2)
    g = CoeffPoly.symbol(0, 1)
    expected = e_generator(ctx, 0, 0) + e_generator(ctx, 1, 1) + group(ctx, ctx.rs.reflection(0)).scaled(g)
    assert rho(ctx) == expected
    assert commutator(rho(ctx), e_generator(ctx, 0, 1)).is_zero()


def test_rho_is_confined_hamiltonian():
    # rho = H + x^2/2 - N/2 must hold identically in the engine
    for n in (2, 3):
        ctx = ctx_a(n)
        expected = hamiltonian_H(ctx) + x_squared(ctx).scaled(Fraction(1, 2)) - scalar(ctx, Fraction(n, 2))
        assert rho(ctx) == expected


def test_gamma_pm_values():
    ctx2 = ctx_a(2)
    g = CoeffPoly.symbol(0, 1)
    assert gamma_pm(ctx2, 1) == g * g * Fraction(1, 2)
    assert gamma_pm(ctx2, -1) == g * g * Fraction(1, 2)
    ctx3 = ctx_a(3)
    assert gamma_pm(ctx3, 1) == (g * g * 9 + g * 3) * Fraction(1, 2)
    with pytest.raises(WrongRootSystem):
        gamma_pm(ctx_b(2), 1)


def test_gamma_pm_matches_restricted_angular_constant():
    # gamma_pm = sigma (sigma - N + 2) / 2 with sigma = -+ g N(N-1)/2
    for n in (2, 3, 4, 5):
        ctx = ctx_a(n)
        g = CoeffPoly.symbol(0, 1)
        for sign in (1, -1):
            sigma = g * Fraction(-sign * n * (n - 1), 2)
            assert gamma_pm(ctx, sign) == (sigma * sigma - sigma * (n - 2)) * Fraction(1, 2)


def test_adjoint_fixes_engine_relations():
    ctx = ctx_a(3)
    assert adjoint(M(ctx, 0, 1)) == -M(ctx, 0, 1)
    s12 = group(ctx, ctx.rs.reflection(0))
    assert adjoint(s12) == s12
    assert adjoint(s_sum(ctx)) == s_sum(ctx)


def test_adjoint_involution_and_antimultiplicative():
    rng = random.Random(41)
    ctx = ctx_a(3)
    for _ in range(8):
        p = rand_element(ctx, rng)
        q = rand_element(ctx, rng)
        assert adjoint(adjoint(p)) == p
        assert adjoint(p * q) == adjoint(q) * adjoint(p)


def test_exchange_on_mixed_word():
    ctx = ctx_a(2)
    got = exchange_antiauto(x_gen(ctx, 0) * d_gen(ctx, 1))
    assert got == x_gen(ctx, 1) * d_gen(ctx, 0)


def test_exchange_involution_and_antimultiplicative():
    rng = random.Random(43)
    ctx = ctx_a(3)
    for _ in range(8):
        p = rand_element(ctx, rng)
        q = rand_element(ctx, rng)
        assert exchange_antiauto(exchange_antiauto(p)) == p
        assert exchange_antiauto(p * q) == exchange_antiauto(q) * exchange_antiauto(p)


def test_exchange_sends_h_to_x_squared():
    ctx = ctx_a(3)
    assert exchange_antiauto(hamiltonian_H(ctx)) == x_squared(ctx).scaled(Fraction(-1, 2))
    assert exchange_antiauto(M(ctx, 0, 1)) == -M(ctx, 0, 1)


def test_centrality_h_and_x2():
    for n in (3,):
        ctx = ctx_a(n)
        for i in range(n):
            for j in range(i + 1, n):
                assert commutator(hamiltonian_H(ctx), M(ctx, i, j)).is_zero()
                assert commutator(x_squared(ctx), M(ctx, i, j)).is_zero()


def test_angular_hamiltonian_central_small():
    ctx = ctx_a(3)
    homega = angular_hamiltonian(ctx)
    for i in range(3):
        for j in range(i + 1, 3):
            assert commutator(homega, M(ctx, i, j)).is_zero()
    for w in ctx.rs.reflections():
        assert commutator(homega, group(ctx, w)).is_zero()


def test_m2_decomposition_identity():
    # M^2 = x^2 D^2 - (x.D)^2 + (2S - N + 2)(x.D)
    for ctx in (ctx_a(2), ctx_a(3), ctx_b(2)):
        d2 = hamiltonian_H(ctx).scaled(-2)
        xd = euler_xd(ctx)
        scoef = s_sum(ctx).scaled(2) - scalar(ctx, ctx.n - 2)
        rhs = x_squared(ctx) * d2 - xd * xd + scoef * xd
        assert m_squared(ctx) == rhs


def test_pfaffian_rank_two_single_factor():
    ctx = ctx_a(2)
    assert pfaffian_sum(ctx) == M(ctx, 0, 1).scaled(2)


def test_pfaffian_vanishes_rank_four():
    ctx = ctx_a(4)
    assert pfaffian_sum(ctx).is_zero()


def test_pfaffian_negative_control():
    # flipping one factor's sign must break the cancellation
    ctx = ctx_a(4)
    acc = zero(ctx)
    from itertools import permutations
    from dunklalg.cherednik import _perm_sign
    for perm in permutations(range(4)):
        sign = _perm_sign(perm)
        prod = one(ctx)
        for k in range(0, 4, 2):
            m = M(ctx, perm[k], perm[k + 1])
            if k == 0 and perm[0] == 0 and perm[1] == 1:
                m = -m
            prod = prod * m
        acc = acc + prod.scaled(sign)
    assert not acc.is_zero()


def test_odd_rank_rejected():
    with pytest.raises(OddRank):
        pfaffian_sum(ctx_a(3))


def test_degree_and_leading():
    ctx = ctx_a(3)
    assert commutator(x_gen(ctx, 0), x_gen(ctx, 1)).is_zero()
    assert M(ctx, 0, 1).filtration_degree() == 2
    lead = commutator(M(ctx, 0, 1), M(ctx, 1, 2)).leading_part()
    assert lead.filtration_degree() == 2
    assert any(not w.is_identity() for (_, w, _) in lead.terms)


def test_associativity_of_normal_form():
    rng = random.Random(47)
    ctx = ctx_a(3)
    for _ in range(6):
        p = rand_element(ctx, rng, nterms=2, maxexp=1)
        q = rand_element(ctx, rng, nterms=2, maxexp=1)
        r = rand_element(ctx, rng, nterms=2, maxexp=1)
        assert (p * q) * r == p * (q * r)


def test_context_mismatch():
    p = x_gen(ctx_a(2), 0)
    q = x_gen(ctx_a(2), 0)
    with pytest.raises(ContextMismatch):
        p * q


def test_negative_power_raises():
    with pytest.raises(ValueError, match="negative power"):
        x_gen(ctx_a(2), 0) ** -1


def a_plus(ctx, i):
    return x_gen(ctx, i) - d_gen(ctx, i)


def a_minus(ctx, i):
    return x_gen(ctx, i) + d_gen(ctx, i)


def test_creation_annihilation_relations():
    ctx = ctx_a(3)
    for i in range(3):
        for j in range(3):
            # with the sqrt(2)/2 normalization cleared, a factor 1/2 remains
            assert commutator(a_minus(ctx, i), a_plus(ctx, j)).scaled(Fraction(1, 2)) == S(ctx, i, j)
            assert commutator(a_minus(ctx, i), a_minus(ctx, j)).is_zero()
            assert commutator(a_plus(ctx, i), a_plus(ctx, j)).is_zero()


def test_permutation_creation_commutators():
    ctx = ctx_a(3)
    for ap in (a_plus, a_minus):
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                assert S(ctx, i, j) * ap(ctx, i) == ap(ctx, j) * S(ctx, i, j)
                k = next(k for k in range(3) if k not in (i, j))
                assert commutator(S(ctx, i, j), ap(ctx, k)).is_zero()
                # [S_jj, a_i] = [S_ij, a_j] = (a_i - a_j) S_ij
                lhs1 = commutator(S(ctx, j, j), ap(ctx, i))
                lhs2 = commutator(S(ctx, i, j), ap(ctx, j))
                rhs = (ap(ctx, i) - ap(ctx, j)) * S(ctx, i, j)
                assert lhs1 == rhs and lhs2 == rhs


def test_diagonal_permutation_creation_commutator():
    ctx = ctx_a(3)
    for ap in (a_plus, a_minus):
        for j in range(3):
            lhs = commutator(S(ctx, j, j), ap(ctx, j))
            rhs = zero(ctx)
            for k in range(3):
                if k != j:
                    rhs = rhs + (ap(ctx, j) - ap(ctx, k)) * S(ctx, k, j)
            assert lhs == rhs


def test_concurrent_multiplication_shares_caches():
    # the rewriting memo is read-mostly; parallel products must agree
    ctx = ctx_a(3)
    expected = commutator(M(ctx, 0, 1), M(ctx, 1, 2))
    results = [None] * 8
    def work(slot):
        results[slot] = commutator(M(ctx, 0, 1), M(ctx, 1, 2))
    threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == expected for r in results)


def test_canonical_str_deterministic():
    ctx = ctx_a(2)
    p = d_gen(ctx, 0) * x_gen(ctx, 0)
    assert p.canonical_str() == (d_gen(ctx, 0) * x_gen(ctx, 0)).canonical_str()
    assert zero(ctx).canonical_str() == "0"


def test_b3_products_render_as_with_fraction_coefficients():
    # two coupling symbols and halves: the renderings are the ones made when
    # every coefficient was a Fraction, so ints change no output byte
    ctx = CherednikContext(build_root_system("B", 3))
    E = lambda i, j: e_generator(ctx, i, j)
    assert commutator(E(0, 1), E(1, 0)).canonical_str() == (
        "1/2*g1*x1^2*w(1,-3,-2) + g2*x1^2*w(1,-2,3) + 1/2*x1^2 + 1/2*g1*x1^2*s(23)"
        " - 1/2*g1*x2^2*w(-3,2,-1) - g2*x2^2*w(-1,2,3) - 1/2*x2^2 - 1/2*g1*x2^2*s(13)"
        " + g1*x1*w(-2,-1,3)*D1 + g1*x1*s(12)*D1 - g1*x2*w(-2,-1,3)*D2 - g1*x2*s(12)*D2"
        " - 1/2*g1*w(1,-3,-2)*D1^2 - g2*w(1,-2,3)*D1^2 - 1/2*D1^2 - 1/2*g1*s(23)*D1^2"
        " + 1/2*g1*w(-3,2,-1)*D2^2 + g2*w(-1,2,3)*D2^2 + 1/2*D2^2 + 1/2*g1*s(13)*D2^2")
    assert (E(1, 0) * angular_momentum_ij(ctx, 0, 2)).canonical_str() == (
        "1/2*x1^2*x2*D3 - 1/2*x1*x2*x3*D1 - 1/2*x1^2*D2*D3 + 1/2*x1*x2*D1*D3"
        " + 1/2*x1*x3*D1*D2 - 1/2*x2*x3*D1^2 - 1/2*x1*D1*D2*D3 + 1/2*x3*D1^2*D2"
        " + 1/2*g1*x1*w(1,-3,-2)*D1 - 1/2*g1*x1*s(23)*D1 - 1/2*g1*x1*w(-2,-1,3)*D3"
        " + 1/2*g1*x1*s(12)*D3 - 1/2*g1*x2*w(-3,2,-1)*D1 + 1/2*g1*x2*s(13)*D1"
        " + 1/2*g1*x2*w(-3,2,-1)*D3 + g1*x2*w(-2,-1,3)*D3 + g2*x2*w(-1,2,3)*D3"
        " + 1/2*x2*D3 + g1*x2*s(12)*D3 + 1/2*g1*x2*s(13)*D3 + 1/2*g1*x3*w(-2,-1,3)*D1"
        " - 1/2*g1*x3*s(12)*D1 + 1/2*g1*w(1,-3,-2)*D1^2 - 1/2*g1*s(23)*D1^2"
        " + 1/2*g1*w(-3,2,-1)*D1*D2 - 1/2*g1*s(13)*D1*D2 - 1/2*g1*w(-3,2,-1)*D2*D3"
        " - g2*w(-1,2,3)*D2*D3 - 1/2*D2*D3 - 1/2*g1*s(13)*D2*D3")
    for c in (E(0, 1) * E(1, 2)).terms.values():
        assert all(type(v) in (int, Fraction) for v in c.terms.values())


# ---------------------------------------------------------------------------
# Products against a term-by-term oracle
# ---------------------------------------------------------------------------

def naive_term_mul(ctx, a1, w1, b1, a2, w2, b2):
    """(x^a1 w1 D^b1)(x^a2 w2 D^b2) as (key, coeff) pairs, one output term
    at a time with every group product and action recomputed: D^b1 x^a2
    through db_x, then x^alpha moved left across w1 and D^beta right across
    w2."""
    rs = ctx.rs
    w2inv = w2.inverse()
    for coef, alpha, u, beta in ctx.db_x(b1, a2):
        for f1, ax in rs.act_exp(w1, alpha):
            a_out = tuple(x + y for x, y in zip(a1, ax))
            w_out = (w1 * u) * w2
            c1 = coef * f1 if f1 != 1 else coef
            if beta == ctx.zero_exp:
                yield (a_out, w_out, b2), c1
            else:
                for f2, bx in rs.act_exp(w2inv, beta):
                    b_out = tuple(x + y for x, y in zip(bx, b2))
                    yield (a_out, w_out, b_out), (c1 * f2 if f2 != 1 else c1)


def naive_product(p, q):
    acc = {}
    for (a1, w1, b1), c1 in p.terms.items():
        for (a2, w2, b2), c2 in q.terms.items():
            c12 = c1 * c2
            for key, c in naive_term_mul(p.ctx, a1, w1, b1, a2, w2, b2):
                add_term(acc, key, c12 * c)
    return PBWElement(p.ctx, acc)


def naive_adjoint(p):
    ctx = p.ctx
    acc = {}
    for (a, w, b), c in p.terms.items():
        sign = -1 if sum(b) % 2 else 1
        for f, b2 in ctx.rs.act_exp(w, b):
            c0 = c * (sign * f)
            for key, c2 in naive_term_mul(ctx, ctx.zero_exp, w.inverse(), b2, a, ctx.e, ctx.zero_exp):
                add_term(acc, key, c0 * c2)
    return PBWElement(ctx, acc)


def outside_w_pool():
    # A2 with the automorphism w(-2,-1), which is not in W (roots is None)
    rs = build_root_system("A", 2)
    w = rs.element(((Fraction(0), Fraction(-1)), (Fraction(-1), Fraction(0))))
    assert w.roots is None and w.render() == "w(-2,-1)"
    return rs, rs.group() + (w,)


ORACLE_CASES = {
    "A3": lambda: (build_root_system("A", 3), None, 2),
    "B3": lambda: (build_root_system("B", 3), None, 2),
    "D4": lambda: (build_root_system("D", 4), None, 2),
    "B2-rotated": lambda: (rotated_b2(), None, 2),
    "A2-outside-W": lambda: outside_w_pool() + (2,),
}


def rand_symbolic_element(ctx, rng, keys, coeffs=None):
    """Terms on a random subset of keys; coefficients in every coupling
    symbol, with one or two terms, or taken from coeffs where given."""
    terms = {}
    for key in rng.sample(keys, rng.randint(1, len(keys))):
        if coeffs is not None and key in coeffs and rng.random() < 0.5:
            terms[key] = coeffs[key]
            continue
        c = CoeffPoly.zero(ctx.nsym)
        for _ in range(rng.randint(1, 2)):
            e = tuple(rng.randint(0, 2) for _ in range(ctx.nsym))
            c = c + CoeffPoly(ctx.nsym, {e: Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 2))})
        if c:
            terms[key] = c
    return PBWElement(ctx, terms)


DIFFERENCE_CASES = {
    "A3": lambda: build_root_system("A", 3),
    "B3": lambda: build_root_system("B", 3),          # two coupling symbols
    "B2-rotated": rotated_b2,
}


@pytest.mark.parametrize("name", sorted(DIFFERENCE_CASES))
def test_difference_matches_sum_of_negation_in_key_order(name):
    ctx = CherednikContext(DIFFERENCE_CASES[name]())
    rng = random.Random(sum(map(ord, name)) + 21)
    grp = ctx.rs.group()
    keys = [(tuple(rng.randint(0, 1) for _ in range(ctx.n)), grp[rng.randrange(len(grp))],
             tuple(rng.randint(0, 1) for _ in range(ctx.n))) for _ in range(6)]
    for _ in range(25):
        p = rand_symbolic_element(ctx, rng, keys)
        # q and s copy some of p's coefficients, so shared keys cancel in p - q
        # and come back in (p - q) - s or (p - q) - (-q)
        q = rand_symbolic_element(ctx, rng, keys, p.terms)
        s = rand_symbolic_element(ctx, rng, keys, p.terms)
        r = p - q
        for a, b in ((p, q), (q, p), (p, p), (r, s), (r, -q), (r, p), (s, r)):
            got, want = a - b, a + (-b)
            assert got == want
            # key order feeds row and column order downstream
            assert list(got.terms) == list(want.terms)
        assert (p - p).is_zero()


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_products_match_term_by_term_oracle(name):
    rs, grp, maxexp = ORACLE_CASES[name]()
    ctx = CherednikContext(rs)
    rng = random.Random(sum(map(ord, name)))
    for _ in range(6):
        p = rand_element(ctx, rng, nterms=3, maxexp=maxexp, grp=grp)
        q = rand_element(ctx, rng, nterms=3, maxexp=maxexp, grp=grp)
        for got, expected in ((p * q, naive_product(p, q)),
                              (q * p, naive_product(q, p)),
                              (adjoint(p), naive_adjoint(p))):
            assert got == expected
            # key order feeds row and column order downstream
            assert list(got.terms) == list(expected.terms)


def test_cold_memo_race_matches_a_separate_context():
    # threads that switch often fill the memos of a fresh context together;
    # every result must equal, key order included, the product computed
    # afterwards in a separate context
    rs = build_root_system("B", 3)

    def operands(ctx):
        rng = random.Random(19)
        ops = [rand_element(ctx, rng, nterms=2, maxexp=2) for _ in range(4)]
        ops += [M(ctx, 0, 1), M(ctx, 1, 2), e_generator(ctx, 0, 2)]
        return [(p, q) for p in ops for q in ops]

    ctx = CherednikContext(rs)
    pairs = operands(ctx)
    results = []

    def work(shift):
        order = pairs[shift:] + pairs[:shift]
        out = [p * q for p, q in order]
        results.append(out[len(pairs) - shift:] + out[:len(pairs) - shift])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(3 * k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == len(threads)
    expected = [p * q for p, q in operands(CherednikContext(rs))]
    for out in results:
        for got, exp in zip(out, expected):
            assert got.terms == exp.terms
            assert list(got.terms) == list(exp.terms)


def test_repeated_product_reads_only_templates(monkeypatch):
    ctx = ctx_b(3)
    p = e_generator(ctx, 0, 1) + M(ctx, 1, 2)
    q = M(ctx, 0, 2) * group(ctx, ctx.rs.reflection(1))
    calls = []
    db_x = CherednikContext.db_x

    def counted(self, b, c):
        calls.append((b, c))
        return db_x(self, b, c)

    monkeypatch.setattr(CherednikContext, "db_x", counted)
    first = p * q
    assert calls
    filled = len(ctx._tm)
    calls.clear()
    second = p * q
    assert calls == [] and len(ctx._tm) == filled
    assert second == first and list(second.terms) == list(first.terms)
