"""The polynomial representation: Dunkl operators and the evaluation oracle."""

import random
from fractions import Fraction
from functools import partial

import pytest

from dunklalg.cherednik import (
    CherednikContext,
    angular_momentum_ij,
    d_gen,
    group,
    one,
    x_gen,
)
from dunklalg.coxeter import build_root_system

from test_general_group import rotated_b2
from dunklalg.exactmath import CoeffPoly, LocPoly, XPoly
from dunklalg.polyrep import (
    DunklContext,
    _hamiltonian_lhs,
    apply_element,
    apply_generator_word,
    dunkl_apply,
    dunkl_apply_i,
    monomials_up_to,
    loc_act_group,
    nabla_apply,
    restrict_check,
    to_loc,
    verify_hamiltonian_identity,
)


def dctx(n, family="A"):
    return DunklContext(build_root_system(family, n))


def rand_poly(ctx, rng, deg=3, nterms=4):
    p = ctx.zero_poly()
    for _ in range(nterms):
        exp = tuple(rng.randint(0, deg) for _ in range(ctx.n))
        if sum(exp) > deg:
            continue
        p = p + ctx.monomial(exp).scaled(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return p


def test_dunkl_on_coordinate():
    ctx = dctx(2)
    x1 = ctx.monomial((1, 0))
    got = dunkl_apply_i(ctx, 0, x1)
    g = CoeffPoly.symbol(0, 1)
    expected = XPoly.const(CoeffPoly.one(1) + g, 2, 1)
    assert got == expected


def test_dunkl_on_constant():
    ctx = dctx(3)
    assert dunkl_apply_i(ctx, 0, ctx.one_poly().scaled(Fraction(5, 7))).is_zero()


def test_dunkl_operators_commute():
    rng = random.Random(53)
    for family, n in (("A", 3), ("B", 2)):
        ctx = dctx(n, family)
        for _ in range(6):
            p = rand_poly(ctx, rng, deg=4)
            for i in range(ctx.n):
                for j in range(i + 1, ctx.n):
                    ij = dunkl_apply_i(ctx, i, dunkl_apply_i(ctx, j, p))
                    ji = dunkl_apply_i(ctx, j, dunkl_apply_i(ctx, i, p))
                    assert ij == ji


def test_dunkl_lowers_degree_by_one():
    rng = random.Random(59)
    ctx = dctx(3)
    for d in range(1, 5):
        mono = ctx.monomial(tuple([d] + [0] * (ctx.n - 1)))
        out = dunkl_apply_i(ctx, 0, mono)
        assert out.is_zero() or out.degree() == d - 1


def test_dunkl_equivariance():
    ctx = dctx(3)
    rng = random.Random(61)
    grp = ctx.rs.group()
    for _ in range(10):
        p = rand_poly(ctx, rng)
        w = grp[rng.randrange(len(grp))]
        xi = tuple(Fraction(rng.randint(-2, 2)) for _ in range(3))
        lhs = ctx.act_group(w, dunkl_apply(ctx, xi, p))
        rhs = dunkl_apply(ctx, w.apply(xi), ctx.act_group(w, p))
        assert lhs == rhs


def test_apply_identity():
    actx = CherednikContext(build_root_system("A", 3))
    ctx = DunklContext.of(actx)
    rng = random.Random(67)
    p = rand_poly(ctx, rng)
    assert apply_element(ctx, one(actx), p) == p


def test_apply_respects_products():
    actx = CherednikContext(build_root_system("A", 3))
    ctx = DunklContext.of(actx)
    rng = random.Random(71)
    grp = actx.rs.group()
    gens = ([("x", i) for i in range(3)] + [("D", i) for i in range(3)]
            + [("w", w) for w in grp])
    for _ in range(25):
        word = [gens[rng.randrange(len(gens))] for _ in range(rng.randint(1, 4))]
        p = rand_poly(ctx, rng, deg=3)
        stepwise = apply_generator_word(ctx, word, p)
        elem = one(actx)
        for kind, payload in word:
            if kind == "x":
                elem = elem * x_gen(actx, payload)
            elif kind == "D":
                elem = elem * d_gen(actx, payload)
            else:
                elem = elem * group(actx, payload)
        assert apply_element(ctx, elem, p) == stepwise


def test_apply_multiplicative_on_elements():
    actx = CherednikContext(build_root_system("A", 3))
    ctx = DunklContext.of(actx)
    rng = random.Random(73)
    m12 = angular_momentum_ij(actx, 0, 1)
    m23 = angular_momentum_ij(actx, 1, 2)
    for _ in range(6):
        p = rand_poly(ctx, rng, deg=3)
        assert apply_element(ctx, m12 * m23, p) == apply_element(ctx, m12, apply_element(ctx, m23, p))


def test_angular_momentum_oracle_regression():
    # M12 x1 evaluated two independent ways must agree; freeze the value
    actx = CherednikContext(build_root_system("A", 2))
    ctx = DunklContext.of(actx)
    x1 = ctx.monomial((1, 0))
    stepwise = apply_generator_word(
        ctx, [("x", 0), ("D", 1)], x1) - apply_generator_word(ctx, [("x", 1), ("D", 0)], x1)
    via_element = apply_element(ctx, angular_momentum_ij(actx, 0, 1), x1)
    assert stepwise == via_element
    # hand expansion: D2 x1 = -g (alpha_2 = -1 for e1-e2), D1 x1 = 1 + g
    g = CoeffPoly.symbol(0, 1)
    expected = ctx.monomial((1, 0)).scaled(-g) - ctx.monomial((0, 1)).scaled(g + 1)
    assert via_element == expected


def test_nabla_examples():
    ctx = dctx(2)
    g = CoeffPoly.symbol(0, 1)
    x1 = to_loc(ctx, ctx.monomial((1, 0)))
    got = nabla_apply(ctx, 0, x1)
    # 1 - g*x2/(x1-x2)
    expected = (to_loc(ctx, ctx.one_poly())
                + to_loc(ctx, ctx.monomial((0, 1)).scaled(-g)).over_form(0))
    assert got == expected
    one_f = to_loc(ctx, ctx.one_poly())
    assert nabla_apply(ctx, 0, one_f) == to_loc(ctx, ctx.one_poly().scaled(-g)).over_form(0)


def test_nabla_commutator_with_x_is_s():
    ctx = dctx(2)
    g = CoeffPoly.symbol(0, 1)
    rng = random.Random(79)
    s = ctx.rs.reflection(0)
    for _ in range(6):
        p = rand_poly(ctx, rng, deg=3)
        f = to_loc(ctx, p)
        x2 = ctx.monomial((0, 1))
        lhs = nabla_apply(ctx, 0, f * x2) - (nabla_apply(ctx, 0, f) * x2)
        rhs = f.act(partial(ctx.rs.act_exp, s), s.roots).scaled(-g)
        assert lhs == rhs


def test_nabla_operators_commute_on_localized_samples():
    from dunklalg.polyrep import NablaOperator

    ctx = dctx(2)
    rng = random.Random(89)
    n1 = NablaOperator(ctx, 0)
    n2 = NablaOperator(ctx, 1)
    for _ in range(4):
        f = to_loc(ctx, rand_poly(ctx, rng, deg=3)).over_form(0)
        assert n1(n2(f)) == n2(n1(f))


def test_m_squared_action_crosscheck():
    # apply M^2 as one normal form and as iterated single-M applications
    from dunklalg.cherednik import m_squared

    actx = CherednikContext(build_root_system("A", 2))
    ctx = DunklContext.of(actx)
    m = angular_momentum_ij(actx, 0, 1)
    for p in (ctx.monomial((1, 0)), ctx.monomial((1, 1))):
        direct = apply_element(ctx, m_squared(actx), p)
        twice = apply_element(ctx, m, apply_element(ctx, m, p))
        assert direct == twice


def test_hamiltonian_identity_small():
    assert verify_hamiltonian_identity(dctx(2), 4).passed
    assert verify_hamiltonian_identity(dctx(3), 3).passed


def test_hamiltonian_identity_general_w():
    assert verify_hamiltonian_identity(dctx(2, "B"), 3).passed


def test_hamiltonian_identity_negative_control():
    res = verify_hamiltonian_identity(dctx(2), 2, potential_sign=-1)
    assert not res.passed
    assert res.failures and "witness" in res.failures[0]


def test_restriction_small():
    res = restrict_check(dctx(2), 4)
    assert res.passed
    res3 = restrict_check(dctx(3), 3)
    assert res3.passed


def test_restriction_hand_examples():
    ctx = dctx(2)
    g = CoeffPoly.symbol(0, 1)
    # S (x1 + x2) = -g (x1 + x2); S (x1 - x2) = +g (x1 - x2)
    psym = ctx.monomial((1, 0)) + ctx.monomial((0, 1))
    panti = ctx.monomial((1, 0)) - ctx.monomial((0, 1))
    s_on = lambda p: ctx.act_group(ctx.rs.reflection(0), p).scaled(-g)
    assert s_on(psym) == psym.scaled(-g)
    assert s_on(panti) == panti.scaled(g)


def test_nonzero_element_detected_by_oracle():
    # a nonzero PBW element acts nonzero on some monomial of degree <= max D-degree
    from dunklalg.cherednik import PBWElement

    actx = CherednikContext(build_root_system("A", 3))
    ctx = DunklContext.of(actx)
    rng = random.Random(83)
    grp = actx.rs.group()
    for _ in range(12):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            a = tuple(rng.randint(0, 2) for _ in range(3))
            b = tuple(rng.randint(0, 2) for _ in range(3))
            w = grp[rng.randrange(len(grp))]
            c = Fraction(rng.randint(-3, 3))
            if c:
                terms[(a, w, b)] = CoeffPoly.const(c, 1)
        p = PBWElement(actx, terms)
        if p.is_zero():
            continue
        dmax = max(sum(b) for (_, _, b) in p.terms)
        hit = False
        for exp in monomials_up_to(3, dmax):
            if not apply_element(ctx, p, ctx.monomial(exp)).is_zero():
                hit = True
                break
        assert hit


# ---------------------------------------------------------------------------
# The Hamiltonian left side against one direction at a time
# ---------------------------------------------------------------------------

def _reference_nabla(ctx, i, f):
    """nabla_i f as a sum built one term at a time: the derivative first,
    then each reflected term scaled and divided by its form."""
    out = f.derivative(i)
    for k, alpha in enumerate(ctx.roots):
        if alpha[i]:
            s = ctx.rs.reflection(k)
            term = loc_act_group(ctx, s, f).scaled(-(ctx.gmap.of_root(ctx.rs, k) * alpha[i]))
            out = out + term.over_form(k)
    return out


def _two_step_lhs(ctx, f):
    """-1/2 sum_i nabla_i(nabla_i f), each application on its own."""
    acc = None
    for i in range(ctx.n):
        t = _reference_nabla(ctx, i, _reference_nabla(ctx, i, f))
        acc = t if acc is None else acc + t
    return acc.scaled(Fraction(-1, 2))


LHS_CASES = {
    "A3-d2": (lambda: build_root_system("A", 3), 2),
    "B3-d2": (lambda: build_root_system("B", 3), 2),    # two coupling symbols
    "D4-d1": (lambda: build_root_system("D", 4), 1),
    "B2-rotated-d2": (rotated_b2, 2),
}


@pytest.mark.parametrize("case", sorted(LHS_CASES))
def test_hamiltonian_lhs_matches_two_step_oracle(case):
    make, degree = LHS_CASES[case]
    ctx = DunklContext(make())
    inputs = [to_loc(ctx, ctx.monomial(exp)) for exp in monomials_up_to(ctx.n, degree)]
    # localized inputs from x1^degree, the last monomial (the oracle is slow
    # on them at D4, so one monomial stands for the rest)
    top = inputs[-1]
    inputs += [top.over_form(0), nabla_apply(ctx, 0, top)]
    for g in inputs:
        lhs, ref = _hamiltonian_lhs(ctx, g), _two_step_lhs(ctx, g)
        assert (lhs.num, lhs.den) == (ref.num, ref.den), g
        assert nabla_apply(ctx, 1, g) == _reference_nabla(ctx, 1, g)
    assert top.den == {} and top.num.terms.keys() == {(degree,) + (0,) * (ctx.n - 1)}
    assert inputs[-1].den and inputs[-2].den == {0: 1}


@pytest.mark.parametrize("family", ["A", "B"])
def test_nabla_in_a_general_direction_is_linear(family):
    ctx = dctx(3, family)
    rng = random.Random(97)
    xi = (1, -2, Fraction(3, 2))
    for _ in range(4):
        f = to_loc(ctx, rand_poly(ctx, rng, deg=3))
        for g in (f, f.over_form(1)):
            units = [nabla_apply(ctx, i, g) for i in range(ctx.n)]
            combo = units[0].scaled(xi[0]) + units[1].scaled(xi[1]) + units[2].scaled(xi[2])
            assert nabla_apply(ctx, xi, g) == combo
    zero = nabla_apply(ctx, (0, 0, 0), to_loc(ctx, ctx.one_poly()))
    assert zero == LocPoly.from_poly(ctx.zero_poly(), ctx.roots)
