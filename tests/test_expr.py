"""Expression parser, printer round-trip, and evaluation."""

import random
from fractions import Fraction

import pytest

from dunklalg.cherednik import CherednikContext
from dunklalg.coxeter import MultiplicityMap, build_root_system
from dunklalg.expr import (
    Atom,
    Bin,
    EvalError,
    ExprSyntaxError,
    RatLit,
    evaluate,
    parse_expression,
    print_expression,
)


def ctx_a(n, numeric=None):
    rs = build_root_system("A", n)
    gmap = MultiplicityMap.numeric(rs, numeric) if numeric else None
    return CherednikContext(rs, gmap)


def test_parse_commutator_shape():
    ast = parse_expression("[M[1,2], M[3,4]]")
    assert ast == Bin("[", Atom("M", (1, 2)), Atom("M", (3, 4)))


def test_parse_precedence():
    ast = parse_expression("1/2*x[1] + x[2]^2")
    assert isinstance(ast.left, Bin) and ast.left.op == "*"
    assert ast.left.left == RatLit(Fraction(1, 2))


def test_m_ii_evaluates_to_zero():
    ctx = ctx_a(3)
    assert evaluate("M[1,1]", ctx).is_zero()
    assert evaluate("M[1,1]", ctx, mode="so").is_zero()


def test_homega_identity_evaluates_to_zero():
    ctx = ctx_a(3)
    value = evaluate("HOmega + (1/2)*Msq - (1/2)*Ssum*(Ssum - N + 2)", ctx)
    assert value.is_zero()


def test_group_literal_and_s_forms():
    ctx = ctx_a(3)
    assert evaluate('w"2,1,3"', ctx) == evaluate("s[1,2]", ctx)
    ctxb = CherednikContext(build_root_system("B", 2))
    # root-index reflection form for non-A systems
    val = evaluate("s[3]", ctxb)
    assert not val.is_zero()


def test_anticommutator_and_named_elements():
    ctx = ctx_a(3)
    v = evaluate("{S[1,2], M[1,2]}", ctx)
    assert v.is_zero()
    assert evaluate("[rho, E[1,2]]", ctx).is_zero()
    assert evaluate("[H, M[1,2]]", ctx).is_zero()


def test_so_mode_normal_form():
    ctx = ctx_a(4)
    nf = evaluate("M[1,3]*M[2,4]", ctx, mode="so")
    assert nf.is_supported_on_basis()
    assert not nf.is_zero()
    square = evaluate("[M[1,2], M[2,3]]^2", ctx, mode="so")
    assert not square.is_zero()
    assert square == evaluate("[M[1,2], M[2,3]]*[M[1,2], M[2,3]]", ctx, mode="so")


def test_gl_mode():
    ctx = ctx_a(2)
    nf = evaluate("[E[1,1], E[2,2]] - (E[1,1] - E[2,2])*S[1,2]", ctx, mode="gl")
    assert nf.is_zero()
    assert evaluate("E[1,2]^2", ctx, mode="gl") == evaluate("E[1,2]*E[1,2]", ctx, mode="gl")


def test_numeric_coupling_mode():
    ctx = ctx_a(2, numeric=["1/2"])
    v = evaluate("g*s[1,2]", ctx)
    w = ctx.rs.reflection(0)
    from dunklalg.cherednik import group
    assert v == group(ctx, w).scaled(Fraction(1, 2))


CORPUS = [
    "x[1]", "x[2]^3", "D[1]", "D[3]^2", "M[1,2]", "M[2,3]", "M[1,3]^2",
    "E[1,1]", "E[1,2]", "E[2,1]^2", "s[1,2]", "s[1]", "s[2]", "S[1,2]",
    "S[1,1]", "Ssum", "H", "HOmega", "Msq", "rho", "N", "g", "1/2", "7",
    "-3/4", 'w"2,1,3"', 'w"3,1,2"', "x[1]*x[2]", "x[1] + x[2]",
    "x[1] - x[2]", "-x[1]", "x[1]*D[2]^2", "(x[1] + x[2])*D[1]",
    "[M[1,2], M[3,4]]", "[D[1], x[1]]", "{M[1,2], S[1,2]}",
    "{D[1], x[2]}", "[M[1,2], [M[2,3], M[1,3]]]", "1/2*Msq",
    "HOmega + (1/2)*Msq - (1/2)*Ssum*(Ssum - N + 2)",
    "g*s[1,2] + g^2", "M[1,2]*M[2,3]*M[1,3]", "E[1,2]*E[2,1]",
    "x[1]^2 - 2*x[1]*x[2] + x[2]^2", "(x[1] - x[2])^2",
    "[H, M[1,2]]", "[rho, E[1,2]]", "s[1,2]*s[2,3]",
    'w"2,3,1"*M[1,2]', "Ssum*Ssum - N", "D[1]*x[1] - x[1]*D[1]",
    "-(x[1] + D[1])", "2*HOmega - Msq", "S[1,2]*S[1,3] - S[2,3]*S[1,2]",
    "[M[1,2], M[2,3]]^2", "(Ssum - N + 2)^2",
]


# The printed form of each CORPUS entry that does not print as itself.
REPRINTED = {
    "HOmega + (1/2)*Msq - (1/2)*Ssum*(Ssum - N + 2)": "HOmega + 1/2*Msq - 1/2*Ssum*(Ssum - N + 2)",
}


def test_round_trip_corpus():
    assert len(CORPUS) >= 50
    for text in CORPUS:
        ast = parse_expression(text)
        printed = print_expression(ast)
        assert printed == REPRINTED.get(text, text)
        assert parse_expression(printed) == ast, text


# Every leaf kind of the grammar, and the compound forms; "%(a)s" and "%(b)s"
# are subexpressions.
LEAVES = ["x[1]", "D[2]", "M[1,2]", "E[2,1]", "s[1]", "s[1,2]", "S[2,3]", "Ssum", "H",
          "HOmega", "Msq", "rho", "N", "g", "g1", "g2", "3", "1/2", 'w"2,-1,3"', "x[2]^3"]
FORMS = ["%(a)s + %(b)s", "%(a)s - %(b)s", "%(a)s - (%(b)s)", "%(a)s*%(b)s", "%(a)s*(%(b)s)",
         "%(a)s*-%(b)s", "-%(a)s", "(%(a)s)^2", "(-%(a)s)^3", "[%(a)s, %(b)s]", "{%(a)s, %(b)s}"]
NESTED = ["x[1] - (x[2] - x[3])", "(-x[1])^2", "x[1]*(x[2]*x[3])", "-(x[1] - x[2])^0",
          "[{x[1], D[1]}, -[M[1,2], g]]"]


def _random_text(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(LEAVES)
    return rng.choice(FORMS) % {"a": _random_text(rng, depth - 1), "b": _random_text(rng, depth - 1)}


def test_round_trip_random_texts():
    rng = random.Random(1)
    texts = LEAVES + NESTED + [_random_text(rng, 4) for _ in range(400)]
    for text in texts:
        ast = parse_expression(text)
        assert parse_expression(print_expression(ast)) == ast, text


def test_syntax_error_positions():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("M[1,,2]")
    assert err.value.line == 1 and err.value.column == 5
    with pytest.raises(ExprSyntaxError):
        parse_expression("(x[1] + ")
    with pytest.raises(ExprSyntaxError):
        parse_expression("x[1] ?")
    with pytest.raises(ExprSyntaxError):
        parse_expression("frob[1]")


def test_eval_errors():
    ctx = ctx_a(3)
    with pytest.raises(EvalError):
        evaluate("x[5]", ctx)
    with pytest.raises(EvalError):
        evaluate("rho", ctx, mode="so")
    with pytest.raises(EvalError):
        evaluate("g2", ctx)
    with pytest.raises(EvalError):
        evaluate('w"2,1"', ctx)          # wrong tuple length for rank 3
    with pytest.raises(EvalError):
        evaluate("s[9]", ctx)            # root index out of range
    with pytest.raises(EvalError):
        evaluate('w"-1,2,3"', ctx)       # sign flip is not in the type A group


@pytest.mark.parametrize("family", ["A", "B"])
def test_transposition_needs_distinct_indices(family):
    # at B2, s[1,1] used to give the reflection in e_1 (e_i - e_j built as e_i)
    ctx = CherednikContext(build_root_system(family, 2))
    for mode in ("cherednik", "so", "gl"):
        with pytest.raises(EvalError, match="distinct"):
            evaluate("s[1,1]", ctx, mode)


def test_rejected_group_literal_interns_nothing():
    ctx = ctx_a(3)
    interned = len(ctx.rs._by_cols)
    for text in ('w"1,1,2"', 'w"2,2,2"', 'w"1,-1,3"'):
        with pytest.raises(EvalError):
            evaluate(text, ctx)
    assert len(ctx.rs._by_cols) == interned
    # an accepted literal still interns, and -1 is kept although it lies outside W
    assert evaluate('w"-1,-2,-3"', ctx) == evaluate('w"-1,-2,-3"', ctx)
    assert len(ctx.rs._by_cols) == interned + 1
