"""Acceptance criteria, one test per criterion.

Everything is exact: a criterion passes only when the relevant normal forms
are identically zero with symbolic couplings (or when the stated structural
counts are reproduced). Each test prints a one-line verdict.

Criterion 9 expects the centre to consist of polynomials in the angular
Hamiltonian. That description presumes the group acts faithfully on the
angular generators; at B2 (rank 2) every group element acts on the single
generator by its determinant, so the centralizer is genuinely larger
(11-dimensional at degree 4: even powers pair with the invariants
{1, r^2, r + r^3} of the rotation subgroup, odd powers with r - r^3).
The suite reports the discrepant dimension and this test asserts that
honest report, plus the fact that the expected powers still lie inside.
"""

import random
from fractions import Fraction

from dunklalg.cherednik import CherednikContext, d_gen, group, one, x_gen
from dunklalg.coxeter import build_root_system
from dunklalg.exactmath import in_span
from dunklalg.expr import parse_expression, print_expression
from dunklalg.polyrep import (
    DunklContext,
    apply_element,
    apply_generator_word,
    restrict_check,
    verify_hamiltonian_identity,
)
from dunklalg.subalgebra import (
    SubElement,
    SubWord,
    centralizer,
    get_subalgebra,
    h_omega_subelement,
    pbw_rank_check,
    random_subelement,
    rho_subelement,
)
from dunklalg import suites

_CTX = {}


def ctx_for(family, n):
    key = (family, n)
    if key not in _CTX:
        _CTX[key] = CherednikContext(build_root_system(family, n))
    return _CTX[key]


def _assert_all(results, label):
    total = 0
    for res in results:
        assert res.passed, "%s: %s failed on %s" % (label, res.name, res.failures[:1])
        total += res.instances
    return total


def test_criterion_01_relation_suites_type_a():
    total = 0
    for n in (3, 4, 5):
        ctx = ctx_for("A", n)
        total += _assert_all(suites.relations_so(ctx), "C1 so N=%d" % n)
        total += _assert_all(suites.crossing_suite(ctx), "C1 crossing N=%d" % n)
    for n in (3, 4):
        ctx = ctx_for("A", n)
        total += _assert_all(suites.relations_gl(ctx), "C1 gl N=%d" % n)
    total += _assert_all([suites.family("so3-example", ctx_for("A", 3))], "C1 so3")
    print("ACCEPTANCE C1 pass: %d exact relation instances at A, N=3,4,5" % total)


def test_criterion_02_general_w_suites():
    total = 0
    for family, n in (("B", 2), ("B", 3), ("D", 4)):
        ctx = ctx_for(family, n)
        total += _assert_all(suites.coxeter_general(ctx), "C2 %s%d" % (family, n))
    for n in (2, 3, 4):
        total += _assert_all([suites.family("m2-decomposition", ctx_for("A", n))],
                             "C2 m2 A%d" % n)
    print("ACCEPTANCE C2 pass: %d general-W instances (B2, B3, D4; M2 split at A2..A4, B2, B3)" % total)


def test_criterion_03_centrality():
    total = 0
    for family, n in (("A", 3), ("A", 4), ("B", 2), ("B", 3)):
        total += _assert_all([suites.family("centrality-so", ctx_for(family, n))],
                             "C3 %s%d" % (family, n))
    for n in (3, 4):
        total += _assert_all([suites.family("rho-central", ctx_for("A", n))], "C3 rho N=%d" % n)
    print("ACCEPTANCE C3 pass: %d centrality identities" % total)


def test_criterion_04_pfaffian():
    total = _assert_all(suites.pfaffian_suite(ctx_for("A", 4)), "C4")
    print("ACCEPTANCE C4 pass: the 24-term contraction vanishes exactly at N=4")


def test_criterion_05_pbw_flatness():
    res3, det3 = pbw_rank_check("so", ctx_for("A", 3), 4)
    assert res3.passed, res3.failures
    assert [e["count"] for e in det3["per_degree"]] == [1, 3, 6, 10, 15]
    assert [e["combinatorial"] for e in det3["per_degree"]] == [1, 3, 6, 10, 15]
    res4, det4 = pbw_rank_check("so", ctx_for("A", 4), 2)
    assert res4.passed, res4.failures
    assert det4["per_degree"][2]["count"] == 20
    resg, detg = pbw_rank_check("gl", ctx_for("A", 2), 2)
    assert resg.passed, resg.failures
    assert [e["count"] for e in detg["per_degree"]] == [1, 4, 9]
    print("ACCEPTANCE C5 pass: PBW flatness at so N=3 (1,3,6,10,15), so N=4 d2 (20), gl N=2 (1,4,9)")


def test_criterion_06_straightening_soundness():
    rng = random.Random(20260808)
    checked = 0
    for family in ("so", "gl"):
        for n in (3, 4):
            alg = get_subalgebra(ctx_for("A", n), family)
            for _ in range(25):
                e = random_subelement(alg, rng, max_degree=3)
                nf = e.normal_form()
                assert nf.is_supported_on_basis()
                assert nf.embed() == e.embed()
                checked += 1
    assert checked >= 100
    print("ACCEPTANCE C6 pass: %d random straightenings exactly preserved the embedding" % checked)


def test_criterion_07_oracle_consistency():
    ctx = ctx_for("A", 3)
    dctx = DunklContext(ctx.rs, ctx.gmap)
    rng = random.Random(424242)
    grp = ctx.rs.group()
    gens = ([("x", i) for i in range(3)] + [("D", i) for i in range(3)]
            + [("w", w) for w in grp])
    checked = 0
    for _ in range(100):
        word = [gens[rng.randrange(len(gens))] for _ in range(rng.randint(1, 4))]
        exp = tuple(rng.randint(0, 3) for _ in range(3))
        if sum(exp) > 3:
            exp = (1, 1, 0)
        p = dctx.monomial(exp).scaled(Fraction(rng.randint(-3, 3) or 1))
        stepwise = apply_generator_word(dctx, word, p)
        elem = one(ctx)
        for kind, payload in word:
            if kind == "x":
                elem = elem * x_gen(ctx, payload)
            elif kind == "D":
                elem = elem * d_gen(ctx, payload)
            else:
                elem = elem * group(ctx, payload)
        assert apply_element(dctx, elem, p) == stepwise
        checked += 1
    print("ACCEPTANCE C7 pass: %d random words agree stepwise vs normal form" % checked)


def test_criterion_08_analytic_identities():
    res = verify_hamiltonian_identity(DunklContext.of(ctx_for("A", 2)), 4)
    assert res.passed, res.failures
    res3 = verify_hamiltonian_identity(DunklContext.of(ctx_for("A", 3)), 3)
    assert res3.passed, res3.failures
    for n in (2, 3):
        rr = restrict_check(DunklContext.of(ctx_for("A", n)), 4)
        assert rr.passed, rr.failures
    for n in (2, 3, 4, 5):
        ctx = ctx_for("A", n)
        results = suites.restriction_suite(ctx, 2)
        gamma = [r for r in results if r.name == "gamma-pm"]
        assert gamma and gamma[0].passed
    print("ACCEPTANCE C8 pass: Hamiltonian and restriction identities exact in localized arithmetic")


def test_criterion_09_centre():
    # so, type A, N=3, degree 4: dimension 3 spanned by 1, HOmega, HOmega^2
    ctx3 = ctx_for("A", 3)
    sols = centralizer("so", ctx3, 4)
    assert len(sols) == 3
    so3 = get_subalgebra(ctx3, "so")
    power = SubElement.of(so3, SubWord((), ctx3.e))
    homega = h_omega_subelement(so3)
    for k in range(3):
        assert in_span([s.terms for s in sols], power.normal_form().terms)
        power = power * homega
    # so, type A, N=4, degree 3: dimension 2 spanned by 1, HOmega
    ctx4 = ctx_for("A", 4)
    sols4 = centralizer("so", ctx4, 3)
    assert len(sols4) == 2
    so4 = get_subalgebra(ctx4, "so")
    for cand in (SubElement.of(so4, SubWord((), ctx4.e)), h_omega_subelement(so4)):
        assert in_span([s.terms for s in sols4], cand.normal_form().terms)
    # gl, N=2, degree 2: dimension 3 spanned by 1, rho, rho^2
    ctx2 = ctx_for("A", 2)
    solsg = centralizer("gl", ctx2, 2)
    assert len(solsg) == 3
    gl2 = get_subalgebra(ctx2, "gl")
    power = SubElement.of(gl2, SubWord((), ctx2.e))
    rho_sub = rho_subelement(gl2)
    for k in range(3):
        assert in_span([s.terms for s in solsg], power.normal_form().terms)
        power = power * rho_sub
    # so, B2, degree 4: the derived expectation (3) fails; the computed
    # centralizer is 11-dimensional because every B2 element acts on the
    # single angular generator by its determinant. The suite must report
    # the discrepant dimension, and the expected powers still lie inside.
    ctxb = ctx_for("B", 2)
    resb = suites.centre_suite("so", ctxb, 4)[0]
    assert not resb.passed
    assert any("computed dimension 11" in f.get("witness", "") for f in resb.failures)
    solsb = centralizer("so", ctxb, 4)
    assert len(solsb) == 11
    sob = get_subalgebra(ctxb, "so")
    power = SubElement.of(sob, SubWord((), ctxb.e))
    homega_b = h_omega_subelement(sob)
    for k in range(3):
        assert in_span([s.terms for s in solsb], power.normal_form().terms)
        power = power * homega_b
    print("ACCEPTANCE C9 pass: centre dims 3 (so A3 d4), 2 (so A4 d3), 3 (gl A2 d2); "
          "B2 expectation 3 fails honestly with computed dimension 11 "
          "(discrepancy reported; see this module's docstring)")


def test_criterion_10_cli_contract(capsys, tmp_path):
    import os
    from dunklalg.cli import main
    from test_expr import CORPUS

    golden_dir = os.path.join(os.path.dirname(__file__), "golden")
    cases = [
        ("nf_d1x1_a1.txt", ["normal-form", "D[1]*x[1]", "--group", "A", "--rank", "2"]),
        ("verify_pfaffian_a4.json", ["verify", "pfaffian", "--group", "A", "--rank", "4",
                                     "--format", "json"]),
        ("basis_so_a4_d2.txt", ["basis", "--mode", "so", "--group", "A", "--rank", "4",
                                "--degree", "2", "--format", "text"]),
    ]
    for name, argv in cases:
        code = main(argv)
        out = capsys.readouterr().out
        with open(os.path.join(golden_dir, name), "r", encoding="utf-8") as fh:
            assert out == fh.read()
        assert code == 0
    for text in CORPUS:
        ast = parse_expression(text)
        assert parse_expression(print_expression(ast)) == ast
    assert main(["normal-form", "M[1,,2]", "--group", "A", "--rank", "3"]) == 2
    capsys.readouterr()
    assert main(["verify", "centre", "--group", "B", "--rank", "2", "--mode", "so",
                 "--degree", "2"]) == 1
    capsys.readouterr()
    print("ACCEPTANCE C10 pass: golden bytes, %d-expression round-trip, exit codes 0/1/2"
          % len(CORPUS))