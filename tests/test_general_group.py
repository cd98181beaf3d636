"""General (non-signed-permutation) rational orthogonal groups.

A B2 system rotated by the rational rotation [[3/5, -4/5], [4/5, 3/5]] has
the same abstract reflection group but none of its elements are signed
permutations, so every general-matrix code path (monomial substitution,
word conjugation, localized actions) gets exercised for real.
"""

from fractions import Fraction

import pytest

from dunklalg.cherednik import CherednikContext
from dunklalg.coxeter import InvalidRootSystem, build_root_system, load_root_system, s_pair, MultiplicityMap
from dunklalg import suites


ROT = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5)))  # columns


def _rotate(vec):
    return tuple(ROT[0][k] * vec[0] + ROT[1][k] * vec[1] for k in range(2))


def rotated_b2():
    base = build_root_system("B", 2)
    roots = [_rotate(r) for r in base.positive_roots]
    return load_root_system({
        "rank": 2,
        "roots": [[str(c) for c in r] for r in roots],
        "orbits": [o + 1 for o in base.orbit_of],
        "label": "B2-rotated",
    })


def test_rotated_group_structure():
    rs = rotated_b2()
    assert len(rs.group()) == 8
    assert any(w.perm is None for w in rs.group())


@pytest.mark.parametrize("family,n,counts", [
    ("A", 2, [("com-ES", 2), ("crosgl", 16), ("crosgl2", 32), ("relgln1", 16),
              ("relgln2", 8), ("herm-E", 6), ("rho-central", 5)]),
    ("A", 3, [("com-ES", 18), ("crosgl", 81), ("crosgl2", 162), ("relgln1", 81),
              ("relgln2", 48), ("herm-E", 15), ("rho-central", 12)]),
    ("B", 2, [("crosgl", 16), ("crosgl2", 32), ("relgln1", 16), ("herm-E", 6),
              ("rho-central", 8)]),
    ("D", 3, [("crosgl", 81), ("crosgl2", 162), ("relgln1", 81), ("herm-E", 15),
              ("rho-central", 15)]),
], ids=["A2", "A3", "B2", "D3"])
def test_relations_gl_families(family, n, counts):
    # com-ES and relgln2 are stated with type-A pairings; elsewhere only the
    # five general families run
    results = suites.relations_gl(CherednikContext(build_root_system(family, n)))
    assert [(r.name, r.instances) for r in results] == counts
    assert all(r.passed for r in results), [r.failures[:1] for r in results]


def test_is_type_a_reads_the_roots():
    assert all(build_root_system("A", n).is_type_a() for n in (1, 2, 3, 5))
    assert not any(build_root_system(f, n).is_type_a()
                   for f, n in (("B", 2), ("B", 3), ("D", 2), ("D", 4)))
    assert not rotated_b2().is_type_a()
    # signs and order of the roots do not matter, the coordinates do
    assert load_root_system({"rank": 3, "roots": [["0", "-1", "1"], ["1", "-1", "0"],
                                                   ["-1", "0", "1"]],
                             "orbits": [1, 1, 1], "label": "B-like"}).is_type_a()
    assert not load_root_system({"rank": 2, "roots": [["2", "-2"]], "orbits": [1],
                                 "label": "A1"}).is_type_a()


def test_group_cap_enforced():
    rs = rotated_b2()
    rs.group_cap = 3
    rs._group = None
    with pytest.raises(InvalidRootSystem):
        rs.group()


def test_scaled_roots_give_same_pairing():
    # the (alpha, alpha) denominators make the pairing scale-invariant
    plain = load_root_system({"rank": 2, "roots": [["1", "-1"]], "orbits": [1]})
    scaled = load_root_system({"rank": 2, "roots": [["3", "-3"]], "orbits": [1]})
    g1 = MultiplicityMap.symbolic(plain)
    g2 = MultiplicityMap.symbolic(scaled)
    e1, e2 = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
    a = s_pair(e1, e2, plain, g1)
    b = s_pair(e1, e2, scaled, g2)
    assert list(a.values()) == list(b.values())
    assert [w.cols for w in a] == [w.cols for w in b]


def test_rotated_b2_relations_hold():
    ctx = CherednikContext(rotated_b2())
    for res in (suites.family("amcoxcom", ctx),
                suites.family("amcoxcross", ctx),
                suites.family("com-Mw", ctx),
                suites.family("m2-decomposition", ctx),
                suites.family("centrality-so", ctx)):
        assert res.passed, (res.name, res.failures[:1])


def test_pfaffian_vanishes_beyond_type_a():
    from dunklalg.cherednik import CherednikContext, pfaffian_sum

    ctx = CherednikContext(build_root_system("D", 4))
    assert pfaffian_sum(ctx).is_zero()


def test_rotated_b2_straightening_soundness():
    # word conjugation through general (non-signed) tails
    import random

    from dunklalg.cherednik import angular_hamiltonian
    from dunklalg.subalgebra import get_subalgebra, h_omega_subelement
    from test_subalgebra import random_subelement

    ctx = CherednikContext(rotated_b2())
    alg = get_subalgebra(ctx, "so")
    assert h_omega_subelement(alg).embed() == angular_hamiltonian(ctx)
    rng = random.Random(113)
    for _ in range(8):
        e = random_subelement(alg, rng, max_degree=3)
        nf = e.normal_form()
        assert nf.is_supported_on_basis()
        assert nf.embed() == e.embed()
