"""Root systems, group enumeration, and the S pairings."""

import random
from fractions import Fraction

import pytest

from dunklalg.cherednik import CherednikContext, one, s_elem
from dunklalg.coxeter import (
    InvalidRootSystem,
    MultiplicityMap,
    UnsupportedRank,
    build_root_system,
    invariant_sum_S,
    load_root_system,
    s_pair,
)
from dunklalg.exactmath import CoeffPoly, add_term


def e(i, n):
    return tuple(Fraction(1) if k == i else Fraction(0) for k in range(n))


def sym(rs):
    return MultiplicityMap.symbolic(rs)


def test_build_type_a():
    rs = build_root_system("A", 3)
    assert len(rs.positive_roots) == 3
    assert rs.norbits == 1
    assert rs.order() == 6


def test_build_type_b2():
    rs = build_root_system("B", 2)
    assert len(rs.positive_roots) == 4
    assert rs.norbits == 2
    assert rs.order() == 8
    assert set(rs.positive_roots) == {
        (Fraction(1), Fraction(-1)), (Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))}


def test_build_type_d4():
    rs = build_root_system("D", 4)
    assert len(rs.positive_roots) == 12
    assert rs.norbits == 1
    assert rs.order() == 192


def test_build_rejects_bad_rank():
    with pytest.raises(UnsupportedRank):
        build_root_system("D", 1)
    with pytest.raises(UnsupportedRank):
        build_root_system("Q", 3)


def test_group_elements_preserve_roots():
    rs = build_root_system("B", 2)
    allroots = set(rs.positive_roots) | {tuple(-c for c in r) for r in rs.positive_roots}
    for w in rs.group():
        images = {w.apply(r) for r in allroots}
        assert images == allroots


def test_load_matches_builder():
    config = {
        "rank": 2,
        "roots": [["1", "-1"]],
        "orbits": [1],
    }
    rs = load_root_system(config)
    built = build_root_system("A", 2)
    assert rs.positive_roots == built.positive_roots
    assert rs.order() == built.order() == 2


def _f4_config():
    roots = []
    orbits = []
    for i in range(4):
        for j in range(i + 1, 4):
            for sj in (1, -1):
                r = [0, 0, 0, 0]
                r[i] = 1
                r[j] = sj
                roots.append([str(v) for v in r])
                orbits.append(1)
    for i in range(4):
        r = [0, 0, 0, 0]
        r[i] = 1
        roots.append([str(v) for v in r])
        orbits.append(2)
    for s2 in (1, -1):
        for s3 in (1, -1):
            for s4 in (1, -1):
                roots.append(["1/2", str(Fraction(s2, 2)), str(Fraction(s3, 2)), str(Fraction(s4, 2))])
                orbits.append(2)
    return {"rank": 4, "roots": roots, "orbits": orbits, "label": "F4"}


def test_load_f4():
    rs = load_root_system(_f4_config())
    assert len(rs.positive_roots) == 24
    assert rs.norbits == 2
    assert rs.order() == 1152


def test_load_rejects_broken_closure():
    config = {
        "rank": 3,
        "roots": [["1", "-1", "0"], ["0", "1", "-1"]],  # missing e1 - e3
        "orbits": [1, 1],
    }
    with pytest.raises(InvalidRootSystem):
        load_root_system(config)


def test_config_round_trip():
    from dunklalg.coxeter import root_system_config

    # A1 has no root, so no orbit and no symbol to write out
    for rs in (build_root_system("B", 2), build_root_system("D", 3), build_root_system("A", 1)):
        clone = load_root_system(root_system_config(rs))
        assert clone.positive_roots == rs.positive_roots
        assert clone.orbit_of == rs.orbit_of
        assert clone.symbols == rs.symbols
        assert clone.order() == rs.order()


def test_load_rejects_degenerate_roots():
    with pytest.raises(InvalidRootSystem, match="duplicate"):
        load_root_system({"rank": 2, "roots": [["1", "-1"], ["1", "-1"]], "orbits": [1, 1]})
    with pytest.raises(InvalidRootSystem, match="alpha"):
        load_root_system({"rank": 2, "roots": [["1", "-1"], ["-1", "1"]], "orbits": [1, 1]})
    with pytest.raises(InvalidRootSystem, match="alpha, alpha"):
        load_root_system({"rank": 2, "roots": [["0", "0"]], "orbits": [1]})
    with pytest.raises(InvalidRootSystem, match="orbit labels"):
        load_root_system({"rank": 2, "roots": [["1", "-1"]], "orbits": [1, 1]})


def test_load_rejects_bad_orbits():
    config = {
        "rank": 2,
        "roots": [["1", "-1"], ["1", "1"], ["1", "0"], ["0", "1"]],
        "orbits": [1, 1, 2, 1],  # e1 and e2 are in one W-orbit
    }
    with pytest.raises(InvalidRootSystem):
        load_root_system(config)


def test_orbit_labels_one_based_or_zero_based_load():
    # labels that skip a number are rejected (tests/test_cli.py); these load
    a2 = [["1", "-1", "0"], ["1", "0", "-1"], ["0", "1", "-1"]]
    for orbits in ([0, 0, 0], [1, 1, 1]):
        rs = load_root_system({"rank": 3, "roots": a2, "orbits": orbits})
        assert rs.orbit_of == (0, 0, 0) and rs.symbols == ("g",)
    # B1 used to label its one root orbit 1, and so had an unused orbit 0
    rs = build_root_system("B", 1)
    assert rs.norbits == 1 and rs.orbit_of == (0,) and rs.symbols == ("g",)


def transposition(rs, i, j):
    idx, _ = rs.find_root(tuple(a - b for a, b in zip(e(i, rs.rank), e(j, rs.rank))))
    return rs.reflection(idx)


def added(a, b):
    """The sum of two term maps."""
    out = dict(a)
    for w, c in b.items():
        add_term(out, w, c)
    return out


def conjugated(terms, w):
    """w * terms * w^{-1}."""
    return {w * u * w.inverse(): c for u, c in terms.items()}


def test_s_pair_type_a_off_diagonal():
    rs = build_root_system("A", 3)
    g = sym(rs)
    s = s_pair(e(0, 3), e(1, 3), rs, g)
    gsym = CoeffPoly.symbol(0, 1)
    assert s == {transposition(rs, 0, 1): -gsym}


def test_s_pair_type_a_diagonal():
    rs = build_root_system("A", 3)
    g = sym(rs)
    s = s_pair(e(0, 3), e(0, 3), rs, g)
    gsym = CoeffPoly.symbol(0, 1)
    assert s == {rs.identity: CoeffPoly.one(1),
                 transposition(rs, 0, 1): gsym, transposition(rs, 0, 2): gsym}


def test_s_pair_b2():
    rs = build_root_system("B", 2)
    g = sym(rs)
    s = s_pair(e(0, 2), e(1, 2), rs, g)
    g1 = CoeffPoly.symbol(0, 2)
    minus_idx, _ = rs.find_root((Fraction(1), Fraction(-1)))
    plus_idx, _ = rs.find_root((Fraction(1), Fraction(1)))
    assert s == {rs.reflection(minus_idx): -g1, rs.reflection(plus_idx): g1}


def test_pairings_are_term_maps_without_zeros():
    rs = build_root_system("B", 2)
    pairings = [s_pair(e(0, 2), e(1, 2), rs, sym(rs)), invariant_sum_S(rs, sym(rs))]
    # a zero coupling drops its orbit's reflections
    zero_long = MultiplicityMap.numeric(rs, [0, 3])
    pairings += [s_pair(e(0, 2), (1, 1), rs, zero_long), invariant_sum_S(rs, zero_long)]
    for terms in pairings:
        assert type(terms) is dict and terms
        assert all(type(c) is CoeffPoly and c for c in terms.values())
    # (e1, e2) = 0, so the identity has no term
    assert all(rs.identity not in terms for terms in pairings[:2])
    assert len(pairings[3]) == 2 and set(pairings[3]) <= set(pairings[1])


def test_s_pair_bilinear_symmetric():
    rs = build_root_system("B", 2)
    g = sym(rs)
    rng = random.Random(31)
    for _ in range(10):
        xi = tuple(Fraction(rng.randint(-3, 3)) for _ in range(2))
        eta = tuple(Fraction(rng.randint(-3, 3)) for _ in range(2))
        phi = tuple(Fraction(rng.randint(-3, 3)) for _ in range(2))
        assert s_pair(xi, eta, rs, g) == s_pair(eta, xi, rs, g)
        lhs = s_pair(tuple(a + b for a, b in zip(xi, phi)), eta, rs, g)
        assert lhs == added(s_pair(xi, eta, rs, g), s_pair(phi, eta, rs, g))


def test_s_pair_equivariance():
    rs = build_root_system("B", 2)
    g = sym(rs)
    for w in rs.group():
        for i in range(2):
            for j in range(2):
                lhs = conjugated(s_pair(e(i, 2), e(j, 2), rs, g), w)
                rhs = s_pair(w.apply(e(i, 2)), w.apply(e(j, 2)), rs, g)
                assert lhs == rhs


def test_invariant_sum_a2():
    rs = build_root_system("A", 3)
    g = sym(rs)
    S = invariant_sum_S(rs, g)
    gsym = CoeffPoly.symbol(0, 1)
    assert S == {transposition(rs, i, j): -gsym for (i, j) in ((0, 1), (0, 2), (1, 2))}
    # trivial module: every group element acts as 1
    total = CoeffPoly.zero(1)
    for c in S.values():
        total = total + c
    n = 3
    assert total == CoeffPoly.symbol(0, 1) * Fraction(-n * (n - 1), 2)


def test_invariant_sum_b2():
    rs = build_root_system("B", 2)
    g = sym(rs)
    S = invariant_sum_S(rs, g)
    g1 = CoeffPoly.symbol(0, 2)
    g2 = CoeffPoly.symbol(1, 2)
    expected = {}
    for r, c in (((1, -1), g1), ((1, 1), g1), ((1, 0), g2), ((0, 1), g2)):
        idx, _ = rs.find_root(tuple(Fraction(v) for v in r))
        expected[rs.reflection(idx)] = -c
    assert S == expected


def test_invariant_sum_is_central():
    for rs in (build_root_system("A", 4), build_root_system("B", 2)):
        g = sym(rs)
        S = invariant_sum_S(rs, g)
        for w in rs.group():
            assert conjugated(S, w) == S


def test_ga_multiply_relations():
    ctx = CherednikContext(build_root_system("A", 3))
    g2 = CoeffPoly.symbol(0, 1) ** 2
    s12 = s_elem(ctx, 0, 1)
    s13 = s_elem(ctx, 0, 2)
    s23 = s_elem(ctx, 1, 2)
    s11 = s_elem(ctx, 0, 0)
    s22 = s_elem(ctx, 1, 1)
    assert s12 * s12 == one(ctx).scaled(g2)
    assert s12 * s13 == s23 * s12
    assert s12 * s22 == s11 * s12
