"""Group elements against an independent Fraction-matrix oracle.

Every product of two elements of W is checked against the plain matrix
product of their columns, and every inverse is checked on both sides. The
rotated B2 system has no signed permutations besides ±1, so its products go
through general matrices.
"""

import sys
import threading
from fractions import Fraction

import pytest

from dunklalg.coxeter import build_root_system, load_root_system

ROT = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5)))  # columns


def matmul(a_cols, b_cols):
    """Columns of A·B, where ``cols[j]`` is the image of e_j."""
    n = len(a_cols)
    out = []
    for col in b_cols:
        img = [Fraction(0)] * n
        for k, v in enumerate(col):
            if v:
                for t, u in enumerate(a_cols[k]):
                    if u:
                        img[t] += v * u
        out.append(tuple(img))
    return tuple(out)


def rotated_b2():
    base = build_root_system("B", 2)
    roots = [tuple(ROT[0][k] * r[0] + ROT[1][k] * r[1] for k in range(2))
             for r in base.positive_roots]
    return load_root_system({
        "rank": 2,
        "roots": [[str(c) for c in r] for r in roots],
        "orbits": [o + 1 for o in base.orbit_of],
        "label": "B2-rotated",
    })


SYSTEMS = {
    "A3": lambda: build_root_system("A", 3),
    "B3": lambda: build_root_system("B", 3),
    "D4": lambda: build_root_system("D", 4),
    "B2-rotated": rotated_b2,
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_all_products_match_matrix_oracle(name):
    rs = SYSTEMS[name]()
    grp = rs.group()
    by_cols = {w.cols: w for w in grp}
    assert len(by_cols) == len(grp)
    for a in grp:
        for b in grp:
            expected = by_cols[matmul(a.cols, b.cols)]
            prod = a * b
            assert prod == expected
            assert prod.cols == expected.cols


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_inverse_is_two_sided(name):
    rs = SYSTEMS[name]()
    for w in rs.group():
        winv = w.inverse()
        assert w * winv == rs.identity
        assert winv * w == rs.identity
        assert winv.inverse() == w


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_products_are_interned(name):
    rs = SYSTEMS[name]()
    grp = rs.group()
    members = {id(w) for w in grp}
    assert len({hash(w) for w in grp}) == len(grp)
    for a in grp[:8]:
        for b in grp:
            assert id(a * b) in members
        assert id(a.inverse()) in members
    assert rs.element(grp[-1].cols) is grp[-1]


def test_automorphism_outside_w_is_not_confused_with_w():
    # w(-2,-1) permutes the roots of A1 exactly as the identity does; only its
    # action on the complement of the root span, (1, 1) -> (-1, -1), differs
    rs = build_root_system("A", 2)
    cols = ((Fraction(0), Fraction(-1)), (Fraction(-1), Fraction(0)))
    w = rs.element(cols)
    assert w != rs.identity
    assert w.cols == cols
    assert w * w == rs.identity
    assert w * rs.reflection(0) == rs.element(((Fraction(-1), Fraction(0)),
                                               (Fraction(0), Fraction(-1))))


def test_racing_threads_get_the_same_elements():
    # more threads than cores, switching often, each reaching every element of
    # W(B3) by its own products: interning must hand all of them one object
    rs = build_root_system("B", 3)
    gens = rs.reflections()
    found = []

    def closure():
        seen = {rs.identity.cols: rs.identity}
        frontier = [rs.identity]
        while frontier:
            frontier = [w * s for w in frontier for s in gens]
            frontier = [seen.setdefault(w.cols, w) for w in frontier if w.cols not in seen]
        found.append(seen)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=closure) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(found) == len(threads)
    grp = rs.group()
    assert len(grp) == 48
    for seen in found:
        assert len(seen) == 48
        assert all(seen[w.cols] is w for w in grp)
