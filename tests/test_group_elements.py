"""Group elements and their actions against independent Fraction-matrix oracles.

Every product of two elements of W is checked against the plain matrix
product of their columns, and every inverse is checked on both sides. The
action of W on monomials, on localized polynomials and on the generators of
the angular-momenta subalgebras is checked against matrix substitution and
against conjugation in H_c. In the rotated B2 and B3 systems most elements
are not signed permutations, so their products and actions go through
general matrices.
"""

import itertools
import math
import random
import sys
import threading
from fractions import Fraction
from functools import partial

import pytest

from dunklalg.cherednik import CherednikContext, group, s_elem
from dunklalg.coxeter import GroupElement, _apply_cols, build_root_system, load_root_system
from dunklalg.exactmath import CoeffPoly, LocPoly, XPoly, add_term, format_rational
from dunklalg.subalgebra import SubElement, SubWord, get_subalgebra
from test_coxeter import _f4_config

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


def rotated_b(n):
    """B_n with its first two coordinates rotated by ROT."""
    base = build_root_system("B", n)
    roots = [tuple(ROT[0][k] * r[0] + ROT[1][k] * r[1] for k in range(2)) + r[2:]
             for r in base.positive_roots]
    return load_root_system({
        "rank": n,
        "roots": [[str(c) for c in r] for r in roots],
        "orbits": [o + 1 for o in base.orbit_of],
        "label": "B%d-rotated" % n,
    })


# The elements of B2-rotated that are not signed permutations are its four
# reflections, whose matrices are symmetric; B3-rotated also has rotations
# that are not signed permutations.
SYSTEMS = {
    "A3": lambda: build_root_system("A", 3),
    "B3": lambda: build_root_system("B", 3),
    "D4": lambda: build_root_system("D", 4),
    "B2-rotated": lambda: rotated_b(2),
    "B3-rotated": lambda: rotated_b(3),
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
    # interned, so an element hashes natively by identity
    assert all(hash(w) == object.__hash__(w) for w in grp)
    assert len({hash(w) for w in grp}) == len(grp)
    for a in grp[:8]:
        for b in grp:
            assert id(a * b) in members
        assert id(a.inverse()) in members
    assert rs.element(grp[-1].cols) is grp[-1]


# -- keys, products and inverses read back from each element's tables ----------

def oracle_keys(w):
    """The signed image, sort_key and render restated from the columns alone: a
    signed permutation is keyed and printed by its signed images, any other
    element by its columns."""
    nonzero = [[(k, v) for k, v in enumerate(col) if v] for col in w.cols]
    if all(len(nz) == 1 and abs(nz[0][1]) == 1 for nz in nonzero):
        image = tuple(int(nz[0][1]) * (nz[0][0] + 1) for nz in nonzero)
        return image, (0, image), "w(%s)" % ",".join(str(k) for k in image)
    return (w.cols, (1, tuple(v for col in w.cols for v in col)),
            "w{%s}" % ";".join(",".join(format_rational(v) for v in col) for col in w.cols))


CACHED = {"A4": lambda: build_root_system("A", 4), "B3": SYSTEMS["B3"],
          "B2-rotated": SYSTEMS["B2-rotated"], "B3-rotated": SYSTEMS["B3-rotated"]}


@pytest.mark.parametrize("name", sorted(CACHED))
def test_cached_keys_match_their_formulas(name):
    rs = CACHED[name]()
    grp = rs.group()
    # enumerating W fills no key slot; each element fills it on first use,
    # from whichever of the two keys is asked first
    assert all(w._keys is None for w in grp)
    for k, w in enumerate(grp):
        want = oracle_keys(w)
        asked = [w.sort_key, w.render][k % 2]()
        assert asked == want[1 + k % 2]
        assert (w.sort_key(), w.render()) == want[1:]
        assert w.render() is w.render() and repr(w) == want[2]
        assert w.signs is None or all(type(s) is int for s in w.signs)
    assert any(w.perm is None for w in grp) == name.endswith("rotated")


@pytest.mark.parametrize("name", sorted(CACHED))
def test_cached_products_compose_columns(name):
    rs = CACHED[name]()
    grp = rs.group()
    for a in grp:
        for b in grp:
            prod = a * b
            assert prod.cols == tuple(_apply_cols(a.cols, col) for col in b.cols)
            assert a._products[b] is prod and a * b is prod
        assert a * a.inverse() is rs.identity and a.inverse() is a.inverse()
        assert len(a._products) == len(grp)


def test_four_threads_fill_products_and_keys_alike():
    # four threads build every product, inverse and key of one fresh root
    # system at once, each in its own order; they must get one object per
    # element and product, and equal keys and strings
    rs = rotated_b(3)
    gens = rs.reflections()
    barrier = threading.Barrier(4)
    out = [None] * 4

    def work(t):
        barrier.wait()
        seen = {rs.identity.cols: rs.identity}
        frontier = [rs.identity]
        while frontier:
            frontier = [w * s for w in frontier for s in gens]
            frontier = [seen.setdefault(w.cols, w) for w in frontier if w.cols not in seen]
        elems = [seen[cols] for cols in sorted(seen)]
        order = list(range(len(elems)))
        order = order[12 * t:] + order[:12 * t]
        products = {(i, j): elems[i] * elems[j] for i in order for j in order}
        keys = {i: (elems[i].sort_key(), elems[i].render(),
                    elems[i].inverse()) for i in order}
        out[t] = (elems, products, keys)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads) and None not in out
    elems, products, keys = out[0]
    assert len(elems) == 48
    for other_elems, other_products, other_keys in out[1:]:
        assert all(a is b for a, b in zip(elems, other_elems))
        assert all(other_products[ij] is w for ij, w in products.items())
        assert all(other_keys[i][2] is keys[i][2] and other_keys[i][:2] == keys[i][:2]
                   for i in keys)
    assert all(keys[i][:2] == oracle_keys(w)[1:] for i, w in enumerate(elems))


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


def test_group_algebra_render_orders_mixed_elements():
    # the identity of rotated B2 is a signed permutation and its reflections
    # are not: they print after it, ordered by their columns
    rs = rotated_b(2)
    s11 = s_elem(CherednikContext(rs), 0, 0)
    assert s11.canonical_str() == ("1 + 49/25*g1*w{-24/25,-7/25;-7/25,24/25}"
                                   " + 32/25*g2*w{-7/25,24/25;24/25,7/25}"
                                   " + 18/25*g2*w{7/25,-24/25;-24/25,-7/25}"
                                   " + 1/25*g1*w{24/25,7/25;7/25,-24/25}")
    # sets that are all signed permutations, or all not, keep their order
    for rs in (build_root_system("B", 3), rs):
        for same in ([w for w in rs.group() if w.perm is not None],
                     [w for w in rs.group() if w.perm is None]):
            assert (sorted(same, key=GroupElement.sort_key)
                    == sorted(same, key=lambda w: oracle_keys(w)[0]))


# -- W enumerated on root permutations, matrices filled on first use -----------

def reflection_cols(alpha):
    """Columns of s_alpha: v - 2 (alpha, v) / (alpha, alpha) alpha at v = e_j."""
    aa = sum(a * a for a in alpha)
    return tuple(tuple(Fraction(int(k == j)) - 2 * alpha[j] * alpha[k] / aa
                       for k in range(len(alpha))) for j in range(len(alpha)))


def matrix_bfs(rs):
    """The columns of W in group()'s order: breadth first from the identity,
    each level the new products w*s over w in order, then s in root order,
    taken as matrix products. The products are taken on the integer
    matrices d*w, d the common denominator of the reflections; every
    product is checked to lie in Z/d again, as it does for the groups
    tested here."""
    n = rs.rank
    gens = [reflection_cols(alpha) for alpha in rs.positive_roots]
    d = math.lcm(*(v.denominator for s in gens for col in s for v in col))

    def product(a, b):
        cols = tuple(tuple(sum(a[k][t] * v for k, v in enumerate(col) if v) for t in range(n))
                     for col in b)
        assert all(x % d == 0 for col in cols for x in col)
        return tuple(tuple(x // d for x in col) for col in cols)

    gens = [tuple(tuple(int(d * v) for v in col) for col in s) for s in gens]
    identity = tuple(tuple(d * int(k == j) for k in range(n)) for j in range(n))
    seen = {identity: None}
    frontier = [identity]
    while frontier:
        new = []
        for w in frontier:
            for s in gens:
                nxt = product(w, s)
                if nxt not in seen:
                    seen[nxt] = None
                    new.append(nxt)
        frontier = new
    return [tuple(tuple(Fraction(x, d) for x in col) for col in w) for w in seen]


def signed_perm(cols):
    """(perm, signs) of columns that make a signed permutation, else (None, None)."""
    nonzero = [[(k, v) for k, v in enumerate(col) if v] for col in cols]
    if all(len(nz) == 1 and abs(nz[0][1]) == 1 for nz in nonzero):
        return tuple(nz[0][0] for nz in nonzero), tuple(int(nz[0][1]) for nz in nonzero)
    return None, None


LAZY = {"A3": SYSTEMS["A3"], "B3": SYSTEMS["B3"], "D4": SYSTEMS["D4"],
        "F4": lambda: load_root_system(_f4_config()),
        "B2-rotated": SYSTEMS["B2-rotated"], "B4-rotated": lambda: rotated_b(4)}


@pytest.mark.parametrize("name", sorted(LAZY))
def test_group_order_and_lazy_matrices_match_matrix_bfs(name):
    rs = LAZY[name]()
    grp = rs.group()
    want = matrix_bfs(rs)
    assert len(grp) == len(want)
    for k, (w, cols) in enumerate(zip(grp, want)):
        # the first read of cols, perm or signs fills all three
        perm, signs = signed_perm(cols)
        asked = [w.cols, w.perm, w.signs][k % 3]
        assert asked == (cols, perm, signs)[k % 3]
        assert (w.cols, w.perm, w.signs) == (cols, perm, signs)
        assert w.signs is None or all(type(v) is int for v in w.signs)
        assert rs.element(cols) is w and rs.element(w.cols) is w
    assert rs.element(rs.identity.cols) is rs.identity


def test_enumerating_w_builds_no_matrix_and_no_product():
    rs = rotated_b(4)
    grp = rs.group()
    assert len(grp) == 384
    made = {rs.identity, *rs.reflections()}
    assert {w for w in grp if w._mat is not None} == made
    assert all(len(w._products) == 0 for w in grp)
    # the rank is read from the root system, not from a filled matrix
    assert all(w.n == 4 for w in grp) and all(w._mat is None for w in grp if w not in made)
    # an element looked up by its columns is found by its root permutation,
    # without filling its matrix
    w = grp[-1]
    assert rs.element(matrix_bfs(rs)[-1]) is w and w._mat is None


def test_four_threads_fill_matrices_alike():
    # four threads read the matrices of the same fresh elements at once,
    # two from the first element on and two from the last; every fill must
    # store the same columns, permutation and signs
    rs = rotated_b(4)
    grp = rs.group()
    barrier = threading.Barrier(4)
    out = [None] * 4

    def work(t):
        order = grp[::-1] if t % 2 else grp
        barrier.wait()
        out[t] = {id(w): (w.cols, w.perm, w.signs) for w in order}

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads) and None not in out
    assert all(other == out[0] for other in out[1:])
    want = matrix_bfs(rs)
    assert [out[0][id(w)] for w in grp] == [(cols,) + signed_perm(cols) for cols in want]


# -- the monomial action against a Fraction-matrix substitution oracle ---------

def substitute_linear(p, images):
    """Substitute x_i -> images[i] in the XPoly p, power by power."""
    out = XPoly.zero(p.nvars, p.nsym)
    for e, c in p.terms.items():
        term = XPoly.const(c, p.nvars, p.nsym)
        for i, k in enumerate(e):
            if k:
                term = term * images[i] ** k
        out = out + term
    return out


def matrix_action(w, p):
    return substitute_linear(p, [XPoly.linear_form(col, p.nsym) for col in w.cols])


def monomials(n, degree):
    return [e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) <= degree]


def check_act_exp(rs, w):
    n = rs.rank
    for a in monomials(n, 3):
        image = XPoly(n, 0)
        for c, e in rs.act_exp(w, a):
            add_term(image.terms, e, CoeffPoly.const(c, 0))
        assert image == matrix_action(w, XPoly.monomial(a, n, 0))
        assert XPoly.monomial(a, n, 0).map_monomials(partial(rs.act_exp, w)) == image


@pytest.mark.parametrize("name", ["A3", "B3", "B2-rotated", "B3-rotated"])
def test_act_exp_matches_matrix_substitution(name):
    rs = SYSTEMS[name]()
    for w in rs.group():
        check_act_exp(rs, w)


def test_act_exp_outside_w_matches_matrix_substitution():
    rs = build_root_system("A", 3)
    w = rs.element(tuple(tuple(Fraction(-int(i == j)) for i in range(3)) for j in range(3)))
    assert w.roots is None and w.render() == "w(-1,-2,-3)"
    check_act_exp(rs, w)


def matrix_loc_action(w, f):
    """The image of f under w: the numerator by substitution, each
    denominator form (alpha, x) as (w alpha, x) found by value."""
    lookup = {}
    for i, r in enumerate(f.roots):
        lookup[r] = (i, 1)
        lookup[tuple(-c for c in r)] = (i, -1)
    num = matrix_action(w, f.num)
    den = {}
    for idx, m in f.den.items():
        jdx, sign = lookup[w.apply(f.roots[idx])]
        den[jdx] = den.get(jdx, 0) + m
        if sign < 0 and m % 2:
            num = -num
    return LocPoly(f.roots, num, den, reduce=False)


@pytest.mark.parametrize("name", ["B3", "B3-rotated"])
def test_locpoly_action_matches_matrix_denominators(name):
    rs = SYSTEMS[name]()
    rng = random.Random(2024)
    samples = []
    for _ in range(4):
        num = XPoly(3, 2)
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(0, 2) for _ in range(3))
            c = CoeffPoly.symbol(rng.randrange(2), 2) * Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            add_term(num.terms, e, c + CoeffPoly.const(rng.randint(-2, 2), 2))
        forms = rng.sample(range(len(rs.positive_roots)), rng.randint(2, 3))
        samples.append(LocPoly(rs.positive_roots, num, {k: rng.randint(1, 2) for k in forms}))
    assert all(len(f.den) >= 2 for f in samples)
    for w in rs.group():
        for f in samples:
            assert f.act(partial(rs.act_exp, w), w.roots) == matrix_loc_action(w, f)


# -- conjugating one generator, against the product in H_c -----------------------

@pytest.mark.parametrize("name,family", [("B2-rotated", "so"), ("B2-rotated", "gl"),
                                         ("B3", "so")])
def test_conj_one_embeds_to_the_conjugate_in_h_c(name, family):
    ctx = CherednikContext(SYSTEMS[name]())
    alg = get_subalgebra(ctx, family)
    n = ctx.n
    pairs = [(i, j) for i in range(n) for j in range(n) if family == "gl" or i < j]
    for w in ctx.rs.group():
        for pair in pairs:
            expansion = SubElement(alg)
            for p2, c in alg._conj[w, pair]:
                add_term(expansion.terms, SubWord((p2,), ctx.e), ctx.one * c)
            expected = group(ctx, w) * alg.generator(*pair) * group(ctx, w.inverse())
            assert expansion.embed() == expected
