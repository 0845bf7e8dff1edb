"""Acceptance criteria: one test per criterion, one pass/fail line each.

Each test prints `criterion N <name>: PASS|FAIL (elapsed, limit)` and then
asserts, so a red run still shows the full scoreboard under `pytest -s`.
"""

import random
import time
from collections import Counter

import pytest

from buraubuilding.arith import INF, LaurentPoly, parse_laurent
from buraubuilding.building import (
    apply,
    canonicalize,
    identity_vertex,
    induced_link_permutation,
    is_adjacent,
    link,
)
from buraubuilding.groupcalc import (
    LINK_GROUP_WORDS,
    _relator_word,
    kernel_witness_check,
    n_point_base,
    orbit_bfs,
    seven_star,
    stab_exact,
    stab_identity_exact,
    tube_pattern_check,
    verify_relations,
)
from buraubuilding.rep import (
    MatrixRF,
    convention_survey,
    is_homothety,
    is_unitary,
    letter_matrix,
    named_matrix,
    named_word,
    order_mod_homothety,
    parse_word,
    word_evaluate,
    word_evaluate_integral,
)

from pi_adic import RatFunc, to_ratfunc
from test_building import random_column_ops, random_matrix


def report(n, name, ok, elapsed, limit):
    print("criterion %2d %-28s %s (%.1fs, limit %ds)"
          % (n, name, "PASS" if ok else "FAIL", elapsed, limit))
    assert ok, "criterion %d (%s) failed" % (n, name)
    assert elapsed <= limit, "criterion %d exceeded %ds (%.1fs)" % (n, limit, elapsed)


@pytest.fixture(scope="module")
def group_orbit():
    # the <x, y, u>-orbit of [I], deep enough to cover the radius-2 ball
    return orbit_bfs(identity_vertex(3), ("x", "y", "u"), 6)


@pytest.fixture(scope="module")
def seven_stab():
    return stab_exact(seven_star(3))


# 1. Exactly one convention family is J-unitary.  Unitarity is preserved by
# matrix inversion, so unitary variants necessarily come in inverse pairs;
# the sharp statement is: exactly one inverse-closed pair survives, and
# within it exactly one variant also satisfies the u-relation [xyx, u^2].
def test_criterion_1_convention():
    t0 = time.time()
    survey = convention_survey(3)
    good = sorted(k for k, ok in survey.items() if ok)
    ok = good == [(1, 0, 0), (1, 1, 0)]
    u = named_matrix("u", 3)
    xyx = word_evaluate(parse_word("x.y.x"), 3)
    comm = xyx.inverse() * (u * u).inverse() * xyx * (u * u)
    ok = ok and is_homothety(comm) is not None
    # the other variant of the pair is the generator inverses; with them the
    # same group words give x' = x^-1, and the relation fails for u as given
    s = [letter_matrix("s%d" % i, 3).inverse() for i in (1, 2, 3)]
    xi = s[0] * s[1] * s[2]
    yi = xi * s[0]
    xyxi = xi * yi * xi
    commi = xyxi.inverse() * (u * u).inverse() * xyxi * (u * u)
    ok = ok and is_homothety(commi) is None
    report(1, "burau-convention", ok, time.time() - t0, 1)


# 2. Identity-vertex stabilizer image orders across primes.
def test_criterion_2_stab_identity():
    t0 = time.time()
    ok = True
    for p, n in ((2, 4), (3, 4), (5, 4), (7, 8)):
        ts = time.time()
        rpt = stab_identity_exact(p)
        ok = ok and rpt.complete and rpt.image_order == n \
            and time.time() - ts <= 60
    ts = time.time()
    rpt11 = stab_identity_exact(11)
    ok = ok and rpt11.complete and rpt11.image_order == 12 \
        and time.time() - ts <= 300
    report(2, "stab-identity-orders", ok, time.time() - t0, 360)


# 3. Orders of the named elements mod homothety.
def test_criterion_3_orders():
    t0 = time.time()
    ok = (order_mod_homothety(named_matrix("u", 3)) == 6
          and order_mod_homothety(named_matrix("h", 3)) == 3
          and order_mod_homothety(named_matrix("beta2", 5)) == 4)
    report(3, "u-h-beta2-orders", ok, time.time() - t0, 1)


# 4. Link counts and the within-link degree at p = 3.
def test_criterion_4_links():
    t0 = time.time()
    ok = True
    for p, n in ((2, 14), (3, 26), (5, 62)):
        lk = link(identity_vertex(p))
        ok = ok and len(lk) == n and len({lv.vclass for lv in lk}) == n
    lk3 = [lv.vclass for lv in link(identity_vertex(3))]
    for i in range(26):
        deg = sum(1 for j in range(26) if i != j and is_adjacent(lk3[i], lk3[j]))
        ok = ok and deg == 4
    report(4, "link-counts-and-degree", ok, time.time() - t0, 10)


# 5. Exactly 18 group points in Link(I), hit by the 18 listed words.  The
# group points are the orbit of [I] under the whole isometry group generated
# by x, y and u; words in x, y alone reach only 12 of them (the listed words
# themselves use w, which involves u).
def test_criterion_5_link_group_points(group_orbit):
    t0 = time.time()
    I = identity_vertex(3)
    lk = {lv.vclass for lv in link(I)}
    verts = [apply(word_evaluate(_relator_word(w), 3), I)
             for w in LINK_GROUP_WORDS]
    ok = len(set(verts)) == 18 and all(v in lk for v in verts)
    in_orbit = {v for v in lk if v in group_orbit}
    ok = ok and set(verts) == in_orbit and len(in_orbit) == 18
    report(5, "eighteen-group-points", ok, time.time() - t0, 60)


# 6. u stabilizes the n-point base with cycle type {1^4, 2^2, 3^2, 6^2};
# the two six-cycles consist of group points.
def test_criterion_6_u_action(group_orbit):
    t0 = time.time()
    u = named_matrix("u", 3)
    v = n_point_base(3)
    ok = apply(u, v) == v
    perm = induced_link_permutation(u, v)
    lk = [lv.vclass for lv in link(v)]
    lengths, six = [], set()
    seen = [False] * 26
    for i in range(26):
        if seen[i]:
            continue
        cyc, j = [], i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = perm[j]
        lengths.append(len(cyc))
        if len(cyc) == 6:
            six.update(cyc)
    ok = ok and sorted(lengths) == [1, 1, 1, 1, 2, 2, 3, 3, 6, 6]
    ok = ok and len(six) == 12 and all(lk[i] in group_orbit for i in six)
    report(6, "u-cycle-type-six-cycles", ok, time.time() - t0, 60)


# 7. Exact stabilizers: Z6 at the n-point base; order 54 mod homothety at
# 7*, whose link image has order 18 with the Z3 x D3 element-order profile
# and orbit sizes {9, 9, 3, 3, 1, 1}.
def test_criterion_7_stab_exact(seven_stab):
    t0 = time.time()
    rpt = stab_exact(n_point_base(3))
    ok = rpt.complete and rpt.order == 6 and rpt.image_order == 6 \
        and max(rpt.element_orders) == 6
    ok = ok and seven_stab.complete and seven_stab.order == 54 \
        and seven_stab.image_order == 18
    perms = [induced_link_permutation(g, seven_star(3))
             for g in seven_stab.elements]
    img = set(perms)
    def perm_order(pm):
        n, q = 1, pm
        ident = tuple(range(len(pm)))
        while q != ident:
            q = tuple(pm[i] for i in q)
            n += 1
        return n
    profile = Counter(perm_order(pm) for pm in img)
    # Z3 x D3 is the unique order-18 group with this order profile
    ok = ok and profile == Counter({1: 1, 2: 3, 3: 8, 6: 6})
    ok = ok and seven_stab.image_orbit_sizes == (1, 1, 3, 3, 9, 9)
    report(7, "stab-z6-and-54", ok, time.time() - t0, 600)


# 8. All relation families hold mod 3; [x^2, yxy] also integrally.
def test_criterion_8_relations():
    t0 = time.time()
    reports = verify_relations()
    ok = all(r.holds_mod_p for r in reports)
    braid = {r.name: r for r in reports if r.holds_integrally is not None}
    ok = ok and braid["[x^2, yxy]"].holds_integrally
    report(8, "relation-families", ok, time.time() - t0, 10)


# 9. The kernel witness relator: homothety mod 3, non-homothety integrally.
# The displayed word has 72 letters (36 x-type and 36 y-type).
def test_criterion_9_kernel_witness():
    t0 = time.time()
    r = kernel_witness_check()
    ok = r.holds_mod_p and not r.holds_integrally and len(r.relator) == 72
    report(9, "kernel-witness", ok, time.time() - t0, 10)


# 10. The tube: stabilizer image order 54 on the link at levels 2 and 3
# (18 at level 1, where the enumeration is exact).
def test_criterion_10_tube():
    t0 = time.time()
    levels = tube_pattern_check(kmax=3, depth=3)
    ok = len(levels) == 3
    ok = ok and levels[0].image_order == 18 and levels[0].stab_order_found == 54
    ok = ok and all(lv.image_order == 54 for lv in levels[1:])
    ok = ok and [lv.claimed_total_order for lv in levels] == [54, 486, 4374]
    report(10, "tube-image-orders", ok, time.time() - t0, 900)


# 11. Property suites at a fixed seed.
def test_criterion_11_properties():
    t0 = time.time()
    rng = random.Random(20240601)
    ok = True

    # ring axioms and involution involutivity over F_3(t) and F_5(t)
    for _ in range(150):
        p = rng.choice((3, 5))
        def rnd():
            num = tuple(rng.randrange(p) for _ in range(rng.randint(1, 4)))
            den = (1,) + tuple(rng.randrange(p) for _ in range(rng.randint(0, 3)))
            return RatFunc(p, num, den, "t")
        a, b, c = rnd(), rnd(), rnd()
        ok = ok and (a + b) * c == a * c + b * c
        ok = ok and a * (b * c) == (a * b) * c
        ok = ok and a.involution().involution() == a

    # valuation laws: v(ab) = v(a) + v(b), v(a+b) >= min(v(a), v(b))
    for _ in range(150):
        p = rng.choice((3, 5))
        def rndl():
            n = rng.randint(1, 4)
            return to_ratfunc(LaurentPoly(p, [rng.randrange(p) for _ in range(n)],
                                          rng.randint(-3, 3), "t"))
        a, b = rndl(), rndl()
        va, vb = a.valuation(), b.valuation()
        if va is not INF and vb is not INF:
            ok = ok and (a * b).valuation() == va + vb
            vs = (a + b).valuation()
            ok = ok and (vs is INF or vs >= min(va, vb))

    # canonicalization invariance under 500 random column ops and homotheties
    for _ in range(500):
        p = rng.choice((2, 3, 5))
        m = random_matrix(rng, p)
        if m.det().is_zero():
            continue
        v = canonicalize(m)
        ok = ok and canonicalize(random_column_ops(rng, v)) == v

    # action associativity and adjacency preservation
    I = identity_vertex(3)
    lk = [lv.vclass for lv in link(I)]
    letters = ["s1", "s2", "s3", "x", "y", "u"]
    for _ in range(20):
        w1 = ".".join(rng.choice(letters) for _ in range(rng.randint(1, 3)))
        w2 = ".".join(rng.choice(letters) for _ in range(rng.randint(1, 3)))
        g = word_evaluate(parse_word(w1), 3)
        h = word_evaluate(parse_word(w2), 3)
        ok = ok and apply(g * h, I) == apply(g, apply(h, I))
        w = rng.choice(lk)
        ok = ok and is_adjacent(apply(g, I), apply(g, w))

    report(11, "property-suites", ok, time.time() - t0, 120)
