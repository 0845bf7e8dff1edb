import hashlib
import itertools
import json
import random

import numpy as np
import pytest

from buraubuilding import groupcalc
from buraubuilding.arith import LaurentPoly, RatFunc
from buraubuilding.building import (
    apply,
    canonicalize,
    identity_vertex,
    induced_link_permutation,
    link,
    relative_position,
)
from buraubuilding.groupcalc import (
    LINK_GROUP_WORDS,
    ball,
    entry_degree_bounds,
    form_pullback,
    kernel_witness_check,
    n_point_base,
    normalize_mod_homothety,
    orbit_bfs,
    orbit_classify,
    perm_group,
    perm_orbit_sizes,
    seven_star,
    seven_star_pair,
    stab_exact,
    stab_identity_exact,
    stab_words,
    tube_chain,
    tube_pattern_check,
    verify_relations,
)
from buraubuilding.rep import (
    MatrixRF,
    is_homothety,
    is_unitary,
    letter_matrix,
    named_matrix,
    order_mod_homothety,
    parse_word,
    squier_form,
    word_evaluate,
)
from pi_adic import field_rows


# -- permutation helpers --------------------------------------------------------

def test_perm_group_order():
    # <(0 1 2)> and <(0 1), (0 1 2)> on three letters
    assert perm_group([(1, 2, 0)]) == (3, [(1, 2, 0)])
    assert perm_group([(1, 0, 2), (1, 2, 0)])[0] == 6


def perm_group_oracle(perms, limit=None):
    """The elements of the group closed by breadth-first search with every
    permutation a generator, sorted; None once more than ``limit`` are
    found."""
    gens = [tuple(pm) for pm in perms]
    n = len(gens[0])
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                prod = tuple(h[g[i]] for i in range(n))
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        if limit is not None and len(seen) > limit:
            return None
        frontier = nxt
    return sorted(seen)


def test_perm_group_order_matches_bfs_closure():
    # exact reports (their permutations are a group already), a word search
    # at 7* (duplicates, and a larger image than the set), and seeded sets in
    # S_n whose closure is larger than the set
    cases = [stab_identity_exact(p).perms for p in (2, 3, 5, 7)]
    cases.append(stab_words(seven_star(3), ("u", "u1", "h"), 2).perms)
    rng = random.Random(20261019)
    for n in (3, 4, 5, 6, 7):
        for k in (1, 2, 3):
            gens = [tuple(rng.sample(range(n), n)) for _ in range(k)]
            if len(perm_group_oracle(gens)) > len(set(gens)):
                cases.append(gens)
    # a subgroup of S_6 that moves {0, 1, 2} and {3, 4, 5} as blocks
    cases.append([(1, 2, 0, 3, 4, 5), (3, 4, 5, 0, 1, 2), (1, 0, 2, 4, 3, 5)])
    assert len(cases) >= 18
    for perms in cases:
        assert perm_group(perms)[0] == len(perm_group_oracle(perms))
    assert perm_group([]) == (1, [])
    assert perm_group([(0, 1, 2)]) == (1, [])


def test_perm_orbit_sizes():
    assert perm_orbit_sizes([(1, 0, 2, 3)], 4) == (1, 1, 2)


def test_orbit_sizes_from_the_generators_perm_group_took():
    # seeded random groups on up to 9 points, their elements shuffled, and
    # the exact reports at [I]: the few generators perm_group takes give
    # the orbit sizes of all the elements.  A group of more than 7! = 5040
    # elements (all of S8 or S9, say) is drawn again.
    rng = random.Random(20261020)
    cases = [stab_identity_exact(p).perms for p in (2, 3, 5, 7)]
    for n in (3, 5, 7, 9):
        for k in (1, 2, 3):
            elements = None
            while elements is None:
                # a product of cycles, so that some groups are intransitive
                gens = []
                for _ in range(k):
                    pts = rng.sample(range(n), rng.randint(2, n))
                    pm = list(range(n))
                    for a, b in zip(pts, pts[1:] + pts[:1]):
                        pm[a] = b
                    gens.append(tuple(pm))
                elements = perm_group_oracle(gens, limit=5040)
            rng.shuffle(elements)
            cases.append(elements)
    shapes = set()
    for perms in cases:
        n = len(perms[0])
        order, gens = perm_group(perms)
        assert order == len(set(perms)) and len(gens) < order
        assert perm_orbit_sizes(gens, n) == perm_orbit_sizes(perms, n)
        shapes.add(perm_orbit_sizes(perms, n))
    # transitive and intransitive groups both occur
    assert any(len(s) == 1 for s in shapes) and any(len(s) > 1 for s in shapes)


def entry_map(m, f):
    """The matrix with f applied to every entry of m."""
    return MatrixRF(m.p, tuple(tuple(f(e) for e in row) for row in field_rows(m)),
                    m.var)


def test_normalize_mod_homothety():
    u = named_matrix("u", 3)
    shifted = entry_map(u, lambda e: e.shift_pi(2))
    assert normalize_mod_homothety(shifted) == normalize_mod_homothety(u)


# -- the pulled-back form ---------------------------------------------------------

def test_form_pullback_identity_fixed_by_unitary_constants():
    F0 = form_pullback(identity_vertex(3))
    # entries live over t: even part of M* J M in s
    bounds = entry_degree_bounds(F0)
    assert all(b >= 0 for b in (bounds[0][0], bounds[1][1], bounds[2][2]))


def form_pullback_in_the_s_ring(v):
    """(M* J M) / s formed over F_p[s, 1/s], t = s^2 substituted entrywise,
    then read back over t."""
    p = v.p
    Ms = MatrixRF(p, tuple(tuple(e.to_s_ring() for e in row)
                           for row in v.canon.rows), "s")
    F = Ms.star() * squier_form(p) * Ms
    s_inv = LaurentPoly.term(1, -1, p, "s")
    return MatrixRF(p, tuple(tuple((e * s_inv).from_s_ring() for e in row)
                             for row in F.rows))


def test_form_pullback_matches_the_s_ring_form():
    rng = random.Random(20261024)
    for p in (2, 3, 5):
        gens = [letter_matrix(name, p) for name in ("x", "y", "s1")]
        v = identity_vertex(p)
        for _ in range(6):
            assert form_pullback(v) == form_pullback_in_the_s_ring(v)
            v = apply(rng.choice(gens), v)


def test_degree_bounds_cut_search():
    v = canonicalize(named_matrix("M19", 3))
    F0 = form_pullback(v)
    D = entry_degree_bounds(F0)
    assert max(max(row) for row in D) <= 8


def degree_bounds_oracle(F0):
    """The bounds of ``entry_degree_bounds`` with F0^-1 formed in RatFunc
    field arithmetic, adj(F0) / det F0 entry by entry, from F0's entries."""
    r = field_rows(F0)

    def cof(i, j):
        sub = [[r[a][b] for b in range(3) if b != j] for a in range(3) if a != i]
        m = sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
        return -m if (i + j) % 2 else m

    det = r[0][0] * cof(0, 0) + r[0][1] * cof(0, 1) + r[0][2] * cof(0, 2)
    inv = [[cof(j, l) / det for j in range(3)] for l in range(3)]
    rmin = [min(r[i][k].valuation() for k in range(3)) for i in range(3)]
    cmin = [min(inv[l][j].valuation() for l in range(3)) for j in range(3)]
    return [[-(rmin[b] + cmin[a]) for b in range(3)] for a in range(3)]


def test_degree_bounds_match_the_field_inverse():
    # the bounds read nu(F0^-1) off adj(F0) and nu(det F0); det F0 need not
    # be a unit, so the reference divides in F_p(t)
    I3 = identity_vertex(3)
    tube2 = next(itertools.islice(tube_chain(), 1, 2))[1]
    verts = [identity_vertex(p) for p in (2, 3, 5, 7)]
    verts += [n_point_base(3), seven_star(3), tube2]
    verts += [lv.vclass for lv in link(I3)]
    assert len(verts) == 7 + 26
    non_units = 0
    for v in verts:
        F0 = form_pullback(v)
        assert entry_degree_bounds(F0) == degree_bounds_oracle(F0), v
        non_units += len(F0.det().coeffs) > 1
    assert non_units > 0


def column_candidates_oracle(p, F0pi, degs, b, window, budget):
    """Digit arrays for column b passing B(c, c) = F0[b][b], by one dense
    pass over every candidate and every coefficient of the window.

    degs[a] is the pi-degree bound of entry (a, b); negative means the
    entry is identically zero.  Returns (digit matrix, per-entry digit
    counts).  B(u, v) = sum_a,e bar(u_a) F0[a][e] v_e.
    """
    ns = [max(d + 1, 0) for d in degs]
    total = sum(ns)
    N = p ** total
    if N > budget:
        raise ValueError("column candidate space %d exceeds budget %d" % (N, budget))
    idx = np.arange(N, dtype=np.int64)
    digs = np.empty((N, total), dtype=np.int16)
    for k in range(total):
        digs[:, k] = (idx // (p ** k)) % p
    starts = np.cumsum([0] + ns)
    lo, hi = window
    width = hi - lo + 1
    P = np.zeros((N, width), dtype=np.int64)
    for a in range(3):
        if ns[a] == 0:
            continue
        ca = digs[:, starts[a]:starts[a + 1]]
        for e in range(3):
            if ns[e] == 0 or not F0pi[a][e]:
                continue
            ce = digs[:, starts[e]:starts[e + 1]]
            for r in range(-(ns[a] - 1), ns[e]):
                k0 = max(0, -r)
                k1 = min(ns[a], ns[e] - r)
                if k0 >= k1:
                    continue
                corr = np.einsum("nk,nk->n", ca[:, k0:k1], ce[:, k0 + r:k1 + r],
                                 dtype=np.int64)
                for q, f in F0pi[a][e].items():
                    P[:, q + r - lo] += f * corr
    P %= p
    target = np.zeros(width, dtype=np.int64)
    for q, f in F0pi[b][b].items():
        target[q - lo] = f
    mask = np.all(P == target, axis=1)
    return digs[mask], ns


def _enumeration_vertices():
    """[I] and link([I]) at p = 2 and 3, [I] and the link vertices with at
    most 5^6 candidates per column at p = 5, the n-point and 7*."""
    out = []
    for p in (2, 3, 5):
        I = identity_vertex(p)
        for v in [I] + [lv.vclass for lv in link(I)]:
            D = entry_degree_bounds(form_pullback(v))
            digits = max(sum(max(D[a][b] + 1, 0) for a in range(3))
                         for b in range(3))
            if p < 5 or digits <= 6:
                out.append(v)
    return out + [n_point_base(3), seven_star(3)]


def pair_constraint_oracle(p, F0pi, U, ns_u, W, ns_w, target):
    """Mask, one row per row u of U and one column per row w of W, of the
    pairs of digit rows with B(u, w) = target, a {pi-exponent: coefficient}
    dict.

    For each u, g_e = sum_a bar(u_a) F0[a][e] is formed as a dict, with
    bar(pi^k) = pi^-k; then B(u, w) = sum_e g_e w_e is linear in the
    digits of w and read on every w at once.
    """
    su, sw = np.cumsum([0] + list(ns_u)), np.cumsum([0] + list(ns_w))
    out = np.zeros((len(U), len(W)), dtype=bool)
    for i, u in enumerate(U):
        coeff = {}              # (pi-exponent, digit position of w) -> coefficient
        for a in range(3):
            for k in range(ns_u[a]):
                for e in range(3):
                    for q, f in F0pi[a][e].items():
                        for m in range(ns_w[e]):
                            key = (q - k + m, sw[e] + m)
                            coeff[key] = coeff.get(key, 0) + int(u[su[a] + k]) * f
        exps = sorted({q for q, _ in coeff} | set(target))
        L = np.zeros((len(exps), sum(ns_w)), dtype=np.int64)
        for (q, j), f in coeff.items():
            L[exps.index(q), j] += f
        want = np.array([target.get(q, 0) for q in exps], dtype=np.int64) % p
        out[i] = np.all(W.astype(np.int64) @ L.T % p == want, axis=1)
    return out


def _det3(r):
    """The determinant of the 3x3 integer matrix with columns r[0], r[1], r[2]."""
    (a, b, c), (d, e, f), (g, h, i) = zip(*r)
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def digit_triples_oracle(p, F0pi, D):
    """Every triple of column digit rows with alpha* F0 alpha = F0 and
    nu(det alpha) = 0, both signs: the dense columns of
    ``column_candidates_oracle``, chained by ``pair_constraint_oracle`` on
    the pairs (0, 1), (0, 2), (1, 2) and by the determinant of the pi^0
    digits."""
    exps = [q for row in F0pi for d in row for q in d]
    dmax = max(max(row) for row in D)
    window = (min(exps) - dmax, max(exps) + dmax)
    cols = [column_candidates_oracle(p, F0pi, [D[a][b] for a in range(3)], b,
                                     window, groupcalc.DEFAULT_COLUMN_BUDGET)
            for b in range(3)]
    C0, C1, C2 = (digs for digs, _ in cols)
    m01, m02, m12 = (pair_constraint_oracle(p, F0pi, cols[b][0], cols[b][1],
                                            cols[e][0], cols[e][1], F0pi[b][e])
                     for b, e in ((0, 1), (0, 2), (1, 2)))
    starts = [np.cumsum([0] + list(ns)) for _, ns in cols]

    def residue(row, b):
        return [int(row[starts[b][a]]) if cols[b][1][a] else 0 for a in range(3)]

    out = set()
    for i0, i1 in zip(*np.nonzero(m01)):
        for i2 in np.flatnonzero(m02[i0] & m12[i1]):
            rows = (C0[i0], C1[i1], C2[i2])
            if _det3([residue(r, b) for b, r in enumerate(rows)]) % p:
                out.add(tuple(tuple(int(d) for d in r) for r in rows))
    return out


def _assert_triples_match_oracle(p, F0, D):
    """The search's triples, with their negatives, are the oracle's, and
    the search holds one of each pair +-alpha."""
    F0pi = [[groupcalc._laurent_pi_coeffs(x) for x in row] for row in F0._terms]
    ns = [tuple(max(D[a][b] + 1, 0) for a in range(3)) for b in range(3)]
    got = [tuple(tuple(int(d) for d in rows[b]) for b in range(3))
           for rows in groupcalc._digit_triples(p, F0pi, ns)]
    negated = {tuple(tuple(-d % p for d in x) for x in t) for t in got}
    want = digit_triples_oracle(p, F0pi, D)
    assert set(got) | negated == want, (p, D)
    assert len(set(got)) == len(got) == len(want) // (1 if p == 2 else 2)
    return got


def test_column_enumeration_matches_dense_oracle():
    # the digit triples the search accepts, before the per-element
    # re-checks: columns x pair constraints x residue determinant
    verts = _enumeration_vertices()
    assert len(verts) == 1 + 14 + 1 + 26 + 9 + 2
    found = 0
    for v in verts:
        F0 = form_pullback(v)
        found += len(_assert_triples_match_oracle(v.p, F0,
                                                  entry_degree_bounds(F0)))
    assert found == sum(stab_exact(v).order for v in verts)


@pytest.mark.parametrize("p", (101, 157))
def test_column_enumeration_at_the_identity_for_large_primes(p):
    # p^3 candidates per column; 157 is the largest prime the budget admits.
    # The search enumerates column 0 (three columns of three digits), one
    # row of each pair +-c with B(c, c) = F0[0][0]
    F0 = form_pullback(identity_vertex(p))
    F0pi = [[groupcalc._laurent_pi_coeffs(x) for x in row] for row in F0._terms]
    D = entry_degree_bounds(F0)
    assert D == [[0] * 3] * 3
    digs, ns = column_candidates_oracle(p, F0pi, [0, 0, 0], 0, (0, 1),
                                        groupcalc.DEFAULT_COLUMN_BUDGET)
    assert len(digs) == p * (p - 1)
    first = digs[np.arange(len(digs)), (digs != 0).argmax(axis=1)]
    want = digs[first <= (p - 1) // 2]
    diag = groupcalc._constraint(p, F0pi, (1, 1, 1), (1, 1, 1), F0pi[0][0], 1)
    got = groupcalc._first_column(p, 3, diag)
    assert sorted(map(tuple, got.tolist())) == sorted(map(tuple, want.tolist()))


@pytest.mark.parametrize("entries", (1, 4))
def test_digit_triples_do_not_depend_on_the_pair_block(entries, monkeypatch):
    # pairs (c1, c2) are tested a block of rows of X1 at a time, and every
    # point set (c0, and each solution space) is built and cut a block of
    # points at a time: one row per block, or a few with a short last
    # block, give the same triples
    def triples(v):
        F0 = form_pullback(v)
        D = entry_degree_bounds(F0)
        F0pi = [[groupcalc._laurent_pi_coeffs(x) for x in row] for row in F0._terms]
        ns = [tuple(max(D[a][b] + 1, 0) for a in range(3)) for b in range(3)]
        return [tuple(tuple(rows[b].tolist()) for b in range(3))
                for rows in groupcalc._digit_triples(v.p, F0pi, ns)]

    verts = [seven_star(3), n_point_base(3), identity_vertex(5)]
    verts += [lv.vclass for lv in link(identity_vertex(3))[:6]]
    # the (points, digits) of each block that reaches the quadratic cut
    quadratic_mask, shapes = groupcalc._quadratic_mask, []

    def spy(p, con, X):
        shapes.append(X.shape)
        return quadratic_mask(p, con, X)

    monkeypatch.setattr(groupcalc, "_quadratic_mask", spy)
    want = [triples(v) for v in verts]
    whole, shapes[:] = max(m for m, _ in shapes), []
    monkeypatch.setattr(groupcalc, "_PAIR_ENTRIES", entries)
    assert [triples(v) for v in verts] == want
    # a block holds at most `entries` digits, or one point
    assert all(m * n <= max(entries, n) for m, n in shapes)
    assert max(m for m, _ in shapes) < whole


@pytest.mark.parametrize("p, n", [(2, 0), (2, 6), (3, 4), (5, 3), (7, 2),
                                  (257, 1), (257, 2)])
def test_grid_is_the_base_p_digit_table(p, n):
    # row m holds the base-p digits of m, lowest first, in the smallest
    # unsigned dtype that holds p - 1
    grid = groupcalc._grid(p, n)
    want = [[m // p ** k % p for k in range(n)] for m in range(p ** n)]
    assert grid.tolist() == want
    assert grid.dtype == (np.uint8 if p < 257 else np.uint16)
    assert not grid.flags.writeable


# columns of total 0, 1 and 5 digits, and of 1, 2 and 3 digits
SMALL_PROFILES = ([[-1, 0, 1], [-1, -1, 1], [-1, -1, 0]],
                  [[0, 1, 0], [-1, 0, 1], [-1, -1, 0]])


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("D", SMALL_PROFILES)
@pytest.mark.parametrize("link_index", (None, 3))
def test_column_enumeration_small_profiles_match_oracle(p, D, link_index):
    # the degree profiles above at [I] (link_index None) or at a vertex of
    # link([I]): a column of no digits, and columns of unequal lengths
    I = identity_vertex(p)
    v = I if link_index is None else link(I)[link_index].vclass
    F0 = form_pullback(v)
    _assert_triples_match_oracle(p, F0, D)
    # each column with digits, enumerated as the search enumerates c0
    F0pi = [[groupcalc._laurent_pi_coeffs(x) for x in row] for row in F0._terms]
    exps = [q for row in F0pi for d in row for q in d]
    window = (min(exps) - 1, max(exps) + 1)
    for b in range(3):
        digs, ns = column_candidates_oracle(p, F0pi, [D[a][b] for a in range(3)],
                                            b, window, 3 ** 5)
        if sum(ns):
            diag = groupcalc._constraint(p, F0pi, tuple(ns), tuple(ns),
                                         F0pi[b][b], 1)
            got = groupcalc._first_column(p, sum(ns), diag).tolist()
            both = {tuple(x) for x in got} | {tuple(-d % p for d in x) for x in got}
            assert both == set(map(tuple, digs.tolist())), (D, b)
            assert len(got) == len(digs) // (1 if p == 2 else 2)


TUBE2_BASIS = (("1", "0", "0"), ("2", "t^-3", "0"), ("0", "0", "t^-3"))


def test_stab_exact_tube2_within_a_raised_budget():
    # 3^15 candidates per column: over the default budget, exact within 15M
    tube2 = canonicalize(MatrixRF.from_strings(TUBE2_BASIS, 3))
    assert tube2.to_text() == "(0,3,3 | 2;0;0)"
    with pytest.raises(ValueError, match="column candidate space 14348907 "
                                         "exceeds budget 4000000"):
        stab_exact(tube2)
    rpt = stab_exact(tube2, column_budget=15_000_000)
    assert (rpt.order, rpt.image_order, rpt.image_orbit_sizes) == \
        (486, 54, (1, 1, 3, 3, 9, 9))
    words = stab_words(tube2, ("u", "h", "alpha1", "alpha2"), 1)
    assert set(words.elements) <= set(rpt.elements)


def test_pulled_back_form_bar_symmetry():
    # F0* = t F0, so bar(B(c, c)) = t B(c, c) for every column c: the
    # coefficients of B(c, c) at pi^q and pi^(1-q) agree
    rng = random.Random(7)
    for v in _enumeration_vertices():
        p = v.p
        F0 = form_pullback(v)
        t = RatFunc.one(p).shift_pi(-1)
        assert F0.star() == F0.scale(t), v.to_text()
        exps = {q for a in range(3) for e in range(3)
                for q in groupcalc._laurent_pi_coeffs(F0[a, e].laurent_terms())}
        assert exps == {1 - q for q in exps}
        F = field_rows(F0)
        for _ in range(3):
            c = [RatFunc.from_pi_digits([rng.randrange(p) for _ in range(4)],
                                        0, p) for _ in range(3)]
            B = RatFunc.zero(p)
            for a in range(3):
                for e in range(3):
                    B = B + c[a].involution() * F[a][e] * c[e]
            assert B.involution() == B * t
            coeffs = groupcalc._laurent_pi_coeffs(B.laurent_terms())
            assert all(coeffs.get(1 - q) == f for q, f in coeffs.items())


def test_stab_exact_refuses_an_asymmetric_form(monkeypatch):
    v = n_point_base(3)
    F0 = form_pullback(v)
    broken = F0.scale(RatFunc.const(2, 3).shift_pi(1) + RatFunc.one(3))
    monkeypatch.setattr(groupcalc, "form_pullback", lambda w: broken)
    with pytest.raises(AssertionError, match="F0\\* = t F0"):
        stab_exact(v)


def linear_pair_filter_oracle(p, F0, fixed_col, digs, ns, target_entry):
    """Mask of candidate columns w with B(fixed_col, w) = target_entry,
    with g_e = sum_a bar(u_a) F0[a][e] formed over RatFunc.

    B(u, w) = sum_e g_e w_e, so for a fixed u the constraint is linear in
    the digits of w.
    """
    lpc = groupcalc._laurent_pi_coeffs
    F = field_rows(F0)
    g = []
    for e in range(3):
        acc = RatFunc.zero(p)
        for a in range(3):
            if not fixed_col[a].is_zero() and not F[a][e].is_zero():
                acc = acc + fixed_col[a].involution() * F[a][e]
        g.append(lpc(acc.laurent_terms()))
    tgt = lpc(target_entry.laurent_terms())
    exps = [q for d in g for q in d]
    if not exps:
        ok = not tgt
        return np.full(len(digs), ok, dtype=bool)
    lo = min(min(d) for d in g if d)
    hi = max(max(d) + ns[e] - 1 for e, d in enumerate(g) if d)
    if any(q < lo or q > hi for q in tgt):
        return np.zeros(len(digs), dtype=bool)
    width = hi - lo + 1
    starts = np.cumsum([0] + list(ns))
    L = np.zeros((sum(ns), width), dtype=np.int64)
    for e in range(3):
        for r, f in g[e].items():
            for m in range(ns[e]):
                L[starts[e] + m, r + m - lo] += f
    P = (digs.astype(np.int64) @ L) % p
    target = np.zeros(width, dtype=np.int64)
    for q, f in tgt.items():
        target[q - lo] = f % p
    return np.all(P == target, axis=1)


def _from_pi_coeffs(coeffs, p):
    """A {pi-exponent: coefficient} dict back to a RatFunc."""
    if not coeffs:
        return RatFunc.zero(p)
    lo, hi = min(coeffs), max(coeffs)
    return RatFunc.from_pi_digits([coeffs.get(q, 0) for q in range(lo, hi + 1)],
                                  lo, p)


def test_integer_pair_filter_matches_ratfunc_oracle():
    # the linear constraints of the search against RatFunc arithmetic: for
    # every enumerated c0, each solution space of B(c0, c) = F0[b0][b], cut
    # by B(c, c) = F0[b][b], is the set of the dense column candidates that
    # the RatFunc filter passes, and so is each row of the pair mask of
    # B(c1, c2) = F0[b1][b2]
    lpc = groupcalc._laurent_pi_coeffs
    verts = [n_point_base(3), seven_star(3)]
    for p in (2, 3):
        verts += [lv.vclass for lv in link(identity_vertex(p))]
    sizes = []
    for v in verts:
        p = v.p
        F0 = form_pullback(v)
        D = entry_degree_bounds(F0)
        F0pi = [[lpc(x) for x in row] for row in F0._terms]
        ns = [tuple(max(D[a][b] + 1, 0) for a in range(3)) for b in range(3)]
        b0, b1, b2 = sorted(range(3), key=lambda b: (sum(ns[b]), b))
        exps = [q for row in F0pi for d in row for q in d]
        dmax = max(max(row) for row in D)
        window = (min(exps) - dmax, max(exps) + dmax)
        cands = {b: column_candidates_oracle(
            p, F0pi, [D[a][b] for a in range(3)], b, window,
            groupcalc.DEFAULT_COLUMN_BUDGET)[0] for b in (b1, b2)}

        def con(b, e, lo=None):
            return groupcalc._constraint(p, F0pi, ns[b], ns[e], F0pi[b][e], lo)

        def column(x, b):
            return [RatFunc.from_terms(p, c, e)
                    for e, c in groupcalc._digits_to_terms(x, ns[b])]

        for x0 in groupcalc._first_column(p, sum(ns[b0]), con(b0, b0, 1)):
            spaces = []
            for b in (b1, b2):
                got = groupcalc._solution_points(p, con(b0, b), x0,
                                                 con(b, b, 1))
                mask = linear_pair_filter_oracle(
                    p, F0, column(x0, b0), cands[b], ns[b],
                    _from_pi_coeffs(F0pi[b0][b], p))
                assert sorted(map(tuple, got.tolist())) == \
                    sorted(map(tuple, cands[b][mask].tolist())), v.to_text()
                spaces.append(got)
                sizes.append((len(got), len(cands[b])))
            X1, X2 = spaces
            pairs = groupcalc._pair_mask(p, con(b1, b2), X1, X2)
            for x1, row in zip(X1, pairs):
                want = linear_pair_filter_oracle(
                    p, F0, column(x1, b1), X2, ns[b2],
                    _from_pi_coeffs(F0pi[b1][b2], p))
                assert np.array_equal(row, want), v.to_text()
    # the solution spaces hold some candidates and refuse others
    assert any(0 < kept < n for kept, n in sizes)
    assert any(kept == 0 < n for kept, n in sizes)


def test_constraint_refuses_a_target_it_cannot_reach():
    # at [I] (entries of F0 at pi^0 and pi^1), B(u, w) on one-digit entries
    # reaches pi^0 and pi^1 only: a target at pi^3, or at pi^0 on the
    # diagonal where q >= 1 is imposed, is dropped or refused, not ignored
    p = 3
    F0 = form_pullback(identity_vertex(p))
    F0pi = [[groupcalc._laurent_pi_coeffs(x) for x in row] for row in F0._terms]
    ns = (1, 1, 1)
    assert groupcalc._constraint(p, F0pi, ns, ns, {3: 1}) is None
    assert groupcalc._constraint(p, F0pi, ns, ns, {3: 1}, 1) is None
    T, tvec = groupcalc._constraint(p, F0pi, ns, ns, {0: 2}, 1)
    assert tvec.tolist() == [0] * len(T)
    T, tvec = groupcalc._constraint(p, F0pi, ns, ns, {0: 2, 1: 1})
    assert sorted(tvec.tolist()) == [1, 2]


def test_form_tensor_matches_ratfunc_form():
    # x_u^T T[q - lo] x_w is the pi^q coefficient of B(u, w) =
    # sum_a,e bar(u_a) F0[a][e] w_e in RatFunc arithmetic, for columns with
    # unequal digit counts, on windows that reach q <= 0
    rng = random.Random(17)
    verts = [n_point_base(3), seven_star(3)]
    for p in (2, 3):
        I = identity_vertex(p)
        verts += [I] + [lv.vclass for lv in link(I)]
    lpc = groupcalc._laurent_pi_coeffs
    low_hits = 0
    for v in verts:
        p = v.p
        F0 = form_pullback(v)
        F0pi = [[lpc(x) for x in row] for row in F0._terms]
        F = field_rows(F0)
        for _ in range(3):
            ns_u = ns_w = ()
            while ns_u == ns_w:
                ns_u, ns_w = (tuple(rng.randrange(4) for _ in range(3))
                              for _ in range(2))
            lo, hi = rng.randrange(-5, 1), rng.randrange(1, 6)
            T = groupcalc._form_tensor(p, F0pi, ns_u, ns_w, lo, hi)
            assert T.shape == (hi - lo + 1, sum(ns_u), sum(ns_w))
            xu, xw = (np.array([rng.randrange(p) for _ in range(sum(ns))],
                               dtype=np.int16) for ns in (ns_u, ns_w))
            u, w = ([RatFunc.from_terms(p, c, e) for e, c in
                     groupcalc._digits_to_terms(x, ns)]
                    for x, ns in ((xu, ns_u), (xw, ns_w)))
            B = RatFunc.zero(p)
            for a in range(3):
                for e in range(3):
                    B = B + u[a].involution() * F[a][e] * w[e]
            coeffs = lpc(B.laurent_terms())
            for q in range(lo, hi + 1):
                got = int(xu.astype(np.int64) @ T[q - lo] @ xw) % p
                assert got == coeffs.get(q, 0), (v.to_text(), ns_u, ns_w, q)
                low_hits += q <= 0 and got != 0
    assert low_hits > 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_residue_determinant_matches_valuation(p):
    # alpha has entries in O, so nu(det alpha) = 0 iff the determinant of
    # its pi^0 digits is nonzero mod p; stab_exact forms it as
    # (r0 x r1) . r2 over the residue columns
    rng = random.Random(p)
    units = 0
    for _ in range(150):
        cols, res = [], []
        for _ in range(3):
            ns = tuple(rng.choice((0, 1, 1, 2, 3)) for _ in range(3))
            row = np.array([rng.randrange(p) for _ in range(sum(ns))],
                           dtype=np.int16)
            cols.append(groupcalc._digits_to_terms(row, ns))
            res.append(groupcalc._residues(row[None, :], ns)[0])
        alpha = MatrixRF.from_terms(p, tuple(zip(*cols)))
        cross = np.cross(res[0], res[1]) % p
        unit = int(res[2] @ cross) % p != 0
        assert unit == (alpha.det().to_ratfunc().valuation() == 0), (alpha, res)
        units += unit
    assert 0 < units < 150


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_elimination_mod_p_matches_brute_force(p):
    # seeded systems A x = y over F_p^n, n <= 5: random (full rank or not,
    # no rows at all included), with a row that combines two others, with
    # zero rows, with a repeated row whose right-hand side differs
    # (inconsistent), all with up to n + 2 rows
    rng = random.Random(300 + p)
    seen = set()
    for n in range(1, 6):
        X = np.array(list(itertools.product(range(p), repeat=n)), dtype=np.int64)
        for trial in range(16):
            kind = trial % 4
            m = rng.randrange(0 if kind == 0 else 1, n + 3)
            A = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(m)],
                         dtype=np.int64).reshape(m, n)
            y = np.array([rng.randrange(p) for _ in range(m)], dtype=np.int64)
            if kind == 1 and m >= 3:
                c = rng.randrange(1, p)
                A[2], y[2] = (A[0] + c * A[1]) % p, (y[0] + c * y[1]) % p
            elif kind == 2:
                A[rng.randrange(m)] = 0
            elif kind == 3:
                A = np.vstack([A, A[:1]])
                y = np.append(y, (y[0] + rng.randrange(1, p)) % p)
            want = {tuple(x) for x in X[np.all(X @ A.T % p == y, axis=1)].tolist()}
            kernel = np.all(X @ A.T % p == 0, axis=1).sum()
            rank = n - round(np.log(kernel) / np.log(p))
            space = groupcalc._solve_mod_p(A, y, p)
            got = [] if space is None else [
                tuple((space[0] + np.array(c, dtype=np.int64) @ space[1]) % p)
                for c in itertools.product(range(p), repeat=len(space[1]))]
            assert len(set(got)) == len(got), (A, y)
            assert set(got) == want, (A, y)
            seen.add(("full" if rank == min(len(A), n) else "deficient",
                      "solvable" if want else "inconsistent",
                      "tall" if len(A) > n else "wide",
                      "zero row" if not np.all(A.any(axis=1)) else "no zero row"))
    for label in ("full", "deficient", "solvable", "inconsistent", "tall",
                  "wide", "zero row"):
        assert any(label in s for s in seen), label


def test_stab_exact_re_checks_the_form(monkeypatch):
    # the search imposes every coefficient of alpha* F0 alpha = F0, so the
    # full check is a re-check: with the (b1, b2) constraint dropped, a
    # candidate that fails it reaches the check and raises
    def dropped(p, con, X, Y):
        return np.ones((len(X), len(Y)), dtype=bool)

    monkeypatch.setattr(groupcalc, "_pair_mask", dropped)
    for v in (seven_star(3), identity_vertex(5)):
        with pytest.raises(AssertionError, match="alpha\\* F0 alpha = F0"):
            stab_exact(v)


# -- exact stabilizers -------------------------------------------------------------

def test_stab_identity_element_orders_need_no_order_cap(monkeypatch):
    # an element's order divides the group order, so stab_exact caps the
    # order search there, not at the default of order_mod_homothety
    def capped(A, maxn=3):
        return order_mod_homothety(A, maxn)

    monkeypatch.setattr(groupcalc, "order_mod_homothety", capped)
    rpt = stab_identity_exact(7)
    assert rpt.element_orders == (1, 2, 4, 4, 8, 8, 8, 8)


def test_stab_identity_small_primes():
    for p, n in ((2, 4), (3, 4), (5, 4)):
        rpt = stab_identity_exact(p)
        assert rpt.complete
        assert rpt.image_order == n


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_stab_identity_perms_read_from_the_constant_matrix(p):
    # at [I] the canonical basis is I, so each constant element is its own
    # residue matrix
    I = identity_vertex(p)
    rpt = stab_identity_exact(p)
    for g, pm in zip(rpt.elements, rpt.perms):
        assert pm == induced_link_permutation(g, I), str(g)


def test_report_refuses_a_false_exact_report():
    I = identity_vertex(3)
    ident, x = MatrixRF.identity(3), letter_matrix("x", 3)
    n = len(link(I))
    fixed = tuple(range(n))
    cycle = (1, 2, 0) + fixed[3:]
    with pytest.raises(AssertionError, match="identity is missing"):
        groupcalc._report(I, "exact", [x], [fixed], [4], {})
    with pytest.raises(AssertionError, match="does not divide"):
        groupcalc._report(I, "exact", [ident, x], [fixed, cycle], [1, 4], {})
    rpt = groupcalc._report(I, "word-search", [ident, x], [fixed, cycle],
                            [4, 1], {})
    assert (rpt.complete, rpt.order, rpt.image_order) == (False, 2, 3)
    assert rpt.element_orders == (1, 4)


def test_stab_identity_generated_by_x():
    rpt = stab_identity_exact(3)
    x = letter_matrix("x", 3)
    keys = {normalize_mod_homothety(g).rows for g in rpt.elements}
    assert normalize_mod_homothety(x).rows in keys


def identity_stabilizer_oracle(p):
    """The stabilizer of [I] by constant matrices, independent of stab_exact.

    For constant A the unitarity condition over F_p[s, 1/s] splits by
    s-degree into A^T K A = K with K = N - I, N the strict upper shift.
    Columns are enumerated in F_p^3 and chained by the bilinear constraints;
    the solutions are taken modulo the unitary scalars {c : c^2 = 1}.
    Returns (constant matrices, one per class, and their link permutations
    read off link([I]) by ``apply``).
    """
    K = np.array([[-1, 1, 0], [0, -1, 1], [0, 0, -1]], dtype=np.int64) % p
    vecs = np.array(list(itertools.product(range(p), repeat=3)), dtype=np.int64)
    q = np.einsum("ni,ij,nj->n", vecs, K, vecs) % p
    C = vecs[q == (p - 1) % p]          # columns with the diagonal value K_ii = -1
    sols = []
    for c0 in C:
        kt0 = (K.T @ c0) % p            # c0^T K v = kt0 . v
        k0 = (K @ c0) % p               # v^T K c0 = k0 . v
        m1 = ((C @ kt0) % p == K[0][1]) & ((C @ k0) % p == K[1][0])
        m2base = ((C @ kt0) % p == K[0][2]) & ((C @ k0) % p == K[2][0])
        for c1 in C[m1]:
            kt1 = (K.T @ c1) % p
            k1 = (K @ c1) % p
            m2 = m2base & ((C @ kt1) % p == K[1][2]) & ((C @ k1) % p == K[2][1])
            for c2 in C[m2]:
                sols.append(np.stack([c0, c1, c2], axis=1) % p)
    scalars = [c for c in range(1, p) if (c * c) % p == 1]
    classes = {min(tuple(((c * A) % p).flatten()) for c in scalars)
               for A in sols}
    mats = [MatrixRF.from_strings([[str(key[3 * i + j]) for j in range(3)]
                                   for i in range(3)], p)
            for key in sorted(classes)]
    I = identity_vertex(p)
    lk = link(I)
    index = {lv.vclass: i for i, lv in enumerate(lk)}
    perms = [tuple(index[apply(g, lv.vclass)] for lv in lk) for g in mats]
    return mats, perms


def test_stab_exact_matches_identity_enumeration():
    # stab_identity_exact is stab_exact at [I]; the constant-matrix search
    # above is its oracle, with no prime cap
    for p, order in ((2, 4), (3, 4), (5, 4), (7, 8), (11, 12), (13, 12)):
        mats, perms = identity_stabilizer_oracle(p)
        rpt = stab_identity_exact(p)
        assert rpt.vertex == identity_vertex(p) and rpt.complete, p
        assert len(mats) == rpt.order == order, p
        assert {normalize_mod_homothety(g) for g in mats} == \
            set(rpt.elements), p
        assert perm_group(perms)[0] == rpt.image_order, p
        assert perm_orbit_sizes(perms, len(perms[0])) == \
            rpt.image_orbit_sizes, p
        assert tuple(sorted(order_mod_homothety(g) for g in mats)) == \
            rpt.element_orders, p


def test_stab_exact_n_point():
    rpt = stab_exact(n_point_base(3))
    assert rpt.complete
    assert rpt.order == 6
    assert rpt.image_order == 6
    assert rpt.element_orders == (1, 2, 3, 3, 6, 6)


def _report_digest(reports):
    """sha256 prefix of (to_json_dict(), element texts, perms) of each report."""
    blob = json.dumps([[r.to_json_dict(), [str(g) for g in r.elements],
                        [list(pm) for pm in r.perms]] for r in reports],
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _golden_vertices(name):
    if name == "n-point":
        return [n_point_base(3)]
    if name == "7*":
        return [seven_star(3)]
    p = int(name[-1])
    # x fixes [I], so x.link([I]) is link([I]) in another order
    lk = [lv.vclass for lv in link(identity_vertex(p))]
    x = letter_matrix("x", p)
    assert {apply(x, w) for w in lk} == set(lk)
    return lk


# sha256 prefixes of _report_digest, taken before the integer digit filters
# in stab_exact (when every candidate triple was built over RatFunc)
STAB_EXACT_GOLDEN = {
    "link p=2": "4de0ac7b47a03732",
    "link p=3": "c0136c4616ef60d7",
    "n-point": "4a536ea6497e9dff",
    "7*": "5f3c7b95266cebcc",
}


@pytest.mark.parametrize("name", sorted(STAB_EXACT_GOLDEN))
def test_stab_exact_reports_golden(name):
    reports = []
    for v in _golden_vertices(name):
        rpt = stab_exact(v)
        for g, pm in zip(rpt.elements, rpt.perms):
            assert pm == induced_link_permutation(g, v), v.to_text()
        reports.append(rpt)
    assert _report_digest(reports) == STAB_EXACT_GOLDEN[name]


@pytest.mark.parametrize("p", [2, 3])
def test_stab_exact_order_constant_along_orbits(p):
    # order(Stab(g.v)) = order(Stab(v)) for every vertex of link([I]);
    # u.v exceeds the default digit bound
    gens = [letter_matrix("x", p), letter_matrix("x", p).inverse(),
            letter_matrix("y", p)]
    for lv in link(identity_vertex(p)):
        v = lv.vclass
        order = stab_exact(v).order
        for g in gens:
            assert stab_exact(apply(g, v)).order == order, v.to_text()


def test_stab_words_lower_bound():
    rpt = stab_words(identity_vertex(3), ("x",), depth=4)
    assert not rpt.complete
    assert rpt.image_order == 4


# -- distinguished vertices ----------------------------------------------------------

def test_n_point_is_u_fixed_neighbor():
    v = n_point_base(3)
    I = identity_vertex(3)
    u = named_matrix("u", 3)
    assert apply(u, v) == v
    assert v in {lv.vclass for lv in link(I)}
    others = [lv.vclass for lv in link(I)
              if apply(u, lv.vclass) == lv.vclass and lv.vclass != v]
    assert not others


def test_seven_star_pair_swap():
    a, b = seven_star_pair(3)
    u = letter_matrix("u", 3)
    u1 = letter_matrix("u1", 3)
    xyx = word_evaluate(parse_word("x.y.x"), 3)
    assert a != b
    assert apply(u, a) == a and apply(u, b) == b
    assert apply(u1, a) == a
    assert apply(xyx, a) == b


def test_tube_chain_is_the_tube_walk():
    chain = list(itertools.islice(tube_chain(), 2))
    assert [k for k, _, _ in chain] == [1, 2]
    assert chain[0][1:] == seven_star_pair(3)
    xyx = word_evaluate(parse_word("x.y.x"), 3)
    assert all(apply(xyx, v) == partner for _, v, partner in chain)
    levels = tube_pattern_check(kmax=2)
    assert [v for _, v, _ in chain] == [lv.vertex for lv in levels]


def test_tube_walk_refuses_a_word_search_at_the_floor(monkeypatch):
    # a level's fixed link vertices are certified off the orbits of [I] and
    # the n-point only by more found elements than their 6 (= max(4, 6))
    real = groupcalc.stab_words

    def six(v, gens, depth):
        rpt = real(v, gens, depth)
        return rpt._replace(elements=rpt.elements[:6], order=6,
                            perms=rpt.perms[:6])

    monkeypatch.setattr(groupcalc, "stab_words", six)
    chain = tube_chain()
    assert next(chain)[0] == 1
    with pytest.raises(AssertionError, match="found 6 stabilizer elements"):
        next(chain)


def test_h_stabilizes_seven_star():
    h = named_matrix("h", 3)
    v = seven_star(3)
    assert apply(h, v) == v
    assert order_mod_homothety(h) == 3
    assert is_unitary(h)


# -- orbits ------------------------------------------------------------------------

def counting_apply(calls):
    """``apply``, appending to calls each time it runs."""
    def counting(m, v):
        calls.append(1)
        return apply(m, v)
    return counting


def test_orbit_bfs_identity_small_depth(monkeypatch):
    calls = []
    monkeypatch.setattr(groupcalc, "apply", counting_apply(calls))
    orb = orbit_bfs(identity_vertex(3), ("x", "y"), depth=1)
    assert identity_vertex(3) in orb
    assert len(orb) > 1
    # x fixes [I] and y moves it: a loop that apply finds is not recorded,
    # so x^-1 is applied too, one apply per matrix
    assert len(calls) == 4


def test_orbit_budget():
    with pytest.raises(ValueError):
        orbit_bfs(identity_vertex(3), ("x", "y", "u"), depth=6, budget=10)


def order_below_13(m):
    """The least c <= 12 with m^c a homothety, else None."""
    power = m
    for c in range(1, 13):
        if is_homothety(power):
            return c
        power = power * m
    return None


def plain_orbit_bfs(start, mats, depth, budget, seed=()):
    """The BFS that applies every generator to every vertex it expands.

    Returns the vertex set, whether the budget tripped (the walk stops
    there), and the number of applies ``orbit_bfs`` should make up to that
    point.  mats are the generators, then their inverses.  The edges
    ``orbit_bfs`` knows are kept in ``known``, keyed (v, i) for mats[i].v,
    starting from the (v, i, w) triples of seed: an edge w = mats[i].v is
    known when recorded, or when the c - 1 inverse steps from v that the
    order c of mats[i] modulo homothety asks for are all recorded; else it
    costs an apply.  An edge is recorded both ways, unless an apply found
    w = v.
    """
    n = len(mats)
    inv = [(i + n // 2) % n for i in range(n)]
    orders = [order_below_13(m) for m in mats]
    known = {}
    for v, i, w in seed:
        known[v, i] = w
        known[w, inv[i]] = v

    def walk(v, i):
        if orders[i] is None:
            return None
        for _ in range(orders[i] - 1):
            v = known.get((v, inv[i]))
            if v is None:
                return None
        return v

    seen = {start}
    frontier = [start]
    applies = 0
    for _ in range(depth):
        nxt = []
        for v in frontier:
            for i, m in enumerate(mats):
                w = apply(m, v)
                got = known.get((v, i), walk(v, i))
                if got is None:
                    applies += 1
                else:
                    assert got == w
                if got is not None or w != v:
                    known[v, i] = w
                    known[w, inv[i]] = v
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
            if len(seen) > budget:
                return seen, True, applies
        frontier = nxt
    return seen, False, applies


def _orbit_cases():
    for p in (2, 3, 5):
        I = identity_vertex(p)
        nbr = link(I)[p + 1].vclass
        gen_sets = [("x", "y"), ("x",), ("s1", "s2"), ("y", "s3")]
        if p == 3:
            gen_sets.append(("x", "y", "u"))
        for gens in gen_sets:
            for start in (I, nbr):
                for depth in range(1, 5 if p < 5 and len(gens) < 3 else 4):
                    yield p, gens, start, depth


def _link_seeded(p, gens, mats):
    """The orbit_bfs generators that orbit_classify builds, with their link
    seed and reach, and the seed's edges read by apply: mats[i].v for every
    v in link([I]) and every generator mats[i] that fixes [I]."""
    I = identity_vertex(p)
    lk = [lv.vclass for lv in link(I)]
    k = len(gens)
    fixing = [i for i in range(k) if apply(mats[i], I) == I]
    seed = [(v, i, apply(mats[i], v)) for i in fixing for v in lk]
    return groupcalc._link_seed(I, lk, groupcalc._moves(gens, p)), seed


def reduced_words(n, depth):
    """The number of reduced words of length <= depth in n matrices that
    are k generators and their inverses."""
    return 1 + sum(n * (n - 1) ** j for j in range(depth))


def test_orbit_bfs_matches_plain_bfs(monkeypatch):
    calls = []
    counting = counting_apply(calls)

    def counted_bfs(*args):
        calls.clear()
        monkeypatch.setattr(groupcalc, "apply", counting)
        try:
            return orbit_bfs(*args)
        except ValueError:
            return None
        finally:
            monkeypatch.undo()

    balls = {(p, r): set(ball(p, r)) for p in (2, 3, 5) for r in (1, 2)}
    pruned = applies_saved = 0
    for p, gens, start, depth in _orbit_cases():
        mats = [letter_matrix(g, p) for g in gens]
        mats += [m.inverse() for m in mats]
        moves, seed = _link_seeded(p, gens, mats)
        words = reduced_words(len(mats), depth)
        for arg, seed in ((gens, ()), (moves, seed)):
            full, _, full_applies = plain_orbit_bfs(start, mats, depth,
                                                    10 ** 9, seed)
            size = len(full)
            # the same set, the same applies, and the budget trips at the
            # same vertex, after the same applies; a radius changes none
            # of them while the plain BFS could trip the budget
            for budget in {1, size // 2, size - 1, size}:
                want, trips, applies = plain_orbit_bfs(start, mats, depth,
                                                       budget, seed)
                radii = (None, 1, 2) if arg is moves and budget < words \
                    else (None,)
                for radius in radii:
                    got = counted_bfs(start, arg, depth, budget, radius)
                    case = (p, gens, start, depth, budget, bool(seed), radius)
                    assert (got is None) == trips == (size > budget), case
                    assert got is None or got == want, case
                    assert len(calls) == applies, case
            if arg is not moves:
                continue
            # pruned to the ball: within it, the set of the plain BFS
            for radius in (1, 2):
                got = counted_bfs(start, moves, depth, words, radius)
                B = balls[p, radius]
                case = (p, gens, start, depth, radius)
                assert got <= full and got & B == full & B, case
                pruned += got < full
                applies_saved += full_applies - len(calls)
    # the radius did prune, and saved applies overall
    assert pruned and applies_saved > 0, (pruned, applies_saved)


def test_orbit_bfs_closes_a_generator_cycle_with_one_apply_fewer(monkeypatch):
    # y has order 3 modulo homothety and x order 4; their cycles through
    # [I] and through a link vertex x moves have all their k vertices, and
    # the last edge of each is read off the order, not applied
    calls = []
    counting = counting_apply(calls)
    cases = [(p, "y", identity_vertex(p)) for p in (2, 3, 5, 7)]
    cases += [(p, "x", link(identity_vertex(p))[p + 1].vclass)
              for p in (2, 3, 5, 7)]
    for p, letter, start in cases:
        m = letter_matrix(letter, p)
        k = order_mod_homothety(m)
        want, _, _ = plain_orbit_bfs(start, [m, m.inverse()], k, 10 ** 9)
        assert len(want) == k, (p, letter)
        calls.clear()
        monkeypatch.setattr(groupcalc, "apply", counting)
        got = orbit_bfs(start, (letter,), k)
        monkeypatch.undo()
        assert got == want, (p, letter)
        assert len(calls) == k - 1, (p, letter)


def test_link_seed_edges_equal_apply():
    letters = ("x", "y", "s1", "s2", "s3")
    for p in (2, 3, 5, 7):
        gens = letters + (("u", "u1", "h", "w") if p == 3 else ())
        I = identity_vertex(p)
        lk = [lv.vclass for lv in link(I)]
        moves = groupcalc._link_seed(I, lk, groupcalc._moves(gens, p))
        mats, seed = moves.mats, moves.seed
        k = len(gens)
        for i, g in enumerate(gens):
            fixes = apply(mats[i], I) == I
            for j in (i, i + k):
                want = [apply(mats[j], v) if fixes else None for v in lk]
                assert [seed[j].get(v) for v in lk] == want, (p, g)
        assert any(seed), p


def test_link_seed_reach_is_the_distance_each_matrix_moves_identity():
    # x fixes [I], y and s1, s2, s3 move it to a neighbour, and u two steps
    want = {"x": 0, "y": 1, "s1": 1, "s2": 1, "s3": 1, "u": 2}
    for p in (2, 3, 5, 7):
        gens = ("x", "y", "s1", "s2", "s3") + (("u",) if p == 3 else ())
        I = identity_vertex(p)
        lk = [lv.vclass for lv in link(I)]
        moves = groupcalc._link_seed(I, lk, groupcalc._moves(gens, p))
        got = []
        for m in moves.mats:
            e = relative_position(I, apply(m, I))
            got.append(e[-1] - e[0])
        # a matrix and its inverse move [I] equally far
        assert list(moves.reach) == got == [want[g] for g in gens] * 2, p


def test_orbit_classify_refuses_a_letter_undefined_at_p():
    with pytest.raises(ValueError, match="u is defined at p = 3, not p = 2"):
        orbit_classify(2, gens=("x", "u"), radius=1, stab_reports=False)


# sha256 prefixes of the orbit table JSON of orbit_classify(3, radius=1,
# stab_reports=False), taken when every anchor ran its own BFS
CLASSIFY_P3_DIGESTS = {None: "aa622c230d2a0f15", 100: "2e9235fa68c21225"}


@pytest.mark.parametrize("p, gens, radius", [
    (2, ("x", "y"), 1), (2, ("x", "y"), 2), (2, ("x", "y"), 3),
    (2, ("s1", "s2"), 2), (3, ("s1", "s2"), 1)])
def test_orbit_classify_pruned_tables_equal_plain_ones(p, gens, radius,
                                                       monkeypatch):
    # p = 3 with x, y, u at radius 1 is pinned by CLASSIFY_P3_DIGESTS,
    # which were taken on the plain BFS
    pruned = orbit_classify(p, gens, radius, stab_reports=False)
    plain_bfs = orbit_bfs
    monkeypatch.setattr(groupcalc, "orbit_bfs",
                        lambda start, moves, depth, budget, radius:
                        plain_bfs(start, moves, depth, budget))
    assert pruned == orbit_classify(p, gens, radius, stab_reports=False)


@pytest.mark.parametrize("budget", [None, 100])
def test_orbit_classify_anchor_tables_unchanged(budget):
    kw = {} if budget is None else {"budget": budget}
    table = orbit_classify(3, radius=1, stab_reports=False, **kw)
    text = json.dumps(table.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == \
        CLASSIFY_P3_DIGESTS[budget]
    assert table.complete == (budget is None)


def test_link_group_words_distinct():
    I = identity_vertex(3)
    lk = {lv.vclass for lv in link(I)}
    from buraubuilding.groupcalc import _relator_word
    verts = [apply(word_evaluate(_relator_word(w), 3), I)
             for w in LINK_GROUP_WORDS]
    assert len(set(verts)) == 18
    assert all(v in lk for v in verts)


# -- relations and the witness ---------------------------------------------------

def test_relations_all_hold():
    reports = verify_relations()
    assert len(reports) == 9
    assert all(r.holds_mod_p for r in reports)
    braid = [r for r in reports if r.holds_integrally is not None]
    assert all(r.holds_integrally for r in braid)
    assert any(r.name == "[x^2, yxy]" for r in braid)


def test_kernel_witness():
    r = kernel_witness_check()
    assert r.holds_mod_p
    assert not r.holds_integrally
    assert len(r.relator) == 72
