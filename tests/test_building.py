import itertools
import os
import random
import subprocess
import sys

import pytest

from buraubuilding.arith import (INF, LaurentPoly, RatFunc, laurent_pi_digits,
                                  laurent_valuation)
from buraubuilding import building
from buraubuilding.building import (
    VertexClass,
    apply,
    canonicalize,
    distance_to_identity,
    identity_vertex,
    induced_link_permutation,
    is_adjacent,
    link,
    link_dot,
    link_edges,
    relative_position,
)
from buraubuilding.rep import (MatrixRF, letter_matrix, named_matrix, parse_word,
                               squier_form, word_evaluate)
from buraubuilding.groupcalc import (ball, seven_star, stab_exact, stab_identity_exact,
                                     tube_chain)
from pi_adic import field_rows, pi_adic_expand, pi_digits_window


def random_unit(rng, p, span=3):
    # valuation-0 Laurent polynomial in pi: nonzero constant term
    coeffs = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(span)]
    return LaurentPoly(p, coeffs[::-1], -span, "t").to_ratfunc()


def random_o_elt(rng, p, span=3):
    # element of O = F_p[pi] localized away from pi, here a polynomial in pi
    k = rng.randint(0, span)
    coeffs = [rng.randrange(p) for _ in range(span + 1)]
    return LaurentPoly(p, coeffs[::-1], -span, "t").to_ratfunc().shift_pi(k) \
        if any(coeffs) else RatFunc.zero(p)


def random_matrix(rng, p, span=2):
    rows = tuple(tuple(
        LaurentPoly(p, [rng.randrange(p) for _ in range(span + 1)],
                    -rng.randint(0, span), "t").to_ratfunc()
        for _ in range(3)) for _ in range(3))
    return MatrixRF(p, rows)


def random_column_ops(rng, v: VertexClass):
    """Apply a random sequence of GL3(O) column operations and a homothety."""
    p = v.p
    m = [list(row) for row in field_rows(v.canon)]
    for _ in range(rng.randint(1, 6)):
        op = rng.randrange(3)
        if op == 0:
            j, k = rng.sample(range(3), 2)
            lam = random_o_elt(rng, p)
            for i in range(3):
                m[i][j] = m[i][j] + lam * m[i][k]
        elif op == 1:
            j = rng.randrange(3)
            u = random_unit(rng, p)
            for i in range(3):
                m[i][j] = m[i][j] * u
        else:
            j, k = rng.sample(range(3), 2)
            for i in range(3):
                m[i][j], m[i][k] = m[i][k], m[i][j]
    shift = rng.randint(-2, 2)
    rows = tuple(tuple(m[i][j].shift_pi(shift) for j in range(3)) for i in range(3))
    return MatrixRF(p, rows)


# -- canonical forms ----------------------------------------------------------

def test_identity_vertex():
    I = identity_vertex(3)
    assert I.exps == (0, 0, 0)
    assert I.canon == MatrixRF.identity(3)


def test_canonicalize_invariance_column_ops():
    rng = random.Random(20240601)
    for _ in range(100):
        p = rng.choice((2, 3, 5))
        m = random_matrix(rng, p)
        if m.det().is_zero():
            continue
        v = canonicalize(m)
        w = canonicalize(random_column_ops(rng, v))
        assert w is not v and w == v and hash(w) == hash(v)


def test_canonicalize_rejects_singular():
    z = RatFunc.zero(3)
    m = MatrixRF(3, ((z, z, z),) * 3)
    with pytest.raises(ValueError):
        canonicalize(m)
    # rank 2: the third column is a Laurent combination of the others, so
    # the refusal is for singularity, not for a non-Laurent entry
    rng = random.Random(3)
    for p in (2, 3, 5, 7):
        while True:
            g = random_matrix(rng, p)
            if not g.det().is_zero():
                break
        lam = RatFunc(p, (1, 1), (1,))
        m = MatrixRF(p, tuple((r[0], r[1], r[0] + lam * r[1])
                              for r in field_rows(g)))
        assert m.det().is_zero()
        with pytest.raises(ValueError, match="singular"):
            canonicalize(m)


def _prefix_oracle(e, bound):
    """The pi-adic digits of e below pi^bound, one digit at a time."""
    v = e.valuation()
    out = RatFunc.zero(e.p)
    if v is INF or v >= bound:
        return out
    for j, d in enumerate(pi_adic_expand(e.shift_pi(-v), bound - v)):
        out = out + RatFunc.const(d, e.p).shift_pi(v + j)
    return out


def canonicalize_oracle(M):
    """Exact column elimination over RatFunc values, with no truncation:
    pivot on the first least-valuation entry of row r, divide its column by
    the unit, clear the row, make min a_i = 0, then reduce each entry below
    the diagonal modulo its row pivot."""
    p = M.p
    if M.det().is_zero():
        raise ValueError("singular matrix does not define a lattice")
    cols = [list(col) for col in zip(*field_rows(M))]
    exps = [0, 0, 0]
    for r in range(3):
        best, bestval = None, INF
        for j in range(r, 3):
            v = cols[j][r].valuation()
            if v < bestval:
                best, bestval = j, v
        cols[r], cols[best] = cols[best], cols[r]
        a = exps[r] = int(bestval)
        unit_inv = cols[r][r].shift_pi(-a).inverse()
        cols[r] = [e * unit_inv for e in cols[r]]
        for j in range(r + 1, 3):
            lam = cols[j][r].shift_pi(-a)
            cols[j] = [e - lam * f for e, f in zip(cols[j], cols[r])]
    m = min(exps)
    cols = [[e.shift_pi(-m) for e in col] for col in cols]
    exps = [a - m for a in exps]
    for j in range(2):
        for i in range(j + 1, 3):
            e = cols[j][i]
            lam = (e - _prefix_oracle(e, exps[i])).shift_pi(-exps[i])
            cols[j] = [a - lam * b for a, b in zip(cols[j], cols[i])]
    canon = MatrixRF(p, tuple(tuple(cols[j][i] for j in range(3))
                              for i in range(3)))
    return VertexClass(p, canon, exps)


def _scale_column(M, j, unit):
    return MatrixRF(M.p, tuple(tuple(e * unit if k == j else e
                                     for k, e in enumerate(row))
                               for row in field_rows(M)))


@pytest.fixture(scope="module")
def oracle_inputs():
    """Seeded matrices at p = 2, 3, 5, 7, at p = 11 and 13, where the 8-bit
    digit slots split a multiplier, and at p = 17 and 257, where the slots
    are wider (at 257 a digit reaches 256): letters and their inverses times
    the vertices of a random walk from [I], with a column scaled by the
    Laurent unit 1 + c*pi = (t + c)/t in a third of them, plus random
    column operations on the resulting classes."""
    rng = random.Random(20261018)
    out = []
    for p in (2, 3, 5, 7, 11, 13, 17, 257):
        letters = ["s1", "s2", "s3", "x", "y"] + (["u"] if p == 3 else [])
        gens = [letter_matrix(a, p) for a in letters]
        gens += [g.inverse() for g in gens]
        verts = [canonicalize_oracle(MatrixRF.identity(p))]
        for _ in range(40):
            verts.append(canonicalize_oracle(rng.choice(gens) * verts[-1].canon))
        for _ in range(40):
            M = rng.choice(gens) * rng.choice(verts).canon
            out.append(M)
            c = rng.randrange(1, p)
            unit = RatFunc(p, (c, 1), (0, 1))
            out.append(_scale_column(M, rng.randrange(3), unit))
            out.append(random_column_ops(rng, canonicalize_oracle(M)))
        for _ in range(12):
            m = random_matrix(rng, p)
            if not m.det().is_zero():
                out.append(_scale_column(m, rng.randrange(3),
                                         RatFunc(p, (1, 1), (0, 1))))
    return out


def test_canonicalize_matches_exact_elimination(oracle_inputs):
    inputs = oracle_inputs
    assert len(inputs) >= 500
    for M in inputs:
        got, want = canonicalize(M), canonicalize_oracle(M)
        assert (got.exps, got.to_text()) == (want.exps, want.to_text())
        assert got == want


def _spy_on_windows_and_splits(monkeypatch):
    """(windows, splits): the window lengths n that ``_window_digits`` gives
    at each p, and the p at which ``_dot`` split a factor of more than
    ``piece`` digits, whose one product could pass a slot."""
    windows, splits = {}, set()
    window, dot = building._window_digits, building._dot
    primes = {id(building._slot_arith(p)): p
              for p in (2, 3, 5, 7, 11, 13, 17, 257)}

    def spy_window(A, B, D, ar):
        out = window(A, B, D, ar)
        windows.setdefault(A.p, []).append(out[0])
        return out

    def spy_dot(mask, pairs, ar):
        if any(x.bit_length() > ar[0] * ar[1] for x, _ in pairs):
            splits.add(primes[id(ar)])
        return dot(mask, pairs, ar)

    monkeypatch.setattr(building, "_window_digits", spy_window)
    monkeypatch.setattr(building, "_dot", spy_dot)
    return windows, splits


def test_slot_boundaries_are_met(oracle_inputs, monkeypatch):
    # the seeded inputs meet each slot rule: 8-bit slots up to p = 13, and
    # at p = 11 and 13 a product of two rows can pass a slot, so a factor
    # is split; 40-bit slots at 17 and 56-bit ones at 257, where the digit
    # 256 occurs.  On every input, a letter g and the input as the two
    # factors, with nu(det) passed, as apply and link pass theirs, give the
    # class of the formed product
    assert [building._slot_arith(p)[0] for p in (2, 13, 17, 257)] == \
        [8, 8, 40, 56]
    windows, splits = _spy_on_windows_and_splits(monkeypatch)
    rng = random.Random(20261020)
    for M in oracle_inputs:
        g = rng.choice(_letters_and_inverses(M.p))
        got = canonicalize(g, g.det_valuation() + M.det_valuation(), M)
        want = canonicalize(g * M)
        assert (got.exps, got.to_text()) == (want.exps, want.to_text())
        assert got == want and hash(got) == hash(want)
    assert {11, 13} <= splits
    assert any(256 in c for M in oracle_inputs if M.p == 257
               for row in M._terms for _, c in row)
    assert set(windows) == {2, 3, 5, 7, 11, 13, 17, 257}


def _letters_and_inverses(p):
    letters = ["s1", "s2", "s3", "x", "y"] + (["u"] if p == 3 else [])
    gens = [letter_matrix(a, p) for a in letters]
    return gens + [g.inverse() for g in gens]


def test_slot_reduction_matches_each_slot_mod_p():
    # rows of random slots up to the most a slot takes, a reduced digit
    # plus ``piece`` digit products: reduce gives each slot mod p, neg its
    # negative, and coeffs and pack go between rows and coefficients
    rng = random.Random(20261023)
    for p in (2, 3, 7, 13, 17, 257, 65537, 2 ** 61 - 1):
        S, piece, reduce, neg, coeffs, pack = building._slot_arith(p)
        top = p - 1 + piece * (p - 1) ** 2
        assert top < 1 << S
        for c in (0, 1, 5, 40):
            vals = [rng.choice((0, top, rng.randint(0, top))) for _ in range(c)]
            x = sum(v << S * i for i, v in enumerate(vals))
            r = reduce(x)
            assert [r >> S * i & (1 << S) - 1 for i in range(c + 1)] == \
                [v % p for v in vals] + [0]
            assert neg(r) == sum(-v % p << S * i for i, v in enumerate(vals))
            digits = [v % p for v in vals][::-1]
            assert pack(digits) == r and list(coeffs(r, c)) == digits


def test_slots_past_64_bits_match_the_oracle():
    # at p = 2^61 - 1 a slot is 264 bits wide: a random walk from [I], each
    # step as one matrix and as two factors, against the oracle
    p = 2 ** 61 - 1
    assert building._slot_arith(p)[0] == 264
    rng = random.Random(20261022)
    gens = _letters_and_inverses(p)
    v = canonicalize_oracle(MatrixRF.identity(p))
    for _ in range(30):
        g = rng.choice(gens)
        want = canonicalize_oracle(g * v.canon)
        for got in (canonicalize(g * v.canon), building.apply(g, v)):
            assert (got.exps, got.to_text()) == (want.exps, want.to_text())
        v = want


@pytest.fixture(scope="module")
def deep_inputs():
    """Seeded matrices on which the pi-adic windows of ``canonicalize``
    shrink by many digits: letters and their inverses times the bases of
    tube(k) and its xyx partner, k = 1..4, at p = 3; and at p = 2, 3, 5, 7 a
    letter times a vertex 100 to 130 steps along a walk from [I], as it is
    and with a column scaled by a unit 1 + c*pi^k, k = 1..3, whose inverse
    has several digits."""
    rng = random.Random(20261019)
    out = []
    gens = _letters_and_inverses(3)
    for k, level, partner in tube_chain():
        out += [g * v.canon for v in (level, partner) for g in gens]
        if k == 4:
            break
    for p in (2, 3, 5, 7):
        gens = _letters_and_inverses(p)
        v = identity_vertex(p)
        for step in range(1, 131):
            v = apply(rng.choice(gens), v)
            if step >= 100 and step % 6 == 0:
                M = rng.choice(gens) * v.canon
                out.append(M)
                for k in (1, 2, 3):
                    c = rng.randrange(1, p)
                    # 1 + c*pi^k = (t^k + c) / t^k
                    unit = RatFunc(p, (c,) + (0,) * (k - 1) + (1,),
                                   (0,) * k + (1,))
                    out.append(_scale_column(M, rng.randrange(3), unit))
    return out


def test_canonicalize_matches_exact_elimination_on_deep_inputs(deep_inputs):
    rng = random.Random(5)
    shrunk = 0
    for M in deep_inputs:
        got, want = canonicalize(M), canonicalize_oracle(M)
        assert (got.exps, got.to_text()) == (want.exps, want.to_text())
        assert got == want
        w = canonicalize(random_column_ops(rng, got))
        assert (w.exps, w.to_text()) == (got.exps, got.to_text())
        # the window shrinks from nu(det) + 1 to a_3 + 1 digits
        shrunk += got.exps[0] + got.exps[1] > 0
    assert len(deep_inputs) >= 150 and shrunk >= 0.9 * len(deep_inputs)


def test_digits_of_p_minus_1_meet_every_slot_bound(monkeypatch):
    # entries whose digits are all p - 1 make every digit product (p-1)^2,
    # the most a slot bound allows for: rows of one, two and three entries
    # of 1 to 9 digits, as two factors and as their formed product
    windows, splits = _spy_on_windows_and_splits(monkeypatch)
    for p in (2, 3, 5, 7, 11, 13, 17, 257):
        for k in (0, 1, 3, 8):
            c = LaurentPoly(p, [p - 1] * (k + 1), -k)
            d = LaurentPoly(p, [p - 1] * (k // 2 + 1), 0)
            one, zero = LaurentPoly(p, [1], 0), LaurentPoly(p, [], 0)
            A = MatrixRF(p, ((c, zero, zero), (d, c, zero), (c, d, c)))
            B = MatrixRF(p, ((c, d, one), (one, c, d), (d, one, c)))
            if B.det().is_zero():
                continue
            for X, Y in ((A, B), (B, A), (B, B)):
                got = canonicalize(X, None, Y)
                for want in (canonicalize(X * Y), canonicalize_oracle(X * Y)):
                    assert (got.exps, got.to_text()) == \
                        (want.exps, want.to_text()), (p, k)
    assert {7, 11, 13} <= splits


def test_deep_windows_split_their_products(deep_inputs, monkeypatch):
    # at p = 5 and 7 the deep inputs give windows of 7 digits and more,
    # where one 8-bit product of two window rows would pass a slot, so
    # ``_dot`` splits it; the forms match the oracle, also as two factors
    # with nu(det) passed
    windows, splits = _spy_on_windows_and_splits(monkeypatch)
    rng = random.Random(20261021)
    deep = [M for M in deep_inputs if M.p in (5, 7)]
    for M in deep:
        g = rng.choice(_letters_and_inverses(M.p))
        got = canonicalize(g, g.det_valuation() + M.det_valuation(), M)
        for want in (canonicalize(g * M), canonicalize_oracle(g * M)):
            assert (got.exps, got.to_text()) == (want.exps, want.to_text())
    for p in (5, 7):
        assert len(windows[p]) >= 20 and min(windows[p]) >= 7, p
    assert {5, 7} <= splits


def _assert_canonical_from_factor_pair(A, B):
    """canonicalize of the two factors A and B, which reads its digits from
    them, against the formed product A * B and the oracle."""
    got = canonicalize(A, None, B)
    formed = A * B
    for want in (canonicalize(formed), canonicalize_oracle(formed)):
        assert (got.exps, got.to_text()) == (want.exps, want.to_text())
        assert got == want and hash(got) == hash(want)


def _pair_bound(A, B):
    """The least val(A_il) + val(B_lj), the m of ``_window_digits``."""
    a, b = A._terms, B._terms
    return min(laurent_valuation(a[i][l]) + laurent_valuation(b[l][j])
               for i, l, j in itertools.product(range(3), repeat=3))


def test_window_digits_of_a_factor_pair_match_the_formed_product(oracle_inputs):
    # letters and their inverses on both sides of the seeded inputs, the
    # random column operations on classes among them, at p = 2, 3, 5, 7
    rng = random.Random(20261202)
    for M in oracle_inputs[::3]:
        g = rng.choice(_letters_and_inverses(M.p))
        _assert_canonical_from_factor_pair(g, M)
        _assert_canonical_from_factor_pair(M, g)


def test_window_digits_when_leading_terms_cancel():
    # A = V E and B = E^-1 g for a vertex basis V, a letter g and the
    # elementary matrix E that adds c t^k times column i to column j: A B is
    # V g, while A's column i times E^-1's c t^k reaches valuations k lower,
    # past the spread of V and g, so the bound m is strictly below the
    # product's least valuation and the leading terms cancel
    rng = random.Random(20261203)
    below = 0
    for p in (2, 3, 5, 7):
        gens = _letters_and_inverses(p)
        v = identity_vertex(p)
        for _ in range(8):
            v = apply(rng.choice(gens), v)
            i, j = rng.sample(range(3), 2)
            c, k = rng.randrange(1, p), rng.randint(16, 20)
            E = [[(0, (1,)) if r == s else (0, ()) for s in range(3)]
                 for r in range(3)]
            E[i][j] = (k, (c,))
            E = MatrixRF.from_terms(p, tuple(map(tuple, E)))
            A, B = v.canon * E, E.inverse() * rng.choice(gens)
            true = min(laurent_valuation(x) for row in (A * B)._terms
                       for x in row)
            below += _pair_bound(A, B) < true
            _assert_canonical_from_factor_pair(A, B)
    assert below == 32


def test_canonicalize_refuses_a_singular_product():
    rng = random.Random(4)
    for p in (2, 3, 5, 7):
        while True:
            g = random_matrix(rng, p)
            if not g.det().is_zero():
                break
        lam = RatFunc(p, (1, 1), (1,))
        m = MatrixRF(p, tuple((r[0], r[1], r[0] + lam * r[1])
                              for r in field_rows(g)))
        for A, B in ((g, m), (m, g)):
            for args in ((A * B,), (A, None, B)):
                with pytest.raises(ValueError, match="singular"):
                    canonicalize(*args)


def test_canonicalize_refuses_a_factor_of_another_ring():
    # a second factor of another p or var raises as their product does
    M = letter_matrix("x", 3)
    for B in (letter_matrix("x", 5), letter_matrix("x", 2), squier_form(3)):
        with pytest.raises(ValueError, match="mismatch"):
            M * B
        for D in (None, 0):
            with pytest.raises(ValueError, match="mismatch"):
                canonicalize(M, D, B)


def test_apply_forms_no_product_and_keys_on_three_entries(monkeypatch):
    # apply's product is never formed: its digits are read from g and
    # v.canon, and the new vertex builds only its three entries below the
    # diagonal for its key
    from buraubuilding import rep
    p = 3
    gens = _letters_and_inverses(p)
    for g in gens:
        g.det_valuation()
    dots, built = [], []
    dot, product, init = rep.laurent_dot, rep._product_terms, RatFunc.__init__

    def counting_dot(*args):
        dots.append(1)
        return dot(*args)

    def counting_product(*args):
        dots.append(1)
        return product(*args)

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    v = identity_vertex(p)
    monkeypatch.setattr(rep, "laurent_dot", counting_dot)
    monkeypatch.setattr(rep, "_product_terms", counting_product)
    monkeypatch.setattr(RatFunc, "__init__", counting_init)
    for g in gens:
        v = apply(g, v)
    assert not dots and len(built) == 3 * len(gens)


def test_laurent_pi_digits_match_pi_digits():
    # the digit read from (minexp, coeffs) equals the one-digit-at-a-time
    # expansion of the RatFunc: zero entries, exponents of both signs,
    # windows starting at, below and above nu(x), and windows shorter than
    # the entry's span
    rng = random.Random(20261103)
    short = 0
    for p in (2, 3, 5, 7):
        for _ in range(200):
            coeffs = [rng.randrange(p) for _ in range(rng.randint(0, 6))]
            x = LaurentPoly(p, coeffs, rng.randint(-5, 5))
            v = x.to_ratfunc().valuation()
            lo = rng.randint(-3, 3) + (0 if v is INF else v)
            n = rng.randint(0, 8)
            got = laurent_pi_digits(x.laurent_terms(), lo, n)
            assert got == pi_digits_window(x.to_ratfunc(), lo, n)
            short += v is not INF and lo <= v and lo + n <= -x.minexp
    assert short > 50


def test_a_non_laurent_entry_is_refused():
    # a matrix holds only the Laurent terms of its entries: RatFunc entries
    # over a power of t give the matrix they are the entries of, and one
    # entry whose denominator is not a power of t is refused when the
    # matrix is built, so no operation and no canonical form meets one; such
    # an entry is refused as the scalar of scale too
    rng = random.Random(20261104)
    for p in (2, 3, 5, 7):
        gens = [letter_matrix(a, p) for a in ("s1", "s2", "x", "y")]
        v = identity_vertex(p)
        for _ in range(10):
            g = rng.choice(gens)
            v = apply(g, v)
            rows = [list(r) for r in field_rows(g * v.canon)]
            assert MatrixRF(p, rows) == g * v.canon
            i, j = rng.randrange(3), rng.randrange(3)
            rows[i][j] = rows[i][j] + RatFunc(p, (1,), (rng.randrange(1, p), 1))
            for op in (lambda: MatrixRF(p, rows),
                       lambda: g.scale(rows[i][j])):
                with pytest.raises(ValueError, match="not a Laurent polynomial"):
                    op()


def _entry_terms(m):
    return tuple(tuple(e.laurent_terms() for e in row) for row in m.rows)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_canon_terms_are_those_of_its_entries(p):
    # canonicalize caches the terms it built on canon; the next product
    # reads them instead of the entries, so they must be the entries' own
    verts = list(ball(p, 1)) + ([seven_star(p)] if p == 3 else [])
    assert len(verts) == 1 + 2 * (p * p + p + 1) + (p == 3)
    for v in verts:
        assert v.canon._terms == _entry_terms(v.canon)


def test_equality_iff_unimodular_quotient():
    # distinct canonical forms define distinct classes
    rng = random.Random(7)
    seen = {}
    for _ in range(50):
        m = random_matrix(rng, 3)
        if m.det().is_zero():
            continue
        v = canonicalize(m)
        if v.to_text() in seen:
            assert seen[v.to_text()] == v
        seen[v.to_text()] = v


def test_equal_classes_by_different_routes_hash_equal(oracle_inputs):
    # a class reached back through g^-1 g is a new object equal to v, with
    # v's hash; classes with distinct canonical forms stay distinct in a set
    rng = random.Random(20261102)
    letters = ["s1", "s2", "s3", "x", "y"]
    classes = [canonicalize(M) for M in oracle_inputs[::9]]
    for v in classes:
        g = word_evaluate(parse_word(".".join(rng.choice(letters) for _ in range(3))), v.p)
        w = apply(g.inverse(), apply(g, v))
        assert w is not v and w.canon is not v.canon
        assert w == v and hash(w) == hash(v)
        assert len({v, w}) == 1
    assert len(set(classes)) == len({(v.p, v.to_text()) for v in classes}) > 1


def test_vertex_hash_is_the_same_in_every_process():
    # the hash holds only ints, so PYTHONHASHSEED does not move it
    code = ("from buraubuilding.building import apply, identity_vertex\n"
            "from buraubuilding.rep import letter_matrix\n"
            "for p in (2, 3):\n"
            "    I = identity_vertex(p)\n"
            "    print(hash(I), hash(apply(letter_matrix('s1', p), I)))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(building.__file__)))
    outs = [subprocess.run([sys.executable, "-c", code], check=True,
                           capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=src,
                                    PYTHONHASHSEED=seed)).stdout
            for seed in ("0", "1")]
    here = "".join("%d %d\n" % (hash(identity_vertex(p)),
                                 hash(apply(letter_matrix("s1", p), identity_vertex(p))))
                   for p in (2, 3))
    assert outs[0] == outs[1] == here


# -- relative position and adjacency -------------------------------------------

def test_relative_position_reflexive():
    rng = random.Random(11)
    for _ in range(20):
        m = random_matrix(rng, 3)
        if m.det().is_zero():
            continue
        v = canonicalize(m)
        assert relative_position(v, v) == (0, 0, 0)


def relative_position_oracle(v1, v2):
    """Sorted pi-elementary-divisor exponents of N = M1^-1 M2 from the
    least valuations of its entries, of its 2x2 minors, each formed over
    RatFunc in four nested loops, and of det N."""
    N = v1.canon.inverse() * v2.canon
    rows = field_rows(N)
    d1 = min(e.valuation() for row in rows for e in row)
    minors2 = []
    for i in range(3):
        for j in range(i + 1, 3):
            for k in range(3):
                for l in range(k + 1, 3):
                    m = rows[i][k] * rows[j][l] - rows[i][l] * rows[j][k]
                    minors2.append(m.valuation())
    d12 = min(minors2)
    d123 = N.det().to_ratfunc().valuation()
    e = sorted(-x for x in (d1, d12 - d1, d123 - d12))
    return tuple(x - e[0] for x in e)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_relative_position_matches_minor_oracle(p):
    # d12 is read from the entries of adj(N), which are the 2x2 minors of N
    # up to sign; every pair of the radius-1 ball must agree
    verts = sorted(ball(p, 1), key=lambda v: v.sort_key())
    seen = set()
    for v1, v2 in itertools.combinations_with_replacement(verts, 2):
        got = relative_position(v1, v2)
        assert got == relative_position_oracle(v1, v2), (v1, v2)
        seen.add(got)
    # two link vertices may lie at distance 2, in any of three positions
    assert seen == {(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 0, 2), (0, 1, 2), (0, 2, 2)}


@pytest.mark.parametrize("p, radius", [(2, 3), (3, 3), (5, 2)])
def test_distance_to_identity_is_the_spread_of_the_relative_position(p, radius):
    # and the link distance at which ball() finds the vertex: the orbit
    # BFS prunes by it
    I = identity_vertex(p)
    for v, d in ball(p, radius).items():
        e = relative_position(I, v)
        assert distance_to_identity(v) == e[-1] - e[0] == d, v


def test_adjacency_symmetric():
    I = identity_vertex(3)
    for lv in link(I):
        assert is_adjacent(I, lv.vclass)
        assert is_adjacent(lv.vclass, I)


def test_link_counts():
    for p, n in ((2, 14), (3, 26), (5, 62)):
        lk = link(identity_vertex(p))
        assert len(lk) == n
        assert len({lv.vclass for lv in lk}) == n


def test_link_within_degree_p3():
    lk = link(identity_vertex(3))
    for i in range(26):
        deg = sum(1 for j in range(26) if i != j
                  and is_adjacent(lk[i].vclass, lk[j].vclass))
        assert deg == 4


def is_chamber(v0: VertexClass, v1: VertexClass, v2: VertexClass) -> bool:
    """True iff representatives can be ordered pi*L0 < L2 < L1 < L0."""
    if len({v0, v1, v2}) != 3:
        return False
    for a, b, c in itertools.permutations((v0, v1, v2)):
        if (relative_position(a, b) == (0, 1, 1)
                and relative_position(b, c) == (0, 1, 1)
                and relative_position(a, c) == (0, 0, 1)):
            return True
    return False


def test_chamber_from_flag():
    I = identity_vertex(3)
    lk = link(I)
    # an incident (line, plane) flag gives a chamber with I
    found = False
    for a in lk:
        for b in lk:
            if a.dim == 1 and b.dim == 2 and is_adjacent(a.vclass, b.vclass):
                assert is_chamber(I, a.vclass, b.vclass)
                found = True
                break
        if found:
            break
    assert found


def test_not_chamber_same_dim():
    I = identity_vertex(3)
    lk = link(I)
    lines = [lv.vclass for lv in lk if lv.dim == 1]
    assert not is_chamber(I, lines[0], lines[1])


# -- the action ----------------------------------------------------------------

def test_action_associativity():
    rng = random.Random(20240601)
    letters = ["s1", "s2", "s3", "x", "y", "u"]
    I = identity_vertex(3)
    for _ in range(25):
        w1 = ".".join(rng.choice(letters) for _ in range(rng.randint(1, 4)))
        w2 = ".".join(rng.choice(letters) for _ in range(rng.randint(1, 4)))
        g = word_evaluate(parse_word(w1), 3)
        h = word_evaluate(parse_word(w2), 3)
        assert apply(g * h, I) == apply(g, apply(h, I))


def test_action_preserves_adjacency():
    rng = random.Random(5)
    I = identity_vertex(3)
    lk = link(I)
    g = word_evaluate(parse_word("x.y.u^-1.x"), 3)
    gI = apply(g, I)
    for lv in rng.sample(lk, 8):
        assert is_adjacent(gI, apply(g, lv.vclass))


def test_apply_passes_the_determinant_valuation(oracle_inputs, monkeypatch):
    # each seeded matrix acts on [I] and on the class of the matrix before it
    passed = []

    def recording(M, det_valuation=None, B=None):
        passed.append((M, det_valuation, B))
        return canonicalize(M, det_valuation, B)

    monkeypatch.setattr(building, "canonicalize", recording)
    prev = None
    for g in oracle_inputs:
        for v in (identity_vertex(g.p), prev):
            if v is None or v.p != g.p:
                continue
            passed.clear()
            w = apply(g, v)
            assert passed == [(g, (g * v.canon).det().to_ratfunc().valuation(),
                               v.canon)]
            assert w == canonicalize(g * v.canon)
        prev = canonicalize(g)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_link_passes_the_determinant_valuation(p, monkeypatch):
    # [I], the vertices of a seeded walk from [I], and 7* at p = 3
    rng = random.Random(p)
    gens = [letter_matrix(a, p) for a in ("s1", "s2", "x", "y")]
    verts = [identity_vertex(p)]
    for _ in range(4):
        verts.append(apply(rng.choice(gens), verts[-1]))
    if p == 3:
        verts.append(seven_star(p))
    passed = []

    def recording(M, det_valuation=None, B=None):
        passed.append((M, det_valuation, B))
        return canonicalize(M, det_valuation, B)

    monkeypatch.setattr(building, "canonicalize", recording)
    for v in verts:
        passed.clear()
        lk = link(v)
        assert len(passed) == 2 * (p * p + p + 1)
        for (M, D, B), lv in zip(passed, lk):
            assert M is v.canon
            assert D == (M * B).det().to_ratfunc().valuation()
            assert lv.vclass == canonicalize(M * B)


def test_apply_refuses_a_singular_matrix():
    I = identity_vertex(3)
    v = canonicalize(named_matrix("M19", 3))
    z = RatFunc.zero(3)
    x = letter_matrix("x", 3)
    rank2 = MatrixRF(3, tuple((r[0], r[1], r[0] + r[1]) for r in x.rows))
    for g in (MatrixRF(3, ((z, z, z),) * 3), rank2):
        for w in (I, v):
            with pytest.raises(ValueError):
                apply(g, w)


def entry_map(m, f):
    """The matrix with f applied to every entry of m."""
    return MatrixRF(m.p, tuple(tuple(f(e) for e in row) for row in field_rows(m)),
                    m.var)


def test_homothety_acts_trivially():
    v = canonicalize(named_matrix("M19", 3))
    tI = entry_map(MatrixRF.identity(3), lambda e: e.shift_pi(3))
    assert apply(tI, v) == v


# -- induced link permutations ---------------------------------------------------

def maps_lines_to_lines(perm, p):
    """The link indices below p^2 + p + 1 are the lines: a permutation that
    preserves the dim-1 / dim-2 bipartition maps them among themselves."""
    n = p * p + p + 1
    return len(perm) == 2 * n and all(perm[i] < n for i in range(n))


def cycle_type(perm):
    """The sorted cycle lengths of a permutation."""
    seen, out = set(), []
    for i in range(len(perm)):
        n, j = 0, i
        while j not in seen:
            seen.add(j)
            j = perm[j]
            n += 1
        if n:
            out.append(n)
    return tuple(sorted(out))


def test_identity_induces_identity():
    I = identity_vertex(3)
    perm = induced_link_permutation(MatrixRF.identity(3), I)
    assert perm == tuple(range(26))
    assert maps_lines_to_lines(perm, 3)


def test_u_cycle_type_on_link_of_fixed_vertex():
    u = named_matrix("u", 3)
    v = canonicalize(named_matrix("M19", 3))
    perm = induced_link_permutation(u, v)
    assert cycle_type(perm) == (1, 1, 1, 1, 2, 2, 3, 3, 6, 6)
    assert maps_lines_to_lines(perm, 3)


def test_non_stabilizer_raises():
    x = letter_matrix("x", 3)
    v = canonicalize(named_matrix("M19", 3))
    with pytest.raises(ValueError):
        induced_link_permutation(x, v)


def link_permutation_oracle(g, v):
    """The permutation read off the link itself: the index in link(v) of the
    canonical form of g applied to each link vertex."""
    lk = link(v)
    index = {lv.vclass: i for i, lv in enumerate(lk)}
    return tuple(index[apply(g, lv.vclass)] for lv in lk)


@pytest.fixture(scope="module")
def seven_star_stab():
    return stab_exact(seven_star(3))


@pytest.mark.parametrize("p", (2, 3, 5))
def test_link_permutation_matches_oracle_identity_stabilizer(p):
    rpt = stab_identity_exact(p)
    for g in rpt.elements:
        perm = induced_link_permutation(g, rpt.vertex)
        assert perm == link_permutation_oracle(g, rpt.vertex)
        assert maps_lines_to_lines(perm, p)


def test_link_permutation_matches_oracle_seven_star(seven_star_stab):
    v = seven_star_stab.vertex
    for g in seven_star_stab.elements:
        assert induced_link_permutation(g, v) == link_permutation_oracle(g, v)


@pytest.mark.parametrize("i", (0, 5, 13, 20))
def test_link_permutation_matches_oracle_link_of_identity(i):
    v = link(identity_vertex(3))[i].vclass
    rpt = stab_exact(v)
    for g in rpt.elements:
        assert induced_link_permutation(g, v) == link_permutation_oracle(g, v)


def test_link_permutation_is_a_homomorphism(seven_star_stab):
    # (g h).w = g.(h.w): the permutation of a product is the composite
    v = seven_star_stab.vertex
    els = seven_star_stab.elements
    perms = [induced_link_permutation(g, v) for g in els]
    for g, pg in zip(els, perms):
        for h, ph in zip(els, perms):
            assert induced_link_permutation(g * h, v) == \
                tuple(pg[j] for j in ph)


@pytest.mark.parametrize("p", (2, 3))
def test_link_permutation_raises_exactly_off_the_stabilizer(p):
    gens = [word_evaluate(parse_word(w), p) for w in ("x", "x^-1", "y", "y^-1")]
    fixed = moved = 0
    for lv in link(identity_vertex(p)):
        v = lv.vclass
        for g in gens:
            if apply(g, v) == v:
                fixed += 1
                assert induced_link_permutation(g, v) == \
                    link_permutation_oracle(g, v)
            else:
                moved += 1
                with pytest.raises(ValueError):
                    induced_link_permutation(g, v)
    assert fixed and moved


def residue_permutation_oracle(u, p):
    """The residue read by normalized tuples: the image of each line, and
    the cross product of the images of a basis of each plane as the image
    plane's annihilator, each looked up in ``projective_points(p)``."""
    pts = building.projective_points(p)
    index = {pt: i for i, pt in enumerate(pts)}

    def act(vec):
        return tuple(sum(a * b for a, b in zip(row, vec)) % p for row in u)

    def normalize(vec):
        c = pow(next(a for a in vec if a), -1, p)
        return tuple(a * c % p for a in vec)

    def cross(a, b):
        return ((a[1] * b[2] - a[2] * b[1]) % p,
                (a[2] * b[0] - a[0] * b[2]) % p,
                (a[0] * b[1] - a[1] * b[0]) % p)

    perm = [index[normalize(act(pt))] for pt in pts]
    for phi in pts:
        b1, b2 = building.plane_basis(phi, p)
        perm.append(len(pts) + index[normalize(cross(act(b1), act(b2)))])
    return tuple(perm)


def _det_mod(u, p):
    return (u[0][0] * (u[1][1] * u[2][2] - u[1][2] * u[2][1])
            - u[0][1] * (u[1][0] * u[2][2] - u[1][2] * u[2][0])
            + u[0][2] * (u[1][0] * u[2][1] - u[1][1] * u[2][0])) % p


def _gl3(p, count=None, seed=0):
    """Every element of GL3(F_p) (count None), or count seeded ones."""
    if count is None:
        mats = (tuple(zip(*[iter(e)] * 3))
                for e in itertools.product(range(p), repeat=9))
        return [u for u in mats if _det_mod(u, p)]
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        u = tuple(tuple(rng.randrange(p) for _ in range(3)) for _ in range(3))
        if _det_mod(u, p):
            out.append(u)
    return out


def _mat_mul(u, w, p):
    return tuple(tuple(sum(u[i][k] * w[k][j] for k in range(3)) % p
                       for j in range(3)) for i in range(3))


@pytest.mark.parametrize("p, count", [(2, None), (3, 200), (5, 200), (7, 200)])
def test_residue_link_permutation_matches_cross_product_read(p, count):
    mats = _gl3(p, count, seed=p)
    if count is None:
        assert len(mats) == 168
    for u in mats:
        perm = building.residue_link_permutation(u, p)
        assert perm == residue_permutation_oracle(u, p), u
        assert sorted(perm) == list(range(2 * (p * p + p + 1)))
        assert maps_lines_to_lines(perm, p)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_residue_link_permutation_is_a_projective_homomorphism(p):
    # perm(u w) = perm(u) o perm(w), and a scalar c u acts as u does
    mats = _gl3(p, 30, seed=100 + p)
    perms = [building.residue_link_permutation(u, p) for u in mats]
    for u, pu in zip(mats, perms):
        for w, pw in zip(mats[:10], perms[:10]):
            assert building.residue_link_permutation(
                _mat_mul(u, w, p), p) == tuple(pu[j] for j in pw)
        for c in range(2, p):
            cu = tuple(tuple(c * a for a in row) for row in u)
            assert building.residue_link_permutation(cu, p) == pu


def test_link_dot_shape():
    lk = link(identity_vertex(2))
    out = link_dot(lk, link_edges(lk))
    assert out.startswith("graph link {")
    assert out.count("n0 ") >= 1
