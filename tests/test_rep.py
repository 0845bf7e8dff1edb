import dis
import math
import random

import pytest

from buraubuilding.arith import LaurentPoly, RatFunc, laurent_dot
from buraubuilding.rep import (
    GroupWord,
    KERNEL_WORD_TEXT,
    MatrixRF,
    burau_generator,
    convention_survey,
    is_homothety,
    is_unitary,
    letter_matrix,
    named_matrix,
    named_word,
    order_mod_homothety,
    parse_word,
    squier_form,
    word_evaluate,
    word_evaluate_integral,
)
from pi_adic import as_field, field_rows


# -- convention ---------------------------------------------------------------

def test_convention_survey_pairs():
    # unitarity survives inversion, so variants come in inverse pairs; the
    # fixed convention (transpose of the textbook lower form) is one of them
    survey = convention_survey(3)
    good = sorted(k for k, ok in survey.items() if ok)
    assert good == [(1, 0, 0), (1, 1, 0)]


def test_fixed_generators_unitary():
    for p in (2, 3, 5, 7):
        for i in (1, 2, 3):
            assert is_unitary(burau_generator(i, p))


def test_braid_relation():
    for p in (2, 3, 5):
        s1, s2 = burau_generator(1, p), burau_generator(2, p)
        assert s1 * s2 * s1 == s2 * s1 * s2


def test_squier_form_hermitian():
    for p in (2, 3, 5):
        J = squier_form(p)
        assert J.star() == J


# -- named elements -----------------------------------------------------------

def test_x_y_orders():
    for p in (2, 3, 5):
        x = letter_matrix("x", p)
        y = letter_matrix("y", p)
        assert order_mod_homothety(x) == 4
        assert order_mod_homothety(y) == 3


def test_u_h_beta2_orders():
    assert order_mod_homothety(named_matrix("u", 3)) == 6
    assert order_mod_homothety(named_matrix("h", 3)) == 3
    assert order_mod_homothety(named_matrix("beta2", 5)) == 4


def test_named_matrices_unitary():
    assert is_unitary(named_matrix("u", 3))
    assert is_unitary(named_matrix("h", 3))
    assert is_unitary(named_matrix("beta2", 5))


def test_named_matrix_wrong_prime():
    with pytest.raises(ValueError):
        named_matrix("u", 5)
    with pytest.raises(ValueError):
        named_matrix("beta2", 3)


def test_w_is_braid_word_conjugate():
    # w = u^-1 x^-1 y^-1 x y x y commutes with x mod 3
    w = word_evaluate(named_word("w"), 3)
    x = letter_matrix("x", 3)
    assert is_homothety(x.inverse() * w.inverse() * x * w) is not None


def test_u1_alpha_words():
    u1 = word_evaluate(named_word("u1"), 3)
    c = word_evaluate(parse_word("x.y.x"), 3)
    u = letter_matrix("u", 3)
    assert u1 == c.inverse() * u * c
    a1 = word_evaluate(named_word("alpha1"), 3)
    assert a1 == u * u1


# -- words --------------------------------------------------------------------

def test_parse_word_round_trip():
    w = parse_word("u^-1.x^-1.y.x^2")
    assert str(w) == "u^-1.x^-1.y.x.x"
    assert len(w) == 5


def test_word_inverse():
    w = parse_word("x.y^-1.x^2")
    assert word_evaluate(w * w.inverse(), 3) == MatrixRF.identity(3)


def commutator(a: GroupWord, b: GroupWord) -> GroupWord:
    return a.inverse() * b.inverse() * a * b


def evaluate(text_or_word, p=None):
    """Parse if needed, then evaluate (mod p, or integrally)."""
    w = parse_word(text_or_word) if isinstance(text_or_word, str) else text_or_word
    return word_evaluate(w, p)


def test_commutator_word():
    a, b = parse_word("x"), parse_word("y")
    assert str(commutator(a, b)) == "x^-1.y^-1.x.y"


def test_evaluate_dispatch():
    assert evaluate("x", 3) == letter_matrix("x", 3)
    assert evaluate("x.x.x.x") == word_evaluate_integral(parse_word("x^4"))


# -- the kernel word ----------------------------------------------------------

def test_kernel_word_length():
    assert len(named_word("kernel_word")) == 72


def test_kernel_word_homothety_mod3_only():
    w = named_word("kernel_word")
    assert is_homothety(word_evaluate(w, 3)) is not None
    assert is_homothety(word_evaluate_integral(w)) is None


def test_integral_reduction_consistency():
    # reducing the integral product mod p agrees with the mod-p product
    w = GroupWord(named_word("kernel_word")[:20])
    assert word_evaluate_integral(w).reduce_mod(3) == word_evaluate(w, 3)
    rng = random.Random(20240602)
    letters = ["s1", "s2", "s3", "x", "y"]
    for p in (2, 3, 5, 7):
        for _ in range(6):
            w = GroupWord((rng.choice(letters), rng.choice((1, -1)))
                          for _ in range(rng.randint(1, 24)))
            assert word_evaluate_integral(w).reduce_mod(p) == word_evaluate(w, p)
    # only a matrix over Z reduces, and only mod a prime
    for m, p in ((burau_generator(1, 3), 5), (burau_generator(1, None), 4)):
        with pytest.raises(ValueError):
            m.reduce_mod(p)


def test_word_evaluate_over_z_is_the_integral_evaluator():
    rng = random.Random(20240603)
    letters = ["s1", "s2", "s3", "x", "y"]
    for _ in range(8):
        w = GroupWord((rng.choice(letters), rng.choice((1, -1)))
                      for _ in range(rng.randint(1, 24)))
        assert word_evaluate(w, None) == word_evaluate_integral(w)


@pytest.mark.parametrize("name", ["u", "h", "w", "u1", "alpha1", "M19"])
def test_letters_outside_the_braid_group_have_no_integral_matrix(name):
    with pytest.raises(KeyError):
        letter_matrix(name, None)


def test_integral_inverse_needs_a_unit_determinant():
    m = MatrixRF.from_strings([["2", "0", "0"], ["0", "1", "t"], ["0", "0", "1"]],
                              None)
    with pytest.raises(ZeroDivisionError):
        m.inverse()
    g = word_evaluate_integral(parse_word("s1.s2^-1.x"))
    assert g * g.inverse() == MatrixRF.identity(None)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_inverse_mod_p_needs_a_unit_determinant(p):
    # det = 1 + t is not a unit of F_p[t, 1/t]: the inverse is refused as
    # over Z, and a singular matrix likewise; a unit c*t^k is inverted
    for det in ("1+t", "0"):
        m = MatrixRF.from_strings([[det, "0", "0"], ["0", "1", "t"], ["0", "0", "1"]],
                                  p)
        with pytest.raises(ZeroDivisionError, match="not a unit"):
            m.inverse()
    m = MatrixRF.from_strings([["%d*t^-2" % (p - 1), "0", "0"], ["1", "t", "t"],
                               ["0", "0", "1"]], p)
    assert m * m.inverse() == m.inverse() * m == MatrixRF.identity(p)
    g = word_evaluate(parse_word("s1.s2^-1.x"), p)
    assert g * g.inverse() == MatrixRF.identity(p)


def _sparse_entry(rng, p):
    """A Laurent entry, zero in about half the draws."""
    if rng.random() < 0.5:
        return LaurentPoly.zero(p) if p is None else RatFunc.zero(p)
    coeffs = [rng.randint(-3, 3) if p is None else rng.randrange(p)
              for _ in range(rng.randint(1, 3))]
    e = LaurentPoly(p, coeffs, rng.randint(-2, 2))
    return e if p is None else e.to_ratfunc()


def _sparse_matrix(rng, p):
    rows = [[_sparse_entry(rng, p) for _ in range(3)] for _ in range(3)]
    if rng.random() < 0.2:
        # a whole zero column of the right factor
        j = rng.randrange(3)
        for row in rows:
            row[j] = LaurentPoly.zero(p) if p is None else RatFunc.zero(p)
    return MatrixRF(p, rows)


def test_product_matches_dense_three_term_product():
    # the product leaves out the zero entries of the right factor; entries
    # are normalized, so it must equal the three-term sum field for field
    rng = random.Random(20261019)
    for p in (None, 2, 3, 5, 7):
        for _ in range(60):
            a, b = _sparse_matrix(rng, p), _sparse_matrix(rng, p)
            got = a * b
            want = tuple(tuple(r[0] * b[0, j] + r[1] * b[1, j] + r[2] * b[2, j]
                               for j in range(3)) for r in a.rows)
            # entry equality compares type and every field
            assert got.rows == want


def _zero(p, var):
    return LaurentPoly.zero(p, var) if p is None else RatFunc.zero(p, var)


def _laurent_entry(rng, p, var, big):
    """A Laurent entry, zero in about a third of the draws; over Z and mod p
    the coefficients may pass 2^63 before reduction."""
    if rng.random() < 0.3:
        return _zero(p, var)
    bound = 2 ** 70 if big else 3
    e = LaurentPoly(p, [rng.randint(-bound, bound) for _ in range(rng.randint(1, 5))],
                    rng.randint(-4, 3), var)
    return e if p is None else e.to_ratfunc()


def _laurent_matrix(rng, p, var, big):
    rows = [[_laurent_entry(rng, p, var, big) for _ in range(3)] for _ in range(3)]
    draw = rng.random()
    if draw < 0.15:
        rows[rng.randrange(3)] = [_zero(p, var)] * 3
    elif draw < 0.3:
        j = rng.randrange(3)
        for row in rows:
            row[j] = _zero(p, var)
    return MatrixRF(p, rows, var)


def _as_laurent(e):
    return e.to_laurent() if isinstance(e, RatFunc) else e


def _monomial(e, k):
    """The term of e at its lowest (k = 0) or highest (k = -1) exponent."""
    f = _as_laurent(e)
    m = LaurentPoly.term(f.coeffs[k], (f.minexp, f.maxexp)[k], f.p, f.var)
    return m if e.p is None else m.to_ratfunc()


def _cancelling_pair(rng, p, var, big):
    """(a, b, h*k): the (0, 0) entry of a*b is f*g - g*f = 0, the (1, 1)
    entry is h*k less its lowest term and the (2, 2) entry h*k less its
    highest, for random nonzero Laurent f, g, h, k."""
    def nonzero():
        while True:
            e = _laurent_entry(rng, p, var, big)
            if not e.is_zero():
                return e

    f, g, h, k = nonzero(), nonzero(), nonzero(), nonzero()
    hk = h * k
    zero = _zero(p, var)
    one = LaurentPoly.one(p, var) if p is None else RatFunc.one(p, var)
    other = _laurent_matrix(rng, p, var, big)
    a = MatrixRF(p, ((f, g, zero),
                     (zero, h, -_monomial(hk, 0)),
                     (zero, h, -_monomial(hk, -1))), var)
    b = MatrixRF(p, ((g, other[0, 1], other[0, 2]),
                     (-f, k, k),
                     (other[2, 0], one, one)), var)
    return a, b, hk


def test_laurent_product_kernel_matches_entrywise_product():
    # each entry of the convolution kernel's product must equal the
    # three-term entrywise sum field for field and, mod p, its
    # normalize=True rebuild
    rng = random.Random(20261101)
    trimmed = {"low": 0, "high": 0}
    for p in (None, 2, 3, 5, 7, 11):
        for var in ("t", "s"):
            for big in (False, True):
                cancel = [_cancelling_pair(rng, p, var, big) for _ in range(6)]
                pairs = [(_laurent_matrix(rng, p, var, big),
                          _laurent_matrix(rng, p, var, big)) for _ in range(25)]
                for a, b in pairs + [(a, b) for a, b, _ in cancel]:
                    got = a * b
                    # entry equality compares type and every field, in the
                    # Laurent ring and, mod p, in the field F_p(t)
                    for entries in (lambda m: m.rows, field_rows):
                        ra, rb = entries(a), entries(b)
                        want = tuple(tuple(r[0] * rb[0][j] + r[1] * rb[1][j]
                                           + r[2] * rb[2][j] for j in range(3))
                                     for r in ra)
                        assert entries(got) == want
                    for e in (e for row in got.rows for e in row):
                        assert type(e) is LaurentPoly
                        if p is not None:
                            f = as_field(e)
                            rebuilt = RatFunc(p, f.num, f.den, var)
                            assert (rebuilt.num, rebuilt.den) == (f.num, f.den)
                for a, b, hk in cancel:
                    got = a * b
                    assert got[0, 0].is_zero()
                    full = _as_laurent(hk)
                    if len(full.coeffs) > 1:
                        low, high = _as_laurent(got[1, 1]), _as_laurent(got[2, 2])
                        assert low.minexp > full.minexp and high.maxexp < full.maxexp
                        trimmed["low"] += low.minexp > full.minexp + 1
                        trimmed["high"] += high.maxexp < full.maxexp - 1
    # some sums lose more than one term at an end
    assert trimmed["low"] > 0 and trimmed["high"] > 0


def _eager(p, terms, var):
    """The matrix with the given Laurent terms, built from its entries:
    RatFunc mod p, LaurentPoly over Z."""
    def entry(e, c):
        if p is None:
            return LaurentPoly(p, c, e, var)
        return RatFunc.from_terms(p, c, e, var)

    return MatrixRF(p, tuple(tuple(entry(e, c) for e, c in row) for row in terms),
                    var)


def _count_entries_built(monkeypatch):
    """The list to which every LaurentPoly and RatFunc built from now on
    appends its class."""
    built = []
    for cls in (LaurentPoly, RatFunc):
        def counting(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            built.append(_cls)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return built


def test_product_entries_built_on_first_read_match_eager_entries(monkeypatch):
    # a product holds Laurent terms only; the LaurentPoly entries each read
    # builds, and keeps none of, its equality and its hash must be those of
    # the same matrix built from entries, whichever reader comes first
    rng = random.Random(20261119)
    built = _count_entries_built(monkeypatch)
    for p in (None, 2, 3, 5, 7):
        for var in ("t", "s"):
            for _ in range(20):
                a, b = (_laurent_matrix(rng, p, var, False) for _ in range(2))
                eager = _eager(p, (a * b)._terms, var)
                built.clear()
                got = a * b
                assert hash(got) == hash(eager)
                assert not built
                assert got.rows == eager.rows
                assert built == [LaurentPoly] * 18
                assert got.rows == eager.rows
                assert built == [LaurentPoly] * 36
                got = a * b
                assert got == eager and eager == got
                got = a * b
                assert [got[i, j] for i in range(3) for j in range(3)] == \
                    [eager[i, j] for i in range(3) for j in range(3)]
                got = a * b
                assert str(got) == str(eager)
                assert got.transpose() == eager.transpose()


def _eager_product(a, b):
    """The terms of a * b formed at once, one ``laurent_dot`` per entry."""
    ta, tb = a._terms, b._terms
    cols = [(tb[0][j], tb[1][j], tb[2][j]) for j in range(3)]
    return tuple(tuple(laurent_dot(r, col, a.p) for col in cols) for r in ta)


def test_product_forms_the_laurent_dot_terms(monkeypatch):
    # a product forms its terms at *, without building an entry: those of
    # the laurent_dot product, for single products, chains both ways round
    # and powers
    rng = random.Random(20261201)
    built = _count_entries_built(monkeypatch)
    for p in (None, 2, 3, 5, 7):
        for _ in range(20):
            a, b, c = (_laurent_matrix(rng, p, "t", False) for _ in range(3))
            built.clear()
            got = a * b
            assert not built
            assert got._terms == _eager_product(a, b)
            ab = _eager(p, _eager_product(a, b), "t")
            bc = _eager(p, _eager_product(b, c), "t")
            assert (a * b * c)._terms == _eager_product(ab, c)
            assert (a * (b * c))._terms == _eager_product(a, bc)
        for g in (burau_generator(1, p), word_evaluate(parse_word("x.y^-1"), p)):
            want = MatrixRF.identity(p)
            for n in range(7):
                assert (g ** n)._terms == want._terms
                want = _eager(p, _eager_product(want, g), "t")


def test_product_raises_at_the_product():
    # the factors are checked at *
    s1 = burau_generator(1, 3)
    for other in (burau_generator(1, 5), burau_generator(1, None), squier_form(3)):
        for op in (lambda: s1 * other, lambda: other * s1):
            with pytest.raises(ValueError, match="mismatch"):
                op()
    # a matrix with a non-Laurent entry is refused before any product
    rows = [list(r) for r in field_rows(s1)]
    rows[1][2] = RatFunc(3, (1,), (1, 1))       # 1 / (1 + t)
    with pytest.raises(ValueError, match="not a Laurent polynomial"):
        MatrixRF(3, rows)


def _terms_matrix(p, entries, var="t"):
    """The matrix of nine Laurent terms (minexp, coeffs), row by row."""
    return MatrixRF.from_terms(
        p, (tuple(entries[:3]), tuple(entries[3:6]), tuple(entries[6:])), var)


def _random_terms(rng, p, exps=(-4, 3), longest=5, size=3):
    """The terms of a random entry, zero in about a quarter of the draws:
    coefficients mod p, or of |c| <= size over Z, with nonzero ends."""
    if rng.random() < 0.25:
        return 0, ()

    def coeff(zero):
        if p is not None:
            return rng.randrange(0 if zero else 1, p)
        c = rng.randint(0 if zero else 1, size)
        return c if rng.random() < 0.5 else -c

    n = rng.randint(1, longest)
    c = [coeff(False)] + [coeff(True) for _ in range(n - 2)]
    if n > 1:
        c.append(coeff(False))
    return rng.randint(*exps), tuple(c)


def _random_terms_matrix(rng, p, var="t", **kw):
    return _terms_matrix(p, [_random_terms(rng, p, **kw) for _ in range(9)], var)


@pytest.fixture
def product(monkeypatch):
    """A function of two factors that checks their product against
    ``_eager_product`` and returns the bytes per slot it was packed at
    (1 for the 8-bit slots, which take no ``_pack``)."""
    from buraubuilding import rep
    widths = []
    pack = rep._pack

    def counting(coeffs, w8, signed):
        widths.append(w8)
        return pack(coeffs, w8, signed)

    monkeypatch.setattr(rep, "_pack", counting)

    def check(a, b):
        widths.clear()
        got = a * b
        assert got._terms == _eager_product(a, b)
        assert (got.p, got.var) == (a.p, a.var)
        assert len(set(widths)) <= 1
        return widths[0] if widths else 1

    return check


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_product_slots_of_8_bits_hold_up_to_255(product, p):
    # entries of L digits p - 1: the middle slot of each product entry sums
    # 3 L (p - 1)^2 digit products, the bound the slot must hold
    top = 255 // (3 * (p - 1) ** 2)
    assert 3 * top * (p - 1) ** 2 <= 255 < 3 * (top + 1) * (p - 1) ** 2
    for L, width in ((top, 1), (top + 1, 8)):
        for shift in (0, 1):
            a = _terms_matrix(p, [(-L // 2, (p - 1,) * L)] * 9)
            b = _terms_matrix(p, [(k * shift, (p - 1,) * L) for k in range(9)])
            assert product(a, b) == width
            assert product(b, a) == width
    # the shorter factor's longest entry sets the bound
    long = _terms_matrix(p, [(-3, (p - 1,) * 200)] * 9)
    short = _terms_matrix(p, [(2, (p - 1,))] * 9)
    assert product(long, short) == product(short, long) == 1


@pytest.mark.parametrize("p", [11, 17, 257, 2 ** 61 - 1])
def test_product_wide_slots_match_the_laurent_dot_product(product, p):
    rng = random.Random(20261021 + p % 1000)
    width = 16 if p > 1 << 32 else 8
    for _ in range(30):
        a, b = (_random_terms_matrix(rng, p) for _ in range(2))
        assert product(a, b) in (1, width)
    for L in (1, 5, 21):
        full = _terms_matrix(p, [(0, (p - 1,) * L)] * 9)
        assert product(full, full) == width
    if p == 2 ** 61 - 1:
        # 3 L (p - 1)^2 passes 2^128 from L = 22 on
        full = _terms_matrix(p, [(0, (p - 1,) * 22)] * 9)
        assert product(full, full) == 24


def test_product_over_z_balances_its_slots(product):
    rng = random.Random(20261022)
    for _ in range(30):
        a, b = (_random_terms_matrix(rng, None, size=2 ** 72) for _ in range(2))
        assert product(a, b) in (1, 24)
    for _ in range(30):
        a, b = (_random_terms_matrix(rng, None) for _ in range(2))
        assert product(a, b) in (1, 8)
    # one-term entries of |c| = m: the middle slots sum 3 m^2, of either
    # sign, which 64-bit balanced slots hold while it is below 2^63
    top = math.isqrt((2 ** 63 - 1) // 3)
    assert 3 * top ** 2 < 2 ** 63 <= 3 * (top + 1) ** 2
    for m, width in ((top, 8), (top + 1, 16)):
        for sa, sb in ((1, 1), (1, -1), (-1, -1)):
            a = _terms_matrix(None, [(0, (sa * m,))] * 9)
            b = _terms_matrix(None, [(k, (sb * m,)) for k in range(9)])
            assert product(a, b) == product(b, a) == width


def test_product_spreads_exponents_from_t_minus_20_to_t_20(product):
    rng = random.Random(20261023)
    for p in (None, 2, 3, 5, 7, 11):
        for _ in range(20):
            a, b = (_random_terms_matrix(rng, p, exps=(-20, 20))
                    for _ in range(2))
            product(a, b)
        # single digits at both ends of the range in each factor
        ends = [(-20, (1,)), (0, ()), (20, (1,))] * 3
        m = _terms_matrix(p, ends)
        product(m, m)
        product(m, m.transpose())


@pytest.mark.parametrize("p", [None, 2, 3, 5, 7, 11])
def test_product_of_zero_rows_columns_and_cancelling_entries(product, p):
    rng = random.Random(20261024 + (p or 0))
    zero = (0, ())
    for i in range(3):
        a, b = (_random_terms_matrix(rng, p) for _ in range(2))
        rows = [list(r) for r in a._terms]
        rows[i] = [zero] * 3
        a = _terms_matrix(p, rows[0] + rows[1] + rows[2])
        cols = [list(r) for r in b._terms]
        for r in cols:
            r[i] = zero
        b = _terms_matrix(p, cols[0] + cols[1] + cols[2])
        product(a, b)
        assert (a * b)._terms[i] == (zero,) * 3
        assert all(r[i] == zero for r in (a * b)._terms)
        product(b, a)
    nothing = _terms_matrix(p, [zero] * 9)
    m = _random_terms_matrix(rng, p)
    for x, y in ((nothing, m), (m, nothing), (nothing, nothing)):
        product(x, y)
        assert (x * y)._terms == ((zero,) * 3,) * 3

    # with f = t^-2 + t^-1 + 1 + t and g = 1, entry (0, 0) is f - f = 0
    # and (0, 1) is f + (g - f) = g, both ends cancelled
    one, minus = (0, (1,)), -1 % p if p else -1
    f, g_minus_f = (-2, (1, 1, 1, 1)), (-2, (minus, minus, 0, minus))
    a = _terms_matrix(p, [one, one, zero] + [(1, (1,))] * 6)
    b = _terms_matrix(p, [f, f, zero, (-2, (minus,) * 4), g_minus_f, zero,
                          (3, (1,)), zero, one])
    product(a, b)
    assert (a * b)._terms[0][:2] == (zero, one)


def test_product_over_s(product):
    # var "s", of the Squier form J, multiplies as var "t" does
    rng = random.Random(20261025)
    for p in (None, 2, 3, 5, 7, 11):
        for _ in range(10):
            a, b = (_random_terms_matrix(rng, p, var="s") for _ in range(2))
            product(a, b)
    for p in (2, 3, 5, 11):
        J = squier_form(p)
        product(J, J)
        product(J.star(), J)


def test_a_product_read_twice_forms_its_terms_once(monkeypatch):
    from buraubuilding import rep
    calls = []
    kernel = rep._product_terms

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(rep, "_product_terms", counting)
    a, b = burau_generator(1, 3), burau_generator(2, 3)
    m = a * b
    assert len(calls) == 1
    first = m._terms
    # every later reader goes through the formed terms
    for read in (lambda: m.rows, lambda: hash(m), lambda: str(m),
                 lambda: is_homothety(m), lambda: m == m):
        read()
    assert m._terms is first
    assert len(calls) == 1


def test_orders_and_powers_form_no_product_past_their_last_read(monkeypatch):
    # order c takes c - 1 products, and a search that gives up at maxn
    # takes maxn - 1; a power squares only while bits are left to read
    calls = []
    mul = MatrixRF.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(MatrixRF, "__mul__", counting)
    for name, p, c in (("x", 3, 4), ("y", 3, 3), ("u", 3, 6), ("h", 3, 3),
                       ("beta2", 5, 4), ("x", 7, 4)):
        m = letter_matrix(name, p)
        for maxn in (c, c + 5):
            calls.clear()
            assert order_mod_homothety(m, maxn) == c
            assert len(calls) == c - 1
        for maxn in range(1, c):
            calls.clear()
            assert order_mod_homothety(m, maxn) is None
            assert len(calls) == maxn - 1
    g = letter_matrix("x", 3)
    for n in range(1, 40):
        calls.clear()
        g ** n
        assert len(calls) == bin(n).count("1") + n.bit_length() - 1


def test_word_evaluation_builds_no_entries_until_read(monkeypatch):
    rng = random.Random(20261120)
    letters = [(name, sgn) for name in ("s1", "s2", "s3", "x", "y", "u")
               for sgn in (1, -1)] * 2
    rng.shuffle(letters)
    word = GroupWord(letters)
    assert len(word) == 24
    word_evaluate(word, 3)      # the letter matrices and their inverses
    built = _count_entries_built(monkeypatch)
    m = word_evaluate(word, 3)
    # is_homothety reads terms, not entries
    is_homothety(m)
    assert is_homothety(word_evaluate(parse_word("x^4"), 3)) is not None
    assert not built
    # each read builds the LaurentPoly entries it returns, and no RatFunc
    assert m[1, 1] == m.rows[1][1]
    assert built == [LaurentPoly] * 10


def test_matrix_equality_and_hash_read_terms_not_entries(monkeypatch):
    # == and hash read the Laurent terms: each verdict is that of comparing
    # the entries, equal matrices hash alike, and comparing two computed
    # products builds no entry
    rng = random.Random(20261122)
    verdicts = set()
    for p in (None, 2, 3, 5, 7):
        for _ in range(30):
            a, b, c = (_laurent_matrix(rng, p, "t", False) for _ in range(3))
            pairs = [((a * b) * c, a * (b * c)), (a * b, b * a),
                     (a * b, MatrixRF(p, (a * b).rows)),
                     (a * b, MatrixRF(p, (a * c).rows))]
            for x, y in pairs:
                assert (x == y) == (y == x) == (x.rows == y.rows)
                if x == y:
                    assert hash(x) == hash(y)
                verdicts.add(x == y)
    assert verdicts == {True, False}
    s1, s2 = burau_generator(1, 3), burau_generator(2, 3)
    built = _count_entries_built(monkeypatch)
    left, right = s1 * s2 * s1, s2 * s1 * s2
    assert left == right and hash(left) == hash(right)
    assert left != s1 * s2
    assert not built


def _expanded_det(m):
    """The row-0 expansion in entrywise arithmetic, in the field mod p."""
    r = field_rows(m)
    return (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))


def _entrywise_adjugate(m):
    """adj[j][i] = (-1)^(i+j) times the minor of entry (i, j), the 2x2
    submatrix left when row i and column j are deleted, in entrywise
    arithmetic, in the field mod p."""
    r = field_rows(m)

    def cof(i, j):
        sub = [[r[a][b] for b in range(3) if b != j] for a in range(3) if a != i]
        x = sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
        return -x if (i + j) % 2 else x

    return tuple(tuple(cof(j, i) for j in range(3)) for i in range(3))


def _assert_own_terms(m):
    # the terms a kernel caches on its output are those of the entries
    assert m._terms == tuple(tuple(e.laurent_terms() for e in row)
                             for row in m.rows)


def test_det_on_terms_matches_entrywise_expansion():
    # all-Laurent matrices take the laurent_dot cofactors; the determinant,
    # the adjugate, the inverse, scale and star must equal entrywise
    # arithmetic field for field, singular matrices and zero entries included
    rng = random.Random(20261102)
    zeros = inverted = refused = 0
    letters = ("s1", "s2", "s3", "x", "y")
    for p in (None, 2, 3, 5, 7, 11):
        for big in (False, True):
            for _ in range(30):
                m = _laurent_matrix(rng, p, "t", big)
                f, g = (_laurent_entry(rng, p, "t", big) for _ in range(2))
                rows = field_rows(m)
                # row 2 a combination of rows 0 and 1, and two equal rows
                dependent = (rows[0], rows[1],
                             tuple(f * a + g * b for a, b in zip(rows[0], rows[1])))
                word = GroupWord((rng.choice(letters), rng.choice((1, -1)))
                                 for _ in range(rng.randint(1, 6)))
                for mat in (m, MatrixRF(p, dependent),
                            MatrixRF(p, (rows[0], rows[1], rows[0])),
                            word_evaluate(word, p)):
                    assert mat._terms
                    got = mat.det()
                    assert as_field(got) == _expanded_det(mat)
                    assert type(got) is LaurentPoly
                    zeros += got.is_zero()
                    adj = mat.adjugate()
                    assert field_rows(adj) == _entrywise_adjugate(mat)
                    star = mat.star()
                    assert field_rows(star) == tuple(
                        tuple(as_field(mat[j, i]).involution() for j in range(3))
                        for i in range(3))
                    c = _laurent_entry(rng, p, "t", big)
                    scaled = mat.scale(c)
                    assert field_rows(scaled) == tuple(
                        tuple(e * c for e in row) for row in field_rows(mat))
                    for out in (adj, star, scaled):
                        _assert_own_terms(out)
                    terms = got.laurent_terms()
                    if len(terms[1]) == 1 and (p is not None or terms[1][0] in (1, -1)):
                        inv = mat.inverse()
                        if p is None:
                            want = tuple(tuple(e * got.inverse() for e in row)
                                         for row in _entrywise_adjugate(mat))
                        else:
                            want = tuple(tuple(e / as_field(got) for e in row)
                                         for row in _entrywise_adjugate(mat))
                        assert field_rows(inv) == want
                        _assert_own_terms(inv)
                        inverted += 1
                    else:
                        with pytest.raises(ZeroDivisionError, match="not a unit"):
                            mat.inverse()
                        refused += 1
    assert zeros >= 2 * 6 * 2 * 30
    assert inverted >= 6 * 2 * 30 and refused >= 2 * 6 * 2 * 30


def test_det_valuation_matches_det():
    rng = random.Random(5)
    for p in (2, 3, 5):
        for _ in range(20):
            m = _sparse_matrix(rng, p)
            want = as_field(m.det()).valuation()
            assert m.det_valuation() == want
            assert m.det_valuation() == want
    z = RatFunc.zero(3)
    assert MatrixRF(3, ((z, z, z),) * 3).det_valuation() == math.inf


# -- packed word evaluation ----------------------------------------------------

def word_evaluate_oracle(w, p):
    """The left-to-right product of the letter matrices, one
    ``_eager_product`` (a ``laurent_dot`` per entry) per letter: the
    reference for the packed chain, which shares no kernel with it."""
    out = MatrixRF.identity(p)
    for name, sgn in w:
        m = letter_matrix(name, p)
        out = MatrixRF.from_terms(
            p, _eager_product(out, m if sgn > 0 else m.inverse()))
    return out


def assert_same_as_oracle(w, p):
    got = word_evaluate(w, p)._terms
    assert got == word_evaluate_oracle(w, p)._terms
    # normal form: trimmed at both ends, coefficients in [0, p) mod p
    for row in got:
        for e, c in row:
            if not c:
                assert e == 0
                continue
            assert c[0] and c[-1]
            assert p is None or all(0 <= a < p for a in c)
    return got


def _repeat(text, n):
    return GroupWord(tuple(parse_word(text)) * n)


def _word_letters(p):
    """The letters the packed-word tests use at p (over Z when p is None),
    each with its inverse."""
    names = ["s1", "s2", "s3", "x", "y"]
    if p is not None:
        names.append("M19")
    if p == 3:
        names += ["w", "u", "u1", "h", "alpha1", "alpha2"]
    if p == 5:
        names.append("beta2")
    return [(name, sgn) for name in names for sgn in (1, -1)]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 157, None])
def test_packed_words_match_the_oracle(p):
    rng = random.Random(20261019 + (p or 0))
    letters = _word_letters(p)
    for length in (0, 1, 2, 7, 40, 150, 400):
        assert_same_as_oracle(
            GroupWord(rng.choice(letters) for _ in range(length)), p)
    # every letter and its inverse alone
    for letter in letters:
        assert_same_as_oracle(GroupWord([letter]), p)
    if p is not None:
        # M19 is monomial; mod 2 it is diag(t, 1, 1), whose growth factor 1
        # is taken as 2
        assert_same_as_oracle(_repeat("M19", 400), p)


@pytest.mark.parametrize("p", [3, None])
def test_packed_kernel_word_matches_the_oracle(p):
    assert_same_as_oracle(named_word("kernel_word"), p)


@pytest.mark.parametrize("k", [60, 200])
def test_packed_words_widen_past_64_bit_slots(monkeypatch, k):
    from buraubuilding import rep
    widths = set()
    packed = rep._packed_letter

    def spy(name, sgn, p, w8):
        widths.add(w8)
        return packed(name, sgn, p, w8)

    monkeypatch.setattr(rep, "_packed_letter", spy)
    got = assert_same_as_oracle(_repeat("s1.s2^-1", k), None)
    assert max(abs(a).bit_length() for row in got for _, c in row for a in c) > 64
    assert min(widths) == 8 and max(widths) > 8


def _dense_step(name, sgn, p, w8):
    """The letter step as nine three-term sums, all 27 terms (a_k * m << s)
    written out, a zero entry as m = 0: the reference for the compiled
    steps."""
    from buraubuilding import rep
    m = letter_matrix(name, p)
    t = (m if sgn > 0 else m.inverse())._terms
    lo = min(e for row in t for e, c in row if c)
    cols = []
    for j in range(3):
        col = ()
        for k in range(3):
            e, c = t[k][j]
            col += (rep._pack(c, w8, p is None), 8 * w8 * (e - lo)) if c else (0, 0)
        cols.append(col)
    (m00, s00, m10, s10, m20, s20), (m01, s01, m11, s11, m21, s21), \
        (m02, s02, m12, s12, m22, s22) = cols

    def step(A):
        return tuple(((a0 * m00 << s00) + (a1 * m10 << s10) + (a2 * m20 << s20),
                      (a0 * m01 << s01) + (a1 * m11 << s11) + (a2 * m21 << s21),
                      (a0 * m02 << s02) + (a1 * m12 << s12) + (a2 * m22 << s22))
                     for a0, a1, a2 in A)

    return lo, step


def _random_packed_rows(rng, p, w8):
    from buraubuilding import rep
    top = 1 << (8 * w8 - 4)

    def entry():
        n = rng.choice((0, 0, 1, 3, 9))
        coeffs = [rng.randrange(p) if p else rng.randrange(-top, top)
                  for _ in range(n)]
        return rep._pack(coeffs, w8, p is None) if coeffs else 0

    return tuple(tuple(entry() for _ in range(3)) for _ in range(3))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 157, None])
def test_compiled_letter_steps_match_the_dense_step(p):
    # every letter and inverse, at 64-bit and at widened slots, on random
    # packed rows with zero entries and zero rows among them
    from buraubuilding import rep
    rng = random.Random(20261021 + (p or 0))
    for name, sgn in _word_letters(p):
        for w8 in (8, 24):
            lo, step, _ = rep._packed_letter(name, sgn, p, w8)
            want_lo, dense = _dense_step(name, sgn, p, w8)
            assert lo == want_lo
            zero = ((0, 0, 0),) * 3
            assert step(zero) == dense(zero) == zero
            for _ in range(20):
                A = _random_packed_rows(rng, p, w8)
                assert step(A) == dense(A)


# Python 3.10 has one opcode per binary operator; from 3.11 on they are
# all BINARY_OP, with the operator as argrepr
_BINARY = {"BINARY_ADD": "+", "BINARY_MULTIPLY": "*", "BINARY_LSHIFT": "<<"}


def _binary_op(i):
    return i.argrepr if i.opname == "BINARY_OP" else _BINARY.get(i.opname)


@pytest.mark.parametrize("p", [2, 3, 5, None])
def test_compiled_letter_steps_hold_one_term_per_nonzero_entry(p):
    # the generated code reads a_k once per nonzero entry (k, j) and row,
    # multiplies only by constants other than 1 and shifts only by nonzero
    # counts
    from buraubuilding import rep
    for name, sgn in _word_letters(p):
        m = letter_matrix(name, p)
        t = (m if sgn > 0 else m.inverse())._terms
        lo = min(e for row in t for e, c in row if c)
        nonzero = [(e, c) for row in t for e, c in row if c]
        step = rep._packed_letter(name, sgn, p, 8)[1]
        code = list(dis.get_instructions(step))
        # Python 3.13 loads two locals in one LOAD_FAST_LOAD_FAST
        reads = [x for i in code if i.opname.startswith("LOAD_FAST")
                 for x in (i.argval if isinstance(i.argval, tuple) else (i.argval,))
                 if x in ("a0", "a1", "a2")]
        ops = [_binary_op(i) for i in code if i.opname.startswith("BINARY_")]
        assert len(reads) == 3 * len(nonzero)
        assert ops.count("+") == 3 * (len(nonzero) - 3)
        assert ops.count("*") == 3 * sum(c != (1,) for e, c in nonzero)
        assert ops.count("<<") == 3 * sum(e != lo for e, c in nonzero)
        assert len(ops) == ops.count("+") + ops.count("*") + ops.count("<<")
        for prev, i in zip(code, code[1:]):
            if _binary_op(i) == "*":
                assert prev.opname == "LOAD_GLOBAL"
                assert step.__globals__[prev.argval] not in (0, 1)
            if _binary_op(i) == "<<":
                assert prev.opname == "LOAD_CONST" and prev.argval > 0


def test_packed_words_past_a_64_bit_prime(monkeypatch):
    # 2^89 - 1 is a Mersenne prime; trial division cannot certify it quickly
    from buraubuilding import rep
    monkeypatch.setattr(rep, "check_prime", lambda p: p)
    p = 2 ** 89 - 1
    assert_same_as_oracle(parse_word("s1.s2^-1.x.y^-1.s3^-1") * _repeat("x.s2", 20), p)


@pytest.mark.parametrize("text, p", [
    ("s1^-1.s1", None), ("s1^-1.s1", 3), ("x^-1", 3), ("x^-1", None),
    ("M19.M19^-1", 2),      # monomial letters: the chain's bound hardly grows
])
def test_packed_words_fold_a_drifting_exponent(monkeypatch, text, p):
    # E drifts by each letter's least exponent; the shared zero low slots
    # are folded back, so the packed entries stay as long at any length
    from buraubuilding import rep
    sizes = []
    unpack = rep._unpack

    def spy(x, w8, modulus):
        sizes.append(x.bit_length())
        return unpack(x, w8, modulus)

    monkeypatch.setattr(rep, "_unpack", spy)
    longest = []
    for n in (500, 2000):
        sizes.clear()
        assert_same_as_oracle(_repeat(text, n), p)
        longest.append(max(sizes))
    assert longest[0] == longest[1] < 4096


def test_word_evaluate_makes_no_matrix_product(monkeypatch):
    calls = []
    mul = MatrixRF.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(MatrixRF, "__mul__", counted)
    for p in (2, 3, None):
        word_evaluate(named_word("kernel_word"), p)
        word_evaluate(parse_word("s1.s2^-1.x.y^-1") * _repeat("s3.x^-1", 40), p)
    word_evaluate(parse_word("u.u1^-1.h.w^-1.alpha2"), 3)
    assert not calls


# -- homothety and order helpers ----------------------------------------------

def test_is_homothety_witness():
    x = letter_matrix("x", 3)
    wit = is_homothety(x ** 4)
    assert wit is not None
    assert (x ** 4)[0, 0] == (x ** 4)[1, 1]


def test_order_mod_homothety_bound():
    u = named_matrix("u", 3)
    assert order_mod_homothety(u, maxn=5) is None
    assert order_mod_homothety(u, maxn=6) == 6


# -- random products stay unitary ----------------------------------------------

def test_random_words_unitary():
    rng = random.Random(20240601)
    letters = ["s1", "s2", "s3", "x", "y", "u"]
    for _ in range(40):
        word = [(rng.choice(letters), rng.choice((1, -1)))
                for _ in range(rng.randint(1, 10))]
        m = word_evaluate(GroupWord(word), 3)
        assert is_unitary(m)
        assert as_field(m.det()).valuation() % 1 == 0


def _unitary_in_the_s_ring(A):
    """A* J A = J over F_p[s, 1/s], with t = s^2 substituted entrywise."""
    J = squier_form(A.p)
    As = MatrixRF(A.p, tuple(tuple(e.to_s_ring() for e in row)
                             for row in A.rows), "s")
    return As.star() * J * As == J


def test_unitarity_over_t_matches_the_s_ring():
    # A* H A = H with H = J / s gives the verdict of A* J A = J, on word
    # products and on products with one entry perturbed by t
    rng = random.Random(20261023)
    seen = set()
    for p in (2, 3, 5, 7):
        letters = [name for name, _ in _word_letters(p)]
        for _ in range(12):
            word = GroupWord((rng.choice(letters), rng.choice((1, -1)))
                             for _ in range(rng.randint(0, 8)))
            m = word_evaluate(word, p)
            rows = [list(r) for r in field_rows(m)]
            rows[rng.randrange(3)][rng.randrange(3)] += RatFunc(p, (0, 1), (1,))
            for A in (m, MatrixRF(p, rows)):
                verdict = is_unitary(A)
                assert verdict == _unitary_in_the_s_ring(A)
                seen.add(verdict)
    assert seen == {True, False}


def test_integral_generators_match_modular():
    for i in (1, 2, 3):
        for p in (2, 3, 5):
            assert burau_generator(i, None).reduce_mod(p) == burau_generator(i, p)
