import hashlib
import math
import random
import time

import pytest

from buraubuilding.arith import (
    _SPRP_BOUND,
    INF,
    LaurentPoly,
    RatFunc,
    check_prime,
    is_prime,
    laurent_dot,
    laurent_pi_digits,
    parse_laurent,
    pmul,
    render_laurent_data,
)
from buraubuilding.groupcalc import ball
from pi_adic import pi_adic_expand, pi_digits_window


def L(text, p, var="t"):
    return parse_laurent(text, p, var)


def R(text, p, var="t"):
    return L(text, p, var).to_ratfunc()


def random_laurent(rng, p, var="t", span=4):
    lo = rng.randint(-span, span)
    n = rng.randint(0, span)
    return LaurentPoly(p, [rng.randrange(p) for _ in range(n + 1)], lo, var)


def random_ratfunc(rng, p, var="t", span=3):
    num = [rng.randrange(p) for _ in range(rng.randint(1, span + 1))]
    den = ()
    while not den:
        den = tuple(rng.randrange(p) for _ in range(rng.randint(1, span + 1)))
        if not any(den):
            den = ()
    return RatFunc(p, num, den, var)


# -- primality ----------------------------------------------------------------

def _trial_division(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_is_prime_agrees_with_trial_division_below_1e5():
    assert [n for n in range(-3, 10 ** 5) if is_prime(n)] == \
        [n for n in range(-3, 10 ** 5) if _trial_division(n)]


def test_is_prime_rejects_strong_pseudoprimes():
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to the
    # bases 2, 3, 5 and 7, 3825123056546413051 to every prime base up to
    # 31 and 318665857834031151167461 to every prime base up to 37
    for n in (561, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
        with pytest.raises(ValueError, match="not prime"):
            check_prime(n)


def test_check_prime_certifies_a_61_bit_prime_at_once():
    start = time.perf_counter()
    assert check_prime(2 ** 61 - 1) == 2 ** 61 - 1
    assert not is_prime(2 ** 61 + 1)
    assert time.perf_counter() - start < 1.0


def test_check_prime_refuses_past_the_certified_bound_at_once():
    # 2^89 - 1 is a Mersenne prime past the strong-pseudoprime bound: it is
    # refused, not trial-divided; a multiple of a prime up to 41 is still
    # found composite there
    start = time.perf_counter()
    for n in (2 ** 89 - 1, _SPRP_BOUND):
        with pytest.raises(ValueError, match="not certified"):
            check_prime(n)
    assert not is_prime(41 * (2 ** 89 - 1))
    assert time.perf_counter() - start < 1.0


# -- ring_ops -----------------------------------------------------------------

def test_mod3_cancellation():
    # (t + 2t^2) + (2t) = 2t^2 mod 3: the 3t term cancels
    assert L("t+2*t^2", 3) + L("2*t", 3) == L("2*t^2", 3)


def test_inverse_law():
    one = R("1", 5)
    f = R("1", 5) / R("1+t", 5)
    assert f * R("1+t", 5) == one


def test_gcd_normalization():
    # (t^2-1)/(t-1) = t+1 over F_5
    f = RatFunc(5, (4, 0, 1), (4, 1))
    assert f == R("1+t", 5)
    assert f.den == (1,)


def test_modulus_mismatch_rejected():
    with pytest.raises(ValueError):
        L("t", 3) + L("t", 5)
    with pytest.raises(ValueError):
        R("t", 3, "t") * R("t", 3, "s")


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        R("1", 3) / RatFunc.zero(3)
    with pytest.raises(ZeroDivisionError):
        RatFunc(3, (1,), ())


def test_ring_axioms_random():
    rng = random.Random(1)
    for p in (2, 3, 5):
        for _ in range(60):
            a = random_laurent(rng, p)
            b = random_laurent(rng, p)
            c = random_laurent(rng, p)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            x = random_ratfunc(rng, p)
            y = random_ratfunc(rng, p)
            z = random_ratfunc(rng, p)
            assert (x + y) * z == x * z + y * z
            if not y.is_zero():
                assert (x / y) * y == x


def test_ratfunc_normalization_canonical():
    rng = random.Random(2)
    for _ in range(100):
        x = random_ratfunc(rng, 5)
        c = ()
        while not c:
            c = tuple(rng.randrange(5) for _ in range(rng.randint(1, 3)))
            if not any(c):
                c = ()
        scale = RatFunc(5, c, (1,))
        if scale.is_zero():
            continue
        y = (x * scale) / scale
        assert y == x
        assert (y.num, y.den) == (x.num, x.den)


def fields(x):
    return (x.num, x.den)


def test_ratfunc_field_arithmetic_matches_laurent_arithmetic():
    # RatFunc arithmetic, the reference field of the test oracles, on
    # Laurent operands: LaurentPoly arithmetic and the gcd normalization of
    # a disguised quotient are the references
    rng = random.Random(3)
    for p in (2, 3, 5, 7):
        for _ in range(150):
            a, b = random_laurent(rng, p), random_laurent(rng, p)
            x, y = a.to_ratfunc(), b.to_ratfunc()
            assert fields((a + b).to_ratfunc()) == fields(x + y)
            assert fields((a * b).to_ratfunc()) == fields(x * y)
            assert fields((a - b).to_ratfunc()) == fields(x - y)
            g = random_ratfunc(rng, p)
            if not g.is_zero():
                # num*g.num / (den*g.num) must reduce through pgcd to x
                disguised = RatFunc(p, pmul(x.num, g.num, p),
                                    pmul(x.den, g.num, p))
                assert fields(disguised) == fields(x)
                # mixed operands: one side has a general denominator
                assert fields((x + g) - g) == fields(x)
                assert fields((x * g) * g.inverse()) == fields(x)
            assert fields(x + g) == fields(g + x)
            assert fields(x * g) == fields(g * x)


def test_laurent_dot_lone_monomial_matches_products():
    # a dot whose one nonzero pair has a monomial c*t^k on one side takes
    # the direct path; LaurentPoly's product (pmul) is the reference, and a
    # second nonzero pair drives the general accumulate-and-trim loop
    rng = random.Random(20261118)
    zero = (0, ())
    for p in (2, 3, 5, 7, None):
        scalars = {1, 2, p - 1} - {0, p} if p else {1, 2, -1}
        for c in sorted(scalars):
            for k in (-3, -1, 0, 2):
                mono = LaurentPoly.term(c, k, p)
                m = mono.laurent_terms()
                for _ in range(15):
                    f = random_laurent(rng, p) if p else random_integral(rng)
                    g = random_laurent(rng, p) if p else random_integral(rng)
                    h = random_laurent(rng, p) if p else random_integral(rng)
                    want = (mono * f).laurent_terms()
                    x = f.laurent_terms()
                    assert laurent_dot((m,), (x,), p) == want
                    assert laurent_dot((x,), (m,), p) == want
                    # zero pairs and half-zero pairs around the one nonzero pair
                    assert laurent_dot((zero, m, g.laurent_terms()),
                                       (h.laurent_terms(), x, zero), p) == want
                    both = laurent_dot((m, g.laurent_terms()),
                                       (x, h.laurent_terms()), p)
                    assert both == (mono * f + g * h).laurent_terms()
    for p in (2, 3, None):
        assert laurent_dot((), (), p) == zero
        assert laurent_dot((zero, zero), ((0, (1,)), zero), p) == zero
        assert laurent_dot(((2, (1,)),), (zero,), p) == zero


# -- integer coefficients (p = None) -------------------------------------------

def int_oracle(f):
    """{exponent: nonzero integer coefficient}, the plain-integer reference."""
    return {f.minexp + i: c for i, c in enumerate(f.coeffs) if c}


def oracle_add(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def oracle_mul(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: c for k, c in out.items() if c}


def random_integral(rng, span=4, size=50):
    lo = rng.randint(-span, span)
    return LaurentPoly(None, [rng.randint(-size, size)
                              for _ in range(rng.randint(0, span + 1))], lo)


def test_integral_laurent_matches_integer_oracle():
    rng = random.Random(9)
    for _ in range(300):
        a, b = random_integral(rng), random_integral(rng)
        oa, ob = int_oracle(a), int_oracle(b)
        for got, want in ((a + b, oracle_add(oa, ob)),
                          (a - b, oracle_add(oa, {k: -c for k, c in ob.items()})),
                          (a * b, oracle_mul(oa, ob))):
            assert got.p is None
            assert int_oracle(got) == want
            # canonical trimming: no zero at either end, minexp 0 for zero
            assert got.coeffs == () and got.minexp == 0 or \
                got.coeffs[0] and got.coeffs[-1]
        unit = LaurentPoly.term(rng.choice((1, -1)), rng.randint(-6, 6), None)
        inv = unit.inverse()
        assert int_oracle(inv) == {-unit.minexp: unit.coeffs[0]}
        assert int_oracle(unit * inv) == {0: 1}
        assert int_oracle(a * unit * inv) == oa


def test_laurent_inverse_of_a_non_unit_is_refused():
    for p in (None, 3):
        with pytest.raises(ZeroDivisionError):
            L("1+t", p).inverse()
        with pytest.raises(ZeroDivisionError):
            LaurentPoly.zero(p).inverse()
    with pytest.raises(ZeroDivisionError):
        L("2", None).inverse()
    assert L("2*t^3", 3).inverse() == L("2*t^-3", 3)


# -- valuation ----------------------------------------------------------------

def test_valuation_examples():
    assert R("t", 3).valuation() == -1
    assert (R("1", 3) / R("1+t", 3)).valuation() == 1
    assert (R("1+t^2", 3) / R("t", 3)).valuation() == -1
    assert RatFunc.zero(3).valuation() is INF


def test_valuation_laws_random():
    rng = random.Random(3)
    pairs = 0
    while pairs < 1000:
        x = random_ratfunc(rng, 5)
        y = random_ratfunc(rng, 5)
        if x.is_zero() or y.is_zero():
            continue
        pairs += 1
        assert (x * y).valuation() == x.valuation() + y.valuation()
        s = x + y
        m = min(x.valuation(), y.valuation())
        assert s.valuation() >= m
        if x.valuation() != y.valuation():
            assert s.valuation() == m


# -- involution ---------------------------------------------------------------

def test_involution_examples():
    f = L("t+2*t^2", 3).involution()
    assert f == parse_laurent("t^-1+2*t^-2", 3)
    c = LaurentPoly.const(2, 3)
    assert c.involution() == c
    # -(s + 1/s) is fixed: needed for J* = J
    j = -(L("s", 3, "s") + L("s^-1", 3, "s"))
    assert j.involution() == j


def test_involution_is_automorphism_of_order_two():
    rng = random.Random(4)
    for _ in range(80):
        a = random_laurent(rng, 3)
        b = random_laurent(rng, 3)
        assert a.involution().involution() == a
        assert (a + b).involution() == a.involution() + b.involution()
        assert (a * b).involution() == a.involution() * b.involution()
        x = random_ratfunc(rng, 3)
        y = random_ratfunc(rng, 3)
        assert x.involution().involution() == x
        assert (x * y).involution() == x.involution() * y.involution()
        assert (x + y).involution() == x.involution() + y.involution()


# -- pi-adic expansion ----------------------------------------------------------

def test_pi_adic_constant():
    assert pi_adic_expand(R("1", 3), 3) == (1, 0, 0)


def test_pi_adic_geometric_series():
    # 1/(1+t) = pi/(1+pi) = pi - pi^2 + pi^3 - ...  -> digits (0, 1, 2) mod 3
    x = R("1", 3) / R("1+t", 3)
    assert pi_adic_expand(x, 3) == (0, 1, 2)


def test_pi_adic_high_valuation():
    x = parse_laurent("t^-2", 3).to_ratfunc()
    assert pi_adic_expand(x, 2) == (0, 0)


def test_pi_adic_domain_error():
    with pytest.raises(ValueError):
        pi_adic_expand(R("t", 3), 2)


def test_pi_adic_prefix_property():
    rng = random.Random(5)
    pi = parse_laurent("t^-1", 3).to_ratfunc()
    done = 0
    while done < 60:
        x = random_ratfunc(rng, 3)
        if x.valuation() is INF or x.valuation() < 0:
            continue
        done += 1
        k = rng.randint(1, 5)
        digits = pi_adic_expand(x, k)
        assert len(digits) == k
        acc = RatFunc.zero(3)
        for j, d in enumerate(digits):
            acc = acc + RatFunc.const(d, 3) * pi ** j
        assert (x - acc).valuation() >= k


def test_pi_digits_property():
    rng = random.Random(6)
    for _ in range(60):
        x = random_laurent(rng, 3)
        v = x.to_ratfunc().valuation()
        lo = rng.randint(-2, 4) if v is INF else v - rng.randint(0, 2)
        n = rng.randint(0, 5)
        r = RatFunc.zero(3)
        for j, d in enumerate(laurent_pi_digits(x.laurent_terms(), lo, n)):
            r = r + RatFunc.const(d, 3).shift_pi(lo + j)
        assert (x.to_ratfunc() - r).valuation() >= lo + n


def test_pi_digits_matches_digit_expansion():
    # the definition: digits of x from nu(x) on, one at a time; positions
    # below lo are dropped.  The read from (minexp, coeffs) must agree on
    # zero entries, exponents of both signs, windows starting at, below and
    # above nu(x), and windows shorter than the entry's span
    rng = random.Random(8)
    short = 0
    for p in (2, 3, 5, 7):
        for _ in range(200):
            coeffs = [rng.randrange(p) for _ in range(rng.randint(0, 6))]
            x = LaurentPoly(p, coeffs, rng.randint(-5, 5))
            v = x.to_ratfunc().valuation()
            lo = rng.randint(-3, 3) + (0 if v is INF else v)
            n = rng.randint(0, 8)
            ref = pi_digits_window(x.to_ratfunc(), lo, n)
            assert laurent_pi_digits(x.laurent_terms(), lo, n) == ref
            short += v is not INF and lo <= v and lo + n <= -x.minexp
    assert short > 50


def test_from_pi_digits_inverts_pi_digits():
    rng = random.Random(9)
    for p in (2, 3, 5, 7):
        for _ in range(100):
            digits = [rng.randrange(p) for _ in range(rng.randint(0, 6))]
            lo = rng.randint(-4, 4)
            x = RatFunc.from_pi_digits(digits, lo, p)
            ref = LaurentPoly(p, digits[::-1], -(lo + len(digits) - 1))
            assert fields(x) == fields(ref.to_ratfunc())
            assert laurent_pi_digits(x.laurent_terms(), lo, len(digits)) == digits


@pytest.mark.parametrize("p, radius, count, digest", [
    (2, 2, 113, "95295504f33dfbed"),
    (3, 2, 417, "ae6585fd897118fe"),
    (5, 1, 63, "ae1b71a6c787b19d"),
])
def test_ball_canonical_forms_golden(p, radius, count, digest):
    # canonical forms are built from this module's arithmetic; pinned values
    # from before the t-power fast path
    texts = sorted(v.to_text() for v in ball(p, radius))
    assert len(texts) == count
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16] == digest


# -- t = s^2 ------------------------------------------------------------------

def test_to_s_ring_examples():
    assert L("t+2", 3).to_s_ring() == L("s^2+2", 3, "s")
    assert parse_laurent("t^-1", 3).to_s_ring() == parse_laurent("s^-2", 3, "s")
    z = LaurentPoly.zero(3)
    assert z.to_s_ring() == LaurentPoly.zero(3, "s")


def test_s_ring_round_trip():
    rng = random.Random(7)
    for _ in range(40):
        a = random_laurent(rng, 5)
        assert a.to_s_ring().from_s_ring() == a


# -- rendering / parsing ---------------------------------------------------------

def test_render_parse_round_trip():
    rng = random.Random(8)
    for _ in range(50):
        a = random_laurent(rng, 5)
        assert parse_laurent(render_laurent_data(a.coeffs, a.minexp, "t"), 5) == a
