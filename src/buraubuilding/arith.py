"""Exact arithmetic over F_p: Laurent polynomials in t and s (s^2 = t), the
degree valuation, the bar involution t -> 1/t, and pi-adic expansion at the
uniformizer pi = 1/t.  ``LaurentPoly`` is the one Laurent type: over F_p, or
over Z with ``p=None`` (the integral Burau matrices).

A Laurent polynomial is given by its terms (minexp, coeffs): coeffs a tuple
of ints (in [0, p) mod p) with nonzero ends, empty for zero.  All values are
immutable; every operation is a pure function, so everything here is safe
to share between workers.

Every matrix entry in the Burau setting is a Laurent polynomial.  A matrix
holds its entries' Laurent terms and computes on those with
``laurent_dot``, ``laurent_valuation`` and ``laurent_pi_digits``; an entry
read is a ``LaurentPoly`` view of them, for every p.  Nothing here divides
polynomials: ``RatFunc`` is only the box of the entries of a vertex key
(``building.VertexClass``), a Laurent polynomial written num / den in the
normal form of F_p(t).  The field F_p(t) itself, with its gcd, is the test
oracles' reference (``tests/pi_adic.py``).
"""

from __future__ import annotations

import math
from functools import lru_cache

INF = math.inf


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least n that is a strong probable prime to every base in _SMALL_PRIMES
# and is composite (Sorenson and Webster, 2017)
_SPRP_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Trial division by the primes up to 41, then, below ``_SPRP_BOUND``,
    strong probable-prime tests to those primes as bases, which no composite
    below that bound passes.  Past the bound no test here certifies a prime:
    ValueError, unless trial division has found a factor."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:
        return True
    if n >= _SPRP_BOUND:
        raise ValueError("primality of %d is not certified at or above %d"
                         % (n, _SPRP_BOUND))
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError("modulus %r is not prime" % (p,))
    return p


@lru_cache(maxsize=None)
def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError("inverse of 0 mod %d" % p)
    return pow(a, p - 2, p)


# ---------------------------------------------------------------------------
# Laurent terms (minexp, coeffs): the kernels of the matrix code

def laurent_dot(xs, ys, p):
    """The dot product sum x_k * y_k of two vectors of Laurent polynomials,
    each given as (minexp, coeffs) with nonzero end coefficients (in [0, p)
    mod p), in the same form: the products of nonzero pairs are added into
    one integer list, reduced mod p once (not at all over Z, p None) and
    trimmed at both ends; (0, ()) for zero.

    A lone nonzero pair with a monomial c*t^k on one side is the other
    side's coefficients times c, shifted by k (unchanged for c = 1), reduced
    mod p: no end coefficient vanishes, since p is prime and Z has no zero
    divisors, so nothing is trimmed."""
    products = [(x[0] + y[0], x[1], y[1]) for x, y in zip(xs, ys) if x[1] and y[1]]
    if not products:
        return 0, ()
    if len(products) == 1:
        e, f, g = products[0]
        if len(f) > len(g):
            f, g = g, f
        if len(f) == 1:
            c = f[0]
            if c == 1:
                return e, g
            if p is None:
                return e, tuple([c * a for a in g])
            return e, tuple([c * a % p for a in g])
    lo = min([t[0] for t in products])
    acc = [0] * (max([e + len(f) + len(g) for e, f, g in products]) - 1 - lo)
    for e, f, g in products:
        if len(f) > len(g):
            f, g = g, f
        for i, x in enumerate(f, e - lo):
            if x:
                for j, y in enumerate(g, i):
                    acc[j] += x * y
    if p is not None:
        acc = [c % p for c in acc]
    return laurent_trim(acc, lo)


def laurent_trim(coeffs, minexp):
    """Laurent terms (minexp, coeffs) of sum coeffs[s] * t^(minexp + s),
    trimmed at both ends; (0, ()) for zero."""
    hi = len(coeffs)
    while hi and not coeffs[hi - 1]:
        hi -= 1
    if not hi:
        return 0, ()
    lo = 0
    while not coeffs[lo]:
        lo += 1
    return minexp + lo, tuple(coeffs[lo:hi])


# ---------------------------------------------------------------------------

class LaurentPoly:
    """Finite Laurent polynomial in the variable t or s, with coefficients in
    F_p, or in Z when ``p`` is None.

    Canonical trimming: ``coeffs`` is empty iff the value is zero; the first
    and last coefficients are nonzero otherwise.  ``minexp`` is meaningless
    (kept 0) for the zero polynomial.  The constructor is the only place
    that reduces mod p.
    """

    __slots__ = ("p", "var", "minexp", "coeffs")

    def __init__(self, p, coeffs, minexp=0, var="t"):
        self.p = p
        self.var = var
        coeffs = list(coeffs) if p is None else [c % p for c in coeffs]
        lead = 0
        while lead < len(coeffs) and coeffs[lead] == 0:
            lead += 1
        minexp += lead
        coeffs = coeffs[lead:]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            minexp = 0
        self.minexp = minexp
        self.coeffs = tuple(coeffs)

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, p, var="t"):
        return cls(p, (), 0, var)

    @classmethod
    def one(cls, p, var="t"):
        return cls(p, (1,), 0, var)

    @classmethod
    def const(cls, c, p, var="t"):
        return cls(p, (c,), 0, var)

    @classmethod
    def term(cls, c, k, p, var="t"):
        return cls(p, (c,), k, var)

    # -- basic structure ----------------------------------------------------
    def is_zero(self):
        return not self.coeffs

    @property
    def maxexp(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return self.minexp + len(self.coeffs) - 1

    def coeff(self, k):
        i = k - self.minexp
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def _check(self, other):
        if self.p != other.p:
            raise ValueError("modulus mismatch: %s vs %s" % (self.p, other.p))
        if self.var != other.var:
            raise ValueError("variable mismatch: %s vs %s" % (self.var, other.var))

    # -- ring operations ----------------------------------------------------
    def __add__(self, other):
        self._check(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo = min(self.minexp, other.minexp)
        hi = max(self.maxexp, other.maxexp)
        return LaurentPoly(self.p,
                           [self.coeff(k) + other.coeff(k) for k in range(lo, hi + 1)],
                           lo, self.var)

    def __neg__(self):
        return LaurentPoly(self.p, [-c for c in self.coeffs], self.minexp, self.var)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        # the unreduced product; the constructor reduces it mod p
        e, prod = laurent_dot((self.laurent_terms(),), (other.laurent_terms(),),
                              None)
        return LaurentPoly(self.p, prod, e, self.var)

    def inverse(self):
        """Inverse of a unit c*t^k (c = +-1 over Z); ZeroDivisionError otherwise."""
        if len(self.coeffs) != 1 or (self.p is None and self.coeffs[0] not in (1, -1)):
            raise ZeroDivisionError("%s is not a unit" % self)
        c = self.coeffs[0]
        return LaurentPoly(self.p, (c if self.p is None else inv_mod(c, self.p),),
                           -self.minexp, self.var)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial")
        out = LaurentPoly.one(self.p, self.var)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly) and self.p == other.p
                and self.var == other.var and self.minexp == other.minexp
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.p, self.var, self.minexp, self.coeffs))

    def laurent_terms(self):
        """(minexp, coeffs), the form the Laurent kernels compute on."""
        return self.minexp, self.coeffs

    # -- the operations named in the interface ------------------------------
    def involution(self):
        """The bar involution generated by t -> 1/t (s -> 1/s on the s-ring)."""
        if self.is_zero():
            return self
        return LaurentPoly(self.p, tuple(reversed(self.coeffs)),
                           -self.maxexp, self.var)

    def to_s_ring(self):
        """Substitute t = s^2: every exponent doubles."""
        if self.var != "t":
            raise ValueError("to_s_ring expects a polynomial in t")
        out = [0] * (2 * len(self.coeffs) - 1) if self.coeffs else []
        for i, c in enumerate(self.coeffs):
            out[2 * i] = c
        return LaurentPoly(self.p, out, 2 * self.minexp, "s")

    def from_s_ring(self):
        """Inverse of to_s_ring; requires all exponents even."""
        if self.var != "s":
            raise ValueError("from_s_ring expects a polynomial in s")
        if any(c and (self.minexp + i) % 2 for i, c in enumerate(self.coeffs)):
            raise ValueError("odd s-exponent present; not in the image of t = s^2")
        return LaurentPoly(self.p, self.coeffs[::2], self.minexp // 2, "t")

    def reduce_mod(self, p):
        """The image mod p of a polynomial over Z."""
        return LaurentPoly(p, self.coeffs, self.minexp, self.var)

    # -- text ----------------------------------------------------------------
    def __repr__(self):
        return "LaurentPoly(%s)" % self

    def __str__(self):
        return render_laurent_data(self.coeffs, self.minexp, self.var)


class RatFunc:
    """A Laurent polynomial of F_p(t) in the normal form num / den of the
    reference field: den monic, gcd(num, den) = 1, zero is 0/1.  It is the
    box of a vertex key's entries (``building.VertexClass``), built by
    ``from_terms`` with no division; it has no arithmetic, and equality is
    equality of (p, var, num, den)."""

    __slots__ = ("p", "var", "num", "den")

    def __init__(self, p, num, den, var="t"):
        self.p = p
        self.var = var
        self.num = tuple(num)
        self.den = tuple(den)

    @classmethod
    def from_terms(cls, p, coeffs, minexp, var="t"):
        """sum coeffs[i] * t^(minexp+i) in normal form, built directly from
        a tuple of coeffs in [0, p) with nonzero ends (empty for zero):
        num / t^k with t not dividing num when k > 0.  The arguments are
        those of the ``LaurentPoly`` constructor."""
        if minexp >= 0:
            return cls(p, (0,) * minexp + coeffs, (1,), var)
        return cls(p, coeffs, (0,) * -minexp + (1,), var)

    def __eq__(self, other):
        return (isinstance(other, RatFunc) and self.p == other.p
                and self.var == other.var and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.p, self.var, self.num, self.den))


# ---------------------------------------------------------------------------
# pi-adic expansion at pi = 1/t

def laurent_valuation(terms):
    """nu = -(largest exponent) of the Laurent polynomial with terms
    (minexp, coeffs); +inf for zero."""
    e, c = terms
    return 1 - e - len(c) if c else INF


def laurent_pi_digits(terms, lo, n):
    """The pi-adic digits at pi^lo .. pi^(lo+n-1), as a list of n ints, of
    the Laurent polynomial with terms (minexp, coeffs), read off the
    coefficients: the digit at pi^k is the coefficient of t^-k.

    Digits below pi^lo are dropped, so when nu(x) >= lo the result d
    satisfies nu(x - sum d[j]*pi^(lo+j)) >= lo + n.
    """
    e, c = terms
    # the digit of the highest term t^(e+len-1) sits at index lead
    lead = 1 - lo - e - len(c)
    rev = list(c[::-1])
    d = [0] * lead + rev if lead >= 0 else rev[-lead:]
    return d[:n] + [0] * (n - len(d))


def laurent_from_pi_digits(digits, lo):
    """(minexp, coeffs) of sum digits[j] * pi^(lo+j), for digits in [0, p),
    trimmed at both ends as in ``LaurentPoly``; (0, ()) for zero.  The
    digit at pi^k is the coefficient of t^-k, so the coefficients are the
    digits reversed."""
    return laurent_trim(digits[::-1], 1 - lo - len(digits))


# ---------------------------------------------------------------------------
# text rendering / parsing in the grammar  c*t^k  joined by +

def render_laurent_data(coeffs, minexp, var):
    terms = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        k = minexp + i
        if k == 0:
            terms.append(str(c))
        elif k == 1:
            terms.append(var if c == 1 else "%d*%s" % (c, var))
        else:
            terms.append("%s^%d" % (var, k) if c == 1 else "%d*%s^%d" % (c, var, k))
    return "+".join(terms) if terms else "0"


def parse_laurent(text, p, var="t"):
    """Parse the grammar `c*t^k` joined by `+` (e.g. `2+t+t^2`, `t^-1`)."""
    text = text.replace(" ", "")
    if text in ("", "0"):
        return LaurentPoly.zero(p, var)
    out = LaurentPoly.zero(p, var)
    for term in text.split("+"):
        if not term:
            raise ValueError("empty term in %r" % text)
        c, k = 1, 0
        if "*" in term:
            cs, term = term.split("*", 1)
            c = int(cs)
        if term.startswith(var):
            rest = term[len(var):]
            if rest.startswith("^"):
                k = int(rest[1:])
            elif rest == "":
                k = 1
            else:
                raise ValueError("bad term %r" % term)
        else:
            c = c * int(term)
            k = 0
        out = out + LaurentPoly.term(c, k, p, var)
    return out
