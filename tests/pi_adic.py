"""The reference field F_p(t) of the test oracles, and the pi-adic
expansion at pi = 1/t one digit at a time: the definitions that the
package's Laurent kernels (``arith.laurent_pi_digits``, the canonical forms)
are tested against.

``RatFunc`` here is F_p(t) with its field arithmetic, normalized through
the gcd of dense polynomial tuples over F_p (index = exponent, trimmed).
It extends ``arith.RatFunc``, the box of a vertex key's entries, which has
the same normal form and no arithmetic.  ``as_field`` hands matrix entries
to the oracles as elements of it."""

from buraubuilding import arith
from buraubuilding.arith import (INF, LaurentPoly, inv_mod, laurent_from_pi_digits,
                                 render_laurent_data)


# ---------------------------------------------------------------------------
# dense polynomial tuples over F_p  (index = exponent, trimmed)

def ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def pdeg(a):
    """Degree; -1 for the zero polynomial."""
    return len(a) - 1


def padd(a, b, p):
    n = max(len(a), len(b))
    return ptrim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                  for i in range(n)])


def pneg(a, p):
    return tuple((-x) % p for x in a)


def pmul(a, b, p):
    """Product over F_p, or the unreduced product over Z when p is None."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return ptrim(out if p is None else [c % p for c in out])


def pscale(a, c, p):
    c %= p
    if c == 0:
        return ()
    return ptrim([(x * c) % p for x in a])


def pdivmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    binv = inv_mod(b[-1], p)
    for i in range(len(a) - len(b), -1, -1):
        c = (a[i + len(b) - 1] * binv) % p
        if c:
            q[i] = c
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - c * y) % p
    return ptrim(q), ptrim(a)


def pgcd(a, b, p):
    while b:
        a, b = b, pdivmod(a, b, p)[1]
    return pmonic(a, p)


def pmonic(a, p):
    if not a:
        return ()
    return pscale(a, inv_mod(a[-1], p), p)


def pshift(a, k):
    """Multiply by x^k (k >= 0)."""
    if not a:
        return ()
    return (0,) * k + tuple(a)


def preverse(a):
    """x^deg(a) * a(1/x), trimmed."""
    return ptrim(reversed(a))


class RatFunc(arith.RatFunc):
    """Normalized quotient of polynomials over F_p.

    Invariants: den != 0, gcd(num, den) = 1, den monic; zero is 0/1.  The
    normal form is that of ``arith.RatFunc``, whose equality and hash it
    keeps, so a vertex key's box equals the field element.
    """

    __slots__ = ()

    def __init__(self, p, num, den, var="t", normalize=True):
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if normalize:
            num = ptrim(c % p for c in num)
            den = ptrim(c % p for c in den)
            if not den:
                raise ZeroDivisionError("rational function with zero denominator")
            if not num:
                den = (1,)
            else:
                g = pgcd(num, den, p)
                if pdeg(g) > 0:
                    num = pdivmod(num, g, p)[0]
                    den = pdivmod(den, g, p)[0]
                c = inv_mod(den[-1], p)
                num = pscale(num, c, p)
                den = pscale(den, c, p)
        self.p = p
        self.var = var
        self.num = tuple(num)
        self.den = tuple(den)

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, p, var="t"):
        return cls(p, (), (1,), var, normalize=False)

    @classmethod
    def one(cls, p, var="t"):
        return cls(p, (1,), (1,), var, normalize=False)

    @classmethod
    def const(cls, c, p, var="t"):
        c %= p
        return cls(p, (c,) if c else (), (1,), var, normalize=False)

    @classmethod
    def from_terms(cls, p, coeffs, minexp, var="t"):
        """The box ``arith.RatFunc.from_terms`` builds, taken as it is: it is
        in normal form (``test_vertex_key_box_is_the_reference_normal_form``),
        so no gcd runs."""
        box = arith.RatFunc.from_terms(p, coeffs, minexp, var)
        return cls(p, box.num, box.den, var, normalize=False)

    @classmethod
    def from_pi_digits(cls, digits, lo, p):
        """sum digits[j] * pi^(lo+j) for digits in [0, p); see
        ``laurent_pi_digits``."""
        minexp, coeffs = laurent_from_pi_digits(digits, lo)
        return cls.from_terms(p, coeffs, minexp)

    # -- structure ----------------------------------------------------------
    def is_zero(self):
        return not self.num

    def _check(self, other):
        if self.p != other.p:
            raise ValueError("modulus mismatch: %d vs %d" % (self.p, other.p))
        if self.var != other.var:
            raise ValueError("variable mismatch: %s vs %s" % (self.var, other.var))

    # -- field operations ---------------------------------------------------
    def __add__(self, other):
        self._check(other)
        p = self.p
        a, b = self.den, other.den
        num = padd(pmul(self.num, b, p), pmul(other.num, a, p), p)
        return RatFunc(p, num, pmul(a, b, p), self.var)

    def __neg__(self):
        return RatFunc(self.p, pneg(self.num, self.p), self.den, self.var,
                       normalize=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        p = self.p
        return RatFunc(p, pmul(self.num, other.num, p), pmul(self.den, other.den, p),
                       self.var)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        return RatFunc(self.p, self.den, self.num, self.var)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = RatFunc.one(self.p, self.var)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- valuation and friends ------------------------------------------------
    def valuation(self):
        """nu(num/den) = deg(den) - deg(num); +inf for zero."""
        if self.is_zero():
            return INF
        return pdeg(self.den) - pdeg(self.num)

    def involution(self):
        """Substitute t -> 1/t (or s -> 1/s), renormalized."""
        if self.is_zero():
            return self
        p = self.p
        dn, dd = pdeg(self.num), pdeg(self.den)
        num = preverse(self.num)
        den = preverse(self.den)
        if dd > dn:
            num = pshift(num, dd - dn)
        elif dn > dd:
            den = pshift(den, dn - dd)
        return RatFunc(p, num, den, self.var)

    def to_laurent(self):
        """Convert to a LaurentPoly; den must be a power of t."""
        terms = self.laurent_terms()
        if terms is None:
            raise ValueError("not a Laurent polynomial: denominator %s"
                             % (render_laurent_data(self.den, 0, self.var),))
        return LaurentPoly(self.p, terms[1], terms[0], self.var)

    def laurent_terms(self):
        """(minexp, coeffs) with nonzero ends, as in ``LaurentPoly``, when den
        is a power of t; None otherwise."""
        den = self.den
        k = len(den) - 1
        if den.count(0) != k:
            return None
        num = self.num
        z = 0
        while z < len(num) and not num[z]:
            z += 1
        return z - k, num[z:]

    def shift_pi(self, k):
        """Multiply by pi^k = t^(-k)."""
        if self.is_zero():
            return self
        if k >= 0:
            return RatFunc(self.p, self.num, pshift(self.den, k), self.var)
        return RatFunc(self.p, pshift(self.num, -k), self.den, self.var)

    def residue(self):
        """Image in the residue field O/pi*O = F_p; requires nu >= 0."""
        v = self.valuation()
        if v is INF:
            return 0
        if v < 0:
            raise ValueError("element not in the valuation ring (nu = %s)" % v)
        if v > 0:
            return 0
        return (self.num[-1] * inv_mod(self.den[-1], self.p)) % self.p

    def __repr__(self):
        return "RatFunc(%s)" % (self,)

    def __str__(self):
        num = render_laurent_data(self.num, 0, self.var)
        if self.den == (1,):
            return num
        return "(%s)/(%s)" % (num, render_laurent_data(self.den, 0, self.var))


def to_ratfunc(x):
    """A LaurentPoly mod p as an element of F_p(t)."""
    if x.p is None:
        raise ValueError("a RatFunc needs a modulus; reduce_mod(p) first")
    return RatFunc.from_terms(x.p, x.coeffs, x.minexp, x.var)


def pi_adic_expand(x: RatFunc, k: int):
    """First k digits of x at pi = 1/t; requires nu(x) >= 0.

    Returns a tuple d with x - sum d[j]*pi^j of valuation >= k.
    """
    v = x.valuation()
    if v is not INF and v < 0:
        raise ValueError("pi-adic expansion requires nu(x) >= 0, got %s" % v)
    digits = []
    for _ in range(k):
        d = x.residue()
        digits.append(d)
        x = (x - RatFunc.const(d, x.p, x.var)).shift_pi(-1)
    return tuple(digits)


def pi_digits_window(x: RatFunc, lo: int, n: int):
    """Digits of x at pi^lo .. pi^(lo+n-1), read one at a time from nu(x) on.

    Positions below nu(x) read 0; x = 0 reads all zeros.
    """
    v = x.valuation()
    if v is INF or v >= lo + n:
        return [0] * n
    digits = pi_adic_expand(x.shift_pi(-v), lo + n - v)
    return [digits[lo + j - v] if lo + j >= v else 0 for j in range(n)]


def as_field(x):
    """A matrix entry as the oracles compute with it: mod p, the LaurentPoly
    as a RatFunc in the reference field F_p(t); over Z (p None), itself."""
    return x if x.p is None else to_ratfunc(x)


def field_rows(m):
    """The entries of a matrix, three rows of three, each ``as_field``."""
    return tuple(tuple(as_field(x) for x in row) for row in m.rows)
