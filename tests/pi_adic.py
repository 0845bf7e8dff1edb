"""The pi-adic expansion at pi = 1/t one digit at a time: the definition
that ``arith.laurent_pi_digits`` and the canonical forms are tested
against; and ``as_field``, which hands matrix entries to the oracles as
RatFunc mod p."""

from buraubuilding.arith import INF, RatFunc


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
    return x if x.p is None else x.to_ratfunc()


def field_rows(m):
    """The entries of a matrix, three rows of three, each ``as_field``."""
    return tuple(tuple(as_field(x) for x in row) for row in m.rows)
