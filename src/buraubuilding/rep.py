"""The reduced Burau representation of B4 (mod p and integral), the Squier
form J, unitarity testing, word evaluation, homothety detection, element
orders, and the named constants: the matrices u (p = 3), beta2 (p = 5) and
M19, and the words u1, alpha_k, h and the kernel witness.  At p = 3, u1,
alpha_k and h lie in Γ = <x, y, u> modulo homothety, h = 2 t^16 W for
W = x^-1.y^-1.x^-1.u^-1.x^-1.u^-1.u^-1.u^-1.y^-1.x.y^-1.x^-1.u^-1.u^-1.x^-1,
so a word search over them (``groupcalc.stab_words``) counts elements of
Γ, while ``groupcalc.stab_exact`` counts the stabilizer in the whole
Laurent unitary group U (g* J g = J).

``MatrixRF`` is the one 3x3 matrix type, over F_p[t, 1/t], or over
Z[t, 1/t] when ``p`` is None.  Its only state is the Laurent terms
(minexp, coeffs) of its entries, and every operation works on those: the
product, the cofactors behind ``det``, ``adjugate`` and ``inverse``,
``scale``, ``star``, ``transpose`` and ``reduce_mod``.  Each cofactor and
scaled entry is one integer convolution (``laurent_dot``), reduced mod p
once and trimmed.  An entry read (``rows``, ``[i, j]``, ``det``) is a
``LaurentPoly`` view built from the terms on each read and not kept, so a
word evaluation builds no entry object.  A matrix built from entries reads
each one's terms at once and refuses an entry that is not a Laurent
polynomial.

A product is formed when it is written: ``A * B`` checks p and var and
forms all nine entries by one big-integer product (``_product_terms``), so
every error is raised at ``*`` and no reader forms anything later.
``building.canonicalize`` takes two factors instead of their product when
it needs only its class, and reads the digits straight from their packed
digit rows (``_packed_rows``), built once per matrix, so
``building.apply`` forms no product.

``word_evaluate`` does not call the product: it keeps the running product of
a word as nine integers, each entry's coefficients packed into W-bit slots
(Kronecker substitution), so a letter step is a few big-integer products
and shifts, one per nonzero letter entry and row, compiled once per letter
(``_packed_letter``).  A bound on every slot's |coefficient| keeps the
packing exact: before a step would let a slot overflow, the chain unpacks,
reduces mod p or reads the exact maximum over Z, and widens W only if it
must.  A lone product packs too, but each factor whole: ``MatrixRF.__mul__``
places the nine entries of each factor in one integer, so that one
multiply gives every entry of the product.  On the 876 products of one
``stab`` benchmark pass that takes 14-15 us a product, against 27-30 us
for nine ``laurent_dot`` convolutions (2 shared vCPUs, Python 3.11).  The
compiled steps serve the word chain only.

Convention: several reduced-Burau conventions circulate, differing by
transpose, inversion and t <-> 1/t.  The convention fixed here is the one
under which all three generators are J-unitary *and* u^2 commutes with
x.y.x at p = 3; see ``convention_survey`` for the full eight-variant check.
Unitarity alone pins the convention only up to inversion, since inverses
of J-unitary matrices are J-unitary.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from typing import NamedTuple, Optional

from .arith import (
    INF,
    LaurentPoly,
    check_prime,
    laurent_dot,
    laurent_trim,
    laurent_valuation,
    parse_laurent,
)


# ---------------------------------------------------------------------------
# 3x3 matrices

class MatrixRF:
    """3x3 matrix over F_p[t, 1/t], or over Z[t, 1/t] when ``p`` is None,
    held as the Laurent terms (minexp, coeffs) of its entries; every entry
    read is a ``LaurentPoly`` built from them."""

    __slots__ = ("p", "var", "_det_valuation", "_terms", "_inverse", "_packed")

    def __init__(self, p, rows, var="t"):
        """The matrix of the given entries, each read once as its Laurent
        terms (``laurent_terms()``): ValueError for an entry of another
        ring, or one that is not a Laurent polynomial (terms None)."""
        flat = []
        for row in rows:
            for e in row:
                if e.p != p or e.var != var:
                    raise ValueError("entry modulus/variable mismatch")
                flat.append(e.laurent_terms())
        if None in flat:
            raise ValueError("matrix entry is not a Laurent polynomial")
        self.p, self.var = p, var
        self._terms = tuple(flat[:3]), tuple(flat[3:6]), tuple(flat[6:])
        self._det_valuation = self._inverse = self._packed = None

    @classmethod
    @lru_cache(maxsize=None)
    def identity(cls, p, var="t"):
        """The identity; cached, so repeated calls share one matrix and
        build its packed digit rows (``_packed_rows``) once."""
        return cls.from_terms(p, _IDENTITY_TERMS, var)

    @classmethod
    def from_terms(cls, p, terms, var="t"):
        """The matrix whose entries have the given Laurent terms: a tuple of
        three rows of (minexp, coeffs), reduced mod p and trimmed at both
        ends as ``laurent_dot`` returns them."""
        out = cls.__new__(cls)
        out.p, out.var, out._terms = p, var, terms
        out._det_valuation = out._inverse = out._packed = None
        return out

    @property
    def rows(self):
        """The entries, three rows of three ``LaurentPoly``, built on each
        read."""
        p, var = self.p, self.var
        return tuple(tuple(LaurentPoly(p, c, e, var) for e, c in row)
                     for row in self._terms)

    @classmethod
    def from_strings(cls, rows, p, var="t"):
        return cls.from_terms(
            p, tuple(tuple(parse_laurent(e, p, var).laurent_terms() for e in row)
                     for row in rows), var)

    def __getitem__(self, ij):
        e, c = self._terms[ij[0]][ij[1]]
        return LaurentPoly(self.p, c, e, self.var)

    def __mul__(self, other):
        """The product, formed at once by ``_product_terms``: one
        big-integer product for the nine entries."""
        if self.p != other.p or self.var != other.var:
            raise ValueError("matrix modulus/variable mismatch")
        return MatrixRF.from_terms(
            self.p, _product_terms(self._terms, other._terms, self.p), self.var)

    def _packed_rows(self, pack):
        """(rows, least, top, longest) for ``building._window_digits``,
        built once: rows[i] lists row i's nonzero entries as (column, nu,
        pack(coeffs), length), the digits from pi^nu on; least[i], longest[i]
        are its least nu (+inf if none) and longest entry; top is max nu+len."""
        if self._packed is None:
            rows, least, longest, top = [], [], [], -INF
            for row in self._terms:
                r, lo, k = [], INF, 0
                for j, (e, c) in enumerate(row):
                    if c:
                        r.append((j, 1 - e - len(c), pack(c), len(c)))
                        lo, k = min(lo, 1 - e - len(c)), max(k, len(c))
                        top = max(top, 1 - e)
                rows.append(r)
                least.append(lo)
                longest.append(k)
            self._packed = rows, least, top, longest
        return self._packed

    def _cofactors(self, i):
        """The cofactors of row i as Laurent terms, each one ``laurent_dot``:
        with indices mod 3, cof(i, j) = a[i+1][j+1] a[i+2][j+2] -
        a[i+1][j+2] a[i+2][j+1], the subtracted term negated."""
        t, p = self._terms, self.p
        b, c = t[(i + 1) % 3], t[(i + 2) % 3]
        return tuple(laurent_dot((b[(j + 1) % 3], _neg(b[(j + 2) % 3], p)),
                                 (c[(j + 2) % 3], c[(j + 1) % 3]), p)
                     for j in range(3))

    def _det_terms(self):
        """det as Laurent terms: row 0 dotted with its cofactors."""
        return laurent_dot(self._terms[0], self._cofactors(0), self.p)

    def det(self):
        e, c = self._det_terms()
        return LaurentPoly(self.p, c, e, self.var)

    def det_valuation(self):
        """nu(det), computed once per matrix; +inf for a singular matrix."""
        if self._det_valuation is None:
            self._det_valuation = laurent_valuation(self._det_terms())
        return self._det_valuation

    def adjugate(self):
        """adj[j][i] = cof(i, j)."""
        return MatrixRF.from_terms(
            self.p, tuple(zip(*(self._cofactors(i) for i in range(3)))), self.var)

    def inverse(self):
        """adj / det, computed once per matrix; the determinant must be a
        unit c*t^k (c = +-1 over Z), else ZeroDivisionError, as
        ``LaurentPoly.inverse`` refuses it."""
        if self._inverse is None:
            e, c = self._det_terms()
            self._inverse = self.adjugate().scale(
                LaurentPoly(self.p, c, e, self.var).inverse())
        return self._inverse

    def scale(self, c):
        """c times every entry, for a Laurent scalar c of the same ring."""
        if c.p != self.p or c.var != self.var:
            raise ValueError("scalar modulus/variable mismatch")
        x, p = c.laurent_terms(), self.p
        if x is None:
            raise ValueError("scalar is not a Laurent polynomial")
        return MatrixRF.from_terms(
            p, tuple(tuple(laurent_dot((a,), (x,), p) for a in row)
                     for row in self._terms), self.var)

    def reduce_mod(self, p):
        """The image mod the prime p of a matrix over Z[t, 1/t]."""
        if self.p is not None:
            raise ValueError("reduce_mod needs a matrix over Z[t, 1/t]")
        check_prime(p)
        return MatrixRF.from_terms(
            p, tuple(tuple(laurent_trim([a % p for a in c], e) for e, c in row)
                     for row in self._terms), self.var)

    def transpose(self):
        return MatrixRF.from_terms(self.p, tuple(zip(*self._terms)),
                                   self.var)

    def star(self):
        """Bar involution entrywise, then transpose: (a_ij)* = bar(a_ji).
        bar sends t^k to t^-k, so it reverses each coefficient tuple."""
        t = self._terms
        return MatrixRF.from_terms(
            self.p, tuple(tuple((1 - e - len(c), c[::-1]) if c else (0, ())
                                for e, c in col) for col in zip(*t)), self.var)

    def __pow__(self, n):
        """Square and multiply; a square is formed only while bits of n are
        left to read."""
        if n < 0:
            return self.inverse() ** (-n)
        out = MatrixRF.identity(self.p, self.var)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        """Equal p, var and Laurent terms, as equal entries: none is built."""
        return (isinstance(other, MatrixRF) and self.p == other.p
                and self.var == other.var
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.p, self.var, self._terms))

    def __str__(self):
        return "[" + ", ".join("[" + ", ".join(str(e) for e in row) + "]"
                               for row in self.rows) + "]"

    def __repr__(self):
        return "MatrixRF(p=%s, %s)" % (self.p, self)


_IDENTITY_TERMS = tuple(tuple((0, (1,)) if i == j else (0, ()) for j in range(3))
                        for i in range(3))


def _neg(x, p):
    """-x on Laurent terms."""
    return x[0], tuple(-a if p is None else -a % p for a in x[1])


def _product_terms(ta, tb, p):
    """The Laurent terms of the product of the matrices with terms ta and
    tb, by one big-integer product (Kronecker substitution, *Modern
    Computer Algebra* 8.4).  Each factor is packed into one integer in
    z = 2^S, S bits a slot: A's entry (i, k) is segment 5i + k, B's entry
    (k, j) segment 17j + 2 - k, each segment G slots and each entry placed
    from its factor's least exponent, G = span(A) + span(B) - 1.  So
    A[i][k] B[k'][j] lies whole in segment 5i + 17j + 2 + k - k', entry
    (i, j) of the product is segment 5i + 17j + 2 (k = k'), and no
    segment, read or not, sums more than three entry products: no slot
    carries while 3 min(L_A, L_B) m_A m_B < 2^S (2^(S-1) over Z, whose
    slots are balanced), L the longest entry and m the largest
    |coefficient| of a factor (p - 1 mod p).  The slot width is the one
    branch: 8 bits mod p when they hold that bound, reduced by
    ``bytes.translate``; else w8-byte slots through ``_pack`` and
    ``_unpack``."""
    fa, fb = ta[0] + ta[1] + ta[2], tb[0] + tb[1] + tb[2]
    xa, xb = _extent(fa, p), _extent(fb, p)
    if xa is None or xb is None:
        return _ZERO_TERMS
    (ea, span_a, la, ma), (eb, span_b, lb, mb) = xa, xb
    G = span_a + span_b - 1
    e0, bound = ea + eb, 3 * min(la, lb) * ma * mb
    narrow = p is not None and bound < 256
    # A fills segments 0..12, B 0..36 and their product 0..48
    xs, ys = ((bytearray(13 * G), bytearray(37 * G)) if narrow
              else ([0] * (13 * G), [0] * (37 * G)))
    for s, (e, c) in zip((0, 1, 2, 5, 6, 7, 10, 11, 12), fa):
        if c:
            o = G * s + e - ea
            xs[o:o + len(c)] = c
    for s, (e, c) in zip((2, 19, 36, 1, 18, 35, 0, 17, 34), fb):
        if c:
            o = G * s + e - eb
            ys[o:o + len(c)] = c
    if narrow:
        out = (int.from_bytes(xs, "little") * int.from_bytes(ys, "little")
               ).to_bytes(49 * G, "little").translate(_residues(p))
        terms = []
        for s in (2, 19, 36, 7, 24, 41, 12, 29, 46):
            c = out[G * s:G * s + G].rstrip(b"\0")
            d = c.lstrip(b"\0")
            terms.append((e0 + len(c) - len(d), tuple(d)) if c else (0, ()))
    else:
        signed, w8 = p is None, 8
        while bound >> 8 * w8 - signed:
            w8 += 8
        out = _unpack(_pack(xs, w8, signed) * _pack(ys, w8, signed), w8, p)
        terms = [laurent_trim(out[G * s:G * s + G], e0)
                 for s in (2, 19, 36, 7, 24, 41, 12, 29, 46)]
    return tuple(terms[:3]), tuple(terms[3:6]), tuple(terms[6:])


def _extent(entries, p):
    """(least exponent, span, longest entry, largest |coefficient|) of the
    nonzero entries, p - 1 standing for the coefficient mod p; None when
    all are zero."""
    lo, hi, longest, big = INF, -INF, 0, 1 if p is None else p - 1
    for e, c in entries:
        if c:
            n = len(c)
            if e < lo:
                lo = e
            if e + n > hi:
                hi = e + n
            if n > longest:
                longest = n
            if p is None:
                big = max(big, max(map(abs, c)))
    return None if lo == INF else (lo, hi - lo, longest, big)


@lru_cache(maxsize=None)
def _residues(p):
    """The byte table k -> k mod p."""
    return bytes(k % p for k in range(256))


_ZERO_TERMS = ((0, ()),) * 3, ((0, ()),) * 3, ((0, ()),) * 3


# ---------------------------------------------------------------------------
# the Squier form

@lru_cache(maxsize=None)
def squier_form(p: int) -> MatrixRF:
    """The Hermitian form J over F_p[s, 1/s], s^2 = t."""
    check_prime(p)
    return MatrixRF.from_strings(
        [["-1*s+-1*s^-1", "s^-1", "0"],
         ["s", "-1*s+-1*s^-1", "s^-1"],
         ["0", "s", "-1*s+-1*s^-1"]], p, "s")


@lru_cache(maxsize=None)
def squier_form_t(p: int) -> MatrixRF:
    """H = J / s over F_p[t, 1/t], t = s^2: J has odd s-exponents only, so
    H has even ones, and s is a central unit, so a matrix A over t has
    A* J A = J iff A* H A = H."""
    check_prime(p)
    return MatrixRF.from_strings(
        [["-1+-1*t^-1", "t^-1", "0"],
         ["1", "-1+-1*t^-1", "t^-1"],
         ["0", "1", "-1+-1*t^-1"]], p)


def is_unitary(A: MatrixRF) -> bool:
    """True iff A* J A = J over F_p[s, 1/s], for A over t: read as
    A* H A = H with H = J / s (``squier_form_t``)."""
    H = squier_form_t(A.p)
    return A.star() * H * A == H


# ---------------------------------------------------------------------------
# Burau generators

_BURAU_BASE = (
    (("-1*t", "1", "0"), ("0", "1", "0"), ("0", "0", "1")),
    (("1", "0", "0"), ("t", "-1*t", "1"), ("0", "0", "1")),
    (("1", "0", "0"), ("0", "1", "0"), ("0", "t", "-1*t")),
)


@lru_cache(maxsize=None)
def burau_generator(i: int, p: Optional[int]) -> MatrixRF:
    """Reduced Burau matrix of sigma_i mod p, or over Z[t, 1/t] when p is
    None (fixed convention, see module doc)."""
    if p is not None:
        check_prime(p)
    if i not in (1, 2, 3):
        raise ValueError("generator index must be 1, 2 or 3")
    return MatrixRF.from_strings(_BURAU_BASE[i - 1], p)


def convention_survey(p: int):
    """J-unitarity of the eight reduced-Burau variants at the prime p.

    Variants are keyed by (transpose, invert, t -> 1/t) applied to the
    lower-triangular textbook form; the fixed convention is (1, 0, 0) in
    this keying, i.e. the transpose of the textbook form.
    """
    check_prime(p)
    base = [MatrixRF.from_strings(_BURAU_BASE[i], p).transpose() for i in range(3)]
    out = {}
    for trans in (0, 1):
        for inv in (0, 1):
            for flip in (0, 1):
                gens = base
                if trans:
                    gens = [g.transpose() for g in gens]
                if inv:
                    gens = [g.inverse() for g in gens]
                if flip:
                    # t -> 1/t entrywise is star without the transpose
                    gens = [g.star().transpose() for g in gens]
                out[(trans, inv, flip)] = all(is_unitary(g) for g in gens)
    return out


# ---------------------------------------------------------------------------
# homotheties and orders

class HomothetyWitness(NamedTuple):
    scalar: int          # c in F_p^* (or a nonzero integer in integral mode)
    exponent: int        # k with matrix = scalar * t^k * I


def is_homothety(A: MatrixRF) -> Optional[HomothetyWitness]:
    """The scalar c*t^k iff A = c*t^k*I, else None; read off the Laurent
    terms, so no entry is built."""
    r = A._terms
    for i in range(3):
        for j in range(3):
            if i != j and r[i][j][1]:
                return None
    d = r[0][0]
    if len(d[1]) != 1 or not (d == r[1][1] == r[2][2]):
        return None
    return HomothetyWitness(d[1][0], d[0])


def order_mod_homothety(A: MatrixRF, maxn: int = 100):
    """Least n <= maxn with A^n a homothety, else None (order exceeds maxn);
    A^n is formed only while n <= maxn, one product per step."""
    if maxn < 1:
        raise ValueError("maxn must be >= 1")
    B = A
    for n in range(1, maxn + 1):
        if is_homothety(B):
            return n
        if n < maxn:
            B = B * A
    return None


# ---------------------------------------------------------------------------
# words

class GroupWord(tuple):
    """A word: tuple of (letter, +-1) pairs.  Empty word = identity."""

    def inverse(self):
        return GroupWord((name, -sgn) for name, sgn in reversed(self))

    def __mul__(self, other):
        return GroupWord(tuple.__add__(self, other))

    def __str__(self):
        if not self:
            return "1"
        return ".".join(name if sgn > 0 else "%s^-1" % name for name, sgn in self)


def parse_word(text: str) -> GroupWord:
    """Parse words like ``u^-1.x^-1.y.x^2`` into letter sequences."""
    text = text.strip()
    if text in ("", "1"):
        return GroupWord()
    letters = []
    for tok in text.split("."):
        tok = tok.strip()
        if not tok:
            raise ValueError("empty letter in word %r" % text)
        if "^" in tok:
            name, es = tok.split("^", 1)
            e = int(es)
        else:
            name, e = tok, 1
        if not name.isidentifier():
            raise ValueError("bad letter %r" % tok)
        sgn = 1 if e > 0 else -1
        letters.extend([(name, sgn)] * abs(e))
    return GroupWord(letters)


# ---------------------------------------------------------------------------
# named constants

_U_P3 = [["2+t+t^2", "2+t^2", "2+2*t+2*t^2"],
         ["2+2*t^2", "2+t+2*t^2", "2+t+t^2"],
         ["2+t", "2+t", "2+2*t"]]

_BETA2_P5 = [["4", "1+2*t+2*t^2", "3+t"],
             ["1+t", "4+2*t", "2+2*t"],
             ["1", "4+3*t+4*t^2", "2+2*t"]]

# Representative of the unique u-stabilized vertex adjacent to the identity
# vertex (columns span the lattice t*(e1 + 2*e2), e2, e3).  The matrix
# [[1,0,t],[0,t,0],[0,0,t]] sometimes quoted for this vertex does not
# generate a u-stable lattice class under any of the eight standard
# convention variants; the unique u-fixed neighbor of [I] is this one.
_M19 = [["t", "0", "0"], ["2*t", "1", "0"], ["0", "0", "1"]]

# the kernel witness relator, exactly as displayed (x^-1 for the barred letters)
KERNEL_WORD_TEXT = (
    "x^-1.y^-1.x^-1.y.x.y^-1.x.y.x.y^-1.x.y^-1.x^-1.y.x.y."
    "x^-1.y^-1.x^-1.y^-1.x^-1.y.x.y^-1.x^-1.y^-1.x^-1.y.x.y^-1.x.y.x.y^-1.x.y^-1."
    "x^-1.y.x.y.x.y^-1.x^-1.y^-1.x.y.x.y^-1.x^-1.y^-1.x^-1.y.x.y^-1.x.y.x.y^-1.x.y^-1."
    "x^-1.y.x.y.x.y^-1.x^-1.y^-1.x.y.x.y^-1"
)

def named_word(name: str) -> GroupWord:
    """Words for the named elements: x, y, w, u1, h, alpha<k>, kernel_word."""
    if name == "x":
        return parse_word("s1.s2.s3")
    if name == "y":
        return parse_word("s1.s2.s3.s1")
    if name == "w":
        return parse_word("u^-1.x^-1.y^-1.x.y.x.y")
    if name == "u1":
        c = parse_word("x.y.x")
        return c.inverse() * parse_word("u") * c
    if name == "h":
        return parse_word("x^-1.y^-1.x^-1.u^-1.x^-1.u^-1.u^-1.u^-1.y^-1.x."
                          "y^-1.x^-1.u^-1.u^-1.x^-1")
    if name.startswith("alpha") and name[5:].isdecimal():
        k = int(name[5:])
        if k < 1:
            raise ValueError("alpha index must be >= 1")
        c = parse_word("x.y.x")
        ci = GroupWord()
        for _ in range(k - 1):
            ci = ci * c
        return ci.inverse() * parse_word("u") * named_word("u1") * ci
    if name == "kernel_word":
        return parse_word(KERNEL_WORD_TEXT)
    raise KeyError("no word constant named %r" % name)


_HOME_PRIME = {"u": 3, "h": 3, "beta2": 5}


def named_matrix(name: str, p: int) -> MatrixRF:
    """The constant matrices u, h = 2 t^16 W (p = 3), beta2 (p = 5), M19."""
    if name in _HOME_PRIME and p != _HOME_PRIME[name]:
        raise ValueError("%s is defined at p = %d, not p = %d"
                         % (name, _HOME_PRIME[name], p))
    if name == "u":
        return MatrixRF.from_strings(_U_P3, 3)
    if name == "h":
        return word_evaluate(named_word("h"), 3).scale(LaurentPoly.term(2, 16, 3))
    if name == "beta2":
        return MatrixRF.from_strings(_BETA2_P5, 5)
    if name == "M19":
        return MatrixRF.from_strings(_M19, check_prime(p))
    raise KeyError("no matrix constant named %r" % name)


# ---------------------------------------------------------------------------
# word evaluation

@lru_cache(maxsize=None)
def letter_matrix(name: str, p: Optional[int]) -> MatrixRF:
    """The matrix of one letter mod p, or over Z[t, 1/t] when p is None;
    only sigma_i, x and y are defined over Z."""
    if name in ("s1", "s2", "s3"):
        return burau_generator(int(name[1]), p)
    if p is None and name not in ("x", "y"):
        raise KeyError("letter %r is not defined integrally" % name)
    if name in ("u", "h", "beta2", "M19"):
        return named_matrix(name, p)
    if name in ("x", "y", "w", "u1") or \
            name.startswith("alpha") and name[5:].isdecimal():
        return word_evaluate(named_word(name), p)
    raise KeyError("letter %r has no matrix at p = %d" % (name, p))


def word_evaluate(w: GroupWord, p: Optional[int]) -> MatrixRF:
    """Left-to-right product of the letter matrices mod p, or over
    Z[t, 1/t] when p is None, on entries packed into integers.

    The running product is t^E times nine polynomials, each packed into one
    integer: coefficient s is the integer in bit slot [sW, sW + W), balanced
    (signed) over Z and non-negative mod p.  A letter step is then the
    letter's compiled ``step`` (see ``_packed_letter``): for each row, one
    term a_k * m << s per nonzero letter entry (k, j), with no `* 1`, no
    `<< 0` and no zero term (Kronecker substitution, *Modern Computer
    Algebra* 8.4), and no Python loop over coefficients; E grows by the
    letter's least exponent.  ``bound`` bounds every slot's
    |coefficient|, and a step multiplies it by at most the letter's growth
    factor g (see ``_packed_letter``).  While bound * g fits a slot (below
    2^(W-1) over Z, 2^W mod p), no slot carries into the next, so the packed
    product is exact.  When it would not fit, the entries are unpacked and
    reduced mod p (the bound becomes p - 1), or over Z the bound becomes
    their largest |coefficient|; the low slots that are zero in all nine
    entries move into E, and W grows by 64 bits until bound * g fits.  The
    result's terms are those of the left-to-right ``MatrixRF`` product.

    A letter step is not a ``MatrixRF`` product: ``__mul__`` packs both of
    its factors whole on every call, while the chain keeps its running
    product packed and unpacks it only when its bound says so.
    """
    if p is not None:
        check_prime(p)
    signed = p is None
    w8 = 8                      # bytes per slot: W = 8 * w8 bits
    while p and p >> (8 * w8):
        w8 += 8                 # every coefficient mod p fits a slot
    E, bound = 0, 1
    A = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for name, sgn in w:
        lo, step, g = _packed_letter(name, sgn, p, w8)
        if bound * g >= 1 << (8 * w8 - signed):
            z, slots = _unpack_matrix(A, w8, p)
            E += z
            bound = p - 1 if p else max([max(map(abs, s)) for s in slots if s])
            while bound * g >= 1 << (8 * w8 - signed):
                w8 += 8
            A = tuple(tuple(_pack(s, w8, signed) for s in slots[i:i + 3])
                      for i in (0, 3, 6))
            lo, step, g = _packed_letter(name, sgn, p, w8)
        A = step(A)
        E += lo
        bound *= g
    z, slots = _unpack_matrix(A, w8, p)
    terms = [laurent_trim(s, E + z) for s in slots]
    return MatrixRF.from_terms(p, (tuple(terms[:3]), tuple(terms[3:6]),
                                   tuple(terms[6:])))


@lru_cache(maxsize=None)
def _packed_letter(name: str, sgn: int, p: Optional[int], w8: int):
    """A letter (sgn 1) or its inverse (sgn -1) for ``word_evaluate``, at
    w8 bytes per slot: (lo, step, g).  lo is its least exponent.  step maps
    the three packed rows of the running product to those of its product
    with the letter: row entry j is the sum, over the letter's nonzero
    entries (k, j), of a_k * m << s, m the entry packed from its own least
    exponent and s = W times that exponent minus lo.  The step is compiled
    once (``_compile_step``) and holds only those terms, without a `* 1` or
    a `<< 0`.  g = max_j sum_k ||L_kj||_1, with ||.||_1 the sum of
    |coefficient|, taken as at least 2 so that a chain unpacks, and moves
    its shared zero low slots into E, at least once every W steps."""
    m = letter_matrix(name, p)
    t = (m if sgn > 0 else m.inverse())._terms
    lo = min([e for row in t for e, c in row if c])
    cols = [[(k, _pack(c, w8, p is None), 8 * w8 * (e - lo))
             for k, (e, c) in enumerate(col) if c] for col in zip(*t)]
    g = max([sum([sum(map(abs, t[k][j][1])) for k in range(3)])
             for j in range(3)])
    return lo, _compile_step(cols), max(g, 2)


def _compile_step(cols):
    """The function taking packed rows (a0, a1, a2) to the rows whose entry
    j is sum(a_k * m << s) over (k, m, s) in cols[j]: straight-line code,
    run with ``exec`` from a source that holds only the names a0..a2,
    integer shift counts and the names m<k><j> of the multipliers other
    than 1, which are bound in the function's own namespace."""
    consts, sums = {}, []
    for j, col in enumerate(cols):
        terms = []
        for k, m, s in col:
            x = "a%d" % k
            if m != 1:
                consts["m%d%d" % (k, j)] = m
                x += " * m%d%d" % (k, j)
            terms.append("(%s << %d)" % (x, s) if s else x)
        sums.append(" + ".join(terms))
    exec(_step_code(tuple(sums)), consts)
    return consts["step"]


@lru_cache(maxsize=None)
def _step_code(sums):
    """The compiled source of a step whose row entries are the three sums,
    one per letter step that differs from another only in the values of its
    multipliers (a letter mod 3 and mod 5, say), so each is compiled once.
    Its file name, in tracebacks and profiles, is the sums."""
    row = "(%s, %s, %s)" % sums
    src = ("def step(A):\n"
           "    r0, r1, r2 = A\n"
           "    a0, a1, a2 = r0\n"
           "    n0 = %s\n"
           "    a0, a1, a2 = r1\n"
           "    n1 = %s\n"
           "    a0, a1, a2 = r2\n"
           "    return n0, n1, %s\n" % (row, row, row))
    return compile(src, "<step %s>" % " | ".join(sums), "exec")


def _pack(coeffs, w8, signed):
    """The integer with the given coefficients in w8-byte slots, lowest
    first: balanced (each |c| < 2^(W-1)) when signed, else 0 <= c < 2^W."""
    if signed:
        half = 1 << (8 * w8 - 1)
        coeffs = [c + half for c in coeffs]
    if w8 == 8:
        a = array("Q", coeffs)
        if sys.byteorder == "big":
            a.byteswap()
        x = int.from_bytes(a.tobytes(), "little")
    else:
        x = int.from_bytes(b"".join([c.to_bytes(w8, "little") for c in coeffs]),
                           "little")
    return x - _half_slots(len(coeffs), w8) if signed else x


def _half_slots(n, w8):
    """2^(W-1) in each of n slots: adding it makes balanced slots
    non-negative without a carry."""
    return int.from_bytes((bytes(w8 - 1) + b"\x80") * n, "little")


def _unpack(x, w8, p):
    """The slot coefficients of a packed integer (see ``_pack``), balanced
    over Z (p None), reduced mod p otherwise; zero slots at the top too."""
    n = x.bit_length() // (8 * w8) + 1
    if p is None:
        x += _half_slots(n, w8)
    b = x.to_bytes(n * w8, "little")
    if w8 == 8:
        a = array("Q", b)
        if sys.byteorder == "big":
            a.byteswap()
        coeffs = a.tolist()
    else:
        coeffs = [int.from_bytes(b[i:i + w8], "little")
                  for i in range(0, n * w8, w8)]
    if p is None:
        half = 1 << (8 * w8 - 1)
        return [c - half for c in coeffs]
    return [c % p for c in coeffs]


def _unpack_matrix(A, w8, p):
    """(z, slots): the nine entries of a packed matrix, row by row, as
    coefficient lists without the z low slots that are zero in all nine."""
    slots = [_unpack(x, w8, p) for row in A for x in row]
    z = min([next(i for i, c in enumerate(s) if c) for s in slots if any(s)])
    return z, [s[z:] for s in slots]


def word_evaluate_integral(w: GroupWord) -> MatrixRF:
    """``word_evaluate`` over Z[t, 1/t]."""
    return word_evaluate(w, None)
