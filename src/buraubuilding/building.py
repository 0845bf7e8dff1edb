"""The Euclidean building Delta(p) for GL3(F_p(t)): lattice classes as
canonical forms over the valuation ring O, relative position and adjacency,
link enumeration via the flag geometry of F_p^3, the matrix action,
induced link permutations, and the link graph.

Lattice classes are represented by a Hermite-style canonical form: a lower
triangular matrix with diagonal pi^(a_i), min a_i = 0, and each entry below
the diagonal reduced to its pi-adic Laurent prefix modulo pi^(a_row).  Row
order is fixed (no row permutations), so diagonal exponents are positional;
``relative_position`` provides the sorted view, read from the least
valuations of the entries of N = M1^-1 M2, of adj(N) (its 2x2 minors) and of
det N.  Every reader here works on the Laurent terms (minexp, coeffs) of
the matrices (``laurent_valuation``, ``laurent_pi_digits``), and no
rational-function arithmetic runs.

``canonicalize`` eliminates on pi-adic digit lists truncated modulo
pi^(D+1), D = nu(det) of the basis scaled into O^3 (Cohen's HNF modulo D,
worked over F_p[[pi]]): the lattice contains pi^D * O^3, so the truncation
does not change the class.  The window shrinks as the pivots are found:
once row r has its pivot pi^a, the remaining columns span, in the remaining
rows, a lattice with nu(det) lowered by a, so those rows are kept modulo
pi^(D+1-a), and the last row needs only a_3 + 1 digits.  Each step updates
only the rows after its pivot row, whose pivot (pi^a) and cleared entries
(0) are known and not stored.
``canonicalize(M, D, B)`` gives the class of the column span of M B, and
``apply`` and ``link`` pass their two factors (g and v.canon, v.canon and a
lifted basis) with D = nu(det) known, so neither forms the product.  The
digits have one source, ``_window_digits``: it reads the window of
pi^-m (M B) straight from the digit rows of the two factors, which each
matrix builds once, the digit at pi^k being the coefficient of t^-k.  A
matrix holds Laurent terms only (``MatrixRF`` refuses a non-Laurent entry
when it is built), so none is met here.  Only the three entries below the
diagonal are built from digits: the diagonal is three monomials and the
rest is zero.  The canonical matrix keeps its terms, so the next product
does not read them again, and a vertex is keyed on p, its exponents and
its three entries below the diagonal, each boxed as a normalized rational
function (the one use of ``arith.RatFunc`` outside the tests).

The link of v is indexed by the subspaces of L/pi*L = F_p^3 in the basis
v.canon: index i < n = p^2+p+1 is the line through ``projective_points(p)[i]``,
index n + i the plane annihilated by the functional ``projective_points(p)[i]``.
A stabilizer g of v acts on the link through the residue matrix
u-bar in GL3(F_p) of v.canon^-1 * g * v.canon (scaled by a power of pi into
GL3(O)), so ``residue_link_permutation`` reads the permutation from u-bar
without enumerating the link: lines move by u-bar and plane annihilators by
adj(u-bar)^T, and each image vector is scaled by a per-p table of inverses
mod p and read as its base-p code, which is its link index.  A permutation
is the plain tuple of those indices, perm[i] the image of link vertex i;
lines go to lines, so perm[i] < n for i < n.  The module is pure Python; it
imports no numpy.  ``conjugated_link_permutation`` is the one read of u-bar,
from the Laurent terms of v.canon^-1 * g * v.canon (the digit at pi^k being
the coefficient of t^-k): ``induced_link_permutation`` forms that conjugate
from g, ``stab_words`` forms it with one inverse of v.canon per call, and
``stab_exact`` has it already as alpha.

The link graph of one enumerated link is ``link_edges``, each unordered
pair tested once for adjacency, and ``link_dot`` renders it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .arith import (
    INF,
    RatFunc,
    inv_mod,
    laurent_from_pi_digits,
    laurent_pi_digits,
    laurent_valuation,
    render_laurent_data,
)
from .rep import MatrixRF


class VertexClass:
    """A vertex of Delta(p): a lattice class with its canonical basis matrix.

    Equality is equality of canonical forms.  The diagonal of canon is
    pi^exps and the entries above it are zero, so the key holds p, exps
    and the (num, den) int tuples of the three entries below the diagonal,
    built in normal form from canon's terms; its hash is taken once: it
    holds no string, so it is the same in every process.
    """

    __slots__ = ("p", "canon", "exps", "_key", "_hash")

    def __init__(self, p, canon: MatrixRF, exps):
        self.p = p
        self.canon = canon
        self.exps = tuple(exps)
        below = [RatFunc.from_terms(p, c, e) for e, c in _below(canon._terms)]
        self._key = (p, self.exps) + tuple((x.num, x.den) for x in below)
        self._hash = hash(self._key)

    def __eq__(self, other):
        return isinstance(other, VertexClass) and self._hash == other._hash \
            and self._key == other._key

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (self.exps, self.to_text())

    def to_text(self):
        """Serialize as `(a1,a2,a3 | e21;e31;e32)` with Laurent entries."""
        below = _below(self.canon._terms)
        return "(%s | %s)" % (",".join(str(a) for a in self.exps),
                              ";".join(render_laurent_data(c, e, "t")
                                       for e, c in below))

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return "VertexClass(p=%d, %s)" % (self.p, self.to_text())


def _below(t):
    """Entries (1, 0), (2, 0) and (2, 1) of the rows t."""
    return t[1][0], t[2][0], t[2][1]


def identity_vertex(p) -> VertexClass:
    return canonicalize(MatrixRF.identity(p))


def canonicalize(M: MatrixRF, det_valuation=None, B=None) -> VertexClass:
    """Canonical lattice-class representative of the column span of M B,
    B the identity when omitted.

    Column operations over GL3(O) and global scaling do not change the
    output; the result is lower triangular with diagonal pi^(a_i) and
    min a_i = 0.

    The elimination runs on pi-adic digits of pi^-m * M B modulo pi^n,
    n = D+1, D = nu(det) - 3m, for m at most the least entry valuation, so
    that the entries lie in O: the lattice L contains pi^D * O^3, so a column
    changed by an element of pi^(D+1) * O^3 keeps nu(det) = D and still
    generates L, and the canonical form of L is unique.  The window then
    shrinks.  When row r has its pivot pi^a, with the unit scaled away and
    the rest of row r cleared, the columns after r span, in the rows after
    r, a lattice with nu(det) = n - 1 - a, which contains
    pi^(n-1-a) * O^k; so from then on those rows are kept modulo pi^(n-a),
    by the same argument.  The windows go n, n - a_1, a_3 + 1 (pivots
    before the homothety), and each multiplier, the digits of row r from
    pi^a on, fills the next window exactly.  The known rows are not
    updated: the pivot row is pi^a and the cleared entries are 0.  The
    final reduction modulo the pivots needs one product, for entry (2, 0);
    then each entry below the diagonal is its first a_row digits.

    The digits have one source, ``_window_digits``, which reads them
    straight from the digit rows of M and B, so the product M B is never
    formed: ``apply`` passes g and v.canon, ``link`` v.canon and a lifted
    basis.  There m is the least val(M_il) + val(B_lj) over the nonzero
    pairs of factor entries, a lower bound on the product's least
    valuation.  When leading terms cancel, m is below the true valuation
    m', the window grows by 3(m' - m) and every pivot by m' - m, and the
    homothety takes the class to the same canonical form.  Only the three
    entries below the diagonal are built from digits; the diagonal entries
    are monomials and the others zero.  The terms are cached on ``canon``
    for the next product.

    B of another p or var raises ValueError, as ``M * B`` does.
    ``det_valuation`` is nu(det M B) when the caller knows it (``apply`` and
    ``link`` do); without it nu(det M) + nu(det B) is computed.  An infinite
    valuation, that is a singular M or B, raises ValueError.
    """
    p = M.p
    if B is None:
        B = MatrixRF.identity(p, M.var)
    elif B.p != p or B.var != M.var:
        raise ValueError("matrix modulus/variable mismatch")
    if det_valuation is None:
        det_valuation = M.det_valuation() + B.det_valuation()
    if det_valuation == INF:
        raise ValueError("singular matrix does not define a lattice")
    n, cols = _window_digits(M, B, p, det_valuation)
    exps = [0, 0, 0]

    # rows above r are zero in every column >= r, and after step r the pivot
    # is pi^a and the rest of row r is zero: neither is stored, so each step
    # updates the rows after r only
    for r in range(3):
        # pivot: minimum-valuation entry of row r among columns >= r
        best, bestval = None, n
        for j in range(r, 3):
            v = _order(cols[j][r])
            if v < bestval:
                best, bestval = j, v
        cols[r], cols[best] = cols[best], cols[r]
        a = exps[r] = bestval
        piv = cols[r]
        # the columns after r span, in the rows after r, a lattice with
        # nu(det) = n - 1 - a, which contains pi^(n-1-a) * O^k: rows after r
        # are kept modulo pi^(n-a) from here on
        unit, n = piv[r][a:], n - a
        rows = range(r + 1, 3)
        # scaling by any unit congruent to the inverse mod pi^n leaves the
        # pivot pi^a modulo the window of row r
        unit_inv = _series_inverse(unit, p) \
            if unit[0] != 1 or any(unit[1:]) else None
        for i in rows:
            piv[i] = piv[i][:n]
            if unit_inv and any(piv[i]):
                piv[i] = _muladd([0] * n, unit_inv, piv[i], p)
        live = [i for i in rows if any(piv[i])]
        for j in rows:
            col = cols[j]
            lam = [-d for d in col[r][a:]]
            for i in rows:
                col[i] = col[i][:n]
                if i in live and any(lam):
                    col[i] = _muladd(col[i], lam, piv[i], p)

    # reduce below-diagonal entries modulo the row pivot pi^(a_i): with
    # q = (1, 0) / pi^a1, (2, 0) becomes (2, 0) - q * (2, 1), and then each
    # entry is its first a_i digits
    a0, a1, a2 = exps
    c0, c1 = cols[0], cols[1]
    q = [-d for d in c0[1][a1:a1 + a2]]
    below = (c0[1][:a1], _muladd(c0[2][:a2], q, c1[2], p), c1[2][:a2])

    # homothety: make the minimum diagonal exponent 0; only the entries
    # below the diagonal are built from digits
    mn = min(exps)
    e10, e20, e21 = (laurent_from_pi_digits(d, -mn) for d in below)
    zero = (0, ())
    canon = MatrixRF.from_terms(p, (
        ((mn - a0, (1,)), zero, zero),
        (e10, (mn - a1, (1,)), zero),
        (e20, e21, (mn - a2, (1,)))))
    return VertexClass(p, canon, [a - mn for a in exps])


def _window_digits(A, B, p, D):
    """(n, cols): cols[j][i] is the list of the digits of pi^-m * (A B)[i, j]
    at pi^0 .. pi^(n-1), n = D - 3m + 1, for matrices A and B whose product
    has nu(det) = D, read from their digit rows (``MatrixRF._digit_rows``),
    which each matrix builds once.

    m is the least val(A[i][l]) + val(B[l][j]) over the nonzero pairs, a
    lower bound on the least valuation of the product's entries, so every
    entry of pi^-m * (A B) lies in O.  Each term product is added straight
    into the window, reduced mod p as it goes: the coefficient of t^k is the
    digit at pi^-k, and the pairs of coefficients whose digit falls at or
    past pi^n are skipped.  A pair of monomials adds one digit.
    """
    # each nonzero entry as (its column, nu, its digits from pi^nu on)
    a = A._digit_rows()[0]
    b, least = B._digit_rows()
    m = min([va + least[q] for row in a for q, va, _ in row if b[q]])
    n = D - 3 * m + 1
    cols = [[None] * 3, [None] * 3, [None] * 3]
    for i, row in enumerate(a):
        acc = [0] * n, [0] * n, [0] * n
        for q, va, f in row:
            for j, vb, g in b[q]:
                o = va + vb - m
                if o >= n:
                    continue
                t = acc[j]
                if len(g) == 1:
                    if len(f) == 1:
                        t[o] = (t[o] + f[0] * g[0]) % p
                        continue
                    x, y = g, f
                else:
                    x, y = f, g
                for k, c in enumerate(x[:n - o], o):
                    if c:
                        for h, d in enumerate(y[:n - k], k):
                            t[h] = (t[h] + c * d) % p
        cols[0][i], cols[1][i], cols[2][i] = acc
    return n, cols


def _order(digits):
    """Index of the first nonzero digit, len(digits) if there is none."""
    for k, d in enumerate(digits):
        if d:
            return k
    return len(digits)


def _series_inverse(u, p):
    """Digits of the inverse of the unit with digits u, modulo pi^len(u)."""
    c = inv_mod(u[0], p)
    w = [c]
    for k in range(1, len(u)):
        w.append(-sum(u[i] * w[k - i] for i in range(1, k + 1)) * c % p)
    return w


def _muladd(e, lam, f, p):
    """e + lam * f on digit lists, modulo pi^len(e)."""
    out = list(e)
    n = len(out)
    for i, x in enumerate(lam):
        if x:
            for k in range(i, n):
                out[k] += x * f[k - i]
    return [c % p for c in out]


def apply(g: MatrixRF, v: VertexClass) -> VertexClass:
    """The simplicial action: the class of g * (basis of v).

    v.canon is lower triangular with diagonal pi^exps, so
    nu(det(g * v.canon)) = nu(det g) + sum(exps), with nu(det g) computed
    once per matrix object; ``canonicalize`` takes g and v.canon as two
    factors and forms no product.
    """
    return canonicalize(g, g.det_valuation() + sum(v.exps), v.canon)


# ---------------------------------------------------------------------------
# relative position and adjacency

def relative_position(v1: VertexClass, v2: VertexClass):
    """Sorted pi-elementary-divisor exponents of M1^-1 M2, normalized d1 = 0.

    (0,0,0) iff equal classes; adjacency iff the result is (0,0,1) or (0,1,1).
    d1, d1 + d2 and d1 + d2 + d3 are the least valuations of the entries, of
    the 2x2 minors and of det N; the 2x2 minors are, up to sign, the
    entries of adj(N).
    """
    N = v1.canon.inverse() * v2.canon
    d1 = min(laurent_valuation(x) for row in N._terms for x in row)
    d12 = min(laurent_valuation(x) for row in N.adjugate()._terms for x in row)
    d123 = N.det_valuation()
    e = sorted((d1, d12 - d1, d123 - d12))
    # orient so that one step down an index-p sublattice reads (0,1,1)
    e = sorted(-x for x in e)
    return tuple(x - e[0] for x in e)


def is_adjacent(v1: VertexClass, v2: VertexClass) -> bool:
    return relative_position(v1, v2) in ((0, 0, 1), (0, 1, 1))


# ---------------------------------------------------------------------------
# the flag geometry of F_p^3 and link enumeration

@lru_cache(maxsize=None)
def projective_points(p):
    """Normalized homogeneous representatives of the lines of F_p^3."""
    pts = []
    for b in range(p):
        for c in range(p):
            pts.append((1, b, c))
    for c in range(p):
        pts.append((0, 1, c))
    pts.append((0, 0, 1))
    return tuple(pts)


def plane_basis(phi, p):
    """Two spanning vectors of the kernel of the functional phi."""
    if phi[0] == 1:
        return ((-phi[1]) % p, 1, 0), ((-phi[2]) % p, 0, 1)
    if phi[1] == 1:
        return (1, 0, 0), (0, (-phi[2]) % p, 1)
    return (1, 0, 0), (0, 1, 0)


class LinkVertex(NamedTuple):
    dim: int                 # 1 = line, 2 = plane
    subspace: tuple          # normalized point (dim 1) or annihilator (dim 2)
    vclass: VertexClass


def _pivot(vec):
    for i, c in enumerate(vec):
        if c:
            return i
    raise ValueError("zero vector")


def _lift_basis(vecs):
    """The basis, as Laurent terms, of the sublattice generated by the given
    residue vectors and pi*L: the vectors, then pi*e_j for each j that is
    not the pivot of one of them, as columns."""
    pivots = {_pivot(v) for v in vecs}
    cols = [tuple((0, (c,)) if c else (0, ()) for c in v) for v in vecs]
    for j in range(3):
        if j not in pivots:
            # pi = t^-1
            cols.append(tuple((-1, (1,)) if i == j else (0, ()) for i in range(3)))
    return tuple(zip(*cols[:3]))


def link(v: VertexClass):
    """All 2(p^2+p+1) vertices adjacent to v, ordered reproducibly.

    One per dimension-1 and dimension-2 subspace of L/pi*L = F_p^3 in the
    basis given by the canonical form of v: the class of v.canon * G for
    each lifted basis G of ``_link_bases``.
    """
    D = sum(v.exps)
    return [LinkVertex(dim, sub, canonicalize(v.canon, D + d, G))
            for dim, sub, G, d in _link_bases(v.p)]


@lru_cache(maxsize=None)
def _link_bases(p):
    """(dim, subspace, G, nu(det G)) for each link vertex in link order, built
    once per p, so each G builds its digit rows once.  The lifted basis G of
    a line has columns pt, pi*e_j, pi*e_k, and that of a plane two residue
    vectors with distinct pivots and one pi*e_j, so nu(det G) is 2 for a
    line and 1 for a plane."""
    pts = projective_points(p)
    lines = [(1, pt, _lift_basis([pt]), 2) for pt in pts]
    planes = [(2, phi, _lift_basis(plane_basis(phi, p)), 1) for phi in pts]
    return tuple((dim, sub, MatrixRF.from_terms(p, terms), d)
                 for dim, sub, terms, d in lines + planes)


@lru_cache(maxsize=None)
def _inverses(p):
    """inv[c] = c^-1 mod p for c = 1..p-1 (inv[0] unused)."""
    return (0,) + tuple(inv_mod(c, p) for c in range(1, p))


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _line_images(m, p):
    """The link index of the line through m x, for x in ``projective_points(p)``.

    The index of the line through (1, b, c) is its code b*p + c, that of
    (0, 1, c) is p^2 + c and that of (0, 0, 1) is p^2 + p: a vector is
    scaled by the inverse of its first nonzero coordinate and read as a
    code.  m (rows of ints) must be invertible mod p.
    """
    inv = _inverses(p)
    (a, b, c), (d, e, f), (g, h, i) = m
    out = []
    for x0, x1, x2 in projective_points(p):
        y0 = (a * x0 + b * x1 + c * x2) % p
        y1 = (d * x0 + e * x1 + f * x2) % p
        y2 = (g * x0 + h * x1 + i * x2) % p
        if y0:
            k = inv[y0]
            out.append(y1 * k % p * p + y2 * k % p)
        elif y1:
            out.append(p * p + y2 * inv[y1] % p)
        elif y2:
            out.append(p * p + p)
        else:
            raise ValueError("residue matrix is singular mod p")
    return out


def residue_link_permutation(u, p):
    """The permutation of link(v) induced by the residue matrix u in GL3(F_p),
    as the tuple of the link index of the image of each link vertex.

    u (rows of ints) is u-bar of pi^-k v.canon^-1 g v.canon for a stabilizer
    g of v, or any nonzero scalar multiple of it: the action is projective.
    It moves the line through ``projective_points(p)[i]`` (link index i) to
    the line through u times it, and the plane ker phi_i (link index n + i,
    phi_i = ``projective_points(p)[i]``) to ker(phi_i u^-1).  phi u^-1 is a
    multiple of phi adj(u), so the annihilators move by adj(u)^T, whose
    rows are the cross products of the rows of u.  Lines go to lines.
    """
    r0, r1, r2 = u
    cof = (_cross(r1, r2), _cross(r2, r0), _cross(r0, r1))
    n = p * p + p + 1
    return tuple(_line_images(u, p) + [n + j for j in _line_images(cof, p)])


def conjugated_link_permutation(h: MatrixRF):
    """The permutation of link(v) induced by a stabilizer g of v, given as
    h = v.canon^-1 * g * v.canon.

    h lies in pi^k GL3(O) with k the least entry valuation, that is
    nu(det h) = 3k (checked); the permutation is read from the pi^0 digits
    of pi^-k h, the residue matrix u-bar in GL3(F_p), by
    ``residue_link_permutation``.  Both are read from the Laurent terms of
    h: the digit of an entry at pi^k is its coefficient of t^-k.
    """
    t = h._terms
    k = min(laurent_valuation(x) for row in t for x in row)
    if h.det_valuation() != 3 * k:
        raise AssertionError("conjugated stabilizer element is not in "
                             "pi^k GL3(O)")
    u = [[laurent_pi_digits(x, k, 1)[0] for x in row] for row in t]
    return residue_link_permutation(u, h.p)


def induced_link_permutation(g: MatrixRF, v: VertexClass):
    """The permutation g induces on link(v); g must stabilize v."""
    if apply(g, v) != v:
        raise ValueError("matrix does not stabilize the vertex")
    return conjugated_link_permutation(v.canon.inverse() * g * v.canon)


# ---------------------------------------------------------------------------
# the link graph and its DOT export

def link_edges(lk):
    """The pairs i < j of link vertices lk[i], lk[j] adjacent to each other:
    adjacency is symmetric, so each unordered pair is tested once."""
    return [(i, j) for i in range(len(lk)) for j in range(i + 1, len(lk))
            if is_adjacent(lk[i].vclass, lk[j].vclass)]


def link_dot(lk, edges) -> str:
    """Graphviz DOT of the link graph: the link lk and its ``link_edges``."""
    lines = ["graph link {"]
    for i, lv in enumerate(lk):
        shape = "circle" if lv.dim == 1 else "box"
        lines.append('  n%d [shape=%s, label="%d"];' % (i, shape, i))
    lines += ["  n%d -- n%d;" % e for e in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"
