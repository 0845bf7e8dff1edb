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

``canonicalize`` eliminates on pi-adic digits truncated modulo pi^(D+1),
D = nu(det) of the basis scaled into O^3 (Cohen's HNF modulo D, worked over
F_p[[pi]]), packed one per slot of an int (Kronecker substitution), a row
of the window per int; it inverts no unit until the end.  It reads the
class of M B from the packed digit rows that each factor builds once, so
``apply`` and ``link`` form no product.  Only the three entries below the
diagonal are built from digits; a vertex is keyed on p, its exponents and
those three entries, each boxed as a normalized rational function (the one
use of ``arith.RatFunc`` outside the tests).

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
    laurent_dot,
    laurent_pi_digits,
    laurent_trim,
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
    """Canonical lattice-class representative of the column span of M B
    (B = I when omitted): lower triangular with diagonal pi^(a_i), min a_i
    = 0.  It eliminates on the packed digits of pi^-m * M B modulo pi^n,
    n = D+1, D = nu(det) - 3m (``_window_digits``), which the lattice's
    pi^D * O^3 makes exact.  Row 1's pivot pi^a_1 * unit clears row 1 by
    col_j <- unit * col_j - (col_j[1] / pi^a_1) * pivot, with no inverse,
    and rows 2 and 3 are then kept modulo pi^(n-a_1); row 2 gives a_2, and
    a_3 = n - 1 - a_1 - a_2.  Only then does ``_series_inverse`` make the
    pivots of rows 1 and 2 monic.  If leading terms cancel, m lies below
    the least valuation and the homothety absorbs it.  ``det_valuation``,
    when given, must be nu(det M B) exactly, since a_3 is read from it; a
    singular M or B, or B of another p or var, raises ValueError.
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
    ar = _slot_arith(p)
    S, piece, reduce, neg, coeffs, _ = ar
    n, G, rows = _window_digits(M, B, det_valuation, ar)
    exps, live, units, below = [], [0, 1, 2], [], []
    for r in (0, 1):
        row, wmask = rows[r], (1 << S * n) - 1
        # pivot: the least first nonzero slot of row r over the live columns
        best, a = None, n
        for j in live:
            x = row >> S * G * j & wmask
            if x:
                v = ((x & -x).bit_length() - 1) // S
                if v < a:
                    best, a = j, v
        live.remove(best)
        exps.append(a)
        n, wmask = n - a, wmask >> S * a
        units.append(row >> S * (G * best + a) & wmask)
        below += [rows[i] >> S * G * best & wmask for i in range(r + 1, 3)]
        if r:
            break
        keep = wmask << S * G * live[0] | wmask << S * G * live[1]
        lam, minus_unit = row >> S * a & keep, neg(units[0])
        for i, x in ((1, below[0]), (2, below[1])):
            # col_j <- unit * col_j - lam_j * pivot for the live j, in all of
            # row i at once; with no multiplier they only drop digits
            if not lam:
                rows[i] &= keep
            elif 2 * n <= piece:
                rows[i] = reduce((minus_unit * rows[i] + x * lam) & keep)
            else:
                rows[i] = _dot(keep, ((minus_unit, rows[i]), (x, lam)), ar)
    # a0 + a1 + a2 = nu(det) = the first window less 1
    exps.append(n - 1)

    # unit pivots in columns 0 and 1, on the digits read below; then with
    # q = (1, 0) / pi^a1, (2, 0) becomes (2, 0) - q * (2, 1)
    a0, a1, a2 = exps
    p10, p20, p21 = below
    m2, m12 = (1 << S * a2) - 1, (1 << S * (a1 + a2)) - 1
    w0 = _series_inverse(units[0] & m12, a1 + a2, p)
    w1 = _series_inverse(units[1] & m2, a2, p)
    e10 = p10 & m12 if w0 == 1 else _dot(m12, ((p10, w0),), ar)
    e21 = p21 & m2 if w1 == 1 else _dot(m2, ((p21, w1),), ar)
    e20 = _dot(m2, ((p20, w0), (neg(e10 >> S * a1), e21)), ar) if a2 else 0

    # homothety: each entry below the diagonal is its first a_row digits
    mn = min(exps)
    e10 = laurent_trim(coeffs(e10, a1), 1 + mn - a1)
    e20 = laurent_trim(coeffs(e20, a2), 1 + mn - a2)
    e21 = laurent_trim(coeffs(e21, a2), 1 + mn - a2)
    zero = (0, ())
    canon = MatrixRF.from_terms(p, (
        ((mn - a0, (1,)), zero, zero),
        (e10, (mn - a1, (1,)), zero),
        (e20, e21, (mn - a2, (1,)))))
    return VertexClass(p, canon, [a - mn for a in exps])


@lru_cache(maxsize=None)
def _slot_arith(p):
    """(S, piece, reduce, neg, coeffs, pack): digit k of a row is bits
    [kS, kS + S) of an int; a slot over a reduced one takes ``piece`` digit
    products.  The slot width is the one branch: 8 bits when p(p-1) < 256,
    reduced and negated by ``bytes.translate`` (wide slots there cost about
    20% more per call); else S >= 2N + 2 bits, N those of a reduced slot
    plus 255 products, so that in x * M, M = 2^(N+l) // p + 1 and
    2^(l-1) <= p < 2^l, each slot's bits from N + l on are its value // p
    (Granlund and Montgomery's invariant division).  pack(c) is the row of
    the coefficients c of t^(1-k) .. t^0; coeffs(x, k) gives them back."""
    if p * (p - 1) < 256:
        def remap(table):
            return lambda x: int.from_bytes(x.to_bytes(
                (x.bit_length() + 7) >> 3, "little").translate(table), "little")

        return (8, (256 - p) // (p - 1) ** 2,
                remap(bytes(k % p for k in range(256))),
                remap(bytes(-k % p for k in range(256))),
                lambda x, k: (x & (1 << 8 * k) - 1).to_bytes(k, "big"),
                lambda c: int.from_bytes(bytes(c), "big"))

    N, l = (p - 1 + 255 * (p - 1) ** 2).bit_length(), p.bit_length()
    S, M = -(-(2 * N + 2) // 8) * 8, (1 << N + l) // p + 1

    @lru_cache(maxsize=None)
    def slots(c):
        ones = ((1 << S * c) - 1) // ((1 << S) - 1)
        return p * ones, ((1 << S - N - l) - 1) * ones

    def reduce(x):
        return x - p * (x * M >> N + l & slots(-(-x.bit_length() // S))[1])

    return (S, 255, reduce,
            lambda x: reduce(slots(-(-x.bit_length() // S))[0] - x),
            lambda x, k: [x >> S * i & (1 << S) - 1 for i in range(k)][::-1],
            lambda c: int.from_bytes(b"".join([d.to_bytes(S // 8, "big")
                                               for d in c]), "big"))


def _dot(mask, pairs, ar):
    """The reduced row of sum(x * y) & mask over pairs of reduced rows, for
    any number of digit products per slot: each x is split into pieces of
    ``piece`` digits, and the sum is reduced after each piece's product,
    which fits over a reduced sum, so no product leaves its segment."""
    S, piece, reduce = ar[:3]
    acc = 0
    for x, y in pairs:
        for off in range(0, x.bit_length(), S * piece):
            acc = reduce((acc + ((x >> off & (1 << S * piece) - 1) * y << off))
                         & mask)
    return acc


@lru_cache(maxsize=1 << 14)
def _series_inverse(u, k, p):
    """The reduced row of u^-1 mod pi^k for a unit u, a reduced row of k
    digits, by Newton's iteration: if u w = 1 + pi^j d mod pi^(j+h), h <= j,
    then w - pi^j d w is the inverse mod pi^(j+h).  Memoized: 89-98% of the
    explore claims' calls repeat a unit, and 2^14 entries keep 92.0% hits
    on the 23,750 units of orbit_classify(3, radius=2) (92.7% unbounded)."""
    ar = _slot_arith(p)
    S, neg = ar[0], ar[3]
    w, j = inv_mod(u & ((1 << S) - 1), p) if k else 0, 1
    while j < k:
        h = min(j, k - j)
        d = _dot((1 << S * (j + h)) - 1, ((u, w),), ar) >> S * j
        w |= _dot((1 << S * h) - 1, ((neg(d), w),), ar) << S * j
        j += h
    return w


def _window_digits(A, B, D, ar):
    """(n, G, rows): entry j of rows[i] is the reduced digit row of
    pi^-m * (A B)[i, j] mod pi^n at slot G j, n = D - 3m + 1, m the least
    val(A[i][l]) + val(B[l][j]); G is at least 2n and the span of any entry
    product, so no product leaves its segment."""
    S, piece, reduce, _, _, pack = ar
    a, _, top, _ = A._packed_rows(pack)
    rows_b, least, top_b, longest = B._packed_rows(pack)
    m = INF
    for row in a:
        for q, va, _, _ in row:
            if va + least[q] < m:
                m = va + least[q]
    n = D - 3 * m + 1
    G = max(2 * n, top + top_b - m)
    b = []
    for row, lo in zip(rows_b, least):
        y = 0
        for j, nu, d, _ in row:
            y += d << S * (G * j + nu - lo)
        b.append(y)
    mask = ((1 << S * n) - 1) * (1 + (1 << S * G) + (1 << 2 * S * G))
    rows = []
    for row in a:
        pairs, terms, acc = [], 0, 0
        for q, va, f, lf in row:
            if va + least[q] - m < n:
                x = f << S * (va + least[q] - m)
                pairs.append((x, b[q]))
                acc += x * b[q]
                terms += min(lf, longest[q])
        rows.append(reduce(acc & mask) if terms <= piece
                    else _dot(mask, pairs, ar))
    return n, G, rows


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


def distance_to_identity(v: VertexClass) -> int:
    """d([I], v), the link distance: e3 - e1 of the elementary divisors of
    v.canon, read with no inverse.  v.canon is lower triangular with
    diagonal pi^(a0, a1, a2), so e1 + e2, the least valuation of a 2x2
    minor, is that of a product of two diagonal entries, of a0 * e21,
    a2 * e10 or of e10 * e21 - pi^a1 * e20."""
    a0, a1, a2 = v.exps
    e10, e20, e21 = _below(v.canon._terms)
    n10, n20, n21 = (laurent_valuation(x) for x in (e10, e20, e21))
    minor = laurent_dot((e10, (-a1, (v.p - 1,))), (e21, e20), v.p)
    e12 = min(a0 + a1, a0 + a2, a1 + a2, a0 + n21, a2 + n10,
              laurent_valuation(minor))
    return a0 + a1 + a2 - e12 - min(0, n10, n20, n21)


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
