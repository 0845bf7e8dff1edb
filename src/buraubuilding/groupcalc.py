"""Stabilizer computation for the J-isometry action on the building: exact
stabilizers from the pulled-back form, by bounded pi-adic digits solved
column by column mod p (at every vertex, the identity vertex included), word
search, orbit classification outward from the identity vertex, relation
verification for the presentation of the isometry group at p = 3, the
kernel-witness check, and the tube pattern walk.

numpy (integer arrays only) is imported only by the search of ``stab_exact``
and its helpers, so the claims that never call it do not load numpy.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple, Optional

from .arith import (LaurentPoly, check_prime, inv_mod, laurent_from_pi_digits,
                    laurent_valuation, render_laurent_data)
from .rep import (
    GroupWord,
    MatrixRF,
    is_homothety,
    is_unitary,
    letter_matrix,
    named_matrix,
    named_word,
    order_mod_homothety,
    parse_word,
    squier_form_t,
    word_evaluate,
    word_evaluate_integral,
)
from .building import (
    VertexClass,
    apply,
    canonicalize,
    conjugated_link_permutation,
    identity_vertex,
    link,
)


# ---------------------------------------------------------------------------
# normalization of matrices modulo homothety

def normalize_mod_homothety(A: MatrixRF) -> MatrixRF:
    """Canonical representative of A modulo scalars c*t^k.

    Requires Laurent entries.  The minimum t-exponent over all entries is
    shifted to 0 and the first nonzero coefficient (row-major, lowest
    exponent first) is scaled to 1, by one scalar c*t^-m.
    """
    terms = [(e, c) for row in A._terms for e, c in row if c]
    m = min(e for e, _ in terms)
    lead = inv_mod(terms[0][1][0], A.p)
    return A.scale(LaurentPoly.term(lead, -m, A.p, A.var))


def perm_group(perms):
    """(order, gens) of the permutation group the given tuples generate.

    A permutation becomes a generator, in gens, only when it lies outside
    the group H closed so far.  The closure then grows in two steps: the
    products h s of the known elements with the new generator s, all new
    since H is a group; then each new element times every generator, until
    no product is new.  The set holds the identity and is closed under
    multiplication by every generator, so it is the group.  Elements that
    are a group already (an exact report's permutations) need few
    generators: the closure costs the order times their number, not its square.
    """
    seen, gens = None, []
    for pm in perms:
        s = tuple(pm)
        if seen is None:
            seen = {tuple(range(len(s)))}
        if s in seen:
            continue
        gens.append(s)
        frontier = [tuple([s[i] for i in h]) for h in seen]
        seen.update(frontier)
        while frontier:
            nxt = []
            for h in frontier:
                for g in gens:
                    prod = tuple([g[i] for i in h])
                    if prod not in seen:
                        seen.add(prod)
                        nxt.append(prod)
            frontier = nxt
    return (len(seen) if seen else 1), gens


def perm_orbit_sizes(perms, n):
    """Sorted orbit-size multiset of the group generated by perms on n points:
    the generators ``perm_group`` took give the same orbits as all of perms."""
    seen, sizes = [False] * n, []
    for i in range(n):
        if not seen[i]:
            seen[i], orbit = True, [i]
            for j in orbit:
                for pm in perms:
                    if not seen[pm[j]]:
                        seen[pm[j]] = True
                        orbit.append(pm[j])
            sizes.append(len(orbit))
    return tuple(sorted(sizes))


# ---------------------------------------------------------------------------
# the pulled-back form and valuation bounds

def form_pullback(v: VertexClass) -> MatrixRF:
    """M* H M over F_p(t), where M is the canonical basis of v and
    H = J / s (``squier_form_t``): (M* J M) / s, since s is central.

    A matrix g with Laurent entries satisfies g*Jg = J iff g*Hg = H iff
    alpha = M^-1 g M satisfies alpha* F alpha = F for this F.
    """
    M = v.canon
    return M.star() * squier_form_t(v.p) * M


def entry_degree_bounds(F0: MatrixRF):
    """Per-entry pi-degree bounds for candidate alpha with alpha* F0 alpha = F0.

    From alpha* = F0 alpha^-1 F0^-1 and alpha, alpha^-1 over O:
    nu(alpha*_ij) >= r_i + c_j, hence deg_pi(alpha_ji) <= -(r_i + c_j)
    where r_i is the row minimum of nu over F0 and c_j the column minimum
    over F0^-1.  Entries with a negative bound are forced to zero.  det F0
    need not be a unit, so F0^-1 is not formed: only its valuations are
    read, nu(F0^-1[l][j]) = nu(adj(F0)[l][j]) - nu(det F0).
    """
    adj, d = F0.adjugate()._terms, F0.det_valuation()
    r = [min(laurent_valuation(x) for x in row) for row in F0._terms]
    c = [min(laurent_valuation(adj[l][j]) for l in range(3)) - d for j in range(3)]
    return [[-(r[b] + c[a]) for b in range(3)] for a in range(3)]


# ---------------------------------------------------------------------------
# reports

class StabReport(NamedTuple):
    vertex: VertexClass
    method: str                  # "exact" | "word-search"
    complete: bool
    elements: tuple              # MatrixRF acting on the building, one per class mod homothety
    order: int                   # classes modulo homothety (lower bound if not complete)
    image_order: int             # order of the induced permutation group on the link
    element_orders: tuple        # sorted orders mod homothety of the elements
    image_orbit_sizes: tuple     # orbit-size multiset of the image group on the link
    bounds: dict
    perms: tuple                 # link permutation of each element, as in elements

    def to_json_dict(self):
        return {
            "bounds": {k: self.bounds[k] for k in sorted(self.bounds)},
            "complete": self.complete,
            "elementOrders": list(self.element_orders),
            "imageOrbitSizes": list(self.image_orbit_sizes),
            "imageOrder": self.image_order,
            "method": self.method,
            "order": self.order,
            "vertex": self.vertex.to_text(),
        }


class RelationReport(NamedTuple):
    name: str
    relator: object              # GroupWord
    holds_mod_p: bool
    holds_integrally: Optional[bool]   # None when the relator involves u
    integral: Optional[MatrixRF] = None  # the relator over Z, kernel witness only

    def to_json_dict(self):
        return {
            "holdsIntegrally": self.holds_integrally,
            "holdsModP": self.holds_mod_p,
            "name": self.name,
            "relator": str(self.relator),
        }


def _report(v: VertexClass, method: str, elements, perms, orders,
            bounds) -> StabReport:
    """The StabReport of the given elements, their link permutations and
    orders mod homothety; an "exact" report is complete, and must contain the
    identity and have an image order dividing its order."""
    p = v.p
    image_order, gens = perm_group(perms)
    if method == "exact":
        if MatrixRF.identity(p) not in elements:
            raise AssertionError("the identity is missing from the stabilizer")
        if len(elements) % image_order:
            raise AssertionError("image order %d does not divide order %d"
                                 % (image_order, len(elements)))
    return StabReport(
        vertex=v, method=method, complete=method == "exact",
        elements=tuple(elements), order=len(elements), image_order=image_order,
        element_orders=tuple(sorted(orders)),
        image_orbit_sizes=perm_orbit_sizes(gens, 2 * (p * p + p + 1)),
        bounds=bounds, perms=tuple(perms))


# ---------------------------------------------------------------------------
# exact stabilizer at any vertex: one column enumerated, two solved mod p

DEFAULT_DIGIT_BOUND = 8
DEFAULT_COLUMN_BUDGET = 4_000_000
_PAIR_ENTRIES = 1 << 20     # point digits or pairs per block: bounds its int64 tables


def _laurent_pi_coeffs(terms):
    """A Laurent entry, given as its terms (minexp, coeffs), as
    {pi-exponent: coefficient}."""
    e, c = terms
    return {-(e + i): a for i, a in enumerate(c) if a}


@functools.lru_cache(maxsize=None)
def _grid(p, n):
    """Every vector of F_p^n, read-only: row m the base-p digits of m, lowest
    first, in the smallest unsigned dtype holding p - 1 (a byte if p < 257)."""
    import numpy as np

    digits = np.indices((p,) * n, dtype=np.min_scalar_type(p - 1))
    grid = np.ascontiguousarray(digits.reshape(n, p ** n)[::-1].T)
    grid.flags.writeable = False
    return grid


def _form_tensor(p, F0pi, ns_u, ns_w, lo, hi):
    """T with x_u^T T[q - lo] x_w = B(u, w) at pi^q mod p, for lo <= q <= hi.

    x_u is the digit vector of the column u: entry a takes the next ns_u[a]
    digits as u_a = sum_k d_k pi^k; likewise x_w for w.  B(u, w) =
    sum_a,e bar(u_a) F0[a][e] w_e, and bar(pi^k) = pi^-k, so digit k of u_a,
    digit m of w_e and the coefficient of F0[a][e] at pi^q meet at
    pi^(q + m - k).  Terms that land outside [lo, hi] are skipped.
    """
    import numpy as np

    su, sw = (list(itertools.accumulate(n, initial=0)) for n in (ns_u, ns_w))
    T = np.zeros((hi - lo + 1, sum(ns_u), sum(ns_w)), dtype=np.int64)
    for a in range(3):
        for e in range(3):
            for q, f in F0pi[a][e].items():
                for k in range(ns_u[a]):
                    for m in range(ns_w[e]):
                        if lo <= q + m - k <= hi:
                            T[q + m - k - lo, su[a] + k, sw[e] + m] += f
    return T % p


def _constraint(p, F0pi, ns_u, ns_w, target, lo=None):
    """B(u, w) = target on columns of ns_u, ns_w digits, at the pi-exponents
    that B(u, w) or the target reach (those >= lo if lo is given): the
    ``_form_tensor`` slices and the target's coefficients, or None when the
    constraint cannot hold.  A coefficient whose slice is 0 holds for every
    column or for none, so it is dropped or refuses the constraint."""
    import numpy as np

    exps = [q for row in F0pi for d in row for q in d] + list(target)
    first = min(exps) - (max(ns_u) - 1)
    first = first if lo is None else max(first, lo)
    last = max(max(exps) + (max(ns_w) - 1), first - 1)
    T = _form_tensor(p, F0pi, ns_u, ns_w, first, last)
    tvec = np.array([target.get(q, 0) for q in range(first, last + 1)],
                    dtype=np.int64)
    live = T.any(axis=(1, 2))
    return None if tvec[~live].any() else (T[live], tvec[live])


def _quadratic_mask(p, con, X):
    """Mask of the rows x of X with B(x, x) = target, con a ``_constraint``."""
    import numpy as np

    T, tvec = con
    return np.all(np.einsum("ni,qij,nj->nq", X, T, X) % p == tvec, axis=1)


def _pair_mask(p, con, X, Y):
    """Mask of the pairs (row x of X, row y of Y) with B(x, y) = target, con
    a ``_constraint``: one int64 product (X T[q]) Y^T per coefficient q, so
    that one table of pairs is held at a time."""
    import numpy as np

    T, tvec = con
    keep = np.ones((len(X), len(Y)), dtype=bool)
    for L, t in zip(X @ T % p, tvec):
        keep &= L @ Y.T % p == t
    return keep


def _solve_mod_p(A, y, p):
    """The solutions of A x = y mod p (A, y reduced) as a point x0 and a
    basis of the kernel, one row each, or None when there is none.
    Gauss-Jordan elimination on the rows of [A | y], as lists since the
    systems are small."""
    import numpy as np

    n = A.shape[1]
    rows = [r + [t] for r, t in zip(A.tolist(), y.tolist())]
    pivots = []
    for c in range(n):
        r = len(pivots)
        k = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = inv_mod(rows[r][c], p)
        pivot = rows[r] = [a * inv % p for a in rows[r]]
        for i, row in enumerate(rows):
            if row[c] and i != r:
                rows[i] = [(a - row[c] * b) % p for a, b in zip(row, pivot)]
        pivots.append(c)
    if any(row[n] for row in rows[len(pivots):]):
        return None
    free = [c for c in range(n) if c not in pivots]
    point, basis = [0] * n, [[int(c == f) for c in range(n)] for f in free]
    for row, c in zip(rows, pivots):
        point[c] = row[n]
        for b, f in zip(basis, free):
            b[c] = -row[f] % p
    return np.array(point), np.array(basis, dtype=np.int64).reshape(-1, n)


def _space_points(p, point, basis, cut):
    """The rows that cut keeps of the points x0 + sum c_i basis[i] mod p, c
    over the rows of the grid of F_p^dim, a block of at most _PAIR_ENTRIES
    digits (one point at least) at a time: the high digits of c give a
    block's offset, the low ones come from one cached grid."""
    import numpy as np

    k = len(basis)
    while k and p ** k * len(point) > _PAIR_ENTRIES:
        k -= 1
    offsets = [point] if k == len(basis) else \
        (point + _grid(p, len(basis) - k) @ basis[k:]) % p
    blocks = [cut((_grid(p, k) @ basis[:k] + x) % p) for x in offsets]
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _digits_to_terms(row, ns):
    """One digit row back to a column of three entries' Laurent terms."""
    starts = itertools.accumulate(ns, initial=0)
    return tuple(laurent_from_pi_digits([int(d) for d in row[s:s + n]], 0)
                 for s, n in zip(starts, ns))


def _residues(digs, ns):
    """The pi^0 digit of each entry of every digit row (0 for a zero entry)."""
    import numpy as np

    out = np.zeros((len(digs), 3), dtype=np.int64)
    for a, (n, s) in enumerate(zip(ns, itertools.accumulate(ns, initial=0))):
        if n:
            out[:, a] = digs[:, s]
    return out


def _solution_points(p, con, x, diag):
    """The columns w with B(x, w) = target under con, a system linear in
    w's digits for the fixed digit row x, and B(w, w) = target under diag:
    the solution space, a block of points at a time, cut by the quadratic."""
    import numpy as np

    T, tvec = con
    space = _solve_mod_p(x @ T % p, tvec, p)
    if space is None:
        return np.zeros((0, T.shape[2]), dtype=np.int64)
    return _space_points(p, *space, lambda W: W[_quadratic_mask(p, diag, W)])


def _first_column(p, n, diag):
    """The nonzero rows x of n digits with B(x, x) = target under diag, one
    of each pair +-x: the first nonzero digit lies in 1..(p-1)/2."""
    import numpy as np

    def cut(X):
        first = X[np.arange(len(X)), (X != 0).argmax(axis=1)]
        X = X[(0 < first) & (first <= max((p - 1) // 2, 1))]
        return X[_quadratic_mask(p, diag, X)]

    return _space_points(p, np.zeros(n, dtype=np.int64),
                         np.eye(n, dtype=np.int64), cut)


def _digit_triples(p, F0pi, ns):
    """{column: digit row} of every alpha in GL3(O) with alpha* F0 alpha =
    F0, one of each pair +-alpha; column b has ns[b] digits, and F0pi holds
    F0 (``_laurent_pi_coeffs``).

    Column b0 has the fewest digits (ties: the lowest index).  Only c0 is
    enumerated (``_first_column``); for each c0, B(c0, c_b) = F0[b0][b] is
    linear in the digits of c_b, b = b1, b2 (``_solution_points``), and
    B(c1, c2) = F0[b1][b2] and the residue determinant, (r0 x r1) . r2 with
    r_b the pi^0 digits of c_b, nonzero mod p iff nu(det alpha) = 0, are
    tested on all pairs, a block at a time.  F0* = t F0 makes B(c, c)
    equal at pi^q and pi^(1-q), and B(c_e, c_b) = F0[e][b] follow from
    B(c_b, c_e) = F0[b][e]: so every coefficient of alpha* F0 alpha = F0 is
    imposed.
    """
    import numpy as np

    b0, b1, b2 = sorted(range(3), key=lambda b: (sum(ns[b]), b))

    def con(b, e, lo=None):
        return _constraint(p, F0pi, ns[b], ns[e], F0pi[b][e], lo)

    cons = (con(b0, b0, 1), con(b1, b1, 1), con(b2, b2, 1),
            con(b0, b1), con(b0, b2), con(b1, b2))
    # a column of no digits is zero, never a column of alpha
    if not sum(ns[b0]) or any(c is None for c in cons):
        return
    diag0, diag1, diag2, pair01, pair02, pair12 = cons
    X0 = _first_column(p, sum(ns[b0]), diag0)
    for x0, r0 in zip(X0, _residues(X0, ns[b0]).tolist()):
        X1 = _solution_points(p, pair01, x0, diag1)
        if not len(X1):
            continue
        X2 = _solution_points(p, pair02, x0, diag2)
        a0, a1, a2 = r0          # r0 x r = K r
        K = np.array([[0, -a2, a1], [a2, 0, -a0], [-a1, a0, 0]])
        R1, R2 = _residues(X1, ns[b1]) @ K.T, _residues(X2, ns[b2]).T
        step = max(1, _PAIR_ENTRIES // max(len(X2), 1))
        for s in range(0, len(X1), step):
            keep = _pair_mask(p, pair12, X1[s:s + step], X2)
            keep &= R1[s:s + step] @ R2 % p != 0
            for i, j in zip(*np.nonzero(keep)):
                yield {b0: x0, b1: X1[s + i], b2: X2[j]}


def stab_exact(v: VertexClass, digit_bound: int = DEFAULT_DIGIT_BOUND,
               column_budget: int = DEFAULT_COLUMN_BUDGET) -> StabReport:
    """All building isometries with Laurent entries stabilizing v, mod homothety.

    Enumerates alpha in GL3(O) with Laurent entries and alpha* F0 alpha = F0
    (F0 the pulled-back form of v); each class of the stabilizer modulo
    homothety has exactly the representatives +-alpha, since the canonical
    basis of v has monomial determinant.  The search (``_digit_triples``,
    which relies on F0* = t F0, checked here) enumerates the column with
    the fewest digits and solves the other two by elimination mod p;
    ``column_budget`` caps p^digits per column, so the enumerated column
    and each solution space.  Every alpha found is re-checked, a failure
    raising AssertionError: alpha* F0 alpha = F0, then g = v.canon alpha
    v.canon^-1 (Laurent by construction) is unitary and fixes v.  The link
    permutation and the order modulo homothety are read from alpha,
    conjugate to g: it has about half the coefficients.
    """
    p = v.p
    F0 = form_pullback(v)
    if F0.star() != F0.scale(LaurentPoly.term(1, 1, p)):
        raise AssertionError("pulled-back form fails F0* = t F0")
    D = entry_degree_bounds(F0)
    if max(max(row) for row in D) > digit_bound:
        raise ValueError("entry degree bound %d exceeds digit bound %d"
                         % (max(max(row) for row in D), digit_bound))
    ns = [tuple(max(D[a][b] + 1, 0) for a in range(3)) for b in range(3)]
    for n in ns:
        if p ** sum(n) > column_budget:
            raise ValueError("column candidate space %d exceeds budget %d"
                             % (p ** sum(n), column_budget))
    F0pi = [[_laurent_pi_coeffs(x) for x in row] for row in F0._terms]
    M, Minv = v.canon, v.canon.inverse()
    found = []
    for rows in _digit_triples(p, F0pi, ns):
        cols = [_digits_to_terms(rows[b], ns[b]) for b in range(3)]
        alpha = MatrixRF.from_terms(p, tuple(zip(*cols)))
        # alpha is in GL3(O): the read checks nu(det alpha) = 0
        perm = conjugated_link_permutation(alpha)
        if alpha.star() * F0 * alpha != F0:
            raise AssertionError("enumerated matrix fails alpha* F0 alpha = F0")
        g = M * alpha * Minv
        if not is_unitary(g) or apply(g, v) != v:
            raise AssertionError(
                "enumerated matrix fails the independent re-check")
        found.append((normalize_mod_homothety(g), perm, alpha))
    found.sort(key=lambda gpa: _matrix_sort_key(gpa[0]))
    elements = [g for g, _, _ in found]
    if len(set(elements)) != len(elements):
        raise AssertionError("two enumerated elements agree modulo homothety")
    # alpha is conjugate to g, so their orders modulo homothety agree, and
    # an element's order divides the group order
    return _report(v, "exact", elements, [pm for _, pm, _ in found],
                   [order_mod_homothety(alpha, maxn=len(elements))
                    for _, _, alpha in found],
                   {"digitBound": digit_bound, "columnBudget": column_budget,
                    "degreeBounds": D})


def stab_identity_exact(p: int) -> StabReport:
    """The exact stabilizer of the identity vertex [I]: ``stab_exact`` there.

    At [I] the stabilizer is the finite unitary group of Squier's form over
    F_p, modulo scalars; the column budget refuses p^3 > 4M, that is p > 157.
    """
    return stab_exact(identity_vertex(check_prime(p)))


def _matrix_sort_key(g: MatrixRF):
    """The rendered entries, row by row, of g normalized modulo homothety
    (so every exponent is >= 0)."""
    return tuple(render_laurent_data(c, e, g.var)
                 for row in g._terms for e, c in row)


# ---------------------------------------------------------------------------
# word search

WORD_GENS = ("u", "u1", "h")
DEFAULT_WORD_DEPTH = 3


def _gen_matrices(gens, p):
    """The matrices of gens (matrices, letter names or words), followed by
    their inverses in the same order."""
    out = []
    for g in gens:
        if isinstance(g, MatrixRF):
            out.append(g)
        elif isinstance(g, str):
            out.append(letter_matrix(g, p))
        else:
            out.append(word_evaluate(g, p))
    return out + [m.inverse() for m in out]


def stab_words(v: VertexClass, gens, depth: int) -> StabReport:
    """BFS over words in gens; lower bound for the stabilizer of v.

    Collects elements fixing v, reports the order of the permutation
    group their link actions generate.  Never complete: word search can
    only undercount.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    p = v.p
    mats = _gen_matrices(gens, p)
    ident = MatrixRF.identity(p)
    # each class mod homothety -> the first word product that reached it
    seen = {normalize_mod_homothety(ident): ident}
    frontier = [ident]
    for _ in range(depth):
        nxt = []
        for g in frontier:
            for m in mats:
                h = g * m
                key = normalize_mod_homothety(h)
                if key not in seen:
                    seen[key] = h
                    nxt.append(h)
        frontier = nxt
    M = v.canon
    Minv = M.inverse()
    found = []
    for key, g in seen.items():
        if apply(g, v) != v:
            continue
        if not is_unitary(g):
            raise AssertionError("word-search element fails the unitarity re-check")
        # the conjugate has g's order mod homothety, on shorter entries
        conj = Minv * g * M
        found.append((key, conj, conjugated_link_permutation(conj)))
    found.sort(key=lambda gcp: _matrix_sort_key(gcp[0]))
    return _report(v, "word-search", [g for g, _, _ in found],
                   [pm for _, _, pm in found],
                   [order_mod_homothety(c, maxn=200) or 0 for _, c, _ in found],
                   {"depth": depth, "generators": len(gens)})


# ---------------------------------------------------------------------------
# distinguished vertices at p = 3

def n_point_base(p: int = 3) -> VertexClass:
    """The unique vertex adjacent to [I] whose class is fixed by u."""
    return canonicalize(named_matrix("M19", p))


def _swapped_pair(cands, p, accept):
    """The first a of cands in canonical order with accept(a) that xyx maps
    onto another candidate, together with that image."""
    xyx = word_evaluate(parse_word("x.y.x"), p)
    for a in sorted(cands, key=lambda w: w.sort_key()):
        img = apply(xyx, a)
        if img != a and img in cands and accept(a):
            return a, img
    raise AssertionError("no xyx-swapped pair among the candidates")


def seven_star_pair(p: int = 3):
    """The distinguished u-fixed pair in the link of the n-point base.

    The first vertex is the 7*-type representative: xyx maps it onto the
    second, so that u1 = (xyx)^-1.u.xyx stabilizes the first.  Candidates
    are ordered canonically before testing, making the choice reproducible.
    """
    u = letter_matrix("u", p)
    u1 = letter_matrix("u1", p)
    fixed = [lv.vclass for lv in link(n_point_base(p))
             if apply(u, lv.vclass) == lv.vclass]
    return _swapped_pair(fixed, p, lambda a: apply(u1, a) == a)


def seven_star(p: int = 3) -> VertexClass:
    return seven_star_pair(p)[0]


# ---------------------------------------------------------------------------
# orbits

# orders modulo homothety above this are not looked for: a walk of c - 1
# recorded steps is worth trying only for a short cycle
_ORDER_CAP = 12

DEFAULT_ORBIT_BUDGET = 200_000
DEFAULT_RADIUS = 1


class _Moves(NamedTuple):
    """What an orbit BFS knows before it starts: mats, the generators then
    their inverses (``_gen_matrices``); orders[i], the order of mats[i]
    modulo homothety, or None above ``_ORDER_CAP``; and seed[i], a dict of
    images mats[i].v known for free (``_link_seed``)."""
    mats: list
    orders: tuple
    seed: tuple


def _moves(gens, p) -> _Moves:
    """The ``_Moves`` of gens at p, with an empty seed."""
    mats = _gen_matrices(gens, p)
    k = len(mats) // 2
    orders = tuple(order_mod_homothety(m, maxn=_ORDER_CAP) for m in mats[:k])
    return _Moves(mats, orders + orders, tuple({} for _ in mats))


def _link_seed(I, lk, mats):
    """seed[i] maps lk[j] to lk[perm[j]], fixed points included, for each
    generator mats[i] that fixes I (one ``apply`` each), with perm its
    ``conjugated_link_permutation`` (I.canon is the identity, so the
    conjugate is mats[i] itself), and seed[i + k] is the inverse map.  A
    generator that moves I seeds nothing."""
    k = len(mats) // 2
    seed = [{} for _ in mats]
    for i, g in enumerate(mats[:k]):
        if apply(g, I) == I:
            images = [lk[j] for j in conjugated_link_permutation(g)]
            seed[i] = dict(zip(lk, images))
            seed[i + k] = dict(zip(images, lk))
    return tuple(seed)


def orbit_bfs(start: VertexClass, gens, depth: int,
              budget: int = DEFAULT_ORBIT_BUDGET):
    """Vertices reachable from start by generator applications up to depth.

    gens are matrices, letter names or words, or the ``_Moves`` that
    ``orbit_classify`` builds once for all its BFS runs.  mats holds the k
    generators, then their inverses, so mats[i] and mats[(i + k) % 2k] are
    inverse.  The BFS looks an edge mats[i].v up in its own table (edges[i]
    maps v to mats[i].v) before it calls ``apply``; three exact sources
    fill the table:

    - inverse: w = mats[i].v records mats[(i + k) % 2k].w = v;
    - order: if mats[i] has order c modulo homothety (a homothety fixes
      every vertex), mats[i].v = mats[(i + k) % 2k]^(c-1).v, so c - 1
      recorded inverse steps from v give the edge; a derived edge is
      recorded like an applied one;
    - link seed: ``orbit_classify`` starts every table with the edges
      that the generators fixing [I] induce on link([I]) (``_link_seed``).

    A loop that ``apply`` finds (w = v) is not recorded, so a matrix and
    its inverse each cost an apply at a vertex they fix: a one-level BFS
    from [I] by x and y makes the 4 applies that ``perfbench`` pins.  The
    link seed does hold the fixed points of its permutations.  Every edge
    equals the ``apply`` it replaces, so the set, the frontier order and
    the point where the budget trips are those of the plain BFS.
    """
    moves = gens if isinstance(gens, _Moves) else _moves(gens, start.p)
    mats = moves.mats
    n = len(mats)
    edges = [dict(images) for images in moves.seed]
    steps = [(m, edges[i], edges[(i + n // 2) % n], moves.orders[i])
             for i, m in enumerate(mats)]
    seen = {start}
    frontier = [start]
    for _ in range(depth):
        nxt = []
        for v in frontier:
            for m, forward, back, c in steps:
                w = forward.get(v)
                if w is None:
                    w = _order_walk(back, v, c)
                    if w is None:
                        w = apply(m, v)
                        if w == v:
                            continue
                    forward[v] = w
                    back[w] = v
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
            if len(seen) > budget:
                raise ValueError("orbit budget %d exhausted" % budget)
        frontier = nxt
    return seen


def _order_walk(back, v, c):
    """back applied c - 1 times to v, None when c is None or a step is not
    in back."""
    if c is None:
        return None
    for _ in range(c - 1):
        v = back.get(v)
        if v is None:
            return None
    return v


def ball(p: int, radius: int):
    """All vertices within the given link-distance of the identity vertex."""
    I = identity_vertex(p)
    return _ball(I, [lv.vclass for lv in link(I)] if radius > 0 else [],
                 radius)


def _ball(I, lk, radius):
    """``ball``, given the vertices lk of link(I)."""
    seen = {I: 0}
    frontier = [I]
    for d in range(1, radius + 1):
        nxt = []
        for v in frontier:
            for w in lk if v is I else (lv.vclass for lv in link(v)):
                if w not in seen:
                    seen[w] = d
                    nxt.append(w)
        frontier = nxt
    return seen


class OrbitTable(NamedTuple):
    p: int
    radius: int
    generators: tuple
    orbits: tuple        # of dicts
    complete: bool

    def to_json_dict(self):
        return {
            "complete": self.complete,
            "generators": list(self.generators),
            "orbits": [
                {k: o[k] for k in sorted(o)} for o in self.orbits
            ],
            "p": self.p,
            "radius": self.radius,
        }


def orbit_classify(p: int, gens=("x", "y", "u"), radius: int = DEFAULT_RADIUS,
                   budget: int = DEFAULT_ORBIT_BUDGET,
                   stab_reports: bool = True) -> OrbitTable:
    """Partition the radius-ball around [I] into orbits of the gens-group.

    Orbits are labeled by the distinguished representatives they contain:
    the identity vertex (group points), the u-fixed neighbor of [I]
    (n-points), and the tube chain vertices.  Labels never rely on any
    external numbering of vertices.

    link([I]) is enumerated once: the ball is built from it, and every
    ``orbit_bfs``, to depth 6, starts with a table of its own holding the edges that the
    generators fixing [I] induce on it (``_link_seed``).  The generator
    matrices, their orders and that seed are built before any BFS runs,
    so a letter with no matrix at p raises its ValueError here; a ValueError
    from a BFS is then only a tripped budget.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    I = identity_vertex(p)
    lk = [lv.vclass for lv in link(I)]
    B = _ball(I, lk, radius)
    moves = _moves(gens, p)
    moves = moves._replace(seed=_link_seed(I, lk, moves.mats))
    complete = True
    anchors = [("group-point", I)]
    if p == 3 and any(str(g) == "u" for g in gens):
        anchors.append(("n-point", n_point_base(p)))
        anchors += [("tube(%d)" % k, v) for k, v, _ in
                    itertools.islice(tube_chain(), radius)]

    def orbit(rep):
        """The BFS orbit of rep, or {rep} and an incomplete table."""
        nonlocal complete
        try:
            return orbit_bfs(rep, moves, 6, budget)
        except ValueError:
            complete = False
            return {rep}

    orbit_entries = []
    assigned = set()

    def reps():
        """The anchors in the ball, then, in sort_key order (unique per
        class), each vertex that no earlier orbit has taken."""
        for label, rep in anchors:
            if rep in B:
                yield label, rep
        for w in sorted((w for w in B if w not in assigned),
                        key=VertexClass.sort_key):
            if w not in assigned:
                yield "unknown", w

    for label, rep in reps():
        orb = orbit(rep)
        members = [w for w in B if w in orb and w not in assigned]
        assigned.update(members)
        orbit_entries.append(({"label": label, "representative": rep.to_text(),
                               "sizeWithinRadius": len(members)}, rep))
    if stab_reports:
        for entry, rep in orbit_entries:
            label = entry["label"]
            if label in ("group-point", "n-point", "tube(1)"):
                rpt = stab_exact(rep)
            else:
                rpt = stab_words(rep, WORD_GENS, DEFAULT_WORD_DEPTH)
            entry["stabOrder"] = rpt.order
            entry["stabImageOrder"] = rpt.image_order
            entry["stabComplete"] = rpt.complete
    return OrbitTable(p=p, radius=radius, generators=tuple(str(g) for g in gens),
                      orbits=tuple(e for e, _ in orbit_entries), complete=complete)


# eighteen words whose images of [I] exhaust the group points in Link(I)
LINK_GROUP_WORDS = (
    "y", "y^2", "x.y", "x.y^2", "x^2.y", "x^2.y^2",
    "x^3.y", "x^3.y^2", "y.x.y", "y^-1.x^-1.y^-1", "x.y.x.y",
    "x.y^-1.x^-1.y^-1", "w", "w^-1", "y^-1.x^-1.y^-1.w",
    "x.y^-1.x^-1.y^-1.w", "y.x.y.w^-1", "x.y.x.y.w^-1",
)


# ---------------------------------------------------------------------------
# relations and the kernel witness

RELATION_FAMILIES = (
    ("x^4", "x^4", True),
    ("y^3", "y^3", True),
    ("u^6", "u^6", False),
    ("[x^2, yxy]", "x^-2.y^-1.x^-1.y^-1.x^2.y.x.y", True),
    ("[x, w]", "x^-1.w^-1.x.w", False),
    ("[yxy, w]", "y^-1.x^-1.y^-1.w^-1.y.x.y.w", False),
    ("[xyx, u^2]", "x^-1.y^-1.x^-1.u^-2.x.y.x.u^2", False),
    ("[x^2yx, u^3]", "x^-1.y^-1.x^-2.u^-3.x^2.y.x.u^3", False),
    ("(u^2x^2yx)^2 = (x^2yxu^2)^2",
     "u^2.x^2.y.x.u^2.x^2.y.x.u^-2.x^-1.y^-1.x^-2.u^-2.x^-1.y^-1.x^-2", False),
)


def _relator_word(text):
    """parse_word, with each letter w expanded into the word of w."""
    w = named_word("w")
    out = []
    for letter in parse_word(text):
        if letter[0] == "w":
            out.extend(w if letter[1] > 0 else w.inverse())
        else:
            out.append(letter)
    return GroupWord(out)


def verify_relations():
    """Evaluate the presentation relators mod 3 (u is defined at p = 3
    only); braid-only ones also integrally."""
    out = []
    for name, text, braid_only in RELATION_FAMILIES:
        word = _relator_word(text)
        m = word_evaluate(word, 3)
        holds = is_homothety(m) is not None
        integral = None
        if braid_only:
            mi = word_evaluate_integral(word)
            integral = is_homothety(mi) is not None
        out.append(RelationReport(name=name, relator=word,
                                  holds_mod_p=holds, holds_integrally=integral))
    return out


def kernel_witness_check():
    """The displayed braid relator: homothety mod 3, non-homothety integrally."""
    word = named_word("kernel_word")
    m3 = word_evaluate(word, 3)
    mi = word_evaluate_integral(word)
    return RelationReport(
        name="kernel witness (%d letters)" % len(word), relator=word,
        holds_mod_p=is_homothety(m3) is not None,
        holds_integrally=is_homothety(mi) is not None, integral=mi)


# ---------------------------------------------------------------------------
# the tube

def _tube_next(level: VertexClass, exclude, floor: int):
    """The distinguished pair in the link one step farther from the identity.

    Fixed points of the stabilizer image that are not in exclude; the pair
    is returned in canonical order and must be swapped by xyx.  Each fixed
    point w is fixed by every element found here, so |Stab(w)| exceeds
    floor, the larger of |Stab([I])| and |Stab(n-point)|.  |Stab| is
    constant along orbits, so w is neither a group point nor an n-point;
    a search that finds no more than floor elements raises AssertionError.
    """
    rpt = stab_words(level, WORD_GENS, DEFAULT_WORD_DEPTH)
    if rpt.order <= floor:
        raise AssertionError("word search found %d stabilizer elements, not "
                             "more than the %d of [I] and the n-point"
                             % (rpt.order, floor))
    lk = link(level)
    fixed_idx = set(range(len(lk)))
    for pm in rpt.perms:
        fixed_idx = {i for i in fixed_idx if pm[i] == i}
    cands = [lk[i].vclass for i in sorted(fixed_idx) if lk[i].vclass not in exclude]
    return _swapped_pair(cands, 3, lambda a: True)


def tube_chain():
    """Yield (k, 7^(k), its xyx partner) for k = 1, 2, ... at p = 3, each
    level computed only when asked for; 7^(1) is ``seven_star``.  The exact
    stabilizer orders of [I] and the n-point, which certify each later
    level, are computed once, when level 2 is asked for."""
    level, partner = seven_star_pair(3)
    yield 1, level, partner
    floor = max(stab_exact(identity_vertex(3)).order,
                stab_exact(n_point_base(3)).order)
    for k in itertools.count(2):
        level, partner = _tube_next(level, {level, partner}, floor)
        yield k, level, partner


class TubeLevel(NamedTuple):
    k: int
    vertex: VertexClass
    image_order: int
    stab_order_found: int
    claimed_total_order: int

    def to_json_dict(self):
        return {
            "claimedTotalOrder": self.claimed_total_order,
            "imageOrder": self.image_order,
            "k": self.k,
            "stabOrderFound": self.stab_order_found,
            "vertex": self.vertex.to_text(),
        }


def tube_pattern_check(kmax: int = 2, depth: int = DEFAULT_WORD_DEPTH):
    """Walk 7^(1) -> ... -> 7^(kmax) at p = 3, word-searching each
    stabilizer image.

    Level 1 uses exact enumeration; levels >= 2 use word search over
    u, h, alpha_1, ..., alpha_k.  The claimed total order 2*3^(2k+1) is
    recorded for comparison, not asserted.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    out = []
    for k, v, _ in itertools.islice(tube_chain(), kmax):
        if k == 1:
            rpt = stab_exact(v)
        else:
            gens = ["u", "h"] + ["alpha%d" % i for i in range(1, k + 1)]
            rpt = stab_words(v, gens, depth)
        out.append(TubeLevel(k, v, rpt.image_order, rpt.order,
                             2 * 3 ** (2 * k + 1)))
    return out
