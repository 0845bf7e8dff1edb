"""Stabilizer computation for the J-isometry action on the building:
exact bounded pi-adic digit enumeration against the pulled-back form (at
every vertex, the identity vertex included), word search, orbit
classification outward from the identity vertex, relation verification for
the presentation of the isometry group at p = 3, the kernel-witness check,
and the tube pattern walk.

numpy is imported only by the column enumeration of ``stab_exact`` and its
helpers, so the claims that never call it do not load numpy.
"""

from __future__ import annotations

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
    _cross,
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
    terms = [(e, c) for row in A._laurent_terms() for e, c in row if c]
    m = min(e for e, _ in terms)
    lead = inv_mod(terms[0][1][0], A.p)
    return A.scale(LaurentPoly.term(lead, -m, A.p, A.var))


def perm_group_order(perms):
    """Order of the permutation group generated by the given tuples.

    A permutation becomes a generator only when it lies outside the group H
    closed so far.  The closure then grows in two steps: the products
    h s of the known elements with the new generator s, all new since H is
    a group; then each new element times every generator, until no product
    is new.  The set holds the identity and is closed under multiplication
    by every generator, so it is the group.  Elements that are a group
    already (an exact report's permutations) need few generators: the
    closure costs the group order times their number, not its square.
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
    return len(seen) if seen else 1


def perm_orbit_sizes(perms, n):
    """Sorted orbit-size multiset of the group generated by perms on n points."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for pm in perms:
        for i in range(n):
            a, b = find(i), find(pm[i])
            if a != b:
                parent[a] = b
    sizes = {}
    for i in range(n):
        r = find(i)
        sizes[r] = sizes.get(r, 0) + 1
    return tuple(sorted(sizes.values()))


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
    adj, d = F0.adjugate()._laurent_terms(), F0.det_valuation()
    r = [min(laurent_valuation(x) for x in row) for row in F0._laurent_terms()]
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
    image_order = perm_group_order(perms)
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
        image_orbit_sizes=perm_orbit_sizes(perms, 2 * (p * p + p + 1)),
        bounds=bounds, perms=tuple(perms))


# ---------------------------------------------------------------------------
# exact stabilizer at any vertex: bounded pi-adic digit enumeration

DEFAULT_DIGIT_BOUND = 8
DEFAULT_COLUMN_BUDGET = 4_000_000


def _laurent_pi_coeffs(terms):
    """A Laurent entry, given as its terms (minexp, coeffs), as
    {pi-exponent: coefficient}."""
    e, c = terms
    return {-(e + i): a for i, a in enumerate(c) if a}


_BLOCK_ENTRIES = 1 << 20    # entries of one block of the split form


def _digit_rows(n, p, width):
    """The base-p digits, lowest first, of each index in n: int16 rows."""
    import numpy as np

    digs = np.empty((len(n), width), dtype=np.int16)
    for k in range(width):
        digs[:, k] = (n // p ** k) % p
    return digs


def _form_tensor(p, F0pi, ns_u, ns_w, lo, hi):
    """T with x_u^T T[q - lo] x_w = B(u, w) at pi^q mod p, for lo <= q <= hi.

    x_u is the digit vector of the column u: entry a takes the next ns_u[a]
    digits as u_a = sum_k d_k pi^k; likewise x_w for w.  B(u, w) =
    sum_a,e bar(u_a) F0[a][e] w_e, and bar(pi^k) = pi^-k, so digit k of u_a,
    digit m of w_e and the coefficient of F0[a][e] at pi^q meet at
    pi^(q + m - k).  Terms that land outside [lo, hi] are skipped.
    """
    import numpy as np

    su, sw = np.cumsum((0,) + ns_u), np.cumsum((0,) + ns_w)
    T = np.zeros((hi - lo + 1, sum(ns_u), sum(ns_w)), dtype=np.int64)
    for a in range(3):
        for e in range(3):
            for q, f in F0pi[a][e].items():
                for k in range(ns_u[a]):
                    for m in range(ns_w[e]):
                        if lo <= q + m - k <= hi:
                            T[q + m - k - lo, su[a] + k, sw[e] + m] += f
    return T % p


def _profile_solutions(p, F0pi, ns, qmax, targets):
    """Indices n < p^total, ascending, of the digit vectors x with
    x^T W[q - 1] x = t[q - 1] mod p at q = 1..qmax, one array per target t,
    where W is ``_form_tensor`` of the column with itself over [1, qmax].

    Row n holds the base-p digits of n, lowest first, so n = nl + p^l nh
    splits x into its low half xl (l digits) and its high half xh, and
    x^T W x = xl^T W_ll xl + xh^T W_hh xh + xl^T K xh with
    K = W_lh + W_hl^T.  The two squares are tables over the p^l low and
    the p^h high halves; the cross term is a matrix product, formed for a
    block of high halves at a time, about ``_BLOCK_ENTRIES`` entries, and
    compared with every target before the next block.  A q with W[q - 1] = 0
    is not formed: there B(c, c) is 0 at pi^q.
    """
    import numpy as np

    W = _form_tensor(p, F0pi, ns, ns, 1, qmax)
    live = [q for q in range(qmax) if W[q].any()]
    total = sum(ns)
    l = total // 2
    h = total - l
    Nl, Nh = p ** l, p ** h
    Xl = _digit_rows(np.arange(Nl), p, l).astype(np.int64)
    Xh = _digit_rows(np.arange(Nh), p, h).astype(np.int64)
    low = np.einsum("ni,qij,nj->qn", Xl, W[:, :l, :l], Xl) % p
    high = np.einsum("ni,qij,nj->qn", Xh, W[:, l:, l:], Xh) % p
    cross = np.einsum("ni,qij->qjn", Xl,
                      W[:, :l, l:] + W[:, l:, :l].transpose(0, 2, 1)) % p
    # the block sums are integers of at most `bound`, so the float64 product
    # and sums are exact, and floor(S / p) is exact while bound + p <= 2^53
    bound = 2 * (p - 1) + h * (p - 1) ** 2
    if bound + p > 2 ** 53:
        raise AssertionError("split form exceeds the float64 integer range")
    Xh, low, high, cross = (a.astype(np.float64) for a in (Xh, low, high, cross))
    # a target nonzero where B(c, c) vanishes has no solution
    feasible = [not any(t[q] for q in range(qmax) if q not in live)
                for t in targets]
    rows = max(1, _BLOCK_ENTRIES // Nl)
    hits = [[] for _ in targets]
    for h0 in range(0, Nh, rows):
        Xb = Xh[h0:h0 + rows]
        masks = [np.full((len(Xb), Nl), ok) for ok in feasible]
        S = np.empty((len(Xb), Nl))
        Q = np.empty_like(S)
        for q in live:
            np.matmul(Xb, cross[q], out=S)
            S += high[q, h0:h0 + rows, None]
            S += low[q]
            # S mod p as S - p floor(S / p), in place: no third block array
            np.divide(S, p, out=Q)
            np.floor(Q, out=Q)
            Q *= p
            S -= Q
            for m, t in zip(masks, targets):
                m &= S == t[q]
        for hs, m in zip(hits, masks):
            hs.append(np.flatnonzero(m) + h0 * Nl)
    return [np.concatenate(hs) for hs in hits]


def _column_candidates(p, F0pi, D, budget):
    """Digit arrays, one per column b, of the columns with B(c, c) = F0[b][b].

    F0pi holds the entries of F0 as {pi-exponent: coefficient}
    (``_laurent_pi_coeffs``).  D[a][b] is the pi-degree bound of entry
    (a, b); negative means the entry is identically zero.  Returns
    [(digit matrix, per-entry digit counts)] for b = 0, 1, 2.  Row n of the
    p^total candidates holds the base-p digits of n, lowest first; the int16
    rows of the solutions are kept in ascending n.  Every column's budget is
    checked before anything is allocated.  Columns with equal digit counts
    share one ``_profile_solutions`` pass, which compares the coefficients
    at q >= 1 with each distinct target F0[b][b] and returns only the
    solutions' indices, so only their digit rows are built.
    """
    exps = [q for row in F0pi for d in row for q in d]
    dmax = max(max(row) for row in D)
    lo = min(exps) - dmax
    hi = max(exps) + dmax
    qmax = max(hi, 1 - lo)
    profiles = {}
    for b in range(3):
        ns = tuple(max(D[a][b] + 1, 0) for a in range(3))
        N = p ** sum(ns)
        if N > budget:
            raise ValueError("column candidate space %d exceeds budget %d"
                             % (N, budget))
        target = tuple(F0pi[b][b].get(q, 0) for q in range(1, qmax + 1))
        profiles.setdefault(ns, {}).setdefault(target, []).append(b)
    out = [None] * 3
    for ns, targets in profiles.items():
        sols = _profile_solutions(p, F0pi, ns, qmax, list(targets))
        for cols, n in zip(targets.values(), sols):
            digs = _digit_rows(n, p, sum(ns))
            for b in cols:
                out[b] = (digs, ns)
    return out


def _digits_to_terms(row, ns):
    """One digit row back to a column of three entries' Laurent terms."""
    out = []
    pos = 0
    for n in ns:
        out.append(laurent_from_pi_digits([int(d) for d in row[pos:pos + n]], 0))
        pos += n
    return tuple(out)


def _pair_form(p, F0pi, ns_u, ns_w, target):
    """The constraint B(u, w) = target on columns u, w with digit counts
    ns_u, ns_w: ``_form_tensor`` over the window of pi-exponents that
    B(u, w) can reach and the target's coefficient vector on that window,
    or None when the target has a coefficient outside it."""
    import numpy as np

    exps = [q for row in F0pi for d in row for q in d]
    lo = min(exps) - (max(ns_u) - 1)
    hi = max(exps) + (max(ns_w) - 1)
    if any(q < lo or q > hi for q in target):
        return None
    tvec = np.zeros(hi - lo + 1, dtype=np.int64)
    for q, f in target.items():
        tvec[q - lo] = f
    return _form_tensor(p, F0pi, ns_u, ns_w, lo, hi), tvec


def _linear_pair_filter(p, form, fixed_row, digs):
    """Mask of the candidate columns w, rows of digs, with B(u, w) = target
    for the fixed column u, given by its digit row, and form = (T, target
    vector) of ``_pair_form``; a form of None refuses every w.

    For a fixed u the constraint is linear in the digits of w: L = x_u^T T
    mod p, and one int64 product digs L^T gives every coefficient of the
    window.  Each sum has one term below p^2 per digit of a column.
    """
    import numpy as np

    if form is None:
        return np.zeros(len(digs), dtype=bool)
    T, tvec = form
    L = (fixed_row @ T) % p
    return np.all((digs @ L.T) % p == tvec, axis=1)


def _residues(digs, ns):
    """The pi^0 digit of each entry of every digit row (0 for a zero entry)."""
    import numpy as np

    out = np.zeros((len(digs), 3), dtype=np.int64)
    pos = 0
    for a, n in enumerate(ns):
        if n:
            out[:, a] = digs[:, pos]
        pos += n
    return out


def stab_exact(v: VertexClass, digit_bound: int = DEFAULT_DIGIT_BOUND,
               column_budget: int = DEFAULT_COLUMN_BUDGET) -> StabReport:
    """All building isometries with Laurent entries stabilizing v, mod homothety.

    Enumerates alpha in GL3(O) with Laurent entries and alpha* F0 alpha = F0
    (F0 the pulled-back form of v); each class of the stabilizer modulo
    homothety has exactly the representatives +-alpha, since the canonical
    basis of v has monomial determinant.  Every reported element is
    re-checked independently: unitary, and fixes v.  It is Laurent by
    construction, a product of matrices held as Laurent terms.

    Each column c_b is first enumerated against B(c_b, c_b) = F0[b][b] by
    ``_column_candidates``.  Columns with the same digit counts share one
    pass, and only the coefficients at pi^q, q >= 1, are formed and
    compared: F0* = t F0 (checked here) makes the coefficients at pi^q and
    pi^(1-q) of B(c, c) equal.  Each coefficient is a quadratic form in the
    digits, a slice of ``_form_tensor``, the one encoding of B on digit
    vectors.  It is split into low-half and high-half tables and a cross
    term that is a matrix product, formed in blocks of high halves of
    bounded size, so the pass needs memory for a block and for the
    solutions, not for all p^total candidates; ``column_budget`` caps
    p^total per column, that is the time of the pass.  The same identity
    F0* = t F0 makes B(c_e, c_b) = F0[e][b] follow from B(c_b, c_e) =
    F0[b][e], so each cross constraint is imposed once.

    Candidates are chosen on integer digits before any matrix is built,
    from the survivors' Laurent terms:
    - one sign per class: for odd p only first-column digit rows whose first
      nonzero digit lies in 1..(p-1)/2 are kept, so exactly one of +-alpha
      (at p = 2 they are equal); the zero column is never in GL3(O);
    - the residue determinant: alpha has entries in O, so nu(det alpha) = 0
      iff the determinant of its pi^0 digits is nonzero mod p;
    - the cross constraints on digits, by ``_linear_pair_filter``, against
      the forms of the pairs (b0, b1), (b0, b2) and (b1, b2), each a
      ``_form_tensor`` over the window B can reach, built once per call.
    Each element's link permutation is read from alpha, which is
    v.canon^-1 g v.canon up to a scalar, by ``conjugated_link_permutation``,
    and so is its order modulo homothety: conjugation maps homotheties to
    homotheties, and alpha has about half the coefficients of g.
    """
    import numpy as np

    p = v.p
    F0 = form_pullback(v)
    if F0.star() != F0.scale(LaurentPoly.term(1, 1, p)):
        raise AssertionError("pulled-back form fails F0* = t F0")
    D = entry_degree_bounds(F0)
    if max(max(row) for row in D) > digit_bound:
        raise ValueError("entry degree bound %d exceeds digit bound %d"
                         % (max(max(row) for row in D), digit_bound))
    F0pi = [[_laurent_pi_coeffs(x) for x in row] for row in F0._laurent_terms()]
    digsets = _column_candidates(p, F0pi, D, column_budget)

    # chain the cross constraints B(c_b, c_e) = F0[b][e], smallest column
    # first; the reversed constraint is implied since F0* = t F0
    b0, b1, b2 = sorted(range(3), key=lambda b: len(digsets[b][0]))
    (digs0, ns0), (digs1, ns1), (digs2, ns2) = (digsets[b] for b in (b0, b1, b2))
    # one sign per +-pair: the first nonzero digit of column b0 in 1..(p-1)/2
    nonzero = digs0 != 0
    first = digs0[np.arange(len(digs0)), nonzero.argmax(axis=1)]
    digs0 = digs0[nonzero.any(axis=1) & (first <= max((p - 1) // 2, 1))]
    res0, res1, res2 = (_residues(d, n) for d, n in
                        ((digs0, ns0), (digs1, ns1), (digs2, ns2)))
    form01, form02, form12 = (_pair_form(p, F0pi, nu, nw, F0pi[b][e]) for
                              b, nu, e, nw in ((b0, ns0, b1, ns1), (b0, ns0, b2, ns2),
                                               (b1, ns1, b2, ns2)))
    M = v.canon
    Minv = M.inverse()
    found = []
    for row0, r0 in zip(digs0, res0.tolist()):
        mask1 = _linear_pair_filter(p, form01, row0, digs1)
        mask2a = _linear_pair_filter(p, form02, row0, digs2)
        digs2a, res2a = digs2[mask2a], res2[mask2a]
        for row1, r1 in zip(digs1[mask1], res1[mask1].tolist()):
            # up to sign, det(alpha) mod pi = (r0 x r1) . r2
            cross = [c % p for c in _cross(r0, r1)]
            if not any(cross):
                continue
            mask2 = _linear_pair_filter(p, form12, row1, digs2a)
            mask2 &= (res2a @ cross) % p != 0
            for row2 in digs2a[mask2]:
                bycol = {b0: _digits_to_terms(row0, ns0),
                         b1: _digits_to_terms(row1, ns1),
                         b2: _digits_to_terms(row2, ns2)}
                alpha = MatrixRF.from_terms(p, tuple(zip(bycol[0], bycol[1],
                                                         bycol[2])))
                # alpha is in GL3(O): the read checks nu(det alpha) = 0
                perm = conjugated_link_permutation(alpha)
                if alpha.star() * F0 * alpha != F0:
                    continue
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
                 for row in g._laurent_terms() for e, c in row)


# ---------------------------------------------------------------------------
# word search

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


def orbit_bfs(start: VertexClass, gens, depth: int, budget: int = 200_000):
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


def orbit_classify(p: int, gens=("x", "y", "u"), radius: int = 1,
                   orbit_depth: int = 6, budget: int = 200_000,
                   stab_reports: bool = True) -> OrbitTable:
    """Partition the radius-ball around [I] into orbits of the gens-group.

    Orbits are labeled by the distinguished representatives they contain:
    the identity vertex (group points), the u-fixed neighbor of [I]
    (n-points), and the tube chain vertices.  Labels never rely on any
    external numbering of vertices.

    link([I]) is enumerated once: the ball is built from it, and every
    ``orbit_bfs`` starts with a table of its own holding the edges that the
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
                    itertools.islice(tube_chain(p), radius)]

    def orbit(rep):
        """The BFS orbit of rep, or {rep} and an incomplete table."""
        nonlocal complete
        try:
            return orbit_bfs(rep, moves, orbit_depth, budget)
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
                rpt = stab_words(rep, ("u", "u1", "h"), depth=3)
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


def verify_relations(p: int = 3):
    """Evaluate the presentation relators mod p; braid-only ones also integrally."""
    if p != 3:
        raise ValueError("the relation list involves u, defined at p = 3 only")
    out = []
    for name, text, braid_only in RELATION_FAMILIES:
        word = _relator_word(text)
        m = word_evaluate(word, p)
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

def _tube_next(level: VertexClass, p: int, exclude, floor: int):
    """The distinguished pair in the link one step farther from the identity.

    Fixed points of the stabilizer image that are not in exclude; the pair
    is returned in canonical order and must be swapped by xyx.  Each fixed
    point w is fixed by every element found here, so |Stab(w)| exceeds
    floor, the larger of |Stab([I])| and |Stab(n-point)|.  |Stab| is
    constant along orbits, so w is neither a group point nor an n-point;
    a search that finds no more than floor elements raises AssertionError.
    """
    rpt = stab_words(level, ("u", "u1", "h"), depth=3)
    if rpt.order <= floor:
        raise AssertionError("word search found %d stabilizer elements, not "
                             "more than the %d of [I] and the n-point"
                             % (rpt.order, floor))
    lk = link(level)
    fixed_idx = set(range(len(lk)))
    for pm in rpt.perms:
        fixed_idx = {i for i in fixed_idx if pm[i] == i}
    cands = [lk[i].vclass for i in sorted(fixed_idx) if lk[i].vclass not in exclude]
    return _swapped_pair(cands, p, lambda a: True)


def tube_chain(p: int = 3):
    """Yield (k, 7^(k), its xyx partner) for k = 1, 2, ..., each level
    computed only when asked for; 7^(1) is ``seven_star``.  The exact
    stabilizer orders of [I] and the n-point, which certify each later
    level, are computed once, when level 2 is asked for."""
    level, partner = seven_star_pair(p)
    yield 1, level, partner
    floor = max(stab_exact(identity_vertex(p)).order,
                stab_exact(n_point_base(p)).order)
    for k in itertools.count(2):
        level, partner = _tube_next(level, p, {level, partner}, floor)
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


def tube_pattern_check(kmax: int = 2, depth: int = 3, p: int = 3):
    """Walk 7^(1) -> ... -> 7^(kmax), word-searching each stabilizer image.

    Level 1 uses exact enumeration; levels >= 2 use word search over
    u, h, alpha_1, ..., alpha_k.  The claimed total order 2*3^(2k+1) is
    recorded for comparison, not asserted.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    out = []
    for k, v, _ in itertools.islice(tube_chain(p), kmax):
        if k == 1:
            rpt = stab_exact(v)
        else:
            gens = ["u", "h"] + ["alpha%d" % i for i in range(1, k + 1)]
            rpt = stab_words(v, gens, depth)
        out.append(TubeLevel(k, v, rpt.image_order, rpt.order,
                             2 * 3 ** (2 * k + 1)))
    return out
