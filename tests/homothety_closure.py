"""The group that matrices generate modulo homothety, by closing them under
products: the test of whether words in x, y and u reach an exact
stabilizer."""

from buraubuilding.groupcalc import normalize_mod_homothety


def closure_mod_homothety(mats):
    """The classes modulo homothety (``normalize_mod_homothety``) of every
    product of the given matrices.  The matrices must lie in a finite group
    modulo homothety, such as the stabilizer of a vertex, where the products
    are the whole group they generate."""
    gens = [normalize_mod_homothety(m) for m in mats]
    seen = set(gens)
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = normalize_mod_homothety(a * g)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen
