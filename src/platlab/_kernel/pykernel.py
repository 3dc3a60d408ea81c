"""Pure-Python closure kernel.

Subsets of atoms are plain ints used as bit-vectors, so this kernel has no
width limit.
"""

IMPLEMENTATION = "python"


def polar(rows, mask, full):
    """Intersect the polar rows of every atom set in ``mask``.

    ``rows[i]`` is the set of atoms related to atom ``i``.  The polar of the
    empty set is the full atom set.
    """
    out = full
    m = mask
    while m:
        low = m & -m
        out &= rows[low.bit_length() - 1]
        if not out:
            # still consume m so the ∅-result short-circuit is exact
            return 0
        m ^= low
    return out


def biclosure(rows, mask, full):
    return polar(rows, polar(rows, mask, full), full)


def intersection_closure(seeds, full, max_sets=0):
    """All intersections of subfamilies of ``seeds`` plus ``full``, as a set.

    Adds one seed at a time: if F is intersection-closed and holds ``full``,
    F ∪ {x ∩ s : x ∈ F} is the closure of F ∪ {s}.  Larger seeds go first, so
    a seed that is an intersection of earlier ones is already in F and costs
    one lookup.  Raises ValueError when more than ``max_sets`` sets appear
    (0 = unlimited); the count is checked after each seed.
    """
    out = {full}
    for s in sorted(set(seeds), reverse=True):
        if s in out:
            continue
        out |= {x & s for x in out}
        if max_sets and len(out) > max_sets:
            raise ValueError(f"closure enumeration exceeded {max_sets} sets")
    return out
