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
    """All intersections of subfamilies of ``seeds`` plus ``full``.

    BFS over new sets, intersecting each against every distinct seed.  Raises
    ValueError when more than ``max_sets`` sets appear (0 = unlimited).
    """
    uniq = sorted(set(seeds))
    out = {full}
    frontier = [full]
    while frontier:
        nxt = []
        for x in frontier:
            for s in uniq:
                y = x & s
                if y not in out:
                    out.add(y)
                    nxt.append(y)
                    if max_sets and len(out) > max_sets:
                        raise ValueError(
                            f"closure enumeration exceeded {max_sets} sets")
        frontier = nxt
    return sorted(out)
