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

    The seeds that add sets are counted.  Once n = ``full.bit_length()``
    have been added, a further seed outside F hands the family over: the
    n atom columns, over the seeds added and the seeds still outside F, are
    closed instead (``_close_columns``).  At most n distinct seeds, such as
    a relation's polar rows, never get that far.  The switch counts seeds
    added, not seeds given: a closed family adds only its
    meet-irreducibles, which on a relation's closed sets are among its n
    polar rows, so ``brute_force_closed`` and a relation's closed family
    rebuilt as an explicit system never hand over, where the columns would
    be as wide as the family.
    """
    n = full.bit_length()
    out = {full}
    added = []
    rest = iter(sorted(set(seeds), reverse=True))
    for s in rest:
        if s in out:
            continue
        if len(added) == n:
            gens = added + [s] + [t for t in rest if t not in out]
            return _close_columns(gens, full, max_sets)
        added.append(s)
        out |= {x & s for x in out}
        if max_sets and len(out) > max_sets:
            raise ValueError(f"closure enumeration exceeded {max_sets} sets")
    return out


def columns(sets, n):
    """The transposed context of ``sets``, masks on the atoms 0 … n − 1:
    for each atom p, the bitset of the indices j with p ∈ sets[j]."""
    cols = [0] * n
    for j, m in enumerate(sets):
        bit = 1 << j
        while m:
            low = m & -m
            cols[low.bit_length() - 1] |= bit
            m ^= low
    return cols


def _close_columns(gens, full, max_sets):
    """The intersection closure of ``gens`` plus ``full``, closed on the
    side of the atoms of ``full``.

    In the context whose objects are the atoms and whose attributes are
    the generators, the column i′ of atom i is the bitset of the
    generators that hold i (``columns``), and for a generator set d, ext d =
    polar(gens, d, full) is the intersection of the generators in d
    (``full`` for d = ∅).  Closing the columns, plus the set of all
    generators, gives the sets A′ = ∩{i′ : i ∈ A} over the atom sets A:
    the closed generator sets, those with d = (ext d)′.  Polar maps them
    bijectively onto the atom-side family {ext d : d any generator set}:
    onto, since ext d = ext d″ and d″ is closed, and one-to-one, since a
    closed d is (ext d)′.  So the two families give the same sets and
    have the same size; both closures grow monotonically to that size, so
    ``max_sets`` raises on one side exactly when it raises on the other.
    The inner closure never hands over again: its at most n seeds are
    fewer than its len(gens) > n atoms.

    Each extent is read off at most two generators where that is exact.
    Let j₁ < j₂ be the lowest generators in a closed d, and c = g_j₁ ∩
    g_j₂ ∩ full (g_j₁ ∩ full if d has one generator, ``full`` if none).
    Then c ⊇ ext d, the meet of all of d's generators, with equality when
    d has at most two.  If c′ = d, every atom of c lies in every generator
    of d, so c ⊆ ext d and c = ext d.  Only when c′ ≠ d is ext d
    computed generator by generator.  c′ ANDs |c| columns where ext d
    ANDs |d| generators, and a small extent has a large d: at q = 7 the
    tensor traces of 2 atoms have 8 generators, and all but 65 of the
    2,050 extents are read off.
    """
    cols = columns([g & full for g in gens], full.bit_length())
    top = (1 << len(gens)) - 1
    # only the atoms of full are objects of the context
    closed = intersection_closure(
        [c for i, c in enumerate(cols) if full >> i & 1], top, max_sets)
    out = set()
    for d in closed:
        rest = d & (d - 1)
        ext = full
        if d:
            ext &= gens[(d ^ rest).bit_length() - 1]
        if rest:
            ext &= gens[(rest & -rest).bit_length() - 1]
            if rest & (rest - 1) and polar(cols, ext, top) != d:
                ext = polar(gens, d, full)
        out.add(ext)
    return out
