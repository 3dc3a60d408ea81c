"""Structural analysis of enumerated closure systems.

Covering property, orthomodularity, center and central covers,
automorphism search, transitivity, and existence of an orthocomplementation.
All witnesses are lexicographically minimal in the canonical closed-set
order, so reports are deterministic.  The analyses that read ⊥ need the
closure system of the carrier's own relation (CarrierMismatchError if not),
and read the polar of a closed set from its table ``polars``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice

from .bits import ids
from .closure import (CarrierMismatchError, ClosureSystem,
                      EnumerationLimitError, _same_carrier, canonical_first,
                      canonical_order)
from .orthospace import Verdict

AUTOMORPHISM_SEARCH_LIMIT = 16
ORTHOCOMPLEMENT_SEARCH_LIMIT = 1000
GROUP_SIZE_LIMIT = 1_000_000


@dataclass(frozen=True)
class PermutationGroup:
    degree: int
    elements: tuple

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def compose(p, q):
    """(p∘q)(i) = p(q(i))."""
    return tuple(map(p.__getitem__, q))


def is_permutation(u, degree) -> bool:
    """True iff u lists each of the atoms 0..degree-1 once, as ints; a
    float or a bool equal to an index is not one, nor is a non-iterable."""
    try:
        entries = list(u)
    except TypeError:
        return False
    return (all(isinstance(x, int) and not isinstance(x, bool)
                for x in entries)
            and sorted(entries) == list(range(degree)))


def invert(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def apply_perm_mask(perm, mask):
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def is_closed_group(elements, degree) -> bool:
    es = set(elements)
    if tuple(range(degree)) not in es:
        return False
    return all(invert(p) in es for p in es) and all(
        compose(p, q) in es for p in es for q in es)


def close_group(generators, degree):
    """Group generated by ``generators``: their products, as a finite set
    of permutations closed under composition is a group.  A generator that
    is not a permutation of 0..degree-1 raises ValueError."""
    gens = []
    for g in generators:
        if not is_permutation(g, degree):
            raise ValueError(f"generator {g!r} is not a bijection on "
                             f"{degree} atoms")
        gens.append(tuple(g))
    ident = tuple(range(degree))
    seen = {ident}
    queue = [ident]  # grows as it is read: every product is extended once
    for p in queue:
        for g in gens:
            r = compose(g, p)
            if r not in seen:
                seen.add(r)
                queue.append(r)
                _check_group_size(len(seen), "generated group")
    return sorted(seen)


def _check_group_size(size, what):
    if size > GROUP_SIZE_LIMIT:
        raise EnumerationLimitError(
            f"{what} exceeds {GROUP_SIZE_LIMIT} elements; raise it by "
            "setting platlab.lattice.GROUP_SIZE_LIMIT")


def covering_property(sys: ClosureSystem) -> Verdict:
    """Does a ∨ p cover a for every closed a and atom p ∉ a?

    On failure the witness is the minimal (a, p, intermediate c), with c the
    first in canonical order of the closed sets strictly between a and
    b = a ∨ p.  Every such c of least size is a ∨ r for each of its atoms
    r ∉ a, and every a ∨ r ≠ b with r ∈ b∖a is a member strictly between,
    so c is read off the joins a ∨ r: n − |a| ``join_mask`` calls, made on
    the first failing a only.

    Covering holds at a iff, for every join value b, the class of the
    atoms r ∉ a with a ∨ r = b is all of b∖a.  The class lies in b∖a, as
    r ∈ a ∨ r.  If b covers a, each s ∈ b∖a has a ⊊ a ∨ s ⊆ b, so
    a ∨ s = b.  If a closed c lies strictly between a and b, an s ∈ c∖a
    has a ∨ s ⊆ c ≠ b though s ∈ b∖a.

    On a relation's own system the classes are counted, with no join.  Let
    P = ``sys.polars`` and, for an atom r, key(r) = a^⊥ ∩ r^⊥, a closed
    set.  key(r) = a^⊥ iff a^⊥ ⊆ r^⊥, iff r ∈ a^⊥⊥ = a (⊥ is symmetric),
    so the key a^⊥ collects exactly the atoms of a.  For r ∉ a,
    a ∨ r = (a ∪ {r})^⊥⊥ = (a^⊥ ∩ r^⊥)^⊥ = P[key(r)], and P is one to one,
    so the class of b = a ∨ r is the atoms with key b^⊥, and it lies in
    P[key]∖a.  Covering holds at a iff every key but a^⊥ counts
    |P[key]∖a| atoms: one ``Counter`` over the n rows per a.  An explicit
    family makes its joins, n − |a| ``join_mask`` calls per a, and counts
    the atoms r of each join value b against |b∖a| the same way.
    """
    carrier = sys.carrier
    full = carrier.full
    if sys.is_system_of(carrier):
        P, rows = sys.polars, carrier.rows
        for am in sys.masks:
            pa = P[am]
            counts = Counter(map(pa.__and__, rows))
            counts.pop(pa, None)  # the atoms of a
            if any(k != (P[key] & ~am).bit_count()
                   for key, k in counts.items()):
                return _covering_witness(carrier, am, {
                    r: sys.join_mask(am | 1 << r) for r in ids(full ^ am)})
        return Verdict(True, None)
    for am in sys.masks:
        joins = {r: sys.join_mask(am | 1 << r) for r in ids(full ^ am)}
        if any(k != (bm & ~am).bit_count()
               for bm, k in Counter(joins.values()).items()):
            return _covering_witness(carrier, am, joins)
    return Verdict(True, None)


def _covering_witness(carrier, am, joins) -> Verdict:
    """The failure at a, from its joins {r: a ∨ r}: the first p whose join
    b has members strictly between, and the first of those, a join a ∨ r
    with r ∈ b∖a."""
    for p, bm in joins.items():
        between = {joins[r] for r in ids(bm & ~am)} - {bm}
        if between:
            return Verdict(False, (ids(am), p,
                                   ids(canonical_first(carrier, between))))


def _require_own_system(space, sys: ClosureSystem):
    # the polarity analyses read ⊥ from sys.polars and space's rows
    if not sys.is_system_of(space):
        raise CarrierMismatchError(
            "the analysis needs the closure system of the carrier's relation")


def orthomodularity(space, sys: ClosureSystem) -> Verdict:
    """b = a ∨ (b ∧ a^⊥) for all closed a ⊆ b; minimal (a, b) on failure.

    The verdict is decided in the Foulis–Holland form (Kalmbach,
    *Orthomodular Lattices*, 1983, ch. 2): an ortholattice is orthomodular
    iff no closed b ⊋ a has b ∩ a^⊥ = ∅.  Such a b exists iff some atom
    r ∉ a ∪ a^⊥ has (a ∨ r) ∩ a^⊥ = ∅, with a ∨ r = (a^⊥ ∩ r^⊥)^⊥: a ∨ r
    is one such b, and for a given b any r ∈ b∖a has a ∨ r ⊆ b.  That is
    at most n + 1 lookups in ``sys.polars`` per closed a, and no polar.

    Only when it fails is the minimal pair found, by a scan in canonical
    order that skips the pairs where the law holds by definition: a = ∅
    (b ∨ ∅ = b), b = a (a ∧ a^⊥ = ∅, the relation being anti-reflexive)
    and b = Σ (a ∨ a^⊥ = Σ).  A b ⊋ a is larger, so it comes after a in
    canonical order, and Σ comes last; the first failing pair is
    unchanged.  Each pair's join a ∨ (b ∩ a^⊥) = (a^⊥ ∩ (b ∩ a^⊥)^⊥)^⊥ is
    two lookups in ``sys.polars``, as b ∩ a^⊥ and a^⊥ ∩ (b ∩ a^⊥)^⊥ are
    closed.
    """
    _require_own_system(space, sys)
    if not _has_foulis_holland_pair(space, sys):
        return Verdict(True, None)
    P, inner = sys.polars, sys.masks[1:-1]
    for i, am in enumerate(inner):
        pa = P[am]
        for bm in islice(inner, i + 1, None):
            if am & ~bm:
                continue
            if P[pa & P[bm & pa]] != bm:
                return Verdict(False, (ids(am), ids(bm)))
    return Verdict(True, None)


def _has_foulis_holland_pair(space, sys) -> bool:
    """True iff some closed a has an atom r ∉ a ∪ a^⊥ with
    (a ∨ r) ∩ a^⊥ = ∅, that is, iff the law of ``orthomodularity``
    fails; a^⊥ and a ∨ r = (a^⊥ ∩ r^⊥)^⊥ are read from ``sys.polars``."""
    P, rows, full = sys.polars, space.rows, space.full
    for am, pa in P.items():
        for r in ids(full & ~(am | pa)):
            if not P[pa & rows[r]] & pa:
                return True
    return False


def center(sys: ClosureSystem, space):
    """Central elements: the closed z with z^⊥ = Σ∖z.

    The definition also asks (x, y) ↦ x ∨ y to be a bijection
    [0,z]×[0,Σ∖z] → the whole system; that is never checked, because if
    z^⊥ = Σ∖z, every atom of z is orthogonal to all of Σ∖z and, the relation
    being symmetric, all of Σ∖z to z, so x ∨ y = x ∪ y.
    """
    _require_own_system(space, sys)
    full, P = space.full, sys.polars
    return [zm for zm in sys.masks if P[zm] == full ^ zm]


def central_cover(sys: ClosureSystem, space, p: int):
    """Meet of all central elements containing atom p."""
    acc = space.full
    for zm in center(sys, space):
        if zm >> p & 1:
            acc &= zm
    return acc


def is_irreducible(sys: ClosureSystem, space) -> bool:
    return len(center(sys, space)) == 2


def automorphisms(space, sys: ClosureSystem, mode="ortho") -> PermutationGroup:
    """Atom permutations preserving the closed-set family, and for
    mode='ortho' additionally commuting with the polarity on atoms.

    Lattice mode accepts any family on the carrier.  Up to
    ``AUTOMORPHISM_SEARCH_LIMIT`` atoms the group is found from a base and
    strong generating set (``_group_elements``), and listed in
    lexicographic order if its order is at most ``GROUP_SIZE_LIMIT``;
    ``close_group`` gives the group that given permutations generate.  Each
    mode has its first-extension search; both place atoms i, i+1, … in
    turn after the fixed 0 … i−1, an atom only on the unplaced atoms of its
    profile, and try a mask of candidates lowest atom first.
    """
    if mode not in ("lattice", "ortho"):
        raise ValueError(f"unknown mode: {mode}")
    if mode == "ortho":
        _require_own_system(space, sys)
    elif not _same_carrier(sys.carrier, space):
        raise CarrierMismatchError("system does not belong to this carrier")
    n = space.size
    if n > AUTOMORPHISM_SEARCH_LIMIT:
        raise EnumerationLimitError(
            f"automorphism search limit {AUTOMORPHISM_SEARCH_LIMIT} exceeded "
            f"for {n} atoms; raise it by setting "
            "platlab.lattice.AUTOMORPHISM_SEARCH_LIMIT")
    extend = (_ortho_search(space.rows) if mode == "ortho"
              else _lattice_search(n, sys.sets))
    return PermutationGroup(n, tuple(_group_elements(n, extend)))


def _group_elements(n, extend):
    """The sorted elements of the group G of the permutations that
    ``extend`` finds: ``extend(i, c)`` returns one that fixes 0 … i−1 and
    sends i to c, or None where G has none.

    Levels i = n−1 down to 0 find the orbit of atom i under G_i, the
    elements fixing 0 … i−1 (Sims' base and strong generating set on the
    base 0, 1, …, n−1).  The generators found so far fix 0 … i and
    generate G_{i+1}; each image c of i outside their orbit of i is asked
    of ``extend``.  A hit joins the generators.  A miss rules out c's orbit
    under them: an element of G_i sending i to a point of it, composed with
    one of them, would send i to c.  So |G| is the product of the orbit
    sizes, checked against ``GROUP_SIZE_LIMIT`` before anything is listed,
    and each element is one product u_0∘u_1∘…∘u_{n−1}, u_i a coset
    representative of G_{i+1} in G_i.
    """
    ident = tuple(range(n))
    gens, transversals, order = [], [], 1
    for i in reversed(range(n)):
        reps = _orbit(i, gens, ident)
        ruled_out = set(reps)
        for c in range(i + 1, n):
            if c in ruled_out:
                continue
            found = extend(i, c)
            if found is None:
                ruled_out.update(_orbit(c, gens, ident))
            else:
                gens.append(found)
                reps = _orbit(i, gens, ident)
                ruled_out.update(reps)
        transversals.append(list(reps.values()))
        order *= len(reps)
    _check_group_size(order, "automorphism group")
    elements = [ident]
    for reps in transversals:  # u_{n−1} first, so u_0 ends on the left
        if len(reps) > 1:
            elements = [compose(u, e) for u in reps for e in elements]
    return sorted(elements)


def _orbit(point, gens, ident):
    """The orbit of ``point`` under the group that ``gens`` generate, each
    point q with a product of generators sending ``point`` to q."""
    reps = {point: ident}
    queue = [point]  # grows as it is read, as in close_group
    for q in queue:
        for g in gens:
            r = g[q]
            if r not in reps:
                reps[r] = compose(g, reps[q])
                queue.append(r)
    return reps


def _class_masks(profiles):
    """For each atom, the atoms of its profile, as a mask."""
    return [sum(1 << q for q, pq in enumerate(profiles) if pq == pr)
            for pr in profiles]


def _ortho_search(rows):
    """The first-extension search for the automorphisms of the graph ⊥,
    profiled by degree |p^⊥|: ``extend(i, c)`` returns the least one that
    fixes 0 … i−1 and sends i to c, or None.  The search starts at atom i
    on the identity prefix, which needs no check, as the identity is an
    automorphism.  The candidates for atom k are ANDed, for each j < k,
    with ``rows[image[j]]`` where k ⊥ j and with its complement where not;
    ⊥ is symmetric, so a complete permutation keeps ⊥."""
    n = len(rows)
    classes = _class_masks([row.bit_count() for row in rows])
    orth_below = [ids(rows[k] & ((1 << k) - 1)) for k in range(n)]
    apart_below = [ids(~rows[k] & ((1 << k) - 1)) for k in range(n)]
    image = [-1] * n

    def extend(i, c):
        def backtrack(k, placed):
            if k == n:
                return tuple(image)
            cand = classes[k] & ~placed
            if k == i:
                cand &= 1 << c
            for j in orth_below[k]:
                cand &= rows[image[j]]
            for j in apart_below[k]:
                cand &= ~rows[image[j]]
            while cand:
                low = cand & -cand
                cand ^= low
                image[k] = low.bit_length() - 1
                found = backtrack(k + 1, placed | low)
                if found:
                    return found
            return None

        image[:i] = range(i)
        return backtrack(i, (1 << i) - 1)

    return extend


def _lattice_search(n, sets):
    """The first-extension search for the permutations of n atoms mapping
    the family ``sets`` into, so onto, itself, profiled by the sorted sizes
    of the sets holding an atom; ``extend`` as in ``_ortho_search``.  The
    sets whose highest atom is k are mapped once k is placed: their parts
    below k once per node, then each candidate's bit is added."""
    classes = _class_masks([
        tuple(sorted(m.bit_count() for m in sets if m >> p & 1))
        for p in range(n)])
    by_top = [[] for _ in range(n)]
    for m in sets:
        if m:
            by_top[m.bit_length() - 1].append(m)
    image = [-1] * n

    def extend(i, c):
        def backtrack(k, placed):
            if k == n:
                return tuple(image)
            cand = classes[k] & ~placed
            if k == i:
                cand &= 1 << c
            below = [apply_perm_mask(image, m ^ 1 << k) for m in by_top[k]]
            while cand:
                low = cand & -cand
                cand ^= low
                if all(pre | low in sets for pre in below):
                    image[k] = low.bit_length() - 1
                    found = backtrack(k + 1, placed | low)
                    if found:
                        return found
            return None

        image[:i] = range(i)
        return backtrack(i, (1 << i) - 1)

    return extend


def is_transitive(group: PermutationGroup) -> bool:
    """True iff the orbit of atom 0, its images under the listed elements
    (a PermutationGroup lists its whole group), is every atom."""
    return (group.degree == 0
            or len({g[0] for g in group.elements}) == group.degree)


def find_orthocomplementation(sys: ClosureSystem, max_elements=None):
    """An order-reversing involution ' with a∧a' = ∅ and a∨a' = Σ, as the
    mapping {mask: mask'}, or None.

    On the closure system of a relation (always symmetric and
    anti-reflexive) the polar map a ↦ a^⊥ is one, with no limit: it is an
    order-reversing involution on the closed sets, a ∧ a^⊥ = ∅ by
    anti-reflexivity, and a ∨ a^⊥ = (a^⊥ ∩ a^⊥⊥)^⊥ = ∅^⊥ = Σ.  The
    answer is a copy of ``sys.polars``.

    A family built by the ``ClosureSystem`` constructor, such as the tensor
    traces, is searched, and only then does ``ORTHOCOMPLEMENT_SEARCH_LIMIT``
    limit the closed sets.  ``max_elements`` overrides that setting for one
    call; it stays only because ``perfbench/make_reference.py`` passes it,
    and goes with the next change to the benchmark.

    An orthocomplementation is a dual automorphism, so it maps the atoms
    onto the coatoms and the join-irreducibles J onto the meet-irreducibles
    M; two count filters run first, read off the generators of the family
    (``ClosureSystem.coatoms``) with no member listed.  Every member a is
    the join of the j ∈ J below it, so a' = ∧{j' : j ≤ a}, and the search
    backtracks over the assignments J → M; the answer is exact on every
    lattice.  On an atomistic lattice J is the atoms.  A table built from
    an assignment is antitone, so it is an orthocomplementation iff it is
    an involution with a ∧ a' = ∅; a ∨ a' = (a' ∧ a)' = ∅' = Σ follows.
    """
    carrier = sys.carrier
    if sys.is_system_of(carrier):
        return dict(sys.polars)  # a copy: the caller may change it
    if max_elements is None:
        max_elements = ORTHOCOMPLEMENT_SEARCH_LIMIT
    if len(sys) > max_elements:
        raise EnumerationLimitError(
            f"system has {len(sys)} elements, search limit {max_elements}; "
            "raise it by setting platlab.lattice.ORTHOCOMPLEMENT_SEARCH_LIMIT")
    if len(sys.atoms()) != len(sys.coatoms()):
        return None
    joins, meets = _irreducibles(sys)
    if len(joins) != len(meets):
        return None

    assign = {}

    def consistent(a, c):
        if a & c:  # a ∧ a' ≠ ∅
            return False
        # b ≤ a' iff a ≤ b', and ' is one to one
        for b, cb in assign.items():
            if ((b & ~c == 0) != (a & ~cb == 0)) or cb == c:
                return False
        return True

    def build_map():
        table = {}
        for m in sys.masks:
            img = sys.carrier.full  # a meet of members, so a member
            for a in joins:
                if a & ~m == 0:
                    img &= assign[a]
            table[m] = img
        for m, im in table.items():
            if table[im] != m or m & im != 0:
                return None
        return table

    def backtrack(k):
        if k == len(joins):
            return build_map()
        a = joins[k]
        for c in meets:
            if consistent(a, c):
                assign[a] = c
                result = backtrack(k + 1)
                if result is not None:
                    return result
                del assign[a]
        return None

    return backtrack(0)


def _irreducibles(sys: ClosureSystem):
    """The join- and the meet-irreducible members, in canonical order, with
    no member listed: ``join_mask`` and ``sys.meet_irreducibles()``.

    Every member is the join of the least members holding its atoms, so a
    join-irreducible is the least member c holding some atom; such a c is
    join-irreducible iff the atoms of c whose least member is not c join to
    less than c.
    """
    least = [sys.join_mask(1 << p) for p in range(sys.carrier.size)]
    joins = [c for c in canonical_order(sys.carrier, set(least))
             if sys.join_mask(sum(1 << q for q in ids(c) if least[q] != c))
             != c]
    return joins, sys.meet_irreducibles()


def analysis_report(space, sys: ClosureSystem) -> dict:
    """Bundle of the structural verdicts, JSON-shaped; ``aut_order`` is None
    where the automorphism search refuses the carrier."""
    _require_own_system(space, sys)
    cov = covering_property(sys)
    om = orthomodularity(space, sys)
    cen = center(sys, space)
    try:
        aut_order = len(automorphisms(space, sys, mode="ortho"))
    except EnumerationLimitError:
        aut_order = None
    oc = find_orthocomplementation(sys)
    return {
        "covering": {"holds": cov.holds, "witness": cov.witness},
        "orthomodular": {"holds": om.holds, "witness": om.witness},
        "center_size": len(cen),
        "irreducible": len(cen) == 2,
        "aut_order": aut_order,
        "orthocomplementation": "none" if oc is None else "found",
    }
