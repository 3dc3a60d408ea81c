"""The polarity engine: a ↦ a^⊥, a ↦ a^⊥⊥, and closed-set enumeration.

Subsets are bit-vectors tied to a carrier (an OrthoSpace or ProductSpace,
anything exposing ``size``, ``full``, ``rows`` and ``labels``).  The closure
system of a relation is the family of biclosure fixpoints, enumerated as the
intersection-closure of the per-atom polar rows plus the full set.  The
kernel closes a family on the side of its sets, one seed at a time; once
as many seeds as atoms have added sets and another would, it closes the
atoms' columns instead.  A relation's rows never get that far.
"""

from __future__ import annotations

import os
from functools import cached_property

from . import _kernel
from .bits import REVERSED_BYTES, ids

DEFAULT_SET_LIMIT = 5_000_000
BRUTE_FORCE_ATOM_LIMIT = 20


def atom_limit() -> int:
    raw = os.environ.get("PLAT_LIMIT_ATOMS", "64")
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(
            f"PLAT_LIMIT_ATOMS must be a positive integer, not {raw!r}")
    return int(raw)


class CarrierMismatchError(ValueError):
    """Operands live on different carriers."""


class NotClosedError(ValueError):
    """A lattice operation received an operand outside the closure system."""


class EnumerationLimitError(ValueError):
    """Carrier or closure system exceeds the configured enumeration limit."""


def _same_carrier(s1, s2) -> bool:
    return s1 is s2 or s1 == s2


class AtomSubset:
    """A subset of a carrier's atoms, as a bit-vector plus carrier identity."""

    __slots__ = ("bits", "space")

    def __init__(self, space, bits: int):
        if type(bits) is not int:
            raise ValueError(f"bits must be an int, not {bits!r}")
        if not 0 <= bits <= space.full:
            raise ValueError("bits outside carrier range")
        self.space = space
        self.bits = bits

    @classmethod
    def from_indices(cls, space, indices) -> "AtomSubset":
        bits = 0
        for i in indices:
            if type(i) is not int or not 0 <= i < space.size:
                raise ValueError(f"atom index out of range: {i}")
            bits |= 1 << i
        return cls(space, bits)

    @classmethod
    def empty(cls, space) -> "AtomSubset":
        return cls(space, 0)

    @classmethod
    def universe(cls, space) -> "AtomSubset":
        return cls(space, space.full)

    def indices(self):
        return ids(self.bits)

    def cardinality(self) -> int:
        return self.bits.bit_count()

    def _check(self, other: "AtomSubset"):
        if not _same_carrier(self.space, other.space):
            raise CarrierMismatchError("subsets belong to different carriers")

    def __and__(self, other):
        self._check(other)
        return AtomSubset(self.space, self.bits & other.bits)

    def __or__(self, other):
        self._check(other)
        return AtomSubset(self.space, self.bits | other.bits)

    def __sub__(self, other):
        self._check(other)
        return AtomSubset(self.space, self.bits & ~other.bits)

    def complement(self):
        return AtomSubset(self.space, self.space.full ^ self.bits)

    def __le__(self, other):
        self._check(other)
        return self.bits & ~other.bits == 0

    def __lt__(self, other):
        return self <= other and self.bits != other.bits

    def __contains__(self, atom: int) -> bool:
        return bool(self.bits >> atom & 1)

    def __eq__(self, other):
        return (isinstance(other, AtomSubset) and self.bits == other.bits
                and _same_carrier(self.space, other.space))

    def __hash__(self):
        return hash(self.bits)

    def __repr__(self):
        names = [self.space.labels[i] for i in self.indices()]
        return "{" + ",".join(names) + "}"


def _on_carrier(space, a: AtomSubset, kernel_op) -> AtomSubset:
    if not _same_carrier(space, a.space):
        raise CarrierMismatchError("subset does not belong to this carrier")
    return AtomSubset(space, kernel_op(space.rows, a.bits, space.full))


def polar(space, a: AtomSubset) -> AtomSubset:
    """Atoms related to every atom of ``a``; polar(∅) = Σ."""
    return _on_carrier(space, a, _kernel.polar)


def biclosure(space, a: AtomSubset) -> AtomSubset:
    """polar∘polar: extensive, monotone and idempotent."""
    return _on_carrier(space, a, _kernel.biclosure)


def _tie_key(carrier):
    # canonical order within one size: a precedes b iff the lowest atom of
    # a ^ b is in a, so compare the complements read from atom 0 up
    # (bit-reversed little-endian bytes)
    full, width = carrier.full, (carrier.size + 7) // 8
    return lambda m: (full ^ m).to_bytes(width, "little").translate(
        REVERSED_BYTES)


def canonical_order(carrier, sets):
    """Masks on ``carrier`` sorted in canonical order: by cardinality, then
    by the ascending index tuple."""
    masks = sorted(sets, key=_tie_key(carrier))
    masks.sort(key=int.bit_count)  # stable: ties keep the order above
    return masks


def canonical_first(carrier, sets, pred=None):
    """The first member m of ``sets`` in canonical order with pred(m), or
    with no test when pred is None; None if there is none.

    One pass, no sort.  A set larger than the best hit so far comes after
    it, and so does one of the same size whose lowest atom is higher, so
    pred is tested only on the rest.  The hits left at the end share their
    size and lowest atom, and ``_tie_key`` orders them."""
    size, low, hits = carrier.size + 1, 0, []
    for m in sets:
        k = m.bit_count()
        if k > size or k == size and m & -m > low:
            continue
        if pred is not None and not pred(m):
            continue
        if k < size or m & -m < low:
            size, low, hits = k, m & -m, [m]
        else:
            hits.append(m)
    if len(hits) > 1:
        return min(hits, key=_tie_key(carrier))
    return hits[0] if hits else None


class ClosureSystem:
    """A fully enumerated intersection-closed family over one carrier.

    The constructor closes its generators, masks within the carrier, under
    intersection, Σ added; ∅ must be in the closure.  The kernel closes
    them on the side of the sets until n generators have each added sets;
    a further such generator hands the family over to the n atoms'
    columns, bitsets over the generators.  A relation's system (n rows) and
    a family of its closed sets (whose irreducibles are among those rows)
    never hand over.  More than
    ``DEFAULT_SET_LIMIT`` closed sets raise EnumerationLimitError.
    ``sets`` holds the closed sets, unordered; membership tests read it.
    ``masks``, the closed sets in canonical order (cardinality, then the
    ascending index tuple), is built on first use; a caller that needs a
    few sets in that order sorts them with ``canonical_order``, and one
    that needs the first member with a property finds it in one pass over
    ``sets`` with ``canonical_first``.
    The constructor builds an explicit family (e.g. traces of subspaces);
    only ``enumerate_closed`` and ``brute_force_closed`` build a carrier's
    relation system, whose joins are biclosures.  Such a system also keeps
    ``polars``, the table m ↦ m^⊥ of its members, built on first use; the
    lattice analyses read ⊥ from it by lookup.

    Order queries read the generator context (Σ, G, ∈), whose concept
    lattice the system is (Ganter & Wille, *Formal Concept Analysis*,
    1999), built on the first such query: G, the distinct generators but
    Σ (a relation's distinct polar rows, however it was enumerated), and
    cols[p], the bitset of the generators holding atom p (n × |G| bits).
    Every member is the meet of the generators containing it, so:

    - explicit ``join_mask(u)``: polar over cols, then over G;
    - ``atoms()``: one ``join_mask`` per atom;
    - ``coatoms()``, ``meet_irreducibles()``: a polar per generator;
    - ``covers(a, b)``: one ``join_mask`` per atom of b∖a.

    None sorts ``masks``; the lists come in canonical order.
    """

    def __init__(self, carrier, generators):
        self.carrier = carrier
        self._of_relation = False  # set by _relation_system only
        gens = frozenset(generators)
        # checked before closing: the kernel would cut a mask down to Σ
        if min(gens, default=0) < 0 or max(gens, default=0) > carrier.full:
            raise ValueError("closure system has a set outside the carrier")
        try:
            self.sets = frozenset(_kernel.intersection_closure(
                gens, carrier.full, DEFAULT_SET_LIMIT))
        except ValueError as exc:
            raise EnumerationLimitError(
                f"{exc}; raise the limit by setting "
                "platlab.closure.DEFAULT_SET_LIMIT") from None
        if 0 not in self.sets:
            raise ValueError("closure system must contain ∅")
        self._gens = gens

    @cached_property
    def masks(self):
        return canonical_order(self.carrier, self.sets)

    def __len__(self):
        return len(self.sets)

    def __iter__(self):
        return (AtomSubset(self.carrier, m) for m in self.masks)

    def __contains__(self, a) -> bool:
        return self._mask(a) in self.sets

    def subset(self, mask: int) -> AtomSubset:
        return AtomSubset(self.carrier, mask)

    def _mask(self, a) -> int:
        """The mask of an int, or of an AtomSubset on this carrier."""
        if isinstance(a, AtomSubset):
            if not _same_carrier(a.space, self.carrier):
                raise CarrierMismatchError(
                    "operand does not belong to this system's carrier")
            return a.bits
        return a

    def _operand(self, a) -> int:
        a = self._mask(a)
        if a not in self.sets:
            raise NotClosedError(f"operand is not a closed set: {a:#x}")
        return a

    def meet(self, a, b) -> AtomSubset:
        return self.subset(self._operand(a) & self._operand(b))

    def join(self, a, b) -> AtomSubset:
        return self.subset(self.join_mask(self._operand(a) | self._operand(b)))

    def is_system_of(self, space) -> bool:
        """True iff enumerate_closed/brute_force_closed built it from space."""
        return self._of_relation and _same_carrier(self.carrier, space)

    @cached_property
    def polars(self):
        """{m: m^⊥} for every member of a relation's own system.

        ⊥ is an involution on the closed sets of a symmetric relation
        (m^⊥ is closed and m^⊥⊥ = m), so one kernel polar fills the table
        at m and at m^⊥.  An explicit family has no ⊥ of its own:
        CarrierMismatchError."""
        if not self._of_relation:
            raise CarrierMismatchError(
                "polars needs the closure system of the carrier's relation")
        rows, full = self.carrier.rows, self.carrier.full
        table = {}
        for m in self.sets:
            if m not in table:
                pm = _kernel.polar(rows, m, full)
                table[m], table[pm] = pm, m
        return table

    @cached_property
    def _context(self):
        gens = set(self.carrier.rows) if self._of_relation else self._gens
        gens = tuple(sorted(gens - {self.carrier.full}))
        return gens, _kernel.columns(gens, self.carrier.size)

    def _above(self):
        """(g, the index bitset of the generators h ⊋ g) per generator g."""
        gens, cols = self._context
        top = (1 << len(gens)) - 1
        return [(g, _kernel.polar(cols, g, top) ^ 1 << j)
                for j, g in enumerate(gens)]

    def join_mask(self, u: int) -> int:
        """The least member containing an arbitrary mask u: the biclosure
        on a relation system; else the meet of the generators ⊇ u (Σ if
        none), two kernel polars over the generator context."""
        if self._of_relation:
            return _kernel.biclosure(self.carrier.rows, u, self.carrier.full)
        gens, cols = self._context
        return _kernel.polar(gens, _kernel.polar(
            cols, u, (1 << len(gens)) - 1), self.carrier.full)

    def covers(self, a, b) -> bool:
        """True iff b covers a: a ⊊ b with no closed set strictly between.
        That holds iff a ∨ p = b for every atom p ∈ b∖a: a closed c strictly
        between holds such a p, and then a ∨ p ⊆ c."""
        am, bm = self._operand(a), self._operand(b)
        if am & ~bm or am == bm:
            raise ValueError("covers() requires a ⊊ b")
        return all(self.join_mask(am | 1 << p) == bm for p in ids(bm & ~am))

    def atoms(self):
        """Minimal nonzero members, in canonical order.  With least[p] =
        join_mask(1 << p), the least member holding atom p, a nonzero
        member c contains least[q] for each q ∈ c, so it is minimal iff
        all of them are c."""
        least = [self.join_mask(1 << p) for p in range(self.carrier.size)]
        return canonical_order(self.carrier, [
            c for c in set(least) if all(least[q] == c for q in ids(c))])

    def coatoms(self):
        """Maximal proper members, in canonical order: the generators that
        no generator strictly contains.  A coatom is meet-irreducible, so
        a generator; a proper member above a generator g is the meet of
        the generators that contain it, each of them ⊋ g."""
        return canonical_order(self.carrier,
                               [g for g, up in self._above() if not up])

    def meet_irreducibles(self):
        """The members m ≠ Σ that are not the meet of the members above
        them, in canonical order: the g ∈ G with ∩{h ∈ G : h ⊋ g} ≠ g.  A
        proper member outside G is the meet of the generators containing
        it; the members above g are meets of the generators ⊋ g."""
        gens = self._context[0]
        return canonical_order(self.carrier, [
            g for g, up in self._above()
            if _kernel.polar(gens, up, self.carrier.full) != g])


def enumerate_closed(space) -> ClosureSystem:
    """Enumerate {a : a^⊥⊥ = a} as the intersection-closure of the polar
    rows plus Σ (valid because a^⊥ = ∩_{p∈a} p^⊥)."""
    limit = atom_limit()
    if space.size > limit:
        raise EnumerationLimitError(
            f"carrier has {space.size} atoms, enumeration limit is {limit}; "
            "raise it with PLAT_LIMIT_ATOMS")
    return _relation_system(space, space.rows)


def brute_force_closed(space) -> ClosureSystem:
    """Oracle enumeration: filter all 2^Σ subsets by biclosure(a) = a.

    Exponential; only for cross-checking enumerate_closed on small carriers.
    """
    if space.size > BRUTE_FORCE_ATOM_LIMIT:
        raise EnumerationLimitError(
            f"brute force limited to {BRUTE_FORCE_ATOM_LIMIT} atoms; raise "
            "it by setting platlab.closure.BRUTE_FORCE_ATOM_LIMIT")
    rows, full, n = space.rows, space.full, space.size
    masks = [m for m in range(1 << n)
             if _kernel.biclosure(rows, m, full) == m]
    return _relation_system(space, masks)


def _relation_system(space, masks) -> ClosureSystem:
    sys = ClosureSystem(space, masks)  # the only relation-system marker
    sys._of_relation = True
    return sys


def dump_system(sys: ClosureSystem) -> str:
    """Canonical text dump: header '<atoms> <count>', then one lowercase hex
    bit-vector per closed set in canonical order."""
    width = (sys.carrier.size + 3) // 4
    lines = [f"{sys.carrier.size} {len(sys)}"]
    lines += [format(m, f"0{width}x") for m in sys.masks]
    return "\n".join(lines) + "\n"
