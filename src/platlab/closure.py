"""The polarity engine: a ↦ a^⊥, a ↦ a^⊥⊥, and closed-set enumeration.

Subsets are bit-vectors tied to a carrier (an OrthoSpace or ProductSpace,
anything exposing ``size``, ``full``, ``rows`` and ``labels``).  The closure
system of a relation is the family of biclosure fixpoints, enumerated as the
intersection-closure of the per-atom polar rows plus the full set.
"""

from __future__ import annotations

import os
from functools import cached_property

from . import _kernel
from .bits import ids

DEFAULT_ATOM_LIMIT = 64
DEFAULT_SET_LIMIT = 5_000_000


def atom_limit() -> int:
    return int(os.environ.get("PLAT_LIMIT_ATOMS", DEFAULT_ATOM_LIMIT))


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
        if not 0 <= bits <= space.full:
            raise ValueError("bits outside carrier range")
        self.space = space
        self.bits = bits

    @classmethod
    def from_indices(cls, space, indices) -> "AtomSubset":
        bits = 0
        for i in indices:
            if not 0 <= i < space.size:
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


def polar(space, a: AtomSubset) -> AtomSubset:
    """Atoms related to every atom of ``a``; polar(∅) = Σ."""
    if not _same_carrier(space, a.space):
        raise CarrierMismatchError("subset does not belong to this carrier")
    return AtomSubset(space, _kernel.polar(space.rows, a.bits, space.full))


def biclosure(space, a: AtomSubset) -> AtomSubset:
    """polar∘polar: extensive, monotone and idempotent."""
    return polar(space, polar(space, a))


def _canonical_key(mask: int):
    # cardinality, then lexicographic on the ascending index tuple
    key = ids(mask)
    return len(key), tuple(key)


class ClosureSystem:
    """A fully enumerated intersection-closed family over one carrier.

    ``masks`` holds the closed sets in canonical order (cardinality, then
    the ascending index tuple) and ``index`` maps each one to its position.
    ``from_relation`` systems compute joins via biclosure; explicit families
    (e.g. traces of subspaces) fall back to a least-superset scan, which
    agrees with biclosure whenever both apply.

    Order queries run on an order core built on the first such query: for
    each atom p an int whose bit i is set iff ``masks[i]`` contains p
    (n × |L| bits; the extent of p in the context (Σ, Σ, ⊥)).  A set of
    closed sets is then an index bitset, and with k = |m| and w the length
    in words of an |L|-bit int:

    - ``up_set(m)``, the closed supersets of m: k ANDs of w words;
    - ``down_set(m)``, the closed subsets of m: n − k ORs of w words;
    - ``covers(a, b)``: one ``up_set`` and one ``down_set``;
    - ``coatoms()``: one ``up_set`` per closed set, O(n·|L|·w) in all.

    The build costs one pass over the members of every closed set.
    """

    def __init__(self, carrier, masks, from_relation=True):
        self.carrier = carrier
        self.masks = sorted(set(masks), key=_canonical_key)
        self.index = {m: i for i, m in enumerate(self.masks)}
        self.from_relation = from_relation
        if 0 not in self.index or carrier.full not in self.index:
            raise ValueError("closure system must contain ∅ and Σ")

    def __len__(self):
        return len(self.masks)

    def __iter__(self):
        return (AtomSubset(self.carrier, m) for m in self.masks)

    def __contains__(self, a) -> bool:
        bits = a.bits if isinstance(a, AtomSubset) else a
        return bits in self.index

    def subset(self, mask: int) -> AtomSubset:
        return AtomSubset(self.carrier, mask)

    def _operand(self, a) -> int:
        if isinstance(a, AtomSubset):
            if not _same_carrier(a.space, self.carrier):
                raise CarrierMismatchError(
                    "operand does not belong to this system's carrier")
            a = a.bits
        if a not in self.index:
            raise NotClosedError(f"operand is not a closed set: {a:#x}")
        return a

    def meet(self, a, b) -> AtomSubset:
        return self.subset(self._operand(a) & self._operand(b))

    def join(self, a, b) -> AtomSubset:
        j = self.join_mask(self._operand(a) | self._operand(b))
        if j not in self.index:
            raise NotClosedError("join fell outside the system; "
                                 "the family is not a closure system")
        return self.subset(j)

    def join_mask(self, u: int) -> int:
        """Least closed superset of an arbitrary mask (not required closed)."""
        if self.from_relation:
            return _kernel.biclosure(self.carrier.rows, u, self.carrier.full)
        j = self.carrier.full
        for m in self.masks:
            if m & u == u:
                j &= m
        return j

    @cached_property
    def _columns(self):
        # the order core: bit i of cols[p] is set iff masks[i] contains p
        cols = [0] * self.carrier.size
        for i, m in enumerate(self.masks):
            bit = 1 << i
            while m:
                low = m & -m
                cols[low.bit_length() - 1] |= bit
                m ^= low
        return cols

    def up_set(self, m: int) -> int:
        """Index bitset of the closed supersets of an arbitrary mask m."""
        acc = (1 << len(self.masks)) - 1
        cols = self._columns
        while m:
            low = m & -m
            acc &= cols[low.bit_length() - 1]
            m ^= low
        return acc

    def down_set(self, m: int) -> int:
        """Index bitset of the closed subsets of an arbitrary mask m."""
        hit = 0
        cols = self._columns
        rest = self.carrier.full & ~m
        while rest:
            low = rest & -rest
            hit |= cols[low.bit_length() - 1]
            rest ^= low
        return ((1 << len(self.masks)) - 1) ^ hit

    def strictly_between(self, a: int, b: int) -> int:
        """Index bitset of the closed c with a ⊊ c ⊊ b."""
        between = self.up_set(a) & self.down_set(b)
        for end in (a, b):
            i = self.index.get(end)
            if i is not None:
                between &= ~(1 << i)
        return between

    def covers(self, a, b) -> bool:
        """True iff b covers a: a ⊊ b with no closed set strictly between."""
        am, bm = self._operand(a), self._operand(b)
        if am & ~bm or am == bm:
            raise ValueError("covers() requires a ⊊ b")
        return self.strictly_between(am, bm) == 0

    def atoms(self):
        """Closed singletons, in atom order where present."""
        return [m for m in self.masks if m.bit_count() == 1]

    def coatoms(self):
        """Maximal proper members: the m ≠ Σ whose only strict closed
        superset is Σ."""
        full = self.carrier.full
        return [m for m in self.masks
                if m != full and self.up_set(m).bit_count() == 2]


def enumerate_closed(space, max_atoms=None, max_sets=DEFAULT_SET_LIMIT
                     ) -> ClosureSystem:
    """Enumerate {a : a^⊥⊥ = a} as the intersection-closure of the polar
    rows plus Σ (valid because a^⊥ = ∩_{p∈a} p^⊥)."""
    limit = atom_limit() if max_atoms is None else max_atoms
    if space.size > limit:
        raise EnumerationLimitError(
            f"carrier has {space.size} atoms, enumeration limit is {limit}")
    try:
        masks = _kernel.intersection_closure(space.rows, space.full, max_sets)
    except ValueError as exc:
        raise EnumerationLimitError(str(exc)) from None
    return ClosureSystem(space, masks)


def brute_force_closed(space, max_atoms=20) -> ClosureSystem:
    """Oracle enumeration: filter all 2^Σ subsets by biclosure(a) = a.

    Exponential; only for cross-checking enumerate_closed on small carriers.
    """
    if space.size > max_atoms:
        raise EnumerationLimitError(
            f"brute force limited to {max_atoms} atoms")
    rows, full, n = space.rows, space.full, space.size
    masks = [m for m in range(1 << n)
             if _kernel.biclosure(rows, m, full) == m]
    return ClosureSystem(space, masks)


def dump_system(sys: ClosureSystem) -> str:
    """Canonical text dump: header '<atoms> <count>', then one lowercase hex
    bit-vector per closed set in canonical order."""
    width = (sys.carrier.size + 3) // 4
    lines = [f"{sys.carrier.size} {len(sys)}"]
    lines += [format(m, f"0{width}x") for m in sys.masks]
    return "\n".join(lines) + "\n"
