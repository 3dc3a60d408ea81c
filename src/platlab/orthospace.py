"""Finite orthogonality spaces: a labelled atom set with a binary relation.

A space stores its relation as one bit-mask row per atom (rows[i] = atoms
related to atom i); the relation is symmetric and anti-reflexive, and the
constructor rejects rows that are not.  Constructors here build the
standard fixtures: MO_n, powerset spaces, and anisotropic quadratic line
geometries over GF(q).  Spaces are immutable after construction.
"""

from __future__ import annotations

import json
from collections import namedtuple

from . import _kernel
from .bits import ids
from .closure import EnumerationLimitError, atom_limit
from .gf import field

Verdict = namedtuple("Verdict", ["holds", "witness"])


class SpaceFormatError(ValueError):
    """Raised on malformed space documents."""


class OrthoSpace:
    __slots__ = ("labels", "rows", "size", "full")

    def __init__(self, labels, rows):
        if len(labels) != len(rows):
            raise ValueError("labels/rows length mismatch")
        if len(labels) == 0:
            raise ValueError("empty orthospace")
        _require_orthogonality(rows, "relation")
        self.labels = tuple(labels)
        self.rows = tuple(rows)
        self.size = len(self.labels)
        self.full = (1 << self.size) - 1

    def orth(self, p: int, q: int) -> bool:
        return bool(self.rows[p] >> q & 1)

    def pairs(self):
        return _pairs(self.rows)

    def __eq__(self, other):
        return (isinstance(other, OrthoSpace)
                and self.labels == other.labels and self.rows == other.rows)

    def __hash__(self):
        return hash((self.labels, self.rows))

    def __repr__(self):
        return f"OrthoSpace({self.size} atoms, {len(self.pairs())} pairs)"


def _pairs(rows):
    """Related pairs (i, j) with i < j, ascending; by symmetry, every pair
    once."""
    return [(i, j) for i, row in enumerate(rows)
            for j in ids(row >> (i + 1) << (i + 1))]


def _rows_from_pairs(rows, pairs):
    """A copy of ``rows`` with each pair (i, j) related both ways."""
    rows = list(rows)
    for i, j in pairs:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return rows


def make_mo(n: int) -> OrthoSpace:
    """MO_n: 2n atoms in n orthogonal pairs a1,a1',...,an,an'; the 2n
    atoms are checked against ``atom_limit()`` before any row is built."""
    if n < 1:
        raise ValueError("empty orthospace")
    _require_atoms_within_limit(2 * n, f"MO_{n}")
    labels = []
    for i in range(1, n + 1):
        labels += [f"a{i}", f"a{i}'"]
    return OrthoSpace(labels, _rows_from_pairs(
        [0] * 2 * n, [(2 * i, 2 * i + 1) for i in range(n)]))


def make_powerset_space(n: int) -> OrthoSpace:
    """n atoms, distinct atoms orthogonal; its closure system is 2^Σ.  The
    n atoms are checked against ``atom_limit()`` before any row is built."""
    if n < 1:
        raise ValueError("empty orthospace")
    _require_atoms_within_limit(n, "the powerset space")
    full = (1 << n) - 1
    rows = [full ^ (1 << i) for i in range(n)]
    return OrthoSpace([f"p{i + 1}" for i in range(n)], rows)


def _require_atoms_within_limit(atoms, what):
    limit = atom_limit()
    if atoms > limit:
        raise EnumerationLimitError(
            f"{what} has {atoms} atoms, enumeration limit is {limit}; raise "
            "it with PLAT_LIMIT_ATOMS")


def projective_line_points(q: int):
    """Canonical representatives of the projective line over GF(q):
    [1:0], [0:1], then [1:x] for x = 1..q-1."""
    return [(1, 0), (0, 1)] + [(1, x) for x in range(1, q)]


def make_quadratic_line_space(q: int, lam: int) -> OrthoSpace:
    """Projective line over GF(q) with orthogonality from u1*v1 + λ*u2*v2.

    Requires q odd and the form x² + λy² anisotropic (no nonzero isotropic
    vector); the resulting space pairs each point with exactly one partner
    and is isomorphic to MO_{(q+1)/2}.  Its q + 1 atoms are checked
    against ``atom_limit()`` before GF(q) is built, whose tables take
    O(q²) time and memory.
    """
    if q % 2 == 0:
        raise ValueError("even q rejected: characteristic-2 symmetric forms "
                         "are alternating, violating anti-reflexivity")
    _require_atoms_within_limit(q + 1, f"the line over GF({q})")
    F = field(q)
    if not 0 < lam < q:
        raise ValueError(f"lambda must be a nonzero element of GF({q})")
    weights = (1, lam)
    for x in range(q):
        for y in range(q):
            if (x, y) != (0, 0) and F.dot((x, y), (x, y), weights) == 0:
                raise ValueError(
                    f"form x^2 + {lam}*y^2 is isotropic over GF({q}): "
                    f"witness vector ({x}, {y})")
    points = projective_line_points(q)
    labels = [f"[{u}:{v}]" for u, v in points]
    pairs = []
    for i, u in enumerate(points):
        for j in range(i + 1, len(points)):
            if F.dot(u, points[j], weights) == 0:
                pairs.append((i, j))
    return OrthoSpace(labels, _rows_from_pairs([0] * len(points), pairs))


def _row_defect(rows):
    """The first defect met scanning atom by atom: (p, p) if orth(p, p),
    else (p, q) for the first q ∈ rows[p] that is no atom (q ≥ len(rows))
    or has p ∉ rows[q]; None if the rows are anti-reflexive and
    symmetric."""
    n = len(rows)
    for p, row in enumerate(rows):
        if row >> p & 1:
            return p, p
        for q in ids(row):
            if q >= n or not rows[q] >> p & 1:
                return p, q
    return None


def _orthogonal(rows) -> bool:
    """True iff ``_row_defect(rows)`` is None, in one pass: no bit at n and
    above, every bit above the diagonal mirrored below it, and twice as many
    bits in all as above the diagonal.  The mirrors make the bits below at
    least as many as those above, so the count leaves no room for a bit on
    the diagonal or for one below it that is not a mirror."""
    n = len(rows)
    bits = above = 0
    for p, row in enumerate(rows):
        if row >> n:
            return False
        bits += row.bit_count()
        up = row >> (p + 1) << (p + 1)
        above += up.bit_count()
        bit = 1 << p
        while up:
            low = up & -up
            if not rows[low.bit_length() - 1] & bit:
                return False
            up ^= low
    return bits == 2 * above


def _require_orthogonality(rows, what: str):
    """Raise ValueError naming ``what`` at the first defect of _row_defect;
    only rows that fail the one-pass _orthogonal are scanned for it."""
    if _orthogonal(rows):
        return
    defect = _row_defect(rows)
    if defect is not None:
        p, q = defect
        if p == q:
            raise ValueError(f"{what} is not anti-reflexive at atom {p}")
        if q >= len(rows):
            raise ValueError(f"{what} row of atom {p} has bit {q}, beyond "
                             f"its {len(rows)} atoms")
        raise ValueError(f"{what} is not symmetric at ({p}, {q})")


def validate_relation(space) -> Verdict:
    """Check the separating law exhaustively: every singleton is closed.

    ``space`` is an OrthoSpace or a ProductSpace.  Symmetry and
    anti-reflexivity need no check, since both constructors reject rows
    without them.  The witness is the least atom whose singleton is not
    closed; never raises.
    """
    for p in range(space.size):
        bit = 1 << p
        if _kernel.biclosure(space.rows, bit, space.full) != bit:
            return Verdict(False, p)
    return Verdict(True, None)


def dump_space(space: OrthoSpace) -> str:
    doc = {"atoms": list(space.labels),
           "orth": [list(p) for p in space.pairs()]}
    return json.dumps(doc, separators=(",", ":"))


def load_space(text: str) -> OrthoSpace:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpaceFormatError(
            f"malformed space document at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}") from exc
    return _space_from_doc(doc)


def _space_from_doc(doc) -> OrthoSpace:
    """The space of a decoded space document; SpaceFormatError if the
    document is not one."""
    if not isinstance(doc, dict) or "atoms" not in doc or "orth" not in doc:
        raise SpaceFormatError('space document needs "atoms" and "orth" keys')
    atoms = doc["atoms"]
    if (not isinstance(atoms, list) or not atoms
            or not all(isinstance(a, str) for a in atoms)):
        raise SpaceFormatError('"atoms" must be a nonempty list of strings')
    if not isinstance(doc["orth"], list):
        raise SpaceFormatError('"orth" must be a list of atom index pairs')
    n = len(atoms)
    seen = set()
    pairs = []
    for pos, entry in enumerate(doc["orth"]):
        if (not isinstance(entry, list) or len(entry) != 2
                or not all(type(x) is int for x in entry)):
            raise SpaceFormatError(
                f'"orth" entry {pos}: expected a pair of atom indices')
        i, j = entry
        if not (0 <= i < n and 0 <= j < n):
            raise SpaceFormatError(
                f'"orth" entry {pos}: atom index out of range for '
                f'{n}-atom space: {entry}')
        if i >= j:
            raise SpaceFormatError(
                f'"orth" entry {pos}: pair must satisfy i < j: {entry}')
        if (i, j) in seen:
            raise SpaceFormatError(f'"orth" entry {pos}: duplicated pair {entry}')
        seen.add((i, j))
        pairs.append((i, j))
    return OrthoSpace(atoms, _rows_from_pairs([0] * n, pairs))
