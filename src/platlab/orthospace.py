"""Finite orthogonality spaces: a labelled atom set with a binary relation.

A space stores its relation as one bit-mask row per atom (rows[i] = atoms
related to atom i).  Constructors here build the standard fixtures: MO_n,
powerset spaces, and anisotropic quadratic line geometries over GF(q).
Spaces are immutable after construction.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass

from . import _kernel
from .gf import field

Verdict = namedtuple("Verdict", ["holds", "witness"])


class SpaceFormatError(ValueError):
    """Raised on malformed space documents."""


class OrthoSpace:
    __slots__ = ("labels", "rows")

    def __init__(self, labels, rows):
        if len(labels) != len(rows):
            raise ValueError("labels/rows length mismatch")
        if len(labels) == 0:
            raise ValueError("empty orthospace")
        self.labels = tuple(labels)
        self.rows = tuple(rows)

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def full(self) -> int:
        return (1 << self.size) - 1

    def orth(self, p: int, q: int) -> bool:
        return bool(self.rows[p] >> q & 1)

    def pairs(self):
        """Related pairs (i, j) with i < j, assuming symmetry."""
        out = []
        for i, row in enumerate(self.rows):
            m = row >> (i + 1) << (i + 1)
            while m:
                low = m & -m
                out.append((i, low.bit_length() - 1))
                m ^= low
        return out

    def __eq__(self, other):
        return (isinstance(other, OrthoSpace)
                and self.labels == other.labels and self.rows == other.rows)

    def __hash__(self):
        return hash((self.labels, self.rows))

    def __repr__(self):
        return f"OrthoSpace({self.size} atoms, {len(self.pairs())} pairs)"


@dataclass(frozen=True)
class RelationReport:
    anti_reflexive: Verdict
    symmetric: Verdict
    separating: Verdict

    @property
    def all_ok(self) -> bool:
        return (self.anti_reflexive.holds and self.symmetric.holds
                and self.separating.holds)


def _rows_from_pairs(n, pairs):
    rows = [0] * n
    for i, j in pairs:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return rows


def make_mo(n: int) -> OrthoSpace:
    """MO_n: 2n atoms in n orthogonal pairs a1,a1',...,an,an'."""
    if n < 1:
        raise ValueError("empty orthospace")
    labels = []
    for i in range(1, n + 1):
        labels += [f"a{i}", f"a{i}'"]
    rows = _rows_from_pairs(2 * n, [(2 * i, 2 * i + 1) for i in range(n)])
    return OrthoSpace(labels, rows)


def make_powerset_space(n: int) -> OrthoSpace:
    """n atoms, distinct atoms orthogonal; its closure system is 2^Σ."""
    if n < 1:
        raise ValueError("empty orthospace")
    full = (1 << n) - 1
    rows = [full ^ (1 << i) for i in range(n)]
    return OrthoSpace([f"p{i + 1}" for i in range(n)], rows)


def projective_line_points(q: int):
    """Canonical representatives of the projective line over GF(q):
    [1:0], [0:1], then [1:x] for x = 1..q-1."""
    return [(1, 0), (0, 1)] + [(1, x) for x in range(1, q)]


def make_quadratic_line_space(q: int, lam: int) -> OrthoSpace:
    """Projective line over GF(q) with orthogonality from u1*v1 + λ*u2*v2.

    Requires q odd and the form x² + λy² anisotropic (no nonzero isotropic
    vector); the resulting space pairs each point with exactly one partner
    and is isomorphic to MO_{(q+1)/2}.
    """
    if q % 2 == 0:
        raise ValueError("even q rejected: characteristic-2 symmetric forms "
                         "are alternating, violating anti-reflexivity")
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
    return OrthoSpace(labels, _rows_from_pairs(len(points), pairs))


def _anti_reflexive(space) -> Verdict:
    """Fails at the first atom p with orth(p, p)."""
    for p in range(space.size):
        if space.rows[p] >> p & 1:
            return Verdict(False, p)
    return Verdict(True, None)


def _symmetric(space) -> Verdict:
    """Fails at the first pair (p, q) with orth(p, q) ≠ orth(q, p)."""
    for p in range(space.size):
        for q in range(space.size):
            if space.orth(p, q) != space.orth(q, p):
                return Verdict(False, (p, q))
    return Verdict(True, None)


def validate_relation(space: OrthoSpace) -> RelationReport:
    """Check anti-reflexivity, symmetry and the separating law exhaustively.

    Witnesses are lexicographically minimal; never raises.
    """
    sep = Verdict(True, None)
    for p in range(space.size):
        bit = 1 << p
        if _kernel.biclosure(space.rows, bit, space.full) != bit:
            sep = Verdict(False, p)
            break
    return RelationReport(_anti_reflexive(space), _symmetric(space), sep)


def dump_space(space: OrthoSpace) -> str:
    doc = {"atoms": list(space.labels),
           "orth": [list(p) for p in sorted(space.pairs())]}
    return json.dumps(doc, separators=(",", ":"))


def load_space(text: str) -> OrthoSpace:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpaceFormatError(
            f"malformed space document at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or "atoms" not in doc or "orth" not in doc:
        raise SpaceFormatError('space document needs "atoms" and "orth" keys')
    atoms = doc["atoms"]
    if (not isinstance(atoms, list) or not atoms
            or not all(isinstance(a, str) for a in atoms)):
        raise SpaceFormatError('"atoms" must be a nonempty list of strings')
    n = len(atoms)
    seen = set()
    pairs = []
    for pos, entry in enumerate(doc["orth"]):
        if (not isinstance(entry, list) or len(entry) != 2
                or not all(isinstance(x, int) for x in entry)):
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
    return OrthoSpace(atoms, _rows_from_pairs(n, pairs))
