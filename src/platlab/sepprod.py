"""Products of orthogonality spaces and the five independence axioms.

A ProductSpace carries Σ₁×Σ₂ with atom (i, j) encoded as i·|Σ₂|+j and an
arbitrary symmetric anti-reflexive relation over the product atoms.  The
canonical relation is # (orthogonal in the first or second coordinate);
builders elsewhere install candidate relations, and check_axioms decides
P1-P5 and P4* against the factor systems and permutation sets W₁, W₂.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from functools import lru_cache

from . import _kernel, lattice
from .bits import ids, rect
from .closure import (AtomSubset, CarrierMismatchError, ClosureSystem,
                      EnumerationLimitError, canonical_first, canonical_order,
                      enumerate_closed)
from .lattice import (_require_own_system, apply_perm_mask, automorphisms,
                      invert, is_permutation)
from .orthospace import (OrthoSpace, Verdict, _require_orthogonality,
                         _rows_from_pairs, validate_relation)


class ProductSpace:
    __slots__ = ("left", "right", "rows", "relation_name", "size", "full")

    def __init__(self, left: OrthoSpace, right: OrthoSpace, rows,
                 relation_name: str):
        self.left = left
        self.right = right
        self.rows = tuple(rows)
        self.relation_name = relation_name
        self.size = left.size * right.size
        self.full = (1 << self.size) - 1
        if len(rows) != self.size:
            raise ValueError("relation rows do not match the product size")
        _require_orthogonality(self.rows, "product relation")

    @property
    def labels(self):
        return tuple(f"({l},{r})" for l in self.left.labels
                     for r in self.right.labels)

    def encode(self, i: int, j: int) -> int:
        return i * self.right.size + j

    def decode(self, p: int):
        return divmod(p, self.right.size)

    def orth(self, p: int, q: int) -> bool:
        return bool(self.rows[p] >> q & 1)

    def cylinder1(self, mask1: int) -> int:
        """a₁ × Σ₂ as a product mask."""
        return rect(mask1, self.right.full, self.right.size)

    def cylinder2(self, mask2: int) -> int:
        """Σ₁ × a₂ as a product mask."""
        return rect(self.left.full, mask2, self.right.size)

    def sharp_row(self, p: int) -> int:
        """p₁^⊥×Σ₂ ∪ Σ₁×p₂^⊥, from the factor relations (the # coatom)."""
        return _sharp_rows(self.left, self.right)[p]

    def __eq__(self, other):
        return (isinstance(other, ProductSpace) and self.left == other.left
                and self.right == other.right and self.rows == other.rows)

    def __hash__(self):
        return hash((self.left, self.right, self.rows))

    def __repr__(self):
        return (f"ProductSpace({self.left.size}x{self.right.size}, "
                f"{self.relation_name})")


@lru_cache(maxsize=64)
def _sharp_rows(left: OrthoSpace, right: OrthoSpace):
    """The # row of every product atom, once per pair of factor spaces
    (keyed by their labels and rows)."""
    n2 = right.size
    c1 = [rect(row, right.full, n2) for row in left.rows]
    c2 = [rect(left.full, row, n2) for row in right.rows]
    return tuple(a | b for a in c1 for b in c2)


def _is_sharp(prod: ProductSpace) -> bool:
    """Is prod's relation #?  Decided by its rows; ``relation_name`` is
    only a label."""
    return prod.rows == _sharp_rows(prod.left, prod.right)


def sharp(left: OrthoSpace, right: OrthoSpace) -> ProductSpace:
    """The product space under #: p#q iff p₁⊥q₁ or p₂⊥q₂."""
    return ProductSpace(left, right, _sharp_rows(left, right), "sharp")


def separated_product(left: OrthoSpace, right: OrthoSpace):
    """The # product space together with its full closure system."""
    prod = sharp(left, right)
    return prod, enumerate_closed(prod)


def p_sharp(prod: ProductSpace, p: int) -> AtomSubset:
    """The # coatom of atom p, as the explicit two-cylinder union."""
    if not _is_sharp(prod):
        raise ValueError("p_sharp is defined for the # relation; "
                         "use polar() for candidate relations")
    return AtomSubset(prod, prod.sharp_row(p))


def lift_product_map(prod: ProductSpace, u1, u2):
    """(p₁,p₂) ↦ (u₁(p₁), u₂(p₂)) as a product-atom permutation."""
    if not is_permutation(u1, prod.left.size):
        raise ValueError(f"u1 is not a bijection on {prod.left.size} atoms")
    if not is_permutation(u2, prod.right.size):
        raise ValueError(f"u2 is not a bijection on {prod.right.size} atoms")
    return _lift(u1, u2, prod.right.size)


def _lift(u1, u2, n2):
    # lift_product_map for permutations already checked: atom i·n₂ + j
    # goes to u₁(i)·n₂ + u₂(j)
    return tuple(a * n2 + b for a in u1 for b in u2)


@dataclass
class AxiomReport:
    p1: Verdict
    p2: Verdict
    p3: Verdict
    p4: Verdict
    p5: Verdict
    p4star: Verdict
    separating: Verdict
    w1_inverse_closed: bool
    w2_inverse_closed: bool
    p2_forms_agree: bool = True  # cylinder vs. coatom cross-check

    def to_json(self) -> dict:
        def v(x: Verdict):
            holds = "vacuous" if x.holds is None else x.holds
            return {"holds": holds, "witness": x.witness}

        return {
            "P1": v(self.p1), "P2": v(self.p2), "P3": v(self.p3),
            "P4": v(self.p4), "P5": v(self.p5), "P4star": v(self.p4star),
            "separating": v(self.separating),
            "w1_inverse_closed": self.w1_inverse_closed,
            "w2_inverse_closed": self.w2_inverse_closed,
        }


@lru_cache(maxsize=64)
def _cylinder_unions(left, right, sets1, sets2):
    """(a₁×Σ₂ ∪ Σ₁×a₂, a₁, a₂) for the closed a₁, a₂ of the factor
    families, in L1.masks × L2.masks order; once per pair of factor spaces
    and pair of factor ``sets``."""
    n2 = right.size
    c1 = [(rect(a1, right.full, n2), a1)
          for a1 in canonical_order(left, sets1)]
    c2 = [(rect(left.full, a2, n2), a2)
          for a2 in canonical_order(right, sets2)]
    return tuple((u1 | u2, a1, a2) for u1, a1 in c1 for u2, a2 in c2)


def _check_p2_cylinders(prod, sys, L1sys, L2sys) -> Verdict:
    sets = sys.sets
    for u, a1, a2 in _cylinder_unions(prod.left, prod.right, L1sys.sets,
                                      L2sys.sets):
        if u not in sets:
            return Verdict(False, {"a1": ids(a1), "a2": ids(a2)})
    return Verdict(True, None)


def _check_p2_coatoms(prod, closed) -> bool:
    """Is every # row p^# closed, by the test ``closed``?"""
    return all(map(closed, _sharp_rows(prod.left, prod.right)))


@lru_cache(maxsize=64)
def _open_cylinders(left, right, sets1, sets2):
    """(the open cylinders, {cylinder: (side, base)}): a₁×Σ₂ (side 1) for
    every a₁ ⊆ Σ₁ outside the factor family ``sets1``, and Σ₁×a₂ (side 2)
    for every a₂ ⊆ Σ₂ outside ``sets2``; once per pair of factor spaces and
    pair of factor ``sets``.  Walks all 2^n₁ + 2^n₂ bases."""
    n2 = right.size
    bases = {rect(a1, right.full, n2): (1, a1)
             for a1 in range(1 << left.size) if a1 not in sets1}
    bases.update((rect(left.full, a2, n2), (2, a2))
                 for a2 in range(1 << n2) if a2 not in sets2)
    return frozenset(bases), bases


def _scan_open_cylinders(prod, sys, L1sys, L2sys):
    """{m: (side, base)} for the closed m that are open cylinders, by one
    pass over ``sys.sets``."""
    # m = a₁×Σ₂ iff each block of n₂ bits is full or empty, i.e. iff the
    # low bit of each block, spread over its block, gives m back; m = Σ₁×a₂
    # iff block 0 copied into every block gives m back
    n1, n2 = prod.left.size, prod.right.size
    block = prod.right.full
    col = rect(prod.left.full, 1, n2)
    failing = {}
    for m in sys.sets:
        low = m & col
        if low * block == m:
            a1 = sum(1 << i for i in range(n1) if low >> (i * n2) & 1)
            if a1 not in L1sys.sets:
                failing[m] = (1, a1)
                continue  # side 1 first
        a2 = m & block
        if a2 * col == m and a2 not in L2sys.sets:
            failing[m] = (2, a2)
    return failing


def _check_p3(prod, sys, L1sys, L2sys) -> Verdict:
    """Is every closed cylinder a₁×Σ₂ or Σ₁×a₂ over a closed a₁ or a₂?
    The witness is the canonical-first closed set that is not, with its
    side and base.

    P3 asks that a cylinder a₁×Σ₂ or Σ₁×a₂ be closed only if its base is
    closed in L₁ or L₂.  A cylinder over a closed base meets that whether
    it is closed or not, so P3 fails exactly where an "open" cylinder, one
    whose base lies outside its factor family, is closed.  Where
    2^n₁ + 2^n₂ ≤ |L| the open cylinders come from the cached table, and
    the closed ones are ``sys.sets`` ∩ that table, taken in C; otherwise
    (a factor of 32 atoms would list 2^32 bases) one arithmetic pass over
    ``sys.sets`` finds them.
    """
    n1, n2 = prod.left.size, prod.right.size
    if (1 << n1) + (1 << n2) <= len(sys.sets):
        opens, bases = _open_cylinders(prod.left, prod.right, L1sys.sets,
                                       L2sys.sets)
        failing = sys.sets & opens
    else:
        bases = failing = _scan_open_cylinders(prod, sys, L1sys, L2sys)
    if not failing:
        return Verdict(True, None)
    side, a = bases[canonical_first(prod, failing)]
    return Verdict(False, {"side": side, "set": ids(a)})


@lru_cache(maxsize=64)
def _lift_table(W1, W2, n1, n2):
    """(u₁, u₂, image of each atom, image bit of each atom) for each pair of
    W₁ × W₂ in order, but the identity lift, which fixes every set and every
    row; once per (W₁, W₂, n₁, n₂), W a tuple of tuples."""
    id1, id2 = tuple(range(n1)), tuple(range(n2))
    bits = [1 << q for q in range(n1 * n2)]
    lifts = ((u1, u2, _lift(u1, u2, n2)) for u1 in W1 for u2 in W2
             if u1 != id1 or u2 != id2)
    return tuple((u1, u2, perm, tuple(bits[q] for q in perm))
                 for u1, u2, perm in lifts)


def _lifts(prod, W1, W2):
    """_lift_table for prod's factors, refused above GROUP_SIZE_LIMIT lifts.
    The bound is read on every call, so a table cached under a higher limit
    is refused too."""
    limit = lattice.GROUP_SIZE_LIMIT
    if len(W1) * len(W2) > limit:
        raise EnumerationLimitError(
            f"W1 x W2 has {len(W1) * len(W2)} lifts, limit {limit}; raise it "
            "by setting platlab.lattice.GROUP_SIZE_LIMIT")
    return _lift_table(tuple(W1), tuple(W2), prod.left.size, prod.right.size)


def _walk_lifts(prod, sys, W1, W2):
    """(failing, moved) from one walk of the lift table: failing is
    (u₁, u₂, image bits) for the first lift that moves a closed set out of
    ``sys``, where the walk stops, or None; moved is (u₁, u₂, p) for the
    first lift and atom p whose row it does not carry onto the row of p's
    image, or None.

    ``sys`` must be prod's relation system (check_axioms enforces it, and
    _first_failing_axiom builds it): its members are Σ and the meets of the
    polar rows, and a lift keeps Σ and meets, so it keeps the family iff it
    maps every row p^⊥ into ``sys.sets``.  A row image that equals the row
    of the image atom is closed, so only the others are looked up.
    """
    rows, sets = prod.rows, sys.sets
    moved = None
    for u1, u2, perm, images in _lifts(prod, W1, W2):
        for p, m in enumerate(rows):
            image = 0
            while m:
                low = m & -m
                image |= images[low.bit_length() - 1]
                m ^= low
            if image != rows[perm[p]]:
                if image not in sets:
                    return (u1, u2, images), moved
                if moved is None:
                    moved = (u1, u2, p)
    return None, moved


def _check_p4(prod, sys, W1, W2):
    """(P4, P4*) from one walk of the lifts (see _walk_lifts).  A lift that
    moves a closed set out fails both, with the canonical-first such set,
    which ``canonical_first`` finds on that lift alone, testing only the
    sets that could still come first.  Where P4 holds, P4* fails at
    the first lift and atom that do not commute with the polarity."""
    failing, moved = _walk_lifts(prod, sys, W1, W2)
    if failing is None:
        p4 = Verdict(True, None)
        return p4, (p4 if moved is None else Verdict(False, {
            "u1": list(moved[0]), "u2": list(moved[1]), "atom": moved[2]}))
    u1, u2, images = failing
    sets = sys.sets

    def moved_out(m):  # apply_perm_mask inlined: one call per set
        image = 0
        while m:
            low = m & -m
            image |= images[low.bit_length() - 1]
            m ^= low
        return image not in sets

    p4 = Verdict(False, {"u1": list(u1), "u2": list(u2),
                         "set": ids(canonical_first(prod, sets, moved_out))})
    return p4, p4


def _check_p5(prod) -> Verdict:
    for p, row in enumerate(_sharp_rows(prod.left, prod.right)):
        missing = row & ~prod.rows[p]
        if missing:
            q = (missing & -missing).bit_length() - 1
            return Verdict(False, {"p": p, "q": q})
    return Verdict(True, None)


def _as_tuples(W, degree, name):
    """W as a tuple of tuples, the key of _w_inverse_closed; an element
    that is not an iterable of hashable entries is no permutation."""
    out = []
    for u in W:
        try:
            out.append(tuple(u))
            hash(out[-1])
        except TypeError:
            raise ValueError(f"{name} element is not a permutation of "
                             f"{degree} atoms: {u!r}") from None
    return tuple(out)


@lru_cache(maxsize=64)
def _w_inverse_closed(W, degree, name):
    """Check that each element of W, a tuple of tuples, is a permutation
    of ``degree`` atoms, and decide whether W is closed under inverses,
    once per distinct W: the sweeps pass the same factor groups to every
    relation.  A W that fails raises on every call, since the cache keeps
    no exceptions."""
    for u in W:
        if not is_permutation(u, degree):
            raise ValueError(f"{name} element is not a permutation of "
                             f"{degree} atoms: {u!r}")
    perms = set(W)
    return all(invert(u) in perms for u in perms)


def check_axioms(prod: ProductSpace, L1sys: ClosureSystem,
                 L2sys: ClosureSystem, W1, W2,
                 prod_sys: ClosureSystem | None = None) -> AxiomReport:
    """Decide P1-P5 and P4* for the product relation.

    P1 is structural (the carrier is a product by type) and reported for
    completeness.  P2 is computed both from cylinder unions and from the #
    coatoms, which agree where the factor systems are the factors' own
    (see _first_failing_axiom); ``p2_forms_agree`` cross-checks them.
    P4/P4* are vacuous when either W is empty.  A ``prod_sys`` must be
    prod's own.

    P3 looks up the closed sets among the open cylinders (see _check_p3).
    P4 and P4* are decided in one walk of the lifts on the n polar rows,
    and ``canonical_first`` scans the closed sets only on the failing lift,
    for its witness (see _check_p4).
    The tables that depend on the factors alone are cached by value: the #
    rows by the two factor spaces; the P2 cylinder unions, and the P3 open
    cylinders with their side and base, by the factor spaces and the factor
    ``sets`` (the open cylinders only where 2^n₁ + 2^n₂ ≤ |L|, as they list
    every subset of each factor); and the lift table by the W tuples and
    the factor sizes.  Deciding P4 on generators of
    W₁ × W₂ would save only where P4 holds; on the perturbation sweep
    every relation fails it, so the ordered scan runs anyway.
    """
    if not (L1sys.carrier == prod.left and L2sys.carrier == prod.right):
        raise CarrierMismatchError(
            "factor systems do not match the product factors")
    W1 = _as_tuples(W1, prod.left.size, "W1")
    W2 = _as_tuples(W2, prod.right.size, "W2")
    w1_inverse_closed = _w_inverse_closed(W1, prod.left.size, "W1")
    w2_inverse_closed = _w_inverse_closed(W2, prod.right.size, "W2")
    sys = prod_sys if prod_sys is not None else enumerate_closed(prod)
    _require_own_system(prod, sys)

    separating = validate_relation(prod)
    p2_cyl = _check_p2_cylinders(prod, sys, L1sys, L2sys)
    p2_coat = _check_p2_coatoms(prod, sys.sets.__contains__)
    p3 = _check_p3(prod, sys, L1sys, L2sys)
    p5 = _check_p5(prod)
    if W1 and W2:
        p4, p4star = _check_p4(prod, sys, W1, W2)
    else:
        p4 = p4star = Verdict(None, None)
    return AxiomReport(
        p1=Verdict(True, None),
        p2=p2_cyl, p3=p3, p4=p4, p5=p5, p4star=p4star,
        separating=separating,
        w1_inverse_closed=w1_inverse_closed,
        w2_inverse_closed=w2_inverse_closed,
        p2_forms_agree=(p2_cyl.holds == p2_coat),
    )


def p_hash_components(prod: ProductSpace, p: int):
    """Factor shadows of the polar of p under the active relation.

    Returns (s₁, s₂, k): s₁ = {q₁ : q₁×Σ₂ ⊆ p^⊥}, symmetrically s₂, and
    k = |{q : q's # coatom ⊆ p^⊥}| (k > 1 signals a P3 failure); p^⊥ is
    the row of p.  Block i, the atoms i·|Σ₂|+j, is q₁ = i; column j, every
    |Σ₂|-th atom from j, is q₂ = j."""
    perp, n2, right = prod.rows[p], prod.right.size, prod.right.full
    col = prod.cylinder2(1)
    s1 = sum(1 << i for i in range(prod.left.size)
             if perp >> i * n2 & right == right)
    s2 = sum(1 << j for j in range(n2) if perp >> j & col == col)
    k = sum(row & ~perp == 0 for row in _sharp_rows(prod.left, prod.right))
    return AtomSubset(prod.left, s1), AtomSubset(prod.right, s2), k


class DanielConditionError(ValueError):
    """An atom map has a closed target set with a non-closed preimage."""

    def __init__(self, target_ids, preimage_ids):
        self.target_ids = target_ids
        self.preimage_ids = preimage_ids
        super().__init__(
            f"preimage of closed set {target_ids} is not closed: "
            f"{preimage_ids}")


@dataclass(frozen=True)
class LatticeMap:
    """A join-preserving map between closure systems, tabulated."""
    source: ClosureSystem
    target: ClosureSystem
    atom_map: tuple
    table: dict = field(hash=False)

    def apply(self, a) -> AtomSubset:
        m = a.bits if isinstance(a, AtomSubset) else a
        return AtomSubset(self.target.carrier, self.table[m])


def daniel_lift(f, L1sys: ClosureSystem, L2sys: ClosureSystem) -> LatticeMap:
    """Lift an atom map to the closed sets by g(a) = ∨ f(a).

    Requires the preimage of every closed target set to be closed; then g
    is verified join-preserving on all closed pairs and to dominate f on
    atoms.
    """
    n = L1sys.carrier.size
    f = tuple(f)
    if len(f) != n:
        raise ValueError(f"atom map must be total on {n} atoms")
    for v in f:
        if type(v) is not int or not 0 <= v < L2sys.carrier.size:
            raise ValueError(f"atom map value out of range: {v}")
    for bm in L2sys.masks:
        pre = 0
        for p in range(n):
            if bm >> f[p] & 1:
                pre |= 1 << p
        if pre not in L1sys.sets:
            raise DanielConditionError(ids(bm), ids(pre))
    table = {}
    for am in L1sys.masks:
        table[am] = L2sys.join_mask(apply_perm_mask(f, am))
    for am in L1sys.masks:
        for bm in L1sys.masks:
            j = L1sys.join_mask(am | bm)
            if table[j] != L2sys.join_mask(table[am] | table[bm]):
                raise AssertionError("lifted map is not join-preserving; "
                                     "this contradicts the lift theorem")
    for p in range(n):
        if (1 << p) in L1sys.sets and not table[1 << p] >> f[p] & 1:
            raise AssertionError("lifted map does not dominate f on atoms")
    return LatticeMap(L1sys, L2sys, f, table)


def default_edge_sampler(rng: random.Random, prod: ProductSpace):
    """1 or 2 random symmetric pairs outside # (and off the diagonal),
    drawn until that many distinct pairs are found; at most as many as
    there are.  ValueError when # relates every pair of distinct atoms."""
    sharp_rows = _sharp_rows(prod.left, prod.right)
    # each atom is outside its own # row, hence the − 1
    count = sum((prod.full ^ row).bit_count() - 1 for row in sharp_rows) // 2
    if count == 0:
        raise ValueError(f"# relates every pair of distinct atoms of the "
                         f"{prod.left.size}x{prod.right.size} product, so "
                         "there is no pair outside # to draw")
    k = min(rng.choice((1, 2)), count)
    pairs = set()
    while len(pairs) < k:
        p = rng.randrange(prod.size)
        q = rng.randrange(prod.size)
        if p == q or sharp_rows[p] >> q & 1:
            continue
        pairs.add((min(p, q), max(p, q)))
    return sorted(pairs)


@dataclass
class PerturbationSummary:
    trials: int
    failures_by_axiom: dict
    theorem_contradictions: int
    seed: int

    def to_json(self) -> dict:
        return asdict(self)


def _first_failing_axiom(prod, L1sys, L2sys, W1, W2):
    """Cheapest-first scan; returns the axiom name or None.

    Separating and P2 are read off the polar rows, so only a relation that
    passes both is enumerated.  P2 is decided in its coatom form (each #
    row a biclosure fixpoint), which is check_axioms' cylinder form only
    where ``L1sys`` and ``L2sys`` are the factors' own systems, so any other
    factor system raises CarrierMismatchError: each # row is the cylinder
    union over q₁^⊥ and q₂^⊥; the union over closed a₁ ≠ Σ₁, a₂ ≠ Σ₂ is
    the meet of the # rows of the atoms in a₁^⊥ × a₂^⊥
    (a = ∩{q^⊥ : q ∈ a^⊥}); any other union is Σ.
    """
    _require_own_system(prod.left, L1sys)
    _require_own_system(prod.right, L2sys)
    if not validate_relation(prod).holds:
        return "separating"
    if not _check_p2_coatoms(
            prod, lambda m: _kernel.biclosure(prod.rows, m, prod.full) == m):
        return "P2"
    sys = enumerate_closed(prod)
    if not _check_p3(prod, sys, L1sys, L2sys).holds:
        return "P3"
    if _walk_lifts(prod, sys, W1, W2)[0] is not None:
        return "P4"
    return None


def perturbation_test(left: OrthoSpace, right: OrthoSpace, trials: int = 500,
                      seed: int = 0) -> PerturbationSummary:
    """Sample relations ⊥ = # ∪ E (E nonempty, disjoint from #) and verify
    each fails separating, P2, P3 or P4 with W = the factor ortho-automorphism
    groups.  Such a candidate satisfies P5 by construction, so a fully passing
    sample would contradict the product-uniqueness theorem; the summary
    counts such samples in ``theorem_contradictions``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    base = sharp(left, right)
    L1sys = enumerate_closed(left)
    L2sys = enumerate_closed(right)
    W1 = list(automorphisms(left, L1sys, mode="ortho"))
    W2 = list(automorphisms(right, L2sys, mode="ortho"))

    # E = ∅ sanity: the unperturbed product passes everything
    if _first_failing_axiom(base, L1sys, L2sys, W1, W2) is not None:
        raise AssertionError("separated product itself fails an axiom")

    rng = random.Random(seed)
    failures = {"separating": 0, "P2": 0, "P3": 0, "P4": 0}
    contradictions = 0
    for _ in range(trials):
        pairs = default_edge_sampler(rng, base)
        prod = ProductSpace(left, right, _rows_from_pairs(base.rows, pairs),
                            "sharp+E")
        failing = _first_failing_axiom(prod, L1sys, L2sys, W1, W2)
        if failing is None:
            contradictions += 1
        else:
            failures[failing] += 1
    return PerturbationSummary(trials, failures, contradictions, seed)
