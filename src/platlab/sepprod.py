"""Products of orthogonality spaces and the five independence axioms.

A ProductSpace carries Σ₁×Σ₂ with atom (i, j) encoded as i·|Σ₂|+j and an
arbitrary symmetric anti-reflexive relation over the product atoms.  The
canonical relation is # (orthogonal in the first or second coordinate);
builders elsewhere install candidate relations, and check_axioms decides
P1-P5 and P4* against the factor systems and permutation sets W₁, W₂.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import _kernel
from .bits import ids, rect
from .closure import (AtomSubset, CarrierMismatchError, ClosureSystem,
                      enumerate_closed)
from .lattice import apply_perm_mask, automorphisms, invert
from .orthospace import OrthoSpace, Verdict, _anti_reflexive, _symmetric


class ProductSpace:
    __slots__ = ("left", "right", "rows", "relation_name")

    def __init__(self, left: OrthoSpace, right: OrthoSpace, rows,
                 relation_name: str):
        self.left = left
        self.right = right
        self.rows = tuple(rows)
        self.relation_name = relation_name
        if len(rows) != left.size * right.size:
            raise ValueError("relation rows do not match the product size")
        for p in range(self.size):
            if self.rows[p] >> p & 1:
                raise ValueError(
                    f"product relation is not anti-reflexive at atom {p}")
            m = self.rows[p]
            while m:
                low = m & -m
                q = low.bit_length() - 1
                if not self.rows[q] >> p & 1:
                    raise ValueError(
                        f"product relation is not symmetric at ({p}, {q})")
                m ^= low

    @property
    def size(self) -> int:
        return self.left.size * self.right.size

    @property
    def full(self) -> int:
        return (1 << self.size) - 1

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
        i, j = self.decode(p)
        return self.cylinder1(self.left.rows[i]) | \
            self.cylinder2(self.right.rows[j])

    def __eq__(self, other):
        return (isinstance(other, ProductSpace) and self.left == other.left
                and self.right == other.right and self.rows == other.rows)

    def __hash__(self):
        return hash((self.left, self.right, self.rows))

    def __repr__(self):
        return (f"ProductSpace({self.left.size}x{self.right.size}, "
                f"{self.relation_name})")


def _require_valid_factor(space: OrthoSpace, which: str):
    # the lowest defective atom is reported; at one atom, orth(p, p) first
    anti, sym = _anti_reflexive(space), _symmetric(space)
    if not anti.holds and (sym.holds or anti.witness <= sym.witness[0]):
        p = anti.witness
        raise ValueError(f"invalid {which} factor relation: "
                         f"orth({p},{p}) set")
    if not sym.holds:
        p, q = sym.witness
        raise ValueError(f"invalid {which} factor relation: "
                         f"asymmetric at ({p},{q})")


def sharp(left: OrthoSpace, right: OrthoSpace) -> ProductSpace:
    """The product space under #: p#q iff p₁⊥q₁ or p₂⊥q₂."""
    _require_valid_factor(left, "left")
    _require_valid_factor(right, "right")
    n2 = right.size
    c1 = [rect(row, right.full, n2) for row in left.rows]
    c2 = [rect(left.full, row, n2) for row in right.rows]
    return ProductSpace(left, right, [a | b for a in c1 for b in c2], "sharp")


def separated_product(left: OrthoSpace, right: OrthoSpace):
    """The # product space together with its full closure system."""
    prod = sharp(left, right)
    return prod, enumerate_closed(prod)


def p_sharp(prod: ProductSpace, p: int) -> AtomSubset:
    """The # coatom of atom p, as the explicit two-cylinder union."""
    if prod.relation_name != "sharp":
        raise ValueError("p_sharp is defined for the # relation; "
                         "use polar() for candidate relations")
    return AtomSubset(prod, prod.sharp_row(p))


def lift_product_map(prod: ProductSpace, u1, u2):
    """(p₁,p₂) ↦ (u₁(p₁), u₂(p₂)) as a product-atom permutation."""
    if sorted(u1) != list(range(prod.left.size)):
        raise ValueError(f"u1 is not a bijection on {prod.left.size} atoms")
    if sorted(u2) != list(range(prod.right.size)):
        raise ValueError(f"u2 is not a bijection on {prod.right.size} atoms")
    return tuple(prod.encode(u1[i], u2[j])
                 for i in range(prod.left.size)
                 for j in range(prod.right.size))


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


def _check_separating(prod: ProductSpace) -> Verdict:
    for p in range(prod.size):
        bit = 1 << p
        if _kernel.biclosure(prod.rows, bit, prod.full) != bit:
            return Verdict(False, p)
    return Verdict(True, None)


def _check_p2_cylinders(prod, sys, L1sys, L2sys) -> Verdict:
    for a1 in L1sys.masks:
        for a2 in L2sys.masks:
            u = prod.cylinder1(a1) | prod.cylinder2(a2)
            if u not in sys.index:
                return Verdict(False, {"a1": ids(a1), "a2": ids(a2)})
    return Verdict(True, None)


def _check_p2_coatoms(prod, sys) -> Verdict:
    for p in range(prod.size):
        if prod.sharp_row(p) not in sys.index:
            return Verdict(False, {"atom": p})
    return Verdict(True, None)


def _check_p3(prod, sys, L1sys, L2sys) -> Verdict:
    for m in sys.masks:
        a1 = _cylinder1_base(prod, m)
        if a1 is not None and a1 not in L1sys.index:
            return Verdict(False, {"side": 1, "set": ids(a1)})
        a2 = _cylinder2_base(prod, m)
        if a2 is not None and a2 not in L2sys.index:
            return Verdict(False, {"side": 2, "set": ids(a2)})
    return Verdict(True, None)


def _cylinder1_base(prod, m):
    """a₁ with m == a₁×Σ₂, or None if m is not such a cylinder."""
    n2 = prod.right.size
    block = (1 << n2) - 1
    a1 = 0
    for i in range(prod.left.size):
        if (m >> (i * n2)) & block == block:
            a1 |= 1 << i
    return a1 if prod.cylinder1(a1) == m else None


def _cylinder2_base(prod, m):
    n2 = prod.right.size
    a2 = (1 << n2) - 1
    for i in range(prod.left.size):
        a2 &= m >> (i * n2)
    return a2 if prod.cylinder2(a2) == m else None


def _check_p4(prod, sys, W1, W2) -> Verdict:
    for u1 in W1:
        for u2 in W2:
            perm = lift_product_map(prod, u1, u2)
            for m in sys.masks:
                if apply_perm_mask(perm, m) not in sys.index:
                    return Verdict(False, {"u1": list(u1), "u2": list(u2),
                                           "set": ids(m)})
    return Verdict(True, None)


def _check_p5(prod) -> Verdict:
    for p in range(prod.size):
        missing = prod.sharp_row(p) & ~prod.rows[p]
        if missing:
            q = (missing & -missing).bit_length() - 1
            return Verdict(False, {"p": p, "q": q})
    return Verdict(True, None)


def _check_lifts_commute(prod, W1, W2) -> Verdict:
    """Does every lifted pair (u₁, u₂) commute with the polarity on atoms?
    P4* is P4 plus this."""
    for u1 in W1:
        for u2 in W2:
            perm = lift_product_map(prod, u1, u2)
            for p in range(prod.size):
                if apply_perm_mask(perm, prod.rows[p]) != prod.rows[perm[p]]:
                    return Verdict(False, {"u1": list(u1), "u2": list(u2),
                                           "atom": p})
    return Verdict(True, None)


def _validate_w(W, degree, name):
    for u in W:
        if sorted(u) != list(range(degree)):
            raise ValueError(f"{name} element is not a permutation of "
                             f"{degree} atoms: {tuple(u)}")


def _inverse_closed(W):
    perms = {tuple(u) for u in W}
    return all(invert(u) in perms for u in perms)


def check_axioms(prod: ProductSpace, L1sys: ClosureSystem,
                 L2sys: ClosureSystem, W1, W2,
                 prod_sys: ClosureSystem | None = None) -> AxiomReport:
    """Decide P1-P5 and P4* for the product relation.

    P1 is structural (the carrier is a product by type) and reported for
    completeness.  P2 is computed both from cylinder unions and from the #
    coatoms; the two verdicts are cross-checked.  P4/P4* are reported as
    vacuous when either W is empty.
    """
    if not (L1sys.carrier == prod.left and L2sys.carrier == prod.right):
        raise CarrierMismatchError(
            "factor systems do not match the product factors")
    W1 = [tuple(u) for u in W1]
    W2 = [tuple(u) for u in W2]
    _validate_w(W1, prod.left.size, "W1")
    _validate_w(W2, prod.right.size, "W2")
    sys = prod_sys if prod_sys is not None else enumerate_closed(prod)

    separating = _check_separating(prod)
    p2_cyl = _check_p2_cylinders(prod, sys, L1sys, L2sys)
    p2_coat = _check_p2_coatoms(prod, sys)
    p3 = _check_p3(prod, sys, L1sys, L2sys)
    p5 = _check_p5(prod)
    if W1 and W2:
        p4 = _check_p4(prod, sys, W1, W2)
        p4star = p4 if not p4.holds else _check_lifts_commute(prod, W1, W2)
    else:
        p4 = Verdict(None, None)
        p4star = Verdict(None, None)
    return AxiomReport(
        p1=Verdict(True, None),
        p2=p2_cyl, p3=p3, p4=p4, p5=p5, p4star=p4star,
        separating=separating,
        w1_inverse_closed=_inverse_closed(W1),
        w2_inverse_closed=_inverse_closed(W2),
        p2_forms_agree=(p2_cyl.holds == p2_coat.holds),
    )


def p_hash_components(prod: ProductSpace, p: int):
    """Factor shadows of the polar of p under the active relation.

    Returns (s₁, s₂, k): s₁ = {q₁ : q₁×Σ₂ ⊆ p^⊥}, symmetrically s₂, and
    k = |{q : q's # coatom ⊆ p^⊥}| (k > 1 signals a P3 failure).
    """
    perp = _kernel.polar(prod.rows, 1 << p, prod.full)
    s1 = 0
    for i in range(prod.left.size):
        if prod.cylinder1(1 << i) & ~perp == 0:
            s1 |= 1 << i
    s2 = 0
    for j in range(prod.right.size):
        if prod.cylinder2(1 << j) & ~perp == 0:
            s2 |= 1 << j
    k = sum(1 for q in range(prod.size) if prod.sharp_row(q) & ~perp == 0)
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
        if not 0 <= v < L2sys.carrier.size:
            raise ValueError(f"atom map value out of range: {v}")
    for bm in L2sys.masks:
        pre = 0
        for p in range(n):
            if bm >> f[p] & 1:
                pre |= 1 << p
        if pre not in L1sys.index:
            raise DanielConditionError(ids(bm), ids(pre))
    table = {}
    for am in L1sys.masks:
        img = 0
        for p in ids(am):
            img |= 1 << f[p]
        table[am] = L2sys.join_mask(img)
    for am in L1sys.masks:
        for bm in L1sys.masks:
            j = L1sys.join_mask(am | bm)
            if table[j] != L2sys.join_mask(table[am] | table[bm]):
                raise AssertionError("lifted map is not join-preserving; "
                                     "this contradicts the lift theorem")
    for p in range(n):
        if (1 << p) in L1sys.index and not table[1 << p] >> f[p] & 1:
            raise AssertionError("lifted map does not dominate f on atoms")
    return LatticeMap(L1sys, L2sys, f, table)


def default_edge_sampler(rng: random.Random, prod: ProductSpace):
    """1 or 2 random symmetric pairs outside # (and off the diagonal)."""
    k = rng.choice((1, 2))
    pairs = set()
    guard = 0
    while len(pairs) < k:
        p = rng.randrange(prod.size)
        q = rng.randrange(prod.size)
        if p == q or prod.sharp_row(p) >> q & 1:
            guard += 1
            if guard > 10_000:
                raise ValueError("sampler cannot find non-# pairs")
            continue
        pairs.add((min(p, q), max(p, q)))
    return sorted(pairs)


@dataclass
class PerturbationSummary:
    trials: int
    failures_by_axiom: dict
    theorem_contradictions: int
    seed: int
    contradiction_details: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {"trials": self.trials,
                "failures_by_axiom": self.failures_by_axiom,
                "theorem_contradictions": self.theorem_contradictions,
                "seed": self.seed}


def _first_failing_axiom(prod, L1sys, L2sys, W1, W2):
    """Cheapest-first scan; returns the axiom name or None."""
    if not _check_separating(prod).holds:
        return "separating"
    sys = enumerate_closed(prod)
    if not _check_p2_cylinders(prod, sys, L1sys, L2sys).holds:
        return "P2"
    if not _check_p3(prod, sys, L1sys, L2sys).holds:
        return "P3"
    if not _check_p4(prod, sys, W1, W2).holds:
        return "P4"
    return None


def perturbation_test(left: OrthoSpace, right: OrthoSpace, sampler=None,
                      trials: int = 500, seed: int = 0) -> PerturbationSummary:
    """Sample relations ⊥ = # ∪ E (E nonempty, disjoint from #) and verify
    each fails separating, P2, P3 or P4 with W = the factor ortho-automorphism
    groups.  Such a candidate satisfies P5 by construction, so a fully passing
    sample would contradict the product-uniqueness theorem; any such sample
    is checked against the p^{#⊥} = {p} consequence and flagged.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if sampler is None:
        sampler = default_edge_sampler
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
    contradictions = []
    for _ in range(trials):
        pairs = sampler(rng, base)
        if not pairs:
            raise ValueError("sampler must produce a nonempty pair set")
        rows = list(base.rows)
        for p, q in pairs:
            if base.sharp_row(p) >> q & 1:
                raise ValueError(f"sampler emitted a pair inside #: ({p},{q})")
            if p == q:
                raise ValueError(f"sampler emitted a diagonal pair: ({p},{p})")
            rows[p] |= 1 << q
            rows[q] |= 1 << p
        prod = ProductSpace(left, right, rows, "sharp+E")
        failing = _first_failing_axiom(prod, L1sys, L2sys, W1, W2)
        if failing is None:
            eq4_holds = all(
                _kernel.polar(prod.rows, prod.sharp_row(p), prod.full)
                == 1 << p for p in range(prod.size))
            contradictions.append({"pairs": [list(e) for e in pairs],
                                   "eq4_conclusion_holds": eq4_holds})
        else:
            failures[failing] += 1
    return PerturbationSummary(trials, failures, len(contradictions), seed,
                               contradictions)
