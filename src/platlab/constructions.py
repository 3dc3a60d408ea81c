"""Parametric builders for counterexample relations over product spaces.

Four relation families extend # on Σ₁×Σ₂ (each designed to break exactly one
independence axiom on suitable carriers), plus the tensor-trace family over
finite quadratic line geometries.  Every builder validates its input data and
reproduces its defining formula pointwise; whether the resulting relation is
separating or satisfies any axiom is for validate_relation / check_axioms to
decide, not assumed here.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations, product

# unused here, but the benchmark tracer swaps this binding for a traced
# kernel, so removing it breaks `perfbench/run.py --trace 1`
from ._kernel import pykernel  # noqa: F401
from .bits import ids, rect
from .closure import ClosureSystem, EnumerationLimitError, canonical_first
from .gf import field
from .lattice import (apply_perm_mask, find_orthocomplementation, invert,
                      is_permutation)
from .orthospace import (OrthoSpace, _require_orthogonality, _rows_from_pairs,
                         make_mo, make_quadratic_line_space,
                         projective_line_points)
from .sepprod import ProductSpace, _is_sharp, _lift, separated_product


@dataclass(frozen=True)
class CRelation:
    """Per-factor map q ↦ C(q) ⊆ factor atoms; symmetric and irreflexive."""
    space: OrthoSpace
    rows: tuple  # mask per atom

    def __post_init__(self):
        if len(self.rows) != self.space.size:
            raise ValueError("C-relation rows do not match the factor size")
        _require_orthogonality(self.rows, "C data")

    @classmethod
    def from_adjacency(cls, space: OrthoSpace, lists) -> "CRelation":
        lists = list(lists)
        if len(lists) != space.size:
            raise ValueError(f"C adjacency has {len(lists)} lists for "
                             f"{space.size} atoms")
        rows = [0] * space.size
        for p, neighbors in enumerate(lists):
            for q in neighbors:
                if type(q) is not int or not 0 <= q < space.size:
                    raise ValueError(f"C adjacency index out of range: {q}")
                rows[p] |= 1 << q
        return cls(space, tuple(rows))

    @classmethod
    def empty(cls, space: OrthoSpace) -> "CRelation":
        return cls(space, tuple([0] * space.size))


def _require_sharp(prod: ProductSpace):
    if not _is_sharp(prod):
        raise ValueError("builders start from the # product space")


def _sharp_plus(prod, C1, C2, block, name) -> ProductSpace:
    # rows p^# ∪ block(C(p₁), C(p₂))
    _require_sharp(prod)
    if C1.space != prod.left or C2.space != prod.right:
        raise ValueError("C-relations must live on the product factors")
    rows = [prod.sharp_row(prod.encode(i, j)) | block(c1, c2)
            for i, c1 in enumerate(C1.rows) for j, c2 in enumerate(C2.rows)]
    return ProductSpace(prod.left, prod.right, rows, name)


def build_perp2(prod: ProductSpace, C1: CRelation, C2: CRelation
                ) -> ProductSpace:
    """Relation with polar rows p^# ∪ C(p₁)×C(p₂)."""
    return _sharp_plus(prod, C1, C2,
                       lambda c1, c2: rect(c1, c2, prod.right.size), "perp2")


def build_perp3(prod: ProductSpace, C1: CRelation, C2: CRelation
                ) -> ProductSpace:
    """Relation with polar rows p^# ∪ C(p₁)×Σ₂ ∪ Σ₁×C(p₂)."""
    return _sharp_plus(prod, C1, C2,
                       lambda c1, c2: prod.cylinder1(c1) | prod.cylinder2(c2),
                       "perp3")


@dataclass(frozen=True)
class PairingData:
    """Injective maps gᵢ: Aᵢ → product atoms, i = 1..4, whose domains
    A₁..A₄ partition Σ₁."""
    maps: tuple  # four dicts factor atom → product atom

    def validate(self, prod: ProductSpace):
        if len(self.maps) != 4:
            raise ValueError("pairing data needs exactly four blocks")
        seen = set()
        for g in self.maps:
            for a in g:
                if type(a) is not int or not 0 <= a < prod.left.size:
                    raise ValueError(
                        f"partition atom is not a factor atom: {a!r}")
                if a in seen:
                    raise ValueError(f"partition blocks overlap at atom {a}")
                seen.add(a)
        if len(seen) != prod.left.size:
            raise ValueError("partition does not cover the factor atoms")
        for g in self.maps:
            if len(set(g.values())) != len(g):
                raise ValueError("map is not injective on its block")
            for a, target in g.items():
                if type(target) is not int or not 0 <= target < prod.size:
                    raise ValueError(
                        f"map target is not a product atom: {target!r}")
                diag = prod.encode(a, a)
                if prod.sharp_row(diag) >> target & 1:
                    raise ValueError(
                        f"pairing violates the coatom-disjointness condition "
                        f"at atom {a}: g({a}) = {target} lies in "
                        f"({a},{a})^#")


def build_perp4(prod: ProductSpace, data: PairingData) -> ProductSpace:
    """Relation p^# ∪ f(p)^# ∪ f⁻¹(p^#) where f sends the diagonal atom
    (a, a) to its paired product atom and every other atom to Σ."""
    _require_sharp(prod)
    if prod.left != prod.right:
        raise ValueError("pairing construction needs a square product with "
                         "identified factors")
    data.validate(prod)
    # # is symmetric, so f(q) ∈ p^# iff p ∈ f(q)^#: the relation is # with
    # each p in the domain of f related to f(p)^#, both ways
    f = {prod.encode(a, a): target
         for g in data.maps for a, target in g.items()}
    rows = _rows_from_pairs(prod.rows, [(p, q) for p, fp in f.items()
                                        for q in ids(prod.sharp_row(fp))])
    return ProductSpace(prod.left, prod.right, rows, "perp4")


@dataclass(frozen=True)
class FactorBijection:
    """A factor-atom permutation satisfying the twisting conditions:
    not the identity, polar-preimage compatible, and never mapping an atom
    into its own polar (the last is what keeps the twisted relation
    anti-reflexive)."""
    perm: tuple

    def validate(self, space: OrthoSpace):
        f = self.perm
        if not is_permutation(f, space.size):
            raise ValueError(f"not a permutation of {space.size} atoms")
        if f == tuple(range(space.size)):
            raise ValueError("twisting map must not be the identity")
        finv = invert(f)
        for p in range(space.size):
            pre = apply_perm_mask(finv, space.rows[p])
            if pre != space.rows[f[p]]:
                raise ValueError(
                    f"polar-preimage condition fails at atom {p}: "
                    f"f^-1(polar({p})) = {ids(pre)} but polar(f({p})) = "
                    f"{ids(space.rows[f[p]])}")
        for p in range(space.size):
            if space.rows[p] >> f[p] & 1:
                raise ValueError(
                    f"twisting map sends atom {p} into its own polar "
                    f"(f({p}) = {f[p]})")


def build_perp5(prod: ProductSpace, f1: FactorBijection, f2: FactorBijection
                ) -> ProductSpace:
    """Twisted relation: p ⊥ q iff q ∈ ((f₁×f₂)(p))^#."""
    _require_sharp(prod)
    f1.validate(prod.left)
    f2.validate(prod.right)
    rows = [prod.sharp_row(q)
            for q in _lift(f1.perm, f2.perm, prod.right.size)]
    return ProductSpace(prod.left, prod.right, rows, "perp5")


def mo_pair_swap_bijection(n: int) -> FactorBijection:
    """On MO_n (n ≥ 2): swap the first two orthogonal pairs blockwise
    (a1↔a2, a1'↔a2'), fixing the rest."""
    if n < 2:
        raise ValueError(
            "pair swap needs n >= 2: on MO_1 every non-identity "
            "pair-compatible permutation maps some atom to its polar")
    perm = list(range(2 * n))
    perm[0], perm[2] = 2, 0
    perm[1], perm[3] = 3, 1
    f = FactorBijection(tuple(perm))
    f.validate(make_mo(n))
    return f


SUBSPACE_ENUM_LIMIT = 200_000


def enumerate_subspaces(q: int, dim: int):
    """All linear subspaces of GF(q)^dim as canonical reduced-row-echelon
    generator matrices, grouped by subspace dimension (0..dim)."""
    if not 1 <= dim <= 4:
        raise ValueError("dimension must be between 1 and 4")
    # counted before the field is built, which at q = 1009 takes seconds;
    # GF(q) refuses q < 2, where the count would divide by zero
    if q > 1 and (total := _total_subspaces(q, dim)) > SUBSPACE_ENUM_LIMIT:
        raise EnumerationLimitError(
            f"{total} subspaces exceeds limit {SUBSPACE_ENUM_LIMIT}; raise "
            "it by setting platlab.constructions.SUBSPACE_ENUM_LIMIT")
    F = field(q)
    by_dim = {0: [()]}
    for k in range(1, dim + 1):
        by_dim[k] = list(_rref_matrices(F, dim, k))
    return by_dim


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return num // den


def _total_subspaces(q, dim):
    return sum(gaussian_binomial(dim, k, q) for k in range(dim + 1))


def _rref_matrices(F, n, k):
    """Yield every k×n RREF matrix over F with k pivots: pivot sets in
    ``combinations`` order, then the free entries row-major, the last one
    varying fastest."""
    for pivots in combinations(range(n), k):
        # a row has 1 at its pivot, 0 at the other pivots, free entries
        # after its pivot
        options = []
        for p in pivots:
            free = [c for c in range(p + 1, n) if c not in pivots]
            rows = []
            for values in product(range(F.q), repeat=len(free)):
                row = [0] * n
                row[p] = 1
                for c, v in zip(free, values):
                    row[c] = v
                rows.append(tuple(row))
            options.append(rows)
        yield from product(*options)


@dataclass
class L0Report:
    """``trace_count`` and ``intersection_closed`` are read off the closure
    of the hyperplane traces, by proof, not by listing the traces.  The
    product states are the (q + 1)² points of the quadric Q = {u ⊗ v} in
    PG(3, q), and the trace of a subspace V is V ∩ Q.  Traces meet as
    their subspaces do: (V₁ ∩ Q) ∩ (V₂ ∩ Q) = (V₁ ∩ V₂) ∩ Q.  Every
    subspace is a meet of hyperplanes (the whole space of none), so every
    trace is a meet of hyperplane traces, Σ for none; and every such meet
    is the trace of the meet of its hyperplanes.  So the closure of the
    hyperplane traces plus Σ is the trace family itself: its size is the
    number of distinct traces, and the traces are intersection-closed.

    ``triples`` counts traces of 3 pairwise product-distinct atoms, and
    is 0 by proof, not by a scan.  A point meets Q in 0 or 1 points, a
    line in 0, 1, 2 or q + 1, a plane in a conic (q + 1) or two lines
    (2q + 1), and the whole space in all (q + 1)².  Every q that
    tensor_trace_lattice accepts is odd (even q is refused, and q = 1 is
    not a prime power), so q ≥ 3, q + 1 ≥ 4, and no trace has 3 atoms.
    The two fields that are fixed by proof stay so that the reports keep
    their bytes."""
    trace_count: int
    intersection_closed: bool
    contains_sepprod: bool
    strict: bool
    strictness_witness: list
    triples: int
    orthocomplementation: str

    def to_json(self) -> dict:
        return asdict(self)


def trace_census(q: int) -> dict:
    """The number of traces of each size, from the geometry of the quadric
    Q of product states, n = (q + 1)² points on 2(q + 1) lines of q + 1
    points: ∅; the n points; the C(n, 2) − q·n pairs on no common line of
    Q (a line with 3 points of Q lies in Q, and those lines hold
    2(q + 1)·C(q + 1, 2) = q·n pairs); the q³ − q conics, one per plane
    not tangent to Q, and the 2(q + 1) lines of Q; the n tangent planes,
    two lines of Q through a point; and Q itself."""
    n = (q + 1) ** 2
    return {0: 1, 1: n, 2: n * (n - 1) // 2 - q * n,
            q + 1: q ** 3 - q + 2 * (q + 1), 2 * q + 1: n, n: 1}


def tensor_trace_lattice(q: int, lam: int):
    """Family of traces V ∩ (product states) over all subspaces V of the
    4-dimensional tensor space over GF(q).

    The factor geometry is the anisotropic quadratic line space (so the
    ambient tensor form diag(1, λ, λ, λ²) is nondegenerate and every
    subspace is biorthogonally closed).  Returns the intersection-closure of
    the trace family as a ClosureSystem over the # product carrier, plus a
    report on how the family relates to the separated product.
    """
    factor = make_quadratic_line_space(q, lam)  # raises unless 0 < λ < q
    F = field(q)
    prod, sepsys = separated_product(factor, factor)

    # Each RREF row is the RREF row of a point, and a point's mask is the
    # trace of its orthogonal hyperplane: the traces are the closure of
    # these (q + 1)(q² + 1) seeds (see L0Report)
    by_dim = enumerate_subspaces(q, 4)
    table = {row: _row_mask(F, lam, row) for (row,) in by_dim[1]}
    family_sys = ClosureSystem(prod, table.values())

    contains = sepsys.sets <= family_sys.sets
    witness = canonical_first(prod, family_sys.sets - sepsys.sets)
    oc = find_orthocomplementation(family_sys)
    report = L0Report(
        trace_count=len(family_sys),
        intersection_closed=True,  # see L0Report
        contains_sepprod=contains,
        strict=witness is not None,
        strictness_witness=ids(witness) if witness is not None else [],
        triples=0,  # see L0Report
        orthocomplementation="none" if oc is None else "found",
    )
    return family_sys, report


def _row_mask(F, lam, row):
    """Bit p set iff ``row`` is orthogonal to product state p = u ⊗ v under
    the form diag(1, λ, λ, λ²), that is iff uᵀMv = 0 with
    M = [[r₀, λr₁], [λr₂, λ²r₃]]: per point u, (α, β) = uᵀM is orthogonal
    to all of u's block if it is 0, else to [0:1] if β = 0, else to
    [1 : −α/β] alone."""
    add, mul, neg, inv = F.add, F.mul, F.neg, F.inv
    r0, r1, r2 = row[0], mul[lam][row[1]], mul[lam][row[2]]
    r3 = mul[mul[lam][lam]][row[3]]
    n = F.q + 1
    mask = 0
    for i, (u0, u1) in enumerate(projective_line_points(F.q)):
        a = add[mul[u0][r0]][mul[u1][r2]]
        b = add[mul[u0][r1]][mul[u1][r3]]
        if b:
            # [1:x] is point x + 1, and [1:0] is point 0
            x = neg[mul[a][inv[b]]]
            bits = 1 << (x + 1 if x else 0)
        else:
            bits = 2 if a else (1 << n) - 1
        mask |= bits << i * n
    return mask

