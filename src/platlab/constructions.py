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

# unused here, but the benchmark tracer swaps this binding for a traced
# kernel, so removing it breaks `perfbench/run.py --trace 1`
from ._kernel import pykernel  # noqa: F401
from .bits import ids, rect
from .closure import ClosureSystem, EnumerationLimitError
from .gf import field
from .lattice import (apply_perm_mask, find_orthocomplementation, invert,
                      is_permutation)
from .orthospace import (OrthoSpace, _require_orthogonality, _rows_from_pairs,
                         make_mo, make_quadratic_line_space,
                         projective_line_points)
from .sepprod import ProductSpace, lift_product_map, separated_product


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
        rows = [0] * space.size
        for p, neighbors in enumerate(lists):
            for q in neighbors:
                if not 0 <= q < space.size:
                    raise ValueError(f"C adjacency index out of range: {q}")
                rows[p] |= 1 << q
        return cls(space, tuple(rows))

    @classmethod
    def empty(cls, space: OrthoSpace) -> "CRelation":
        return cls(space, tuple([0] * space.size))


def _require_sharp(prod: ProductSpace):
    if prod.relation_name != "sharp":
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
    """Partition A₁..A₄ of Σ₁ with injective maps gᵢ: Aᵢ → product atoms."""
    partition: tuple  # four tuples of factor-atom indices
    maps: tuple       # four dicts atom → product atom

    @classmethod
    def from_json(cls, doc) -> "PairingData":
        part = tuple(tuple(block) for block in doc["partition"])
        maps = tuple({int(k): v for k, v in block.items()}
                     for block in doc["maps"])
        return cls(part, maps)

    def validate(self, prod: ProductSpace):
        if len(self.partition) != 4 or len(self.maps) != 4:
            raise ValueError("pairing data needs exactly four blocks")
        seen = set()
        for block in self.partition:
            for a in block:
                if type(a) is not int or not 0 <= a < prod.left.size:
                    raise ValueError(
                        f"partition atom is not a factor atom: {a!r}")
                if a in seen:
                    raise ValueError(f"partition blocks overlap at atom {a}")
                seen.add(a)
        if len(seen) != prod.left.size:
            raise ValueError("partition does not cover the factor atoms")
        for block, g in zip(self.partition, self.maps):
            if set(g) != set(block):
                raise ValueError("map domain differs from its block")
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

    def image_of_diagonal(self, prod: ProductSpace, a: int):
        for block, g in zip(self.partition, self.maps):
            if a in g:
                return g[a]
        raise KeyError(a)


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
    f = {prod.encode(a, a): data.image_of_diagonal(prod, a)
         for a in range(prod.left.size)}
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
            for q in lift_product_map(prod, f1.perm, f2.perm)]
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
    F = field(q)
    total = _total_subspaces(q, dim)
    if total > SUBSPACE_ENUM_LIMIT:
        raise EnumerationLimitError(
            f"{total} subspaces exceeds limit {SUBSPACE_ENUM_LIMIT}; raise "
            "it by setting platlab.constructions.SUBSPACE_ENUM_LIMIT")
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
    """Yield every k×n RREF matrix over F with k pivots."""
    from itertools import combinations, product

    for pivots in combinations(range(n), k):
        free = []
        for r in range(k):
            for c in range(pivots[r] + 1, n):
                if c not in pivots:
                    free.append((r, c))
        for values in product(range(F.q), repeat=len(free)):
            mat = [[0] * n for _ in range(k)]
            for r, p in enumerate(pivots):
                mat[r][p] = 1
            for (r, c), v in zip(free, values):
                mat[r][c] = v
            yield tuple(tuple(row) for row in mat)


@dataclass
class L0Report:
    trace_count: int
    intersection_closed: bool
    contains_sepprod: bool
    strict: bool
    strictness_witness: list
    triples: int
    orthocomplementation: str

    def to_json(self) -> dict:
        return asdict(self)


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
    weights = (1, lam, lam, F.mul(lam, lam))
    prod, sepsys = separated_product(factor, factor)
    states = _weighted_states(F, weights)

    # W ↦ W^⊥ is a bijection on subspaces and V = (V^⊥)^⊥, so the trace of
    # W^⊥ (the product states orthogonal to every row of W) ranges over
    # all traces as W does: rows == () gives Σ, the full basis gives ∅
    row_masks = {}
    traces = set()
    for mats in enumerate_subspaces(q, 4).values():
        for rows in mats:
            mask = prod.full
            for row in rows:
                if row not in row_masks:
                    row_masks[row] = _row_mask(F, states, row)
                mask &= row_masks[row]
            traces.add(mask)

    family_sys = ClosureSystem(prod, traces)

    contains = sepsys.sets <= family_sys.sets
    witness = family_sys.first(lambda m: m not in sepsys.sets)
    triples = sum(1 for m in traces
                  if m.bit_count() == 3 and _pairwise_product_distinct(prod, m))
    oc = find_orthocomplementation(family_sys)
    report = L0Report(
        trace_count=len(traces),
        # the closure holds every trace, Σ among them
        intersection_closed=len(family_sys) == len(traces),
        contains_sepprod=contains,
        strict=witness is not None,
        strictness_witness=ids(witness) if witness is not None else [],
        triples=triples,
        orthocomplementation="none" if oc is None else "found",
    )
    return family_sys, report


def _weighted_states(F, weights):
    """The product states u ⊗ v of two projective lines over F, in product
    atom order, with the form's weights folded in: a row r is orthogonal
    to state x iff Σ rᵢ·(wᵢ·xᵢ) = 0."""
    mul = F._mul
    points = projective_line_points(F.q)
    out = []
    for u in points:
        for v in points:
            state = (mul[u[0]][v[0]], mul[u[0]][v[1]],
                     mul[u[1]][v[0]], mul[u[1]][v[1]])
            out.append(tuple(mul[w][x] for w, x in zip(weights, state)))
    return out


def _row_mask(F, states, row):
    """Bit p set iff ``row`` is orthogonal to weighted state p, read off
    F's add and mul tables."""
    add, mul = F._add, F._mul
    # mul[c] is the table row of c·_, so r0[a] = row[0]·a
    r0, r1, r2, r3 = (mul[c] for c in row)
    mask = 0
    for p, (a, b, c, d) in enumerate(states):
        if add[add[r0[a]][r1[b]]][add[r2[c]][r3[d]]] == 0:
            mask |= 1 << p
    return mask


def _pairwise_product_distinct(prod: ProductSpace, mask: int) -> bool:
    atoms = [prod.decode(p) for p in ids(mask)]
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            if atoms[i][0] == atoms[j][0] or atoms[i][1] == atoms[j][1]:
                return False
    return True
