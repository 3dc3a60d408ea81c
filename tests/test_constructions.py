import json
import random
from itertools import product

import pytest

from platlab import (check_axioms, dump_system, enumerate_closed, lattice,
                     separated_product, sharp)
from platlab.constructions import (CRelation, FactorBijection, PairingData,
                                   _row_mask, build_perp2, build_perp3,
                                   build_perp4, build_perp5,
                                   enumerate_subspaces,
                                   gaussian_binomial, mo_pair_swap_bijection,
                                   tensor_trace_lattice, trace_census)
from platlab.closure import (CarrierMismatchError, ClosureSystem,
                             EnumerationLimitError)
from platlab.gf import field
from platlab.lattice import automorphisms
from platlab.orthospace import (_rows_from_pairs, make_quadratic_line_space,
                                projective_line_points, validate_relation)
from platlab.sepprod import ProductSpace
from test_closure import canonical_key
from test_kernel import old_intersection_closure

C_MO2 = [[2], [3], [0], [1]]  # pair a1↔a2, a1'↔a2'


@pytest.fixture(scope="module")
def setup(mo2, mo2_sys):
    prod = sharp(mo2, mo2)
    W = list(automorphisms(mo2, mo2_sys, mode="ortho"))
    C = CRelation.from_adjacency(mo2, C_MO2)
    return prod, W, C


def test_c_relation_validation(mo2):
    with pytest.raises(ValueError,
                       match="C data is not anti-reflexive at atom 0"):
        CRelation.from_adjacency(mo2, [[0], [], [], []])
    with pytest.raises(ValueError,
                       match=r"C data is not symmetric at \(0, 2\)"):
        CRelation(mo2, (0b0100, 0, 0, 0))
    with pytest.raises(ValueError, match="out of range"):
        CRelation.from_adjacency(mo2, [[7], [], [], []])
    with pytest.raises(ValueError,
                       match="C data row of atom 0 has bit 4, beyond its 4 "
                             "atoms"):
        CRelation(mo2, (0b10000, 0, 0, 0))
    # True would pass `0 <= q < n` as atom 1, and 2.0 fail in the bit shift
    for index in (True, 2.0):
        with pytest.raises(ValueError, match="C adjacency index out of range"):
            CRelation.from_adjacency(mo2, [[index], [], [], []])
    # 5 lists would index past the rows, and 2 leave atoms 2 and 3 with
    # empty rows: (0b10, 0b01, 0, 0) is a valid C-relation
    with pytest.raises(ValueError, match="5 lists for 4 atoms"):
        CRelation.from_adjacency(mo2, C_MO2 + [[]])
    with pytest.raises(ValueError, match="2 lists for 4 atoms"):
        CRelation.from_adjacency(mo2, [[1], [0]])


def test_perp2_formula(setup):
    prod, W, C = setup
    rel = build_perp2(prod, C, C)
    for p in range(prod.size):
        i, j = prod.decode(p)
        extra = 0
        for q in range(prod.size):
            q1, q2 = prod.decode(q)
            if C.rows[i] >> q1 & 1 and C.rows[j] >> q2 & 1:
                extra |= 1 << q
        assert rel.rows[p] == prod.sharp_row(p) | extra


def test_perp3_formula(setup):
    prod, W, C = setup
    rel = build_perp3(prod, C, C)
    for p in range(prod.size):
        i, j = prod.decode(p)
        extra = 0
        for q in range(prod.size):
            q1, q2 = prod.decode(q)
            if C.rows[i] >> q1 & 1 or C.rows[j] >> q2 & 1:
                extra |= 1 << q
        assert rel.rows[p] == prod.sharp_row(p) | extra


def test_empty_c_reproduces_sharp(setup, mo2):
    prod, W, C = setup
    e = CRelation.empty(mo2)
    assert build_perp2(prod, e, e).rows == prod.rows
    assert build_perp3(prod, e, e).rows == prod.rows


def test_perp2_breaks_p2(setup, mo2_sys):
    prod, W, C = setup
    rep = check_axioms(build_perp2(prod, C, C), mo2_sys, mo2_sys,
                       W, W).to_json()
    assert rep["P2"]["holds"] is False
    assert rep["P3"]["holds"] is True


def test_check_axioms_refuses_another_relations_system(setup, mo2_sys):
    # the # product's closed sets are not those of ⊥2: given them, P2 and
    # P4 read as holding, while on ⊥2's own system both fail
    prod, W, C = setup
    perp2 = build_perp2(prod, C, C)
    rep = check_axioms(perp2, mo2_sys, mo2_sys, W, W).to_json()
    assert rep["P2"]["holds"] is False and rep["P4"]["holds"] is False
    for other in (enumerate_closed(prod),
                  ClosureSystem(perp2, enumerate_closed(perp2).masks)):
        with pytest.raises(CarrierMismatchError):
            check_axioms(perp2, mo2_sys, mo2_sys, W, W, other)


def test_perp3_breaks_p3(setup, mo2_sys):
    prod, W, C = setup
    rep = check_axioms(build_perp3(prod, C, C), mo2_sys, mo2_sys,
                       W, W).to_json()
    assert rep["P3"]["holds"] is False or rep["P2"]["holds"] is False


def test_pairing_data_validation(setup, mo2):
    prod, W, C = setup
    with pytest.raises(ValueError, match="four blocks"):
        PairingData(({}, {})).validate(prod)
    with pytest.raises(ValueError, match="overlap at atom 1"):
        PairingData(({0: 10, 1: 15}, {1: 15}, {2: 0}, {3: 5})).validate(prod)
    with pytest.raises(ValueError, match="cover"):
        PairingData(({0: 10}, {1: 15}, {2: 0}, {})).validate(prod)
    with pytest.raises(ValueError, match="not injective"):
        PairingData(({0: 10, 1: 10}, {}, {2: 0}, {3: 5})).validate(prod)
    with pytest.raises(ValueError, match="coatom-disjointness"):
        # (a1,a1)^# contains column/row mates of its coordinates
        PairingData(({0: 1}, {1: 15}, {2: 0}, {3: 5})).validate(prod)
    # an index is an int: a float or a bool equal to one is refused
    for maps in (({0: 10}, {1: 15}, {2: 0}, {3.0: 5}),
                 ({0: 10}, {True: 15}, {2: 0}, {3: 5})):
        with pytest.raises(ValueError, match="not a factor atom"):
            PairingData(maps).validate(prod)
    for target in (10.0, True):
        with pytest.raises(ValueError, match="not a product atom"):
            PairingData(({0: target}, {1: 15}, {2: 0}, {3: 5})
                        ).validate(prod)
    good = PairingData(({0: 10}, {1: 15}, {2: 0}, {3: 5}))
    good.validate(prod)
    # the diagonal atom (1, 1) is paired with g(1) = 15
    row = build_perp4(prod, good).rows[prod.encode(1, 1)]
    assert row & prod.sharp_row(15) == prod.sharp_row(15)


def test_perp4_builds_and_reports(setup, mo2_sys):
    prod, W, C = setup
    data = PairingData(({0: 10}, {1: 15}, {2: 0}, {3: 5}))
    rel = build_perp4(prod, data)
    # the # part is always included and the extra pairs are symmetric
    for p in range(rel.size):
        assert rel.rows[p] & prod.sharp_row(p) == prod.sharp_row(p)
    rep = check_axioms(rel, mo2_sys, mo2_sys, W, W).to_json()
    # on mo2 the minimal pairing data makes the relation non-separating
    assert rep["separating"]["holds"] is False
    assert rep["P2"]["holds"] is False
    assert rep["P4"]["holds"] is False
    assert rep["P4star"] == rep["P4"]


def test_perp4_rows_match_the_defining_formula(setup):
    # p^# ∪ f(p)^# ∪ f⁻¹(p^#), pointwise, for seeded pairings of the
    # diagonal atoms (a, a) of MO2 × MO2 with one target each
    prod = setup[0]
    rng = random.Random(0)
    built = 0
    for _ in range(400):
        targets = [rng.randrange(prod.size) for _ in range(4)]
        data = PairingData(tuple({a: t} for a, t in enumerate(targets)))
        try:
            data.validate(prod)
        except ValueError:
            continue
        rel = build_perp4(prod, data)
        built += 1
        f = {prod.encode(a, a): t for a, t in enumerate(targets)}
        for p in range(prod.size):
            want = prod.sharp_row(p) | sum(
                1 << q for q, fq in f.items() if prod.sharp_row(p) >> fq & 1)
            if p in f:
                want |= prod.sharp_row(f[p])
            assert rel.rows[p] == want
    # each (a, a) has 9 of its 16 targets outside (a, a)^#
    assert built > 20


PAIRING_MO2 = PairingData(({0: 10}, {1: 15}, {2: 0}, {3: 5}))
BUILDERS = {
    "perp2": lambda prod, C: build_perp2(prod, C, C),
    "perp3": lambda prod, C: build_perp3(prod, C, C),
    "perp4": lambda prod, C: build_perp4(prod, PAIRING_MO2),
    "perp5": lambda prod, C: build_perp5(prod, mo_pair_swap_bijection(2),
                                         mo_pair_swap_bijection(2)),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builders_read_sharp_off_the_rows(setup, name):
    # # is decided by the rows; relation_name is only a label
    prod, _, C = setup
    build = BUILDERS[name]
    assert not prod.rows[0] >> 10 & 1  # (a1, a1) and (a2, a2) are not #
    not_sharp = ProductSpace(prod.left, prod.right,
                             _rows_from_pairs(prod.rows, [(0, 10)]), "sharp")
    with pytest.raises(ValueError,
                       match="builders start from the # product space"):
        build(not_sharp, C)
    relabelled = ProductSpace(prod.left, prod.right, prod.rows, "candidate")
    assert build(relabelled, C).rows == build(prod, C).rows


def test_factor_bijection_validation(mo2):
    with pytest.raises(ValueError, match="identity"):
        FactorBijection((0, 1, 2, 3)).validate(mo2)
    with pytest.raises(ValueError, match="own polar"):
        FactorBijection((1, 0, 3, 2)).validate(mo2)
    # (2, 3, 0, True) sorts equal to 0..3, but True is not an atom index
    for perm in ((0, 0, 1, 2), (2.0, 3, 0, 1), (2, 3, 0, True), 5):
        with pytest.raises(ValueError, match="not a permutation"):
            FactorBijection(perm).validate(mo2)
    mo_pair_swap_bijection(2)  # validates internally
    with pytest.raises(ValueError, match="n >= 2"):
        mo_pair_swap_bijection(1)


def test_perp5_same_closed_family_but_p5_fails(setup, mo2_sys):
    prod, W, C = setup
    f = mo_pair_swap_bijection(2)
    rel = build_perp5(prod, f, f)
    assert rel.rows != prod.rows
    base_sys = enumerate_closed(prod)
    rel_sys = enumerate_closed(rel)
    assert dump_system(rel_sys) == dump_system(base_sys)
    assert validate_relation(rel).holds
    rep = check_axioms(rel, mo2_sys, mo2_sys, W, W, rel_sys).to_json()
    assert rep["P2"]["holds"] and rep["P3"]["holds"] and rep["P4"]["holds"]
    assert rep["P5"]["holds"] is False
    assert rep["P5"]["witness"] is not None
    assert rep["P4star"]["holds"] is False


def test_gaussian_binomials():
    assert gaussian_binomial(4, 1, 3) == 40
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(4, 3, 3) == 40
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 0, 5) == 1


@pytest.mark.parametrize("q", [2, 3])
def test_subspace_enumeration_counts(q):
    by_dim = enumerate_subspaces(q, 4)
    for k in range(5):
        assert len(by_dim[k]) == gaussian_binomial(4, k, q)


def old_rref_matrices(F, n, k):
    """Oracle: every k×n RREF matrix over F with k pivots, filled cell by
    cell, as ``enumerate_subspaces`` listed them before the row options."""
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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_subspace_enumeration_order(q):
    # the order is part of the output: plat verify prints the counts and
    # the benchmark counts the subspaces, and the traces follow it
    F = field(q)
    by_dim = enumerate_subspaces(q, 4)
    assert list(by_dim) == [0, 1, 2, 3, 4]
    assert by_dim[0] == [()]
    for k in range(1, 5):
        assert by_dim[k] == list(old_rref_matrices(F, 4, k)), k


def test_subspace_enumeration_limit():
    with pytest.raises(EnumerationLimitError):
        enumerate_subspaces(23, 4)


def test_subspace_limit_is_checked_before_the_field():
    # GF(1009) takes seconds to build; the refusal builds no field
    before = field.cache_info().currsize
    with pytest.raises(EnumerationLimitError):
        enumerate_subspaces(1009, 4)
    assert field.cache_info().currsize == before


@pytest.mark.parametrize("q", [0, 1, 6, 10])
def test_subspaces_of_a_non_prime_power_under_the_limit(q):
    with pytest.raises(ValueError, match="not a prime power"):
        enumerate_subspaces(q, 4)


def test_tensor_trace_lattice_q3(fixture_dir):
    family, report = tensor_trace_lattice(3, 1)
    j = report.to_json()
    assert j["trace_count"] == 138
    assert j["intersection_closed"] is True
    assert j["contains_sepprod"] is True
    assert j["strict"] is True
    assert j["strictness_witness"] == [0, 5, 10, 15]
    assert j["orthocomplementation"] == "none"
    committed = json.loads((fixture_dir / "l0_q3.json").read_text())
    assert j == committed


def _reduce_against(F, rows, vec):
    """Reduce vec against RREF rows; returns the residual vector."""
    v = list(vec)
    for row in rows:
        pivot = next(i for i, x in enumerate(row) if x)
        if v[pivot]:
            c = v[pivot]
            for i in range(len(v)):
                v[i] = F.add[v[i]][F.neg[F.mul[c][row[i]]]]
    return v


def span_membership_traces(q):
    """Oracle: per subspace V, the product states whose vector u⊗v lies in
    V by Gaussian reduction against V's RREF rows."""
    F = field(q)
    points = projective_line_points(q)
    vectors = [(F.mul[u[0]][v[0]], F.mul[u[0]][v[1]],
                F.mul[u[1]][v[0]], F.mul[u[1]][v[1]])
               for u in points for v in points]
    traces = set()
    for mats in enumerate_subspaces(q, 4).values():
        for rows in mats:
            traces.add(sum(1 << p for p, vec in enumerate(vectors)
                           if not any(_reduce_against(F, rows, vec))))
    return traces


@pytest.mark.parametrize("q,lam", [(3, 1), (5, 2), (5, 3)])
def test_tensor_traces_match_span_membership(q, lam):
    traces = span_membership_traces(q)
    closed = all((a & b) in traces for a in traces for b in traces)
    canonical = sorted(traces, key=canonical_key)
    factor = make_quadratic_line_space(q, lam)
    _, sepsys = separated_product(factor, factor)
    witness = next(m for m in canonical if m not in sepsys.sets)
    n2 = q + 1
    triples = 0
    for m in traces:
        cells = [divmod(p, n2) for p in range(n2 * n2) if m >> p & 1]
        if (len(cells) == 3 and len({i for i, _ in cells}) == 3
                and len({j for _, j in cells}) == 3):
            triples += 1

    family, report = tensor_trace_lattice(q, lam)
    j = report.to_json()
    assert j["trace_count"] == len(traces)
    assert closed
    # the family closes the hyperplane traces alone, the BFS all traces
    assert family.sets == set(old_intersection_closure(traces,
                                                       family.carrier.full))
    assert j["intersection_closed"] is True
    assert family.masks == canonical
    assert j["strictness_witness"] == [p for p in range(n2 * n2)
                                       if witness >> p & 1]
    assert j["triples"] == triples


Q7_CENSUS = {0: 1, 1: 64, 2: 1568, 8: 352, 15: 64, 64: 1}


@pytest.mark.parametrize("q,lam,census", [
    (3, 1, {0: 1, 1: 16, 2: 72, 4: 32, 7: 16, 16: 1}),
    (5, 2, {0: 1, 1: 36, 2: 450, 6: 132, 11: 36, 36: 1}),
    (5, 3, {0: 1, 1: 36, 2: 450, 6: 132, 11: 36, 36: 1}),
    (7, 1, Q7_CENSUS),
    (7, 2, Q7_CENSUS),
    (7, 4, Q7_CENSUS),
    (9, 4, {0: 1, 1: 100, 2: 4050, 10: 740, 19: 100, 100: 1}),
], ids=["q3-lam1", "q5-lam2", "q5-lam3", "q7-lam1", "q7-lam2", "q7-lam4",
        "q9-lam4"])
def test_tensor_trace_sizes(q, lam, census, monkeypatch):
    # a line of PG(3, q) meets the quadric of product states in 0, 1, 2 or
    # q + 1 points, and a plane in a conic (q + 1) or two lines (2q + 1):
    # no trace has 3 atoms, so the report's triples count is 0.  q = 7 has
    # 2,050 traces, above the default orthocomplementation search limit,
    # and q = 9 has 100 product atoms, above the default atom cap.  The
    # trace count and closedness hold by proof; the sizes can go wrong
    monkeypatch.setattr(lattice, "ORTHOCOMPLEMENT_SEARCH_LIMIT", 10**9)
    monkeypatch.setenv("PLAT_LIMIT_ATOMS", "100")
    family, report = tensor_trace_lattice(q, lam)
    sizes = {}
    for m in family.masks:
        sizes[m.bit_count()] = sizes.get(m.bit_count(), 0) + 1
    assert sizes == census == trace_census(q)
    assert report.trace_count == sum(census.values())
    assert report.triples == 0
    # the diagonal {(i, i)} of the (q + 1) × (q + 1) product atoms
    n2 = q + 1
    assert report.strictness_witness == list(range(0, n2 * n2, n2 + 1))
    assert report.orthocomplementation == "none"


@pytest.mark.parametrize("q,lam", [(3, 1), (5, 2), (7, 1)],
                         ids=["q3-lam1", "q5-lam2", "q7-lam1"])
def test_trace_atoms_and_coatoms(q, lam, monkeypatch):
    # the atoms are the (q + 1)² product states and the coatoms exactly the
    # (q + 1)(q² + 1) hyperplane traces; both are read off the generators,
    # so the traces are never sorted.  q = 7 has 2,050 traces, above the
    # default orthocomplementation search limit
    if q == 7:
        monkeypatch.setattr(lattice, "ORTHOCOMPLEMENT_SEARCH_LIMIT", 10**9)
    family, _ = tensor_trace_lattice(q, lam)
    assert "masks" not in vars(family)
    assert family.atoms() == [1 << p for p in range((q + 1) ** 2)]
    hyperplanes = {_row_mask(field(q), lam, row)
                   for (row,) in enumerate_subspaces(q, 4)[1]}
    assert len(hyperplanes) == (q + 1) * (q * q + 1)
    coatoms = family.coatoms()
    assert len(coatoms) == len(hyperplanes)
    assert set(coatoms) == hyperplanes
    assert "masks" not in vars(family)


def dot_mask(F, weights, row):
    """Oracle: the trace mask of one row, one ``F.dot`` per product state."""
    points = projective_line_points(F.q)
    states = [(F.mul[u[0]][v[0]], F.mul[u[0]][v[1]],
               F.mul[u[1]][v[0]], F.mul[u[1]][v[1]])
              for u in points for v in points]
    return sum(1 << p for p, x in enumerate(states)
               if F.dot(row, x, weights) == 0)


def _anisotropic(q, lam):
    try:
        make_quadratic_line_space(q, lam)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_table_masks_match_dot_masks(q):
    # GF(9) is not prime: its negation and inverse tables are not mod 9
    F = field(q)
    lams = [lam for lam in range(1, q) if _anisotropic(q, lam)]
    assert len(lams) == (q - 1) // 2
    # every projective point of GF(q)^4, first nonzero coordinate 1
    points = [v for v in product(range(q), repeat=4)
              if next((x for x in v if x), 0) == 1]
    assert len(points) == (q ** 4 - 1) // (q - 1)
    for lam in lams:
        weights = (1, lam, lam, F.mul[lam][lam])
        for row in points:
            assert _row_mask(F, lam, row) == dot_mask(F, weights, row), \
                (lam, row)


def test_tensor_trace_rejects_isotropic_form():
    with pytest.raises(ValueError, match="isotropic"):
        tensor_trace_lattice(3, 2)
