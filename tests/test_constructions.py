import json

import pytest

from platlab import (check_axioms, dump_system, enumerate_closed, make_mo,
                     separated_product, sharp)
from platlab.constructions import (CRelation, FactorBijection, L0Report,
                                   PairingData, build_perp2, build_perp3,
                                   build_perp4, build_perp5,
                                   enumerate_subspaces, gaussian_binomial,
                                   mo_pair_swap_bijection,
                                   tensor_trace_lattice)
from platlab.closure import EnumerationLimitError
from platlab.lattice import automorphisms
from platlab.sepprod import _check_separating

C_MO2 = [[2], [3], [0], [1]]  # pair a1↔a2, a1'↔a2'


@pytest.fixture(scope="module")
def setup(mo2, mo2_sys):
    prod = sharp(mo2, mo2)
    W = list(automorphisms(mo2, mo2_sys, mode="ortho"))
    C = CRelation.from_adjacency(mo2, C_MO2)
    return prod, W, C


def test_c_relation_validation(mo2):
    with pytest.raises(ValueError, match="0 ∈ C"):
        CRelation.from_adjacency(mo2, [[0], [], [], []])
    with pytest.raises(ValueError, match="∉ C"):
        CRelation(mo2, (0b0100, 0, 0, 0))
    with pytest.raises(ValueError, match="out of range"):
        CRelation.from_adjacency(mo2, [[7], [], [], []])


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


def test_perp3_breaks_p3(setup, mo2_sys):
    prod, W, C = setup
    rep = check_axioms(build_perp3(prod, C, C), mo2_sys, mo2_sys,
                       W, W).to_json()
    assert rep["P3"]["holds"] is False or rep["P2"]["holds"] is False


def test_pairing_data_validation(setup, mo2):
    prod, W, C = setup
    with pytest.raises(ValueError, match="four blocks"):
        PairingData(((0, 1), (2, 3)), ({}, {})).validate(prod)
    with pytest.raises(ValueError, match="cover"):
        PairingData(((0,), (1,), (2,), ()),
                    ({0: 10}, {1: 15}, {2: 0}, {})).validate(prod)
    with pytest.raises(ValueError, match="coatom-disjointness"):
        # (a1,a1)^# contains column/row mates of its coordinates
        PairingData(((0,), (1,), (2,), (3,)),
                    ({0: 1}, {1: 15}, {2: 0}, {3: 5})).validate(prod)
    good = PairingData(((0,), (1,), (2,), (3,)),
                       ({0: 10}, {1: 15}, {2: 0}, {3: 5}))
    good.validate(prod)
    assert good.image_of_diagonal(prod, 1) == 15


def test_pairing_data_round_trip(setup):
    prod, W, C = setup
    doc = {"partition": [[0], [1], [2], [3]],
           "maps": [{"0": 10}, {"1": 15}, {"2": 0}, {"3": 5}]}
    data = PairingData.from_json(doc)
    data.validate(prod)


def test_perp4_builds_and_reports(setup, mo2_sys):
    prod, W, C = setup
    data = PairingData(((0,), (1,), (2,), (3,)),
                       ({0: 10}, {1: 15}, {2: 0}, {3: 5}))
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


def test_factor_bijection_validation(mo2):
    with pytest.raises(ValueError, match="identity"):
        FactorBijection((0, 1, 2, 3)).validate(mo2)
    with pytest.raises(ValueError, match="own polar"):
        FactorBijection((1, 0, 3, 2)).validate(mo2)
    with pytest.raises(ValueError, match="not a permutation"):
        FactorBijection((0, 0, 1, 2)).validate(mo2)
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
    assert _check_separating(rel).holds
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


def test_subspace_enumeration_limit():
    with pytest.raises(EnumerationLimitError):
        enumerate_subspaces(23, 4)


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


def test_tensor_trace_rejects_isotropic_form():
    with pytest.raises(ValueError, match="isotropic"):
        tensor_trace_lattice(3, 2)
