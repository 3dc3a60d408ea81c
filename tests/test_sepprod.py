from collections import Counter

import pytest

from platlab import (AtomSubset, check_axioms, daniel_lift, dump_system,
                     enumerate_closed, lift_product_map, make_mo,
                     make_powerset_space, p_hash_components, p_sharp,
                     perturbation_test, separated_product, sharp)
from platlab import sepprod
from platlab.closure import CarrierMismatchError
from platlab.lattice import automorphisms
from platlab.sepprod import (DanielConditionError, ProductSpace,
                             default_edge_sampler)


def test_sharp_relation_definition(mo2):
    prod = sharp(mo2, make_mo(3))
    for p in range(prod.size):
        p1, p2 = prod.decode(p)
        for q in range(prod.size):
            q1, q2 = prod.decode(q)
            expected = mo2.orth(p1, q1) or prod.right.orth(p2, q2)
            assert prod.orth(p, q) == expected


def test_sharp_rejects_invalid_factor():
    from platlab.orthospace import OrthoSpace
    bad = OrthoSpace(["x", "y"], (0b01, 0b01))  # reflexive
    with pytest.raises(ValueError,
                       match=r"invalid left factor relation: orth\(0,0\) set"):
        sharp(bad, make_mo(2))
    # the lowest defective atom is reported: 0 is asymmetric, 1 reflexive
    bad = OrthoSpace(["x", "y"], (0b10, 0b10))
    with pytest.raises(ValueError, match=r"invalid right factor relation: "
                                         r"asymmetric at \(0,1\)"):
        sharp(make_mo(2), bad)


def test_product_space_validates_rows(mo2):
    n = mo2.size ** 2
    rows = [0] * n
    rows[0] = 0b10  # 0 ⊥ 1 but not 1 ⊥ 0
    with pytest.raises(ValueError, match="not symmetric"):
        ProductSpace(mo2, mo2, rows, "bad")
    rows = [1 << p for p in range(n)]
    with pytest.raises(ValueError, match="not anti-reflexive"):
        ProductSpace(mo2, mo2, rows, "bad")


def test_mo2_mo2_closed_family(mo2_product):
    prod, psys = mo2_product
    assert len(psys) == 114
    comp = Counter(m.bit_count() for m in psys.masks)
    assert comp == {0: 1, 16: 1, 1: 16, 7: 16, 4: 8, 2: 72}


def test_coatom_is_cylinder_union(mo2_product):
    prod, _ = mo2_product
    for p in range(prod.size):
        i, j = prod.decode(p)
        expect = prod.cylinder1(prod.left.rows[i]) | \
            prod.cylinder2(prod.right.rows[j])
        assert p_sharp(prod, p).bits == expect == prod.rows[p]


def test_p_sharp_requires_sharp_relation(mo2):
    n = mo2.size ** 2
    prod = ProductSpace(mo2, mo2, [0] * n, "other")
    with pytest.raises(ValueError, match="p_sharp"):
        p_sharp(prod, 0)


@pytest.mark.parametrize("n,count", [(2, 72), (3, 450)])
def test_distinct_coordinate_pairs_are_closed(n, count):
    prod, psys = separated_product(make_mo(n), make_mo(n))
    checked = 0
    for p in range(prod.size):
        for q in range(p + 1, prod.size):
            p1, p2 = prod.decode(p)
            q1, q2 = prod.decode(q)
            if p1 == q1 or p2 == q2:
                continue
            checked += 1
            pair = (1 << p) | (1 << q)
            assert psys.join_mask(pair) == pair
    assert checked == count


def test_axioms_on_separated_product(mo2, mo2_sys, mo2_product):
    prod, psys = mo2_product
    W = list(automorphisms(mo2, mo2_sys, mode="ortho"))
    rep = check_axioms(prod, mo2_sys, mo2_sys, W, W, psys).to_json()
    for key in ("P1", "P2", "P3", "P4", "P5", "P4star", "separating"):
        assert rep[key]["holds"] is True, key
    assert rep["w1_inverse_closed"] and rep["w2_inverse_closed"]


def test_check_axioms_decides_p4_once(monkeypatch, mo2, mo2_sys,
                                     mo2_product):
    calls = []
    real = sepprod._check_p4

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sepprod, "_check_p4", counting)
    prod, psys = mo2_product
    W = list(automorphisms(mo2, mo2_sys, mode="ortho"))
    rep = check_axioms(prod, mo2_sys, mo2_sys, W, W, psys)
    assert rep.p4.holds and rep.p4star.holds
    assert len(calls) == 1


def test_axioms_vacuous_without_w(mo2, mo2_sys, mo2_product):
    prod, psys = mo2_product
    rep = check_axioms(prod, mo2_sys, mo2_sys, [], [], psys).to_json()
    assert rep["P4"]["holds"] == "vacuous"
    assert rep["P4star"]["holds"] == "vacuous"
    assert rep["P5"]["holds"] is True


def test_check_axioms_validates_inputs(mo2, mo2_sys, pow3_sys, mo2_product):
    prod, psys = mo2_product
    with pytest.raises(CarrierMismatchError):
        check_axioms(prod, pow3_sys, mo2_sys, [], [])
    with pytest.raises(ValueError, match="not a permutation"):
        check_axioms(prod, mo2_sys, mo2_sys, [(0, 0, 1, 2)], [], psys)


def test_lift_product_map(mo2_product):
    prod, psys = mo2_product
    u = (2, 3, 0, 1)
    perm = lift_product_map(prod, u, u)
    assert perm[prod.encode(0, 1)] == prod.encode(2, 3)
    assert sorted(perm) == list(range(16))
    with pytest.raises(ValueError, match="not a bijection"):
        lift_product_map(prod, (0, 0, 1, 2), u)


def test_extra_edge_breaks_an_axiom(mo2, mo2_sys, mo2_product):
    # relate (a1,a1) with (a2,a2): the perturbed biclosure of a singleton
    # collapses or a cylinder union stops being closed
    prod, _ = mo2_product
    from platlab.sepprod import _first_failing_axiom
    W = list(automorphisms(mo2, mo2_sys, mode="ortho"))
    rows = list(prod.rows)
    p, q = prod.encode(0, 0), prod.encode(2, 2)
    rows[p] |= 1 << q
    rows[q] |= 1 << p
    tweaked = ProductSpace(mo2, mo2, rows, "sharp+E")
    assert _first_failing_axiom(tweaked, mo2_sys, mo2_sys, W, W) is not None


def test_perturbation_run(mo2):
    summ = perturbation_test(mo2, mo2, trials=40, seed=11)
    assert summ.trials == 40
    assert sum(summ.failures_by_axiom.values()) == 40
    assert summ.theorem_contradictions == 0
    again = perturbation_test(mo2, mo2, trials=40, seed=11)
    assert again.to_json() == summ.to_json()


def test_perturbation_rejects_bad_sampler(mo2):
    def inside_sharp(rng, prod):
        return [(0, 1)]  # (a1,a1) # (a1,a1') — not allowed as E

    with pytest.raises(ValueError, match="inside #"):
        perturbation_test(mo2, mo2, sampler=inside_sharp, trials=1)
    with pytest.raises(ValueError, match="nonempty"):
        perturbation_test(mo2, mo2, sampler=lambda r, p: [], trials=1)


def test_default_edge_sampler_avoids_sharp(mo2):
    import random
    prod = sharp(mo2, mo2)
    rng = random.Random(0)
    for _ in range(50):
        for p, q in default_edge_sampler(rng, prod):
            assert p < q and not prod.orth(p, q)


def test_p_hash_components(mo2_product):
    prod, _ = mo2_product
    s1, s2, k = p_hash_components(prod, prod.encode(0, 1))
    assert s1.bits == prod.left.rows[0]
    assert s2.bits == prod.right.rows[1]
    assert k == 1  # P3 holds: exactly its own coatom fits


def test_daniel_lift_failure_witness(mo2_sys, pow3_sys):
    with pytest.raises(DanielConditionError) as exc:
        daniel_lift([0, 0, 1, 2], mo2_sys, pow3_sys)
    assert exc.value.target_ids == [0]
    assert exc.value.preimage_ids == [0, 1]


def test_daniel_lift_success(mo2_sys, pow3_sys):
    g = daniel_lift([0, 3, 2], pow3_sys, mo2_sys)
    assert g.apply(0b000).bits == 0
    assert g.apply(0b111).bits == mo2_sys.carrier.full
    a = g.apply(0b011)
    assert a.bits in mo2_sys.index

    # constant maps always satisfy the preimage condition
    c = daniel_lift([2, 2, 2, 2], mo2_sys, mo2_sys)
    assert c.apply(mo2_sys.carrier.full).bits == 0b0100


def test_daniel_lift_input_validation(mo2_sys, pow3_sys):
    with pytest.raises(ValueError, match="total"):
        daniel_lift([0], mo2_sys, pow3_sys)
    with pytest.raises(ValueError, match="out of range"):
        daniel_lift([0, 1, 2, 9], mo2_sys, pow3_sys)
