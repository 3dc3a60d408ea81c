"""Acceptance gate: twelve criteria, each timed against its stated budget.

Every test records exactly one line

    [criterion NN] PASS|FAIL  <summary>  (<elapsed>s / budget <limit>s)

echoed in the terminal summary (see the ``criterion`` fixture in conftest).
"""

import json
import pathlib
import random

import pytest

from platlab import (AtomSubset, biclosure, brute_force_closed, check_axioms,
                     daniel_lift, dump_system, enumerate_closed, make_mo,
                     make_powerset_space, make_quadratic_line_space,
                     perturbation_test, polar, separated_product, sharp)
from platlab.cli import run_verify_suite
from platlab.constructions import (build_perp2, build_perp5, CRelation,
                                   mo_pair_swap_bijection,
                                   tensor_trace_lattice)
from platlab.lattice import (automorphisms, covering_property,
                             find_orthocomplementation, orthomodularity)
from platlab.sepprod import DanielConditionError

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"




def test_criterion_01_closure_laws(criterion):
    with criterion(1, "closure laws on 1000 random subsets of a 36-atom "
                      "product", 1.0):
        prod = sharp(make_mo(3), make_mo(3))
        rng = random.Random(2026)
        for _ in range(1000):
            a = AtomSubset(prod, rng.randrange(1 << prod.size))
            b = AtomSubset(prod, rng.randrange(1 << prod.size))
            ca = biclosure(prod, a)
            assert a <= ca
            assert biclosure(prod, ca) == ca
            assert biclosure(prod, a & b) <= ca  # monotone: a∧b ⊆ a
            assert polar(prod, ca) == polar(prod, a)


def test_criterion_02_oracle_equivalence(criterion):
    with criterion(2, "enumeration equals the exponential oracle on all "
                      "carriers up to 12 atoms", 10.0):
        carriers = [make_mo(2), make_mo(3), make_powerset_space(2),
                    make_powerset_space(3), make_powerset_space(4),
                    make_quadratic_line_space(3, 1),
                    make_quadratic_line_space(5, 2),
                    sharp(make_mo(1), make_mo(2)),
                    sharp(make_mo(1), make_mo(3)),
                    sharp(make_mo(1), make_powerset_space(3)),
                    sharp(make_powerset_space(2), make_powerset_space(2)),
                    sharp(make_mo(2), make_powerset_space(3))]
        for c in carriers:
            assert c.size <= 12
            assert enumerate_closed(c).masks == brute_force_closed(c).masks


def test_criterion_03_axioms_on_product(criterion):
    with criterion(3, "all axioms hold on the 4x4 product with factor "
                      "automorphisms as W", 1.0):
        mo2 = make_mo(2)
        sys2 = enumerate_closed(mo2)
        prod, psys = separated_product(mo2, mo2)
        W = list(automorphisms(mo2, sys2, mode="ortho"))
        rep = check_axioms(prod, sys2, sys2, W, W, psys).to_json()
        for key in ("P1", "P2", "P3", "P4", "P5", "P4star", "separating"):
            assert rep[key]["holds"] is True, key


def test_criterion_04_no_covering_no_orthomodularity(criterion):
    with criterion(4, "covering and orthomodularity fail on every MO "
                      "product, hold on the Boolean control", 30.0):
        for n in (2, 3):
            for m in (2, 3):
                prod, psys = separated_product(make_mo(n), make_mo(m))
                cov = covering_property(psys)
                om = orthomodularity(prod, psys)
                assert cov.holds is False and cov.witness is not None
                assert om.holds is False and om.witness is not None
        prod, psys = separated_product(make_powerset_space(2),
                                       make_powerset_space(2))
        assert covering_property(psys).holds
        assert orthomodularity(prod, psys).holds


def test_criterion_05_distinct_pairs_closed(criterion):
    with criterion(5, "exhaustive: every distinct-coordinate atom pair is "
                      "its own join (72 and 450 unordered pairs)", 5.0):
        for n, expected in ((2, 72), (3, 450)):
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
            assert checked == expected


def test_criterion_06_perturbations(criterion):
    with criterion(6, "500 seeded perturbed relations each fail an axiom, "
                      "zero contradictions", 60.0):
        summ = perturbation_test(make_mo(2), make_mo(2), trials=500, seed=0)
        assert sum(summ.failures_by_axiom.values()) == 500
        assert summ.theorem_contradictions == 0


def test_criterion_07_p2_forms_agree(criterion):
    with criterion(7, "cylinder-based and coatom-based closedness verdicts "
                      "agree on intact and broken fixtures", 5.0):
        mo2 = make_mo(2)
        sys2 = enumerate_closed(mo2)
        prod = sharp(mo2, mo2)
        W = list(automorphisms(mo2, sys2, mode="ortho"))
        C = CRelation.from_adjacency(mo2, [[2], [3], [0], [1]])
        broken = build_perp2(prod, C, C)
        for rel in (prod, broken):
            rep = check_axioms(rel, sys2, sys2, W, W)
            assert rep.p2_forms_agree
        assert check_axioms(broken, sys2, sys2, W, W).p2.holds is False


def test_criterion_08_twisted_relation(criterion):
    with criterion(8, "twisted relation: byte-identical closed family, "
                      "P5 and P4* fail with witnesses", 5.0):
        mo2 = make_mo(2)
        sys2 = enumerate_closed(mo2)
        prod, psys = separated_product(mo2, mo2)
        W = list(automorphisms(mo2, sys2, mode="ortho"))
        f = mo_pair_swap_bijection(2)
        from platlab.constructions import build_perp5
        rel = build_perp5(prod, f, f)
        rel_sys = enumerate_closed(rel)
        assert dump_system(rel_sys) == dump_system(psys)
        rep = check_axioms(rel, sys2, sys2, W, W, rel_sys).to_json()
        assert rep["P5"]["holds"] is False
        assert rep["P5"]["witness"] is not None
        assert rep["P4star"]["holds"] is False
        assert rep["P4star"]["witness"] is not None


def test_criterion_09_tensor_trace_family(criterion):
    with criterion(9, "tensor-trace family at q=3 strictly contains the "
                      "product, admits no orthocomplementation, matches "
                      "the committed report", 120.0):
        family, report = tensor_trace_lattice(3, 1)
        _, psys = separated_product(make_quadratic_line_space(3, 1),
                                    make_quadratic_line_space(3, 1))
        for m in psys.masks:                       # (a) containment
            assert m in family.sets
        j = report.to_json()
        assert j["strict"] and j["strictness_witness"]      # (b)
        assert find_orthocomplementation(family) is None    # (c)
        committed = json.loads((FIXTURES / "l0_q3.json").read_text())
        text = json.dumps(j, indent=2) + "\n"               # (d)
        assert text == (FIXTURES / "l0_q3.json").read_text()
        assert j == committed


def test_criterion_10_join_lifts(criterion):
    with criterion(10, "50 seeded maps lift join-preservingly; the "
                       "committed failing map yields its witness", 10.0):
        mo2sys = enumerate_closed(make_mo(2))
        pow3sys = enumerate_closed(make_powerset_space(3))
        mo3sys = enumerate_closed(make_mo(3))
        rng = random.Random(2026)
        lifted = 0
        while lifted < 50:
            if rng.random() < 0.5:
                f = [rng.randrange(6) for _ in range(3)]
                src, dst = pow3sys, mo3sys
            else:
                f = [rng.randrange(4) for _ in range(4)]
                src, dst = mo2sys, mo2sys
            try:
                daniel_lift(f, src, dst)   # verifies join-preservation
            except DanielConditionError:
                continue
            lifted += 1
        doc = json.loads((FIXTURES / "daniel_failing_map.json").read_text())
        with pytest.raises(DanielConditionError) as exc:
            daniel_lift(doc["map"], mo2sys, pow3sys)
        assert exc.value.target_ids == doc["expected_witness"]["target_set"]
        assert exc.value.preimage_ids == doc["expected_witness"]["preimage"]


def test_criterion_11_enumeration_fixture(criterion):
    with criterion(11, "the 4x4 product has 114 closed sets with the "
                       "expected size census and byte-stable dump", 1.0):
        from collections import Counter
        _, psys = separated_product(make_mo(2), make_mo(2))
        assert len(psys) == 114
        census = Counter(m.bit_count() for m in psys.masks)
        assert census == {0: 1, 16: 1, 1: 16, 7: 16, 4: 8, 2: 72}
        assert dump_system(psys) == (FIXTURES / "mo2_mo2.clos.txt").read_text()


def test_criterion_12_suite_determinism(criterion):
    with criterion(12, "every verification suite is byte-deterministic "
                       "under a fixed seed", 120.0):
        config = {"seed": 17, "trials": 60, "q": 3, "lam": 1}
        for suite in ("closure", "theorem1", "theorem2", "theorem3",
                      "lemmas", "constructions", "l0"):
            r1 = run_verify_suite(suite, dict(config))
            r2 = run_verify_suite(suite, dict(config))
            assert json.dumps(r1) == json.dumps(r2), suite
            assert r1["pass"], suite
