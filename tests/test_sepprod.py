import random
import time
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platlab import (AtomSubset, check_axioms, daniel_lift, enumerate_closed,
                     lift_product_map, make_mo, make_powerset_space,
                     p_hash_components, p_sharp, perturbation_test,
                     separated_product, sharp)
from platlab import constructions as con, lattice, sepprod
from platlab.bits import ids, rect
from platlab.closure import (CarrierMismatchError, ClosureSystem,
                             EnumerationLimitError, polar)
from platlab.lattice import apply_perm_mask, automorphisms
from platlab.orthospace import (OrthoSpace, Verdict, _rows_from_pairs,
                                validate_relation)
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
    # a factor that is reflexive or one-sided cannot be built, so sharp
    # never sees one
    with pytest.raises(ValueError, match="not anti-reflexive at atom 0"):
        OrthoSpace(["x", "y"], (0b01, 0b01))
    # the lowest defective atom is reported: 0 is asymmetric, 1 reflexive
    with pytest.raises(ValueError, match=r"not symmetric at \(0, 1\)"):
        OrthoSpace(["x", "y"], (0b10, 0b10))


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
    # # is decided by the rows; relation_name is only a label
    n = mo2.size ** 2
    prod = ProductSpace(mo2, mo2, [0] * n, "other")
    with pytest.raises(ValueError, match="p_sharp"):
        p_sharp(prod, 0)
    prod = sharp(mo2, mo2)
    assert not prod.rows[0] >> 10 & 1  # (a1, a1) and (a2, a2) are not #
    not_sharp = ProductSpace(mo2, mo2, _rows_from_pairs(prod.rows, [(0, 10)]),
                             "sharp")
    with pytest.raises(ValueError, match="p_sharp is defined for the # "):
        p_sharp(not_sharp, 0)
    relabelled = ProductSpace(mo2, mo2, prod.rows, "candidate")
    assert [p_sharp(relabelled, p).bits
            for p in range(prod.size)] == list(prod.rows)


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


@pytest.mark.parametrize("relation", ["sharp", "perp5"])
def test_check_axioms_reads_the_lift_table_once(monkeypatch, relation, mo2,
                                                mo2_sys, mo2_product):
    # P4 holds on both, so P4* needs every lift too: on # it holds, on the
    # twisted ⊥5 it fails at an atom; one walk of the table decides both
    calls = []
    real = sepprod._lifts

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sepprod, "_lifts", counting)
    prod, _ = mo2_product
    if relation == "perp5":
        f = con.mo_pair_swap_bijection(2)
        prod = con.build_perp5(prod, f, f)
    W = list(automorphisms(mo2, mo2_sys, mode="ortho"))
    rep = check_axioms(prod, mo2_sys, mo2_sys, W, W)
    assert rep.p4.holds
    assert rep.p4star.holds is (relation == "sharp")
    assert len(calls) == 1


@pytest.mark.parametrize("check", ["P4", "P4*"])
def test_lift_table_is_refused_above_the_group_size_limit(
        monkeypatch, check, mo2, mo2_sys, mo2_product):
    prod, psys = mo2_product
    W = list(automorphisms(mo2, mo2_sys, mode="ortho"))  # 8², 64 lifts
    if check == "P4":
        def run():
            return sepprod._check_p4(prod, psys, W, W)[0]
    else:
        def run():
            return check_axioms(prod, mo2_sys, mo2_sys, W, W, psys).p4star
    assert run().holds  # the table is built and cached
    monkeypatch.setattr(lattice, "GROUP_SIZE_LIMIT", 63)
    with pytest.raises(EnumerationLimitError,
                       match="64 lifts, limit 63; raise it by setting "
                             "platlab.lattice.GROUP_SIZE_LIMIT"):
        run()
    monkeypatch.setattr(lattice, "GROUP_SIZE_LIMIT", 64)
    assert run().holds


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
    # W is decided once per distinct W, but a bad W raises on every call
    for _ in range(3):
        with pytest.raises(ValueError, match="W1 element is not a perm"):
            check_axioms(prod, mo2_sys, mo2_sys, [(0, 0, 1, 2)], [], psys)
        with pytest.raises(ValueError, match="W2 element is not a perm"):
            check_axioms(prod, mo2_sys, mo2_sys, [], [(0, 0, 1, 2)], psys)
    # an element that is not iterable is no permutation either
    with pytest.raises(ValueError, match="W1 element is not a permutation "
                                         "of 4 atoms: 1"):
        check_axioms(prod, mo2_sys, mo2_sys, [1, 2], [], psys)


@pytest.mark.parametrize("bad", [(1.0, 0, 2, 3), (True, False, 2, 3),
                                 ([0], [1], [2], [3]), 5])
def test_w_entries_must_be_int_atom_indices(mo2_sys, mo2_product, bad):
    prod, psys = mo2_product
    with pytest.raises(ValueError, match="W1 element is not a perm"):
        check_axioms(prod, mo2_sys, mo2_sys, [bad], [], psys)
    with pytest.raises(ValueError, match="not a bijection"):
        lift_product_map(prod, bad, (0, 1, 2, 3))


def test_check_axioms_leaves_the_product_order_unbuilt(mo2, mo2_sys):
    W = list(automorphisms(mo2, mo2_sys, mode="ortho"))
    base = sharp(mo2, mo2)
    rows = list(base.rows)
    rows[0] |= 1 << 5  # (a1,a1) ⊥ (a2,a2): P4 fails, so a witness is found
    rows[5] |= 1 << 0
    for prod in (base, ProductSpace(mo2, mo2, rows, "sharp+E")):
        psys = enumerate_closed(prod)
        check_axioms(prod, mo2_sys, mo2_sys, W, W, psys)
        assert "masks" not in vars(psys)


def test_inverse_closure_of_w_is_reported_per_side(mo2, mo2_sys, mo2_product):
    prod, psys = mo2_product
    cycle = (1, 2, 3, 0)
    for W1, W2, want in (([cycle], [], (False, True)),
                         ([], [cycle, (3, 0, 1, 2)], (True, True)),
                         ([cycle], [cycle], (False, False))):
        for _ in range(2):
            rep = check_axioms(prod, mo2_sys, mo2_sys, W1, W2, psys)
            assert (rep.w1_inverse_closed, rep.w2_inverse_closed) == want


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


def test_first_failing_axiom_needs_the_factors_own_systems(mo2, mo2_sys):
    # with {a1, a2} added to each factor family, check_axioms finds P2
    # false in its cylinder form; the coatom form the scan reads would
    # pass, so the scan refuses such factor systems
    from platlab.sepprod import _first_failing_axiom
    prod = sharp(mo2, mo2)
    family = ClosureSystem(mo2, list(mo2_sys.sets) + [0b0101])
    W = list(automorphisms(mo2, mo2_sys, mode="ortho"))
    rep = check_axioms(prod, family, family, W, W)
    assert rep.to_json()["P2"] == {"holds": False,
                                   "witness": {"a1": [], "a2": [0, 2]}}
    assert not rep.p2_forms_agree
    for L1, L2 in ((family, mo2_sys), (mo2_sys, family)):
        with pytest.raises(CarrierMismatchError):
            _first_failing_axiom(prod, L1, L2, W, W)


def _pentagon_x_mo1():
    """# over the pentagon × MO1 with W₁ = {id, (0 1)}, W₂ = {id}: the
    pentagon's closed sets include each p^⊥ = {p − 1, p + 1}, which the
    transposition (0 1) does not keep, so it passes separating, P2 and P3
    and fails P4."""
    c5 = OrthoSpace(list("abcde"), _rows_from_pairs(
        [0] * 5, [(i, (i + 1) % 5) for i in range(5)]))
    mo1 = make_mo(1)
    return (sharp(c5, mo1), enumerate_closed(c5), enumerate_closed(mo1),
            [tuple(range(5)), (1, 0, 2, 3, 4)], [(0, 1)])


def test_first_failing_axiom_decides_p4_without_a_witness(monkeypatch):
    prod, L1, L2, W1, W2 = _pentagon_x_mo1()
    psys = enumerate_closed(prod)
    p4 = _same(sepprod._check_p4(prod, psys, W1, W2)[0],
               old_check_p4(prod, psys, W1, W2))
    assert p4.witness == {"u1": [1, 0, 2, 3, 4], "u2": [0, 1],
                          "set": [0, 4]}

    def no_witness(carrier, sets, pred=None):
        raise AssertionError("the verdict-only scan looked for a witness")

    monkeypatch.setattr(sepprod, "canonical_first", no_witness)
    assert sepprod._first_failing_axiom(prod, L1, L2, W1, W2) == "P4"


def test_perturbation_run(mo2):
    summ = perturbation_test(mo2, mo2, trials=40, seed=11)
    assert summ.trials == 40
    assert sum(summ.failures_by_axiom.values()) == 40
    assert summ.theorem_contradictions == 0
    again = perturbation_test(mo2, mo2, trials=40, seed=11)
    assert again.to_json() == summ.to_json()


def test_default_edge_sampler_avoids_sharp(mo2):
    import random
    prod = sharp(mo2, mo2)
    rng = random.Random(0)
    for _ in range(50):
        pairs = default_edge_sampler(rng, prod)
        assert pairs  # E is never empty
        for p, q in pairs:
            assert p < q and not prod.orth(p, q)


def test_default_edge_sampler_refuses_when_sharp_relates_every_pair():
    # on powerset(2) × powerset(2), # relates every pair of distinct atoms
    p2 = make_powerset_space(2)
    prod = sharp(p2, p2)
    assert all(prod.orth(p, q) for p in range(4) for q in range(4) if p != q)
    with pytest.raises(ValueError, match="no pair outside # to draw"):
        default_edge_sampler(random.Random(0), prod)
    with pytest.raises(ValueError, match="2x2 product"):
        perturbation_test(p2, p2, trials=1)


def test_default_edge_sampler_draws_at_most_the_pairs_there_are():
    # two non-orthogonal atoms times one atom: one pair outside #, so a
    # draw of k = 2 returns that pair alone
    prod = sharp(OrthoSpace(["a", "b"], [0, 0]), OrthoSpace(["x"], [0]))
    ks = [random.Random(seed).choice((1, 2)) for seed in range(10)]
    assert 2 in ks
    for seed in range(10):
        assert default_edge_sampler(random.Random(seed), prod) == [(0, 1)]


def test_p_hash_components(mo2_product):
    prod, _ = mo2_product
    s1, s2, k = p_hash_components(prod, prod.encode(0, 1))
    assert s1.bits == prod.left.rows[0]
    assert s2.bits == prod.right.rows[1]
    assert k == 1  # P3 holds: exactly its own coatom fits
    # p_hash_components reads p^⊥ as the row of p
    assert all(polar(prod, AtomSubset(prod, 1 << p)).bits == prod.rows[p]
               for p in range(prod.size))


def test_p_hash_components_are_the_cylinders_in_the_polar():
    # factors of 2 and 3 atoms, so blocks and columns differ in length, and
    # random relations, so the shadows are not those of #
    left, right = make_mo(1), make_powerset_space(3)
    n = left.size * right.size
    rng = random.Random(0)
    for _ in range(30):
        pairs = [(p, q) for p in range(n) for q in range(p + 1, n)
                 if rng.random() < 0.7]
        prod = ProductSpace(left, right, _rows_from_pairs([0] * n, pairs),
                            "random")
        for p in range(n):
            s1, s2, _ = p_hash_components(prod, p)
            perp = prod.rows[p]
            assert s1.bits == sum(
                1 << i for i in range(left.size)
                if prod.cylinder1(1 << i) & ~perp == 0)
            assert s2.bits == sum(
                1 << j for j in range(right.size)
                if prod.cylinder2(1 << j) & ~perp == 0)


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
    assert a.bits in mo2_sys.sets

    # constant maps always satisfy the preimage condition
    c = daniel_lift([2, 2, 2, 2], mo2_sys, mo2_sys)
    assert c.apply(mo2_sys.carrier.full).bits == 0b0100


def test_daniel_lift_input_validation(mo2_sys, pow3_sys):
    with pytest.raises(ValueError, match="total"):
        daniel_lift([0], mo2_sys, pow3_sys)
    with pytest.raises(ValueError, match="out of range"):
        daniel_lift([0, 1, 2, 9], mo2_sys, pow3_sys)
    # True would pass `0 <= v < n` as atom 1, and 1.0 fail in the bit shift
    for value in (True, 1.0):
        with pytest.raises(ValueError, match="atom map value out of range"):
            daniel_lift([0, 1, 2, value], mo2_sys, pow3_sys)


# ------------------------------------------- P3, P4 and P4* against oracles
#
# ``old_check_p3`` (with ``old_cylinder1_base``/``old_cylinder2_base``),
# ``old_check_p4`` and ``old_check_lifts_commute`` are the scans sepprod used
# before the arithmetic cylinder tests and the shared lift generator, kept
# verbatim as oracles.  n₁ ≠ n₂ throughout, so a test that swaps the two
# axes gives other answers.

def old_check_p3(prod, sys, L1sys, L2sys):
    for m in sys.masks:
        a1 = old_cylinder1_base(prod, m)
        if a1 is not None and a1 not in L1sys.sets:
            return Verdict(False, {"side": 1, "set": ids(a1)})
        a2 = old_cylinder2_base(prod, m)
        if a2 is not None and a2 not in L2sys.sets:
            return Verdict(False, {"side": 2, "set": ids(a2)})
    return Verdict(True, None)


def old_cylinder1_base(prod, m):
    """a₁ with m == a₁×Σ₂, or None if m is not such a cylinder."""
    n2 = prod.right.size
    block = (1 << n2) - 1
    a1 = 0
    for i in range(prod.left.size):
        if (m >> (i * n2)) & block == block:
            a1 |= 1 << i
    return a1 if prod.cylinder1(a1) == m else None


def old_cylinder2_base(prod, m):
    n2 = prod.right.size
    a2 = (1 << n2) - 1
    for i in range(prod.left.size):
        a2 &= m >> (i * n2)
    return a2 if prod.cylinder2(a2) == m else None


def old_check_p4(prod, sys, W1, W2):
    for u1 in W1:
        for u2 in W2:
            perm = lift_product_map(prod, u1, u2)
            for m in sys.masks:
                if apply_perm_mask(perm, m) not in sys.sets:
                    return Verdict(False, {"u1": list(u1), "u2": list(u2),
                                           "set": ids(m)})
    return Verdict(True, None)


def old_check_lifts_commute(prod, W1, W2):
    for u1 in W1:
        for u2 in W2:
            perm = lift_product_map(prod, u1, u2)
            for p in range(prod.size):
                if apply_perm_mask(perm, prod.rows[p]) != prod.rows[perm[p]]:
                    return Verdict(False, {"u1": list(u1), "u2": list(u2),
                                           "atom": p})
    return Verdict(True, None)


def _factor(n):
    space = make_mo(n)
    fsys = enumerate_closed(space)
    return space, fsys, list(automorphisms(space, fsys, mode="ortho"))


def _without(fsys, removed):
    """The factor family minus ``removed``, as an explicit family."""
    return ClosureSystem(fsys.carrier,
                         [m for m in fsys.masks if m not in removed])


def _same(new, old):
    assert (new.holds, new.witness) == (old.holds, old.witness)
    return new


@st.composite
def w_lists(draw, n, auts):
    # automorphisms or arbitrary permutations, identity absent, first or not
    perm = st.permutations(range(n)).map(tuple)
    return draw(st.lists(st.one_of(st.sampled_from(auts), perm), max_size=4))


@st.composite
def product_cases(draw):
    n1, n2 = draw(st.sampled_from([(2, 3), (3, 2)]))
    (left, L1, W1), (right, L2, W2) = _factor(n1), _factor(n2)
    size = left.size * right.size
    if draw(st.booleans()):
        rows = list(sharp(left, right).rows)   # # ∪ E
        max_pairs = 3
    else:
        rows = [0] * size
        max_pairs = 120
    pairs = draw(st.lists(st.tuples(st.integers(0, size - 1),
                                    st.integers(0, size - 1)),
                          max_size=max_pairs))
    for p, q in pairs:
        if p != q:
            rows[p] |= 1 << q
            rows[q] |= 1 << p
    prod = ProductSpace(left, right, rows, "random")
    proper1 = [m for m in L1.masks if m not in (0, left.full)]
    proper2 = [m for m in L2.masks if m not in (0, right.full)]
    L1 = _without(L1, set(draw(st.lists(st.sampled_from(proper1),
                                        max_size=2))))
    L2 = _without(L2, set(draw(st.lists(st.sampled_from(proper2),
                                        max_size=2))))
    return (prod, L1, L2, draw(w_lists(left.size, W1)),
            draw(w_lists(right.size, W2)))


@settings(max_examples=150, deadline=None)
@given(product_cases())
def test_p3_p4_p4star_match_oracles(case):
    prod, L1, L2, W1, W2 = case
    psys = enumerate_closed(prod)
    _same(sepprod._check_p3(prod, psys, L1, L2),
          old_check_p3(prod, psys, L1, L2))
    p4 = _same(sepprod._check_p4(prod, psys, W1, W2)[0],
               old_check_p4(prod, psys, W1, W2))
    if W1 and W2 and p4.holds:
        _same(check_axioms(prod, L1, L2, W1, W2, psys).p4star,
              old_check_lifts_commute(prod, W1, W2))


@pytest.mark.parametrize("n1,n2,side", [(3, 2, 1), (2, 3, 2)])
def test_p3_fails_on_both_sides_with_oracle_witness(n1, n2, side):
    # one closed singleton removed from each factor: a₁×Σ₂ has n₂ atoms and
    # Σ₁×a₂ has n₁, so the smaller cylinder fails first in canonical order
    (left, L1, _), (right, L2, _) = _factor(n1), _factor(n2)
    prod, psys = separated_product(left, right)
    cut1, cut2 = _without(L1, {0b10}), _without(L2, {0b100})
    v = _same(sepprod._check_p3(prod, psys, cut1, cut2),
              old_check_p3(prod, psys, cut1, cut2))
    assert v.witness == {"side": side, "set": [1] if side == 1 else [2]}
    for factors, want in (((cut1, L2), 1), ((L1, cut2), 2)):
        v = _same(sepprod._check_p3(prod, psys, *factors),
                  old_check_p3(prod, psys, *factors))
        assert v.witness["side"] == want


def _bipartite(left, right, over):
    """Every atom of the product mask ``over`` related to every atom
    outside it: the closed sets are ∅, ``over``, its complement and Σ."""
    full = (1 << left.size * right.size) - 1
    rows = [full ^ over if over >> p & 1 else over
            for p in range(left.size * right.size)]
    return ProductSpace(left, right, rows, "bipartite")


def _open_cylinder_lookups():
    info = sepprod._open_cylinders.cache_info()
    return info.hits + info.misses


@pytest.mark.parametrize("path,side", [("scan", 1), ("scan", 2),
                                       ("table", 1), ("table", 2)])
def test_p3_reads_the_open_cylinder_table_from_2_n1_plus_2_n2_sets(path,
                                                                   side):
    # MO2×MO3 switches at 2⁴ + 2⁶ = 80 closed sets; {0, 1} is open in
    # both factors, {1} and {2} are cut from them
    (left, L1, _), (right, L2, _) = _factor(2), _factor(3)
    if path == "scan":
        over = (rect(0b11, right.full, right.size) if side == 1 else
                rect(left.full, 0b11, right.size))
        prod = _bipartite(left, right, over)
        psys, factors, want = enumerate_closed(prod), (L1, L2), [0, 1]
        assert len(psys) == 4
    else:
        prod, psys = separated_product(left, right)
        factors = ((_without(L1, {0b10}), L2) if side == 1 else
                   (L1, _without(L2, {0b100})))
        want = [1] if side == 1 else [2]
        assert len(psys) == 240
    before = _open_cylinder_lookups()
    v = _same(sepprod._check_p3(prod, psys, *factors),
              old_check_p3(prod, psys, *factors))
    assert v.witness == {"side": side, "set": want}
    assert _open_cylinder_lookups() - before == (path == "table")


def test_lifts_without_a_leading_identity_match_oracles():
    (left, _, W1), (right, _, W2) = _factor(2), _factor(3)
    rows = list(sharp(left, right).rows)
    rows[0] |= 1 << 2   # # ∪ {((0,0), (0,2))}
    rows[2] |= 1 << 0
    prod = ProductSpace(left, right, rows, "sharp+E")
    psys = enumerate_closed(prod)
    id1, id2 = tuple(range(4)), tuple(range(6))
    h = (0, 1, 3, 2, 4, 5)   # an automorphism of MO3 the lift (id, h) breaks
    bad = (1, 2, 0, 3, 4, 5)   # not an automorphism of MO3
    cases = [
        ([id1], [h]),                    # only (id, h): fails there
        ([id1], [bad]),
        ([W1[3], id1], [W2[5], h]),      # identity present, not first
        ([W1[3]], [W2[7], W2[2]]),       # identity absent
        ([id1], [id2]),                  # the identity lift alone
        (W1[::-1], W2[::-1]),
    ]
    L1, L2 = enumerate_closed(left), enumerate_closed(right)
    for U1, U2 in cases:
        p4 = _same(sepprod._check_p4(prod, psys, U1, U2)[0],
                   old_check_p4(prod, psys, U1, U2))
        if p4.holds:
            _same(check_axioms(prod, L1, L2, U1, U2, psys).p4star,
                  old_check_lifts_commute(prod, U1, U2))
    p4 = sepprod._check_p4(prod, psys, [id1], [h])[0]
    assert p4.witness == {"u1": list(id1), "u2": list(h), "set": [0, 3]}
    # (id, bad) keeps the closed sets of # but not its polarity
    rep = check_axioms(sharp(left, right), L1, L2, [id1], [bad])
    assert rep.p4.holds
    commute = _same(rep.p4star, old_check_lifts_commute(
        sharp(left, right), [id1], [bad]))
    assert commute.witness == {"u1": list(id1), "u2": list(bad), "atom": 0}
    assert sepprod._check_p4(prod, psys, [id1], [id2])[0].holds


# ------------------------------------------------ the factor-pair caches
#
# check_axioms reads the # rows, the P2 cylinder unions and the lift table
# from caches keyed by the factor spaces, the factor ``sets`` and the W
# tuples.  The test below runs every call in one process and in one order,
# so each call can meet a table an earlier one cached; a key that drops any
# part of that value hands it a stale table, and some verdict or witness
# then differs from the oracles above or from P2 and P5 recomputed from
# ``prod.cylinder1``/``cylinder2`` and ``prod.sharp_row``.

def uncached_p2_p5(prod, psys, L1, L2):
    """P2 by cylinders, whether P2 by # coatoms holds, and P5."""
    cut = next(((a1, a2) for a1 in L1.masks for a2 in L2.masks
                if prod.cylinder1(a1) | prod.cylinder2(a2) not in psys.sets),
               None)
    p2 = (Verdict(True, None) if cut is None else
          Verdict(False, {"a1": ids(cut[0]), "a2": ids(cut[1])}))
    coatoms = all(prod.sharp_row(p) in psys.sets for p in range(prod.size))
    miss = next(((p, q) for p in range(prod.size)
                 for q in ids(prod.sharp_row(p) & ~prod.rows[p])), None)
    p5 = (Verdict(True, None) if miss is None else
          Verdict(False, {"p": miss[0], "q": miss[1]}))
    return p2, coatoms, p5


def _check_against_oracles(left, right, rows, L1, L2, W1, W2):
    prod = ProductSpace(left, right, rows, "case")
    psys = enumerate_closed(prod)
    rep = check_axioms(prod, L1, L2, W1, W2, psys)
    p2, coatoms, p5 = uncached_p2_p5(prod, psys, L1, L2)
    _same(rep.p2, p2)
    assert rep.p2_forms_agree == (p2.holds == coatoms)
    _same(rep.p5, p5)
    _same(rep.p3, old_check_p3(prod, psys, L1, L2))
    p4 = _same(rep.p4, old_check_p4(prod, psys, W1, W2))
    _same(rep.p4star,
          old_check_lifts_commute(prod, W1, W2) if p4.holds else p4)
    return rep


def test_cached_tables_match_oracles_in_one_process():
    mo2, mo3 = _factor(2), _factor(3)
    # MO2 with its atoms paired (0, 2), (1, 3): the sizes of MO2, other rows
    space = OrthoSpace(["b1", "b2", "b1'", "b2'"], (0b100, 0b1000, 0b1, 0b10))
    fsys = enumerate_closed(space)
    mo2_other = (space, fsys, list(automorphisms(space, fsys, mode="ortho")))
    rng = random.Random(5)

    def relations(left, right):
        base = sharp(left, right)
        out = [base.rows]
        for _ in range(3):
            rows = list(base.rows)
            for p, q in default_edge_sampler(rng, base):
                rows[p] |= 1 << q
                rows[q] |= 1 << p
            out.append(rows)
        return out

    # MO2×MO3, then MO3×MO2 and a relabelled MO2 × MO3, whole W
    cases, p4 = [], []
    for (left, L1, W1), (right, L2, W2) in ((mo2, mo3), (mo3, mo2),
                                            (mo2_other, mo3)):
        for rows in relations(left, right):
            cases.append((left, right, rows, L1, L2))
            rep = _check_against_oracles(left, right, rows, L1, L2, W1, W2)
            p4.append(rep.p4.holds)
    assert p4 == [True, False, False, False] * 3

    # W reordered, subsetted, repeated, or not a group; pairs that share
    # one side with an earlier pair
    W1, W2 = mo2[2], mo3[2]
    not_aut1, not_aut2 = (1, 2, 3, 0), (1, 2, 0, 3, 4, 5)
    for U1, U2 in ((W1, W2[::-1]), (W1[::-1], W2), (W1[::-1], W2[::-1]),
                   (W1[2:5], W2[7:20]), (W1[2:5], W2[::3]),
                   (W1 + W1[:3], W2 + W2[:1]), ([W1[0], not_aut1], W2[:4]),
                   (W1[:2], [not_aut2, W2[0]])):
        for case in cases[:4]:
            _check_against_oracles(*case, U1, U2)

    # factor families that lack closed sets: the P2 witness's a₁ and a₂,
    # then a singleton from each side
    for left, right, rows, L1, L2 in cases[:8]:
        W = (mo2[2], mo3[2]) if left.size == 4 else (mo3[2], mo2[2])
        rep = _check_against_oracles(left, right, rows, L1, L2, *W)
        cuts = []
        if not rep.p2.holds:
            a1 = sum(1 << i for i in rep.p2.witness["a1"])
            a2 = sum(1 << i for i in rep.p2.witness["a2"])
            cuts.append((_without(L1, {a1}), _without(L2, {a2})))
        cuts.append((_without(L1, {0b1}), _without(L2, {0b10})))
        for cut1, cut2 in cuts:
            _check_against_oracles(left, right, rows, cut1, cut2, *W)


def test_check_axioms_scans_for_p3_over_a_32_atom_factor():
    # MO1×MO16 has 64 atoms and 1,156 closed sets: the open-cylinder table
    # would list 2² + 2³² bases, so P3 scans the closed sets instead
    left, right = make_mo(1), make_mo(16)
    L1, L2 = enumerate_closed(left), enumerate_closed(right)
    ident = tuple(range(32))
    not_aut = (2, 1, 0) + ident[3:]   # keeps L2, not the polarity
    W1 = [(0, 1), (1, 0)]
    W2 = [ident, (2, 3, 0, 1) + ident[4:], (1, 0) + ident[2:], not_aut]
    base = sharp(left, right).rows
    perturbed = list(base)
    perturbed[0] |= 1 << 2   # # ∪ {((0,0), (0,2))}
    perturbed[2] |= 1 << 0
    before = _open_cylinder_lookups()
    start = time.perf_counter()
    reps = [_check_against_oracles(left, right, rows, L1, cut2, W1, W2)
            for rows, cut2 in ((base, L2), (base, _without(L2, {0b1})),
                               (perturbed, L2))]
    assert time.perf_counter() - start < 10
    assert _open_cylinder_lookups() == before
    assert len(enumerate_closed(sharp(left, right))) == 1156
    assert [(r.p3.holds, r.p4.holds, r.p4star.holds) for r in reps] == [
        (True, True, False), (False, True, False), (True, False, False)]
    assert reps[0].p4star.witness["u2"] == list(not_aut)
    assert reps[1].p3.witness == {"side": 2, "set": [0]}


# ------------------------------- _first_failing_axiom against its oracle
#
# ``old_first_failing_axiom`` is _first_failing_axiom as it was before it
# read separating and P2 off the polar rows, kept verbatim as an oracle: it
# enumerates every separating relation and decides P2 by the cylinder
# unions over the factor systems.

def old_first_failing_axiom(prod, L1sys, L2sys, W1, W2):
    """Cheapest-first scan; returns the axiom name or None."""
    if not validate_relation(prod).holds:
        return "separating"
    sys = enumerate_closed(prod)
    if not sepprod._check_p2_cylinders(prod, sys, L1sys, L2sys).holds:
        return "P2"
    if not sepprod._check_p3(prod, sys, L1sys, L2sys).holds:
        return "P3"
    if sepprod._walk_lifts(prod, sys, W1, W2)[0] is not None:
        return "P4"
    return None


def _valid_twists(space):
    """Every permutation of ``space``'s atoms that build_perp5 accepts."""
    twists = []
    for perm in permutations(range(space.size)):
        f = con.FactorBijection(perm)
        try:
            f.validate(space)
        except ValueError:
            continue
        twists.append(f)
    return twists


def test_a_valid_twist_only_permutes_the_sharp_rows():
    # why run_search draws no twist: build_perp5 gives atom p the row
    # ((f₁×f₂)(p))^#, so its rows are the # rows in another order, and the
    # closed sets (Σ and the meets of the rows) are L#'s
    for n, count in ((2, 2), (3, 14), (4, 104)):
        space, fsys, group = _factor(n)
        base = sharp(space, space)
        sharp_rows = sorted(base.rows)
        twists = _valid_twists(space)
        assert len(twists) == count
        if n < 4:
            sharp_sets = enumerate_closed(base).sets
            # ... so every verdict of _first_failing_axiom is L#'s: none
            assert sepprod._first_failing_axiom(base, fsys, fsys, group,
                                                group) is None
        for f1 in twists:
            for f2 in twists:
                twisted = con.build_perp5(base, f1, f2)
                assert sorted(twisted.rows) == sharp_rows
                if n < 4:
                    assert enumerate_closed(twisted).sets == sharp_sets


def _first_failing_cases():
    """(prod, L1, L2, W1, W2), with the factors' own systems, for each
    relation the oracle test decides."""
    mo = {n: _factor(n) for n in (1, 2, 3)}
    # # ∪ {one pair outside #}, for every such pair
    for n1, n2 in ((1, 2), (2, 2), (2, 3)):
        (left, L1, W1), (right, L2, W2) = mo[n1], mo[n2]
        base = sharp(left, right)
        for p in range(base.size):
            for q in ids(base.full ^ base.rows[p] ^ 1 << p):
                if p < q:
                    rows = _rows_from_pairs(base.rows, [(p, q)])
                    yield (ProductSpace(left, right, rows, "sharp+E"),
                           L1, L2, W1, W2)
    # relations of a seeded random density, as plat search draws them
    rng = random.Random(0)
    for n1 in (1, 2, 3):
        for n2 in range(n1, 4):
            (left, L1, W1), (right, L2, W2) = mo[n1], mo[n2]
            n = left.size * right.size
            for _ in range(10):
                density = rng.uniform(0.2, 0.8)
                rows = _rows_from_pairs([0] * n, [
                    (p, q) for p in range(n) for q in range(p + 1, n)
                    if rng.random() < density])
                yield (ProductSpace(left, right, rows, "random"),
                       L1, L2, W1, W2)
    # every pair of valid twists on MO2 and MO3.  W₁ × W₂ keeps a family
    # iff the lifts (g, id) and (id, h) of generators g, h do, so on MO3 the
    # identity and three generators of its 48-element group give the P4
    # verdict of the whole group in 15 lifts, not 2,303; one pair also
    # runs with the whole group
    mo3, L3, group3 = mo[3]
    gens3 = [group3[0], (1, 0, 2, 3, 4, 5), (2, 3, 0, 1, 4, 5),
             (2, 3, 4, 5, 0, 1)]
    assert set(gens3) <= set(group3)
    for (space, L, _), W, count in ((mo[2], mo[2][2], 2), (mo[3], gens3, 14)):
        base = sharp(space, space)
        twists = _valid_twists(space)
        assert len(twists) == count
        for f1 in twists:
            for f2 in twists:
                yield con.build_perp5(base, f1, f2), L, L, W, W
    twists = _valid_twists(mo3)
    yield (con.build_perp5(sharp(mo3, mo3), twists[0], twists[-1]),
           L3, L3, group3, group3)
    # ⊥2 and ⊥3 on MO2×MO2 with the constructions suite's C and with C =
    # the four non-orthogonal pairs, which makes ⊥3 fail P3; ⊥5 with the
    # pair swap
    mo2, L, W = mo[2]
    base = sharp(mo2, mo2)
    for adjacency in ([[2], [3], [0], [1]], [[2, 3], [2, 3], [0, 1], [0, 1]]):
        C = con.CRelation.from_adjacency(mo2, adjacency)
        yield con.build_perp2(base, C, C), L, L, W, W
        yield con.build_perp3(base, C, C), L, L, W, W
    f = con.mo_pair_swap_bijection(2)
    yield con.build_perp5(base, f, f), L, L, W, W
    yield _pentagon_x_mo1()
    # # ∪ E on MO1×MO3 with a family other than L#: it passes P1-P4 under
    # W = {id}, and fails P4 under the factor groups
    (left, L1, W1), (right, L2, W2) = mo[1], mo[3]
    rows = _rows_from_pairs(sharp(left, right).rows,
                            [(6, 10), (7, 9), (8, 11)])
    prod = ProductSpace(left, right, rows, "sharp+E")
    yield prod, L1, L2, W1[:1], W2[:1]
    yield prod, L1, L2, W1, W2


def test_first_failing_axiom_matches_its_oracle(monkeypatch):
    enumerated = []
    enumerate_own = sepprod.enumerate_closed
    monkeypatch.setattr(sepprod, "enumerate_closed",
                        lambda space: enumerated.append(space)
                        or enumerate_own(space))
    seen, equal_to_sharp = Counter(), Counter()
    for prod, L1, L2, W1, W2 in _first_failing_cases():
        before = len(enumerated)
        failing = sepprod._first_failing_axiom(prod, L1, L2, W1, W2)
        assert failing == old_first_failing_axiom(prod, L1, L2, W1, W2)
        # the family is enumerated only once separating and P2 hold
        assert len(enumerated) - before == (failing not in ("separating",
                                                            "P2"))
        seen[failing] += 1
        if failing is None:
            # run_search's test: P2 puts L# inside L, and L is the meets of
            # its rows, so L = L# iff every row is in L#
            sharp_sets = enumerate_closed(sharp(prod.left, prod.right)).sets
            equal = enumerate_closed(prod).sets == sharp_sets
            assert all(row in sharp_sets for row in prod.rows) == equal
            equal_to_sharp[equal] += 1
    assert set(seen) == {"separating", "P2", "P3", "P4", None}
    assert equal_to_sharp[True] and equal_to_sharp[False]
