import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platlab import (AtomSubset, ClosureSystem, OrthoSpace, biclosure,
                     brute_force_closed, dump_system, enumerate_closed,
                     make_mo, make_powerset_space, make_quadratic_line_space,
                     polar, sharp)
from platlab import closure, constructions, lattice
from platlab.bits import ids
from platlab.closure import (CarrierMismatchError, EnumerationLimitError,
                             NotClosedError, atom_limit)
from platlab.constructions import enumerate_subspaces
from platlab.lattice import (automorphisms, close_group,
                             find_orthocomplementation)

MO22 = sharp(make_mo(2), make_mo(2))

subsets = st.integers(min_value=0, max_value=MO22.full)


@given(subsets)
def test_polar_antitone_and_triple(bits):
    a = AtomSubset(MO22, bits)
    pa = polar(MO22, a)
    assert polar(MO22, biclosure(MO22, a)) == pa
    ca = biclosure(MO22, a)
    assert a <= ca
    assert biclosure(MO22, ca) == ca


@given(subsets, subsets)
@settings(max_examples=200)
def test_polar_galois_laws(b1, b2):
    a, b = AtomSubset(MO22, b1), AtomSubset(MO22, b2)
    if a <= b:
        assert polar(MO22, b) <= polar(MO22, a)
    assert polar(MO22, a | b) == polar(MO22, a) & polar(MO22, b)


def test_polar_of_empty_is_full():
    assert polar(MO22, AtomSubset.empty(MO22)) == AtomSubset.universe(MO22)


def test_atom_subset_algebra():
    s = make_mo(2)
    a = AtomSubset.from_indices(s, [0, 2])
    b = AtomSubset.from_indices(s, [2, 3])
    assert (a & b).indices() == [2]
    assert (a | b).indices() == [0, 2, 3]
    assert (a - b).indices() == [0]
    assert a.complement().indices() == [1, 3]
    assert 2 in a and 1 not in a
    assert a.cardinality() == 2
    assert repr(a) == "{a1,a2}"
    with pytest.raises(ValueError):
        AtomSubset.from_indices(s, [9])
    # True would pass `0 <= i < n` as atom 1, and 1.0 fail in the bit shift
    for index in (True, 1.0):
        with pytest.raises(ValueError, match="atom index out of range"):
            AtomSubset.from_indices(s, [index])
    # 1.5 would pass `0 <= bits <= full` and fail later in indices(), and
    # True stand for atom 0
    for bits in (1.5, True):
        with pytest.raises(ValueError, match="bits must be an int"):
            AtomSubset(s, bits)


def test_carrier_mismatch_raises():
    a = AtomSubset.empty(make_mo(2))
    b = AtomSubset.empty(make_mo(3))
    with pytest.raises(CarrierMismatchError):
        a | b
    with pytest.raises(CarrierMismatchError):
        polar(make_mo(3), a)


def test_membership_checks_the_carrier_of_an_atom_subset():
    # as meet and join do: an AtomSubset on another carrier is an error,
    # an int is looked up as a mask
    sys = enumerate_closed(make_powerset_space(4))
    other = AtomSubset(make_mo(2), 0b0101)
    with pytest.raises(CarrierMismatchError):
        other in sys
    with pytest.raises(CarrierMismatchError):
        sys.meet(other, sys.subset(0b0101))
    assert AtomSubset(sys.carrier, 0b0101) in sys
    assert 0b0101 in sys and 0b10000 not in sys


@pytest.mark.parametrize("space,count", [
    (make_mo(2), 6),
    (make_mo(3), 8),
    (make_powerset_space(3), 8),
    (make_quadratic_line_space(3, 1), 6),
])
def test_closed_set_counts(space, count):
    assert len(enumerate_closed(space)) == count


@pytest.mark.parametrize("space", [
    make_mo(2), make_mo(3), make_powerset_space(3),
    make_quadratic_line_space(3, 1), sharp(make_mo(1), make_mo(2)),
    sharp(make_powerset_space(2), make_powerset_space(2)),
])
def test_enumeration_matches_brute_force(space):
    brute = brute_force_closed(space)
    assert enumerate_closed(space).masks == brute.masks
    # the oracle's family is the biclosure fixpoints, however the
    # constructor treats its input
    assert brute.sets == {m for m in range(1 << space.size)
                          if biclosure(space, AtomSubset(space, m)).bits == m}


def test_lattice_operations():
    sys = enumerate_closed(MO22)
    bottom = sys.subset(0)
    top = sys.subset(MO22.full)
    a = sys.subset(1)
    assert sys.meet(a, top) == a
    assert sys.join(a, bottom) == a
    # join of two atoms in the same # coatom closes up
    j = sys.join(sys.subset(1), sys.subset(1 << 1))
    assert j.bits in sys.sets and j.cardinality() >= 2
    with pytest.raises(NotClosedError):
        sys.join(sys.subset(0), AtomSubset.from_indices(MO22, [0, 1, 2]))


def test_covers_and_extremes():
    sys = enumerate_closed(make_powerset_space(3))
    assert sys.covers(0, 0b001)
    assert not sys.covers(0, 0b011)
    with pytest.raises(ValueError):
        sys.covers(0b011, 0b001)
    assert sys.atoms() == [0b001, 0b010, 0b100]
    assert sorted(sys.coatoms()) == [0b011, 0b101, 0b110]


def test_mo_coatoms_are_atoms():
    sys = enumerate_closed(make_mo(3))
    assert sys.coatoms() == sys.atoms()


def canonical_key(mask):
    """Oracle for the canonical order: cardinality, then lexicographic on
    the ascending index tuple."""
    key = ids(mask)
    return len(key), tuple(key)


def oracle_closure(gens, full):
    """The intersection closure of gens and full, by pairwise meets until
    no new set appears."""
    closed = set(gens) | {full}
    new = set(closed)
    while new:
        new = {a & b for a in new for b in closed} - closed
        closed |= new
    return closed


@st.composite
def wide_families(draw):
    """1-130 atoms, so masks cross byte boundaries and 64 bits; up to 6
    random sets, whose closure stays small, and up to 40 sets of at most 4
    atoms, so sets of one size often share a prefix."""
    n = draw(st.integers(1, 130))
    full = (1 << n) - 1
    small = st.sets(st.integers(0, n - 1), max_size=4).map(
        lambda s: sum(1 << i for i in s))
    return n, (draw(st.lists(st.integers(0, full), max_size=6))
               + draw(st.lists(small, max_size=40)))


@settings(max_examples=200, deadline=None)
@given(wide_families())
def test_canonical_order_matches_the_index_tuple_key(spec):
    n, fam = spec
    space = OrthoSpace([f"x{i}" for i in range(n)], [0] * n)
    sys = ClosureSystem(space, fam + [0])
    assert sys.masks == sorted(oracle_closure(fam + [0], space.full),
                               key=canonical_key)


def test_closure_system_rejects_a_set_outside_the_carrier():
    space = OrthoSpace(["a", "b"], [0, 0])
    with pytest.raises(ValueError, match="outside the carrier"):
        ClosureSystem(space, [0, 0b11, 0b100])


def test_closure_system_rejects_a_negative_set():
    with pytest.raises(ValueError, match="outside the carrier"):
        ClosureSystem(make_mo(1), [0, -1, 3])


def test_closure_system_needs_the_empty_set_in_the_closure():
    space = OrthoSpace(["a", "b", "c"], [0] * 3)
    with pytest.raises(ValueError, match="must contain ∅"):
        ClosureSystem(space, [0b011, 0b110])
    assert ClosureSystem(space, [0b011, 0b100]).masks == \
        [0, 0b100, 0b011, 0b111]


def test_set_limit_holds_for_relation_and_explicit_systems(monkeypatch):
    monkeypatch.setattr(closure, "DEFAULT_SET_LIMIT", 100)
    with pytest.raises(EnumerationLimitError, match="DEFAULT_SET_LIMIT"):
        enumerate_closed(make_powerset_space(12))
    space = OrthoSpace([f"x{i}" for i in range(8)], [0] * 8)
    coatoms = [space.full ^ 1 << i for i in range(8)]
    with pytest.raises(EnumerationLimitError, match="exceeded 100 sets"):
        ClosureSystem(space, coatoms)  # all 256 subsets
    assert len(ClosureSystem(space, coatoms[:6] + [0])) == 65
    assert len(enumerate_closed(make_powerset_space(6))) == 64


def test_first_breaks_ties_in_canonical_order():
    # canonical order: {0,3} before {1,2}, and {0,1,3}, {0,2,3}, {1,2,3}
    space = OrthoSpace([f"x{i}" for i in range(4)], [0] * 4)
    sys = ClosureSystem(space, [0, 0b0001, 0b0110, 0b1001, 0b1110, 0b1101,
                                0b1011, 0b1111])

    def first(pred=None, sets=sys.sets):
        return closure.canonical_first(space, sets, pred)

    assert first(lambda m: m in (0b0110, 0b1001)) == 0b1001
    assert first(lambda m: m.bit_count() == 3) == 0b1011
    assert first(lambda m: m in (0b1110, 0b1101)) == 0b1101
    assert first(lambda m: m in (0b1110, 0b0001)) == 0b0001
    assert first(lambda m: m > 0b1111) is None
    assert first() == 0 and first(sets=[]) is None
    assert first(sets=[0b1110, 0b0110, 0b1001]) == 0b1001
    # hits of one size and one lowest atom: {0,1,3}, {0,2,3} and {0,1,2}
    # share atom 0; the tie-break reads the next atoms
    tied = [0b1101, 0b0111, 0b1011, 0b1110]
    for sets in (tied, tied[::-1]):
        assert first(sets=sets) == 0b0111
        assert first(lambda m: m != 0b0111, sets) == 0b1011
    assert "masks" not in vars(sys) and "index" not in vars(sys)


def test_dump_format():
    text = dump_system(enumerate_closed(make_mo(2)))
    lines = text.splitlines()
    assert lines[0] == "4 6"
    assert lines[1:] == ["0", "1", "2", "4", "8", "f"]
    assert text.endswith("\n")


def test_atom_limit_env(monkeypatch):
    monkeypatch.setenv("PLAT_LIMIT_ATOMS", "4")
    assert atom_limit() == 4
    with pytest.raises(EnumerationLimitError):
        enumerate_closed(make_mo(3))
    enumerate_closed(make_mo(2))  # at the limit is fine


@pytest.mark.parametrize("raw", ["abc", "-1", "0", "", "2.5"])
def test_atom_limit_refuses_what_is_no_positive_integer(monkeypatch, raw):
    # a word, a sign, zero, nothing and a fraction: each is refused with
    # the variable and the value named
    monkeypatch.setenv("PLAT_LIMIT_ATOMS", raw)
    with pytest.raises(ValueError, match="^PLAT_LIMIT_ATOMS must be a "
                       f"positive integer, not '{raw}'$"):
        atom_limit()
    with pytest.raises(ValueError, match="PLAT_LIMIT_ATOMS"):
        enumerate_closed(make_mo(2))


def test_brute_force_guard(monkeypatch):
    monkeypatch.setattr(closure, "BRUTE_FORCE_ATOM_LIMIT", 10)
    with pytest.raises(EnumerationLimitError):
        brute_force_closed(MO22)


def _mo2_ortho_group():
    mo2 = make_mo(2)
    return automorphisms(mo2, enumerate_closed(mo2), mode="ortho")


def _mo2_lattice_group():
    mo2 = make_mo(2)
    return automorphisms(mo2, enumerate_closed(mo2), mode="lattice")


def _hexagon_search():
    # an explicit family of 6 elements, so the search runs and is limited
    space = OrthoSpace(["a", "b", "c", "d"], [0b1000, 0b0100, 0b1010, 0b0101])
    family = ClosureSystem(space, enumerate_closed(space).masks)
    return find_orthocomplementation(family)


@pytest.mark.parametrize("module,name,answered_at,call", [
    (lattice, "AUTOMORPHISM_SEARCH_LIMIT", 4, _mo2_ortho_group),  # atoms
    (lattice, "GROUP_SIZE_LIMIT", 8, _mo2_ortho_group),  # elements listed
    (lattice, "GROUP_SIZE_LIMIT", 24, _mo2_lattice_group),  # all of S_4
    (lattice, "GROUP_SIZE_LIMIT", 8,
     lambda: close_group([(1, 0, 2, 3), (2, 3, 0, 1)], 4)),
    (lattice, "ORTHOCOMPLEMENT_SEARCH_LIMIT", 6, _hexagon_search),
    (closure, "BRUTE_FORCE_ATOM_LIMIT", 4,
     lambda: brute_force_closed(make_mo(2))),
    (constructions, "SUBSPACE_ENUM_LIMIT", 212,  # all of GF(3)^4
     lambda: enumerate_subspaces(3, 4)),
], ids=["automorphism-search", "group-size-search",
        "group-size-lattice-search", "group-size-closure",
        "orthocomplement-search", "brute-force", "subspace-enumeration"])
def test_each_limit_constant_moves_its_refusal(monkeypatch, module, name,
                                               answered_at, call):
    # read at the call: the work answers at the limit and is refused one
    # below it, by an error that names the constant to raise
    monkeypatch.setattr(module, name, answered_at)
    call()
    monkeypatch.setattr(module, name, answered_at - 1)
    with pytest.raises(EnumerationLimitError,
                       match=re.escape(f"{module.__name__}.{name}")):
        call()


def test_unknown_automorphism_mode_is_refused_before_the_carrier_check():
    # MO3's system on MO2 would fail either mode's carrier check
    with pytest.raises(ValueError) as exc:
        automorphisms(make_mo(2), enumerate_closed(make_mo(3)), mode="graph")
    assert type(exc.value) is ValueError
    assert str(exc.value) == "unknown mode: graph"


@pytest.mark.parametrize("generator,degree", [
    ((0, 0), 2),  # an atom twice
    ((0, 1, 2), 2),  # too long
    ((1, 0), 3),  # too short
])
def test_close_group_refuses_a_generator_that_is_no_permutation(generator,
                                                                degree):
    with pytest.raises(ValueError, match=re.escape(
            f"generator {generator!r} is not a bijection on {degree} atoms")):
        close_group([generator], degree)
