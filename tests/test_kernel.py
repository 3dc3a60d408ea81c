"""The kernel, and its seed-at-a-time intersection closure against the BFS it
replaced.

``old_intersection_closure`` is the kernel's former BFS, kept verbatim as an
oracle: it intersects every new set with every distinct seed.  The kernel
closes a family seed by seed on the side of its sets until it has added as
many seeds as there are atoms; a further new seed hands it over to the
atoms' columns (``pykernel._close_columns``).  It must give the same sets as
the BFS on relation rows of up to 12 atoms, which never hand over, on
arbitrary families (duplicates, ∅ and Σ, no seeds at all), on families
with more irreducible seeds than atoms, which do, and on the q = 3 and
q = 5 tensor-trace families, and must raise on ``max_sets`` exactly when
the BFS does.  Closed families of relations (enumerated, brute-forced or
rebuilt as explicit systems) must never reach the column side.  There
each extent is read off two generators, or ANDed generator by generator
where that read-off misses; families that miss it must give the BFS's
sets too.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platlab import (_kernel, brute_force_closed, enumerate_closed, make_mo,
                     make_powerset_space, separated_product)
from platlab._kernel import pykernel
from platlab.closure import ClosureSystem
from platlab.constructions import (_row_mask, enumerate_subspaces,
                                   tensor_trace_lattice)
from platlab.gf import field

SETTINGS = settings(max_examples=150, deadline=None)


def old_intersection_closure(seeds, full, max_sets=0):
    """All intersections of subfamilies of ``seeds`` plus ``full``.

    BFS over new sets, intersecting each against every distinct seed.  Raises
    ValueError when more than ``max_sets`` sets appear (0 = unlimited).
    """
    uniq = sorted(set(seeds))
    out = {full}
    frontier = [full]
    while frontier:
        nxt = []
        for x in frontier:
            for s in uniq:
                y = x & s
                if y not in out:
                    out.add(y)
                    nxt.append(y)
                    if max_sets and len(out) > max_sets:
                        raise ValueError(
                            f"closure enumeration exceeded {max_sets} sets")
        frontier = nxt
    return sorted(out)


def _closure_or_limit(fn, seeds, full, max_sets=0):
    try:
        return sorted(fn(seeds, full, max_sets))
    except ValueError:
        return "limit"


@st.composite
def relation_rows(draw, max_atoms=12):
    n = draw(st.integers(1, max_atoms))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1))))
    rows = [0] * n
    for p, q in pairs:
        if p != q:
            rows[p] |= 1 << q
            rows[q] |= 1 << p
    return rows, (1 << n) - 1


@st.composite
def families(draw, max_atoms=12):
    n = draw(st.integers(0, max_atoms))
    full = (1 << n) - 1
    seeds = draw(st.lists(st.integers(0, full), max_size=24))
    seeds += draw(st.sampled_from([[], [0], [full], [0, full, full]]))
    seeds += draw(st.lists(st.sampled_from(seeds or [full]), max_size=4))
    return draw(st.permutations(seeds)), full


@st.composite
def wide_families(draw, max_atoms=10):
    """More distinct k-subsets of n atoms than atoms (an antichain, so each
    is an irreducible seed) when n ≥ 4, plus random extras and seeds with
    bits above ``full``; n = 0 and n < 4 draw the extras alone."""
    n = draw(st.integers(0, max_atoms))
    full = (1 << n) - 1
    seeds = []
    if n >= 4:
        k = draw(st.integers(2, n - 2))
        ksets = draw(st.permutations(
            [sum(1 << i for i in c) for c in combinations(range(n), k)]))
        seeds += ksets[:draw(st.integers(n + 1, len(ksets)))]
    seeds += draw(st.lists(st.integers(0, full), max_size=8))
    seeds += draw(st.lists(st.integers(full + 1, 8 * full + 7), max_size=3))
    return draw(st.permutations(seeds)), full


@st.composite
def handover_families(draw, max_atoms=10):
    """More than n distinct k-subsets of n ≥ 4 atoms, with ∅, Σ and
    repeats, in any order.  No k-subset is an intersection of others, so
    each is added when its turn comes, and the (n + 1)-th hands over."""
    n = draw(st.integers(4, max_atoms))
    full = (1 << n) - 1
    k = draw(st.integers(2, n - 2))
    ksets = draw(st.permutations(
        [sum(1 << i for i in c) for c in combinations(range(n), k)]))
    seeds = ksets[:draw(st.integers(n + 1, len(ksets)))]
    seeds += draw(st.sampled_from([[], [0], [full], [0, full, full]]))
    seeds += draw(st.lists(st.sampled_from(seeds), max_size=4))
    return draw(st.permutations(seeds)), full


def _traced_closure(seeds, full):
    """The kernel's closure of ``seeds``, the generator count of each
    handover, and the extents that the column side's read-off missed: its
    check ANDs columns up to the set of all generators, the fallback ANDs
    generators up to ``full``."""
    handed, missed = [], []
    close_columns, polar = pykernel._close_columns, pykernel.polar

    def counted(gens, full, max_sets):
        handed.append(len(gens))
        return close_columns(gens, full, max_sets)

    def watched(rows, mask, top):
        out = polar(rows, mask, top)
        if top == full:
            missed.append(out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pykernel, "_close_columns", counted)
        mp.setattr(pykernel, "polar", watched)
        closed = pykernel.intersection_closure(seeds, full)
    return sorted(closed), handed, missed


@SETTINGS
@given(relation_rows())
def test_closure_of_relation_rows_matches_bfs(case):
    rows, full = case
    assert sorted(pykernel.intersection_closure(rows, full)) == \
        old_intersection_closure(rows, full)


@SETTINGS
@given(st.one_of(families(), wide_families()))
def test_closure_of_arbitrary_families_matches_bfs(case):
    seeds, full = case
    assert sorted(pykernel.intersection_closure(seeds, full)) == \
        old_intersection_closure(seeds, full)


@SETTINGS
@given(st.one_of(relation_rows(), families(), wide_families()),
       st.integers(1, 300))
def test_set_limit_raises_exactly_when_bfs_does(case, max_sets):
    seeds, full = case
    assert _closure_or_limit(pykernel.intersection_closure, seeds, full,
                             max_sets) == \
        _closure_or_limit(old_intersection_closure, seeds, full, max_sets)


@pytest.mark.parametrize("full,extra,handed", [
    (31, [], 10),
    # a hole at atom 5, and a seed that holds all of full: the hole must
    # not be a column, or ∅ would count as one closed set too many
    (0b1011111, [0b1011111 | 1 << 8], 11),
], ids=["five-atoms", "hole-in-full"])
def test_more_irreducible_seeds_than_atoms_hand_over(monkeypatch, full, extra,
                                                      handed):
    # the ten 2-subsets of atoms 0-4 close to 17 sets; the seed after the
    # n-th added hands over
    calls = []

    def counted(gens, full, max_sets):
        calls.append(len(gens))
        return close_columns(gens, full, max_sets)

    close_columns = pykernel._close_columns
    monkeypatch.setattr(pykernel, "_close_columns", counted)
    seeds = [1 << i | 1 << j for i, j in combinations(range(5), 2)] + extra
    for limit in (0, 16, 17):
        assert _closure_or_limit(pykernel.intersection_closure, seeds, full,
                                 limit) == \
            _closure_or_limit(old_intersection_closure, seeds, full, limit)
    assert len(pykernel.intersection_closure(seeds, full)) == 17
    assert set(calls) == {handed}


@SETTINGS
@given(handover_families())
def test_families_that_hand_over_match_bfs(case):
    seeds, full = case
    closed, handed, _ = _traced_closure(seeds, full)
    # once, with more generators than atoms
    assert len(handed) == 1 and handed[0] > full.bit_length()
    assert closed == old_intersection_closure(seeds, full)


@pytest.mark.parametrize("seeds,full,sizes", [
    # the ten 2-subsets of 5 atoms: their two lowest generators meet in
    # one atom, so only ∅'s extent is missed
    ([1 << i | 1 << j for i, j in combinations(range(5), 2)], 31, [0]),
    # the 40 hyperplane traces at q = 3: the two lowest planes through a
    # point meet in a line with more points of the quadric
    ([_row_mask(field(3), 1, row) for (row,) in enumerate_subspaces(3, 4)[1]],
     (1 << 16) - 1, [0] + [1] * 16),
], ids=["five-atoms", "q3-hyperplanes"])
def test_missed_read_offs_fall_back_to_polar(seeds, full, sizes):
    closed, handed, missed = _traced_closure(seeds, full)
    assert handed == [len(seeds)]
    assert sorted(m.bit_count() for m in missed) == sizes
    assert set(missed) <= set(closed)
    assert closed == old_intersection_closure(seeds, full)


def test_closed_families_of_relations_never_hand_over(monkeypatch):
    # a relation has at most n rows, and its closed family adds only its
    # meet-irreducibles, which are among them
    def refuse(gens, full, max_sets):
        raise AssertionError(f"{len(gens)} seeds handed over")

    monkeypatch.setattr(pykernel, "_close_columns", refuse)
    mo3 = make_mo(3)
    prod, _ = separated_product(mo3, mo3)
    assert sorted(enumerate_closed(prod).sets) == \
        old_intersection_closure(prod.rows, prod.full)
    assert len(brute_force_closed(make_powerset_space(10))) == 1 << 10
    space = make_powerset_space(12)
    assert len(ClosureSystem(space, enumerate_closed(space).masks)) == 1 << 12


@pytest.fixture(scope="module")
def q3_traces():
    family, _ = tensor_trace_lattice(3, 1)
    return family.masks, family.carrier.full


def test_closure_of_q3_trace_family_matches_bfs(q3_traces):
    masks, full = q3_traces
    assert sorted(pykernel.intersection_closure(masks, full)) == \
        old_intersection_closure(masks, full) == sorted(masks)


def test_closure_of_q5_hyperplane_traces_matches_bfs():
    # the 156 hyperplane traces and all 656 traces close to the same family
    family, _ = tensor_trace_lattice(5, 2)
    full = family.carrier.full
    hyperplanes = [_row_mask(field(5), 2, row)
                   for (row,) in enumerate_subspaces(5, 4)[1]]
    assert len(hyperplanes) == 156
    assert sorted(pykernel.intersection_closure(hyperplanes, full)) == \
        sorted(pykernel.intersection_closure(family.masks, full)) == \
        old_intersection_closure(family.masks, full) == sorted(family.masks)
    assert len(family) == 656


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_closure_of_q3_trace_subfamilies_matches_bfs(q3_traces, data):
    masks, full = q3_traces
    seeds = data.draw(st.lists(st.sampled_from(masks), max_size=30))
    limit = data.draw(st.sampled_from([0, 5, 40]))
    assert _closure_or_limit(pykernel.intersection_closure, seeds, full,
                             limit) == \
        _closure_or_limit(old_intersection_closure, seeds, full, limit)


def test_pure_kernel_handles_wide_carriers(monkeypatch):
    # the kernel works on ints of any width
    monkeypatch.setenv("PLAT_LIMIT_ATOMS", "70")
    s = make_powerset_space(70)
    m = (1 << 70) - 2
    assert pykernel.polar(s.rows, m, s.full) == 1
    assert pykernel.biclosure(s.rows, 1, s.full) == 1


def test_dispatch_falls_back_above_64_atoms(monkeypatch):
    # the package entry point takes carriers wider than a machine word
    monkeypatch.setenv("PLAT_LIMIT_ATOMS", "70")
    s = make_powerset_space(70)
    assert _kernel.polar(s.rows, 1, s.full) == s.full ^ 1


def test_enumeration_cap():
    s = make_powerset_space(12)
    with pytest.raises(ValueError):
        pykernel.intersection_closure(s.rows, s.full, max_sets=100)
