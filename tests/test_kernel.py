"""The kernel, and its seed-at-a-time intersection closure against the BFS it
replaced.

``old_intersection_closure`` is the kernel's former BFS, kept verbatim as an
oracle: it intersects every new set with every distinct seed.  The kernel
must give the same sets on relation rows of up to 12 atoms, on
arbitrary families (duplicates, ∅ and Σ, no seeds at all) and on the q = 3
tensor-trace family, and must raise on ``max_sets`` exactly when the BFS
does.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platlab import _kernel, make_powerset_space
from platlab._kernel import pykernel
from platlab.constructions import tensor_trace_lattice

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


@SETTINGS
@given(relation_rows())
def test_closure_of_relation_rows_matches_bfs(case):
    rows, full = case
    assert sorted(pykernel.intersection_closure(rows, full)) == \
        old_intersection_closure(rows, full)


@SETTINGS
@given(families())
def test_closure_of_arbitrary_families_matches_bfs(case):
    seeds, full = case
    assert sorted(pykernel.intersection_closure(seeds, full)) == \
        old_intersection_closure(seeds, full)


@SETTINGS
@given(st.one_of(relation_rows(), families()), st.integers(1, 80))
def test_set_limit_raises_exactly_when_bfs_does(case, max_sets):
    seeds, full = case
    assert _closure_or_limit(pykernel.intersection_closure, seeds, full,
                             max_sets) == \
        _closure_or_limit(old_intersection_closure, seeds, full, max_sets)


@pytest.fixture(scope="module")
def q3_traces():
    family, _ = tensor_trace_lattice(3, 1)
    return family.masks, family.carrier.full


def test_closure_of_q3_trace_family_matches_bfs(q3_traces):
    masks, full = q3_traces
    assert sorted(pykernel.intersection_closure(masks, full)) == \
        old_intersection_closure(masks, full) == sorted(masks)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_closure_of_q3_trace_subfamilies_matches_bfs(q3_traces, data):
    masks, full = q3_traces
    seeds = data.draw(st.lists(st.sampled_from(masks), max_size=30))
    limit = data.draw(st.sampled_from([0, 5, 40]))
    assert _closure_or_limit(pykernel.intersection_closure, seeds, full,
                             limit) == \
        _closure_or_limit(old_intersection_closure, seeds, full, limit)


def test_pure_kernel_handles_wide_carriers():
    # the kernel works on ints of any width
    s = make_powerset_space(70)
    m = (1 << 70) - 2
    assert pykernel.polar(s.rows, m, s.full) == 1
    assert pykernel.biclosure(s.rows, 1, s.full) == 1


def test_dispatch_falls_back_above_64_atoms():
    # the package entry point takes carriers wider than a machine word
    s = make_powerset_space(70)
    assert _kernel.polar(s.rows, 1, s.full) == s.full ^ 1


def test_enumeration_cap():
    s = make_powerset_space(12)
    with pytest.raises(ValueError):
        pykernel.intersection_closure(s.rows, s.full, max_sets=100)
