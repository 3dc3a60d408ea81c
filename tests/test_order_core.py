"""The order core of ClosureSystem against the quadratic scans it replaced.

The ``old_*`` functions below are the scans ``ClosureSystem`` and
``platlab.lattice`` used before the order core, kept verbatim as oracles.
They run on random symmetric, anti-reflexive relations of up to 10 atoms
(checked against ``brute_force_closed`` too), on intersection-closures of
random families built with ``from_relation=False``, and on arbitrary
families that contain ∅ and Σ but need not be intersection-closed.

``orthomodularity`` and ``center`` are checked on the same relations against
oracles that follow their definitions over the 2^Σ brute-force family.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from platlab import ClosureSystem, OrthoSpace, brute_force_closed
from platlab import enumerate_closed
from platlab._kernel import pykernel
from platlab.bits import ids
from platlab.lattice import (_minimal_nonzero, center, covering_property,
                             orthomodularity)
from platlab.orthospace import Verdict

MAX_ATOMS = 10
SETTINGS = settings(max_examples=100, deadline=None)


# ------------------------------------------------------------- oracles

def old_covers(sys, am, bm):
    for m in sys.masks:
        if m != am and m != bm and am & ~m == 0 and m & ~bm == 0:
            return False
    return True


def old_coatoms(sys):
    out = []
    for m in sys.masks:
        if m == sys.carrier.full:
            continue
        if not any(n != m and n != sys.carrier.full and m & ~n == 0
                   for n in sys.masks):
            out.append(m)
    return out


def old_minimal_nonzero(sys):
    out = []
    for m in sys.masks:
        if m == 0:
            continue
        if not any(x != 0 and x != m and x & ~m == 0 for x in sys.masks):
            out.append(m)
    return out


def old_degree_profiles(sys):
    down = sorted(sum(1 for x in sys.masks if x & ~m == 0) for m in sys.masks)
    up = sorted(sum(1 for x in sys.masks if m & ~x == 0) for m in sys.masks)
    return down, up


def old_covering_property(sys):
    for am in sys.masks:
        if am == sys.carrier.full:
            continue
        for p in range(sys.carrier.size):
            if am >> p & 1:
                continue
            bm = sys.join_mask(am | (1 << p))
            for cm in sys.masks:
                if cm != am and cm != bm and am & ~cm == 0 and cm & ~bm == 0:
                    return Verdict(False, (ids(am), p, ids(cm)))
    return Verdict(True, None)


# ---------------------------------------------------------- strategies

@st.composite
def relations(draw):
    """A symmetric, anti-reflexive relation on 1..MAX_ATOMS atoms."""
    n = draw(st.integers(1, MAX_ATOMS))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    rows = [0] * n
    for (i, j), k in zip(pairs, keep):
        if k:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return OrthoSpace([f"x{i}" for i in range(n)], rows)


@st.composite
def families(draw):
    """A carrier and a random family of its subsets (∅ and Σ not added)."""
    n = draw(st.integers(1, MAX_ATOMS))
    full = (1 << n) - 1
    fam = draw(st.lists(st.integers(0, full), max_size=12))
    return OrthoSpace([f"x{i}" for i in range(n)], [0] * n), fam


def _explicit(space, fam, close):
    full = space.full
    masks = pykernel.intersection_closure(fam, full) if close else fam + [full]
    return ClosureSystem(space, set(masks) | {0, full}, from_relation=False)


def _meet_of_supersets(gens, m, full):
    acc = full
    for g in gens:
        if m & ~g == 0:
            acc &= g
    return acc


# -------------------------------------------------------------- checks

def _pairs(sys, rnd, count=40):
    """(∅, Σ) and up to ``count`` random pairs a ⊊ b of closed sets."""
    masks = sys.masks
    out = [(0, sys.carrier.full)] if len(masks) > 1 else []
    for _ in range(count):
        a, b = rnd.choice(masks), rnd.choice(masks)
        a &= b
        if a != b and a in sys.index:
            out.append((a, b))
    return out


def _agree_with_oracles(sys, rnd):
    for m in sys.masks:
        assert sys.up_set(m) == sum(1 << j for j, x in enumerate(sys.masks)
                                    if m & ~x == 0)
        assert sys.down_set(m) == sum(1 << j for j, x in enumerate(sys.masks)
                                      if x & ~m == 0)
    assert sys.coatoms() == old_coatoms(sys)
    assert _minimal_nonzero(sys) == old_minimal_nonzero(sys)
    down, up = old_degree_profiles(sys)
    assert sorted(sys.down_set(m).bit_count() for m in sys.masks) == down
    assert sorted(sys.up_set(m).bit_count() for m in sys.masks) == up
    for a, b in _pairs(sys, rnd):
        assert sys.covers(a, b) == old_covers(sys, a, b)
    assert covering_property(sys) == old_covering_property(sys)


@SETTINGS
@given(relations(), st.randoms(use_true_random=False))
def test_relation_systems_match_oracles(space, rnd):
    sys = enumerate_closed(space)
    assert sys.masks == brute_force_closed(space).masks
    _agree_with_oracles(sys, rnd)


@SETTINGS
@given(families(), st.randoms(use_true_random=False))
def test_intersection_closures_match_oracles(spec, rnd):
    space, fam = spec
    sys = _explicit(space, fam, close=True)
    # the brute-force intersection closure: m is in it iff m is the meet
    # of the generators (and Σ) that contain it
    gens = set(fam) | {space.full}
    brute = [m for m in range(1 << space.size)
             if m == 0 or m == _meet_of_supersets(gens, m, space.full)]
    assert sys.masks == ClosureSystem(space, brute, False).masks
    _agree_with_oracles(sys, rnd)


@SETTINGS
@given(families(), st.randoms(use_true_random=False))
def test_arbitrary_families_match_oracles(spec, rnd):
    space, fam = spec
    _agree_with_oracles(_explicit(space, fam, close=False), rnd)


def test_order_core_is_lazy():
    sys = ClosureSystem(OrthoSpace(["a", "b"], [0b10, 0b01]),
                        [0, 0b01, 0b10, 0b11])
    assert "_columns" not in vars(sys)
    assert sys.coatoms() == [0b01, 0b10]
    assert vars(sys)["_columns"] == [0b1010, 0b1100]


# ---------------------------------------------- definition oracles

def _definitions(space):
    """The brute-force closed sets, the polar atom by atom, and the join
    (least closed superset) of every subset of Σ."""
    closed = brute_force_closed(space).masks
    n = space.size

    def perp(a):
        return sum(1 << q for q in range(n)
                   if all(space.orth(p, q) for p in ids(a)))

    join = [_meet_of_supersets(closed, u, space.full) for u in range(1 << n)]
    return closed, perp, join


def oracle_orthomodularity(closed, perp, join):
    """b = a ∨ (b ∧ a^⊥) for all closed a ⊆ b; the first failing (a, b)."""
    for a in closed:
        pa = perp(a)
        for b in closed:
            if a & ~b == 0 and join[a | (b & pa)] != b:
                return Verdict(False, (ids(a), ids(b)))
    return Verdict(True, None)


def oracle_center(space, closed, perp, join):
    """z with z^⊥ = Σ∖z closed and (x, y) ↦ x ∨ y a bijection from
    [0, z] × [0, Σ∖z] onto the closed sets."""
    members = set(closed)
    out = []
    for z in closed:
        c = space.full ^ z
        if c not in members or perp(z) != c:
            continue
        images = [join[x | y] for x in closed if x & ~z == 0
                  for y in closed if y & ~c == 0]
        if len(set(images)) == len(images) and set(images) == members:
            out.append(z)
    return out


@SETTINGS
@given(relations())
def test_orthomodularity_and_center_match_definitions(space):
    sys = enumerate_closed(space)
    closed, perp, join = _definitions(space)
    assert orthomodularity(space, sys) == \
        oracle_orthomodularity(closed, perp, join)
    assert center(sys, space) == oracle_center(space, closed, perp, join)
