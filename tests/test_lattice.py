import random

import pytest

from platlab import (enumerate_closed, make_mo, make_powerset_space,
                     separated_product)
from platlab import lattice
from platlab.closure import (CarrierMismatchError, ClosureSystem,
                             EnumerationLimitError)
from platlab.lattice import (PermutationGroup, analysis_report, automorphisms,
                             center, central_cover, close_group, compose,
                             covering_property, find_orthocomplementation,
                             invert, is_closed_group, is_irreducible,
                             is_transitive, orthomodularity)


def test_perm_utilities():
    p, q = (1, 2, 0), (0, 2, 1)
    assert compose(p, q) == (1, 0, 2)
    assert invert(p) == (2, 0, 1)
    assert compose(p, invert(p)) == (0, 1, 2)
    assert not is_closed_group([p], 3)
    closed = close_group([p], 3)
    assert len(closed) == 3 and is_closed_group(closed, 3)


def test_automorphism_groups():
    mo2 = make_mo(2)
    sys = enumerate_closed(mo2)
    ortho = automorphisms(mo2, sys, mode="ortho")
    assert len(ortho) == 8 and is_closed_group(ortho.elements, ortho.degree)
    assert is_transitive(ortho)
    # without the polarity constraint every atom permutation fixing the
    # family qualifies
    assert len(automorphisms(mo2, sys, mode="lattice")) == 24

    pow3 = make_powerset_space(3)
    psys = enumerate_closed(pow3)
    assert len(automorphisms(pow3, psys, mode="lattice")) == 6


def test_automorphism_search_limit(monkeypatch):
    s = make_powerset_space(5)
    sys = enumerate_closed(s)
    monkeypatch.setattr(lattice, "AUTOMORPHISM_SEARCH_LIMIT", 4)
    with pytest.raises(EnumerationLimitError):
        automorphisms(s, sys, mode="lattice")


def test_product_lacks_covering_and_orthomodularity(mo2_product):
    prod, psys = mo2_product
    cov = covering_property(psys)
    assert cov.holds is False and cov.witness is not None
    a, p, j = cov.witness
    assert p not in a and set(a) < set(j)
    om = orthomodularity(prod, psys)
    assert om.holds is False and om.witness is not None


def test_boolean_control_has_both():
    prod, psys = separated_product(make_powerset_space(2),
                                   make_powerset_space(2))
    assert covering_property(psys).holds
    assert orthomodularity(prod, psys).holds


def test_mo_is_orthomodular():
    mo3 = make_mo(3)
    sys = enumerate_closed(mo3)
    assert covering_property(sys).holds
    assert orthomodularity(mo3, sys).holds


def test_center_and_irreducibility(mo2_product):
    prod, psys = mo2_product
    assert len(center(psys, prod)) == 2
    assert is_irreducible(psys, prod)
    assert central_cover(psys, prod, 0) == prod.full

    pw, pwsys = separated_product(make_powerset_space(2),
                                  make_powerset_space(2))
    assert len(center(pwsys, pw)) == len(pwsys) == 16
    assert not is_irreducible(pwsys, pw)
    assert central_cover(pwsys, pw, 0) == 1


def test_orthocomplementation_recovery():
    mo2 = make_mo(2)
    sys = enumerate_closed(mo2)
    oc = find_orthocomplementation(sys)
    assert oc == {0: 15, 15: 0, 1: 2, 2: 1, 4: 8, 8: 4}

    pow3 = make_powerset_space(3)
    oc = find_orthocomplementation(enumerate_closed(pow3))
    assert oc is not None
    assert all(oc[oc[m]] == m and oc[m] == 7 ^ m for m in oc)


def test_no_orthocomplementation_on_asymmetric_family():
    # 5-element lattice with 2 atoms but only 1 coatom has none
    from platlab.closure import ClosureSystem
    from platlab.orthospace import OrthoSpace
    s = OrthoSpace(["a", "b", "c"], (0, 0, 0))
    sys = ClosureSystem(s, [0, 1, 2, 3, 7])
    assert find_orthocomplementation(sys) is None


def test_a_hand_built_family_is_searched_not_trusted(mo2):
    # a 3-element chain on MO2's carrier: the polar table would map {0} to
    # {1}, which is not a member, and no orthocomplementation exists
    chain = ClosureSystem(mo2, [0, 0b0001, 0b1111])
    assert find_orthocomplementation(chain) is None
    with pytest.raises(CarrierMismatchError):
        chain.polars
    with pytest.raises(CarrierMismatchError):
        analysis_report(mo2, chain)
    with pytest.raises(CarrierMismatchError):
        orthomodularity(mo2, chain)


def test_analysis_report_shape(mo2, mo2_sys, mo2_product):
    prod, psys = mo2_product
    rep = analysis_report(prod, psys)
    assert rep["covering"]["holds"] is False
    assert rep["orthomodular"]["holds"] is False
    assert rep["center_size"] == 2
    assert rep["irreducible"] is True
    assert rep["orthocomplementation"] == "found"
    # 16 atoms: at AUTOMORPHISM_SEARCH_LIMIT, so the search runs
    assert rep["aut_order"] == 128

    rep = analysis_report(mo2, mo2_sys)
    assert rep["covering"]["holds"] and rep["orthomodular"]["holds"]
    assert rep["aut_order"] == 8


def _orbit_of_0_is_everything(group):
    """The BFS oracle: the orbit of atom 0, grown by the elements until no
    new atom is reached, whether or not they list a whole group."""
    if group.degree == 0:
        return True
    orbit = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g in group.elements:
                y = g[x]
                if y not in orbit:
                    orbit.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(orbit) == group.degree


def _listed_groups():
    for n in (1, 2, 3):
        mo = make_mo(n)
        yield f"mo{n} ortho", automorphisms(mo, enumerate_closed(mo))
    pow3 = make_powerset_space(3)
    yield "powerset3 lattice", automorphisms(pow3, enumerate_closed(pow3),
                                             mode="lattice")
    prod, psys = separated_product(make_mo(2), make_mo(2))
    yield "mo2xmo2 ortho", automorphisms(prod, psys)
    rng = random.Random(0)
    for degree in range(1, 7):
        for _ in range(8):
            gens = []
            for _ in range(rng.randint(1, 2)):
                perm = list(range(degree))
                # a transposition or a random permutation, so some groups
                # move atom 0 and some do not
                if rng.random() < 0.5 and degree > 1:
                    i, j = rng.sample(range(degree), 2)
                    perm[i], perm[j] = perm[j], perm[i]
                else:
                    rng.shuffle(perm)
                gens.append(tuple(perm))
            yield (f"degree {degree} {gens}",
                   PermutationGroup(degree, tuple(close_group(gens, degree))))
    yield "negative", PermutationGroup(3, ((0, 1, 2), (0, 2, 1)))


def test_transitivity_matches_the_orbit_search():
    groups = list(_listed_groups())
    answers = set()
    for name, group in groups:
        want = _orbit_of_0_is_everything(group)
        assert is_transitive(group) is want, name
        answers.add(want)
    assert answers == {True, False}
    assert len(dict(groups)["mo2xmo2 ortho"]) == 128


def test_transitivity_negative():
    g = PermutationGroup(3, ((0, 1, 2), (0, 2, 1)))
    assert not is_transitive(g)


POLARITY_ANALYSES = {
    "orthomodularity": lambda space, sys: orthomodularity(space, sys),
    "center": lambda space, sys: center(sys, space),
    "central_cover": lambda space, sys: central_cover(sys, space, 0),
    "is_irreducible": lambda space, sys: is_irreducible(sys, space),
    "analysis_report": lambda space, sys: analysis_report(space, sys),
    "ortho automorphisms":
        lambda space, sys: automorphisms(space, sys, mode="ortho"),
}


@pytest.mark.parametrize("analysis", list(POLARITY_ANALYSES.values()),
                         ids=list(POLARITY_ANALYSES))
def test_polarity_analyses_need_the_carriers_own_system(analysis, mo2,
                                                        mo2_sys):
    other = enumerate_closed(make_mo(3))
    with pytest.raises(CarrierMismatchError):
        analysis(mo2, other)
    family = ClosureSystem(mo2, mo2_sys.masks)
    with pytest.raises(CarrierMismatchError):
        analysis(mo2, family)
    analysis(mo2, mo2_sys)


def test_lattice_automorphisms_accept_an_explicit_family(mo2, mo2_sys):
    family = ClosureSystem(mo2, mo2_sys.masks)
    assert len(automorphisms(mo2, family, mode="lattice")) == 24
    with pytest.raises(CarrierMismatchError):
        automorphisms(mo2, enumerate_closed(make_mo(3)), mode="lattice")


def test_analysis_report_reads_the_automorphism_search_limit(
        monkeypatch, mo2_product):
    # the order is reported exactly where the search accepts the carrier
    prod, psys = mo2_product
    monkeypatch.setattr(lattice, "AUTOMORPHISM_SEARCH_LIMIT", prod.size - 1)
    assert analysis_report(prod, psys)["aut_order"] is None


def test_analysis_report_reads_the_group_size_refusal(monkeypatch,
                                                      mo2_product):
    # 16 atoms pass the atom limit, but the 128-element ortho group of
    # MO2×MO2 exceeds this group size limit, so the search refuses it
    prod, psys = mo2_product
    monkeypatch.setattr(lattice, "GROUP_SIZE_LIMIT", 127)
    assert analysis_report(prod, psys)["aut_order"] is None


def _close_with_inverses(generators, degree):
    # the closure close_group made before it dropped the inverse generators
    seen = {tuple(range(degree))}
    frontier = list(seen)
    gens = [tuple(g) for g in generators] + [invert(g) for g in generators]
    while frontier:
        frontier = [r for r in {compose(g, p) for p in frontier for g in gens}
                    if r not in seen]
        seen.update(frontier)
    return sorted(seen)


def test_close_group_needs_no_inverse_generators():
    rng = random.Random(0)
    for _ in range(30):
        gens = []
        for _ in range(rng.randrange(4)):
            g = list(range(5))
            rng.shuffle(g)
            gens.append(g)
        assert close_group(gens, 5) == _close_with_inverses(gens, 5)
