import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platlab import (dump_space, load_space, make_mo, make_powerset_space,
                     make_quadratic_line_space, orthospace, validate_relation)
from platlab.closure import EnumerationLimitError
from platlab.orthospace import (OrthoSpace, SpaceFormatError, _orthogonal,
                                _row_defect)


def test_mo_shape():
    s = make_mo(3)
    assert s.size == 6
    assert s.pairs() == [(0, 1), (2, 3), (4, 5)]
    assert s.labels == ("a1", "a1'", "a2", "a2'", "a3", "a3'")


def test_mo_rejects_zero():
    with pytest.raises(ValueError):
        make_mo(0)


@pytest.mark.parametrize("make,atoms_per_n", [(make_mo, 2),
                                              (make_powerset_space, 1)])
def test_space_builders_refuse_atoms_past_the_limit(monkeypatch, make,
                                                    atoms_per_n):
    # MO_n has 2n atoms and the powerset space n: answered at the limit,
    # refused one step past it
    monkeypatch.setenv("PLAT_LIMIT_ATOMS", "12")
    assert make(12 // atoms_per_n).size == 12
    with pytest.raises(EnumerationLimitError,
                       match=f"{12 + atoms_per_n} atoms, enumeration limit "
                             "is 12"):
        make(12 // atoms_per_n + 1)


def test_powerset_space_all_pairs():
    s = make_powerset_space(4)
    assert len(s.pairs()) == 6
    assert all(s.orth(p, q) == (p != q)
               for p in range(4) for q in range(4))


def test_validate_relation_good():
    for s in (make_mo(2), make_powerset_space(3),
              make_quadratic_line_space(3, 1)):
        verdict = validate_relation(s)
        assert verdict.holds and verdict.witness is None


def test_validate_relation_reflexive_witness():
    with pytest.raises(ValueError, match="not anti-reflexive at atom 0"):
        OrthoSpace(["x", "y"], (0b01, 0b01))


def test_validate_relation_asymmetric_witness():
    with pytest.raises(ValueError, match=r"not symmetric at \(0, 1\)"):
        OrthoSpace(["x", "y"], (0b10, 0b00))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))
def test_constructor_accepts_exactly_the_rows_without_a_defect(rows):
    defect = _row_defect(rows)
    labels = [f"x{i}" for i in range(len(rows))]
    if defect is None:
        assert OrthoSpace(labels, rows).rows == tuple(rows)
        return
    p, q = defect
    message = (f"relation is not anti-reflexive at atom {p}" if p == q
               else f"relation is not symmetric at ({p}, {q})")
    with pytest.raises(ValueError) as exc:
        OrthoSpace(labels, rows)
    assert str(exc.value) == message


@st.composite
def rows_with_defects(draw):
    """A symmetric anti-reflexive relation on n atoms, then some defects:
    diagonal bits, bits at n and above, and one-sided pairs either way."""
    n = draw(st.integers(1, 8))
    atom = st.integers(0, n - 1)
    rows = [0] * n
    for p, q in draw(st.lists(st.tuples(atom, atom), max_size=12)):
        if p != q:
            rows[p] |= 1 << q
            rows[q] |= 1 << p
    for p in draw(st.lists(atom, max_size=2)):
        rows[p] |= 1 << p
    for p, q in draw(st.lists(st.tuples(atom, st.integers(n, n + 3)),
                              max_size=2)):
        rows[p] |= 1 << q
    for p, q in draw(st.lists(st.tuples(atom, atom), max_size=2)):
        rows[p] ^= 1 << q
    return rows


@settings(max_examples=300, deadline=None)
@given(rows_with_defects())
def test_one_pass_check_accepts_exactly_the_rows_without_a_defect(rows):
    assert _orthogonal(rows) == (_row_defect(rows) is None)


@pytest.mark.parametrize("rows,want", [
    ((0b10, 0b01), True),
    ((0b11, 0b01), False),     # diagonal
    ((0b110, 0b001), False),   # bit 2 on two atoms
    ((0b10, 0b00), False),     # above the diagonal, not mirrored
    ((0b00, 0b01), False),     # below the diagonal only: the counts differ
])
def test_one_pass_check_on_each_kind_of_defect(rows, want):
    assert _orthogonal(rows) is want
    assert (_row_defect(rows) is None) is want


@pytest.mark.parametrize("labels,rows,atom,bit", [
    (["a"], (0b10,), 0, 1),
    (["a", "b"], (0b110, 0b001), 0, 2),
])
def test_constructor_rejects_a_row_bit_beyond_the_atoms(labels, rows, atom,
                                                        bit):
    assert _row_defect(rows) == (atom, bit)
    with pytest.raises(ValueError) as exc:
        OrthoSpace(labels, rows)
    assert str(exc.value) == (f"relation row of atom {atom} has bit {bit}, "
                              f"beyond its {len(rows)} atoms")


def test_validate_relation_not_separating():
    # two unrelated atoms: {p}^⊥⊥ = Σ, lex-least witness is atom 0
    s = OrthoSpace(["x", "y"], (0, 0))
    verdict = validate_relation(s)
    assert (verdict.holds, verdict.witness) == (False, 0)


def test_quadratic_space_matches_mo():
    # anisotropic line geometry over GF(q) pairs its q+1 points into
    # (q+1)/2 orthogonal couples
    for q, lam in ((3, 1), (7, 1), (5, 2)):
        s = make_quadratic_line_space(q, lam)
        assert s.size == q + 1
        pairs = s.pairs()
        assert len(pairs) == (q + 1) // 2
        touched = {i for p in pairs for i in p}
        assert touched == set(range(q + 1))
        mo = make_mo((q + 1) // 2)
        assert sorted(r.bit_count() for r in s.rows) == \
            sorted(r.bit_count() for r in mo.rows)


def test_quadratic_space_rejects_isotropic():
    with pytest.raises(ValueError, match=r"isotropic.*witness vector"):
        make_quadratic_line_space(3, 2)  # x² + 2y² has root (1,1) mod 3


def test_quadratic_space_rejects_even_q():
    with pytest.raises(ValueError, match="even q"):
        make_quadratic_line_space(4, 1)


def test_quadratic_space_over_atom_limit_is_refused_before_the_field(
        monkeypatch):
    # GF(2003)'s tables take about 14 s and 363 MB; the q + 1 atoms are
    # refused before they are built
    def refuse(q):
        raise AssertionError(f"GF({q}) built")

    monkeypatch.setattr(orthospace, "field", refuse)
    with pytest.raises(EnumerationLimitError,
                       match="GF.2003. has 2004 atoms, enumeration limit "
                             "is 64"):
        make_quadratic_line_space(2003, 1)
    monkeypatch.setenv("PLAT_LIMIT_ATOMS", "4")
    with pytest.raises(EnumerationLimitError, match="6 atoms"):
        make_quadratic_line_space(5, 2)
    monkeypatch.undo()
    monkeypatch.setenv("PLAT_LIMIT_ATOMS", "4")
    assert make_quadratic_line_space(3, 1).size == 4


def test_dump_load_round_trip():
    for s in (make_mo(3), make_powerset_space(2),
              make_quadratic_line_space(5, 2)):
        assert load_space(dump_space(s)) == s


def test_load_rejects_malformed_json():
    with pytest.raises(SpaceFormatError, match="line 1"):
        load_space("{not json")


def test_load_rejects_bad_entries():
    base = {"atoms": ["a", "b"], "orth": [[0, 1]]}

    def doc(**kw):
        return json.dumps({**base, **kw})

    with pytest.raises(SpaceFormatError, match="entry 0.*out of range"):
        load_space(doc(orth=[[0, 5]]))
    with pytest.raises(SpaceFormatError, match="i < j"):
        load_space(doc(orth=[[1, 0]]))
    with pytest.raises(SpaceFormatError, match="duplicated"):
        load_space(doc(orth=[[0, 1], [0, 1]]))
    with pytest.raises(SpaceFormatError, match="pair of atom indices"):
        load_space(doc(orth=[[0]]))
    with pytest.raises(SpaceFormatError, match="atoms"):
        load_space(json.dumps({"orth": []}))


@pytest.mark.parametrize("orth", [None, 7])
def test_load_rejects_an_orth_that_is_not_a_list(orth):
    doc = json.dumps({"atoms": ["a", "b"], "orth": orth})
    with pytest.raises(SpaceFormatError,
                       match='"orth" must be a list of atom index pairs'):
        load_space(doc)


@pytest.mark.parametrize("entry", [[False, True], [0, 1.0], [0.0, 1]])
def test_load_rejects_bool_and_float_indices(entry):
    # a bool or a float equal to an index is not one
    doc = json.dumps({"atoms": ["a", "b"], "orth": [entry]})
    with pytest.raises(SpaceFormatError,
                       match="entry 0: expected a pair of atom indices"):
        load_space(doc)
