import dataclasses
import json
import random
from pathlib import Path

import pytest
from click.testing import CliRunner

from platlab import (AtomSubset, Verdict, check_axioms, dump_space,
                     enumerate_closed, make_mo, separated_product, sharp)
from platlab import _kernel
from platlab import cli as cli_module
from platlab import constructions as con_module
from platlab import sepprod as sp_module
from platlab.bits import ids
from platlab.cli import (VERIFY_DEFAULTS, main, regenerate_fixtures,
                         run_search, run_verify_suite)
from platlab.lattice import automorphisms
from platlab.orthospace import _rows_from_pairs

runner = CliRunner()
# outputs of plat product, check and search that the commands must keep
# printing byte for byte, and the space and relation documents they read
GOLDEN = Path(__file__).resolve().parent / "golden"


def invoke(*args):
    return runner.invoke(main, list(args))


def test_space_mo(tmp_path):
    out = tmp_path / "mo2.json"
    res = invoke("space", "mo", "--n", "2", "-o", str(out))
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc == {"atoms": ["a1", "a1'", "a2", "a2'"],
                   "orth": [[0, 1], [2, 3]]}


def test_space_powerset_stdout():
    res = invoke("space", "powerset", "--n", "3")
    assert res.exit_code == 0
    assert json.loads(res.output)["atoms"] == ["p1", "p2", "p3"]


def test_space_quad_rejects_bad_form():
    res = invoke("space", "quad", "--q", "3", "--lam", "2")
    assert res.exit_code == 2
    assert "isotropic" in res.output


def test_product_enumerate(tmp_path):
    sp = tmp_path / "mo2.json"
    sp.write_text(dump_space(make_mo(2)))
    res = invoke("product", "--left", str(sp), "--right", str(sp),
                 "--enumerate")
    assert res.exit_code == 0
    assert res.output.splitlines()[0] == "16 114"


def test_product_pairs_listing(tmp_path):
    sp = tmp_path / "mo1.json"
    sp.write_text(dump_space(make_mo(1)))
    res = invoke("product", "--left", str(sp), "--right", str(sp))
    assert res.exit_code == 0
    doc = json.loads(res.output)
    # on MO_1 x MO_1 every atom pair differs in a coordinate orthogonally
    assert doc["atoms"] == 4 and len(doc["pairs"]) == 6


def test_check_sharp_relation(tmp_path):
    mo2 = make_mo(2)
    prod = sharp(mo2, mo2)
    doc = {"left": json.loads(dump_space(mo2)),
           "right": json.loads(dump_space(mo2)),
           "pairs": [[p, q] for p in range(16) for q in range(p + 1, 16)
                     if prod.orth(p, q)]}
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps(doc))
    res = invoke("check", "--relation", str(rel))
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["P5"]["holds"] is True
    assert rep["separating"]["holds"] is True


def test_check_reports_failing_axioms_with_exit_0(tmp_path):
    # check is a report command: failing axioms are its answer, not an error
    mo2 = json.loads(dump_space(make_mo(2)))
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps({"left": mo2, "right": mo2, "pairs": [[0, 5]]}))
    res = invoke("check", "--relation", str(rel))
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["P2"]["holds"] is False
    assert rep["separating"]["holds"] is False


def test_check_rejects_bad_document(tmp_path):
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps({"left": {"atoms": ["a"], "orth": []}}))
    res = invoke("check", "--relation", str(rel))
    assert res.exit_code == 2
    assert "bad relation document" in res.output


@pytest.mark.parametrize("pair", [[True, 2], [0, 3.0]])
def test_check_rejects_bool_and_float_indices(tmp_path, pair):
    mo2 = json.loads(dump_space(make_mo(2)))
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps({"left": mo2, "right": mo2,
                               "pairs": [pair, [0, 3]]}))
    _usage_error(invoke("check", "--relation", str(rel)),
                 "bad relation document", "pair is not two atom indices")


def test_check_rejects_an_out_of_range_pair(tmp_path):
    mo2 = json.loads(dump_space(make_mo(2)))
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps({"left": mo2, "right": mo2,
                               "pairs": [[0, 16]]}))
    _usage_error(invoke("check", "--relation", str(rel)),
                 "bad relation document",
                 "pair is not two atom indices of the 16-atom product")


@pytest.mark.parametrize("args,golden", [
    (["product"], "product_mo2_mo2.json"),
    (["product", "--enumerate"], "../../fixtures/mo2_mo2.clos.txt"),
    (["check", "--relation", "sharp_mo2_mo2.relation.json"],
     "check_sharp_mo2_mo2.json"),
] + [(["search", "--budget", "300", "--seed", str(seed), "--factor-n",
       str(n)], f"search_b300_s{seed}_f{n}.json")
     for seed in (0, 1) for n in (1, 2)] + [
    (["search", "--budget", "300", "--seed", "0", "--factor-n", "3"],
     "search_b300_s0_f3.json"),
    # ⊥5: P4 holds and P4* fails at an atom
    (["check", "--relation", "perp5_mo2_mo2.relation.json"],
     "check_perp5_mo2_mo2.json")])
def test_outputs_equal_the_golden_files(tmp_path, args, golden):
    if args[0] == "product":
        mo2 = str(GOLDEN / "mo2.ospace.json")
        args = args + ["--left", mo2, "--right", mo2]
    elif args[0] == "check":
        args = ["check", "--relation", str(GOLDEN / args[2])]
    out = tmp_path / "out"
    res = invoke(*args, "-o", str(out))
    assert res.exit_code == 0, res.output
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("suite", ["closure", "theorem1", "theorem2",
                                   "theorem3", "lemmas", "constructions",
                                   "l0"])
def test_verify_suites_pass(suite, tmp_path):
    out = tmp_path / "report.json"
    res = invoke("verify", "--suite", suite, "--trials", "25",
                 "--seed", "0", "-o", str(out))
    assert res.exit_code == 0, res.output
    rep = json.loads(out.read_text())
    assert rep["pass"] is True
    assert all(c["pass"] for c in rep["checks"])


def test_verify_unknown_suite():
    res = invoke("verify", "--suite", "nope")
    assert res.exit_code == 2


def test_verify_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        res = invoke("verify", "--suite", "theorem2", "--trials", "30",
                     "--seed", "9", "-o", str(out))
        assert res.exit_code == 0
    assert a.read_bytes() == b.read_bytes()


def test_search_deterministic_and_sound():
    r1 = run_search(budget=40, seed=5)
    r2 = run_search(budget=40, seed=5)
    assert r1 == r2
    counts = r1["counts"]
    assert sum(counts.values()) == 40
    # the uniqueness theorem predicts no separating P1-P4 relation with a
    # different closed-set family
    assert counts["distinct_family"] == 0


def test_search_enumerates_no_candidate(monkeypatch):
    # only MO1 itself: _first_failing_axiom enumerates a candidate once it
    # passes P2, and L = L# is read off the candidate's rows; 14 draws at
    # seed 0 pass P1-P4 and reach that read-off
    enumerated = []
    enumerate_own = cli_module.enumerate_closed
    monkeypatch.setattr(cli_module, "enumerate_closed",
                        lambda space: enumerated.append(space)
                        or enumerate_own(space))
    report = run_search(budget=300, seed=0, factor_n=1)
    assert report["counts"]["equal_as_p_lattice"] == 14
    assert enumerated == [make_mo(1)]


def test_search_cli_exit_and_budget_guard(tmp_path):
    res = invoke("search", "--budget", "0")
    assert res.exit_code == 2
    out = tmp_path / "s.json"
    res = invoke("search", "--budget", "5", "--seed", "1", "-o", str(out))
    assert res.exit_code == 0
    assert "conclusion" in json.loads(out.read_text())


def test_fixtures_regen_matches_committed(tmp_path, fixture_dir):
    written = regenerate_fixtures(tmp_path)
    assert set(written) == {
        "mo2_mo2.clos.txt", "mo2_pow2.clos.txt", "l5_mo2.clos.txt",
        "l0_q3.json", "daniel_failing_map.json"} | {
        f"verify/{suite}.json" for suite in (
            "closure", "theorem1", "theorem2", "theorem3", "lemmas",
            "constructions", "l0", "l0_q5_lam2")}
    for name in written:
        assert (tmp_path / name).read_bytes() == \
            (fixture_dir / name).read_bytes(), name


def test_fixtures_regen_command_lists_each_file_once(tmp_path, fixture_dir):
    res = runner.invoke(main, ["fixtures", "--regen", "--dir", str(tmp_path)])
    assert res.exit_code == 0, res.output
    listed = res.stdout.splitlines()
    assert len(listed) == len(set(listed)) == 13
    for name in listed:
        assert (tmp_path / name).read_bytes() == \
            (fixture_dir / name).read_bytes(), name


def test_product_enumerate_over_limit_is_usage_error(tmp_path):
    sp = tmp_path / "mo5.json"
    sp.write_text(dump_space(make_mo(5)))
    res = invoke("product", "--left", str(sp), "--right", str(sp),
                 "--enumerate")
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "enumeration limit is 64" in res.output


def _usage_error(res, *fragments):
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    for fragment in fragments:
        assert fragment in res.output


def test_verify_l0_over_search_limit_is_usage_error():
    # the q = 7 family has 2,050 sets, past the orthocomplementation limit
    _usage_error(invoke("verify", "--suite", "l0", "--q", "7"),
                 "system has 2050 elements, search limit 1000",
                 "platlab.lattice.ORTHOCOMPLEMENT_SEARCH_LIMIT")


def test_verify_l0_over_atom_limit_is_usage_error():
    # GF(9) builds; λ = 4 is anisotropic, and the product has 100 atoms
    _usage_error(invoke("verify", "--suite", "l0", "--q", "9", "--lam", "4"),
                 "carrier has 100 atoms, enumeration limit is 64",
                 "PLAT_LIMIT_ATOMS")


def test_space_quad_over_atom_limit_is_usage_error():
    # refused before GF(2003) is built
    _usage_error(invoke("space", "quad", "--q", "2003"),
                 "the line over GF(2003) has 2004 atoms, enumeration limit "
                 "is 64", "PLAT_LIMIT_ATOMS")


@pytest.mark.parametrize("args,fragment", [
    (("mo", "--n", "1000000"), "MO_1000000 has 2000000 atoms"),
    (("powerset", "--n", "3000"), "the powerset space has 3000 atoms"),
], ids=["mo", "powerset"])
def test_space_over_atom_limit_is_usage_error(args, fragment):
    # refused before a row is built: MO_1000000's rows would be ints of up
    # to 2,000,000 bits
    _usage_error(invoke("space", *args), fragment,
                 "enumeration limit is 64", "PLAT_LIMIT_ATOMS")


@pytest.mark.parametrize("raw", ["abc", "-1"])
def test_bad_atom_limit_is_usage_error(monkeypatch, raw):
    monkeypatch.setenv("PLAT_LIMIT_ATOMS", raw)
    res = invoke("space", "quad", "--q", "3")
    _usage_error(res, f"PLAT_LIMIT_ATOMS must be a positive integer, not "
                 f"'{raw}'")
    assert [line.startswith("Error: ")
            for line in res.output.splitlines()].count(True) == 1


def test_verify_l0_isotropic_form_is_usage_error():
    _usage_error(invoke("verify", "--suite", "l0", "--q", "9", "--lam", "2"),
                 "isotropic over GF(9)")


@pytest.mark.parametrize("w", ["aut", "identity"])
def test_check_reads_w_files(tmp_path, w):
    # W files holding MO2's ortho automorphisms, in the search's order,
    # give the --w1 aut report byte for byte; files holding the identity
    # alone give check_axioms' report on W = {id}, in which P4 and P4* hold
    relation = GOLDEN / "sharp_mo2_mo2.relation.json"
    mo2 = make_mo(2)
    mo2_sys = enumerate_closed(mo2)
    if w == "aut":
        W = list(automorphisms(mo2, mo2_sys, mode="ortho"))
        expected = (GOLDEN / "check_sharp_mo2_mo2.json").read_bytes()
    else:
        W = [(0, 1, 2, 3)]
        rep = check_axioms(sharp(mo2, mo2), mo2_sys, mo2_sys, W, W).to_json()
        assert rep["P4"]["holds"] and rep["P4star"]["holds"]
        expected = (json.dumps(rep, indent=2) + "\n").encode()
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps([list(g) for g in W]))
    out = tmp_path / "out"
    res = invoke("check", "--relation", str(relation), "--w1", str(wfile),
                 "--w2", str(wfile), "-o", str(out))
    assert res.exit_code == 0, res.output
    assert out.read_bytes() == expected


def test_check_rejects_non_permutation_w(tmp_path):
    mo2 = make_mo(2)
    doc = {"left": json.loads(dump_space(mo2)),
           "right": json.loads(dump_space(mo2)), "pairs": []}
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps(doc))
    w1 = tmp_path / "w1.json"
    w1.write_text("[[0,0,1,2]]")
    res = invoke("check", "--relation", str(rel), "--w1", str(w1))
    assert res.exit_code == 2
    assert "bad --w1 file" in res.output
    assert "not a permutation" in res.output


def test_lemmas_reports_failed_join_lift(monkeypatch):
    def broken_lift(f, src, dst):
        raise AssertionError("lifted map is not join-preserving")

    monkeypatch.setattr(sp_module, "daniel_lift", broken_lift)
    rep = run_verify_suite("lemmas", {"seed": 0, "trials": 25, "q": 3,
                                      "lam": 1})
    checks = {c["id"]: c for c in rep["checks"]}
    lifts = checks["join-lift-50-maps"]
    assert lifts["pass"] is False and rep["pass"] is False
    assert lifts["witness"]["attempts"] == 1
    assert len(lifts["witness"]["failing_map"]) in (3, 4)
    failing = checks["join-lift-failing-map"]
    assert failing["pass"] is False
    assert failing["witness"] == {"error": "lifted map is not join-preserving"}


def test_perp4_builds_fails_when_p2_holds(monkeypatch):
    real = sp_module.check_axioms

    def p2_holds_on_perp4(prod, *args):
        rep = real(prod, *args)
        if prod.relation_name == "perp4":
            rep = dataclasses.replace(rep, p2=Verdict(True, None))
        return rep

    monkeypatch.setattr(sp_module, "check_axioms", p2_holds_on_perp4)
    rep = run_verify_suite("constructions", {"seed": 0, "trials": 25, "q": 3,
                                             "lam": 1})
    checks = {c["id"]: c for c in rep["checks"]}
    assert checks["perp4-builds"]["pass"] is False
    assert checks["perp4-builds"]["witness"] is True
    assert rep["pass"] is False


def test_l0_report_fails_when_the_census_is_off(monkeypatch):
    # the separated product's 114 sets in place of the 138 traces: 8 of
    # them have 4 atoms, where the census at q = 3 counts 32
    real = con_module.tensor_trace_lattice

    def product_only(q, lam):
        family, report = real(q, lam)
        factor = family.carrier.left
        return separated_product(factor, factor)[1], report

    monkeypatch.setattr(con_module, "tensor_trace_lattice", product_only)
    rep = run_verify_suite("l0", {"seed": 0, "trials": 25, "q": 3, "lam": 1})
    checks = {c["id"]: c for c in rep["checks"]}
    assert [cid for cid, c in checks.items() if not c["pass"]] == ["l0-report"]
    assert checks["l0-report"]["witness"]["intersection_closed"] is True
    assert rep["pass"] is False


def test_l0_report_fails_when_the_family_is_not_intersection_closed(
        monkeypatch):
    real = con_module.tensor_trace_lattice

    def not_closed(q, lam):
        family, report = real(q, lam)
        return family, dataclasses.replace(report, intersection_closed=False)

    monkeypatch.setattr(con_module, "tensor_trace_lattice", not_closed)
    rep = run_verify_suite("l0", {"seed": 0, "trials": 25, "q": 3, "lam": 1})
    checks = {c["id"]: c for c in rep["checks"]}
    assert checks["l0-report"]["pass"] is False
    assert checks["l0-report"]["witness"]["intersection_closed"] is False
    assert [cid for cid, c in checks.items() if not c["pass"]] == ["l0-report"]
    assert rep["pass"] is False
    assert invoke("verify", "--suite", "l0").exit_code == 1


def test_check_rejects_a_float_in_w(tmp_path):
    mo1 = make_mo(1)
    doc = {"left": json.loads(dump_space(mo1)),
           "right": json.loads(dump_space(mo1)), "pairs": []}
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps(doc))
    w1 = tmp_path / "w.json"
    w1.write_text("[[1.0, 0], [0, 1]]")
    res = invoke("check", "--relation", str(rel), "--w1", str(w1))
    _usage_error(res, "bad --w1 file", "not a permutation")
    assert sum(line.startswith("Error:")
               for line in res.output.splitlines()) == 1


@pytest.mark.parametrize("args", [
    ["search", "--budget", "1", "--factor-n", "0"],   # out of range
    ["search", "--budget", "1", "--factor-n", "9"],   # out of range
    ["space", "mo", "--n", "2", "-o", "{tmp}/missing/x.json"],
    ["verify", "--suite", "closure", "-o", "{tmp}/missing/x.json"],
    ["fixtures", "--regen", "--dir", "{tmp}/file/sub"],
    ["product", "--left", "{tmp}/null.json", "--right", "{tmp}/null.json"],
])
def test_value_and_os_errors_exit_2(args, tmp_path):
    (tmp_path / "file").write_text("")
    (tmp_path / "null.json").write_text('{"atoms": ["a"], "orth": null}')
    res = invoke(*(a.format(tmp=tmp_path) for a in args))
    _usage_error(res)
    assert sum(line.startswith("Error:")
               for line in res.output.splitlines()) == 1


@pytest.mark.parametrize("factor_n", ["0", "5", "9", "-1"])
def test_search_names_the_factor_n_range(monkeypatch, factor_n):
    # refused before any work, with a hint the command line can follow
    monkeypatch.setattr(cli_module, "make_mo", None)
    res = invoke("search", "--budget", "1", "--factor-n", factor_n)
    _usage_error(res, f"--factor-n must be between 1 and 4, got {factor_n}")
    assert "max_atoms=" not in res.output


def test_other_errors_keep_their_traceback(monkeypatch):
    bug = RuntimeError("a bug, not bad input")

    def broken_search(*args):
        raise bug

    monkeypatch.setattr(cli_module, "run_search", broken_search)
    res = invoke("search", "--budget", "1")
    assert res.exception is bug


def test_broken_pipe_is_not_a_usage_error(monkeypatch):
    def closed_reader(*args):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli_module, "_emit", closed_reader)
    res = invoke("search", "--budget", "1")
    assert res.exit_code == 1
    assert "Error:" not in res.output


# every verify check can fail: each test below swaps the one library call a
# check reads and expects that check, and only it, to fail

def failed_checks(suite):
    """{id: witness} of the failing checks; the suite must fail."""
    rep = run_verify_suite(suite, {**VERIFY_DEFAULTS, "trials": 25})
    assert rep["pass"] is False
    return {c["id"]: c["witness"] for c in rep["checks"] if not c["pass"]}


def first_closure_draw():
    """The closure suite's first pair of random subsets of MO3 × MO3."""
    rng = random.Random(VERIFY_DEFAULTS["seed"])
    return rng.randrange(1 << 36), rng.randrange(1 << 36)


def test_closure_laws_fail_when_biclosure_is_not_extensive(monkeypatch):
    a, _ = first_closure_draw()
    monkeypatch.setattr(cli_module, "biclosure",
                        lambda space, x: AtomSubset(space, 0))
    assert failed_checks("closure") == {
        "closure-laws-mo3-product": ("extensive", ids(a))}


def test_closure_laws_fail_when_biclosure_is_not_idempotent(monkeypatch):
    # each call adds the lowest atom still missing
    a, _ = first_closure_draw()
    monkeypatch.setattr(cli_module, "biclosure", lambda space, x: AtomSubset(
        space, x.bits | (x.bits + 1) & ~x.bits))
    assert failed_checks("closure") == {
        "closure-laws-mo3-product": ("idempotent", ids(a))}


def test_closure_laws_fail_when_biclosure_is_not_monotone(monkeypatch):
    # sets as large as the first draw are closed, smaller ones close to Σ
    a, b = first_closure_draw()
    assert (a & b).bit_count() < a.bit_count()
    monkeypatch.setattr(cli_module, "biclosure", lambda space, x: x if (
        x.bits.bit_count() >= a.bit_count()) else AtomSubset.universe(space))
    assert failed_checks("closure") == {
        "closure-laws-mo3-product": ("monotone", ids(a & b))}


def test_closure_laws_fail_when_the_triple_polar_law_does(monkeypatch):
    # with polar the identity, a^⊥⊥⊥ = a^⊥⊥ ≠ a = a^⊥ for a non-closed a
    a, _ = first_closure_draw()
    prod = sharp(make_mo(3), make_mo(3))
    assert _kernel.biclosure(prod.rows, a, prod.full) != a
    monkeypatch.setattr(cli_module, "polar", lambda space, x: x)
    assert failed_checks("closure") == {
        "closure-laws-mo3-product": ("triple-polar", ids(a))}


def test_coatom_shrink_fails_when_a_relation_is_not_separating(monkeypatch):
    monkeypatch.setattr(cli_module, "validate_relation",
                        lambda space: Verdict(False, None))
    assert failed_checks("lemmas") == {
        "coatom-shrink-implies-separating": None}


def test_closed_shadows_fail_only_when_p3_fails(monkeypatch):
    real = sp_module.check_axioms

    def p3_fails_on_sharp(prod, *args):
        rep = real(prod, *args)
        if prod.relation_name == "sharp":
            rep = dataclasses.replace(rep, p3=Verdict(False, None))
        return rep

    monkeypatch.setattr(sp_module, "check_axioms", p3_fails_on_sharp)
    assert failed_checks("lemmas") == {"closed-shadows-imply-p3": None}
    # a shadow outside the factor family makes the implication vacuous
    monkeypatch.setattr(sp_module, "p_hash_components", lambda prod, p: (
        AtomSubset(prod.left, 0b101), AtomSubset(prod.right, 0), 0))
    rep = run_verify_suite("lemmas", {**VERIFY_DEFAULTS, "trials": 25})
    assert rep["pass"] is True


def test_closed_shadows_fail_when_p3_fails_on_perp2(monkeypatch):
    # each fixture is checked against its own report: ⊥2's shadows are
    # closed, so a report of ⊥2 in which P3 fails fails the check
    real = sp_module.check_axioms

    def p3_fails_on_perp2(prod, *args):
        rep = real(prod, *args)
        if prod.relation_name == "perp2":
            rep = dataclasses.replace(rep, p3=Verdict(False, None))
        return rep

    monkeypatch.setattr(sp_module, "check_axioms", p3_fails_on_perp2)
    assert failed_checks("lemmas") == {"closed-shadows-imply-p3": None}


def test_distinct_pair_joins_fail_when_a_pair_is_not_closed(monkeypatch):
    # (0,0) and (1,1) are the first product-distinct pair of MO2 × MO2
    rows = sharp(make_mo(2), make_mo(2)).rows
    pair = 1 << 0 | 1 << 5
    real = _kernel.biclosure
    monkeypatch.setattr(_kernel, "biclosure", lambda r, m, full: full if (
        r == rows and m == pair) else real(r, m, full))
    assert failed_checks("lemmas") == {"distinct-pair-joins-mo2": (0, 5)}


def test_distinct_pair_joins_report_the_first_failing_pair(monkeypatch):
    # {0, 5} and {0, 6} both fail; (0, 5) comes first, and every pair is
    # still counted
    rows = sharp(make_mo(2), make_mo(2)).rows
    pairs = {1 << 0 | 1 << 5, 1 << 0 | 1 << 6}
    real = _kernel.biclosure
    monkeypatch.setattr(_kernel, "biclosure", lambda r, m, full: full if (
        r == rows and m in pairs) else real(r, m, full))
    rep = run_verify_suite("lemmas", {**VERIFY_DEFAULTS, "trials": 25})
    check = next(c for c in rep["checks"]
                 if c["id"] == "distinct-pair-joins-mo2")
    assert check["pass"] is False and check["witness"] == (0, 5)
    assert check["description"] == ("all 72 product-distinct atom pairs "
                                     "join to the bare pair")


def test_failing_map_check_fails_when_the_lift_does_not_raise(monkeypatch):
    monkeypatch.setattr(sp_module, "daniel_lift", lambda f, src, dst: None)
    assert failed_checks("lemmas") == {"join-lift-failing-map": None}


def test_search_reports_a_distinct_family(monkeypatch):
    # every draw passes P1-P4; on MO2 × MO2 each of them has a row outside
    # L#, and an enumeration of both families confirms it
    monkeypatch.setattr(sp_module, "_first_failing_axiom", lambda *a: None)
    report = run_search(budget=4, seed=0, factor_n=2)
    assert report["counts"] == {"fails_axiom": 0, "equal_as_p_lattice": 0,
                                "distinct_family": 4}
    assert report["conclusion"] == "distinct-family candidate found"
    mo2 = make_mo(2)
    _, sharp_sys = separated_product(mo2, mo2)
    hits = report["distinct_family_hits"]
    assert len(hits) == 4
    for pairs in hits:
        rows = _rows_from_pairs([0] * 16, pairs)
        relation = sp_module.ProductSpace(mo2, mo2, rows, "candidate")
        assert enumerate_closed(relation).sets != sharp_sys.sets


def test_perturbations_count_theorem_contradictions(monkeypatch):
    monkeypatch.setattr(sp_module, "_first_failing_axiom", lambda *a: None)
    mo2 = make_mo(2)
    summary = sp_module.perturbation_test(mo2, mo2, trials=5, seed=0)
    assert summary.theorem_contradictions == 5
    assert set(summary.failures_by_axiom.values()) == {0}
    assert failed_checks("theorem2") == {
        "perturbations-all-fail": {
            "trials": 25, "seed": 0, "theorem_contradictions": 25,
            "failures_by_axiom": {"separating": 0, "P2": 0, "P3": 0,
                                  "P4": 0}}}
