import dataclasses
import json

import pytest
from click.testing import CliRunner

from platlab import Verdict, dump_space, make_mo, sharp
from platlab import sepprod as sp_module
from platlab.cli import main, regenerate_fixtures, run_search, run_verify_suite

runner = CliRunner()


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


def test_check_rejects_bad_document(tmp_path):
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps({"left": {"atoms": ["a"], "orth": []}}))
    res = invoke("check", "--relation", str(rel))
    assert res.exit_code == 2
    assert "bad relation document" in res.output


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
        "l0_q3.json", "daniel_failing_map.json"}
    for name in written:
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
