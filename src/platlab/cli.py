"""Command-line surface: space builders, product checks, verification
suites, fixture regeneration, and the relation search.

Exit codes: 0 all checks pass, 1 a verified violation of an expected
property, 2 usage or configuration error.  Reports are byte-deterministic
for a given seed; wall times go to stderr only.
"""

from __future__ import annotations

import json
import random
import sys as _sys
import time
from pathlib import Path

import click

from . import constructions as con
from . import lattice as lat
from . import sepprod as sp
from .bits import rect
from .closure import (brute_force_closed, dump_system, enumerate_closed,
                      AtomSubset, EnumerationLimitError, biclosure, polar)
from .orthospace import (dump_space, load_space, make_mo,
                         make_powerset_space, make_quadratic_line_space)

FIXTURE_DIR = Path("fixtures")



def _emit(doc, out):
    text = json.dumps(doc, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


@click.group()
def main():
    """Finite property-lattice laboratory."""


# ---------------------------------------------------------------- spaces

@main.group()
def space():
    """Build orthogonality spaces as .ospace.json documents."""


@space.command()
@click.option("--n", type=int, required=True)
@click.option("-o", "--out", type=click.Path(), default=None)
def mo(n, out):
    """MO_n: 2n atoms in n orthogonal pairs."""
    try:
        s = make_mo(n)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _write_space(s, out)


@space.command()
@click.option("--n", type=int, required=True)
@click.option("-o", "--out", type=click.Path(), default=None)
def powerset(n, out):
    """n atoms, all distinct pairs orthogonal (Boolean closure system)."""
    try:
        s = make_powerset_space(n)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _write_space(s, out)


@space.command()
@click.option("--q", type=int, required=True)
@click.option("--lam", type=int, default=1, show_default=True)
@click.option("-o", "--out", type=click.Path(), default=None)
def quad(q, lam, out):
    """Anisotropic quadratic line geometry over GF(q)."""
    try:
        s = make_quadratic_line_space(q, lam)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _write_space(s, out)


def _write_space(s, out):
    text = dump_space(s) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


# --------------------------------------------------------------- product

@main.command()
@click.option("--left", type=click.Path(exists=True), required=True)
@click.option("--right", type=click.Path(exists=True), required=True)
@click.option("--enumerate", "do_enum", is_flag=True)
@click.option("-o", "--out", type=click.Path(), default=None)
def product(left, right, do_enum, out):
    """Separated product of two space files; --enumerate dumps the
    closure system in the .clos.txt format."""
    try:
        l = load_space(Path(left).read_text())
        r = load_space(Path(right).read_text())
        prod = sp.sharp(l, r)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if do_enum:
        try:
            text = dump_system(enumerate_closed(prod))
        except EnumerationLimitError as exc:
            raise click.UsageError(str(exc))
    else:
        pairs = [[p, q] for p in range(prod.size)
                 for q in range(p + 1, prod.size) if prod.orth(p, q)]
        text = json.dumps({"atoms": prod.size, "pairs": pairs}) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


@main.command()
@click.option("--relation", type=click.Path(exists=True), required=True,
              help="JSON: {left: space doc, right: space doc, "
                   "pairs: [[p,q],...]} over product atom indices")
@click.option("--w1", default="aut", show_default=True,
              help="'aut' or a JSON file with a list of permutations")
@click.option("--w2", default="aut", show_default=True)
@click.option("-o", "--out", type=click.Path(), default=None)
def check(relation, w1, w2, out):
    """Run the axiom report for a candidate product relation."""
    try:
        doc = json.loads(Path(relation).read_text())
        left = load_space(json.dumps(doc["left"]))
        right = load_space(json.dumps(doc["right"]))
        n = left.size * right.size
        rows = [0] * n
        for p, q in doc["pairs"]:
            if not (0 <= p < n and 0 <= q < n):
                raise ValueError(f"pair index out of range: {[p, q]}")
            rows[p] |= 1 << q
            rows[q] |= 1 << p
        prod = sp.ProductSpace(left, right, rows, "candidate")
    except (KeyError, TypeError, ValueError,
            json.JSONDecodeError) as exc:
        raise click.UsageError(f"bad relation document: {exc}")
    try:
        L1sys = enumerate_closed(left)
        L2sys = enumerate_closed(right)
        W1 = _load_w(w1, "W1", left, L1sys)
        W2 = _load_w(w2, "W2", right, L2sys)
        report = sp.check_axioms(prod, L1sys, L2sys, W1, W2)
    except EnumerationLimitError as exc:
        raise click.UsageError(str(exc))
    _emit(report.to_json(), out)


def _load_w(spec_str, name, space_obj, sysobj):
    if spec_str == "aut":
        return list(lat.automorphisms(space_obj, sysobj, mode="ortho"))
    try:
        W = [tuple(u) for u in json.loads(Path(spec_str).read_text())]
        sp._validate_w(W, space_obj.size, name)
    except (OSError, TypeError, ValueError) as exc:
        raise click.UsageError(f"bad --{name.lower()} file: {exc}")
    return W


# ---------------------------------------------------------------- verify

def _random_subset(rng, size):
    return rng.randrange(1 << size)


def _suite_closure(config):
    checks = []
    mo3 = make_mo(3)
    prod = sp.sharp(mo3, mo3)
    rng = random.Random(config["seed"])
    bad = None
    for _ in range(1000):
        a = AtomSubset(prod, _random_subset(rng, prod.size))
        b = AtomSubset(prod, _random_subset(rng, prod.size))
        lo = a & b
        ca = biclosure(prod, a)
        if not (a <= ca):
            bad = ("extensive", a.indices())
        elif biclosure(prod, ca) != ca:
            bad = ("idempotent", a.indices())
        elif not (biclosure(prod, lo) <= ca):
            bad = ("monotone", lo.indices())
        elif polar(prod, ca) != polar(prod, a):
            bad = ("triple-polar", a.indices())
        if bad:
            break
    checks.append(("closure-laws-mo3-product",
                   "1000 random subsets satisfy the closure-operator laws",
                   bad is None, bad))
    small = [("mo2", make_mo(2)), ("mo3", make_mo(3)),
             ("powerset3", make_powerset_space(3)),
             ("quad3", make_quadratic_line_space(3, 1)),
             ("mo1xmo2", sp.sharp(make_mo(1), make_mo(2))),
             ("mo1xmo3", sp.sharp(make_mo(1), make_mo(3)))]
    for name, carrier in small:
        ok = enumerate_closed(carrier).masks == brute_force_closed(carrier).masks
        checks.append((f"oracle-{name}",
                       "enumeration equals the 2^Sigma brute-force filter",
                       ok, None))
    return checks


def _suite_theorem1(config):
    checks = []
    for n in (2, 3):
        for m in (2, 3):
            prod, psys = sp.separated_product(make_mo(n), make_mo(m))
            cov = lat.covering_property(psys)
            om = lat.orthomodularity(prod, psys)
            checks.append((f"no-covering-mo{n}xmo{m}",
                           "covering property fails with a minimal witness",
                           cov.holds is False and cov.witness is not None,
                           cov.witness))
            checks.append((f"not-orthomodular-mo{n}xmo{m}",
                           "orthomodular law fails with a minimal witness",
                           om.holds is False and om.witness is not None,
                           om.witness))
    prod, psys = sp.separated_product(make_powerset_space(2),
                                      make_powerset_space(2))
    cov = lat.covering_property(psys)
    om = lat.orthomodularity(prod, psys)
    checks.append(("boolean-control",
                   "powerset x powerset has covering and orthomodularity",
                   cov.holds and om.holds, None))
    return checks


def _mo2_report(config):
    mo2 = make_mo(2)
    sys2 = enumerate_closed(mo2)
    prod, psys = sp.separated_product(mo2, mo2)
    W = list(lat.automorphisms(mo2, sys2, mode="ortho"))
    return sp.check_axioms(prod, sys2, sys2, W, W, psys), W, prod


def _suite_theorem2(config):
    checks = []
    report, W, _ = _mo2_report(config)
    j = report.to_json()
    allok = all(j[k]["holds"] is True
                for k in ("P1", "P2", "P3", "P4", "P5", "separating"))
    checks.append(("axioms-hold-on-product",
                   "P1-P5 and separating all hold with W = factor "
                   "ortho-automorphisms", allok, None))
    checks.append(("w-transitive",
                   "the factor automorphism group is transitive",
                   lat.is_transitive(lat.PermutationGroup(4, tuple(W), True)),
                   None))
    summ = sp.perturbation_test(make_mo(2), make_mo(2),
                                trials=config["trials"], seed=config["seed"])
    total_failed = sum(summ.failures_by_axiom.values())
    checks.append(("perturbations-all-fail",
                   f"{config['trials']} perturbed relations each fail an "
                   "axiom, no contradictions",
                   total_failed == summ.trials
                   and summ.theorem_contradictions == 0,
                   summ.to_json()))
    return checks


def _suite_theorem3(config):
    checks = []
    report, W, prod = _mo2_report(config)
    j = report.to_json()
    checks.append(("p4star-holds",
                   "lifted factor ortho-automorphism pairs are "
                   "ortho-isomorphisms", j["P4star"]["holds"] is True, None))
    checks.append(("lifts-commute-with-polar",
                   "every lifted pair commutes with the polarity on atoms",
                   sp._check_lifts_commute(prod, W, W).holds, None))
    return checks


def _suite_lemmas(config):
    checks = []
    mo2 = make_mo(2)
    sys2 = enumerate_closed(mo2)
    prod, psys = sp.separated_product(mo2, mo2)
    W = list(lat.automorphisms(mo2, sys2, mode="ortho"))
    C = con.CRelation.from_adjacency(mo2, [[2], [3], [0], [1]])
    fixtures = {
        "sharp": prod,
        "perp2": con.build_perp2(prod, C, C),
        "perp3": con.build_perp3(prod, C, C),
        "perp5": con.build_perp5(prod, con.mo_pair_swap_bijection(2),
                                 con.mo_pair_swap_bijection(2)),
    }
    agree = True
    for name, px in fixtures.items():
        rep = sp.check_axioms(px, sys2, sys2, W, W)
        if not rep.p2_forms_agree:
            agree = False
    checks.append(("p2-cylinder-vs-coatom",
                   "cylinder-based and coatom-based P2 verdicts agree on "
                   "every fixture, including broken relations", agree, None))

    # if biclosure(p^#) stays inside p^#, the relation is separating
    ok = True
    for name, px in fixtures.items():
        from . import _kernel
        shrinks = all(
            _kernel.biclosure(px.rows, px.sharp_row(p), px.full)
            & ~px.sharp_row(p) == 0
            for p in range(px.size))
        sep = sp._check_separating(px).holds
        if shrinks and not sep:
            ok = False
    checks.append(("coatom-shrink-implies-separating",
                   "coatom biclosure containment forces the separating law",
                   ok, None))

    ok = True
    for p in range(prod.size):
        s1, s2, k = sp.p_hash_components(prod, p)
        if s1.bits not in sys2.index or s2.bits not in sys2.index:
            ok = False
    rep = sp.check_axioms(prod, sys2, sys2, W, W, psys)
    checks.append(("closed-shadows-imply-p3",
                   "closed polar shadows on both factors imply P3",
                   not ok or rep.to_json()["P3"]["holds"] is True, None))

    for n in (2, 3):
        mon = make_mo(n)
        pr, ps = sp.separated_product(mon, mon)
        bad = None
        count = 0
        for p in range(pr.size):
            for q in range(p + 1, pr.size):
                p1, p2 = pr.decode(p)
                q1, q2 = pr.decode(q)
                if p1 == q1 or p2 == q2:
                    continue
                count += 1
                if ps.join_mask((1 << p) | (1 << q)) != (1 << p) | (1 << q):
                    bad = (p, q)
        checks.append((f"distinct-pair-joins-mo{n}",
                       f"all {count} product-distinct atom pairs join to "
                       "the bare pair", bad is None, bad))

    # join-lift of atom maps satisfying the closed-preimage condition
    rng = random.Random(config["seed"])
    pow3 = make_powerset_space(3)
    s3 = enumerate_closed(pow3)
    mo3 = make_mo(3)
    smo3 = enumerate_closed(mo3)
    passing = 0
    attempts = 0
    ok = True
    while passing < 50 and attempts < 5000:
        attempts += 1
        if rng.random() < 0.5:
            f = [rng.randrange(6) for _ in range(3)]
            src, dst = s3, smo3
        else:
            f = [rng.randrange(4) for _ in range(4)]
            src, dst = sys2, sys2
        try:
            sp.daniel_lift(f, src, dst)
        except sp.DanielConditionError:
            continue
        except AssertionError:
            ok = False
            break
        passing += 1
    witness = {"attempts": attempts}
    if not ok:
        witness["failing_map"] = f
    checks.append(("join-lift-50-maps",
                   "50 seeded maps passing the closed-preimage condition "
                   "lift to verified join-preserving maps",
                   ok and passing == 50, witness))
    desc = "the committed failing map reports its witness"
    try:
        sp.daniel_lift([0, 0, 1, 2], sys2, s3)
        checks.append(("join-lift-failing-map", desc, False, None))
    except sp.DanielConditionError as exc:
        checks.append(("join-lift-failing-map", desc,
                       exc.target_ids == [0] and exc.preimage_ids == [0, 1],
                       {"target": exc.target_ids,
                        "preimage": exc.preimage_ids}))
    except AssertionError as exc:
        checks.append(("join-lift-failing-map", desc, False,
                       {"error": str(exc)}))
    return checks


def _suite_constructions(config):
    checks = []
    mo2 = make_mo(2)
    sys2 = enumerate_closed(mo2)
    prod, psys = sp.separated_product(mo2, mo2)
    W = list(lat.automorphisms(mo2, sys2, mode="ortho"))
    C = con.CRelation.from_adjacency(mo2, [[2], [3], [0], [1]])

    l2 = con.build_perp2(prod, C, C)
    ok = all(l2.rows[p] == prod.sharp_row(p)
             | rect(C.rows[l2.decode(p)[0]], C.rows[l2.decode(p)[1]],
                    prod.right.size)
             for p in range(prod.size))
    checks.append(("perp2-formula", "relation rows match the defining "
                   "formula pointwise", ok, None))
    l3 = con.build_perp3(prod, C, C)
    ok = all(l3.rows[p] == prod.sharp_row(p)
             | prod.cylinder1(C.rows[l3.decode(p)[0]])
             | prod.cylinder2(C.rows[l3.decode(p)[1]])
             for p in range(prod.size))
    checks.append(("perp3-formula", "relation rows match the defining "
                   "formula pointwise", ok, None))
    ks = [sp.p_hash_components(l3, p)[2] for p in range(l3.size)]
    checks.append(("perp3-multiple-coatoms",
                   "some atom absorbs more than one # coatom",
                   max(ks) > 1, {"max": max(ks)}))
    e = con.CRelation.empty(mo2)
    checks.append(("empty-c-degenerates",
                   "empty C reproduces the # relation exactly",
                   con.build_perp2(prod, e, e).rows == prod.rows
                   and con.build_perp3(prod, e, e).rows == prod.rows, None))

    f = con.mo_pair_swap_bijection(2)
    l5 = con.build_perp5(prod, f, f)
    l5sys = enumerate_closed(l5)
    rep5 = sp.check_axioms(l5, sys2, sys2, W, W, l5sys).to_json()
    checks.append(("perp5-same-family",
                   "twisted relation yields the identical closed-set dump",
                   dump_system(l5sys) == dump_system(psys), None))
    checks.append(("perp5-breaks-p5",
                   "P2-P4 hold but P5 and P4* fail with witnesses",
                   rep5["P2"]["holds"] and rep5["P3"]["holds"]
                   and rep5["P4"]["holds"] and rep5["P5"]["holds"] is False
                   and rep5["P4star"]["holds"] is False
                   and rep5["P5"]["witness"] is not None,
                   rep5["P5"]["witness"]))

    data = con.PairingData(((0,), (1,), (2,), (3,)),
                           ({0: 10}, {1: 15}, {2: 0}, {3: 5}))
    l4 = con.build_perp4(prod, data)
    rep4 = sp.check_axioms(l4, sys2, sys2, W, W).to_json()
    # the minimal pairing data on mo2 makes the relation non-separating, so
    # mo2 is not a carrier on which it breaks only P4; P2 fails there
    checks.append(("perp4-builds",
                   "minimal pairing data validates and reports axioms",
                   rep4["P2"]["holds"] is False, rep4["P2"]["holds"]))

    counts = {k: len(v) for k, v in con.enumerate_subspaces(3, 4).items()}
    checks.append(("subspace-counts-q3",
                   "subspace counts match the Gaussian binomials",
                   counts == {0: 1, 1: 40, 2: 130, 3: 40, 4: 1}, counts))
    return checks


def _suite_l0(config):
    q, lam = config["q"], config["lam"]
    fam, report = con.tensor_trace_lattice(q, lam)
    j = report.to_json()
    checks = [
        ("l0-contains-product",
         "every separated-product element lies in the trace closure",
         j["contains_sepprod"], None),
        ("l0-strict",
         "some trace falls outside the separated product",
         j["strict"], j["strictness_witness"]),
        ("l0-no-orthocomplementation",
         "exhaustive search finds no orthocomplementation",
         j["orthocomplementation"] == "none", None),
        ("l0-report", "full report", True, j),
    ]
    return checks


SUITES = {
    "closure": _suite_closure,
    "theorem1": _suite_theorem1,
    "theorem2": _suite_theorem2,
    "theorem3": _suite_theorem3,
    "lemmas": _suite_lemmas,
    "constructions": _suite_constructions,
    "l0": _suite_l0,
}


def run_verify_suite(suite: str, config: dict) -> dict:
    """Run one verification suite; returns the JSON-shaped report."""
    if suite not in SUITES:
        raise click.UsageError(f"unknown suite: {suite}")
    t0 = time.monotonic()
    checks = SUITES[suite](config)
    elapsed = time.monotonic() - t0
    report = {
        "suite": suite,
        "seed": config["seed"],
        "config": {k: v for k, v in config.items() if k != "seed"},
        "checks": [{"id": cid, "description": desc, "pass": ok,
                    "witness": wit}
                   for cid, desc, ok, wit in checks],
        "pass": all(ok for _, _, ok, _ in checks),
    }
    click.echo(f"# suite {suite}: {elapsed:.2f}s", err=True)
    return report


@main.command()
@click.option("--suite", "suite_name", required=True,
              type=click.Choice(sorted(SUITES)))
@click.option("--trials", type=int, default=500, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--q", type=int, default=3, show_default=True)
@click.option("--lam", type=int, default=1, show_default=True)
@click.option("-o", "--out", type=click.Path(), default=None)
def verify(suite_name, trials, seed, q, lam, out):
    """Run a verification suite and write its JSON report."""
    config = {"seed": seed, "trials": trials, "q": q, "lam": lam}
    report = run_verify_suite(suite_name, config)
    _emit(report, out)
    for c in report["checks"]:
        status = "pass" if c["pass"] else "FAIL"
        click.echo(f"{status}  {c['id']}", err=True)
    _sys.exit(0 if report["pass"] else 1)


# ---------------------------------------------------------------- search

def run_search(budget: int, seed: int, factor_n: int = 2) -> dict:
    """Sample candidate product relations (P5 not imposed) and look for a
    separating P1-P4 relation whose closed-set family differs from the
    separated product's."""
    if budget < 1:
        raise click.UsageError("budget must be >= 1")
    mo = make_mo(factor_n)
    msys = enumerate_closed(mo)
    W = list(lat.automorphisms(mo, msys, mode="ortho"))
    base, base_sys = sp.separated_product(mo, mo)
    base_dump = dump_system(base_sys)
    rng = random.Random(seed)
    counts = {"invalid": 0, "fails_axiom": 0, "equal_as_p_lattice": 0,
              "distinct_family": 0}
    hits = []
    n = base.size
    for _ in range(budget):
        if rng.random() < 0.3:
            rows = _twisted_sharp_rows(rng, mo, base)
            if rows is None:
                counts["invalid"] += 1
                continue
        else:
            density = rng.uniform(0.2, 0.8)
            rows = [0] * n
            for p in range(n):
                for q in range(p + 1, n):
                    if rng.random() < density:
                        rows[p] |= 1 << q
                        rows[q] |= 1 << p
        prod = sp.ProductSpace(mo, mo, rows, "candidate")
        failing = sp._first_failing_axiom(prod, msys, msys, W, W)
        if failing is not None:
            counts["fails_axiom"] += 1
            continue
        cand_dump = dump_system(enumerate_closed(prod))
        if cand_dump == base_dump:
            counts["equal_as_p_lattice"] += 1
        else:
            counts["distinct_family"] += 1
            hits.append([[p, q] for p in range(n) for q in range(p + 1, n)
                         if rows[p] >> q & 1])
    return {"budget": budget, "seed": seed, "factor": f"mo{factor_n}",
            "counts": counts, "distinct_family_hits": hits,
            "conclusion": ("distinct-family candidate found"
                           if hits else
                           "no distinct-family candidate found within "
                           "budget")}


def _twisted_sharp_rows(rng, mo, base):
    perm = list(range(mo.size))
    rng.shuffle(perm)
    f = con.FactorBijection(tuple(perm))
    try:
        f.validate(mo)
    except ValueError:
        return None
    return list(con.build_perp5(base, f, f).rows)


@main.command()
@click.option("--budget", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--factor-n", type=int, default=2, show_default=True)
@click.option("-o", "--out", type=click.Path(), default=None)
def search(budget, seed, factor_n, out):
    """Bounded search for a P1-P4 relation distinct from the product
    (a hit would be a research finding, not an error)."""
    report = run_search(budget, seed, factor_n)
    _emit(report, out)
    _sys.exit(0)


# -------------------------------------------------------------- fixtures

def regenerate_fixtures(directory: Path) -> list:
    """Write every committed fixture; returns the file list."""
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    mo2 = make_mo(2)
    _, psys = sp.separated_product(mo2, mo2)
    (directory / "mo2_mo2.clos.txt").write_text(dump_system(psys))
    written.append("mo2_mo2.clos.txt")

    _, mixed = sp.separated_product(mo2, make_powerset_space(2))
    (directory / "mo2_pow2.clos.txt").write_text(dump_system(mixed))
    written.append("mo2_pow2.clos.txt")

    prod = sp.sharp(mo2, mo2)
    f = con.mo_pair_swap_bijection(2)
    l5sys = enumerate_closed(con.build_perp5(prod, f, f))
    (directory / "l5_mo2.clos.txt").write_text(dump_system(l5sys))
    written.append("l5_mo2.clos.txt")

    _, report = con.tensor_trace_lattice(3, 1)
    (directory / "l0_q3.json").write_text(
        json.dumps(report.to_json(), indent=2) + "\n")
    written.append("l0_q3.json")

    (directory / "daniel_failing_map.json").write_text(json.dumps({
        "source": "mo2", "target": "powerset3", "map": [0, 0, 1, 2],
        "expected_witness": {"target_set": [0], "preimage": [0, 1]},
    }, indent=2) + "\n")
    written.append("daniel_failing_map.json")
    return written


@main.command()
@click.option("--regen", is_flag=True, required=True)
@click.option("--dir", "directory", type=click.Path(),
              default=str(FIXTURE_DIR), show_default=True)
def fixtures(regen, directory):
    """Regenerate the committed fixture files."""
    written = regenerate_fixtures(Path(directory))
    for name in written:
        click.echo(name)


if __name__ == "__main__":
    main()
