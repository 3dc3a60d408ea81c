"""Command-line surface: space builders, product checks, verification
suites, fixture regeneration, and the relation search.

Exit codes: 0 all checks pass, 1 a verified violation of an expected
property, 2 bad input or a hit limit.  Exit 2 is decided in one place,
the ``main`` group: a ValueError from a command (the package's limit,
format and carrier errors, a bad argument, undecodable JSON or text) or
an OSError (a file that cannot be read or written) ends the run with one
"Error:" line.  Any other exception, such as TypeError, KeyError or
AssertionError, is a bug and keeps its traceback.  ``check`` and
``search`` are report commands and exit 0 whatever they find: failing
axioms are the expected answer for the counterexample relations.
Reports are byte-deterministic for a given seed; wall times go to stderr
only.
"""

from __future__ import annotations

import json
import math
import random
import sys as _sys
import time
from collections import Counter
from pathlib import Path

import click

from . import _kernel
from . import constructions as con
from . import lattice as lat
from . import sepprod as sp
from .bits import rect
from .closure import (atom_limit, brute_force_closed, dump_system,
                      enumerate_closed, AtomSubset, biclosure, polar)
from .orthospace import (_pairs, _rows_from_pairs, _space_from_doc,
                         dump_space, load_space, make_mo, make_powerset_space,
                         make_quadratic_line_space, validate_relation)

FIXTURE_DIR = Path("fixtures")


def _write(text, out):
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


def _emit(doc, out):
    _write(json.dumps(doc, indent=2) + "\n", out)


class _Plat(click.Group):
    """The exit-2 boundary of the module docstring: a command's ValueError
    or OSError becomes one "Error:" line; anything else propagates."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # a closed reader, not bad input: click exits 1 quietly
        except (ValueError, OSError) as exc:
            raise click.UsageError(str(exc)) from exc


@click.group(cls=_Plat)
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
    _write(dump_space(make_mo(n)) + "\n", out)


@space.command()
@click.option("--n", type=int, required=True)
@click.option("-o", "--out", type=click.Path(), default=None)
def powerset(n, out):
    """n atoms, all distinct pairs orthogonal (Boolean closure system)."""
    _write(dump_space(make_powerset_space(n)) + "\n", out)


@space.command()
@click.option("--q", type=int, required=True)
@click.option("--lam", type=int, default=1, show_default=True)
@click.option("-o", "--out", type=click.Path(), default=None)
def quad(q, lam, out):
    """Anisotropic quadratic line geometry over GF(q)."""
    _write(dump_space(make_quadratic_line_space(q, lam)) + "\n", out)


# --------------------------------------------------------------- product

@main.command()
@click.option("--left", type=click.Path(exists=True), required=True)
@click.option("--right", type=click.Path(exists=True), required=True)
@click.option("--enumerate", "do_enum", is_flag=True)
@click.option("-o", "--out", type=click.Path(), default=None)
def product(left, right, do_enum, out):
    """Separated product of two space files; --enumerate dumps the
    closure system in the .clos.txt format."""
    prod = sp.sharp(load_space(Path(left).read_text()),
                    load_space(Path(right).read_text()))
    if do_enum:
        text = dump_system(enumerate_closed(prod))
    else:
        text = json.dumps({"atoms": prod.size,
                           "pairs": _pairs(prod.rows)}) + "\n"
    _write(text, out)


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
        left = _space_from_doc(doc["left"])
        right = _space_from_doc(doc["right"])
        n = left.size * right.size
        for p, q in doc["pairs"]:
            if not all(type(x) is int and 0 <= x < n for x in (p, q)):
                raise ValueError(f"pair is not two atom indices of the "
                                 f"{n}-atom product: {[p, q]}")
        prod = sp.ProductSpace(left, right,
                               _rows_from_pairs([0] * n, doc["pairs"]),
                               "candidate")
    except (KeyError, TypeError, ValueError) as exc:
        raise click.UsageError(f"bad relation document: {exc}")
    L1sys = enumerate_closed(left)
    L2sys = enumerate_closed(right)
    W1 = _load_w(w1, "W1", left, L1sys)
    W2 = _load_w(w2, "W2", right, L2sys)
    report = sp.check_axioms(prod, L1sys, L2sys, W1, W2)
    _emit(report.to_json(), out)


def _load_w(spec_str, name, space_obj, sysobj):
    if spec_str == "aut":
        return list(lat.automorphisms(space_obj, sysobj, mode="ortho"))
    try:
        W = sp._as_tuples(json.loads(Path(spec_str).read_text()),
                          space_obj.size, name)
        sp._w_inverse_closed(W, space_obj.size, name)
    except (OSError, TypeError, ValueError) as exc:
        raise click.UsageError(f"bad --{name.lower()} file: {exc}")
    return W


# ---------------------------------------------------------------- verify

def _suite_closure(config):
    checks = []
    mo3 = make_mo(3)
    prod = sp.sharp(mo3, mo3)
    rng = random.Random(config["seed"])
    bad = None
    for _ in range(1000):
        a = AtomSubset(prod, rng.randrange(1 << prod.size))
        b = AtomSubset(prod, rng.randrange(1 << prod.size))
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
        ok = enumerate_closed(carrier).sets == brute_force_closed(carrier).sets
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


def _mo2_setup():
    """MO2, its system, MO2×MO2 under # and its system, W = the ortho
    automorphisms of MO2, C = {a1-a2, a1'-a2'}, the # product's report."""
    mo2 = make_mo(2)
    sys2 = enumerate_closed(mo2)
    prod, psys = sp.separated_product(mo2, mo2)
    W = list(lat.automorphisms(mo2, sys2, mode="ortho"))
    C = con.CRelation.from_adjacency(mo2, [[2], [3], [0], [1]])
    return (mo2, sys2, prod, psys, W, C,
            sp.check_axioms(prod, sys2, sys2, W, W, psys))


def _suite_theorem2(config):
    checks = []
    mo2, _, _, _, W, _, report = _mo2_setup()
    j = report.to_json()
    allok = all(j[k]["holds"] is True
                for k in ("P1", "P2", "P3", "P4", "P5", "separating"))
    checks.append(("axioms-hold-on-product",
                   "P1-P5 and separating all hold with W = factor "
                   "ortho-automorphisms", allok, None))
    checks.append(("w-transitive",
                   "the factor automorphism group is transitive",
                   lat.is_transitive(lat.PermutationGroup(4, tuple(W))),
                   None))
    summ = sp.perturbation_test(mo2, mo2, trials=config["trials"],
                                seed=config["seed"])
    total_failed = sum(summ.failures_by_axiom.values())
    checks.append(("perturbations-all-fail",
                   f"{config['trials']} perturbed relations each fail an "
                   "axiom, no contradictions",
                   total_failed == summ.trials
                   and summ.theorem_contradictions == 0,
                   summ.to_json()))
    return checks


def _suite_theorem3(config):
    # one walk of the lifts decides P4 and P4*; P4 holds on #, so P4* holds
    # iff every lift commutes with the polarity
    report = _mo2_setup()[-1]
    return [("p4star-holds", "lifted factor ortho-automorphism pairs are "
             "ortho-isomorphisms", report.p4star.holds is True, None),
            ("lifts-commute-with-polar", "every lifted pair commutes with "
             "the polarity on atoms", report.p4star.holds, None)]


def _suite_lemmas(config):
    checks = []
    _, sys2, prod, _, W, C, report = _mo2_setup()
    fixtures = [prod, con.build_perp2(prod, C, C), con.build_perp3(prod, C, C),
                con.build_perp5(prod, con.mo_pair_swap_bijection(2),
                                con.mo_pair_swap_bijection(2))]
    reports = [report] + [sp.check_axioms(px, sys2, sys2, W, W)
                          for px in fixtures[1:]]
    agree = all(rep.p2_forms_agree for rep in reports)
    checks.append(("p2-cylinder-vs-coatom",
                   "cylinder-based and coatom-based P2 verdicts agree on "
                   "every fixture, including broken relations", agree, None))

    # if biclosure(p^#) stays inside p^#, the relation is separating; the
    # biclosure is extensive, so it stays inside iff p^# is its fixpoint
    ok = True
    for px in fixtures:
        shrinks = sp._check_p2_coatoms(
            px, lambda m: _kernel.biclosure(px.rows, m, px.full) == m)
        if shrinks and not validate_relation(px).holds:
            ok = False
    checks.append(("coatom-shrink-implies-separating",
                   "coatom biclosure containment forces the separating law",
                   ok, None))

    ok = True
    for px, rep in zip(fixtures, reports):
        closed = all(s1.bits in sys2.sets and s2.bits in sys2.sets
                     for s1, s2, _ in (sp.p_hash_components(px, p)
                                       for p in range(px.size)))
        if closed and rep.p3.holds is not True:
            ok = False
    checks.append(("closed-shadows-imply-p3",
                   "closed polar shadows on both factors imply P3",
                   ok, None))

    # a relation system's join is one biclosure, so L# is not enumerated
    for n in (2, 3):
        mon = make_mo(n)
        pr = sp.sharp(mon, mon)
        bad = None
        count = 0
        for p in range(pr.size):
            for q in range(p + 1, pr.size):
                p1, p2 = pr.decode(p)
                q1, q2 = pr.decode(q)
                if p1 == q1 or p2 == q2:
                    continue
                count += 1
                pair = (1 << p) | (1 << q)
                if bad is None and _kernel.biclosure(pr.rows, pair,
                                                     pr.full) != pair:
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
    mo2, sys2, prod, psys, W, C, _ = _mo2_setup()

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
                   l5sys.sets == psys.sets, None))
    checks.append(("perp5-breaks-p5",
                   "P2-P4 hold but P5 and P4* fail with witnesses",
                   rep5["P2"]["holds"] and rep5["P3"]["holds"]
                   and rep5["P4"]["holds"] and rep5["P5"]["holds"] is False
                   and rep5["P4star"]["holds"] is False
                   and rep5["P5"]["witness"] is not None,
                   rep5["P5"]["witness"]))

    data = con.PairingData(({0: 10}, {1: 15}, {2: 0}, {3: 5}))
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
    census = Counter(m.bit_count() for m in fam.sets)
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
        ("l0-report", "full report",
         report.intersection_closed and census == con.trace_census(q), j),
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
        raise ValueError(f"unknown suite: {suite}")
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


# the verify options' defaults, in a report's "config" key order
VERIFY_DEFAULTS = {"seed": 0, "trials": 500, "q": 3, "lam": 1}


@main.command()
@click.option("--suite", "suite_name", required=True,
              type=click.Choice(sorted(SUITES)))
@click.option("--trials", default=VERIFY_DEFAULTS["trials"], show_default=True)
@click.option("--seed", default=VERIFY_DEFAULTS["seed"], show_default=True)
@click.option("--q", default=VERIFY_DEFAULTS["q"], show_default=True)
@click.option("--lam", default=VERIFY_DEFAULTS["lam"], show_default=True)
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
    separated product's.

    Every draw is a relation of a random density.  No twisted relation ⊥5
    is drawn, because its answer is known before any axiom is checked:
    ``build_perp5`` gives atom p the row ((f₁×f₂)(p))^#, so its rows are
    the # rows in another order.  The closed sets (Σ and the meets of the
    rows) and every biclosure u^⊥⊥ = ∩{r ∈ rows : u ⊆ r} depend only on
    that set of rows, and so does each verdict of _first_failing_axiom.  A
    valid twist thus answers "equal_as_p_lattice", like L# itself, and an
    invalid one is no relation at all.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    # MO_n has 2n atoms, at most AUTOMORPHISM_SEARCH_LIMIT for the ortho
    # automorphism search below, and MO_n × MO_n (2n)², at most atom_limit()
    most = min(math.isqrt(atom_limit()), lat.AUTOMORPHISM_SEARCH_LIMIT) // 2
    if not 1 <= factor_n <= most:
        raise ValueError(f"--factor-n must be between 1 and {most}, "
                         f"got {factor_n}")
    mo = make_mo(factor_n)
    msys = enumerate_closed(mo)
    W = list(lat.automorphisms(mo, msys, mode="ortho"))
    base = sp.sharp(mo, mo)
    rng = random.Random(seed)
    counts = {"fails_axiom": 0, "equal_as_p_lattice": 0, "distinct_family": 0}
    hits = []
    n = base.size
    for _ in range(budget):
        density = rng.uniform(0.2, 0.8)
        rows = _rows_from_pairs([0] * n, [
            (p, q) for p in range(n) for q in range(p + 1, n)
            if rng.random() < density])
        prod = sp.ProductSpace(mo, mo, rows, "candidate")
        failing = sp._first_failing_axiom(prod, msys, msys, W, W)
        if failing is not None:
            counts["fails_axiom"] += 1
            continue
        # P2 puts the # rows, so L#, inside L; L is the meets of its rows
        # and Σ, so L = L# iff every row is #-closed, one biclosure each
        if all(_kernel.biclosure(base.rows, row, base.full) == row
               for row in rows):
            counts["equal_as_p_lattice"] += 1
        else:
            counts["distinct_family"] += 1
            hits.append([list(e) for e in _pairs(rows)])
    return {"budget": budget, "seed": seed, "factor": f"mo{factor_n}",
            "counts": counts, "distinct_family_hits": hits,
            "conclusion": ("distinct-family candidate found"
                           if hits else
                           "no distinct-family candidate found within "
                           "budget")}


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
    prod, psys = sp.separated_product(mo2, mo2)
    (directory / "mo2_mo2.clos.txt").write_text(dump_system(psys))
    written.append("mo2_mo2.clos.txt")

    _, mixed = sp.separated_product(mo2, make_powerset_space(2))
    (directory / "mo2_pow2.clos.txt").write_text(dump_system(mixed))
    written.append("mo2_pow2.clos.txt")

    f = con.mo_pair_swap_bijection(2)
    l5sys = enumerate_closed(con.build_perp5(prod, f, f))
    (directory / "l5_mo2.clos.txt").write_text(dump_system(l5sys))
    written.append("l5_mo2.clos.txt")

    _, report = con.tensor_trace_lattice(3, 1)
    _emit(report.to_json(), directory / "l0_q3.json")
    written.append("l0_q3.json")

    _emit({"source": "mo2", "target": "powerset3", "map": [0, 0, 1, 2],
           "expected_witness": {"target_set": [0], "preimage": [0, 1]}},
          directory / "daniel_failing_map.json")
    written.append("daniel_failing_map.json")

    # golden `plat verify -o` reports: the verify defaults, plus the l0
    # suite at q = 5, λ = 2
    (directory / "verify").mkdir(exist_ok=True)
    runs = [(suite, suite, VERIFY_DEFAULTS) for suite in SUITES]
    runs.append(("l0_q5_lam2", "l0", {**VERIFY_DEFAULTS, "q": 5, "lam": 2}))
    for stem, suite, config in runs:
        name = f"verify/{stem}.json"
        _emit(run_verify_suite(suite, config), directory / name)
        written.append(name)
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
