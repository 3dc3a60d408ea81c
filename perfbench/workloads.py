"""The three benchmark workloads: inputs from a seed, questions, answer checks.

A workload's set-up builds every input from the seed; platlab receives only
those inputs.  A pass asks the workload's fixed list of questions in order,
one at a time.  Each question is a call into platlab's public API followed,
outside the timed call, by a reduction of the result to a canonical answer.
Answers are checked against ``reference.json``: label-independent properties
at any seed, and the full answer, byte for byte through its digest, at
seed 0.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import platlab
from platlab import cli, closure, constructions as con, lattice as lat
from platlab import sepprod as sp
from platlab.orthospace import OrthoSpace, make_mo

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def canonical(answer) -> str:
    return json.dumps(answer, sort_keys=True, separators=(",", ":"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Question:
    """One call into platlab.

    ``call(ctx)`` makes the timed call and may store results in the pass
    context for later questions; ``answer(result)`` reduces the result to a
    JSON value; ``size(ctx, result)`` gives |L| of the lattice asked about;
    ``relations`` is the number of product relations the call decides.
    """
    name: str
    kind: str
    call: object
    answer: object
    size: object = None
    relations: int = 0


@dataclass
class Workload:
    name: str
    seed: int
    questions: list
    reference: dict

    def check(self, answers: dict) -> list:
        """Problems found in one pass's answers, as messages.  Answers
        holding "refused" or "error" are skipped: they are counted as
        unanswered, and an error is reported by the pass."""
        raise NotImplementedError


def _unanswered(answer) -> bool:
    return "refused" in answer or "error" in answer


def _ids(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _hex(masks):
    return [format(m, "x") for m in masks]


# ----------------------------------------------------------------- ladder

LADDER = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]


def relabel(space: OrthoSpace, perm) -> OrthoSpace:
    """The same space with atom i renamed perm[i]."""
    rows = [0] * space.size
    labels = [None] * space.size
    for i, row in enumerate(space.rows):
        rows[perm[i]] = sum(1 << perm[j] for j in _ids(row))
        labels[perm[i]] = space.labels[i]
    return OrthoSpace(labels, rows)


def _mo_factor(n, seed, rng):
    mo = make_mo(n)
    if seed == 0:
        return mo
    perm = list(range(mo.size))
    rng.shuffle(perm)
    return relabel(mo, perm)


def _oc_answer(table):
    if table is None:
        return {"exists": False}
    pairs = sorted(table.items())
    return {"exists": True, "sha256": sha256(canonical(_hex(
        [x for pair in pairs for x in pair])))}


def _ladder_questions(key, left, right):
    def product(ctx):
        ctx[key] = sp.separated_product(left, right)
        return ctx[key]

    def system(ctx):
        return ctx[key][1]

    def dump(result):
        text = closure.dump_system(result[1])
        return {"size": len(result[1]), "dump_sha256": sha256(text)}

    def verdict(v):
        return {"holds": v.holds, "witness": v.witness}

    def size_of(ctx, result):
        return len(ctx[key][1])

    return [
        Question(f"{key}.separated_product", "separated_product", product,
                 dump, size_of, relations=1),
        Question(f"{key}.covering_property", "covering_property",
                 lambda ctx: lat.covering_property(system(ctx)), verdict,
                 size_of),
        Question(f"{key}.orthomodularity", "orthomodularity",
                 lambda ctx: lat.orthomodularity(ctx[key][0], system(ctx)),
                 verdict, size_of),
        Question(f"{key}.center", "center",
                 lambda ctx: lat.center(system(ctx), ctx[key][0]),
                 lambda c: {"center": _hex(c)}, size_of),
        Question(f"{key}.coatoms", "coatoms",
                 lambda ctx: system(ctx).coatoms(),
                 lambda c: {"coatoms": _hex(c)}, size_of),
        Question(f"{key}.find_orthocomplementation",
                 "find_orthocomplementation",
                 lambda ctx: lat.find_orthocomplementation(system(ctx)),
                 _oc_answer, size_of),
    ]


def ladder_invariants(question: Question, answer) -> dict:
    """Properties of an answer that do not depend on atom labels."""
    kind = question.kind
    if kind == "separated_product":
        return {"size": answer["size"]}
    if kind in ("covering_property", "orthomodularity"):
        return {"holds": answer["holds"]}
    if kind == "center":
        return {"center_size": len(answer["center"])}
    if kind == "coatoms":
        return {"coatom_count": len(answer["coatoms"])}
    if kind == "find_orthocomplementation":
        return {"exists": answer["exists"]}
    if kind == "automorphisms":
        return {"order": answer["order"]}
    raise KeyError(kind)


class Ladder(Workload):
    def check(self, answers):
        problems = []
        ref = self.reference["ladder"]
        for q in self.questions:
            answer = answers[q.name]
            if _unanswered(answer):
                continue
            got = ladder_invariants(q, answer)
            if got != ref["invariants"][q.name]:
                problems.append(f"{q.name}: {got} != "
                                f"{ref['invariants'][q.name]}")
            want = ref["seed0"].get(q.name)  # absent: refused when recorded
            if self.seed == 0 and want is not None and \
                    sha256(canonical(answer)) != want:
                problems.append(f"{q.name}: seed-0 answer differs")
        mo2 = answers.get("mo2xmo2.separated_product", {})
        if self.seed == 0 and "dump_sha256" in mo2:
            fixture = (HERE.parent / "fixtures" / "mo2_mo2.clos.txt").read_text()
            if mo2["dump_sha256"] != sha256(fixture):
                problems.append("mo2xmo2 dump differs from the fixture")
        return problems


def ladder(seed: int, reference: dict) -> Ladder:
    rng = random.Random(seed)
    questions = []
    for n, m in LADDER:
        key = f"mo{n}xmo{m}"
        left, right = _mo_factor(n, seed, rng), _mo_factor(m, seed, rng)
        questions += _ladder_questions(key, left, right)
        if (n, m) == (2, 2):
            questions.append(Question(
                f"{key}.automorphisms", "automorphisms",
                lambda ctx, key=key: lat.automorphisms(
                    ctx[key][0], ctx[key][1], mode="ortho"),
                lambda g: {"order": len(g), "sha256": sha256(canonical(
                    [list(p) for p in g.elements]))},
                lambda ctx, r, key=key: len(ctx[key][1])))
    return Ladder("ladder", seed, questions, reference)


# ------------------------------------------------------------------ sweep

# relations per pass, by kind; about 1,500 in all
PERTURB_MO2_MO2 = 700
PERTURB_MO2_MO3 = 300
RANDOM_MO2_MO2 = 500
PERTURBATION_CHUNKS = 4
PERTURBATION_TRIALS = 25
SUITES = ("theorem2", "lemmas", "constructions")
SUITE_TRIALS = 50
BRUTE_FORCE_RELATIONS = 3


def _perturbed_rows(rng, base):
    rows = list(base.rows)
    for p, q in sp.default_edge_sampler(rng, base):
        rows[p] |= 1 << q
        rows[q] |= 1 << p
    return rows


def _random_rows(rng, n):
    # as the relation search samples them: one density per relation
    density = rng.uniform(0.2, 0.8)
    rows = [0] * n
    for p in range(n):
        for q in range(p + 1, n):
            if rng.random() < density:
                rows[p] |= 1 << q
                rows[q] |= 1 << p
    return rows


def _relation_question(name, kind, left, right, rows, f1, f2):
    L1, W1 = f1
    L2, W2 = f2

    def decide(ctx):
        prod = sp.ProductSpace(left, right, rows, kind)
        psys = platlab.enumerate_closed(prod)
        return psys, sp.check_axioms(prod, L1, L2, W1, W2, psys)

    # p2_forms_agree: P2 from cylinders equals P2 from coatoms
    return Question(name, kind, decide,
                    lambda r: {"size": len(r[0]), "report": r[1].to_json(),
                               "p2_forms_agree": r[1].p2_forms_agree},
                    size=lambda ctx, r: len(r[0]), relations=1)


class Sweep(Workload):
    oracle = ()   # (question name, ProductSpace) pairs for brute force

    def check(self, answers):
        problems = []
        for q in self.questions:
            answer = answers[q.name]
            if _unanswered(answer):
                continue
            if q.relations == 1 and answer["p2_forms_agree"] is not True:
                problems.append(f"{q.name}: P2 by cylinders and by coatoms "
                                "disagree")
            if q.kind.startswith("perturbed"):
                rep = answer["report"]
                # theorem 2: # ∪ E keeps P5 but must fail one of these
                if rep["P5"]["holds"] is not True or all(
                        rep[k]["holds"] is True
                        for k in ("separating", "P2", "P3", "P4")):
                    problems.append(f"{q.name}: contradicts theorem 2")
            elif q.kind == "perturbation_test":
                if answer["theorem_contradictions"] != 0 or \
                        sum(answer["failures_by_axiom"].values()) != \
                        answer["trials"]:
                    problems.append(f"{q.name}: contradicts theorem 2")
            elif q.kind == "verify_suite":
                if answer["pass"] is not True:
                    problems.append(f"{q.name}: suite does not pass")
        # the slow oracle, run here and not in the timed passes or set-up
        for name, prod in self.oracle:
            brute = platlab.brute_force_closed(prod)
            if platlab.enumerate_closed(prod).masks != brute.masks:
                problems.append(f"{name}: enumeration differs from "
                                "brute force")
            answer = answers.get(name, {"error": "not asked"})
            if not _unanswered(answer) and answer["size"] != len(brute):
                problems.append(f"{name}: |L| {answer['size']} != "
                                f"{len(brute)} by brute force")
        if self.seed == 0:
            ref = self.reference["sweep"]["seed0"]
            for kind, digest in _kind_digests(self.questions, answers).items():
                if ref.get(kind) != digest:
                    problems.append(f"sweep {kind}: seed-0 answers differ")
        return problems


def _kind_digests(questions, answers):
    lines = {}
    for q in questions:
        lines.setdefault(q.kind, []).append(
            f"{q.name}\t{canonical(answers[q.name])}\n")
    return {k: sha256("".join(v)) for k, v in lines.items()}


def sweep(seed: int, reference: dict) -> Sweep:
    rng = random.Random(seed)
    mo2, mo3 = make_mo(2), make_mo(3)
    factors = {}
    for space in (mo2, mo3):
        fsys = platlab.enumerate_closed(space)
        factors[space.size] = (fsys, list(lat.automorphisms(space, fsys,
                                                            mode="ortho")))
    f2, f3 = factors[4], factors[6]
    base22, base23 = sp.sharp(mo2, mo2), sp.sharp(mo2, mo3)
    questions = []
    for i in range(PERTURB_MO2_MO2):
        questions.append(_relation_question(
            f"perturbed_mo2xmo2.{i}", "perturbed_mo2xmo2", mo2, mo2,
            _perturbed_rows(rng, base22), f2, f2))
    for i in range(PERTURB_MO2_MO3):
        questions.append(_relation_question(
            f"perturbed_mo2xmo3.{i}", "perturbed_mo2xmo3", mo2, mo3,
            _perturbed_rows(rng, base23), f2, f3))
    randoms = [_random_rows(rng, base22.size) for _ in range(RANDOM_MO2_MO2)]
    for i, rows in enumerate(randoms):
        questions.append(_relation_question(
            f"random_mo2xmo2.{i}", "random_mo2xmo2", mo2, mo2, rows, f2, f2))
    for i in range(PERTURBATION_CHUNKS):
        chunk_seed = rng.randrange(1 << 31)
        questions.append(Question(
            f"perturbation_test.{i}", "perturbation_test",
            lambda ctx, s=chunk_seed: sp.perturbation_test(
                mo2, mo2, trials=PERTURBATION_TRIALS, seed=s),
            lambda summary: summary.to_json(),
            relations=PERTURBATION_TRIALS))
    config = {"seed": seed, "trials": SUITE_TRIALS, "q": 3, "lam": 1}
    for suite in SUITES:
        questions.append(Question(
            f"verify.{suite}", "verify_suite",
            lambda ctx, suite=suite: cli.run_verify_suite(suite, dict(config)),
            lambda report: report))
    w = Sweep("sweep", seed, questions, reference)
    w.oracle = [(f"random_mo2xmo2.{i}",
                 sp.ProductSpace(mo2, mo2, rows, "random"))
                for i, rows in enumerate(randoms[:BRUTE_FORCE_RELATIONS])]
    return w


# ----------------------------------------------------------------- traces

# anisotropic λ for x² + λy² over GF(q): λ non-square for q ≡ 1 (mod 4),
# λ square for q ≡ 3 (mod 4)
TRACE_LAMBDAS = {3: (1,), 5: (2, 3), 7: (1, 2, 4)}


class Traces(Workload):
    def check(self, answers):
        problems = []
        ref = self.reference["traces"]
        for q in self.questions:
            answer = answers[q.name]
            if _unanswered(answer):
                continue
            if canonical(answer) != canonical(ref[q.name]):
                problems.append(f"{q.name}: report differs from reference")
        q3 = answers.get("q3.lam1", {})
        if "report" in q3:
            fixture = (HERE.parent / "fixtures" / "l0_q3.json").read_text()
            if json.dumps(q3["report"], indent=2) + "\n" != fixture:
                problems.append("q3 report differs from the fixture")
        return problems


def traces(seed: int, reference: dict) -> Traces:
    rng = random.Random(seed)
    questions = []
    for q, lams in TRACE_LAMBDAS.items():
        lam = rng.choice(lams)
        questions.append(Question(
            f"q{q}.lam{lam}", "tensor_trace_lattice",
            lambda ctx, q=q, lam=lam: con.tensor_trace_lattice(q, lam),
            lambda r: {"size": len(r[0]), "report": r[1].to_json()},
            size=lambda ctx, r: len(r[0]), relations=1))
    return Traces("traces", seed, questions, reference)


WORKLOADS = {"ladder": ladder, "sweep": sweep, "traces": traces}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def build(name: str, seed: int, reference: dict | None = None) -> Workload:
    return WORKLOADS[name](seed, load_reference()
                           if reference is None else reference)
