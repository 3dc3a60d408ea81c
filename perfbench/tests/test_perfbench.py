"""Tests of the benchmark itself: tracer counts, tracing leaves answers
unchanged, and a wrong reference or a missing platlab fails the command.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from platlab import cli, closure, constructions as con  # noqa: E402
from platlab import lattice as lat, sepprod as sp  # noqa: E402
from platlab._kernel import pykernel  # noqa: E402
from platlab.closure import EnumerationLimitError  # noqa: E402
from platlab.orthospace import make_mo  # noqa: E402


@pytest.fixture
def tracer():
    t = tracing.Tracer(EnumerationLimitError).install()
    yield t
    t.uninstall()


def test_separated_product_counts(tracer):
    _, psys = sp.separated_product(make_mo(2), make_mo(2))
    assert len(psys) == 114
    assert tracer.calls["sepprod.separated_product"] == 1
    assert tracer.calls["sepprod.ProductSpace"] == 1
    assert tracer.calls["closure.enumerate_closed"] == 1
    assert tracer.calls["kernel.intersection_closure"] == 1
    assert tracer.counters["kernel.sets_out"] == 114
    assert tracer.counters["closure.sets"] == 114


def test_by_name_and_method_bindings_are_traced(tracer):
    mo2 = make_mo(2)
    prod = sp.sharp(mo2, mo2)
    fsys = closure.enumerate_closed(mo2)
    W = list(lat.automorphisms(mo2, fsys, mode="ortho"))
    assert len(W) == 8
    tracer.reset()
    sp.check_axioms(prod, fsys, fsys, W, W)   # sepprod's enumerate_closed
    assert tracer.calls["closure.enumerate_closed"] == 1
    assert tracer.calls["kernel.biclosure"] == 16   # one per atom
    tracer.reset()
    _, psys = sp.separated_product(mo2, mo2)
    lat.covering_property(psys)   # join_mask reached as a method
    assert tracer.calls["closure.join_mask"] > 0
    assert tracer.calls["kernel.biclosure"] == tracer.calls["closure.join_mask"]


def test_direct_kernel_binding_and_subspace_count(tracer):
    con.tensor_trace_lattice(3, 1)
    # one call through the dispatch (the # product), one direct
    assert tracer.calls["kernel.intersection_closure"] == 2
    # Gaussian binomials of GF(3)^4: 1 + 40 + 130 + 40 + 1
    assert tracer.counters["constructions.enumerate_subspaces.out"] == 212
    assert tracer.calls["lattice.find_orthocomplementation"] == 1
    assert tracer.calls["sepprod.separated_product"] == 1


def test_refusal_is_counted(tracer):
    with pytest.raises(EnumerationLimitError):
        con.tensor_trace_lattice(7, 1)
    assert tracer.counters["lattice.refused"] == 1


def test_uninstall_restores_every_binding():
    before = (sp.enumerate_closed, cli.enumerate_closed, sp.automorphisms,
              con.separated_product, con.find_orthocomplementation,
              con.pykernel, closure.ClosureSystem.join_mask,
              cli.run_verify_suite)
    t = tracing.Tracer(EnumerationLimitError).install()
    assert sp.enumerate_closed is cli.enumerate_closed
    assert sp.enumerate_closed is not before[0]
    assert con.pykernel is not pykernel
    t.uninstall()
    after = (sp.enumerate_closed, cli.enumerate_closed, sp.automorphisms,
             con.separated_product, con.find_orthocomplementation,
             con.pykernel, closure.ClosureSystem.join_mask,
             cli.run_verify_suite)
    assert all(a is b for a, b in zip(before, after))


def test_sampler_arithmetic():
    s = speed.Sampler()
    s.starts = [0.0, 0.01, 0.02, 0.5]
    s.costs = [0.001, 0.002, 0.003, 0.010]
    assert s.own(0.0, 0.1) == pytest.approx(0.1 - 0.006)
    assert s.scale(0.0, 0.1) == pytest.approx(speed.REFERENCE_S / 0.002)
    assert s.scaled(0.0, 0.1) == pytest.approx(
        0.094 * speed.REFERENCE_S / 0.002)
    assert s.scale(0.3, 0.31) == pytest.approx(speed.REFERENCE_S / 0.003)


def test_sampler_samples_while_started():
    s = speed.Sampler().start()
    try:
        t0 = speed.clock()
        while speed.clock() < t0 + 0.2:
            pass
        t1 = speed.clock()
    finally:
        s.stop()
    assert len(s.costs) >= 5
    assert 0 < s.own(t0, t1) < t1 - t0
    assert s.scaled(t0, t1) > 0


def _small(name, seed=0):
    """The workload without its largest lattices and with at most 60
    questions of each kind."""
    w = workloads.build(name, seed)
    per_kind = {}
    small = []
    for q in w.questions:
        per_kind[q.kind] = per_kind.get(q.kind, 0) + 1
        if per_kind[q.kind] <= 60 and not q.name.startswith(
                ("mo3xmo4", "mo4", "q7")):
            small.append(q)
    w.questions = small
    return w


@pytest.mark.parametrize("name", ["ladder", "sweep", "traces"])
def test_answers_identical_with_tracing_on_and_off(name):
    w = _small(name, seed=1)
    plain = run.Pass(w, None, EnumerationLimitError)
    t = tracing.Tracer(EnumerationLimitError).install()
    try:
        traced = run.Pass(w, t, EnumerationLimitError)
        counts = dict(t.calls)
        t.reset()
        again = run.Pass(w, t, EnumerationLimitError)
    finally:
        t.uninstall()
    assert traced.digest == plain.digest
    assert again.digest == plain.digest
    assert dict(t.calls) == counts   # counts repeat exactly
    assert w.check(plain.answers) == []


def test_wrong_reference_is_detected():
    w = _small("ladder")
    answers = run.Pass(w, None, EnumerationLimitError).answers
    assert w.check(answers) == []
    w.reference = json.loads(json.dumps(w.reference))
    w.reference["ladder"]["invariants"]["mo2xmo2.center"] = {"center_size": 4}
    assert w.check(answers) == ["mo2xmo2.center: {'center_size': 2} != "
                                "{'center_size': 4}"]


def test_sweep_checks_p2_forms_and_brute_force_sizes():
    w = _small("sweep", seed=1)
    answers = run.Pass(w, None, EnumerationLimitError).answers
    assert w.check(answers) == []
    oracle = w.oracle[0][0]
    other = next(q.name for q in w.questions
                 if q.kind == "perturbed_mo2xmo3")
    answers[oracle] = dict(answers[oracle], size=answers[oracle]["size"] + 1)
    answers[other] = dict(answers[other], p2_forms_agree=False)
    problems = w.check(answers)
    assert len(problems) == 2
    assert problems[0].startswith(other + ": P2")
    assert problems[1].startswith(oracle + ": |L|")


def _raise(ctx):
    raise ValueError("boom")


def test_a_raising_question_fails_the_command(monkeypatch, tmp_path, capsys):
    w = _small("traces")
    w.questions[0].call = _raise
    monkeypatch.setattr(workloads, "build", lambda name, seed: w)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    code = run.main(["--workload", "traces", "--seed", "0",
                     "--seconds", "0.1", "--trace", "0"])
    lines = capsys.readouterr().out.splitlines()
    result, details = json.loads(lines[-1]), json.loads(lines[-2])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] // len(w.questions)
    assert details["unanswered"][0] == w.questions[0].name
    assert any("ValueError: boom" in p for p in details["problems"])


def _checkout(tmp_path, with_platlab=True):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_platlab:
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "fixtures", tmp_path / "fixtures")
    return tmp_path


def _bench(cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "traces",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_command_fails_on_a_wrong_reference(tmp_path):
    root = _checkout(tmp_path)
    ref_file = root / "perfbench" / "reference.json"
    ref = json.loads(ref_file.read_text())
    ref["traces"]["q3.lam1"]["report"]["trace_count"] += 1
    ref_file.write_text(json.dumps(ref))
    proc = _bench(root)
    assert proc.returncode == 1
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is False


def test_command_fails_without_platlab(tmp_path):
    proc = _bench(_checkout(tmp_path, with_platlab=False))
    assert proc.returncode != 0
    assert proc.stdout == ""
