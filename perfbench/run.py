#!/usr/bin/env python3
"""platlab benchmark: timed passes over one workload's question list.

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 36 --trace 0

Run from the root of a platlab checkout; the package is imported from
``src/``.  One process, no extra threads, closed loop: one question at a
time.  With ``--trace 0`` the last line of standard output carries the
end-to-end metrics, with every time scaled to a reference speed of the
machine (``speed.py``); with ``--trace 1`` it carries the per-layer metrics of
traced passes, alternated with untraced ones to measure the overhead.  The
line before it holds provenance and details, also written with the spans
of the first traced pass under ``perfbench/out/``.  The exit code is 1 when
any answer is wrong, 2 when platlab cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 9          # set-up is timed in this process and 8 fresh ones
SETUP_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "relation_p50_ms": "ms",
    "relation_p90_ms": "ms", "answered_share": "ratio", "peak_rss_mb": "MB",
}

# per-layer metric -> unit; "calls" and counters come from the tracer
PER_LAYER = [
    ("kernel.polar.calls", "count"),
    ("kernel.biclosure.calls", "count"),
    ("kernel.intersection_closure.calls", "count"),
    ("kernel.sets_out", "count"),
    ("kernel.self_s", "s"),
    ("closure.enumerate_closed.calls", "count"),
    ("closure.enumerate_closed.self_s", "s"),
    ("closure.system_build.self_s", "s"),
    ("closure.sets", "count"),
    ("closure.join_mask.calls", "count"),
    ("closure.join_mask.self_s", "s"),
    ("closure.coatoms.calls", "count"),
    ("closure.coatoms.self_s", "s"),
    ("closure.covers.self_s", "s"),
    ("lattice.covering_property.self_s", "s"),
    ("lattice.orthomodularity.self_s", "s"),
    ("lattice.center.self_s", "s"),
    ("lattice.automorphisms.self_s", "s"),
    ("lattice.find_orthocomplementation.self_s", "s"),
    ("lattice.refused", "count"),
    ("sepprod.ProductSpace.calls", "count"),
    ("sepprod.ProductSpace.self_s", "s"),
    ("sepprod.check_axioms.calls", "count"),
    ("sepprod.check_axioms.self_s", "s"),
    ("sepprod.perturbation_test.self_s", "s"),
    ("sepprod.separated_product.self_s", "s"),
    ("sepprod.enumerations_per_relation", "ratio"),
    ("constructions.tensor_trace_lattice.self_s", "s"),
    ("constructions.enumerate_subspaces.self_s", "s"),
    ("constructions.enumerate_subspaces.out", "count"),
    ("constructions.build.self_s", "s"),
    ("cli.run_verify_suite.calls", "count"),
    ("cli.run_verify_suite.self_s", "s"),
    ("trace.overhead_s", "s"),
]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("ladder", "sweep", "traces"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print the seconds and exit")
    return ap.parse_args(argv)


def git_sha():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(sorted_values, share):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(share * len(sorted_values)) - 1)]


class Pass:
    """One pass over the question list: latencies, answers, statuses.

    With a ``sampler`` running, a question's latency is its time at the
    reference speed (see ``speed.py``); without, its raw time."""

    def __init__(self, workload, tracer, limit_error, sampler=None):
        stamps = []
        self.answers = {}
        self.sizes = {}
        self.errors = {}
        self.enumerations = 0
        ctx = {}
        clock = time.perf_counter
        start = clock()
        for i, q in enumerate(workload.questions):
            if tracer is not None:
                tracer.question = i
                enum_before = tracer.calls["closure.enumerate_closed"]
            t0 = clock()
            try:
                result = q.call(ctx)
            except limit_error as exc:
                dt = clock() - t0
                self.answers[q.name] = {"refused": str(exc)}
            except Exception as exc:  # a crash is reported, not propagated
                dt = clock() - t0
                self.errors[q.name] = traceback.format_exc()
                self.answers[q.name] = {"error": repr(exc)}
            else:
                dt = clock() - t0
                self.answers[q.name] = q.answer(result)
                if q.size is not None:
                    self.sizes[q.name] = q.size(ctx, result)
            stamps.append((t0, t0 + dt))
            if tracer is not None and q.relations:
                self.enumerations += (tracer.calls["closure.enumerate_closed"]
                                      - enum_before)
        self.elapsed = clock() - start
        if sampler is None:
            self.raw = [t1 - t0 for t0, t1 in stamps]
            self.latencies = self.raw
        else:
            self.raw = [sampler.own(t0, t1) for t0, t1 in stamps]
            self.latencies = [sampler.scaled(t0, t1) for t0, t1 in stamps]
        self.wall = sum(self.latencies)
        self.raw_wall = sum(self.raw)
        self.unanswered = sum(1 for a in self.answers.values()
                              if "refused" in a or "error" in a)
        self.digest = hashlib.sha256("".join(
            f"{name}\t{json.dumps(a, sort_keys=True)}\n"
            for name, a in self.answers.items()).encode()).hexdigest()


def layer_metrics(tracer, workload, enumerations):
    calls, self_s, counters = tracer.calls, tracer.self_s, tracer.counters
    relations = sum(q.relations for q in workload.questions)
    out = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        if name == "kernel.self_s":
            value = tracer.layer_self_s("kernel")
        elif name == "constructions.build.self_s":
            value = sum(self_s[f"constructions.build_perp{k}"]
                        for k in range(2, 6))
        elif name == "sepprod.enumerations_per_relation":
            value = enumerations / relations if relations else 0.0
        elif name.endswith(".calls"):
            value = calls[name[:-6]]
        elif name.endswith(".self_s"):
            value = self_s[name[:-7]]
        else:
            value = counters[name]
        out[name] = value
    return out


def time_setup(args):
    """Seconds to import platlab and build the workload from the seed, at
    the reference speed and raw."""
    sampler = speed.Sampler().start()
    try:
        t0 = time.perf_counter()
        sys.path.insert(0, str(ROOT / "src"))
        import platlab  # noqa: F401  (timed: import is part of set-up)
        import workloads
        workload = workloads.build(args.workload, args.seed)
        t1 = time.perf_counter()
    finally:
        sampler.stop()
    return (sampler.scaled(t0, t1), sampler.own(t0, t1)), workload


def setup_in_fresh_process(args):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        check=True)
    scaled, raw = proc.stdout.split()[-2:]
    return float(scaled), float(raw)


def run_passes(workload, seconds, traced, tracer, limit_error, between):
    """Passes until the next one would overrun ``seconds`` (at least one
    of each kind), calling ``between()`` after each.  With ``traced`` the
    passes alternate untraced/traced; only untraced passes sample the
    machine's speed."""
    plain, with_trace = [], []
    start = time.perf_counter()
    last = 0.0
    while True:
        use_trace = traced and len(with_trace) < len(plain)
        gc.collect()
        if use_trace:
            tracer.reset()
            tracer.keep_spans = not with_trace
            tracer.install()
            try:
                p = Pass(workload, tracer, limit_error)
            finally:
                tracer.uninstall()
                tracer.keep_spans = False
            p.layers = layer_metrics(tracer, workload, p.enumerations)
            with_trace.append(p)
        else:
            sampler = speed.Sampler().start()
            try:
                p = Pass(workload, None, limit_error, sampler)
            finally:
                sampler.stop()
            plain.append(p)
        if len(plain) + len(with_trace) > 1:
            p.answers = p.sizes = None  # the first pass's answers suffice
        last = max(last, p.elapsed)
        between()
        elapsed = time.perf_counter() - start
        enough = plain and (with_trace or not traced)
        if enough and elapsed + last > seconds:
            return plain, with_trace


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "platlab" / "__init__.py").is_file():
        print(f"platlab sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    setup_first, workload = time_setup(args)
    if args.setup_only:
        print(*map(repr, setup_first))
        return 0

    import platlab
    import tracer as tracing
    from platlab.closure import EnumerationLimitError

    # fresh set-ups run between passes, so that they sample the whole run
    setups = [setup_first]

    def one_more_setup():
        if len(setups) < SETUP_RUNS:
            setups.append(setup_in_fresh_process(args))

    tracer = tracing.Tracer(EnumerationLimitError)
    plain, traced = run_passes(workload, args.seconds, bool(args.trace),
                               tracer, EnumerationLimitError, one_more_setup)
    while len(setups) < SETUP_RUNS:
        one_more_setup()
    passes = plain + traced
    first = passes[0]
    problems = workload.check(first.answers)
    for p in passes[1:]:
        if p.digest != first.digest:
            problems.append("answers differ between passes"
                            + (" (tracing on vs off)" if traced else ""))
            break
    errors = sorted({f"{k}: {v}" for p in passes for k, v in p.errors.items()})
    problems += errors

    attempted = len(workload.questions) * len(passes)
    unanswered = sum(p.unanswered for p in passes)
    failed = sum(len(p.errors) for p in passes)
    if args.trace:
        metrics = {}
        for name, unit in PER_LAYER[:-1]:
            values = [p.layers[name] for p in traced]
            median = statistics.median_low if unit == "count" \
                else statistics.median
            metrics[name] = median(values)
        metrics["trace.overhead_s"] = (
            statistics.median(p.raw_wall for p in traced)
            - statistics.median(p.raw_wall for p in plain))
        units = dict(PER_LAYER)
    else:
        # times at the reference speed; each relation at its median
        # over the passes
        samples = sorted(
            statistics.median(p.latencies[i] for p in plain)
            for i, q in enumerate(workload.questions) if q.relations == 1)
        metrics = {
            "setup_s": statistics.median(s for s, _ in setups),
            "wall_s": statistics.median(p.wall for p in plain),
            "relation_p50_ms": percentile(samples, 0.5) * 1e3,
            "relation_p90_ms": percentile(samples, 0.9) * 1e3,
            "answered_share": 1 - unanswered / attempted,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "provenance": {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "kernel": platlab.KERNEL_IMPLEMENTATION,
            "nproc": os.cpu_count(),
        },
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "pass_wall_s": [p.wall for p in plain],
        "pass_raw_wall_s": [p.raw_wall for p in plain],
        "traced_pass_raw_wall_s": [p.raw_wall for p in traced],
        "setup_runs_s": [s for s, _ in setups],
        "setup_raw_runs_s": [raw for _, raw in setups],
        "unanswered_share": unanswered / attempted,
        "unanswered": sorted({k for k, a in first.answers.items()
                              if "refused" in a or "error" in a}),
        "lattice_size": first.sizes,
        "problems": problems,
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=1) + "\n")
    if traced:
        with open(OUT / f"{stem}.spans.tsv", "w") as fh:
            fh.write("id\tparent\tname\tquestion\tstart_s\tend_s\n")
            for s in tracer.spans:
                fh.write("\t".join(map(str, s)) + "\n")
    for msg in problems:
        print(f"problem: {msg}", file=sys.stderr)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
