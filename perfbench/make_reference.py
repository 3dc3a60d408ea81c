#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from the current platlab.

    python3 perfbench/make_reference.py

Seed-0 answers are recorded as digests of their canonical JSON, so a later
change must reproduce them byte for byte.  Label-independent properties are
recorded once and must agree at seeds 0, 1 and 2.  Questions refused by a
search limit today (the MO4xMO4 orthocomplementation, the q = 7 tensor
traces) get their reference from the same search with the limit lifted,
which takes a few seconds each; their seed-0 witness is not pinned, since a
later search may find another valid one.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from platlab import constructions as con, lattice as lat  # noqa: E402
from platlab.closure import EnumerationLimitError  # noqa: E402
from run import Pass  # noqa: E402

UNLIMITED = 10 ** 9


def one_pass(name, seed):
    w = workloads.build(name, seed, reference={})
    return w, Pass(w, None, EnumerationLimitError)


def unlimited_orthocomplementation():
    original = lat.find_orthocomplementation
    lifted = functools.partial(original, max_elements=UNLIMITED)
    con.find_orthocomplementation = lat.find_orthocomplementation = lifted
    return original


def ladder():
    invariants, seed0 = None, {}
    for seed in (0, 1, 2):
        w, p = one_pass("ladder", seed)
        # ask the refused questions again, and the products they need,
        # with the search limit lifted
        original = unlimited_orthocomplementation()
        try:
            unlimited = workloads.Ladder(
                "ladder", seed, [q for q in w.questions
                                 if "refused" in p.answers[q.name]
                                 or q.kind == "separated_product"], {})
            lifted = Pass(unlimited, None, EnumerationLimitError).answers
        finally:
            con.find_orthocomplementation = lat.find_orthocomplementation = \
                original
        found = {}
        for q in w.questions:
            answer = p.answers[q.name]
            if "refused" in answer:
                answer = lifted[q.name]
            elif seed == 0:
                seed0[q.name] = workloads.sha256(workloads.canonical(answer))
            found[q.name] = workloads.ladder_invariants(q, answer)
        if invariants is None:
            invariants = found
        elif found != invariants:
            raise SystemExit(f"ladder invariants differ at seed {seed}")
    return {"invariants": invariants, "seed0": seed0}


def sweep():
    w, p = one_pass("sweep", 0)
    return {"seed0": workloads._kind_digests(w.questions, p.answers)}


def traces():
    out = {}
    original = unlimited_orthocomplementation()
    try:
        for q, lams in workloads.TRACE_LAMBDAS.items():
            for lam in lams:
                family, report = con.tensor_trace_lattice(q, lam)
                out[f"q{q}.lam{lam}"] = {"size": len(family),
                                         "report": report.to_json()}
    finally:
        con.find_orthocomplementation = lat.find_orthocomplementation = \
            original
    return out


def main():
    reference = {"ladder": ladder(), "sweep": sweep(), "traces": traces()}
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1,
                                              sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE}")


if __name__ == "__main__":
    main()
