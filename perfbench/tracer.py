"""Spans and counters recorded from outside platlab, around its public calls.

The tracer replaces every binding of a traced function across the loaded
``platlab`` modules (by-name imports included) with a wrapper that records a
span, and restores the originals on ``uninstall``.  Nothing inside ``src/``
is edited, and an untraced pass runs the original functions untouched.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import sys
import time
import types
from collections import defaultdict

# (owner, attribute, span name).  Owners are dotted platlab module paths or
# "module:Class" for methods; every binding of the same function object in
# any platlab module is wrapped too.
FUNCTIONS = [
    ("platlab._kernel", "polar", "kernel.polar"),
    ("platlab._kernel", "biclosure", "kernel.biclosure"),
    ("platlab._kernel", "intersection_closure", "kernel.intersection_closure"),
    ("platlab.closure", "enumerate_closed", "closure.enumerate_closed"),
    ("platlab.closure:ClosureSystem", "__init__", "closure.system_build"),
    ("platlab.closure:ClosureSystem", "join_mask", "closure.join_mask"),
    ("platlab.closure:ClosureSystem", "covers", "closure.covers"),
    ("platlab.closure:ClosureSystem", "coatoms", "closure.coatoms"),
    ("platlab.lattice", "covering_property", "lattice.covering_property"),
    ("platlab.lattice", "orthomodularity", "lattice.orthomodularity"),
    ("platlab.lattice", "center", "lattice.center"),
    ("platlab.lattice", "automorphisms", "lattice.automorphisms"),
    ("platlab.lattice", "find_orthocomplementation",
     "lattice.find_orthocomplementation"),
    ("platlab.sepprod", "separated_product", "sepprod.separated_product"),
    ("platlab.sepprod:ProductSpace", "__init__", "sepprod.ProductSpace"),
    ("platlab.sepprod", "check_axioms", "sepprod.check_axioms"),
    ("platlab.sepprod", "perturbation_test", "sepprod.perturbation_test"),
    ("platlab.constructions", "build_perp2", "constructions.build_perp2"),
    ("platlab.constructions", "build_perp3", "constructions.build_perp3"),
    ("platlab.constructions", "build_perp4", "constructions.build_perp4"),
    ("platlab.constructions", "build_perp5", "constructions.build_perp5"),
    ("platlab.constructions", "enumerate_subspaces",
     "constructions.enumerate_subspaces"),
    ("platlab.constructions", "tensor_trace_lattice",
     "constructions.tensor_trace_lattice"),
    ("platlab.cli", "run_verify_suite", "cli.run_verify_suite"),
]

# constructions calls the pure kernel module directly, bypassing the
# dispatch; its binding is swapped for a namespace whose kernel functions
# are the traced ones.
DIRECT_KERNEL = ("platlab.constructions", "pykernel")
KERNEL_FUNCTIONS = ("polar", "biclosure", "intersection_closure")


def _sets_out(args, result):
    return len(result)


def _system_sets(args, result):
    return len(args[0].masks)


def _subspaces_out(args, result):
    return sum(len(v) for v in result.values())


# span name -> (counter name, function of (args, result) giving the amount)
COUNTERS = {
    "kernel.intersection_closure": ("kernel.sets_out", _sets_out),
    "closure.system_build": ("closure.sets", _system_sets),
    "constructions.enumerate_subspaces": ("constructions.enumerate_subspaces.out",
                                          _subspaces_out),
}


class Tracer:
    """Collects per-span call counts, self time and counters; optionally
    keeps every span (id, parent, name, question, start, end) in memory."""

    def __init__(self, limit_error):
        self.limit_error = limit_error
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans = []
        self.keep_spans = False
        self.question = -1
        self._stack = []        # [span id, child seconds] per open span
        self._next_id = 0
        self._undo = []

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.counters.clear()

    def wrap(self, fn, name):
        counter = COUNTERS.get(name)
        refused = name.split(".", 1)[0] + ".refused"
        clock, stack = time.perf_counter, self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except self.limit_error:
                self.counters[refused] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if self.keep_spans:
                    self.spans.append((span_id, parent, name, self.question,
                                       t0, t1))
            if counter is not None:
                self.counters[counter[0]] += counter[1](args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every binding of every traced function; returns self."""
        modules = [m for k, m in list(sys.modules.items())
                   if (k == "platlab" or k.startswith("platlab."))
                   and isinstance(m, types.ModuleType)]
        for owner, attr, name in FUNCTIONS:
            mod_name, _, cls_name = owner.partition(":")
            target = sys.modules[mod_name]
            if cls_name:
                target = getattr(target, cls_name)
            original = target.__dict__[attr]
            wrapped = self.wrap(original, name)
            self._set(target, attr, wrapped)
            if cls_name:
                continue
            for mod in modules:
                if mod is not target and mod.__dict__.get(attr) is original:
                    self._set(mod, attr, wrapped)
        mod_name, attr = DIRECT_KERNEL
        mod = sys.modules[mod_name]
        kernel = mod.__dict__[attr]
        proxy = types.SimpleNamespace(**vars(kernel))
        for fn in KERNEL_FUNCTIONS:
            setattr(proxy, fn, self.wrap(getattr(kernel, fn), "kernel." + fn))
        self._set(mod, attr, proxy)
        return self

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def layer_self_s(self, layer):
        return sum(v for k, v in self.self_s.items()
                   if k.startswith(layer + "."))
