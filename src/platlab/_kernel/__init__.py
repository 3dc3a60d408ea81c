"""The closure kernel: polar, biclosure and intersection closure on int
bit-vectors, implemented in ``pykernel``.

The package calls the kernel through the functions below.  They are defined
here, not re-exported, so that the benchmark tracer (perfbench/tracer.py) can
wrap them apart from ``pykernel``, which ``constructions`` calls directly.
"""

from . import pykernel

IMPLEMENTATION = pykernel.IMPLEMENTATION


def polar(rows, mask, full):
    return pykernel.polar(rows, mask, full)


def biclosure(rows, mask, full):
    return pykernel.biclosure(rows, mask, full)


def intersection_closure(seeds, full, max_sets=0):
    return pykernel.intersection_closure(seeds, full, max_sets)
