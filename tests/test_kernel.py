import pytest

from platlab import _kernel, make_powerset_space
from platlab._kernel import pykernel


def test_pure_kernel_handles_wide_carriers():
    # the kernel works on ints of any width
    s = make_powerset_space(70)
    m = (1 << 70) - 2
    assert pykernel.polar(s.rows, m, s.full) == 1
    assert pykernel.biclosure(s.rows, 1, s.full) == 1


def test_dispatch_falls_back_above_64_atoms():
    # the package entry point takes carriers wider than a machine word
    s = make_powerset_space(70)
    assert _kernel.polar(s.rows, 1, s.full) == s.full ^ 1


def test_enumeration_cap():
    s = make_powerset_space(12)
    with pytest.raises(ValueError):
        pykernel.intersection_closure(s.rows, s.full, max_sets=100)
