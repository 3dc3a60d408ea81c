"""platlab: a finite laboratory for property lattices.

Builds complete atomistic ortho-lattices as polarity closure systems over
finite orthogonality spaces, constructs separated products, decides the
independence axioms P1-P5/P4*, and verifies the associated structure
theorems and counterexample constructions on finite carriers.
"""

from ._kernel import IMPLEMENTATION as KERNEL_IMPLEMENTATION
from .closure import (AtomSubset, ClosureSystem, biclosure, brute_force_closed,
                      dump_system, enumerate_closed, polar)
from .orthospace import (OrthoSpace, Verdict, dump_space, load_space, make_mo,
                         make_powerset_space, make_quadratic_line_space,
                         validate_relation)
from .sepprod import (AxiomReport, ProductSpace, check_axioms, daniel_lift,
                      lift_product_map, p_hash_components, p_sharp,
                      perturbation_test, separated_product, sharp)

__version__ = "0.1.0"

__all__ = [
    "AtomSubset", "AxiomReport", "ClosureSystem", "KERNEL_IMPLEMENTATION",
    "OrthoSpace", "ProductSpace", "Verdict", "biclosure", "brute_force_closed",
    "check_axioms", "daniel_lift", "dump_space", "dump_system",
    "enumerate_closed", "lift_product_map", "load_space", "make_mo",
    "make_powerset_space", "make_quadratic_line_space", "p_hash_components",
    "p_sharp", "perturbation_test", "polar", "separated_product", "sharp",
    "validate_relation",
]
