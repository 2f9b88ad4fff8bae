"""Exact above-average decisions for ordering CSPs.

Given constraints on the relative order of small variable tuples and a
positive rational t, decide whether some total order satisfies at least
(average value) + t constraints.  The objective is decomposed exactly into
orthogonal chain-function parts; a fourth-moment certificate answers large
instances outright, and otherwise the question drops to an exhaustive check
on the few variables the objective actually depends on.
"""

from .bonami import BonamiWitness, surrogate_moments, verify_chain, z_moments
from .chainfn import ChainFunction
from .decider import (
    CertificateReport,
    DecideConfig,
    DecisionReport,
    KernelReport,
    Witness,
    brute_force_kernel,
    certify_above_average,
    decide,
    find_witness,
    kernelize,
)
from .efron_stein import ESDecomposition, decompose_constraint, decompose_instance
from .errors import (
    BudgetExceededError,
    CapExceededError,
    CyclicPosetError,
    OcspError,
    ParseError,
    SupportMismatchError,
    TieError,
)
from .instance import (
    Constraint,
    Instance,
    Ordering,
    generate,
    parse_instance,
    render_instance,
)
from .oracle import (
    Poset,
    brute_force_opt,
    count_linear_extensions,
    exact_central_moment,
    product_expectation,
)

__version__ = "0.1.0"

__all__ = [
    "BonamiWitness",
    "BudgetExceededError",
    "CapExceededError",
    "CertificateReport",
    "ChainFunction",
    "Constraint",
    "CyclicPosetError",
    "DecideConfig",
    "DecisionReport",
    "ESDecomposition",
    "Instance",
    "KernelReport",
    "OcspError",
    "Ordering",
    "ParseError",
    "Poset",
    "SupportMismatchError",
    "TieError",
    "Witness",
    "brute_force_kernel",
    "brute_force_opt",
    "certify_above_average",
    "count_linear_extensions",
    "decide",
    "decompose_constraint",
    "decompose_instance",
    "exact_central_moment",
    "find_witness",
    "generate",
    "kernelize",
    "parse_instance",
    "product_expectation",
    "render_instance",
    "surrogate_moments",
    "verify_chain",
    "z_moments",
]
