"""Neutral difference equations: simulation, discrete Bihari bounds, and
certified asymptotically-polynomial decompositions.

The package simulates equations whose m-th difference acts on the neutral
combination x_n + u_n x_{n+k}, computes the uniform bound of the discrete
Bihari inequality, splits solutions into a polynomial part plus a
certified-small remainder, and mechanically checks the hypotheses and
conclusions of the associated asymptotic theorems at desk scale.  All
verdicts are finite-horizon diagnostics with declared thresholds.
"""

from .catalog import (
    CatalogRef,
    DelayMap,
    Majorant,
    RhsFunction,
    SeqGenerator,
    catalog_listing,
    make_f,
    make_g,
    make_generator,
    make_sigma,
)
from .bihari import (
    BihariBound,
    BihariProblem,
    adaptive_simpson,
    bihari_bound,
    worst_case_w,
)
from .decomp import (
    DecompositionReport,
    SolutionDecomposition,
    decompose_solution,
    extract_polynomial,
    regularity_check,
    transfer_polynomial,
)
from .errors import (
    AsymPolyError,
    BracketRangeError,
    CatalogError,
    CausalityError,
    ConfigError,
    DivergenceError,
    QuadratureDomainError,
    SeedError,
    SingularRecoveryError,
    WindowLengthError,
)
from .hypotheses import (
    CheckResult,
    ConclusionResult,
    HypothesisVerdict,
    check_g_p_bounded,
    check_u_rate,
    polynomial_growth_check,
    theorem_dispatch,
)
from .neutral_solver import (
    EquationSpec,
    SolutionTrace,
    consistent_seeds,
    simulate,
    start_index,
    x_start_index,
)
from .seqcore import (
    OrderVerdict,
    PolyCoeffs,
    Seq,
    WeightedSumDiagnostic,
    classify_oscillation,
    csum,
    delta,
    order_estimate,
    weighted_sum_diagnostic,
)

__version__ = "0.1.0"
