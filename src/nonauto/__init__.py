"""Numerical toolkit for nonautonomously perturbed matrix semigroups.

Builds evolution families U(t, s) for u'(t) = (A + B(t)) u(t) by freezing the
generator on dyadic cells (Euler polygons), measures perturbations in the
resolvent-weighted norm attached to A, and checks growth, convergence and
exponential-dichotomy roughness bounds on finite-dimensional operators.
"""

from .errors import (
    DimensionMismatch,
    DomainTooSmall,
    EigenFailure,
    NonautoError,
    NormKindMismatch,
    NotInvertible,
    NumericalFailure,
    Overflow,
    OutOfInterval,
    PreconditionViolated,
    SingularResolvent,
    TailNotSettled,
    ToleranceNotReached,
)
from .linop import (
    NormKind,
    Operator,
    Spectrum,
    identity,
    norm_of,
    op_norm,
    read_matrix,
    resolvent,
    spectrum,
    write_matrix,
)
from .semigroup import (
    BoundCheck,
    GrowthBound,
    expm,
    fit_growth_bound,
    semigroup_diff_bound_check,
)
from .metrics import (
    ANormEvaluator,
    ANormResult,
    AssumptionReport,
    Lemma32Result,
    MuGrid,
    YosidaDistance,
    a_norm,
    check_assumptions,
    check_generation_bound,
    default_lambda_grid,
    lemma32_decay,
    yosida_distance,
)
from .profiles import Constant, Profile, Sinusoid
from .evofam import (
    CallableFamily,
    ConstantFamily,
    DyadicPartition,
    EvolutionFamilyApprox,
    PerturbationFamily,
    PiecewiseLinearFamily,
    RefineResult,
    ScaledProfileFamily,
    TabulatedFamily,
    euler_polygon,
    family_from_spec,
    oracle_solve,
    product_difference_bound,
    refine_to_tolerance,
    verify_generator_derivative,
)
from .dichotomy import (
    DichotomyReport,
    EpsSweepResult,
    ProximityReport,
    SweepRow,
    autonomous_dichotomy,
    check_hyperbolic,
    perturbation_proximity,
    roughness_sweep,
)
from .examples import (
    Domain,
    ExampleReport,
    GridSpec,
    SpikyMultiplier,
    build_heat_generator,
    build_spiky_b,
    build_translation_generator,
    decade_maxima,
    heat_green_column_sums,
    heat_resolvent_green,
    scaled_resolvent_sweep,
    verify_example_bounds,
)
from .acceptance import CriterionResult, run_criteria, verify_all_rows

__version__ = "0.1.0"
