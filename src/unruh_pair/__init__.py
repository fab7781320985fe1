"""Entanglement dynamics of two uniformly accelerated two-level atoms.

A desk-scale simulator for a pair of identical two-level atoms riding
parallel uniformly accelerated trajectories, coupled to a massless scalar
field in the Minkowski vacuum.  The library exposes:

- closed-form rate constants of the pair master equation, one point at a
  time or as arrays (``params``),
- exact propagation of X-form states in the coupled basis (``xstate``),
- an independent dense master-equation integrator (``oracle``),
- concurrence and its analytic initial rates (``entanglement``),
- figure-level parameter sweeps and classifications (``sweeps``),
- a CSV/JSON command-line front end (``cli``).

The environment-induced coherent exchange between the atoms can be switched
on and off everywhere, which is the comparison the whole package is built
around.
"""

__version__ = "0.1.0"

from .entanglement import (
    ConcurrenceBreakdown,
    concurrence_general,
    concurrence_x,
    generation_possible,
    generation_rate_product,
    initial_rate_superposition,
    numerical_initial_rate,
)
from .errors import (
    DegenerateGeneratorError,
    FormulaSingularError,
    HorizonError,
    InvalidParameterError,
    InvalidStateError,
    NonConvergenceError,
    SimulationError,
    UsageError,
)
from .oracle import (
    GklsData,
    build_gkls,
    from_xstate,
    gkls_rhs,
    integrate,
    step_bound,
    to_xstate,
)
from .params import (
    Coefficients,
    RateConstants,
    SimConfig,
    coefficients,
    geometric_factor,
    interaction_strength,
    rate_constants,
    spectral_density_cross,
    spectral_density_same,
    thermal_ratio,
)
from .sweeps import (
    CurveClassification,
    MonotonicityReport,
    RegionMask,
    SweepResult,
    asymptotic_concurrence,
    default_region_scan,
    max_concurrence,
    max_concurrence_sweep,
    monotonicity_report,
    rate_sweep,
    region_scan,
)
from .xstate import (
    DiagonalGenerator,
    XState,
    diagonal_generator,
    evolve,
    initial_product_eg,
    initial_superposition,
    steady_state,
    trajectory,
)

__all__ = [
    "__version__",
    # params
    "SimConfig", "Coefficients", "coefficients", "RateConstants", "rate_constants",
    "spectral_density_same", "spectral_density_cross",
    "geometric_factor", "interaction_strength", "thermal_ratio",
    # xstate
    "XState", "DiagonalGenerator", "diagonal_generator",
    "initial_product_eg", "initial_superposition",
    "evolve", "trajectory", "steady_state",
    # oracle
    "GklsData", "build_gkls", "gkls_rhs", "integrate", "step_bound",
    "to_xstate", "from_xstate",
    # entanglement
    "ConcurrenceBreakdown", "concurrence_x", "concurrence_general",
    "generation_possible", "generation_rate_product",
    "initial_rate_superposition", "numerical_initial_rate",
    # sweeps
    "SweepResult", "RegionMask", "region_scan", "default_region_scan",
    "rate_sweep", "max_concurrence", "max_concurrence_sweep",
    "asymptotic_concurrence", "monotonicity_report",
    "CurveClassification", "MonotonicityReport",
    # errors
    "SimulationError", "UsageError", "InvalidParameterError",
    "InvalidStateError", "NonConvergenceError", "HorizonError",
    "DegenerateGeneratorError", "FormulaSingularError",
]
