"""Stable-driven SDE toolkit.

Simulation, boundary classification, and closed-form cross-validation for
the one-dimensional SDE dZ = sigma(Z-) dX driven by a strictly alpha-stable
process X, solved by the time change Z_t = X_{tau_t} with
tau = inverse of A_s = int_0^s sigma(X_u)^{-alpha} du.

Subpackages by concern:

- ``stable_core``: (alpha, rho) parameterization, exact-law increment
  sampler, path containers;
- ``sigma_model``: coefficient functions with declared tail behavior;
- ``boundary_classifier``: integral tests deciding explosion and entrance
  at infinity;
- ``fluctuation_oracles``: closed-form overshoot/exit/creep/potential
  formulas used as ground truth;
- ``transforms``: characteristic exponents of the derived processes as
  gamma quotients, Lamperti/censoring path maps;
- ``sde_timechange``: the pathwise solver, explosion-time sampling, and
  spatial inversion;
- ``montecarlo``: the statistical validation engine;
- ``cli``: the ``python -m artifact`` front door.
"""

from .boundary_classifier import (
    BoundaryReport,
    Domain,
    FinitenessVerdict,
    Method,
    UndecidedIntegralError,
    classify,
    integral_I,
    integral_log,
)
from .fluctuation_oracles import (
    OracleResult,
    WrongBranchError,
    cauchy_killed_potential,
    creep_probability,
    exit_density_avoid_zero,
    expected_explosion_time,
    h_function,
    halfline_killed_potential,
    killed_potential_density,
    overshoot_cdf,
    positive_exit_density,
    spectrally_positive_interval_exit,
    strip_exit_density,
)
from .montecarlo import (
    TooFewSamplesError,
    ValidationOutcome,
    entrance_proxy,
    ks_compare,
    ks_statistic,
    occupation_potential_lemma,
    occupation_vs_potential,
)
from .sde_timechange import (
    AdditiveFunctional,
    ExhaustedPathError,
    ExplosionEstimate,
    HitZeroError,
    additive_functional,
    explosion_estimate,
    spatial_inversion,
    spatial_inversion_inverse,
    time_change_solve,
)
from .sigma_model import (
    Composite,
    LogPower,
    NonPositiveError,
    PowerTail,
    SigmaFunction,
    Tabulated,
    parse_sigma_spec,
)
from .stable_core import (
    DomainError,
    InconsistentRhoError,
    OutOfRangeError,
    Path,
    Sidedness,
    StableParams,
    char_exponent,
    levy_density,
    sample_increment,
    sample_interval_exit,
    sample_path,
    sample_path_at,
    stream,
)
from .transforms import (
    ExponentKind,
    LevyExponent,
    PoleHitError,
    censor_positive,
    esscher_zero_check,
    lamperti_forward,
    lamperti_inverse,
    mean_at_one,
)

__version__ = "1.0.0"
