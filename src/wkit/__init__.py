"""wkit: numerical verification toolkit for Z_N elliptic R-matrices and
the deformed-W generator algebras built on them."""

from .errors import (
    BranchDomainViolation,
    ChargeViolation,
    ConfigError,
    DimensionGuardExceeded,
    LabelMismatch,
    ModulusOutOfRange,
    NonconvergentTau,
    NoSolution,
    OutsideConvergenceAnnulus,
    PoleHit,
    SingularLax,
    TruncationBudgetExceeded,
    WkitError,
    ZeroArgument,
)
from .params import DEFAULT_POLICY, EllipticParams, TruncationPolicy, xi_of
from .qseries import (
    F_a,
    I_series,
    U,
    Y_FF,
    Y_kkprime_cr,
    Y_mn,
    Y_mn_forms,
    Y_mn_grid,
    f_cr_modes,
    f_cr_series,
    kappa_inv,
    pochhammer,
    resolve_abelian_branch,
    tau_N,
    theta_big,
    theta_char_product,
    theta_char_sums,
)
from .reports import CheckReport, sort_reports
from .rmatrix import RMatrixFactory, ZnMatrices
from .suites import run_check
from .tensor import LabeledTensor, antisymmetrizer, fused_R
from .wgen import EvalRep, SurfaceSpec, build_t, resolve_surface

__version__ = "0.1.0"

__all__ = [
    "EllipticParams", "TruncationPolicy", "DEFAULT_POLICY", "xi_of",
    "pochhammer", "theta_big", "theta_char_sums", "theta_char_product",
    "tau_N", "U", "kappa_inv", "F_a", "Y_mn", "Y_mn_forms", "Y_FF",
    "Y_kkprime_cr", "I_series", "f_cr_series", "f_cr_modes", "Y_mn_grid",
    "resolve_abelian_branch",
    "CheckReport", "sort_reports", "run_check",
    "ZnMatrices", "RMatrixFactory",
    "LabeledTensor", "antisymmetrizer", "fused_R",
    "SurfaceSpec", "resolve_surface", "EvalRep", "build_t",
    "WkitError", "ModulusOutOfRange", "TruncationBudgetExceeded",
    "ZeroArgument", "NonconvergentTau", "PoleHit",
    "OutsideConvergenceAnnulus", "BranchDomainViolation", "NoSolution",
    "SingularLax", "LabelMismatch", "ChargeViolation", "DimensionGuardExceeded",
    "ConfigError",
]
