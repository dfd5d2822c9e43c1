"""Exception hierarchy for the toolkit.

Every numerical failure mode is a distinct class.  The suites resample a
drawn point on PoleHit or OutsideConvergenceAnnulus; any error of
`REPORTED` still raised by a check fails that check alone, and one raised
outside every check fails its suite (`wkit check` writes a `suite-error`).
Anything else is a programming error and propagates.
"""

import numpy as np


class WkitError(Exception):
    """Base class for all toolkit errors."""


class ModulusOutOfRange(WkitError):
    """A q-series modulus does not satisfy |p| < 1 (with margin)."""


class TruncationBudgetExceeded(WkitError):
    """A series/product hit max_terms before meeting the tail bound."""


class ZeroArgument(WkitError):
    """An argument that must be nonzero was zero."""


class NonconvergentTau(WkitError):
    """Theta series requested with Im(tau) too small or negative."""


class PoleHit(WkitError):
    """Evaluation point collides with a pole or zero denominator."""


class OutsideConvergenceAnnulus(WkitError):
    """Mode-expansion argument lies outside |q| < |x| < 1/|q|."""


class BranchDomainViolation(WkitError):
    """Abelianity branch parameters violate the branch's stated domain."""


class NoSolution(WkitError):
    """Surface condition has no solution for the requested (m, n, c)."""


class SingularLax(WkitError):
    """A Lax factor is numerically singular (condition number too large)."""


class LabelMismatch(WkitError):
    """Tensor operands have incompatible space labels."""


class ChargeViolation(WkitError):
    """A gate does not conserve the Z_N charge that the sector kernel of
    the projector residuals relies on."""


class DimensionGuardExceeded(WkitError):
    """A dense product would exceed the configured dimension guard."""


class ConfigError(WkitError):
    """Run configuration failed schema validation."""


# The errors a report names in place of a traceback
REPORTED = (WkitError, np.linalg.LinAlgError, ArithmeticError)
