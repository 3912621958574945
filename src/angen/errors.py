"""Exception types shared across the package."""


class AngenError(Exception):
    """Base class for all domain errors raised by this package."""


class BranchViolation(AngenError):
    """Parameter lies on the excluded ray (-inf, 0], or its angular clearance
    from the cut is too small for the requested quadrature."""


class PoleProximity(AngenError):
    """Evaluation point is within the guard distance of a kernel pole."""


class ZeroArgument(AngenError):
    """Argument sits on a singularity at the origin that is not removable."""


class QuadratureNonConvergence(AngenError):
    """Tail estimate exceeds the tolerance at its planned window.

    row is the index of the failing row of a row batch (vecint), else None.
    """

    def __init__(self, message: str = "", row: int | None = None):
        super().__init__(message)
        self.row = row


class NonFiniteSample(AngenError):
    """An integrand sample produced NaN or infinite entries."""


class OverflowRisk(AngenError):
    """Requested complex time would push exp(|Im z| * h) past the overflow guard."""


class HypothesisViolation(AngenError):
    """A stated hypothesis of a check fails, so the check result would be vacuous."""


class GraphMembershipViolation(AngenError):
    """A pair (x, y) fails the graph condition y = U_i x beyond tolerance."""


class TruncationDominates(AngenError):
    """Radial truncation error estimate exceeds the requested tolerance."""


class FitUnstable(AngenError):
    """A regression underlying a reported exponent is not trustworthy."""


class ConfigError(AngenError):
    """Invalid configuration file or option value."""
