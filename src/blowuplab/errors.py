"""Exception hierarchy shared by all blowuplab modules."""


class BlowupLabError(Exception):
    """Base class for all library errors."""


class SubcriticalDimension(BlowupLabError):
    """d <= 2 + k(2 + 2*sqrt(2)): the profile tail oscillates and the
    matched construction is invalid."""


class DegenerateRegime(BlowupLabError):
    """omega == 2*gamma: both coupling integrals diverge logarithmically."""


class NegativeEigenvalue(BlowupLabError):
    """lambda_N < 0 gives a boundary layer that does not shrink."""


class RegimeMismatch(BlowupLabError):
    """Coupling integral requested in the regime where it diverges."""


class TrappingViolation(BlowupLabError):
    """Integrated orbit left the phase-plane trapping region by more than
    the integrator tolerance."""


class TailFitIllConditioned(BlowupLabError):
    """The two tail exponentials are numerically collinear on the fit window."""


class QuadratureNotConverged(BlowupLabError):
    """Orthonormality residual did not reach target at maximum node count."""


class DivergentIntegrand(BlowupLabError):
    """Declared small-y exponents make the weighted integrand non-integrable."""


class BlowupOfEpsilon(BlowupLabError):
    """epsilon(s) grew instead of decaying; constants have a sign error."""


class BadInitialData(BlowupLabError):
    """Initial data violates the regularity condition u(0) = 0."""


class IntegrationFailed(BlowupLabError):
    """An ODE integration of the asymptotics (profile orbit or eps) did not
    reach its end: illegal tolerances, excess work or a step-size collapse."""


class StepSizeUnderflow(BlowupLabError):
    """Time integrator step collapsed; the mesh cannot resolve the layer."""


class MeshTangling(BlowupLabError):
    """Mesh node ordering was violated during a step."""


class NoBlowup(BlowupLabError):
    """Run ended (t >= tMax) before the stop criterion was reached."""


class WindowTooShort(BlowupLabError):
    """Not enough trace samples in the requested fit window."""


class DegenerateFit(BlowupLabError):
    """Nonlinear rate fit failed to converge to a meaningful optimum."""
