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
    """Gram residual of the eigenbasis above the orthonormality target."""


class FloatRangeExceeded(BlowupLabError):
    """A constant of the asymptotics leaves the range of normal doubles: at
    k = 1, N = 1 the outer integral's N_N^4 from d ~ 151.7 on and the
    Gauss-Laguerre weights from d ~ 269.6 on.  Carrying N_n and c_n in
    logarithms would lift the limit."""


class BlowupOfEpsilon(BlowupLabError):
    """epsilon(s) does not decay (it grows, and may blow up at finite s);
    the constants have a sign error."""


class BadInitialData(BlowupLabError):
    """Initial data violates the regularity condition u(0) = 0."""


class IntegrationFailed(BlowupLabError):
    """The profile orbit's integration did not reach its end (an illegal
    tolerance, excess work or a step that does not advance x), or the Newton
    search for its slope maximum did not converge."""


class StepSizeUnderflow(BlowupLabError):
    """Time integrator step failed."""


class NoBlowup(BlowupLabError):
    """Run ended (t >= tMax) before the stop criterion was reached."""


class WindowTooShort(BlowupLabError):
    """Not enough trace samples in the requested fit window."""


class DegenerateFit(BlowupLabError):
    """Nonlinear rate fit failed to converge to a meaningful optimum."""
