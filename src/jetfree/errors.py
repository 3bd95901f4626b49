"""Exception hierarchy shared by all jetfree modules."""


class JetfreeError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(JetfreeError):
    pass


class UnknownVariable(JetfreeError):
    pass


class UnboundVariable(JetfreeError):
    pass


class OrderCapExceeded(UnknownVariable):
    """A derivative operator needed a jet variable beyond the context's order cap."""


class SingularJacobian(JetfreeError):
    """The symbolic total Jacobian has identically zero determinant."""


class SingularTotalJacobian(JetfreeError):
    """The total Jacobian degenerates at the evaluation point (jet leaves the chart)."""


class SingularJet(JetfreeError):
    """First-order block of a map jet is not invertible."""


class BasePointMismatch(JetfreeError):
    pass


class OrderMismatch(JetfreeError):
    pass


class NonRationalDependence(JetfreeError):
    """Linearization left the deformation parameter inside a vanishing denominator."""


class CoefficientSingularity(JetfreeError):
    """A coefficient denominator vanishes at the requested base point."""


class NotFreeAtBase(JetfreeError):
    pass


class PreconditionViolation(JetfreeError):
    pass


class NotTransversal(PreconditionViolation):
    """A cross-section is not transversal to the orbit at a point; the
    transversality report that showed it is kept as ``report``."""

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report


class NoSolution(JetfreeError):
    """Normalization/stabilization equations are inconsistent at the point."""


class NonTriangular(JetfreeError):
    """A solver stage is not uniquely solvable by the staged linear method."""


class DomainMismatch(JetfreeError):
    pass


class StepFailure(JetfreeError):
    """Numeric integrator diverged."""
