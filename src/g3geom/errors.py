"""Exception hierarchy shared across the package."""


class G3Error(Exception):
    """Base class for all errors raised by g3geom."""


class ExprError(G3Error):
    """Base class for expression parsing/evaluation errors.

    Carries the byte offset into the source string where the problem was
    detected (0 for synthetically built trees).
    """

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ExprSyntaxError(ExprError):
    pass


class UnknownIdentifierError(ExprError):
    pass


class ArityError(ExprError):
    pass


class ExprDomainError(ExprError):
    """Evaluation left the domain of a function (log <= 0, sqrt < 0, x/0, |0|)."""


class StraightSegmentError(G3Error):
    """Curvature fell below kappa_min: the Frenet frame is undefined."""


class SingularNormalError(G3Error):
    """The normal normalizer omega fell below omega_min: no unit normal."""


class InadmissibleTraceError(G3Error):
    """A surface trace whose x-velocity is not 1; reparametrize with u1 = s."""


class AxisError(G3Error):
    """Base class for isophote-axis reconstruction failures."""


class NotLineOfCurvatureError(AxisError):
    pass


class NotAsymptoticError(AxisError):
    pass


class AxisConstraintError(AxisError):
    """A reconstruction constraint (ratio, constancy, unit norm) is violated."""


class AxisUndefinedError(AxisError):
    """k_g vanishes on a line-of-curvature trace: the axis formula k_n/k_g is undefined."""


class SceneError(G3Error):
    """Malformed scene document (unknown keys, bad references, bad values)."""
