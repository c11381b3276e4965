"""Exception hierarchy for the engine.

Every mathematically meaningful failure gets its own class so callers (and
the CLI) can distinguish "you asked a malformed question" from "the algebra
said no".
"""


class QThetaError(Exception):
    """Base class for all engine errors."""


class DivisionByZero(QThetaError, ZeroDivisionError):
    """Inverse of zero in an exact field."""


class NotInvertible(QThetaError):
    """Series has no invertible leading term inside its truncation window."""


class PrecisionShortfall(QThetaError):
    """An operand is known only below the order a comparison asks for."""


class NotSymmetric(QThetaError):
    """Matrix expected to be symmetric is not."""


class DimensionMismatch(QThetaError):
    """Vector/matrix dimensions disagree."""


class LatticeMismatch(QThetaError):
    """Operands live on different lattices."""


class ParamMismatch(QThetaError):
    """Operands carry different quantization parameters."""


class MissingRootsOfUnity(QThetaError):
    """A root of unity outside the session cyclotomic field is required."""

    def __init__(self, order, msg=None):
        self.order = order
        super().__init__(msg or f"need a root of unity of order {order}")


class NoMonomialRoot(QThetaError):
    """Requested root of a unit monomial does not exist in the monomial group."""


class NotMultipliable(QThetaError):
    """A coefficient's sum cannot be certified finite below the order."""


class EnumerationLimit(NotMultipliable):
    """A certified enumeration box exceeds the point cap (a resource limit)."""


class NotAScalar(QThetaError, TypeError):
    """A coefficient value is neither a unit monomial nor a scalar series."""


class CertificateViolation(QThetaError):
    """A lattice factor's closure returned a value of negative u-valuation, so
    its Gauss part over-states the coefficient's valuation and the bound built
    from it could drop terms."""


class UnresolvedReference(QThetaError):
    """An equation term refers to an unknown series or element."""


class NotComposable(QThetaError):
    """Boundary points of Heisenberg elements/multipliers do not match."""

    def __init__(self, right_point, left_point, where=""):
        self.right_point = right_point
        self.left_point = left_point
        tag = f" at {where}" if where else ""
        super().__init__(
            f"not composable{tag}: right boundary {right_point} != left boundary {left_point}"
        )


class DegenerateAlpha(QThetaError):
    """Operation requires a nondegenerate squared pairing."""


class Indivisible(QThetaError):
    """Scaling homomorphism requires d | n."""


class IncompatibleQuantization(QThetaError):
    """Lattice map is not compatible with the squares of the pairings."""


class NotInImage(QThetaError):
    """Heisenberg element does not stabilize the embedded subalgebra."""


class NonSymmetricPairing(QThetaError):
    """Structure pairing of a would-be multiplier is not symmetric."""


class CocycleFailure(QThetaError):
    """Generator images do not commute / coefficient cocycle inconsistent."""


class SqrtMismatch(QThetaError):
    """Supplied square root data does not square to the structure pairing."""


class InfiniteIndex(QThetaError):
    """A finite coset index is required."""


class NoLift(QThetaError):
    """No representable lift of a point through a torus morphism."""


class IncompatibleForm(QThetaError):
    """Alternating form of hidden-period data is not +/-1 valued."""


class NonInjectiveImage(QThetaError):
    """Multiplier image fails the injectivity hypothesis."""


class DimensionDeficit(QThetaError):
    """Theta space dimension is smaller than the coset index."""


class NotInNormalizer(QThetaError):
    """Element does not normalize the multiplier image."""


class NotAmple(QThetaError):
    """Operation requires an ample multiplier."""


class UnknownName(QThetaError):
    """Unknown builtin series or identity name."""
