"""Exception types shared across the package."""


class GWeaveError(Exception):
    """Base class for all package errors."""


class ShapeMismatch(GWeaveError):
    """Matrix or block dimensions are inconsistent with the operation."""


class LengthMismatch(GWeaveError):
    """Two families have different block counts."""


class Empty(GWeaveError):
    """A family was constructed with no blocks."""


class NonFinite(GWeaveError):
    """Input contains NaN, Inf or a number beyond float64, or a computed value leaves float64."""


class Singular(GWeaveError):
    """Smallest eigenvalue is below the rank tolerance."""


class NotAFrame(GWeaveError):
    """Operation requires a family whose lower bound is strictly positive."""


class NotWoven(GWeaveError):
    """Operation requires a pair with a strictly positive universal lower bound."""


class NotUnitary(GWeaveError):
    """Operator fails the isometry or surjectivity residual check."""


class TooManyBlocks(GWeaveError):
    """Exhaustive subset enumeration was requested above the configured cap."""


class EnvelopeViolation(GWeaveError):
    """Per-block frame bounds escape the declared global envelope."""


class ParseError(GWeaveError):
    """A family file cannot be read or written, is not UTF-8, or is not valid JSON.

    The message carries the path, and for malformed JSON the position.
    """


class SchemaError(GWeaveError):
    """JSON document does not match the expected schema."""
