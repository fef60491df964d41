"""Exception types shared across the library."""


class Cl3Error(Exception):
    """Base class for all library-specific errors."""


class SignatureMismatchError(Cl3Error):
    """Operands live in different algebras."""


class NonInvertibleError(Cl3Error):
    """Determinant is numerically zero; carries the partial results."""

    def __init__(self, message, adjugate=None, determinant=None):
        super().__init__(message)
        self.adjugate = adjugate
        self.determinant = determinant


class NonFiniteError(Cl3Error, ValueError):
    """A coefficient is infinite or NaN, or a result overflows double precision."""


class NoIsolatedRootError(Cl3Error):
    """The center element has no isolated square root under this signature."""


class NormUndefinedError(Cl3Error):
    """Determinant norm requested for a multivector with negative determinant."""


class MixedGradeInputError(Cl3Error):
    """Input mixes grades outside the allowed pattern for a special-case formula."""


class SeriesOrderError(Cl3Error):
    """Requested series order exceeds the precomputed coefficient tables."""


class MVParseError(Cl3Error):
    """Malformed multivector literal."""

    def __init__(self, message, column=None):
        if column is not None:
            message = f"{message} (column {column})"
        super().__init__(message)
        self.column = column
