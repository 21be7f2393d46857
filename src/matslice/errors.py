"""Exception taxonomy shared across the package.

Every numerical or structural failure raised by this library derives from
MatSliceError, so callers (and the command line driver) can catch one type.
"""


class MatSliceError(Exception):
    """Base class for all failures raised by this package."""


class SingularMatrix(MatSliceError):
    """A matrix required to be invertible is numerically singular."""


class DegenerateSpectrum(MatSliceError):
    """Two eigenvalues coincide within the simplicity tolerance."""


class DomainViolation(MatSliceError):
    """A scalar function left its spectral domain, or a result overflows double precision."""


class DimensionMismatch(MatSliceError):
    """Operands have incompatible shapes."""


class NotJacobi(MatSliceError):
    """Input is not tridiagonal with strictly positive off-diagonal entries."""


class NotTridiagonal(MatSliceError):
    """Input has entries outside the tridiagonal band."""


class NotIrreducible(MatSliceError):
    """Input leaves a proper coordinate subspace invariant."""


class TooLarge(MatSliceError):
    """Dimension exceeds the supported desk scale for this operation."""


class ReconstructionFailure(MatSliceError):
    """Inverse spectral reconstruction broke down numerically."""


class InvalidFormat(MatSliceError):
    """A data file does not conform to the expected layout."""
