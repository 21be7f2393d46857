"""Jacobi matrices and their Moser coordinates.

A Jacobi matrix is symmetric tridiagonal with strictly positive off-diagonal
entries.  Its spectrum is simple and the first coordinates of all eigenvectors
are nonzero, which makes the pair (eigenvalues descending, positive first
eigenvector coordinates on the unit sphere) a global coordinate chart.  The
inverse map is Lanczos tridiagonalization of diag(lam) started at w, with full
reorthogonalization at every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import NotJacobi, ReconstructionFailure
from .linalg import as_spectrum, as_square, as_symmetric, as_vector
from .slices import trusted

WEIGHT_FLOOR = 1e-10        # refuse reconstruction below this first-coordinate size
LANCZOS_BREAKDOWN = 1e-12   # Lanczos off-diagonal breakdown threshold, relative to max|lam|


def is_tridiagonal(s) -> bool:
    """No entry off the tridiagonal band exceeds 1e-12 * ||s|| in magnitude."""
    return kernels.is_tridiagonal(as_square(s))


def is_jacobi(s) -> bool:
    """Tridiagonal within 1e-12 * ||s|| off the band, with superdiagonal > 0."""
    return kernels.is_jacobi(as_symmetric(s))


@dataclass
class MoserCoordinates:
    """Spectral chart of a Jacobi matrix: descending eigenvalues + unit weight vector.

    ``lam`` must pass ``linalg.as_spectrum`` and ``kernels.simplicity_margin``
    (gaps above 1e-9 * ||lam||); ``w`` must be strictly positive and is
    divided by its scale-safe norm ``kernels.frobenius(w)``: only ratios matter.
    """

    lam: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        self.lam = as_spectrum(self.lam)
        self.w = as_vector(self.w, "weights w", len(self.lam))
        gap, threshold = kernels.simplicity_margin(self.lam)
        if gap <= threshold:
            raise ValueError("eigenvalue gaps must exceed 1e-9 * ||lam||")
        if float(self.w.min()) <= 0.0:
            raise ValueError("weight vector must be strictly positive")
        self.w = self.w / kernels.frobenius(self.w)

    @property
    def n(self) -> int:
        return len(self.lam)


def moser_coordinates(j) -> MoserCoordinates:
    """Chart of a Jacobi matrix: eigenvalues descending, first eigenvector coordinates.

    The sign convention of the eigensolver makes every first coordinate
    positive for genuinely Jacobi input; a nonpositive coordinate therefore
    means numerically reducible input and raises NotJacobi.
    """
    a = as_symmetric(j)
    if not kernels.is_jacobi(a):
        raise NotJacobi("input is not tridiagonal with a positive superdiagonal")
    lam, q = kernels.simple_eigensystem(a)
    w = q[:, 0]
    if float(w.min()) <= 0.0:
        raise NotJacobi(
            "first eigenvector coordinates are not strictly positive; "
            "input is numerically reducible"
        )
    return trusted(MoserCoordinates, lam=lam, w=w / kernels.frobenius(w))


def moser_reconstruct(lam, w) -> np.ndarray:
    """Rebuild the Jacobi matrix with spectrum lam and weight vector w.

    Lanczos on diag(lam) / 2^e, 2^e just above max|lam| (exact, so the result
    scales with lam), started at w and reorthogonalized against all previous
    vectors each step.  Refuses weight entries below 1e-10 (too close to a
    reducible matrix) and raises ReconstructionFailure when an off-diagonal
    falls below 1e-12 * 2^e.  MoserCoordinates validates and normalizes: lam
    meets the gate of ``moser_coordinates``, and only the ratios of w matter.
    """
    coords = MoserCoordinates(lam=lam, w=w)
    e = kernels.binade(coords.lam)
    lam, w = np.ldexp(coords.lam, -e), coords.w
    n = len(lam)
    if float(w.min()) < WEIGHT_FLOOR:
        raise ReconstructionFailure(
            f"weight entry {float(w.min()):.3e} is below the floor {WEIGHT_FLOOR:.0e}; "
            "the target matrix would be numerically reducible"
        )
    basis = np.zeros((n, n))
    alphas = np.zeros(n)
    betas = np.zeros(n - 1)
    vec = w.copy()
    for k in range(n):
        basis[:, k] = vec
        u = lam * vec
        alphas[k] = float(vec @ u)
        resid = u - alphas[k] * vec
        if k > 0:
            resid -= betas[k - 1] * basis[:, k - 1]
        # full reorthogonalization -- cheap at this scale, and it keeps the
        # recovered off-diagonals positive instead of noise-dominated
        resid -= basis[:, : k + 1] @ (basis[:, : k + 1].T @ resid)
        if k == n - 1:
            break
        beta = float(np.linalg.norm(resid))
        if beta < LANCZOS_BREAKDOWN:
            raise ReconstructionFailure(
                f"Lanczos off-diagonal {np.ldexp(beta, e):.3e} fell below "
                f"{np.ldexp(LANCZOS_BREAKDOWN, e):.3e} at step {k + 1}"
            )
        betas[k] = beta
        vec = resid / beta
    return np.ldexp(kernels.tridiagonal(alphas, betas), e)
