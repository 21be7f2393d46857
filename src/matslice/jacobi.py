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

from .errors import NotJacobi, ReconstructionFailure
from .linalg import as_square, as_symmetric, frobenius, spectral_decompose

TRIDIAG_RTOL = 1e-12        # band check tolerance, relative to ||s||
WEIGHT_FLOOR = 1e-10        # refuse reconstruction below this first-coordinate size
LANCZOS_BREAKDOWN = 1e-12   # off-diagonal breakdown threshold inside Lanczos
COORDINATE_GAP_RTOL = 1e-9  # descending-eigenvalue gap required of coordinates


def is_tridiagonal(s) -> bool:
    """No entry off the tridiagonal band exceeds 1e-12 * ||s|| in magnitude.

    The tolerance leaves room for the roundoff of QR-type steps and flows,
    which keep the band only up to a few 1e-14 * ||s||.  The input must be
    a finite square matrix of dimension >= 2, as everywhere else.
    """
    a = as_square(s)
    off_band = np.triu(a, 2) + np.tril(a, -2)  # disjoint supports: the sum is exact
    return bool(np.abs(off_band).max() <= TRIDIAG_RTOL * frobenius(a))


def is_jacobi(s) -> bool:
    """Tridiagonal within 1e-12 * ||s|| off the band, with superdiagonal > 0."""
    a = as_symmetric(s)
    return is_tridiagonal(a) and bool(np.all(np.diag(a, 1) > 0.0))


@dataclass
class MoserCoordinates:
    """Spectral chart of a Jacobi matrix: descending eigenvalues + unit weight vector.

    ``lam`` must be strictly descending with gaps above 1e-9 * max|lam|;
    ``w`` must be strictly positive and is normalized to unit Euclidean norm
    at construction.
    """

    lam: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        if self.lam.ndim != 1 or self.w.ndim != 1 or len(self.lam) != len(self.w):
            raise ValueError("lam and w must be 1-d with equal length")
        if len(self.lam) < 2:
            raise ValueError("need at least two eigenvalues")
        if not (np.all(np.isfinite(self.lam)) and np.all(np.isfinite(self.w))):
            raise ValueError("coordinates must be finite")
        gaps = self.lam[:-1] - self.lam[1:]
        if np.any(gaps <= COORDINATE_GAP_RTOL * float(np.max(np.abs(self.lam)))):
            raise ValueError("eigenvalues must be strictly descending with clear gaps")
        if float(self.w.min()) <= 0.0:
            raise ValueError("weight vector must be strictly positive")
        self.w = self.w / float(np.linalg.norm(self.w))

    @property
    def n(self) -> int:
        return len(self.lam)


def moser_coordinates(j) -> MoserCoordinates:
    """Chart of a Jacobi matrix: eigenvalues descending, first eigenvector coordinates.

    The sign convention of the eigensolver makes every first coordinate
    positive for genuinely Jacobi input; a nonpositive coordinate therefore
    means numerically reducible input and raises NotJacobi.
    """
    if not is_jacobi(j):
        raise NotJacobi("input is not tridiagonal with a positive superdiagonal")
    dec = spectral_decompose(j)
    w = dec.q[:, 0].copy()
    if float(w.min()) <= 0.0:
        raise NotJacobi(
            "first eigenvector coordinates are not strictly positive; "
            "input is numerically reducible"
        )
    return MoserCoordinates(lam=dec.lam.copy(), w=w)


def moser_reconstruct(lam, w) -> np.ndarray:
    """Rebuild the Jacobi matrix with spectrum lam and weight vector w.

    Lanczos on the operator diag(lam) started at w, reorthogonalizing against
    all previous vectors each step.  Refuses weight entries below 1e-10 (too
    close to a reducible matrix) and raises ReconstructionFailure when an
    off-diagonal falls below 1e-12.  Validation (descending simple spectrum,
    positive weights) and normalization happen through MoserCoordinates.
    """
    coords = MoserCoordinates(lam=np.asarray(lam, dtype=float),
                              w=np.asarray(w, dtype=float))
    lam = coords.lam
    w = coords.w
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
                f"Lanczos off-diagonal {beta:.3e} fell below {LANCZOS_BREAKDOWN:.0e} "
                f"at step {k + 1}"
            )
        betas[k] = beta
        vec = resid / beta
    out = np.diag(alphas)
    idx = np.arange(n - 1)
    out[idx, idx + 1] = betas
    out[idx + 1, idx] = betas
    return out
