"""Random test instances: symmetric matrices, Jacobi matrices, spectra.

Everything takes an explicit numpy Generator so callers control determinism;
the helpers here resample until the instance is comfortably nondegenerate,
which keeps downstream spectral decompositions well away from their gap
thresholds.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .jacobi import MoserCoordinates, moser_reconstruct
from .linalg import as_spectrum, as_vector, eigensystem, symmetrize

_GAP_FLOOR = 1e-3


def default_rng(seed=None) -> np.random.Generator:
    return np.random.default_rng(seed)


def _check_size(n: int):
    """Refuse, before any draw, a size that every other function refuses."""
    if n < 2:
        raise ValueError(f"size n must be at least 2, got {n}")


def random_symmetric(n: int, rng: np.random.Generator) -> np.ndarray:
    """Symmetrized Gaussian matrix."""
    _check_size(n)
    return symmetrize(rng.normal(size=(n, n)))


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal QR factor of a Gaussian matrix (positive diagonal gauge)."""
    _check_size(n)
    q, _ = kernels.householder_qr(rng.normal(size=(n, n)))
    return q


def descending_spectrum(
    n: int,
    rng: np.random.Generator,
    lo: float = -3.0,
    hi: float = 3.0,
    min_gap: float = 0.25,
) -> np.ndarray:
    """Strictly descending values in [lo, hi] with every gap >= min_gap."""
    _check_size(n)
    if not all(map(math.isfinite, (lo, hi, min_gap))):
        raise ValueError("lo, hi and min_gap must be finite")
    if n * min_gap >= hi - lo:
        raise ValueError("interval too small for the requested gaps")
    for _ in range(1000):
        lam = np.sort(rng.uniform(lo, hi, size=n))[::-1]
        if (lam[:-1] - lam[1:]).min() >= min_gap:
            return lam
    raise ValueError(f"no spectrum in [{lo:g}, {hi:g}] with gaps >= {min_gap:g} in 1000 draws")


def random_with_spectrum(lam, rng: np.random.Generator) -> np.ndarray:
    """Symmetric matrix with the prescribed spectrum, random eigenbasis."""
    lam = as_vector(lam, "spectrum")
    q = random_orthogonal(len(lam), rng)
    return symmetrize((q.T * lam) @ q)


def random_jacobi(n: int, rng: np.random.Generator, spectrum=None) -> np.ndarray:
    """Random Jacobi matrix; with a spectrum given, random positive weights
    feed the inverse construction so the result has exactly that spectrum.
    The spectrum (length n, finite, strictly descending with the gaps
    ``MoserCoordinates`` requires) is checked before any draw."""
    _check_size(n)
    if spectrum is not None:
        lam = MoserCoordinates(as_spectrum(spectrum, n), np.ones(n)).lam
        w = 0.2 + rng.uniform(size=n)
        w /= kernels.frobenius(w)
        return moser_reconstruct(lam, w)
    return kernels.tridiagonal(rng.normal(size=n), rng.uniform(0.3, 1.2, size=n - 1))


def random_invertible_symmetric(n: int, rng: np.random.Generator) -> np.ndarray:
    """Symmetric matrix resampled until the spectrum is simple and bounded
    away from zero (all |lam| > 5% of the largest)."""
    for _ in range(1000):
        s = random_symmetric(n, rng)
        lam, _ = eigensystem(s)
        top = float(np.abs(lam).max())
        if float(np.abs(lam).min()) > 0.05 * top and np.all(
            np.diff(np.sort(lam)) > _GAP_FLOOR * top
        ):
            return s
    raise RuntimeError("failed to sample an invertible symmetric matrix")
