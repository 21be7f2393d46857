"""Dense symmetric-matrix kernels.

This module provides the four primitives everything else is built from:

* ``qr_factor``       -- Householder QR normalized to a positive diagonal of R,
* ``spectral_decompose`` / ``eigensystem`` -- a cyclic-Jacobi eigensolver,
* ``apply_function``  -- scalar functions of a symmetric matrix via its spectrum,
* ``skew_part`` / ``upper_part`` -- the unique skew + upper-triangular splitting.

The eigensolver is deliberately *not* QR-based: QR iteration is one of the
objects under study here, so the reference spectral routine must not share
machinery with it.  Everything operates on plain numpy arrays at desk scale
(dimensions 2..12); all functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DegenerateSpectrum, DimensionMismatch, DomainViolation, SingularMatrix

# Relative tolerances, sized for double precision at n <= 12.
SINGULAR_RTOL = 1e-12        # invertibility threshold on diag(R), relative to ||m||
JACOBI_SWEEP_RTOL = 1e-13    # off-diagonal Frobenius target of the eigensolver
SIMPLE_SPECTRUM_RTOL = 1e-9  # minimum eigenvalue gap counted as "simple"
_MAX_SWEEPS = 50
_SIGN_PICK_TOL = 1e-12       # "first nonzero" cutoff for the eigenvector sign fix


def as_square(m) -> np.ndarray:
    """Copy ``m`` into a float array, insisting on a finite square matrix, n >= 2."""
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 2:
        raise DimensionMismatch("matrices of dimension < 2 are not supported")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def symmetrize(m) -> np.ndarray:
    """Average a matrix with its transpose (exact for already-symmetric input)."""
    a = np.asarray(m, dtype=float)
    return 0.5 * (a + a.T)


SYMMETRY_RTOL = 1e-8  # asymmetry beyond this is a caller error, not roundoff


def as_symmetric(m) -> np.ndarray:
    """Validated square matrix, symmetrized to clean up roundoff.

    Genuinely asymmetric input (relative asymmetry above SYMMETRY_RTOL) is
    rejected rather than silently averaged.
    """
    a = as_square(m)
    gap = float(np.abs(a - a.T).max())
    if gap > SYMMETRY_RTOL * max(1.0, float(np.abs(a).max())):
        raise ValueError(
            f"matrix is not symmetric (asymmetry {gap:.3e}); refusing to average it away"
        )
    return symmetrize(a)


def frobenius(m) -> float:
    return float(np.linalg.norm(np.asarray(m, dtype=float)))


def offdiag_norm(s) -> float:
    """Frobenius norm of the off-diagonal part."""
    a = np.asarray(s, dtype=float)
    return float(np.linalg.norm(a - np.diag(np.diag(a))))


def qr_factor(m, singular_rtol: float = SINGULAR_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """Factor ``m = q @ r`` with q orthogonal and r upper triangular, diag(r) > 0.

    Householder reflections followed by a diagonal sign fix; with the positive
    diagonal of r the factorization is the unique one in this normalization.
    Raises SingularMatrix when the smallest |r[k][k]| (the cheap singularity
    estimate the factorization itself provides) falls at or below
    ``singular_rtol * ||m||``.
    """
    a = as_square(m)
    n = a.shape[0]
    scale = frobenius(a)
    r = a.copy()
    q = np.eye(n)
    for k in range(n - 1):
        x = r[k:, k]
        nx = float(np.linalg.norm(x))
        if nx == 0.0:
            continue  # column already annihilated; diagonal check will catch it
        alpha = -nx if x[0] >= 0.0 else nx
        v = x.copy()
        v[0] -= alpha
        vv = float(v @ v)
        w = (r[k:, k:].T @ v) * (2.0 / vv)
        r[k:, k:] -= np.outer(v, w)
        r[k, k] = alpha
        r[k + 1:, k] = 0.0
        wq = (q[:, k:] @ v) * (2.0 / vv)
        q[:, k:] -= np.outer(wq, v)
    diag = np.diag(r).copy()
    threshold = singular_rtol * scale
    small = float(np.min(np.abs(diag)))
    if small <= threshold:
        raise SingularMatrix(
            f"diagonal of R has magnitude {small:.3e}, at or below "
            f"threshold {threshold:.3e}; matrix is numerically singular"
        )
    signs = np.where(diag < 0.0, -1.0, 1.0)
    q = q * signs
    r = signs[:, None] * r
    return q, r


def eigensystem(s) -> tuple[np.ndarray, np.ndarray]:
    """Raw symmetric eigensystem by cyclic Jacobi rotations.

    Returns ``(lam, q)`` with eigenvalues sorted in descending order and the
    *rows* of q holding the matching unit eigenvectors, sign-fixed so the first
    entry of magnitude > 1e-12 in each row is positive:
    ``s = q.T @ diag(lam) @ q``.  No simplicity check is performed here; use
    :func:`spectral_decompose` when a simple spectrum is part of the contract.

    Sweeps run until the off-diagonal Frobenius norm drops below
    ``1e-13 * ||s||``.
    """
    return _jacobi_eigensystem(as_symmetric(s))


def _jacobi_eigensystem(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sweep behind ``eigensystem``, on a validated symmetric matrix (left unchanged)."""
    a = a.copy()
    n = a.shape[0]
    scale = frobenius(a)
    tol = JACOBI_SWEEP_RTOL * scale
    skip = tol / (4.0 * n * n)
    v = np.eye(n)
    sweeps = 0
    while offdiag_norm(a) > tol:
        if sweeps >= _MAX_SWEEPS:
            raise ArithmeticError("cyclic Jacobi eigensolver failed to converge")
        for p in range(n - 1):
            for t in range(p + 1, n):
                apt = a[p, t]
                if abs(apt) <= skip:
                    continue
                phi = 0.5 * math.atan2(2.0 * apt, a[t, t] - a[p, p])
                c = math.cos(phi)
                sn = math.sin(phi)
                cp = a[:, p].copy()
                ct = a[:, t].copy()
                a[:, p] = c * cp - sn * ct
                a[:, t] = sn * cp + c * ct
                rp = a[p, :].copy()
                rt = a[t, :].copy()
                a[p, :] = c * rp - sn * rt
                a[t, :] = sn * rp + c * rt
                a[p, t] = a[t, p] = 0.0
                vp = v[:, p].copy()
                vt = v[:, t].copy()
                v[:, p] = c * vp - sn * vt
                v[:, t] = sn * vp + c * vt
        sweeps += 1
    lam = np.diag(a).copy()
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    q = v[:, order].T.copy()
    for row in q:
        first = int(np.argmax(np.abs(row) > _SIGN_PICK_TOL))
        if row[first] < 0.0:
            row *= -1.0
    return lam, q


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (strictly descending) and row-eigenvectors of a symmetric matrix."""

    lam: np.ndarray
    q: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return symmetrize((self.q.T * self.lam) @ self.q)


def spectral_decompose(s) -> SpectralDecomposition:
    """Eigensystem with the simple-spectrum gate.

    Raises DegenerateSpectrum when any eigenvalue gap is at or below
    ``1e-9 * ||s||``.
    """
    lam, q = eigensystem(s)
    scale = float(np.linalg.norm(lam))
    gaps = lam[:-1] - lam[1:]
    if np.any(gaps <= SIMPLE_SPECTRUM_RTOL * scale):
        worst = float(np.min(gaps))
        raise DegenerateSpectrum(
            f"eigenvalue gap {worst:.3e} is below the simplicity "
            f"threshold {SIMPLE_SPECTRUM_RTOL * scale:.3e}"
        )
    return SpectralDecomposition(lam=lam, q=q)


@dataclass(frozen=True)
class SpectralFunction:
    """A scalar function meant to act on a symmetric matrix through its spectrum.

    Kinds: ``identity``, ``power`` (rational exponent), ``log``, ``exp``,
    ``scaled-exp`` (x -> e^(scale*x)), ``polynomial`` (coefficients in
    ascending degree, evaluated by Horner).  Instances are immutable and
    callable on floats or arrays.
    """

    kind: str
    exponent: Fraction | None = None
    scale: float | None = None
    coeffs: tuple[float, ...] | None = None

    def __post_init__(self):
        kinds = ("identity", "power", "log", "exp", "scaled-exp", "polynomial")
        if self.kind not in kinds:
            raise ValueError(f"unknown function kind {self.kind!r}")
        if self.kind == "power" and not isinstance(self.exponent, Fraction):
            raise ValueError("power needs a Fraction exponent")
        if self.kind == "scaled-exp" and self.scale is None:
            raise ValueError("scaled-exp needs a scale")
        if self.kind == "polynomial":
            if not self.coeffs:
                raise ValueError("polynomial needs at least one coefficient")
            if self.coeffs[-1] == 0.0 and len(self.coeffs) > 1:
                raise ValueError("leading polynomial coefficient must be nonzero")

    # -- constructors ------------------------------------------------------
    @classmethod
    def identity(cls) -> "SpectralFunction":
        return cls("identity")

    @classmethod
    def power(cls, k) -> "SpectralFunction":
        if isinstance(k, float) and not k.is_integer():
            raise TypeError("pass the exponent as a Fraction, int or string like '1/3'")
        return cls("power", exponent=Fraction(k))

    @classmethod
    def log(cls) -> "SpectralFunction":
        return cls("log")

    @classmethod
    def exp(cls) -> "SpectralFunction":
        return cls("exp")

    @classmethod
    def scaled_exp(cls, t: float) -> "SpectralFunction":
        return cls("scaled-exp", scale=float(t))

    @classmethod
    def polynomial(cls, coeffs: Sequence[float]) -> "SpectralFunction":
        return cls("polynomial", coeffs=tuple(float(c) for c in coeffs))

    # -- domain flags ------------------------------------------------------
    @property
    def requires_positive(self) -> bool:
        """True when the function is only defined on a strictly positive spectrum."""
        if self.kind == "log":
            return True
        if self.kind == "power":
            return self.exponent.denominator != 1
        return False

    @property
    def requires_nonzero(self) -> bool:
        """True for negative integer powers (need an invertible argument)."""
        return (
            self.kind == "power"
            and self.exponent.denominator == 1
            and self.exponent < 0
        )

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "identity":
            return x.copy()
        if self.kind == "log":
            return np.log(x)
        if self.kind == "exp":
            return np.exp(x)
        if self.kind == "scaled-exp":
            return np.exp(self.scale * x)
        if self.kind == "power":
            k = self.exponent
            if k.denominator == 1:
                return x ** int(k)
            return x ** float(k)
        # polynomial, Horner in ascending-degree coefficients
        result = np.full_like(x, self.coeffs[-1])
        for c in reversed(self.coeffs[:-1]):
            result = result * x + c
        return result


def function_values(f: SpectralFunction, lam, scale: float | None = None) -> np.ndarray:
    """Evaluate ``f`` on a spectrum after enforcing its domain requirements.

    ``scale`` sets what counts as "zero" for functions needing a nonzero
    spectrum; it defaults to the largest |eigenvalue|.
    """
    lam = np.asarray(lam, dtype=float)
    if scale is None:
        scale = float(np.abs(lam).max()) if lam.size else 1.0
    if f.requires_positive and float(lam.min()) <= 0.0:
        raise DomainViolation(
            f"{f.kind} requires a strictly positive spectrum; "
            f"smallest eigenvalue is {float(lam.min()):.6g}"
        )
    if f.requires_nonzero and float(np.min(np.abs(lam))) <= SINGULAR_RTOL * scale:
        raise DomainViolation("negative powers require an invertible argument")
    return np.asarray(f(lam), dtype=float)


def apply_function(s, f: SpectralFunction) -> np.ndarray:
    """``f(s)`` for symmetric ``s``: conjugate ``diag(f(lam))`` back from the eigenbasis.

    The identity kind returns the (symmetrized) input unchanged -- exact, and
    the hot path for integrated Toda flows.  Raises DomainViolation when the
    spectrum leaves the domain of ``f``.
    """
    a = as_symmetric(s)
    if f.kind == "identity":
        return a
    lam, q = _jacobi_eigensystem(a)
    w = function_values(f, lam, frobenius(a))
    return symmetrize((q.T * w) @ q)


def skew_part(m) -> np.ndarray:
    """Skew component of the unique skew + upper-triangular splitting.

    Entry formulas: below the diagonal copy m, above place the negated mirror,
    zero diagonal.  Exact (no arithmetic beyond negation).
    """
    a = as_square(m)
    lower = np.tril(a, -1)
    return lower - lower.T


def upper_part(m) -> np.ndarray:
    """Upper-triangular complement ``m - skew_part(m)`` (diagonal included)."""
    a = as_square(m)
    return a - skew_part(a)


def commutator(a, b) -> np.ndarray:
    """``a @ b - b @ a``; raises DimensionMismatch for incompatible shapes."""
    a = as_square(a)
    b_arr = as_square(b)
    if a.shape != b_arr.shape:
        raise DimensionMismatch(f"cannot commute shapes {a.shape} and {b_arr.shape}")
    return a @ b_arr - b_arr @ a
