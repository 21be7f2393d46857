"""Validated entry points to the dense symmetric-matrix kernels.

Householder QR normalized to a positive diagonal of R (``qr_factor``), a
Jacobi eigensolver by simultaneous Cayley steps with round-robin sweeps as
their fallback (``eigensystem``, ``spectral_decompose``), scalar functions of
a symmetric matrix through its spectrum (``apply_function``) and the unique
skew + upper-triangular splitting.  Each checks its matrices once and hands
them to ``matslice.kernels``, which holds the algorithms and validates nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import kernels
from .errors import DimensionMismatch, DomainViolation
from .kernels import frobenius, symmetrize


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


def as_vector(v, what: str, n: int | None = None) -> np.ndarray:
    """Copy ``v`` into a finite 1-d float array of length ``n`` (nonempty if n is None)."""
    a = np.array(v, dtype=float)
    if a.ndim != 1 or (len(a) == 0 if n is None else len(a) != n):
        want = "a nonempty 1-d array" if n is None else f"a 1-d array of length {n}"
        raise ValueError(f"{what} must be {want}, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} must be finite")
    return a


def as_spectrum(lam, n: int | None = None) -> np.ndarray:
    """``as_vector`` of a simple spectrum: at least two values, strictly descending."""
    lam = as_vector(lam, "spectrum", n)
    if len(lam) < 2 or np.any(lam[1:] >= lam[:-1]):
        raise ValueError("spectrum must list at least two strictly descending values")
    return lam


SYMMETRY_RTOL = 1e-8  # asymmetry beyond this is a caller error, not roundoff


def as_symmetric(m) -> np.ndarray:
    """Validated square matrix, symmetrized to clean up roundoff.

    Genuinely asymmetric input (max|a - a.T| above SYMMETRY_RTOL * max|a|,
    the same at every scale) is rejected rather than silently
    averaged.  Check and average work on halves, which cannot overflow.
    """
    half = 0.5 * as_square(m)
    gap, top = float(np.abs(half - half.T).max()), float(np.abs(half).max())
    if gap > SYMMETRY_RTOL * top:
        raise ValueError(
            f"matrix is not symmetric (relative asymmetry {gap / top:.3e}); refusing to average it"
        )
    return half + half.T  # bitwise symmetrize(a)


def offdiag_norm(s) -> float:
    """Frobenius norm of the off-diagonal part of a finite square matrix."""
    return kernels.offdiag_norm(as_square(s))


def qr_factor(m) -> tuple[np.ndarray, np.ndarray]:
    """Factor ``m = q @ r`` with q orthogonal and r upper triangular, diag(r) > 0.

    Raises SingularMatrix when the smallest |r[k][k]| falls at or below
    ``1e-12 * ||m||``; see ``kernels.householder_qr``.
    """
    return kernels.invertible_qr(as_square(m))


def eigensystem(s) -> tuple[np.ndarray, np.ndarray]:
    """Raw symmetric eigensystem ``(lam, q)``, ``s = q.T @ diag(lam) @ q``.

    Eigenvalues descending, eigenvectors in the *rows* of q, sign-fixed so
    the first entry of magnitude > 1e-12 in each row is positive; see
    ``kernels.jacobi_eigensystem``.  No simplicity check is performed here;
    use :func:`spectral_decompose` when a simple spectrum is part of the
    contract.
    """
    return kernels.jacobi_eigensystem(as_symmetric(s))


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
    return SpectralDecomposition(*kernels.simple_eigensystem(as_symmetric(s)))


@dataclass(frozen=True)
class SpectralFunction:
    """A scalar function meant to act on a symmetric matrix through its spectrum.

    Kinds: ``identity``, ``power`` (rational exponent), ``log``, ``exp``,
    ``polynomial`` (coefficients in ascending degree, evaluated by Horner).
    Instances are immutable and callable on floats or arrays, and they hold
    every rule that depends on the kind: the domain, the polynomial form and
    the log-weights of the slice moves.
    """

    kind: str
    exponent: Fraction | None = None
    coeffs: tuple[float, ...] | None = None

    def __post_init__(self):
        kinds = ("identity", "power", "log", "exp", "polynomial")
        if self.kind not in kinds:
            raise ValueError(f"unknown function kind {self.kind!r}")
        if self.kind == "power" and not isinstance(self.exponent, Fraction):
            raise ValueError("power needs a Fraction exponent")
        if self.kind == "polynomial":
            if not self.coeffs:
                raise ValueError("polynomial needs at least one coefficient")
            if self.coeffs[-1] == 0.0 and len(self.coeffs) > 1:
                raise ValueError("leading polynomial coefficient must be nonzero")
        if not np.all(np.isfinite(self.coeffs or ())):
            raise ValueError("coefficients must be finite")

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
    def polynomial(cls, coeffs: Sequence[float]) -> "SpectralFunction":
        return cls("polynomial", coeffs=tuple(float(c) for c in coeffs))

    # -- kind rules --------------------------------------------------------
    @property
    def coefficients(self) -> tuple[float, ...] | None:
        """Ascending coefficients when f is a polynomial (the identity, x^k for
        an integer k >= 0, ``polynomial``), None otherwise."""
        if self.kind == "identity":
            return (0.0, 1.0)
        if self.kind == "power" and self.exponent.denominator == 1 and self.exponent >= 0:
            return (0.0,) * int(self.exponent) + (1.0,)
        return self.coeffs

    def check_domain(self, lam) -> np.ndarray:
        """``lam`` as floats, or DomainViolation where f is undefined: log and
        fractional powers need a positive spectrum, negative integer powers an
        invertible one (an eigenvalue at or below 1e-12 * ||lam|| counts as zero)."""
        lam = np.asarray(lam, dtype=float)
        root = self.kind == "power" and self.exponent.denominator != 1
        if (root or self.kind == "log") and float(lam.min()) <= 0.0:
            raise DomainViolation(f"{self.kind} requires a strictly positive spectrum; "
                                  f"smallest eigenvalue is {float(lam.min()):.6g}")
        if (self.kind == "power" and not root and self.exponent < 0
                and float(np.min(np.abs(lam))) <= kernels.tolerance(kernels.SINGULAR_RTOL, lam)):
            raise DomainViolation("negative powers require an invertible argument")
        return lam

    def step_log_weights(self, lam) -> np.ndarray:
        """log|f(lam)| up to a constant, the log-weights of a functional step:
        k log|lam| for x^k (k != 0) and lam for exp, which never form f (it may
        overflow); any other f over max|f|, exact under 2^m scaling.  A zero of
        f gives -inf, an overflow inf or NaN: ``kernels.weighted_conjugate``
        refuses both as spread inf."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if self.kind == "exp":
                return np.array(lam, dtype=float)
            if self.kind == "power" and self.exponent:
                return float(self.exponent) * np.log(np.abs(self.check_domain(lam)))
            w = np.abs(self.values(lam))
            return np.log(w / (w.max() or 1.0))

    def flow_log_weights(self, lam, times: np.ndarray) -> list[np.ndarray]:
        """t g(lam) for each time t, the log-weights of the Lax flow of g; for
        exp and x^k (k != 0) sign(t) sign(g(lam)) e^(log|g(lam)| + log|t|) (0 at
        t = 0), log|g| as a step takes it, as g(lam) may overflow where t g(lam)
        does not.  An overflow gives inf, refused as spread inf."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if self.kind == "exp" or (self.kind == "power" and self.exponent):
                logs = self.step_log_weights(lam)
                signs = np.sign(lam) ** float(self.exponent) if self.exponent else 1.0
                return [signs * np.copysign(np.exp(logs + math.log(abs(t))), t) if t
                        else 0.0 * lam for t in times.tolist()]
            vals = self.values(lam)
            return [t * vals for t in times]

    def values(self, lam) -> np.ndarray:
        """f on a spectrum inside its domain (``check_domain``), as floats: the
        unchecked core of ``function_values``, for spectra the caller computed."""
        return np.asarray(self(self.check_domain(lam)), dtype=float)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "identity":
            return x.copy()
        if self.kind == "log":
            return np.log(x)
        if self.kind == "exp":
            return np.exp(x)
        if self.kind == "power":
            k = self.exponent
            return x ** int(k) if k.denominator == 1 else x ** float(k)
        # polynomial, Horner in ascending-degree coefficients
        result = np.full_like(x, self.coeffs[-1])
        for c in reversed(self.coeffs[:-1]):
            result = result * x + c
        return result


def function_values(f: SpectralFunction, lam) -> np.ndarray:
    """Evaluate ``f`` on a spectrum: finite, nonempty and 1-d (ValueError
    otherwise), inside the domain of ``f`` (``SpectralFunction.check_domain``) and
    finite (DomainViolation when a value overflows)."""
    lam = as_vector(lam, "spectrum")
    return kernels.in_double_range(f"{f.kind} of this spectrum", lambda: f.values(lam))


def apply_function(s, f: SpectralFunction) -> np.ndarray:
    """``f(s)`` for symmetric ``s``: conjugate ``diag(f(lam))`` back from the eigenbasis.

    The identity kind returns the (symmetrized) input unchanged, exactly.
    Raises DomainViolation when the spectrum leaves the domain of ``f`` or
    ``f(s)`` overflows.
    """
    a = as_symmetric(s)
    if f.kind == "identity":
        return a
    lam, q = kernels.jacobi_eigensystem(a)
    return kernels.in_double_range(f"{f.kind} of this matrix",
                                   lambda: symmetrize((q.T * f.values(lam)) @ q))


def skew_part(m) -> np.ndarray:
    """Skew component of the unique skew + upper-triangular splitting; see
    ``kernels.skew_part``."""
    return kernels.skew_part(as_square(m))


def upper_part(m) -> np.ndarray:
    """Upper-triangular complement ``m - skew_part(m)`` (diagonal included);
    DomainViolation when an entry overflows."""
    a = as_square(m)
    return kernels.in_double_range("the upper part", lambda: a - kernels.skew_part(a))


def commutator(a, b) -> np.ndarray:
    """``a @ b - b @ a``: DimensionMismatch for unequal shapes, DomainViolation on overflow."""
    a = as_square(a)
    b_arr = as_square(b)
    if a.shape != b_arr.shape:
        raise DimensionMismatch(f"cannot commute shapes {a.shape} and {b_arr.shape}")
    return kernels.in_double_range("the commutator", lambda: a @ b_arr - b_arr @ a)
