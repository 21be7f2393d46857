"""Dense symmetric-matrix kernels.

This module provides the four primitives everything else is built from:

* ``qr_factor``       -- Householder QR normalized to a positive diagonal of R,
* ``spectral_decompose`` / ``eigensystem`` -- a round-robin Jacobi eigensolver
  (Brent-Luk order: each round applies disjoint rotations as one matrix),
  optionally warm-started from a nearby eigenbasis,
* ``apply_function``  -- scalar functions of a symmetric matrix via its spectrum,
* ``skew_part`` / ``upper_part`` -- the unique skew + upper-triangular splitting.

The eigensolver is deliberately *not* QR-based: QR iteration is one of the
objects under study here, so the reference spectral routine must not share
machinery with it.  The QR factorization and the eigensolver divide their
input by a power of two of its largest entry (exact) and scale the result
back, and the norms do the same at extreme scales, so results do not depend
on the input's scale.  Everything operates on plain numpy arrays at desk
scale (dimensions 2 to a few dozen); all functions are pure.
"""

from __future__ import annotations

import functools
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
START_ORTHO_TOL = 1e-12      # max |u u^T - I| of an eigensolver warm start


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


def _binade(a: np.ndarray) -> int:
    """Exponent e with max|a| in [2^(e-1), 2^e); 0 for an all-zero array.

    Dividing by 2^e is exact, and it brings the entries to at most 1, where
    their squares can neither overflow nor, for the entries that matter,
    underflow.
    """
    top = float(np.abs(a).max()) if a.size else 0.0
    return math.frexp(top)[1] if top > 0.0 else 0


def frobenius(m) -> float:
    """Frobenius norm, finite at any scale whose true norm is a finite double.

    With max|m| between 2^-200 and 2^500 the plain norm is used: no square
    that matters can underflow, none can overflow.  Outside that range
    (1e-170 * S, 1e160 * S) the norm is taken of m divided by a power of two
    and scaled back.
    """
    a = np.asarray(m, dtype=float)
    e = _binade(a)
    if -200 <= e <= 500:
        return float(np.linalg.norm(a))
    return math.ldexp(float(np.linalg.norm(np.ldexp(a, -e))), e)


def offdiag_norm(s) -> float:
    """Frobenius norm of the off-diagonal part."""
    a = np.asarray(s, dtype=float)
    return frobenius(a - np.diag(np.diag(a)))


def qr_factor(m, singular_rtol: float = SINGULAR_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """Factor ``m = q @ r`` with q orthogonal and r upper triangular, diag(r) > 0.

    Householder reflections followed by a diagonal sign fix; with the positive
    diagonal of r the factorization is the unique one in this normalization.
    Raises SingularMatrix when the smallest |r[k][k]| (the cheap singularity
    estimate the factorization itself provides) falls at or below
    ``singular_rtol * ||m||``.  The reflections run on m / 2^e, with 2^e the
    power of two just above max|m| (exact), so no column norm overflows or
    underflows; r is scaled back at the end.
    """
    a = as_square(m)
    n = a.shape[0]
    e = _binade(a)
    r = np.ldexp(a, -e)
    scale = float(np.linalg.norm(r))  # max|r| < 1: the plain norm is safe
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
            f"diagonal of R has magnitude {math.ldexp(small, e):.3e}, at or below "
            f"threshold {math.ldexp(threshold, e):.3e}; matrix is numerically singular"
        )
    signs = np.where(diag < 0.0, -1.0, 1.0)
    q = q * signs
    r = np.ldexp(signs[:, None] * r, e)
    return q, r


def eigensystem(s, *, start=None) -> tuple[np.ndarray, np.ndarray]:
    """Raw symmetric eigensystem by round-robin Jacobi rotations.

    Returns ``(lam, q)`` with eigenvalues sorted in descending order and the
    *rows* of q holding the matching unit eigenvectors, sign-fixed so the first
    entry of magnitude > 1e-12 in each row is positive:
    ``s = q.T @ diag(lam) @ q``.  No simplicity check is performed here; use
    :func:`spectral_decompose` when a simple spectrum is part of the contract.

    Sweeps run until the off-diagonal Frobenius norm drops below
    ``1e-13 * ||s||``.  ``start``, an orthogonal matrix whose rows nearly
    diagonalize ``s`` (the ``q`` of a nearby matrix), warm-starts the sweeps
    from ``start @ s @ start.T``; the result is the same eigensystem to
    roundoff, in fewer sweeps.  A start that is not an n x n finite matrix
    orthogonal to 1e-12 is refused.
    """
    a = as_symmetric(s)
    if start is None:
        return _jacobi_eigensystem(a)
    u = np.asarray(start, dtype=float)
    if u.shape != a.shape:
        raise DimensionMismatch(f"start must have shape {a.shape}, got {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("start entries must be finite")
    gap = u @ u.T - np.eye(len(u))
    if float(np.abs(gap).max()) > START_ORTHO_TOL:
        raise ValueError(f"start is not orthogonal to {START_ORTHO_TOL:g}")
    # one Newton-Schulz step squares the gap, so a chain of warm starts,
    # each fed the last result, does not drift away from orthogonal
    return _jacobi_eigensystem(a, u - 0.5 * gap @ u)


@functools.cache
def _round_robin(n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Brent-Luk round-robin schedule for n indices, built on first use.

    Each round pairs the indices into disjoint (p, t), p < t; the n - 1
    rounds of a sweep (n rounds for odd n, whose dummy index sits out one
    index per round) meet every pair exactly once.  Per round: p, t, then the
    (row, column) positions of the diagonal and off-diagonal entries that a
    round reads, then those it writes into the rotation matrix.
    """
    players = list(range(n + n % 2))  # index n is the dummy for odd n
    rounds = []
    for _ in range(len(players) - 1):
        half = len(players) // 2
        pairs = sorted((min(i, j), max(i, j)) for i, j in
                       zip(players[:half], players[::-1][:half]) if max(i, j) < n)
        p, t = (np.array(side) for side in zip(*pairs))
        arrays = (p, t, np.concatenate((p, t, p)), np.concatenate((p, t, t)),
                  np.concatenate((p, t, p, t)), np.concatenate((p, t, t, p)))
        for x in arrays:
            x.flags.writeable = False  # shared by every caller through the cache
        rounds.append(arrays)
        players = players[:1] + players[-1:] + players[1:-1]
    return tuple(rounds)


def _jacobi_eigensystem(a: np.ndarray, start: np.ndarray | None = None
                        ) -> tuple[np.ndarray, np.ndarray]:
    """The sweeps behind ``eigensystem``, on a validated symmetric matrix.

    The matrix is divided by a power of two of its largest entry first (exact)
    and the eigenvalues multiplied back, so the tolerance neither underflows
    nor overflows at any scale.  Each round applies its disjoint rotations as
    one orthogonal matrix r, each angle the inner one (|phi| <= pi/4) that
    zeroes its pair: a <- r.T a r, v <- v r.
    """
    n = a.shape[0]
    e = _binade(a)
    a = np.ldexp(a, -e)
    eye = np.eye(n)
    if start is None:
        v = eye
    else:
        a = symmetrize(start @ a @ start.T)
        v = start.T.copy()
    # max|a| < 1 now, so plain norms are safe
    tol = JACOBI_SWEEP_RTOL * np.linalg.norm(a)
    sweeps = 0
    while np.linalg.norm(a - np.diag(np.diag(a))) > tol:
        if sweeps >= _MAX_SWEEPS:
            raise ArithmeticError("Jacobi eigensolver failed to converge")
        for p, t, read_rows, read_cols, rows, cols in _round_robin(n):
            k = len(p)
            entries = a[read_rows, read_cols]
            app, att, apt = entries[:k], entries[k:2 * k], entries[2 * k:]
            d = att - app
            phi = 0.5 * np.arctan2(apt * np.copysign(2.0, d), np.abs(d))
            c, sn = np.cos(phi), np.sin(phi)
            r = eye.copy()
            r[rows, cols] = np.concatenate((c, c, sn, -sn))
            a = r.T @ a @ r
            v = v @ r
        sweeps += 1
    lam = np.ldexp(np.diag(a), e)
    order = np.argsort(-lam, kind="stable")
    q = v[:, order].T
    first = np.argmax(np.abs(q) > _SIGN_PICK_TOL, axis=1)
    flip = q[np.arange(n), first] < 0.0
    return lam[order], np.where(flip[:, None], -q, q)


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
    scale = frobenius(lam)
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
