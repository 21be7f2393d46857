"""QR-type steps on symmetric matrices and the slice structure they live on.

A slice here is the set of symmetric matrices reachable from a starting point
by conjugating with the orthogonal factor of f(S) for functions f that do not
vanish on the spectrum.  In the eigenbasis that is one operation,
``weighted_conjugate``: one QR step (factor, swap, multiply) is the f(x) = x
case, general f gives ``functional_step``, positive weights give
``slice_point``, and exp(t g) gives the Toda/Lax flows of ``toda``.  The k-th
root gives fractional steps whose rescaled differences converge to the
interpolating vector field [S, skew_part(log S)].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .errors import DomainViolation, SingularMatrix
from .kernels import IRREDUCIBLE_RTOL  # the coupling threshold of is_irreducible
from .linalg import SpectralFunction, as_symmetric, as_vector, function_values, symmetrize

_EXP_SPREAD_LIMIT = 700.0  # beyond this, weight ratios underflow double precision


def as_time_grid(times) -> np.ndarray:
    """Sample times as a float array: nonempty, 1-d, finite, strictly increasing."""
    times = as_vector(times, "sample times")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("sample times must be strictly increasing")
    return times


@dataclass
class Trajectory:
    """A sampled matrix path: strictly increasing times, one state per time."""

    times: np.ndarray
    states: list[np.ndarray]

    def __post_init__(self):
        self.times = as_time_grid(self.times)
        if len(self.times) != len(self.states):
            raise ValueError("times and states must align one to one")
        n = self.states[0].shape[0]
        for state in self.states:
            if state.shape != (n, n):
                raise ValueError("all states must share one square shape")

    def __len__(self) -> int:
        return len(self.states)

    @property
    def n(self) -> int:
        return self.states[0].shape[0]

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def trusted(cls, **fields):
    """``cls(**fields)`` for fields the caller has checked, skipping ``__post_init__``."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def weighted_conjugate(lam, q, w) -> np.ndarray:
    """Q.T diag(lam) Q, where Q is the orthogonal QR factor of diag(w) @ q.

    With s = q.T diag(lam) q (eigenvectors in the rows of q) this is s
    conjugated by the orthogonal factor of q.T diag(w) q: the one operation
    behind every slice move, with w = f(lam) for a functional step, the
    weights of a slice point, or exp(t g(lam)) for a Lax flow at time t.
    The signs of w drop out and only its ratios matter; w is divided by its
    largest magnitude, which is exact under power-of-two scaling.  Raises
    SingularMatrix when the smallest ratio is below e^-700, an exponent
    spread that double precision cannot resolve.
    """
    w = np.abs(np.asarray(w, dtype=float))
    with np.errstate(invalid="ignore"):  # a zero or infinite maximum gives NaN, refused below
        w = w / w.max()
    smallest = float(w.min())
    if not smallest >= math.exp(-_EXP_SPREAD_LIMIT):
        raise SingularMatrix(
            f"smallest weight ratio {smallest:.3e} is below e^-{_EXP_SPREAD_LIMIT:.0f}; "
            "the weighted QR factor is undefined in double precision"
        )
    # Householder elimination only keeps the faint rows accurate when the
    # dominant rows come first; factor the row-sorted matrix instead and
    # undo the permutation on the orthogonal factor.  P^T Qtilde is
    # orthogonal and Rtilde stays upper with positive diagonal, so by
    # uniqueness this *is* the orthogonal factor of diag(w) q itself.
    order = np.argsort(-w, kind="stable")
    qtilde, _ = kernels.householder_qr(w[order, None] * q[order, :])
    qf = qtilde[np.argsort(order), :]
    return symmetrize((qf.T * lam) @ qf)


def _step(a: np.ndarray, f: SpectralFunction) -> np.ndarray:
    """``functional_step`` on a validated symmetric array."""
    if f.kind == "identity":
        q, r = kernels.invertible_qr(a)
        return symmetrize(r @ q)
    lam, q = kernels.jacobi_eigensystem(a)
    return weighted_conjugate(lam, q, function_values(f, lam))


def qr_step(s) -> np.ndarray:
    """One QR step: s = q r  ->  r q (equivalently q.T s q, or r s r^-1).

    Requires invertibility only; SingularMatrix propagates from the factorization.
    """
    return _step(as_symmetric(s), SpectralFunction.identity())


def functional_step(s, f: SpectralFunction) -> np.ndarray:
    """Conjugate s by the orthogonal factor of f(s).

    ``f`` must be defined on the spectrum of ``s`` (DomainViolation
    otherwise) and must not vanish on it (SingularMatrix otherwise);
    negative values are fine.  The identity gives the plain QR step, and
    f(x) = x^k exactly k of them; scaling f by a positive constant does not
    change the result.
    """
    return _step(as_symmetric(s), f)


def fractional_step(s, k: int) -> np.ndarray:
    """The k-th root step: functional_step with f(x) = x^(1/k).

    Composing it k times reproduces one full QR step on a positive spectrum.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError("k must be a positive integer")
    return functional_step(s, SpectralFunction.power(Fraction(1, int(k))))


def iterate_qr(s, steps: int, f: SpectralFunction = SpectralFunction.identity()) -> Trajectory:
    """Repeated functional steps; sample index doubles as time."""
    if not isinstance(steps, (int, np.integer)) or steps < 0:
        raise ValueError("steps must be a nonnegative integer")
    state = as_symmetric(s)
    states = [state]
    for _ in range(int(steps)):
        state = _step(state, f)
        states.append(state)
    return trusted(Trajectory, times=np.arange(len(states), dtype=float), states=states)


def slice_point(s, w) -> np.ndarray:
    """Point of the slice through ``s`` selected by positive spectral weights.

    Conjugates ``s`` by the orthogonal factor of q.T diag(w) q, with q the
    eigenbasis of ``s`` (eigenvalues descending); see ``weighted_conjugate``.
    Only weight ratios matter, so w and c*w (c > 0) give the same point.
    Raises DomainViolation for nonpositive weights and DegenerateSpectrum
    when the spectrum of ``s`` is not simple.
    """
    a = as_symmetric(s)
    w = as_vector(w, "weights", a.shape[0])
    if float(w.min()) <= 0.0:
        raise DomainViolation("slice weights must be strictly positive")
    lam, q = kernels.simple_eigensystem(a)
    return weighted_conjugate(lam, q, w)


def is_irreducible(s) -> bool:
    """True when the coupling graph (|s[i][j]| > 1e-12 * ||s||) is connected."""
    return kernels.is_irreducible(as_symmetric(s))
