"""QR-type steps on symmetric matrices and the slice structure they live on.

A slice here is the set of symmetric matrices reachable from a starting point
by conjugating with the orthogonal factor of f(S) for functions f that do not
vanish on the spectrum.  In the eigenbasis that is one operation on
log-weights, ``weighted_conjugate``, which alone shifts and refuses them:
log|f| gives ``functional_step`` (f(x) = x is one QR step), log w
``slice_point`` and t g the Toda/Lax flows of ``toda``.  The k-th root gives
fractional steps whose rescaled differences converge to the interpolating
vector field [S, skew_part(log S)].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .errors import DomainViolation, SingularMatrix
from .kernels import IRREDUCIBLE_RTOL  # the coupling threshold of is_irreducible
from .linalg import SpectralFunction, as_symmetric, as_vector, symmetrize

_EXP_SPREAD_LIMIT = 700.0  # beyond this, weight ratios underflow double precision


def as_time_grid(times) -> np.ndarray:
    """Sample times as a float array: nonempty, 1-d, finite, strictly increasing."""
    times = as_vector(times, "sample times")
    if np.any(times[1:] <= times[:-1]):
        raise ValueError("sample times must be strictly increasing")
    return times


@dataclass
class Trajectory:
    """A sampled matrix path: strictly increasing times, one finite state per time."""

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
            if not np.isfinite(state).all():
                raise ValueError("trajectory states must be finite")

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


def weighted_conjugate(lam, q, u) -> np.ndarray:
    """Q.T diag(lam) Q, where Q is the orthogonal QR factor of diag(exp(u)) @ q.

    With s = q.T diag(lam) q (eigenvectors in the rows of q) this is the one
    operation behind every slice move, with log-weights u = t g(lam) for a Lax
    flow at time t, log|f(lam)| for a functional step or log w for a slice
    point.  Only differences of u matter: the largest weight is made exactly 1.
    Raises SingularMatrix when max u - min u exceeds 700 (or u is not finite),
    an exponent spread that double precision cannot resolve.
    """
    u = np.asarray(u, dtype=float)
    top, bottom = float(u.max()), float(u.min())
    spread = top - bottom if math.isfinite(bottom) else math.inf
    if not spread <= _EXP_SPREAD_LIMIT:
        raise SingularMatrix(f"log-weight spread {spread:.6g} exceeds {_EXP_SPREAD_LIMIT:.0f}; "
                             "the weighted QR factor is undefined in double precision")
    w = np.exp(u - top)
    # Householder elimination only keeps the faint rows accurate when the
    # dominant rows come first; factor the row-sorted matrix instead and
    # undo the permutation on the orthogonal factor.  P^T Qtilde is
    # orthogonal and Rtilde stays upper with positive diagonal, so by
    # uniqueness this *is* the orthogonal factor of diag(w) q itself.
    order = np.argsort(-w, kind="stable")
    qtilde, _ = kernels.householder_qr(w[order, None] * q[order, :])
    qf = qtilde[np.argsort(order), :]
    return symmetrize((qf.T * lam).dot(qf))


def _step(a: np.ndarray, f: SpectralFunction) -> np.ndarray:
    """``functional_step`` on a validated symmetric array: the identity by QR,
    every other f by its log-weights, ``SpectralFunction.step_log_weights``."""
    if f.kind == "identity":
        q, r = kernels.invertible_qr(a)
        return symmetrize(r.dot(q))
    lam, q = kernels.jacobi_eigensystem(a)
    return weighted_conjugate(lam, q, f.step_log_weights(lam))


def qr_step(s) -> np.ndarray:
    """One QR step: s = q r  ->  r q (equivalently q.T s q, or r s r^-1).

    Requires invertibility only; SingularMatrix propagates from the factorization.
    """
    return _step(as_symmetric(s), SpectralFunction.identity())


def functional_step(s, f: SpectralFunction) -> np.ndarray:
    """Conjugate s by the orthogonal factor of f(s).

    ``f`` must be defined on the spectrum of ``s`` (DomainViolation
    otherwise), and |f| must neither vanish on it nor spread beyond e^700
    (SingularMatrix otherwise); negative values are fine.  The identity gives
    the plain QR step, and f(x) = x^k exactly k of them; scaling f by a
    positive constant does not change the result.
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
    return weighted_conjugate(lam, q, np.log(w / w.max()))


def is_irreducible(s) -> bool:
    """True when the coupling graph (|s[i][j]| > 1e-12 * ||s||) is connected."""
    return kernels.is_irreducible(as_symmetric(s))
