"""Trusted kernels: the numerical cores behind the public functions.

Nothing here validates.  A kernel expects what its public caller checked
once: a finite square float array, n >= 2, exactly symmetric where it reads
a symmetric matrix.  The eigensolver is deliberately *not* QR-based, since QR
iteration is one of the objects under study: Jacobi rotation sweeps, finished
by Cayley steps once the iterate is diagonally dominant.  Its core,
``jacobi_unordered``, leaves the eigensystem in the order its passes give;
``jacobi_eigensystem`` sorts it and fixes the signs.  Cold solves are
memoized by the exact bytes of the matrix, for the 8 most recent matrices per
process, so repeated calls on one matrix return bitwise-identical results;
warm starts bypass the memo.  QR is LAPACK's.  Both divide their input by
2^``binade`` of it (exact) and scale the result back, and the norms do the
same at extreme scales, so results do not depend on the input's scale.  The
skew split has two independent builders, ``skew_part`` (``np.tril``) and
the Lax field's sign matrix ``skew_signs``; ``tridiagonal`` builds every band
matrix.  Imports nothing of matslice but ``errors``.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np
# LAPACK gesv: the gufunc np.linalg.solve calls after its per-call type checks
from numpy.linalg._umath_linalg import solve as _gesv

from .errors import DegenerateSpectrum, SingularMatrix

# Relative tolerances, sized for double precision at n <= 12.
SINGULAR_RTOL = 1e-12        # invertibility threshold on diag(R), relative to ||m||
JACOBI_SWEEP_RTOL = 1e-13    # off-diagonal Frobenius target of the eigensolver
SIMPLE_SPECTRUM_RTOL = 1e-9  # minimum eigenvalue gap counted as "simple"
TRIDIAG_RTOL = 1e-12         # band check tolerance, relative to ||s||
IRREDUCIBLE_RTOL = 1e-12     # off-diagonal coupling threshold for the adjacency graph
CAYLEY_GATE = 0.25           # off-diagonal norm / smallest diagonal gap that admits a Cayley step
COLD_MEMO_SIZE = 8           # most recent cold eigensystems kept per process
_MAX_SWEEPS = 50             # passes (sweeps or Cayley steps) before giving up
_SIGN_PICK_TOL = 1e-12       # "first nonzero" cutoff for the eigenvector sign fix


def binade(a: np.ndarray) -> int:
    """Exponent e with max|a| in [2^(e-1), 2^e), 0 for all zeros: dividing by
    2^e is exact and brings the entries to at most 1, where their squares
    neither overflow nor, for the entries that matter, underflow."""
    top = float(np.abs(a).max()) if a.size else 0.0
    return math.frexp(top)[1] if top > 0.0 else 0


def frobenius(m) -> float:
    """Frobenius norm, finite at any scale whose true norm is a finite double.

    With max|m| between 2^-200 and 2^500 the plain norm is used: no square
    that matters can underflow, none can overflow.  Outside that range the
    norm is taken of m divided by a power of two and scaled back.
    """
    a = np.asarray(m, dtype=float)
    e = binade(a)
    if -200 <= e <= 500:
        return float(np.linalg.norm(a))
    return math.ldexp(float(np.linalg.norm(np.ldexp(a, -e))), e)


def symmetrize(m) -> np.ndarray:
    """0.5 a + 0.5 a.T, the average with the transpose: exact for symmetric a, never overflows."""
    a = np.asarray(m, dtype=float)
    return 0.5 * a + 0.5 * a.T


def householder_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a = q @ r`` with q orthogonal and r upper triangular, diag(r) >= 0.

    LAPACK's Householder QR (``dgeqrf`` via ``np.linalg.qr``), then a diagonal
    sign fix (a positive diagonal makes the factorization unique), on a / 2^e,
    2^e just above max|a|: no column norm overflows, and LAPACK's scale-safe
    reflector norms keep faint columns (entries near 1e-246) from underflowing.
    """
    e = binade(a)
    q, r = np.linalg.qr(np.ldexp(a, -e))
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return q * signs, np.ldexp(signs[:, None] * r, e)


def invertible_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``householder_qr``, raising SingularMatrix when the smallest |r[k][k]|
    (the cheap singularity estimate the factorization itself provides) falls
    at or below ``1e-12 * ||a||``."""
    q, r = householder_qr(a)
    small, threshold = float(np.abs(np.diag(r)).min()), SINGULAR_RTOL * frobenius(a)
    if small <= threshold:
        raise SingularMatrix(
            f"diagonal of R has magnitude {small:.3e}, at or below "
            f"threshold {threshold:.3e}; matrix is numerically singular"
        )
    return q, r


@functools.cache
def round_robin(n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Brent-Luk round-robin schedule for n indices, built on first use.

    Each round pairs the indices into disjoint (p, t), p < t; the n - 1
    rounds of a sweep (n rounds for odd n, whose dummy index sits out one
    index per round) meet every pair exactly once.  Per round: p, t, then the
    flat positions (row * n + column) of the diagonal and off-diagonal
    entries that a round reads, then of those it writes into the rotation
    matrix.
    """
    players = list(range(n + n % 2))  # index n is the dummy for odd n
    rounds = []
    for _ in range(len(players) - 1):
        half = len(players) // 2
        pairs = sorted((min(i, j), max(i, j)) for i, j in
                       zip(players[:half], players[::-1][:half]) if max(i, j) < n)
        p, t = (np.array(side) for side in zip(*pairs))
        arrays = (p, t, np.concatenate((p, t, p)) * n + np.concatenate((p, t, t)),
                  np.concatenate((p, t, p, t)) * n + np.concatenate((p, t, t, p)))
        for x in arrays:
            x.flags.writeable = False  # shared by every caller through the cache
        rounds.append(arrays)
        players = players[:1] + players[-1:] + players[1:-1]
    return tuple(rounds)


@functools.cache
def solver_layout(n: int) -> tuple[np.ndarray, ...]:
    """Read-only arrays the eigensolver reuses at size n, built on first use:
    the identity, ``arange(n)``, the row and the column indices of the
    entries above the diagonal, and the flat positions (row * n + column) of
    those entries, then of their mirrors below it."""
    i, j = np.triu_indices(n, 1)
    arrays = (np.eye(n), np.arange(n), i, j, np.concatenate((i * n + j, j * n + i)))
    for x in arrays:
        x.flags.writeable = False  # shared by every caller through the cache
    return arrays


def _sweep(a: np.ndarray, v: np.ndarray, eye: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """One round-robin sweep: each round's disjoint rotations as one
    orthogonal r, each angle the inner one (|phi| <= pi/4) that zeroes its
    pair; a <- r.T a r, v <- v r."""
    for p, _, read, write in round_robin(len(a)):
        k = len(p)
        entries = a.take(read)
        app, att, apt = entries[:k], entries[k:2 * k], entries[2 * k:]
        d = att - app
        phi = 0.5 * np.arctan2(apt * np.copysign(2.0, d), np.abs(d))
        c, sn = np.cos(phi), np.sin(phi)
        r = eye.copy()
        r.put(write, np.concatenate((c, c, sn, -sn)))
        a = r.T @ a @ r
        v = v @ r
    return a, v


def jacobi_unordered(a: np.ndarray, start: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric eigensystem ``a = q.T @ diag(lam) @ q`` by round-robin Jacobi
    rotations finished by Cayley steps, in the order and with the row signs
    the passes leave: lam is the diagonal of the last iterate.

    Works on a / 2^e until the off-diagonal norm drops below
    ``1e-13 * ||a||``, at most 50 passes.  A pass is one rotation sweep,
    unless the off-diagonal norm is at most 1/4 of the smallest gap between
    diagonal entries: then it is one Cayley step a <- w a w.T, v <- v w.T,
    w = (I - k/2)^-1 (I + k/2) by LAPACK's LU, with the exactly
    antisymmetric k_ij = a_ij / (a_ii - a_jj) = -k_ji (i < j) built from the
    upper triangle.  ||k|| <= 1/4 then, and the step leaves an off-diagonal of
    order ||off||^2 / gap (quadratic convergence, as in eigenvector
    refinement from an approximate basis).  ``start``, an orthogonal matrix
    whose rows nearly diagonalize ``a`` in any order and with any signs (the
    q of a nearby matrix), warm-starts from ``start @ a @ start.T``: the
    same eigensystem to roundoff, mostly by Cayley steps alone.  One
    Newton-Schulz step first squares the start's distance from orthogonal,
    so a chain of starts, each the last result, cannot drift.
    """
    n = a.shape[0]
    eye, _, rows, cols, off = solver_layout(n)
    e = binade(a)
    a = np.ldexp(a, -e)
    if start is None:
        v = eye.copy()  # the cached identity is shared and read-only
    else:
        u = start - 0.5 * (start @ start.T - eye) @ start
        a = symmetrize(u @ a @ u.T)
        v = u.T.copy()
    m = len(rows)
    upper, lower = off[:m], off[m:]
    plus = eye.copy()  # I + k/2 of each Cayley step; its transpose is I - k/2
    # max|a| < 1 now, so the plain norm is safe (in any order: a is symmetric)
    tol2 = (JACOBI_SWEEP_RTOL * math.sqrt((flat := a.ravel()).dot(flat))) ** 2
    passes = 0
    while (off2 := (x := a.take(off)).dot(x)) > tol2:
        if passes >= _MAX_SWEEPS:
            raise ArithmeticError("Jacobi eigensolver failed to converge")
        d = a.diagonal()
        ranked = sorted(d.tolist())  # finite, so Python's min is numpy's, and quicker
        # off2 > 0 here, so the gate also refuses a zero gap
        if off2 <= (CAYLEY_GATE * min(map(operator.sub, ranked[1:], ranked[:-1]))) ** 2:
            half = 0.5 * x[:m] / (d[rows] - d[cols])  # k/2 above the diagonal
            plus.put(upper, 0.0 + half)  # the zero signs of eye + k/2 - k.T/2
            plus.put(lower, 0.0 - half)
            w = _gesv(plus.T, plus, signature="dd->d")  # np.linalg.solve, bitwise
            a = w @ a @ w.T
            v = v @ w.T
        else:
            a, v = _sweep(a, v, eye)
        passes += 1
    return np.ldexp(a.diagonal(), e), v.T


@functools.lru_cache(maxsize=COLD_MEMO_SIZE)
def _cold_unordered(n: int, data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``jacobi_unordered`` of the n x n matrix whose bytes are data."""
    result = jacobi_unordered(np.frombuffer(data).reshape(n, n))
    for x in result:
        x.flags.writeable = False  # shared by every caller through the cache
    return result


def unordered_eigensystem(a: np.ndarray, start: np.ndarray | None = None
                          ) -> tuple[np.ndarray, np.ndarray]:
    """``jacobi_unordered`` behind a memo of the ``COLD_MEMO_SIZE`` most recent
    cold solves, keyed by the exact bytes of a: the solver is deterministic,
    so a hit (read-only arrays) is bitwise a fresh solve.  A warm start
    neither reads nor fills the memo."""
    if start is None:
        return _cold_unordered(len(a), a.tobytes())
    return jacobi_unordered(a, start)


def jacobi_eigensystem(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cold ``unordered_eigensystem`` laid out as ``linalg.eigensystem``
    documents: new arrays, lam descending (stable sort), each row's first
    entry above 1e-12 made positive."""
    lam, q = unordered_eigensystem(a)
    order = (-lam).argsort(kind="stable")
    q = q.T[:, order].T
    first = (np.abs(q) > _SIGN_PICK_TOL).argmax(axis=1)
    flip = q[solver_layout(len(lam))[1], first] < 0.0
    return lam[order], np.where(flip[:, None], -q, q)


def simple_eigensystem(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``jacobi_eigensystem`` behind the simple-spectrum gate: raises
    DegenerateSpectrum when any eigenvalue gap is at or below
    ``1e-9 * ||lam||`` (which is ``||a||``)."""
    lam, q = jacobi_eigensystem(a)
    threshold = SIMPLE_SPECTRUM_RTOL * frobenius(lam)
    gaps = lam[:-1] - lam[1:]
    if np.any(gaps <= threshold):
        raise DegenerateSpectrum(
            f"eigenvalue gap {float(np.min(gaps)):.3e} is below the simplicity "
            f"threshold {threshold:.3e}"
        )
    return lam, q


@functools.cache
def skew_signs(n: int) -> np.ndarray:
    """Read-only signs of the skew split: +1 below the diagonal, -1 above, 0 on it."""
    signs = np.tri(n, k=-1) - np.tri(n, k=-1).T
    signs.flags.writeable = False  # shared by every caller through the cache
    return signs


def skew_part(a: np.ndarray) -> np.ndarray:
    """Skew part of the unique skew + upper-triangular splitting: below the
    diagonal a, above its negated mirror, zero diagonal; exact.  Built from
    ``np.tril``, independently of ``skew_signs``, the Lax field's split."""
    lower = np.tril(a, -1)
    return lower - lower.T


def tridiagonal(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Symmetric tridiagonal matrix with diagonal d and off-diagonals e."""
    t, n = np.diag(d), len(d)
    t.flat[1::n + 1] = t.flat[n::n + 1] = e  # above, then below the diagonal
    return t


def is_tridiagonal(a: np.ndarray) -> bool:
    """No entry off the tridiagonal band exceeds 1e-12 * ||a||: room for the
    roundoff of QR-type steps and flows, which keep the band to 1e-14 * ||a||."""
    off_band = np.triu(a, 2) + np.tril(a, -2)  # disjoint supports: the sum is exact
    return bool(np.abs(off_band).max() <= TRIDIAG_RTOL * frobenius(a))


def is_jacobi(a: np.ndarray) -> bool:
    """Tridiagonal within 1e-12 * ||a|| off the band, with superdiagonal > 0."""
    return is_tridiagonal(a) and bool(np.all(np.diag(a, 1) > 0.0))


def is_irreducible(a: np.ndarray) -> bool:
    """True when no proper coordinate subset spans an invariant subspace.

    Couplings with |a[i][j]| <= 1e-12 * ||a|| count as zero.  A proper subset
    is invariant exactly when no coupling leaves it, so the matrix is
    irreducible exactly when its coupling graph is connected: grow the set
    reachable from index 0, one layer of neighbours per pass.
    """
    n = a.shape[0]
    coupled = np.abs(a) > IRREDUCIBLE_RTOL * frobenius(a)
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    for _ in range(n - 1):
        reached |= coupled[reached].any(axis=0)
    return bool(reached.all())
