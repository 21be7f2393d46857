"""Trusted kernels: the numerical cores behind the public functions.

Nothing here validates.  A kernel expects what its public caller checked
once: a finite square float array, n >= 2, exactly symmetric where it reads
a symmetric matrix.  The eigensolver is deliberately *not* QR-based, since QR
iteration is one of the objects under study: simultaneous Jacobi steps, each
one Cayley transform over every pair, with rotation sweeps as their fallback
where a step contracts the off-diagonal norm too little.  Its core,
``jacobi_unordered``, leaves the eigensystem in the order its passes give;
``jacobi_eigensystem`` sorts it and fixes the signs.  Cold solves are
memoized by the exact bytes of the matrix, for the 8 most recent matrices per
process, so repeated calls on one matrix return bitwise-identical results;
warm starts bypass the memo.  QR is LAPACK's, by numpy's gufuncs.  Both
divide their input by 2^``binade`` of it (exact) and scale the result back,
and so do every norm and relative threshold (``tolerance``), so results do
not depend on the input's scale.  The skew split has two independent
builders, ``skew_part`` (``np.tril``) and the Lax field's sign matrix ``skew_signs``;
``tridiagonal`` builds every band matrix.  Imports nothing of matslice but
``errors``.
"""

from __future__ import annotations

import functools
import math

import numpy as np
# LAPACK's geqrf, orgqr and gesv: the gufuncs np.linalg.qr and solve call after their type checks
from numpy.linalg._umath_linalg import qr_r_raw as _geqrf, qr_reduced as _orgqr, solve as _gesv

from .errors import DegenerateSpectrum, SingularMatrix

# Relative tolerances, sized for double precision at n <= 12.
SINGULAR_RTOL = 1e-12        # invertibility threshold on diag(R), relative to ||m||
JACOBI_SWEEP_RTOL = 1e-13    # off-diagonal Frobenius target of the eigensolver
SIMPLE_SPECTRUM_RTOL = 1e-9  # minimum eigenvalue gap counted as "simple"
TRIDIAG_RTOL = 1e-12         # band check tolerance, relative to ||s||
IRREDUCIBLE_RTOL = 1e-12     # off-diagonal coupling threshold for the adjacency graph
CONTRACTION = (0.9, 0.9, 0.5)  # off-diagonal norm ratio keeping a Cayley step: pass 1, 2, 3 on
COLD_MEMO_SIZE = 8           # most recent cold eigensystems kept per process
_MAX_SWEEPS = 50             # passes (kept Cayley steps or sweeps) before giving up
_SIGN_PICK_TOL = 1e-12       # "first nonzero" cutoff for the eigenvector sign fix


def binade(a: np.ndarray) -> int:
    """Exponent e with max|a| in [2^(e-1), 2^e), 0 for all zeros: dividing by
    2^e is exact and brings the entries to at most 1, where their squares
    neither overflow nor, for the entries that matter, underflow."""
    top = float(np.abs(a).max()) if a.size else 0.0
    return math.frexp(top)[1] if top > 0.0 else 0


def tolerance(rtol: float, m) -> float:
    """rtol * ||m||_F, formed on m / 2^``binade(m)`` (exact) and scaled back: finite
    wherever the product is a finite double, else an OverflowError that names it."""
    a = np.asarray(m, dtype=float)
    x = rtol * float(np.linalg.norm(np.ldexp(a, -(e := binade(a)))))
    try:
        return math.ldexp(x, e)
    except OverflowError:
        raise OverflowError(f"{rtol:g} * ||m||_F = {x:g} * 2^{e}, past the double range") from None


def frobenius(m) -> float:
    """Frobenius norm, ``tolerance(1.0, m)``: finite wherever it is a finite double."""
    return tolerance(1.0, m)


def offdiag_norm(a: np.ndarray) -> float:
    """Frobenius norm of the off-diagonal part."""
    return frobenius(a - np.diag(np.diag(a)))


def symmetrize(m) -> np.ndarray:
    """0.5 a + 0.5 a.T, the average with the transpose: exact for symmetric a, never overflows."""
    a = np.asarray(m, dtype=float)
    return 0.5 * a + 0.5 * a.T


def householder_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a = q @ r`` with q orthogonal and r upper triangular, diag(r) >= 0.

    LAPACK's Householder QR (``dgeqrf``, then ``dorgqr`` for q, the gufuncs
    ``np.linalg.qr`` calls: bitwise its q and r), then a diagonal sign fix (a
    positive diagonal makes the factorization unique), on a / 2^e, 2^e just
    above max|a|: no column norm overflows, and LAPACK's scale-safe reflector
    norms keep faint columns (entries near 1e-246) from underflowing.
    """
    e = binade(a)
    m = np.ldexp(a, -e)  # dgeqrf overwrites it: r on and above the diagonal
    q = _orgqr(m, _geqrf(m, signature="d->d"), signature="dd->d")
    r = np.triu(m)
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return q * signs, np.ldexp(signs[:, None] * r, e)


def invertible_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``householder_qr``, raising SingularMatrix when the smallest |r[k][k]|
    (the cheap singularity estimate the factorization itself provides) falls
    at or below ``1e-12 * ||a||``."""
    q, r = householder_qr(a)
    small, threshold = float(np.abs(np.diag(r)).min()), tolerance(SINGULAR_RTOL, a)
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
        a = r.T.dot(a).dot(r)
        v = v.dot(r)
    return a, v


def jacobi_unordered(a: np.ndarray, start: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric eigensystem ``a = q.T @ diag(lam) @ q`` by simultaneous
    Jacobi steps, with round-robin sweeps as their fallback, in the order and
    with the row signs the passes leave: lam is the diagonal of the last
    iterate.

    Works on a / 2^e until the off-diagonal norm drops below
    ``1e-13 * ||a||``, at most 50 passes.  A pass takes, for every pair
    p < t at once, the inner angle phi (|phi| <= pi/4) that zeroes the pair
    in its own 2 x 2 block, the angle a sweep takes, and applies them all as
    one Cayley transform a <- w.T a w, v <- v w, w = (I - g/2)^-1 (I + g/2)
    by LAPACK's LU, with the exactly antisymmetric g_pt = 2 tan(phi/2) =
    -g_tp built from the upper triangle (for one pair, w is that pair's
    rotation).  The step is kept when it brings the off-diagonal norm to 0.9
    of its value in the first two passes, to half of it later
    (``CONTRACTION``); otherwise it is dropped and the pass is one rotation
    sweep instead.  Near convergence g is -a_pt / (a_pp - a_tt) to first
    order, so the steps leave an off-diagonal of order ||off||^2 / gap
    (quadratic convergence, as in eigenvector refinement from an
    approximate basis).  ``start``, an orthogonal matrix whose rows
    nearly diagonalize ``a`` in any order and with any signs (the q of a
    nearby matrix), warm-starts from ``start @ a @ start.T``: the same
    eigensystem to roundoff, mostly by Cayley steps alone.  One
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
        u = start - 0.5 * (start.dot(start.T) - eye).dot(start)
        a, v = u.dot(a).dot(u.T), u.T  # v is only read: no copy
    m = len(rows)
    upper, lower = off[:m], off[m:]
    plus = eye.copy()  # I + g/2 of each Cayley step; its transpose is I - g/2
    # max|a| < 1 now, so the plain norm is safe
    tol2 = (JACOBI_SWEEP_RTOL * math.sqrt((flat := a.ravel()).dot(flat))) ** 2
    off2 = (x := a.take(off)).dot(x)
    passes = 0
    while off2 > tol2:
        if passes >= _MAX_SWEEPS:
            raise ArithmeticError("Jacobi eigensolver failed to converge")
        d = a.diagonal()
        gap = d[cols] - d[rows]
        half = np.tan(0.25 * np.arctan2(x[:m] * np.copysign(2.0, gap), np.abs(gap)))
        plus.put(upper, 0.0 + half)  # the zero signs of eye + g/2 - g.T/2
        plus.put(lower, 0.0 - half)
        w = _gesv(plus.T, plus, signature="dd->d")  # np.linalg.solve, bitwise
        b = w.T.dot(a).dot(w)
        if (step2 := (y := b.take(off)).dot(y)) <= CONTRACTION[min(passes, 2)] ** 2 * off2:
            a, v, x, off2 = b, v.dot(w), y, step2
        else:
            a, v = _sweep(a, v, eye)
            off2 = (x := a.take(off)).dot(x)
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


def simplicity_margin(lam: np.ndarray) -> tuple[float, float]:
    """Smallest gap of a descending lam and the one simplicity gate, 1e-9 * ||lam||,
    both formed on lam / 2^e (exact) and scaled back: a gap past the double range is inf."""
    x = np.ldexp(lam, -(e := binade(lam)))
    with np.errstate(over="ignore"):
        return float(np.ldexp((x[:-1] - x[1:]).min(), e)), tolerance(SIMPLE_SPECTRUM_RTOL, lam)


def simple_eigensystem(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``jacobi_eigensystem`` behind the gate of ``simplicity_margin``: raises
    DegenerateSpectrum when the smallest eigenvalue gap is at or below
    ``1e-9 * ||lam||`` (which is ``||a||``)."""
    lam, q = jacobi_eigensystem(a)
    gap, threshold = simplicity_margin(lam)
    if gap <= threshold:
        raise DegenerateSpectrum(
            f"eigenvalue gap {gap:.3e} is below the simplicity threshold {threshold:.3e}"
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
    return bool(np.abs(off_band).max() <= tolerance(TRIDIAG_RTOL, a))


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
    coupled = np.abs(a) > tolerance(IRREDUCIBLE_RTOL, a)
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    for _ in range(n - 1):
        reached |= coupled[reached].any(axis=0)
    return bool(reached.all())
