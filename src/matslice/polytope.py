"""Spectral polytopes and the diagonal-of-conjugates map.

For a symmetric matrix with simple spectrum lam and orthonormal eigenvector
rows q, the squared eigenvector matrix sends the spectrum to the point

    p_i = sum_k lam_k * q[i, k]**2,

which always lies in the convex hull of the n! permutations of lam (the
permutohedron of the spectrum).  Vertices of that hull reachable by the
long-time limits of isospectral flows are detected by nested leading minors
of the eigenvector matrix; |det| of a leading minor does not depend on the
order of its rows, so each row set is factored once.  Membership in the hull
is decided two independent ways: a phase-1 simplex looking for a doubly
stochastic D with p = D lam (Hardy-Littlewood-Polya, Birkhoff-von Neumann),
and the majorization inequalities on sorted prefix sums.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotIrreducible, TooLarge
from .linalg import spectral_decompose
from .slices import is_irreducible

MINOR_TOL = 1e-10
FEASIBILITY_TOL = 1e-8
MAJORIZATION_TOL = 1e-9
MAX_VERTEX_N = 8
_SIMPLEX_COST_TOL = 1e-11
_SIMPLEX_RATIO_TOL = 1e-12


@dataclass
class VertexSet:
    """Vertices of a spectral polytope, tagged by their permutations.

    ``perms`` are 0-based index tuples: vertex ``points[i]`` equals
    ``lam[list(perms[i])]``.  ``near_threshold`` flags permutations whose
    deciding minor fell within a decade of the detection cutoff.
    """

    lam: np.ndarray
    points: np.ndarray
    perms: tuple[tuple[int, ...], ...]
    affine_dim: int
    near_threshold: tuple[tuple[int, ...], ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.perms)


def _as_spectrum(lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1 or len(lam) < 2:
        raise ValueError("need a 1-d spectrum with at least two values")
    if not np.all(np.isfinite(lam)):
        raise ValueError("spectrum must be finite")
    return lam


def _as_point(point, lam: np.ndarray) -> np.ndarray:
    """A finite point in the space of the spectrum, for either membership test."""
    point = np.asarray(point, dtype=float)
    if point.shape != lam.shape:
        raise ValueError("point and spectrum sizes differ")
    if not np.all(np.isfinite(point)):
        raise ValueError("point must be finite")
    return point


def _validate_spectrum(lam) -> np.ndarray:
    lam = _as_spectrum(lam)
    if np.any(np.diff(lam) >= 0.0):
        raise ValueError("spectrum must be strictly descending")
    return lam


def permutohedron_vertices(lam) -> VertexSet:
    """All n! permutations of a strictly descending spectrum."""
    return spectral_polytope(_validate_spectrum(lam))


def bfr_map(s) -> np.ndarray:
    """Image of a symmetric matrix: coordinate i mixes the eigenvalues with
    weights (component i of each eigenvector)^2.

    Algebraically this is the diagonal of the matrix, reassembled through the
    spectral data; it is invariant, exactly in floating point, under any sign
    flips of the eigenvector rows, because only squares of entries enter.
    """
    dec = spectral_decompose(s)
    return dec.lam @ (dec.q * dec.q)


def accessible_vertices(s) -> VertexSet:
    """Permutations whose nested leading minors of the eigenvector matrix
    are all nonzero; these are the hull vertices reachable by sorting flows.

    Each minor is factored once per row set (2^n - 2 in all); listing the
    accepted permutations keeps the n <= 8 cap.  Requires an irreducible
    matrix with simple spectrum.
    """
    if not is_irreducible(s):
        raise NotIrreducible("vertex accessibility needs an irreducible matrix")
    dec = spectral_decompose(s)
    n = len(dec.lam)
    if n > MAX_VERTEX_N:
        raise TooLarge(f"checking {n}! permutations is past the desk scale")
    # |det| of the leading k x k minor of the eigenvector matrix on each row
    # set, indexed by the bit mask of the rows; the row order of a permutation
    # prefix does not change |det|.  Columns: the leading eigenvalues.
    minors = np.zeros(1 << n)
    for k in range(1, n):
        rows = np.array(list(itertools.combinations(range(n), k)))
        minors[(1 << rows).sum(axis=1)] = np.abs(np.linalg.det(dec.q[rows, :k]))
    perms = np.array(list(itertools.permutations(range(n))))
    closest = minors[np.cumsum(1 << perms[:, :-1], axis=1)].min(axis=1)
    ok = closest > MINOR_TOL
    accepted = tuple(map(tuple, perms[ok].tolist()))
    near = tuple(map(tuple, perms[ok & (closest < MINOR_TOL * 10.0)].tolist()))
    points = dec.lam[perms[ok]]
    return VertexSet(lam=dec.lam.copy(), points=points, perms=accepted,
                     affine_dim=_affine_dim(points), near_threshold=near)


def spectral_polytope(lam) -> VertexSet:
    """The permutohedron of a spectrum, with repeated eigenvalues allowed.

    Ties collapse coinciding vertices, so the result can have fewer than n!
    points and a lower affine dimension than the simple-spectrum polytope.
    """
    lam = _as_spectrum(lam)
    if np.any(np.diff(lam) > 0.0):
        raise ValueError("spectrum must be non-increasing")
    n = len(lam)
    if n > MAX_VERTEX_N:
        raise TooLarge(f"enumerating {n}! permutations is past the desk scale")
    perms = np.array(list(itertools.permutations(range(n))))
    _, first = np.unique(lam[perms], axis=0, return_index=True)
    perms = perms[np.sort(first)]  # one permutation per point, the first
    points = lam[perms]
    return VertexSet(lam=lam, points=points, perms=tuple(map(tuple, perms.tolist())),
                     affine_dim=_affine_dim(points))


def majorization_member(point, lam, tol: float = MAJORIZATION_TOL) -> bool:
    """Hull membership by sorted prefix sums: every partial sum of the point,
    sorted descending, stays at or below the matching partial sum of the
    spectrum, with exact equality of the totals.  The spectrum may come in
    any order; both inputs are checked as in ``hull_member``."""
    lam = _as_spectrum(lam)
    p = np.sort(_as_point(point, lam))[::-1]
    l = np.sort(lam)[::-1]
    if abs(p.sum() - l.sum()) > tol * max(1.0, float(np.abs(l).sum())):
        return False
    return bool(np.all(np.cumsum(p) <= np.cumsum(l) + tol * max(1.0, float(np.abs(l).max()))))


def _phase1_residual(A: np.ndarray, b: np.ndarray) -> float:
    """Minimal l1 infeasibility of A x = b, x >= 0, by the phase-1 simplex.

    Textbook dense tableau with one artificial variable per row and Bland's
    rule, which cannot cycle.  Returns the optimal artificial mass; zero
    (to rounding) means the system is feasible.
    """
    m, n = A.shape
    A = A.copy()
    b = b.copy()
    for i in range(m):
        if b[i] < 0.0:
            A[i] *= -1.0
            b[i] *= -1.0
    # columns: n structural, m artificial, then the rhs
    t = np.zeros((m + 1, n + m + 1))
    t[:m, :n] = A
    t[:m, n:n + m] = np.eye(m)
    t[:m, -1] = b
    # phase-1 objective: sum of artificials, written in terms of nonbasics
    t[m, :n] = -A.sum(axis=0)
    t[m, -1] = -b.sum()
    basis = list(range(n, n + m))

    max_iters = 500 * (n + m + 1)
    for _ in range(max_iters):
        candidates = np.flatnonzero(t[m, :-1] < -_SIMPLEX_COST_TOL)
        if len(candidates) == 0:
            break
        enter = int(candidates[0])
        leave, best_ratio = -1, math.inf
        for i in range(m):
            if t[i, enter] > _SIMPLEX_RATIO_TOL:
                ratio = t[i, -1] / t[i, enter]
                if ratio < best_ratio - _SIMPLEX_RATIO_TOL or (
                    abs(ratio - best_ratio) <= _SIMPLEX_RATIO_TOL
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    leave, best_ratio = i, ratio
        if leave < 0:
            raise ArithmeticError("phase-1 problem unbounded; inputs corrupt")
        t[leave] /= t[leave, enter]
        factors = t[:, enter].copy()
        factors[leave] = 0.0
        t -= np.outer(factors, t[leave])
        basis[leave] = enter
    else:
        raise ArithmeticError("phase-1 simplex failed to terminate")
    return float(-t[m, -1])


def hull_member(point, lam, tol: float = FEASIBILITY_TOL) -> bool:
    """Hull membership by linear programming: is the point D @ lam for some
    doubly stochastic D?

    By Birkhoff-von Neumann that is the same as being a convex combination
    of the permutations of the spectrum.  The LP has the n^2 entries of D as
    unknowns and 3n equations, so it is polynomial in n; it keeps the
    desk-scale cap of the vertex enumerations all the same.
    """
    lam = _validate_spectrum(lam)
    point = _as_point(point, lam)
    n = len(lam)
    if n > MAX_VERTEX_N:
        raise TooLarge(f"hull test at n = {n} is past the desk scale")
    scale = max(1.0, float(np.abs(lam).max()))
    eye = np.eye(n)
    # unknowns D[i, j] in row-major order; rows: (D lam)_i = p_i, then the
    # row sums and the column sums of D, all equal to 1
    A = np.vstack([np.kron(eye, lam / scale), np.kron(eye, np.ones(n)),
                   np.kron(np.ones(n), eye)])
    b = np.concatenate([point / scale, np.ones(2 * n)])
    return _phase1_residual(A, b) < tol


def _affine_dim(points: np.ndarray) -> int:
    """Dimension of the affine span of a point set, by singular values."""
    if len(points) <= 1:
        return 0
    centered = points - points.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > 1e-9 * sv[0]))


def sum_zero_basis(n: int) -> np.ndarray:
    """Orthonormal rows spanning the sum-zero hyperplane (Helmert rows).

    Row k (0-based, k = 0..n-2) is (1, ..., 1, -(k+1), 0, ..., 0) scaled to
    unit norm, with k+1 leading ones.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rows = np.zeros((n - 1, n))
    for k in range(1, n):
        rows[k - 1, :k] = 1.0
        rows[k - 1, k] = -float(k)
        rows[k - 1] /= math.sqrt(k * (k + 1.0))
    return rows


def project_sum_zero(points) -> np.ndarray:
    """Coordinates of points in the sum-zero hyperplane after centering.

    Subtracts the common mean coordinate (points of a spectral polytope all
    share the same coordinate sum), then expresses each point in the
    orthonormal Helmert basis.  Output has n-1 columns.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[1]
    basis = sum_zero_basis(n)
    centered = pts - pts.mean(axis=1, keepdims=True)
    return centered @ basis.T
