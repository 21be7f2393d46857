"""Spectral polytopes and the diagonal-of-conjugates map.

For a symmetric matrix with spectrum lam and orthonormal eigenvector rows q,
the squared eigenvector matrix sends the spectrum to the point

    p_i = sum_k lam_k * q[i, k]**2,

which always lies in the convex hull of the n! permutations of lam (the
permutohedron of the spectrum).  Vertices of that hull reachable by the
long-time limits of isospectral flows are detected by nested leading minors
of the eigenvector matrix; |det| of a leading minor does not depend on the
order of its rows, so each row set is factored once.  Membership in the hull
is decided two independent ways: a phase-1 simplex looking for a doubly
stochastic D with p = D lam (Hardy-Littlewood-Polya, Birkhoff-von Neumann),
started at D = I and priced by Dantzig's rule with a fall back to Bland's,
and the majorization inequalities on sorted prefix sums.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import NotIrreducible, TooLarge
from .linalg import as_spectrum, as_symmetric, as_vector, eigensystem

MINOR_TOL = 1e-10
FEASIBILITY_TOL = 1e-8
MAJORIZATION_TOL = 1e-9
MAX_VERTEX_N = 8
MAX_HULL_N = 16
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


def _as_multiset(lam) -> np.ndarray:
    lam = as_vector(lam, "spectrum")
    if len(lam) < 2:
        raise ValueError("need a spectrum with at least two values")
    return lam


def _permutations(n: int) -> np.ndarray:
    """The n! permutations of range(n) as rows, in lexicographic order;
    TooLarge past n = 8, before any other work."""
    if n > MAX_VERTEX_N:
        raise TooLarge(f"enumerating {n}! permutations is past the desk scale")
    return np.array(list(itertools.permutations(range(n))))


def permutohedron_vertices(lam) -> VertexSet:
    """All n! permutations of a strictly descending spectrum."""
    return _polytope(as_spectrum(lam))


def bfr_map(s) -> np.ndarray:
    """Image of a symmetric matrix: coordinate i mixes the eigenvalues with
    weights (component i of each eigenvector)^2.

    Algebraically this is the diagonal of the matrix, reassembled through the
    spectral data; it is invariant, exactly in floating point, under any sign
    flips of the eigenvector rows, because only squares of entries enter, and
    under any choice of basis inside an eigenspace, so ties need no gate.
    """
    lam, q = eigensystem(s)
    return lam @ (q * q)


def accessible_vertices(s) -> VertexSet:
    """Permutations whose nested leading minors of the eigenvector matrix
    are all nonzero; these are the hull vertices reachable by sorting flows.

    Each minor is factored once per row set (2^n - 2 in all); listing the
    permutations keeps the n <= 8 cap, checked before any other work.
    Requires an irreducible matrix with simple spectrum.
    """
    a = as_symmetric(s)
    perms = _permutations(len(a))
    if not kernels.is_irreducible(a):
        raise NotIrreducible("vertex accessibility needs an irreducible matrix")
    lam, q = kernels.simple_eigensystem(a)
    n = len(lam)
    # |det| of the leading k x k minor of the eigenvector matrix on each row
    # set, indexed by the bit mask of the rows; the row order of a permutation
    # prefix does not change |det|.  Columns: the leading eigenvalues.
    minors = np.zeros(1 << n)
    for k in range(1, n):
        rows = np.array(list(itertools.combinations(range(n), k)))
        minors[(1 << rows).sum(axis=1)] = np.abs(np.linalg.det(q[rows, :k]))
    closest = minors[np.cumsum(1 << perms[:, :-1], axis=1)].min(axis=1)
    ok = closest > MINOR_TOL
    accepted = tuple(map(tuple, perms[ok].tolist()))
    near = tuple(map(tuple, perms[ok & (closest < MINOR_TOL * 10.0)].tolist()))
    points = lam[perms[ok]]
    return VertexSet(lam=lam, points=points, perms=accepted,
                     affine_dim=_affine_dim(points), near_threshold=near)


def spectral_polytope(lam) -> VertexSet:
    """The permutohedron of a spectrum, with repeated eigenvalues allowed.

    Ties collapse coinciding vertices, so the result can have fewer than n!
    points and a lower affine dimension than the simple-spectrum polytope.
    """
    lam = _as_multiset(lam)
    if np.any(lam[1:] > lam[:-1]):
        raise ValueError("spectrum must be non-increasing")
    return _polytope(lam)


def _polytope(lam: np.ndarray) -> VertexSet:  # lam checked non-increasing
    perms = _permutations(len(lam))
    _, first = np.unique(lam[perms], axis=0, return_index=True)
    perms = perms[np.sort(first)]  # one permutation per point, the first
    points = lam[perms]
    return VertexSet(lam=lam, points=points, perms=tuple(map(tuple, perms.tolist())),
                     affine_dim=_affine_dim(points))


def majorization_member(point, lam) -> bool:
    """Hull membership by sorted prefix sums: every partial sum of the point,
    sorted descending, stays at most 1e-9 * max|lam| above the matching one of
    the spectrum, and the totals agree within 1e-9 * sum|lam| (so lam = 0
    admits only p = 0).  The spectrum may come in any order; both inputs are
    checked as in ``hull_member``, and divided by 2^``binade`` of both (exact)
    so no sum overflows."""
    lam = _as_multiset(lam)
    point = as_vector(point, "point", len(lam))
    e = kernels.binade(np.concatenate((point, lam)))
    p = np.ldexp(np.sort(point)[::-1], -e)
    l = np.ldexp(np.sort(lam)[::-1], -e)
    if abs(p.sum() - l.sum()) > MAJORIZATION_TOL * float(np.abs(l).sum()):
        return False
    slack = MAJORIZATION_TOL * float(np.abs(l).max())
    return bool(np.all(np.cumsum(p) <= np.cumsum(l) + slack))


@functools.cache
def _sum_rows(n: int) -> np.ndarray:
    """Read-only row sums, then column sums, of a row-major n x n unknown."""
    rows = np.vstack([np.repeat(np.eye(n), n, axis=1), np.tile(np.eye(n), n)])
    rows.flags.writeable = False  # shared by every caller through the cache
    return rows


def _bland_entering(reduced: np.ndarray) -> int:
    """Bland's rule: the first column with a negative reduced cost."""
    return int(np.flatnonzero(reduced < -_SIMPLEX_COST_TOL)[0])


def _phase1_residual(A: np.ndarray, b: np.ndarray) -> float:
    """Least sum_i |(D lam)_i - p_i| over doubly stochastic D by the phase-1
    simplex, on ``hull_member``'s layout; zero (to rounding) means feasible.

    The sum rows hold exactly.  Each point row has two opposite artificials;
    the start basis D = I takes its diagonal and superdiagonal (a spanning
    tree of the sum rows), the artificial signed to hold |p_i - lam_i| and one
    on the redundant first column sum, so it is nonsingular for every input.
    Pricing is Dantzig's, then Bland's for good (which cannot cycle) once m
    degenerate pivots come in a row.
    """
    m, cols = A.shape
    n = m // 3
    i = np.arange(n)
    diag = i * (n + 1)
    sign = np.where(b[:n] >= A[i, diag], 1.0, -1.0)
    # columns: structural, n signed and n opposite artificials, one more, rhs
    t = np.zeros((m + 1, cols + 2 * n + 2))
    t[:m, :cols], t[:m, -1] = A, b
    t[i, cols + i], t[i, cols + n + i] = sign, -sign
    t[2 * n, -2] = 1.0
    basis = np.concatenate([diag, diag[:-1] + 1, cols + i, [cols + 2 * n]])
    t[:m] = np.linalg.solve(t[:m, basis], t[:m])
    # phase-1 objective: sum of artificials, written in terms of nonbasics
    t[m, cols:-1] = 1.0
    t[m] -= t[m, basis].dot(t[:m])
    reduced, rhs = t[m, :-1], t[:m, -1]
    degenerate = 0
    for _ in range(500 * t.shape[1]):
        enter = int(reduced.argmin())
        if reduced[enter] >= -_SIMPLEX_COST_TOL:
            break
        if degenerate >= m:
            enter = _bland_entering(reduced)
        rows = (t[:m, enter] > _SIMPLEX_RATIO_TOL).nonzero()[0]
        if len(rows) == 0:
            raise ArithmeticError("phase-1 problem unbounded; inputs corrupt")
        ratios = rhs[rows] / t[rows, enter]
        step = ratios.min()
        ties = rows[ratios <= step + _SIMPLEX_RATIO_TOL]
        leave = ties[basis[ties].argmin()]
        degenerate = degenerate + 1 if step <= _SIMPLEX_RATIO_TOL else 0
        pivot = t[leave] / t[leave, enter]
        t -= t[:, enter, None] * pivot
        t[leave] = pivot
        basis[leave] = enter
    else:
        raise ArithmeticError("phase-1 simplex failed to terminate")
    return float(-t[m, -1])


def hull_member(point, lam) -> bool:
    """Hull membership by linear programming: is the point D @ lam for some
    doubly stochastic D?

    By Birkhoff-von Neumann that is the same as being a convex combination
    of the permutations of the spectrum, which may come in any order, with
    ties.  The LP has the n^2 entries of D as unknowns and 3n equations, so
    it is polynomial in n; it refuses n > 16 as past the desk scale.  Its data
    are divided by max(max|lam|, max|p|), so lam = 0 admits only p = 0.
    """
    lam = _as_multiset(lam)
    point = as_vector(point, "point", len(lam))
    n = len(lam)
    if n > MAX_HULL_N:
        raise TooLarge(f"hull test at n = {n} is past the desk scale")
    scale = max(float(np.abs(lam).max()), float(np.abs(point).max())) or 1.0
    sums = _sum_rows(n)
    # unknowns D[i, j] in row-major order; rows: (D lam)_i = p_i, then the
    # row sums and the column sums of D, all equal to 1
    A = np.vstack([sums[:n] * np.tile(lam / scale, n), sums])
    b = np.concatenate([point / scale, np.ones(2 * n)])
    return _phase1_residual(A, b) < FEASIBILITY_TOL


def _affine_dim(points: np.ndarray) -> int:
    """Dimension of the affine span of a point set, by singular values of the
    points / 2^``binade`` (exact, so no mean overflows) minus their mean."""
    if len(points) <= 1:
        return 0
    x = np.ldexp(points, -kernels.binade(points))
    centered = x - x.mean(axis=0)
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
