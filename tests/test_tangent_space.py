"""The tangent space of the slice through S, by the paper's definition.

The slice is where the orbit of S under orthogonal conjugation meets its
orbit under upper-triangular conjugation, so its tangent space at S is
{[K, S] : K skew} ∩ {[U, S] : U upper triangular}.  For an irreducible S
with a simple spectrum that space has dimension n - 1, the dimension of the
polytope that parametrizes the slice's closure, and the Toda fields
[S, skew_part(S^k)], k = 1..n-1, span it.
"""

import numpy as np
import pytest

from matslice import (
    SpectralFunction,
    accessible_vertices,
    random_jacobi,
    random_symmetric,
    toda_field,
)

RANK_RTOL = 1e-9


def _rank(m: np.ndarray) -> int:
    sv = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(sv > RANK_RTOL * sv[0]))


def _commutators(s: np.ndarray, basis) -> np.ndarray:
    """The columns vec([b, s]) for each b of the basis."""
    return np.column_stack([(b @ s - s @ b).ravel() for b in basis])


def _unit(n: int, i: int, j: int) -> np.ndarray:
    e = np.zeros((n, n))
    e[i, j] = 1.0
    return e


def tangents(s):
    """The spans {[K, S] : K skew} and {[U, S] : U upper triangular}, as columns."""
    n = len(s)
    skew = [_unit(n, i, j) - _unit(n, j, i) for i in range(n) for j in range(i + 1, n)]
    upper = [_unit(n, i, j) for i in range(n) for j in range(i, n)]
    return _commutators(s, skew), _commutators(s, upper)


def slice_tangent_dim(s) -> int:
    """dim({[K, S] : K skew} ∩ {[U, S] : U upper triangular}): rank A + rank B
    - rank [A B] for the spans A and B, at ranks relative to 1e-9."""
    a, b = tangents(np.asarray(s, dtype=float))
    return _rank(a) + _rank(b) - _rank(np.hstack([a, b]))


def _residual(span: np.ndarray, v: np.ndarray) -> float:
    """Distance of v from the column span, relative to |v|."""
    coeffs = np.linalg.lstsq(span, v, rcond=None)[0]
    return float(np.linalg.norm(span @ coeffs - v) / np.linalg.norm(v))


def _matrices(kind: str, n: int) -> list:
    """Nine seeded matrices: Gaussian symmetric (dense) or Jacobi."""
    rngs = [np.random.default_rng([seed, n]) for seed in range(9)]
    make = random_symmetric if kind == "dense" else random_jacobi
    return [make(n, rng) for rng in rngs]


# 2 kinds x 6 sizes x 9 seeds: 108 matrices
SIZES = [(kind, n) for kind in ("dense", "jacobi") for n in range(3, 9)]


@pytest.mark.parametrize("kind, n", SIZES)
def test_slice_tangent_has_dimension_n_minus_one(kind, n):
    assert [slice_tangent_dim(s) for s in _matrices(kind, n)] == [n - 1] * 9


@pytest.mark.parametrize("kind, n", [size for size in SIZES if size[1] <= 6])
def test_slice_tangent_dimension_is_the_polytope_dimension(kind, n):
    for s in _matrices(kind, n):
        assert slice_tangent_dim(s) == accessible_vertices(s).affine_dim


@pytest.mark.parametrize("kind, n", SIZES)
def test_toda_fields_span_the_slice_tangent(kind, n):
    for s in _matrices(kind, n):
        a, b = tangents(s)
        fields = [toda_field(s, SpectralFunction.power(k)).ravel() for k in range(1, n)]
        assert _rank(np.column_stack(fields)) == n - 1
        for f in fields:
            assert _residual(a, f) < 1e-12
            assert _residual(b, f) < 1e-12


def test_block_diagonal_jacobi_loses_one_dimension_per_broken_bond():
    rng = np.random.default_rng(13)
    s = np.zeros((5, 5))
    s[:3, :3] = random_jacobi(3, rng, spectrum=[3.0, 1.0, -1.0])
    s[3:, 3:] = random_jacobi(2, rng, spectrum=[2.5, -2.5])
    assert slice_tangent_dim(s) == 3
