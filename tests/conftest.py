"""Shared helpers and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: Gram-Schmidt
instead of Householder for QR, explicit matmul/Horner instead of eigenbasis
evaluation for matrix functions, numpy's LAPACK wrappers for spectra.
"""

import numpy as np
import pytest

from matslice import kernels, symmetrize


@pytest.fixture(autouse=True)
def cold_memo_cleared():
    """Start every test with an empty memo of cold eigensolves, so a spy on
    the eigensolver sees the same solves whatever ran before."""
    kernels._cold_eigensystem.cache_clear()


def maxabs(a) -> float:
    return float(np.abs(np.asarray(a)).max())


def relerr(got, want) -> float:
    scale = float(np.linalg.norm(np.asarray(want)))
    return float(np.linalg.norm(np.asarray(got) - np.asarray(want))) / max(scale, 1.0)


def gram_schmidt_qr(m):
    """Classical Gram-Schmidt QR with positive diagonal; an independent
    route to the same factorization the package computes by reflections."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    q = np.zeros_like(m)
    r = np.zeros_like(m)
    for j in range(n):
        v = m[:, j].copy()
        for i in range(j):
            r[i, j] = q[:, i] @ m[:, j]
            v -= r[i, j] * q[:, i]
        # reorthogonalize once; plain CGS loses orthogonality fast
        for i in range(j):
            c = q[:, i] @ v
            r[i, j] += c
            v -= c * q[:, i]
        r[j, j] = np.linalg.norm(v)
        q[:, j] = v / r[j, j]
    return q, r


def matrix_function_oracle(s, fn):
    """Evaluate fn on a symmetric matrix through numpy's eigendecomposition
    (LAPACK), independent of the package's own Jacobi-rotation eigensolver."""
    lam, v = np.linalg.eigh(np.asarray(s, dtype=float))
    return symmetrize((v * fn(lam)) @ v.T)


def horner_matrix(s, coeffs):
    """Polynomial of a matrix by explicit Horner matmuls — no eigensolve."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    eye = np.eye(s.shape[0])
    for c in reversed(coeffs):
        out = out @ s + c * eye
    return out


def golden_matrix():
    """3x3 matrix with spectrum (4, 2, 1) and eigenvector rows built by
    Gram-Schmidt from the frame (0,1,1), (1,0,1), (1,1,0); equals
    (1/3) * [[5,-1,1],[-1,8,4],[1,4,8]] up to rounding.  Exactly four of the
    six spectrum permutations are reachable for it.
    """
    frame = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    rows = []
    for vec in frame:
        v = vec.copy()
        for u in rows:
            v -= (v @ u) * u
        rows.append(v / np.linalg.norm(v))
    q = np.vstack(rows)
    lam = np.array([4.0, 2.0, 1.0])
    return symmetrize((q.T * lam) @ q), lam, q
