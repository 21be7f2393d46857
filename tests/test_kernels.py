"""The trusted kernels stay below the validating layer.

``matslice.kernels`` runs on arrays its callers have already checked; the
public functions of the other modules validate once and call it.  So the
kernels may import nothing of matslice but ``errors``, and never validate.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import matslice
from matslice import (
    FlowConfig,
    SpectralFunction,
    default_rng,
    descending_spectrum,
    flow_integrated,
    kernels,
    polytope,
    random_jacobi,
    random_symmetric,
)

KERNELS = Path(matslice.__file__).parent / "kernels.py"
VALIDATORS = {"as_square", "as_symmetric", "as_vector"}


def tree():
    return ast.parse(KERNELS.read_text(), filename=str(KERNELS))


def test_kernels_import_no_matslice_module_but_errors():
    imported = set()
    for node in ast.walk(tree()):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0:
                imported |= {node.module} if node.module else {a.name for a in node.names}
            elif (node.module or "").split(".")[0] == "matslice":
                imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names if a.name.split(".")[0] == "matslice"}
    assert imported <= {"errors", "matslice.errors"}, imported


def test_kernels_call_no_validator():
    called = set()
    for node in ast.walk(tree()):
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            if name in VALIDATORS:
                called.add(f"line {node.lineno}: {name}")
    assert not called, sorted(called)


def assert_qr_contract(a, q, r):
    n = a.shape[0]
    assert np.all(np.isfinite(q)) and np.all(np.isfinite(r))
    assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-13
    assert np.array_equal(r, np.triu(r)) and np.all(np.diag(r) >= 0.0)
    assert np.abs(q @ r - a).max() <= 1e-14 * np.linalg.norm(a)


@pytest.mark.parametrize("n", [8, 48])
@pytest.mark.parametrize("seed", range(5))
def test_householder_qr_resolves_faint_rows(n, seed):
    # rows weighted down to e^-699, as in the weighted conjugation: the
    # faint rows' squares underflow, so only scale-safe reflector norms
    # keep q orthogonal
    rng = np.random.default_rng(seed)
    q0, _ = np.linalg.qr(rng.normal(size=(n, n)))
    w = np.exp(-rng.uniform(0.0, 699.0, size=n))
    w[:2] = 1.0, math.exp(-699.0)
    a = w[:, None] * q0
    assert_qr_contract(a, *kernels.householder_qr(a))


@pytest.mark.parametrize("k", [0, 2, 5])
def test_householder_qr_of_a_zero_column(k):
    a = np.random.default_rng(k).normal(size=(6, 6))
    a[:, k] = 0.0
    q, r = kernels.householder_qr(a)
    assert_qr_contract(a, q, r)
    assert r[k, k] == 0.0


@pytest.mark.parametrize("n", range(2, 10))
@pytest.mark.parametrize("kind", ["symmetric", "general"])
def test_skew_part_is_the_strict_lower_triangle_mirrored(kind, n):
    a = np.random.default_rng(n).normal(size=(n, n))
    if kind == "symmetric":
        a = 0.5 * (a + a.T)
    a[-1, 0] = a[0, -1] = -0.0  # signed zeros come out as from np.tril
    lower = np.tril(a, -1)
    want = lower - lower.T
    got = kernels.skew_part(a)
    assert got.tobytes() == want.tobytes()


# every per-size table shared through functools.cache: (builder, its arrays)
CACHED_TABLES = {
    "round_robin": (kernels.round_robin, lambda rounds: [x for r in rounds for x in r]),
    "solver_layout": (kernels.solver_layout, list),
    "skew_signs": (kernels.skew_signs, lambda x: [x]),
    "polytope._sum_rows": (polytope._sum_rows, lambda x: [x]),
}


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("name", CACHED_TABLES)
def test_cached_tables_are_shared_and_read_only(name, n):
    build, arrays = CACHED_TABLES[name]
    table = build(n)
    assert build(n) is table
    for x in arrays(table):
        with pytest.raises(ValueError, match="read-only"):
            x.flat[0] = x.flat[0]


@pytest.mark.parametrize("n", range(2, 10))
def test_skew_signs_split_a_symmetric_matrix_like_skew_part(n):
    # the Lax field's one-multiply split; equal up to the signs of zeros
    a = np.random.default_rng(n).normal(size=(n, n))
    a = 0.5 * (a + a.T)
    signs = kernels.skew_signs(n)
    assert signs is kernels.skew_signs(n) and not signs.flags.writeable
    assert np.array_equal(a * signs, kernels.skew_part(a))


@pytest.fixture
def sweeps(monkeypatch):
    """[warm, rotation sweeps] of each eigensolve, in call order."""
    solves = []
    solve, sweep = kernels.jacobi_unordered, kernels._sweep

    def counting_solve(a, start=None):
        solves.append([start is not None, 0])
        return solve(a, start)

    def counting_sweep(*args):
        solves[-1][1] += 1
        return sweep(*args)

    monkeypatch.setattr(kernels, "jacobi_unordered", counting_solve)
    monkeypatch.setattr(kernels, "_sweep", counting_sweep)
    return solves


def test_warm_flow_solves_finish_by_cayley_steps_alone(sweeps):
    # a log-driven flow as the flow-spectral benchmark draws it: n = 5,
    # spectrum in [0.5, 3] with gaps >= 0.25, dt = 0.008; rotations alone
    # took 1-2 sweeps per warm solve
    rng = default_rng(1)
    lam = descending_spectrum(5, rng, lo=0.5, hi=3.0, min_gap=0.25)
    traj = flow_integrated(random_jacobi(5, rng, spectrum=lam),
                           FlowConfig(SpectralFunction.log(), 0.16, 0.008))
    assert [warm for warm, _ in sweeps] == [False] + [True] * (4 * (len(traj) - 1) - 1)
    assert [count for warm, count in sweeps if warm] == [0] * (len(sweeps) - 1)


def test_cold_solve_hands_over_to_cayley_steps(sweeps):
    # rotations alone take 5 sweeps on this matrix
    kernels.jacobi_eigensystem(random_symmetric(8, default_rng(8)))
    assert sweeps[0][1] < 5


def test_pass_cap_bounds_cayley_steps(sweeps, monkeypatch):
    a = random_symmetric(6, default_rng(3))
    _, start = kernels.jacobi_eigensystem(a + 1e-4 * random_symmetric(6, default_rng(4)))
    monkeypatch.setattr(kernels, "_MAX_SWEEPS", 1)
    with pytest.raises(ArithmeticError):
        kernels.jacobi_eigensystem(a, start)
    assert sweeps[-1] == [True, 0]  # its one pass was a Cayley step, not enough


def test_warm_start_restores_an_orthogonal_start():
    # a start 1e-6 off orthogonal: the Newton-Schulz step leaves about 1e-11
    # of that in the eigenvalues and the basis; started from it unpolished,
    # both come back about 1e-6 off
    rng = default_rng(661)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        a = random_symmetric(n, rng)
        lam, q = kernels.jacobi_eigensystem(a)
        warm_lam, warm_q = kernels.jacobi_unordered(a, q + 1e-6 * rng.normal(size=(n, n)))
        assert np.abs(np.sort(warm_lam)[::-1] - lam).max() <= 1e-9 * kernels.frobenius(a)
        assert np.abs(warm_q @ warm_q.T - np.eye(n)).max() <= 1e-9
