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
    eigensystem,
    flow_factorized,
    flow_integrated,
    kernels,
    moser_coordinates,
    polytope,
    random_jacobi,
    random_symmetric,
    spectral_decompose,
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
        kernels.unordered_eigensystem(a, start)
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


# -- the memo of cold eigensolves ----------------------------------------------

def benchmark_matrices():
    """Jacobi matrices drawn as the flow-spectral (n = 4..6) and chart-cli
    (n = 8..32, through the command line's seed) benchmarks draw them, seed 1."""
    rng = default_rng(1)
    for n in (4, 5, 6):
        lam = descending_spectrum(n, rng, lo=0.5, hi=3.0, min_gap=0.25)
        yield random_jacobi(n, rng, spectrum=lam)
    for n in (8, 12, 16, 32):
        lam = descending_spectrum(n, rng, lo=1.0, hi=1.0 + 0.5 * n, min_gap=0.05)
        yield random_jacobi(n, default_rng(int(rng.integers(2**31))), spectrum=lam)


def memo():
    info = kernels._cold_unordered.cache_info()
    return info.hits, info.misses, info.currsize


def as_bytes(arrays):
    return [x.tobytes() for x in arrays]


@pytest.mark.parametrize("case", range(7))
def test_cold_memo_hit_is_bitwise_a_fresh_solve(case, sweeps):
    a = list(benchmark_matrices())[case]
    unordered = as_bytes(kernels.jacobi_unordered(a))  # the solver itself, no memo
    kernels._cold_unordered.cache_clear()
    missed = as_bytes(kernels.jacobi_eigensystem(a))
    assert memo() == (0, 1, 1)
    assert as_bytes(kernels.jacobi_eigensystem(a)) == missed
    assert as_bytes(kernels.unordered_eigensystem(a)) == unordered
    assert memo() == (2, 1, 1)
    assert [warm for warm, _ in sweeps] == [False, False]  # the direct solve, the miss


def test_cold_memo_arrays_are_read_only():
    a = random_symmetric(5, default_rng(2))
    lam, q = kernels.unordered_eigensystem(a)
    assert kernels.unordered_eigensystem(a)[1] is q
    for x in (lam, q):
        with pytest.raises(ValueError, match="read-only"):
            x.flat[0] = x.flat[0]


def test_results_stay_writable_and_writing_them_changes_no_later_solve():
    j = list(benchmark_matrices())[1]
    want = as_bytes(eigensystem(j))
    chart = moser_coordinates(j)
    decomposition = spectral_decompose(j)
    results = [*eigensystem(j), decomposition.lam, decomposition.q, chart.lam, chart.w,
               flow_factorized(j, SpectralFunction.log(), 0.1)]
    for x in results:
        x *= -2.0  # raises for a read-only array
    assert memo() == (4, 1, 1)
    assert as_bytes(eigensystem(j)) == want


def test_warm_solves_neither_read_nor_fill_the_memo(sweeps):
    a = random_symmetric(6, default_rng(3))
    _, near = kernels.jacobi_eigensystem(a + 1e-6 * random_symmetric(6, default_rng(4)))
    before = memo()
    kernels.jacobi_unordered(a, near)
    kernels.unordered_eigensystem(a, near)
    assert memo() == before == (0, 1, 1)
    kernels.jacobi_eigensystem(a)  # now a is in the memo
    kernels.unordered_eigensystem(a, near)
    assert memo() == (0, 2, 2)
    assert [warm for warm, _ in sweeps] == [False, True, True, False, True]


def test_a_matrix_one_ulp_away_misses(sweeps):
    a = random_symmetric(5, default_rng(5))
    b = a.copy()
    b[0, 1] = b[1, 0] = np.nextafter(a[0, 1], math.inf)
    kernels.jacobi_eigensystem(a)
    kernels.jacobi_eigensystem(b)
    assert memo() == (0, 2, 2)
    assert [warm for warm, _ in sweeps] == [False, False]


def test_cold_memo_keeps_the_most_recent_matrices_only(sweeps):
    rng = default_rng(7)
    matrices = [random_symmetric(int(rng.integers(2, 9)), rng)
                for _ in range(2 * kernels.COLD_MEMO_SIZE + 3)]
    for a in matrices:
        kernels.jacobi_eigensystem(a)
        assert memo()[2] <= kernels.COLD_MEMO_SIZE
    assert memo() == (0, len(matrices), kernels.COLD_MEMO_SIZE)
    kernels.jacobi_eigensystem(matrices[-kernels.COLD_MEMO_SIZE])  # the oldest kept
    kernels.jacobi_eigensystem(matrices[-kernels.COLD_MEMO_SIZE - 1])  # dropped
    assert memo() == (1, len(matrices) + 1, kernels.COLD_MEMO_SIZE)
    assert len(sweeps) == len(matrices) + 1


def test_flow_spectral_task_runs_one_cold_solve(sweeps):
    # a log flow_integrated and five flow_factorized samples on one S, as
    # the flow-spectral benchmark checks them: every solve after the RK4
    # flow's first is warm or a hit
    s = list(benchmark_matrices())[1]
    log = SpectralFunction.log()
    traj = flow_integrated(s, FlowConfig(log, 0.16, 0.008))
    for i in (4, 8, 12, 16, 20):
        flow_factorized(s, log, float(traj.times[i]))
    assert [warm for warm, _ in sweeps].count(False) == 1
    assert memo() == (5, 1, 1)


# -- the Cayley step's lean build ------------------------------------------------

def reference_unordered(a, start=None):
    """The eigensolver as written before its Cayley step was trimmed: a zero
    matrix filled above the diagonal, I + k/2 as eye + half - half.T, numpy's
    solve, ``@`` for the off-diagonal norm."""
    n = a.shape[0]
    eye, _, rows, cols, off = kernels.solver_layout(n)
    e = kernels.binade(a)
    a = np.ldexp(a, -e)
    if start is None:
        v = eye.copy()
    else:
        u = start - 0.5 * (start @ start.T - eye) @ start
        a = kernels.symmetrize(u @ a @ u.T)
        v = u.T.copy()
    m = len(rows)
    flat = a.ravel()
    tol2 = (kernels.JACOBI_SWEEP_RTOL * math.sqrt(flat @ flat)) ** 2
    while (off2 := (x := a.take(off)) @ x) > tol2:
        d = a.diagonal()
        ranked = np.sort(d)
        if off2 <= (kernels.CAYLEY_GATE * (ranked[1:] - ranked[:-1]).min()) ** 2:
            half = np.zeros((n, n))
            half.put(off[:m], 0.5 * x[:m] / (d[rows] - d[cols]))
            plus = eye + half - half.T
            w = np.linalg.solve(plus.T, plus)
            a = w @ a @ w.T
            v = v @ w.T
        else:
            a, v = kernels._sweep(a, v, eye)
    return np.ldexp(a.diagonal(), e), v.T


def test_cold_and_warm_solves_are_bitwise_the_reference():
    # every benchmark matrix cold, and the warm chain of a log flow on the
    # flow-spectral ones, stage by stage as the RK4 field solves them
    log = SpectralFunction.log()
    for s in benchmark_matrices():
        assert as_bytes(kernels.jacobi_unordered(s)) == as_bytes(reference_unordered(s))
        if len(s) > 6:
            continue
        stages, field = [], kernels.unordered_eigensystem

        def recording(a, start=None):
            stages.append((a.copy(), None if start is None else start.copy()))
            return field(a, start)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "unordered_eigensystem", recording)
            flow_integrated(s, FlowConfig(log, 0.16, 0.008))
        assert len(stages) == 80 and all(start is not None for _, start in stages[1:])
        for a, start in stages:
            assert as_bytes(kernels.jacobi_unordered(a, start)) == \
                as_bytes(reference_unordered(a, start))
