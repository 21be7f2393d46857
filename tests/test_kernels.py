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
    random_with_spectrum,
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


def test_tolerance_past_the_double_range_names_the_product():
    # ||S|| = 2.1e308 overflows, 1e-12 * ||S|| does not; the overflow was
    # math.ldexp's bare "math range error"
    s = np.array([[1.0, 1.5e308], [1.5e308, -1.0]])
    scaled = np.linalg.norm(np.ldexp(s, -1024))
    assert kernels.tolerance(1e-12, s) == math.ldexp(1e-12 * scaled, 1024)
    with pytest.raises(OverflowError, match=r"^2 \* \|\|m\|\|_F = 2\.36005 \* 2\^1024, past"):
        kernels.tolerance(2.0, s)


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


def numpy_qr_with_sign_fix(a):
    """``householder_qr`` written plainly: np.linalg.qr of a / 2^binade, then
    each column of q and row of r whose diagonal entry is negative negated."""
    e = kernels.binade(a)
    q, r = np.linalg.qr(np.ldexp(a, -e))
    flip = np.diag(r) < 0.0
    q[:, flip] = -q[:, flip]
    r[flip] = -r[flip]
    return q, np.ldexp(r, e)


def qr_inputs():
    rng = np.random.default_rng(23)
    for n in range(2, 33):
        yield rng.normal(size=(n, n))
    for k in (0, 2, 5):
        a = np.random.default_rng(k).normal(size=(6, 6))
        a[:, k] = 0.0
        yield a
    for n in (8, 48):
        for seed in range(5):  # the faint rows of test_householder_qr_resolves_faint_rows
            rng = np.random.default_rng(seed)
            q0, _ = np.linalg.qr(rng.normal(size=(n, n)))
            w = np.exp(-rng.uniform(0.0, 699.0, size=n))
            w[:2] = 1.0, math.exp(-699.0)
            yield w[:, None] * q0


@pytest.mark.parametrize("scale", [1.0, 2.0 ** 500, 2.0 ** -500, 1e-170, 1e160])
def test_householder_qr_is_bitwise_numpy_qr(scale):
    # householder_qr calls LAPACK through numpy's private QR gufuncs; this
    # holds it to the public np.linalg.qr byte for byte
    for a in qr_inputs():
        a = scale * a
        assert as_bytes(kernels.householder_qr(a)) == as_bytes(numpy_qr_with_sign_fix(a))


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


# every per-size table shared through functools.cache: (builder, its arrays);
# round_robin is the sweep schedule, the last entry of solver_layout
CACHED_TABLES = {
    "round_robin": (lambda n: kernels.solver_layout(n)[-1],
                    lambda rounds: [x for r in rounds for x in r]),
    "solver_layout": (kernels.solver_layout, lambda layout: list(layout[:-1])),
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
    # rotations alone take 5 sweeps on this matrix; the Cayley steps of
    # every pair at once leave 0 (the Cayley finish before them left 3)
    kernels.jacobi_eigensystem(random_symmetric(8, default_rng(8)))
    assert sweeps[0][1] < 5


def test_benchmark_cold_solves_run_no_sweep(sweeps):
    # the first two passes keep a Cayley step that leaves 0.9 of the
    # off-diagonal norm: a dense matrix's first step leaves 0.53-0.78, and
    # halving as the only rule swept in all but one of these benchmark
    # matrices and in 266 of the 400 polytope-style draws
    for a in benchmark_matrices():
        if len(a) <= 16:
            kernels.jacobi_unordered(a)
    assert [count for _, count in sweeps] == [0] * 6
    sweeps.clear()
    rng = default_rng(1)
    for n in (5, 6):
        for _ in range(200):
            lam = descending_spectrum(n, rng, lo=-3.0, hi=3.0, min_gap=0.3)
            kernels.jacobi_unordered(random_with_spectrum(lam, rng))
    assert len(sweeps) == 400
    assert sum(count > 0 for _, count in sweeps) <= 4


def test_pass_cap_bounds_cayley_steps(sweeps, monkeypatch):
    a = random_symmetric(6, default_rng(3))
    _, start = kernels.jacobi_eigensystem(a + 1e-4 * random_symmetric(6, default_rng(4)))
    monkeypatch.setattr(kernels, "_MAX_SWEEPS", 1)
    with pytest.raises(ArithmeticError):
        kernels.jacobi_unordered(a, start)
    assert sweeps[-1] == [True, 0]  # its one pass was a kept Cayley step, not enough


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


# -- the eigensolver on hard spectra --------------------------------------------

def conjugated(lam, rng):
    """q diag(lam) q.T for a Gaussian orthogonal q, made exactly symmetric."""
    q = np.linalg.qr(rng.normal(size=(len(lam), len(lam))))[0]
    return kernels.symmetrize((q * lam) @ q.T)


def wilkinson(n, rng):
    """W+_n: diagonal |i - (n - 1)/2|, unit off-diagonals; near-double pairs."""
    return kernels.tridiagonal(np.abs(np.arange(n) - 0.5 * (n - 1)), np.ones(n - 1))


STRESS_FAMILIES = {
    "dense": random_symmetric,
    "clustered": lambda n, rng: conjugated(np.resize([1.0, 1.0 + 1e-9, 2.0, -3.0], n), rng),
    "graded": lambda n, rng: (g := 2.0 ** (-40.0 / n * np.arange(n)))[:, None]
    * random_symmetric(n, rng) * g,
    "log-spread": lambda n, rng: conjugated(
        rng.choice([-1.0, 1.0], n) * np.logspace(0.0, -12.0, n), rng),
    "near-double": lambda n, rng: conjugated(
        np.resize(np.linspace(1.0, 2.0, (n + 1) // 2), n) + 1e-8 * (np.arange(n) % 2), rng),
    "wilkinson": wilkinson,
    "identity-plus-rank-one": lambda n, rng: np.eye(n) + np.outer(v := rng.normal(size=n), v),
}


def assert_eigensystem(a, lam, q):
    # within 1e-12 * max|a| of LAPACK's eigenvalues (a test-only reference),
    # of a itself and of an orthogonal q
    scale = np.abs(a).max()
    assert np.abs(np.sort(lam) - np.linalg.eigvalsh(a)).max() <= 1e-12 * scale
    assert np.abs((q.T * lam) @ q - a).max() <= 1e-12 * scale
    assert np.abs(q @ q.T - np.eye(len(a))).max() <= 1e-12


@pytest.mark.parametrize("family", STRESS_FAMILIES)
def test_cold_and_warm_solves_of_hard_spectra(family, monkeypatch):
    # cold, then warm from the eigenbasis of a 1e-6 * max|a| perturbation;
    # the pass cap lowered to 40 counts the solver's own passes
    monkeypatch.setattr(kernels, "_MAX_SWEEPS", 40)
    rng = default_rng(1234)
    for n in [*range(2, 13), 16, 32, 64]:
        a = STRESS_FAMILIES[family](n, rng)
        assert_eigensystem(a, *kernels.jacobi_unordered(a))
        near = a + 1e-6 * np.abs(a).max() * random_symmetric(n, rng)
        assert_eigensystem(a, *kernels.jacobi_unordered(a, kernels.jacobi_unordered(near)[1]))


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
    info = kernels._cold_eigensystem.cache_info()
    return info.hits, info.misses, info.currsize


def as_bytes(arrays):
    return [x.tobytes() for x in arrays]


@pytest.mark.parametrize("case", range(7))
def test_cold_memo_hit_is_bitwise_a_fresh_solve(case, sweeps):
    a = list(benchmark_matrices())[case]
    fresh = as_bytes(kernels.jacobi_eigensystem(a))
    kernels._cold_eigensystem.cache_clear()
    missed = as_bytes(kernels.jacobi_eigensystem(a))
    assert missed == fresh and memo() == (0, 1, 1)
    assert as_bytes(kernels.jacobi_eigensystem(a)) == missed
    assert as_bytes(kernels.jacobi_eigensystem(a.copy())) == missed
    assert memo() == (2, 1, 1)
    assert [warm for warm, _ in sweeps] == [False, False]  # the first solve, the miss


def test_cold_memo_arrays_are_read_only():
    a = random_symmetric(5, default_rng(2))
    lam, q = kernels._cold_eigensystem(len(a), a.tobytes())
    assert kernels._cold_eigensystem(len(a), a.tobytes())[1] is q
    for x in (lam, q):
        with pytest.raises(ValueError, match="read-only"):
            x.flat[0] = x.flat[0]
    got = kernels.jacobi_eigensystem(a)  # fresh writable copies of the kept arrays
    for x, kept in zip(got, (lam, q)):
        assert x is not kept and x.flags.writeable and x.tobytes() == kept.tobytes()


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
    assert memo() == before == (0, 1, 1)
    kernels.jacobi_eigensystem(a)  # now a is in the memo
    kernels.jacobi_unordered(a, near)
    assert memo() == (0, 2, 2)
    assert [warm for warm, _ in sweeps] == [False, True, False, True]


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


# -- the simultaneous Jacobi step's lean build ------------------------------------

def reference_unordered(a, start=None):
    """The eigensolver's pass rule written plainly: the inner angle of every
    pair, an explicit antisymmetric g = 2 tan(phi/2), I + g/2 as
    eye + g/2 - g.T/2, numpy's solve, ``@`` for the off-diagonal norms;
    a step that leaves more than 0.9 of that norm in the first two passes,
    or more than half of it in a later one, gives way to one sweep."""
    n = a.shape[0]
    eye, _, rows, cols, off, rounds = kernels.solver_layout(n)
    e = kernels.binade(a)
    a = np.ldexp(a, -e)
    if start is None:
        v = eye.copy()
    else:
        u = start - 0.5 * (start @ start.T - eye) @ start
        a = u @ a @ u.T
        v = u.T.copy()
    m = len(rows)
    flat = a.ravel()
    tol2 = (kernels.JACOBI_SWEEP_RTOL * math.sqrt(flat @ flat)) ** 2
    passes = 0
    while (off2 := (x := a.take(off)) @ x) > tol2:
        d = a.diagonal()
        gap = d[cols] - d[rows]
        phi = 0.5 * np.arctan2(np.copysign(2.0, gap) * x[:m], np.abs(gap))
        g = np.zeros((n, n))
        g.put(off[:m], 2.0 * np.tan(0.5 * phi))
        plus = eye + 0.5 * g - 0.5 * g.T
        w = np.linalg.solve(plus.T, plus)
        b = w.T @ a @ w
        ratio = 0.9 if passes < 2 else 0.5
        if (y := b.take(off)) @ y <= (ratio * ratio) * off2:
            a, v = b, v @ w
        else:
            a, v = kernels._sweep(a, v, eye, rounds)
        passes += 1
    return np.ldexp(a.diagonal(), e), v.T


def test_cold_and_warm_solves_are_bitwise_the_reference():
    # every benchmark matrix cold, and the warm chain of a log flow on the
    # flow-spectral ones, stage by stage as the RK4 field solves them
    log = SpectralFunction.log()
    for s in benchmark_matrices():
        assert as_bytes(kernels.jacobi_unordered(s)) == as_bytes(reference_unordered(s))
        if len(s) > 6:
            continue
        stages, solve = [], kernels.jacobi_unordered

        def recording(a, start=None):
            stages.append((a.copy(), None if start is None else start.copy()))
            return solve(a, start)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "jacobi_unordered", recording)
            flow_integrated(s, FlowConfig(log, 0.16, 0.008))
        assert len(stages) == 80 and all(start is not None for _, start in stages[1:])
        for a, start in stages:
            assert as_bytes(kernels.jacobi_unordered(a, start)) == \
                as_bytes(reference_unordered(a, start))
