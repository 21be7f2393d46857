import importlib
import math
import pkgutil
import warnings
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from matslice import (
    DegenerateSpectrum,
    DimensionMismatch,
    DomainViolation,
    FlowConfig,
    SingularMatrix,
    SpectralFunction,
    accessible_vertices,
    apply_function,
    as_symmetric,
    commutator,
    eigensystem,
    flow_factorized,
    flow_factorized_trajectory,
    flow_integrated,
    frobenius,
    function_values,
    functional_step,
    iterate_qr,
    moser_coordinates,
    offdiag_norm,
    qr_factor,
    qr_step,
    random_jacobi,
    random_orthogonal,
    skew_part,
    slice_point,
    spectral_decompose,
    symmetrize,
    toda_field,
    upper_part,
)
import matslice
from matslice import kernels, linalg
from conftest import gram_schmidt_qr, horner_matrix, matrix_function_oracle, maxabs


# ---------------------------------------------------------------- qr_factor

def test_qr_factor_2x2_by_hand():
    # worked by hand: columns (2,1) and (1,2); first column normalizes to
    # (2,1)/sqrt(5), r11 = sqrt(5), r12 = <q1, (1,2)> = 4/sqrt(5),
    # r22 = |(1,2) - (4/5)(2,1)| = 3/sqrt(5)
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    q, r = qr_factor(m)
    s5 = math.sqrt(5.0)
    npt.assert_allclose(q, [[2 / s5, -1 / s5], [1 / s5, 2 / s5]], atol=1e-15)
    npt.assert_allclose(r, [[s5, 4 / s5], [0.0, 3 / s5]], atol=1e-15)


def test_qr_factor_reproduces_input_and_matches_gram_schmidt():
    rng = np.random.default_rng(101)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        m = rng.normal(size=(n, n))
        q, r = qr_factor(m)
        npt.assert_allclose(q @ r, m, atol=1e-13 * frobenius(m))
        npt.assert_allclose(q.T @ q, np.eye(n), atol=1e-13)
        assert np.all(np.diag(r) > 0.0)
        assert maxabs(np.tril(r, -1)) == 0.0  # exactly zeroed, not just small
        q2, r2 = gram_schmidt_qr(m)
        npt.assert_allclose(q, q2, atol=1e-10)
        npt.assert_allclose(r, r2, atol=1e-10 * frobenius(m))


def test_qr_factor_positive_determinant_orthogonal_factor():
    # det q = det m / det r and det r > 0, so sign(det q) = sign(det m)
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.normal(size=(4, 4))
        q, _ = qr_factor(m)
        assert np.sign(np.linalg.det(q)) == np.sign(np.linalg.det(m))


def test_qr_factor_rejects_singular():
    m = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        qr_factor(m)
    with pytest.raises(SingularMatrix):
        qr_factor(np.zeros((3, 3)))


def test_qr_factor_identity_is_exact():
    q, r = qr_factor(np.eye(4))
    assert np.array_equal(q, np.eye(4))
    assert np.array_equal(r, np.eye(4))


def test_as_square_rejections():
    with pytest.raises(DimensionMismatch):
        qr_factor(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        qr_factor(np.arange(3.0))
    with pytest.raises(DimensionMismatch):
        qr_factor(np.array([[1.0]]))
    with pytest.raises(ValueError):
        qr_factor(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_as_vector_copies_and_names_what_it_refuses():
    v = np.array([1, 2])
    got = linalg.as_vector(v, "weights", 2)
    assert got.dtype == float and not np.shares_memory(got, v)
    npt.assert_array_equal(got, [1.0, 2.0])
    with pytest.raises(ValueError, match="weights must be a 1-d array of length 3, got shape"):
        linalg.as_vector(v, "weights", 3)
    with pytest.raises(ValueError, match="sample times must be a nonempty 1-d array"):
        linalg.as_vector([], "sample times")
    with pytest.raises(ValueError, match="spectrum must be finite"):
        linalg.as_vector([1.0, np.inf], "spectrum")


# -------------------------------------------------------------- eigensystem

def test_eigensystem_diagonal_is_sorted_descending():
    lam, q = eigensystem(np.diag([1.0, 3.0, 2.0]))
    npt.assert_allclose(lam, [3.0, 2.0, 1.0], atol=1e-14)
    # rows are signed unit vectors picking out the right coordinates
    npt.assert_allclose(np.abs(q), np.eye(3)[[1, 2, 0]], atol=1e-14)


def test_eigensystem_2x2_by_hand():
    # [[0,1],[1,0]] has eigenpairs (1, (1,1)/sqrt2) and (-1, (1,-1)/sqrt2)
    lam, q = eigensystem(np.array([[0.0, 1.0], [1.0, 0.0]]))
    npt.assert_allclose(lam, [1.0, -1.0], atol=1e-15)
    s2 = math.sqrt(0.5)
    npt.assert_allclose(q, [[s2, s2], [s2, -s2]], atol=1e-15)


def test_eigensystem_matches_lapack():
    rng = np.random.default_rng(42)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        s = symmetrize(rng.normal(size=(n, n)))
        lam, q = eigensystem(s)
        npt.assert_allclose(lam, np.sort(np.linalg.eigvalsh(s))[::-1],
                            atol=1e-12 * max(1.0, frobenius(s)))
        npt.assert_allclose(q @ q.T, np.eye(n), atol=1e-13)
        npt.assert_allclose((q.T * lam) @ q, s, atol=1e-12 * max(1.0, frobenius(s)))


@pytest.mark.parametrize("n", [2, 3, 5, 16, 32, 33])
def test_eigensystem_matches_lapack_at_sizes(n):
    s = symmetrize(np.random.default_rng(100 + n).normal(size=(n, n)))
    lam, q = eigensystem(s)
    npt.assert_allclose(lam, np.sort(np.linalg.eigvalsh(s))[::-1],
                        atol=1e-12 * max(1.0, frobenius(s)))
    npt.assert_allclose(q @ q.T, np.eye(n), atol=1e-13)
    npt.assert_allclose((q.T * lam) @ q, s, atol=1e-12 * max(1.0, frobenius(s)))


def test_round_robin_rounds_are_disjoint_and_sweeps_cover_every_pair():
    for n in range(2, 34):
        seen = []
        for p, t, *_ in kernels.solver_layout(n)[-1]:
            touched = np.concatenate((p, t))
            assert len(set(touched.tolist())) == len(touched), n  # disjoint
            assert np.all(p < t) and touched.max() < n, n
            seen += list(zip(p.tolist(), t.tolist()))
        assert sorted(seen) == [(i, j) for i in range(n) for j in range(i + 1, n)], n


NEAR_DEGENERATE = ["close-pair", "coupled-double", "paired-4", "paired-8",
                   "paired-16", "paired-32"]


def near_degenerate(case: str) -> np.ndarray:
    """Symmetric matrices with eigenvalues or diagonal entries that nearly
    coincide: far inside any gate on diagonal gaps."""
    if case == "close-pair":
        return np.array([[1.0, 1e-9, 1e-3], [1e-9, 1.0 + 1e-12, 0.0], [1e-3, 0.0, 2.0]])
    if case == "coupled-double":
        return np.array([[1.0, 0.0, 1e-3], [0.0, 1.0, 0.0], [1e-3, 0.0, 2.0]])
    n = int(case.split("-")[1])
    lam = np.repeat(np.linspace(1.0, 2.0, n // 2), 2)
    lam[1::2] += 1e-11 * np.linalg.norm(lam)  # pairs 1e-11 * ||a|| apart
    q = random_orthogonal(n, np.random.default_rng(n))
    return symmetrize((q.T * lam) @ q)


@pytest.mark.parametrize("case", [2, 5, 8, *NEAR_DEGENERATE])
def test_warm_start_gives_the_cold_eigensystem(case):
    if isinstance(case, int):
        rng = np.random.default_rng(41 + case)
        s = symmetrize(rng.normal(size=(case, case)))
    else:
        rng = np.random.default_rng(41)
        s = near_degenerate(case)
    n = len(s)
    scale = frobenius(s)
    lam, q = eigensystem(s)
    _, unrelated = eigensystem(symmetrize(rng.normal(size=(n, n))))
    for start in (np.eye(n), random_orthogonal(n, rng), q, unrelated):
        lam_w, q_w = kernels.jacobi_unordered(s, start)
        npt.assert_allclose(np.sort(lam_w)[::-1], lam, atol=1e-12 * scale)
        npt.assert_allclose((q_w.T * lam_w) @ q_w, s, atol=1e-12 * scale)
        npt.assert_allclose(q_w @ q_w.T, np.eye(n), atol=1e-13)


@pytest.mark.parametrize("case", NEAR_DEGENERATE)
def test_near_degenerate_eigensystem_keeps_full_accuracy(case):
    # cold, and warm from the eigenbasis of a nearby matrix: no NaN, no
    # RuntimeWarning, the residual within the stop tolerance and q
    # orthogonal to a few ulps (a Cayley step whose k is not exactly
    # antisymmetric leaves q off by 1e-14 on close-pair)
    s = near_degenerate(case)
    n = len(s)
    _, start = eigensystem(s + 1e-6 * symmetrize(np.random.default_rng(n).normal(size=(n, n))))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        solves = [kernels.jacobi_eigensystem(s), kernels.jacobi_unordered(s, start)]
    for lam, q in solves:
        assert np.all(np.isfinite(lam)) and np.all(np.isfinite(q))
        assert frobenius((q.T * lam) @ q - s) <= kernels.JACOBI_SWEEP_RTOL * frobenius(s)
        assert frobenius(q @ q.T - np.eye(n)) <= 4 * n * np.finfo(float).eps


def dense_or_near_degenerate(case) -> np.ndarray:
    """The warm-start inputs: a dense matrix of size ``case``, or a NEAR_DEGENERATE case."""
    if isinstance(case, int):
        return symmetrize(np.random.default_rng(41 + case).normal(size=(case, case)))
    return near_degenerate(case)


@pytest.mark.parametrize("case", [2, 5, 8, *NEAR_DEGENERATE])
def test_unordered_core_takes_a_start_in_any_row_order_and_signs(case):
    # the Lax field chains the core's own unsorted, unsigned bases
    s = dense_or_near_degenerate(case)
    n = len(s)
    rng = np.random.default_rng(43)
    _, near = eigensystem(s + 1e-6 * symmetrize(rng.normal(size=(n, n))))
    start = near[rng.permutation(n)] * rng.choice([-1.0, 1.0], size=(n, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lam, q = kernels.jacobi_unordered(s, start)
    assert frobenius((q.T * lam) @ q - s) <= kernels.JACOBI_SWEEP_RTOL * frobenius(s)
    assert frobenius(q @ q.T - np.eye(n)) <= 4 * n * np.finfo(float).eps
    npt.assert_allclose(np.sort(lam)[::-1], eigensystem(s)[0], atol=1e-12 * frobenius(s))


@pytest.mark.parametrize("case", [2, 5, 8, *NEAR_DEGENERATE])
def test_eigensystem_kernel_is_the_core_sorted_and_signed(case):
    s = dense_or_near_degenerate(case)
    lam, q = kernels.jacobi_unordered(s)
    order = np.argsort(-lam, kind="stable")
    # each row's first entry above 1e-12 in magnitude made positive
    want = np.array([row if row[np.abs(row) > 1e-12][0] > 0.0 else -row
                     for row in q[order]])
    got_lam, got_q = kernels.jacobi_eigensystem(s)
    assert got_lam.tobytes() == lam[order].tobytes()
    assert got_q.tobytes() == want.tobytes()


def test_eigensystem_row_sign_convention():
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = symmetrize(rng.normal(size=(5, 5)))
        _, q = eigensystem(s)
        for row in q:
            lead = row[np.abs(row) > 1e-12][0]
            assert lead > 0.0


def test_spectral_decompose_rejects_near_degenerate():
    with pytest.raises(DegenerateSpectrum):
        spectral_decompose(np.diag([1.0, 1.0, 2.0]))
    with pytest.raises(DegenerateSpectrum):
        spectral_decompose(np.zeros((2, 2)))
    with pytest.raises(DegenerateSpectrum):
        spectral_decompose(np.diag([1.0, 1.0 + 1e-12]))
    dec = spectral_decompose(np.diag([2.0, 1.0]))
    npt.assert_allclose(dec.reconstruct(), np.diag([2.0, 1.0]), atol=1e-14)


# -------------------------------------------------------- spectral functions

def test_function_values_each_kind():
    lam = np.array([4.0, 1.0])
    npt.assert_allclose(function_values(SpectralFunction.identity(), lam), lam)
    npt.assert_allclose(function_values(SpectralFunction.log(), lam),
                        [math.log(4.0), 0.0])
    npt.assert_allclose(function_values(SpectralFunction.exp(), lam),
                        [math.exp(4.0), math.e])
    npt.assert_allclose(function_values(SpectralFunction.power(2), lam), [16.0, 1.0])
    npt.assert_allclose(
        function_values(SpectralFunction.power(Fraction(1, 2)), lam), [2.0, 1.0])
    npt.assert_allclose(
        function_values(SpectralFunction.polynomial([1.0, 0.0, 1.0]), lam),
        [17.0, 2.0])  # 1 + x^2
    npt.assert_allclose(
        function_values(SpectralFunction.exp(), -2.0 * lam),
        np.exp([-8.0, -2.0]))


@pytest.mark.parametrize("lam", [[np.nan, 1.0], [1.0, np.inf], [[4.0, 1.0]], []])
@pytest.mark.parametrize("kind", ["identity", "log", "exp", "power", "polynomial"])
def test_function_values_refuses_a_spectrum_that_is_not_finite_and_1d(kind, lam):
    # log on [nan, 1.0] used to return [nan, 0.], the domain check passing nan
    f = {"identity": SpectralFunction.identity(), "log": SpectralFunction.log(),
         "exp": SpectralFunction.exp(), "power": SpectralFunction.power(Fraction(1, 2)),
         "polynomial": SpectralFunction.polynomial([1.0, 2.0])}[kind]
    with pytest.raises(ValueError, match="spectrum must be"):
        function_values(f, lam)


def test_function_domain_errors():
    lam = np.array([2.0, -1.0])
    with pytest.raises(DomainViolation):
        function_values(SpectralFunction.log(), lam)
    with pytest.raises(DomainViolation):
        function_values(SpectralFunction.power(Fraction(1, 3)), lam)
    with pytest.raises(DomainViolation):
        function_values(SpectralFunction.power(-1), np.array([2.0, 0.0]))
    # integer powers are fine on negative values
    npt.assert_allclose(function_values(SpectralFunction.power(3), lam), [8.0, -1.0])


def test_coefficients_are_the_polynomial_form():
    assert SpectralFunction.identity().coefficients == (0.0, 1.0)
    assert SpectralFunction.power(3).coefficients == (0.0, 0.0, 0.0, 1.0)
    assert SpectralFunction.power(0).coefficients == (1.0,)
    assert SpectralFunction.polynomial([2.0, 0.0, -1.0]).coefficients == (2.0, 0.0, -1.0)
    for f in (SpectralFunction.log(), SpectralFunction.exp(), SpectralFunction.power(-1),
              SpectralFunction.power(Fraction(1, 3)), SpectralFunction.power(Fraction(3, 2))):
        assert f.coefficients is None


def branch_step_log_weights(f, lam):
    """The log-weights of a functional step as the step itself once wrote
    them: the reference for ``step_log_weights``, inside the domain."""
    with np.errstate(divide="ignore"):
        if f.kind == "exp":
            return 1.0 * lam  # the unit scale of every exp a caller can build
        if f.kind == "power" and f.exponent:
            return float(f.exponent) * np.log(np.abs(lam))
        w = np.abs(function_values(f, lam))
        return np.log(w / (w.max() or 1.0))


def branch_flow_log_weights(g, lam, times):
    """The log-weights of a factorized flow as the flow itself once wrote them;
    for x^k (k != 0) sign(t) sign(lam)^k e^(k log|lam| + log|t|), the closed
    log form of its steps, which answers where lam^k overflows and t lam^k
    does not."""
    if g.kind == "power" and g.exponent:
        k = float(g.exponent)
        return [np.sign(lam) ** k * np.copysign(np.exp(k * np.log(np.abs(lam)) + math.log(abs(t))),
                                                t) if t else 0.0 * lam for t in times.tolist()]
    if g.kind == "exp":
        with np.errstate(over="ignore"):
            return [np.copysign(np.exp(1.0 * lam + math.log(abs(t))), t) if t else 0.0 * lam
                    for t in times.tolist()]
    vals = function_values(g, lam)
    return [t * vals for t in times]


LOG_WEIGHT_KINDS = {
    "identity": SpectralFunction.identity(), "log": SpectralFunction.log(),
    "exp": SpectralFunction.exp(), "pow2": SpectralFunction.power(2),
    "pow3": SpectralFunction.power(3), "pow-1": SpectralFunction.power(-1),
    "pow0": SpectralFunction.power(0), "pow1/3": SpectralFunction.power(Fraction(1, 3)),
    "polynomial": SpectralFunction.polynomial([0.5, -1.0, 0.25, 2.0]),
    "constant": SpectralFunction.polynomial([2.0]),
}


@pytest.mark.parametrize("kind", LOG_WEIGHT_KINDS)
def test_log_weights_are_bitwise_the_branches_they_replace(kind):
    f = LOG_WEIGHT_KINDS[kind]
    rng = np.random.default_rng(307)
    spectra = [np.array([720.0, 715.0, 712.0, 711.0])]
    spectra += [np.sort(rng.uniform(0.1, 20.0, n))[::-1] for n in (2, 4, 6, 8)]
    if f.kind != "log" and (f.exponent is None or f.exponent.denominator == 1):
        spectra += [np.sort(rng.normal(size=n))[::-1] for n in (3, 5, 7)]
    times = np.array([0.0, 2.0 ** -1030, 1e-300, 0.25, 1.0, 3.5, 40.0])
    for lam in spectra:
        assert f.step_log_weights(lam).tobytes() == branch_step_log_weights(f, lam).tobytes()
        got, want = f.flow_log_weights(lam, times), branch_flow_log_weights(f, lam, times)
        assert [u.tobytes() for u in got] == [u.tobytes() for u in want]


def test_spectral_function_constructor_validation():
    with pytest.raises(TypeError):
        SpectralFunction.power(0.5)  # non-integral float is ambiguous
    with pytest.raises(ValueError):
        SpectralFunction.polynomial([])
    with pytest.raises(ValueError):
        SpectralFunction.polynomial([1.0, 0.0])  # zero leading coefficient
    f = SpectralFunction.power(2.0)  # integral float is accepted as int
    assert f(3.0) == 9.0


@pytest.mark.parametrize("kind, fields, message", [
    ("cube", {}, "unknown function kind"),
    ("power", {"exponent": 2}, "Fraction exponent"),
    ("power", {"exponent": 0.5}, "Fraction exponent"),
], ids=["unknown kind", "int exponent", "float exponent"])
def test_spectral_function_refuses_what_its_constructors_never_build(kind, fields, message):
    with pytest.raises(ValueError, match=message):
        SpectralFunction(kind, **fields)

@pytest.mark.parametrize("make", [
    lambda: SpectralFunction.polynomial([math.nan, 1.0]),
    lambda: SpectralFunction.polynomial([1.0, -math.inf]),
    lambda: SpectralFunction.polynomial([math.inf]),
], ids=["poly nan", "poly -inf lead", "poly inf"])
def test_spectral_function_refuses_non_finite_parameters(make):
    # a NaN coefficient used to pass the constructor and make toda_field
    # return an all-NaN matrix without raising
    with pytest.raises(ValueError, match="finite"):
        make()


def test_apply_function_sqrt_of_diagonal():
    s = np.diag([4.0, 1.0])
    got = apply_function(s, SpectralFunction.power(Fraction(1, 2)))
    npt.assert_allclose(got, np.diag([2.0, 1.0]), atol=1e-14)


def test_apply_function_identity_is_bitwise_passthrough():
    rng = np.random.default_rng(5)
    s = symmetrize(rng.normal(size=(4, 4)))
    assert np.array_equal(apply_function(s, SpectralFunction.identity()), s)


def test_apply_function_polynomial_matches_horner_matmuls():
    rng = np.random.default_rng(11)
    coeffs = [0.5, -1.0, 0.25, 2.0]
    for _ in range(20):
        s = symmetrize(rng.normal(size=(5, 5)))
        got = apply_function(s, SpectralFunction.polynomial(coeffs))
        want = horner_matrix(s, coeffs)
        npt.assert_allclose(got, want, atol=1e-9 * max(1.0, frobenius(want)))


def test_apply_function_exp_inverse_pair():
    rng = np.random.default_rng(13)
    s = symmetrize(rng.normal(size=(4, 4)))
    e = apply_function(s, SpectralFunction.exp())
    back = apply_function(e, SpectralFunction.log())
    npt.assert_allclose(back, s, atol=1e-11 * max(1.0, frobenius(s)))
    npt.assert_allclose(
        apply_function(s, SpectralFunction.exp())
        @ apply_function(-s, SpectralFunction.exp()),
        np.eye(4), atol=1e-11)


def test_apply_function_odd_power_on_indefinite_matrix():
    rng = np.random.default_rng(17)
    s = symmetrize(rng.normal(size=(4, 4)))
    got = apply_function(s, SpectralFunction.power(3))
    npt.assert_allclose(got, s @ s @ s, atol=1e-11 * frobenius(s) ** 3)


def test_apply_function_matches_lapack_route():
    rng = np.random.default_rng(19)
    for _ in range(10):
        s = symmetrize(rng.normal(size=(5, 5)))
        got = apply_function(s, SpectralFunction.exp())
        want = matrix_function_oracle(s, np.exp)
        npt.assert_allclose(got, want, atol=1e-11 * max(1.0, frobenius(want)))


@pytest.mark.parametrize("scale, spectrum, f", [
    (1e200, [17.0, 9.0, 4.0, 1.0], SpectralFunction.power(2)),
    (1.0, [720.0, 715.0, 712.0, 711.0], SpectralFunction.exp()),
], ids=["pow:2 of 1e200 J", "exp past 709.8"])
def test_apply_function_refuses_an_overflowing_result(scale, spectrum, f):
    # f(S) used to overflow with a RuntimeWarning and come back inf and NaN
    s = scale * random_jacobi(4, np.random.default_rng(3), spectrum=spectrum)
    with warnings.catch_warnings(), pytest.raises(DomainViolation, match="overflows"):
        warnings.simplefilter("error", RuntimeWarning)
        apply_function(s, f)


def test_apply_function_validates_once(monkeypatch):
    # the Lax field calls apply_function in every RK4 stage
    calls = [0]
    check = linalg.as_square

    def counting(m):
        calls[0] += 1
        return check(m)

    monkeypatch.setattr(linalg, "as_square", counting)
    s = symmetrize(np.random.default_rng(21).normal(size=(4, 4)))
    apply_function(s, SpectralFunction.exp())
    assert calls[0] == 1
    eigensystem(s)
    assert calls[0] == 2


@pytest.fixture
def validations(monkeypatch):
    """Run a call and count its ``as_square`` checks, in whichever module they run."""
    check = linalg.as_square
    calls = [0]

    def counting(m):
        calls[0] += 1
        return check(m)

    for info in pkgutil.iter_modules(matslice.__path__):
        module = importlib.import_module(f"matslice.{info.name}")
        if getattr(module, "as_square", None) is check:
            monkeypatch.setattr(module, "as_square", counting)

    def count(call):
        calls[0] = 0
        call()
        return calls[0]

    return count


_J4 = random_jacobi(4, np.random.default_rng(5), spectrum=[3.0, 1.8, 1.2, 0.6])
_LOG = SpectralFunction.log()


@pytest.mark.parametrize("name, call", [
    ("toda_field", lambda: toda_field(_J4, _LOG)),
    ("qr_step", lambda: qr_step(_J4)),
    ("functional_step", lambda: functional_step(_J4, SpectralFunction.power(2))),
    ("slice_point", lambda: slice_point(_J4, [1.0, 0.5, 0.25, 0.125])),
    ("moser_coordinates", lambda: moser_coordinates(_J4)),
    ("accessible_vertices", lambda: accessible_vertices(_J4)),
    ("flow_factorized", lambda: flow_factorized(_J4, _LOG, 1.0)),
])
def test_public_functions_validate_their_matrix_once(validations, name, call):
    assert validations(call) == 1, name


@pytest.mark.parametrize("name, call", [
    ("flow_integrated identity",
     lambda k: flow_integrated(_J4, FlowConfig(SpectralFunction.identity(), 0.1 * k, 0.1))),
    ("flow_integrated log", lambda k: flow_integrated(_J4, FlowConfig(_LOG, 0.1 * k, 0.1))),
    ("iterate_qr", lambda k: iterate_qr(_J4, k)),
    ("flow_factorized_trajectory",
     lambda k: flow_factorized_trajectory(_J4, _LOG, np.arange(k) + 0.5)),
])
def test_loops_validate_independently_of_their_length(validations, name, call):
    assert validations(lambda: call(2)) == validations(lambda: call(5)), name


# ------------------------------------------------------------ the splitting

def test_splitting_frozen_values():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    npt.assert_array_equal(skew_part(m), [[0.0, -3.0], [3.0, 0.0]])
    npt.assert_array_equal(upper_part(m), [[1.0, 5.0], [0.0, 4.0]])


def test_splitting_reassembles_matrix():
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = rng.normal(size=(5, 5))
        pa, pu = skew_part(m), upper_part(m)
        total = pa + pu
        # exact on and below the diagonal; above it one float add+sub happens
        assert np.array_equal(np.tril(total), np.tril(m))
        upper = np.triu(total, 1) - np.triu(m, 1)
        assert maxabs(upper) <= 4.0 * np.spacing(maxabs(m))


def test_splitting_idempotent_bitwise():
    rng = np.random.default_rng(29)
    m = rng.normal(size=(6, 6))
    pa = skew_part(m)
    assert np.array_equal(skew_part(pa), pa)
    pu = upper_part(m)
    assert np.array_equal(upper_part(pu), pu)
    assert maxabs(skew_part(pu)) == 0.0
    assert np.array_equal(pa.T, -pa)


def test_commutator_frozen_and_antisymmetry():
    a = np.array([[1.0, 0.0], [0.0, 2.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    npt.assert_array_equal(commutator(a, b), [[0.0, -1.0], [1.0, 0.0]])
    rng = np.random.default_rng(31)
    x, y = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
    npt.assert_allclose(commutator(x, y), -commutator(y, x), atol=1e-15)
    with pytest.raises(DimensionMismatch):
        commutator(np.eye(2), np.eye(3))


def test_norm_helpers():
    m = np.array([[3.0, 4.0], [0.0, 0.0]])
    assert frobenius(m) == 5.0
    assert offdiag_norm(m) == 4.0
    assert offdiag_norm(np.diag([5.0, 6.0])) == 0.0
    npt.assert_array_equal(symmetrize(m), [[3.0, 2.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        as_symmetric(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_offdiag_norm_checks_its_matrix():
    # it returned nan for a NaN entry and 0.0 for a vector
    with pytest.raises(ValueError, match="finite"):
        offdiag_norm([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(DimensionMismatch):
        offdiag_norm([1.0, 2.0])
