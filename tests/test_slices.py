import math
import re
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from matslice import (
    DegenerateSpectrum,
    DimensionMismatch,
    DomainViolation,
    SingularMatrix,
    SpectralFunction,
    Trajectory,
    default_rng,
    descending_spectrum,
    eigensystem,
    flow_factorized,
    fractional_step,
    frobenius,
    functional_step,
    function_values,
    interpolating_field,
    is_irreducible,
    is_jacobi,
    iterate_qr,
    offdiag_norm,
    qr_factor,
    qr_step,
    random_jacobi,
    random_with_spectrum,
    slice_point,
    symmetrize,
    weighted_conjugate,
)
from matslice import slices
from matslice.slices import IRREDUCIBLE_RTOL
from conftest import maxabs


def positive_instance(rng, n=4):
    lam = np.sort(rng.uniform(0.5, 5.0, size=n))[::-1]
    while np.any(-np.diff(lam) < 0.2):
        lam = np.sort(rng.uniform(0.5, 5.0, size=n))[::-1]
    return random_with_spectrum(lam, rng)


# ------------------------------------------------------------------ qr_step

def test_qr_step_2x2_by_hand():
    # S = QR from the factorization test; RQ = [[14/5, 3/5], [3/5, 6/5]]
    s = np.array([[2.0, 1.0], [1.0, 2.0]])
    npt.assert_allclose(qr_step(s), [[2.8, 0.6], [0.6, 1.2]], atol=1e-14)


def test_qr_step_two_formulas_agree():
    # RQ and Q^T S Q are algebraically identical
    rng = np.random.default_rng(211)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        s = positive_instance(rng, n)
        q, r = qr_factor(s)
        npt.assert_allclose(qr_step(s), q.T @ s @ q, atol=1e-12 * frobenius(s))


def test_qr_step_preserves_spectrum_and_symmetry():
    rng = np.random.default_rng(223)
    for _ in range(20):
        s = positive_instance(rng, 5)
        s1 = qr_step(s)
        assert np.array_equal(s1, s1.T)
        npt.assert_allclose(np.linalg.eigvalsh(s1), np.linalg.eigvalsh(s),
                            atol=1e-11 * frobenius(s))


def test_qr_step_keeps_tridiagonal_band():
    rng = np.random.default_rng(227)
    j = random_jacobi(6, rng)
    j1 = qr_step(j)
    band = np.triu(j1, 2)
    assert maxabs(band) < 1e-12 * frobenius(j)


def test_qr_step_rejects_singular():
    with pytest.raises(SingularMatrix):
        qr_step(np.array([[1.0, 1.0], [1.0, 1.0]]))


# ------------------------------------------------------------ functional_step

def test_functional_power_k_equals_k_plain_steps():
    rng = np.random.default_rng(229)
    for _ in range(10):
        s = positive_instance(rng, 4)
        for k in range(1, 5):
            stepped = s
            for _ in range(k):
                stepped = qr_step(stepped)
            via_power = functional_step(s, SpectralFunction.power(k))
            npt.assert_allclose(via_power, stepped, atol=1e-9 * frobenius(s))


def test_functional_large_powers_match_plain_steps():
    # spectrum ratio 40: the weights of x^8 span 40^8 ~ 6.6e12, and of x^6
    # 4.1e9; the weighted QR factorization must still resolve the faint rows
    rng = np.random.default_rng(1)
    s = random_with_spectrum([8.0, 4.0, 1.0, 0.2], rng)
    walked = s
    for k in range(1, 9):
        walked = qr_step(walked)
        if k == 6:
            six = functional_step(s, SpectralFunction.power(6))
            assert maxabs(six - walked) < 1e-13 * frobenius(s)
    eight = functional_step(s, SpectralFunction.power(8))
    assert maxabs(eight - walked) < 1e-12 * frobenius(s)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 13, the LR step in the band, closes this: through the eigenbasis, "
    "x^20 at n = 32 amplifies the eigenvector roundoff; it is off by ~1e-2 * ||J|| "
    "where 20 QR steps are accurate to ~4e-14 * ||J||"))
def test_functional_power_twenty_at_n32_matches_plain_steps():
    # weights spread over 17^20 ~ 4e24; drawn as the command line draws
    # random Jacobi matrices.  Once this passes, drop the xfail marker.
    rng = default_rng(1)
    lam = descending_spectrum(32, rng, lo=1.0, hi=17.0, min_gap=0.05)
    j = random_jacobi(32, rng, spectrum=lam)
    walked = j
    for _ in range(20):
        walked = qr_step(walked)
    assert maxabs(functional_step(j, SpectralFunction.power(20)) - walked) < 1e-10 * frobenius(j)


@pytest.mark.parametrize("n, seed", [(32, 0), (48, 0), (48, 2), (48, 3)])
def test_weight_spreads_near_the_limit_give_finite_matrices(n, seed):
    # weights near 1e-246 underflowed the Householder v.v to 0, and both
    # routes returned hundreds of non-finite entries without an error
    rng = default_rng(seed)
    lam = descending_spectrum(n, rng, lo=1.0, hi=1.0 + n / 2, min_gap=0.05)
    j = random_jacobi(n, rng, spectrum=lam)
    assert np.all(np.isfinite(functional_step(j, SpectralFunction.power(200))))
    assert np.all(np.isfinite(flow_factorized(j, SpectralFunction.log(), 200.0)))


def test_power_steps_keep_jacobi_matrices_jacobi():
    # QR-type steps preserve the tridiagonal slice; drawn as the command line
    # draws random Jacobi matrices, one seed per matrix
    rng = default_rng(0)
    for i in range(100):
        n = (8, 12, 16, 32)[i % 4]
        lam = descending_spectrum(n, rng, lo=1.0, hi=1.0 + 0.5 * n, min_gap=0.05)
        j = random_jacobi(n, default_rng(int(rng.integers(2**31))), spectrum=lam)
        assert is_jacobi(functional_step(j, SpectralFunction.power(2))), (i, n)


def test_functional_step_indefinite_odd_power():
    # the k-step identity needs invertibility, not positivity
    rng = np.random.default_rng(233)
    s = random_with_spectrum([2.0, 0.7, -1.0, -3.0], rng)
    three = qr_step(qr_step(qr_step(s)))
    via = functional_step(s, SpectralFunction.power(3))
    npt.assert_allclose(via, three, atol=1e-10 * frobenius(s))


def test_functional_step_positive_scaling_of_f():
    rng = np.random.default_rng(239)
    s = positive_instance(rng, 4)
    f1 = SpectralFunction.polynomial([0.0, 1.0])
    f2 = SpectralFunction.polynomial([0.0, 2.0])
    f3 = SpectralFunction.polynomial([0.0, 3.0])
    a1 = functional_step(s, f1)
    # doubling every value of f scales f(S) by an exact power of two: the
    # orthogonal factor, and hence the step, must agree bit for bit
    assert np.array_equal(a1, functional_step(s, f2))
    npt.assert_allclose(a1, functional_step(s, f3), atol=1e-13 * frobenius(s))
    npt.assert_allclose(a1, qr_step(s), atol=1e-12 * frobenius(s))


def test_functional_step_rejects_vanishing_f():
    s = np.diag([4.0, 2.0, 1.0]) + 0.0
    s[0, 1] = s[1, 0] = 0.3
    with pytest.raises(SingularMatrix):
        functional_step(s, SpectralFunction.log())  # log(1) = 0 kills a direction


@pytest.mark.parametrize("k", [250, 260])
def test_power_step_beyond_the_spread_limit_names_the_spread(k):
    # x^260 overflowed before the kernel saw it (a RuntimeWarning, then a
    # weight ratio of nan); x^250 reached it as a ratio of 2.4e-308.  The
    # log-weights k * log(lam) spread k * log 17.
    j = random_jacobi(4, default_rng(3), spectrum=[17.0, 9.0, 4.0, 1.0])
    with warnings.catch_warnings(), pytest.raises(SingularMatrix) as exc:
        warnings.simplefilter("error", RuntimeWarning)
        functional_step(j, SpectralFunction.power(k))
    spread = float(re.search(r"spread (\S+) ", str(exc.value)).group(1))
    assert spread == pytest.approx(k * math.log(17.0), rel=1e-5)


def test_weighted_conjugate_checks_its_matrix_and_keeps_the_spread_limit():
    # lists are read as arrays, bitwise; q must be a finite square matrix
    lam, q = eigensystem(random_jacobi(4, default_rng(5), spectrum=[3.0, 1.8, 1.2, 0.6]))
    u = [0.0, -0.5, -1.0, -2.0]
    got = weighted_conjugate(lam, q, np.array(u))
    assert np.array_equal(weighted_conjugate(lam.tolist(), q.tolist(), u), got)
    with pytest.raises(DimensionMismatch):
        weighted_conjugate(lam, q[:3], u)
    with pytest.raises(ValueError, match="finite"):
        weighted_conjugate(lam, np.where(np.eye(4) > 0, math.nan, q), u)
    with pytest.raises(SingularMatrix, match="spread 701 exceeds 700"):
        weighted_conjugate(lam, q, [0.0, -1.0, -2.0, -701.0])


def test_functional_step_rejects_f_vanishing_everywhere():
    s = positive_instance(np.random.default_rng(241), 3)
    with warnings.catch_warnings(), pytest.raises(SingularMatrix):
        warnings.simplefilter("error", RuntimeWarning)
        functional_step(s, SpectralFunction.polynomial([0.0]))


def test_polynomial_step_past_overflow_names_spread_inf():
    # x^260 written as a polynomial goes by Horner, which overflows where
    # pow:260's 260 log(lam) does not; the inf weights used to leave as a
    # RuntimeWarning and are now refused as spread inf
    j = random_jacobi(4, default_rng(3), spectrum=[17.0, 9.0, 4.0, 1.0])
    with warnings.catch_warnings(), pytest.raises(SingularMatrix, match="spread inf"):
        warnings.simplefilter("error", RuntimeWarning)
        functional_step(j, SpectralFunction.polynomial([0.0] * 260 + [1.0]))


def test_quadratic_step_on_a_huge_matrix_refuses_where_pow2_answers():
    s = 1e200 * random_jacobi(4, default_rng(3), spectrum=[17.0, 9.0, 4.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SingularMatrix, match="spread inf"):
            functional_step(s, SpectralFunction.polynomial([0.0, 0.0, 1.0]))
        # 2 log|lam| stays finite: two QR steps
        npt.assert_allclose(functional_step(s, SpectralFunction.power(2)),
                            qr_step(qr_step(s)), rtol=0.0, atol=1e-12 * frobenius(s))


def test_exp_step_past_overflow_is_the_unit_time_identity_flow():
    # e^720 overflows double precision, yet the weights spread only e^9
    s = random_with_spectrum([720.0, 715.0, 712.0, 711.0], np.random.default_rng(239))
    npt.assert_allclose(functional_step(s, SpectralFunction.exp()),
                        flow_factorized(s, SpectralFunction.identity(), 1.0),
                        rtol=0.0, atol=1e-12 * frobenius(s))


def test_functional_step_domain_error_propagates():
    rng = np.random.default_rng(241)
    s = random_with_spectrum([2.0, -1.0], rng)
    with pytest.raises(DomainViolation):
        functional_step(s, SpectralFunction.log())


# ------------------------------------------------------------ fractional_step

def test_fractional_step_k1_is_plain_step():
    rng = np.random.default_rng(251)
    s = positive_instance(rng, 4)
    npt.assert_allclose(fractional_step(s, 1), qr_step(s), atol=1e-12 * frobenius(s))


def test_fractional_step_semigroup():
    # k compositions of the k-th root step give one full step
    rng = np.random.default_rng(257)
    for k in (2, 3, 5):
        s = positive_instance(rng, 4)
        walked = s
        for _ in range(k):
            walked = fractional_step(walked, k)
        npt.assert_allclose(walked, qr_step(s), atol=1e-8 * frobenius(s))


def test_fractional_step_rejects_bad_k():
    s = np.diag([2.0, 1.0])
    with pytest.raises(ValueError):
        fractional_step(s, 0)
    with pytest.raises(ValueError):
        fractional_step(s, 2.5)


# -------------------------------------------------------- interpolating_field

def test_interpolating_field_is_isospectral_direction():
    rng = np.random.default_rng(263)
    for _ in range(10):
        s = positive_instance(rng, 5)
        x = interpolating_field(s)
        assert np.array_equal(x, x.T)
        scale = frobenius(s)
        # commutators are traceless, and they keep every power sum flat:
        # d/dt tr(S^m) = m * tr(S^(m-1) [S, A]) = 0
        assert abs(np.trace(x)) < 1e-12 * scale
        assert abs(np.trace(s @ x)) < 1e-11 * scale ** 2
        assert abs(np.trace(s @ s @ x)) < 1e-10 * scale ** 3


def test_fractional_steps_approach_the_field():
    rng = np.random.default_rng(269)
    s = positive_instance(rng, 4)
    x = interpolating_field(s)
    errs = []
    for k in (100, 1000, 10000):
        diff = (fractional_step(s, k) - s) * k
        errs.append(maxabs(diff - x))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3 * frobenius(s)


# ------------------------------------------------------------------- iterate

def test_iterate_qr_sorts_the_diagonal():
    rng = np.random.default_rng(271)
    s = random_with_spectrum([4.0, 2.0, 1.0], rng)
    traj = iterate_qr(s, 60)
    final = traj.final
    assert offdiag_norm(final) < 1e-8 * frobenius(s)
    npt.assert_allclose(np.diag(final), [4.0, 2.0, 1.0], atol=1e-8)
    npt.assert_allclose(traj.times, np.arange(61.0))


def test_iterate_qr_zero_steps():
    s = np.diag([2.0, 1.0])
    traj = iterate_qr(s, 0)
    assert len(traj) == 1
    npt.assert_array_equal(traj.final, s)


def test_iterate_qr_checks_no_vector(monkeypatch):
    # its sample times are np.arange's, so as_time_grid has nothing to check
    check, calls = slices.as_vector, []
    monkeypatch.setattr(slices, "as_vector", lambda *args: calls.append(args) or check(*args))
    traj = iterate_qr(random_with_spectrum([3.0, 2.0, 1.0], np.random.default_rng(277)), 5)
    assert calls == [] and len(traj) == 6
    npt.assert_array_equal(traj.times, np.arange(6.0))


def test_trajectory_validation():
    s = np.diag([2.0, 1.0])
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 1.0]), states=[s])
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.0]), states=[s, s])
    with pytest.raises(ValueError):
        Trajectory(times=np.array([1.0, 0.0]), states=[s, s])
    with pytest.raises(ValueError):
        Trajectory(times=np.array([]), states=[])


def test_trajectory_refuses_states_of_mixed_shapes():
    with pytest.raises(ValueError, match="one square shape"):
        Trajectory(times=[0.0, 1.0], states=[np.eye(2), np.eye(3)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trajectory_refuses_non_finite_states(bad):
    # write_trajectory_csv wrote such a trajectory, which read_trajectory_csv refused
    with pytest.raises(ValueError, match="finite"):
        Trajectory(times=[0.0, 1.0], states=[np.eye(2), np.diag([1.0, bad])])


@pytest.mark.parametrize("steps", [-1, 1.5, "3"])
def test_iterate_qr_refuses_a_bad_step_count(steps):
    with pytest.raises(ValueError, match="nonnegative integer"):
        iterate_qr(np.diag([2.0, 1.0]), steps)

# --------------------------------------------------------------- slice_point

def test_slice_point_unit_weights_fix_the_matrix():
    rng = np.random.default_rng(277)
    s = positive_instance(rng, 4)
    npt.assert_allclose(slice_point(s, np.ones(4)), s, atol=1e-12 * frobenius(s))


def test_slice_point_weight_scaling():
    rng = np.random.default_rng(281)
    s = positive_instance(rng, 4)
    w = rng.uniform(0.2, 2.0, size=4)
    p1 = slice_point(s, w)
    assert np.array_equal(p1, slice_point(s, 2.0 * w))  # power-of-two: bitwise
    npt.assert_allclose(p1, slice_point(s, 3.0 * w), atol=1e-13 * frobenius(s))


def test_slice_point_matches_functional_step():
    rng = np.random.default_rng(283)
    # spectrum above 1 keeps log(lam) positive, so it is a valid weight vector
    s = random_with_spectrum([5.0, 3.0, 2.0, 1.5], rng)
    lam, _ = eigensystem(s)
    for f in (SpectralFunction.log(), SpectralFunction.power(2),
              SpectralFunction.exp()):
        w = function_values(f, lam)
        npt.assert_allclose(slice_point(s, w), functional_step(s, f),
                            atol=1e-12 * frobenius(s))
    npt.assert_allclose(slice_point(s, lam), qr_step(s), atol=1e-12 * frobenius(s))


def test_slice_point_separates_weights():
    rng = np.random.default_rng(293)
    s = positive_instance(rng, 4)
    w1 = np.array([1.0, 0.5, 0.4, 0.3])
    w2 = np.array([0.3, 0.4, 0.5, 1.0])
    assert maxabs(slice_point(s, w1) - slice_point(s, w2)) > 1e-6


def test_slice_point_rejections():
    rng = np.random.default_rng(307)
    s = positive_instance(rng, 3)
    with pytest.raises(DomainViolation):
        slice_point(s, np.array([1.0, -1.0, 1.0]))
    with pytest.raises(DomainViolation):
        slice_point(s, np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        slice_point(s, np.ones(4))
    with pytest.raises(DegenerateSpectrum):
        slice_point(np.diag([1.0, 1.0, 2.0]), np.ones(3))


# ------------------------------------------------------------- irreducibility

def test_is_irreducible_cases():
    rng = np.random.default_rng(311)
    assert is_irreducible(random_jacobi(5, rng))
    assert not is_irreducible(np.diag([3.0, 2.0, 1.0]))
    block = np.zeros((4, 4))
    block[:2, :2] = [[1.0, 0.5], [0.5, 1.0]]
    block[2:, 2:] = [[3.0, 0.2], [0.2, 2.0]]
    assert not is_irreducible(block)
    # a bond far below the relative threshold counts as broken
    j = random_jacobi(4, rng)
    j[1, 2] = j[2, 1] = 1e-15
    assert not is_irreducible(j)
    full = np.ones((3, 3)) + np.diag([1.0, 2.0, 3.0])
    assert is_irreducible(full)


def subset_scan_irreducible(s):
    """Reference: check every proper nonempty index subset for a coupling
    leaving it (2^n - 2 subsets)."""
    a = symmetrize(s)
    n = a.shape[0]
    coupled = np.abs(a) > IRREDUCIBLE_RTOL * frobenius(a)
    np.fill_diagonal(coupled, False)
    indices = np.arange(n)
    for mask in range(1, 2 ** n - 1):
        inside = (mask >> indices) & 1 == 1
        if not coupled[np.ix_(~inside, inside)].any():
            return False
    return True


def test_is_irreducible_matches_subset_scan():
    rng = np.random.default_rng(317)
    answers = []
    for _ in range(300):
        n = int(rng.integers(2, 11))
        pattern = rng.random((n, n)) < rng.uniform(0.05, 0.5)
        a = np.where(pattern | pattern.T, rng.normal(size=(n, n)), 0.0)
        a = a + a.T + np.diag(rng.normal(size=n))
        answers.append(is_irreducible(a))
        assert answers[-1] == subset_scan_irreducible(a)
    assert 0 < sum(answers) < len(answers)  # both answers exercised
