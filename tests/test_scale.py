"""Results scale with the input, from 1e-170 to 1e160.

Every operation here is positively homogeneous.  The kernels divide by a
power of two of max|entry| on entry (exact) and scale back on exit, so
neither a norm nor a tolerance can underflow or overflow on the way.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matslice import (
    bfr_map,
    default_rng,
    descending_spectrum,
    eigensystem,
    frobenius,
    moser_coordinates,
    moser_reconstruct,
    offdiag_norm,
    qr_factor,
    qr_step,
    random_jacobi,
    random_with_spectrum,
    slice_point,
    spectral_decompose,
)

S3 = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
LAM3 = np.array([3.0 + math.sqrt(3.0), 3.0, 3.0 - math.sqrt(3.0)])
EXTREMES = [1e-170, 1e160]


@pytest.mark.parametrize("c", EXTREMES)
def test_eigensystem_at_extreme_scales(c):
    # without scaling, the sweep tolerance underflows to 0 or overflows to
    # inf and the diagonal (4, 3, 2) comes back as the spectrum
    lam, q = eigensystem(c * S3)
    npt.assert_allclose(lam / c, LAM3, rtol=1e-14)
    npt.assert_allclose((q.T * (lam / c)) @ q, S3, atol=1e-14 * frobenius(S3))


@pytest.mark.parametrize("c", EXTREMES)
def test_qr_factor_and_step_at_extreme_scales(c):
    # unscaled, the Householder norms overflow (NaN) or underflow (every
    # reflection skipped, the step silently the identity map)
    q1, r1 = qr_factor(S3)
    q, r = qr_factor(c * S3)
    npt.assert_allclose(q, q1, atol=1e-15)
    npt.assert_allclose(r / c, r1, atol=1e-15 * frobenius(S3))
    step = qr_step(c * S3)
    assert np.all(np.isfinite(step))
    npt.assert_allclose(step / c, qr_step(S3), atol=1e-14 * frobenius(S3))


@pytest.mark.parametrize("c", EXTREMES)
def test_simplicity_gate_at_extreme_scales(c):
    dec = spectral_decompose(c * S3)
    npt.assert_allclose(dec.lam / c, LAM3, rtol=1e-14)
    npt.assert_allclose(bfr_map(c * S3) / c, bfr_map(S3), atol=1e-14 * frobenius(S3))
    w = np.array([1.0, 0.5, 0.25])
    npt.assert_allclose(slice_point(c * S3, w) / c, slice_point(S3, w),
                        atol=1e-14 * frobenius(S3))


@pytest.mark.parametrize("c", EXTREMES)
def test_norms_at_extreme_scales(c):
    m = np.array([[3.0, 4.0], [0.0, 0.0]])
    assert frobenius(c * m) == pytest.approx(5.0 * c, rel=1e-15)
    assert offdiag_norm(c * m) == pytest.approx(4.0 * c, rel=1e-15)
    assert frobenius(np.zeros((2, 2))) == 0.0


@pytest.mark.parametrize("k", [-560, -1, 1, 520])
def test_power_of_two_scaling_is_exact(k):
    rng = np.random.default_rng(17)
    s = random_with_spectrum([5.0, 2.5, 1.0, -0.5], rng)
    big = np.ldexp(s, k)
    lam, q = eigensystem(s)
    lam_k, q_k = eigensystem(big)
    assert np.array_equal(lam_k, np.ldexp(lam, k))
    assert np.array_equal(q_k, q)
    qf, rf = qr_factor(s)
    qf_k, rf_k = qr_factor(big)
    assert np.array_equal(qf_k, qf)
    assert np.array_equal(rf_k, np.ldexp(rf, k))
    assert np.array_equal(qr_step(big), np.ldexp(qr_step(s), k))


@pytest.mark.parametrize("c", [2.0 ** -500, 1e-13, 1e150], ids=["2^-500", "1e-13", "1e150"])
def test_moser_round_trip_at_any_scale(c):
    # an absolute 1e-12 Lanczos breakdown threshold refused 1e-13 * J at its
    # first off-diagonal (6.8e-14) and every smaller multiple
    j = random_jacobi(5, default_rng(1))
    coords = moser_coordinates(c * j)
    back = moser_reconstruct(coords.lam, coords.w)
    npt.assert_allclose(back / c, j, rtol=0.0, atol=1e-14 * frobenius(j))


@pytest.mark.parametrize("k", [-500, -43, 497])
def test_moser_reconstruct_scales_exactly_by_powers_of_two(k):
    coords = moser_coordinates(random_jacobi(5, default_rng(1)))
    want = np.ldexp(moser_reconstruct(coords.lam, coords.w), k)
    assert np.array_equal(moser_reconstruct(np.ldexp(coords.lam, k), coords.w), want)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6),
       exponent=st.floats(-150.0, 150.0))
def test_results_are_invariant_across_scales(seed, n, exponent):
    rng = np.random.default_rng(seed)
    s = random_with_spectrum(descending_spectrum(n, rng, lo=0.5, hi=5.0, min_gap=0.2), rng)
    c = 10.0 ** exponent
    lam, _ = eigensystem(s)
    lam_c, _ = eigensystem(c * s)
    npt.assert_allclose(lam_c, c * lam, rtol=0.0, atol=1e-12 * c * np.abs(lam).max())
    step = qr_step(c * s)
    assert np.all(np.isfinite(step))
    npt.assert_allclose(step, c * qr_step(s), rtol=0.0, atol=1e-12 * c * frobenius(s))
    npt.assert_allclose(spectral_decompose(c * s).lam, lam_c, rtol=0.0, atol=0.0)
