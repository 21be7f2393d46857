import math

import numpy as np
import numpy.testing as npt
import pytest

from matslice import (
    DimensionMismatch,
    MoserCoordinates,
    NotJacobi,
    ReconstructionFailure,
    SpectralFunction,
    descending_spectrum,
    flow_factorized,
    function_values,
    is_jacobi,
    is_tridiagonal,
    moser_coordinates,
    moser_reconstruct,
    random_jacobi,
)
from conftest import maxabs


def test_is_jacobi_cases():
    rng = np.random.default_rng(401)
    assert is_jacobi(random_jacobi(5, rng))
    assert not is_jacobi(np.diag([3.0, 2.0, 1.0]))          # zero bonds
    bad = random_jacobi(4, rng)
    bad[0, 1] = bad[1, 0] = -0.5                             # negative bond
    assert not is_jacobi(bad)
    full = np.ones((3, 3)) + np.diag([1.0, 2.0, 3.0])        # outside the band
    assert not is_jacobi(full)


def test_is_tridiagonal_validates_its_input():
    assert is_tridiagonal(np.diag([3.0, 2.0, 1.0]))
    assert not is_tridiagonal(np.ones((3, 3)))
    assert is_tridiagonal(np.triu(np.tril(np.ones((4, 4)), 1), -1) + np.diag([1.0, 2.0, 3.0, 4.0]))
    for bad in (np.ones(4), np.zeros((0, 0)), np.zeros((1, 1)), np.ones((3, 4))):
        with pytest.raises(DimensionMismatch):
            is_tridiagonal(bad)
    with pytest.raises(ValueError):
        is_tridiagonal(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_moser_coordinates_2x2_by_hand():
    # [[0,1],[1,0]]: spectrum (1,-1), both eigenvectors weight 1/sqrt(2)
    mc = moser_coordinates(np.array([[0.0, 1.0], [1.0, 0.0]]))
    npt.assert_allclose(mc.lam, [1.0, -1.0], atol=1e-15)
    npt.assert_allclose(mc.w, [math.sqrt(0.5), math.sqrt(0.5)], atol=1e-15)

    # [[1,1],[1,-1]]: spectrum (sqrt2, -sqrt2), weights (cos pi/8, sin pi/8)
    mc = moser_coordinates(np.array([[1.0, 1.0], [1.0, -1.0]]))
    npt.assert_allclose(mc.lam, [math.sqrt(2.0), -math.sqrt(2.0)], atol=1e-15)
    npt.assert_allclose(mc.w, [math.cos(math.pi / 8), math.sin(math.pi / 8)],
                        atol=1e-15)


def test_moser_round_trip_many_sizes():
    rng = np.random.default_rng(409)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        j = random_jacobi(n, rng)
        mc = moser_coordinates(j)
        back = moser_reconstruct(mc.lam, mc.w)
        assert maxabs(back - j) < 1e-8 * max(1.0, maxabs(j))


def test_moser_reverse_round_trip():
    rng = np.random.default_rng(419)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        lam = descending_spectrum(n, rng)
        w = rng.uniform(0.1, 1.0, size=n)
        w /= np.linalg.norm(w)
        j = moser_reconstruct(lam, w)
        assert is_jacobi(j)
        mc = moser_coordinates(j)
        npt.assert_allclose(mc.lam, lam, atol=1e-9 * maxabs(lam))
        npt.assert_allclose(mc.w, w, atol=1e-9)


def test_moser_coordinates_rejects_non_jacobi():
    with pytest.raises(NotJacobi):
        moser_coordinates(np.diag([2.0, 1.0]))
    with pytest.raises(NotJacobi):
        moser_coordinates(np.ones((3, 3)))


def test_moser_coordinates_validation():
    with pytest.raises(ValueError):
        MoserCoordinates(lam=np.array([1.0, 2.0]), w=np.array([0.6, 0.8]))  # ascending
    with pytest.raises(ValueError):
        MoserCoordinates(lam=np.array([1.0, 1.0 - 1e-12]), w=np.array([0.6, 0.8]))
    with pytest.raises(ValueError):
        MoserCoordinates(lam=np.array([2.0, 1.0]), w=np.array([0.6, -0.8]))
    with pytest.raises(ValueError):
        MoserCoordinates(lam=np.array([2.0, 1.0]), w=np.array([0.6, 0.8, 0.1]))
    mc = MoserCoordinates(lam=np.array([2.0, 1.0]), w=np.array([3.0, 4.0]))
    npt.assert_allclose(mc.w, [0.6, 0.8], atol=1e-15)  # stored normalized


def test_moser_reconstruct_refuses_boundary_weights():
    lam = np.array([3.0, 2.0, 1.0])
    with pytest.raises(ReconstructionFailure):
        moser_reconstruct(lam, np.array([1e-12, 1.0, 1.0]))


def test_moser_reconstruct_refuses_a_lanczos_breakdown():
    # the gap 3e-9 passes the simplicity gate and the weight 2e-10 the floor,
    # but the first Lanczos residual is far below 1e-12 * 2^e
    message = "Lanczos off-diagonal 6.000e-19 fell below 2.000e-12 at step 1"
    with pytest.raises(ReconstructionFailure, match=message):
        moser_reconstruct([1.0, 1.0 - 3e-9], [1.0, 2e-10])

def test_spectrum_constant_along_flow():
    rng = np.random.default_rng(421)
    j = random_jacobi(5, rng, spectrum=[5.0, 3.5, 2.0, 1.0, -1.0])
    mc0 = moser_coordinates(j)
    for t in (0.5, 2.0):
        jt = flow_factorized(j, SpectralFunction.identity(), t)
        assert is_jacobi(jt)
        mct = moser_coordinates(jt)
        npt.assert_allclose(mct.lam, mc0.lam, atol=1e-9 * maxabs(mc0.lam))
    # by t=8 the trailing weights underflow the chart, but eigenvalues stand
    far = flow_factorized(j, SpectralFunction.identity(), 8.0)
    npt.assert_allclose(np.sort(np.linalg.eigvalsh(far))[::-1], mc0.lam,
                        atol=1e-9 * maxabs(mc0.lam))


def test_weights_evolve_exponentially_along_flow():
    # in these coordinates the flow is linear: w(t) is the normalization of
    # exp(t * g(lam)) * w(0) -- an independent closed form for the whole path
    rng = np.random.default_rng(431)
    j = random_jacobi(5, rng, spectrum=[5.0, 3.5, 2.0, 1.0, -1.0])
    mc0 = moser_coordinates(j)
    cases = [
        (SpectralFunction.identity(), 0.3),
        (SpectralFunction.identity(), 1.5),
        (SpectralFunction.polynomial([0.0, 0.0, 1.0]), 0.3),
    ]
    for g, t in cases:
        mct = moser_coordinates(flow_factorized(j, g, t))
        pred = np.exp(t * function_values(g, mc0.lam)) * mc0.w
        pred /= np.linalg.norm(pred)
        npt.assert_allclose(mct.w, pred, atol=1e-10)


def test_long_flow_walks_off_the_chart():
    # large t drives the small weights below machine resolution; the chart
    # map must refuse the numerically reducible result rather than return junk
    rng = np.random.default_rng(433)
    j = random_jacobi(5, rng, spectrum=[5.0, 3.5, 2.0, 1.0, -1.0])
    far = flow_factorized(j, SpectralFunction.polynomial([0.0, 0.0, 1.0]), 1.5)
    with pytest.raises(NotJacobi):
        moser_coordinates(far)
