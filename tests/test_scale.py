"""Results scale with the input, from 1e-170 to 1e160; decisions hold from
2^-500 to 2^500.

Every operation here is positively homogeneous.  The kernels divide by a
power of two of max|entry| on entry (exact) and scale back on exit, so
neither a norm nor a tolerance can underflow or overflow on the way.  Every
threshold is relative to its input's own scale, so every yes/no answer is
the same for c * S as for S.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import golden_matrix
from matslice import (
    DomainViolation,
    FlowConfig,
    MatSliceError,
    MoserCoordinates,
    TodaState,
    SpectralFunction,
    accessible_vertices,
    apply_function,
    as_symmetric,
    as_time_grid,
    bfr_map,
    commutator,
    convergence_diagnostics,
    default_rng,
    descending_spectrum,
    detect_clusters,
    eigensystem,
    flow_factorized,
    flow_integrated,
    frobenius,
    function_values,
    hull_member,
    is_irreducible,
    is_jacobi,
    is_tridiagonal,
    iterate_qr,
    majorization_member,
    moser_coordinates,
    moser_reconstruct,
    offdiag_norm,
    permutohedron_vertices,
    project_sum_zero,
    qr_factor,
    qr_step,
    random_jacobi,
    random_symmetric,
    random_with_spectrum,
    slice_point,
    spectral_decompose,
    spectral_polytope,
    upper_part,
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


@pytest.mark.parametrize("k", [-560, -500, 500, 520])
def test_moser_reconstruct_ignores_power_of_two_weight_scales(k):
    # only weight ratios matter; a plain norm of the weights underflowed at
    # 2^-560 (division by zero) and overflowed at 2^520 (every weight 0)
    coords = moser_coordinates(random_jacobi(5, default_rng(1)))
    want = moser_reconstruct(coords.lam, coords.w)
    assert np.array_equal(moser_reconstruct(coords.lam, np.ldexp(coords.w, k)), want)


@pytest.mark.parametrize("c", [1e-170, 1e-160, 1e155, 1e160])
def test_moser_reconstruct_ignores_the_scale_of_its_weights(c):
    # a plain norm of the weights lost bits to subnormal squares at 1e-160
    # (a silent error), and overflowed from 1e155 (a refusal)
    coords = moser_coordinates(random_jacobi(5, default_rng(1)))
    want = moser_reconstruct(coords.lam, coords.w)
    npt.assert_allclose(moser_reconstruct(coords.lam, c * coords.w), want,
                        rtol=0.0, atol=1e-15 * np.abs(want).max())


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


# ------------------------------------------------- decisions at every scale

DECISION_SCALES = [2.0 ** -500, 1e-170, 1e-150, 1e-12, 1.0, 1e150, 1e160, 2.0 ** 500]
DECISION_IDS = ["2^-500", "1e-170", "1e-150", "1e-12", "1", "1e150", "1e160", "2^500"]

BONDS = np.array([0.5, 1e-12, 0.3])  # the middle bond is broken: below 1e-8 * ||J||
WEAK_BOND = np.diag([4.0, 3.0, 2.0, 1.0]) + np.diag(BONDS, 1) + np.diag(BONDS, -1)
FAINT_BAND = WEAK_BOND + 1e-14 * (np.eye(4, k=2) + np.eye(4, k=-2))
WIDE_BAND = WEAK_BOND + 1e-6 * (np.eye(4, k=2) + np.eye(4, k=-2))
NEGATIVE_BONDS = S3 - 2.0 * (np.eye(3, k=1) + np.eye(3, k=-1))
FAINT = np.array([1.0, 1e-14, 1.0])
DECOUPLED = S3 * np.outer(FAINT, FAINT)  # index 1 coupled by 1e-14 only
ASYM = np.triu(np.ones((3, 3)), 1)
LAM = np.array([3.0, 2.0, 1.0])
# gap 1.5e-9: above 1e-9 * max|lam|, at or below the 1e-9 * ||lam|| gate
NEAR_TIE = np.array([1.0, 1.0 - 1.5e-9, -1.0])
W3 = np.array([0.5, 0.6, 0.62])


def refusal(fn, *args):
    """Name of the error ``fn(*args)`` raises, or None when it returns."""
    try:
        fn(*args)
    except (MatSliceError, ValueError) as exc:
        return type(exc).__name__
    return None


def diagnostics(s, steps):
    rep = convergence_diagnostics(iterate_qr(s, steps))
    return rep.converged, rep.diagonal_order, rep.broken_bonds


# (public decision, its answer on c times the input, the answer at c = 1)
DECISIONS = [
    ("is_tridiagonal faint", lambda c: is_tridiagonal(c * FAINT_BAND), True),
    ("is_tridiagonal wide", lambda c: is_tridiagonal(c * WIDE_BAND), False),
    ("is_jacobi", lambda c: is_jacobi(c * WEAK_BOND), True),
    ("is_jacobi negative bonds", lambda c: is_jacobi(c * NEGATIVE_BONDS), False),
    ("is_irreducible", lambda c: is_irreducible(c * S3), True),
    ("is_irreducible decoupled", lambda c: is_irreducible(c * DECOUPLED), False),
    ("as_symmetric roundoff", lambda c: refusal(as_symmetric, c * (S3 + 1e-10 * ASYM)), None),
    ("as_symmetric asymmetric", lambda c: refusal(as_symmetric, c * (S3 + 1e-6 * ASYM)),
     "ValueError"),
    ("qr_factor", lambda c: refusal(qr_factor, c * S3), None),
    ("qr_factor singular", lambda c: refusal(qr_factor, c * np.ones((3, 3))), "SingularMatrix"),
    ("spectral_decompose", lambda c: refusal(spectral_decompose, c * S3), None),
    ("spectral_decompose tie", lambda c: refusal(spectral_decompose, c * np.diag([2.0, 1.0, 1.0])),
     "DegenerateSpectrum"),
    ("spectral_decompose near tie",
     lambda c: refusal(spectral_decompose, np.diag(c * NEAR_TIE)), "DegenerateSpectrum"),
    ("MoserCoordinates near tie", lambda c: refusal(MoserCoordinates, c * NEAR_TIE, W3),
     "ValueError"),
    ("moser_reconstruct near tie", lambda c: refusal(moser_reconstruct, c * NEAR_TIE, W3),
     "ValueError"),
    ("hull_member inside", lambda c: hull_member(c * np.array([2.5, 2.0, 1.5]), c * LAM), True),
    ("hull_member vertex", lambda c: hull_member(c * LAM[::-1], c * LAM), True),
    ("hull_member outside", lambda c: hull_member(c * np.array([3.5, 1.5, 1.0]), c * LAM), False),
    ("majorization_member inside",
     lambda c: majorization_member(c * np.array([2.5, 2.0, 1.5]), c * LAM), True),
    ("majorization_member vertex", lambda c: majorization_member(c * LAM[::-1], c * LAM), True),
    ("majorization_member outside",
     lambda c: majorization_member(c * np.array([3.5, 1.5, 1.0]), c * LAM), False),
    ("detect_clusters", lambda c: detect_clusters(c * WEAK_BOND).broken_bonds, (1,)),
    ("accessible_vertices", lambda c: len(accessible_vertices(c * golden_matrix()[0])), 4),
    ("convergence_diagnostics early", lambda c: diagnostics(c * S3, 25), (False, (0, 1, 2), (1,))),
    ("convergence_diagnostics late", lambda c: diagnostics(c * S3, 35), (True, (0, 1, 2), (1,))),
]


@pytest.mark.parametrize("c", DECISION_SCALES, ids=DECISION_IDS)
def test_every_decision_is_the_same_at_every_scale(c):
    # absolute floors max(1, .) and an absolute bond threshold made the hull
    # tests, as_symmetric and detect_clusters answer differently at 1e-12
    # and the bond counts differently at 1e150
    wrong = {name: got for name, decide, want in DECISIONS if (got := decide(c)) != want}
    assert wrong == {}


@pytest.mark.xfail(strict=True, raises=(AssertionError, DomainViolation), reason=(
    "ROADMAP Baseline, flows at extreme scales (item 12): the Lax field is "
    "quadratic in S, so its entries underflow below c = 2^-500 and overflow "
    "from c = 2^512"))
def test_identity_flow_scales_with_its_input_at_every_scale():
    # c S over times t / c is c S(t): bitwise from 2^-500 to 2^511 today,
    # 55% off at 2^-540 with no error, and "no step size helps" at 2^512.
    # Once this passes, drop the xfail marker.
    s = random_symmetric(4, default_rng(0))
    identity = SpectralFunction.identity()
    want = flow_integrated(s, FlowConfig(identity, 0.5, 1e-3)).final
    for e in (-540, -500, 511, 512):
        c = math.ldexp(1.0, e)
        got = flow_integrated(c * s, FlowConfig(identity, 0.5 / c, 1e-3 / c)).final
        assert np.abs(got / c - want).max() <= 1e-12 * np.abs(want).max(), e


@pytest.mark.parametrize("member", [hull_member, majorization_member])
def test_zero_spectrum_admits_only_the_zero_point(member):
    assert member([0.0, 0.0], [0.0, 0.0])
    assert member([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    assert not member([1e-9, -1e-9], [0.0, 0.0])
    assert not member([2.0 ** -1000, -(2.0 ** -1000)], [0.0, 0.0])


@pytest.mark.parametrize("member", [hull_member, majorization_member])
def test_far_point_of_a_faint_spectrum_is_outside(member):
    # the LP divides by max|p| too: p / 1e-300 would overflow
    assert not member([1e300, -1e300], [1e-300, 0.0])
    assert member([0.0, 0.0], [1e300, -1e300])


def test_every_bond_of_the_zero_matrix_is_broken():
    part = detect_clusters(np.zeros((3, 3)))
    assert part.broken_bonds == (0, 1)
    assert part.blocks == ((0, 1), (1, 2), (2, 3))


# ------------------------------------------- the top of the range, 1e308

def test_symmetrize_does_not_overflow_near_the_largest_double():
    # 0.5 * (a + a.T) overflowed above about 8.99e307: lam came back (inf, 1)
    lam, _ = eigensystem([[1e308, 1.0], [1.0, 1.0]])
    npt.assert_allclose(lam, [1e308, 1.0], rtol=1e-15)
    npt.assert_array_equal(as_symmetric([[1e308, 0.0], [0.0, 1.0]]), [[1e308, 0.0], [0.0, 1.0]])


def test_antisymmetric_input_near_the_largest_double_is_refused():
    with pytest.raises(ValueError, match="not symmetric"):
        as_symmetric([[0.0, 1e308], [-1e308, 0.0]])


def test_centered_mean_does_not_overflow():
    # the plain mean of (1e308, 1e308) overflows and centred to (-inf, -inf)
    state = TodaState(x=[1e308, 1e308], y=[1.0, -1.0]).centered()
    npt.assert_array_equal(state.x, [0.0, 0.0])
    npt.assert_array_equal(state.y, [1.0, -1.0])


# A 3 x 3 Jacobi matrix whose entries are valid doubles but whose norm,
# about 1.85e308, is not: forming ||S|| before rtol * ||S|| overflowed.
TOP = np.array([[1.2e308, 5e307, 0.0], [5e307, 9e307, 4e307], [0.0, 4e307, 6e307]])
POW_MINUS_ONE = SpectralFunction.power(-1)


def report_parts(rep):
    return [(1, rep.offdiag_norms), (1, rep.diagonals), (0, rep.converged),
            (0, rep.converged_at), (1, rep.final_offdiag), (0, rep.diagonal_order),
            (1, rep.spectrum), (0, rep.broken_bonds)]


# (public function, its result on s as (degree, part) pairs: a part of degree
# k scales as c^k, one of degree 0 is a decision or a count)
TOP_OF_RANGE = [
    ("qr_factor", lambda s: list(zip((0, 1), qr_factor(s)))),
    ("qr_step", lambda s: [(1, qr_step(s))]),
    ("convergence_diagnostics", lambda s: report_parts(convergence_diagnostics(iterate_qr(s, 3)))),
    ("is_tridiagonal", lambda s: [(0, is_tridiagonal(s))]),
    ("is_jacobi", lambda s: [(0, is_jacobi(s))]),
    ("is_irreducible", lambda s: [(0, is_irreducible(s))]),
    ("spectral_decompose", lambda s: [(1, (d := spectral_decompose(s)).lam), (0, d.q)]),
    ("bfr_map", lambda s: [(1, bfr_map(s))]),
    ("slice_point", lambda s: [(1, slice_point(s, W3))]),
    ("accessible_vertices", lambda s: [(1, (v := accessible_vertices(s)).points),
                                       (0, v.perms), (0, v.affine_dim), (0, v.near_threshold)]),
    ("moser_coordinates", lambda s: [(1, (m := moser_coordinates(s)).lam), (0, m.w)]),
    ("detect_clusters", lambda s: [(0, detect_clusters(s))]),
    ("apply_function pow:-1", lambda s: [(-1, apply_function(s, POW_MINUS_ONE))]),
]


def assert_scaled(big, small, k):
    """Parts of the result on 2^k * s against those on s: bitwise 2^(degree k) times."""
    assert [d for d, _ in big] == [d for d, _ in small]
    for (degree, got), (_, want) in zip(big, small):
        if degree:
            assert np.array_equal(got, np.ldexp(want, degree * k))
        elif isinstance(got, np.ndarray):
            assert np.array_equal(got, want)
        else:
            assert got == want


@pytest.mark.parametrize("call", [call for _, call in TOP_OF_RANGE],
                         ids=[name for name, _ in TOP_OF_RANGE])
def test_every_answer_at_the_top_of_the_double_range(call):
    # each threshold formed ||S|| first, which overflowed ("math range error")
    # though 1e-12 * ||S|| is a double; a power-of-two scaling is exact
    assert_scaled(call(TOP), call(np.ldexp(TOP, -1000)), 1000)


# A finite matrix whose eigenvalues and R diagonal, about +-1.97e308, are
# not doubles: the scale-back of lam / 2^e and R / 2^e overflowed to +-inf
# (the CLI then printed "Out of range float values are not JSON compliant")
PAST = np.array([[1.7e308, 1e308], [1e308, -1.7e308]])
PAST_THE_RANGE = [
    ("eigensystem", lambda: eigensystem(PAST)),
    ("spectral_decompose", lambda: spectral_decompose(PAST)),
    ("qr_factor", lambda: qr_factor(PAST)),
    ("qr_step", lambda: qr_step(PAST)),
    ("iterate_qr", lambda: iterate_qr(PAST, 1)),
    ("bfr_map", lambda: bfr_map(PAST)),
    ("slice_point", lambda: slice_point(PAST, [1.0, 2.0])),
    ("flow_factorized", lambda: flow_factorized(PAST, SpectralFunction.log(), 0.0)),
    ("accessible_vertices", lambda: accessible_vertices(PAST)),
    ("moser_coordinates", lambda: moser_coordinates(PAST)),
    ("function_values exp", lambda: function_values(SpectralFunction.exp(), [710.0, 1.0])),
    ("function_values pow:2",
     lambda: function_values(SpectralFunction.power(2), [1e200, 1.0])),
    ("commutator", lambda: commutator([[1e200, 1e200], [0.0, 1.0]], [[1e200, 0.0], [1e200, 1.0]])),
    ("upper_part", lambda: upper_part([[1.7e308, 1.7e308], [1.7e308, 1.0]])),
    ("project_sum_zero", lambda: project_sum_zero([[1.7e308, -1.7e308, 1.7e308]])),
    ("TodaState.centered",
     lambda: TodaState(x=[1.7e308, 1.7e308, -1.7e308], y=[0.0, 0.0, 0.0]).centered()),
]


@pytest.mark.parametrize("call", [call for _, call in PAST_THE_RANGE],
                         ids=[name for name, _ in PAST_THE_RANGE])
def test_results_past_the_double_range_are_refused(call):
    # each warned of an overflow, then returned inf or NaN or refused for
    # another cause (DegenerateSpectrum: "eigenvalue gap inf")
    with pytest.raises(DomainViolation, match="overflows double precision"):
        call()


TOP_SPECTRA = [np.array([1e308, -1e308]), np.array([1.5e308, 1e308, 9e307])]


def test_simplicity_gate_at_the_top_of_the_double_range():
    # lam[:-1] - lam[1:] overflowed; the gaps are now taken on lam / 2^e
    dec = spectral_decompose(np.diag(TOP_SPECTRA[0]))
    npt.assert_array_equal(dec.lam, TOP_SPECTRA[0])
    npt.assert_array_equal(dec.q, [[1.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("lam", TOP_SPECTRA, ids=["2", "3"])
def test_moser_chart_at_the_top_of_the_double_range(lam):
    w = np.arange(1.0, len(lam) + 1.0)
    coords = MoserCoordinates(lam, w)
    npt.assert_array_equal(coords.lam, lam)
    npt.assert_array_equal(coords.w, MoserCoordinates(np.ldexp(lam, -1000), w).w)
    j = moser_reconstruct(lam, w)
    assert np.array_equal(j, np.ldexp(moser_reconstruct(np.ldexp(lam, -1000), w), 1000))


@pytest.mark.parametrize("lam", TOP_SPECTRA, ids=["2", "3"])
@pytest.mark.parametrize("polytope", [permutohedron_vertices, spectral_polytope])
def test_polytopes_at_the_top_of_the_double_range(polytope, lam):
    # np.diff(lam) and the mean of the vertices overflowed
    vs, small = polytope(lam), polytope(np.ldexp(lam, -1000))
    assert np.array_equal(vs.points, np.ldexp(small.points, 1000))
    assert vs.perms == small.perms
    assert vs.affine_dim == small.affine_dim == len(lam) - 1


def test_time_grid_spanning_the_double_range():
    # np.diff(times) overflowed
    npt.assert_array_equal(as_time_grid([-1e308, 1e308]), [-1e308, 1e308])
    with pytest.raises(ValueError, match="strictly increasing"):
        as_time_grid([1e308, -1e308])


def test_diagonal_order_of_a_spectrum_spanning_the_double_range():
    # the distance from 1e308 to -1e308 overflowed in the greedy match
    rep = convergence_diagnostics(iterate_qr([[1e308, 1e300], [1e300, -1e308]], 2))
    assert rep.diagonal_order == (0, 1)
    assert rep.converged
