import io
import math
import warnings
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from matslice import (
    DomainViolation,
    FlowConfig,
    NotJacobi,
    NotTridiagonal,
    ParticleTrajectory,
    SingularMatrix,
    SpectralFunction,
    TodaState,
    apply_function,
    commutator,
    convergence_diagnostics,
    descending_spectrum,
    detect_clusters,
    flaschka,
    flow_factorized,
    flow_factorized_trajectory,
    flow_integrated,
    frobenius,
    hamiltonian,
    interpolating_field,
    inverse_flaschka,
    is_jacobi,
    iterate_qr,
    offdiag_norm,
    particle_field,
    particle_flow,
    qr_step,
    random_jacobi,
    random_symmetric,
    random_with_spectrum,
    skew_part,
    time_grid,
    toda_field,
)
from matslice import kernels, linalg, slices, toda
from matslice.fileio import read_report, write_convergence_report
from conftest import matrix_function_oracle, maxabs

IDENTITY = SpectralFunction.identity()
SQUARE = SpectralFunction.polynomial([0.0, 0.0, 1.0])
NEGATED = SpectralFunction.polynomial([0.0, -1.0])


# ----------------------------------------------------------- particle basics

def test_hamiltonian_frozen_values():
    rest = TodaState(x=np.zeros(2), y=np.zeros(2))
    assert hamiltonian(rest) == 1.0  # pure potential, exp(0)
    st = TodaState(x=np.array([1.0, 0.0]), y=np.array([2.0, -2.0]))
    assert abs(hamiltonian(st) - (4.0 + math.e)) < 1e-15


def test_flaschka_frozen_values():
    rest = TodaState(x=np.zeros(2), y=np.zeros(2))
    npt.assert_array_equal(flaschka(rest), [[0.0, 0.5], [0.5, 0.0]])
    # gap of 2 log 2 makes the bond exp(log 2)/2 = 1
    st = TodaState(x=np.array([0.0, -2.0 * math.log(2.0)]), y=np.array([2.0, -4.0]))
    npt.assert_allclose(flaschka(st), [[-1.0, 1.0], [1.0, 2.0]], atol=1e-15)


def test_particle_field_frozen_values():
    st = TodaState(x=np.zeros(3), y=np.array([1.0, 2.0, 3.0]))
    dx, dy = particle_field(st)
    npt.assert_array_equal(dx, [1.0, 2.0, 3.0])
    npt.assert_array_equal(dy, [-1.0, 0.0, 1.0])  # unit forces on both bonds


@pytest.mark.parametrize("call, x", [(flaschka, [0.0, -2000.0]),
                                     (particle_field, [0.0, -2000.0]),
                                     (hamiltonian, [1e308, -1e308])],
                         ids=["flaschka", "particle_field", "hamiltonian"])
def test_particle_maps_refuse_states_past_the_double_range(call, x):
    # each leaked an overflow RuntimeWarning (e^1000, e^2000, a gap of 2e308)
    with pytest.raises(DomainViolation, match="overflows double precision"):
        call(TodaState(x=x, y=[0.0, 0.0]))


def test_flaschka_inverse_round_trip():
    rng = np.random.default_rng(501)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        st = TodaState(x=rng.normal(size=n), y=rng.normal(size=n)).centered()
        back = inverse_flaschka(flaschka(st))
        npt.assert_allclose(back.x, st.x, atol=1e-12 * max(1.0, maxabs(st.x)))
        npt.assert_allclose(back.y, st.y, atol=1e-12 * max(1.0, maxabs(st.y)))
        j = random_jacobi(n, rng)
        npt.assert_allclose(flaschka(inverse_flaschka(j)), j,
                            atol=1e-12 * max(1.0, maxabs(j)))


def test_inverse_flaschka_takes_the_gauge_of_the_plain_mean():
    # TodaState.centered's mean of x / 2^e is bitwise x.mean() at these scales
    rng = np.random.default_rng(523)
    for n in range(2, 17):
        for scale in 10.0 ** np.arange(-3, 4):
            for _ in range(3):
                j = scale * random_jacobi(n, rng)
                x = np.zeros(n)
                x[1:] = -np.cumsum(2.0 * np.log(2.0 * np.diag(j, 1)))
                state = inverse_flaschka(j)
                assert np.array_equal(state.x, x - x.mean())
                assert np.array_equal(state.y, -2.0 * np.diag(j))


def test_inverse_flaschka_rejects_non_jacobi():
    with pytest.raises(NotJacobi):
        inverse_flaschka(np.diag([2.0, 1.0]))


def test_toda_state_validation_and_gauge():
    with pytest.raises(ValueError):
        TodaState(x=np.zeros(3), y=np.zeros(2))
    with pytest.raises(ValueError):
        TodaState(x=np.array([1.0]), y=np.array([0.0]))
    with pytest.raises(ValueError):
        TodaState(x=np.array([np.inf, 0.0]), y=np.zeros(2))
    st = TodaState(x=np.array([3.0, 1.0]), y=np.array([0.5, -0.5])).centered()
    assert abs(st.x.sum()) < 1e-15
    npt.assert_array_equal(st.x, [1.0, -1.0])


def test_particle_trajectory_refuses_mixed_particle_counts():
    # a ragged trajectory would be written as a CSV its own reader refuses
    two = TodaState(x=np.zeros(2), y=np.zeros(2))
    three = TodaState(x=np.zeros(3), y=np.zeros(3))
    with pytest.raises(ValueError, match="one particle count"):
        ParticleTrajectory(times=[0.0, 1.0], states=[two, three])


def test_particle_trajectory_refuses_misaligned_times():
    two = TodaState(x=np.zeros(2), y=np.zeros(2))
    with pytest.raises(ValueError, match="align one to one"):
        ParticleTrajectory(times=[0.0, 1.0, 2.0], states=[two, two])

# -------------------------------------------------------------- the Lax field

def test_toda_field_frozen_2x2():
    s = np.array([[0.0, 1.0], [1.0, 0.0]])
    npt.assert_array_equal(toda_field(s, IDENTITY), [[2.0, 0.0], [0.0, -2.0]])


def test_toda_field_log_is_the_interpolating_field():
    rng = np.random.default_rng(503)
    s = random_with_spectrum([4.0, 2.0, 1.0], rng)
    assert np.array_equal(toda_field(s, SpectralFunction.log()),
                          interpolating_field(s))


def test_field_level_intertwining():
    # differentiating the change of variables along Hamilton's equations
    # lands exactly on the Lax field: diag' = -dy/2, bond' = bond*(dx gap)/2
    rng = np.random.default_rng(509)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        st = TodaState(x=rng.normal(size=n), y=rng.normal(size=n))
        j = flaschka(st)
        dx, dy = particle_field(st)
        jdot = np.zeros((n, n))
        np.fill_diagonal(jdot, -0.5 * dy)
        off = np.diag(j, 1)
        for k in range(n - 1):
            jdot[k, k + 1] = jdot[k + 1, k] = off[k] * 0.5 * (dx[k] - dx[k + 1])
        assert maxabs(jdot - toda_field(j, IDENTITY)) < 1e-14 * max(1.0, maxabs(j))


def test_toda_field_keeps_the_band():
    # for tridiagonal input the commutator's off-band parts cancel exactly
    rng = np.random.default_rng(521)
    j = random_jacobi(6, rng)
    field = toda_field(j, IDENTITY)
    assert maxabs(np.triu(field, 2)) == 0.0


@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("kind", ["dense", "jacobi"])
def test_identity_field_matches_the_commutator(kind, n):
    # commutator takes both products; the field takes one and its transpose
    rng = np.random.default_rng(613 + n)
    s = random_symmetric(n, rng) if kind == "dense" else random_jacobi(n, rng)
    want = commutator(s, skew_part(s))
    assert maxabs(toda_field(s, IDENTITY) - want) <= 1e-14 * frobenius(s) ** 2


# the field's two routes: Horner, from s itself (identity) or with a product
# (pow:2), and the eigenbasis (log)
FIELD_ROUTES = [IDENTITY, SpectralFunction.power(2), SpectralFunction.log()]
ROUTE_IDS = ["identity", "pow:2", "log"]


@pytest.mark.parametrize("g", FIELD_ROUTES, ids=ROUTE_IDS)
def test_toda_field_is_exactly_symmetric(g):
    rng = np.random.default_rng(643)
    for n in (3, 6, 11):
        s = random_with_spectrum(np.sort(rng.uniform(0.5, 4.0, n))[::-1], rng)
        field = toda_field(s, g)
        assert np.array_equal(field, field.T)


@pytest.mark.parametrize("g", FIELD_ROUTES, ids=ROUTE_IDS)
def test_integrated_flow_states_are_exactly_symmetric(g):
    s = random_with_spectrum([3.5, 2.0, 1.1, 0.6, 0.3], np.random.default_rng(647))
    traj = flow_integrated(s, FlowConfig(g=g, t_final=0.2, dt=0.01))
    assert all(np.array_equal(state, state.T) for state in traj.states)


# Polynomial g: the field evaluates g(s) by Horner on the matrix, while
# apply_function goes through the eigenbasis.  (g, degree)
POLYNOMIALS = [
    (SpectralFunction.power(0), 0),
    (SpectralFunction.power(1), 1),
    (SpectralFunction.power(2), 2),
    (SpectralFunction.power(3), 3),
    (SpectralFunction.polynomial([2.0]), 0),
    (SpectralFunction.polynomial([3.0, 0.0, 1.0]), 2),
    (SpectralFunction.polynomial([0.0, -1.0]), 1),
    (SpectralFunction.polynomial([0.5, -1.0, 0.25, 2.0]), 3),
]
CONSTANTS = [g for g, degree in POLYNOMIALS if degree == 0]


@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("kind", ["dense", "jacobi"])
def test_horner_field_matches_the_eigenbasis_field(kind, n):
    rng = np.random.default_rng(617 + n)
    s = random_symmetric(n, rng) if kind == "dense" else random_jacobi(n, rng)
    for g, degree in POLYNOMIALS:
        want = commutator(s, skew_part(apply_function(s, g)))
        assert maxabs(toda_field(s, g) - want) < 1e-12 * frobenius(s) ** (degree + 1)


@pytest.mark.parametrize("g", CONSTANTS, ids=["pow:0", "poly:2"])
def test_constant_g_gives_the_zero_field(g):
    # Horner runs on (g(x) - g(0)) / x, which is 0 here; starting from c_0 s
    # instead would give c_0 times the identity's field
    rng = np.random.default_rng(3)
    for s in (random_jacobi(5, rng), random_symmetric(8, rng)):
        assert np.all(toda_field(s, g) == 0.0)
    s = random_jacobi(5, rng)
    traj = flow_integrated(s, FlowConfig(g=g, t_final=0.1, dt=0.01))
    assert len(traj) == 11 and all(np.array_equal(state, s) for state in traj.states)


@pytest.fixture
def eigensolves(monkeypatch):
    """Record, for each call of the eigensolver kernel, whether it was warm-started."""
    solve = kernels.jacobi_unordered
    warm = []

    def spy(a, start=None):
        warm.append(start is not None)
        return solve(a, start)

    monkeypatch.setattr(kernels, "jacobi_unordered", spy)
    return warm


def test_polynomial_flows_run_no_eigensolve(eigensolves):
    s = random_jacobi(5, np.random.default_rng(619))
    for g, _ in POLYNOMIALS:
        flow_integrated(s, FlowConfig(g=g, t_final=0.05, dt=0.01))
        toda_field(s, g)
    assert eigensolves == []


@pytest.mark.parametrize("g", [SpectralFunction.power(Fraction(1, 2)),
                               SpectralFunction.power(-1), SpectralFunction.exp()],
                         ids=["pow:1/2", "pow:-1", "exp"])
def test_other_flows_warm_start_every_eigensolve(eigensolves, g):
    s = random_jacobi(5, np.random.default_rng(631), spectrum=[4.0, 3.1, 2.0, 1.2, 0.5])
    flow_integrated(s, FlowConfig(g=g, t_final=0.05, dt=0.01))
    assert eigensolves == [False] + [True] * 19  # four stages per step


def test_field_of_a_negative_power_still_checks_the_spectrum():
    s = random_with_spectrum([2.0, 0.0, -1.0], np.random.default_rng(641))
    with pytest.raises(DomainViolation):
        toda_field(s, SpectralFunction.power(-1))


@pytest.mark.parametrize("scale, spectrum, g", [
    (1e200, [17.0, 9.0, 4.0, 1.0], SpectralFunction.power(2)),
    (1.0, [720.0, 715.0, 712.0, 711.0], SpectralFunction.exp()),
], ids=["pow:2 of 1e200 J (Horner)", "exp past 709.8"])
def test_field_refuses_an_overflowing_result(scale, spectrum, g):
    # the field used to overflow with a RuntimeWarning and come back inf and NaN
    s = scale * random_jacobi(4, np.random.default_rng(3), spectrum=spectrum)
    with warnings.catch_warnings(), pytest.raises(DomainViolation, match="overflows"):
        warnings.simplefilter("error", RuntimeWarning)
        toda_field(s, g)


# ---------------------------------------------------------- factorized flow

def test_flow_time_zero_is_identity():
    rng = np.random.default_rng(523)
    s = random_with_spectrum([4.0, 2.0, 1.0], rng)
    npt.assert_allclose(flow_factorized(s, IDENTITY, 0.0), s,
                        atol=1e-13 * frobenius(s))


def test_flow_log_at_time_one_is_one_qr_step():
    rng = np.random.default_rng(541)
    for _ in range(10):
        s = random_with_spectrum(np.sort(np.random.default_rng(
            int(rng.integers(1 << 30))).uniform(0.5, 6.0, 4))[::-1], rng)
        npt.assert_allclose(flow_factorized(s, SpectralFunction.log(), 1.0),
                            qr_step(s), atol=1e-10 * frobenius(s))


def test_flow_group_property():
    rng = np.random.default_rng(547)
    s = random_with_spectrum([4.0, 2.5, 1.0, -0.5], rng)
    for g in (IDENTITY, SQUARE):
        one = flow_factorized(s, g, 0.9)
        two = flow_factorized(one, g, 1.3)
        direct = flow_factorized(s, g, 2.2)
        npt.assert_allclose(two, direct, atol=1e-8 * frobenius(s))


def test_flow_sorts_jacobi_diagonal():
    rng = np.random.default_rng(557)
    j = random_jacobi(3, rng, spectrum=[4.0, 2.0, 1.0])
    far = flow_factorized(j, IDENTITY, 30.0)
    assert offdiag_norm(far) < 1e-6
    npt.assert_allclose(np.diag(far), [4.0, 2.0, 1.0], atol=1e-6)


def test_reversed_flow_sorts_ascending():
    rng = np.random.default_rng(563)
    j = random_jacobi(3, rng, spectrum=[4.0, 2.0, 1.0])
    far = flow_factorized(j, NEGATED, 30.0)
    assert offdiag_norm(far) < 1e-6
    npt.assert_allclose(np.diag(far), [1.0, 2.0, 4.0], atol=1e-6)


def test_flow_keeps_jacobi_structure():
    rng = np.random.default_rng(569)
    j = random_jacobi(4, rng, spectrum=[4.0, 2.6, 1.3, 0.2])
    for t in (0.5, 2.0, 8.0, 20.0):
        assert is_jacobi(flow_factorized(j, IDENTITY, t))


def test_flow_conserves_power_traces():
    rng = np.random.default_rng(571)
    s = random_with_spectrum([4.0, 2.0, 1.0, -1.5], rng)
    for t in (0.7, 3.0):
        st = flow_factorized(s, IDENTITY, t)
        for m in (1, 2, 3):
            want = np.trace(np.linalg.matrix_power(s, m))
            got = np.trace(np.linalg.matrix_power(st, m))
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_flow_refuses_underflowing_times():
    rng = np.random.default_rng(577)
    s = random_with_spectrum([4.0, 2.0, 1.0], rng)
    with pytest.raises(SingularMatrix):
        flow_factorized(s, IDENTITY, 300.0)  # spread 300*3 = 900 > 700


def test_flow_beyond_the_spread_limit_names_the_spread():
    # the kernel saw exp(t g - max) and named its smallest ratio, 1.2e-320
    j = random_jacobi(4, np.random.default_rng(3), spectrum=[17.0, 9.0, 4.0, 1.0])
    with pytest.raises(SingularMatrix, match=r"spread 736\.6"):
        flow_factorized(j, SpectralFunction.log(), 260.0)


def test_exp_flow_beyond_exp_overflow_is_the_shifted_flow():
    # e^lam overflows above 709.8, yet t e^lam spreads only 427.6 here: the
    # flow must not form e^lam.  Shifting S by -20 I scales g by e^-20, so the
    # reference flows S - 20 I for t e^20, whose e^lam stays finite.
    j = random_jacobi(4, np.random.default_rng(3), spectrum=[720.0, 715.0, 712.0, 711.0])
    t, shift, eye = 2.0 ** -1030, 20.0, np.eye(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = flow_factorized(j, SpectralFunction.exp(), t)
        want = flow_factorized(j - shift * eye, SpectralFunction.exp(), t * math.exp(shift))
    assert maxabs(got - (want + shift * eye)) <= 1e-14 * frobenius(j)
    assert maxabs(got - j) > 1.0  # the flow moved
    # at t = 1 the log-weights themselves overflow: a refusal, not a warning
    with warnings.catch_warnings(), pytest.raises(SingularMatrix, match="spread inf"):
        warnings.simplefilter("error", RuntimeWarning)
        flow_factorized(j, SpectralFunction.exp(), 1.0)


def test_flow_trajectory_matches_pointwise_calls():
    rng = np.random.default_rng(587)
    s = random_with_spectrum([3.0, 1.5, 0.5], rng)
    times = np.array([0.0, 0.4, 1.1, 2.0])
    traj = flow_factorized_trajectory(s, IDENTITY, times)
    for t, state in zip(traj.times, traj.states):
        npt.assert_allclose(state, flow_factorized(s, IDENTITY, float(t)),
                            atol=1e-13)


# ---------------------------------------------------------- integrated flow

def test_integrated_matches_factorized():
    rng = np.random.default_rng(593)
    s = random_with_spectrum([3.0, 1.8, 1.2], rng)
    for g in (IDENTITY, SpectralFunction.log(), SQUARE):
        traj = flow_integrated(s, FlowConfig(g=g, t_final=2.0, dt=1e-3))
        exact = flow_factorized(s, g, 2.0)
        assert maxabs(traj.final - exact) < 1e-6 * frobenius(s)
        assert len(traj) == 2001
        assert abs(traj.times[-1] - 2.0) < 1e-12


@pytest.mark.parametrize("n", [4, 6, 8])
def test_commuting_flows_add_their_log_weights(n):
    # Lax flows with different g commute, and a flow for time t adds t g(lam)
    # to the log-weights: RK4 along x then log, RK4 along log then x, and one
    # slice move with log-weights 0.3 lam + 0.2 log(lam) reach one matrix
    log = SpectralFunction.log()

    def integrated(s, *legs):
        for g, t in legs:
            s = flow_integrated(s, FlowConfig(g=g, t_final=t, dt=0.002)).final
        return s

    for seed in range(3):
        rng = np.random.default_rng(seed)
        s = random_with_spectrum(descending_spectrum(n, rng, lo=0.5, hi=4.0, min_gap=0.1), rng)
        lam, q = kernels.jacobi_eigensystem(s)
        closed = slices.weighted_conjugate(lam, q, 0.3 * lam + 0.2 * np.log(lam))
        x_then_log = integrated(s, (IDENTITY, 0.3), (log, 0.2))
        log_then_x = integrated(s, (log, 0.2), (IDENTITY, 0.3))
        for got in (x_then_log, log_then_x):
            assert maxabs(got - closed) < 1e-6 * frobenius(s), (n, seed)


def test_integrator_is_fourth_order():
    rng = np.random.default_rng(599)
    s = random_with_spectrum([3.0, 1.8, 0.7], rng)
    exact = flow_factorized(s, IDENTITY, 1.0)
    errs = []
    for dt in (0.05, 0.025):
        traj = flow_integrated(s, FlowConfig(g=IDENTITY, t_final=1.0, dt=dt))
        errs.append(maxabs(traj.final - exact))
    order = math.log2(errs[0] / errs[1])
    assert order >= 3.7, f"observed order {order:.2f}"


def test_long_log_flow_stays_on_the_factorized_flow():
    # 2000 steps, 8000 eigensolves, each warm-started from the one before
    rng = np.random.default_rng(607)
    s = random_jacobi(4, rng, spectrum=[3.0, 1.8, 1.2, 0.6])
    log = SpectralFunction.log()
    traj = flow_integrated(s, FlowConfig(g=log, t_final=2.0, dt=1e-3))
    assert maxabs(traj.final - flow_factorized(s, log, 2.0)) < 1e-6 * frobenius(s)


def test_warm_started_flow_matches_cold_eigensolves(monkeypatch):
    rng = np.random.default_rng(613)
    s = random_jacobi(5, rng, spectrum=[4.0, 3.1, 2.0, 1.2, 0.5])
    cfg = FlowConfig(g=SpectralFunction.log(), t_final=0.2, dt=0.01)
    solve = kernels.jacobi_unordered
    warm_starts = []

    def spy(a, start=None):
        warm_starts.append(start is not None)
        return solve(a, start=start)

    monkeypatch.setattr(kernels, "jacobi_unordered", spy)
    warm = flow_integrated(s, cfg)
    assert warm_starts == [False] + [True] * 79  # four stages per step
    monkeypatch.setattr(kernels, "jacobi_unordered", lambda a, start=None: solve(a))
    cold = flow_integrated(s, cfg)
    for x, y in zip(warm.states, cold.states):
        assert maxabs(x - y) < 1e-13 * frobenius(s)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 11])
@pytest.mark.parametrize("shape", ["jacobi", "dense"])
@pytest.mark.parametrize("kind", ["log", "exp"])
def test_warm_field_matches_lapack(kind, shape, n, monkeypatch):
    # every stage input of a warm-started RK4 flow, its field value held
    # against [z, skew_part(g(z))] with g(z) from LAPACK's eigh
    rng = np.random.default_rng(n)
    lam = descending_spectrum(n, rng, lo=0.5, hi=3.5, min_gap=0.05)
    s = random_jacobi(n, rng, spectrum=lam) if shape == "jacobi" else random_with_spectrum(lam, rng)
    g, fn = getattr(SpectralFunction, kind)(), getattr(np, kind)
    rk4, stages = toda._rk4, []

    def recording(field, z, times):
        def spy(a, out):
            field(a, out)
            stages.append((a.copy(), out.copy()))
            return out

        return rk4(spy, z, times)

    monkeypatch.setattr(toda, "_rk4", recording)
    flow_integrated(s, FlowConfig(g=g, t_final=0.16, dt=0.008))
    assert len(stages) == 80
    for z, got in stages:
        want = commutator(z, skew_part(matrix_function_oracle(z, fn)))
        top = float(np.abs(fn(np.linalg.eigvalsh(z))).max())
        assert maxabs(got - want) <= 2e-13 * frobenius(z) * top


def test_integrated_partial_final_step():
    rng = np.random.default_rng(601)
    s = random_with_spectrum([2.0, 1.0], rng)
    traj = flow_integrated(s, FlowConfig(g=IDENTITY, t_final=0.25, dt=0.1))
    npt.assert_allclose(traj.times, [0.0, 0.1, 0.2, 0.25], atol=1e-15)
    exact = flow_factorized(s, IDENTITY, 0.25)
    assert maxabs(traj.final - exact) < 1e-6  # coarse dt, still O(dt^4)


@pytest.mark.parametrize("t_final, dt", [(1.5, 1e-3), (10.0, 1e-3), (0.3, 0.1),
                                         (0.7, 0.5), (1e-20, 1.0)])
def test_time_grid_ends_exactly_on_t_final(t_final, dt):
    # summing dt drifts: 1500 steps of 1e-3 added up end at 1.4999999999999456
    times = time_grid(t_final, dt)
    assert times[0] == 0.0 and times[-1] == t_final
    assert np.all(np.diff(times) > 0.0)
    assert np.all(np.diff(times) <= dt * (1.0 + 1e-9))


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(g=IDENTITY, t_final=1.0, dt=0.0)
    with pytest.raises(ValueError):
        FlowConfig(g=IDENTITY, t_final=-1.0, dt=0.1)
    # dt beyond t_final is one step that ends on t_final, as in time_grid
    traj = flow_integrated(np.diag([2.0, 1.0]), FlowConfig(g=IDENTITY, t_final=0.5, dt=0.7))
    npt.assert_array_equal(traj.times, [0.0, 0.5])
    cfg = FlowConfig(g=IDENTITY, t_final=0.0, dt=0.5)  # t=0 is fine, no steps
    assert len(flow_integrated(np.diag([2.0, 1.0]), cfg)) == 1


@pytest.mark.parametrize("t_final, dt", [(math.inf, 0.1), (1.0, math.nan), (1e308, 1e-300),
                                         (1.0, 0.0), (-1.0, 0.1)],
                         ids=["t inf", "dt nan", "inf steps", "dt 0", "t < 0"])
def test_every_span_check_refuses_by_value_error(t_final, dt):
    # 1e308 / 1e-300 steps is inf: time_grid's floor of it was an OverflowError
    state = TodaState(x=np.zeros(2), y=np.zeros(2))
    for make in (lambda: FlowConfig(g=SpectralFunction.identity(), t_final=t_final, dt=dt),
                 lambda: time_grid(t_final, dt), lambda: particle_flow(state, t_final, dt)):
        with pytest.raises(ValueError):
            make()

def test_diverging_integration_raises():
    # RK4 with dt far beyond the field's time scale leaves the finite
    # numbers; that must raise, not return a trajectory of inf and NaN
    s = np.array([[3.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, -2.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            flow_integrated(s, FlowConfig(g=IDENTITY, t_final=20.0, dt=1.0))
        with pytest.raises(ValueError):
            particle_flow(TodaState(x=np.array([0.0, 2.0, -1.0]),
                                    y=np.array([5.0, 0.0, -5.0])), 20.0, 2.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["+inf", "-inf", "nan"])
@pytest.mark.parametrize("stage", [1, 2, 3, 4])
@pytest.mark.parametrize("shape", [(2, 5), (5, 5)], ids=["particles", "matrix"])
def test_rk4_raises_at_the_first_non_finite_step(shape, stage, bad):
    # the slope of one stage of step 7 gets one non-finite entry: the step's
    # state is the first that is not finite, and no later field call is made
    calls = []

    def field(z, out):
        calls.append(len(calls) + 1)
        out[...] = 0.25
        if len(calls) == 4 * 6 + stage:
            out[-1, 1] = bad
        return out

    with np.errstate(invalid="ignore"):  # 0 * inf, as a diverging flow also meets
        with pytest.raises(ValueError, match="no longer finite"):
            toda._rk4(field, np.ones(shape), time_grid(1.0, 0.05))
    assert len(calls) == 4 * 7


def textbook_rk4(field, z, times):
    """RK4 written out, one new array per stage: the reference for ``toda._rk4``."""
    states = [z]
    for h in np.diff(times):
        k1 = field(z)
        k2 = field(z + 0.5 * h * k1)
        k3 = field(z + 0.5 * h * k2)
        k4 = field(z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(z)
    return np.array(states)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_rk4_matches_the_textbook_loop(n):
    # the one-product step rounds differently from the sum written out, so
    # the two loops agree to roundoff, not bitwise; each runs its own field
    rng = np.random.default_rng(653 + n)
    j = random_jacobi(n, rng, spectrum=descending_spectrum(n, rng, lo=0.5, hi=3.0, min_gap=0.02))
    times = time_grid(0.4, 0.002)  # 200 steps
    for g in FIELD_ROUTES:
        field = toda._field(g, n)
        want = textbook_rk4(lambda s: field(s, np.empty_like(s)), j, times)
        got = np.array(flow_integrated(j, FlowConfig(g=g, t_final=0.4, dt=0.002)).states)
        assert maxabs(got - want) <= 1e-14 * maxabs(want)
    state = inverse_flaschka(j)
    hamilton = toda._hamilton_field(n)
    want = textbook_rk4(lambda z: hamilton(z, np.empty_like(z)),
                        np.vstack([state.x, state.y]), times)
    got = np.array([[s.x, s.y] for s in particle_flow(state, 0.4, 0.002).states])
    assert maxabs(got - want) <= 1e-14 * maxabs(want)


def multiply_add_rk4(field, z, times):
    """The RK4 loop before the fused stages: each stage input by a multiply and
    an add, each step by a product with the four slopes and an add.  ``toda._rk4``
    must give its results bit for bit."""
    steps = np.diff(times)
    path = np.resize(z, (len(times), *z.shape))
    slopes, stage = np.empty((4, *z.shape)), np.empty_like(z)
    flat, flat_slopes = path.reshape(len(times), -1), slopes.reshape(4, -1)
    weights = np.outer(steps / 6.0, (1.0, 2.0, 2.0, 1.0))
    for i, h in enumerate(steps.tolist()):
        field(path[i], slopes[0])
        for k, c in ((1, 0.5 * h), (2, 0.5 * h), (3, h)):
            field(np.add(np.multiply(slopes[k - 1], c, out=stage), path[i], out=stage), slopes[k])
        np.dot(weights[i], flat_slopes, out=flat[i + 1])
        flat[i + 1] += flat[i]
    return path


def jacobi_case(n, seed):
    rng = np.random.default_rng(seed)
    return random_jacobi(n, rng, spectrum=descending_spectrum(n, rng, lo=0.5, hi=3.0, min_gap=0.1))


def particle_path(state, t_final, dt):
    return np.array([[s.x, s.y] for s in particle_flow(state, t_final, dt).states])


@pytest.mark.parametrize("dt", [0.0025, 0.008])
@pytest.mark.parametrize("n", [4, 6, 8])
def test_rk4_is_bitwise_the_multiply_add_loop(n, dt):
    # the benchmark's step sizes; a fused stage adds its zero terms as +-0
    j = jacobi_case(n, 659 + n)
    times = time_grid(0.2, dt)
    for g in FIELD_ROUTES:
        got = np.array(flow_integrated(j, FlowConfig(g=g, t_final=0.2, dt=dt)).states)
        assert np.array_equal(got, multiply_add_rk4(toda._field(g, n), j, times))
    state = inverse_flaschka(j)
    want = multiply_add_rk4(toda._hamilton_field(n), np.vstack([state.x, state.y]), times)
    assert np.array_equal(particle_path(state, 0.2, dt), want)


def test_rk4_reads_no_buffer_before_writing_it(monkeypatch):
    # step 0's stages multiply slope rows that no field has written yet, by 0;
    # were any buffer uninitialised memory, a NaN there would make the flow
    # raise "no longer finite" (0 * NaN), now and then.  Here it always is NaN.
    j = jacobi_case(6, 661)
    state = inverse_flaschka(j)

    def flows():
        states = [flow_integrated(j, FlowConfig(g=g, t_final=0.1, dt=0.0025)).states
                  for g in (IDENTITY, SpectralFunction.log())]
        return [np.array(s) for s in states] + [particle_path(state, 0.1, 0.0025)]

    want = flows()
    empty, empty_like = np.empty, np.empty_like

    def nan_filled(make):
        def patched(*args, **kwargs):
            a = make(*args, **kwargs)
            if a.dtype.kind == "f":
                a.fill(np.nan)
            return a
        return patched

    monkeypatch.setattr(np, "empty", nan_filled(empty))
    monkeypatch.setattr(np, "empty_like", nan_filled(empty_like))
    assert np.isnan(np.empty(3)).all()
    for got, ref in zip(flows(), want, strict=True):
        assert np.array_equal(got, ref)


# --------------------------------------------------------- particle dynamics

def test_particle_flow_conserves_energy():
    rng = np.random.default_rng(607)
    st = TodaState(x=np.array([1.0, 0.2, -0.4, -0.8]),
                   y=np.array([-0.3, 0.5, 0.1, -0.3]))
    traj = particle_flow(st, 10.0, 1e-3)
    h0 = hamiltonian(st)
    drift = max(abs(hamiltonian(s) - h0) for s in traj.states[::500])
    assert drift < 1e-8 * max(1.0, abs(h0))


def test_particle_flow_intertwines_with_matrix_flow():
    # the two pictures, integrated/solved independently, must tell one story
    rng = np.random.default_rng(613)
    st = TodaState(x=rng.normal(size=3) * 0.5, y=rng.normal(size=3) * 0.5)
    j0 = flaschka(st)
    ptraj = particle_flow(st, 2.0, 1e-3)
    for idx in (500, 1000, 2000):
        t = float(ptraj.times[idx])
        j_particles = flaschka(ptraj.states[idx])
        j_matrix = flow_factorized(j0, IDENTITY, t)
        assert maxabs(j_particles - j_matrix) < 1e-5 * max(1.0, frobenius(j0))


def test_particle_momenta_approach_spectrum():
    # after long free flight each momentum settles at -2 * (an eigenvalue),
    # leftmost particle taking the largest eigenvalue
    rng = np.random.default_rng(617)
    st = TodaState(x=np.array([0.6, 0.0, -0.6]), y=np.array([-0.2, 0.1, 0.1]))
    lam = np.sort(np.linalg.eigvalsh(flaschka(st)))[::-1]
    traj = particle_flow(st, 25.0, 0.01)
    npt.assert_allclose(traj.final.y, -2.0 * lam, atol=1e-5)


def test_particle_flow_validation():
    st = TodaState(x=np.zeros(2), y=np.zeros(2))
    with pytest.raises(ValueError):
        particle_flow(st, -1.0, 0.1)
    with pytest.raises(ValueError):
        particle_flow(st, 1.0, 0.0)


@pytest.fixture
def vector_checks(monkeypatch):
    """Record the ``what`` of every vector check that toda and slices run."""
    check = linalg.as_vector
    seen = []

    def spy(v, what, n=None):
        seen.append(what)
        return check(v, what, n)

    monkeypatch.setattr(toda, "as_vector", spy)
    monkeypatch.setattr(slices, "as_vector", spy)
    return seen


def test_particle_flow_checks_do_not_grow_with_the_steps(vector_checks):
    st = TodaState(x=np.array([0.6, 0.0, -0.6]), y=np.array([-0.2, 0.1, 0.1]))
    counts = []
    for steps in (10, 200):
        vector_checks.clear()
        traj = particle_flow(st, 1.0, 1.0 / steps)
        counts.append(len(vector_checks))
        assert isinstance(traj, ParticleTrajectory) and len(traj) == steps + 1
    assert counts[0] == counts[1]
    # every state owns its arrays, and the checks it skipped would pass
    assert all(a.flags.owndata for s in traj.states for a in (s.x, s.y))
    for s in traj.states:
        TodaState(x=s.x, y=s.y)


def test_matrix_flows_check_their_time_grid_once(vector_checks):
    j = random_jacobi(4, np.random.default_rng(619))
    flow_factorized(j, IDENTITY, 0.7)
    assert vector_checks == ["sample times"]
    vector_checks.clear()
    traj = flow_factorized_trajectory(j, IDENTITY, [0.0, 0.5, 1.0])
    assert vector_checks == ["sample times"] and len(traj) == 3
    vector_checks.clear()
    traj = flow_integrated(j, FlowConfig(IDENTITY, 1.0, 0.1))
    assert vector_checks == [] and len(traj) == len(traj.times) == 11


# ------------------------------------------------------------- diagnostics

def test_detect_clusters():
    j = np.diag([4.0, 3.0, 2.0, 1.0]) + 0.0
    for k, v in ((0, 0.5), (1, 1e-12), (2, 0.3)):
        j[k, k + 1] = j[k + 1, k] = v
    part = detect_clusters(j)
    assert part.blocks == ((0, 2), (2, 4))
    assert part.broken_bonds == (1,)
    with pytest.raises(NotTridiagonal):
        detect_clusters(np.ones((3, 3)))


def test_power_flow_answers_where_only_g_of_the_spectrum_overflows():
    # lam^2 passes the double range at 2^530 * 17, t lam^2 does not: the flow
    # refused every sample as spread inf, t = 0 (the input itself) included
    j = random_jacobi(4, np.random.default_rng(3), spectrum=[17.0, 9.0, 4.0, 1.0])
    big, g = np.ldexp(j, 530), SpectralFunction.power(2)
    lam = np.ldexp([17.0, 9.0, 4.0, 1.0], 530)
    (u,) = g.flow_log_weights(lam, np.array([2.0 ** -1060]))
    npt.assert_allclose(u, [289.0, 81.0, 16.0, 1.0], rtol=1e-14)
    top = np.abs(big).max()
    want = np.ldexp(flow_factorized(j, g, 1.0), 530)
    assert np.abs(flow_factorized(big, g, 2.0 ** -1060) - want).max() <= 1e-15 * top
    assert np.abs(flow_factorized(big, g, 0.0) - big).max() <= 1e-15 * top


def test_convergence_diagnostics_on_qr_iteration():
    rng = np.random.default_rng(619)
    s = random_with_spectrum([4.0, 2.0, 1.0], rng)
    traj = iterate_qr(s, 80)
    rep = convergence_diagnostics(traj)
    assert rep.converged
    assert rep.steps == 80
    assert rep.converged_at is not None and rep.converged_at < 80
    assert rep.diagonal_order == (0, 1, 2)
    assert rep.final_offdiag < 1e-6 * frobenius(s)
    npt.assert_allclose(rep.spectrum, [4.0, 2.0, 1.0], atol=1e-9)
    # early steps may churn, but the late stage must decay steadily
    assert bool(np.all(rep.monotone[-40:]))
    buf = io.StringIO()
    write_convergence_report(rep, buf)
    buf.seek(0)
    doc = read_report(buf)
    assert doc["converged"] is True
    assert doc["steps"] == 80
    assert doc["diagonal_order"] == [1, 2, 3]  # 1-based on the way out


def greedy_order_loop(diagonal, spectrum):
    """The diagonal order as a plain loop: each diagonal value takes the
    nearest spectrum value not yet taken, the first of equally near ones."""
    used, order = set(), []
    for value in diagonal:
        best, best_err = -1, math.inf
        for k, lam in enumerate(spectrum):
            if k not in used and abs(value - lam) < best_err:
                best, best_err = k, abs(value - lam)
        used.add(best)
        order.append(best)
    return tuple(order)


def test_diagonal_order_is_the_greedy_loop():
    # the order is taken on both / 2^binade (exact), so it does not depend on
    # the scale; ties (rounded values) go to the first spectrum value
    rng = np.random.default_rng(625)
    for i in range(600):
        n = int(rng.integers(2, 9))
        spectrum = np.sort(np.round(rng.normal(size=n), 1 if i % 2 else 12))[::-1]
        diagonal = np.round(spectrum[rng.permutation(n)] + 0.1 * rng.normal(size=n), 1)
        k = int(rng.integers(-900, 900))
        d, lam = np.ldexp(diagonal, k), np.ldexp(spectrum, k)
        assert toda._match_order(d, lam) == greedy_order_loop(d, lam)


def test_convergence_diagnostics_for_reversed_flow():
    rng = np.random.default_rng(621)
    j = random_jacobi(3, rng, spectrum=[3.0, 2.0, 1.0])
    traj = flow_factorized_trajectory(j, NEGATED, np.linspace(0.0, 30.0, 16))
    rep = convergence_diagnostics(traj)
    assert rep.converged
    assert rep.diagonal_order == (2, 1, 0)  # ascending diagonal
    assert rep.broken_bonds == (0, 1)


def test_flow_whose_log_weights_overflow_names_spread_inf():
    # t x^2 overflows at t = 1e308 (it used to leave as a RuntimeWarning);
    # t log(lam) stays finite and is refused by its spread
    s = random_jacobi(4, np.random.default_rng(9), spectrum=[3.0, 2.0, 1.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SingularMatrix, match="spread inf"):
            flow_factorized(s, SpectralFunction.power(2), 1e308)
        with pytest.raises(SingularMatrix, match="spread 1.79"):
            flow_factorized(s, SpectralFunction.log(), 1e308)


@pytest.mark.parametrize("g, t_final, dt, error", [
    (SpectralFunction.exp(), 1.0, 0.05, ValueError),
    (SpectralFunction.power(3), 1.0, 0.05, ValueError),
    (SpectralFunction.identity(), 400.0, 2.0, ValueError),
    (SpectralFunction.log(), 400.0, 2.0, DomainViolation),
], ids=["exp", "pow3", "identity", "log"])
def test_diverging_rk4_flow_raises_without_warnings(g, t_final, dt, error):
    # the overflows on the way to a non-finite state used to leave as
    # RuntimeWarnings before the "reduce dt" ValueError; log leaves its
    # domain first
    j = random_jacobi(4, np.random.default_rng(5), spectrum=[7.0, 5.0, 3.0, 1.0])
    with warnings.catch_warnings(), pytest.raises(error):
        warnings.simplefilter("error", RuntimeWarning)
        flow_integrated(j, FlowConfig(g, t_final, dt))


BEYOND = np.array([[1.0, 1.5e308], [1.5e308, -1.0]])  # valid entries, off-diagonal norm 2.1e308


@pytest.mark.parametrize("flow", [
    lambda: flow_integrated(BEYOND, FlowConfig(IDENTITY, 1e-300, 1e-300)),
    lambda: particle_flow(TodaState(x=np.array([0.0, -800.0]), y=np.zeros(2)), 1e-300, 1e-300),
], ids=["lax", "particles"])
def test_rk4_names_a_field_that_overflows(flow):
    # the field at the start state overflows, so no step size helps: this
    # asked for a smaller dt
    with pytest.raises(DomainViolation, match="field overflows double precision at the start"):
        flow()
