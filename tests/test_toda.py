import math

import numpy as np
import numpy.testing as npt
import pytest

from matslice import (
    FlowConfig,
    NotJacobi,
    NotTridiagonal,
    SingularMatrix,
    SpectralFunction,
    TodaState,
    convergence_diagnostics,
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
    random_with_spectrum,
    time_grid,
    toda_field,
)
from conftest import maxabs

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
    with pytest.raises(ValueError):
        FlowConfig(g=IDENTITY, t_final=0.5, dt=0.7)
    cfg = FlowConfig(g=IDENTITY, t_final=0.0, dt=0.5)  # t=0 is fine, no steps
    assert len(flow_integrated(np.diag([2.0, 1.0]), cfg)) == 1


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


# ------------------------------------------------------------- diagnostics

def test_detect_clusters():
    j = np.diag([4.0, 3.0, 2.0, 1.0]) + 0.0
    for k, v in ((0, 0.5), (1, 1e-12), (2, 0.3)):
        j[k, k + 1] = j[k + 1, k] = v
    part = detect_clusters(j, tol=1e-8)
    assert part.blocks == ((0, 2), (2, 4))
    assert part.broken_bonds == (1,)
    with pytest.raises(NotTridiagonal):
        detect_clusters(np.ones((3, 3)))


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
    doc = rep.to_dict()
    assert doc["converged"] is True
    assert doc["steps"] == 80
    assert doc["diagonal_order"] == [1, 2, 3]  # 1-based on the way out


def test_convergence_diagnostics_for_reversed_flow():
    rng = np.random.default_rng(621)
    j = random_jacobi(3, rng, spectrum=[3.0, 2.0, 1.0])
    traj = flow_factorized_trajectory(j, NEGATED, np.linspace(0.0, 30.0, 16))
    rep = convergence_diagnostics(traj)
    assert rep.converged
    assert rep.diagonal_order == (2, 1, 0)  # ascending diagonal
    assert rep.broken_bonds == (0, 1)
