"""The open Toda lattice in both pictures.

Particle picture: n points on a line with exponential nearest-neighbor
repulsion,

    H(x, y) = 1/2 * sum(y_k^2) + sum(exp(x_k - x_{k+1})).

Matrix picture: the change of variables

    J[k][k]     = -y_k / 2
    J[k][k+1]   =  exp((x_k - x_{k+1}) / 2) / 2

carries solutions of Hamilton's equations to solutions of the isospectral Lax
equation  dS/dt = [S, skew_part(g(S))]  with g(x) = x.  The Lax flow for any g
admits an exact solution by conjugating with the orthogonal QR factor of
exp(t * g(S0)); a fixed-step RK4 integrator provides the independent route for
cross-validation.  Its field evaluates a polynomial g by Horner on the matrix;
only the other g (log, exp, fractional and negative powers) need an
eigensolve, warm-started from the stage before.

Sign conventions follow Hamilton's equations for the H above:
dx_k/dt = y_k and dy_k/dt = exp(x_{k-1}-x_k) - exp(x_k-x_{k+1}) with the
boundary terms absent; the matrix flow then intertwines *forward* in time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import DomainViolation, NotJacobi, NotTridiagonal
from .linalg import SpectralFunction, as_symmetric, as_vector, eigensystem
from .slices import SampledPath, Trajectory, as_time_grid, trusted

CONVERGED_RTOL = 1e-6
BOND_RTOL = 1e-8  # a bond at or below this times ||S|| counts as broken


@dataclass
class TodaState:
    """Positions and momenta of the particle system.

    The translation gauge (sum of positions = 0) picks a canonical
    representative; use :meth:`centered` to move to it.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = as_vector(self.x, "positions x")
        self.y = as_vector(self.y, "momenta y", len(self.x))
        if len(self.x) < 2:
            raise ValueError("need at least two particles")

    @property
    def n(self) -> int:
        return len(self.x)

    def centered(self) -> "TodaState":
        e = kernels.binade(self.x)  # the mean of x / 2^e, scaled back, cannot overflow
        mean = np.ldexp(np.ldexp(self.x, -e).mean(), e)
        return trusted(TodaState, x=self.x - mean, y=self.y.copy())


@dataclass
class FlowConfig:
    """Settings for an integrated matrix flow."""

    g: SpectralFunction
    t_final: float
    dt: float

    def __post_init__(self):
        self.t_final = float(self.t_final)
        self.dt = float(self.dt)
        _check_span(self.t_final, self.dt)


class ParticleTrajectory(SampledPath):
    """Sampled particle path: strictly increasing times, one state per time."""

    def __post_init__(self):
        super().__post_init__()
        if any(state.n != self.n for state in self.states):
            raise ValueError("all states must share one particle count")

    @property
    def n(self) -> int:
        return self.states[0].n


@dataclass
class ClusterPartition:
    """Blocks of still-coupled particles plus the bonds that broke."""

    blocks: tuple[tuple[int, int], ...]   # half-open index ranges, 0-based
    broken_bonds: tuple[int, ...]         # bond k couples particles k and k+1


def hamiltonian(state: TodaState) -> float:
    """Total energy: kinetic plus exponential nearest-neighbor potential
    (DomainViolation when it overflows)."""
    x, y = state.x, state.y
    with np.errstate(over="ignore"):
        h = float(0.5 * np.sum(y * y) + np.sum(np.exp(x[:-1] - x[1:])))
    if h == math.inf:
        raise DomainViolation("the energy of this state overflows double precision")
    return h


def flaschka(state: TodaState) -> np.ndarray:
    """Jacobi matrix of a particle state: diag -y/2, superdiag exp(gap/2)/2
    (DomainViolation when a bond overflows)."""
    x = state.x
    with np.errstate(over="ignore"):
        bonds = 0.5 * np.exp(0.5 * (x[:-1] - x[1:]))
    if not bonds.max() < math.inf:
        raise DomainViolation("the Flaschka map of this state overflows double precision")
    return kernels.tridiagonal(-0.5 * state.y, bonds)


def inverse_flaschka(j) -> TodaState:
    """Particle state of a Jacobi matrix, in the sum(x) = 0 gauge.

    Only position differences are determined by the matrix; the translation
    gauge (``TodaState.centered``) fixes the rest.  Raises NotJacobi when the
    input is not tridiagonal with a strictly positive superdiagonal.
    """
    a = as_symmetric(j)
    if not kernels.is_jacobi(a):
        raise NotJacobi("inverse change of variables needs a Jacobi matrix")
    x = np.concatenate(([0.0], -np.cumsum(2.0 * np.log(2.0 * np.diag(a, 1)))))
    return trusted(TodaState, x=x, y=-2.0 * np.diag(a)).centered()


def particle_field(state: TodaState) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side of Hamilton's equations for the particle system
    (DomainViolation when a force overflows)."""
    z = np.vstack([state.x, state.y])
    with np.errstate(over="ignore", invalid="ignore"):
        dz = _hamilton_field(state.n)(z, np.empty_like(z))
    if not np.isfinite(dz).all():
        raise DomainViolation("the particle field of this state overflows double precision")
    return tuple(dz)


def _hamilton_field(n: int):
    f = np.zeros(n + 1)  # bond terms f, zero-padded at both ends: force f[k-1] - f[k]
    bonds, left, right = f[1:-1], f[:-1], f[1:]

    def field(z: np.ndarray, out: np.ndarray) -> np.ndarray:  # rows x over y
        np.exp(np.subtract(z[0, :-1], z[0, 1:], bonds), bonds)
        out[0] = z[1]
        np.subtract(left, right, out[1])
        return out

    return field


def toda_field(s, g: SpectralFunction) -> np.ndarray:
    """Lax vector field [s, skew_part(g(s))]; g must be defined on the spectrum
    (DomainViolation otherwise, and when the field overflows)."""
    a = as_symmetric(s)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _field(g, len(a))(a, np.empty_like(a))
    if not np.isfinite(out).all():
        raise DomainViolation(f"the Lax field of {g.kind} overflows double precision")
    return out


def _field(g: SpectralFunction, n: int):
    """The Lax field of g on n x n validated, exactly symmetric arrays, as
    ``field(a, out)``: [a, b] = c + c.T for skew b and c = a @ b, as
    (a b).T = -b a for symmetric a: one product, exactly symmetric.  b is
    g(a) * kernels.skew_signs(n), skew_part(g(a)) up to the signs of zeros
    and g(a)'s roundoff asymmetry (c + c.T is symmetric whatever b, so g(a)
    is not re-symmetrized); sigma's zero diagonal drops g(0).  So a
    polynomial g (``g.coefficients``: identity, x^k for k >= 0, ``polynomial``)
    goes by Horner on (g(x) - g(0)) / x times a, with no eigensolve: from c_k a,
    one diagonal shift (none for a zero coefficient) and one product by a per
    lower coefficient; constant g gives 0.  Every other g warm-starts each
    eigensolve on the solver's unordered core (it and q.T diag(g(lam)) q ignore
    the order and signs of q's rows) from the eigenbasis of the call before;
    the first is ``kernels.jacobi_eigensystem``, cold and memoized.  RK4 stages
    differ by O(dt), so the eigensolver finishes by Cayley steps.
    """
    sigma, eye = kernels.skew_signs(n), np.eye(n)
    b, c = np.empty((2, n, n))  # g(a) * sigma and a @ b, reused by every call
    ct = c.T

    def lax(a: np.ndarray, ga: np.ndarray, out: np.ndarray):  # out positional: no keyword parsing
        np.dot(a, np.multiply(ga, sigma, b), c)
        return np.add(c, ct, out)

    coeffs = g.coefficients
    if coeffs is not None:
        lead, *lower = (coeffs[1:] or (0.0,))[::-1]  # c_k, then c_(k-1) .. c_1

        def horner(a: np.ndarray, out: np.ndarray):
            ga = a if lead == 1.0 else lead * a
            for c in lower:
                ga = (ga + c * eye if c else ga).dot(a)
            return lax(a, ga, out)

        return horner
    basis = None

    def field(a: np.ndarray, out: np.ndarray):
        nonlocal basis
        lam, basis = (kernels.jacobi_eigensystem(a) if basis is None
                      else kernels.jacobi_unordered(a, basis))
        return lax(a, (basis.T * g.values(lam)).dot(basis), out)

    return field


def interpolating_field(s) -> np.ndarray:
    """Vector field [s, skew_part(log s)] interpolating the QR iteration.

    Defined for strictly positive spectra; the rescaled fractional-step
    differences (fractional_step(s, k) - s) * k converge to this field as
    k grows.
    """
    return toda_field(s, SpectralFunction.log())


def flow_factorized(s0, g: SpectralFunction, t: float) -> np.ndarray:
    """Exact-in-principle solution of the Lax flow at any time t.

    With s0 = q.T diag(lam) q it is the slice move with log-weights t*g(lam):
    Q.T diag(lam) Q, Q the orthogonal QR factor of diag(exp(t*g(lam))) @ q.
    Raises SingularMatrix when their spread exceeds 700; see weighted_conjugate.
    """
    return flow_factorized_trajectory(s0, g, [t]).final


def flow_factorized_trajectory(s0, g: SpectralFunction, times) -> Trajectory:
    """Factorized flow sampled on a strictly increasing time grid.

    Decomposes once and reuses the eigenbasis for every sample; the
    log-weights are ``g.flow_log_weights``.
    """
    times = as_time_grid(times)
    lam, q = kernels.jacobi_eigensystem(as_symmetric(s0))
    states = [kernels.weighted_conjugate(lam, q, u) for u in g.flow_log_weights(lam, times)]
    return trusted(Trajectory, times=times, states=states)


def time_grid(t_final: float, dt: float) -> np.ndarray:
    """Sample times 0, dt, 2 dt, ..., ending on exactly t_final.

    The multiples of dt are computed directly, not summed, so they do not
    drift.  When dt does not divide t_final, t_final follows the last
    multiple as a shorter final step.  A last nonzero multiple that misses
    t_final by roundoff (less than 1e-12 * dt below it, or up to 1e-9 * dt
    above) is replaced by t_final instead.
    """
    t_final, dt = float(t_final), float(dt)
    _check_span(t_final, dt)
    nfull = int(math.floor(t_final / dt + 1e-9))
    times = dt * np.arange(nfull + 1)
    if nfull and t_final - times[-1] <= 1e-12 * dt:
        times[-1] = t_final
    elif t_final > times[-1]:
        times = np.append(times, t_final)
    return times


def _check_span(t_final: float, dt: float):
    """Refuse, by ValueError, a span that is not finite, has dt <= 0 or t_final < 0,
    or whose step count t_final / dt is not finite (no grid could hold it)."""
    if not (math.isfinite(t_final) and math.isfinite(dt)):
        raise ValueError("times must be finite")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t_final < 0.0:
        raise ValueError(
            "t_final must be nonnegative; negate the driving function "
            "(or flip the momenta) for a time-reversed flow"
        )
    if not math.isfinite(t_final / dt):
        raise ValueError(f"step count t_final / dt = {t_final:g} / {dt:g} is not finite")


def _rk4(field, z: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Classical RK4 on dz/dt = field(z) from z at times[0]: all states, as one array.

    A step's four slopes (each written by ``field(z, out)``) and its start state are
    the rows of one zeroed (5, z.size) buffer.  Each later stage input, and the next
    state, is one product of a coefficient row with it, (c at k_j, 1 at z) or (h/6
    (1, 2, 2, 1), 1): bitwise z + c k_j and h/6 (k1 + 2 k2 + 2 k3 + k4) + z, as it
    adds the terms in row order, zero ones as +-0.  Step 0 reads unwritten rows (by
    0), hence the zeros.  Raises ValueError at the first step whose state is not
    finite (its product with zeros is NaN, not 0), as when dt is too large, or
    DomainViolation if the slope at z itself is not (no dt helps); no overflow warns."""
    steps = np.diff(times)
    path = np.empty((len(times), *z.shape))
    path[0] = z
    buf, stage, zeros = np.zeros((5, *z.shape)), np.empty_like(z), np.zeros(z.size)
    flat, flat_buf, flat_stage = path.reshape(len(times), -1), buf.reshape(5, -1), stage.reshape(-1)
    rows = np.zeros((len(steps), 4, 5))  # per step: three stage rows, then the step's
    rows[:, :3, :3] = np.multiply.outer(steps, np.diag((0.5, 0.5, 1.0)))
    rows[:, 3, :4] = np.outer(steps / 6.0, (1.0, 2.0, 2.0, 1.0))
    rows[:, :, 4] = 1.0
    k1, *later, start = buf
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is the ValueError below
        for i, step in enumerate(rows):
            start[...] = path[i]
            field(start, k1)
            for row, k in zip(step, later):
                np.dot(row, flat_buf, flat_stage)
                field(stage, k)
            if zeros.dot(np.dot(step[3], flat_buf, flat[i + 1])) != 0.0:
                if i == 0 and not np.isfinite(k1).all():
                    raise DomainViolation("the vector field overflows double precision at "
                                          "the start state; no step size helps")
                raise ValueError("integrated state is no longer finite; reduce dt")
    return path


def flow_integrated(s0, config: FlowConfig) -> Trajectory:
    """Classical RK4 on the Lax field, recording every step.

    The field is exactly symmetric (c + c.T), so every state stays exactly symmetric.
    A polynomial g is evaluated by Horner, with no eigensolve; every other g
    warm-starts each stage's eigensolve from the eigenbasis of the stage before.
    """
    times = time_grid(config.t_final, config.dt)
    s0 = as_symmetric(s0)
    path = _rk4(_field(config.g, len(s0)), s0, times)
    return trusted(Trajectory, times=times, states=list(path))


def particle_flow(state0: TodaState, t_final: float, dt: float) -> ParticleTrajectory:
    """Classical RK4 on Hamilton's equations, recording every step."""
    times = time_grid(t_final, dt)
    path = _rk4(_hamilton_field(state0.n), np.vstack([state0.x, state0.y]), times)
    xs, ys = map(np.ndarray.copy, path[:, 0]), map(np.ndarray.copy, path[:, 1])
    states = [trusted(TodaState, x=x, y=y) for x, y in zip(xs, ys)]
    return trusted(ParticleTrajectory, times=times, states=states)


def detect_clusters(s) -> ClusterPartition:
    """Split a tridiagonal matrix into blocks at its bonds |b| <= 1e-8 * ||s|| (all, for s = 0).

    Raises NotTridiagonal for input with entries outside the band.
    """
    a = as_symmetric(s)
    if not kernels.is_tridiagonal(a):
        raise NotTridiagonal("cluster detection needs a tridiagonal matrix")
    broken = _broken_bonds(a)
    edges = [0, *(k + 1 for k in broken), a.shape[0]]
    return ClusterPartition(blocks=tuple(zip(edges[:-1], edges[1:])), broken_bonds=broken)


def _broken_bonds(a: np.ndarray) -> tuple[int, ...]:
    return tuple(np.flatnonzero(np.abs(a.diagonal(1)) <= kernels.tolerance(BOND_RTOL, a)).tolist())


@dataclass
class ConvergenceReport:
    """Per-sample convergence data of a matrix trajectory.

    ``converged`` refers to the final sample: off-diagonal Frobenius norm
    below 1e-6 * ||first state||.  ``diagonal_order`` matches the final
    diagonal against the descending spectrum (a permutation, 0-based).
    ``broken_bonds`` are the final state's, as ``detect_clusters`` finds them.
    """

    times: np.ndarray
    offdiag_norms: np.ndarray
    diagonals: np.ndarray
    monotone: np.ndarray
    converged: bool
    converged_at: int | None
    final_offdiag: float
    diagonal_order: tuple[int, ...]
    spectrum: np.ndarray
    broken_bonds: tuple[int, ...] = field(default_factory=tuple)

    @property
    def steps(self) -> int:
        return len(self.times) - 1


def _match_order(diagonal: np.ndarray, spectrum: np.ndarray) -> tuple[int, ...]:
    """Greedy nearest-unused assignment, exact for converged trajectories; the
    distances are taken on both / 2^``binade`` of both (exact), so none overflows."""
    e = kernels.binade(np.concatenate((diagonal, spectrum)))
    dist = np.abs(np.subtract.outer(np.ldexp(diagonal, -e), np.ldexp(spectrum, -e)))
    order = []
    for row in dist:
        row[order] = np.inf  # the spectrum values already taken
        order.append(int(row.argmin()))
    return tuple(order)


def convergence_diagnostics(traj: Trajectory) -> ConvergenceReport:
    """Off-diagonal decay, diagonal ordering and broken bonds along a trajectory."""
    offs = np.empty(len(traj.states))
    for k, state in enumerate(traj.states):
        try:
            offs[k] = kernels.offdiag_norm(state)
        except OverflowError as exc:
            raise OverflowError(f"off-diagonal norm of sample {k}: {exc}") from None
    diags = np.array([np.diag(state) for state in traj.states])
    monotone = np.ones(len(offs), dtype=bool)
    monotone[1:] = offs[1:] <= offs[:-1]
    tol = kernels.tolerance(CONVERGED_RTOL, traj.states[0])
    below = np.nonzero(offs < tol)[0]
    converged_at = int(below[0]) if below.size else None
    spectrum, _ = eigensystem(traj.states[0])
    final = as_symmetric(traj.final)
    broken = _broken_bonds(final) if kernels.is_tridiagonal(final) else ()
    return ConvergenceReport(
        times=traj.times.copy(),
        offdiag_norms=offs,
        diagonals=diags,
        monotone=monotone,
        converged=bool(offs[-1] < tol),
        converged_at=converged_at,
        final_offdiag=float(offs[-1]),
        diagonal_order=_match_order(diags[-1], spectrum),
        spectrum=spectrum,
        broken_bonds=broken,
    )
