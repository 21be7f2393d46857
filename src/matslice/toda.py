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
cross-validation.

Sign conventions follow Hamilton's equations for the H above:
dx_k/dt = y_k and dy_k/dt = exp(x_{k-1}-x_k) - exp(x_k-x_{k+1}) with the
boundary terms absent; the matrix flow then intertwines *forward* in time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotJacobi, NotTridiagonal
from .jacobi import is_jacobi, is_tridiagonal
from .linalg import (
    SpectralFunction,
    apply_function,
    as_symmetric,
    eigensystem,
    frobenius,
    function_values,
    offdiag_norm,
    symmetrize,
)
from .slices import Trajectory, as_time_grid, weighted_conjugate

CONVERGED_RTOL = 1e-6
DEFAULT_BOND_TOL = 1e-8


@dataclass
class TodaState:
    """Positions and momenta of the particle system.

    The translation gauge (sum of positions = 0) picks a canonical
    representative; use :meth:`centered` to move to it.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 1 or self.y.ndim != 1 or len(self.x) != len(self.y):
            raise ValueError("x and y must be 1-d with equal length")
        if len(self.x) < 2:
            raise ValueError("need at least two particles")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise ValueError("state entries must be finite")

    @property
    def n(self) -> int:
        return len(self.x)

    def centered(self) -> "TodaState":
        return TodaState(self.x - self.x.mean(), self.y.copy())


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
        if self.t_final > 0.0 and self.dt > self.t_final:
            raise ValueError("dt must not exceed t_final")


@dataclass
class ParticleTrajectory:
    """Sampled particle path: strictly increasing times, one state per time."""

    times: np.ndarray
    states: list[TodaState]

    def __post_init__(self):
        self.times = as_time_grid(self.times)
        if len(self.times) != len(self.states):
            raise ValueError("times and states must align one to one")

    def __len__(self) -> int:
        return len(self.states)

    @property
    def n(self) -> int:
        return self.states[0].n

    @property
    def final(self) -> TodaState:
        return self.states[-1]


@dataclass
class ClusterPartition:
    """Blocks of still-coupled particles plus the bonds that broke."""

    blocks: tuple[tuple[int, int], ...]   # half-open index ranges, 0-based
    broken_bonds: tuple[int, ...]         # bond k couples particles k and k+1


def hamiltonian(state: TodaState) -> float:
    """Total energy: kinetic plus exponential nearest-neighbor potential."""
    x, y = state.x, state.y
    return float(0.5 * np.sum(y * y) + np.sum(np.exp(x[:-1] - x[1:])))


def flaschka(state: TodaState) -> np.ndarray:
    """Jacobi matrix of a particle state: diag -y/2, superdiag exp(gap/2)/2."""
    x, y = state.x, state.y
    n = state.n
    j = np.diag(-0.5 * y)
    off = 0.5 * np.exp(0.5 * (x[:-1] - x[1:]))
    idx = np.arange(n - 1)
    j[idx, idx + 1] = off
    j[idx + 1, idx] = off
    return j


def inverse_flaschka(j) -> TodaState:
    """Particle state of a Jacobi matrix, in the sum(x) = 0 gauge.

    Only position differences are determined by the matrix; the translation
    gauge fixes the rest.  Raises NotJacobi when the input is not tridiagonal
    with a strictly positive superdiagonal.
    """
    a = as_symmetric(j)
    if not is_jacobi(a):
        raise NotJacobi("inverse change of variables needs a Jacobi matrix")
    n = a.shape[0]
    y = -2.0 * np.diag(a).copy()
    gaps = 2.0 * np.log(2.0 * np.diag(a, 1))
    x = np.zeros(n)
    x[1:] = -np.cumsum(gaps)
    x -= x.mean()
    return TodaState(x=x, y=y)


def particle_field(state: TodaState) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side of Hamilton's equations for the particle system."""
    dx, dy = _hamilton_field(np.vstack([state.x, state.y]))
    return dx, dy


def _hamilton_field(z: np.ndarray) -> np.ndarray:
    # z stacks positions over momenta
    forces = np.exp(z[0, :-1] - z[0, 1:])
    dy = np.zeros_like(z[1])
    dy[:-1] -= forces
    dy[1:] += forces
    return np.vstack([z[1], dy])


def toda_field(s, g: SpectralFunction) -> np.ndarray:
    """Lax vector field [s, skew_part(g(s))]; g must be defined on the spectrum."""
    return _lax_field(as_symmetric(s), g)


def _lax_field(a: np.ndarray, g: SpectralFunction) -> np.ndarray:
    # trusted: a is a validated, exactly symmetric float array
    lower = np.tril(a if g.kind == "identity" else apply_function(a, g), -1)
    skew = lower - lower.T  # the skew_part formula, without its validation
    return symmetrize(a @ skew - skew @ a)


def interpolating_field(s) -> np.ndarray:
    """Vector field [s, skew_part(log s)] interpolating the QR iteration.

    Defined for strictly positive spectra; the rescaled fractional-step
    differences (fractional_step(s, k) - s) * k converge to this field as
    k grows.
    """
    return toda_field(s, SpectralFunction.log())


def flow_factorized(s0, g: SpectralFunction, t: float) -> np.ndarray:
    """Exact-in-principle solution of the Lax flow at any time t.

    Computed in the eigenbasis: with s0 = q.T diag(lam) q, the solution is
    Q.T diag(lam) Q where Q is the orthogonal QR factor of
    diag(exp(t*g(lam) - max)) @ q.  Only weight *ratios* matter, so shifting
    the exponents by their maximum avoids overflow at large |t|; when the
    remaining spread exceeds ~700 the ratios underflow double precision and
    SingularMatrix is raised.
    """
    return flow_factorized_trajectory(s0, g, [t]).final


def flow_factorized_trajectory(s0, g: SpectralFunction, times) -> Trajectory:
    """Factorized flow sampled on a strictly increasing time grid.

    Decomposes once and reuses the eigenbasis for every sample.
    """
    times = as_time_grid(times)
    a = as_symmetric(s0)
    lam, q = eigensystem(a)
    vals = function_values(g, lam, frobenius(a))
    states = []
    for t in times:
        exponents = t * vals
        states.append(weighted_conjugate(lam, q, np.exp(exponents - exponents.max())))
    return Trajectory(times=times, states=states)


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
    if not (math.isfinite(t_final) and math.isfinite(dt)):
        raise ValueError("times must be finite")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t_final < 0.0:
        raise ValueError(
            "t_final must be nonnegative; negate the driving function "
            "(or flip the momenta) for a time-reversed flow"
        )


def _rk4(field, z: np.ndarray, times: np.ndarray) -> list[np.ndarray]:
    """Classical RK4 on dz/dt = field(z) from z at times[0]; the state at every time.

    Raises ValueError as soon as a step leaves the finite numbers, which is
    how a step size too large for the field shows.
    """
    states = [z]
    for h in np.diff(times):
        k1 = field(z)
        k2 = field(z + 0.5 * h * k1)
        k3 = field(z + 0.5 * h * k2)
        k4 = field(z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(z)):
            raise ValueError("integrated state is no longer finite; reduce dt")
        states.append(z)
    return states


def flow_integrated(s0, config: FlowConfig) -> Trajectory:
    """Classical RK4 on the Lax field, recording every step.

    The field is exactly symmetric, so every state stays exactly symmetric.
    """
    times = time_grid(config.t_final, config.dt)
    g = config.g
    states = _rk4(lambda a: _lax_field(a, g), as_symmetric(s0), times)
    return Trajectory(times=times, states=states)


def particle_flow(state0: TodaState, t_final: float, dt: float) -> ParticleTrajectory:
    """Classical RK4 on Hamilton's equations, recording every step."""
    times = time_grid(t_final, dt)
    zs = _rk4(_hamilton_field, np.vstack([state0.x, state0.y]), times)
    return ParticleTrajectory(times=times, states=[TodaState(x=z[0], y=z[1]) for z in zs])


def detect_clusters(s, tol: float = DEFAULT_BOND_TOL) -> ClusterPartition:
    """Split a tridiagonal matrix into blocks where |bond| < tol.

    Raises NotTridiagonal for input with entries outside the band.
    """
    a = as_symmetric(s)
    if not is_tridiagonal(a):
        raise NotTridiagonal("cluster detection needs a tridiagonal matrix")
    n = a.shape[0]
    bonds = np.diag(a, 1)
    broken = tuple(int(k) for k in range(n - 1) if abs(bonds[k]) < tol)
    blocks = []
    start = 0
    for k in broken:
        blocks.append((start, k + 1))
        start = k + 1
    blocks.append((start, n))
    return ClusterPartition(blocks=tuple(blocks), broken_bonds=broken)


@dataclass
class ConvergenceReport:
    """Per-sample convergence data of a matrix trajectory.

    ``converged`` refers to the final sample: off-diagonal Frobenius norm
    below 1e-6 * ||first state||.  ``diagonal_order`` matches the final
    diagonal against the descending spectrum (a permutation, 0-based).
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

    def to_dict(self) -> dict:
        """JSON-ready summary (permutations and bonds 1-based there)."""
        return {
            "converged": bool(self.converged),
            "steps": int(self.steps),
            "final_offdiag": float(self.final_offdiag),
            "diagonal_order": [int(k) + 1 for k in self.diagonal_order],
            "broken_bonds": [int(k) + 1 for k in self.broken_bonds],
            "final_diagonal": [float(v) for v in self.diagonals[-1]],
            "spectrum": [float(v) for v in self.spectrum],
        }


def _match_order(diagonal: np.ndarray, spectrum: np.ndarray) -> tuple[int, ...]:
    # greedy nearest-unused assignment; exact for converged trajectories
    used = set()
    order = []
    for value in diagonal:
        best, best_err = -1, math.inf
        for k, lam in enumerate(spectrum):
            if k in used:
                continue
            err = abs(value - lam)
            if err < best_err:
                best, best_err = k, err
        used.add(best)
        order.append(best)
    return tuple(order)


def convergence_diagnostics(traj: Trajectory, bond_tol: float = DEFAULT_BOND_TOL) -> ConvergenceReport:
    """Off-diagonal decay, diagonal ordering and broken bonds along a trajectory."""
    scale = frobenius(traj.states[0])
    offs = np.array([offdiag_norm(state) for state in traj.states])
    diags = np.array([np.diag(state) for state in traj.states])
    monotone = np.ones(len(offs), dtype=bool)
    monotone[1:] = offs[1:] <= offs[:-1]
    tol = CONVERGED_RTOL * scale
    below = np.nonzero(offs < tol)[0]
    converged_at = int(below[0]) if below.size else None
    spectrum, _ = eigensystem(traj.states[0])
    final = traj.final
    broken: tuple[int, ...] = ()
    if is_tridiagonal(final):
        broken = detect_clusters(final, bond_tol).broken_bonds
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
