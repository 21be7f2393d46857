"""The benchmark's four workloads.

Each workload is a fixed list of tasks made from one seed.  A task computes
one quantity by two independent routes of matslice and returns the checks
that hold the routes against each other, at the tolerances of the acceptance
gate in ``tests/test_acceptance.py`` (never looser).

The list is built from blocks.  Every block holds the same number of tasks of
each kind, in a seeded order, so any stretch of whole blocks has the
workload's mix.  The counts in a block are chosen so that the median and the
90th percentile of task latency fall inside one kind's latency range, not on
the step between two kinds, where a small shift in the mix would move them a
lot.

Library calls go through the ``matslice`` package and module attributes at
call time, never through names bound here at import, so that a tracer that
swaps those attributes sees every call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import matslice as ms
import matslice.cli       # the package does not import these two itself
import matslice.fileio

# Gate tolerances, relative to the scale each criterion uses.
RK4_VS_FACTORIZED = 1e-6     # criterion 3, x ||S||
POWER_STEP_VS_QR = 1e-8      # criterion 2, x ||S||
SPECTRUM_DRIFT = 1e-9        # criterion 5, x ||S||
PARTICLE_VS_MATRIX = 1e-5    # criterion 7, x max(1, ||J||)
ENERGY_DRIFT = 1e-8          # criterion 7, x max(1, |H0|)
MOSER_ROUND_TRIP = 1e-8      # criterion 8, x max(1, max|J|)
TWO_FORMULAS = 1e-10         # criterion 1, x ||S||: one quantity, two formulas


@dataclass(frozen=True)
class Check:
    """One comparison of two routes.  ``tol`` is None for a yes/no check,
    whose ``err`` is 0.0 when the routes agree and 1.0 when they do not."""

    what: str
    err: float
    tol: float | None

    @property
    def ok(self) -> bool:
        if self.tol is None:
            return self.err == 0.0
        return bool(self.err < self.tol)


def agree(what: str, condition: bool) -> Check:
    return Check(what, 0.0 if condition else 1.0, None)


@dataclass(frozen=True)
class Task:
    kind: str
    run: Callable[[], list]


def maxabs(a) -> float:
    return float(np.max(np.abs(a)))


def norm(a) -> float:
    return float(np.linalg.norm(a))


# -- flow-spectral -------------------------------------------------------------
# Lax flows driven by log and x^2: every RK4 stage and every factorized sample
# is an eigensolve of a small, nearly diagonal matrix.

SPECTRAL_T, SPECTRAL_DT, SPECTRAL_SAMPLES = 0.16, 0.008, 5
SPECTRAL_MIX = [(3, (4, "log")), (3, (4, "pow:2")), (5, (5, "log")), (5, (5, "pow:2")),
                (2, (6, "log")), (2, (6, "pow:2"))]


def _spectral_task(s, g):
    traj = ms.flow_integrated(s, ms.FlowConfig(g=g, t_final=SPECTRAL_T, dt=SPECTRAL_DT))
    scale = norm(s)
    last = len(traj) - 1
    checks = []
    for k in range(1, SPECTRAL_SAMPLES + 1):
        i = round(k * last / SPECTRAL_SAMPLES)
        exact = ms.flow_factorized(s, g, float(traj.times[i]))
        checks.append(Check("rk4 vs factorized", maxabs(traj.states[i] - exact) / scale,
                            RK4_VS_FACTORIZED))
    return checks


def flow_spectral(rng, kinds, workdir) -> list:
    functions = {"log": ms.SpectralFunction.log(), "pow:2": ms.SpectralFunction.power(2)}
    tasks = []
    for n, name in kinds:
        g = functions[name]
        lam = ms.descending_spectrum(n, rng, lo=0.5, hi=3.0, min_gap=0.25)
        s = ms.random_jacobi(n, rng, spectrum=lam)
        tasks.append(Task(f"n{n}/{name}", partial(_spectral_task, s, g)))
    return tasks


# -- flow-plain ----------------------------------------------------------------
# The identity-driven Toda flow in both pictures: RK4 on the Lax equation and
# on Hamilton's equations, tied together by the Flaschka map.  Almost no
# eigensolves; the time goes to the RK4 loops and per-call validation.

PLAIN_DT, PLAIN_SAMPLES = 0.0025, 5
# (tasks per block, (n, final time)).  The three sizes cost about the same per
# step, so n = 8 runs twice as long: the 90th percentile then sits in the
# middle of one kind instead of in the overlapping tails of all three.
PLAIN_MIX = [(6, (4, 0.25)), (10, (6, 0.25)), (4, (8, 0.5))]


def _plain_task(j, t_final):
    identity = ms.SpectralFunction.identity()
    state = ms.inverse_flaschka(j)
    particles = ms.particle_flow(state, t_final, PLAIN_DT)
    matrices = ms.flow_integrated(j, ms.FlowConfig(g=identity, t_final=t_final, dt=PLAIN_DT))
    scale = max(1.0, norm(j))
    h0 = ms.hamiltonian(state)
    last = len(matrices) - 1
    checks = []
    for k in range(1, PLAIN_SAMPLES + 1):
        i = round(k * last / PLAIN_SAMPLES)
        gap = maxabs(ms.flaschka(particles.states[i]) - matrices.states[i])
        checks.append(Check("particles vs matrices", gap / scale, PARTICLE_VS_MATRIX))
        drift = abs(ms.hamiltonian(particles.states[i]) - h0)
        checks.append(Check("energy drift", drift / max(1.0, abs(h0)), ENERGY_DRIFT))
    exact = ms.flow_factorized(j, identity, t_final)
    checks.append(Check("rk4 vs factorized", maxabs(matrices.final - exact) / norm(j),
                        RK4_VS_FACTORIZED))
    return checks


def flow_plain(rng, kinds, workdir) -> list:
    return [Task(f"n{n}/t{t_final}", partial(_plain_task, ms.random_jacobi(n, rng), t_final))
            for n, t_final in kinds]


# -- polytope ------------------------------------------------------------------
# Slice images of dense symmetric matrices and the two hull-membership tests:
# the phase-1 LP over all n! vertices against sorted prefix sums.  A fixed
# share of tasks also enumerates the accessible vertices (n! permutations)
# and checks irreducibility (2^n subsets).  The LP's pivot count, and so its
# time, varies several-fold from point to point, and points of one matrix
# vary alike.  So an n = 6 task takes the images of six matrices: the 90th
# percentile then sits in the middle of that kind, not in the thin tail of
# single LPs, and a run samples enough independent matrices for its rate and
# percentiles to repeat from seed to seed.

POLYTOPE_MIX = [(14, (5, 1, False)), (2, (5, 1, True)), (4, (6, 6, False))]


def _connected(a) -> bool:
    """Coupling graph connectivity by search: the other route to irreducibility."""
    coupled = np.abs(a) > ms.slices.IRREDUCIBLE_RTOL * norm(a)
    seen, frontier = {0}, [0]
    while frontier:
        i = frontier.pop()
        for k in np.nonzero(coupled[i])[0]:
            if int(k) not in seen:
                seen.add(int(k))
                frontier.append(int(k))
    return len(seen) == a.shape[0]


def _lattice_count(s) -> int:
    """Accessible vertices counted over the Boolean lattice of row subsets.

    |det| of a leading minor does not depend on the order of its rows, so a
    permutation is accessible exactly when every prefix set passes; count the
    chains through passing sets.  Eigenvectors come from LAPACK, not from the
    package's Jacobi solver.
    """
    _, v = np.linalg.eigh(s)
    q = v[:, ::-1].T
    n = q.shape[0]
    ways = np.zeros(1 << n)
    ways[0] = 1.0
    for subset in range(1, 1 << n):
        rows = [i for i in range(n) if subset >> i & 1]
        k = len(rows)
        if k < n and abs(np.linalg.det(q[np.ix_(rows, range(k))])) <= ms.polytope.MINOR_TOL:
            continue
        ways[subset] = sum(ways[subset & ~(1 << i)] for i in rows)
    return int(ways[-1])


def _polytope_task(images, vertices):
    checks = []
    for s, lam, w in images:
        image = ms.slice_point(s, w)
        point = ms.bfr_map(image)
        checks.append(Check("bfr map vs diagonal", maxabs(point - np.diag(image)) / norm(s),
                            TWO_FORMULAS))
        by_lp = ms.hull_member(point, lam)
        by_prefix = ms.majorization_member(point, lam)
        checks.append(agree("hull by LP == by prefix sums, inside", by_lp and by_prefix))
    if vertices:
        s = images[0][0]
        checks.append(agree("irreducible by subsets == by search",
                            ms.is_irreducible(s) == _connected(s)))
        checks.append(agree("accessible vertices == lattice count",
                            len(ms.accessible_vertices(s)) == _lattice_count(s)))
    return checks


def polytope(rng, kinds, workdir) -> list:
    tasks = []
    for n, count, vertices in kinds:
        images = []
        for _ in range(count):
            lam = ms.descending_spectrum(n, rng, lo=-3.0, hi=3.0, min_gap=0.3)
            images.append((ms.random_with_spectrum(lam, rng), lam,
                           rng.uniform(0.05, 1.0, size=n)))
        kind = f"n{n}x{count}" + ("/vertices" if vertices else "")
        tasks.append(Task(kind, partial(_polytope_task, images, vertices)))
    return tasks


# -- chart-cli -----------------------------------------------------------------
# In-process command-line sessions on files: a few cold eigensolves at large n,
# plus the argument parsing and file formats around them.

CHART_MIX = [(3, 8), (4, 12), (1, 16), (2, 32)]
CHART_ITERATIONS = 4


def _cli(*argv):
    code = ms.cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"matslice {argv[0]} exited with {code}")


def _chart_task(lam, seed, workdir):
    n = len(lam)
    path = {name: os.path.join(workdir, name)
            for name in ("j.json", "m.json", "back.json", "step.json", "traj.csv", "report.json")}
    spectrum = ",".join(repr(float(v)) for v in lam)
    _cli("random", "--kind", "jacobi", "--n", str(n), "--seed", str(seed),
         "--spectrum", spectrum, "--out", path["j.json"])
    _cli("moser", "--in", path["j.json"], "--out", path["m.json"])
    _cli("moser-inverse", "--in", path["m.json"], "--out", path["back.json"])
    j = ms.fileio.read_matrix(path["j.json"])
    scale = norm(j)
    coords = ms.fileio.read_moser(path["m.json"])
    back = ms.fileio.read_matrix(path["back.json"])
    checks = [
        Check("moser round trip", maxabs(back - j) / max(1.0, maxabs(j)), MOSER_ROUND_TRIP),
        Check("moser spectrum vs prescribed", maxabs(coords.lam - lam) / scale, SPECTRUM_DRIFT),
    ]
    _cli("step", "--in", path["j.json"], "--f", "pow:2", "--out", path["step.json"])
    stepped = ms.fileio.read_matrix(path["step.json"])
    walked = ms.qr_step(ms.qr_step(j))
    checks.append(Check("x^2 step vs two QR steps", maxabs(stepped - walked) / scale,
                        POWER_STEP_VS_QR))
    _cli("iterate", "--in", path["j.json"], "--steps", str(CHART_ITERATIONS),
         "--traj", path["traj.csv"], "--report", path["report.json"])
    report = ms.fileio.read_report(path["report.json"])
    traj = ms.fileio.read_trajectory_csv(path["traj.csv"])
    checks.append(Check("iterate spectrum vs prescribed",
                        maxabs(np.asarray(report["spectrum"]) - lam) / scale, SPECTRUM_DRIFT))
    checks.append(agree("trajectory holds every iterate", len(traj) == CHART_ITERATIONS + 1))
    return checks


def chart_cli(rng, kinds, workdir) -> list:
    tasks = []
    for n in kinds:
        lam = ms.descending_spectrum(n, rng, lo=1.0, hi=1.0 + 0.5 * n, min_gap=0.05)
        seed = int(rng.integers(2**31))
        tasks.append(Task(f"n{n}", partial(_chart_task, lam, seed, workdir)))
    return tasks


@dataclass(frozen=True)
class Workload:
    make: Callable       # (rng, kind parameters of each task, workdir) -> tasks
    mix: list            # (tasks per block, kind parameters)
    blocks: int          # blocks in the list: more than one timed run gets through
    traced_blocks: int   # blocks in the traced pass

    @property
    def block_size(self) -> int:
        return sum(count for count, _ in self.mix)


WORKLOADS = {
    "flow-spectral": Workload(flow_spectral, SPECTRAL_MIX, blocks=16, traced_blocks=4),
    "flow-plain": Workload(flow_plain, PLAIN_MIX, blocks=40, traced_blocks=10),
    "polytope": Workload(polytope, POLYTOPE_MIX, blocks=50, traced_blocks=8),
    "chart-cli": Workload(chart_cli, CHART_MIX, blocks=20, traced_blocks=4),
}


def build(name: str, seed: int, workdir: str) -> list:
    """The workload's task list for ``seed``; the same seed gives the same list."""
    spec = WORKLOADS[name]
    rng = ms.default_rng([seed, sorted(WORKLOADS).index(name)])
    kinds = []
    for _ in range(spec.blocks):
        block = [params for count, params in spec.mix for _ in range(count)]
        kinds.extend(block[i] for i in rng.permutation(len(block)))
    return spec.make(rng, kinds, workdir)
