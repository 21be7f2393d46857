"""Command-line front end.

One subcommand per workflow; matrices and structured results travel as JSON,
trajectories as CSV (see fileio).  Spectral functions are spelled as
``identity``, ``log``, ``exp``, ``pow:<k>`` (integer or fraction such as
``pow:1/3``) or ``poly:c0,c1,...`` (ascending coefficients).

Exit codes: 0 success, 1 a computation or I/O failure (a one-line JSON
diagnostic {"error": kind, "detail": text} goes to stderr), 2 bad usage.
Writable paths accept ``-`` for stdout; readable paths accept ``-`` for stdin.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from . import fileio
from .errors import MatSliceError
from .generate import (
    default_rng,
    descending_spectrum,
    random_jacobi,
    random_symmetric,
)
from .jacobi import moser_coordinates, moser_reconstruct
from .linalg import SpectralFunction, as_spectrum, frobenius, qr_factor, spectral_decompose
from .polytope import accessible_vertices, bfr_map, permutohedron_vertices
from .slices import functional_step, iterate_qr
from .toda import (
    FlowConfig,
    convergence_diagnostics,
    flow_factorized_trajectory,
    flow_integrated,
    particle_flow,
    time_grid,
)


@contextmanager
def _usage(what: str):
    """Report a value the block cannot parse as bad usage (exit code 2)."""
    try:
        yield
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"{what}: {exc}") from exc


def parse_function(text: str) -> SpectralFunction:
    """Parse the function mini-language; raises ArgumentTypeError on junk."""
    t = text.strip()
    if t == "identity":
        return SpectralFunction.identity()
    if t == "log":
        return SpectralFunction.log()
    if t == "exp":
        return SpectralFunction.exp()
    if t.startswith("pow:"):
        with _usage(f"bad exponent in {text!r}"):
            return SpectralFunction.power(Fraction(t[4:]))
    if t.startswith("poly:"):
        with _usage(f"bad coefficients in {text!r}"):
            return SpectralFunction.polynomial([float(c) for c in t[5:].split(",")])
    raise argparse.ArgumentTypeError(
        f"unknown function {text!r}; use identity, log, exp, pow:<k> or poly:c0,c1,...")


def parse_spectrum(text: str) -> np.ndarray:
    with _usage(f"bad spectrum {text!r}"):
        return as_spectrum([float(v) for v in text.split(",")])


def _number(kind, rule: str, ok):
    """argparse type: a ``kind`` number for which ``ok`` holds, described by ``rule``.

    NaN fails every bound, so it is refused as out of range.
    """
    noun = "an integer" if kind is int else "a number"

    def parse(text: str):
        with _usage(f"not {noun}"):
            v = kind(text)
        if not ok(v):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return v

    return parse


_POSITIVE = _number(float, "positive", lambda v: v > 0.0)
_NONNEGATIVE = _number(float, "nonnegative", lambda v: v >= 0.0)
_COUNT = _number(int, "at least 1", lambda v: v >= 1)
_DIMENSION = _number(int, "at least 2", lambda v: v >= 2)


def _src(path: str):
    return sys.stdin if path == "-" else path


def _dst(path: str):
    return sys.stdout if path == "-" else path


def _cmd_factor(args) -> int:
    m = fileio.read_matrix(_src(args.infile))
    q, r = qr_factor(m)
    fileio.write_matrix(q, _dst(args.out_q))
    fileio.write_matrix(r, _dst(args.out_r))
    return 0


def _cmd_step(args) -> int:
    s = fileio.read_matrix(_src(args.infile))
    fileio.write_matrix(functional_step(s, args.f), _dst(args.out))
    return 0


def _cmd_iterate(args) -> int:
    s = fileio.read_matrix(_src(args.infile))
    traj = iterate_qr(s, args.steps, args.f)
    if args.traj:
        fileio.write_trajectory_csv(traj, _dst(args.traj))
    report = convergence_diagnostics(traj).to_dict()
    fileio.write_report(report, _dst(args.report))
    return 0


def _cmd_flow(args) -> int:
    s = fileio.read_matrix(_src(args.infile))
    if args.method == "factorized":
        # one eigensolve; the grid ends on exactly t, so its last sample is --out
        times = time_grid(args.t, args.dt) if args.traj else [args.t]
        traj = flow_factorized_trajectory(s, args.g, times)
        if args.traj:
            fileio.write_trajectory_csv(traj, _dst(args.traj))
        fileio.write_matrix(traj.final, _dst(args.out))
        return 0
    config = FlowConfig(g=args.g, t_final=args.t, dt=args.dt)
    traj = flow_integrated(s, config)
    if args.traj:
        fileio.write_trajectory_csv(traj, _dst(args.traj))
    if args.method == "integrated":
        fileio.write_matrix(traj.final, _dst(args.out))
        return 0
    # both: cross-validate the integrator against the factorized solution
    stride = max(1, len(traj) // 50)
    picks = sorted({*range(0, len(traj), stride), len(traj) - 1})  # and always the last
    exact = flow_factorized_trajectory(s, args.g, traj.times[picks])
    deviation = max(frobenius(traj.states[i] - e) for i, e in zip(picks, exact.states))
    report = {
        "method": "both",
        "t": float(args.t),
        "dt": float(args.dt),
        "samples_compared": len(picks),
        "max_deviation": deviation,
        "matrix_norm": frobenius(s),
    }
    fileio.write_report(report, _dst(args.out))
    return 0


def _cmd_toda_particles(args) -> int:
    state = fileio.read_toda_state(_src(args.infile))
    traj = particle_flow(state, args.t, args.dt)
    fileio.write_particle_csv(traj, _dst(args.out))
    return 0


def _cmd_moser(args) -> int:
    j = fileio.read_matrix(_src(args.infile))
    fileio.write_moser(moser_coordinates(j), _dst(args.out))
    return 0


def _cmd_moser_inverse(args) -> int:
    coords = fileio.read_moser(_src(args.infile))
    fileio.write_matrix(moser_reconstruct(coords.lam, coords.w), _dst(args.out))
    return 0


def _cmd_bfr(args) -> int:
    s = fileio.read_matrix(_src(args.infile))
    fileio.write_point(bfr_map(s), _dst(args.out))
    return 0


def _cmd_polytope(args) -> int:
    s = fileio.read_matrix(_src(args.infile))
    vs = permutohedron_vertices(spectral_decompose(s).lam) if args.full else accessible_vertices(s)
    fileio.write_vertex_set(vs, _dst(args.out))
    if args.projection:
        fileio.write_projection_csv(vs, _dst(args.projection))
    return 0


def _cmd_random(args) -> int:
    rng = default_rng(args.seed)
    if args.kind == "spectrum":
        doc = {"lambda": [float(v) for v in descending_spectrum(args.n, rng)]}
    elif args.kind == "jacobi":
        doc = fileio.matrix_document(random_jacobi(args.n, rng, spectrum=args.spectrum))
    else:
        doc = fileio.matrix_document(random_symmetric(args.n, rng))
    fileio.write_report({**doc, "kind": args.kind, "seed": args.seed}, _dst(args.out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matslice",
        description="QR steps, isospectral flows and spectral polytopes "
                    "for symmetric matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, in_help=None):
        """A subcommand that reads the file named by --in and runs ``handler``."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--in", dest="infile", required=True, help=in_help)
        p.set_defaults(handler=handler)
        return p

    p = command("factor", _cmd_factor, "QR factorization with positive diagonal")
    p.add_argument("--out-q", dest="out_q", required=True)
    p.add_argument("--out-r", dest="out_r", required=True)

    p = command("step", _cmd_step, "one QR-type step, optionally through f(S)")
    p.add_argument("--f", type=parse_function, default=SpectralFunction.identity(),
                   help="identity | log | exp | pow:<k> | poly:c0,c1,...")
    p.add_argument("--out", required=True)

    p = command("iterate", _cmd_iterate, "repeat QR-type steps and report convergence")
    p.add_argument("--steps", type=_COUNT, required=True)
    p.add_argument("--f", type=parse_function, default=SpectralFunction.identity())
    p.add_argument("--traj", help="optional CSV of every iterate")
    p.add_argument("--report", default="-", help="diagnostics JSON (default stdout)")

    p = command("flow", _cmd_flow, "isospectral flow driven by g")
    p.add_argument("--g", type=parse_function, default=SpectralFunction.identity())
    p.add_argument("--t", type=_NONNEGATIVE, required=True)
    p.add_argument("--dt", type=_POSITIVE, default=1e-3)
    p.add_argument("--method", choices=("factorized", "integrated", "both"),
                   default="factorized")
    p.add_argument("--out", default="-",
                   help="final matrix JSON; with --method both, "
                        "a comparison report instead")
    p.add_argument("--traj", help="optional CSV of samples along the flow")

    p = command("toda-particles", _cmd_toda_particles,
                "integrate the exponential-chain particle system",
                in_help='JSON {"x": [...], "y": [...]}')
    p.add_argument("--t", type=_NONNEGATIVE, required=True)
    p.add_argument("--dt", type=_POSITIVE, default=1e-3)
    p.add_argument("--out", default="-")

    p = command("moser", _cmd_moser,
                "spectrum and first-component weights of a Jacobi matrix")
    p.add_argument("--out", default="-")

    p = command("moser-inverse", _cmd_moser_inverse,
                "rebuild the Jacobi matrix from spectrum and weights")
    p.add_argument("--out", default="-")

    p = command("bfr", _cmd_bfr, "weighted-eigenvalue image of a symmetric matrix")
    p.add_argument("--out", default="-")

    p = command("polytope", _cmd_polytope, "accessible vertices of the spectral polytope")
    p.add_argument("--out", default="-")
    p.add_argument("--full", action="store_true",
                   help="emit every permutation vertex instead (needs only a simple spectrum)")
    p.add_argument("--projection",
                   help="optional CSV of vertex coordinates in the "
                        "sum-zero hyperplane")

    p = sub.add_parser("random", help="seeded random instances")
    p.add_argument("--kind", choices=("symmetric", "jacobi", "spectrum"),
                   default="symmetric")
    p.add_argument("--n", type=_DIMENSION, default=4)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--spectrum", type=parse_spectrum, default=None,
                   help="comma-separated descending values (jacobi kind only); "
                        "write a leading negative value as --spectrum=-1,-2,-3")
    p.add_argument("--out", default="-")
    p.set_defaults(handler=_cmd_random)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses, built on first use; each parse starts from
    a fresh namespace, so nothing carries over from one call to the next."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except MatSliceError as exc:
        kind, detail = type(exc).__name__, str(exc)
    except OSError as exc:
        kind, detail = "IOError", str(exc)
    except ValueError as exc:
        kind, detail = "InvalidInput", str(exc)
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
