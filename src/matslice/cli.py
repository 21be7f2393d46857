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
import json
import sys
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
from .linalg import SpectralFunction, frobenius, qr_factor
from .polytope import accessible_vertices, bfr_map, permutohedron_vertices
from .slices import functional_step, iterate_qr
from .toda import (
    FlowConfig,
    convergence_diagnostics,
    flow_factorized,
    flow_factorized_trajectory,
    flow_integrated,
    particle_flow,
    time_grid,
)


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
        try:
            exponent = Fraction(t[4:])
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(
                f"bad exponent in {text!r}: {exc}") from exc
        if exponent.denominator == 1:
            return SpectralFunction.power(int(exponent))
        return SpectralFunction.power(exponent)
    if t.startswith("poly:"):
        try:
            coeffs = [float(c) for c in t[5:].split(",")]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"bad coefficients in {text!r}: {exc}") from exc
        try:
            return SpectralFunction.polynomial(coeffs)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    raise argparse.ArgumentTypeError(
        f"unknown function {text!r}; use identity, log, exp, pow:<k> or poly:c0,c1,...")


def parse_spectrum(text: str) -> np.ndarray:
    try:
        values = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad spectrum {text!r}: {exc}") from exc
    if len(values) < 2 or np.any(np.diff(values) >= 0.0):
        raise argparse.ArgumentTypeError(
            "spectrum must list at least two strictly descending values")
    return values


def positive_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not v > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return v


def nonnegative_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if v < 0.0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
    return v


def positive_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return v


def _src(path: str):
    return sys.stdin if path == "-" else path


def _dst(path: str):
    return sys.stdout if path == "-" else path


def _emit_error(kind: str, detail: str):
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)


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
        final = flow_factorized(s, args.g, args.t)
        if args.traj:
            fileio.write_trajectory_csv(
                flow_factorized_trajectory(s, args.g, time_grid(args.t, args.dt)),
                _dst(args.traj))
        fileio.write_matrix(final, _dst(args.out))
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
    picks = list(range(0, len(traj), stride))
    if picks[-1] != len(traj) - 1:
        picks.append(len(traj) - 1)
    deviation = 0.0
    for i in picks:
        exact = flow_factorized(s, args.g, float(traj.times[i]))
        deviation = max(deviation, frobenius(traj.states[i] - exact))
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
    vs = accessible_vertices(s)
    if args.full:
        vs = permutohedron_vertices(vs.lam)
    fileio.write_vertex_set(vs, _dst(args.out))
    if args.projection:
        fileio.write_projection_csv(vs, _dst(args.projection))
    return 0


def _cmd_random(args) -> int:
    rng = default_rng(args.seed)
    extras = {"kind": args.kind, "seed": args.seed}
    if args.kind == "spectrum":
        lam = descending_spectrum(args.n, rng)
        doc = {"lambda": [float(v) for v in lam], **extras}
    else:
        if args.kind == "jacobi":
            m = random_jacobi(args.n, rng, spectrum=args.spectrum)
        else:
            m = random_symmetric(args.n, rng)
        doc = {"n": int(m.shape[0]), "data": [float(v) for v in m.ravel()], **extras}
    fileio.write_report(doc, _dst(args.out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matslice",
        description="QR steps, isospectral flows and spectral polytopes "
                    "for symmetric matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="QR factorization with positive diagonal")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out-q", dest="out_q", required=True)
    p.add_argument("--out-r", dest="out_r", required=True)
    p.set_defaults(handler=_cmd_factor)

    p = sub.add_parser("step", help="one QR-type step, optionally through f(S)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--f", type=parse_function, default=SpectralFunction.identity(),
                   help="identity | log | exp | pow:<k> | poly:c0,c1,...")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_step)

    p = sub.add_parser("iterate", help="repeat QR-type steps and report convergence")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--steps", type=positive_int, required=True)
    p.add_argument("--f", type=parse_function, default=SpectralFunction.identity())
    p.add_argument("--traj", help="optional CSV of every iterate")
    p.add_argument("--report", default="-", help="diagnostics JSON (default stdout)")
    p.set_defaults(handler=_cmd_iterate)

    p = sub.add_parser("flow", help="isospectral flow driven by g")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--g", type=parse_function, default=SpectralFunction.identity())
    p.add_argument("--t", type=nonnegative_float, required=True)
    p.add_argument("--dt", type=positive_float, default=1e-3)
    p.add_argument("--method", choices=("factorized", "integrated", "both"),
                   default="factorized")
    p.add_argument("--out", default="-",
                   help="final matrix JSON; with --method both, "
                        "a comparison report instead")
    p.add_argument("--traj", help="optional CSV of samples along the flow")
    p.set_defaults(handler=_cmd_flow)

    p = sub.add_parser("toda-particles",
                       help="integrate the exponential-chain particle system")
    p.add_argument("--in", dest="infile", required=True,
                   help='JSON {"x": [...], "y": [...]}')
    p.add_argument("--t", type=nonnegative_float, required=True)
    p.add_argument("--dt", type=positive_float, default=1e-3)
    p.add_argument("--out", default="-")
    p.set_defaults(handler=_cmd_toda_particles)

    p = sub.add_parser("moser", help="spectrum and first-component weights "
                                     "of a Jacobi matrix")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(handler=_cmd_moser)

    p = sub.add_parser("moser-inverse",
                       help="rebuild the Jacobi matrix from spectrum and weights")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(handler=_cmd_moser_inverse)

    p = sub.add_parser("bfr", help="weighted-eigenvalue image of a symmetric matrix")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(handler=_cmd_bfr)

    p = sub.add_parser("polytope",
                       help="accessible vertices of the spectral polytope")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--full", action="store_true",
                   help="emit every permutation vertex instead")
    p.add_argument("--projection",
                   help="optional CSV of vertex coordinates in the "
                        "sum-zero hyperplane")
    p.set_defaults(handler=_cmd_polytope)

    p = sub.add_parser("random", help="seeded random instances")
    p.add_argument("--kind", choices=("symmetric", "jacobi", "spectrum"),
                   default="symmetric")
    p.add_argument("--n", type=positive_int, default=4)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--spectrum", type=parse_spectrum, default=None,
                   help="comma-separated descending values (jacobi kind only)")
    p.add_argument("--out", default="-")
    p.set_defaults(handler=_cmd_random)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except MatSliceError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 1
    except OSError as exc:
        _emit_error("IOError", str(exc))
        return 1
    except ValueError as exc:
        _emit_error("InvalidInput", str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
