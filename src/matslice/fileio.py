"""On-disk formats: JSON for matrices and structured results, CSV for paths.

Every reader and writer takes a path, an open file, or ``-`` for standard
input (readers) or standard output (writers), from the command line and from
Python alike.  All permutation and bond indices are 1-based in files (the
Python API is 0-based throughout), and only this module shifts them.  Floats
are written with repr precision (%.17g in CSV) so a read-back reproduces the
array bit for bit; writers emit keys in a fixed order so identical inputs give
byte-identical files.  Each JSON document is one line, compact, as the C
encoder of ``json`` writes it; ``python -m json.tool FILE`` shows it indented.

Every reader raises InvalidFormat for any malformed document: invalid JSON
or CSV, a missing key or column, a value of the wrong type, a non-finite
number, ragged rows, or content its result type refuses.  One JSON reader and
writer and one CSV reader and writer serve every format.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from .errors import DimensionMismatch, InvalidFormat
from .jacobi import MoserCoordinates
from .polytope import VertexSet, project_sum_zero
from .slices import Trajectory
from .toda import ConvergenceReport, ParticleTrajectory, TodaState, hamiltonian


@contextmanager
def _opened(path_or_file, mode: str):
    if path_or_file == "-":
        yield sys.stdout if "w" in mode else sys.stdin
    elif hasattr(path_or_file, "write") or hasattr(path_or_file, "read"):
        yield path_or_file
    else:
        with open(path_or_file, mode, newline="" if "b" not in mode else None) as fh:
            yield fh


def _reject_specials(token: str):
    raise InvalidFormat(f"non-finite value {token!r} in JSON input")


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise InvalidFormat(f"{what} must be finite")
    return values


def _numbers(value, what: str, size: int | None = None) -> np.ndarray:
    """A JSON array of numbers, of ``size`` entries if given, as a finite float array."""
    # JSON decoding gives exact types, so this refuses bool, str, None and lists
    if not isinstance(value, list) or not set(map(type, value)) <= {int, float}:
        raise InvalidFormat(f"{what} must be an array of numbers")
    if size is not None and len(value) != size:
        raise InvalidFormat(f"{what} must hold exactly {size} numbers")
    try:
        return _finite(np.array(value, dtype=float), what)
    except OverflowError as exc:
        raise InvalidFormat(f"{what} holds a number beyond double range") from exc


def _integer(value, what: str, lo: int, hi: float = math.inf) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not lo <= value <= hi:
        raise InvalidFormat(f"{what} must be an integer in [{lo}, {hi}]")
    return value


def _permutation(value, n: int, what: str) -> tuple[int, ...]:
    """A 1-based permutation of 1..n on disk, 0-based in memory."""
    if not isinstance(value, list) or sorted(
            _integer(k, what, 1, n) for k in value) != list(range(1, n + 1)):
        raise InvalidFormat(f"{what} must be a 1-based permutation of 1..{n}")
    return tuple(k - 1 for k in value)


def _build(cls, **fields):
    """``cls(**fields)``, reporting the content it refuses as InvalidFormat."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise InvalidFormat(str(exc)) from exc


def _write_json(doc: dict, path_or_file):
    """Encode first: a non-finite number, which the readers refuse, raises
    ValueError before anything reaches disk.  No ``indent``: it sends the
    document through json's pure-Python encoder, 1.7x slower at n = 32."""
    text = json.dumps(doc, allow_nan=False)
    with _opened(path_or_file, "w") as fh:
        fh.write(text + "\n")


def _read_json(path_or_file, what: str, keys=(), arrays=()) -> dict:
    """The document's top-level object, holding every key in ``keys`` and
    ``arrays``; the values under ``arrays`` come back as finite float arrays."""
    with _opened(path_or_file, "r") as fh:
        try:
            doc = json.load(fh, parse_constant=_reject_specials)
        except json.JSONDecodeError as exc:
            raise InvalidFormat(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidFormat("top-level JSON value must be an object")
    for key in (*keys, *arrays):
        if key not in doc:
            raise InvalidFormat(f'{what} JSON needs key "{key}"')
    for key in arrays:
        doc[key] = _numbers(doc[key], f'"{key}"')
    return doc


def _floats(values) -> list[float]:
    return np.asarray(values, dtype=float).ravel().tolist()


def _write_csv(path_or_file, header: list[str], table, labels=None):
    """The header, then each row at %.17g after its label if given, as csv.writer would."""
    rows = np.asarray(table, dtype=float).tolist()
    line = ",".join(["%.17g"] * (len(header) - (labels is not None))) + "\r\n"
    prefixes = [""] * len(rows) if labels is None else [f"{label}," for label in labels]
    with _opened(path_or_file, "w") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(prefix + line % tuple(row) for prefix, row in zip(prefixes, rows))


def _read_csv(path_or_file, what: str, header_ok) -> np.ndarray:
    """The data rows as a float array, under a header that ``header_ok`` accepts."""
    with _opened(path_or_file, "r") as fh:
        rows = list(csv.reader(fh))
    if not rows or not rows[0] or not header_ok(rows[0]):
        raise InvalidFormat(f"{what} CSV does not start with a valid header")
    width = len(rows[0])
    if len(rows) == 1:
        raise InvalidFormat(f"{what} CSV has no data rows")
    values = []
    for k, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise InvalidFormat(f"{what} CSV line {k} has {len(row)} fields, wanted {width}")
        try:
            values.append([float(v) for v in row])
        except ValueError as exc:
            raise InvalidFormat(f"{what} CSV line {k}: {exc}") from exc
    return np.array(values)


def matrix_document(s) -> dict:
    """{"n": n, "data": row-major entries}; refuses what ``read_matrix`` would."""
    a = np.asarray(s, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return {"n": int(a.shape[0]), "data": _floats(a)}


def write_matrix(s, path_or_file):
    _write_json(matrix_document(s), path_or_file)


def read_matrix(path_or_file) -> np.ndarray:
    doc = _read_json(path_or_file, "matrix", keys=("n", "data"))
    n = _integer(doc["n"], '"n"', 1)
    return _numbers(doc["data"], '"data"', n * n).reshape(n, n)


def write_trajectory_csv(traj: Trajectory, path_or_file):
    """One row per sample: t followed by the row-major matrix entries."""
    n = traj.n
    header = ["t"] + [f"a{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    table = np.column_stack([traj.times, np.reshape(traj.states, (len(traj), -1))])
    _write_csv(path_or_file, header, table)


def _is_matrix_header(header: list[str]) -> bool:
    n = math.isqrt(len(header) - 1)
    return header[0] == "t" and n >= 1 and n * n == len(header) - 1


def read_trajectory_csv(path_or_file) -> Trajectory:
    vals = _read_csv(path_or_file, "trajectory", _is_matrix_header)
    n = math.isqrt(vals.shape[1] - 1)
    return _build(Trajectory, times=vals[:, 0], states=list(vals[:, 1:].reshape(-1, n, n)))


def write_particle_csv(traj: ParticleTrajectory, path_or_file):
    """Rows t, x1..xn, y1..yn, H — energy recomputed per sample."""
    n = traj.n
    header = (["t"] + [f"x{i + 1}" for i in range(n)]
              + [f"y{i + 1}" for i in range(n)] + ["H"])
    table = [[t, *st.x, *st.y, hamiltonian(st)] for t, st in zip(traj.times, traj.states)]
    _write_csv(path_or_file, header, table)


def _is_particle_header(header: list[str]) -> bool:
    return header[0] == "t" and header[-1] == "H" and len(header) % 2 == 0 and len(header) >= 6


def read_particle_csv(path_or_file) -> ParticleTrajectory:
    vals = _read_csv(path_or_file, "particle", _is_particle_header)
    n = (vals.shape[1] - 2) // 2
    states = [_build(TodaState, x=row[1:1 + n], y=row[1 + n:1 + 2 * n]) for row in vals]
    return _build(ParticleTrajectory, times=vals[:, 0], states=states)


def write_toda_state(state: TodaState, path_or_file):
    _write_json({"x": _floats(state.x), "y": _floats(state.y)}, path_or_file)


def read_toda_state(path_or_file) -> TodaState:
    doc = _read_json(path_or_file, "particle", arrays=("x", "y"))
    return _build(TodaState, x=doc["x"], y=doc["y"])


def write_moser(coords: MoserCoordinates, path_or_file):
    _write_json({"lambda": _floats(coords.lam), "w": _floats(coords.w)}, path_or_file)


def read_moser(path_or_file) -> MoserCoordinates:
    doc = _read_json(path_or_file, "coordinate", arrays=("lambda", "w"))
    return _build(MoserCoordinates, lam=doc["lambda"], w=doc["w"])


def write_point(point, path_or_file):
    _write_json({"point": _floats(point)}, path_or_file)


def read_point(path_or_file) -> np.ndarray:
    return _read_json(path_or_file, "point", arrays=("point",))["point"]


def write_vertex_set(vs: VertexSet, path_or_file):
    """Vertices with 1-based permutation labels and the affine dimension."""
    doc = {
        "lambda": _floats(vs.lam),
        "vertices": [
            {"pi": [int(k) + 1 for k in perm], "point": _floats(pt)}
            for perm, pt in zip(vs.perms, vs.points)
        ],
        "affine_dim": int(vs.affine_dim),
    }
    if vs.near_threshold:
        doc["near_threshold"] = [[int(k) + 1 for k in perm] for perm in vs.near_threshold]
    _write_json(doc, path_or_file)


def read_vertex_set(path_or_file) -> VertexSet:
    doc = _read_json(path_or_file, "vertex", keys=("vertices", "affine_dim"),
                     arrays=("lambda",))
    n = len(doc["lambda"])
    records, near = doc["vertices"], doc.get("near_threshold", [])
    if not isinstance(records, list) or not isinstance(near, list):
        raise InvalidFormat('"vertices" and "near_threshold" must be arrays')
    perms, points = [], []
    for rec in records:
        if not isinstance(rec, dict) or "pi" not in rec or "point" not in rec:
            raise InvalidFormat('each vertex needs "pi" and "point"')
        perms.append(_permutation(rec["pi"], n, '"pi"'))
        points.append(_numbers(rec["point"], '"point"', n))
    return VertexSet(
        lam=doc["lambda"],
        points=np.array(points).reshape(len(points), n),
        perms=tuple(perms),
        affine_dim=_integer(doc["affine_dim"], '"affine_dim"', 0, n - 1),
        near_threshold=tuple(_permutation(p, n, '"near_threshold"') for p in near),
    )


def write_report(report: dict, path_or_file):
    _write_json(report, path_or_file)


def read_report(path_or_file) -> dict:
    return _read_json(path_or_file, "report")


def write_convergence_report(report: ConvergenceReport, path_or_file):
    """The summary of a report, its diagonal order and broken bonds 1-based."""
    _write_json({
        "converged": bool(report.converged),
        "steps": int(report.steps),
        "final_offdiag": float(report.final_offdiag),
        "diagonal_order": [int(k) + 1 for k in report.diagonal_order],
        "broken_bonds": [int(k) + 1 for k in report.broken_bonds],
        "final_diagonal": _floats(report.diagonals[-1]),
        "spectrum": _floats(report.spectrum),
    }, path_or_file)


def write_projection_csv(vs: VertexSet, path_or_file):
    """Vertex coordinates in the sum-zero hyperplane, one row per vertex.

    The permutation label joins 1-based indices with dashes ("1-3-2").
    """
    coords = project_sum_zero(vs.points)
    header = ["pi"] + [f"y{k + 1}" for k in range(coords.shape[1])]
    labels = ["-".join(str(k + 1) for k in perm) for perm in vs.perms]
    _write_csv(path_or_file, header, coords, labels)
