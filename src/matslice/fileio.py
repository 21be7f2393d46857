"""On-disk formats: JSON for matrices and structured results, CSV for paths.

All permutation and bond indices are 1-based in files (the Python API is
0-based throughout).  Floats are written with repr precision (%.17g in CSV)
so a read-back reproduces the array bit for bit; writers emit keys in a fixed
order so identical inputs give byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import contextmanager

import numpy as np

from .errors import InvalidFormat
from .jacobi import MoserCoordinates
from .polytope import VertexSet
from .slices import Trajectory
from .toda import ParticleTrajectory, TodaState, hamiltonian


@contextmanager
def _opened(path_or_file, mode: str):
    if hasattr(path_or_file, "write") or hasattr(path_or_file, "read"):
        yield path_or_file
    else:
        with open(path_or_file, mode, newline="" if "b" not in mode else None) as fh:
            yield fh


def _reject_specials(token: str):
    raise InvalidFormat(f"non-finite value {token!r} in JSON input")


def _load_json(fh) -> dict:
    try:
        doc = json.load(fh, parse_constant=_reject_specials)
    except json.JSONDecodeError as exc:
        raise InvalidFormat(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidFormat("top-level JSON value must be an object")
    return doc


def _dump_json(doc: dict, fh):
    json.dump(doc, fh, indent=2)
    fh.write("\n")


def _float_list(values, what: str) -> list[float]:
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise InvalidFormat(f"{what} must contain only numbers")
        out.append(float(v))
    if not all(np.isfinite(out)):
        raise InvalidFormat(f"{what} must be finite")
    return out


def write_matrix(s, path_or_file):
    """{"n": n, "data": row-major entries}."""
    a = np.asarray(s, dtype=float)
    doc = {"n": int(a.shape[0]), "data": [float(v) for v in a.ravel()]}
    with _opened(path_or_file, "w") as fh:
        _dump_json(doc, fh)


def read_matrix(path_or_file) -> np.ndarray:
    with _opened(path_or_file, "r") as fh:
        doc = _load_json(fh)
    if "n" not in doc or "data" not in doc:
        raise InvalidFormat('matrix JSON needs keys "n" and "data"')
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidFormat('"n" must be a positive integer')
    data = doc["data"]
    if not isinstance(data, list) or len(data) != n * n:
        raise InvalidFormat(f'"data" must hold exactly n*n = {n * n} numbers')
    return np.array(_float_list(data, '"data"')).reshape(n, n)


def _matrix_header(n: int) -> list[str]:
    return ["t"] + [f"a{i + 1}{j + 1}" for i in range(n) for j in range(n)]


def write_trajectory_csv(traj: Trajectory, path_or_file):
    """One row per sample: t followed by the row-major matrix entries."""
    n = traj.n
    with _opened(path_or_file, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(_matrix_header(n))
        for t, state in zip(traj.times, traj.states):
            writer.writerow([f"{t:.17g}"] + [f"{v:.17g}" for v in state.ravel()])


def read_trajectory_csv(path_or_file) -> Trajectory:
    with _opened(path_or_file, "r") as fh:
        rows = list(csv.reader(fh))
    if not rows or not rows[0] or rows[0][0] != "t":
        raise InvalidFormat("trajectory CSV must start with a 't,a11,...' header")
    width = len(rows[0]) - 1
    n = int(round(width ** 0.5))
    if n * n != width or n < 1:
        raise InvalidFormat("trajectory CSV header does not describe a square matrix")
    times, states = [], []
    for k, row in enumerate(rows[1:], start=2):
        if len(row) != width + 1:
            raise InvalidFormat(f"trajectory CSV line {k} has {len(row)} fields, wanted {width + 1}")
        try:
            vals = [float(v) for v in row]
        except ValueError as exc:
            raise InvalidFormat(f"trajectory CSV line {k}: {exc}") from exc
        times.append(vals[0])
        states.append(np.array(vals[1:]).reshape(n, n))
    if not times:
        raise InvalidFormat("trajectory CSV has no data rows")
    try:
        return Trajectory(times=np.array(times), states=states)
    except ValueError as exc:
        raise InvalidFormat(str(exc)) from exc


def write_particle_csv(traj: ParticleTrajectory, path_or_file):
    """Rows t, x1..xn, y1..yn, H — energy recomputed per sample."""
    n = traj.n
    header = (["t"] + [f"x{i + 1}" for i in range(n)]
              + [f"y{i + 1}" for i in range(n)] + ["H"])
    with _opened(path_or_file, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, st in zip(traj.times, traj.states):
            row = [f"{t:.17g}"]
            row += [f"{v:.17g}" for v in st.x]
            row += [f"{v:.17g}" for v in st.y]
            row.append(f"{hamiltonian(st):.17g}")
            writer.writerow(row)


def read_particle_csv(path_or_file) -> ParticleTrajectory:
    with _opened(path_or_file, "r") as fh:
        rows = list(csv.reader(fh))
    if not rows or not rows[0] or rows[0][0] != "t" or rows[0][-1] != "H":
        raise InvalidFormat("particle CSV must start with a 't,x1,...,y1,...,H' header")
    width = len(rows[0]) - 2
    if width % 2 or width < 4:
        raise InvalidFormat("particle CSV header does not describe x/y columns")
    n = width // 2
    samples = []
    for k, row in enumerate(rows[1:], start=2):
        if len(row) != width + 2:
            raise InvalidFormat(f"particle CSV line {k} has {len(row)} fields, wanted {width + 2}")
        try:
            samples.append([float(v) for v in row])
        except ValueError as exc:
            raise InvalidFormat(f"particle CSV line {k}: {exc}") from exc
    if not samples:
        raise InvalidFormat("particle CSV has no data rows")
    vals = np.array(samples)
    try:
        states = [TodaState(x=row[1:1 + n], y=row[1 + n:1 + 2 * n]) for row in vals]
        return ParticleTrajectory(times=vals[:, 0], states=states)
    except ValueError as exc:
        raise InvalidFormat(str(exc)) from exc


def write_toda_state(state: TodaState, path_or_file):
    doc = {"x": [float(v) for v in state.x], "y": [float(v) for v in state.y]}
    with _opened(path_or_file, "w") as fh:
        _dump_json(doc, fh)


def read_toda_state(path_or_file) -> TodaState:
    with _opened(path_or_file, "r") as fh:
        doc = _load_json(fh)
    if "x" not in doc or "y" not in doc:
        raise InvalidFormat('particle JSON needs keys "x" and "y"')
    if not isinstance(doc["x"], list) or not isinstance(doc["y"], list):
        raise InvalidFormat('"x" and "y" must be arrays')
    x = _float_list(doc["x"], '"x"')
    y = _float_list(doc["y"], '"y"')
    if len(x) != len(y):
        raise InvalidFormat('"x" and "y" must have the same length')
    try:
        return TodaState(x=np.array(x), y=np.array(y))
    except ValueError as exc:
        raise InvalidFormat(str(exc)) from exc


def write_moser(coords: MoserCoordinates, path_or_file):
    doc = {"lambda": [float(v) for v in coords.lam],
           "w": [float(v) for v in coords.w]}
    with _opened(path_or_file, "w") as fh:
        _dump_json(doc, fh)


def read_moser(path_or_file) -> MoserCoordinates:
    with _opened(path_or_file, "r") as fh:
        doc = _load_json(fh)
    if "lambda" not in doc or "w" not in doc:
        raise InvalidFormat('coordinate JSON needs keys "lambda" and "w"')
    if not isinstance(doc["lambda"], list) or not isinstance(doc["w"], list):
        raise InvalidFormat('"lambda" and "w" must be arrays')
    lam = _float_list(doc["lambda"], '"lambda"')
    w = _float_list(doc["w"], '"w"')
    try:
        return MoserCoordinates(lam=np.array(lam), w=np.array(w))
    except ValueError as exc:
        raise InvalidFormat(str(exc)) from exc


def write_point(point, path_or_file):
    doc = {"point": [float(v) for v in np.asarray(point, dtype=float)]}
    with _opened(path_or_file, "w") as fh:
        _dump_json(doc, fh)


def read_point(path_or_file) -> np.ndarray:
    with _opened(path_or_file, "r") as fh:
        doc = _load_json(fh)
    if "point" not in doc or not isinstance(doc["point"], list):
        raise InvalidFormat('point JSON needs an array under "point"')
    return np.array(_float_list(doc["point"], '"point"'))


def write_vertex_set(vs: VertexSet, path_or_file):
    """Vertices with 1-based permutation labels and the affine dimension."""
    doc = {
        "lambda": [float(v) for v in vs.lam],
        "vertices": [
            {"pi": [int(k) + 1 for k in perm], "point": [float(v) for v in pt]}
            for perm, pt in zip(vs.perms, vs.points)
        ],
        "affine_dim": int(vs.affine_dim),
    }
    if vs.near_threshold:
        doc["near_threshold"] = [[int(k) + 1 for k in perm] for perm in vs.near_threshold]
    with _opened(path_or_file, "w") as fh:
        _dump_json(doc, fh)


def read_vertex_set(path_or_file) -> VertexSet:
    with _opened(path_or_file, "r") as fh:
        doc = _load_json(fh)
    for key in ("lambda", "vertices", "affine_dim"):
        if key not in doc:
            raise InvalidFormat(f'vertex JSON needs key "{key}"')
    lam = np.array(_float_list(doc["lambda"], '"lambda"'))
    perms, points = [], []
    for rec in doc["vertices"]:
        if not isinstance(rec, dict) or "pi" not in rec or "point" not in rec:
            raise InvalidFormat('each vertex needs "pi" and "point"')
        perm = rec["pi"]
        if (not isinstance(perm, list)
                or sorted(perm) != list(range(1, len(lam) + 1))):
            raise InvalidFormat(f'"pi" must be a 1-based permutation of 1..{len(lam)}')
        perms.append(tuple(int(k) - 1 for k in perm))
        points.append(_float_list(rec["point"], '"point"'))
    near = tuple(
        tuple(int(k) - 1 for k in perm) for perm in doc.get("near_threshold", ())
    )
    return VertexSet(
        lam=lam,
        points=np.array(points) if points else np.zeros((0, len(lam))),
        perms=tuple(perms),
        affine_dim=int(doc["affine_dim"]),
        near_threshold=near,
    )


def write_report(report: dict, path_or_file):
    with _opened(path_or_file, "w") as fh:
        _dump_json(report, fh)


def read_report(path_or_file) -> dict:
    with _opened(path_or_file, "r") as fh:
        return _load_json(fh)


def write_projection_csv(vs: VertexSet, path_or_file):
    """Vertex coordinates in the sum-zero hyperplane, one row per vertex.

    The permutation label joins 1-based indices with dashes ("1-3-2").
    """
    from .polytope import project_sum_zero

    coords = project_sum_zero(vs.points)
    header = ["pi"] + [f"y{k + 1}" for k in range(coords.shape[1])]
    with _opened(path_or_file, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for perm, row in zip(vs.perms, coords):
            label = "-".join(str(k + 1) for k in perm)
            writer.writerow([label] + [f"{v:.17g}" for v in row])


def dumps_matrix(s) -> str:
    buf = io.StringIO()
    write_matrix(s, buf)
    return buf.getvalue()
