import csv
import io
import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from matslice import (
    DimensionMismatch,
    InvalidFormat,
    MoserCoordinates,
    ParticleTrajectory,
    Trajectory,
    TodaState,
    accessible_vertices,
    convergence_diagnostics,
    hamiltonian,
    iterate_qr,
    particle_flow,
    random_jacobi,
    random_symmetric,
)
from matslice.fileio import (
    read_matrix,
    read_moser,
    read_particle_csv,
    read_point,
    read_report,
    read_toda_state,
    read_trajectory_csv,
    read_vertex_set,
    write_convergence_report,
    write_matrix,
    write_moser,
    write_particle_csv,
    write_point,
    write_projection_csv,
    write_report,
    write_toda_state,
    write_trajectory_csv,
    write_vertex_set,
)


def roundtrip(write, read, value):
    buf = io.StringIO()
    write(value, buf)
    buf.seek(0)
    return read(buf), buf.getvalue()


# ----------------------------------------------------------------- matrices

def test_matrix_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(801)
    m = random_symmetric(5, rng)
    path = tmp_path / "m.json"
    write_matrix(m, path)
    back = read_matrix(path)
    assert np.array_equal(back, m)


def test_dash_is_standard_input_and_output(tmp_path, monkeypatch, capsys):
    # only the command line mapped "-"; from Python it made a file named "-"
    monkeypatch.chdir(tmp_path)
    m = random_symmetric(3, np.random.default_rng(805))
    write_matrix(m, "-")
    text = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert np.array_equal(read_matrix("-"), m)
    assert not (tmp_path / "-").exists()


def test_matrix_write_is_deterministic():
    rng = np.random.default_rng(809)
    m = random_symmetric(4, rng)
    _, text1 = roundtrip(write_matrix, read_matrix, m)
    _, text2 = roundtrip(write_matrix, read_matrix, m)
    assert text1 == text2
    assert text1.endswith("\n")


def test_matrix_rejects_malformed_documents():
    cases = [
        "not json at all",
        "[1, 2, 3]",
        '{"n": 2}',
        '{"data": [1, 2, 3, 4]}',
        '{"n": -2, "data": []}',
        '{"n": true, "data": [1]}',
        '{"n": 2, "data": [1, 2, 3]}',
        '{"n": 2, "data": [1, 2, 3, true]}',
        '{"n": 2, "data": [1, 2, 3, "x"]}',
        '{"n": 2, "data": [1, 2, 3, NaN]}',
        '{"n": 2, "data": [1, 2, 3, Infinity]}',
    ]
    for text in cases:
        with pytest.raises(InvalidFormat):
            read_matrix(io.StringIO(text))


@pytest.mark.parametrize("bad", ["true", '"1"', "null", "[1]"],
                         ids=["bool", "string", "null", "nested"])
def test_number_arrays_refuse_every_other_json_value(bad):
    with pytest.raises(InvalidFormat):
        read_matrix(io.StringIO(f'{{"n": 2, "data": [1, 2.5, 3, {bad}]}}'))
    with pytest.raises(InvalidFormat):
        read_moser(io.StringIO(f'{{"lambda": [3, 1], "w": [0.6, {bad}]}}'))


def test_matrix_ignores_extra_keys():
    doc = {"n": 2, "data": [1.0, 2.0, 2.0, 1.0], "kind": "symmetric", "seed": 3}
    back = read_matrix(io.StringIO(json.dumps(doc)))
    npt.assert_array_equal(back, [[1.0, 2.0], [2.0, 1.0]])


# -------------------------------------------------------------- trajectories

def test_trajectory_csv_round_trip(tmp_path):
    rng = np.random.default_rng(811)
    traj = iterate_qr(random_jacobi(3, rng, spectrum=[4.0, 2.0, 1.0]), 5)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    back = read_trajectory_csv(path)
    assert np.array_equal(back.times, traj.times)
    for a, b in zip(back.states, traj.states):
        assert np.array_equal(a, b)  # %.17g holds every bit of a double
    header = path.read_text().splitlines()[0]
    assert header == "t,a11,a12,a13,a21,a22,a23,a31,a32,a33"


def test_trajectory_csv_rejections():
    with pytest.raises(InvalidFormat):
        read_trajectory_csv(io.StringIO("x,y\n1,2\n"))
    with pytest.raises(InvalidFormat):
        read_trajectory_csv(io.StringIO("t,a11,a12\n0,1,2\n"))  # not square
    with pytest.raises(InvalidFormat):
        read_trajectory_csv(io.StringIO("t,a11,a12,a21,a22\n0,1,2,3\n"))
    with pytest.raises(InvalidFormat):
        read_trajectory_csv(io.StringIO("t,a11,a12,a21,a22\n0,1,2,x,4\n"))
    with pytest.raises(InvalidFormat):
        read_trajectory_csv(io.StringIO("t,a11,a12,a21,a22\n"))


# Second sample times that break a strictly increasing, finite time grid.
BAD_TIMES = pytest.mark.parametrize("t1", ["nan", "inf", "-inf", "0", "-1"])


@BAD_TIMES
def test_trajectory_csv_rejects_bad_times(t1):
    text = f"t,a11,a12,a21,a22\n0,1,0,0,1\n{t1},1,0,0,1\n"
    with pytest.raises(InvalidFormat):
        read_trajectory_csv(io.StringIO(text))


# ----------------------------------------------------------------- particles

def test_particle_csv_round_trip():
    st = TodaState(x=np.array([0.4, 0.0, -0.4]), y=np.array([0.1, 0.0, -0.1]))
    traj = particle_flow(st, 0.05, 0.01)
    back, text = roundtrip(write_particle_csv, read_particle_csv, traj)
    assert np.array_equal(back.times, traj.times)
    for a, b in zip(back.states, traj.states):
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
    lines = text.splitlines()
    assert lines[0] == "t,x1,x2,x3,y1,y2,y3,H"
    # the recorded energy column matches the state on the same row
    first = lines[1].split(",")
    assert abs(float(first[-1]) - hamiltonian(st)) < 1e-15


def test_particle_csv_rejections():
    with pytest.raises(InvalidFormat):
        read_particle_csv(io.StringIO("t,x1,y1\n"))  # width not even
    with pytest.raises(InvalidFormat):
        read_particle_csv(io.StringIO("a,b,c,d,e,f\n"))
    with pytest.raises(InvalidFormat):
        read_particle_csv(io.StringIO("t,x1,x2,y1,y2,H\n0,1,2,3,4\n"))


@BAD_TIMES
def test_particle_csv_rejects_bad_times(t1):
    text = f"t,x1,x2,y1,y2,H\n0,0,0,0,0,1\n{t1},0,0,0,0,1\n"
    with pytest.raises(InvalidFormat):
        read_particle_csv(io.StringIO(text))


def test_particle_csv_rejects_non_finite_state():
    with pytest.raises(InvalidFormat):
        read_particle_csv(io.StringIO("t,x1,x2,y1,y2,H\n0,nan,0,0,0,1\n"))


def test_toda_state_round_trip():
    st = TodaState(x=np.array([0.25, -0.25]), y=np.array([1.0, -1.0]))
    back, text = roundtrip(write_toda_state, read_toda_state, st)
    assert np.array_equal(back.x, st.x)
    assert np.array_equal(back.y, st.y)
    for bad in ['{"x": [1, 2]}', '{"x": [1, 2], "y": [3]}',
                '{"x": [1, "a"], "y": [3, 4]}', '{"x": 5, "y": [1, 2]}']:
        with pytest.raises(InvalidFormat):
            read_toda_state(io.StringIO(bad))


# ------------------------------------------------------------- moser / point

def test_moser_round_trip():
    mc = MoserCoordinates(lam=np.array([3.0, 1.0]), w=np.array([0.6, 0.8]))
    back, _ = roundtrip(write_moser, read_moser, mc)
    assert np.array_equal(back.lam, mc.lam)
    assert np.array_equal(back.w, mc.w)
    with pytest.raises(InvalidFormat):
        read_moser(io.StringIO('{"lambda": [3, 1]}'))
    with pytest.raises(InvalidFormat):
        read_moser(io.StringIO('{"lambda": [1, 3], "w": [0.6, 0.8]}'))  # ascending
    with pytest.raises(InvalidFormat):
        read_moser(io.StringIO('{"lambda": [3, 1], "w": [0.6, -0.8]}'))


def test_point_round_trip():
    p = np.array([1.5, -0.25, 3.0])
    back, _ = roundtrip(write_point, read_point, p)
    assert np.array_equal(back, p)
    with pytest.raises(InvalidFormat):
        read_point(io.StringIO('{"point": "xyz"}'))


# ---------------------------------------------------------------- vertex sets

def test_vertex_set_round_trip_with_one_based_labels():
    rng = np.random.default_rng(821)
    vs = accessible_vertices(random_jacobi(3, rng, spectrum=[4.0, 2.0, 1.0]))
    back, text = roundtrip(write_vertex_set, read_vertex_set, vs)
    assert back.perms == vs.perms
    assert np.array_equal(back.points, vs.points)
    assert np.array_equal(back.lam, vs.lam)
    assert back.affine_dim == vs.affine_dim
    doc = json.loads(text)
    flat = [v["pi"] for v in doc["vertices"]]
    assert all(sorted(p) == [1, 2, 3] for p in flat)  # 1-based on disk
    assert [0, 1, 2] not in flat


def test_near_threshold_round_trip():
    back, text = roundtrip(write_vertex_set, read_vertex_set, read_vertex_set(
        io.StringIO(vertex_doc(near_threshold=[[2, 1]]))))
    assert back.near_threshold == ((1, 0),)
    assert json.loads(text)["near_threshold"] == [[2, 1]]

def test_vertex_set_rejections():
    with pytest.raises(InvalidFormat):
        read_vertex_set(io.StringIO('{"lambda": [2, 1], "vertices": []}'))
    bad_perm = {"lambda": [2.0, 1.0], "affine_dim": 1,
                "vertices": [{"pi": [0, 1], "point": [2.0, 1.0]}]}
    with pytest.raises(InvalidFormat):
        read_vertex_set(io.StringIO(json.dumps(bad_perm)))


def vertex_doc(**changes) -> str:
    doc = {"lambda": [2.0, 1.0], "affine_dim": 1,
           "vertices": [{"pi": [1, 2], "point": [2.0, 1.0]},
                        {"pi": [2, 1], "point": [1.0, 2.0]}]}
    return json.dumps({**doc, **changes})


# Each document is malformed in one way; the reader must say so with
# InvalidFormat, not with another exception or by accepting it.
MALFORMED = {
    "vertices not an array": (read_vertex_set, vertex_doc(vertices=5)),
    "lambda not an array": (read_vertex_set, vertex_doc(**{"lambda": 3})),
    "vertex point too short": (read_vertex_set,
                               vertex_doc(vertices=[{"pi": [1, 2], "point": [2.0]}])),
    "affine_dim a string": (read_vertex_set, vertex_doc(affine_dim="x")),
    "affine_dim fractional": (read_vertex_set, vertex_doc(affine_dim=1.7)),
    "near_threshold of strings": (read_vertex_set, vertex_doc(near_threshold=[["a"]])),
    "near_threshold not a permutation": (read_vertex_set, vertex_doc(near_threshold=[[7, 7]])),
    "pi repeats an index": (read_vertex_set,
                            vertex_doc(vertices=[{"pi": [1, 1], "point": [2.0, 1.0]}])),
    "vertex without pi": (read_vertex_set, vertex_doc(vertices=[{"point": [2.0, 1.0]}])),
    "pi of booleans": (read_vertex_set,
                       vertex_doc(vertices=[{"pi": [True, 2], "point": [2.0, 1.0]}])),
    "matrix entry beyond double range": (read_matrix,
                                         '{"n": 1, "data": [1' + "0" * 400 + "]}"),
    # a JSON number past the double range parses to inf: only the finiteness check refuses it
    "matrix entry 1e999": (read_matrix, '{"n": 2, "data": [1e999, 0, 0, 1]}'),
    "point entry -1e999": (read_point, '{"point": [1.0, -1e999]}'),
    "trajectory state NaN": (read_trajectory_csv, "t,a11,a12,a21,a22\n0,1,nan,0,1\n"),
}


@pytest.mark.parametrize("reader, text", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_documents_raise_invalid_format(reader, text):
    assert len(read_vertex_set(io.StringIO(vertex_doc())).perms) == 2  # unmodified: valid
    with pytest.raises(InvalidFormat):
        reader(io.StringIO(text))


def test_projection_csv_labels():
    rng = np.random.default_rng(823)
    vs = accessible_vertices(random_jacobi(3, rng, spectrum=[4.0, 2.0, 1.0]))
    buf = io.StringIO()
    write_projection_csv(vs, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "pi,y1,y2"
    assert len(lines) == 1 + 6
    labels = {line.split(",")[0] for line in lines[1:]}
    assert "1-2-3" in labels and "3-2-1" in labels


# Strictly increasing, as sample times must be, with every %.17g corner case.
EDGE_VALUES = [-1.7976931348623157e308, -0.0, 5e-324, 1 / 3, 1.7976931348623157e308]


def per_cell_csv(header, rows) -> str:
    """The reference CSV: each cell formatted as an np.float64 scalar."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{np.float64(v):.17g}" for v in row])
    return buf.getvalue()


def test_csv_writers_match_the_per_cell_reference_bytewise():
    traj = Trajectory(times=EDGE_VALUES,
                      states=[np.array([[v, 1 / 3], [-0.0, -v]]) for v in EDGE_VALUES])
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    rows = [[t, *s.ravel()] for t, s in zip(traj.times, traj.states)]
    assert buf.getvalue() == per_cell_csv("t a11 a12 a21 a22".split(), rows)
    for cell in ("-1.7976931348623157e+308", "-0", "4.9406564584124654e-324",
                 "0.33333333333333331"):
        assert f",{cell}," in buf.getvalue()

    states = [TodaState(x=np.array([-0.0, 5e-324, 1 / 3]), y=np.array([1 / 3, v, -0.0]))
              for v in (-0.0, 5e-324, 1 / 3, 0.25, -2.0)]
    ptraj = ParticleTrajectory(times=EDGE_VALUES, states=states)
    buf = io.StringIO()
    write_particle_csv(ptraj, buf)
    rows = [[t, *s.x, *s.y, hamiltonian(s)] for t, s in zip(ptraj.times, ptraj.states)]
    assert buf.getvalue() == per_cell_csv("t x1 x2 x3 y1 y2 y3 H".split(), rows)


# Both ends of the double range, the subnormal and normal edges, both zeros
# and two values with no short decimal form.
RANGE_EDGES = [5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
               0.0, -0.0, 0.1, 1 / 3, 1.7976931348623157e308, -1.7976931348623157e308]


def test_point_round_trip_is_bitwise_at_the_edges_of_the_double_range():
    # tobytes, not array_equal: array_equal counts -0.0 and 0.0 as equal
    p = np.array(RANGE_EDGES)
    back, text = roundtrip(write_point, read_point, p)
    assert back.tobytes() == p.tobytes()
    assert text == ('{"point": [5e-324, -5e-324, 2.2250738585072014e-308, '
                    '-2.2250738585072014e-308, 0.0, -0.0, 0.1, 0.3333333333333333, '
                    '1.7976931348623157e+308, -1.7976931348623157e+308]}\n')


def test_trajectory_csv_round_trip_is_bitwise_at_the_edges_of_the_double_range():
    # strictly increasing, as sample times must be: -0.0 is the one zero
    times = sorted(v for v in RANGE_EDGES if math.copysign(1.0, v) < 0.0 or v != 0.0)
    cycle = RANGE_EDGES * 2
    states = [np.reshape(cycle[k:k + 4], (2, 2)) for k in range(len(times))]
    back, _ = roundtrip(write_trajectory_csv, read_trajectory_csv,
                        Trajectory(times=times, states=states))
    assert back.times.tobytes() == np.array(times).tobytes()
    assert np.array(back.states).tobytes() == np.array(states).tobytes()


# --------------------------------------------------------------- JSON layout

def test_a_json_document_is_one_compact_line():
    buf = io.StringIO()
    write_matrix([[1.0, 2.0], [2.0, -0.0]], buf)
    assert buf.getvalue() == '{"n": 2, "data": [1.0, 2.0, 2.0, -0.0]}\n'


def test_every_json_writer_writes_one_line():
    rng = np.random.default_rng(827)
    j = np.diag([1.0, 3.0, 2.0]) + np.diag([0.01, 0.01], 1) + np.diag([0.01, 0.01], -1)
    documents = {
        write_matrix: random_symmetric(4, rng),
        write_moser: MoserCoordinates(lam=np.array([3.0, 1.0]), w=np.array([0.6, 0.8])),
        write_point: np.array([1.5, -0.25, 3.0]),
        write_toda_state: TodaState(x=np.array([0.25, -0.25]), y=np.array([1.0, -1.0])),
        write_vertex_set: accessible_vertices(random_jacobi(3, rng, spectrum=[4.0, 2.0, 1.0])),
        write_report: {"converged": True, "steps": 12, "nested": {"order": [1, 2]}},
        write_convergence_report: convergence_diagnostics(iterate_qr(j, 60)),
    }
    for write, value in documents.items():
        buf = io.StringIO()
        write(value, buf)
        text = buf.getvalue()
        assert text.endswith("\n") and text.count("\n") == 1, write.__name__
        assert isinstance(json.loads(text), dict)


# ------------------------------------------------------------------- reports

def test_convergence_report_is_written_with_one_based_indices():
    j = np.diag([1.0, 3.0, 2.0]) + np.diag([0.01, 0.01], 1) + np.diag([0.01, 0.01], -1)
    rep = convergence_diagnostics(iterate_qr(j, 60))
    assert rep.broken_bonds == (0, 1)
    back, _ = roundtrip(write_convergence_report, read_report, rep)
    assert list(back) == ["converged", "steps", "final_offdiag", "diagonal_order",
                          "broken_bonds", "final_diagonal", "spectrum"]
    assert back["diagonal_order"] == [k + 1 for k in rep.diagonal_order]
    assert back["broken_bonds"] == [k + 1 for k in rep.broken_bonds]
    assert back["final_diagonal"] == rep.diagonals[-1].tolist()
    assert back["steps"] == 60


def test_report_round_trip():
    rep = {"converged": True, "steps": 12, "final_offdiag": 1e-9,
           "diagonal_order": [1, 2, 3], "broken_bonds": [1, 2]}
    back, text = roundtrip(write_report, read_report, rep)
    assert back == rep
    assert text.endswith("\n")


# ------------------------------------------------- writers match the readers

@pytest.mark.parametrize("bad, error", [
    ([[np.nan, 0.0], [0.0, 1.0]], ValueError),
    ([[np.inf, 0.0], [0.0, 1.0]], ValueError),
    ([1.0, 2.0, 3.0], DimensionMismatch),
    ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], DimensionMismatch),
], ids=["nan", "inf", "1-d", "2x3"])
def test_write_matrix_refuses_what_read_matrix_refuses(tmp_path, bad, error):
    path = tmp_path / "m.json"
    with pytest.raises(error):
        write_matrix(bad, path)
    assert not path.exists()


def test_json_writers_refuse_non_finite_numbers(tmp_path):
    path = tmp_path / "r.json"
    with pytest.raises(ValueError):
        write_report({"steps": 3, "final_offdiag": np.nan}, path)
    with pytest.raises(ValueError):
        write_point([1.0, np.inf], path)
    assert not path.exists()
