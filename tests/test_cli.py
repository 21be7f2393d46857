import json
import warnings
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from matslice import cli
from matslice.cli import main, parse_function
from matslice.fileio import (
    read_matrix,
    read_moser,
    read_particle_csv,
    read_point,
    read_report,
    read_trajectory_csv,
    read_vertex_set,
    write_matrix,
    write_toda_state,
)
from matslice import (
    SpectralFunction,
    TodaState,
    default_rng,
    frobenius,
    kernels,
    qr_step,
    random_jacobi,
    random_symmetric,
)


def run(*args):
    return main([str(a) for a in args])


@pytest.fixture
def jacobi_file(tmp_path):
    path = tmp_path / "j.json"
    assert run("random", "--kind", "jacobi", "--n", "4", "--seed", "7",
               "--spectrum", "6,4,3,2", "--out", path) == 0
    return path


# -------------------------------------------------------------- happy paths

def test_factor_reproduces_input(tmp_path, jacobi_file):
    qp, rp = tmp_path / "q.json", tmp_path / "r.json"
    assert run("factor", "--in", jacobi_file, "--out-q", qp, "--out-r", rp) == 0
    m = read_matrix(jacobi_file)
    q, r = read_matrix(qp), read_matrix(rp)
    npt.assert_allclose(q @ r, m, atol=1e-13 * frobenius(m))
    assert np.all(np.diag(r) > 0.0)


def test_step_identity_on_sorted_diagonal_is_fixed_point(tmp_path):
    src, dst = tmp_path / "d.json", tmp_path / "out.json"
    write_matrix(np.diag([4.0, 2.0, 1.0]), src)
    assert run("step", "--in", src, "--out", dst) == 0
    npt.assert_allclose(read_matrix(dst), np.diag([4.0, 2.0, 1.0]), atol=1e-14)


def test_step_matches_library_call(tmp_path, jacobi_file):
    dst = tmp_path / "out.json"
    assert run("step", "--in", jacobi_file, "--f", "identity", "--out", dst) == 0
    npt.assert_allclose(read_matrix(dst), qr_step(read_matrix(jacobi_file)),
                        atol=1e-13)


def test_iterate_writes_report_and_trajectory(tmp_path, jacobi_file):
    rep_p, traj_p = tmp_path / "rep.json", tmp_path / "traj.csv"
    assert run("iterate", "--in", jacobi_file, "--steps", "60",
               "--traj", traj_p, "--report", rep_p) == 0
    rep = read_report(rep_p)
    assert rep["converged"] is True
    assert rep["steps"] == 60
    assert rep["diagonal_order"] == [1, 2, 3, 4]
    traj = read_trajectory_csv(traj_p)
    assert len(traj) == 61


def test_flow_methods_agree(tmp_path, jacobi_file):
    out_f, out_i, cmp_p = (tmp_path / n for n in
                           ("f.json", "i.json", "cmp.json"))
    assert run("flow", "--in", jacobi_file, "--g", "identity", "--t", "1.5",
               "--method", "factorized", "--out", out_f) == 0
    assert run("flow", "--in", jacobi_file, "--g", "identity", "--t", "1.5",
               "--dt", "0.001", "--method", "integrated", "--out", out_i) == 0
    a, b = read_matrix(out_f), read_matrix(out_i)
    assert float(np.abs(a - b).max()) < 1e-6 * frobenius(a)
    assert run("flow", "--in", jacobi_file, "--g", "identity", "--t", "1.5",
               "--dt", "0.001", "--method", "both", "--out", cmp_p) == 0
    rep = read_report(cmp_p)
    assert rep["method"] == "both"
    assert rep["max_deviation"] < 1e-6 * rep["matrix_norm"]


def test_flow_trajectory_output(tmp_path, jacobi_file):
    traj_p = tmp_path / "flow.csv"
    assert run("flow", "--in", jacobi_file, "--g", "log", "--t", "1.0",
               "--dt", "0.25", "--method", "factorized",
               "--out", tmp_path / "x.json", "--traj", traj_p) == 0
    traj = read_trajectory_csv(traj_p)
    assert len(traj) == 5
    assert traj.times[0] == 0.0 and traj.times[-1] == 1.0


def test_integrated_flow_writes_its_trajectory(tmp_path, jacobi_file):
    out_p, traj_p = tmp_path / "i.json", tmp_path / "i.csv"
    assert run("flow", "--in", jacobi_file, "--t", "0.5", "--dt", "0.125",
               "--method", "integrated", "--out", out_p, "--traj", traj_p) == 0
    traj = read_trajectory_csv(traj_p)
    npt.assert_array_equal(traj.times, [0.0, 0.125, 0.25, 0.375, 0.5])
    assert np.array_equal(traj.final, read_matrix(out_p))


def test_factorized_trajectory_ends_on_the_output_matrix(tmp_path, jacobi_file):
    out_p, traj_p = tmp_path / "f.json", tmp_path / "f.csv"
    assert run("flow", "--in", jacobi_file, "--g", "log", "--t", "1.5",
               "--dt", "1e-3", "--out", out_p, "--traj", traj_p) == 0
    traj = read_trajectory_csv(traj_p)
    assert traj.times[-1] == 1.5
    assert np.array_equal(traj.final, read_matrix(out_p))


def test_flow_eigensolves_its_input_once(tmp_path, jacobi_file, monkeypatch):
    calls = []
    solve = kernels.jacobi_eigensystem
    monkeypatch.setattr(kernels, "jacobi_eigensystem", lambda s: calls.append(1) or solve(s))
    assert run("flow", "--in", jacobi_file, "--g", "log", "--t", "1.0", "--dt", "0.25",
               "--out", tmp_path / "f.json", "--traj", tmp_path / "f.csv") == 0
    assert len(calls) == 1
    calls.clear()
    assert run("flow", "--in", jacobi_file, "--t", "1.5", "--dt", "1e-3",
               "--method", "both", "--out", tmp_path / "cmp.json") == 0
    assert read_report(tmp_path / "cmp.json")["samples_compared"] == 51
    assert len(calls) == 1


def test_toda_particles_conserves_energy(tmp_path):
    src, dst = tmp_path / "st.json", tmp_path / "p.csv"
    write_toda_state(TodaState(x=np.array([0.5, 0.0, -0.5]),
                               y=np.array([0.2, 0.0, -0.2])), src)
    assert run("toda-particles", "--in", src, "--t", "2.0", "--dt", "0.01",
               "--out", dst) == 0
    rows = dst.read_text().splitlines()
    h = [float(line.rsplit(",", 1)[1]) for line in rows[1:]]
    assert max(h) - min(h) < 1e-8
    traj = read_particle_csv(dst)
    assert len(traj) == 201


def test_moser_round_trip_via_files(tmp_path, jacobi_file):
    mc_p, back_p = tmp_path / "mc.json", tmp_path / "back.json"
    assert run("moser", "--in", jacobi_file, "--out", mc_p) == 0
    mc = read_moser(mc_p)
    npt.assert_allclose(mc.lam, [6.0, 4.0, 3.0, 2.0], atol=1e-9)
    assert run("moser-inverse", "--in", mc_p, "--out", back_p) == 0
    npt.assert_allclose(read_matrix(back_p), read_matrix(jacobi_file), atol=1e-8)


def test_bfr_is_the_diagonal(tmp_path, jacobi_file):
    dst = tmp_path / "p.json"
    assert run("bfr", "--in", jacobi_file, "--out", dst) == 0
    m = read_matrix(jacobi_file)
    npt.assert_allclose(read_point(dst), np.diag(m), atol=1e-10)


def test_polytope_full_and_projection(tmp_path, jacobi_file):
    verts_p, proj_p = tmp_path / "v.json", tmp_path / "proj.csv"
    assert run("polytope", "--in", jacobi_file, "--out", verts_p,
               "--projection", proj_p) == 0
    vs = read_vertex_set(verts_p)
    assert len(vs.perms) == 24  # Jacobi input reaches every vertex
    assert vs.affine_dim == 3
    assert proj_p.read_text().splitlines()[0] == "pi,y1,y2,y3"
    full_p = tmp_path / "full.json"
    assert run("polytope", "--in", jacobi_file, "--out", full_p, "--full") == 0
    assert len(read_vertex_set(full_p).perms) == 24


def test_polytope_full_on_reducible_input(tmp_path):
    # --full needs only a simple spectrum; it used to exit 1 with NotIrreducible
    src, dst = tmp_path / "d.json", tmp_path / "full.json"
    write_matrix(np.diag([3.0, 2.0, 1.0]), src)
    assert run("polytope", "--in", src, "--out", dst, "--full") == 0
    vs = read_vertex_set(dst)
    assert len(vs.perms) == 6
    npt.assert_array_equal(vs.lam, [3.0, 2.0, 1.0])
    assert run("polytope", "--in", src, "--out", dst) == 1  # accessibility still refuses


def test_random_outputs_are_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        assert run("random", "--kind", "symmetric", "--n", "5",
                   "--seed", "11", "--out", p) == 0
    assert p1.read_bytes() == p2.read_bytes()
    doc = json.loads(p1.read_text())
    assert doc["kind"] == "symmetric" and doc["seed"] == 11


@pytest.mark.parametrize("kind, keys", [("symmetric", ["n", "data", "kind", "seed"]),
                                        ("jacobi", ["n", "data", "kind", "seed"]),
                                        ("spectrum", ["lambda", "kind", "seed"])])
def test_random_writes_its_keys_in_a_fixed_order(tmp_path, kind, keys):
    dst = tmp_path / "r.json"
    assert run("random", "--kind", kind, "--n", "4", "--seed", "3", "--out", dst) == 0
    assert list(json.loads(dst.read_text())) == keys


def test_random_spectrum_kind(tmp_path):
    dst = tmp_path / "sp.json"
    assert run("random", "--kind", "spectrum", "--n", "6", "--seed", "2",
               "--out", dst) == 0
    lam = json.loads(dst.read_text())["lambda"]
    assert len(lam) == 6
    assert all(a > b for a, b in zip(lam, lam[1:]))


def test_stdout_output(capsys):
    assert run("random", "--kind", "symmetric", "--n", "3", "--seed", "1",
               "--out", "-") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 3


def test_main_reuses_one_parser_and_carries_nothing_between_calls(jacobi_file, capsys):
    sessions = [("step", "--in", jacobi_file, "--f", "pow:2", "--out", "-"),
                ("step", "--in", jacobi_file, "--out", "-"),  # default --f
                ("random", "--n", "3", "--seed", "5"),
                ("random", "--n", "3")]                       # default --seed

    def output(argv):
        assert run(*argv) == 0
        return json.loads(capsys.readouterr().out)

    parser = cli._parser()
    reused = [output(argv) for argv in sessions]
    assert cli._parser() is parser
    fresh = []
    for argv in sessions:
        cli._parser.cache_clear()  # a parser of its own for each call
        fresh.append(output(argv))
    assert reused[:3] == fresh[:3]
    unseeded = [{k: doc[k] for k in ("n", "kind", "seed")} for doc in (reused[3], fresh[3])]
    assert unseeded[0] == unseeded[1] == {"n": 3, "kind": "symmetric", "seed": None}
    assert reused[0] != reused[1]  # pow:2 did not stick as the default
    assert run("step", "--in", jacobi_file, "--f", "sinh", "--out", "-") == 2
    capsys.readouterr()
    assert run(*sessions[2]) == 0
    assert json.loads(capsys.readouterr().out) == reused[2]


# -------------------------------------------------------------- error paths

def test_missing_input_file_exits_one(tmp_path, capsys):
    assert run("bfr", "--in", tmp_path / "nope.json", "--out", "-") == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IOError"


def test_malformed_matrix_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "data": [1, 2, 3]}')
    assert run("bfr", "--in", bad, "--out", "-") == 1
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidFormat"


def test_domain_error_exits_one(tmp_path, capsys):
    src = tmp_path / "neg.json"
    write_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]), src)
    assert run("step", "--in", src, "--f", "log", "--out", "-") == 1
    assert json.loads(capsys.readouterr().err)["error"] == "DomainViolation"


def test_not_jacobi_exits_one(tmp_path, capsys):
    src = tmp_path / "full.json"
    write_matrix(np.ones((3, 3)) + np.diag([1.0, 2.0, 3.0]), src)
    assert run("moser", "--in", src, "--out", "-") == 1
    assert json.loads(capsys.readouterr().err)["error"] == "NotJacobi"


def test_step_beyond_the_spread_limit_exits_one_naming_it(tmp_path, capsys):
    # x^260 on the spectrum (17, 9, 4, 1) spreads its log-weights over 736.6
    src, dst = tmp_path / "j.json", tmp_path / "out.json"
    assert run("random", "--kind", "jacobi", "--n", "4", "--seed", "7",
               "--spectrum", "17,9,4,1", "--out", src) == 0
    capsys.readouterr()
    assert run("step", "--in", src, "--f", "pow:260", "--out", dst) == 1
    [line] = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "SingularMatrix" and "spread 736.6" in err["detail"]
    assert not dst.exists()


@pytest.mark.parametrize("method", ["integrated", "both"])
def test_diverging_flow_exits_one(tmp_path, capsys, method):
    src = tmp_path / "s.json"
    write_matrix(np.array([[3.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, -2.0]]), src)
    with np.errstate(over="ignore", invalid="ignore"):
        assert run("flow", "--in", src, "--g", "identity", "--t", "20", "--dt", "1",
                   "--method", method, "--out", tmp_path / "out.json") == 1
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidInput"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("g, t, dt", [("exp", 1, 0.05), ("pow:3", 1, 0.05),
                                       ("identity", 400, 2)])
def test_diverging_integrated_flow_prints_one_json_line(tmp_path, capsys, g, t, dt):
    # the overflows before the refusal used to print RuntimeWarnings first
    src = tmp_path / "j.json"
    write_matrix(random_jacobi(4, default_rng(5), spectrum=[7.0, 5.0, 3.0, 1.0]), src)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run("flow", "--in", src, "--g", g, "--t", t, "--dt", dt,
                   "--method", "integrated", "--out", tmp_path / "out.json") == 1
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "InvalidInput",
                                "detail": "integrated state is no longer finite; reduce dt"}


TOP = np.array([[1.2e308, 5e307, 0.0], [5e307, 9e307, 4e307], [0.0, 4e307, 6e307]])


def test_subcommands_answer_at_the_top_of_the_double_range(tmp_path, capsys):
    # ||S|| = 1.85e308 is past the double range, 1e-12 * ||S|| is not: every
    # threshold formed ||S|| first and printed an OverflowError traceback
    src = tmp_path / "top.json"
    write_matrix(TOP, src)
    out = [str(tmp_path / name) for name in ("a.json", "b.json")]
    for argv in [("step", "--out", out[0]), ("factor", "--out-q", out[0], "--out-r", out[1]),
                 ("bfr", "--out", out[0]), ("moser", "--out", out[0]),
                 ("polytope", "--out", out[0]), ("iterate", "--steps", "3", "--report", out[0])]:
        assert run(argv[0], "--in", src, *argv[1:]) == 0, argv[0]
    assert capsys.readouterr().err == ""


BEYOND = np.array([[1.0, 1.5e308], [1.5e308, -1.0]])  # valid entries, off-diagonal norm 2.1e308


@pytest.mark.parametrize("argv, error, detail", [
    (("iterate", "--steps", "2"), "OverflowError",
     "off-diagonal norm of sample 0: 1 * ||m||_F = 1.18002 * 2^1024, past the double range"),
    (("flow", "--t", "1e-300", "--dt", "1e-300", "--method", "both"), "DomainViolation",
     "the vector field overflows double precision at the start state; no step size helps"),
], ids=["iterate", "flow"])
def test_failures_past_the_double_range_name_their_cause(tmp_path, capsys, argv, error, detail):
    # these said "math range error" and "integrated state is no longer
    # finite; reduce dt"
    src = tmp_path / "m.json"
    write_matrix(BEYOND, src)
    assert run(argv[0], "--in", src, *argv[1:]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": error, "detail": detail}


@pytest.mark.parametrize("n", range(11, 24))
def test_random_spectrum_past_its_draws_exits_one(tmp_path, capsys, n):
    # 1000 rejection draws of 11 or more gaps >= 0.25 in [-3, 3] all fail at
    # seed 1; that was a RuntimeError traceback
    out = tmp_path / "sp.json"
    assert run("random", "--kind", "spectrum", "--n", n, "--seed", "1", "--out", out) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "InvalidInput"
    assert not out.exists()


@pytest.mark.parametrize("argv", [("flow", "--method", "integrated"), ("toda-particles",)],
                         ids=["flow", "toda-particles"])
def test_span_of_infinitely_many_steps_exits_one(tmp_path, capsys, argv):
    # t / dt = 1e608 is inf: time_grid's floor(inf) was an OverflowError traceback
    src = tmp_path / "in.json"
    if argv[0] == "flow":
        write_matrix(np.diag([2.0, 1.0]), src)
    else:
        write_toda_state(TodaState(x=np.zeros(2), y=np.zeros(2)), src)
    assert run(*argv, "--in", src, "--t", "1e308", "--dt", "1e-300",
               "--out", tmp_path / "out") == 1
    [line] = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "InvalidInput" and "not finite" in err["detail"]


def test_eigensolver_pass_cap_exits_one(tmp_path, capsys, monkeypatch):
    # an ArithmeticError was a traceback; it is a computation failure, exit 1
    src = tmp_path / "s.json"
    write_matrix(random_symmetric(6, default_rng(3)), src)
    monkeypatch.setattr(kernels, "_MAX_SWEEPS", 1)
    assert run("step", "--in", src, "--f", "pow:2", "--out", tmp_path / "out.json") == 1
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "ArithmeticError",
                                "detail": "Jacobi eigensolver failed to converge"}
    assert not (tmp_path / "out.json").exists()


def test_bad_function_string_exits_two(tmp_path, jacobi_file, capsys):
    assert run("step", "--in", jacobi_file, "--f", "sinh", "--out", "-") == 2
    assert run("step", "--in", jacobi_file, "--f", "pow:x", "--out", "-") == 2
    assert run("flow", "--in", jacobi_file, "--g", "poly:", "--t", "1") == 2
    capsys.readouterr()


def test_non_finite_coefficients_are_bad_usage(tmp_path, jacobi_file, capsys):
    # these exited 1 with a misleading "reduce dt" or SingularMatrix message
    out = tmp_path / "out.json"
    assert run("flow", "--in", jacobi_file, "--g", "poly:nan,1", "--t", "1",
               "--method", "integrated", "--out", out) == 2
    assert run("step", "--in", jacobi_file, "--f", "poly:nan,1", "--out", out) == 2
    assert run("step", "--in", jacobi_file, "--f", "poly:1,inf", "--out", out) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spectrum", ["nan,1", "inf,1"])
def test_non_finite_spectrum_is_bad_usage(tmp_path, capsys, spectrum):
    # these exited 1 with an InvalidInput error from the chart
    out = tmp_path / "out.json"
    assert run("random", "--kind", "jacobi", "--n", "2", "--spectrum", spectrum,
               "--out", out) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_random_help_names_the_equals_form_for_negative_spectra(tmp_path, capsys, monkeypatch):
    # argparse reads a separate "-1,-2,-3" as an option, so that call exits 2
    monkeypatch.setenv("COLUMNS", "100")
    assert main(["random", "--help"]) == 0
    assert "--spectrum=-1,-2,-3" in capsys.readouterr().out
    out = tmp_path / "j.json"
    assert run("random", "--kind", "jacobi", "--n", "3", "--spectrum", "-1,-2,-3",
               "--out", out) == 2
    assert run("random", "--kind", "jacobi", "--n", "3", "--spectrum=-1,-2,-3",
               "--out", out) == 0
    npt.assert_allclose(np.linalg.eigvalsh(read_matrix(out)), [-3.0, -2.0, -1.0], atol=1e-14)


@pytest.mark.parametrize("kind", ["symmetric", "jacobi", "spectrum"])
def test_random_dimension_below_two_is_bad_usage(tmp_path, capsys, kind):
    # n = 1 used to write a 1 x 1 matrix that moser, step and bfr then refused
    out = tmp_path / "out.json"
    for n in ("1", "0"):
        assert run("random", "--kind", kind, "--n", n, "--out", out) == 2
    assert "at least 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [("--kind", "symmetric", "--spectrum", "3,2,1"),
                                  ("--kind", "spectrum", "--n", "3", "--spectrum", "3,2,1"),
                                  ("--kind", "jacobi", "--n", "4", "--spectrum", "3,2,1")],
                         ids=["symmetric", "spectrum", "jacobi n=4"])
def test_random_spectrum_it_cannot_use_is_bad_usage(tmp_path, capsys, monkeypatch, argv):
    # the first two exited 0 and ignored the spectrum, the last exited 1
    def no_draw(seed):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(cli, "default_rng", no_draw)
    out = tmp_path / "out.json"
    assert run("random", *argv, "--seed", "1", "--out", out) == 2
    assert "--spectrum" in capsys.readouterr().err
    assert not out.exists()


def test_parse_function_power_exponents():
    for text, exponent in [("2", 2), ("-3", -3), ("0", 0), ("1/3", Fraction(1, 3)),
                           ("4/2", 2)]:
        f = parse_function(f"pow:{text}")
        assert f == SpectralFunction.power(exponent)
        assert type(f.exponent) is Fraction


def test_bad_usage_exits_two(capsys):
    assert run("flow", "--t", "1.0") == 2       # missing --in
    assert run("no-such-command") == 2
    assert run("flow", "--in", "x.json", "--t", "-1.0") == 2
    capsys.readouterr()


# ------------------------------------------------------------ function parse

def test_parse_function_forms():
    assert parse_function("identity").kind == "identity"
    assert parse_function("log").kind == "log"
    assert parse_function("exp").kind == "exp"
    f = parse_function("pow:3")
    assert f(2.0) == 8.0
    g = parse_function("pow:1/2")
    assert g(9.0) == 3.0
    h = parse_function("poly:1,0,2")
    assert h(2.0) == 9.0
    with pytest.raises(Exception):
        parse_function("pow:1/0")
