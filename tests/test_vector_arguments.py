"""Every public vector argument refuses non-finite entries and a wrong length.

Spectra, weights, particle states and time grids travel beside the matrices;
each public entry point checks them once, with one error for a NaN or an
infinity anywhere and one for a vector of the wrong length.  A spectrum that
must be simple has one rule, ``linalg.as_spectrum``, and one message.
"""

import contextlib
import importlib
import io
import math
import pkgutil
import re

import numpy as np
import pytest

import matslice
from matslice import (
    MoserCoordinates,
    TodaState,
    flow_factorized_trajectory,
    hull_member,
    inverse_flaschka,
    linalg,
    majorization_member,
    moser_coordinates,
    moser_reconstruct,
    permutohedron_vertices,
    random_jacobi,
    random_with_spectrum,
    slice_point,
    spectral_polytope,
)
from matslice.cli import main
from matslice.linalg import SpectralFunction

S3 = np.array([[3.0, 0.5, 0.0], [0.5, 2.0, 0.5], [0.0, 0.5, 1.0]])
LAM = [3.0, 2.0, 1.0]
POINT = [2.5, 2.0, 1.5]
W = [0.5, 0.5, 0.7]


def cli_spectrum(v):
    """``matslice random --kind jacobi --spectrum=v --n 3``; a refusal (exit 2
    for bad usage, a spectrum that is not of length 3 included, refused
    before any draw) is raised as a ValueError carrying what the command
    printed.  The spectrum goes first, so its parse error wins, and after
    "=", as argparse reads a separate value starting with "-" (say -inf) as
    an option."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["random", "--kind", "jacobi", "--spectrum=" + ",".join(map(str, v)),
                     "--n", "3", "--seed", "0", "--out", "-"])
    if code:
        raise ValueError(err.getvalue())


# each call takes the vector under test; ``good`` is a valid value for it
CALLS = {
    "TodaState x": (lambda v: TodaState(x=v, y=[0.1, 0.0, -0.1]), [1.0, 0.0, -1.0]),
    "TodaState y": (lambda v: TodaState(x=[1.0, 0.0, -1.0], y=v), [0.1, 0.0, -0.1]),
    "MoserCoordinates lam": (lambda v: MoserCoordinates(lam=v, w=W), LAM),
    "MoserCoordinates w": (lambda v: MoserCoordinates(lam=LAM, w=v), W),
    "moser_reconstruct lam": (lambda v: moser_reconstruct(v, W), LAM),
    "moser_reconstruct w": (lambda v: moser_reconstruct(LAM, v), W),
    "slice_point weights": (lambda v: slice_point(S3, v), W),
    "flow_factorized_trajectory times": (
        lambda v: flow_factorized_trajectory(S3, SpectralFunction.identity(), v),
        [0.0, 0.5, 1.0]),
    "spectral_polytope": (spectral_polytope, LAM),
    "permutohedron_vertices": (permutohedron_vertices, LAM),
    "CLI random --spectrum": (cli_spectrum, LAM),
    "majorization_member point": (lambda v: majorization_member(v, LAM), POINT),
    "majorization_member spectrum": (lambda v: majorization_member(POINT, v), LAM),
    "hull_member point": (lambda v: hull_member(v, LAM), POINT),
    "hull_member spectrum": (lambda v: hull_member(POINT, v), LAM),
    "random_with_spectrum": (lambda v: random_with_spectrum(v, np.random.default_rng(0)), LAM),
}


@pytest.mark.parametrize("name", CALLS)
def test_valid_vector_is_accepted(name):
    call, good = CALLS[name]
    call(good)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("at", [0, -1])
@pytest.mark.parametrize("name", CALLS)
def test_vector_refuses_non_finite_entry(name, at, bad):
    call, good = CALLS[name]
    v = list(good)
    v[at] = bad
    with pytest.raises(ValueError, match="finite"):
        call(v)


# the vectors whose length is set by another argument
PAIRED = [name for name in CALLS
          if name not in ("spectral_polytope", "permutohedron_vertices",
                          "flow_factorized_trajectory times", "random_with_spectrum")]


@pytest.mark.parametrize("name", CALLS)
def test_vector_refuses_too_few_entries(name):
    call, good = CALLS[name]
    with pytest.raises(ValueError):
        call([] if name == "flow_factorized_trajectory times" else list(good)[:1])


@pytest.mark.parametrize("name", PAIRED)
def test_vector_refuses_an_extra_entry(name):
    call, good = CALLS[name]
    with pytest.raises(ValueError):
        call([*good, min(good) - 1.0])


@pytest.mark.parametrize("name", CALLS)
def test_vector_refuses_a_matrix(name):
    call, good = CALLS[name]
    with pytest.raises(ValueError):
        call([list(good)])


# the entry points whose spectrum must be simple: strictly descending
STRICT = ["MoserCoordinates lam", "moser_reconstruct lam", "permutohedron_vertices",
          "CLI random --spectrum"]


@pytest.mark.parametrize("bad", [[1.0, 2.0, 3.0], [3.0, 2.0, 2.0], [3.0]],
                         ids=["unsorted", "tied", "one value"])
@pytest.mark.parametrize("name", STRICT)
def test_strict_spectra_share_one_rule_and_message(name, bad):
    call, _ = CALLS[name]
    with pytest.raises(ValueError, match=re.escape(
            "spectrum must list at least two strictly descending values")):
        call(bad)


@pytest.fixture
def vector_checks(monkeypatch):
    """Run a call and count its ``as_vector`` checks, in whichever module they run."""
    check = linalg.as_vector
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return check(*args, **kwargs)

    for info in pkgutil.iter_modules(matslice.__path__):
        module = importlib.import_module(f"matslice.{info.name}")
        if getattr(module, "as_vector", None) is check:
            monkeypatch.setattr(module, "as_vector", counting)

    def count(call):
        calls[0] = 0
        call()
        return calls[0]

    return count


_J3 = random_jacobi(3, np.random.default_rng(5), spectrum=LAM)
_STATE = TodaState(x=[1.0, 0.0, -1.0], y=[0.1, 0.0, -0.1])


# the as_vector checks each call runs
CHECKS = {
    "permutohedron_vertices": (lambda: permutohedron_vertices(LAM), 1),
    # chart and states derived from a matrix checked once are built unchecked
    "moser_coordinates": (lambda: moser_coordinates(_J3), 0),
    "inverse_flaschka": (lambda: inverse_flaschka(_J3), 0),
    "TodaState.centered": (_STATE.centered, 0),
    "hull_member": (lambda: hull_member(POINT, LAM), 2),
    "majorization_member": (lambda: majorization_member(POINT, LAM), 2),
    "moser_reconstruct": (lambda: moser_reconstruct(LAM, W), 2),
    "MoserCoordinates": (lambda: MoserCoordinates(lam=LAM, w=W), 2),
    "TodaState": (lambda: TodaState(x=[1.0, 0.0, -1.0], y=[0.1, 0.0, -0.1]), 2),
    # the spectrum, then lam and w of two charts: moser_reconstruct's chart
    # normalizes the weights random_jacobi normalized, and normalizing them
    # once would change the last bits of many (so the benchmark's inputs)
    "random_jacobi spectrum": (
        lambda: random_jacobi(3, np.random.default_rng(0), spectrum=LAM), 5),
}


@pytest.mark.parametrize("name", CHECKS)
def test_vector_checks_per_call(vector_checks, name):
    call, checks = CHECKS[name]
    assert vector_checks(call) == checks
