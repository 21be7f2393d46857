"""Every public vector argument refuses non-finite entries and a wrong length.

Spectra, weights, particle states and time grids travel beside the matrices;
each public entry point checks them once, with one error for a NaN or an
infinity anywhere and one for a vector of the wrong length.
"""

import math

import numpy as np
import pytest

from matslice import (
    MoserCoordinates,
    TodaState,
    flow_factorized_trajectory,
    hull_member,
    majorization_member,
    moser_reconstruct,
    random_with_spectrum,
    slice_point,
    spectral_polytope,
)
from matslice.linalg import SpectralFunction

S3 = np.array([[3.0, 0.5, 0.0], [0.5, 2.0, 0.5], [0.0, 0.5, 1.0]])
LAM = [3.0, 2.0, 1.0]
POINT = [2.5, 2.0, 1.5]
W = [0.5, 0.5, 0.7]

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
          if name not in ("spectral_polytope", "flow_factorized_trajectory times",
                          "random_with_spectrum")]


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
