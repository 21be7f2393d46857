"""The random generators check their public inputs before any draw.

``random_with_spectrum``'s spectrum is held to the shared vector checks in
``tests/test_vector_arguments.py``.
"""

import hashlib
import math

import numpy as np
import pytest

from matslice import (
    descending_spectrum,
    moser_reconstruct,
    random_invertible_symmetric,
    random_jacobi,
    random_orthogonal,
    random_symmetric,
    random_with_spectrum,
)


@pytest.mark.parametrize("bad", [{"lo": math.nan}, {"hi": math.inf},
                                 {"lo": -math.inf}, {"min_gap": math.nan}])
def test_descending_spectrum_refuses_non_finite_bounds_before_drawing(bad):
    # lo=nan leaked numpy's OverflowError; min_gap=nan spun 1,000 draws
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match="finite"):
        descending_spectrum(4, rng, **bad)
    assert rng.uniform() == np.random.default_rng(3).uniform()


def test_descending_spectrum_names_the_gaps_it_cannot_draw():
    # at the defaults 1000 draws of 12 values in [-3, 3] all miss gaps >= 0.25;
    # that was a RuntimeError, which the command line printed as a traceback
    with pytest.raises(ValueError, match=r"\[-3, 3\] with gaps >= 0.25"):
        descending_spectrum(12, np.random.default_rng(1))
    with pytest.raises(ValueError, match="interval too small"):
        descending_spectrum(24, np.random.default_rng(1))

SIZED = {
    "random_symmetric": random_symmetric,
    "random_orthogonal": random_orthogonal,
    "random_invertible_symmetric": random_invertible_symmetric,
    "descending_spectrum": descending_spectrum,
    "random_jacobi": random_jacobi,
    "random_jacobi spectrum": lambda n, rng: random_jacobi(n, rng, spectrum=[2.0] * max(n, 0)),
}


@pytest.mark.parametrize("n", [1, 0, -1])
@pytest.mark.parametrize("name", SIZED)
def test_generators_refuse_sizes_below_two_before_drawing(name, n):
    # random_jacobi(1) and random_symmetric(1) gave 1x1 matrices that as_square
    # refuses, descending_spectrum(1) one value, random_jacobi(0) numpy's
    # "negative dimensions are not allowed"
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match="at least 2"):
        SIZED[name](n, rng)
    assert rng.uniform() == np.random.default_rng(3).uniform()


@pytest.mark.parametrize("spectrum", [[math.nan, 1.0, 0.0], [3.0, math.inf, 0.0],
                                      [1.0, 2.0, 3.0], [1.0, 1.0, 0.0], [3.0, 2.0]],
                         ids=["nan", "inf", "ascending", "repeated", "short"])
def test_random_jacobi_refuses_a_bad_spectrum_before_drawing(spectrum):
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        random_jacobi(3, rng, spectrum=spectrum)
    assert rng.uniform() == np.random.default_rng(3).uniform()


def test_random_jacobi_with_a_spectrum_draws_only_its_weights():
    # the benchmark's task lists depend on this stream
    rng, fresh = np.random.default_rng(5), np.random.default_rng(5)
    j = random_jacobi(4, rng, spectrum=[4.0, 2.5, 1.0, -0.5])
    w = 0.2 + fresh.uniform(size=4)
    assert np.array_equal(j, moser_reconstruct([4.0, 2.5, 1.0, -0.5], w / np.linalg.norm(w)))
    assert rng.uniform() == fresh.uniform()


def test_draws_are_pinned_bit_for_bit():
    # the benchmark's task lists and the seeded command line are these draws;
    # the digest was taken before the generators called kernels directly
    h = hashlib.sha256()
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for n in range(2, 9):
            lam = descending_spectrum(n, rng, lo=0.5, hi=0.5 + 0.4 * n, min_gap=0.25)
            for x in (lam, descending_spectrum(n, rng), random_orthogonal(n, rng),
                      random_with_spectrum(lam, rng), random_jacobi(n, rng),
                      random_jacobi(n, rng, spectrum=lam), random_symmetric(n, rng),
                      random_invertible_symmetric(n, rng), rng.uniform()):
                h.update(np.asarray(x).tobytes())
    assert h.hexdigest() == "69d51a7dcf900498851e11acb6b5ae38a3793037918d9cc522f2797f625a46e5"
