"""The random generators check their public inputs before any draw.

``random_with_spectrum``'s spectrum is held to the shared vector checks in
``tests/test_vector_arguments.py``.
"""

import math

import numpy as np
import pytest

from matslice import descending_spectrum


@pytest.mark.parametrize("bad", [{"lo": math.nan}, {"hi": math.inf},
                                 {"lo": -math.inf}, {"min_gap": math.nan}])
def test_descending_spectrum_refuses_non_finite_bounds_before_drawing(bad):
    # lo=nan leaked numpy's OverflowError; min_gap=nan spun 1,000 draws
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match="finite"):
        descending_spectrum(4, rng, **bad)
    assert rng.uniform() == np.random.default_rng(3).uniform()
