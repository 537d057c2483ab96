import math

import pytest

from sdpsat.config import SolverConfig


@pytest.mark.parametrize("field, good, bad", [
    ("depth_limit", (1, 8), (0, -3)),
    ("rank", (None, 2, 17), (1, 0, -1)),
    ("eps", (1e-12, 0.5), (0.0, -1e-3, math.nan, math.inf)),
    ("max_sweeps", (1, 400), (0, -1)),
    ("rounding_c", (1e-3, 4.0), (0.0, -1.0, math.nan, math.inf)),
    ("time_limit", (None, 0.0, 2.5), (-0.001, math.nan)),
    ("seed", (0, 7), (-1,)),
    ("ceil_tol", (0.0, 1e-6), (-1e-9, math.nan, math.inf)),
])
def test_config_validates_field(field, good, bad):
    for value in good:
        assert getattr(SolverConfig(**{field: value}), field) == value
    for value in bad:
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})
