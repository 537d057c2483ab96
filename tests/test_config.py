import dataclasses
import math

import pytest

from sdpsat.cli import build_parser
from sdpsat.config import SolverConfig


@pytest.mark.parametrize("field, good, bad", [
    ("eps", (1e-12, 0.5), (0.0, -1e-3, math.nan, math.inf)),
    ("seed", (0, 7), (-1, 1.5)),
    ("time_limit", (None, 0.0, 2.5), (-0.001, math.nan)),
])
def test_config_validates_field(field, good, bad):
    for value in good:
        assert getattr(SolverConfig(**{field: value}), field) == value
    for value in bad:
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})


def test_config_fields_are_the_cli_flags():
    """The settings are the three solver flags besides --mode, and each
    flag's default is the field's."""
    fields = [f.name for f in dataclasses.fields(SolverConfig)]
    assert fields == ["eps", "seed", "time_limit"]
    args = build_parser().parse_args(["solve", "in.cnf"])
    assert SolverConfig() == SolverConfig(
        eps=args.eps, seed=args.seed, time_limit=args.timeout)
