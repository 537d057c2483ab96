import dataclasses
import math

import pytest

from sdpsat import sdp
from sdpsat.cli import build_parser
from sdpsat.config import SolverConfig


@pytest.mark.parametrize("field, good, bad", [
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
    """The settings are the two solver flags besides --mode, and each
    flag's default is the field's."""
    fields = [f.name for f in dataclasses.fields(SolverConfig)]
    assert fields == ["seed", "time_limit"]
    args = build_parser().parse_args(["solve", "in.cnf"])
    assert SolverConfig() == SolverConfig(seed=args.seed,
                                          time_limit=args.timeout)


def test_eps_is_no_setting():
    """The per-solve precision is sdp.EPS: a config cannot set it, and
    the eps it still shows (for perfbench's reads) is that constant."""
    with pytest.raises(TypeError):
        SolverConfig(eps=0.01)
    assert SolverConfig().eps == sdp.EPS
