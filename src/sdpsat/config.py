"""Solver configuration knobs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Optional


@dataclass
class SolverConfig:
    """The solver settings, one field per CLI flag; each default here is
    the only one (the CLI flags, sdp.solve and rounding.rounding_budget
    read it).

    eps is the target precision (in unsat units) of each relaxation solve.
    rank defaults to just above the square-root threshold for the number
    of columns; the search caps a given rank at the number of columns (at
    least 2), which already spans the full relaxation.  depth_limit=1
    degenerates to single-variable splits.  rounding_c sets the rounding
    trials per root, c * sqrt(free variables).  The sweep cap
    (sdp.MAX_SWEEPS) and the prune tolerance (bounds.PRUNE_TOL) are module
    constants, not settings.
    """

    eps: float = 1e-2
    rank: Optional[int] = None
    seed: int = 0
    depth_limit: int = 8
    rounding_c: float = 4.0
    time_limit: Optional[float] = None

    def __post_init__(self):
        checks = (
            (isinstance(self.depth_limit, Integral) and self.depth_limit >= 1,
             "depth_limit must be an integer of at least 1"),
            (self.rank is None or isinstance(self.rank, Integral)
             and self.rank >= 2, "rank must be an integer of at least 2"),
            (0 < self.eps < math.inf, "eps must be positive and finite"),
            (0 < self.rounding_c < math.inf,
             "rounding_c must be positive and finite"),
            (isinstance(self.seed, Integral) and self.seed >= 0,
             "seed must be a non-negative integer"),
            (self.time_limit is None or self.time_limit >= 0,
             "time_limit must be non-negative"),
        )
        for ok, message in checks:
            if not ok:
                raise ValueError(message)
