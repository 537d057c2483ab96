"""Solver configuration knobs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Optional


@dataclass
class SolverConfig:
    """The solver settings, one field per CLI flag; each default here is
    the only one (the CLI flags and sdp.solve read it).

    eps is the target precision (in unsat units) of each relaxation solve.
    The factor rank (sdp.default_rank, capped at max(2, n + 1)), the
    expansion depth (search.DEPTH_LIMIT), the rounding trials per root
    (rounding.ROUNDING_C), the sweep cap (sdp.MAX_SWEEPS) and the prune
    tolerance (bounds.PRUNE_TOL) are fixed by the code, not settings.
    """

    eps: float = 1e-2
    seed: int = 0
    time_limit: Optional[float] = None

    def __post_init__(self):
        checks = (
            (0 < self.eps < math.inf, "eps must be positive and finite"),
            (isinstance(self.seed, Integral) and self.seed >= 0,
             "seed must be a non-negative integer"),
            (self.time_limit is None or self.time_limit >= 0,
             "time_limit must be non-negative"),
        )
        for ok, message in checks:
            if not ok:
                raise ValueError(message)
