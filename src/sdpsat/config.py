"""Solver configuration knobs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class SolverConfig:
    """Everything the search driver needs beyond the instance itself.

    eps is the target precision (in unsat units) of each relaxation solve;
    pruning rounds bounds up with ceil_tol guarding float noise at integer
    boundaries.  rank defaults to just above the square-root threshold for
    the number of columns; the search caps a given rank at the number of
    columns (at least 2), which already spans the full relaxation.
    depth_limit=1 degenerates to single-variable splits.
    """

    eps: float = 1e-2
    rank: Optional[int] = None
    seed: int = 0
    max_sweeps: int = 400
    depth_limit: int = 8
    rounding_c: float = 4.0
    time_limit: Optional[float] = None
    ceil_tol: float = 1e-6
    # test/audit hooks: called with (path, dual_bound) for every decided child
    # and with (path, DualCert) for every warm-started certificate
    bound_recorder: Optional[Callable] = None
    transition_recorder: Optional[Callable] = None

    def __post_init__(self):
        checks = (
            (self.depth_limit >= 1, "depth_limit must be at least 1"),
            (self.rank is None or self.rank >= 2, "rank must be at least 2"),
            (0 < self.eps < math.inf, "eps must be positive and finite"),
            (self.max_sweeps >= 1, "max_sweeps must be at least 1"),
            (0 < self.rounding_c < math.inf,
             "rounding_c must be positive and finite"),
            (self.seed >= 0, "seed must be non-negative"),
            (self.time_limit is None or self.time_limit >= 0,
             "time_limit must be non-negative"),
            (0 <= self.ceil_tol < math.inf,
             "ceil_tol must be non-negative and finite"),
        )
        for ok, message in checks:
            if not ok:
                raise ValueError(message)
