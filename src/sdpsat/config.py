"""Solver configuration knobs."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real
from typing import ClassVar, Optional

from . import sdp


@dataclass
class SolverConfig:
    """The solver settings, one field per CLI flag; each default here is
    the only one.  The per-solve precision (sdp.EPS), the factor rank
    (sdp.default_rank, capped at max(2, n + 1)), the expansion depth
    (search.DEPTH_LIMIT), the rounding trials per root (rounding.ROUNDING_C),
    the sweep cap (sdp.MAX_SWEEPS) and the prune tolerance (bounds.PRUNE_TOL)
    are fixed by the code, not settings.

    The eps ClassVar is sdp.EPS, kept only because perfbench/layers.py
    reads `engine.cfg.eps`; ROADMAP Direction 4 deletes it.
    """

    eps: ClassVar[float] = sdp.EPS
    seed: int = 0
    time_limit: Optional[float] = None

    def __post_init__(self):
        seed, limit = self.seed, self.time_limit
        checks = (
            (isinstance(seed, Integral) and not isinstance(seed, bool)
             and seed >= 0, "seed must be a non-negative integer"),
            (limit is None or isinstance(limit, Real)
             and not isinstance(limit, bool) and limit >= 0,
             "time_limit must be None or a non-negative number"),
        )
        for ok, message in checks:
            if not ok:
                raise ValueError(message)
