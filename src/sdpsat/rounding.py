"""Randomized hyperplane rounding of a factor into candidate assignments."""

from __future__ import annotations

import math

import numpy as np

from .instance import FREE, NodeState
from .sdp import Factor


def round_once(factor: Factor, state: NodeState,
               rng: np.random.Generator) -> list[int]:
    """One rounding trial: sign of (v_0 . r)(v_i . r) per free variable.

    Already-assigned variables keep their values; ties round to TRUE.
    Returns a full assignment vector indexed by variable (slot 0 = +1).
    """
    r = rng.standard_normal(factor.k)
    dots = factor.cols @ r
    side = np.where(dots[0] * dots >= 0.0, 1, -1)
    assignment = np.array(state.assignment)
    return np.where(assignment == FREE, side, assignment).tolist()


def rounding_budget(free_count: int, c: float = 4.0) -> int:
    """ceil(c * sqrt(free_count)) trials; 0 when nothing is free."""
    if free_count < 0:
        raise ValueError("negative free count")
    if free_count == 0:
        return 0
    return max(1, math.ceil(c * math.sqrt(free_count)))


def node_unsat(state: NodeState, values) -> int:
    """Unsat count of a completion, scanning only the node's active clauses.

    An active clause has no satisfied assigned literal, so it stays unsat
    exactly when all of its free literals round to false.
    """
    active = state.active_mask()
    signs = state.lit_sign * np.asarray(values)[state.lit_var]
    true_lits = state.live_entries(active) & (signs > 0)
    satisfied = np.bincount(state.lit_clause[true_lits], minlength=len(active))
    return state.base_unsat + int(np.count_nonzero(active & (satisfied == 0)))


def best_rounding(factor: Factor, state: NodeState, budget: int,
                  rng: np.random.Generator):
    """Best of `budget` rounding trials; deterministic per rng state."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    best_values = None
    best_unsat = None
    for _ in range(budget):
        values = round_once(factor, state, rng)
        u = node_unsat(state, values)
        if best_unsat is None or u < best_unsat:
            best_unsat = u
            best_values = values
    return best_values, best_unsat
