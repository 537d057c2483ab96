"""Randomized hyperplane rounding of a factor into candidate assignments."""

from __future__ import annotations

import math

import numpy as np

from .instance import FREE, NodeState
from .sdp import Factor, past

# cells per block of trials, one per trial and literal entry or factor row
# (whichever are more): bounds the boolean matrices of one node_unsat call
# (about 4 MB each) and the dot products of one trial_values call
TRIAL_CELLS = 1 << 22

# rounding trials per root: ROUNDING_C * sqrt(free variables)
ROUNDING_C = 4.0


def trial_values(factor: Factor, state: NodeState,
                 r: np.ndarray) -> np.ndarray:
    """The rounding of each hyperplane normal (rows of r) as a column.

    A free variable takes the sign of (v_0 . r)(v_i . r), ties rounding to
    TRUE; assigned variables keep their values (slot 0 = +1).  Returns an
    int8 matrix of shape (n+1, len(r)), one assignment vector per column.
    """
    dots = factor.cols @ r.T
    side = np.where(dots[0] * dots >= 0.0, 1, -1).astype(np.int8)
    assignment = np.array(state.assignment, dtype=np.int8)[:, None]
    return np.where(assignment == FREE, side, assignment)


def round_once(factor: Factor, state: NodeState,
               rng: np.random.Generator) -> list[int]:
    """One rounding trial: a full assignment vector indexed by variable."""
    r = rng.standard_normal((1, factor.k))
    return trial_values(factor, state, r)[:, 0].tolist()


def rounding_budget(free_count: int) -> int:
    """ceil(ROUNDING_C * sqrt(free_count)) trials, 0 when nothing is free.
    ROUNDING_C is read at call time, so tests can patch it."""
    if free_count < 0:
        raise ValueError("negative free count")
    if free_count == 0:
        return 0
    return math.ceil(ROUNDING_C * math.sqrt(free_count))


def node_unsat(state: NodeState, values):
    """Unsat count of a completion, scanning only the node's active clauses.

    An active clause has no satisfied assigned literal, so it stays unsat
    exactly when all of its free literals round to false.  `values` is one
    assignment vector (returns an int) or a matrix with one per column
    (returns the count of each column).
    """
    values = np.asarray(values)
    live = np.flatnonzero(state.view().live)
    var = state.lit_var[live]
    sign = state.lit_sign[live].astype(np.int8).reshape(
        (-1,) + (1,) * (values.ndim - 1))
    # the truth entry (variable 0, sign 0) leads each active clause's run
    # and is never a true literal
    true_lits = values.take(var, axis=0) == sign
    satisfied = np.logical_or.reduceat(true_lits, np.flatnonzero(var == 0),
                                       axis=0)
    unsat = state.base_unsat + np.count_nonzero(~satisfied, axis=0)
    return int(unsat) if values.ndim == 1 else unsat


def best_rounding(factor: Factor, state: NodeState, budget: int,
                  rng: np.random.Generator, deadline: float | None = None):
    """(values, unsat, trials run) of the best of `budget` rounding trials,
    the first one on ties; deterministic per rng state (the normals drawn
    block by block are one stream).  Past `deadline` no further block
    starts."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    block = max(1, TRIAL_CELLS // max(len(state.lit_var), len(factor.cols)))
    best_values = None
    best_unsat = None
    ran = 0
    while ran < budget and not (ran and past(deadline)):
        r = rng.standard_normal((min(block, budget - ran), factor.k))
        values = trial_values(factor, state, r)
        unsat = node_unsat(state, values)
        ran += len(r)
        t = int(np.argmin(unsat))
        if best_unsat is None or unsat[t] < best_unsat:
            best_unsat = int(unsat[t])
            best_values = values[:, t]
    return best_values.tolist(), best_unsat, ran
