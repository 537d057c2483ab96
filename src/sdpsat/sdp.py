"""Low-rank relaxation of a (partially assigned) instance, solved in place.

Each variable is relaxed to a unit-norm column v_i in R^k, with one extra
fixed column v_0 acting as the truth direction.  An active clause j of
original length L with f free literals is priced at its current length
L' = min(L, max(f, 2)), as a clause of L' literals whose L' - f others are
false.  It contributes the quadratic loss

    loss_j = (||z_j||^2 - (L' - 1)^2) / (4 L'),
    z_j    = t_j * v_0 + sum over free literals of sign * v_i,
    t_j    = -1 - (L' - f),

which at integral columns (v_i = +/-v_0) with r free literals true is
((L' + 1 - 2r)^2 - (L' - 1)^2) / (4 L'): exactly 1 when r = 0, 0 when r = 1
or r = L', and negative in between.  So it is 1 when every free literal is
false, 0 when exactly one is true or when f <= 2 and the clause is
satisfied, and at most 0 otherwise; the total objective, base_unsat plus
the sum of active losses, therefore lower-bounds the node's minimum unsat
count over all completions.  Priced at its original length instead, a
satisfied clause with all of its f = r free literals true, 2 <= r < L,
would earn (r - 1)(r - L) / L < 0; at L' it earns 0, the tightest value.
For L <= 2, L' = L and t_j = -1 - (L - f), with L - f literals false:
the Goemans-Williamson MAX2SAT form.
NodeState's price table holds that loss's terms per (L, f): its view
gathers each clause's row and each entry's coefficient once per node for
every reader (node_cost, bounds.LossTracker, rounding.node_unsat), and
NodeState.price holds the rows for the scalar steps below a solved root.

Minimizing one column with the rest held fixed has a closed form: with C
the node's zero-diagonal cost matrix over its columns, the new column is
-g / ||g||, g = sum over j of C_ij v_j.  A sweep applies that update to
every free column, one color class of the variable-interaction graph at a
time, as one array step: columns of one class share no clause, so C is
zero on the class's own block, and updating them together is exactly the
column-at-a-time (Gauss-Seidel) sweep in class order.

C depends only on the assignment.  node_cost, its one builder, sums its
entries (one per live pair of an active clause) into a dense matrix, with
its columns in sweep order (the truth column, then the free columns class
by class), and sums the bound's offset: base_unsat plus each active
clause's share, the loss terms C leaves out (the would-be diagonal and
the loss constant).  NodeCost is the one record of them.  A solve builds
it once, before its first sweep, on either layout.  A node of at most
DENSE_MAX_COLUMNS (256) columns sweeps on the dense matrix (dense_sweep:
one class step is the product C[class rows] V, a vector product for a
class of one column), a larger one on the nonzero entries of each
class's rows of C (sweep_plan, then sparse_sweep: one gather, one
multiply and one reduceat per class); at small sizes the dense product
costs less, above a few hundred columns more (measured in solve).  A
solve returns its cost, and a child's C is derived from its root's and
keeps the root's column order (bounds.ShiftLedger.child_cost).  A solve
sweeps until the estimated gap drops below EPS, MAX_SWEEPS run out, the
deadline passes, or a certificate taken between sweeps prunes.

The dual certificate reads the dense C.  The row norms of C V are the
per-column update magnitudes; at a sweep fixed point they are feasible
multipliers, giving a matching lower bound.  Elsewhere a certificate must
show C + diag(lam) PSD in one of two ways.  A prune decision
(pruning_certificate, taken between sweeps and of a child at expansion)
only needs the bound above the caller's floor: it spends the bound's
excess over the floor as a uniform shift of the multipliers and verifies
the result by one floating-point Cholesky, shifted down by Rump's a-priori
error term and a bound on the rounding of C's entries, so an accepted
prune is sound by construction.  The Cholesky is numpy's
np.linalg.cholesky, and its LinAlgError is the rejection.  Only the final
certificate of a solve that did not prune, the one a ShiftLedger is built
from, is repaired by the smallest eigenvalue shift (an eigensolve).

The z-cache (per-clause sums z_j) and mixing_sweep, which updates the
columns from it, are the z-form of the same sweep: a reference that no
solve reads or writes.  The search's expansion below a solved root reads
none of it either: a bounds.LossTracker prices each step.  ZCache's
assign_update is the one reader of a DFS step outside bounds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .instance import ACTIVE, FALSIFIED, FREE, NodeState

ZERO_UPDATE_NORM = 1e-12
# unit roundoff and the smallest positive (subnormal) double
UNIT_ROUNDOFF = 2.0 ** -53
TINY = 2.0 ** -1074
# part of a bound's excess over the prune floor a pruning certificate keeps
PRUNE_SLACK = 1e-9
# a node of at most this many columns (free variables + 1) sweeps on its
# dense cost matrix; above it a dense class step costs more than the sparse
# one (see solve)
DENSE_MAX_COLUMNS = 256
# sweeps a solve runs at most unless its caller asks for another cap
MAX_SWEEPS = 400
# gap estimate (unsat units) a solve stops at; 1e-3 was slower to proofs
EPS = 1e-2


def gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u): the relative error of k roundings."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


class Factor:
    """The factor matrix: rows 0..n are the unit columns of the relaxation."""

    __slots__ = ("cols",)

    def __init__(self, cols: np.ndarray):
        self.cols = cols

    @property
    def k(self) -> int:
        return self.cols.shape[1]

    def copy(self) -> "Factor":
        return Factor(self.cols.copy())


def default_rank(n: int) -> int:
    """Smallest rank strictly above sqrt(2 * columns), columns = n + 1."""
    if n < 1:
        raise ValueError("need at least one variable")
    target = 2 * (n + 1)
    r = math.isqrt(target)
    if r * r < target:
        r += 1
    return r + 1


def init_factor(n: int, k: int, seed) -> Factor:
    """Isotropic unit columns, deterministic per seed; v_0 = first basis vector."""
    if k < 2:
        raise ValueError("rank must be at least 2")
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)
    cols = rng.standard_normal((n + 1, k))
    cols /= np.linalg.norm(cols, axis=1, keepdims=True)
    cols[0] = 0.0
    cols[0, 0] = 1.0
    return Factor(cols)


def clause_loss(z: np.ndarray, n_j):
    """(||z||^2 - (n_j - 1)^2) / (4 n_j) for a clause priced at length n_j
    (its current length L', see the module docstring).

    z may also be a stack of rows with n_j the matching array of lengths.
    """
    return (np.vecdot(z, z) - (n_j - 1) ** 2) / (4.0 * n_j)


def _group_sum(index: np.ndarray, values: np.ndarray, size: int):
    """Sum the rows of `values` into `size` rows by `index`, in input order."""
    width = math.prod(values.shape[1:])
    flat = (index[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(flat, weights=values.ravel(), minlength=size * width)
    # bincount returns integers when it is given no entries at all
    return sums.astype(float, copy=False).reshape((size,) + values.shape[1:])


class ZCache:
    """Per-clause running sums z_j; rows of inactive clauses are stale.

    The z-form reference of the objective and the sweep (objective,
    mixing_sweep); no solve reads or writes it, so a reader rebuilds it
    first.  assign_update and revert move the rows along a descent; the
    search prices its descents with bounds.LossTracker instead, and the two
    are independent references for each other.

    Rows are only read for ACTIVE clauses.  During a branch-and-bound descent
    the factor columns are frozen, so a clause that leaves the active set
    keeps a row that is still correct if the clause is later reactivated by
    backtracking; rows modified in place are undone from saved copies.
    """

    __slots__ = ("instance", "z")

    def __init__(self, instance, k: int):
        self.instance = instance
        self.z = np.zeros((instance.num_clauses, k))

    def rebuild(self, state: NodeState, factor: Factor) -> None:
        """z_j = t_j v_0 + sum of sign * v_i over the free literals."""
        _, _, live, _, coeff = state.view()
        rows = coeff[live, None] * factor.cols[state.lit_var[live]]
        self.z[:] = _group_sum(state.lit_clause[live], rows, len(self.z))

    def assign_update(self, state: NodeState, factor: Factor, var: int,
                      moved):
        """Apply the coefficient move for one assignment to the cached rows.

        `moved` is the transition list returned by instance.assign (already
        applied to the state).  A clause with f + 1 free literals before
        and f = clause_free after reads L' and t from state.price[L][f + 1]
        and, still active, price[L][f]: z_j moves by (t' - t) v_0 - s v_var,
        s = 1 when var is one of its literals and -1 when -var is.  Returns
        (undo, d_objective): saved rows to restore on backtrack and the
        change in the active-loss objective.
        """
        V = factor.cols
        v0 = V[0]
        vv = V[var]
        z = self.z
        clause_lits, price = state.clause_lits, state.price
        clause_free = state.clause_free
        undo = []
        d_obj = 0.0
        for j, new_status in moved:
            lits = clause_lits[j]
            zj = z[j]
            f = clause_free[j]
            row = price[len(lits)]
            length, t = row[f + 1][:2]
            old_loss = clause_loss(zj, length)
            if new_status != ACTIVE:
                # a falsified clause's loss becomes 1, a satisfied one leaves
                d_obj += (new_status == FALSIFIED) - old_loss
                continue
            new_length, new_t = row[f][:2]
            undo.append((j, zj.copy()))
            zj -= (1 if var in lits else -1) * vv
            zj += (new_t - t) * v0
            d_obj += clause_loss(zj, new_length) - old_loss
        return undo, d_obj

    def revert(self, undo) -> None:
        for j, row in undo:
            self.z[j] = row


def active_losses(state: NodeState, zcache: ZCache) -> np.ndarray:
    """clause_loss of every active clause at its current length, in clause
    order."""
    view = state.view()
    return clause_loss(zcache.z[view.active], view.price[view.active, 0])


def objective(state: NodeState, factor: Factor, zcache: ZCache) -> float:
    """base_unsat plus the active-clause losses, summed exactly (fsum)."""
    return state.base_unsat + math.fsum(active_losses(state, zcache).tolist())


def class_order(state: NodeState, order=None):
    """The color classes in sweep order: in the order their first variable
    appears in `order` (a sequence of variables), or in index order for
    None.  A class with no variable in `order` is not swept."""
    if order is None:
        return list(range(len(state.class_entries)))
    return list(dict.fromkeys(
        state.color[np.asarray(order, dtype=np.intp)].tolist()))


def mixing_sweep(state: NodeState, factor: Factor, zcache: ZCache,
                 order=None) -> float:
    """One pass of closed-form column updates over the free variables, on
    the z-cache: the z-form reference of the sweep, which no solve runs.

    The columns are updated one color class at a time, classes in the order
    their first variable appears in `order` (class index order for None).
    Variables of one class share no clause, so no update in a class reads a
    z row or a column that another one writes: the pass is exactly the
    column-at-a-time sweep over `order` stably sorted by class rank.  Every
    update is the exact minimizer of the objective in its block, so the
    objective is non-increasing across the pass.  A column with no live
    entry, or whose update direction is below ZERO_UPDATE_NORM, is kept (any
    unit vector minimizes its block).  Returns the objective after the pass.
    """
    _, _, live, price, _ = state.view()
    _, _, weight, _, _, _ = price.T
    V = factor.cols
    z = zcache.z
    for c in class_order(state, order):
        entries = state.class_entries[c]
        entries = entries[live[entries]]
        if not len(entries):
            continue
        j = state.lit_clause.take(entries)
        v = state.lit_var.take(entries)
        sign = state.lit_sign.take(entries)[:, None]
        # entries are sorted by variable, so each member's run is contiguous
        members, starts = np.unique(v, return_index=True)
        zj = z.take(j, axis=0) - sign * V.take(v, axis=0)
        g = np.add.reduceat(sign * weight[j, None] * zj, starts)
        norm = np.sqrt(np.vecdot(g, g))
        moved = norm >= ZERO_UPDATE_NORM
        V[members[moved]] = g[moved] / -norm[moved, None]
        z[j] = zj + sign * V.take(v, axis=0)
    return objective(state, factor, zcache)


@dataclass(frozen=True, slots=True)
class NodeCost:
    """The node's dense cost matrix and its assignment-only bound terms.

    `index` lists the node's columns in sweep order (0, then the free
    variables class by class; `slices` holds each swept class's rows and
    is empty on a derived cost, which is never swept), and `matrix` is the
    zero-diagonal cost over them: entry (a, b) sums coeff_a * coeff_b * w_j
    over the active clauses j holding both columns.  `offset` is the rest
    of the objective at unit columns: base_unsat plus every active
    clause's share (its price row), which holds the would-be diagonal
    (t^2 + f) w and the loss constant -(L' - 1)^2 w.  `entry_error` bounds
    how far any entry of `matrix` is from its exact value, for this cost and
    for every cost derived from it.  Every solve builds one before its
    first sweep and returns it (SdpResult.cost).  A cost is valid only
    while the node's assignment is unchanged.
    """

    index: np.ndarray
    matrix: np.ndarray
    offset: float
    entry_error: float
    slices: tuple = ()


def entry_error_bound(state: NodeState) -> float:
    """A bound on the rounding error of any cost entry of any node.

    An entry is a signed sum of terms, each at most 1/4 in magnitude and
    within gamma_2 / 4 of its exact value.  Built fresh, it sums one term
    coeff_a * coeff_b * w_j per active clause j holding both columns
    (|t_j| <= L'_j and w_j = 1/(4 L'_j) at the clause's current length),
    rounded twice (w_j, then the product).  Derived along a DFS path
    (bounds.ShiftLedger), each assignment on the path adds to an entry one
    price difference per moved clause holding both of its columns: the
    clause's t'w' - t w on a truth-row entry, w' - w on a pair (signed by
    the literals, between the entries of NodeState.price for its f + 1 and
    f free literals, zero once it left).  That is at most L_j - 1 terms
    per clause for an entry whose columns stay free, one per other literal
    of the clause assigned on the path, the one that satisfies it
    included.  A difference to a zero price is -t w or -w, within
    gamma_2 / 4 of exact.  One that keeps the clause with f >= 2 free has
    t = t' = -1 and w' = 1/(4f) > w = 1/(4(f + 1)): within
    u (w' + w) + u (w' - w) = 2 u w' <= u / 4.  One that leaves f = 1 has
    L' = 2 and w = w' = 1/8 on both sides, t going from -1 to -2: exact.
    So an entry has at most L_j terms per clause holding both of its
    columns, and no more than N = (most occurrences of one variable) *
    (longest clause + 1) = NodeState.entry_terms in all; its error is
    below gamma_{2N+2} * N / 4.
    """
    terms = state.entry_terms
    return gamma(2 * terms + 2) * terms / 4.0


def pair_matrix(pa: np.ndarray, pb: np.ndarray, value: np.ndarray,
                dim: int) -> np.ndarray:
    """The dim x dim matrix summing value[t] into cells (pa[t], pb[t]) and
    (pb[t], pa[t]).  Both cells of a pair take their values in turn, in
    input order, so the sums stay exactly symmetric."""
    cells = np.empty(2 * len(pa), dtype=np.intp)
    cells[0::2] = pa * dim + pb
    cells[1::2] = pb * dim + pa
    matrix = np.bincount(cells, np.repeat(value, 2), minlength=dim * dim)
    # bincount returns integers when it is given no entries at all
    return matrix.astype(float, copy=False).reshape(dim, dim)


def node_cost(state: NodeState, order=None) -> NodeCost:
    """The node's cost matrix, computed from scratch: the one builder of
    C, with each active clause's coefficients and weight from its price
    row, and the offset, summed exactly (fsum).  The free columns follow
    class_order, by variable within a class, then those of classes not
    swept."""
    active, columns, live, price, coeff = state.view()
    _, _, weight, _, share, _ = price.T
    classes = class_order(state, order)
    rank = np.full(len(state.class_entries), len(classes), dtype=np.intp)
    rank[classes] = np.arange(len(classes))
    rank = rank[state.color]
    rank[0] = -1  # the truth column leads and is never swept
    index = np.flatnonzero(columns)
    index = index[np.argsort(rank[index], kind="stable")]
    bounds = np.searchsorted(rank[index], np.arange(len(classes) + 1)).tolist()
    slices = tuple((lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo)
    pos = np.empty(len(columns), dtype=np.intp)
    pos[index] = np.arange(len(index))
    a, b = state.pair_a, state.pair_b
    keep = np.flatnonzero(live[a] & live[b])
    value = (coeff[a[keep]] * coeff[b[keep]]
             * weight[state.pair_clause[keep]])
    matrix = pair_matrix(pos[state.pair_var_a[keep]],
                         pos[state.pair_var_b[keep]], value, len(index))
    offset = math.fsum(share[active].tolist()) + state.base_unsat
    return NodeCost(index, matrix, offset, entry_error_bound(state), slices)


def dense_objective(cost: NodeCost, W: np.ndarray) -> float:
    """The objective at the node's columns W = V[cost.index], summed
    exactly (fsum): offset + sum of W_a . (C W)_a.  The offset takes
    every column at unit norm."""
    terms = np.vecdot(W, cost.matrix @ W).tolist()
    return math.fsum(terms + [cost.offset])


def dense_sweep(cost: NodeCost, factor: Factor) -> float:
    """One sweep on the dense cost matrix: one class step is g = C[class] W.

    `cost` is node_cost's for the sweep order.  Columns of one class share
    no clause, so C is zero on the class's own block and g is the update
    direction of every member at once; members with ||g|| below
    ZERO_UPDATE_NORM are kept.  A class of one column steps as a vector
    (g = C[lo] W): the matrix step's bits at half its numpy overhead.  The
    factor's columns are read and written back once.  Returns the objective
    after the pass (dense_objective).
    """
    W = factor.cols.take(cost.index, axis=0)
    matrix = cost.matrix
    for lo, hi in cost.slices:
        if hi - lo == 1:
            g = matrix[lo].dot(W)
            norm = math.sqrt(g.dot(g))
            if norm >= ZERO_UPDATE_NORM:
                g /= -norm
                W[lo] = g
            continue
        g = matrix[lo:hi] @ W
        norm = np.sqrt(np.vecdot(g, g))[:, None]
        np.divide(g, -norm, out=W[lo:hi], where=norm >= ZERO_UPDATE_NORM)
    factor.cols[cost.index] = W
    return dense_objective(cost, W)


def sweep_plan(cost: NodeCost) -> list:
    """C stored by rows, for the sweeps of one solve: per swept class with
    a nonzero entry, in sweep order, (members, columns, values, starts).

    The members are the class's columns whose row of C has a nonzero
    entry, as variables in the dense layout's order.  Each member's row
    lists the columns of its nonzero entries (the truth column included)
    as variables, and `starts` marks where each row begins, so no row is
    empty (np.add.reduceat would return the next element, not zero, for
    an empty one).  A zero row has a zero update: its column stays put,
    as ZERO_UPDATE_NORM keeps it in the dense sweep.
    """
    index, steps = cost.index, []
    for lo, hi in cost.slices:
        block = cost.matrix[lo:hi].ravel()
        # a flat scan of a mask: np.nonzero on the 2-d float rows costs
        # about 8x more (16 against 2 ms over all of a 1601 x 1601 C)
        cells = np.flatnonzero(block != 0.0)
        if not len(cells):
            continue
        rows, columns = np.divmod(cells, len(index))
        members, starts = np.unique(rows, return_index=True)
        steps.append((index[lo + members], index[columns],
                      block[cells, None], starts))
    return steps


def sparse_sweep(plan: list, factor: Factor) -> float:
    """dense_sweep on the nonzero entries of C's rows (sweep_plan): one
    class step is g = C[class] V as one gather, one multiply and one
    reduceat over the class's nonzeros.  Members with ||g|| below
    ZERO_UPDATE_NORM are kept.  Every step gathers into one buffer: a
    fresh one per step is handed back to the system and faulted in again
    (4.8k page faults in the sweeps of a MAX2SAT n=400 root solve, 105k at
    n=1600, against 4 and 888); mode="clip" writes the gather into it
    unbuffered, and every column index is in range.

    Returns the objective's decrease over the pass, 2 * sum over the moved
    members of (||g|| + g . v_old): C has a zero diagonal, so moving v_i
    from v_old to -g / ||g|| changes the objective by 2 g . (v_new -
    v_old), and the members of a class do not interact.
    """
    V = factor.cols
    work = np.empty((max((len(step[1]) for step in plan), default=0),
                     factor.k))
    drop = 0.0
    for members, columns, values, starts in plan:
        rows = V.take(columns, axis=0, out=work[:len(columns)], mode="clip")
        rows *= values
        g = np.add.reduceat(rows, starts)
        norm = np.sqrt(np.vecdot(g, g))
        moved = norm >= ZERO_UPDATE_NORM
        if not moved.all():
            members, g, norm = members[moved], g[moved], norm[moved]
        drop += float(np.sum(norm + np.vecdot(g, V.take(members, axis=0))))
        V[members] = g / -norm[:, None]
    return 2.0 * drop


@dataclass
class DualCert:
    """Multipliers certifying a lower bound on the node's relaxation.

    lam covers columns 0..n (zero outside the node's support).  The bound in
    unsat units is -sum(lam) plus the cost's offset (NodeCost).
    """

    lam: np.ndarray
    offset: float

    @property
    def dual_bound(self) -> float:
        return float(-self.lam.sum() + self.offset)


@dataclass
class SdpResult:
    objective_unsat: float
    # None when the deadline passed before a certificate was taken
    cert: DualCert | None
    sweeps_used: int
    converged: bool
    # the node's cost matrix, built before the first sweep
    cost: NodeCost
    trace: list = field(default_factory=list)
    # ended early by a certificate whose bound is above the caller's floor
    pruned: bool = False
    # certificates taken, raw ones below the floor included
    certificates: int = 0
    # swept on the dense cost matrix (dense_sweep), not its rows
    dense: bool = False

    @property
    def dual_bound(self) -> float:
        return -math.inf if self.cert is None else self.cert.dual_bound


def certificate(cost: NodeCost, factor: Factor,
                repair: bool = True) -> DualCert:
    """Multipliers lam_i = ||(C V)_i|| over the node's columns.

    (C V)_i is the negated update direction of column i: the weighted sum
    of its incident z vectors minus the column's own contribution.  By
    Cauchy-Schwarz the resulting bound never exceeds the current objective.
    The norm recovery is exactly feasible only at a sweep fixed point, so by
    default the multipliers are repaired (_repair_multipliers).
    """
    lam = np.zeros(len(factor.cols))
    rows = cost.matrix @ factor.cols.take(cost.index, axis=0)
    # np.linalg.norm(rows, axis=1) without its argument handling, bit for bit
    lam[cost.index] = np.sqrt(np.add.reduce(rows * rows, axis=1))
    cert = DualCert(lam, cost.offset)
    if repair:
        _repair_multipliers(cost, lam)
    return cert


def dual_from_primal(state: NodeState, factor: Factor, zcache=None,
                     repair: bool = True) -> DualCert:
    """The node's certificate at the current factor, from a fresh cost
    matrix (see certificate).  It reads no z-cache: `zcache` is accepted
    for existing callers and ignored.
    """
    return certificate(node_cost(state), factor, repair)


def pruning_certificate(cost: NodeCost, factor: Factor,
                        floor: float) -> DualCert | None:
    """A certificate whose bound is above `floor`, or None.

    The one prune-time certificate: a solve takes it between sweeps, and
    the search takes it of a child about to be queued, on the parent's
    factor and the child's cost matrix.  A bound above the floor prunes;
    only its excess over the floor can be spent on feasibility.  So the
    raw multipliers are shifted by that excess, less PRUNE_SLACK of it (at
    least PRUNE_SLACK), spread evenly over the node's columns, and the
    result is kept only if one Cholesky verifies cost + diag(lam) PSD
    (_verified_psd).  No eigensolve: the shift is not the smallest one, so
    the certificate suits a prune, not a ShiftLedger.
    """
    cert = certificate(cost, factor, repair=False)
    excess = cert.dual_bound - floor
    if not excess > 0.0:
        return None
    # without an off-diagonal entry diag(lam) with lam >= 0 is PSD exactly
    if cost.matrix.any():
        shift = (excess - PRUNE_SLACK * max(1.0, excess)) / len(cost.index)
        if not shift > 0.0:
            return None
        cert.lam[cost.index] += shift
        if not _verified_psd(cost, cert.lam):
            return None
    return cert if cert.dual_bound > floor else None


def _verified_psd(cost: NodeCost, lam: np.ndarray) -> bool:
    """True only if the exact cost matrix plus diag(lam) is PSD.

    The floating-point Cholesky of A - c I, A = cost + diag(lam), is
    numpy's np.linalg.cholesky, whose LinAlgError is the rejection.  It
    runs to completion only if A is positive definite once c covers its
    backward error: gamma_{d+1} / (1 - gamma_{d+1}) tr(A) plus an underflow
    term (Rump, Verification of positive definiteness, BIT Numer. Math.
    2006), doubled here to also cover the rounding of A - c I.  c further
    adds d * entry_error, a Gershgorin bound on the distance of the
    computed cost from the exact one, so the exact matrix is PSD too.  The
    matrix's zero diagonal is borrowed for A - c I and restored.
    """
    index, matrix = cost.index, cost.matrix
    dim = len(index)
    diag = lam[index]
    # the trace also stands in for the largest diagonal entry (lam >= 0)
    trace = float(diag.sum())
    g = gamma(dim + 1)
    rump = g / (1.0 - g) * trace + 4 * dim * (2 * (dim + 1) + trace) * TINY
    matrix.flat[::dim + 1] = diag - (2.0 * rump + dim * cost.entry_error)
    try:
        np.linalg.cholesky(matrix)
        return True
    except np.linalg.LinAlgError:
        return False
    finally:
        matrix.flat[::dim + 1] = 0.0


def _repair_multipliers(cost: NodeCost, lam: np.ndarray) -> None:
    """Shift lam on the node's columns so cost + diag(lam) is PSD.

    The shift leaves a margin of dim * eps_mach * ||cost + diag(lam)||_F
    above the computed smallest eigenvalue, which covers the eigensolver's
    backward error (Jansson, Chaykin and Keil, SIAM J. Numer. Anal. 2007),
    plus dim * entry_error for C's entry rounding (see _verified_psd).
    One dense symmetric eigensolve; the matrix's zero diagonal is borrowed
    for diag(lam) and restored.  A cost without an off-diagonal entry (no
    active clause) needs none: diag(lam) with lam >= 0 is PSD exactly.
    """
    index, matrix = cost.index, cost.matrix
    if not matrix.any():
        return
    dim = len(index)
    matrix.flat[::dim + 1] = lam[index]
    try:
        margin = dim * (np.finfo(float).eps * float(np.linalg.norm(matrix))
                        + cost.entry_error)
        min_eig = float(np.linalg.eigvalsh(matrix)[0])
    finally:
        matrix.flat[::dim + 1] = 0.0
    if min_eig < margin:
        lam[index] += margin - min_eig


def past(deadline: float | None) -> bool:
    """True once a time.monotonic() deadline has passed."""
    return deadline is not None and time.monotonic() > deadline


def solve(state: NodeState, factor: Factor, zcache: ZCache,
          eps: float | None = None, max_sweeps: int | None = None,
          order=None, deadline: float | None = None,
          floor: float | None = None) -> SdpResult:
    """Sweep until the estimated distance to the optimum drops below eps
    (by default EPS), max_sweeps (by default MAX_SWEEPS; both read at each
    call) run out, the deadline passes or a certificate prunes.

    The distance is estimated from the per-sweep decreases delta_t assuming a
    linear rate: gap ~ delta_t * rho / (1 - rho) with rho = delta_t /
    delta_{t-1} clamped to [0, 0.999].

    Both paths sweep g = C[class] V per color class on the node's cost
    matrix (node_cost), built once per solve before its first sweep, in
    sweep order, and take the same steps in exact arithmetic.  Both start
    the trace at dense_objective.  A node of at most DENSE_MAX_COLUMNS
    columns runs dense_sweep, one matrix product per class, and reads the
    objective from C V after every sweep.  A larger node runs sparse_sweep
    on the nonzero entries of C's rows (sweep_plan) and subtracts each
    sweep's decrease from the trace.  The cutoff is measured
    (scripts/root_cost.py, --count 3, median of three runs): on a 2-vCPU
    x86-64 host with one BLAS thread, a sweep of a solved random MAX2SAT
    root at m = 4n costs, sparse against dense, 141 against 75 us at n=28,
    397 against 341 us at n=200, 499 against 522 us at n=255, 723 against
    1490 us at n=400 and 1712 against 5515 us at n=800.
    No solve reads or writes the z-cache: `zcache` is accepted for
    existing callers and ignored.

    `floor` is the caller's optional prune line: a lower bound above it
    discards the node.  After every unconverged sweep whose objective is
    above it (no certificate's bound exceeds the objective), a pruning
    certificate is taken (Cholesky-verified, see pruning_certificate), and
    the solve returns with `pruned` set as soon as one is above the floor.
    Without `floor` the sweeps are those of the plain solve.  Only the
    final certificate of a solve that neither pruned nor hit the deadline
    is eigen-repaired: it is the one a ShiftLedger is built from.

    Every certificate of one solve reads the one cost matrix it swept, and
    returns it as `cost`: no sweep changes the assignment.
    `certificates` counts the certificates taken, those below the floor
    included.  Any result that did not converge is flagged so; its
    certificate remains a valid bound either way.  Once the deadline has
    passed the solve takes no certificate at all: `cert` is None and the
    bound is -inf.
    """
    if eps is None:
        eps = EPS
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    if max_sweeps is None:
        max_sweeps = MAX_SWEEPS
    dense = state.free_count < DENSE_MAX_COLUMNS
    cost = node_cost(state, order)
    plan = None if dense else sweep_plan(cost)
    f_cur = dense_objective(cost, factor.cols[cost.index])
    trace = [f_cur]
    cert = None
    certificates = 0
    # without an off-diagonal entry there is nothing to sweep
    converged = not cost.matrix.any()
    prev_delta = None
    sweeps = 0
    while not converged and sweeps < max_sweeps and not past(deadline):
        if dense:
            f_new = dense_sweep(cost, factor)
            delta = f_cur - f_new
        else:
            delta = sparse_sweep(plan, factor)
            f_new = f_cur - delta
        sweeps += 1
        trace.append(f_new)
        f_cur = f_new
        if delta <= 1e-15:
            converged = True
            break
        if prev_delta is not None and prev_delta > 0.0:
            rho = min(max(delta / prev_delta, 0.0), 0.999)
            est_gap = delta * rho / (1.0 - rho)
            if est_gap <= eps:
                converged = True
                break
        prev_delta = delta
        if floor is not None and f_cur > floor and not past(deadline):
            certificates += 1
            cert = pruning_certificate(cost, factor, floor)
            if cert is not None:
                break
    pruned = cert is not None
    if not pruned and not past(deadline):
        cert = certificate(cost, factor)
        certificates += 1
    return SdpResult(f_cur, cert, sweeps, converged, cost, trace,
                     pruned=pruned, certificates=certificates, dense=dense)
