"""CNF instances and the mutable assignment machinery shared by all search nodes.

Literals are signed DIMACS integers: +v for the variable, -v for its negation.
An Instance is immutable; NodeState is the single-owner mutable node that
assign() and unassign_to() move.  No other module of the package is imported.

Clause bookkeeping counts free literals: every clause carries clause_free,
which starts at its length L and loses 1 each time one of its literals is
assigned while the clause is active.  The first literal assigned true
satisfies the clause; it is falsified when its count reaches 0 with none
true.  An active clause with f free literals has L - f of them false.  The
relaxation prices it as a clause of its current length
L' = min(L, max(f, 2)) (current_length) with L' - f literals false: its
truth coefficient is t = -1 - (L' - f) and its weight 1/(4L').  That is
-1 - (L - f) for a clause of at most two literals or with none false; a
longer clause with some literal false has -1 while f >= 2 and -2 at f = 1
(see sdp).  NodeState's price table, the one place the rule is
evaluated, prices each (L, f) once.
A node's view is built once and kept, read-only, until the trail moves;
what depends only on the formula is built once per NodeState.
"""

from __future__ import annotations

import heapq
import itertools
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# assignment values
TRUE = 1
FALSE = -1
FREE = 0

# clause statuses
ACTIVE = 0
SATISFIED = 1
FALSIFIED = 2


class ParseError(ValueError):
    """Malformed DIMACS input or out-of-contract clause data."""


@dataclass(frozen=True, slots=True)
class Clause:
    """One clause: deduplicated signed literals, fixed original length."""

    lits: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.lits)


class Instance:
    """Immutable parsed formula: clauses plus the per-variable occurrence lists.

    occurrences[v] holds (clause_index, sign) for every clause containing
    variable v; it is the exact transpose of the clause-literal relation.
    Tautological clauses are dropped at construction (always satisfied) and
    empty clauses are counted separately (always falsified).  `weight` is
    the one clause weight of a uniform WCNF (1 for CNF): a cost is weight
    times the unsat count.
    """

    __slots__ = ("num_vars", "clauses", "occurrences", "lengths",
                 "tautology_count", "empty_count", "weight")

    def __init__(self, num_vars: int, clauses: list[Clause],
                 tautology_count: int = 0, empty_count: int = 0,
                 weight: int = 1):
        self.num_vars = num_vars
        self.clauses = clauses
        self.lengths = tuple(c.length for c in clauses)
        self.tautology_count = tautology_count
        self.empty_count = empty_count
        self.weight = weight
        occ: list[list[tuple[int, int]]] = [[] for _ in range(num_vars + 1)]
        for j, cl in enumerate(clauses):
            for lit in cl.lits:
                occ[abs(lit)].append((j, 1 if lit > 0 else -1))
        self.occurrences = occ

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    @property
    def nnz(self) -> int:
        return sum(self.lengths)

    def __repr__(self) -> str:
        return (f"Instance(n={self.num_vars}, m={self.num_clauses}, "
                f"nnz={self.nnz})")


def instance_from_clauses(num_vars: int, clause_lists,
                          weight: int = 1) -> Instance:
    """Build an Instance from raw literal lists, normalizing as parsed input.

    Duplicate literals inside a clause are removed, tautologies (v and -v in
    one clause) are dropped with a count, empty clauses are tallied into
    empty_count.  Raises ParseError on out-of-range literals.
    """
    clauses: list[Clause] = []
    tautologies = 0
    empties = 0
    for raw in clause_lists:
        seen: dict[int, None] = {}
        tautology = False
        for lit in raw:
            v = abs(lit)
            if lit == 0 or v > num_vars:
                raise ParseError(f"literal {lit} out of range (n={num_vars})")
            if -lit in seen:
                tautology = True
            seen.setdefault(lit, None)
        if tautology:
            tautologies += 1
            continue
        lits = tuple(seen)
        if not lits:
            empties += 1
            continue
        clauses.append(Clause(lits))
    return Instance(num_vars, clauses, tautologies, empties, weight)


def _ints(line: str) -> list[int]:
    """The line's integers by the DIMACS rule: ASCII digits after an optional
    sign.  Where a line has no "_" and no non-ASCII, int() reads just that."""
    tokens = line.split()
    if line.isascii() and "_" not in line:
        try:
            return list(map(int, tokens))
        except ValueError:
            pass
    for token in tokens:
        if not re.fullmatch(r"[+-]?[0-9]+", token):
            raise ParseError(f"bad integer token {token!r}")
    return list(map(int, tokens))


def parse_dimacs(text: str) -> Instance:
    """Parse DIMACS CNF or uniform-weight WCNF text into an Instance.

    Comment lines start with 'c'; a '%' line terminates the file (SATLIB
    convention).  The first other line is the problem line, and the file
    holds exactly the clauses it counts.  WCNF clauses must all carry the
    same weight, below the header's `top` if it gives one -- weighted and
    partial MAXSAT (a clause of weight >= top is hard) are rejected rather
    than silently mis-solved.
    """
    lines = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line[0] == "c":
            continue
        if line[0] == "%":
            break
        lines.append(line)
    header = lines[0].split() if lines and lines[0][0] == "p" else []
    if len(header) < 4 or header[1] not in ("cnf", "wcnf"):
        raise ParseError(f"missing or malformed problem line: {lines[:1]}")
    num_vars, count = _ints(" ".join(header[2:4]))
    if num_vars < 0 or count < 0:
        raise ParseError(f"negative count in header: {lines[0]!r}")
    is_wcnf = header[1] == "wcnf"
    top = None
    if is_wcnf and len(header) > 4:
        top = _ints(header[4])[0] if header[4].isdecimal() else 0
        if top <= 0:
            raise ParseError(f"bad top weight {header[4]!r}")
    clause_lists, current = [], []
    for line in lines[1:]:  # a second problem line is a bad integer 'p'
        for x in _ints(line):
            if x:
                current.append(x)
            else:
                clause_lists.append(current)
                current = []
    if current:
        raise ParseError("last clause not zero-terminated")
    if len(clause_lists) != count:
        raise ParseError(f"{len(clause_lists)} clauses, header says {count}")
    if not is_wcnf or not clause_lists:
        return instance_from_clauses(num_vars, clause_lists)
    # a weight 0 ends its clause at once: an empty list, read as weight 0
    weights = [c[0] if c else 0 for c in clause_lists]
    low, high = min(weights), max(weights)
    if low <= 0:
        raise ParseError(f"non-positive clause weight {low}")
    if top is not None and high >= top:
        raise ParseError(f"hard clause (weight {high} >= top {top})")
    if low != high:
        raise ParseError("non-uniform weights: weighted MAXSAT unsupported")
    return instance_from_clauses(num_vars, [c[1:] for c in clause_lists], low)


def current_length(length, free):
    """The length an active clause of `length` literals with `free` of them
    free is priced at, elementwise over arrays: min(length, max(free, 2)).
    The one definition of the rule; NodeState's price table reads it."""
    return np.minimum(length, np.maximum(free, 2))


class NodeView(NamedTuple):
    """A node as arrays (NodeState.view): per clause, whether it is active
    and its row of the price table (see NodeState) at its free count, all
    zeros once it left; the column mask; per literal-table entry, whether
    it is live (clause active, column in the node) and its coefficient:
    its clause's truth coefficient t on a truth entry, the literal's sign
    elsewhere.  Its arrays are read-only: one view serves every reader of
    the node."""

    active: np.ndarray
    columns: np.ndarray
    live: np.ndarray
    price: np.ndarray
    coeff: np.ndarray


class NodeState:
    """Mutable node record: clause counters and the trail, one (var, moved)
    entry per step, moved being assign's list (the step's undo record).

    Invariant: clause_free[j] counts clause j's free literals, frozen once
    it is satisfied (later assignments skip it), and base_unsat counts
    FALSIFIED clauses plus the instance's empty clauses.

    The literal table lists, clause by clause, a truth entry (variable 0,
    sign 0, the clause's truth coefficient) and then each literal: its
    clause, variable and sign.  With the clause lengths and every pair of
    entries of one clause (pair_a before pair_b), it turns whole-node sums
    into array arithmetic masked by the active clauses and free columns.  A
    clause of length L has L(L+1)/2 pairs, in a run that starts at
    `pair_first[j]`; per pair the node also keeps the clause
    (`pair_clause`) and the two entries' variables (`pair_var_a`,
    `pair_var_b`), and `entry_terms` is the term count N of
    sdp.entry_error_bound.  view gives the node's masks, every clause's
    price row and every entry's coefficient as arrays.

    The price table holds a row per clause length L of the formula and
    free count f = 0..L (`price_rows`; clause j's row for f free is
    `price_first[j] + f`): (L', t, w, t w, share, base) with
    L' = current_length(L, f), t = f - 1 - L', w = 1/(4L'),
    base = t^2 + f - (L' - 1)^2 (the integer part of the clause's loss at
    unit columns) and share = base w (its part of the bound's offset, see
    sdp.NodeCost); the row for f = 0, a clause that left, is all zeros.
    `price[L][f]` is the same row as a Python list, for the scalar steps
    of a DFS below a solved root, with each clause's literal tuple
    (`clause_lits`); every step prices a moved clause as the difference
    of two rows (bounds.ShiftLedger, bounds.LossTracker, sdp.ZCache).
    `falsifies[2 v + (value > 0)]` lists, in occurrence order, the clauses
    in which variable v taking `value` makes a literal false (for
    bounds.up_cores).  up_cores keeps its scratch on the node, so a call
    allocates nothing of size m or n: a mark per clause (`core_mark`),
    stamped from `core_stamp`, which grows across calls, and a propagated
    value and reason clause per variable (`core_value`, all zero between
    calls, and `core_reason`).

    The variables are also colored by DSatur so that two variables sharing
    a clause never share a color.  A proper coloring of the whole formula
    stays proper on every subproblem, so it is computed once.  Per color
    class the node keeps its literal entries sorted by variable
    (`class_entries`); `color[v]` is the class of variable v.
    """

    __slots__ = ("instance", "assignment", "trail", "clause_free",
                 "clause_status", "base_unsat", "free_count", "lit_clause",
                 "lit_var", "lit_sign", "clause_len", "price_rows",
                 "price_first", "price", "pair_a", "pair_b", "pair_first",
                 "pair_clause", "pair_var_a", "pair_var_b", "entry_terms",
                 "clause_lits", "falsifies", "core_mark", "core_value",
                 "core_reason", "core_stamp", "color", "class_entries",
                 "_view")

    def __init__(self, instance: Instance):
        n = instance.num_vars
        self.instance = instance
        self.assignment = [FREE] * (n + 1)
        self.assignment[0] = TRUE  # truth slot, never reassigned
        self.trail: list[tuple[int, list]] = []
        self.clause_free = list(instance.lengths)
        self.clause_status = [ACTIVE] * instance.num_clauses
        self.base_unsat = instance.empty_count
        self.free_count = n

        self.clause_len = np.array(instance.lengths, dtype=np.intp)
        sizes = np.unique(self.clause_len)
        first = np.zeros(int(self.clause_len.max(initial=0)) + 1,
                         dtype=np.intp)
        first[sizes] = np.cumsum(sizes + 1) - (sizes + 1)
        length = np.repeat(sizes, sizes + 1)
        free = np.arange(len(length)) - first[length]
        cur = current_length(length, free)
        t = free - 1 - cur
        w = 1.0 / (4.0 * cur)
        base = t * t + free - (cur - 1) ** 2
        table = np.column_stack((cur, t, w, t * w, base * w, base))
        table[free == 0] = 0.0
        table.setflags(write=False)
        self.price_rows = table
        self.price_first = first[self.clause_len]
        rows = table.tolist()
        # a length the formula does not have gets no rows
        self.price = [rows[lo:lo + L + 1] if L in sizes else []
                      for L, lo in enumerate(first.tolist())]
        size = self.clause_len + 1
        total = int(size.sum())
        lits = np.fromiter(
            itertools.chain.from_iterable((0,) + c.lits
                                          for c in instance.clauses),
            dtype=np.intp, count=total)
        self.lit_clause = np.repeat(np.arange(len(size)), size)
        self.lit_var = np.abs(lits)
        self.lit_sign = np.sign(lits).astype(float)
        # entry t pairs with the `later[t]` entries after it in its clause
        later = np.repeat(np.cumsum(size), size) - 1 - np.arange(total)
        self.pair_a = np.repeat(np.arange(total), later)
        self.pair_b = (self.pair_a + 1 + np.arange(int(later.sum()))
                       - np.repeat(np.cumsum(later) - later, later))
        pairs = size * (size - 1) // 2
        self.pair_first = (np.cumsum(pairs) - pairs).tolist()
        self.pair_clause = self.lit_clause[self.pair_a]
        self.pair_var_a = self.lit_var[self.pair_a]
        self.pair_var_b = self.lit_var[self.pair_b]
        self.entry_terms = (
            int(np.bincount(self.lit_var)[1:].max(initial=0))
            * (int(self.clause_len.max(initial=0)) + 1))
        self.clause_lits = [c.lits for c in instance.clauses]
        self.falsifies = [[j for j, sign in occ if sign != value]
                          for occ in instance.occurrences
                          for value in (FALSE, TRUE)]
        self.core_mark = [0] * instance.num_clauses
        self.core_value = [0] * (n + 1)
        self.core_reason = [0] * (n + 1)
        self.core_stamp = 0
        self._view: NodeView | None = None
        self._color_variables()

    def _color_variables(self) -> None:
        """DSatur coloring of the variable-interaction graph (Brelaz, CACM
        1979), and the per-class entry tables built from it.

        The next variable colored is the uncolored one whose neighbours use
        the most distinct colors, ties broken by most neighbours and then by
        lowest index; it takes the smallest color no neighbour has.  The
        result is deterministic and uses two colors on a bipartite graph.
        """
        n = self.instance.num_vars
        # a truth entry leads its clause, so only pair_a can be one
        real = self.pair_var_a > 0
        neighbours: list[set[int]] = [set() for _ in range(n + 1)]
        for a, b in zip(self.pair_var_a[real].tolist(),
                        self.pair_var_b[real].tolist()):
            neighbours[a].add(b)
            neighbours[b].add(a)
        color = [-1] * (n + 1)
        color[0] = 0
        # the distinct colors among each variable's colored neighbours
        seen: list[set[int]] = [set() for _ in range(n + 1)]
        # lazy heap: a variable's newest entry has its current saturation
        heap = [(0, -len(neighbours[v]), v) for v in range(1, n + 1)]
        heapq.heapify(heap)
        while heap:
            _, _, v = heapq.heappop(heap)
            if color[v] >= 0:
                continue
            c = 0
            while c in seen[v]:
                c += 1
            color[v] = c
            for u in neighbours[v]:
                if color[u] < 0 and c not in seen[u]:
                    seen[u].add(c)
                    heapq.heappush(heap, (-len(seen[u]), -len(neighbours[u]),
                                          u))
        self.color = np.array(color, dtype=np.intp)
        entries = np.flatnonzero(self.lit_var > 0)
        var = self.lit_var[entries]
        entries = entries[np.lexsort((var, self.color[var]))]
        bounds = np.searchsorted(self.color[self.lit_var[entries]],
                                 np.arange(max(color) + 2))
        self.class_entries = [entries[lo:hi]
                              for lo, hi in zip(bounds[:-1], bounds[1:])]

    def mark(self) -> int:
        """Trail length snapshot for a later unassign_to."""
        return len(self.trail)

    def free_vars(self) -> list[int]:
        a = self.assignment
        return [v for v in range(1, self.instance.num_vars + 1) if a[v] == FREE]

    def path(self, start: int = 0) -> tuple:
        """The trail from position `start` on as (variable, value) steps."""
        return tuple((v, self.assignment[v]) for v, _ in self.trail[start:])

    def column_mask(self) -> np.ndarray:
        """The node's relaxation columns: truth column 0 and the free ones."""
        columns = np.array(self.assignment) == FREE
        columns[0] = True
        return columns

    def view(self) -> NodeView:
        """The node's NodeView, built on the first call and kept until
        assign or unassign_to moves the trail."""
        if self._view is not None:
            return self._view
        active = np.array(self.clause_status) == ACTIVE
        columns = self.column_mask()
        # intp also when there are no clauses (np.array([]) is float64)
        free = np.where(active, np.array(self.clause_free, dtype=np.intp), 0)
        price = self.price_rows.take(self.price_first + free, axis=0)
        self._view = NodeView(
            active, columns, active[self.lit_clause] & columns[self.lit_var],
            price, np.where(self.lit_var == 0,
                            price[:, 1].take(self.lit_clause), self.lit_sign))
        for array in self._view:
            array.setflags(write=False)
        return self._view


class WatchedStack:
    """The instrumentation counter of assign() and unassign_to().

    The undo records live on the node's trail, so any counter can roll a
    node back.  assign() walks the assigned variable's occurrence list
    once; clauses that are already satisfied or falsified cost a single
    status read (the O(1) skip), so a full assignment of every variable
    touches exactly nnz occurrence entries.
    """

    __slots__ = ("touch_count",)

    def __init__(self):
        self.touch_count = 0


def assign(state: NodeState, ws: WatchedStack, var: int, value: int):
    """Assign a free variable and update every incident non-satisfied clause.

    Returns the list of (clause_index, new_status) moves, in occurrence
    order, so callers can maintain derived caches: every moved clause has
    one free literal fewer, and new_status == ACTIVE means only that moved.
    """
    if state.assignment[var] != FREE:
        raise ValueError(f"variable {var} is not free")
    if value not in (TRUE, FALSE):
        raise ValueError(f"bad assignment value {value}")
    inst = state.instance
    free = state.clause_free
    status = state.clause_status
    moved: list[tuple[int, int]] = []
    occurrences = inst.occurrences[var]
    for j, sign in occurrences:
        if status[j] != ACTIVE:
            continue
        free[j] -= 1
        if sign == value:
            status[j] = SATISFIED
            moved.append((j, SATISFIED))
        elif free[j] == 0:
            status[j] = FALSIFIED
            state.base_unsat += 1
            moved.append((j, FALSIFIED))
        else:
            moved.append((j, ACTIVE))
    ws.touch_count += len(occurrences)
    state.assignment[var] = value
    state.trail.append((var, moved))
    state._view = None
    state.free_count -= 1
    return moved


def unassign_to(state: NodeState, ws: WatchedStack, trail_mark: int) -> None:
    """Roll the trail back to a recorded mark; exact involution of assign()."""
    if trail_mark > len(state.trail) or trail_mark < 0:
        raise ValueError(f"bad trail mark {trail_mark}")
    free = state.clause_free
    status = state.clause_status
    if trail_mark < len(state.trail):
        state._view = None
    while len(state.trail) > trail_mark:
        var, moved = state.trail.pop()
        ws.touch_count += len(moved)
        for j, new_status in moved:
            free[j] += 1
            if new_status != ACTIVE:
                status[j] = ACTIVE
                if new_status == FALSIFIED:
                    state.base_unsat -= 1
        state.assignment[var] = FREE
        state.free_count += 1


def evaluate(instance: Instance, values) -> int:
    """Count clauses with every literal false under a full +/-1 assignment.

    values is indexed by variable (slot 0 unused).  Runs one pass over the
    clause-literal relation, reading values once per literal.
    """
    unsat = instance.empty_count
    for cl in instance.clauses:
        satisfied = False
        for lit in cl.lits:
            if lit > 0:
                if values[lit] > 0:
                    satisfied = True
            elif values[-lit] < 0:
                satisfied = True
        if not satisfied:
            unsat += 1
    return unsat
