"""CNF instances and the mutable assignment machinery shared by all search nodes.

Literals are signed DIMACS integers: +v for the variable, -v for its negation.
An Instance is immutable after construction; NodeState/WatchedStack are the
single-owner mutable view a search worker drives via assign()/unassign_to().

Clause bookkeeping follows the coefficient-move picture: every clause carries
an integer accumulator s0 that starts at -1 and absorbs +sign/-sign each
time one of its literals is assigned true/false.  A clause is falsified exactly
when s0 reaches -1 - L (all L literals assigned, none true).  While it is
active, each literal gone false has taken 1 off s0, so the clause has
f = L + 1 + s0 free literals.  The relaxation prices it as a clause of its
current length L' = min(L, max(f, 2)) (current_length, the one place the
rule is computed) with L' - f literals false: its truth coefficient is
-1 - (L' - f) = s0 + L - L' and its weight 1/(4L').  That is s0 itself
for a clause of at most two literals or with none false; a longer clause
with some literal false has -1 while f >= 2 and -2 at f = 1 (see sdp).
NodeState.view applies the rule to every clause at once, and
NodeState.price tabulates it per (L, f) for the scalar steps of a DFS.
"""

from __future__ import annotations

import heapq
import itertools
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
    empty clauses are counted separately (always falsified).
    """

    __slots__ = ("num_vars", "clauses", "occurrences", "lengths",
                 "tautology_count", "empty_count")

    def __init__(self, num_vars: int, clauses: list[Clause],
                 tautology_count: int = 0, empty_count: int = 0):
        self.num_vars = num_vars
        self.clauses = clauses
        self.lengths = tuple(c.length for c in clauses)
        self.tautology_count = tautology_count
        self.empty_count = empty_count
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


def instance_from_clauses(num_vars: int, clause_lists) -> Instance:
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
    return Instance(num_vars, clauses, tautologies, empties)


def parse_dimacs(text: str) -> Instance:
    """Parse DIMACS CNF or uniform-weight WCNF text into an Instance.

    Comment lines start with 'c'; a '%' line terminates the file (SATLIB
    convention).  WCNF clauses must all carry the same weight, below the
    header's `top` if it gives one -- weighted and partial MAXSAT (a clause
    of weight >= top is hard) are rejected rather than silently mis-solved.
    """
    num_vars = None
    is_wcnf = False
    top = None
    clause_lists: list[list[int]] = []
    weight_seen: int | None = None
    current: list[int] = []
    expecting_weight = False

    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("%"):
            break
        if stripped.startswith("p"):
            if num_vars is not None:
                raise ParseError("duplicate problem line")
            tokens = stripped.split()
            if len(tokens) < 4 or tokens[1] not in ("cnf", "wcnf"):
                raise ParseError(f"malformed header: {stripped!r}")
            try:
                num_vars = int(tokens[2])
                int(tokens[3])
            except ValueError as exc:
                raise ParseError(f"malformed header: {stripped!r}") from exc
            if num_vars < 0:
                raise ParseError("negative variable count")
            is_wcnf = tokens[1] == "wcnf"
            if is_wcnf and len(tokens) > 4:
                if not tokens[4].isdecimal() or int(tokens[4]) <= 0:
                    raise ParseError(f"bad top weight {tokens[4]!r}")
                top = int(tokens[4])
            expecting_weight = is_wcnf
            continue
        if num_vars is None:
            raise ParseError(f"clause data before problem line: {stripped!r}")
        for token in stripped.split():
            if expecting_weight:
                try:
                    w = int(token)
                except ValueError as exc:
                    raise ParseError(f"bad weight token {token!r}") from exc
                if w <= 0:
                    raise ParseError(f"non-positive clause weight {w}")
                if top is not None and w >= top:
                    raise ParseError(f"hard clause (weight {w} >= top {top}):"
                                     " partial MAXSAT unsupported")
                if weight_seen is None:
                    weight_seen = w
                elif w != weight_seen:
                    raise ParseError(
                        "non-uniform soft weights: weighted MAXSAT unsupported")
                expecting_weight = False
                continue
            try:
                lit = int(token)
            except ValueError as exc:
                raise ParseError(f"bad literal token {token!r}") from exc
            if lit == 0:
                clause_lists.append(current)
                current = []
                expecting_weight = is_wcnf
            else:
                current.append(lit)
    if num_vars is None:
        raise ParseError("missing problem line")
    if current:
        raise ParseError("last clause not zero-terminated")
    return instance_from_clauses(num_vars, clause_lists)


def current_length(length, free):
    """The length an active clause of `length` literals with `free` of them
    free is priced at, elementwise over arrays: min(length, max(free, 2)).
    The one definition of the rule; NodeState's price table and view
    read it."""
    return np.minimum(length, np.maximum(free, 2))


class NodeView(NamedTuple):
    """A node as arrays (NodeState.view): per clause, whether it is active
    and its current length L' and weight 1/(4L') (meaningful while active);
    the column mask; per literal-table entry, whether it is live (clause
    active, column in the node) and its coefficient: its clause's truth
    coefficient s0 + L - L' on a truth entry, the literal's sign elsewhere."""

    active: np.ndarray
    columns: np.ndarray
    live: np.ndarray
    length: np.ndarray
    weight: np.ndarray
    coeff: np.ndarray


class NodeState:
    """Mutable node record: the trail (the node's path) and clause counters.

    Invariant: s0[j] = -1 + sum over assigned literals of sign*value, and
    base_unsat counts FALSIFIED clauses plus the instance's empty clauses.

    The literal table lists, clause by clause, a truth entry (variable 0,
    sign 0, the clause's truth coefficient) and then each literal: its
    clause, variable and sign.  With the clause lengths and every pair of
    entries of one clause (pair_a before pair_b), it turns whole-node sums
    into array arithmetic masked by the active clauses and free columns.  A
    clause of length L has L(L+1)/2 pairs, in a run that starts at
    `pair_first[j]`.  view gives the node's masks, every clause's current
    length L' and weight 1/(4L') and every entry's coefficient as arrays.

    For the scalar steps of a DFS below a solved root the node keeps each
    clause's literal tuple (`clause_lits`) and one price table as plain
    Python values: `price[L][f]`, for a clause of L literals with f >= 1
    free, is the tuple (L', t, w, t w, (t^2 + f) w, (L' - 1)^2 w,
    t^2 + f - (L' - 1)^2) with L' = current_length(L, f), truth
    coefficient t = f - 1 - L' and weight w = 1/(4L'): what the clause adds
    to the folded diagonal and to the loss constants, and the integer part
    of its loss at unit columns.  `price[L][0]` is all zeros, the price of
    a clause that left the active set.  Every step prices a moved clause
    as the difference of two entries (bounds.ShiftLedger, sdp.LossTracker,
    sdp.ZCache); rows exist for the lengths the formula has.

    The variables are also colored by DSatur so that two variables sharing
    a clause never share a color.  A proper coloring of the whole formula
    stays proper on every subproblem, so it is computed once.  Per color
    class the node keeps its literal entries sorted by variable
    (`class_entries`); `color[v]` is the class of variable v.
    """

    __slots__ = ("instance", "assignment", "trail", "s0", "clause_status",
                 "base_unsat", "free_count", "lit_clause", "lit_var",
                 "lit_sign", "clause_len", "price", "pair_a", "pair_b",
                 "pair_first", "clause_lits", "color", "class_entries")

    def __init__(self, instance: Instance):
        n = instance.num_vars
        self.instance = instance
        self.assignment = [FREE] * (n + 1)
        self.assignment[0] = TRUE  # truth slot, never reassigned
        self.trail: list[int] = []
        self.s0 = [-1] * instance.num_clauses
        self.clause_status = [ACTIVE] * instance.num_clauses
        self.base_unsat = instance.empty_count
        self.free_count = n

        self.clause_len = np.array(instance.lengths, dtype=np.intp)
        self.price = [[] for _ in range(max(instance.lengths, default=0) + 1)]
        for length in set(instance.lengths):
            row = self.price[length] = [(0, 0, 0.0, 0.0, 0.0, 0.0, 0)]
            free = np.arange(1, length + 1)
            for f, cur in zip(free.tolist(),
                              current_length(length, free).tolist()):
                t = f - 1 - cur
                w = 1.0 / (4.0 * cur)
                row.append((cur, t, w, t * w, (t * t + f) * w,
                            (cur - 1) ** 2 * w, t * t + f - (cur - 1) ** 2))
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
        self.clause_lits = [c.lits for c in instance.clauses]
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
        real = self.lit_var[self.pair_a] > 0
        neighbours: list[set[int]] = [set() for _ in range(n + 1)]
        for a, b in zip(self.lit_var[self.pair_a[real]].tolist(),
                        self.lit_var[self.pair_b[real]].tolist()):
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
        return tuple((v, self.assignment[v]) for v in self.trail[start:])

    def column_mask(self) -> np.ndarray:
        """The node's relaxation columns: truth column 0 and the free ones."""
        columns = np.array(self.assignment) == FREE
        columns[0] = True
        return columns

    def view(self) -> NodeView:
        """The node's NodeView, from scratch; a clause has L + 1 + s0 free."""
        active = np.array(self.clause_status) == ACTIVE
        columns = self.column_mask()
        s0 = np.array(self.s0, dtype=np.intp)
        length = self.clause_len
        current = current_length(length, length + 1 + s0)
        truth = s0 + (length - current)
        return NodeView(
            active, columns, active[self.lit_clause] & columns[self.lit_var],
            current, 1.0 / (4.0 * current),
            np.where(self.lit_var == 0, truth[self.lit_clause], self.lit_sign))


class WatchedStack:
    """Per-assignment undo records plus the instrumentation counter.

    assign() walks the assigned variable's occurrence list once; clauses that
    are already satisfied or falsified cost a single status read (the O(1)
    skip), so a full assignment of every variable touches exactly nnz
    occurrence entries.
    """

    __slots__ = ("undo", "touch_count")

    def __init__(self):
        self.undo: list[list[tuple[int, int, int]]] = []
        self.touch_count = 0


def assign(state: NodeState, ws: WatchedStack, var: int, value: int):
    """Assign a free variable and update every incident non-satisfied clause.

    Returns the list of (clause_index, sign, new_status) moves so callers can
    maintain derived caches; new_status == ACTIVE means only s0 moved.
    """
    if state.assignment[var] != FREE:
        raise ValueError(f"variable {var} is not free")
    if value not in (TRUE, FALSE):
        raise ValueError(f"bad assignment value {value}")
    inst = state.instance
    s0 = state.s0
    status = state.clause_status
    lengths = inst.lengths
    moved: list[tuple[int, int, int]] = []
    occurrences = inst.occurrences[var]
    for j, sign in occurrences:
        if status[j] != ACTIVE:
            continue
        s0[j] += value * sign
        if value * sign > 0:
            status[j] = SATISFIED
            moved.append((j, sign, SATISFIED))
        elif s0[j] == -1 - lengths[j]:
            status[j] = FALSIFIED
            state.base_unsat += 1
            moved.append((j, sign, FALSIFIED))
        else:
            moved.append((j, sign, ACTIVE))
    ws.touch_count += len(occurrences)
    state.assignment[var] = value
    state.trail.append(var)
    state.free_count -= 1
    ws.undo.append(moved)
    return moved


def unassign_to(state: NodeState, ws: WatchedStack, trail_mark: int) -> None:
    """Roll the trail back to a recorded mark; exact involution of assign()."""
    if trail_mark > len(state.trail) or trail_mark < 0:
        raise ValueError(f"bad trail mark {trail_mark}")
    s0 = state.s0
    status = state.clause_status
    while len(state.trail) > trail_mark:
        var = state.trail.pop()
        value = state.assignment[var]
        moved = ws.undo.pop()
        ws.touch_count += len(moved)
        for j, sign, new_status in reversed(moved):
            s0[j] -= value * sign
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
