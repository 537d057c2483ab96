"""Independent exact references for small instances.

Two brute-force enumerations that share no code path with the solver (and not
with each other): a Gray-code walk with incremental clause counters, and a
chunked dense enumeration in numpy.  Plus the dense cost-matrix probe used to
audit SDP objectives and dual certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import ACTIVE, FREE, Instance, NodeState

BRUTE_FORCE_CAP = 26
DENSE_CHUNK_BITS = 20
DENSE_CHECK_CAP = 200


def _gray_min_unsat(instance: Instance, values: list[int], free: list[int]):
    """Gray-code enumeration over `free`, other slots of `values` fixed.

    Starts from the given values with every free slot forced to -1; each step
    flips one variable and updates per-clause true-literal counters, so a step
    costs only the flipped variable's occurrence list.
    """
    for v in free:
        values[v] = -1
    true_count = []
    zero_clauses = 0
    for cl in instance.clauses:
        t = 0
        for lit in cl.lits:
            if (lit > 0) == (values[abs(lit)] > 0):
                t += 1
        true_count.append(t)
        if t == 0:
            zero_clauses += 1
    best = zero_clauses + instance.empty_count
    witness = tuple(values)
    occ = instance.occurrences
    for step in range(1, 1 << len(free)):
        var = free[(step & -step).bit_length() - 1]
        values[var] = -values[var]
        val = values[var]
        for j, sign in occ[var]:
            if sign * val > 0:
                true_count[j] += 1
                if true_count[j] == 1:
                    zero_clauses -= 1
            else:
                true_count[j] -= 1
                if true_count[j] == 0:
                    zero_clauses += 1
        unsat = zero_clauses + instance.empty_count
        if unsat < best:
            best = unsat
            witness = tuple(values)
    return best, witness


def brute_force(instance: Instance):
    """Exact (min_unsat, witness) by Gray-code enumeration; n <= 26 only."""
    n = instance.num_vars
    if n > BRUTE_FORCE_CAP:
        raise ValueError(f"brute_force capped at n={BRUTE_FORCE_CAP}, got {n}")
    values = [1] * (n + 1)
    return _gray_min_unsat(instance, values, list(range(1, n + 1)))


def min_unsat_completion(instance: Instance, values) -> int:
    """Exact minimum unsat over all completions of a partial assignment."""
    work = list(values)
    free = [v for v in range(1, instance.num_vars + 1) if work[v] == FREE]
    if len(free) > BRUTE_FORCE_CAP:
        raise ValueError(f"too many free variables ({len(free)})")
    best, _ = _gray_min_unsat(instance, work, free)
    return best


def brute_force_dense(instance: Instance):
    """Exact (min_unsat, witness) by bit-sliced enumeration (numpy path).

    Assignment code c (bit i of c set: variable i + 1 true) is bit c % 64
    of word c // 64; 2**DENSE_CHUNK_BITS codes are enumerated at a time.
    Each variable is a uint64 word array: variables 1-6 a fixed bit
    pattern, the others all ones or all zeros by word.  A clause's unsat
    bits are the complement of the OR of its literals, and the unsat count
    of every assignment is a bit-sliced binary counter, one word array per
    bit, added to by ripple carry.  Its minimum and the first assignment
    that reaches it are read from the top bit down.
    """
    n = instance.num_vars
    if n > BRUTE_FORCE_CAP:
        raise ValueError(f"brute_force_dense capped at n={BRUTE_FORCE_CAP}")
    if n == 0:
        return instance.empty_count, (1,)
    ones = np.uint64(2 ** 64 - 1)
    # variables 1-6 by the bit position within a word
    low = [np.uint64(sum(1 << b for b in range(64) if (b >> i) & 1))
           for i in range(min(n, 6))]
    # in the one word of n < 6 variables only the first 2**n codes exist
    valid = np.uint64(2 ** (1 << n) - 1) if n < 6 else ones
    planes = len(instance.clauses).bit_length()
    total = 1 << max(n - 6, 0)
    step = 1 << (DENSE_CHUNK_BITS - 6)
    best = None
    best_code = 0
    for base in range(0, total, step):
        words = np.arange(base, min(base + step, total), dtype=np.uint64)
        column = low + [((words >> np.uint64(i - 6)) & np.uint64(1)) * ones
                        for i in range(6, n)]
        count = [np.zeros(len(words), dtype=np.uint64)
                 for _ in range(planes)]
        for added, cl in enumerate(instance.clauses, 1):
            sat = np.zeros(len(words), dtype=np.uint64)
            for lit in cl.lits:
                col = column[abs(lit) - 1]
                sat |= col if lit > 0 else ~col
            carry = ~sat
            for plane in count[:added.bit_length()]:
                plane ^= carry
                carry &= ~plane
        reach = np.full(len(words), valid)
        unsat = 0
        for bit in reversed(range(planes)):
            zero = reach & ~count[bit]
            if zero.any():
                reach = zero
            else:
                unsat |= 1 << bit
        if best is None or unsat < best:
            first = int(np.flatnonzero(reach)[0])
            mask = int(reach[first])
            best = unsat
            best_code = (base + first) * 64 + (mask & -mask).bit_length() - 1
    witness = tuple(
        [1] + [1 if (best_code >> i) & 1 else -1 for i in range(n)])
    return best + instance.empty_count, witness


@dataclass
class DenseCheck:
    """Dense audit view of a node's relaxation."""

    index: list[int]           # column order: 0 then the free variables
    cost: np.ndarray           # zero-diagonal cost matrix over `index`
    offset: float              # folded diagonal plus base_unsat minus the
                               # per-clause loss constants
    objective: float | None    # quadratic-form objective at the given factor
    min_eig: float | None      # smallest eigenvalue of cost + diag(lam)


def dense_sdp_check(state: NodeState, factor=None, lam=None) -> DenseCheck:
    """Materialize the node's cost matrix and recompute objective/feasibility.

    The cost matrix is built clause-wise over active clauses, each priced
    at its current length: a clause of L literals with f free is a clause
    of L' = min(L, max(f, 2)) literals, all but the f free ones false, so
    its truth coefficient is -1 - (L' - f), its weight 1/(4L') and its
    constant (L' - 1)^2 / (4L').  The diagonal is zero by construction, with
    the would-be diagonal folded into offset (the solver's convention).
    """
    inst = state.instance
    if inst.num_vars > DENSE_CHECK_CAP:
        raise ValueError(f"dense_sdp_check capped at n={DENSE_CHECK_CAP}")
    index = [0] + state.free_vars()
    pos = {v: p for p, v in enumerate(index)}
    dim = len(index)
    cost = np.zeros((dim, dim))
    offset_terms = [float(state.base_unsat)]
    for j in range(inst.num_clauses):
        if state.clause_status[j] != ACTIVE:
            continue
        cl = inst.clauses[j]
        free = [(pos[abs(lit)], 1.0 if lit > 0 else -1.0) for lit in cl.lits
                if state.assignment[abs(lit)] == FREE]
        length = min(cl.length, max(len(free), 2))
        w = 1.0 / (4.0 * length)
        entries = [(0, float(-1 - (length - len(free))))] + free
        for a, (pa, sa) in enumerate(entries):
            offset_terms.append(sa * sa * w)
            for pb, sb in entries[a + 1:]:
                cost[pa, pb] += sa * sb * w
                cost[pb, pa] += sa * sb * w
        offset_terms.append(-(length - 1) ** 2 * w)
    offset = math.fsum(offset_terms)

    objective = None
    if factor is not None:
        sub = factor.cols[index]
        gram = sub @ sub.T
        objective = float((cost * gram).sum()) + offset

    min_eig = None
    if lam is not None:
        lam_sub = np.array([lam[v] for v in index], dtype=float)
        min_eig = float(np.linalg.eigvalsh(cost + np.diag(lam_sub))[0])
    return DenseCheck(index, cost, offset, objective, min_eig)
