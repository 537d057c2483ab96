"""The benchmark's own seeded instance generator and clause check.

Nothing here imports sdpsat: the workloads stay fixed if the package's
generator changes, and the clause check that validates every answer shares
no code with the solver.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Formula:
    """One generated instance: variables, clauses and their DIMACS text."""

    name: str
    num_vars: int
    clauses: tuple
    text: str

    @property
    def num_lits(self) -> int:
        return sum(len(c) for c in self.clauses)


def random_clauses(rng: random.Random, num_vars: int, num_clauses: int,
                   length: int) -> tuple:
    """Uniform clauses over `length` distinct variables with fair signs."""
    clauses = []
    for _ in range(num_clauses):
        picked = rng.sample(range(1, num_vars + 1), length)
        clauses.append(tuple(v if rng.getrandbits(1) else -v for v in picked))
    return tuple(clauses)


def render_dimacs(num_vars: int, clauses) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines.extend(" ".join(map(str, c)) + " 0" for c in clauses)
    return "\n".join(lines) + "\n"


def make_pool(workload: str, seed: int, sizes, ratio: int, length: int,
              count: int) -> list[Formula]:
    """`count` formulas cycling through `sizes`, all drawn from one seed.

    The stream is a pure function of (workload, seed): the same seed gives
    the same formulas in the same order.  Sizes alternate so that any prefix
    of the pool holds every size in equal measure.
    """
    rng = random.Random(f"sdpsat-perfbench/{workload}/{seed}")
    pool = []
    for i in range(count):
        n = sizes[i % len(sizes)]
        clauses = random_clauses(rng, n, ratio * n, length)
        pool.append(Formula(f"{workload}-s{seed}-{i}-n{n}", n, clauses,
                            render_dimacs(n, clauses)))
    return pool


def count_unsat(clauses, values) -> int:
    """Clauses with every literal false; values[v] is +1/-1 for variable v."""
    unsat = 0
    for clause in clauses:
        if not any((values[abs(lit)] > 0) == (lit > 0) for lit in clause):
            unsat += 1
    return unsat
