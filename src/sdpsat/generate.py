"""Random MAX2SAT/MAX3SAT instance generation and DIMACS rendering."""

from __future__ import annotations

import numpy as np

from .instance import Instance, instance_from_clauses


def random_clauses(num_vars: int, num_clauses: int, length: int,
                   rng: np.random.Generator) -> list[list[int]]:
    """Uniform clauses: `length` distinct variables each, signs fair coins.
    Raises ValueError on a negative clause count or a length below 1 or
    above num_vars."""
    if num_clauses < 0:
        raise ValueError(f"negative clause count {num_clauses}")
    if length < 1:
        raise ValueError(f"clause length {length} is below 1")
    if length > num_vars:
        raise ValueError(f"clause length {length} exceeds {num_vars} variables")
    clauses = []
    for _ in range(num_clauses):
        vars_ = rng.choice(num_vars, size=length, replace=False) + 1
        signs = rng.integers(0, 2, size=length) * 2 - 1
        clauses.append([int(s * v) for v, s in zip(vars_, signs)])
    return clauses


def render_dimacs(num_vars: int, clauses: list[list[int]]) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    for cl in clauses:
        lines.append(" ".join(str(lit) for lit in cl) + " 0")
    return "\n".join(lines) + "\n"


def random_instance(num_vars: int, num_clauses: int, length: int,
                    seed: int) -> Instance:
    rng = np.random.default_rng(seed)
    return instance_from_clauses(
        num_vars, random_clauses(num_vars, num_clauses, length, rng))
