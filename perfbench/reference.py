"""Exact reference optima that share no code with the solver.

Three sources, cross-checked wherever more than one reaches:

* `sdpsat.oracle.brute_force_dense`, the package's dense enumeration, for
  formulas with at most DENSE_CAP variables;
* an exact MILP solved by HiGHS through `scipy.optimize.milp`, built from
  the benchmark's own clause lists (scipy is not a package dependency, so
  this source is optional);
* the stored optima of the default seed's formulas in
  `data/reference_seed0.json`, which keep seed 0 checkable without scipy.

Computed references are cached per formula digest under the work directory
of the checkout, so a seed that is run again is checked without solving its
references again.

Regenerate the stored optima after a change to the generator or the pool
sizes with `python3 perfbench/reference.py` from the repository root.  The
same script with `--worker` is the reference worker process: it reads a JSON
list of jobs on stdin and writes their references as JSON on stdout.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

DENSE_CAP = 26
WORKERS = 2
STORED = Path(__file__).resolve().parent / "data" / "reference_seed0.json"


def have_milp() -> bool:
    try:
        from scipy.optimize import milp  # noqa: F401
    except ImportError:
        return False
    return True


def milp_min_unsat(num_vars: int, clauses) -> int:
    """Minimum unsat count: binary x_v, slack y_j >= 1 - (true literals)."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    m = len(clauses)
    rows, cols, vals, lower = [], [], [], []
    for j, clause in enumerate(clauses):
        negated = 0
        for lit in clause:
            rows.append(j)
            cols.append(abs(lit) - 1)
            vals.append(1.0 if lit > 0 else -1.0)
            negated += lit < 0
        rows.append(j)
        cols.append(num_vars + j)
        vals.append(1.0)
        lower.append(1.0 - negated)
    matrix = coo_matrix((vals, (rows, cols)), shape=(m, num_vars + m))
    cost = np.concatenate([np.zeros(num_vars), np.ones(m)])
    # y stays continuous: with integral x its optimum is integral anyway
    integrality = np.concatenate([np.ones(num_vars), np.zeros(m)])
    res = milp(cost, constraints=LinearConstraint(matrix, lower, np.inf),
               integrality=integrality, bounds=Bounds(0.0, 1.0))
    if not res.success:
        raise RuntimeError(f"MILP reference failed: {res.message}")
    return int(round(res.fun))


def dense_min_unsat(text: str) -> int:
    from sdpsat.instance import parse_dimacs
    from sdpsat.oracle import brute_force_dense
    return brute_force_dense(parse_dimacs(text))[0]


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _solve_job(job):
    num_vars, clauses, text, use_milp = job
    out = {}
    if num_vars <= DENSE_CAP:
        out["brute_force_dense"] = dense_min_unsat(text)
    if use_milp:
        out["milp"] = milp_min_unsat(num_vars, clauses)
    return out


def load_stored(workload: str) -> dict:
    if not STORED.exists():
        return {}
    return json.loads(STORED.read_text()).get(workload, {})


def _computed(formulas, cache_dir: Path | None) -> list[dict]:
    """MILP and dense references, from the cache or from WORKERS processes."""
    use_milp = have_milp()
    cache_file = cache_dir / "references.json" if cache_dir else None
    cache = {}
    if cache_file is not None and cache_file.exists():
        cache = json.loads(cache_file.read_text())
    digests = [text_digest(f.text) for f in formulas]
    todo = [i for i, d in enumerate(digests)
            if d not in cache or (use_milp and "milp" not in cache[d])]
    jobs = [(formulas[i].num_vars, formulas[i].clauses, formulas[i].text,
             use_milp) for i in todo]
    if jobs:
        for i, refs in zip(todo, _run_workers(jobs)):
            cache[digests[i]] = refs
        if cache_file is not None:
            cache_dir.mkdir(exist_ok=True)
            partial = cache_file.with_suffix(".tmp")
            partial.write_text(json.dumps(cache))
            partial.replace(cache_file)
    return [dict(cache[d]) for d in digests]


def _run_workers(jobs: list) -> list[dict]:
    """Solve jobs in WORKERS child processes, job i in worker i % WORKERS."""
    chunks = [jobs[w::WORKERS] for w in range(min(WORKERS, len(jobs)))]
    procs = []
    try:
        for chunk in chunks:
            proc = subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--worker"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            procs.append(proc)
            # a worker reads all of stdin before it writes anything
            proc.stdin.write(json.dumps(chunk))
            proc.stdin.close()
        outputs = [json.loads(proc.stdout.read()) for proc in procs]
        codes = [proc.wait() for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    if any(codes):
        raise RuntimeError(f"a reference worker failed: exit codes {codes}")
    found = [None] * len(jobs)
    for w, output in enumerate(outputs):
        found[w::len(outputs)] = output
    return found


def references(workload: str, seed: int, formulas,
               cache_dir: Path | None = None) -> list[dict]:
    """Per formula, a dict source -> optimum from every source that reaches.

    The caller keeps this outside every timed region.
    """
    found = _computed(formulas, cache_dir)
    stored = load_stored(workload) if seed == 0 else {}
    for f, refs in zip(formulas, found):
        entry = stored.get(f.name)
        if entry is not None:
            digest, optimum = entry
            # a digest mismatch means the data file is stale: report it as a
            # disagreement instead of trusting it
            refs["stored"] = optimum if digest == text_digest(f.text) else -1
    return found


def settle(refs: dict):
    """(optimum, problem): the agreed optimum, or None and why not."""
    values = set(refs.values())
    if not values:
        return None, "no reference reaches this formula"
    if len(values) > 1:
        return None, f"references disagree: {refs}"
    return values.pop(), None


def _write_stored() -> None:
    """Recompute the default seed's optima for both complete workloads."""
    import workloads

    data = {}
    for name, spec in workloads.WORKLOADS.items():
        if spec.mode != "complete":
            continue
        pool = workloads.formula_pool(name, 0, workloads.DEFAULT_SECONDS)
        found = references(name, -1, pool)
        data[name] = {}
        for f, refs in zip(pool, found):
            optimum, problem = settle(refs)
            if problem:
                raise SystemExit(f"{f.name}: {problem}")
            data[name][f.name] = [text_digest(f.text), optimum]
    STORED.parent.mkdir(exist_ok=True)
    blocks = []
    for name, entries in sorted(data.items()):
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                          for k, v in sorted(entries.items()))
        blocks.append(f"{json.dumps(name)}: {{\n{rows}\n}}")
    STORED.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {STORED}", file=sys.stderr)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    if sys.argv[1:] == ["--worker"]:
        json.dump([_solve_job(job) for job in json.load(sys.stdin)],
                  sys.stdout)
    elif not have_milp():
        raise SystemExit("scipy.optimize.milp is needed to write the data")
    else:
        _write_stored()
