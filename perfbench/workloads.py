"""The three workloads: generation, timed runs, answer checks and metrics.

Complete workloads call `sdpsat.search.solve_complete` in this process, one
formula after another (a closed loop with one client), until --seconds have
passed.  Host speed is calibrated between stretches of work (speed.py) and
work times are reported in reference seconds.  The anytime workload runs `python3 -m sdpsat solve --mode
incomplete` as a child process per formula and timestamps each `o` line as
it arrives.  Reference optima and answer checks run after the timed loop.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from instances import count_unsat, make_pool
from speed import Scaler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SECONDS = 30

# A complete solve that reaches this limit is a failure; the limit is a
# safety valve and is not meant to fire on these workloads.
COMPLETE_LIMIT_S = 60.0
TAIL_BEYOND = 10
# complete-mode formulas are solved in stretches of at least this many
# seconds between two host-speed calibrations
STRETCH_S = 0.25
SETUP_REPEATS = 5
STARTUP_REPEATS = 3


@dataclass(frozen=True)
class Spec:
    """mode, formula sizes, clauses per variable, clause length.

    pool_per_s formulas per second of --seconds are generated (complete
    workloads stop early if they run out); traced_per_s formulas per second
    of --seconds form the fixed set of the traced run.  deadline_probe_s is
    the time limit of the deadline-overrun probe.  tail_pct is the highest
    of the percentiles 50/75/90/99 that keeps at least TAIL_BEYOND formulas
    beyond it in a run on the parent code; it is fixed per workload so that
    the tail metric does not change meaning between runs.
    """

    mode: str
    sizes: tuple
    ratio: int
    length: int
    pool_per_s: float
    traced_per_s: float
    deadline_probe_s: float
    tail_pct: float
    timeout: float = 0.0


WORKLOADS = {
    "complete-max2sat": Spec("complete", (28,), 4, 2, 10.0, 2.5, 0.05, 90.0),
    "complete-max3sat": Spec("complete", (14,), 7, 3, 4.0, 0.8, 0.05, 75.0),
    "anytime-max2sat": Spec("anytime", (400,), 4, 2, 0.0, 0.0, 0.5, 100.0,
                            timeout=5.0),
}


def anytime_counts(seconds: float) -> tuple[int, int]:
    """(processes run to the deadline, first-`o` probes) in a run.

    A probe is the same CLI process stopped at its first `o` line; probes
    add samples of the time to the first incumbent, which varies more than
    the other anytime metrics, at under a third of the cost of a full
    process.
    """
    return max(1, round(seconds / 10.0)), max(1, round(seconds / 3.0))


def pool_size(spec: Spec, seconds: float) -> int:
    if spec.mode == "anytime":
        return sum(anytime_counts(seconds))
    return max(TAIL_BEYOND + 1, math.ceil(seconds * spec.pool_per_s))


def formula_pool(name: str, seed: int, seconds: float):
    spec = WORKLOADS[name]
    return make_pool(name, seed, spec.sizes, spec.ratio, spec.length,
                     pool_size(spec, seconds))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


# -- statistics ----------------------------------------------------------

def quantile(values, pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    xs = sorted(values)
    pos = pct / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values, pct: float):
    """(percentile, value) at pct, or at the maximum when fewer than
    TAIL_BEYOND samples lie beyond pct."""
    if len(values) * (1.0 - pct / 100.0) >= TAIL_BEYOND:
        return pct, quantile(values, pct)
    return 100.0, max(values)


# -- set-up --------------------------------------------------------------

def measure_setup(name: str, seed: int, seconds: float) -> float:
    """Median set-up time of SETUP_REPEATS fresh processes, each in
    reference seconds from the calibrations before and after it."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
           str(seconds)]
    scaler = Scaler()
    scaler.mark()
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, capture_output=True, text=True,
                             env=child_env(), cwd=ROOT, timeout=120,
                             check=True)
        measured = json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]
        samples.append(measured * scaler.scale(scaler.mark() - 1))
    return statistics.median(samples)


def measure_startup() -> float:
    """Median time from spawning `sdpsat`'s CLI module to its import done."""
    code = ("import time; import sdpsat.cli; "
            "print(repr(time.monotonic()))")
    samples = []
    for _ in range(STARTUP_REPEATS):
        start = time.monotonic()
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=child_env(), cwd=ROOT,
                             timeout=120, check=True)
        samples.append(float(out.stdout.strip()) - start)
    return statistics.median(samples)


# -- complete mode -------------------------------------------------------

@dataclass
class Solved:
    formula: object
    seconds: float
    first_o_s: float | None
    status: str
    best: object
    stats: object
    problems: list
    scale: float = 1.0  # measured to reference seconds

    @property
    def ref_s(self) -> float:
        return self.seconds * self.scale


def solve_one(formula, instance, solve=None) -> Solved:
    from sdpsat.config import SolverConfig
    from sdpsat.search import solve_complete

    solve = solve or solve_complete
    first: list[float] = []

    def on_improve(_incumbent):
        if not first:
            first.append(time.perf_counter())

    start = time.perf_counter()
    best, status, stats = solve(
        instance, SolverConfig(seed=0, time_limit=COMPLETE_LIMIT_S),
        on_improve=on_improve)
    elapsed = time.perf_counter() - start
    return Solved(formula, elapsed, first[0] - start if first else None,
                  status, best, stats, [])


def check_complete(solved: Solved, refs: dict) -> None:
    from reference import settle
    from sdpsat.search import OPTIMUM

    f, best, problems = solved.formula, solved.best, solved.problems
    if solved.status != OPTIMUM:
        problems.append(f"status {solved.status}")
    if best is None:
        problems.append("no incumbent")
        return
    if len(best.assignment) != f.num_vars + 1:
        problems.append("assignment has the wrong length")
        return
    own = count_unsat(f.clauses, best.assignment)
    if own != best.unsat:
        problems.append(f"incumbent re-evaluates to {own}, "
                        f"reported {best.unsat}")
    optimum, why = settle(refs)
    if why:
        problems.append(why)
    elif best.unsat != optimum:
        problems.append(f"reported optimum {best.unsat}, reference {optimum}")


def complete_metrics(solved: list[Solved], wall: float, tail_pct: float):
    """End-to-end metrics of one batch in reference seconds; failures count
    as the time limit.  proved_per_s is correct proofs per reference second
    of solving."""
    times = [s.ref_s if not s.problems else max(s.ref_s, COMPLETE_LIMIT_S)
             for s in solved]
    firsts = [s.first_o_s * s.scale if s.first_o_s is not None
              else COMPLETE_LIMIT_S for s in solved]
    pct, tail_s = tail(times, tail_pct)
    ok = sum(1 for s in solved if not s.problems)
    # a solve without an answer counts as leaving every clause unsat
    unsat = [s.best.unsat if s.best is not None
             else len(s.formula.clauses) for s in solved]
    return {
        "first_o_s": statistics.median(firsts),
        "proof_s.p50": statistics.median(times),
        "proof_s.tail": tail_s,
        "proved_per_s": ok / sum(s.ref_s for s in solved),
        "unsat_at_deadline": statistics.fmean(unsat),
    }, {"instances": len(solved), "tail_percentile": pct,
        "wall_s": wall, "raw_proof_s.p50": statistics.median(
            s.seconds for s in solved)}


def run_complete_batch(pool, instances, seconds):
    """Solve formulas in pool order until `seconds` have passed.

    The first formula is solved once untimed to warm caches.  Each stretch
    of at least STRETCH_S seconds of solves is scaled by the calibrations
    before and after it.
    """
    solve_one(pool[0], instances[0])
    scaler = Scaler()
    solved, marks = [], []
    start = time.perf_counter()
    mark, since = scaler.mark(), start
    for formula, instance in zip(pool, instances):
        now = time.perf_counter()
        if now - start >= seconds:
            break
        if now - since >= STRETCH_S:
            mark, since = scaler.mark(), time.perf_counter()
        solved.append(solve_one(formula, instance))
        marks.append(mark)
    scaler.mark()
    for s, mark in zip(solved, marks):
        s.scale = scaler.scale(mark)
    return solved, time.perf_counter() - start


def check_batches(name: str, seed: int, batches) -> None:
    """Check every answer of every batch against the references."""
    from reference import references

    formulas = {}
    for batch in batches:
        for s in batch:
            formulas[s.formula.name] = s.formula
    ordered = list(formulas.values())
    refs = dict(zip(formulas, references(name, seed, ordered, WORK)))
    for batch in batches:
        for s in batch:
            check_complete(s, refs[s.formula.name])


# -- anytime mode --------------------------------------------------------

@dataclass
class CliRun:
    formula: object
    wall_s: float
    first_o_s: float | None
    last_o: int | None
    stats: dict
    problems: list
    scale: float = 1.0  # measured to reference seconds


def run_cli(formula, timeout: float, trace_out: Path | None = None,
            probe: bool = False) -> CliRun:
    """One `sdpsat solve --mode incomplete` process, checked line by line.

    A probe is killed at its first `o` line; only that line is checked and
    its wall_s is the time to it.
    """
    WORK.mkdir(exist_ok=True)
    path = WORK / f"{formula.name}.cnf"
    path.write_text(formula.text)
    args = ["solve", str(path), "--mode", "incomplete",
            "--timeout", repr(timeout)]
    if trace_out is None:
        cmd = [sys.executable, "-m", "sdpsat", *args]
    else:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_out),
               *args]
    problems: list[str] = []
    o_values: list[int] = []
    first_o = None
    s_lines: list[str] = []
    v_lits: list[int] = []
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(timeout + 120.0, proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            now = time.perf_counter() - start
            tokens = line.split()
            if not tokens:
                continue
            if tokens[0] == "o":
                if len(tokens) != 2 or not tokens[1].lstrip("-").isdigit():
                    problems.append(f"malformed o line {line.strip()!r}")
                    continue
                value = int(tokens[1])
                if o_values and value > o_values[-1]:
                    problems.append(f"o increased {o_values[-1]} -> {value}")
                if first_o is None:
                    first_o = now
                o_values.append(value)
                if probe:
                    break
            elif tokens[0] == "s":
                s_lines.append(" ".join(tokens[1:]))
            elif tokens[0] == "v":
                try:
                    v_lits.extend(int(t) for t in tokens[1:])
                except ValueError:
                    problems.append("malformed v line")
        if probe:
            proc.kill()
        stderr = proc.stderr.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    path.unlink()
    if probe:
        if not o_values:
            problems.append("no o line")
        return CliRun(formula, first_o or wall, first_o,
                      o_values[-1] if o_values else None, {}, problems)

    stats = {}
    for line in stderr.splitlines():
        if line.startswith("stats ") and "=" in line:
            key, _, value = line[6:].partition("=")
            stats[key] = float(value)
    if code != 0:
        problems.append(f"exit code {code}: {stderr.strip()[-200:]}")
    if s_lines != ["UNKNOWN"]:
        problems.append(f"status lines {s_lines}, expected one 's UNKNOWN'")
    if not o_values:
        problems.append("no o line")
    values = [0] * (formula.num_vars + 1)
    for lit in v_lits:
        if lit == 0 or abs(lit) > formula.num_vars or values[abs(lit)]:
            problems.append(f"bad or repeated literal {lit} in v line")
            break
        values[abs(lit)] = 1 if lit > 0 else -1
    else:
        if 0 in values[1:]:
            problems.append("v line does not assign every variable")
        elif o_values:
            own = count_unsat(formula.clauses, values)
            if own != o_values[-1]:
                problems.append(f"v re-evaluates to {own}, "
                                f"last o is {o_values[-1]}")
    return CliRun(formula, wall, first_o, o_values[-1] if o_values else None,
                  stats, problems)


def run_cli_batch(formulas, timeout: float, probe: bool = False):
    """run_cli on each formula, each run scaled by the host-speed
    calibrations before and after it."""
    scaler = Scaler()
    runs = []
    scaler.mark()
    for formula in formulas:
        runs.append(run_cli(formula, timeout, probe=probe))
        runs[-1].scale = scaler.scale(scaler.mark() - 1)
    return runs


def anytime_metrics(runs: list[CliRun], probes: list[CliRun], wall: float,
                    timeout: float):
    """Metrics of full runs (wall is their batch time) plus probes.

    Time to the first `o` line is CPU-bound work and is reported in
    reference seconds; process wall time is set by the wall-clock --timeout
    and is reported as measured."""
    limit = timeout + 120.0
    times = [r.wall_s if not r.problems else max(r.wall_s, limit)
             for r in runs]
    firsts = [r.first_o_s * r.scale if r.first_o_s is not None else limit
              for r in runs + probes]
    pct, tail_s = tail(times, 100.0)
    # a run without an answer counts as leaving every clause unsat
    last = [r.last_o if r.last_o is not None else len(r.formula.clauses)
            for r in runs]
    return {
        "first_o_s": statistics.median(firsts),
        "proof_s.p50": statistics.median(times),
        "proof_s.tail": tail_s,
        "proved_per_s": sum(1 for r in runs if not r.problems) / wall,
        "unsat_at_deadline": statistics.fmean(last),
    }, {"instances": len(runs), "probes": len(probes),
        "tail_percentile": pct}
