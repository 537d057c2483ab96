"""sdpsat benchmark: time to proof, anytime quality at a deadline, layer costs.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, both modes

Workloads (see workloads.WORKLOADS and BENCHMARK.json):

* complete-max2sat -- `solve_complete` on random MAX2SAT, n=28, m=4n;
* complete-max3sat -- `solve_complete` on random MAX3SAT, n=14, m=7n;
* anytime-max2sat -- `python3 -m sdpsat solve --mode incomplete --timeout 5`
  on random MAX2SAT, n=400, m=4n, one child process per formula: three run
  to the deadline, then ten probes are stopped at their first `o` line.

With --trace 0 the run prints the end-to-end metrics, each per formula and
then summarized over the formulas done in --seconds:

* setup_s: import, generation and `parse_dimacs` of the workload's formula
  pool in a fresh process (median of three processes; references excluded);
* first_o_s: time to the first incumbent (from the solve call in complete
  mode, from process start to the first `o` line of every process and probe
  in anytime mode), median;
* proof_s.p50 / proof_s.tail: time to the final answer -- the proved
  optimum in complete mode, the process exit under the fixed --timeout in
  anytime mode -- as the median and the highest percentile with at least
  ten formulas beyond it (the maximum when fewer than eleven were run);
* proved_per_s: correct final answers per second of batch wall time;
* unsat_at_deadline: mean unsat count of the final answers (the proved
  optimum in complete mode, the last `o` value in anytime mode).

A failed formula counts as reaching the time limit in every timing, and
`failed`/`attempted` of the result line give the failure share.

The host's speed drifts with its other tenants' load, so every time of
CPU-bound work -- setup_s, first_o_s, and proof_s.* and proved_per_s in
complete mode -- is in reference seconds: measured seconds scaled by a
calibration kernel timed before and after each stretch of work (speed.py).
Process wall times under the anytime workload's fixed wall-clock --timeout
are reported as measured.  The timed parts of a run are pinned to one CPU,
with the child processes they start.

With --trace 1 the run prints the per-layer metrics: exact counts and
self-time shares from a traced pass over a fixed formula set, and isolated
layer timings on fixed node states (layers.py).  The tracing overhead is the
traced wall time over the untraced wall time of the same work, minus one:
the same formula set solved untraced (complete workloads), or the median
over alternating untraced/traced first-`o` probes (anytime).

BLAS and OpenMP threads are pinned to one before numpy is imported, here and
in every child process.  The last line of stdout is the JSON result; the
lines before it give the machine facts and every metric with its unit.
"""

import os
import sys

from workloads import THREAD_VARS  # imports no numpy

for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import one_cpu  # noqa: E402
from tracing import LAYERS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

END_TO_END = {
    "setup_s": "s",
    "first_o_s": "s",
    "proof_s.p50": "s",
    "proof_s.tail": "s",
    "proved_per_s": "1/s",
    "unsat_at_deadline": "count",
}
OVERHEAD_PAIRS = 3
PER_LAYER = {
    "sdp.sweep_ns_per_nnzk": "ns/nnzk",
    "sdp.objective_ns_per_clause": "ns/clause",
    "sdp.cert_raw_s": "s",
    "sdp.cert_repaired_s": "s",
    "sdp.zcache_rebuild_ns_per_nnz": "ns/nnz",
    "sdp.solves": "count",
    "sdp.sweeps": "count",
    "sdp.sweeps_per_solve": "count",
    "search.roots": "count",
    "search.children_emitted": "count",
    "search.expand_s_per_child": "s/child",
    "search.move_to_s": "s",
    "search.clipped_loss_s": "s",
    "search.deadline_overrun_s": "s",
    "bounds.ledger_ns_per_assign": "ns/assign",
    "bounds.prune_ratio": "ratio",
    "instance.assign_undo_ns_per_touch": "ns/touch",
    "instance.parse_ns_per_lit": "ns/lit",
    "rounding.trial_ns_per_nnz": "ns/nnz",
    "rounding.improve_ratio": "ratio",
    "cli.startup_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "trace.solve_wall_s": "s",
    "trace.overhead_frac": "ratio",
}


def machine_facts() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- untraced runs: end-to-end metrics -------------------------------------

def run_untraced(name: str, seed: int, seconds: float):
    import workloads as wl
    from sdpsat.instance import parse_dimacs

    spec = wl.WORKLOADS[name]
    pool = wl.formula_pool(name, seed, seconds)
    if spec.mode == "complete":
        instances = [parse_dimacs(f.text) for f in pool]
        with one_cpu():
            setup_s = wl.measure_setup(name, seed, seconds)
            solved, wall = wl.run_complete_batch(pool, instances, seconds)
        wl.check_batches(name, seed, [solved])
        metrics, info = wl.complete_metrics(solved, wall, spec.tail_pct)
        results = solved
    else:
        full = wl.anytime_counts(seconds)[0]
        with one_cpu():
            setup_s = wl.measure_setup(name, seed, seconds)
            start = time.perf_counter()
            results = wl.run_cli_batch(pool[:full], spec.timeout)
            wall = time.perf_counter() - start
            probes = wl.run_cli_batch(pool[full:], spec.timeout, probe=True)
        metrics, info = wl.anytime_metrics(results, probes, wall,
                                           spec.timeout)
        results += probes
    metrics["setup_s"] = setup_s
    return metrics, info, results


# -- traced runs: per-layer metrics ----------------------------------------

def _layer_metrics(tracer, solve_wall: float) -> dict:
    out = {"trace.solve_wall_s": solve_wall}
    for layer, self_s in tracer.layer_self().items():
        if layer in LAYERS:
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.self_share"] = _ratio(self_s, solve_wall)
    counts = tracer.counts
    out["search.children_emitted"] = counts["children_emitted"]
    out["bounds.prune_ratio"] = _ratio(counts["dual_prunes"],
                                       counts["children_decided"])
    out["rounding.improve_ratio"] = _ratio(counts["roots_improved"],
                                           counts["roots_rounded"])
    return out


def _counts(roots: float, solves: float, sweeps: float) -> dict:
    return {"search.roots": roots, "sdp.solves": solves, "sdp.sweeps": sweeps,
            "sdp.sweeps_per_solve": _ratio(sweeps, solves)}


def run_traced(name: str, seed: int, seconds: float):
    import layers
    import workloads as wl
    from sdpsat.config import SolverConfig
    from sdpsat.instance import parse_dimacs
    from sdpsat.search import solve_complete, solve_incomplete
    from tracing import Tracer

    spec = wl.WORKLOADS[name]
    tracer = Tracer()
    if spec.mode == "complete":
        count = max(3, round(seconds * spec.traced_per_s))
        pool = wl.make_pool(name, seed, spec.sizes, spec.ratio, spec.length,
                            count)
        instances = [parse_dimacs(f.text) for f in pool]
        traced_solve = partial(tracer.timed, "search.solve_complete",
                               solve_complete)
        plain, traced = [], []
        with one_cpu():
            wl.solve_one(pool[0], instances[0])  # warm-up, not counted
            # each formula untraced then traced, so that drifts in machine
            # speed reach both sides of the overhead alike
            for f, i in zip(pool, instances):
                plain.append(wl.solve_one(f, i))
                tracer.install()
                try:
                    traced.append(wl.solve_one(f, i, traced_solve))
                finally:
                    tracer.uninstall()
        wl.check_batches(name, seed, [plain, traced])
        results = plain + traced
        solve_wall = tracer.total["search.solve_complete"]
        metrics = _layer_metrics(tracer, solve_wall)
        metrics["trace.overhead_frac"] = (
            solve_wall / sum(s.seconds for s in plain) - 1.0)
        metrics.update(_counts(sum(s.stats.nodes_popped for s in traced),
                               sum(s.stats.sdp_solves for s in traced),
                               sum(s.stats.sweeps_total for s in traced)))
        hardest = max(plain, key=lambda s: s.seconds).formula
        probe = solve_complete
        timed_layers = pool[0]
        info = {"instances": len(pool)}
    else:
        pool = wl.formula_pool(name, seed, seconds)
        formula = pool[0]
        trace_file = wl.WORK / "trace.json"
        with one_cpu():
            plain = wl.run_cli(formula, spec.timeout)
            traced = wl.run_cli(formula, spec.timeout, trace_out=trace_file)
            # alternating untraced/traced probes do the same work up to
            # their first incumbent; a killed probe writes no spans
            pairs = [(wl.run_cli(f, spec.timeout, probe=True),
                      wl.run_cli(f, spec.timeout, trace_out=trace_file,
                                 probe=True))
                     for f in pool[:OVERHEAD_PAIRS]]
        if trace_file.exists():
            tracer = Tracer.load(json.loads(trace_file.read_text()))
            trace_file.unlink()
        else:
            traced.problems.append("traced process wrote no spans")
        results = [plain, traced] + [r for pair in pairs for r in pair]
        solve_wall = tracer.total["search.solve_incomplete"]
        metrics = _layer_metrics(tracer, solve_wall)
        metrics["trace.overhead_frac"] = statistics.median(
            _ratio(t.wall_s, p.wall_s) for p, t in pairs) - 1.0
        metrics.update(_counts(*(int(traced.stats.get(key, 0)) for key in (
            "nodes_popped", "sdp_solves", "sweeps_total"))))
        hardest = timed_layers = formula
        probe = solve_incomplete
        info = {"instances": 1}

    limit = spec.deadline_probe_s
    instance = parse_dimacs(hardest.text)
    with one_cpu():
        start = time.perf_counter()
        probe(instance, SolverConfig(seed=0, time_limit=limit))
        metrics["search.deadline_overrun_s"] = (time.perf_counter() - start
                                                - limit)
        metrics.update(layers.isolated(timed_layers.text,
                                       anytime=spec.mode != "complete"))
        metrics["cli.startup_s"] = wl.measure_startup()
    return metrics, info, results


# -- entry point ----------------------------------------------------------

def _print_metrics(prefix: str, metrics: dict, units: dict) -> None:
    for key in units:
        print(f"metric {prefix}{key} = {metrics[key]!r} {units[key]}")


def run_one(args) -> int:
    runner = run_traced if args.trace else run_untraced
    units = PER_LAYER if args.trace else END_TO_END
    metrics, info, results = runner(args.workload, args.seed, args.seconds)
    missing = [k for k in units if k not in metrics]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    failed = [r for r in results if r.problems]
    for r in failed[:20]:
        print(f"failed {r.formula.name}: {'; '.join(r.problems)}")
    info["failed_frac"] = len(failed) / len(results)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace, **info}))
    _print_metrics("", metrics, units)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    import workloads as wl

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 cwd=ROOT, timeout=900)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(out.stdout + out.stderr, file=sys.stderr)
                return out.returncode or 1
            result = json.loads(lines[-1])
            for line in lines[1:-1]:  # past the machine facts
                if line.startswith("metric "):
                    print(f"metric {name}/{line[7:]}")
                else:
                    print(f"{name}: {line}")
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for key, value in result["metrics"].items():
                merged["metrics"][f"{name}/{key}"] = value
    print(json.dumps(merged))
    return 0


def main() -> int:
    import workloads as wl

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=wl.DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "sdpsat" / "__init__.py").is_file():
        print(f"sdpsat sources not found under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    print(json.dumps({"machine": machine_facts()}))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
