import csv
import importlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sdpsat import sdp
from sdpsat.generate import random_clauses, render_dimacs

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, returncode=0):
    """Run scripts/<name> with `args`, the repository's src first on
    PYTHONPATH; returns the finished process, which must have exited with
    `returncode`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == returncode, proc.stderr
    return proc


def test_approx_ratio_curve_smoke():
    """Ratios in (0, 1]; with no clause the satisfiable bound is 0 and
    the ratio reads 1.0, as in sdpsat bench."""
    for m in ("40", "0"):
        proc = run_script("approx_ratio_curve.py", "--instances", "1",
                          "--n", "12", "--m", m, "--budget", "0.05",
                          "--samples", "2")
        rows = list(csv.reader(io.StringIO(proc.stdout)))
        assert rows[0] == ["instance", "elapsed_seconds", "best_ratio"]
        assert len(rows) >= 2
        for name, _, ratio in rows[1:]:
            assert name == "rand-s0"
            assert 0.0 < float(ratio) <= 1.0
            assert m != "0" or float(ratio) == 1.0


@pytest.mark.parametrize("n, m, length, count, rounds", [
    ("8", "56", "3", "2", "2"),
    # above DENSE_MAX_COLUMNS: the search sweeps this root sparse
    ("300", "1200", "2", "1", "1"),
], ids=["dense", "sparse"])
def test_root_cost_smoke(n, m, length, count, rounds):
    proc = run_script("root_cost.py", "--n", n, "--m", m, "--length", length,
                      "--count", count, "--rounds", rounds)
    header, row = [line.split() for line in proc.stdout.splitlines()]
    assert header == ["n", "m", "length", "roots", "node_cost",
                      "dense_sweep", "sweep_plan", "sparse_sweep",
                      "cert_raw", "prune_cert", "cert_repaired",
                      "loss_tracker", "rounding", "up_cores",
                      "carried_cores", "child_cost", "dfs_step"]
    assert row[:4] == [n, m, length, count]
    assert all(float(x) > 0.0 for x in row[4:])


@pytest.mark.parametrize("name, args", [
    ("root_cost.py", ("--n", "3", "--m", "10", "--length", "5")),
    ("pool_counts.py", ("--n", "3", "--m", "10", "--length", "5")),
    # its clauses have two literals
    ("approx_ratio_curve.py", ("--n", "1")),
], ids=["root_cost.py", "pool_counts.py", "approx_ratio_curve.py"])
def test_scripts_reject_bad_generator_settings(name, args):
    proc = run_script(name, *args, returncode=2)
    assert "invalid generator setting" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name, args", [
    ("pool_counts.py", ("--n", "8", "--m", "40", "--length", "3",
                        "--count", "0")),
    ("pool_counts.py", ("--n", "30", "--m", "60", "--length", "2",
                        "--count", "1", "--oracle")),
    ("approx_ratio_curve.py", ("--samples", "0")),
    ("approx_ratio_curve.py", ("--instances", "0")),
    ("approx_ratio_curve.py", ("--budget", "0")),
], ids=["pool_counts-count", "pool_counts-oracle-n",
        "approx_ratio_curve-samples", "approx_ratio_curve-instances",
        "approx_ratio_curve-budget"])
def test_scripts_reject_bad_counts(name, args):
    proc = run_script(name, *args, returncode=2)
    assert "must be" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", ["pool_counts.py", "root_cost.py",
                                  "approx_ratio_curve.py"])
def test_script_runs_from_a_plain_checkout(name, tmp_path):
    """Each script puts the checkout's src first on sys.path, so it runs
    with PYTHONPATH unset and the package not installed.  Where the package
    is installed (as in CI) this passes either way."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), "--help"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_pool_counts_smoke():
    proc = run_script("pool_counts.py", "--n", "8", "--m", "40",
                      "--length", "3", "--first", "3", "--count", "2",
                      "--oracle")
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert result["seeds"] == [3, 5]
    assert result["statuses"] == ["OPTIMUM", "OPTIMUM"]
    assert result["optima"] == result["oracle"]
    counters = result["counters"]
    assert "wall_time" not in counters
    assert counters["nodes_popped"] >= 2
    assert all(isinstance(value, int) for value in counters.values())


def import_perfbench(monkeypatch, name):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module(name)


def assert_layers_run(layers, n, m, length, anytime):
    text = render_dimacs(n, random_clauses(n, m, length,
                                           np.random.default_rng(0)))
    metrics = layers.isolated(text, anytime)
    assert "sdp.cert_repaired_s" in metrics
    for name, value in metrics.items():
        assert math.isfinite(value) and value >= 0.0, name


def test_perfbench_trace_targets_exist(monkeypatch):
    """Every name the benchmark's tracer wraps is still where it looks it
    up, so a rename cannot leave `--trace 1` without its spans."""
    targets = import_perfbench(monkeypatch, "tracing")._targets()
    assert targets
    for owner, attr, name in targets:
        assert callable(vars(owner).get(attr)), name


def test_perfbench_layers_run(monkeypatch):
    """The benchmark's isolated layer timings run against the solver's
    current API in both modes, so a changed name or signature cannot leave
    `--trace 1` broken."""
    layers = import_perfbench(monkeypatch, "layers")
    for anytime in (False, True):
        assert_layers_run(layers, 12, 48, 2, anytime)


def test_perfbench_hooks_install_and_time_both_layouts(monkeypatch):
    """The tracer installs over every name it wraps and puts each original
    back, and the isolated layer timings run on a dense MAX3SAT n=14
    formula and on a sparse MAX2SAT n=300 one (above DENSE_MAX_COLUMNS)."""
    tracing = import_perfbench(monkeypatch, "tracing")
    layers = import_perfbench(monkeypatch, "layers")
    originals = [vars(owner)[attr] for owner, attr, _ in tracing._targets()]
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert originals == [vars(owner)[attr]
                         for owner, attr, _ in tracing._targets()]
    for n, m, length, anytime in ((14, 98, 3, False), (300, 1200, 2, True)):
        assert (n + 1 > sdp.DENSE_MAX_COLUMNS) == (n == 300)
        assert_layers_run(layers, n, m, length, anytime)


def test_perfbench_complete_workloads_answer_correctly():
    """The benchmark's end-to-end command on both complete workloads, one
    untraced and one traced: it exits 0 and every answer passes the
    benchmark's own checks."""
    for workload, trace in (("complete-max2sat", "0"),
                            ("complete-max3sat", "1")):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", workload, "--seconds", "1", "--trace", trace],
            capture_output=True, text=True, cwd=ROOT, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] is True, result
        assert result["failed"] == 0, result


def test_anytime_cli_answer_passes_benchmark_checks(monkeypatch):
    """`sdpsat solve --mode incomplete --timeout 1` on one n=400, m=1600
    formula of the benchmark's anytime pool, checked by the benchmark's
    own run_cli: o values never increase, exactly one `s UNKNOWN`, exit 0,
    and the v line re-evaluates to the last o value."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    formula = workloads.make_pool("anytime-max2sat", 0, (400,), 4, 2, 1)[0]
    assert (formula.num_vars, len(formula.clauses)) == (400, 1600)
    run = workloads.run_cli(formula, 1.0)
    assert run.problems == [], run.problems
    assert run.last_o is not None
