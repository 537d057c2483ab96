import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sdpsat.rounding
from sdpsat.cli import main
from sdpsat.generate import random_clauses, random_instance, render_dimacs
from sdpsat.instance import evaluate, parse_dimacs
from sdpsat.oracle import brute_force

TRIANGLE = "p cnf 2 3\n1 2 0\n-1 2 0\n-2 0\n"

BAD_SETTINGS = (["--timeout", "-1"], ["--seed", "-1"])
# not flags: the rank, the expansion depth, the rounding constant and the
# per-solve precision are fixed by the code
REMOVED_FLAGS = (["--rank", "3"], ["--depth-limit", "8"],
                 ["--rounding-c", "4"], ["--eps", "0.01"])


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_unrecognized(argv, capsys):
    """argparse rejects argv: exit 2, its usage error, no traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2, argv
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err
    assert "Traceback" not in captured.err


def test_solve_triangle_complete(tmp_path, capsys):
    path = tmp_path / "tri.cnf"
    path.write_text(TRIANGLE)
    code, out, err = run_cli(["solve", str(path), "--seed", "0"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "o 1" in lines
    assert "s OPTIMUM FOUND" in lines
    v_lines = [l for l in lines if l.startswith("v ")]
    assert len(v_lines) == 1
    lits = [int(t) for t in v_lines[0].split()[1:]]
    assert len(lits) == 2
    values = [0, 0, 0]
    for lit in lits:
        values[abs(lit)] = 1 if lit > 0 else -1
    inst = parse_dimacs(TRIANGLE)
    assert evaluate(inst, values) == 1
    assert "stats nodes_popped" in err
    assert "stats child_cert_prunes=" in err
    assert "stats dfs_core_prunes=" in err
    stats = dict(line[len("stats "):].split("=", 1)
                 for line in err.splitlines() if line.startswith("stats "))
    # the root solve takes at least its final certificate
    assert int(stats["certificates"]) >= int(stats["sdp_solves"]) >= 1
    # three columns: every solve sweeps on the cost matrix
    assert int(stats["dense_solves"]) == int(stats["sdp_solves"])


def test_solve_satisfiable(tmp_path, capsys):
    path = tmp_path / "sat.cnf"
    path.write_text("p cnf 3 2\n1 2 0\n-1 3 0\n")
    code, out, _ = run_cli(["solve", str(path)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "o 0" in lines
    assert "s OPTIMUM FOUND" in lines


def test_solve_wcnf_reports_cost(tmp_path, capsys):
    """On a uniform-weight WCNF an o line reports the cost, weight times
    unsat: here one of the two weight-3 clauses is unsat, so 3, not 1.
    A bench row of the same file keeps the unsat count."""
    path = tmp_path / "w.wcnf"
    path.write_text("p wcnf 1 2\n3 1 0\n3 -1 0\n")
    code, out, _ = run_cli(["solve", str(path)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("o ")] == ["o 3"]
    assert "s OPTIMUM FOUND" in lines
    code, out, _ = run_cli(["bench", "--dir", str(tmp_path)], capsys)
    assert code == 0
    row, = (r for r in csv.DictReader(io.StringIO(out))
            if r["kind"] == "instance")
    assert row["best_unsat"] == "1"


def test_solve_missing_file(capsys):
    code, out, err = run_cli(["solve", "/nonexistent/file.cnf"], capsys)
    assert code == 2
    assert out == ""


def test_solve_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.cnf"
    # an out-of-range literal; two contradictory hard clauses (weight >= top),
    # which are infeasible, not a soft optimum of 1; a literal 1_0, which
    # int() would read as 10; fewer and more clauses than the problem line
    # counts, and a negative count
    for text in ("p cnf 1 1\n7 0\n", "p wcnf 1 2 9\n9 1 0\n9 -1 0\n",
                 "p cnf 20 1\n1_0 -2 0\n", "p cnf 3 5\n1 0\n-1 2 0\n3 0\n",
                 "p cnf 3 1\n1 0\n2 0\n", "p cnf 3 -1\n"):
        path.write_text(text)
        code, out, err = run_cli(["solve", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"parse error in {path}: ")
        assert err.count("\n") == 1
    # out-of-range solver settings on a valid file are input errors too
    path.write_text(TRIANGLE)
    for flags in BAD_SETTINGS:
        code, out, err = run_cli(["solve", str(path), *flags], capsys)
        assert code == 2, flags
        assert out == ""
        assert "invalid solver setting" in err
    for flags in REMOVED_FLAGS:
        assert_unrecognized(["solve", str(path), *flags], capsys)


def test_solve_undecodable_input(tmp_path, capsys):
    path = tmp_path / "utf16.cnf"
    path.write_bytes(b"\xff\xfe" + "p cnf 1 1\n1 0\n".encode("utf-16-le"))
    code, out, err = run_cli(["solve", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("cannot read") and err.count("\n") == 1


@pytest.mark.parametrize("c", ("1e9", "1e300"))
def test_solve_huge_rounding_budget_stops_at_timeout(tmp_path, capsys,
                                                     monkeypatch, c):
    """A rounding budget too large to draw at once runs block by block
    and stops at the deadline.  The only root was solved before it and is
    pruned after the rounding, so the proof is whole."""
    monkeypatch.setattr(sdpsat.rounding, "ROUNDING_C", float(c))
    path = tmp_path / "pair.cnf"
    path.write_text("p cnf 2 1\n1 2 0\n")
    code, out, _ = run_cli(["solve", str(path), "--timeout", "1"], capsys)
    assert code == 0
    assert "o 0" in out.splitlines()
    assert "s OPTIMUM FOUND" in out.splitlines()


def test_solve_timeout_reports_unknown(tmp_path, capsys):
    from sdpsat.generate import random_clauses, render_dimacs
    import numpy as np
    path = tmp_path / "big.cnf"
    clauses = random_clauses(150, 700, 2, np.random.default_rng(0))
    path.write_text(render_dimacs(150, clauses))
    code, out, _ = run_cli(
        ["solve", str(path), "--timeout", "0.3", "--seed", "1"], capsys)
    lines = out.splitlines()
    assert "s UNKNOWN" in lines
    o_lines = [l for l in lines if l.startswith("o ")]
    if o_lines:
        assert code == 0
        values = [int(l.split()[1]) for l in o_lines]
        assert values == sorted(values, reverse=True)


@pytest.mark.parametrize("mode", ["complete", "incomplete"])
def test_solve_zero_timeout_reports_an_incumbent(tmp_path, capsys, mode):
    """A deadline that has passed at the start still answers: one o line,
    s UNKNOWN, and a v line that re-evaluates to the o value."""
    path = tmp_path / "rand.cnf"
    path.write_text(render_dimacs(
        28, random_clauses(28, 112, 2, np.random.default_rng(1))))
    inst = parse_dimacs(path.read_text())
    code, out, _ = run_cli(
        ["solve", str(path), "--timeout", "0", "--mode", mode], capsys)
    assert code == 0
    o_lines = [l for l in out.splitlines() if l.startswith("o ")]
    v_lines = [l for l in out.splitlines() if l.startswith("v ")]
    assert len(o_lines) == 1 and len(v_lines) == 1
    assert "s UNKNOWN" in out.splitlines()
    values = [0] + [1 if int(lit) > 0 else -1
                    for lit in v_lines[0].split()[1:]]
    assert evaluate(inst, values) == int(o_lines[0].split()[1])


def test_solve_incomplete_mode(tmp_path, capsys):
    path = tmp_path / "tri.cnf"
    path.write_text(TRIANGLE)
    code, out, _ = run_cli(
        ["solve", str(path), "--mode", "incomplete", "--seed", "2"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "o 1" in lines
    assert "s UNKNOWN" in lines  # incomplete mode never claims a proof


def test_generate_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "gen.cnf"
    code, _, _ = run_cli(["generate", "--n", "4", "--m", "2", "--length", "2",
                          "--seed", "3", "-o", str(out_file)], capsys)
    assert code == 0
    inst = parse_dimacs(out_file.read_text())
    assert inst.num_vars == 4
    assert inst.num_clauses == 2
    for cl in inst.clauses:
        assert cl.length == 2
        assert len({abs(l) for l in cl.lits}) == 2


def test_generate_unwritable_output(tmp_path, capsys):
    path = tmp_path / "missing" / "x.cnf"
    code, out, err = run_cli(["generate", "--n", "3", "--m", "2",
                              "-o", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"cannot write {path}: ") and err.count("\n") == 1


def test_generate_deterministic(capsys):
    code, out1, _ = run_cli(["generate", "--n", "10", "--m", "20",
                             "--length", "3", "--seed", "9"], capsys)
    code, out2, _ = run_cli(["generate", "--n", "10", "--m", "20",
                             "--length", "3", "--seed", "9"], capsys)
    assert out1 == out2
    inst = parse_dimacs(out1)
    assert all(cl.length == 3 for cl in inst.clauses)


def test_generate_length_exceeds_n(capsys):
    code, _, _ = run_cli(["generate", "--n", "2", "--m", "1",
                          "--length", "3", "--seed", "0"], capsys)
    assert code == 2
    code, out, err = run_cli(["generate", "--n", "3", "--m", "2",
                              "--seed", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert "invalid generator setting" in err


def test_generate_any_clause_length(capsys):
    """generate takes any clause length the generator and the solver
    accept, as bench --gen-length does."""
    code, out, err = run_cli(["generate", "--n", "6", "--m", "3",
                              "--length", "4", "--seed", "0"], capsys)
    assert code == 0 and err == ""
    inst = parse_dimacs(out)
    assert inst.num_clauses == 3
    assert all(cl.length == 4 for cl in inst.clauses)


@pytest.mark.parametrize("argv", [
    ["generate", "--n", "3", "--m", "-1"],
    ["bench", "--gen-count", "1", "--gen-n", "3", "--gen-m", "2",
     "--gen-length", "0"],
    ["bench", "--gen-count", "1", "--gen-n", "3", "--gen-m", "-1"],
    ["generate", "--n", "3", "--m", "2", "--length", "0"],
    ["bench", "--gen-count", "-1"],
])
def test_generator_rejects_bad_counts(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert ("invalid generator setting" in err
            or "bench input error" in err)
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_omitted_seed_is_seed_zero(tmp_path, capsys, monkeypatch):
    """--seed defaults to SolverConfig.seed on generate, solve and bench;
    no environment variable stands in for it."""
    monkeypatch.setenv("SDPSAT_SEED", "123")
    gen = ["generate", "--n", "12", "--m", "40"]
    _, out_default, _ = run_cli(gen, capsys)
    _, out_0, _ = run_cli(gen + ["--seed", "0"], capsys)
    _, out_123, _ = run_cli(gen + ["--seed", "123"], capsys)
    assert out_default == out_0 != out_123
    path = tmp_path / "f.cnf"
    path.write_text(out_123)
    code, out_default, _ = run_cli(["solve", str(path)], capsys)
    assert code == 0
    _, out_0, _ = run_cli(["solve", str(path), "--seed", "0"], capsys)
    assert out_default == out_0
    bench = ["bench", "--gen-count", "1", "--gen-n", "8", "--gen-m", "24"]
    _, out_default, _ = run_cli(bench, capsys)
    _, out_0, _ = run_cli(bench + ["--seed", "0"], capsys)
    assert bench_cells(out_default) == bench_cells(out_0)
    assert "rand-n8-m24-l2-s0" in out_default


def bench_cells(out):
    """The bench rows without their time cells, in a fixed order."""
    return sorted(tuple(v for k, v in row.items() if not k.startswith("time_"))
                  for row in csv.DictReader(io.StringIO(out)))


BENCH_BLANKS = {
    "instance": set(),
    "cactus": {"m", "best_unsat", "oracle_unsat", "time_to_best", "nodes",
               "sdp_solves", "ratio"},
    "ratio": {"proved", "time_total", "nodes", "sdp_solves"},
}


def test_bench_row_layout(capsys):
    """Each row kind leaves exactly its own cells blank, the oracle column
    holds the exact optimum, and a ratio is satisfied clauses over the
    oracle's, rounded to 6 places."""
    code, out, _ = run_cli(["bench", "--gen-count", "3", "--gen-n", "10",
                            "--gen-m", "40", "--seed", "5"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["kind"] for r in rows[:6]] == ["instance"] * 3 + ["cactus"] * 3
    assert {r["kind"] for r in rows[6:]} == {"ratio"}
    for row in rows:
        blank = {k for k, v in row.items() if v == ""}
        assert blank == BENCH_BLANKS[row["kind"]], row
        if row["kind"] != "cactus":
            seed = int(row["name"].rsplit("-s", 1)[1])
            inst = random_instance(10, 40, 2, seed)
            # the oracle column is the Gray-code reference's optimum
            assert int(row["oracle_unsat"]) == brute_force(inst)[0]
            total = inst.num_clauses + inst.empty_count
            want = ((total - int(row["best_unsat"]))
                    / (total - int(row["oracle_unsat"])))
            assert float(row["ratio"]) == round(want, 6)
    # above the brute-force cap there is no oracle, so no ratio anywhere
    code, out, _ = run_cli(["bench", "--gen-count", "2", "--gen-n", "28",
                            "--gen-m", "112"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["kind"] for r in rows] == ["instance"] * 2 + ["cactus"] * 2
    for row in rows:
        blank = {k for k, v in row.items() if v == ""}
        extra = ({"oracle_unsat", "ratio"} if row["kind"] == "instance"
                 else set())
        assert blank == BENCH_BLANKS[row["kind"]] | extra, row


def test_bench_generated(capsys):
    code, out, _ = run_cli(
        ["bench", "--gen-count", "5", "--gen-n", "12", "--gen-m", "48",
         "--seed", "4"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    instance_rows = [r for r in rows if r["kind"] == "instance"]
    assert len(instance_rows) == 5
    for row in instance_rows:
        assert row["proved"] == "True"
        assert row["best_unsat"] == row["oracle_unsat"]
        assert float(row["ratio"]) <= 1.0
    cactus_rows = [r for r in rows if r["kind"] == "cactus"]
    assert len(cactus_rows) == 5
    ratio_rows = [r for r in rows if r["kind"] == "ratio"]
    assert all(float(r["ratio"]) <= 1.0 for r in ratio_rows)
    assert all(len(r) == len(rows[0]) for r in rows)


def test_bench_directory(tmp_path, capsys):
    for i in range(3):
        run_cli(["generate", "--n", "8", "--m", "24", "--seed", str(i),
                 "-o", str(tmp_path / f"i{i}.cnf")], capsys)
    capsys.readouterr()
    code, out, _ = run_cli(["bench", "--dir", str(tmp_path)], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len([r for r in rows if r["kind"] == "instance"]) == 3


def test_bench_directory_names_the_bad_file(tmp_path, capsys):
    """A file bench cannot parse is named on its one error line, and no
    row is written."""
    (tmp_path / "good.cnf").write_text(TRIANGLE)
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 2 1\n1 x 0\n")
    code, out, err = run_cli(["bench", "--dir", str(tmp_path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"parse error in {bad}: ")
    assert err.count("\n") == 1


def test_bench_empty_input(tmp_path, capsys):
    code, _, err = run_cli(["bench", "--dir", str(tmp_path)], capsys)
    assert code == 2
    assert "empty input set" in err
    for flags in BAD_SETTINGS:
        code, out, err = run_cli(["bench", "--gen-count", "1", "--gen-n", "6",
                                  "--gen-m", "12", *flags], capsys)
        assert code == 2, flags
        assert out == ""
        assert "invalid solver setting" in err
    for flags in REMOVED_FLAGS:
        assert_unrecognized(["bench", "--gen-count", "1", "--gen-n", "6",
                             "--gen-m", "12", *flags], capsys)
    # generator settings the generator cannot honour are input errors too
    for flags in (["--gen-n", "2", "--gen-m", "3", "--gen-length", "3"],
                  ["--gen-length", "-1"]):
        code, out, err = run_cli(["bench", "--gen-count", "1", *flags],
                                 capsys)
        assert code == 2, flags
        assert out == ""
        assert "bench input error" in err
    # a directory and generator settings at once are an input error too
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--dir", str(tmp_path), "--gen-count", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


def test_module_entry_point(tmp_path):
    path = tmp_path / "tri.cnf"
    path.write_text(TRIANGLE)
    # the child finds the package as this process does, PYTHONPATH or not
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sdpsat", "solve", str(path), "--seed", "0"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "s OPTIMUM FOUND" in proc.stdout
