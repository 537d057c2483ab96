"""One workload's set-up in a fresh process: import, generation, parsing.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED SECONDS
Prints {"setup_s": seconds} with the time from the start of this script to
the last parsed formula.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main() -> None:
    from sdpsat.instance import parse_dimacs
    from workloads import formula_pool

    name, seed, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    for formula in formula_pool(name, seed, seconds):
        parse_dimacs(formula.text)
    print(json.dumps({"setup_s": time.perf_counter() - START}))


if __name__ == "__main__":
    main()
