"""Run the sdpsat CLI in this process with layer spans, then dump the spans.

Usage: python3 perfbench/traced_cli.py OUT.json solve FILE [solve flags]
The CLI's stdout and stderr are unchanged; OUT.json receives the aggregated
spans (see tracing.py) once the CLI returns.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import sdpsat.cli  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.wrap(sdpsat.cli, "parse_dimacs", "instance.parse_dimacs")
    tracer.wrap(sdpsat.cli, "solve_incomplete", "search.solve_incomplete")
    try:
        code = tracer.timed("cli.main", sdpsat.cli.main, argv)
    finally:
        tracer.uninstall()
    out.write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main())
