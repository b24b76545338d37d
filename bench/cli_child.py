"""Traced CLI entry point for the benchmark's traced cli-session run.

Behaves like ``python -m harmonic_range.cli`` with the layer tracer
installed, and writes the tracer's summary to the path in
``BENCH_TRACE_OUT`` however the command ends.
"""

import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import harmonic_range.cli as cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        Path(os.environ["BENCH_TRACE_OUT"]).write_text(json.dumps(tracer.summary()))


if __name__ == "__main__":
    sys.exit(main())
