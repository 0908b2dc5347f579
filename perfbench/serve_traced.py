"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage: python perfbench/serve_traced.py SPANS_JSON serve [repro serve args]

The wrappers go in before the server starts; when the server exits (after
its SIGTERM drain) the spans are written to SPANS_JSON as a list of
``[id, name, start_ns, end_ns, parent, op, count]`` rows.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Instrumentation, Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    Instrumentation(tracer).install()
    from repro.cli import main as repro_main

    code = repro_main(cli_args)
    spans_path.write_text(json.dumps([s.to_list() for s in tracer.spans]))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
