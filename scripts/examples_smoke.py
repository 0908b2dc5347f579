#!/usr/bin/env python
"""CI smoke for the examples: every ``examples/*.py`` must run to exit 0.

Each example runs in its own python process with ``PYTHONPATH=src`` (the
package is used from the checkout, not an installed copy) and a throwaway
working directory, so an example that writes files leaves nothing behind.
The examples go through the public front doors - SQL, the builder, SUM,
streaming, the attach API - so a change that breaks one fails here.

Usage: python scripts/examples_smoke.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = REPO / "examples"
TIMEOUT_S = 300.0


def run_example(path: Path) -> tuple[int, float, str]:
    """Run one example; return (exit code, seconds, captured output)."""
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="examples-smoke-") as cwd:
        try:
            proc = subprocess.run(
                [sys.executable, str(path)],
                cwd=cwd,
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            output = (exc.output or b"").decode(errors="replace")
            return 124, time.perf_counter() - start, output + f"\n[timed out after {TIMEOUT_S} s]"
    return proc.returncode, time.perf_counter() - start, proc.stdout.decode(errors="replace")


def main() -> int:
    paths = sorted(EXAMPLES.glob("*.py"))
    failed = []
    for path in paths:
        code, seconds, output = run_example(path)
        print(f"{'ok  ' if code == 0 else 'FAIL'} {path.name} ({seconds:.1f} s)")
        if code != 0:
            failed.append(path.name)
            print(output.rstrip(), file=sys.stderr)
            print(f"-- {path.name} exited with {code}", file=sys.stderr)
    print(f"{len(paths) - len(failed)}/{len(paths)} examples passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
