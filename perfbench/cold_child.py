"""Run one CLI command in a fresh process, traced.

Usage: ``python cold_child.py SPANS_JSON -- ARGS...``

Times ``import boundarynoise.cli``, installs the layer wrappers, calls
``boundarynoise.cli.main(ARGS)`` and writes the spans and counters to
SPANS_JSON.  The report goes to standard output as with the plain CLI, and the
exit code is ``main``'s.  ``PYTHONPATH`` must point at the package sources.
"""

from __future__ import annotations

import sys
import time

import layers
from tracer import Tracer


def main(argv: list[str]) -> int:
    spans_path, separator, args = argv[0], argv[1], argv[2:]
    if separator != "--":
        raise SystemExit("usage: cold_child.py SPANS_JSON -- ARGS...")
    started = time.perf_counter()
    import boundarynoise.cli
    imported = time.perf_counter()

    tracer = Tracer()
    tracer.op = 0  # the parent process owns the operation's root span
    tracer.end(tracer.begin("cli.import", start=started), end=imported)
    layers.install(tracer)
    try:
        return boundarynoise.cli.main(args)
    finally:
        tracer.op = None
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
