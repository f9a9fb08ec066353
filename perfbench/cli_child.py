"""Traced stand-in for ``python -m fockfuse.cli``, used by traced CLI rounds.

Usage: cli_child.py TRACE_OUT [fockfuse arguments...]

Runs the same ``fockfuse.cli.main`` with the layer wrappers installed and
writes a JSON record to TRACE_OUT: when the interpreter reached this file
(monotonic clock), how long ``import fockfuse.cli`` took, and the span
summary and counters of the command.  Exits with the command's exit code.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.monotonic()
    import fockfuse.cli

    import_s = time.monotonic() - t0
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.active = True
    code = tracer.call("cli.main", fockfuse.cli.main, argv)
    tracer.active = False
    sys.stdout.flush()
    record = {
        "started": STARTED,
        "import_s": import_s,
        "summary": tracer.summary(),
        "counters": dict(tracer.counters),
        "maxima": dict(tracer.maxima),
    }
    with open(trace_out, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
