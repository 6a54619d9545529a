"""Run one jordanrep CLI invocation in this fresh process and report its timings.

Usage: python3 -I bench/child.py SRC_DIR TRACE [CLI ARGS...]

SRC_DIR is the checkout's ``src`` directory and TRACE is ``0`` or ``1``.  The
CLI's own stdout and stderr pass through unchanged; one JSON record is then
written as the last line of stderr.  Its times come from ``time.monotonic``,
which on Linux is the system-wide CLOCK_MONOTONIC, so the parent can subtract
its own spawn time from ``t_imported`` to get interpreter start plus import.
With no CLI arguments the process only imports the package (a warm-up that
compiles the bytecode caches).

The untraced path never imports ``tracer``; the record says whether it was
loaded so the parent can check that.
"""

import time

T_ENTRY = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    src, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, src)
    import jordanrep.cli as cli

    t_imported = time.monotonic()
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"jordanrep imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    if not argv:
        return 0

    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    crashed = False
    t_start = time.monotonic()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is reported as a failed job, never hidden
        import traceback

        traceback.print_exc()
        code, crashed = 1, True
    sys.stdout.flush()
    t_end = time.monotonic()

    record = {
        "exit": code,
        "crashed": crashed,
        "t_entry": T_ENTRY,
        "t_imported": t_imported,
        "run_s": t_end - t_start,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "tracer_loaded": "tracer" in sys.modules,
    }
    if tracer is not None:
        record["trace"] = tracer.summary()
    sys.stderr.write("\n" + json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
