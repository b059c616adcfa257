"""Start ``etrain serve`` with the benchmark's layer wrappers installed.

Usage: ``python3 layerbench/serve_launcher.py --trace-dir DIR --run-id ID
-- <etrain serve flags>``.  The wrappers go in first, then the program's
own ``serve`` entry runs unchanged; on SIGINT the daemon shuts down as
usual and the spans it recorded are written to ``DIR`` (on SIGTERM they
are written and the process exits at once).
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, install  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", type=Path, required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args
    tracer = Tracer(args.run_id, args.trace_dir)
    install(tracer)

    def _flush_and_exit(signum, frame):  # a daemon stuck in shutdown
        tracer.flush()
        os._exit(0)

    signal.signal(signal.SIGTERM, _flush_and_exit)
    from repro.cli import run_serve_command

    try:
        return run_serve_command(serve_args)
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
