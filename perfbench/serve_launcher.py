"""Start ``repro serve`` for the benchmark, optionally under span wrappers.

Usage: ``python3 perfbench/serve_launcher.py OUT TRACE serve [args...]``

Calls ``repro.cli.main`` with the arguments after ``TRACE``.  With
``TRACE`` = 1 the entry-point wrappers of :mod:`tracing` are installed
first.  When the server stops (SIGINT), writes ``OUT`` as JSON: the
process's peak resident memory and, when traced, every recorded span.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv) -> int:
    out, traced, cli_args = Path(argv[0]), argv[1] == "1", argv[2:]
    # A process started in the background by a non-interactive shell
    # inherits SIGINT ignored; the benchmark stops the server with SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import tracing
    from repro.cli import main as cli_main

    recorder = tracing.Recorder()
    with tracing.installed(recorder) if traced else nullcontext():
        code = cli_main(cli_args)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out.write_text(json.dumps({"code": code, "peak_rss_kb": peak_kb,
                               "spans": recorder.spans}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
