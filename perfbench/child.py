"""Run one pqgeom CLI invocation in this process and record how it went.

    python child.py RESULT_JSON TRACE PQGEOM_ARGS...

Imports pqgeom, installs the span tracer when TRACE is 1, then times
``pqgeom.cli.main(PQGEOM_ARGS)``: argument parsing, every check, and the
report written to the ``--out`` path among PQGEOM_ARGS.  The CLI's copy of
the report on standard output is discarded.  RESULT_JSON receives the
exit code, that wall time, the peak resident memory of this process and,
when traced, the spans.
"""

import contextlib
import json
import os
import resource
import sys
import time

import pqgeom.cli  # noqa: F401  (import time is measured separately)

from tracer import Tracer, install


def main(argv: list[str]) -> int:
    result_path, trace, cli_args = argv[0], argv[1] == "1", argv[2:]
    tracer = None
    if trace:
        tracer = Tracer()
        install(tracer)
    cli = sys.modules["pqgeom.cli"]   # looked up after install rebinds main
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        code = cli.main(cli_args)
        wall = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "wall_s": wall,
                   "peak_rss_mb": peak_kib / 1024,
                   "trace": tracer.dump() if tracer else None}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
