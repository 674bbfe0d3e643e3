"""Run one cycloperm CLI invocation under the tracer.

    python cli_traced.py TRACE_FILE ARGS...

behaves like `python -m cycloperm.cli ARGS...` (same stdout, stderr and exit
code) and writes the trace, with the time `import cycloperm.cli` took, to
TRACE_FILE.
"""

from __future__ import annotations

import sys
import time


def main(argv: list[str]) -> int:
    trace_file, cli_args = argv[1], argv[2:]
    start = time.perf_counter()
    from cycloperm import cli

    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.begin_query(" ".join(cli_args))
    try:
        code = cli.run(cli_args)
    finally:
        tracer.end_query()
        sys.stdout.flush()
        tracer.dump(trace_file, {"import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
