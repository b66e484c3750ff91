"""Run the diskvar CLI in this fresh interpreter, as the installed ``diskvar`` script does.

Usage: python3 cli_child.py TRACE ARG...

With TRACE 0 the child only runs ``diskvar.cli.main``.  With TRACE 1 it also
times the import of ``diskvar.cli``, ``parse_args`` and the command
(``args.func``), notes whether numpy got imported, runs the command under the
benchmark's per-layer tracer, and writes all of it to stderr as one line
``BENCH_STAGES {json}``.  The timing wraps the CLI from outside; nothing in
the package is changed.
"""

import sys
import time


def _traced():
    t0 = time.perf_counter()
    import diskvar.cli as cli

    stages = {
        "import_s": time.perf_counter() - t0,
        "numpy_loaded": int("numpy" in sys.modules),
        "parse_s": 0.0,
        "command_s": 0.0,
    }
    make_parser = cli._parser

    def timed_parser():
        parser = make_parser()
        parse = parser.parse_args

        def parse_args(*args, **kwargs):
            start = time.perf_counter()
            ns = parse(*args, **kwargs)
            stages["parse_s"] = time.perf_counter() - start
            func = ns.func

            def timed_func(ns_):
                start = time.perf_counter()
                try:
                    return func(ns_)
                finally:
                    stages["command_s"] = time.perf_counter() - start

            ns.func = timed_func
            return ns

        parser.parse_args = parse_args
        return parser

    cli._parser = timed_parser
    from tracing import Tracer  # this script's directory is first on sys.path

    tracer = Tracer()
    try:
        with tracer.installed():
            return cli.cli_main()
    finally:
        import json

        stages["layers"] = tracer.totals()
        sys.stderr.write("BENCH_STAGES " + json.dumps(stages) + "\n")


if __name__ == "__main__":
    trace = sys.argv.pop(1) == "1"
    if trace:
        sys.exit(_traced())
    from diskvar.cli import main

    main()
