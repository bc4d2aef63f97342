"""Start ``repro.server`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/serve_launcher.py SPANS_PATH [server args...]``

Runs :func:`repro.server.__main__.main` on the server arguments; once
SIGTERM has drained the server, pickles the spans and the server's
counters to ``SPANS_PATH`` for the benchmark to read.
"""

import pickle
import sys

import pbtrace


def main(argv) -> int:
    spans_path, server_args = argv[0], argv[1:]
    tracer = pbtrace.Tracer()
    pbtrace.install(tracer)
    from repro.server.__main__ import main as server_main
    from repro.util import counters

    code = server_main(server_args)
    with open(spans_path, "wb") as fh:
        pickle.dump(tracer.dump(counters.export()), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
