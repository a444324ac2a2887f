"""Launch ``python -m repro.tools.serve`` for the benchmark, optionally traced.

Usage: ``serve_server.py [--trace-dir DIR] -- <repro.tools.serve args>``.
With ``--trace-dir`` the serve-layer wrappers of ``layers.py`` are
installed before the server starts, and the spans are written to DIR
when it exits (after SIGTERM has drained it).
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    trace_dir = None
    if argv and argv[0] == "--trace-dir":
        trace_dir, argv = argv[1], argv[2:]
    if argv and argv[0] == "--":
        argv = argv[1:]
    from repro.tools import serve

    tracer = None
    if trace_dir is not None:
        import layers

        tracer = layers.Tracer(trace_dir)
        layers.install_serve(tracer)
    try:
        return serve.main(argv)
    finally:
        if tracer is not None:
            tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
