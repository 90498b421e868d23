"""Run one resilkit command line with layer tracing.

Usage: python3 perfbench/cli_child.py TRACE_FILE.npz ARG...

Equivalent to ``python -m resilkit ARG...`` except that it times its own
``import resilkit.cli``, wraps the layer boundaries (see tracing.py) and
writes the spans to TRACE_FILE before exiting with the command's status.
"""

import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from tracing import Tracer  # noqa: E402

t0 = perf_counter()
import resilkit.cli  # noqa: E402

tracer = Tracer()
tracer.add_span("cli.import", t0, perf_counter())
tracer.install()
try:
    code = resilkit.cli.main(sys.argv[2:])
finally:
    tracer.uninstall()
    tracer.save(sys.argv[1])
sys.exit(code)
