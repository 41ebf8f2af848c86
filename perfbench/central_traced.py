"""`gridwatch serve-central` with spans around the central process's layers.

    python3 perfbench/central_traced.py TRACE_CSV serve-central --feeder ...

Installs the wrappers of `spans.install_transport`, runs the program's own
CLI with the remaining arguments, then writes the spans to TRACE_CSV and a
summary next to it.
"""
from __future__ import annotations

import sys

from common import load_gridwatch
from spans import Tracer, install_transport


def main() -> int:
    trace_csv, argv = sys.argv[1], sys.argv[2:]
    gw = load_gridwatch()
    tracer = Tracer()
    install_transport(tracer, gw)
    code = gw.cli.main(argv)
    tracer.dump(trace_csv)
    return code


if __name__ == "__main__":
    sys.exit(main())
