"""Run one grouplim CLI command with its layers traced.

Usage: python bench/cli_traced.py SPANS.csv <grouplim arguments...>

Behaves like ``python -m grouplim.cli <arguments>`` (same stdout, stderr
and exit code) but times ``import grouplim.cli`` as the span ``cli.import``
and wraps the layers before dispatching; the spans are written to SPANS.csv
when the command ends.
"""

import sys
import time

from tracer import Tracer, dump_spans


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    import grouplim.cli as cli

    tracer.record("cli.import", start, time.perf_counter())
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        dump_spans(tracer.spans, spans_path)


if __name__ == "__main__":
    sys.exit(main())
