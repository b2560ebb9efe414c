"""``mixbo serve`` with every layer traced, for the benchmark's traced runs.

Usage: python serve_traced.py DUMP_PATH

Serves the wire protocol on stdin/stdout exactly as ``mixbo serve`` does
and, when stdin ends, writes the spans and samples recorded in this
process to DUMP_PATH as JSON.
"""

import json
import sys

import tracing
from mixbo.cli import serve


def main() -> int:
    tracer = tracing.install()
    code = serve(sys.stdin, sys.stdout)
    tracer.uninstall()
    with open(sys.argv[1], "w") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
