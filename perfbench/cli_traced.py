"""Run the ``homkit`` command under the benchmark's tracer.

Usage: python perfbench/cli_traced.py SPANS_FILE homkit-args...

Behaves like ``python -m homkit.cli homkit-args...`` (same stdout and
exit code) and writes the spans of the listed library calls to
SPANS_FILE when the command ends.
"""

import sys

from homkit import cli
from tracer import Tracer


def main():
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
