"""Run one ``stresstomo`` subcommand with layer tracing installed.

    python3 perfbench/launcher.py SPANS.json <stresstomo arguments...>

Imports the program, wraps its layer functions (see spans.py), runs
``stresstomo.cli.main`` under a ``cli.main`` span, writes the spans to
SPANS.json and exits with main's return code.  The harness measures the
process wall time around this, so wall time minus ``cli.main`` is the cost
of interpreter start and imports.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer  # noqa: E402


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    from stresstomo import cli

    tracer = Tracer()
    tracer.install()
    rec = tracer.open("cli.main")
    try:
        code = cli.main(argv)
    finally:
        tracer.close(rec)
        tracer.uninstall()
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
