"""Run one so3tqft command with every layer wrapped in spans.

    PYTHONPATH=src python3 perfbench/traced_cli.py OUT.jsonl OP_ID -- ARGV...

Imports so3tqft.cli (timed as ``import_s``), installs the tracer, calls
``so3tqft.cli.main(ARGV)``, restores the originals, writes the spans to
OUT.jsonl and exits with main's exit code.
"""

import sys
from time import perf_counter

from tracer import Tracer


def main(argv):
    out, op, sep, *cli_argv = argv
    if sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    start = perf_counter()
    import so3tqft.cli

    import_s = perf_counter() - start
    tracer = Tracer(int(op))
    tracer.install()
    try:
        code = tracer.wrap(so3tqft.cli.main, "cli.main")(cli_argv)
    finally:
        tracer.restore()
    sys.stdout.flush()
    tracer.write(out, argv=cli_argv, import_s=import_s, exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
