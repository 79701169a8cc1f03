"""Traced `comb_ranger.cli` entry point: launch_cli.py SPANS_PATH ARGS...

Runs in a fresh interpreter.  It times the import of comb_ranger.cli as the
span `cli.import`, installs the layer wrappers, calls `cli.main(ARGS)` and
writes the spans to SPANS_PATH before exiting with main's exit code.
"""

import sys
import time

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    rec = tracing.Recorder()
    start = time.perf_counter()
    import comb_ranger.cli

    rec.spans.append(["cli.import", start, time.perf_counter(), -1, 0, None])
    tracing.install(rec)
    rec.op = 0
    try:
        return comb_ranger.cli.main(argv)
    finally:
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
