"""Child-process entry points of the benchmark.

    python3 -m perfbench.child setup <workload> <seed>   one timed set-up, then exit
    python3 -m perfbench.child cli <symspace args...>    a CLI op that reports its
                                                         import and main times

The ``cli`` form prints ``PERFBENCH {"import_ms": .., "main_ms": ..}`` on
stderr, also when the op crashes, and exits with the op's exit code.
"""

from __future__ import annotations

import json
import sys
import time


def run_cli(args: list[str]) -> int:
    t0 = time.perf_counter()
    import symspace.cli as cli
    t1 = time.perf_counter()
    rc = 1
    try:
        rc = cli.main(args)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 1
    finally:
        t2 = time.perf_counter()
        sys.stdout.flush()
        print("PERFBENCH " + json.dumps({"import_ms": (t1 - t0) * 1000,
                                         "main_ms": (t2 - t1) * 1000}), file=sys.stderr)
    return rc


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 3:
        from .run import setup
        setup(argv[1], int(argv[2]))
        return 0
    if argv[:1] == ["cli"]:
        return run_cli(argv[1:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
