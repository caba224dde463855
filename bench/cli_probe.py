"""``python -m mbqc.cli`` with timestamps, for the traced cli run.

Usage: ``python bench/cli_probe.py TIMING.json <mbqc arguments>``.  Runs the
CLI exactly as ``python -m mbqc.cli`` does and writes to TIMING.json when
this script started (``time.perf_counter``, comparable across processes on
one machine) and how long ``import mbqc.cli`` took.
"""

import sys
import time

START = time.perf_counter()


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    from mbqc.cli import main as cli_main

    import_s = time.perf_counter() - t0
    try:
        return cli_main(argv)
    finally:
        import json

        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"start": START, "import": import_s}, fh)


if __name__ == "__main__":
    sys.exit(main())
