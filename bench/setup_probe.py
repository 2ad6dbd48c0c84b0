"""Time one workload set-up in a fresh interpreter and print its CPU seconds.

    python3 bench/setup_probe.py <workload>

Set-up is importing cfcql_lab (and with it numpy) and building the
workload's envs, configs and exact models (``pipeline.build``). Only a fresh
interpreter pays the import, so run.py starts this script several times, one
after another, and reports the median as ``setup_s``.
"""

import sys
from pathlib import Path
from time import process_time


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = process_time()
    import pipeline

    pipeline.build(sys.argv[1])
    print(process_time() - start)


if __name__ == "__main__":
    main()
