"""Print the set-up time of one workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Times ``run.set_up`` plus the imports of ``run.py``, the same set-up a
benchmark run measures; run.py starts this a few times and reports the
median.
"""

import time

T_START = time.perf_counter()

import sys  # noqa: E402

import run  # noqa: E402


def main() -> int:
    run.set_up(sys.argv[1], int(sys.argv[2]))
    print(time.perf_counter() - T_START)
    return 0


if __name__ == "__main__":
    sys.exit(main())
