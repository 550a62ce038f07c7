"""SHA-256 of the raw output bits of one pass of each benchmark workload.

Usage (from the root of a checkout):

    python3 tools/pass_digest.py [--src DIR]

Builds each workload's plan from ``perfbench/workloads.py`` (imported, never
changed) at seeds 1 and 2, evaluates every item and every extra once, and
prints one line per (workload, seed): the SHA-256 of every output's type and
raw bits, in order.  Two library versions that print the same lines give
bit-identical benchmark outputs.  ``--src`` is the ``src`` directory whose
``abdirac`` is imported (default: this checkout's), so another checkout of
the library can be hashed with the same workloads.  The exit status is 1 if
any call raised, so a workload that starts raising fails a CI step.
"""

from __future__ import annotations

import argparse
import hashlib
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)
sys.path.insert(0, str(ROOT / "perfbench"))

import env  # noqa: E402


def feed(h, value) -> None:
    """Add a value's type and raw bits to the hash; containers recurse in order."""
    import numpy as np

    if isinstance(value, (np.ndarray, np.generic)):
        arr = np.ascontiguousarray(value)
        h.update(f"a{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    elif value is None or isinstance(value, (bool, int, str)):
        h.update(f"{type(value).__name__}:{value!r};".encode())
    elif isinstance(value, float):
        h.update(b"f" + struct.pack("<d", value))
    elif isinstance(value, complex):
        h.update(b"c" + struct.pack("<dd", value.real, value.imag))
    elif isinstance(value, (list, tuple)):
        h.update(f"{type(value).__name__}{len(value)}(".encode())
        for v in value:
            feed(h, v)
        h.update(b")")
    elif isinstance(value, dict):
        h.update(f"dict{len(value)}(".encode())
        for key in sorted(value):
            feed(h, key)
            feed(h, value[key])
        h.update(b")")
    else:
        raise TypeError(f"no raw-bit form for {type(value).__name__}")


def pass_digest(plan) -> tuple[str, int]:
    """Hash of one pass over the plan's items then extras, and how many raised.

    A raising call hashes as its exception type and message.
    """
    h = hashlib.sha256()
    calls = [(plan.call, item) for item in plan.items]
    calls += [(plan.call_extra, extra) for extra in plan.extras]
    raised = 0
    for call, arg in calls:
        try:
            feed(h, call(arg))
        except Exception as exc:  # noqa: BLE001 - a raising call is an output too
            raised += 1
            h.update(f"raised {type(exc).__name__}: {exc};".encode())
    return h.hexdigest(), raised


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the abdirac package to hash")
    args = parser.parse_args(argv)
    if not (args.src / "abdirac" / "__init__.py").is_file():
        parser.error(f"no abdirac package under {args.src}")
    env.pin()
    sys.path.insert(0, str(args.src.resolve()))
    import abdirac
    import workloads

    print(f"# abdirac from {Path(abdirac.__file__).parent}", file=sys.stderr)
    any_raised = False
    for name, make_plan in workloads.PLANS.items():
        for seed in SEEDS:
            plan = make_plan(seed)
            digest, raised = pass_digest(plan)
            any_raised |= raised > 0
            print(f"{name} seed={seed} items={len(plan.items)} extras={len(plan.extras)} "
                  f"raised={raised} sha256={digest}")
    return 1 if any_raised else 0


if __name__ == "__main__":
    sys.exit(main())
