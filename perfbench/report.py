"""Run every workload once and print its end-to-end metrics as a table.

    python3 perfbench/report.py

One untraced run per workload of BENCHMARK.json, on seed 1 for the file's
``run_seconds``, each with its correctness gates; prints workload, metric,
value and unit, then the gate verdict.
Exits non-zero if a run fails or an output fails its gate.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    print(f"{'workload':<16} {'metric':<16} {'value':>14}  unit")
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            spec["command"] + ["--workload", workload, "--seed", "1",
                               "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        if proc.returncode != 0:
            print(f"{workload:<16} run failed:\n{proc.stderr[-2000:]}")
            status = 1
            continue
        lines = proc.stdout.strip().splitlines()
        info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            print(f"{workload:<16} {name:<16} {metric['value']:>14.6g}  {metric['unit']}")
        print(f"{workload:<16} gates: {'pass' if result['correct'] else 'FAIL'} "
              f"({result['failed']} of {result['attempted']} evaluations failed; "
              f"tail = p{info['tail_percentile']:g}; gate details {json.dumps(info['gate'])})")
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
