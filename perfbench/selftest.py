"""Self-tests of the benchmark itself (not part of the library's test suite).

    python3 perfbench/selftest.py

Checks, on every workload, with short runs:

* BENCHMARK.json keeps to its format's keys and limits;
* the metric names and units emitted match BENCHMARK.json, for the
  untraced (end-to-end) and the traced (per-layer) run;
* the work counts (calls, orders, points, nodes, grid bytes) repeat exactly
  across two traced runs on one seed;
* another seed changes the inputs but not the item counts;
* in a directory holding only BENCHMARK.json and the benchmark, the command
  exits non-zero without printing a result.

Takes a few minutes; exits non-zero if any check fails.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / "traces" / "selftest"
SECONDS = "1"
COUNT_SUFFIXES = (".calls", ".orders", ".points", ".nodes", ".grid_bytes_computed")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(cwd: Path, workload: str, seed: int, trace: int):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def result_of(proc) -> tuple[dict, dict]:
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def check_spec(spec: dict) -> None:
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json has exactly the format's keys")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(all(NAME.match(n) for n in names) and len(names) == len(set(names)),
           "names are well-formed and unique")
    expect(all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"]),
           "each workload's why is one line of at most 200 characters")
    expect(all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]),
           "units are well-formed")
    expect(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]), "bounds lie in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s is present, in seconds, lower-is-better, with the largest bound")


def check_result(res: dict, spec_metrics: list, label: str) -> None:
    expect(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    want = {m["name"]: m["unit"] for m in spec_metrics}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    expect(got == want, f"{label}: metric names and units match BENCHMARK.json")
    expect(isinstance(res["attempted"], int) and res["attempted"] >= 1
           and isinstance(res["failed"], int), f"{label}: attempted/failed are counts")


def counts(res: dict) -> dict:
    return {k: v["value"] for k, v in res["metrics"].items() if k.endswith(COUNT_SUFFIXES)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for workload in [w["name"] for w in spec["workloads"]]:
        proc = run(ROOT, workload, 1, 0)
        expect(proc.returncode == 0, f"{workload}: untraced run exits 0")
        if proc.returncode:
            print(proc.stderr[-2000:])
            continue
        info0, res0 = result_of(proc)
        check_result(res0, spec["end_to_end"], f"{workload} --trace 0")
        expect(all(v["value"] != 0 for v in res0["metrics"].values()),
               f"{workload}: no end-to-end metric reads 0")

        traced = [run(ROOT, workload, seed, 1) for seed in (1, 1, 2)]
        expect(all(p.returncode == 0 for p in traced), f"{workload}: traced runs exit 0")
        if any(p.returncode for p in traced):
            continue
        (info_a, res_a), (_, res_b), (info_c, _) = map(result_of, traced)
        check_result(res_a, spec["per_layer"], f"{workload} --trace 1")
        expect(counts(res_a) == counts(res_b), f"{workload}: counts repeat on one seed")
        expect(info_a["inputs_digest"] == info0["inputs_digest"],
               f"{workload}: one seed gives the same inputs")
        expect(info_c["inputs_digest"] != info_a["inputs_digest"],
               f"{workload}: another seed changes the inputs")
        expect((info_c["items_per_pass"], info_c["extras_per_pass"])
               == (info_a["items_per_pass"], info_a["extras_per_pass"]),
               f"{workload}: another seed keeps the item counts")

    # a directory with only BENCHMARK.json and the benchmark's own files
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, SCRATCH / path,
                            ignore=shutil.ignore_patterns("traces", "__pycache__"))
        proc = run(SCRATCH, spec["workloads"][0]["name"], 1, 0)
        expect(proc.returncode != 0 and "metrics" not in proc.stdout,
               "without the library the command fails and prints no result")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
