"""Benchmark of the abdirac library: field map, matching sweep, packet scan.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload field_map --seed 1 --seconds 20 --trace 0

One single-threaded process evaluates the workload's fixed item list in
passes until ``--seconds`` have elapsed (at least MIN_PASSES passes), then
checks the first pass against the workload's oracle outside the timed region.
Timings are each call's median over the passes, scaled to reference seconds
by ``calibration.py``.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is the JSON result; the line before it
records the environment, sample counts and gate details.  See NOTES.md.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import env  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOADS = ("field_map", "matching_sweep", "packet_scan")
MIN_PASSES = 3
SETUP_PROBES = 4  # fresh-process set-ups added to this process's own
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TRACE_DIR = HERE / "traces"


def tail_percentile(n_items: int) -> float:
    """Highest ladder percentile with at least ten items beyond it."""
    ok = [p for p in TAIL_LADDER if n_items * (100.0 - p) / 100.0 >= 10.0]
    return ok[-1] if ok else TAIL_LADDER[0]


def same(a, b) -> bool:
    if a is None or b is None:
        return False
    if hasattr(a, "shape"):
        import numpy as np

        return bool(np.array_equal(a, b))
    return a == b


def run_pass(plan, tracer=None, calibrator=None):
    """Evaluate every item and extra once.

    Returns outputs, extra outputs, latencies, pass wall time and errors.  A
    calibrator, if given, samples its kernel between calls (outside the
    latencies) and the latencies come back in reference seconds.
    """
    outputs, latencies, errors = [], [], []
    start = time.perf_counter()
    for idx, item in enumerate(plan.items):
        if tracer is not None:
            tracer.item = idx
        scale = calibrated(calibrator)
        t0 = time.perf_counter()
        try:
            out = plan.call(item)
        except Exception as exc:  # a raising item is a failed item, not a crash
            out = None
            errors.append(f"item {idx}: {type(exc).__name__}: {exc}")
        latencies.append((time.perf_counter() - t0) * scale)
        outputs.append(out)
    extras = []
    for idx, extra in enumerate(plan.extras):
        if tracer is not None:
            tracer.item = f"extra{idx}"
        scale = calibrated(calibrator)
        t0 = time.perf_counter()
        try:
            out = plan.call_extra(extra)
        except Exception as exc:
            out = None
            errors.append(f"extra {idx}: {type(exc).__name__}: {exc}")
        latencies.append((time.perf_counter() - t0) * scale)
        extras.append(out)
    return outputs, extras, latencies, time.perf_counter() - start, errors


def calibrated(calibrator) -> float:
    """Scale for the next call: 1 without a calibrator."""
    if calibrator is None:
        return 1.0
    calibrator.tick()
    return calibrator.scale()


def set_up(workload: str, seed: int):
    """Import the library from ``src/``, build the seeded inputs and make the
    first warm call; return the workload's plan.

    Raises env.MissingLibrary when ``src/abdirac`` is absent or shadowed.
    """
    env.pin()
    import abdirac
    import workloads

    if env.SRC not in Path(abdirac.__file__).resolve().parents:
        raise env.MissingLibrary(f"imported abdirac from {abdirac.__file__}, not {env.SRC}")
    plan = workloads.PLANS[workload](seed)
    plan.call(plan.items[0])
    return plan


def setup_seconds(workload: str, seed: int, own_setup: float):
    """Median set-up time in reference seconds over this process's own set-up
    and SETUP_PROBES fresh interpreters, each scaled by the import reference
    timed right after it.  Also returns the raw set-ups and references."""
    import calibration

    setups = [own_setup]
    refs = [calibration.import_reference()]
    for _ in range(SETUP_PROBES):
        setups.append(setup_probe(workload, seed))
        refs.append(calibration.import_reference())
    scaled = [s * calibration.IMPORT_REFERENCE_S / r for s, r in zip(setups, refs)]
    return statistics.median(scaled), setups, refs


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter: imports, inputs, first call."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def count_failures(plan, check, passes_out, passes_extra):
    """Failed evaluations over all passes: gate failures, raises, and any
    output that differs from the first pass."""
    first_out, first_extra = passes_out[0], passes_extra[0]
    failed = 0
    for outs, extras in zip(passes_out, passes_extra):
        failed += sum(
            bad or not same(out, ref)
            for bad, out, ref in zip(check.item_failed, outs, first_out)
        )
        failed += sum(
            bad or not same(out, ref)
            for bad, out, ref in zip(check.extra_failed, extras, first_extra)
        )
    attempted = len(passes_out) * (len(plan.items) + len(plan.extras))
    return attempted, failed


def timed_run(plan, seconds: float, setup_s: float):
    import calibration
    import numpy as np

    calibrator = calibration.Calibrator()
    passes_out, passes_extra, walls, latencies, errors = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        outs, extras, lat, wall, errs = run_pass(plan, calibrator=calibrator)
        passes_out.append(outs)
        passes_extra.append(extras)
        latencies.append(lat)
        walls.append(wall)
        errors += errs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check = plan.check(passes_out[0], passes_extra[0])
    attempted, failed = count_failures(plan, check, passes_out, passes_extra)
    # each call's median over passes, in reference seconds: the shared
    # machine's speed drifts, the cost of an input does not
    typical = np.median(np.asarray(latencies), axis=0)
    item_ms = typical[: len(plan.items)] * 1e3 / plan.points_per_item
    p_tail = tail_percentile(len(plan.items))
    metrics = {
        "wall_s": (float(np.sum(typical)), "s"),
        "item_ms_p50": (float(np.percentile(item_ms, 50.0)), "ms"),
        "item_ms_tail": (float(np.percentile(item_ms, p_tail)), "ms"),
        "accuracy_digits": (check.accuracy_digits, "digits"),
        "passed_frac": (1.0 - failed / attempted, "frac"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    info = {
        "passes": len(walls),
        "items_per_pass": len(plan.items),
        "points_per_item": plan.points_per_item,
        "extras_per_pass": len(plan.extras),
        "item_samples": len(walls) * len(plan.items),
        "tail_percentile": p_tail,
        "calibration_samples": len(calibrator.samples),
        "calibration_median_s": statistics.median(calibrator.samples),
        "pass_wall_s": walls,
        "gate": check.info,
        "errors": errors[:5],
    }
    return attempted, failed, metrics, info


def traced_run(plan, seconds: float, workload: str, seed: int):
    import tracing

    tracer = tracing.Tracer()
    passes_out, passes_extra, untraced, traced, errors = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        outs, extras, _, wall, errs = run_pass(plan)
        untraced.append(wall)
        passes_out.append(outs)
        passes_extra.append(extras)
        errors += errs
        tracer.pass_index = len(traced)
        with tracer.patched():
            outs, extras, _, wall, errs = run_pass(plan, tracer)
        traced.append(wall)
        passes_out.append(outs)
        passes_extra.append(extras)
        errors += errs

    check = plan.check(passes_out[0], passes_extra[0])
    attempted, failed = count_failures(plan, check, passes_out, passes_extra)
    stats = [tracer.pass_stats(i) for i in range(len(traced))]
    first = stats[0]
    metrics = {}
    for name, work_kind in tracing.TARGETS.items():
        entry = first["functions"][name]
        metrics[f"{name}.calls"] = (entry["calls"], "count")
        if work_kind:
            metrics[f"{name}.{work_kind}"] = (entry["work"], "count")
        self_s = [s["functions"][name]["self_s"] for s in stats]
        metrics[f"{name}.self_s"] = (statistics.median(self_s), "s")
    terms = check.info.get("terms_used", 0)
    metrics["scattering.ladder_orders_per_term"] = (
        first["ladder_orders_in_state"] / terms if terms else 0.0, "ratio")
    metrics["propagate.grid_bytes_computed"] = (first["grid_bytes"], "B")
    metrics["propagate.closed_quad_ratio"] = (
        check.info.get("closed_quad_ratio", 0.0), "ratio")
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced), "s")

    repeat_counts = all(
        s["functions"][n]["calls"] == first["functions"][n]["calls"]
        and s["functions"][n]["work"] == first["functions"][n]["work"]
        for s in stats for n in tracing.TARGETS
    )
    trace_file = TRACE_DIR / f"{workload}-seed{seed}.jsonl"
    tracer.write(trace_file, {"workload": workload, "seed": seed,
                              "digest": plan.digest()})
    info = {
        "pass_pairs": len(traced),
        "items_per_pass": len(plan.items),
        "extras_per_pass": len(plan.extras),
        "traced_wall_s": traced,
        "untraced_wall_s": untraced,
        "counts_repeat_within_run": repeat_counts,
        "spans": len(tracer.spans),
        "trace_file": str(trace_file.relative_to(env.ROOT)),
        "gate": check.info,
        "errors": errors[:5],
    }
    return attempted, failed, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        plan = set_up(args.workload, args.seed)
    except env.MissingLibrary as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    own_setup = time.perf_counter() - T_START

    if args.trace:
        attempted, failed, metrics, info = traced_run(
            plan, args.seconds, args.workload, args.seed)
    else:
        setup_s, setups, refs = setup_seconds(args.workload, args.seed, own_setup)
        attempted, failed, metrics, info = timed_run(plan, args.seconds, setup_s)
        info["raw_setup_s"] = setups  # this process's own first
        info["import_reference_s"] = refs

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "inputs_digest": plan.digest(), "env": env.describe(), **info}
    print(json.dumps({"info": info}, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
