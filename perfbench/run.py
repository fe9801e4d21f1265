"""Benchmark of repart: one workload per invocation, result as a JSON line.

    python3 perfbench/run.py --workload uniform-l256 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its
``src`` directory. The load is a closed loop with one client: each run
of ``run_experiment`` starts when the previous one has returned, and
within a run each request is generated after the previous one is served.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1
also traces set-up and a fixed window of runs, prints the per-layer
metrics, and writes the spans to ``perfbench/out/<workload>.spans.jsonl.gz``.
The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 7

# the program under test comes from this checkout's src, never from elsewhere
sys.path.insert(0, str(SRC))
try:
    import repart
except ImportError as exc:
    sys.exit(f"perfbench: cannot import repart from {SRC}: {exc}")
if SRC not in Path(repart.__file__).resolve().parents:
    sys.exit(f"perfbench: repart was imported from {repart.__file__}, not {SRC}")

import cases  # noqa: E402
import tracing  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description="repart benchmark")
    parser.add_argument("--workload", required=True, choices=tuple(cases.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up, print READY, exit (one set-up time sample)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(name: str, seed: int):
    """Build the run order from the stored pool and warm the caches."""
    spec = cases.SPECS[name]
    ops = cases.build_ops(spec, cases.load_golden(name))
    order = cases.run_order(spec, ops, seed)
    warm_errors = cases.warm_up(spec, order)
    return spec, order, warm_errors


def setup_samples(args) -> list:
    """Seconds from process start to ready, in fresh processes."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
        if line.strip() != "READY" or child.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe exited with {child.returncode}")
        samples.append(ready - start)
    return samples


def run_ops(spec, ops, tally, clock, seconds=0.0, min_ops=0, on_report=None):
    """Run ops in order, cycling, until ``seconds`` passed and ``min_ops`` ran.

    Stops only between whole groups.
    """
    start = time.perf_counter()
    done = 0
    while True:
        cases.execute(spec, ops[done % len(ops)], tally, clock, on_report)
        done += 1
        if done % spec.group == 0:
            tally.close_group(spec.group)
            if done >= min_ops and time.perf_counter() - start >= seconds:
                return


def percentile(samples_sorted, p: float) -> tuple:
    """(nearest-rank p-th percentile, number of samples above it)."""
    rank = max(1, -(-round(p * 10) * len(samples_sorted) // 1000))
    return samples_sorted[rank - 1], len(samples_sorted) - rank


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(spec, tally, clock, setup_s) -> tuple:
    """End-to-end metrics of the timed pass; setup_s is None when not sampled."""
    samples = sorted(clock.samples_ns)
    tail_ns, beyond = percentile(samples, spec.tail_percentile)
    metrics = {
        "req_per_s": metric(tally.rate(), "requests/s"),
        "serve_us_p50": metric(statistics.median(samples) / 1e3, "us"),
        "serve_us_tail": metric(tail_ns / 1e3, "us"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"
        ),
        "ok_share": metric(1 - tally.failed / tally.attempted, "ratio"),
    }
    detail = {
        "failed_share": tally.failed / tally.attempted,
        "serve_samples": len(samples),
        "serve_tail_percentile": spec.tail_percentile,
        "serve_samples_beyond_tail": beyond,
        "group_rates": [float(f"{r:.5g}") for r in tally.group_rates],
    }
    if setup_s is not None:
        metrics["setup_s"] = metric(statistics.median(setup_s), "s")
        detail["setup_samples_s"] = setup_s
    return metrics, detail


def per_layer(tracer, window, timed) -> dict:
    """Per-layer metrics of the traced set-up and window."""
    traced_ns = sum(
        end - start
        for parent, start, end in zip(tracer.span_parent, tracer.span_start, tracer.span_end)
        if parent == tracing.NONE
    )
    metrics = {}
    for name, _, _ in tracing.LAYERS:
        nid = tracer.name_id(name)
        metrics[f"{name}.calls"] = metric(tracer.calls[nid], "count")
        metrics[f"{name}.self_ms"] = metric(tracer.self_ns[nid] / 1e6, "ms")
        metrics[f"{name}.share"] = metric(tracer.self_ns[nid] / traced_ns, "ratio")
    for name in (
        "engine.retained_snapshot_entries",
        "model.nodes_scanned",
        "optimum.state_steps",
        "optimum.dist_bytes",
    ):
        metrics[name] = metric(tracer.counters.get(name, 0), "count")
    for name in ("configs.demand_packable", "graver.max_subdeterminant"):
        metrics[f"{name}.repeat_ratio"] = metric(tracer.repeat_ratio(name), "ratio")
    # the timed pass starts with the window's ops, untraced
    traced = window.rate()
    untraced = timed.rate(0, len(window.op_ns))
    metrics["trace.req_per_s"] = metric(traced, "requests/s")
    metrics["trace.untraced_req_per_s"] = metric(untraced, "requests/s")
    metrics["trace.overhead_share"] = metric(1 - traced / untraced, "ratio")
    return metrics


def traced_set_up(args, clock):
    """Set up and run the window of ops with every layer traced."""
    tracer = tracing.Tracer()
    tracing.install(tracer)
    window = cases.Tally()

    def retained(report):
        tracer.count("engine.retained_snapshot_entries", tracing.snapshot_entries(report))

    try:
        with tracer.region("bench.setup"):
            spec, order, warm_errors = set_up(args.workload, args.seed)
        with tracer.region("bench.window"):
            window_ops = order[: spec.window_groups * spec.group]
            run_ops(
                spec, window_ops, window, clock,
                min_ops=len(window_ops), on_report=retained,
            )
    finally:
        tracer.restore()
    return tracer, window, spec, order, warm_errors


def pin_to_one_cpu() -> None:
    """Keep this single-threaded process, and its set-up probes, on one CPU.

    The highest-numbered allowed CPU is used, since CPU 0 is the usual
    target of device interrupts.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    if args.setup_only:
        set_up(args.workload, args.seed)
        print("READY", flush=True)
        return 0
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    listed = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]

    clock = cases.ServeClock()
    clock.install()

    if args.trace:
        setup_s = None
        tracer, window, spec, order, warm_errors = traced_set_up(args, clock)
    else:
        setup_s = setup_samples(args)
        spec, order, warm_errors = set_up(args.workload, args.seed)

    # the timed pass, untraced; in a traced run it covers the window's ops
    # too, so their untraced rate is known
    timed = cases.Tally()
    clock.recording = True
    run_ops(
        spec, order, timed, clock,
        seconds=args.seconds,
        min_ops=len(window.op_ns) if args.trace else 0,
    )
    clock.recording = False

    metrics, detail = end_to_end(spec, timed, clock, setup_s)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        attempted=timed.attempted,
        failed=timed.failed,
        errors=dict(timed.errors),
        warm_up_errors=warm_errors,
        reports_checked=timed.checked,
        digest_mismatches=timed.mismatched,
    )
    correct = timed.checked > 0 and timed.mismatched == 0
    if args.trace:
        metrics.update(per_layer(tracer, window, timed))
        detail["window_errors"] = dict(window.errors)
        correct = correct and window.mismatched == 0
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{args.workload}.spans.jsonl.gz"
        header = dict(
            detail,
            columns=["id", "name", "start_ns", "end_ns", "parent", "request"],
            layers={name: m["value"] for name, m in metrics.items()},
        )
        tracer.write_spans(path, header)
        detail["spans_file"] = str(path.relative_to(ROOT))

    for name, m in metrics.items():
        print(f"{name:<45} {m['value']:>16.6f} {m['unit']}")
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": timed.attempted,
        "failed": timed.failed,
        "metrics": {name: metrics[name] for name in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
