"""One benchmark process, started by run.py from the root of a checkout.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

It imports subsumlab from ./src, sets the workload up and prints READY with
the host reference time over the set-up (hostspeed.py).  With
--setup-only it stops there.  Otherwise it runs the timed loop and prints one
JSON line: the counts, the failure lines and the metrics of the mode (the
end-to-end metrics with --trace 0; with --trace 1, an untraced half and a
traced half, giving the per-layer metrics and the tracing overhead).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys

import hostspeed

ROOT = os.getcwd()
STARTUP_PROBES = 5


def quantiles_ms(values: list) -> tuple[float, float]:
    """(p50, p90) in ms; statistics.quantiles' default (exclusive) method."""
    if len(values) < 2:
        v = values[0] * 1000 if values else 0.0
        return v, v
    q = statistics.quantiles(values, n=10)
    return q[4] * 1000, q[8] * 1000


def latency_ms(rounds: list) -> tuple[float, float]:
    """(p50, p90) of request latency in ms.

    A round of a request workload holds the same fixed mix every time, so
    each round's own p50 and p90 estimate the mix's, and the median over
    rounds is taken: a burst of host slowness then spoils a few rounds
    instead of moving the figure.  A sweep round is a single pass; its
    passes are pooled.
    """
    if all(len(r) >= 2 for r in rounds):
        per_round = [quantiles_ms(r) for r in rounds]
        return (statistics.median(p50 for p50, _ in per_round),
                statistics.median(p90 for _, p90 in per_round))
    return quantiles_ms([x for r in rounds for x in r])


def end_to_end(name: str, out) -> dict:
    p50, p90 = latency_ms(out.latencies)
    who = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
    return {
        "throughput_per_s": (statistics.median(out.round_rates), "ops/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, base, traced, startup_ms: float) -> dict:
    calls, self_s = tracer.calls, tracer.self_s
    q_calls = calls.get("groups.quotient_cached", 0)
    certs = traced.certs
    m = {
        "groups.translate_mask.calls": (calls.get("groups.translate_mask", 0), "count"),
        "groups.quotient_decompose.calls": (calls.get("groups.quotient_decompose", 0), "count"),
        "groups.quotient_cache.hit_ratio": (
            (q_calls - tracer.cache_misses) / q_calls if q_calls else 0.0, "ratio"),
        "sequences.subsum_table.calls": (calls.get("sequences.subsum_table", 0), "count"),
        "sequences.subsum_table.per_instance": (
            calls.get("sequences.subsum_table", 0) / traced.ops, "calls/op"),
        "sequences.GSequence.calls": (calls.get("sequences.GSequence", 0), "count"),
        "setpartitions.partition_solve.calls": (
            calls.get("setpartitions.partition_solve", 0), "count"),
        "setpartitions.partition_verify.calls": (
            calls.get("setpartitions.partition_verify", 0), "count"),
        "setpartitions.main_verify.calls": (calls.get("setpartitions.main_verify", 0), "count"),
        "setpartitions.main_pipeline.failed": (
            tracer.failed.get("setpartitions.main_pipeline", 0), "count"),
        "setpartitions.solve_per_cert": (
            calls.get("setpartitions.partition_solve", 0) / certs if certs else 0.0,
            "calls/cert"),
        "setpartitions.verify_per_cert": (
            calls.get("setpartitions.partition_verify", 0) / certs if certs else 0.0,
            "calls/cert"),
        "search.exhaustive.self_s": (traced.part_self.get("exhaustive", 0.0), "s"),
        "search.random.self_s": (traced.part_self.get("random", 0.0), "s"),
        "search.instances": (traced.instances, "count"),
        "search.checks_run": (traced.checks, "count"),
        "cli.startup_ms": (startup_ms, "ms"),
        "cli.handler_ms": (statistics.median(base.handler_ms) if base.handler_ms else 0.0, "ms"),
        "cli.overhead_ms": (
            statistics.median(base.overhead_ms) if base.overhead_ms else 0.0, "ms"),
        "trace.overhead_pct": (
            ((traced.scaled_elapsed / traced.ops) / (base.scaled_elapsed / base.ops) - 1) * 100,
            "%"),
    }
    for name in ("groups.sumset", "groups.stabilizer", "groups.subgroup_generated",
                 "groups.quotient_decompose", "sequences.subsum_table",
                 "sequences.subsum_profile", "sequences.push_forward",
                 "sequences.build_s_star", "setpartitions.partition_solve",
                 "setpartitions.partition_verify", "setpartitions.main_pipeline",
                 "setpartitions.main_verify", "verifiers.check_subsum_kneser",
                 "verifiers.check_lemma_extra", "search.run_audit"):
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    return m


def main(argv: list) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # One CPU for this worker and the CLI processes it starts, so the host
    # reference is measured where the timed work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sampler = hostspeed.Sampler()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import subsumlab
    if not os.path.abspath(subsumlab.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"subsumlab imported from {subsumlab.__file__}, not ./src")
    import workloads
    from tracing import Tracer

    wl = workloads.make(args.workload, args.seed, ROOT)
    wl.setup(sampler.tick)
    # the parent scales this process's set-up time by this reference
    print(f"READY {sampler.ref()!r}", flush=True)
    if args.setup_only:
        return 0

    info = {}
    if not args.trace:
        out = wl.run(args.seconds)
        outcomes = [out]
        metrics = end_to_end(args.workload, out)
    else:
        base = wl.run(args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = wl.run(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        outcomes = [base, traced]
        startup_ms = 0.0
        if args.workload == "cli_cold":
            startup_ms = statistics.median(
                wl.startup_probe() for _ in range(STARTUP_PROBES)) * 1000
        metrics = per_layer(tracer, base, traced, startup_ms)
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write_spans(spans)
        info["spans_file"] = os.path.relpath(spans, ROOT)
        info["spans_kept"] = len(tracer.spans)
        out = traced

    ops = sum(o.ops for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    info.update({
        "samples": sum(len(r) for r in out.latencies),
        "rounds": len(out.latencies),
        "verify_p50_ms": quantiles_ms(out.verify)[0] if out.verify else None,
        "verify_samples": len(out.verify),
        "failed_frac": failed / ops if ops else 0.0,
        "elapsed_s": sum(o.elapsed for o in outcomes),
        "host_factor": statistics.median(r for o in outcomes for r in o.refs) / hostspeed.NOMINAL_S,
    })
    print(json.dumps({
        "attempted": ops,
        "failed": failed,
        "wrong": sum(o.wrong for o in outcomes),
        "failures": [line for o in outcomes for line in o.failures],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
