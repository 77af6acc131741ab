"""subsumlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.
Workloads: bound_sweep, certify_sweep, certify_requests, cli_cold (see
perfbench/README.md).  The workload is set up SETUP_RUNS times, each in a
fresh worker process, and setup_s is the median time from starting a worker
to its READY line.  The last worker then runs the timed loop.  Every time is
scaled to the nominal host speed (hostspeed.py); the host factor is printed.

Prints every metric by name and unit, any failure with a replay line in the
CLI grammar, and as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}.  Exits 1 when any output was
wrong (a pinned count drifted, a certificate was rejected, a CLI reply had an
unexpected exit code); exits 2 without a result when the run itself could not
be made (no ./src/subsumlab, a worker that crashed or timed out).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bound_sweep", "certify_sweep", "certify_requests", "cli_cold")
SETUP_RUNS = 3
WORKER_TIMEOUT_S = 150


class RunError(Exception):
    pass


def run_worker(args, setup_only: bool) -> tuple[float, float, dict | None]:
    """(raw and scaled seconds from start to READY, parsed result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    word, _, ref = ready.partition(" ")
    if word != "READY" or code != 0:
        raise RunError(f"worker exited with code {code} (setup_only={setup_only})")
    scaled = hostspeed.scale(setup_s, float(ref))
    if setup_only:
        return setup_s, scaled, None
    lines = rest.strip().splitlines()
    if not lines:
        raise RunError("worker printed no result")
    return setup_s, scaled, json.loads(lines[-1])


def main(argv: list) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "subsumlab", "__init__.py")):
        print("error: run from the root of a subsumlab checkout (no src/subsumlab)",
              file=sys.stderr)
        return 2
    try:
        setups = [run_worker(args, setup_only=True)[:2] for _ in range(SETUP_RUNS - 1)]
        raw, scaled, result = run_worker(args, setup_only=False)
    except (RunError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setups.append((raw, scaled))

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(s for _, s in setups), "unit": "s"}
    info = result["info"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"timed {info['elapsed_s']:.2f} s  rounds {info['rounds']}  "
          f"latency samples {info['samples']}")
    print(f"  host factor {info['host_factor']:.3f} "
          f"(timed phase; raw time = scaled time x factor)")
    print(f"  set-ups, raw s (scaled s): "
          f"{', '.join(f'{r:.3f} ({s:.3f})' for r, s in setups)}")
    for name in sorted(metrics):
        print(f"  {name:42s} {metrics[name]['value']:>14.6g} {metrics[name]['unit']}")
    if info["verify_p50_ms"] is not None:
        print(f"  {'verify_p50_ms':42s} {info['verify_p50_ms']:>14.6g} ms "
              f"({info['verify_samples']} samples)")
    print(f"  {'failed_frac':42s} {info['failed_frac']:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    for key in ("spans_file", "spans_kept"):
        if key in info:
            print(f"  {key}: {info[key]}")
    for line in dict.fromkeys(result["failures"]):
        print(f"failure ({result['failures'].count(line)}x): {line}")
    correct = result["wrong"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
