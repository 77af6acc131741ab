"""Run interleaved parent/change pairs of the benchmark and write a ledger.

Usage (from anywhere; both directories are checkouts with perfbench/ and src/):

    python3 scripts/ledger_pairs.py --parent DIR --change DIR \
        --workload certify_requests --pairs 10 --out BENCH_24.json

Pair k runs `python3 perfbench/run.py --workload W --seed K --seconds S
--trace T` once in each checkout, one run at a time, K = --first-seed + k - 1.
Odd pairs run the parent first, even pairs the change first.  Before every
run, src/subsumlab/__pycache__ and perfbench/__pycache__ of that side are
deleted, so neither side runs bytecode the other compiled.

The ledger keeps every run: the last JSON line of run.py, its exit code,
wall time, stderr tail and failed_frac = failed / attempted.  Per workload
and per end-to-end metric of the change's BENCHMARK.json, the summary gives
each side's median and quartiles (statistics.quantiles, n=4, inclusive), the
parent's IQR, change_pct of the medians and change_wins, the pairs in which
the change is strictly better.  Only untraced runs are summarised.  When
--out exists, its runs are kept and the new ones are added (pair numbers
continue), so workloads can be run in separate calls.  perfbench/ is read,
never changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(side_dir: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    for cache in ("src/subsumlab/__pycache__", "perfbench/__pycache__"):
        shutil.rmtree(side_dir / cache, ignore_errors=True)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=side_dir, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    result = None
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith("{"):
            result = json.loads(line)
            break
    attempted = result["attempted"] if result else 0
    return {"seed": seed, "run_seconds": seconds, "trace": trace, "wall_s": round(wall, 1),
            "exit": proc.returncode, "result": result,
            "stderr_tail": proc.stderr.splitlines()[-5:],
            "failed_frac": result["failed"] / attempted if attempted else None}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and metric: medians, quartiles, parent IQR and pairs won,
    over the untraced pairs in which both sides gave the metric."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload and r["trace"] == 0 and r["result"]:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
        rows = {}
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            both = [(p["parent"][name]["value"], p["change"][name]["value"])
                    for p in pairs.values()
                    if name in p.get("parent", {}) and name in p.get("change", {})]
            if not both:
                continue
            par, chg = [a for a, _ in both], [b for _, b in both]
            pq1, pmed, pq3 = quartiles(par)
            cq1, cmed, cq3 = quartiles(chg)
            wins = sum((b < a) if lower else (b > a) for a, b in both)
            rows[name] = {
                "parent_median": round(pmed, 6), "change_median": round(cmed, 6),
                "change_pct": round(100 * (cmed / pmed - 1), 2) if pmed else None,
                "parent_q1": round(pq1, 6), "parent_q3": round(pq3, 6),
                "change_q1": round(cq1, 6), "change_q3": round(cq3, 6),
                "parent_iqr": round(pq3 - pq1, 6), "change_wins": wins,
                "pairs": len(both), "better": m["better"]}
        out[workload] = rows
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--about", default="", help="text for the ledger's 'about' field")
    args = ap.parse_args(argv)

    ledger = json.loads(args.out.read_text()) if args.out.exists() else {
        "about": args.about,
        "command": "python3 perfbench/run.py --workload W --seed N --seconds S --trace T",
        "parent": args.parent.resolve().name, "change": args.change.resolve().name,
        "host": f"{os.cpu_count()} CPUs, Python {platform.python_version()}",
        "pairing": ("pair k uses seed first_seed + k - 1 on both sides; odd pairs run the "
                    "parent first, even pairs the change first; runs are sequential; "
                    "src/subsumlab/__pycache__ and perfbench/__pycache__ are deleted before "
                    "every run; PYTHONDONTWRITEBYTECODE="
                    + os.environ.get("PYTHONDONTWRITEBYTECODE", "(unset)")),
        "runs": []}
    if args.about:
        ledger["about"] = args.about
    sides = {"parent": args.parent, "change": args.change}
    for workload in args.workload:
        done = max((r["pair"] for r in ledger["runs"] if r["workload"] == workload), default=0)
        for k in range(done + 1, done + args.pairs + 1):
            seed = args.first_seed + k - 1
            order = ("parent", "change") if k % 2 else ("change", "parent")
            for side in order:
                rec = {"workload": workload, "pair": k, "first": order[0], "side": side}
                rec.update(run_once(sides[side], workload, seed, args.seconds, args.trace))
                ledger["runs"].append(rec)
                metrics = rec["result"]["metrics"] if rec["result"] else {}
                shown = {m: round(v["value"], 4) for m, v in metrics.items()}
                print(f"{workload} pair {k} {side}: exit {rec['exit']} {shown}", flush=True)
            args.out.write_text(json.dumps(ledger, indent=1) + "\n")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    ledger["summary_end_to_end"] = summarise(ledger["runs"], bench["end_to_end"])
    args.out.write_text(json.dumps(ledger, indent=1) + "\n")
    for workload, rows in ledger["summary_end_to_end"].items():
        for name, row in rows.items():
            print(f"{workload} {name}: {row['parent_median']:.4g} -> {row['change_median']:.4g} "
                  f"({row['change_pct']:+}%), parent IQR {row['parent_iqr']:.4g}, "
                  f"change wins {row['change_wins']}/{row['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
