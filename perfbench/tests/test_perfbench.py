"""Self-tests for the benchmark.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests

They start real benchmark runs with short timed phases; the whole file takes
a few minutes, most of it in certify_requests set-up.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(workload: str, trace: int, seconds: str = "0.5", cwd: str = ROOT,
              seed: int = 3) -> tuple[int, list, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1]) if lines else {}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    code, lines, result = run_bench(workload, trace)
    assert code == 0, "\n".join(lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for m in wanted:
        assert any(line.split()[:1] == [m["name"]] for line in lines), m["name"]
    assert any(line.split()[:1] == ["failed_frac"] for line in lines)
    if workload in ("certify_requests", "cli_cold"):
        assert any(line.split()[:1] == ["verify_p50_ms"] for line in lines)


def test_pinned_solver_failures_are_counted_not_hidden():
    code, lines, result = run_bench("certify_requests", 0)
    assert code == 0 and result["correct"] is True
    assert result["failed"] >= 2
    failures = [line for line in lines if line.startswith("failure")]
    for spec, seq, n in workloads.PINNED_REQUESTS:
        assert any(f"-g {spec} -s \"{seq}\"" in line and f"-n {n}" in line
                   and "InternalError" in line for line in failures)


def test_tampered_pin_fails_the_command(tmp_path):
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    pins_path = tmp_path / "perfbench" / "pins.json"
    pins = json.loads(pins_path.read_text())
    pins["bound_sweep"]["exhaustive"]["counters"]["s_star"]["pass"] += 1
    pins_path.write_text(json.dumps(pins))
    code, lines, result = run_bench("bound_sweep", 0, cwd=str(tmp_path))
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0
    assert any("pinned" in line and "replay: subsumlab audit" in line for line in lines)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    code, lines, _ = run_bench("bound_sweep", 0, cwd=str(tmp_path))
    assert code != 0 and not lines


def _abelian_groups_of_order(m: int) -> int:
    return {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 1, 7: 1, 8: 3}[m]


@pytest.mark.parametrize("workload", ("bound_sweep", "certify_sweep"))
def test_pinned_instance_counts_match_an_independent_enumeration(workload):
    sweep = workloads.make(workload, 0, ROOT)
    group_cap, len_cap = sweep.exhaustive
    instances = 0
    for m in range(1, group_cap + 1):
        per_group = 0
        for mult in itertools.product(range(len_cap + 1), repeat=m):
            length = sum(mult)
            if 1 <= length <= len_cap:
                per_group += length - max(1, max(mult)) + 1
        instances += _abelian_groups_of_order(m) * per_group
    pinned = workloads.load_pins()[workload]["exhaustive"]
    assert pinned["instances"] == instances
    assert pinned["checks_run"] == instances * len(sweep.checkers)
    assert pinned["violations"] == 0
    assert all(c["fail"] == 0 for c in pinned["counters"].values())


def _random_slice(sweep, count: int = 50) -> list:
    """The random part's inputs, as the audit generates them."""
    from subsumlab import search
    cfg = sweep.parts[1][1]
    gs = [g for g in search.groups_up_to(16) if g.order >= 2]
    return [search.random_instance(cfg, i, gs) for i in range(count)]


def test_seed_changes_sweep_inputs_and_nothing_else():
    a, b = (workloads.make("bound_sweep", seed, ROOT) for seed in (1, 2))
    assert _random_slice(a) != _random_slice(b)
    assert _random_slice(a) == _random_slice(workloads.make("bound_sweep", 1, ROOT))
    for (pa, ca), (pb, cb) in zip(a.parts, b.parts):
        da, db = ca.to_dict(), cb.to_dict()
        if pa == "random":
            assert da.pop("seed") != db.pop("seed")
        assert pa == pb and da == db


def _shape(req):
    return (req.g.spec_string(), req.s is req.s_prime)


def test_seed_changes_request_inputs_and_nothing_else():
    a, b, a2 = (workloads.CertifyRequests(seed) for seed in (1, 2, 1))
    for w in (a, b, a2):
        w.prepare()
    ra, rb, ra2 = a.timed_round(), b.timed_round(), a2.timed_round()
    assert [r.key() for r in ra] == [r.key() for r in ra2]
    assert [_shape(r) for r in ra] == [_shape(r) for r in rb]
    changed = [x.key() != y.key() for x, y in zip(ra, rb)]
    pinned = len(workloads.PINNED_REQUESTS)
    assert all(changed[:-pinned]) and not any(changed[-pinned:])


def test_seed_changes_cli_inputs_and_nothing_else():
    a, b = (workloads.CliCold(seed, ROOT) for seed in (1, 2))
    for w in (a, b):
        w.prepare()
    ra, rb = a.timed_round(), b.timed_round()
    assert [r.verb for r in ra] == [r.verb for r in rb]
    assert [r.args[r.args.index("-g") + 1] if "-g" in r.args else None for r in ra] == \
        [r.args[r.args.index("-g") + 1] if "-g" in r.args else None for r in rb]
    assert [r.args for r in ra if r.verb != "verify"] != [r.args for r in rb if r.verb != "verify"]


def test_warmup_and_timed_requests_share_no_input():
    w = workloads.CertifyRequests(5)
    w.prepare()
    assert w.warm
    timed = [req.key() for _ in range(30) for req in w.timed_round()[:-len(w.pinned)]]
    assert not set(timed) & w.warm_keys
    assert not {r.key() for r in w.pinned} & w.warm_keys
