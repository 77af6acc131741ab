"""The four benchmark workloads: input generation, warm-up, the timed loop
and the correctness checks.

Every workload is a closed loop with one client in one process.  Inputs come
only from the seed.  A timed loop always runs whole rounds (or passes) of a
fixed composition, so two runs with different seeds do the same mix of work.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field

import hostspeed
from subsumlab import groups, search, sequences, setpartitions
from subsumlab.groups import GroupSubset, parse_group
from subsumlab.sequences import GSequence, parse_sequence
from subsumlab.setpartitions import Certificate, HypothesesUnmetError

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")
FAILURE_LINES_KEPT = 20
CERTIFYING_CHECKERS = ("partition", "pipeline", "fullgroup")


@dataclass
class Outcome:
    """What one timed loop did.  `failed` counts failed ops of any kind;
    `wrong` counts the subset whose output was wrong (count drift, a
    rejected certificate, an unexpected exit code), which fails the run."""

    ops: int = 0
    failed: int = 0
    wrong: int = 0
    elapsed: float = 0.0                                # raw wall seconds, timed units only
    # the rest is scaled to the nominal host speed (hostspeed.py)
    scaled_elapsed: float = 0.0
    latencies: list = field(default_factory=list)       # one list per round
    round_rates: list = field(default_factory=list)     # ops/s of each whole round
    verify: list = field(default_factory=list)
    refs: list = field(default_factory=list)            # reference-loop seconds
    certs: int = 0
    instances: int = 0
    checks: int = 0
    part_self: dict = field(default_factory=dict)       # traced run_audit self time by part
    handler_ms: list = field(default_factory=list)
    overhead_ms: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def add_round(self, ops: int, raw_s: float, scaled_s: float, latencies: list) -> None:
        self.elapsed += raw_s
        self.scaled_elapsed += scaled_s
        self.round_rates.append(ops / scaled_s)
        self.latencies.append(latencies)

    def fail(self, line: str, wrong: bool = False, count: int = 1) -> None:
        self.failed += count
        if wrong:
            self.wrong += 1
        if len(self.failures) < FAILURE_LINES_KEPT:
            self.failures.append(line)


def load_pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# sweeps: repeated passes of two run_audit calls


def fingerprint(report) -> dict:
    """The exact, deterministic part of an audit report."""
    return {"instances": report.instances, "checks_run": report.checks_run,
            "skipped": report.skipped,
            "counters": {k: dict(v) for k, v in sorted(report.counters.items())},
            "violations": len(report.violations)}


def audit_replay(cfg) -> str:
    return (f"subsumlab audit --max-order {cfg.max_group_order} "
            f"--group-cap {cfg.exhaustive_group_cap} "
            f"--len-cap {cfg.exhaustive_len_cap} --samples {cfg.random_samples} "
            f"--seed {cfg.seed} --checkers {','.join(cfg.checkers)}")


class Sweep:
    """One pass = an exhaustive run_audit over small groups (pinned exact
    counts) plus a seeded random run_audit over |G| <= 16, |S| <= 12."""

    def __init__(self, name: str, seed: int, checkers: tuple, exhaustive: tuple,
                 samples: int, warm_samples: int):
        self.name = name
        self.seed = seed
        self.checkers = checkers
        self.exhaustive = exhaustive
        self.samples = samples
        self.warm_samples = warm_samples
        self.pins = load_pins()[name]
        self.random_reference = None
        self.parts = (("exhaustive", self.config(caps=exhaustive)),
                      ("random", self.config(samples=samples, seed=seed)))

    def config(self, caps: tuple = (0, 10), samples: int = 0, seed: int = 0):
        return search.AuditConfig(
            max_group_order=16, exhaustive_group_cap=caps[0],
            exhaustive_len_cap=caps[1], random_samples=samples,
            random_len_cap=12, seed=seed, jobs=1, checkers=self.checkers)

    def setup(self, tick) -> None:
        # warm-up: a random slice under another audit seed than the timed one
        search.run_audit(self.config(samples=self.warm_samples, seed=-1 - self.seed))

    def expected_instances(self, cfg) -> int:
        return cfg.random_samples or self.pins["exhaustive"]["instances"]

    def check(self, part: str, cfg, report, out: Outcome) -> None:
        fp = fingerprint(report)
        for v in report.violations[:FAILURE_LINES_KEPT]:
            out.fail(f"{self.name} {part}: checker {v['checker']} failed: "
                     f"{v['detail']} | replay: {v['replay']}", wrong=True, count=0)
        if part == "exhaustive":
            problems = [] if fp == self.pins["exhaustive"] else [
                f"counts {json.dumps(fp, sort_keys=True)} != pinned "
                f"{json.dumps(self.pins['exhaustive'], sort_keys=True)}"]
        else:
            problems = self.random_problems(fp)
            if self.random_reference is None:
                self.random_reference = fp
            elif fp != self.random_reference:
                problems.append("counts differ from the first pass on the same inputs")
        if problems:
            out.fail(f"{self.name} {part}: {'; '.join(problems)} | replay: "
                     f"{audit_replay(cfg)}", wrong=True, count=self.expected_instances(cfg))

    def random_problems(self, fp: dict) -> list:
        pins = self.pins["random"]
        n = self.samples
        problems = []
        if fp["instances"] != n or fp["checks_run"] != n * len(self.checkers):
            problems.append(f"instances/checks {fp['instances']}/{fp['checks_run']}")
        for name, c in fp["counters"].items():
            if c["fail"] != 0:
                problems.append(f"{name} fail={c['fail']}")
            if c["pass"] + c["skip"] + c["fail"] != n:
                problems.append(f"{name} counters do not add up to {n}")
            if name in pins["never_skip"] and c["skip"] != 0:
                problems.append(f"{name} skip={c['skip']}")
        return problems

    def run(self, seconds: float, tracer=None) -> Outcome:
        out = Outcome(part_self={"exhaustive": 0.0, "random": 0.0})
        bracket = hostspeed.Bracket()
        while out.elapsed < seconds:
            t0 = time.perf_counter()
            reports = []
            for part, cfg in self.parts:
                if tracer:
                    before = tracer.self_s.get("search.run_audit", 0.0)
                    tracer.start_request()
                try:
                    reports.append((part, cfg, search.run_audit(cfg)))
                except Exception as exc:  # a crashed audit is a failed op, not a crash
                    expected = self.expected_instances(cfg)
                    out.fail(f"{self.name} {part}: {type(exc).__name__}: {exc} | "
                             f"replay: {audit_replay(cfg)}", count=expected)
                    out.ops += expected
                if tracer:
                    tracer.stop_request()
                    out.part_self[part] += tracer.self_s.get("search.run_audit", 0.0) - before
            dt = time.perf_counter() - t0
            scaled = hostspeed.scale(dt, bracket.close())
            out.add_round(sum(r.instances for _, _, r in reports), dt, scaled, [scaled])
            for part, cfg, report in reports:
                out.ops += report.instances
                out.instances += report.instances
                out.checks += report.checks_run
                out.certs += sum(report.counters[c]["pass"] for c in self.checkers
                                 if c in CERTIFYING_CHECKERS)
                self.check(part, cfg, report, out)
        out.refs = bracket.refs
        return out


# ---------------------------------------------------------------------------
# certify_requests: library requests over groups of order 16..1024

REQUEST_GROUPS = ("16", "4x4", "64", "2x4x8", "256",
                  "1024", "2x2x2x2x2x2x2x2x2x2", "2x4x8x16", "32x32", "4x4x4x4x4")

# known solver failures above FALLBACK_CAP; kept so failed_frac shows a fix
PINNED_REQUESTS = (
    ("2x8", "(0,0)^16;(1,0);(0,1);(1,4)^22;(1,7)", 23),
    ("4x4", "(0,0)^14;(3,1);(1,2);(2,2)^16;(2,3)", 17),
)


@dataclass
class Request:
    g: object
    s: GSequence
    s_prime: GSequence
    n: int

    def key(self) -> tuple:
        return (self.g.spec_string(), tuple(self.s.mult),
                tuple(self.s_prime.mult), self.n)

    def replay(self) -> str:
        return (f"subsumlab maincert -g {self.g.spec_string()} -s \"{self.s.format()}\" "
                f"--sprime \"{self.s_prime.format()}\" -n {self.n}")


def designated_subgroup(g):
    """A fixed proper subgroup of order 4 that concentrated requests live in:
    cyclic inside the last invariant factor when exp(G) >= 4, else <e1, e2>."""
    if g.exponent >= 4:
        coords = [0] * (g.rank - 1) + [g.exponent // 4]
        gens = [g.index(coords)]
    else:
        gens = [g.strides[0], g.strides[1]]
    return groups.subgroup_generated(GroupSubset.from_indices(g, gens))


def _distribute(rng, g, support: list, length: int) -> list:
    mult = [0] * g.order
    for x in support:
        mult[x] = 1
    for _ in range(length - len(support)):
        mult[rng.choice(support)] += 1
    return mult


def spread_request(rng, g) -> Request:
    """Random support over G; S' drops up to a quarter of S's terms."""
    support = rng.sample(range(g.order), rng.randint(6, min(14, g.order)))
    mult = _distribute(rng, g, support, rng.randint(20, 40))
    s = GSequence(g, mult)
    prime = list(mult)
    for _ in range(rng.randint(0, s.length // 4)):
        prime[rng.choice([i for i, m in enumerate(prime) if m])] -= 1
    s_prime = GSequence(g, prime)
    n = rng.randint(max(1, s_prime.max_multiplicity()), s_prime.length)
    return Request(g, s, s_prime, n)


def concentrated_request(rng, g, k, pool: list) -> Request:
    """Most terms in the proper subgroup k, plus 0-3 terms drawn from a fixed
    pool of elements outside it; S' = S with 20 <= |S'| <= 45, above the
    fallback cap."""
    inside = list(k.carrier.indices())
    n_out = rng.randint(0, 3)
    support = rng.sample(inside, rng.randint(2, len(inside)))
    mult = _distribute(rng, g, support, rng.randint(20, 45) - n_out)
    for _ in range(n_out):
        mult[rng.choice(pool)] += 1
    s = GSequence(g, mult)
    n = rng.randint(max(1, s.max_multiplicity()), s.length)
    return Request(g, s, s, n)


def outside_pool(g, k) -> list:
    """Three fixed elements outside k.  A fixed pool bounds the set of
    stabilizers that concentrated requests produce, so the warm-up can fill
    their quotient tables; random outside terms would give a new subgroup
    (and a cold |G/H|^2 table check) on most requests in 2^10."""
    rng = random.Random(f"pool:{g.spec_string()}")
    outside = [x for x in range(g.order) if not (k.carrier.bits >> x) & 1]
    return rng.sample(outside, 3)


def pinned_requests() -> list:
    out = []
    for spec, seq, n in PINNED_REQUESTS:
        g = parse_group(spec)
        s = parse_sequence(g, seq)
        out.append(Request(g, s, s, n))
    return out


class CertifyRequests:
    """Each round: one spread and one concentrated request per group, then
    the pinned failures.  A request is main_pipeline (latency), then the
    certificate's to_dict -> JSON -> from_dict round trip and main_verify
    (verify latency)."""

    warm_rounds = 8

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self) -> None:
        """Groups, designated subgroups and the warm-up inputs; no solving."""
        self.groups = [parse_group(spec) for spec in REQUEST_GROUPS]
        self.subgroups = {g: designated_subgroup(g) for g in self.groups}
        self.pools = {g: outside_pool(g, k) for g, k in self.subgroups.items()}
        self.concentrated = [g for g in self.groups if g.exponent >= 4]
        self.pinned = pinned_requests()
        warm_rng = random.Random(f"warm:{self.seed}")
        self.warm = [req for _ in range(self.warm_rounds) for req in self.round(warm_rng)]
        self.warm_keys = {req.key() for req in self.warm}
        self.rng = random.Random(f"timed:{self.seed}")

    def setup(self, tick) -> None:
        self.prepare()
        for g in self.concentrated:
            groups.quotient_cached(g, self.subgroups[g])
            tick()
        for req in self.warm:
            try:
                cert = setpartitions.main_pipeline(req.g, req.s, req.s_prime, req.n)
                self.verify(req, cert)
            except Exception:  # warm-up only fills caches; failures count when timed
                pass
            tick()

    def cold_table_free(self, req: Request) -> bool:
        """True unless H(Sigma_n(S)) is nontrivial with |G/H| > 64 and is not
        the designated subgroup K.

        Such an H is new to the per-process quotient cache on most draws in a
        group of order 1024, and its first use costs a 0.2-0.9 s |G/H|^2
        table check, so a handful of them would decide the whole timed phase.
        The set-up fills the tables for the trivial H and for K; the cold
        check itself is measured by setup_s here and by cli_cold.
        """
        if req.g.order <= 64:
            return True
        h = groups.stabilizer(sequences.nterm_subsums(req.s, req.n))
        return (h.is_trivial or req.g.order // h.order <= 64
                or h.carrier.bits == self.subgroups[req.g].carrier.bits)

    def round(self, rng, exclude: set = frozenset()) -> list:
        reqs = []
        for make, gs in ((lambda g: spread_request(rng, g), self.groups),
                         (lambda g: concentrated_request(rng, g, self.subgroups[g],
                                                         self.pools[g]), self.concentrated)):
            for g in gs:
                req = make(g)
                while req.key() in exclude or not self.cold_table_free(req):
                    req = make(g)
                reqs.append(req)
        return reqs

    def timed_round(self) -> list:
        return self.round(self.rng, self.warm_keys) + self.pinned

    @staticmethod
    def verify(req: Request, cert) -> tuple:
        text = json.dumps(cert.to_dict())
        back = Certificate.from_dict(req.g, json.loads(text))
        return setpartitions.main_verify(back, req.g, req.s, req.s_prime, req.n)

    def run(self, seconds: float, tracer=None) -> Outcome:
        out = Outcome()
        perf = time.perf_counter
        bracket = hostspeed.Bracket()
        while out.elapsed < seconds:
            reqs = self.timed_round()
            latencies, verify = [], []
            t_round = perf()
            for req in reqs:
                out.ops += 1
                if tracer:
                    tracer.start_request()
                t0 = perf()
                try:
                    cert = setpartitions.main_pipeline(req.g, req.s, req.s_prime, req.n)
                except HypothesesUnmetError:
                    latencies.append(perf() - t0)
                    continue
                except Exception as exc:
                    out.fail(f"certify_requests: {type(exc).__name__}: {exc} | "
                             f"replay: {req.replay()}")
                    continue
                finally:
                    if tracer:
                        tracer.stop_request()
                t1 = perf()
                if tracer:
                    tracer.active = True
                try:
                    ok, violations = self.verify(req, cert)
                except Exception as exc:
                    ok, violations = False, [f"{type(exc).__name__}: {exc}"]
                finally:
                    if tracer:
                        tracer.stop_request()
                t2 = perf()
                latencies.append(t1 - t0)
                verify.append(t2 - t1)
                if ok:
                    out.certs += 1
                else:
                    out.fail(f"certify_requests: certificate rejected after round trip: "
                             f"{'; '.join(violations)} | replay: {req.replay()}", wrong=True)
            dt = perf() - t_round
            ref = bracket.close()
            out.add_round(len(reqs), dt, hostspeed.scale(dt, ref),
                          [hostspeed.scale(x, ref) for x in latencies])
            out.verify.extend(hostspeed.scale(x, ref) for x in verify)
        out.refs = bracket.refs
        return out


# ---------------------------------------------------------------------------
# cli_cold: one CLI process per request


def _cli_sequence(rng, g, support_size: int, length: int) -> GSequence:
    support = rng.sample(range(g.order), support_size)
    return GSequence(g, _distribute(rng, g, support, length))


def _trivial_stabilizer_instance(rng, g, support_size: int, length: int):
    """(S, n) with H(Sigma_n(S)) trivial, so the CLI pays the full |G|^2
    quotient table check; redrawn until the stabilizer is trivial."""
    while True:
        s = _cli_sequence(rng, g, support_size, length)
        if s.max_multiplicity() > length // 2:
            continue
        n = rng.randint(max(2, s.max_multiplicity()), length // 2)
        if groups.stabilizer(sequences.nterm_subsums(s, n)).is_trivial:
            return s, n


@dataclass
class CliRequest:
    verb: str
    args: list
    check: object = None          # callable(envelope) -> list of problems
    cert_file: str = ""

    def replay(self) -> str:
        return "subsumlab " + " ".join(
            a if a and all(c not in a for c in " ;()^") else f'"{a}"' for a in self.args)

    def envelope(self, reply) -> dict:
        """The JSON envelope the command wrote, to --out or to stdout."""
        if self.cert_file:
            with open(self.cert_file) as fh:
                return json.load(fh)
        return json.loads(reply.stdout)


@dataclass
class CliReply:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    scaled_s: float = 0.0


class CliCold:
    """Each round runs the same ten request templates, each in a fresh
    process.  The round's p90 falls on the one heavy template (subsums on
    32x32 with a trivial stabilizer), and p50 falls inside the cluster of
    small-group calls.  Both therefore sit inside one cost cluster, not
    between two.
    """

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root
        self.tmp_dir = os.path.join(root, ".perfbench_out", "tmp")
        self.round_index = 0

    def prepare(self) -> None:
        self.rng = random.Random(f"timed:{self.seed}")

    def setup(self, tick) -> None:
        self.prepare()
        os.makedirs(self.tmp_dir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"),
                        TMPDIR=self.tmp_dir)
        # one untimed process so the bytecode cache exists before timing
        self.call(["group", "info", "2x4"])

    def cert_path(self, tag: str) -> str:
        return os.path.join(self.tmp_dir, f"cert-{self.seed}-{self.round_index}-{tag}.json")

    def timed_round(self) -> list:
        rng = self.rng
        self.round_index += 1
        reqs = []

        def subsums(spec, support, length, trivial=False):
            g = parse_group(spec)
            if trivial:
                s, n = _trivial_stabilizer_instance(rng, g, support, length)
            else:
                s = _cli_sequence(rng, g, support, length)
                n = rng.randint(max(1, s.max_multiplicity()), s.length)
            expect = sequences.nterm_subsums(s, n)

            def check(envelope):
                res = envelope["result"]
                problems = []
                if res["subsums"] != [g.format_element(i) for i in expect.indices()]:
                    problems.append("subsums differ from the library")
                if trivial and res["stabilizer_order"] != 1:
                    problems.append("stabilizer not trivial")
                return problems
            reqs.append(CliRequest("subsums", ["subsums", "-g", spec, "-s", s.format(),
                                               "-n", str(n), "--format", "json"], check))

        def sumset(spec, size, n):
            g = parse_group(spec)
            a = GroupSubset.from_indices(g, rng.sample(range(g.order), size))
            expect = groups.iterated_sumset(a, n)
            text = ";".join(g.format_element(i) for i in a.indices())

            def check(envelope):
                res = envelope["result"]
                return ([] if res["sumset"] == [g.format_element(i) for i in expect.indices()]
                        else ["sumset differs from the library"])
            reqs.append(CliRequest("sumset", ["sumset", "-g", spec, "-s", text,
                                              "-n", str(n), "--format", "json"], check))

        def partition(spec, support, length):
            g = parse_group(spec)
            s = _cli_sequence(rng, g, support, length)
            n = rng.randint(max(1, s.max_multiplicity()), s.length)

            def check(envelope):
                cert = Certificate.from_dict(g, envelope["result"]["certificate"])
                ok, violations = setpartitions.partition_verify(cert, s, s, n)
                return [] if ok else violations
            reqs.append(CliRequest("partition", ["partition", "-g", spec, "-s", s.format(),
                                                 "-n", str(n), "--format", "json"], check))

        def maincert(spec, support, length, tag):
            g = parse_group(spec)
            s, n = _trivial_stabilizer_instance(rng, g, support, length)
            path = self.cert_path(tag)

            def check(envelope):
                cert = Certificate.from_dict(g, envelope["result"]["certificate"])
                ok, violations = setpartitions.main_verify(cert, g, s, s, n)
                return [] if ok else violations

            def check_verify(envelope):
                return [] if envelope["result"]["holds"] else ["verify did not accept the certificate"]
            reqs.append(CliRequest("maincert", ["maincert", "-g", spec, "-s", s.format(),
                                                "--sprime", s.format(), "-n", str(n),
                                                "--format", "json", "--out", path],
                                   check, cert_file=path))
            reqs.append(CliRequest("verify", ["verify", path, "--format", "json"],
                                   check_verify))

        subsums("8", 4, 10)
        sumset("64", 6, 3)
        partition("2x4x8", 5, 10)
        maincert("16", 6, 14, "16")
        subsums("1024", 10, 24, trivial=True)
        maincert("1024", 10, 24, "1024")
        subsums("32x32", 10, 24, trivial=True)
        sumset("4x4", 3, 4)
        return reqs

    def call(self, args: list, traced_to: str = "") -> CliReply:
        if traced_to:
            cmd = [sys.executable, os.path.join(HERE, "clitraced.py"), traced_to] + args
        else:
            cmd = [sys.executable, "-m", "subsumlab.cli"] + args
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=120)
        return CliReply(proc.returncode, proc.stdout, proc.stderr,
                        time.perf_counter() - t0)

    def startup_probe(self) -> float:
        """Seconds for a bare `import subsumlab.cli` in a fresh interpreter."""
        code = ("import time; t = time.perf_counter(); import subsumlab.cli; "
                "print(time.perf_counter() - t)")
        proc = subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=60, check=True)
        return float(proc.stdout)

    def run(self, seconds: float, tracer=None) -> Outcome:
        out = Outcome()
        replies = []
        bracket = hostspeed.Bracket()
        while out.elapsed < seconds:
            reqs = self.timed_round()
            latencies = []
            raw = 0.0
            round_replies = []
            for i, req in enumerate(reqs):
                traced_to = ""
                if tracer:
                    traced_to = os.path.join(self.tmp_dir, f"trace-{self.seed}-{i}.json")
                reply = self.call(req.args, traced_to)
                if i + 1 < len(reqs):
                    bracket.mark()
                raw += reply.wall_s
                round_replies.append(reply)
                if traced_to and os.path.exists(traced_to):
                    tracer.request_id += 1
                    with open(traced_to) as fh:
                        tracer.add(json.load(fh))
                    os.remove(traced_to)
                replies.append((latencies, req, reply))
            ref = bracket.close()
            for reply in round_replies:
                reply.scaled_s = hostspeed.scale(reply.wall_s, ref)
            out.add_round(len(reqs), raw, hostspeed.scale(raw, ref), latencies)
        out.refs = bracket.refs
        # outputs are checked after the timed loop, against the library
        for latencies, req, reply in replies:
            out.ops += 1
            if reply.code == 3:  # internal error: a failed op, like InternalError in-process
                out.fail(f"cli_cold {req.verb}: exit 3: {reply.stderr.strip()[:200]} | "
                         f"replay: {req.replay()}")
                continue
            if req.verb == "verify" and not os.path.exists(req.args[1]):
                out.fail(f"cli_cold verify: no certificate, its maincert failed | "
                         f"replay: {req.replay()}")
                continue
            latencies.append(reply.scaled_s)
            if req.verb == "verify":
                out.verify.append(reply.scaled_s)
            problems = [f"exit {reply.code}: {reply.stderr.strip()[:200]}"] if reply.code else []
            if not problems:
                try:
                    envelope = req.envelope(reply)
                    problems = req.check(envelope)
                except (ValueError, KeyError, TypeError, OSError) as exc:
                    problems = [f"unreadable reply: {type(exc).__name__}: {exc}"]
            if problems:
                out.fail(f"cli_cold {req.verb}: {'; '.join(problems)} | replay: {req.replay()}",
                         wrong=True)
                continue
            if req.verb in ("partition", "maincert"):
                out.certs += 1
            out.handler_ms.append(envelope["timing_ms"])
            out.overhead_ms.append(reply.wall_s * 1000 - envelope["timing_ms"])
        for _, req, _ in replies:
            if req.cert_file and os.path.exists(req.cert_file):
                os.remove(req.cert_file)
        return out


def make(name: str, seed: int, root: str):
    if name == "bound_sweep":
        return Sweep(name, seed, ("subsum_kneser", "s_star", "lemma_extra"),
                     exhaustive=(6, 6), samples=1500, warm_samples=1000)
    if name == "certify_sweep":
        return Sweep(name, seed, ("partition", "pipeline", "fullgroup"),
                     exhaustive=(6, 4), samples=150, warm_samples=300)
    if name == "certify_requests":
        return CertifyRequests(seed)
    if name == "cli_cold":
        return CliCold(seed, root)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("bound_sweep", "certify_sweep", "certify_requests", "cli_cold")
