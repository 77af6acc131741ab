"""Extremal example generators, corpus audit driver, and the open-question hunt.

The audit streams a deterministic corpus (exhaustive small sequences plus a
seeded random batch) through selected instance checkers and aggregates
pass/fail counts.  The instance stream depends only on the config, never on
the number of workers, so aggregates are byte-identical across job counts.
With a bound checker on, the exhaustive walk carries the Sigma_j rows (_walk),
and parallel workers share out whole subtrees of it.  A worker call keeps one
Sigma_n subset per G and bits in an LRU cache, for stabilizer to keep H on.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .groups import (
    GroupSpec,
    GroupSubset,
    InputError,
    Subgroup,
    abelian_groups_of_order,
    quotient_cached,
    representation_min,
    stabilizer,
    sum_of_masks,
)
from .sequences import (
    GSequence,
    SequenceError,
    add_bundle,
    build_s_star,
    nterm_subsums,
    subsum_profile,
)
from .setpartitions import (
    HypothesesUnmetError,
    InternalError,
    clause_iib_violations,
    main_pipeline,
    partition_solve,
)
from .verifiers import check_lemma_extra, check_subsum_kneser


class SearchError(InputError):
    """Bad example parameters or audit configuration."""


# ---------------------------------------------------------------------------
# extremal example generators


@dataclass
class ExampleInstance:
    kind: str
    G: GroupSpec
    H: Subgroup
    S: GSequence
    n: int
    expected: dict

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "group": self.G.spec_string(),
            "H": [self.G.format_element(i) for i in self.H.carrier.indices()],
            "S": self.S.format(),
            "n": self.n,
            "expected": dict(self.expected),
        }


def clause_iib_fails(g: GroupSpec, s: GSequence, n: int, h: Subgroup) -> bool:
    """True when no choice of alpha satisfies the e_H half of clause (ii)(b)
    with S' = S.

    Necessary condition for the structured conclusion: some H-coset alpha+H
    must leave few enough terms outside.  Only the cosets of the alpha in
    supp(S) are checked: a coset that holds no term of S has e_H = |S|, and
    (|S|+1)|H| > |S| - n breaks the third inequality, so it never passes.
    """
    sigma = nterm_subsums(s, n).size
    return all(clause_iib_violations(
        sigma, s.count_outside(g.translate_mask(h.carrier.bits, alpha)), h, s.length - n, "H")
        for alpha in s.support_indices())


def gen_example(kind: str, g: GroupSpec, h: Subgroup,
                k: Optional[Subgroup] = None,
                gen_elem: Optional[int] = None) -> ExampleInstance:
    """Build an extremal instance of family A, B or C and brute-force check
    every expected identity at generation time.

    B and C need G/H = K/H + <g> direct, ord(g + H) = d = exp(G/H); tested
    in G/K = (G/H)/(K/H) as |G/K| = d and ord(g + K) = d.  The sum gives
    both, as <g + H> meets the kernel K/H trivially.  Conversely d =
    ord(g + K) | ord(g + H) | d, and k(g + H) in K/H gives d | k, so the sum
    is direct, of order |K/H| d = |G/H|.
    """
    if h.carrier.group is not g:
        raise SearchError("subgroup over a different group")
    q = quotient_cached(g, h)
    spec = q.quotient_spec
    exp_q = spec.exponent

    if kind == "A":
        if h.is_trivial:
            raise SearchError("example A needs H nontrivial")
        if spec.rank != 1 or spec.order < 4:
            raise SearchError("example A needs G/H cyclic of order >= 4")
        n = spec.order - 2
        # the image of the least element of G whose image generates G/H
        gq = next(y for y in q.images if spec.element_order(y) == spec.order)
        x_bits = (1 << 0) | (1 << gq)
        expected_len = 2 * g.order - 4 * h.order
        expected_sigma = g.order - h.order
    elif kind in ("B", "C"):
        if k is None or gen_elem is None:
            raise SearchError(f"example {kind} needs K and a complement generator")
        if k.carrier.group is not g or h.carrier.bits & ~k.carrier.bits:
            raise SearchError("need H <= K <= G")
        qk = quotient_cached(g, k)
        if qk.quotient_spec.order != exp_q \
                or qk.quotient_spec.element_order(qk.images[gen_elem]) != exp_q:
            raise SearchError("need G/H = (K/H) + <g> direct with <g> of full exponent")
        kq_bits = q.image_mask(k.carrier.bits)
        gq = q.images[gen_elem]
        if kq_bits.bit_count() < 2:
            raise SearchError("need G/H noncyclic (K/H nontrivial)")
        if kind == "B":
            if exp_q < 3:
                raise SearchError("example B needs exp(G/H) >= 3")
            n = exp_q - 1
            x_bits = kq_bits | (1 << gq)
            expected_len = (g.order // k.order - 1) * (h.order + k.order)
            expected_sigma = g.order - k.order + h.order
        else:
            if exp_q < 2 or h.order < exp_q:
                raise SearchError("example C needs |H| >= exp(G/H) >= 2")
            if kq_bits.bit_count() < 3:
                raise SearchError("example C needs |K/H| >= 3")
            n = exp_q
            x_bits = (kq_bits & ~1) | (1 << gq)
            expected_len = g.order
            expected_sigma = g.order - h.order
    else:
        raise SearchError(f"unknown example kind {kind!r}")

    z_mask = q.preimage_mask(x_bits)
    s = GSequence(g, [n if (z_mask >> i) & 1 else 0 for i in range(g.order)])
    sigma = nterm_subsums(s, n)
    stab = stabilizer(sigma)
    checks = {
        "len": s.length == expected_len,
        "sigma": sigma.size == expected_sigma,
        "stabilizer": stab.carrier.bits == h.carrier.bits,
        "small": sigma.size < s.length - n + 1,
        "iib_fails": clause_iib_fails(g, s, n, h),
    }
    bad = [name for name, ok in checks.items() if not ok]
    if bad:
        raise SearchError(f"example {kind} identities failed: {', '.join(bad)}")
    return ExampleInstance(kind, g, h, s, n, {
        "S_len": expected_len,
        "sigma_size": expected_sigma,
        "stabilizer_order": h.order,
        "iib_fails": True,
    })


# ---------------------------------------------------------------------------
# audit driver


@dataclass
class AuditConfig:
    max_group_order: int = 16
    exhaustive_group_cap: int = 10
    exhaustive_len_cap: int = 10
    random_samples: int = 10_000
    random_len_cap: int = 12
    seed: int = 0
    jobs: int = 1
    checkers: tuple = ("subsum_kneser", "s_star", "lemma_extra")

    def to_dict(self) -> dict:
        # jobs is an execution detail, not part of the corpus: leaving it out
        # keeps aggregates byte-identical across worker counts
        return {
            "max_group_order": self.max_group_order,
            "exhaustive_group_cap": self.exhaustive_group_cap,
            "exhaustive_len_cap": self.exhaustive_len_cap,
            "random_samples": self.random_samples,
            "random_len_cap": self.random_len_cap,
            "seed": self.seed,
            "checkers": list(self.checkers),
        }


@dataclass
class AuditReport:
    config: AuditConfig
    instances: int = 0
    counters: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    @property
    def checks_run(self) -> int:
        return sum(sum(c.values()) for c in self.counters.values())

    @property
    def skipped(self) -> int:
        return sum(c["skip"] for c in self.counters.values())

    @property
    def holds(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "instances": self.instances,
            "checks_run": self.checks_run,
            "skipped": self.skipped,
            "counters": {k: dict(v) for k, v in sorted(self.counters.items())},
            "violations": list(self.violations),
            "holds": self.holds,
        }


def groups_up_to(cap: int) -> list[GroupSpec]:
    out = []
    for m in range(1, cap + 1):
        out.extend(abelian_groups_of_order(m))
    return out


def _walk(g: GroupSpec, len_cap: int, carry_rows: bool, take=None) -> Iterator[tuple]:
    """(S, rows) for every S over g with 1 <= |S| <= len_cap, multiplicity
    vectors in lexicographic order; rows[j] = Sigma_j(S) bits (0 past |S|)
    when carry_rows, else None.  A child adds one copy of element pos to its
    parent's rows (add_bundle), so no sequence runs a DP of its own.  take(),
    if given, is asked once per subtree below the first |G| - 2 positions."""
    mult = [0] * g.order
    split = max(0, g.order - 2)

    def rec(pos: int, left: int, rows: Optional[list]) -> Iterator[tuple]:
        if pos == g.order:
            if left < len_cap:  # |S| >= 1
                yield GSequence._derived(g, tuple(mult), len_cap - left), rows
            return
        if pos == split and take is not None and not take():
            return
        for c in range(left + 1):
            mult[pos] = c
            if c and carry_rows:
                rows = rows[:]   # the parent's and c - 1's rows stay as they were
                add_bundle(rows, g.translate_plan(pos), 1, len_cap - left + c, 1)
            yield from rec(pos + 1, left - c, rows)
        mult[pos] = 0

    yield from rec(0, len_cap, [1] + [0] * len_cap if carry_rows else None)


def exhaustive_sequences(cfg: AuditConfig, carry_rows: bool = False,
                         worker: int = 0, jobs: int = 1) -> Iterator[tuple]:
    """(G, S, rows) for every 1 <= |S| <= cap over every |G| <= cap, in a fixed
    order (rows as in _walk).  With jobs > 1, worker gets every jobs-th subtree
    from the worker-th on, so it builds no rows for sequences it does not get."""
    subtrees = itertools.count()
    take = None if jobs == 1 else lambda: next(subtrees) % jobs == worker
    for g in groups_up_to(cfg.exhaustive_group_cap):
        for s, rows in _walk(g, cfg.exhaustive_len_cap, carry_rows, take):
            yield g, s, rows


def exhaustive_instances(cfg: AuditConfig) -> Iterator[tuple[GroupSpec, GSequence, int]]:
    """(G, S, n) for every sequence 1 <= |S| <= cap over every |G| <= cap,
    every admissible n.  Deterministic order."""
    for g, s, _ in exhaustive_sequences(cfg):
        for n in range(max(1, s.max_multiplicity()), s.length + 1):
            yield g, s, n


def random_instance(cfg: AuditConfig, i: int,
                    groups: list[GroupSpec]) -> tuple[GroupSpec, GSequence, int]:
    rng = random.Random(f"{cfg.seed}:{i}")
    g = groups[rng.randrange(len(groups))]
    support = rng.sample(range(g.order), rng.randint(1, min(6, g.order, cfg.random_len_cap)))
    mult = [0] * g.order
    budget = rng.randint(len(support), cfg.random_len_cap)
    for idx in support:
        mult[idx] = 1
    for _ in range(budget - len(support)):
        mult[rng.choice(support)] += 1
    s = GSequence(g, mult)
    n = rng.randint(s.max_multiplicity(), s.length)
    return g, s, n


CHECKERS = ("subsum_kneser", "s_star", "lemma_extra", "partition", "pipeline", "fullgroup")


def _check_instance(name: str, g: GroupSpec, s: GSequence, n: int,
                    profile) -> tuple[str, str]:
    """Run one checker; returns (status, detail) with status in
    {pass, fail, skip}.  profile is the (S, n, |S|) subsum profile shared
    across the bound checkers, built by the caller whenever one of them is
    configured (None otherwise).

    The certificate checkers do not verify again: partition_solve and
    main_pipeline each run their independent verifier once on the
    certificate they return and raise InternalError when it fails, which
    the caller records as a failure, so a returned certificate passes."""
    if name == "subsum_kneser":
        rep = check_subsum_kneser(s, n, profile=profile)
        return ("pass" if rep.holds else "fail"), rep.detail
    if name == "s_star":
        build_s_star(s, profile, n)  # raises on any identity failure
        return "pass", ""
    if name == "lemma_extra":
        rep = check_lemma_extra(s, s, n, profile=profile)
        return ("pass" if rep.holds else "fail"), rep.detail
    if name == "partition":
        partition_solve(s, s, n)
        return "pass", ""
    # pipeline or fullgroup
    mode = "full-group" if name == "fullgroup" else "standard"
    if mode == "full-group" and s.length < n + g.order - 1:
        return "skip", "|S'| below full-group threshold"
    try:
        main_pipeline(g, s, s, n, mode)
    except HypothesesUnmetError:
        return "skip", "hypotheses unmet"
    return "pass", ""


def _audit_worker(cfg: AuditConfig, worker: int, jobs: int) -> tuple[int, dict, list]:
    counters: dict = {name: {"pass": 0, "fail": 0, "skip": 0}
                      for name in cfg.checkers}
    violations: list = []
    instances = 0
    needs_profile = bool({"subsum_kneser", "s_star", "lemma_extra"}
                         & set(cfg.checkers))
    subset_of = functools.lru_cache(maxsize=1 << 16)(GroupSubset)  # this call only

    def handle(g: GroupSpec, s: GSequence, n: int, sigma_bits=None) -> None:
        nonlocal instances
        instances += 1
        profile = None
        for name in cfg.checkers:
            try:
                if profile is None and needs_profile:
                    if sigma_bits is None:
                        sigma_bits = nterm_subsums(s, n).bits
                    profile = subsum_profile(s, n, s.length, sigma=subset_of(g, sigma_bits))
                status, detail = _check_instance(name, g, s, n, profile)
            except (InternalError, SequenceError) as err:
                # the corpus holds only valid instances, so either is a
                # library inconsistency: record it, keep auditing
                status, detail = "fail", f"internal error: {err}"
            counters[name][status] += 1
            if status == "fail":
                violations.append({
                    "checker": name,
                    "group": g.spec_string(),
                    "seq": s.format(),
                    "n": n,
                    "detail": detail,
                    "replay": (f"subsumlab subsums -g {g.spec_string()} "
                               f"-s \"{s.format()}\" -n {n}"),
                })

    for g, s, rows in exhaustive_sequences(cfg, needs_profile, worker, jobs):
        for n in range(max(1, s.max_multiplicity()), s.length + 1):
            handle(g, s, n, rows[n] if needs_profile else None)
    if cfg.random_samples:
        groups = [g for g in groups_up_to(cfg.max_group_order) if g.order >= 2]
        for i in range(worker, cfg.random_samples, jobs):
            handle(*random_instance(cfg, i, groups))
    return instances, counters, violations


def run_audit(cfg: AuditConfig) -> AuditReport:
    """Stream the corpus through the configured checkers, after checking the
    whole config: a bad one raises SearchError before any instance runs."""
    if cfg.exhaustive_group_cap > 16 or cfg.max_group_order > 64:
        raise SearchError("audit caps exceed module limits")
    if min(cfg.max_group_order, cfg.exhaustive_group_cap, cfg.exhaustive_len_cap,
           cfg.random_samples) < 0:
        raise SearchError("audit caps and random_samples must be >= 0")
    if cfg.random_len_cap < 1 or cfg.jobs < 1:
        raise SearchError("random_len_cap and jobs must be >= 1")
    if cfg.random_samples and cfg.max_group_order < 2:
        raise SearchError("random sampling needs max_group_order >= 2")
    if not set(cfg.checkers) <= set(CHECKERS) or len(set(cfg.checkers)) < len(cfg.checkers):
        raise SearchError(f"checkers must be distinct names from {', '.join(CHECKERS)}, "
                          f"got {list(cfg.checkers)}")
    if cfg.jobs == 1:
        results = [_audit_worker(cfg, 0, 1)]
    else:
        import multiprocessing  # here, so that processes that never fan out skip its import
        with multiprocessing.Pool(cfg.jobs) as pool:
            results = pool.starmap(_audit_worker,
                                   [(cfg, w, cfg.jobs) for w in range(cfg.jobs)])
    report = AuditReport(cfg)
    report.counters = {name: {"pass": 0, "fail": 0, "skip": 0}
                       for name in cfg.checkers}
    merged: list = []
    for instances, counters, violations in results:
        report.instances += instances
        for name, c in counters.items():
            for key in ("pass", "fail", "skip"):
                report.counters[name][key] += c[key]
        merged.extend(violations)
    # order-independent merge
    report.violations = sorted(
        merged, key=lambda v: (v["checker"], v["group"], v["seq"], v["n"]))
    return report


# ---------------------------------------------------------------------------
# open-question hunt


@dataclass
class HuntReport:
    group: GroupSpec
    n: int
    canonicalized: bool
    tuples_examined: int = 0
    aperiodic_count: int = 0
    hits: list = field(default_factory=list)
    exhaustive: bool = True

    @property
    def hit_found(self) -> bool:
        return bool(self.hits)

    def to_dict(self) -> dict:
        return {
            "group": self.group.spec_string(),
            "n": self.n,
            "canonicalized": self.canonicalized,
            "tuples_examined": self.tuples_examined,
            "aperiodic_count": self.aperiodic_count,
            "hits": list(self.hits),
            "exhaustive": self.exhaustive,
            "hit_found": self.hit_found,
        }


def _canonical_diffs(g: GroupSpec) -> list[int]:
    """One representative of each {d, -d} pair (2-subsets up to translation)."""
    return [d for d in range(1, g.order) if d <= g.neg(d)]


def _cyclic_canon(m: int, combo: tuple[int, ...]) -> tuple[int, ...]:
    """The least, over the units u mod m, of the sorted min(u*d, -u*d) mod m.
    Each u*d is a nonzero multiple of gcd(d, m), so only a u with u*d = +-g0
    for a d of least gcd g0, u = +-(d/g0)^-1 mod m/g0, starts the least tuple."""
    g0 = min(math.gcd(d, m) for d in combo)
    r = m // g0
    units = {u for d in combo if math.gcd(d, m) == g0 for w in (1, -1)
             for u in range(w * pow(d // g0, -1, r) % r, m, r) if math.gcd(u, m) == 1}
    return min(tuple(sorted(min(u * d % m, -u * d % m) for d in combo)) for u in units)


def hunt_unique_expression(g: GroupSpec, n: int, canonicalize: bool = True,
                           budget: int = 10_000_000) -> HuntReport:
    """Search n-tuples of 2-element subsets whose sum is aperiodic yet has no
    unique-expression element.  No such tuple is known; hits are reported,
    never asserted.  budget bounds the combinations drawn, the duplicates that
    canonicalization skips included; tuples_examined counts the others.

    n is capped at |G| + 1.  By Kneser, an aperiodic sum of n two-element
    sets has at least n + 1 elements, so no hit can exist once n >= |G|; the
    margin of one keeps the (|G|, n) = (2, 3) report of the gate's hunt."""
    if not 1 <= n <= g.order + 1:
        raise SearchError(f"need 1 <= n <= |G| + 1 = {g.order + 1}, got {n}")
    if g.order < 2:
        raise SearchError("need |G| >= 2")
    report = HuntReport(g, n, canonicalize)
    diffs = _canonical_diffs(g) if canonicalize else list(range(1, g.order))
    cyclic = canonicalize and g.rank == 1 and g.order > 2   # units besides 1
    seen: set = set()
    for drawn, combo in enumerate(itertools.combinations_with_replacement(diffs, n)):
        if drawn >= budget:
            report.exhaustive = False
            break
        if cyclic:
            canon = _cyclic_canon(g.order, combo)
            if canon in seen:
                continue
            seen.add(canon)
        report.tuples_examined += 1
        total = GroupSubset(g, sum_of_masks(g, [1 | 1 << d for d in combo]))
        if not stabilizer(total).is_trivial:
            continue
        report.aperiodic_count += 1
        summands = [GroupSubset.from_indices(g, [0, d]) for d in combo]
        min_rep, argmin = representation_min(summands)
        if min_rep >= 2:
            report.hits.append({
                "diffs": [g.format_element(d) for d in combo],
                "min_representation": min_rep,
                "witness": g.format_element(argmin),
            })
    return report
