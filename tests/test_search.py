"""Extremal-example generation, audit sweeps, and the open-question hunt."""

import hashlib
import json
import time
from math import comb, gcd

import pytest

from subsumlab.groups import (
    GroupSubset,
    abelian_groups_of_order,
    enumerate_subgroups,
    parse_group,
    quotient_cached,
    stabilizer,
    subgroup_generated,
)
from subsumlab import search, sequences, setpartitions
from subsumlab.sequences import SequenceError, nterm_subsums, subsum_table
from subsumlab.setpartitions import clause_iib_violations
from subsumlab.search import (
    AuditConfig,
    SearchError,
    clause_iib_fails,
    exhaustive_instances,
    exhaustive_sequences,
    gen_example,
    hunt_unique_expression,
    random_instance,
    run_audit,
)

from _oracles import nterm_subsums_oracle, subgroup


# ---------------------------------------------------------------------------
# extremal families


def test_example_a_worked_instance():
    g = parse_group("8")
    h = subgroup(g, [0, 4])
    inst = gen_example("A", g, h)
    assert inst.S.length == 8 == 2 * g.order - 4 * h.order
    sigma = nterm_subsums(inst.S, inst.n)
    assert sigma.size == 6 == g.order - h.order
    assert stabilizer(sigma).carrier == h.carrier
    assert clause_iib_fails(g, inst.S, inst.n, h)


def test_example_a_rejects_bad_side_conditions():
    g = parse_group("8")
    with pytest.raises(SearchError):
        gen_example("A", g, subgroup(g, [0, 2, 4, 6]))  # |G/H| = 2 < 4
    with pytest.raises(SearchError):
        gen_example("A", g, subgroup(g, [0]))           # H trivial


def test_example_b_worked_instance():
    # G = C2 x C3 x C3 (normalizes to 3x6), H = C2 piece, K/H of order 3
    g = parse_group("3x6")
    h = subgroup_generated(GroupSubset.from_indices(g, [g.index((0, 3))]))
    k = subgroup_generated(GroupSubset.from_indices(
        g, [g.index((0, 3)), g.index((1, 0))]))
    inst = gen_example("B", g, h, k=k, gen_elem=g.index((0, 1)))
    assert h.order == 2 and k.order == 6
    assert inst.S.length == (g.order // k.order - 1) * (h.order + k.order)
    assert inst.S.length == 16
    sigma = nterm_subsums(inst.S, inst.n)
    assert sigma.size == g.order - k.order + h.order == 14
    assert stabilizer(sigma).carrier == h.carrier


def test_example_c_worked_instance():
    g = parse_group("3x3x3")
    h = subgroup_generated(GroupSubset.from_indices(g, [g.index((0, 0, 1))]))
    k = subgroup_generated(GroupSubset.from_indices(
        g, [g.index((0, 0, 1)), g.index((0, 1, 0))]))
    inst = gen_example("C", g, h, k=k, gen_elem=g.index((1, 0, 0)))
    assert inst.S.length == g.order == 27
    sigma = nterm_subsums(inst.S, inst.n)
    assert sigma.size == g.order - h.order == 24
    assert stabilizer(sigma).carrier == h.carrier


def test_example_a_sequences_pinned():
    """Family A over every (G, H), |G| <= 32, H nontrivial and G/H cyclic
    of order >= 4 (130 pairs, 98 with G noncyclic): the digest of the
    generated sequences is pinned, so a change of the quotient map cannot
    move the coset family A puts its second block on."""
    digest = hashlib.sha256()
    pairs = 0
    for m in range(4, 33):
        for g in abelian_groups_of_order(m):
            for h in enumerate_subgroups(g):
                spec = quotient_cached(g, h).quotient_spec
                if h.is_trivial or spec.rank != 1 or spec.order < 4:
                    continue
                s = gen_example("A", g, h).S.format()
                digest.update(f"{g.spec_string()} {h.carrier.bits:x} {s}\n".encode())
                pairs += 1
    assert pairs == 130
    assert digest.hexdigest() == \
        "16f4edb41b1f947382fba3fd25b3c91c16efb634bb3ffa1ebe35d1ca7666ed04"


def test_example_expected_fields_match_bruteforce():
    g = parse_group("12")
    h = subgroup(g, [0, 6])
    inst = gen_example("A", g, h)
    assert inst.expected["S_len"] == inst.S.length
    assert inst.expected["sigma_size"] == \
        len(nterm_subsums_oracle(inst.S, inst.n))
    assert inst.expected["iib_fails"] is True


def _iib_fails_over_every_coset(g, s, n, h) -> bool:
    """clause_iib_fails with alpha over the least element of every coset of
    H, the reference for its loop over supp(S)."""
    sigma = nterm_subsums(s, n).size
    return all(clause_iib_violations(
        sigma, s.count_outside(g.translate_mask(h.carrier.bits, alpha)), h, s.length - n, "H")
        for alpha in quotient_cached(g, h).representatives)


def test_clause_iib_fails_checks_only_cosets_meeting_supp_s():
    # every (G, S, n, H) with |G| <= 8, |S| <= 5, n admissible, H any subgroup
    cfg = AuditConfig(exhaustive_group_cap=8, exhaustive_len_cap=5)
    subgroups = {}
    count = holds = 0
    for g, s, n in exhaustive_instances(cfg):
        for h in subgroups.setdefault(g, enumerate_subgroups(g)):
            fails = clause_iib_fails(g, s, n, h)
            assert fails == _iib_fails_over_every_coset(g, s, n, h), \
                (g.spec_string(), s.format(), n, h.carrier.bits)
            count += 1
            holds += not fails
    assert (count, holds) == (132517, 171)


# ---------------------------------------------------------------------------
# audit machinery


def _small_cfg(**over):
    base = dict(max_group_order=6, exhaustive_group_cap=4,
                exhaustive_len_cap=4, random_samples=100, seed=7, jobs=1,
                checkers=("subsum_kneser", "s_star", "lemma_extra"))
    base.update(over)
    return AuditConfig(**base)


def test_exhaustive_instances_respect_caps():
    cfg = _small_cfg()
    seen_groups = set()
    for g, s, n in exhaustive_instances(cfg):
        seen_groups.add(g.spec_string())
        assert g.order <= cfg.exhaustive_group_cap
        assert 1 <= s.length <= cfg.exhaustive_len_cap
        assert s.max_multiplicity() <= n <= s.length
    assert {"2", "3", "4", "2x2"} <= seen_groups


def test_exhaustive_sequences_count_is_multiset_count():
    # sequences of length 1..L over a set of size m: C(L+m, m) - 1 multisets
    cfg = _small_cfg()
    for g in [parse_group("2"), parse_group("4")]:
        count = sum(1 for gg, _, _ in exhaustive_sequences(cfg)
                    if gg == g)
        assert count == comb(cfg.exhaustive_len_cap + g.order, g.order) - 1


def test_mult_vectors_are_distinct_values():
    vectors = [s.mult for s, _ in search._walk(parse_group("3"), 2, False)]
    assert vectors == sorted(set(vectors)) and len(vectors) == 9
    assert all(1 <= sum(v) <= 2 for v in vectors)


def test_walk_rows_are_each_sequences_subsum_table():
    # every sequence of the |G| <= 8, |S| <= 6 slice: the rows carried down
    # the walk are its own Sigma_j table, and rows past |S| stay empty
    count = 0
    for g in search.groups_up_to(8):
        walked = list(search._walk(g, 6, True))
        assert [s for s, _ in walked] == [s for s, _ in search._walk(g, 6, False)]
        for s, rows in walked:
            assert rows[:s.length + 1] == subsum_table(s, s.length), (g.spec_string(), s.format())
            assert not any(rows[s.length + 1:])
            count += 1
    assert count == sum(comb(g.order + 6, 6) - 1 for g in search.groups_up_to(8)) == 12_639


def test_audit_worker_split_and_stabilizer_lookups(monkeypatch):
    # jobs=2 workers share out whole subtrees of the walk: each handles its
    # sequences in the jobs=1 order, with the same Sigma_n and H, and the two
    # shares together are every sequence once; H is computed once per
    # distinct (G, Sigma_n) of one worker call
    profiled, stabilized = [], []
    real_profile, real_stabilizer = search.subsum_profile, sequences.stabilizer

    def profile_spy(s, n, ref_len, sigma=None):
        p = real_profile(s, n, ref_len, sigma=sigma)
        profiled.append(((s.group.spec_string(), s.mult), (n, p.sigma_n.bits, p.H.carrier.bits)))
        return p

    def stabilizer_spy(sigma):
        if sigma._period is None:
            stabilized.append((sigma.group, sigma.bits))
        return real_stabilizer(sigma)

    monkeypatch.setattr(search, "subsum_profile", profile_spy)
    monkeypatch.setattr(sequences, "stabilizer", stabilizer_spy)
    cfg = _small_cfg(exhaustive_group_cap=6, exhaustive_len_cap=5, random_samples=200)
    runs = {}
    for jobs, worker in ((1, 0), (2, 0), (2, 1)):
        profiled.clear()
        stabilized.clear()
        search._audit_worker(cfg, worker, jobs)
        assert 0 < len(stabilized) == len(set(stabilized))
        runs[jobs, worker] = profiled[:]
    exhaustive = len(list(search.exhaustive_instances(cfg)))

    def per_sequence(records):
        out = []
        for seq, instance in records:
            if not out or out[-1][0] != seq:
                out.append((seq, []))
            out[-1][1].append(instance)
        return out

    assert len(runs[1, 0]) == exhaustive + cfg.random_samples
    one = per_sequence(runs[1, 0][:exhaustive])
    at = {seq: i for i, (seq, _) in enumerate(one)}
    half = cfg.random_samples // 2
    shares = []
    for worker in (0, 1):
        share = per_sequence(runs[2, worker][:-half])
        places = [at[seq] for seq, _ in share]
        assert places == sorted(places) and len(places) > len(one) // 3
        assert share == [one[i] for i in places]
        shares += places
    assert sorted(shares) == list(range(len(one)))


def test_walk_subtree_split_builds_no_unused_rows(monkeypatch):
    # a worker's walk adds bundles only on its own subtrees and on the
    # prefixes above them (positions < |G| - 2), which every worker walks:
    # those prefixes are the only row work three workers repeat
    cfg = _small_cfg(exhaustive_group_cap=8, exhaustive_len_cap=6)
    calls = []
    real_add_bundle = search.add_bundle

    def add_bundle_spy(*args):
        calls.append(1)
        return real_add_bundle(*args)

    def walk(worker, jobs):
        calls.clear()
        seqs = [(g.spec_string(), s.mult, rows) for g, s, rows in
                exhaustive_sequences(cfg, True, worker, jobs)]
        return seqs, len(calls)

    monkeypatch.setattr(search, "add_bundle", add_bundle_spy)
    full, full_calls = walk(0, 1)
    shares = [walk(w, 3) for w in range(3)]
    assert sorted(x for seqs, _ in shares for x in seqs) == sorted(full)
    prefixes = sum(comb(max(0, g.order - 2) + 6, 6) - 1 for g in search.groups_up_to(8))
    assert full_calls == len(full) == 12_639
    assert sum(c for _, c in shares) == full_calls + 2 * prefixes == 19_803


def test_random_instance_is_seed_deterministic():
    cfg = _small_cfg()
    groups = [parse_group("4"), parse_group("2x2")]
    a = random_instance(cfg, 5, groups)
    b = random_instance(cfg, 5, groups)
    assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]
    c = random_instance(_small_cfg(seed=8), 5, groups)
    assert (a[1], a[2]) != (c[1], c[2]) or a[0] != c[0]


def test_random_instance_within_a_small_len_cap():
    # the support size is drawn from 1..min(6, |G|, random_len_cap)
    groups = [parse_group("8"), parse_group("2x4")]
    for cap in (1, 3):
        for i in range(200):
            _, s, n = random_instance(_small_cfg(random_len_cap=cap), i, groups)
            assert 1 <= s.length <= cap and s.max_multiplicity() <= n <= s.length
    report = run_audit(_small_cfg(exhaustive_group_cap=0, random_len_cap=3))
    assert report.holds and report.instances == 100


@pytest.mark.parametrize("over", [
    {"exhaustive_len_cap": -2},
    {"exhaustive_group_cap": -1},
    {"max_group_order": -1, "random_samples": 0},
    {"random_samples": -5},
    {"random_len_cap": 0},
    {"jobs": 0},
    {"max_group_order": 1},   # no group of order >= 2 to sample from
    {"checkers": ("bogus",), "exhaustive_group_cap": 0, "random_samples": 0},
    {"checkers": ("subsum_kneser", "subsum_kneser")},
], ids=["len-cap", "group-cap", "max-order", "samples", "random-len-cap", "jobs",
        "no-sample-group", "unknown-checker", "repeated-checker"])
def test_audit_rejects_bad_config_before_any_instance(over, monkeypatch):
    def no_worker(*args):
        raise AssertionError("an audit worker ran")
    monkeypatch.setattr(search, "_audit_worker", no_worker)
    with pytest.raises(SearchError):
        run_audit(_small_cfg(**over))


def test_audit_runs_clean_and_counts():
    cfg = _small_cfg()
    report = run_audit(cfg)
    assert report.holds
    assert report.instances > 0
    assert report.checks_run >= report.instances
    for name in cfg.checkers:
        assert report.counters[name]["fail"] == 0


def test_audit_aggregate_excludes_worker_count():
    r1 = run_audit(_small_cfg(jobs=1))
    r4 = run_audit(_small_cfg(jobs=4))
    assert json.dumps(r1.to_dict(), sort_keys=True) == \
        json.dumps(r4.to_dict(), sort_keys=True)
    assert "jobs" not in r1.config.to_dict()


@pytest.mark.parametrize("target", ["subsum_profile", "build_s_star"])
def test_audit_records_sequence_error_as_failure(target, monkeypatch):
    def broken(*args, **kwargs):
        raise SequenceError("injected by test (internal inconsistency)")

    monkeypatch.setattr(search, target, broken)
    cfg = _small_cfg(random_samples=20)
    report = run_audit(cfg)
    assert not report.holds
    assert report.counters["s_star"]["fail"] == report.instances
    assert len(report.violations) == \
        sum(c["fail"] for c in report.counters.values())
    for v in report.violations:
        assert "internal inconsistency" in v["detail"]
        assert v["replay"].startswith(f"subsumlab subsums -g {v['group']} ")


@pytest.mark.parametrize("verifier, all_fail, none_fail", [
    ("partition_verify", {"partition"}, {"pipeline", "fullgroup"}),
    ("main_verify", {"pipeline", "fullgroup"}, {"partition"}),
])
def test_audit_reports_certificates_its_verifier_rejects(verifier, all_fail, none_fail,
                                                         monkeypatch):
    # the audit does not verify again: it relies on the solvers' own
    # verifier run, so a rejecting verifier must still surface as failures
    monkeypatch.setattr(setpartitions, verifier,
                        lambda *args: (False, ["rejected by test"]))
    checkers = ("partition", "pipeline", "fullgroup")
    report = run_audit(_small_cfg(checkers=checkers, random_samples=0))
    assert not report.holds
    for name in all_fail:
        c = report.counters[name]
        assert c["pass"] == 0 and c["fail"] > 0, (name, c)
    for name in none_fail:
        assert report.counters[name]["fail"] == 0
    assert len(report.violations) == \
        sum(c["fail"] for c in report.counters.values())
    for v in report.violations:
        assert v["detail"].startswith("internal error: ")
        assert v["replay"].startswith(f"subsumlab subsums -g {v['group']} ")


def test_audit_rejects_oversized_caps():
    with pytest.raises(SearchError):
        run_audit(_small_cfg(exhaustive_group_cap=32))
    with pytest.raises(SearchError):
        run_audit(_small_cfg(max_group_order=1000))


def test_audit_pipeline_checkers_small():
    cfg = _small_cfg(checkers=("partition", "pipeline", "fullgroup"),
                     random_samples=50)
    report = run_audit(cfg)
    assert report.holds
    assert report.counters["pipeline"]["fail"] == 0
    # fullgroup skips instances below its length threshold
    assert report.counters["fullgroup"]["skip"] > 0


# ---------------------------------------------------------------------------
# open-question hunt


def test_hunt_well_formed_small():
    g = parse_group("5")
    rep = hunt_unique_expression(g, 2)
    assert rep.exhaustive
    assert rep.tuples_examined > 0
    assert rep.aperiodic_count <= rep.tuples_examined
    d = rep.to_dict()
    assert d["group"] == "5" and d["n"] == 2
    assert isinstance(d["hits"], list)


def test_hunt_canonicalization_only_shrinks():
    g = parse_group("7")
    full = hunt_unique_expression(g, 2, canonicalize=False)
    canon = hunt_unique_expression(g, 2, canonicalize=True)
    assert canon.tuples_examined <= full.tuples_examined
    # reduction is over-count-safe: a hit exists in one iff in the other
    assert bool(full.hits) == bool(canon.hits)


def test_hunt_budget_marks_nonexhaustive():
    g = parse_group("8")
    rep = hunt_unique_expression(g, 3, budget=2)
    assert not rep.exhaustive
    assert rep.tuples_examined <= 2


def test_hunt_budget_counts_skipped_duplicates():
    # C_9 has 4 classes of 2-subsets, so 20 combinations of 3 are drawn, and
    # canonicalization skips some; each skipped one still counts
    g = parse_group("9")
    drawn = comb(len(search._canonical_diffs(g)) + 2, 3)
    full = hunt_unique_expression(g, 3)
    assert full.exhaustive and full.tuples_examined < drawn
    assert hunt_unique_expression(g, 3, budget=drawn).tuples_examined == full.tuples_examined
    assert not hunt_unique_expression(g, 3, budget=drawn - 1).exhaustive
    # the budget bounds the run on C_1024 too, where phi(1024) = 512 units
    t0 = time.perf_counter()
    rep = hunt_unique_expression(parse_group("1024"), 3, budget=200)
    assert time.perf_counter() - t0 < 1.0
    assert not rep.exhaustive and 0 < rep.tuples_examined <= 200


def test_hunt_cyclic_canon_matches_full_unit_scan(monkeypatch):
    # canonicalizing over the units that take some d to +-gcd(d, m) gives
    # the reports that the scan over every unit mod m gives
    def full_scan(m, combo):
        return min(tuple(sorted(min(u * d % m, -u * d % m) for d in combo))
                   for u in range(1, m) if gcd(u, m) == 1)

    for m in range(2, 65):
        g = parse_group(str(m))
        for n in (1, 2, 3):
            fast = hunt_unique_expression(g, n).to_dict()
            with monkeypatch.context() as mp:
                mp.setattr(search, "_cyclic_canon", full_scan)
                slow = hunt_unique_expression(g, n).to_dict()
            assert fast == slow, (m, n)


def test_hunt_finds_no_aperiodic_sum_once_n_reaches_the_order():
    # by Kneser an aperiodic sum of n two-element sets has >= n + 1 elements,
    # so n = |G| and |G| + 1 find none, and n > |G| + 1 is refused outright
    for spec in ("2", "3", "2x2", "5", "6", "2x4"):
        g = parse_group(spec)
        for n in (g.order, g.order + 1):
            rep = hunt_unique_expression(g, n)
            assert rep.exhaustive and rep.tuples_examined > 0
            assert rep.aperiodic_count == 0 and not rep.hits
        with pytest.raises(SearchError, match=r"^need 1 <= n <= \|G\| \+ 1"):
            hunt_unique_expression(g, g.order + 2)
