"""Acceptance gate: twelve criteria, each one test, each reporting a single
pass/fail line in the terminal summary (see conftest.py).

Time budgets are pinned as constants and asserted with wall-clock checks.
Criterion 7's corpus is reduced from the nominal caps; the reduction and its
justification are recorded in CHANGES.md.
"""

import json
import time

import pytest

from subsumlab.groups import (
    GroupSubset,
    abelian_groups_of_order,
    affine_span,
    enumerate_subgroups,
    parse_group,
    stabilizer,
    subgroup_generated,
)
from subsumlab.sequences import (
    GSequence,
    davenport_bruteforce,
    nterm_subsums,
)
from subsumlab.setpartitions import lemma31_complete
from subsumlab.search import (
    AuditConfig,
    _walk,
    clause_iib_fails,
    gen_example,
    groups_up_to,
    hunt_unique_expression,
    random_instance,
    run_audit,
)
from subsumlab.verifiers import check_cor1, check_cor2

from _oracles import nterm_subsums_oracle
from conftest import record_acceptance

BUDGET_EXAMPLE_A_S = 1.0
BUDGET_EXAMPLES_BC_S = 5.0
BUDGET_BOUND_AUDIT_S = 300.0
BUDGET_PIPELINE_AUDIT_S = 1800.0
BUDGET_DAVENPORT_S = 10.0
BUDGET_HUNT_S = 600.0


# ---------------------------------------------------------------------------
# shared corpora (computed once, used by several criteria)


@pytest.fixture(scope="module")
def bound_audit():
    """Criteria 3+4 corpus: exhaustive |S| <= 10, |G| <= 10 plus 10^4 seeded
    random instances over |G| <= 16, running the subsum bound and the S*
    identity checkers."""
    cfg = AuditConfig(max_group_order=16, exhaustive_group_cap=10,
                      exhaustive_len_cap=10, random_samples=10_000,
                      random_len_cap=12, seed=0, jobs=1,
                      checkers=("subsum_kneser", "s_star"))
    t0 = time.perf_counter()
    report = run_audit(cfg)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def pipeline_audit():
    """Criteria 8+9 corpus: exhaustive small (|G| <= 8, |S| <= 6) plus 10^4
    seeded random instances over |G| <= 16, running the partition solver,
    the standard pipeline, and the full-group variant."""
    cfg = AuditConfig(max_group_order=16, exhaustive_group_cap=8,
                      exhaustive_len_cap=6, random_samples=10_000,
                      random_len_cap=12, seed=0, jobs=1,
                      checkers=("partition", "pipeline", "fullgroup"))
    t0 = time.perf_counter()
    report = run_audit(cfg)
    return report, time.perf_counter() - t0


# ---------------------------------------------------------------------------


def test_c01_example_a_family():
    t0 = time.perf_counter()
    cases = 0
    for m in range(4, 17):
        g = parse_group(str(m))
        for h in enumerate_subgroups(g):
            if h.is_trivial or g.order // h.order < 4:
                continue
            inst = gen_example("A", g, h)
            assert inst.S.length == 2 * g.order - 4 * h.order
            sigma = nterm_subsums(inst.S, inst.n)
            assert sigma.size == g.order - h.order
            assert stabilizer(sigma).carrier == h.carrier
            assert clause_iib_fails(g, inst.S, inst.n, h)
            cases += 1
    elapsed = time.perf_counter() - t0
    assert cases == 8  # exact count of eligible (m, H) pairs in the range
    assert elapsed < BUDGET_EXAMPLE_A_S
    record_acceptance(1, "extremal family A over all cyclic groups 4..16",
                      f"{cases} instances, {elapsed:.2f}s")


def test_c02_examples_b_and_c():
    t0 = time.perf_counter()
    # family B on C2 x C3 x C3 (invariant chain 3x6)
    g = parse_group("3x6")
    h = subgroup_generated(GroupSubset.from_indices(g, [g.index((0, 3))]))
    k = subgroup_generated(GroupSubset.from_indices(
        g, [g.index((0, 3)), g.index((1, 0))]))
    inst_b = gen_example("B", g, h, k=k, gen_elem=g.index((0, 1)))
    assert inst_b.S.length == (g.order // k.order - 1) * (h.order + k.order) == 16
    assert len(nterm_subsums_oracle(inst_b.S, inst_b.n)) == \
        g.order - k.order + h.order == 14

    # family C on C3 x C3 x C3
    g = parse_group("3x3x3")
    h = subgroup_generated(GroupSubset.from_indices(g, [g.index((0, 0, 1))]))
    k = subgroup_generated(GroupSubset.from_indices(
        g, [g.index((0, 0, 1)), g.index((0, 1, 0))]))
    inst_c = gen_example("C", g, h, k=k, gen_elem=g.index((1, 0, 0)))
    assert inst_c.S.length == g.order == 27
    assert len(nterm_subsums_oracle(inst_c.S, inst_c.n)) == \
        g.order - h.order == 24
    elapsed = time.perf_counter() - t0
    assert elapsed < BUDGET_EXAMPLES_BC_S
    record_acceptance(2, "extremal families B and C, brute-forced",
                      f"|S|=16/27, sums 14/24, {elapsed:.2f}s")


def test_c03_subsum_bound_zero_violations(bound_audit):
    report, elapsed = bound_audit
    failures = report.counters["subsum_kneser"]["fail"]
    assert failures == 0, report.violations[:3]
    assert report.counters["subsum_kneser"]["pass"] > 3_000_000
    assert elapsed < BUDGET_BOUND_AUDIT_S
    record_acceptance(3, "subsum lower bound, exhaustive + random corpus",
                      f"{report.instances} instances, 0 violations, "
                      f"{elapsed:.0f}s")


def test_c04_s_star_identities_zero_violations(bound_audit):
    report, _ = bound_audit
    assert report.counters["s_star"]["fail"] == 0, report.violations[:3]
    assert report.counters["s_star"]["pass"] == \
        report.counters["subsum_kneser"]["pass"]
    record_acceptance(4, "S* identities on the criterion-3 corpus",
                      f"{report.counters['s_star']['pass']} instances")


def test_c05_structural_classification_sweep():
    checked = cor2_checked = 0
    for order in range(2, 10):
        for g in abelian_groups_of_order(order):
            exp = g.exponent
            for bits in range(1, 1 << g.order):
                a = GroupSubset(g, bits)
                if not affine_span(a).is_full:
                    continue
                for n in (exp - 1, exp, exp + 1):
                    if n < 3:
                        continue
                    rep = check_cor1(a, n)
                    assert rep.holds, (g.spec_string(), bits, n, rep.detail)
                    checked += 1
                    if n * a.size > g.order:
                        rep2 = check_cor2(a, n)
                        assert rep2.holds, (g.spec_string(), bits, n,
                                            rep2.detail)
                        cor2_checked += 1
    # the two worked structural instances
    g = parse_group("3x3")
    a = GroupSubset.from_indices(g, [g.index((1, 0)), g.index((2, 0)),
                                     g.index((0, 1))])
    rep = check_cor1(a, 3)
    assert rep.lhs == 8 and rep.witnesses["template"] == "1(b)"
    g = parse_group("2x4")
    a = GroupSubset.from_indices(g, [g.index((0, 0)), g.index((1, 0)),
                                     g.index((0, 1))])
    rep = check_cor1(a, 3)
    assert rep.lhs == 7 and rep.witnesses["template"] == "2(b)"
    assert rep.lhs == g.order - rep.witnesses["H0_order"] + \
        rep.witnesses["K_order"]
    record_acceptance(5, "structural sumset classification |G| <= 9",
                      f"{checked} classifier calls, {cor2_checked} full-group "
                      "variants, zero fall-throughs")


def test_c06_greedy_split_postconditions_exhaustive():
    cap = 8
    calls = 0
    for g in groups_up_to(cap):
        m = g.order
        for s_prime, _ in _walk(g, cap, False):
            room = cap - s_prime.length
            extras = [[0] * m] if room == 0 else \
                [v.mult for v, _ in _walk(g, room, False)] + [[0] * m]
            for extra in extras:
                s = GSequence(g, [a + b for a, b in zip(s_prime.mult, extra)])
                for n in range(s_prime.max_multiplicity(), s_prime.length + 1):
                    if n == 0:
                        continue
                    for k in range(1, n + 1):
                        t, t_prime = lemma31_complete(s, s_prime, n, k)
                        assert t.length + t_prime.length == s_prime.length
                        assert t.max_multiplicity() <= k <= t.length
                        if n > k:
                            assert t_prime.max_multiplicity() <= n - k \
                                <= t_prime.length
                        calls += 1
    record_acceptance(6, "greedy split postconditions, exhaustive |S| <= 8, "
                      "|G| <= 8", f"{calls} calls, zero violations")


def test_c07_subsum_dp_matches_oracle():
    # reduced corpus (see CHANGES.md): exhaustive at |S| <= 7, |G| <= 7
    # plus 20000 seeded random instances up to the nominal |S| <= 12,
    # |G| <= 12 caps -- the full exhaustive corpus at the nominal caps is
    # computationally out of reach for a test suite.
    checked = 0
    for g in groups_up_to(7):
        for s, _ in _walk(g, 7, False):
            for n in range(0, s.length + 1):
                assert set(nterm_subsums(s, n).indices()) == \
                    nterm_subsums_oracle(s, n)
                checked += 1
    cfg = AuditConfig(max_group_order=12, random_len_cap=12, seed=101)
    groups = [g for g in groups_up_to(12)]
    for i in range(20_000):
        g, s, n = random_instance(cfg, i, groups)
        assert set(nterm_subsums(s, n).indices()) == nterm_subsums_oracle(s, n)
        checked += 1
    record_acceptance(7, "subsum DP vs combinatorial oracle",
                      f"{checked} instances (reduced corpus, see CHANGES.md)")


def test_c08_pipeline_zero_internal_errors(pipeline_audit):
    report, elapsed = pipeline_audit
    assert report.counters["pipeline"]["fail"] == 0, report.violations[:3]
    assert report.counters["partition"]["fail"] == 0, report.violations[:3]
    assert report.counters["pipeline"]["pass"] > 10_000
    assert elapsed < BUDGET_PIPELINE_AUDIT_S
    record_acceptance(8, "certificate pipeline audit |G| <= 16",
                      f"{report.counters['pipeline']['pass']} certificates, "
                      f"0 failures, {elapsed:.0f}s")


def test_c09_fullgroup_mode_zero_failures(pipeline_audit):
    report, _ = pipeline_audit
    assert report.counters["fullgroup"]["fail"] == 0, report.violations[:3]
    assert report.counters["fullgroup"]["pass"] > 0
    record_acceptance(9, "full-group mode on the criterion-8 corpus",
                      f"{report.counters['fullgroup']['pass']} certificates, "
                      "0 failures")


def test_c10_davenport_constants():
    t0 = time.perf_counter()
    for m in range(1, 9):
        g = parse_group(str(m))
        d = davenport_bruteforce(g)
        assert d == m
        d_star = sum(f - 1 for f in g.invariant_factors)
        assert d_star + 1 <= d <= g.order
    g = parse_group("2x2")
    d = davenport_bruteforce(g)
    assert d == 3
    assert sum(f - 1 for f in g.invariant_factors) + 1 <= d <= g.order
    elapsed = time.perf_counter() - t0
    assert elapsed < BUDGET_DAVENPORT_S
    record_acceptance(10, "Davenport constants of small cyclic groups",
                      f"{elapsed:.2f}s")


def test_c11_audit_determinism_across_workers():
    def agg(jobs):
        cfg = AuditConfig(max_group_order=8, exhaustive_group_cap=6,
                          exhaustive_len_cap=6, random_samples=500, seed=42,
                          jobs=jobs,
                          checkers=("subsum_kneser", "s_star", "lemma_extra"))
        return json.dumps(run_audit(cfg).to_dict(), sort_keys=True)

    one, four = agg(1), agg(4)
    assert one == four
    record_acceptance(11, "audit aggregates byte-identical for jobs 1 and 4",
                      f"{len(one)} bytes")


def test_c12_open_question_hunt():
    t0 = time.perf_counter()
    reports = []
    for g in groups_up_to(8):
        if g.order < 2:
            continue
        for n in (1, 2, 3):
            rep = hunt_unique_expression(g, n)
            assert rep.exhaustive
            assert rep.tuples_examined >= rep.aperiodic_count >= 0
            d = rep.to_dict()
            assert set(d) >= {"group", "n", "tuples_examined", "hits",
                              "exhaustive", "hit_found"}
            reports.append(rep)
    elapsed = time.perf_counter() - t0
    assert elapsed < BUDGET_HUNT_S
    hits = sum(len(r.hits) for r in reports)
    # the underlying question is open: hits are reported, never asserted
    record_acceptance(12, "open-question hunt |G| <= 8, n <= 3",
                      f"{len(reports)} reports, {hits} hits recorded, "
                      f"{elapsed:.0f}s")
