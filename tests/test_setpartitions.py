"""Setpartition construction, the two-case partition solver, hypothesis
items, and the main certificate pipeline."""

import copy
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from subsumlab import groups, sequences, setpartitions
from subsumlab.groups import (
    GroupSubset,
    Subgroup,
    abelian_groups_of_order,
    enumerate_subgroups,
    parse_element,
    parse_group,
    quotient_cached,
    quotient_decompose,
    smallest_prime_divisor,
    stabilizer,
    sum_of_masks,
)
from subsumlab.search import AuditConfig, exhaustive_instances
from subsumlab.sequences import GSequence, nterm_subsums, parse_sequence
from subsumlab.setpartitions import (
    Certificate,
    HypothesesUnmetError,
    InternalError,
    PartitionError,
    SetPartition,
    hypothesis_check,
    lemma31_complete,
    main_pipeline,
    main_verify,
    n_all,
    partition_solve,
    partition_verify,
)

from _oracles import (
    dense_terms,
    from_terms,
    improve_oracle,
    remove,
    setpartitions_oracle,
    spread_outside_terms_oracle,
    sumset_oracle,
    underlying_sequence,
)

GROUPS = [parse_group(s) for s in ["2", "4", "7", "8", "2x2", "2x4", "3x3", "9"]]


@st.composite
def solver_instance(draw, max_len=9):
    g = draw(st.sampled_from(GROUPS))
    length = draw(st.integers(1, max_len))
    terms = draw(st.lists(st.integers(0, g.order - 1),
                          min_size=length, max_size=length))
    s = from_terms(g, terms)
    drop = draw(st.integers(0, min(2, s.length - 1)))
    s_prime = s
    for _ in range(drop):
        idx = s_prime.support_indices()[0]
        s_prime = remove(s_prime, from_terms(g, [idx]))
    n = draw(st.integers(s_prime.max_multiplicity(), s_prime.length))
    return g, s, s_prime, n


# ---------------------------------------------------------------------------
# the round-robin start of the hill climb


def test_make_setpartition_round_robin():
    g = parse_group("4")
    s = parse_sequence(g, "0^2;1^2")
    sp = SetPartition(g, setpartitions._round_robin(s, 2))
    assert list(sp.parts) == [0b11, 0b11]
    assert underlying_sequence(sp) == s

    singles = setpartitions._round_robin(parse_sequence(g, "0^3"), 3)
    assert all(p == 0b1 for p in singles)


def test_setpartition_parts_are_nonempty_masks_of_the_group():
    g = parse_group("2x4")
    assert SetPartition(g, [0b1, g.full_mask]).parts == (0b1, g.full_mask)
    for bad in (0, 1 << g.order, g.full_mask + 1, -1):
        with pytest.raises(PartitionError):
            SetPartition(g, [0b1, bad])


@given(solver_instance())
def test_make_setpartition_invariants(inst):
    g, _, s_prime, n = inst
    sp = SetPartition(g, setpartitions._round_robin(s_prime, n))
    assert len(sp.parts) == n
    assert all(sp.parts)
    assert underlying_sequence(sp) == s_prime


# ---------------------------------------------------------------------------
# greedy completion (counterpart splitting)


def test_lemma31_worked_instances():
    g = parse_group("4")
    s = parse_sequence(g, "0^2;1^2")
    t, t_prime = lemma31_complete(s, s, 2, 1)
    assert dense_terms(t) == [0, 1]
    assert dense_terms(t_prime) == [0, 1]

    s = parse_sequence(g, "0^3")
    sp = parse_sequence(g, "0^2")
    t, t_prime = lemma31_complete(s, sp, 2, 1)
    assert dense_terms(t) == [0]
    assert dense_terms(t_prime) == [0]

    # k = n: counterpart empty
    s = parse_sequence(g, "0;1;2")
    t, t_prime = lemma31_complete(s, s, 3, 3)
    assert t_prime.length == 0 and t.length == 3


@given(solver_instance(), st.data())
def test_lemma31_postconditions(inst, data):
    g, s, s_prime, n = inst
    k = data.draw(st.integers(1, n))
    t, t_prime = lemma31_complete(s, s_prime, n, k)
    assert t.length + t_prime.length == s_prime.length
    assert t.max_multiplicity() <= k <= t.length
    assert t_prime.max_multiplicity() <= n - k <= t_prime.length
    assert n > k or t_prime.length == 0
    assert all(a + b <= m for a, b, m in zip(t.mult, t_prime.mult, s.mult))


# ---------------------------------------------------------------------------
# partition solver


def test_partition_case1_trivial():
    g = parse_group("4")
    s = parse_sequence(g, "0^3")
    cert = partition_solve(s, s, 3)
    assert cert.case_tag == "I" and cert.verified
    assert sum_of_masks(g, cert.partition.parts).bit_count() == 1 == s.length - 3 + 1


def test_partition_case1_hill_climb():
    g = parse_group("7")
    s = parse_sequence(g, "0;1;2;3")
    cert = partition_solve(s, s, 2)
    assert cert.case_tag == "I"
    assert sum_of_masks(g, cert.partition.parts).bit_count() >= 3


def test_improve_matches_full_recompute_oracle():
    # the partial sum kept per part pair scores every move as the full
    # re-sum did, so both climbs take the same moves from the same start
    rng = random.Random("improve-oracle")
    groups = [g for m in range(2, 33) for g in abelian_groups_of_order(m)]
    climbs = moves = spare_climbs = 0
    while climbs < 1500:
        g = rng.choice(groups)
        pool = rng.sample(range(g.order), min(g.order, rng.randint(2, 8)))
        s = from_terms(g, [rng.choice(pool) for _ in range(rng.randint(2, 14))])
        mult = list(s.mult)
        for _ in range(rng.randint(0, s.length // 3)):
            mult[rng.choice([x for x, m in enumerate(mult) if m])] -= 1
        s_prime = GSequence(g, mult)
        if s_prime.max_multiplicity() > s_prime.length // 2:
            continue
        n = rng.randint(max(2, s_prime.max_multiplicity()), s_prime.length)
        parts = setpartitions._round_robin(s_prime, n)
        oracle_parts = parts[:]
        best = sum_of_masks(g, parts).bit_count()
        climbs += 1
        spare_climbs += s_prime != s
        while True:
            lifted = setpartitions._improve(s, parts, best)
            moved = improve_oracle(s, oracle_parts, best)
            assert parts == oracle_parts, (g, s.format(), s_prime.format(), n)
            if not moved:
                assert lifted == 0
                break
            best = sum_of_masks(g, oracle_parts).bit_count()
            assert lifted == best
            moves += 1
    assert moves > climbs // 3 and spare_climbs > climbs // 2, (moves, spare_climbs)


def test_partition_case2_worked_instance():
    g = parse_group("8")
    s = parse_sequence(g, "0^2;4^2;1^2;5^2")
    cert = partition_solve(s, s, 2)
    assert cert.case_tag == "II"
    assert set(cert.H.carrier.indices()) == {0, 4}
    sum_parts = sum_of_masks(g, cert.partition.parts)
    assert sum_parts == nterm_subsums(s, 2).bits
    assert sum_parts.bit_count() == 6  # ((N-1)n + e + 1)|H| with N=2, e=0


@given(solver_instance())
@settings(deadline=None, max_examples=60)
def test_partition_solver_output_always_verifies(inst):
    g, s, s_prime, n = inst
    cert = partition_solve(s, s_prime, n)
    ok, violations = partition_verify(cert, s, s_prime, n)
    assert ok, violations
    assert underlying_sequence(cert.partition).length == s_prime.length
    assert underlying_sequence(cert.partition).is_subsequence_of(s)


def test_partition_case2_repair_witness(monkeypatch):
    # the hill climb's partition fails case II here; the repaired one passes
    g = parse_group("4x8")
    s = parse_sequence(g, "(1,1);(2,1)^4;(1,3)^3;(2,3);(0,5)^4;(3,7)^4")
    cert = partition_solve(s, s, 4)
    assert cert.case_tag == "II" and cert.verified

    # without the repair, partition_verify is the check that rejects it
    monkeypatch.setattr(setpartitions, "_spread_outside_terms",
                        lambda g, parts, z, target: parts)
    with pytest.raises(InternalError,
                       match="^partition certificate failed verification$") as info:
        partition_solve(s, s, 4)
    assert info.value.dump == {
        "case": "II",
        "violations": ["part 1 has more than one element outside phi^-1(X)"],
        "group": "4x8", "S": s.format(), "S_prime": s.format(), "n": 4}


# both outside terms land in one hill-climb part; the repair spreads them.
# The 2x18 instance is too short for full-group mode.
PINNED_CASE2 = [
    ("2x8", "(0,0)^16;(1,0);(0,1);(1,4)^22;(1,7)", 23, ("standard", "full-group")),
    ("4x4", "(0,0)^14;(3,1);(1,2);(2,2)^16;(2,3)", 17, ("standard", "full-group")),
    ("2x18", "(1,0);(0,4)^10;(1,4)^10;(0,13)^13;(1,13)^11;(1,17)", 34, ("standard",)),
]


@pytest.mark.parametrize("spec, seq, n, modes", PINNED_CASE2)
def test_pinned_case2_instances_verify(spec, seq, n, modes):
    g = parse_group(spec)
    s = parse_sequence(g, seq)
    cert = partition_solve(s, s, n)
    assert cert.case_tag == "II" and cert.verified
    assert partition_verify(cert, s, s, n) == (True, [])
    for mode in modes:
        cert = main_pipeline(g, s, s, n, mode)
        assert cert.case_tag == "II" and cert.verified and cert.mode == mode
        assert cert.K.order == 4
        assert main_verify(cert, g, s, s, n) == (True, [])


@pytest.mark.parametrize("spec, seq, n, modes", PINNED_CASE2[:2])
def test_pipeline_rejects_unrepaired_partition(monkeypatch, spec, seq, n, modes):
    # without the repair two outside terms share a part; main_verify's (ii)(c)
    # is the check that rejects the pipeline's certificate, in either mode
    g = parse_group(spec)
    s = parse_sequence(g, seq)
    monkeypatch.setattr(setpartitions, "_spread_outside_terms",
                        lambda g, parts, z, target: parts)
    last = n - 1
    for mode in modes:
        with pytest.raises(InternalError,
                           match="^pipeline certificate failed verification$") as info:
            main_pipeline(g, s, s, n, mode)
        assert info.value.dump == {
            "violations": [f"(ii)(c): part {i} must have exactly one element outside alpha+K"
                           for i in (last, n)],
            "group": spec, "S": s.format(), "S_prime": s.format(), "n": n, "mode": mode}


def test_spread_outside_terms_matches_full_recompute_oracle(monkeypatch):
    # the partial sum kept per (over, j) pair scores every move as the full
    # re-sum did, so both repairs take the same moves and give the same parts
    real = setpartitions._spread_outside_terms
    seen = []

    def spy(g, parts, z, target):
        seen.append((g, parts[:], z, target))
        return real(g, parts, z, target)

    monkeypatch.setattr(setpartitions, "_spread_outside_terms", spy)
    for spec, seq, n, _ in PINNED_CASE2[:2]:
        g = parse_group(spec)
        s = parse_sequence(g, seq)
        assert partition_solve(s, s, n).verified
    monkeypatch.undo()
    assert len(seen) == 2
    for g, parts, z, target in seen:
        fixed = real(g, parts[:], z, target)
        assert fixed is not None and fixed != parts
        assert fixed == spread_outside_terms_oracle(g, parts[:], z, target)

    # seeded climbs with a random z and the climb's own sum as the target;
    # both outcomes, a repair and no move, must occur
    rng = random.Random("spread-oracle")
    groups = [g for m in range(4, 25) for g in abelian_groups_of_order(m)]
    repaired = failed = 0
    for _ in range(1000):
        g = rng.choice(groups)
        pool = rng.sample(range(g.order), min(g.order, rng.randint(3, 8)))
        s = from_terms(g, [rng.choice(pool) for _ in range(rng.randint(4, 16))])
        n = rng.randint(max(2, s.max_multiplicity()), s.length)
        parts = _climb(s, n, s.length)
        z = GroupSubset.from_indices(g, rng.sample(pool, len(pool) // 2)).bits
        target = sum_of_masks(g, parts)
        got = real(g, parts[:], z, target)
        assert got == spread_outside_terms_oracle(g, parts[:], z, target), \
            (g, s.format(), n, z)
        if got is None:
            failed += 1
        elif got != parts:
            repaired += 1
    assert repaired > 40 and failed > 40, (repaired, failed)


def _climb(s, n, target):
    """The solver's climb from the round-robin parts of S toward target,
    whatever the round-robin sum: the parts it stops at."""
    parts = setpartitions._round_robin(s, n)
    best = setpartitions._sum_size(s.group, parts, s.group.order)
    while best < target and (lifted := setpartitions._improve(s, parts, best)):
        best = lifted
    return parts


# case-II exits whose S misses 0: the certificate is in the caller's
# coordinates, with alpha in supp(S)
CALLER_FRAME_CASE2 = [
    # Step B: the heavy coset (1,0,1) + H; one part has its term outside
    ("2x2x4", "(1,0,0);(1,0,1)^3;(0,0,3)^4", 4, {
        "parts": [["(1,0,1)", "(0,0,3)"]] * 3 + [["(1,0,0)", "(0,0,3)"]],
        "H": ["(0,0,0)", "(1,0,2)"], "K": ["(0,0,0)", "(1,0,2)"],
        "alpha": "(1,0,1)", "e_H": 1, "e_K": 1, "k": 3, "bounds": {"sum_size": 4}}),
    # Step B with 13 inside parts
    ("3x3", "(1,0)^14;(2,0)^6;(0,1)", 14, {
        "parts": [["(1,0)", "(2,0)"]] * 6 + [["(1,0)"]] * 7 + [["(1,0)", "(0,1)"]],
        "H": ["(0,0)", "(1,0)", "(2,0)"], "K": ["(0,0)", "(1,0)", "(2,0)"],
        "alpha": "(1,0)", "e_H": 1, "e_K": 1, "k": 13, "bounds": {"sum_size": 6}}),
    # Step B with H = K = span: the sum of parts is the coset 2*1 + {0,2}
    ("4", "1^2;3^2", 2, {
        "parts": [["1", "3"], ["1", "3"]], "H": ["0", "2"], "K": ["0", "2"],
        "alpha": "1", "e_H": 0, "e_K": 0, "k": 2, "bounds": {"sum_size": 2}}),
]


@pytest.mark.parametrize("spec, seq, n, fields", CALLER_FRAME_CASE2)
def test_pipeline_case2_in_caller_frame(spec, seq, n, fields):
    g = parse_group(spec)
    s = parse_sequence(g, seq)
    cert = main_pipeline(g, s, s, n)
    assert cert.to_dict() == {"case": "II", "theorem": "main", "mode": "standard",
                              "verified": True, **fields}


def test_partition_case2_repair_needs_swap():
    # no transfer of an outside term keeps the sum at Sigma_n; a swap does
    g = parse_group("10")
    s = parse_sequence(g, "0;3;4^19;8;9^11")
    cert = partition_solve(s, s, 24)
    assert cert.case_tag == "II" and cert.verified
    cert = main_pipeline(g, s, s, 24)
    assert cert.case_tag == "II" and cert.verified


def test_partition_verify_rejects_tampering():
    g = parse_group("8")
    s = parse_sequence(g, "0^2;4^2;1^2;5^2")
    cert = partition_solve(s, s, 2)
    assert cert.case_tag == "II"
    # move everything into part 0's coset structure: breaks the
    # at-most-one-outside rule by planting a foreign element
    bad_parts = list(cert.partition.parts)
    bad_parts[0] = 1 << 2 | 1 << 3 | 1 << 6
    tampered = Certificate(cert.case_tag,
                           type(cert.partition)(g, bad_parts),
                           H=cert.H, theorem="partition")
    ok, violations = partition_verify(tampered, s, s, 2)
    assert not ok and violations


def test_partition_precondition_errors():
    g = parse_group("4")
    s = parse_sequence(g, "0^3")
    with pytest.raises(PartitionError):
        partition_solve(s, s, 2)          # h(S') > n
    with pytest.raises(PartitionError):
        partition_solve(s, parse_sequence(g, "1"), 1)  # S' not | S


# ---------------------------------------------------------------------------
# hypothesis items


def test_hypothesis_worked_instances():
    g = parse_group("8")
    h = Subgroup(GroupSubset.from_indices(g, [0, 4]))
    assert hypothesis_check(g, h, 5, "standard") == "item1"
    assert hypothesis_check(g, h, 2, "standard") == "none"
    assert hypothesis_check(g, h, 4, "full-group") == "item1"
    assert hypothesis_check(g, h, 3, "full-group") == "none"
    full = Subgroup(GroupSubset(g, g.full_mask))
    assert hypothesis_check(g, full, 1, "standard") == "full-H"
    triv = Subgroup(GroupSubset.from_indices(g, [0]))
    assert hypothesis_check(g, triv, 1, "standard") == "trivial-H"


def test_hypothesis_check_rejects_unknown_mode():
    g = parse_group("4")
    h = Subgroup(GroupSubset.from_indices(g, [0, 2]))
    with pytest.raises(PartitionError, match="unknown mode 'bogus'"):
        hypothesis_check(g, h, 1, "bogus")


def _hypothesis_item_by_quotient(g, h, n, mode):
    """hypothesis_check as it read G/H off quotient_spec before it worked
    from |G/H| and exp(G/H) alone."""
    if h.is_trivial:
        return "trivial-H"
    if h.is_full:
        return "full-H"
    q = quotient_cached(g, h).quotient_spec
    exp_q = q.exponent
    if mode != "standard":
        return "item1" if n >= exp_q else "none"
    if n >= exp_q + 1:
        return "item1"
    if n >= exp_q > h.order:
        return "item2"
    if n >= exp_q and q.invariant_factors == (2, exp_q):
        return "item3"
    if q.rank == 1 and n >= exp_q - 1:
        return "item4"
    return "none"


def test_hypothesis_check_matches_quotient_spec_predicates():
    """Every (G, H) with |G| <= 32, both modes, n <= 2 exp(G) + 2: the
    quotient-free check gives the quotient_spec answer, and every item is hit."""
    pairs = calls = 0
    hits = set()
    for order in range(1, 33):
        for g in abelian_groups_of_order(order):
            for h in enumerate_subgroups(g):
                pairs += 1
                for mode in setpartitions.MODES:
                    for n in range(1, 2 * g.exponent + 3):
                        item = hypothesis_check(g, h, n, mode)
                        assert item == _hypothesis_item_by_quotient(g, h, n, mode), \
                            (g.spec_string(), h.carrier.format(), n, mode)
                        hits.add(item)
                        calls += 1
    assert (pairs, calls) == (1030, 27300)
    assert hits == {"trivial-H", "full-H", "item1", "item2", "item3", "item4", "none"}


def _least_accepted(g, h, mode):
    """The least n >= 0 that hypothesis_check accepts for (G, H) in mode."""
    return next(n for n in range(g.exponent + 2) if hypothesis_check(g, h, n, mode) != "none")


def test_n_all_matches_subgroup_enumeration():
    """main_pipeline runs no hypothesis check for n >= n_all(G, mode): for
    every G with |G| <= 64 and both modes, n_all is the largest least n that
    hypothesis_check accepts over all H <= G, found by enumerating them, and
    at n_all - 1 some H meets no item."""
    pairs = groups_seen = 0
    for order in range(1, 65):
        for g in abelian_groups_of_order(order):
            groups_seen += 1
            subgroups = enumerate_subgroups(g)
            pairs += len(subgroups)
            for mode in setpartitions.MODES:
                n = n_all(g, mode)
                where = (g.spec_string(), mode)
                assert n == max(_least_accepted(g, h, mode) for h in subgroups), where
                assert all(hypothesis_check(g, h, m, mode) != "none"
                           for h in subgroups for m in (n, n + 1)), where
                assert n == 0 or any(hypothesis_check(g, h, n - 1, mode) == "none"
                                     for h in subgroups), where
    assert (groups_seen, pairs) == (117, 6022)


def test_n_all_values_without_enumeration():
    """n_all from the divisor tuples alone: 243 of them on 4^5 and 4,096 on
    2^12, where enumerating subgroups takes minutes."""
    expected = {
        "7": (0, 0), "8": (3, 4), "16": (7, 8), "1024": (511, 512),
        "2x8": (7, 8), "4x4": (4, 4), "32x32": (32, 32), "64x64": (64, 64),
        "4x4x4": (5, 4), "2x4x8x16": (17, 16),
        "4x4x4x4x4": (5, 4), "2x2x2x2x2x2x2x2x2x2x2x2": (3, 2),
    }
    n_all.cache_clear()
    t0 = time.perf_counter()
    got = {spec: (n_all(parse_group(spec), "standard"), n_all(parse_group(spec), "full-group"))
           for spec in expected}
    assert time.perf_counter() - t0 < 1.0
    assert got == expected


def test_n_all_rejects_an_unknown_mode_and_caches_nothing():
    g = parse_group("16")
    n_all(g, "standard")
    size = n_all.cache_info().currsize
    with pytest.raises(PartitionError, match="^unknown mode 'bogus'$"):
        n_all(g, "bogus")
    assert n_all.cache_info().currsize == size


def test_case_one_pipeline_builds_no_quotient(monkeypatch):
    built = []

    def counting_decompose(g, h):
        built.append((g, h))
        return quotient_decompose(g, h)

    groups.quotient_cached.cache_clear()
    monkeypatch.setattr(groups, "quotient_decompose", counting_decompose)
    g = parse_group("8")
    s = parse_sequence(g, "5^5;7^5")
    cert = main_pipeline(g, s, s, 7)
    assert cert.case_tag == "I" and cert.verified
    assert stabilizer(nterm_subsums(s, 7)).order == 4
    assert built == []
    # case II profiles S over G/H, so the counter sees that quotient
    c4 = parse_group("4")
    cert = main_pipeline(c4, parse_sequence(c4, "0^6;2^6"), parse_sequence(c4, "0^5;2^5"), 5)
    assert cert.case_tag == "II" and len(built) == 1


def _full_group_item2(n, q):
    """The paper's full-group item 2, as hypothesis_check once coded it."""
    return n >= q.exponent - 1 and (q.rank == 1 or smallest_prime_divisor(q.exponent) == q.exponent)


def _full_group_item3(n, q):
    """The paper's full-group item 3, as hypothesis_check once coded it."""
    return n >= 1 and (q.exponent <= 3 or q.invariant_factors == (4,))


def test_full_group_items_2_and_3_need_item_1():
    """The argument in hypothesis_check's docstring, as arithmetic: over every
    G/H of order q in 2..16, |H| = h in 2..4, and every n <= 2q, N <= q, e
    with (A) (N-1)n + e + 2 <= q and (B) Nnh + e >= n + qh - 1, each step
    holds, and the paper's full-group item 2 or 3 holds only where item 1
    (n >= exp(G/H)) does.  n > 2q needs no check (item 1 holds), nor e >=
    q + n - 1 ((A) fails)."""
    tuples = 0
    for q_order in range(2, 17):
        for q in abelian_groups_of_order(q_order):
            for h in range(2, 5):
                for n in range(1, 2 * q_order + 1):
                    for big_n in range(q_order + 1):
                        for e in range(q_order + n - 1):
                            if ((big_n - 1) * n + e + 2 > q_order
                                    or big_n * n * h + e < n + q_order * h - 1):
                                continue
                            tuples += 1
                            assert big_n >= 1
                            if big_n == 1:
                                assert n > q_order
                            else:
                                assert e + 3 <= n <= q_order - 2 - e
                            assert n >= q.exponent or not (
                                _full_group_item2(n, q) or _full_group_item3(n, q))
    assert tuples == 6716


# ---------------------------------------------------------------------------
# main pipeline


def test_main_pipeline_worked_case2():
    g = parse_group("4")
    s = parse_sequence(g, "0^6;2^6")
    s_prime = parse_sequence(g, "0^5;2^5")
    cert = main_pipeline(g, s, s_prime, 5)
    assert cert.case_tag == "II" and cert.verified
    assert set(cert.H.carrier.indices()) == {0, 2}
    assert set(cert.K.carrier.indices()) == {0, 2}
    assert cert.alpha == 0 and cert.e_H == 0 and cert.e_K == 0
    assert sum_of_masks(g, cert.partition.parts) == 0b101  # {0, 2}
    assert nterm_subsums(s, 5).size == 2 >= (cert.e_H + 1) * cert.H.order


def test_main_pipeline_trivial_span_case1():
    # every term equal: the solver's case I on the round-robin partition,
    # with no H recorded
    for spec, seq, n in [("4", "1^4", 4), ("1", "0^3", 3)]:
        g = parse_group(spec)
        s = parse_sequence(g, seq)
        cert = main_pipeline(g, s, s, n)
        assert cert.case_tag == "I" and cert.verified
        assert cert.H is None
        assert list(cert.partition.parts) == setpartitions._round_robin(s, n)


def test_main_pipeline_fullgroup_worked():
    g = parse_group("4")
    s = parse_sequence(g, "0^5;1^5;2^5;3^5")
    cert = main_pipeline(g, s, s, 5, mode="full-group")
    assert cert.verified
    assert nterm_subsums(s, 5).bits == g.full_mask
    assert cert.case_tag == "I"


def test_main_pipeline_hypotheses_unmet():
    g = parse_group("8")
    s = parse_sequence(g, "0^2;4^2;1^2;5^2")
    with pytest.raises(HypothesesUnmetError):
        main_pipeline(g, s, s, 2)


def test_main_pipeline_fullgroup_length_gate():
    g = parse_group("4")
    s = parse_sequence(g, "0;1;2;3")
    with pytest.raises(PartitionError):
        main_pipeline(g, s, s, 2, mode="full-group")


@given(solver_instance())
@settings(deadline=None, max_examples=60)
def test_main_pipeline_certificate_always_verifies(inst):
    g, s, s_prime, n = inst
    try:
        cert = main_pipeline(g, s, s_prime, n)
    except HypothesesUnmetError:
        return
    ok, violations = main_verify(cert, g, s, s_prime, n)
    assert ok, violations
    if cert.case_tag == "I":
        assert sum_of_masks(g, cert.partition.parts).bit_count() >= \
            min(g.order, s_prime.length - n + 1)
    else:
        assert cert.K is not None and not cert.K.is_trivial
        assert cert.H.contains_subgroup(cert.K)


def test_certificate_dict_roundtrip():
    g = parse_group("4")
    s = parse_sequence(g, "0^6;2^6")
    s_prime = parse_sequence(g, "0^5;2^5")
    cert = main_pipeline(g, s, s_prime, 5)
    data = cert.to_dict()
    back = Certificate.from_dict(g, data)
    # every field comes back except verified: parsing verifies nothing
    assert data["verified"] is True and back.verified is False
    assert back.to_dict() == {**data, "verified": False}
    ok, violations = main_verify(back, g, s, s_prime, 5)
    assert ok, violations


def test_main_verify_reads_full_group_mode_from_certificate(monkeypatch):
    # Sigma_2(0;1;2) = {1,2,3} is not all of C4: re-labelled full-group, the
    # case-I certificate claims a sum of parts equal to G, which it breaks.
    # The check runs no Sigma_n DP: a sum of parts equal to G would put G in
    # Sigma_n(S), as S(A) | S
    g = parse_group("4")
    s = parse_sequence(g, "0;1;2")
    cert = main_pipeline(g, s, s, 2)
    assert cert.case_tag == "I" and nterm_subsums(s, 2).size == 3
    assert main_verify(cert, g, s, s, 2) == (True, [])
    relabelled = copy.copy(cert)
    relabelled.mode = "full-group"
    dp_calls = _dp_calls(monkeypatch)
    assert main_verify(relabelled, g, s, s, 2) == (False, [
        "full-group mode: sum of parts != G"])
    assert dp_calls == []
    relabelled.mode = "bogus"
    assert main_verify(relabelled, g, s, s, 2) == (False, ["unknown mode 'bogus'"])


@pytest.mark.parametrize("claimed", [True, "yes"])
def test_certificate_from_dict_ignores_recorded_verified(claimed):
    g = parse_group("4")
    data = {"case": "I", "parts": [["1"]], "verified": claimed}
    assert Certificate.from_dict(g, data).verified is False


def test_main_verify_rejects_wrong_alpha():
    g = parse_group("4")
    s = parse_sequence(g, "0^6;2^6")
    s_prime = parse_sequence(g, "0^5;2^5")
    cert = main_pipeline(g, s, s_prime, 5)
    data = cert.to_dict()
    data["alpha"] = "1"
    bad = Certificate.from_dict(g, data)
    ok, violations = main_verify(bad, g, s, s_prime, 5)
    assert not ok and violations


def test_main_verify_rejects_non_subgroup_k():
    # K does not contain 0, yet every other clause of (ii) holds for it
    g = parse_group("2x2x2x2")
    s = parse_sequence(g, "(0,0,0,0)^2;(1,1,0,0)^2;(1,0,1,0)^3;(0,1,1,0)^4;(1,1,1,0)")
    data = main_pipeline(g, s, s, 4).to_dict()
    data.update(K=["(1,0,0,0)", "(0,1,0,0)", "(0,0,1,0)", "(1,1,1,0)"],
                alpha="(1,0,0,0)", e_K=1, k=3)
    bad = Certificate.from_dict(g, data)
    ok, violations = main_verify(bad, g, s, s, 4)
    assert not ok
    assert violations == ["(ii): K is not a subgroup: subgroup must contain 0"]


# hand-made certificates for the clauses the verifiers check in one pass over
# supp(S) or over the parts' union: (C4 S, S', n, record edits, verifier,
# the exact violation list)
_C4_STEP_B = ("0^6;2^6", "0^5;2^5", 5)
CLAUSE_TEXTS = [
    # S(A) holds 1, which S lacks, and one term too few
    (*_C4_STEP_B, {"parts": [["0"], ["0"], ["0", "2"], ["0", "2"], ["0", "1", "2"]]}, "main",
     ["S(A) is not a subsequence of S", "|S(A)|=9 != |S'|=10"]),
    ("0^2;2^2", "0^2;2^2", 2, {"case": "I", "parts": [["0", "1"], ["0", "2"]]}, "partition",
     ["S(A) is not a subsequence of S"]),
    # three parts hold 0, which S has twice
    ("0^2;2^2", "0^2;2^2", 3, {"case": "I", "parts": [["0"], ["0"], ["0", "2"]]}, "partition",
     ["S(A) is not a subsequence of S"]),
    # S has a 1 that no part uses
    ("0^6;2^6;1", "0^5;2^5", 5, {}, "main",
     ["recorded H={0,2} != H(Sigma_n(S))={0,1,2,3}", "(ii): H(Sigma_n(S)) must be proper",
      "(ii)(a): sum of parts != Sigma_n(S)", "(ii)(a): leftover terms outside alpha+K",
      "(ii)(b): recorded e_K=0 != recomputed 1", "(ii)(b): e_H=0 > |G/H|-2",
      "(ii)(b): e_K=1 > |G/K|-2", "recorded k=5 != n - e_K = 4",
      "(ii)(c): part 5 must have exactly one element outside alpha+K"]),
    (*_C4_STEP_B, {"e_H": 1}, "main", ["(ii)(b): recorded e_H=1 != recomputed 0"]),
    (*_C4_STEP_B, {"e_K": 1}, "main", ["(ii)(b): recorded e_K=1 != recomputed 0"]),
    (*_C4_STEP_B, {"e_H": 2, "e_K": 3, "k": 2}, "main",
     ["(ii)(b): recorded e_H=2 != recomputed 0", "(ii)(b): recorded e_K=3 != recomputed 0",
      "recorded k=2 != n - e_K = 5"]),
]


@pytest.mark.parametrize("seq, seq_prime, n, edits, verifier, expected", CLAUSE_TEXTS)
def test_verifier_clause_texts(seq, seq_prime, n, edits, verifier, expected):
    g, data = _valid_record()
    cert = Certificate.from_dict(g, {**data, **edits})
    s, s_prime = parse_sequence(g, seq), parse_sequence(g, seq_prime)
    if verifier == "main":
        assert main_verify(cert, g, s, s_prime, n) == (False, expected)
    else:
        assert partition_verify(cert, s, s_prime, n) == (False, expected)


def test_verifiers_check_recorded_fields():
    g = parse_group("4")
    s = parse_sequence(g, "0^6;2^6")
    s_prime = parse_sequence(g, "0^5;2^5")
    data = main_pipeline(g, s, s_prime, 5).to_dict()
    for bad_h in (["1", "3"], None):
        bad = Certificate.from_dict(g, {**data, "H": bad_h})
        ok, violations = main_verify(bad, g, s, s_prime, 5)
        assert not ok and violations, bad_h

    g = parse_group("8")
    s = parse_sequence(g, "0^2;4^2;1^2;5^2")
    data = partition_solve(s, s, 2).to_dict()
    assert (data["case"], data["H"], data["e_H"], data["k"]) == ("II", ["0", "4"], 0, 2)
    for field, value in (("H", ["3"]), ("H", None), ("e_H", 5), ("k", 7)):
        bad = Certificate.from_dict(g, {**data, field: value})
        ok, violations = partition_verify(bad, s, s, 2)
        assert not ok and violations, (field, value)
    bad = Certificate.from_dict(g, {**data, "H": ["3"], "e_H": 5, "k": 7})
    assert len(partition_verify(bad, s, s, 2)[1]) == 3


# case I: C7 0;1;2;3, n = 2 (main); case II: C8 0^2;4^2;1^2;5^2, n = 2 (partition)
UNUSED_FIELD_EDITS = [
    ("7", "0;1;2;3", "main", {"K": ["1", "3"], "alpha": "5", "e_H": 9, "e_K": 4, "k": 11}),
    ("8", "0^2;4^2;1^2;5^2", "partition", {"K": ["1", "3"], "alpha": "5", "e_K": 4}),
]


@pytest.mark.parametrize("spec, seq, theorem, edits", UNUSED_FIELD_EDITS)
def test_verifiers_reject_unused_fields(spec, seq, theorem, edits):
    g = parse_group(spec)
    s = parse_sequence(g, seq)
    cert = main_pipeline(g, s, s, 2) if theorem == "main" else partition_solve(s, s, 2)
    data = cert.to_dict()
    verify = ((lambda c: main_verify(c, g, s, s, 2)) if theorem == "main"
              else (lambda c: partition_verify(c, s, s, 2)))
    assert verify(Certificate.from_dict(g, data)) == (True, [])
    for name, value in edits.items():
        ok, violations = verify(Certificate.from_dict(g, {**data, name: value}))
        assert not ok and violations == [
            f"case {data['case']} certificate must leave {name} unset"], name
    ok, violations = verify(Certificate.from_dict(g, {**data, **edits}))
    assert not ok and len(violations) == len(edits)
    # bounds is solver output: no verifier reads it
    assert verify(Certificate.from_dict(g, {**data, "bounds": {"sum_size": -1}})) == (True, [])


def _refuse_dp(monkeypatch):
    """Empty nterm_subsums' memo and make every Sigma_n DP from now on raise."""
    def refuse(*args):
        raise AssertionError("Sigma_n DP run")
    monkeypatch.setattr(sequences, "_last_nterm", (None, 0))
    monkeypatch.setattr(sequences, "_subsum_rows", refuse)


def test_case1_certificates_verify_without_sigma_n(monkeypatch):
    # case I is checked by |sum of parts| alone, so with no H recorded and in
    # standard mode neither verifier runs the Sigma_n DP
    g = parse_group("7")
    s = parse_sequence(g, "0;1;2;3")
    certs = [partition_solve(s, s, 2), main_pipeline(g, s, s, 2)]
    assert [(c.case_tag, c.H) for c in certs] == [("I", None)] * 2
    _refuse_dp(monkeypatch)
    for cert in certs:
        assert partition_verify(cert, s, s, 2) == (True, [])
        assert main_verify(cert, g, s, s, 2) == (True, [])


def test_case1_bound_miss_reports_the_exact_sum_size():
    # partial sums of the parts: 2, then 4 of the bound 8 - 3 + 1 = 6; the
    # singleton part only translates
    g = parse_group("8")
    s = parse_sequence(g, "0^3;4^3;2;6;1")
    s_prime = parse_sequence(g, "0^3;4^3;2;6")
    parts = [["0", "4"], ["0", "2", "4"], ["0", "4", "6"]]
    cert = Certificate.from_dict(g, {"case": "I", "parts": parts})
    assert partition_verify(cert, s, s_prime, 3) == (False, ["case 1 bound: |sum|=4 < 6"])
    miss = "case (i): |sum|=4 < min(|G|, |S'|-n+1)=6"
    assert main_verify(cert, g, s, s_prime, 3) == (False, [miss])
    # full-group mode sums on to |G|, not to the bound; Sigma_3(S) is G here
    cert.mode = "full-group"
    assert nterm_subsums(s, 3).bits == g.full_mask
    assert main_verify(cert, g, s, s_prime, 3) == (
        False, [miss, "full-group mode: sum of parts != G"])
    # a sum of size 6, between the bound 4 and |G|, fails only in full-group mode
    parts = [["2"], ["5", "7"], ["0", "1", "4"]]
    wide = Certificate.from_dict(g, {"case": "I", "parts": parts, "mode": "full-group"})
    s = parse_sequence(g, "0;1;2;4;5;7")
    assert nterm_subsums(s, 3).bits == g.full_mask
    assert main_verify(wide, g, s, s, 3) == (False, ["full-group mode: sum of parts != G"])
    wide.mode = "standard"
    assert main_verify(wide, g, s, s, 3) == (True, [])
    assert partition_verify(wide, s, s, 3) == (True, [])


def test_case1_certificate_recording_h_is_checked_against_sigma_n(monkeypatch):
    g = parse_group("7")
    s = parse_sequence(g, "0;1;2;3")
    data = main_pipeline(g, s, s, 2).to_dict()
    assert data["case"] == "I" and stabilizer(nterm_subsums(s, 2)).is_trivial
    ok = Certificate.from_dict(g, {**data, "H": ["0"]})
    bad = Certificate.from_dict(g, {**data, "H": [str(x) for x in range(7)]})
    text = "recorded H={0,1,2,3,4,5,6} != H(Sigma_n(S))={0}"
    for verify in (lambda c: partition_verify(c, s, s, 2),
                   lambda c: main_verify(c, g, s, s, 2)):
        dp_calls = _dp_calls(monkeypatch)
        assert verify(ok) == (True, [])
        assert len(dp_calls) == 1
        assert verify(bad) == (False, [text])


# ---------------------------------------------------------------------------
# compute once, verify once


def _recording(fn, calls):
    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return wrapper


def _counting(monkeypatch, name):
    calls = []
    monkeypatch.setattr(setpartitions, name,
                        _recording(getattr(setpartitions, name), calls))
    return calls


def _dp_calls(monkeypatch):
    """Empty nterm_subsums' memo and record every Sigma_n DP run from now on."""
    calls = []
    monkeypatch.setattr(sequences, "_last_nterm", (None, 0))
    monkeypatch.setattr(sequences, "_subsum_rows",
                        _recording(sequences._subsum_rows, calls))
    return calls


def test_pipeline_verifies_case1_certificate_once(monkeypatch):
    g = parse_group("8")
    s = parse_sequence(g, "0;1;2;3")
    main_calls = _counting(monkeypatch, "main_verify")
    part_calls = _counting(monkeypatch, "partition_verify")
    # n < n_all(C8) = 3: the pipeline's hypothesis check runs the one Sigma_n DP
    assert n_all(g, "standard") == 3
    dp_calls = _dp_calls(monkeypatch)
    cert = main_pipeline(g, s, s, 2)
    assert cert.case_tag == "I" and cert.verified
    assert len(main_calls) == 1 and len(part_calls) == 0
    assert len(dp_calls) == 1

    main_calls.clear()
    dp_calls = _dp_calls(monkeypatch)
    cert = partition_solve(s, s, 2)
    assert cert.case_tag == "I" and cert.verified
    assert len(part_calls) == 1 and len(main_calls) == 0
    # the round-robin parts meet case I, and the verifier needs no Sigma_n
    assert len(dp_calls) == 0

    # case II: the pipeline reuses the solver's profile and never runs
    # partition_verify; partition_solve still verifies exactly once.  H is
    # computed once, by the solver's profile: the verifier, profiling or
    # not, reads it back from the subset nterm_subsums' memo returns again
    g = parse_group("8")
    s = parse_sequence(g, "0^3;3;4^4")
    profile_calls = _counting(monkeypatch, "subsum_profile")
    stab_runs = []

    def computing(a):
        if a._period is None:
            stab_runs.append(a)
        return stabilizer(a)
    for mod in (setpartitions, sequences):
        monkeypatch.setattr(mod, "stabilizer", computing)
    part_calls.clear()
    dp_calls = _dp_calls(monkeypatch)
    cert = main_pipeline(g, s, s, 4)
    assert cert.case_tag == "II" and cert.verified
    assert (len(part_calls), len(main_calls), len(profile_calls)) == (0, 1, 1)
    assert len(stab_runs) == 1
    assert len(dp_calls) == 1

    main_calls.clear()
    stab_runs.clear()
    dp_calls = _dp_calls(monkeypatch)
    s = parse_sequence(g, "0^2;4^2;1^2;5^2")
    cert = partition_solve(s, s, 2)
    assert cert.case_tag == "II" and cert.verified
    assert len(part_calls) == 1 and len(main_calls) == 0
    assert len(stab_runs) == 1
    assert len(dp_calls) == 1


@pytest.mark.parametrize("spec, seq, n, call, case, dps", [
    # n >= n_all(G, mode) and the round-robin parts meet case I: no Sigma_n
    # DP at all, in full-group mode too
    ("3", "0;1;2;0", 4, "standard", "I", 0),
    ("4", "0^5;1;2;3", 5, "standard", "I", 0),
    ("4", "0^5;1;2;3", 5, "full-group", "I", 0),
    # n_all(C8) = 3 <= n <= exp(C8) = 8
    ("8", "0;1;2;3", 3, "standard", "I", 0),
    # the round-robin sum is G = C2, below |S'| - n + 1 = 4: partition_solve
    # runs the DP, the pipeline's case-I bound min(|G|, 4) = 2 is met without
    ("2", "0^3;1^3", 3, "partition", "II", 1),
    ("2", "0^3;1^3", 3, "standard", "I", 0),
    # n >= n_all(G), the round-robin sum 2 misses the bound 3: the climb's DP
    ("2x2", "(1,0)^2;(0,1);(1,1)^2", 3, "partition", "I", 1),
    ("2x2", "(1,0)^2;(0,1);(1,1)^2", 3, "standard", "I", 1),
    # n >= n_all(G) in case II: the solver's profile and main_verify share one DP
    ("2x8", "(0,0)^16;(1,0);(0,1);(1,4)^22;(1,7)", 23, "standard", "II", 1),
    # n < n_all(C8) = 3: the hypothesis check's DP, shared with the solver
    ("8", "0;1;2;3", 2, "standard", "I", 1),
])
def test_solvers_run_sigma_dp_only_when_read(monkeypatch, spec, seq, n, call, case, dps):
    g = parse_group(spec)
    s = parse_sequence(g, seq)
    dp_calls = _dp_calls(monkeypatch)
    cert = (partition_solve(s, s, n) if call == "partition"
            else main_pipeline(g, s, s, n, call))
    assert cert.case_tag == case and cert.verified
    assert len(dp_calls) == dps


def test_pipeline_dump_holds_inputs_before_step_a(monkeypatch):
    # the heavy coset is 1 + H here, which the paper's Step A moves onto H;
    # the pipeline never translates, so a certificate that fails main_verify
    # dumps the caller's own group, S, S', n and mode with the violations
    g = parse_group("8")
    s = parse_sequence(g, "0;1^3;5^4")
    monkeypatch.setattr(setpartitions, "main_verify",
                        lambda *args: (False, ["rejected"]))
    with pytest.raises(InternalError, match="failed verification") as info:
        main_pipeline(g, s, s, 4)
    assert info.value.dump == {"violations": ["rejected"], "group": "8",
                               "S": "0;1^3;5^4", "S_prime": "0;1^3;5^4",
                               "n": 4, "mode": "standard"}


def test_main_verify_misses_memo_of_other_sequence(monkeypatch):
    # the pipeline leaves Sigma_5(S) in nterm_subsums' memo; verifying its
    # certificate against another S2 must run a fresh DP on S2 and reject
    g = parse_group("4")
    s = parse_sequence(g, "0^6;2^6")
    s_prime = parse_sequence(g, "0^5;2^5")
    dp_calls = _dp_calls(monkeypatch)
    cert = main_pipeline(g, s, s_prime, 5)
    assert cert.case_tag == "II" and len(dp_calls) == 1
    s2 = parse_sequence(g, "0^6;1;2^6")
    ok, violations = main_verify(cert, g, s2, s_prime, 5)
    assert not ok and len(dp_calls) == 2
    assert violations == [
        "recorded H={0,2} != H(Sigma_n(S))={0,1,2,3}",
        "(ii): H(Sigma_n(S)) must be proper",
        "(ii)(a): sum of parts != Sigma_n(S)",
        "(ii)(a): leftover terms outside alpha+K",
        "(ii)(b): recorded e_K=0 != recomputed 1",
        "(ii)(b): e_H=0 > |G/H|-2",
        "(ii)(b): e_K=1 > |G/K|-2",
        "recorded k=5 != n - e_K = 4",
        "(ii)(c): part 5 must have exactly one element outside alpha+K",
    ]


def _kept_periods(g, s, s_prime, n):
    """Run both solvers, their verifiers included, and check each subset the
    solvers, the verifiers and subsum_profile read H from: its bits are
    Sigma_n of a fresh DP on the caller's S, and the H kept on it is that of
    a fresh subset with those bits.  Returns the number of reads."""
    seen = []

    def recording(a):
        h = stabilizer(a)
        seen.append((a, h))
        return h
    with pytest.MonkeyPatch.context() as mp:
        for mod in (setpartitions, sequences):
            mp.setattr(mod, "stabilizer", recording)
        partition_solve(s, s_prime, n)
        try:
            main_pipeline(g, s, s_prime, n)
        except HypothesesUnmetError:
            pass
    sigma_bits = sequences._subsum_rows(s, n, n)[n]
    for a, h in seen:
        assert a.bits == sigma_bits and h is a._period
        assert h == stabilizer(GroupSubset(g, a.bits))
    return len(seen)


# 0 is not in supp(S) in any of them; the readers still get the caller's S
@pytest.mark.parametrize("spec, seq, reads", [
    ("7", "1;2;3;4", 0),                # n_all(C7) = 0, case I: no H read
    # n = 2 < n_all(G): the hypothesis check reads H once
    ("16", "1;2;3;4", 1),
    ("8", "2;4^2;6", 1),                # span <2> inside G
    ("2x4", "(0,1);(0,3)^2;(0,2)", 1),  # cyclic span inside G
])
def test_kept_period_matches_a_fresh_stabilizer(spec, seq, reads):
    g = parse_group(spec)
    s = parse_sequence(g, seq)
    assert _kept_periods(g, s, s, 2) == reads


@given(solver_instance())
@example((parse_group("8"), parse_sequence(parse_group("8"), "0^3;3;4^4"),
          parse_sequence(parse_group("8"), "0^3;3;4^4"), 4))   # case II
@settings(deadline=None, max_examples=60)
def test_kept_period_matches_a_fresh_stabilizer_everywhere(inst):
    _kept_periods(*inst)


# ---------------------------------------------------------------------------
# solver completeness against the setpartition oracle


def test_setpartitions_oracle_small_instance():
    g = parse_group("2")
    s = parse_sequence(g, "0^2;1")
    # S' = S: 0 in both parts, 1 in one of them
    assert list(setpartitions_oracle(s, 3, 2)) == [({0, 1}, {0}), ({0}, {0, 1})]
    # |S'| = 2: the subsequences 0;1 and 0^2, h <= 2, in two nonempty parts
    assert list(setpartitions_oracle(s, 2, 2)) == [({0}, {1}), ({1}, {0}), ({0}, {0})]
    # n = |S'|: one term a part
    assert list(setpartitions_oracle(s, 3, 3)) == [({0}, {0}, {1}), ({0}, {1}, {0}),
                                                   ({1}, {0}, {0})]


def test_case2_only_when_no_setpartition_reaches_the_case1_bound():
    # the partition solver answers case II only where no n-setpartition of S
    # (S' = S) has a sum of |S'| - n + 1 or more.  A case-II answer where one
    # does would still verify: it would be pinned here by name as a
    # solver-quality finding, not fail the test.  None is known on this slice
    instances = case2 = 0
    findings = []
    for g, s, n in exhaustive_instances(AuditConfig(exhaustive_group_cap=8,
                                                    exhaustive_len_cap=6)):
        instances += 1
        if partition_solve(s, s, n).case_tag == "I":
            continue
        case2 += 1
        for parts in setpartitions_oracle(s, s.length, n):
            total = {0}
            for part in parts:
                total = sumset_oracle(g, total, part)
            if len(total) >= s.length - n + 1:
                findings.append(f"{g.spec_string()} S={s.format()} n={n}")
                break
    assert (instances, case2) == (46_974, 674)
    assert findings == []


# ---------------------------------------------------------------------------
# certificate parsing


def _valid_record():
    g = parse_group("4")
    s = parse_sequence(g, "0^6;2^6")
    return g, main_pipeline(g, s, parse_sequence(g, "0^5;2^5"), 5).to_dict()


@pytest.mark.parametrize("mutate, message", [
    (lambda d: None, "expected an object"),
    (lambda d: {k: v for k, v in d.items() if k != "parts"}, "missing 'parts'"),
    (lambda d: {**d, "parts": "0;2"}, "parts is not a list"),
    (lambda d: {**d, "parts": [["0", "2"], "2"]}, "part 2 is not a list"),
    (lambda d: {**d, "parts": [["0", 2]]}, "is not a string"),
    (lambda d: {**d, "case": "III"}, "is not I or II"),
    (lambda d: {**d, "e_K": "0"}, "e_K is not an integer"),
    (lambda d: {**d, "k": 2.0}, "k is not an integer"),
    (lambda d: {**d, "K": ["0", "6"]}, "'6' is not a canonical element of 4"),
    (lambda d: {**d, "alpha": "-2"}, "'-2' is not a canonical element"),
    (lambda d: {**d, "alpha": "x"}, "bad element literal"),
    (lambda d: {**d, "mode": "loose"}, "unknown mode"),
    (lambda d: {**d, "bounds": [1]}, "bounds is not an object"),
    (lambda d: {**d, "parts": [["0"], []]}, "^malformed certificate: part 2 is empty$"),
])
def test_certificate_from_dict_rejects_malformed(mutate, message):
    g, data = _valid_record()
    with pytest.raises(PartitionError, match=message):
        Certificate.from_dict(g, mutate(data))


# certificate-mutation fuzz: records of both solvers, case I and II, with
# Step B with H = K = span and Step B whose S misses 0 (group, S, S', n, call)
FUZZ_RECORDS = [
    ("7", "0;1;2;3", "0;1;2;3", 2, "standard"),
    ("4", "0^6;2^6", "0^5;2^5", 5, "standard"),
    ("4", "1^2;3^2", "1^2;3^2", 2, "standard"),
    ("2x2x4", "(1,0,0);(1,0,1)^3;(0,0,3)^4", "(1,0,0);(1,0,1)^3;(0,0,3)^4", 4, "standard"),
    ("4", "0^5;1^5;2^5;3^5", "0^5;1^5;2^5;3^5", 5, "full-group"),
    ("7", "0;1;2;3", "0;1;2;3", 2, "partition"),
    ("8", "0^2;4^2;1^2;5^2", "0^2;4^2;1^2;5^2", 2, "partition"),
]
JSON_VALUES = (None, True, False, 0, -1, 3, 2.5, "", "0", "II", [], ["0"], [[]], {}, {"a": 1})


def _mutate(rng: random.Random, g, record: dict) -> dict:
    """record with one random edit: an element, part membership, a case
    field, or the JSON type of a field or a part."""
    d = copy.deepcopy(record)
    elems = [g.format_element(i) for i in range(g.order)]
    literals = elems + ["-1", str(g.order), "(0,9)", "x", ""]
    parts = d["parts"]
    kind = rng.randrange(4)
    if kind == 0:
        lists = [p for p in parts if p] + [d[name] for name in ("H", "K") if d[name]]
        target = rng.choice(lists + [None])
        if target is None:
            d["alpha"] = rng.choice(literals)
        else:
            target[rng.randrange(len(target))] = rng.choice(literals)
    elif kind == 1:
        i, j = rng.randrange(len(parts) or 1), rng.randrange(len(parts) or 1)
        op = rng.randrange(5) if parts else 3
        if op == 0 and parts[i]:
            parts[j].append(parts[i].pop(rng.randrange(len(parts[i]))))
        elif op == 1:
            parts[i].append(rng.choice(elems))
        elif op == 2:
            del parts[i]
        elif op == 3:
            parts.append([rng.choice(elems)])
        else:
            parts[i], parts[j] = parts[j], parts[i]
    elif kind == 2:
        name = rng.choice(["case", "theorem", "mode", "H", "K", "alpha", "e_H", "e_K", "k"])
        if name in ("case", "theorem", "mode"):
            d[name] = rng.choice({"case": ["I", "II"], "theorem": ["partition", "main"],
                                  "mode": ["standard", "full-group"]}[name])
        elif name in ("H", "K"):
            d[name] = rng.sample(elems, rng.randint(0, g.order)) or None
        elif name == "alpha":
            d[name] = rng.choice(elems + [None])
        else:
            d[name] = rng.randint(-1, len(parts) + 1)
    elif parts and rng.random() < 0.3:
        parts[rng.randrange(len(parts))] = rng.choice(JSON_VALUES)
    else:
        d[rng.choice(sorted(d))] = rng.choice(JSON_VALUES)
    return d


@pytest.mark.parametrize("spec, seq, seq_prime, n, call", FUZZ_RECORDS,
                         ids=[f"{call}-{spec}-n{n}" for spec, _, _, n, call in FUZZ_RECORDS])
def test_mutated_certificates_are_rejected_or_verified(spec, seq, seq_prime, n, call):
    g = parse_group(spec)
    s, s_prime = parse_sequence(g, seq), parse_sequence(g, seq_prime)
    cert = (partition_solve(s, s_prime, n) if call == "partition"
            else main_pipeline(g, s, s_prime, n, call))
    record = cert.to_dict()
    rng = random.Random(f"fuzz:{spec}:{seq}:{n}:{call}")
    outcomes = {"malformed": 0, "rejected": 0, "verified": 0}
    for _ in range(600):
        # one to three edits, stopping at the first record that fails to parse
        data = record
        for _ in range(rng.randint(1, 3)):
            data = _mutate(rng, g, data)
            try:
                back = Certificate.from_dict(g, data)
            except PartitionError:
                back = None
                break
        if back is None:
            outcomes["malformed"] += 1
            continue
        # read the theorem from the record, as subsumlab verify does
        if back.theorem == "partition":
            ok, violations = partition_verify(back, s, s_prime, n)
        else:
            ok, violations = main_verify(back, g, s, s_prime, n)
        assert type(ok) is bool and ok == (not violations), data
        assert all(isinstance(v, str) for v in violations), data
        outcomes["verified" if ok else "rejected"] += 1
    assert outcomes["malformed"] and outcomes["rejected"], outcomes


def test_certificate_from_dict_range_checks_coordinates():
    g = parse_group("2x4")
    record = {"case": "I", "parts": [["(1,3)", "(0,0)"]]}
    assert Certificate.from_dict(g, record).partition.parts[0].bit_count() == 2
    for literal in ("(2,0)", "(0,4)", "(0,-1)", "(1,3,0)", "1"):
        with pytest.raises(PartitionError):
            Certificate.from_dict(g, {"case": "I", "parts": [[literal]]})
    # input sequences keep their modular reading
    assert parse_element(parse_group("8"), "-1") == 7


def test_certificate_from_dict_tolerates_whitespace_only():
    g = parse_group("2x4")
    cert = Certificate.from_dict(g, {"case": "I", "parts": [[" ( 1 , 0 ) ", "(0,3)"]]})
    assert cert.to_dict()["parts"] == [["(1,0)", "(0,3)"]]
    with pytest.raises(PartitionError, match="bad element literal '1 0'"):
        Certificate.from_dict(parse_group("16"), {"case": "I", "parts": [["1 0"]]})
    with pytest.raises(PartitionError, match="'5' is not a canonical element of 4$"):
        Certificate.from_dict(parse_group("4"), {"case": "I", "parts": [["5"]]})
