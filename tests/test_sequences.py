"""Sequence parsing, n-term subsum DP, profile bookkeeping, Davenport."""

import copy
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from subsumlab import sequences
from subsumlab.groups import (
    DEFAULT_ORDER_CAP,
    GroupSubset,
    Subgroup,
    abelian_groups_of_order,
    iter_bits,
    parse_group,
)
from subsumlab.search import AuditConfig, exhaustive_instances, groups_up_to, random_instance
from subsumlab.sequences import (
    GSequence,
    InternalError,
    SequenceError,
    build_s_star,
    davenport_bruteforce,
    nterm_subsums,
    parse_sequence,
    push_forward,
    subsum_profile,
    subsum_table,
)
from subsumlab.groups import quotient_cached, subgroup_generated
from subsumlab.setpartitions import SetPartition, _round_robin, lemma31_complete

from _oracles import (
    davenport_oracle,
    dense_count_outside,
    dense_format,
    dense_is_subsequence,
    dense_max_multiplicity,
    dense_push_forward,
    dense_round_robin,
    from_terms,
    nterm_subsums_oracle,
    remove,
    subsum_rows_oracle,
    underlying_sequence,
)

GROUPS = [parse_group(s) for s in ["2", "5", "8", "2x2", "2x4", "3x3", "12"]]


@st.composite
def group_and_sequence(draw, min_len=1, max_len=8):
    g = draw(st.sampled_from(GROUPS))
    length = draw(st.integers(min_len, max_len))
    terms = draw(st.lists(st.integers(0, g.order - 1),
                          min_size=length, max_size=length))
    return g, from_terms(g, terms)


# ---------------------------------------------------------------------------
# parsing and multiset algebra


def test_parse_sequence_examples():
    g = parse_group("8")
    s = parse_sequence(g, "0^2;4^2;1^2;5^2")
    assert s.length == 8
    assert s.mult[0] == s.mult[4] == 2
    assert parse_sequence(g, s.format()) == s
    g2 = parse_group("2x4")
    s2 = parse_sequence(g2, "(1,0)^3;(0,1)")
    assert s2.length == 4
    assert parse_sequence(g2, s2.format()) == s2


def test_parse_sequence_whitespace_insignificant():
    g = parse_group("8")
    assert parse_sequence(g, " 0 ^ 2 ; 4^2 ") == parse_sequence(g, "0^2;4^2")


def test_parse_sequence_rejects_garbage():
    g = parse_group("8")
    with pytest.raises(SequenceError):
        parse_sequence(g, "0^-1")
    with pytest.raises(Exception):
        parse_sequence(parse_group("2x4"), "3")  # arity mismatch
    # rank-1 literals reduce modulo the order
    assert parse_sequence(g, "9") == parse_sequence(g, "1")


def test_user_input_never_reaches_the_trusted_constructor():
    # only library-derived vectors skip validation; every public way in
    # still raises with the same message
    g = parse_group("2x2")
    with pytest.raises(SequenceError, match=r"^multiplicity vector length must equal \|G\|$"):
        GSequence(g, [1, 2, 3])
    with pytest.raises(SequenceError, match="^negative multiplicity$"):
        GSequence(g, [1, -1, 0, 0])
    with pytest.raises(SequenceError, match=r"^negative multiplicity in '\(1,0\)\^-1'$"):
        parse_sequence(g, "(0,1);(1,0)^-1")


@given(group_and_sequence(), st.data())
def test_remove_undoes_adding_terms(gs, data):
    g, s = gs
    terms = data.draw(st.lists(st.integers(0, g.order - 1), max_size=5))
    t = from_terms(g, terms)
    combined = GSequence(g, [a + b for a, b in zip(s.mult, t.mult)])
    assert remove(combined, t) == s
    assert combined.length == s.length + t.length
    too_many = GSequence(g, [combined.mult[0] + 1, *combined.mult[1:]])
    with pytest.raises(SequenceError):
        remove(s, too_many)
    # the library's own check, on the same sequences, both ways round
    assert s.is_subsequence_of(combined) and t.is_subsequence_of(combined)
    assert not too_many.is_subsequence_of(s) and not too_many.is_subsequence_of(combined)
    for a, b in itertools.permutations((s, t, combined, too_many), 2):
        assert a.is_subsequence_of(b) == dense_is_subsequence(a, b), (a, b)


def test_seq_stats():
    g = parse_group("8")
    s = parse_sequence(g, "1^3;5")
    assert s.max_multiplicity() == 3
    assert set(s.support().indices()) == {1, 5}


# ---------------------------------------------------------------------------
# n-term subsums vs oracle


def test_nterm_subsums_worked_instance():
    g = parse_group("8")
    s = parse_sequence(g, "0^2;4^2;1^2;5^2")
    sig = nterm_subsums(s, 2)
    assert set(sig.indices()) == {0, 1, 2, 4, 5, 6}
    assert sig.size == 6
    from subsumlab.groups import stabilizer
    assert set(stabilizer(sig).carrier.indices()) == {0, 4}


@given(group_and_sequence(), st.data())
def test_nterm_subsums_matches_oracle(gs, data):
    g, s = gs
    n = data.draw(st.integers(0, s.length))
    assert set(nterm_subsums(s, n).indices()) == nterm_subsums_oracle(s, n)


@given(group_and_sequence())
def test_subsum_table_rows_are_each_n(gs):
    _, s = gs
    rows = subsum_table(s, s.length)
    for n in range(s.length + 1):
        assert rows[n] == nterm_subsums(s, n).bits


@pytest.mark.parametrize("spec, seq", [
    ("8", "0^6;3;4^5"),                  # multiplicities above most n
    ("2x4", "(0,0)^4;(1,1)^7;(0,2)"),
    ("12", "5^9"),                       # one element, every n below 9
    ("3x3", "(1,0)^3;(0,1)^3;(2,2)^3;(1,1)"),
])
def test_nterm_subsums_matches_table_rows_high_multiplicity(spec, seq):
    g = parse_group(spec)
    s = parse_sequence(g, seq)
    rows = subsum_table(s, s.length)
    for n in range(s.length + 1):
        sig = nterm_subsums(s, n)
        assert sig.bits == rows[n], n
        assert set(sig.indices()) == nterm_subsums_oracle(s, n), n


def test_nterm_subsums_matches_table_rows_seeded_1024():
    g = parse_group("1024")
    rng = random.Random(1024)
    support = [rng.randrange(g.order) for _ in range(9)]
    s = from_terms(g, [x for x in support for _ in range(rng.randint(1, 6))])
    rows = subsum_table(s, s.length)
    assert [nterm_subsums(s, n).bits for n in range(s.length + 1)] == rows
    # every row below the cap is exact, too
    for cap in (0, 1, s.length // 2, s.length - 1):
        assert subsum_table(s, cap) == rows[:cap + 1]


def test_bundled_dp_matches_per_copy_oracle_exhaustive():
    # every sequence with 1 <= |S| <= 8 over every group of order <= 8: all
    # rows at target 0, and row n at target n for every n
    count = 0
    for order in range(1, 9):
        for g in abelian_groups_of_order(order):
            for length in range(1, 9):
                for terms in itertools.combinations_with_replacement(range(order), length):
                    s = from_terms(g, terms)
                    count += 1
                    assert sequences._subsum_rows(s, length, 0) == \
                        subsum_rows_oracle(s, length, 0), (g, terms)
                    for n in range(length + 1):
                        assert sequences._subsum_rows(s, n, n)[n] == \
                            subsum_rows_oracle(s, n, n)[n], (g, terms, n)
    assert count == 50_533


def test_bundled_dp_matches_per_copy_oracle_seeded_large():
    # multiplicities up to 30, which split into clipped bundles, on groups up
    # to order 1024; rows target..cap must agree for any cap
    rng = random.Random(2020)
    specs = ["1024", "2x2x2x2x2x2x2x2x2x2", "4x4x4x4x4", "2x4x8x16", "32x32", "12", "3x9"]
    for _ in range(300):
        g = parse_group(rng.choice(specs))
        mult = [0] * g.order
        for _ in range(rng.randint(1, 6)):
            mult[rng.randrange(g.order)] += rng.randint(1, 30)
        s = GSequence(g, mult)
        cap = rng.randint(0, s.length)
        target = rng.choice([0, cap])
        got, want = sequences._subsum_rows(s, cap, target), subsum_rows_oracle(s, cap, target)
        assert got[target:] == want[target:], (g, s, cap, target)


@pytest.mark.parametrize("spec", ["4096", "64x64", "2x2x2x2x2x2x2x2x2x2x2x2", "2x4x8x64", "32x32"])
def test_subsum_identities_without_oracle_large(spec):
    # |G| = 1024-4096, where no oracle reaches: for every n, the complement
    # Sigma_n(S) = sigma(S) - Sigma_{|S|-n}(S), translation Sigma_n(S + x) =
    # Sigma_n(S) + n x and the quotient image phi_H(Sigma_n(S)) =
    # Sigma_n(phi_H(S)), on the full table and on the windowed DP of
    # nterm_subsums; multiplicities up to 12 split into clipped bundles
    g = parse_group(spec)
    rng = random.Random(f"subsum identities {spec}")
    for _ in range(6):
        mult = [0] * g.order
        for _ in range(rng.randint(1, 8)):
            mult[rng.randrange(g.order)] += rng.randint(1, 12)
        s = GSequence(g, mult)
        length = s.length
        sigma = 0
        for i in s.support_indices():
            sigma = g.add(sigma, g.scale(s.mult[i], i))
        x = rng.randrange(g.order)
        moved = from_terms(g, [g.add(i, x) for i in s.support_indices() for _ in range(s.mult[i])])
        # a random cyclic H, and the projection onto the last direct factor:
        # the quotient by the span of the other factors' unit vectors
        quotients = [quotient_cached(g, subgroup_generated(GroupSubset.from_indices(g, gens)))
                     for gens in ([rng.randrange(g.order)], g.strides[:-1])]
        rows, moved_rows = subsum_table(s, length), subsum_table(moved, length)
        phi_rows = [subsum_table(push_forward(s, q), length) for q in quotients]
        windowed = rng.sample(range(length + 1), min(4, length + 1))
        for n in range(length + 1):
            assert rows[n] == sum(1 << g.add(sigma, g.neg(y)) for y in iter_bits(rows[length - n])), (s, n)
            assert moved_rows[n] == g.translate_mask(rows[n], g.scale(n, x)), (s, x, n)
            for q, phi in zip(quotients, phi_rows):
                assert phi[n] == q.image_mask(rows[n]), (s, q.subgroup, n)
            if n in windowed:
                assert nterm_subsums(s, n).bits == rows[n]
                assert nterm_subsums(moved, n).bits == moved_rows[n]
                for q, phi in zip(quotients, phi_rows):
                    assert nterm_subsums(push_forward(s, q), n).bits == phi[n]


def test_nterm_subsums_memo_keys_on_group():
    # one multiplicity tuple over C4 and over C2 x C2, whose Sigma_2 and
    # Sigma_3 differ: alternating calls must never return the other group's
    # Sigma_n from the one-entry memo
    mult = (1, 0, 0, 3)
    seqs = [GSequence(parse_group(spec), mult) for spec in ("4", "2x2")]
    for n in (2, 2, 3, 3):
        for s in seqs + seqs:
            sig = nterm_subsums(s, n)
            assert sig.group == s.group
            assert set(sig.indices()) == nterm_subsums_oracle(s, n), (s, n)


def test_nterm_subsums_memo_keys_on_n():
    s = parse_sequence(parse_group("8"), "0^2;1;3^2;6")
    for n in (2, 4, 2, 2, 5, 4, 1, 5):
        assert set(nterm_subsums(s, n).indices()) == nterm_subsums_oracle(s, n), n


def test_nterm_subsums_range_errors():
    g = parse_group("8")
    s = parse_sequence(g, "1^3")
    with pytest.raises(SequenceError):
        nterm_subsums(s, 4)
    with pytest.raises(SequenceError):
        nterm_subsums(s, -1)


# ---------------------------------------------------------------------------
# push-forward and profile


def test_push_forward_coset_merge():
    g = parse_group("8")
    h = Subgroup(GroupSubset.from_indices(g, [0, 4]))
    q = quotient_cached(g, h)
    s = parse_sequence(g, "0^2;4^2")
    phi = push_forward(s, q)
    assert phi.length == 4
    assert phi.mult[q.images[0]] == 4


SUPPORT_GROUPS = [parse_group(s) for s in
                  ["1", "2", "6", "2x2", "3x9", "64", "2x4x8", "1024", "2x4x8x16", "32x32",
                   "4x4x4x4x4", "2x2x2x2x2x2x2x2x2x2", "4096", "64x64", "2x4x8x64"]]


@st.composite
def sparse_sequence(draw):
    """S over a group of order up to 1024, on a support of 1-6 elements."""
    g = draw(st.sampled_from(SUPPORT_GROUPS))
    supp = draw(st.lists(st.integers(0, g.order - 1), min_size=1, max_size=6, unique=True))
    return from_terms(g, [i for i in supp for _ in range(draw(st.integers(1, 5)))])


def assert_support_matches_dense(s: GSequence, *others: GSequence) -> None:
    """supp(S), format, max_multiplicity and is_subsequence_of against each
    of others, both ways round, as a walk over all |G| multiplicities gives
    them; the support is built once and kept."""
    supp = s.support_indices()
    assert list(supp) == [i for i, m in enumerate(s.mult) if m]
    assert s.support_indices() is supp
    assert s.format() == dense_format(s)
    assert s.max_multiplicity() == dense_max_multiplicity(s)
    for t in others:
        assert s.is_subsequence_of(t) == dense_is_subsequence(s, t), (s, t)
        assert t.is_subsequence_of(s) == dense_is_subsequence(t, s), (t, s)


@given(sparse_sequence(), st.data())
def test_support_loops_match_dense_references(s, data):
    """The loops over supp(S) give what a walk over all |G| multiplicities
    gives: format, count_outside, max_multiplicity, is_subsequence_of,
    _round_robin (and the underlying sequence of its partition) and
    push_forward; on sequences from __init__ and from _derived (push_forward,
    build_s_star, lemma31_complete), up to |G| = 4096."""
    g = s.group
    # a second sequence over g: S with one multiplicity moved up or down
    j = data.draw(st.one_of(st.sampled_from(list(s.support_indices())),
                            st.integers(0, g.order - 1)))
    mult = list(s.mult)
    mult[j] = max(0, mult[j] + data.draw(st.sampled_from([-1, 1])))
    t = GSequence(g, mult)
    assert_support_matches_dense(s, t, GSequence(g, [0] * g.order))
    assert_support_matches_dense(t, s)
    assert parse_sequence(g, s.format()) == s
    for mask in (0, g.full_mask, data.draw(st.integers(0, g.full_mask))):
        assert s.count_outside(mask) == dense_count_outside(s, mask)
    n = data.draw(st.integers(s.max_multiplicity(), s.length))
    parts = _round_robin(s, n)
    assert parts == dense_round_robin(s, n)
    under = underlying_sequence(SetPartition(g, parts))
    assert under == s and under.length == s.length
    h = subgroup_generated(GroupSubset.from_indices(g, [data.draw(st.integers(0, g.order - 1))]))
    q = quotient_cached(g, h)
    phi = push_forward(s, q)
    assert list(phi.mult) == dense_push_forward(s, q.images, q.quotient_spec.order)
    assert phi.length == s.length
    assert_support_matches_dense(phi, push_forward(t, q))
    # the other _derived sequences: S* and the two halves of Lemma 3.1's split
    star = build_s_star(s, subsum_profile(s, n, s.length), n)
    assert_support_matches_dense(star, s, t)
    for part in lemma31_complete(s, s, n, data.draw(st.integers(1, n))):
        assert_support_matches_dense(part, s, t, star)


def test_support_array_holds_every_index_below_the_order_cap():
    g = parse_group(str(DEFAULT_ORDER_CAP))
    s = from_terms(g, [0, g.order - 1, g.order - 1])
    supp = s.support_indices()
    assert list(supp) == [0, g.order - 1]
    assert DEFAULT_ORDER_CAP <= 1 << 8 * supp.itemsize


def test_support_loops_on_one_element_supports():
    for g in SUPPORT_GROUPS:
        q = quotient_cached(g, subgroup_generated(GroupSubset.from_indices(g, [g.order // 2])))
        for idx in {0, g.order // 3, g.order - 1}:
            for m in (1, 4):
                s = from_terms(g, [idx] * m)
                assert s.format() == dense_format(s)
                assert s.count_outside(1 << idx) == 0
                assert s.count_outside(g.full_mask & ~(1 << idx)) == m
                assert _round_robin(s, m) == [1 << idx] * m
                assert list(push_forward(s, q).mult) == dense_push_forward(
                    s, q.images, q.quotient_spec.order)


def test_profile_worked_instance():
    g = parse_group("8")
    s = parse_sequence(g, "0^2;4^2;1^2;5^2")
    p = subsum_profile(s, 2, s.length)
    assert p.H.order == 2 and set(p.H.carrier.indices()) == {0, 4}
    assert p.N == 2 and p.e == 0 and p.rho == 0
    assert p.bound_primary == 6
    assert p.sigma_n.size == 6


@given(group_and_sequence(), st.data())
def test_profile_bound_forms_agree_and_z(gs, data):
    g, s = gs
    n = data.draw(st.integers(1, s.length))
    p = subsum_profile(s, n, s.length)
    oh = p.H.order
    # N, e and the capped form read off phi_H(S); every form is bound_primary
    assert p.N == sum(v >= n for v in p.phi.mult)
    assert p.e == sum(v for v in p.phi.mult if v < n)
    capped = sum(min(n, v) for v in p.phi.mult)
    assert (capped - n + 1) * oh == p.bound_primary
    assert p.rho == p.N * oh * n + p.e - s.length
    assert (s.length - n + 1) - (n - p.e - 1) * (oh - 1) + p.rho == p.bound_primary
    assert s.length - (n - 1) * oh + p.e * (oh - 1) + p.rho == p.bound_primary
    if n >= s.max_multiplicity():
        assert p.rho >= 0
    # e counts exactly the terms outside phi^-1(X)
    assert s.count_outside(p.Z_mask) == p.e


@given(group_and_sequence(), st.data())
def test_s_star_identities(gs, data):
    # identities require h(S) <= n <= |S|
    g, s = gs
    n = data.draw(st.integers(s.max_multiplicity(), s.length))
    p = subsum_profile(s, n, s.length)
    star = build_s_star(s, p, n)
    assert s.is_subsequence_of(star)
    assert star.length == s.length + p.rho
    assert nterm_subsums(star, n) == p.sigma_n


def test_s_star_derived_push_forward_exhaustive(monkeypatch):
    # build_s_star derives phi(S*) from the profile's phi(S) for its quotient
    # DP; on every instance that DP must get push_forward(S*), and nothing
    # when S* = S
    real = sequences.nterm_subsums
    dp_inputs = []

    def spy(seq, n):
        dp_inputs.append(seq)
        return real(seq, n)

    monkeypatch.setattr(sequences, "nterm_subsums", spy)
    instances = grown = 0
    for g, s, n in exhaustive_instances(AuditConfig(exhaustive_group_cap=8,
                                                    exhaustive_len_cap=6)):
        p = subsum_profile(s, n, s.length)
        assert p.phi == push_forward(s, p.quotient) and p.phi.length == s.length
        # the case-II bound |S'| - (n-1)|H| + e(|H|-1) + rho is bound_primary
        # for every |S'|, rho taken at ref_len = |S'|
        for s_prime_len in range(n, s.length + 1):
            q = subsum_profile(s, n, s_prime_len, sigma=p.sigma_n, h=p.H)
            oh = q.H.order
            assert s_prime_len - (n - 1) * oh + q.e * (oh - 1) + q.rho \
                == q.bound_primary == p.bound_primary
        dp_inputs.clear()
        star = build_s_star(s, p, n)
        instances += 1
        if star == s:
            assert dp_inputs == []
            continue
        grown += 1
        (phi_star,) = dp_inputs
        expect = push_forward(star, p.quotient)
        assert phi_star.group is p.quotient.quotient_spec
        assert (phi_star.mult, phi_star.length) == (expect.mult, expect.length), \
            (g.spec_string(), s.format(), n)
    assert (instances, grown) == (46_974, 11_920)


TRIVIAL_QUOTIENT_GROUPS = groups_up_to(64) + [
    parse_group(s) for s in ["4096", "64x64", "2x2x2x2x2x2x2x2x2x2x2x2"]]


def test_trivial_quotient_is_the_identity():
    # subsum_profile reads phi_{0}(S) as S and phi^-1(X) as X's own bits
    for g in TRIVIAL_QUOTIENT_GROUPS:
        q = quotient_cached(g, Subgroup(GroupSubset(g, 1)))
        assert q.quotient_spec is g and q.images == list(range(g.order)), g.spec_string()
    assert len(TRIVIAL_QUOTIENT_GROUPS) == 120


def test_trivial_h_profile_matches_general_path():
    # every field against push_forward, a pass over all of G/H and
    # preimage_mask, which the profile skips when H is trivial; S* = S then
    cfg = AuditConfig(max_group_order=16, random_len_cap=12, seed=25)
    groups = [g for g in groups_up_to(16) if g.order >= 2]
    trivial = 0
    for i in range(3000):
        g, s, n = random_instance(cfg, i, groups)
        p = subsum_profile(s, n, s.length)
        q = quotient_cached(g, p.H)
        phi = push_forward(s, q)
        x_bits = sum(1 << x for x, v in enumerate(phi.mult) if v >= n)
        e = sum(v for v in phi.mult if v < n)
        big_n, oh = x_bits.bit_count(), p.H.order
        assert p.quotient is q and p.phi == phi and p.phi.length == phi.length
        assert (p.X.group, p.X.bits, p.N, p.e) == (q.quotient_spec, x_bits, big_n, e)
        assert p.rho == big_n * oh * n + e - s.length
        assert p.bound_primary == ((big_n - 1) * n + e + 1) * oh
        assert p.Z_mask == q.preimage_mask(x_bits)
        if p.H.is_trivial:
            assert build_s_star(s, p, n) is s
            trivial += 1
    assert trivial == 2_022


def test_s_star_internal_errors_carry_the_instance():
    # h(S) = 3 > n = 2: raising 0 to multiplicity n would drop a term
    g = parse_group("4")
    s = parse_sequence(g, "0^3;1")
    with pytest.raises(InternalError, match="^S\\* construction lost terms of S$") as err:
        build_s_star(s, subsum_profile(s, 2, s.length), 2)
    assert err.value.dump == {"group": "4", "S": "0^3;1", "n": 2}
    # S* = 0^2;4^2;1 grows by rho = 1; a tampered Sigma_n is caught
    g = parse_group("8")
    s = parse_sequence(g, "0^2;4;1")
    p = subsum_profile(s, 2, s.length)
    assert build_s_star(s, p, 2).length == s.length + p.rho == 5
    wider = GroupSubset(g, p.sigma_n.bits | 0b100)
    tampered = copy.copy(p)
    tampered.sigma_n = wider
    with pytest.raises(InternalError, match=r"^Sigma_n\(S\*\) != Sigma_n\(S\)$") as err:
        build_s_star(s, tampered, 2)
    assert err.value.dump == {"group": "8", "S": "0^2;1;4", "n": 2}


# ---------------------------------------------------------------------------
# Davenport constant


@settings(deadline=None)
@given(st.sampled_from([parse_group(s) for s in ["2", "3", "4", "2x2", "5", "6", "2x4"]]))
def test_davenport_matches_oracle(g):
    assert davenport_bruteforce(g) == davenport_oracle(g)


def test_davenport_known_values():
    for m in range(1, 9):
        assert davenport_bruteforce(parse_group(str(m))) == m
    assert davenport_bruteforce(parse_group("2x2")) == 3
    assert davenport_bruteforce(parse_group("3x3")) == 5
