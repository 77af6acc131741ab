"""Group arithmetic, subsets, subgroups, quotients -- checked against the
brute-force oracles in _oracles.py and by algebraic property tests."""

import copy
import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from subsumlab import groups
from subsumlab.groups import (
    GroupError,
    GroupSpec,
    GroupSubset,
    Subgroup,
    abelian_groups_of_order,
    affine_span,
    enumerate_subgroups,
    iterated_sumset,
    iter_bits,
    make_group,
    parse_element,
    parse_group,
    quotient_cached,
    quotient_decompose,
    representation_min,
    stabilizer,
    subgroup_generated,
    sum_masks,
    sum_of_masks,
    sumset,
    verify_subgroup,
)

from _oracles import (
    abelian_groups_oracle,
    affine_span_oracle,
    iterated_sumset_oracle,
    normalize_factors_oracle,
    representation_count_oracle,
    stabilizer_oracle,
    stabilizer_scan,
    subset,
    sumset_oracle,
    verify_subgroup_scan,
)

GROUPS = [parse_group(s) for s in
          ["1", "2", "5", "8", "12", "2x2", "2x4", "3x3", "2x2x2", "2x6", "3x9"]]


def groups_strategy():
    return st.sampled_from(GROUPS)


@st.composite
def group_and_elements(draw, count=2):
    g = draw(groups_strategy())
    idx = st.integers(0, g.order - 1)
    return (g, *[draw(idx) for _ in range(count)])


@st.composite
def group_and_subset(draw, min_size=1):
    g = draw(groups_strategy())
    size = draw(st.integers(min_size, g.order))
    elems = draw(st.sets(st.integers(0, g.order - 1),
                         min_size=size, max_size=size))
    return g, elems


# ---------------------------------------------------------------------------
# spec strings, normalization, element literals


def test_parse_group_normalizes_factors():
    assert parse_group("4x2").invariant_factors == (2, 4)
    assert make_group([2, 3, 3]).spec_string() == "3x6"
    assert parse_group("2x4x8").invariant_factors == (2, 4, 8)
    assert parse_group("6").invariant_factors == (6,)


def test_parse_group_rejects_garbage():
    with pytest.raises(GroupError):
        parse_group("abc")
    with pytest.raises(GroupError):
        make_group([])
    with pytest.raises(GroupError):
        make_group([0, 4])


def test_element_literal_roundtrip():
    g = parse_group("2x4")
    for i in range(g.order):
        assert parse_element(g, g.format_element(i)) == i
    c8 = parse_group("8")
    assert parse_element(c8, "5") == 5
    assert parse_element(c8, "-1") == 7


def test_group_invariants():
    g = parse_group("2x4x8")
    assert g.order == 64 and g.exponent == 8 and g.rank == 3
    assert all(g.invariant_factors[i] % g.invariant_factors[i - 1] == 0
               for i in range(1, g.rank))


@given(group_and_elements(count=3))
def test_add_is_abelian_group_law(ge):
    g, a, b, c = ge
    assert g.add(a, b) == g.add(b, a)
    assert g.add(g.add(a, b), c) == g.add(a, g.add(b, c))
    assert g.add(a, 0) == a
    assert g.add(a, g.neg(a)) == 0


@given(group_and_elements(count=1))
def test_element_order_divides_exponent(ge):
    g, a = ge
    o = g.element_order(a)
    assert g.scale(o, a) == 0
    assert g.exponent % o == 0
    assert all(g.scale(t, a) != 0 for t in range(1, o))


@given(group_and_subset(), st.data())
def test_translate_mask_matches_elementwise(gs, data):
    g, elems = gs
    b = data.draw(st.integers(0, g.order - 1))
    mask = subset(g, elems).bits
    translated = g.translate_mask(mask, b)
    assert set(iter_bits(translated)) == {g.add(x, b) for x in elems}


# ---------------------------------------------------------------------------
# sumsets and stabilizers against oracles


@given(group_and_subset(), group_and_subset())
def test_sumset_matches_oracle(gs1, gs2):
    g, a = gs1
    _, b = gs2
    b = {x % g.order for x in b}
    out = sumset(subset(g, a), subset(g, b))
    assert set(out.indices()) == sumset_oracle(g, a, b)
    assert sum_masks(g, subset(g, a).bits, subset(g, b).bits) == out.bits


def _fold_sum_masks(g, masks):
    acc = 1
    for b in masks:
        acc = sum_masks(g, acc, b)
    return acc


def test_sum_of_masks_matches_plain_fold():
    # singleton parts are folded into one translation; empty, repeated and
    # mixed parts must still give the plain left fold of sum_masks
    rng = random.Random(430)
    for g in GROUPS + [parse_group(s) for s in ("1024", "2x2x2x2x2x2x2x2x2x2", "4x4x4x4x4")]:
        assert sum_of_masks(g, []) == 1
        for _ in range(40):
            masks = []
            for _ in range(rng.randint(1, 6)):
                kind = rng.random()
                if kind < 0.4:
                    masks.append(1 << rng.randrange(g.order))
                elif kind < 0.5:
                    masks.append(0)
                elif kind < 0.6 and masks:
                    masks.append(rng.choice(masks))
                else:
                    masks.append(subset(g, rng.sample(range(g.order), min(g.order, 3))).bits)
            assert sum_of_masks(g, masks) == _fold_sum_masks(g, masks), (g, masks)
            assert sum_of_masks(g, iter(masks)) == _fold_sum_masks(g, masks)


@given(group_and_subset(), st.integers(0, 5))
def test_iterated_sumset_matches_oracle(gs, n):
    g, a = gs
    out = iterated_sumset(subset(g, a), n)
    assert set(out.indices()) == iterated_sumset_oracle(g, a, n)


@given(group_and_subset())
def test_stabilizer_matches_oracle(gs):
    g, a = gs
    h = stabilizer(subset(g, a))
    assert set(h.carrier.indices()) == stabilizer_oracle(g, a)
    verify_subgroup(g, h.carrier)


def _coset_union(g, rng, h_bits, cosets):
    """Union of `cosets` random cosets of the subgroup with carrier h_bits."""
    bits = 0
    for _ in range(cosets):
        bits |= g.translate_mask(h_bits, rng.randrange(g.order))
    return bits


@pytest.mark.parametrize("g", GROUPS, ids=lambda g: g.spec_string())
def test_stabilizer_of_periodic_sets(g):
    """Unions of H-cosets for every subgroup H, their complements and G:
    the shapes where the scan stops early on a nontrivial stabilizer."""
    rng = random.Random(g.order)
    cases = [g.full_mask]
    for h in enumerate_subgroups(g):
        for cosets in (1, 2, 3):
            bits = _coset_union(g, rng, h.carrier.bits, cosets)
            cases += [bits, g.full_mask & ~bits]
    for bits in cases:
        if bits:
            elems = set(iter_bits(bits))
            assert set(stabilizer(subset(g, elems)).carrier.indices()) == \
                stabilizer_oracle(g, elems), (g, bits)


LARGE = [parse_group(s) for s in ["1024", "32x32", "2x2x2x2x2x2x2x2x2x2", "4x4x4x4x4"]]


@pytest.mark.parametrize("g", LARGE, ids=lambda g: g.spec_string())
def test_stabilizer_of_seeded_periodic_sets_large(g):
    """12 subgroups H generated by two random elements (order <= 64 kept),
    a union of 1-4 H-cosets with one element toggled 3 times in 10, and
    its complement."""
    rng = random.Random(1024 + g.rank)
    kept = 0
    while kept < 12:
        gens = [rng.randrange(g.order) for _ in range(2)]
        h_bits = subgroup_generated(subset(g, gens)).carrier.bits
        if h_bits.bit_count() > 64:
            continue
        kept += 1
        bits = _coset_union(g, rng, h_bits, rng.randint(1, 4))
        if rng.random() < 0.3:
            bits ^= 1 << rng.randrange(g.order)
        for case in (bits, g.full_mask & ~bits):
            elems = set(iter_bits(case))
            assert set(stabilizer(subset(g, elems)).carrier.indices()) == \
                stabilizer_scan(g, elems), (g, case)


@pytest.mark.parametrize("g", LARGE, ids=lambda g: g.spec_string())
def test_translate_mask_matches_elementwise_large(g):
    rng = random.Random(g.order + g.rank)
    for b in [0, 1, g.order - 1] + [rng.randrange(g.order) for _ in range(20)]:
        elems = {rng.randrange(g.order) for _ in range(rng.randint(1, 200))}
        translated = g.translate_mask(subset(g, elems).bits, b)
        assert set(iter_bits(translated)) == {g.add(x, b) for x in elems}


@given(group_and_subset())
def test_affine_span_matches_oracle(gs):
    g, a = gs
    span = affine_span(subset(g, a))
    assert set(span.carrier.indices()) == affine_span_oracle(g, a)


@given(group_and_subset())
def test_subgroup_generated_is_closure(gs):
    g, a = gs
    h = subgroup_generated(subset(g, a))
    verify_subgroup(g, h.carrier)
    assert all(x in h.carrier for x in a)
    # minimality: no proper subgroup of h contains all generators
    for sub in enumerate_subgroups(g):
        if all(x in sub.carrier for x in a):
            assert sub.carrier.bits & h.carrier.bits == h.carrier.bits or \
                sub.order >= h.order


@settings(max_examples=30)
@given(group_and_subset(), st.data())
def test_representation_count_matches_oracle(gs, data):
    g, a = gs
    b = data.draw(st.sets(st.integers(0, g.order - 1), min_size=1, max_size=4))
    counts = [representation_count_oracle(g, [set(a), set(b)], x) for x in range(g.order)]
    rmin = min(c for c in counts if c)
    assert representation_min([subset(g, a), subset(g, b)]) == (rmin, counts.index(rmin))


@given(group_and_subset())
def test_representation_min_is_minimum(gs):
    g, a = gs
    sets = [subset(g, a), subset(g, a)]
    rmin, argmin = representation_min(sets)
    total = sumset(sets[0], sets[1])
    counts = {x: representation_count_oracle(g, [set(a), set(a)], x)
              for x in total.indices()}
    assert rmin == min(counts.values())
    assert counts[argmin] == rmin


# ---------------------------------------------------------------------------
# subgroup lattice / quotients


def test_enumerate_subgroups_known_counts():
    # number of subgroups: C8 -> 4, C12 -> 6, C2xC2 -> 5, C2xC4 -> 8
    assert len(enumerate_subgroups(parse_group("8"))) == 4
    assert len(enumerate_subgroups(parse_group("12"))) == 6
    assert len(enumerate_subgroups(parse_group("2x2"))) == 5
    assert len(enumerate_subgroups(parse_group("2x4"))) == 8


def test_one_groupspec_per_chain():
    g = make_group([4, 2])
    c2x8 = parse_group("2x8")
    order_2 = subgroup_generated(GroupSubset.from_indices(c2x8, [c2x8.index((0, 4))]))
    q = quotient_decompose(c2x8, order_2)  # 2x8 / <(0,4)> = 2x4
    h = Subgroup(GroupSubset(g, 0b11))
    same = [parse_group("2x4"), GroupSpec((2, 4)), GroupSpec([2, 4]), q.quotient_spec,
            copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g)),
            copy.deepcopy(h).group, pickle.loads(pickle.dumps(h)).group]
    assert all(other is g for other in same)
    with pytest.raises(GroupError):
        GroupSpec((4, 2))


def test_make_group_matches_elementary_divisors():
    lists = [f for k in (1, 2, 3) for f in itertools.product(range(1, 25), repeat=k)
             if math.prod(f) <= 4096]
    assert len(lists) == 12400
    for factors in lists:
        assert make_group(factors).invariant_factors == normalize_factors_oracle(factors), factors


def test_abelian_groups_of_order_matches_prime_by_prime_merge():
    total = 0
    for m in range(1, 4097):
        chains = [g.invariant_factors for g in abelian_groups_of_order(m)]
        assert chains == abelian_groups_oracle(m), m
        total += len(chains)
    assert total == 8983


def test_abelian_groups_of_order_counts():
    # partition-counting: order 16 -> 5 groups, order 8 -> 3, prime -> 1
    assert len(abelian_groups_of_order(16)) == 5
    assert len(abelian_groups_of_order(8)) == 3
    assert len(abelian_groups_of_order(7)) == 1
    assert {g.spec_string() for g in abelian_groups_of_order(12)} == {"12", "2x6"}


@pytest.mark.parametrize("spec", [g.spec_string() for m in range(1, 17)
                                  for g in abelian_groups_of_order(m)])
def test_quotient_structure_is_homomorphism(spec):
    g = parse_group(spec)
    for h in enumerate_subgroups(g):
        q = quotient_cached(g, h)
        spec_q = q.quotient_spec
        assert spec_q.order * h.order == g.order
        for a in range(g.order):
            for b in range(g.order):
                assert q.images[g.add(a, b)] == spec_q.add(q.images[a], q.images[b])
        # kernel is exactly H
        assert {a for a in range(g.order) if q.images[a] == 0} == \
            set(h.carrier.indices())


def test_quotients_of_trivial_group():
    g = parse_group("1")
    for h in enumerate_subgroups(g):  # 1 = G, so G/1 and G/G coincide
        q = quotient_decompose(g, h)
        assert q.quotient_spec.order == 1
        assert q.images == [0] and q.representatives == [0]


@pytest.mark.parametrize("spec", ["4x4x4x4x4x4", "64x64"])
def test_cold_quotient_of_large_group(spec):
    g = parse_group(spec)
    q = quotient_decompose(g, Subgroup(GroupSubset(g, 1)))
    assert q.quotient_spec == g
    rng = random.Random(spec)
    for _ in range(2000):
        a, b = rng.randrange(g.order), rng.randrange(g.order)
        assert q.images[g.add(a, b)] == g.add(q.images[a], q.images[b])


def _is_homomorphism(n, f, add_src, add_dst):
    """All-pairs reference for the quotient map checks."""
    return all(add_dst(f[a], f[b]) == f[add_src(a, b)]
               for a in range(n) for b in range(n))


def _tabulate(g, spec, gens):
    """c -> sum c_i f(e_i) over spec, one element at a time."""
    table = []
    for x in range(g.order):
        y = 0
        for c, f in zip(g.coords(x), gens):
            y = spec.add(y, spec.scale(c, f))
        table.append(y)
    return table


@pytest.mark.parametrize("spec", ["6", "8", "2x4", "2x2x2", "3x3", "2x6"])
def test_tampered_decomposition_rejected_iff_not_homomorphism(spec, monkeypatch):
    """Replace one generator image f(e_i) by every quotient element in turn:
    quotient_decompose must raise exactly when the tabulated map is not a
    homomorphism with kernel H, and otherwise return that map."""
    g = parse_group(spec)
    honest = groups._quotient_generators
    rejected = 0
    for h in enumerate_subgroups(g):
        spec_q, gens = honest(g, h.carrier.bits)
        for i, y in itertools.product(range(g.rank), range(spec_q.order)):
            tampered = gens[:i] + [y] + gens[i + 1:]
            table = _tabulate(g, spec_q, tampered)
            valid = (_is_homomorphism(g.order, table, g.add, spec_q.add)
                     and {x for x, t in enumerate(table) if t == 0} == set(h.carrier.indices()))
            monkeypatch.setattr(groups, "_quotient_generators",
                                lambda *_, out=(spec_q, tampered): out)
            if valid:
                assert quotient_decompose(g, h).images == table
            else:
                rejected += 1
                with pytest.raises(GroupError):
                    quotient_decompose(g, h)
    assert rejected


def test_quotient_c8_mod_04():
    g = parse_group("8")
    h = Subgroup(GroupSubset.from_indices(g, [0, 4]))
    q = quotient_cached(g, h)
    assert q.quotient_spec.spec_string() == "4"
    assert q.images[0] == q.images[4]
    assert q.preimage_mask(1 << q.images[1]) == (1 << 1) | (1 << 5)


def test_quotient_cache_is_bounded():
    # 2^6 has 2,825 subgroups; one more than the bound fills the cache
    g = parse_group("2x2x2x2x2x2")
    size = groups.QUOTIENT_CACHE_SIZE
    for h in enumerate_subgroups(g)[:size + 1]:
        quotient_cached(g, h)
    assert quotient_cached.cache_info().maxsize == size
    assert quotient_cached.cache_info().currsize == size


def test_subgroup_equality_is_group_and_carrier_bits():
    # equal and hashed alike exactly when group and carrier bits match, as
    # the dataclass equality on the carrier was
    subs = [h for spec in ("8", "2x4", "2x2x2") for h in enumerate_subgroups(parse_group(spec))]
    for a, b in itertools.product(subs, repeat=2):
        same = a.group == b.group and a.carrier.bits == b.carrier.bits
        assert (a == b) is same and (a != b) is not same
        assert same == (a.carrier == b.carrier)
        if same:
            assert hash(a) == hash(b)
    # GroupSpec built directly gives back the spec parse_group returns
    h = Subgroup(GroupSubset(parse_group("8"), 0b10001))
    twin = Subgroup(GroupSubset(GroupSpec((8,)), 0b10001))
    assert twin.group is h.group and twin == h and hash(twin) == hash(h)
    assert h != h.carrier

    # {0} in C4 and in C2xC2: one bitmask, two groups, two cache entries
    c4, c22 = parse_group("4"), parse_group("2x2")
    quotient_cached.cache_clear()
    q4 = quotient_cached(c4, Subgroup(GroupSubset(c4, 1)))
    q22 = quotient_cached(c22, Subgroup(GroupSubset(c22, 1)))
    assert q4.quotient_spec == c4 and q22.quotient_spec == c22
    assert quotient_cached.cache_info().currsize == 2
    # a fresh, equal Subgroup is a hit on the same entry
    assert quotient_cached(c4, Subgroup(GroupSubset(c4, 1))) is q4
    assert quotient_cached.cache_info().hits == 1


def test_verify_subgroup_rejects_nonsubgroup():
    g = parse_group("8")
    with pytest.raises(GroupError):
        verify_subgroup(g, GroupSubset.from_indices(g, [0, 1, 2]))
    with pytest.raises(GroupError):
        verify_subgroup(g, GroupSubset.from_indices(g, [1, 2]))


def test_verify_subgroup_matches_full_scan_small():
    # every nonempty subset of every group of order <= 12, all 2^(|G|-1)
    # subsets holding 0 among them: same verdict and same message as a scan
    # over all of K, and exactly the subgroups are accepted
    for order in range(1, 13):
        for g in abelian_groups_of_order(order):
            accepted = 0
            for bits in range(1, 1 << order):
                want = verify_subgroup_scan(g, set(iter_bits(bits)))
                try:
                    got = verify_subgroup(g, GroupSubset(g, bits))
                except GroupError as err:
                    assert str(err) == want, (g, bits)
                else:
                    assert want is None and got.carrier.bits == bits, (g, bits)
                    accepted += 1
            assert accepted == len(enumerate_subgroups(g)), g


@pytest.mark.parametrize("spec", ["32x32", "2x2048"])
def test_verify_subgroup_on_every_subgroup_large(spec):
    # orders 1024 and 4096: every subgroup is accepted; each small one with
    # one more element is rejected with the full scan's message
    g = parse_group(spec)
    rng = random.Random(spec)
    for h in enumerate_subgroups(g):
        assert verify_subgroup(g, h.carrier) == h
        if h.order <= 64:
            bits = h.carrier.bits | 1 << rng.choice(
                [x for x in range(g.order) if not (h.carrier.bits >> x) & 1])
            with pytest.raises(GroupError) as err:
                verify_subgroup(g, GroupSubset(g, bits))
            assert str(err.value) == verify_subgroup_scan(g, set(iter_bits(bits)))


def test_literal_tables_match_coordinates():
    groups = [g for m in range(1, 65) for g in abelian_groups_of_order(m)]
    for g in groups + [parse_group("2x4x8x16"), parse_group("32x32")]:
        literals, index = g.literals(), g.literal_index()
        assert len(literals) == len(index) == g.order
        for i in range(g.order):
            expect = (str(i) if g.rank == 1
                      else "(" + ",".join(str(c) for c in g.coords(i)) + ")")
            assert literals[i] == expect and index[expect] == i
            assert parse_element(g, expect) == i
