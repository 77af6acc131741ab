"""Instance-level bound checkers and the structural sumset classifier."""

import dataclasses
import hashlib
import itertools
import json
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from subsumlab import verifiers
from subsumlab.groups import (
    GroupSubset,
    abelian_groups_of_order,
    affine_span,
    enumerate_subgroups,
    iterated_sumset,
    parse_group,
    subgroup_generated,
)
from subsumlab.sequences import parse_sequence, subsum_profile
from subsumlab.verifiers import (
    CheckError,
    check_cor1,
    check_cor2,
    check_lemma_extra,
    check_subsum_kneser,
)

from _oracles import from_terms, subset

GROUPS = [parse_group(s) for s in ["2", "5", "6", "8", "2x2", "2x4", "3x3"]]


@st.composite
def sequence_instance(draw, max_len=8):
    g = draw(st.sampled_from(GROUPS))
    length = draw(st.integers(1, max_len))
    terms = draw(st.lists(st.integers(0, g.order - 1),
                          min_size=length, max_size=length))
    s = from_terms(g, terms)
    n = draw(st.integers(s.max_multiplicity(), s.length))
    return g, s, n


# ---------------------------------------------------------------------------
# the subsum Kneser bound


def test_subsum_kneser_worked_instances():
    g = parse_group("8")
    s = parse_sequence(g, "0^2;4^2;1^2;5^2")
    rep = check_subsum_kneser(s, 2, subsum_profile(s, 2, s.length))
    assert rep.holds and rep.lhs == 6 and rep.rhs == 6

    s = parse_sequence(g, "0^3")
    trivial = check_subsum_kneser(s, 3, subsum_profile(s, 3, s.length))
    assert trivial.holds and trivial.lhs == 1 and trivial.rhs == 1


@given(sequence_instance())
def test_subsum_kneser_never_violated(inst):
    _, s, n = inst
    rep = check_subsum_kneser(s, n, subsum_profile(s, n, s.length))
    assert rep.holds, rep.detail


# ---------------------------------------------------------------------------
# structural classification of small iterated sumsets


def test_cor1_bound_case():
    g = parse_group("4")
    rep = check_cor1(subset(g, {0, 1}), 5)
    assert rep.holds and rep.lhs == 4 and rep.rhs == 4


def test_cor1_template_1b():
    g = parse_group("3x3")
    a = GroupSubset.from_indices(g, [g.index((1, 0)), g.index((2, 0)),
                                     g.index((0, 1))])
    assert iterated_sumset(a, 3).size == 8
    rep = check_cor1(a, 3)
    assert rep.holds
    assert rep.witnesses["template"] == "1(b)"
    assert rep.witnesses["K_order"] == 1
    assert rep.witnesses["H_order"] == 3


def test_cor1_template_2b():
    g = parse_group("2x4")
    a = GroupSubset.from_indices(g, [g.index((0, 0)), g.index((1, 0)),
                                     g.index((0, 1))])
    assert iterated_sumset(a, 3).size == 7
    rep = check_cor1(a, 3)
    assert rep.holds
    assert rep.witnesses["template"] == "2(b)"
    assert rep.witnesses["H0_order"] == 2
    assert rep.witnesses["K_order"] == 1
    # |3A| = |G| - |H0| + |K|
    assert 7 == g.order - 2 + 1


# the only groups of order 10-18 where templates 1(a) and 2(a) occur
@pytest.mark.parametrize("spec, n, elems, template, lhs, rhs", [
    ("2x2x4", 4, "(0,0,0);(1,0,0);(0,0,1);(0,1,1)", "1(a)", 15, 16),
    ("4x4", 3, "(0,0);(1,0);(2,0);(3,0);(0,1)", "2(a)", 13, 15),
    ("2x2x4", 3, "(0,0,0);(1,0,0);(0,1,0);(1,1,0);(0,0,1)", "2(a)", 13, 15),
])
def test_cor1_templates_1a_2a(spec, n, elems, template, lhs, rhs):
    g = parse_group(spec)
    rep = check_cor1(parse_sequence(g, elems).support(), n)
    assert rep.holds and rep.detail == f"matched template {template}"
    assert (rep.lhs, rep.rhs) == (lhs, rhs)
    assert rep.witnesses["template"] == template
    assert rep.witnesses["H_order"] == 4
    assert rep.witnesses["K_order"] == 1


def test_cor1_preconditions():
    g = parse_group("4")
    with pytest.raises(CheckError):
        check_cor1(subset(g, {0, 2}), 3)   # span not full
    with pytest.raises(CheckError):
        check_cor1(subset(g, {0, 1}), 2)   # n < 3


def test_cor1_sweep_small_groups_no_fallthrough():
    for order in range(2, 8):
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


def _cyclic_complements_by_closure(g, h):
    """Reference: the x != 0 of order exp(G) whose closure <x> meets H in 0,
    when |H| exp(G) = |G|."""
    if h.order * g.exponent != g.order:
        return []
    return [x for x in range(1, g.order) if g.element_order(x) == g.exponent
            and subgroup_generated(GroupSubset(g, 1 << x)).carrier.bits
            & h.carrier.bits == 1]


def test_cyclic_complements_match_closure_definition():
    pairs = with_complement = 0
    for order in range(1, 33):
        for g in abelian_groups_of_order(order):
            for h in enumerate_subgroups(g):
                expect = _cyclic_complements_by_closure(g, h)
                assert verifiers._cyclic_complements(g, h) == expect, (g, h)
                pairs += 1
                with_complement += bool(expect)
    assert (pairs, with_complement) == (1030, 179)


def _fingerprint_corpus():
    """(A, n) for every A containing 0 with |A| <= 5 and full affine span, in
    2x2x4, 4x4 and 2x8, at n in {exp-1, exp, exp+1} with n >= 3."""
    for spec in ("2x2x4", "4x4", "2x8"):
        g = parse_group(spec)
        for rest in itertools.chain.from_iterable(
                itertools.combinations(range(1, g.order), r) for r in range(5)):
            a = GroupSubset.from_indices(g, (0, *rest))
            if affine_span(a).is_full:
                for n in (g.exponent - 1, g.exponent, g.exponent + 1):
                    if n >= 3:
                        yield spec, a, n


def test_classifier_fingerprint():
    # pins every report, witnesses included: the subgroup list order, ascending
    # g0 and itertools.permutations order fix each first-match witness
    digest = hashlib.sha256()
    templates = Counter()
    for spec, a, n in _fingerprint_corpus():
        reports = [("cor1", check_cor1(a, n))]
        if n * a.size > a.group.order:
            reports.append(("cor2", check_cor2(a, n)))
        for name, rep in reports:
            assert rep.holds, (spec, a.format(), n, rep.detail)
            digest.update(json.dumps(dataclasses.asdict(rep), sort_keys=True).encode())
            if "template" in rep.witnesses:
                templates[spec, name, rep.witnesses["template"]] += 1
    assert templates == {
        ("2x2x4", "cor1", "1(b)"): 128, ("2x2x4", "cor1", "1(a)"): 96,
        ("2x2x4", "cor1", "2(a)"): 280,
        ("4x4", "cor1", "1(b)"): 192, ("4x4", "cor1", "2(a)"): 180,
        ("2x8", "cor1", "2(b)"): 24, ("2x8", "cor2", "2(b)"): 24,
    }
    assert digest.hexdigest() == \
        "939ae6cdc91fb933d1d49ca72e2b03fbdbd02353142fe9a3e38d6b7f70d61f69"


@pytest.mark.parametrize("check, spec, elems, n, template", [
    (check_cor1, "3x3", "(1,0);(2,0);(0,1)", 3, "1(b)"),
    (check_cor1, "2x2x4", "(0,0,0);(1,0,0);(0,0,1);(0,1,1)", 4, "1(a)"),
    (check_cor1, "4x4", "(0,0);(1,0);(2,0);(3,0);(0,1)", 3, "2(a)"),
    (check_cor1, "2x8", "(0,0);(1,0);(0,7)", 7, "2(b)"),
    (check_cor2, "2x8", "(0,0);(1,0);(0,7)", 7, "2(b)"),
    (check_cor1, "4", "0;1", 5, None),
])
def test_classifier_lists_subgroups_at_most_once(monkeypatch, check, spec, elems, n,
                                                 template):
    calls = []

    def counting(g):
        calls.append(g)
        return enumerate_subgroups(g)
    monkeypatch.setattr(verifiers, "enumerate_subgroups", counting)
    g = parse_group(spec)
    rep = check(parse_sequence(g, elems).support(), n)
    assert rep.holds and rep.witnesses.get("template") == template
    assert len(calls) == (template is not None)


def test_cor2_worked_instances():
    c4 = parse_group("4")
    rep = check_cor2(subset(c4, {0, 1, 2}), 4)
    assert rep.holds and rep.lhs == 4  # 4A = C4

    g = parse_group("2x4")
    a = GroupSubset.from_indices(g, [g.index((0, 0)), g.index((1, 0)),
                                     g.index((0, 1))])
    rep = check_cor2(a, 3)
    assert rep.holds and rep.lhs == 7  # 3A != G, chain template
    assert rep.witnesses["template"] == "2(b)" and rep.witnesses["r"] == 1
    assert rep.witnesses["exp_composite"] and rep.witnesses["noncyclic"]

    full = GroupSubset(c4, c4.full_mask)
    rep = check_cor2(full, 2)
    assert rep.holds and rep.lhs == 4


def test_cor2_precondition():
    g = parse_group("8")
    with pytest.raises(CheckError):
        check_cor2(subset(g, {0, 1}), 3)   # n|A| = 6 <= 8


# ---------------------------------------------------------------------------
# span dichotomy under the smallness hypothesis


def test_lemma_extra_worked_instances():
    g = parse_group("8")
    s = parse_sequence(g, "0^2;4^2;1^2;5^2")
    rep = check_lemma_extra(s, s, 2, subsum_profile(s, 2, s.length))
    assert rep.holds and rep.witnesses  # triggered: |Sigma_2| = 6 < 7
    assert rep.witnesses["span_Z_order"] == 8 == g.order

    c4 = parse_group("4")
    s = parse_sequence(c4, "0^5;2^5")
    rep = check_lemma_extra(s, s, 5, subsum_profile(s, 5, s.length))
    assert rep.holds and rep.witnesses["span_Z_order"] == 2
    assert rep.witnesses["H_order"] == 2  # Z spans exactly H

    s = parse_sequence(c4, "0;1;2;3")
    rep = check_lemma_extra(s, s, 1, subsum_profile(s, 1, s.length))
    assert rep.holds and rep.detail == "hypothesis not triggered"


@given(sequence_instance())
def test_lemma_extra_never_violated(inst):
    _, s, n = inst
    rep = check_lemma_extra(s, s, n, subsum_profile(s, n, s.length))
    assert rep.holds, rep.detail


def test_supplied_profile_must_match_the_call():
    # a profile for another n or reference length is refused, not trusted
    g = parse_group("8")
    s = parse_sequence(g, "0^2;4^2;1^2;5^2")
    s_prime = parse_sequence(g, "0^2;4^2;1^2")
    p = subsum_profile(s, 2, s.length)
    assert check_subsum_kneser(s, 2, p).holds
    assert check_lemma_extra(s, s, 2, p).holds
    for bad in (subsum_profile(s, 3, s.length), subsum_profile(s, 2, s_prime.length)):
        with pytest.raises(CheckError, match="^profile was not computed from"):
            check_subsum_kneser(s, 2, bad)
    for bad in (p, subsum_profile(s, 3, s_prime.length)):
        with pytest.raises(CheckError, match="^profile was not computed from"):
            check_lemma_extra(s, s_prime, 2, bad)

