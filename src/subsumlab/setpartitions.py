"""Setpartitions: constructive partition solver and main certificate pipeline.

A SetPartition keeps its group once and each part as a bitmask over that
group's element indices, the form every local search and verifier works on.

partition_solve realizes the two-case partition dichotomy for n-term subsums
(large part-sum, or all parts concentrated on the high-multiplicity cosets).
Case I is the round-robin partition, or a hill climb from it when its sum is
too small.  Case II repairs the climb's partition (_spread_outside_terms):
while a part holds two terms outside the high-multiplicity cosets, one of them
moves to a part that holds none, as long as the sum of parts stays Sigma_n(S).
Both local searches list their candidate moves, in a fixed order, for one
loop, _first_move, which applies the first that passes: a larger sum in the
climb, the sum Sigma_n(S) in the repair.  A move changes at most two parts,
i and j, so prefix and suffix sums of the parts other than i make the sum of
the parts other than i and j one set-sum per pair.

main_pipeline realizes the strengthened conclusion under the exponent-style
hypotheses in G's own coordinates, never translating S, Sigma_n(S) or the
certificate: it records the coset alpha + K where the paper's "WLOG 0 in
supp(S)" and Step A translate.  It has two exits, case I from the solver and
Step B (K = H); _pipeline_cert argues why the paper's trivial span and span
reduction need none.  Steps C-E, past Step B, are not coded: no instance has
been found that needs them, and main_verify checks the claims of Steps A and
B on every certificate.  Only the case-II profile maps S to G/H.

The solver (_solve) returns parts; each public solver builds its certificate
once and verifies it once, with its theorem's independent verifier
(partition_verify, main_verify), and raises InternalError with the instance
when the check fails.  Nothing passes from solver to verifier: each reads
Sigma_n(S) and H = H(Sigma_n(S)) with nterm_subsums and stabilizer.  A hit of
nterm_subsums' one-entry memo returns the same subset, on which stabilizer
keeps H, so a request runs the DP and the scan for H once each, and the
solver runs them only when the round-robin start misses case I.

Each clause is coded once, in a verifier.  Both verifiers share
_common_violations (part count; S(A) | S and |S(A)| = |S'| from one count of
S(A); unset fields; the recorded H).  Case I is checked by the size of the
sum of parts alone, so it reads Sigma_n(S) only for a recorded H: in
full-group mode a sum of parts equal to G puts G in Sigma_n(S), as S(A) | S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import accumulate, product
from typing import Callable, Iterable, Optional, Sequence

from .groups import (
    GroupError,
    GroupSpec,
    GroupSubset,
    InputError,
    Subgroup,
    iter_bits,
    parse_element,
    smallest_prime_divisor,
    stabilizer,
    sum_masks,
    sum_of_masks,
    verify_subgroup,
)
from .sequences import (GSequence, InternalError, SubsumProfile, nterm_subsums, refuse_rows,
                        subsum_profile)


class PartitionError(InputError):
    """Precondition violated for a setpartition operation."""


class HypothesesUnmetError(PartitionError):
    """None of the main-theorem hypothesis items holds for the instance."""

    exit_code = 1


# the hypothesis ladders main_pipeline and hypothesis_check know
MODES = ("standard", "full-group")


class SetPartition:
    """Ordered list of nonempty subsets of one group, each a bitmask over its
    element indices."""

    __slots__ = ("group", "parts")

    def __init__(self, group: GroupSpec, parts: Sequence[int]):
        for p in parts:
            if not 0 < p <= group.full_mask:
                raise PartitionError("part is empty or outside the group")
        self.group = group
        self.parts = tuple(parts)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SetPartition)
                and other.group is self.group and other.parts == self.parts)

    def __repr__(self) -> str:
        lits = self.group.literals()
        inner = " | ".join("{" + ",".join(lits[i] for i in iter_bits(p)) + "}" for p in self.parts)
        return f"SetPartition({self.group.spec_string()}, {inner})"


@dataclass
class Certificate:
    """Machine-checkable record of which conclusion holds; never trusted.

    The verifiers check every field a case uses and require the others
    unset: K, alpha, e_H, e_K and k in case I, and K, alpha and e_K in a
    partition-theorem case II.  bounds is solver output for the reader (sum
    sizes and the bound they meet); no verifier reads it.
    """

    case_tag: str                       # "I" or "II"
    partition: SetPartition
    H: Optional[Subgroup] = None
    K: Optional[Subgroup] = None
    alpha: Optional[int] = None
    e_H: int = 0
    e_K: int = 0
    k: int = 0                          # n - e_K in case II
    bounds: dict = field(default_factory=dict)
    mode: str = "standard"             # one of MODES
    theorem: str = "main"               # "partition" or "main"
    verified: bool = False

    def to_dict(self) -> dict:
        lits = self.partition.group.literals()

        def subset(bits: int) -> list[str]:
            return [lits[i] for i in iter_bits(bits)]

        return {
            "case": self.case_tag,
            "theorem": self.theorem,
            "mode": self.mode,
            "parts": [subset(p) for p in self.partition.parts],
            "H": subset(self.H.carrier.bits) if self.H else None,
            "K": subset(self.K.carrier.bits) if self.K else None,
            "alpha": lits[self.alpha] if self.alpha is not None else None,
            "e_H": self.e_H,
            "e_K": self.e_K,
            "k": self.k,
            "bounds": dict(self.bounds),
            "verified": self.verified,
        }

    @classmethod
    def from_dict(cls, group: GroupSpec, data: dict) -> "Certificate":
        """Parse a to_dict() record; PartitionError on any malformed field.

        Element literals must be in the canonical form to_dict writes, so an
        out-of-range coordinate such as "5" over C4 is rejected, not reduced;
        whitespace around a literal or its coordinates is tolerated, so
        " ( 1 , 0 ) " reads as "(1,0)".  The record's "verified" is ignored:
        only a solver's own verification sets it, so a parsed certificate has
        verified=False.
        """
        def check(ok: bool, what: str) -> None:
            if not ok:
                raise PartitionError(f"malformed certificate: {what}")

        canonical = group.literal_index()

        def element(text) -> int:
            idx = canonical.get(text) if isinstance(text, str) else None
            if idx is not None:
                return idx
            check(isinstance(text, str), f"element {text!r} is not a string")
            try:
                idx = parse_element(group, text)
            except GroupError as err:
                raise PartitionError(f"malformed certificate: {err}") from None
            check(group.format_element(idx) == "".join(text.split()),
                  f"{text!r} is not a canonical element of {group.spec_string()}")
            return idx

        def subset(elems, name: str) -> int:
            check(isinstance(elems, list), f"{name} is not a list")
            bits = 0
            for e in elems:
                bits |= 1 << element(e)
            return bits

        check(isinstance(data, dict), f"expected an object, got {type(data).__name__}")
        check("parts" in data, "missing 'parts'")
        check(isinstance(data["parts"], list), "parts is not a list")
        check(data.get("case") in ("I", "II"), f"case {data.get('case')!r} is not I or II")
        check(data.get("theorem", "main") in ("partition", "main"), "unknown theorem")
        check(data.get("mode", "standard") in MODES, "unknown mode")
        check(isinstance(data.get("bounds", {}), dict), "bounds is not an object")
        for name in ("e_H", "e_K", "k"):
            check(type(data.get(name, 0)) is int, f"{name} is not an integer")
        parts = [subset(p, f"part {i + 1}") for i, p in enumerate(data["parts"])]
        for i, bits in enumerate(parts):
            check(bits != 0, f"part {i + 1} is empty")
        return cls(
            case_tag=data["case"],
            partition=SetPartition(group, parts),
            H=Subgroup(GroupSubset(group, subset(data["H"], "H"))) if data.get("H") else None,
            K=Subgroup(GroupSubset(group, subset(data["K"], "K"))) if data.get("K") else None,
            alpha=(element(data["alpha"])
                   if data.get("alpha") is not None else None),
            e_H=data.get("e_H", 0),
            e_K=data.get("e_K", 0),
            k=data.get("k", 0),
            bounds=dict(data.get("bounds", {})),
            mode=data.get("mode", "standard"),
            theorem=data.get("theorem", "main"),
        )


# ---------------------------------------------------------------------------
# basic construction


def _counts(s: GSequence, parts: Iterable[int]) -> tuple[list[int], int, bool]:
    """The multiplicity vector of the parts' underlying sequence S(A), its
    length and whether S(A) | S, from one pass over the parts' bits."""
    mult = s.mult
    used, length, fits = [0] * len(mult), 0, True
    for p in parts:
        length += p.bit_count()
        while p:
            low = p & -p
            i = low.bit_length() - 1
            used[i] += 1
            if used[i] > mult[i]:
                fits = False
            p ^= low
    return used, length, fits


def _sum_size(g: GroupSpec, parts: Iterable[int], stop: int) -> int:
    """|sum of parts|, exact below stop: a singleton part only translates the
    sum and is skipped, and no part shrinks it, so it stops at size stop."""
    acc = 1
    for p in parts:
        if p & (p - 1) and (acc := sum_masks(g, acc, p)).bit_count() >= stop:
            break
    return acc.bit_count()


def _round_robin(s: GSequence, n: int) -> list[int]:
    """Term t of S, ascending, into part t mod n."""
    bits = [0] * n
    t = 0
    for i in s.support_indices():
        for _ in range(s.mult[i]):
            bits[t % n] |= 1 << i
            t += 1
    return bits


def lemma31_complete(s: GSequence, s_prime: GSequence, n: int, k: int
                     ) -> tuple[GSequence, GSequence]:
    """Split-off pair (T, T'): h(T) <= k <= |T|, h(T') <= n-k <= |T'|, |T|+|T'|=|S'|.

    A reproduction of the paper's Lemma 3.1; no solver path calls it.  T
    takes min(v_g, k) of each element of S ascending, stopping at the room
    |S'| - (n-k), so it has maximal length among such subsequences.  T' takes
    |S'| - |T| terms of T^{[-1]}S ascending, at most n-k per element.

    The postconditions follow from h(S') <= n <= |S'| and S' | S, so none is
    checked (criterion 6 asserts the length and multiplicity ones per call):
    - |T| >= k: the room is >= k, and sum_g min(v_g(S), k) >= k, as one g
      with v_g(S') >= k gives k alone, and otherwise the sum is >= |S'| >= k.
    - T T' | S: T takes at most v_g(S) of each g, and T' from what T left.
    - |T'| = |S'| - |T|: if T stopped at the room, T' needs n - k terms, at
      most n - k per element, of the |S| - room >= n - k that T left.
      Otherwise T took min(v_g(S), k) of each g, so T' may take
      min(v_g(S), n) - min(v_g(S), k), in all >= |S'| - |T| as h(S') <= n.
    - h(T) <= k and h(T') <= n - k by the caps; |T'| >= |S'| - room = n - k,
      and T' is empty when k = n.
    """
    if not s_prime.is_subsequence_of(s):
        raise PartitionError("S' must be a subsequence of S")
    if not (s_prime.max_multiplicity() <= n <= s_prime.length):
        raise PartitionError("need h(S') <= n <= |S'|")
    if not 1 <= k <= n:
        raise PartitionError("need 1 <= k <= n")
    mult, supp, room = s.mult, s.support_indices(), s_prime.length - (n - k)
    t, t_prime = [0] * len(mult), [0] * len(mult)
    for g in supp:
        t[g] = take = min(mult[g], k, room)
        room -= take
    len_t = s_prime.length - (n - k) - room
    room = s_prime.length - len_t
    for g in supp:
        t_prime[g] = take = min(mult[g] - t[g], n - k, room)
        room -= take
    return (GSequence._derived(s.group, tuple(t), len_t),
            GSequence._derived(s.group, tuple(t_prime), s_prime.length - len_t - room))


# ---------------------------------------------------------------------------
# partition theorem solver


def _validate_instance(s: GSequence, s_prime: GSequence, n: int) -> None:
    if s_prime.group is not s.group:
        raise PartitionError("S and S' over different groups")
    if not s_prime.is_subsequence_of(s):
        raise PartitionError("S' must be a subsequence of S")
    h = s_prime.max_multiplicity()
    if h > n:
        raise PartitionError(f"h(S')={h} > n={n}")
    if n > s_prime.length:
        raise PartitionError(f"n={n} > |S'|={s_prime.length}")
    if n < 1:
        raise PartitionError("n must be >= 1")


def _improve(s: GSequence, parts: list[int], best: int) -> int:
    """Apply the first move that lifts |sum of parts| above best to parts.

    For each part i in turn: replace an element of part i by an unused term
    of S; then, for each other part j and each element e of part i that j
    lacks, transfer e to j, or swap e with an element of j that i lacks.
    Returns the lifted sum size, or 0 when no move improves.
    """
    g = s.group
    used = _counts(s, parts)[0]
    spare = [u for u in s.support_indices() if s.mult[u] > used[u]]

    def moves():
        for i, part in enumerate(parts):
            for e in iter_bits(part):
                for u in spare:
                    if not (part >> u) & 1:
                        yield i, -1, (part & ~(1 << e)) | (1 << u), 0
            for j, other in enumerate(parts):
                if j == i:
                    continue
                for e in iter_bits(part & ~other):
                    give, take = part & ~(1 << e), other | (1 << e)
                    if part.bit_count() >= 2:
                        yield i, j, give, take
                    for f in iter_bits(other & ~part):
                        yield i, j, give | (1 << f), take & ~(1 << f)

    return _first_move(g, parts, moves(), lambda total: total.bit_count() > best).bit_count()


def _spread_outside_terms(g: GroupSpec, parts: list[int], z: int,
                          target: int) -> Optional[list[int]]:
    """Repair part bitmasks in place so that no part holds two terms outside z.

    While some part holds more than one term outside z, move one of them into
    a part that has none, by a transfer or by a swap with an inside term of
    that part, taking the first move that keeps the sum of parts equal to
    target.  Returns parts, or None when no such move exists.
    """
    while True:
        over = next((i for i, b in enumerate(parts) if (b & ~z).bit_count() > 1), None)
        if over is None:
            return parts
        # e leaves part `over` for part j, alone or in exchange for an inside
        # term f of part j (f_bit = 1 << f, or 0 for a transfer)
        part = parts[over]
        moves = ((over, j, (part & ~(1 << e)) | f_bit, (b | 1 << e) & ~f_bit)
                 for e in iter_bits(part & ~z)
                 for j, b in enumerate(parts) if not b & ~z
                 for f_bit in (0, *(1 << f for f in iter_bits(b & ~part))))
        if not _first_move(g, parts, moves, lambda total: total == target):
            return None


def _first_move(g: GroupSpec, parts: list[int], moves: Iterable[tuple[int, int, int, int]],
                accept: Callable[[int], bool]) -> int:
    """Apply to parts the first move whose sum of parts passes accept, and
    return that sum (a bitmask; 0 when no move passes).

    A move (i, j, cand_i, cand_j) makes part i cand_i and part j cand_j; j =
    -1 changes part i alone (a term of it replaced by a spare term).  The
    sum of the other parts is taken once per (i, j): from the prefix sums of
    the parts other than i, built on i's first move, and their suffix sums,
    built on i's first pair move, it costs one set-sum.
    """
    add = partial(sum_masks, g)
    rest: dict[tuple[int, int], int] = {}
    i_pre = -1
    for i, j, cand_i, cand_j in moves:
        if (i, j) not in rest:
            if i != i_pre:
                others = parts[:i] + parts[i + 1:]
                i_pre, pre, suf = i, [1, *accumulate(others, add)], None
            if j >= 0 and suf is None:
                suf = [*accumulate(reversed(others), add)][::-1] + [1]
            k = j - (j > i)     # j's position among the others
            rest[i, j] = pre[-1] if j < 0 else add(pre[k], suf[k + 1])
        total = add(rest[i, j], cand_i)
        if j >= 0:
            total = add(total, cand_j)
        if accept(total):
            parts[i] = cand_i
            if j >= 0:
                parts[j] = cand_j
            return total
    return 0


def partition_solve(s: GSequence, s_prime: GSequence, n: int) -> Certificate:
    """Find a setpartition witnessing one of the two partition-theorem cases."""
    _validate_instance(s, s_prime, n)
    parts, sum_size, profile = _solve(s, s_prime, n, s_prime.length - n + 1)
    partition = SetPartition(s.group, parts)
    if profile is None:
        cert = Certificate("I", partition, theorem="partition",
                           bounds={"sum_size": sum_size,
                                   "case1_bound": s_prime.length - n + 1})
    else:
        cert = Certificate(
            "II", partition, H=profile.H, theorem="partition",
            e_H=profile.e, k=n - profile.e,
            bounds={"sum_size": sum_size, "case2_bound": profile.bound_primary,
                    "rho": profile.rho, "N": profile.N, "e": profile.e})
    ok, violations = partition_verify(cert, s, s_prime, n)
    if not ok:
        raise InternalError("partition certificate failed verification",
                            {"case": cert.case_tag, "violations": violations,
                             "group": s.group.spec_string(), "S": s.format(),
                             "S_prime": s_prime.format(), "n": n})
    cert.verified = True
    return cert


def _solve(s: GSequence, s_prime: GSequence, n: int,
           target1: int) -> tuple[list[int], int, SubsumProfile | None]:
    """The partition solver on a valid instance with case-I bound target1.

    The round-robin parts are case I when their sum reaches target1.  Else a
    first-improvement climb (_improve) lifts the sum, by at least 1 a move,
    toward min(target1, |Sigma_n(S)|), which holds every sum of parts.  n
    parts cost what n DP rows do: n past the row cap is refused.

    Returns (parts, sum size, profile): the part bitmasks, unchecked, and in
    case I the size of their sum and profile None; in case II |Sigma_n(S)|,
    which the repaired parts sum to, and the profile subsum_profile(S, n,
    |S'|) the repair spread the outside terms with.
    """
    refuse_rows(n)
    g = s.group
    parts = _round_robin(s_prime, n)
    best = _sum_size(g, parts, g.order)
    if best < target1:
        goal = min(target1, nterm_subsums(s, n).size)
        while best < goal and (lifted := _improve(s, parts, best)):
            best = lifted
    if best >= target1:
        return parts, best, None
    profile = subsum_profile(s, n, s_prime.length)
    if _spread_outside_terms(g, parts, profile.Z_mask, profile.sigma_n.bits) is None:
        raise InternalError(
            "partition theorem: neither case could be witnessed",
            {"group": g.spec_string(), "S": s.format(),
             "S_prime": s_prime.format(), "n": n})
    return parts, profile.sigma_n.size, profile


# the unset value of each Certificate field that only some cases use
_UNSET = {"K": None, "alpha": None, "e_H": 0, "e_K": 0, "k": 0}


def _common_violations(cert: Certificate, g: GroupSpec, s: GSequence, s_prime: GSequence,
                       n: int, theorem: str) -> tuple[list[str], Optional[list[int]]]:
    """The clauses both verifiers check, recomputed from scratch.

    The part count, then S(A) | S and |S(A)| = |S'| from one count of S(A);
    when one fails, nothing else is checked and the count is None.  Then the
    fields cert's case leaves unused in the verifier's theorem must be unset,
    and a recorded H (required in case II) must equal H(Sigma_n(S)).
    Returns (violations, S(A)'s multiplicity vector).  No clause asks the sum
    of parts to lie in Sigma_n(S): an element of A_1 + ... + A_n sums one term
    of each of the n distinct parts, an n-term subsum of S(A), which S(A) | S
    puts in Sigma_n(S).
    """
    partition = cert.partition
    if partition.group is not g or s.group is not g:
        return ["certificate/instance group mismatch"], None
    if len(partition.parts) != n:
        return [f"expected {n} parts, found {len(partition.parts)}"], None
    violations: list[str] = []
    used, length, fits = _counts(s, partition.parts)
    if not fits:
        violations.append("S(A) is not a subsequence of S")
    if length != s_prime.length:
        violations.append(f"|S(A)|={length} != |S'|={s_prime.length}")
    if violations:
        return violations, None
    unused = (("K", "alpha", "e_H", "e_K", "k") if cert.case_tag == "I"
              else ("K", "alpha", "e_K") if theorem == "partition" else ())
    for name in unused:
        if getattr(cert, name) != _UNSET[name]:
            violations.append(f"case {cert.case_tag} certificate must leave {name} unset")
    if cert.case_tag == "II" or cert.H is not None:
        h = stabilizer(nterm_subsums(s, n))
        if cert.H is None:
            violations.append("case II certificate does not record H")
        elif cert.H.carrier.bits != h.carrier.bits:
            violations.append(f"recorded H={{{cert.H.carrier.format()}}} "
                              f"!= H(Sigma_n(S))={{{h.carrier.format()}}}")
    return violations, used


def partition_verify(cert: Certificate, s: GSequence, s_prime: GSequence,
                     n: int) -> tuple[bool, list[str]]:
    """Re-check a partition-theorem certificate from scratch."""
    violations, used = _common_violations(cert, s.group, s, s_prime, n, "partition")
    if used is None:
        return False, violations
    if cert.case_tag == "I":
        bound = s_prime.length - n + 1
        size = _sum_size(s.group, cert.partition.parts, bound)
        if size < bound:
            violations.append(f"case 1 bound: |sum|={size} < {bound}")
    elif cert.case_tag == "II":
        # the recorded H was checked above.  The case-II bound |S'| - (n-1)|H|
        # + e(|H|-1) + rho is bound_primary, the |S'| terms cancelling in
        # rho = N|H|n + e - |S'|.  rho >= 0 holds: S(A) | S and |S(A)| = |S'|
        # hold here, and n parts that are sets give |S'| <= N|H|n + e.
        profile = subsum_profile(s, n, s_prime.length)
        z, h = profile.Z_mask, profile.H
        if cert.e_H != profile.e:
            violations.append(f"recorded e_H={cert.e_H} != e={profile.e}")
        if cert.k != n - profile.e:
            violations.append(f"recorded k={cert.k} != n - e = {n - profile.e}")
        sum_a = sum_of_masks(s.group, cert.partition.parts)
        if sum_a != profile.sigma_n.bits:
            violations.append("case 2 requires sum of parts == Sigma_n(S)")
        if sum_a.bit_count() < profile.bound_primary:
            violations.append(f"case 2 bound: |sum|={sum_a.bit_count()} < {profile.bound_primary}")
        if any(s.mult[i] > used[i] and not (z >> i) & 1 for i in s.support_indices()):
            violations.append("leftover terms outside phi^-1(X)")
        for i, p in enumerate(cert.partition.parts):
            if (p & ~z).bit_count() > 1:
                violations.append(f"part {i + 1} has more than one element outside phi^-1(X)")
            if z & ~sum_masks(s.group, h.carrier.bits, p):
                violations.append(f"phi^-1(X) not contained in part {i + 1} + H")
    else:
        violations.append(f"unknown case tag {cert.case_tag!r}")
    return not violations, violations


# ---------------------------------------------------------------------------
# hypothesis checking


def hypothesis_check(g: GroupSpec, h: Subgroup, n: int, mode: str) -> str:
    """The hypothesis item (G, H, n) satisfies: "trivial-H", "full-H",
    "item1" to "item4", or "none"; main_pipeline asks only for n < n_all(G, mode).

    Each item (_item) is n >= exp(G/H) - 1, exp(G/H) or exp(G/H) + 1 under a
    condition on q = |G/H|, exp(G/H) and |H|, so no quotient is built.  The e
    with e*G <= H are the multiples of exp(G/H), and e*G <= H iff e*e_i, of
    index (e mod m_i) strides[i], lies in H for each standard generator e_i;
    so dividing exp(G) by each of its prime factors in turn, while that keeps
    every e*e_i in H, leaves exp(G/H).  The invariant factors of G/H multiply
    to q and end in exp(G/H): G/H is cyclic iff q = exp(G/H) (item 4), and
    C2 x C_exp iff q = 2 exp(G/H) (item 3).  The G/H are, up to isomorphism,
    G's subgroups prod C_{d_i}, d_i | m_i, of order prod d_i and exponent
    lcm(d_i), H proper and nontrivial iff 1 < q < |G|: n_all reads only these.

    Full-group mode answers item1 (n >= exp(G/H)) or none, which is the
    paper's answer for the H main_pipeline asks about: H = H(Sigma_n(S)) of
    an S' with h(S') <= n and |S'| >= n + |G| - 1.  There the paper's items 2
    (n >= exp(G/H) - 1, G/H cyclic or of prime exponent) and 3 (exp(G/H) <= 3
    or G/H = C4) hold only where item 1 does.  Let H be proper and nontrivial,
    q = |G/H|, h = |H|, and N, e as in subsum_profile (N cosets of H holding
    at least n terms of S, e terms of S outside them).
    (A) The n-term subsum bound |Sigma_n| >= ((N-1)n + e + 1)h and
        |Sigma_n| <= (q-1)h give (N-1)n + e + 2 <= q.
    (B) S' has at most nh terms in each of those N cosets (h(S') <= n) and
        at most e outside them: Nnh + e >= |S'| >= n + qh - 1.
    N = 0 is impossible: (A) and (B) give n + qh - 1 <= e <= q + n - 2.
    N = 1: (A) gives e <= q - 2, then (B) n(h-1) >= q(h-1) + 1, so n > q.
    N >= 2: (A) gives Nn <= q - 2 - e + n, so (B) gives n(h-1) >=
    (e+2)(h-1) + 1, and e + 3 <= n <= q - 2 - e.  Then item 3's
    exp(G/H) <= 3 <= n is item 1, and its G/H = C4 would need 4 >= n + 2 >= 5.
    Item 2 without item 1 needs n = exp(G/H) - 1: for cyclic G/H that is
    q - 1 > q - 2 - e; for prime exponent p and a = (q-1)/(p-1), (A) gives
    N <= a, but (A) and (B) give N(p-1)(h-1) >= q(h-1) + 1, so N > a.
    """
    if mode not in MODES:
        raise PartitionError(f"unknown mode {mode!r}")
    if h.carrier.group is not g:
        raise PartitionError("subgroup over a different group")
    if h.is_trivial:
        return "trivial-H"
    if h.is_full:
        return "full-H"
    bits, q = h.carrier.bits, g.order // h.order
    exp_q = rest = g.exponent
    while rest > 1:
        p = smallest_prime_divisor(rest)
        rest //= p
        if all((bits >> (exp_q // p % m * s)) & 1 for m, s in zip(g.invariant_factors, g.strides)):
            exp_q //= p
    return _item(q, exp_q, h.order, n, mode)


def _item(q: int, exp_q: int, h_order: int, n: int, mode: str) -> str:
    """hypothesis_check's answer for a proper nontrivial H of |G/H| = q."""
    if mode != "standard":      # full-group
        return "item1" if n >= exp_q else "none"
    if n >= exp_q + 1:
        return "item1"
    if n >= exp_q > h_order:
        return "item2"
    if n >= exp_q and q == 2 * exp_q:
        return "item3"
    if q == exp_q and n >= exp_q - 1:
        return "item4"
    return "none"


@cache
def n_all(g: GroupSpec, mode: str) -> int:
    """The least n from which hypothesis_check answers an item for every H <= G
    (0 if every H is trivial or G), over divisor tuples (see hypothesis_check)."""
    if mode not in MODES:
        raise PartitionError(f"unknown mode {mode!r}")
    divisors = ([k for k in range(1, m + 1) if m % k == 0] for m in g.invariant_factors)
    quotients = {(math.prod(d), math.lcm(*d)) for d in product(*divisors)}
    return max((next(n for n in range(e - 1, e + 2) if _item(q, e, g.order // q, n, mode) != "none")
                for q, e in quotients if 1 < q < g.order), default=0)


# ---------------------------------------------------------------------------
# main pipeline


def main_pipeline(g: GroupSpec, s: GSequence, s_prime: GSequence, n: int,
                  mode: str = "standard") -> Certificate:
    """Certificate for the strengthened partition conclusion, fully verified.

    The hypothesis check reads H = H(Sigma_n(S)) only for n < n_all(G, mode):
    from there every H <= G, of any S, meets an item."""
    if mode not in MODES:
        raise PartitionError(f"unknown mode {mode!r}")
    if s.group is not g:
        raise PartitionError("sequence over a different group")
    _validate_instance(s, s_prime, n)
    if mode == "full-group" and s_prime.length < n + g.order - 1:
        raise PartitionError(
            f"full-group mode needs |S'| >= n + |G| - 1 = {n + g.order - 1}, "
            f"got {s_prime.length}")
    if n < n_all(g, mode):
        h = stabilizer(nterm_subsums(s, n))
        if hypothesis_check(g, h, n, mode) == "none":
            raise HypothesesUnmetError(
                f"no hypothesis item holds for H of order {h.order}, n={n}, "
                f"G={g.spec_string()} (mode {mode})")
    cert = _pipeline_cert(g, s, s_prime, n, mode)
    ok, violations = main_verify(cert, g, s, s_prime, n)
    if not ok:
        raise InternalError(
            "pipeline certificate failed verification",
            {"violations": violations, "group": g.spec_string(),
             "S": s.format(), "S_prime": s_prime.format(), "n": n, "mode": mode})
    cert.verified = True
    return cert


def _pipeline_cert(g: GroupSpec, s: GSequence, s_prime: GSequence, n: int,
                   mode: str) -> Certificate:
    """The main argument on the caller's S: case I, else Step B.

    The solver's case-II partition has one high-multiplicity H-coset z =
    alpha + H (Step A would move it onto H; here it stays put) and splits into
    k = n - e_H parts inside z and e_H parts with one term outside; Step B
    returns case II with K = H.  Every term lies in s0 + span (s0 the least
    element of supp(S), span = <supp(S)>_*), so every sum of parts lies in
    the coset n*s0 + span.  The other branches of the argument need no code:
    (1) A trivial span (every term s0) forces |S'| = h(S') <= n, so the
        solver returns case I on the round-robin partition (bound 1).
    (2) A sum of parts that fills n*s0 + span but misses the case-I bound
        comes from case II, where it is Sigma_n; so H = span, N = 1, e = 0,
        alpha = s0, and Step B gives H = K = span.
    (3) At the case-I exit, bound <= sum size <= |span|: no min with |span|.
    (4) Case II with trivial H has |Sigma_n| >= bound_primary = |S'| - n + 1
        + rho, so it leaves by the case-I exit.
    (5) The solver's repair leaves at most one outside term per part.
        main_verify checks the rest: no term outside z is left over ((ii)(a)),
        so the e_H = profile.e outside terms sit in e_H parts, one each, and
        k parts lie inside z ((ii)(c)).  z is not empty: N = 0 puts one term
        in each part, so |S'| = n, which is case I.
    Not proved here: |X| = 1 (Step A), and the inside parts summing to
    k*alpha + H (Step B; open).  main_verify's clauses (c) and (d) check both,
    and main_pipeline raises InternalError with the caller's instance.
    """
    case1_bound = min(g.order, s_prime.length - n + 1)
    parts, sum_size, profile = _solve(s, s_prime, n, case1_bound)
    if profile is None:
        return Certificate("I", SetPartition(g, parts), theorem="main", mode=mode,
                           bounds={"sum_size": sum_size, "case1_bound": case1_bound})
    h, z = profile.H, profile.Z_mask
    alpha = next(i for i in iter_bits(z) if s.mult[i])
    # the k parts inside z first, each in the solver's order
    parts.sort(key=lambda p: bool(p & ~z))
    return Certificate("II", SetPartition(g, parts), H=h, K=h, alpha=alpha,
                       e_H=profile.e, e_K=profile.e, k=n - profile.e,
                       theorem="main", mode=mode, bounds={"sum_size": sum_size})


def clause_iib_violations(sigma_size: int, e: int, sub: Subgroup, room: int,
                          name: str) -> list[str]:
    """The inequalities of clause (ii)(b) that sub (H or K, as name says)
    breaks, e terms of S lying outside alpha + sub: |Sigma_n| >= (e+1)|sub|,
    e <= |G/sub| - 2 and (e+1)|sub| <= room = |S'| - n."""
    size = (e + 1) * sub.order
    violations = []
    if sigma_size < size:
        violations.append(f"(ii)(b): |Sigma_n|={sigma_size} < (e_{name}+1)|{name}|={size}")
    if e > sub.group.order // sub.order - 2:
        violations.append(f"(ii)(b): e_{name}={e} > |G/{name}|-2")
    if size > room:
        violations.append(f"(ii)(b): e_{name} exceeds (|S'|-n)/|{name}| - 1")
    return violations


def main_verify(cert: Certificate, g: GroupSpec, s: GSequence,
                s_prime: GSequence, n: int) -> tuple[bool, list[str]]:
    """Re-check every clause of a main-pipeline certificate, in cert.mode, from scratch."""
    if cert.mode not in MODES:
        return False, [f"unknown mode {cert.mode!r}"]
    violations, used = _common_violations(cert, g, s, s_prime, n, "main")
    if used is None:
        return False, violations
    partition = cert.partition
    if cert.case_tag == "I":
        full = cert.mode == "full-group"
        bound = min(g.order, s_prime.length - n + 1)
        size = _sum_size(g, partition.parts, g.order if full else bound)
        if size < bound:
            violations.append(f"case (i): |sum|={size} < min(|G|, |S'|-n+1)={bound}")
        if full and size < g.order:
            violations.append("full-group mode: sum of parts != G")
        return not violations, violations

    if cert.case_tag != "II":
        return False, [f"unknown case tag {cert.case_tag!r}"]
    if cert.K is None or cert.alpha is None:
        return False, ["case (ii) certificate missing K or alpha"]
    try:
        verify_subgroup(g, cert.K.carrier)
    except GroupError as err:
        return False, [f"(ii): K is not a subgroup: {err}"]
    if cert.K.is_trivial:
        violations.append("(ii): K must be nontrivial")
    sigma_n = nterm_subsums(s, n)
    h = stabilizer(sigma_n)
    if not h.contains_subgroup(cert.K):
        violations.append("(ii): K not contained in H(Sigma_n(S))")
    if h.is_full:
        violations.append("(ii): H(Sigma_n(S)) must be proper")
    # (a), then (b), from one listing of supp(S); S(A) | S was checked
    coset_k = g.translate_mask(cert.K.carrier.bits, cert.alpha)
    out_k = [i for i in s.support_indices() if not (coset_k >> i) & 1]
    coset_h = g.translate_mask(h.carrier.bits, cert.alpha)
    e_h = sum(s.mult[i] for i in s.support_indices() if not (coset_h >> i) & 1)
    e_k = sum(s.mult[i] for i in out_k)
    k_prime = n - e_k
    # one left-to-right sum gives the whole and (d)'s prefix, the first k'
    # parts (read only when k' >= 1; any k' slices the parts in two)
    prefix = sum_of_masks(g, partition.parts[:k_prime])
    if sum_of_masks(g, [prefix, *partition.parts[k_prime:]]) != sigma_n.bits:
        violations.append("(ii)(a): sum of parts != Sigma_n(S)")
    if any(s.mult[i] > used[i] for i in out_k):
        violations.append("(ii)(a): leftover terms outside alpha+K")
    # (b)
    if cert.e_H != e_h:
        violations.append(f"(ii)(b): recorded e_H={cert.e_H} != recomputed {e_h}")
    if cert.e_K != e_k:
        violations.append(f"(ii)(b): recorded e_K={cert.e_K} != recomputed {e_k}")
    for e, sub, name in ((e_h, h, "H"), (e_k, cert.K, "K")):
        violations += clause_iib_violations(sigma_n.size, e, sub, s_prime.length - n, name)
    # (c)
    if cert.k != k_prime:
        violations.append(f"recorded k={cert.k} != n - e_K = {k_prime}")
    for i, p in enumerate(partition.parts):
        if not p & coset_k:
            violations.append(f"(ii)(c): part {i + 1} misses alpha+K")
        outside = (p & ~coset_k).bit_count()
        if i < k_prime and outside:
            violations.append(f"(ii)(c): part {i + 1} escapes alpha+K")
        if i >= k_prime and outside != 1:
            violations.append(f"(ii)(c): part {i + 1} must have exactly one element outside alpha+K")
    # (d)
    if k_prime >= 1:
        expect = g.translate_mask(cert.K.carrier.bits, g.scale(k_prime, cert.alpha))
        if prefix != expect:
            violations.append("(ii)(d): prefix sum != (n-e_K)alpha + K")
    else:
        violations.append("(ii)(d): n - e_K < 1")
    return not violations, violations
