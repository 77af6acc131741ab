"""Independent brute-force oracles.

Everything here recomputes from first principles with itertools-style
enumeration over explicit element tuples; no bitmask tricks, no DP, no
sharing of code paths with the library implementations under test.  The
exceptions are improve_oracle and spread_outside_terms_oracle, reference
copies of the hill climb's move step and of the case-II repair that re-sum
every part per candidate move with the library's sum_masks;
subsum_rows_oracle, the n-term subsum DP with one pass per copy count t
where the library bundles copies; the dense_* references, which walk all
|G| multiplicities where the library walks supp(S) only; and from_terms,
remove and underlying_sequence, sequence helpers only the tests need.
verify_subgroup_scan is the subgroup check as a scan over every element.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterator, Optional

from subsumlab.groups import GroupSpec, GroupSubset, Subgroup, iter_bits, sum_masks
from subsumlab.sequences import GSequence, SequenceError
from subsumlab.setpartitions import SetPartition


def add_coords(factors, a, b):
    return tuple((x + y) % m for x, y, m in zip(a, b, factors))


def sumset_oracle(g: GroupSpec, a: set[int], b: set[int]) -> set[int]:
    return {g.add(x, y) for x in a for y in b}


def iterated_sumset_oracle(g: GroupSpec, a: set[int], n: int) -> set[int]:
    out = {0}
    for _ in range(n):
        out = sumset_oracle(g, out, a)
    return out


def stabilizer_oracle(g: GroupSpec, a: set[int]) -> set[int]:
    return {x for x in range(g.order)
            if {g.add(x, y) for y in a} == a}


def stabilizer_scan(g: GroupSpec, a: set[int]) -> set[int]:
    """H(A) by a plain candidate scan: a period x has x + a0 in A for a
    fixed a0 in A, so only the differences a - a0 are tried, each against
    every element of A.  Fast enough for |G| = 1024 when |H| is small."""
    a0 = min(a)
    return {x for x in {g.add(y, g.neg(a0)) for y in a}
            if all(g.add(y, x) in a for y in a)}


def affine_span_oracle(g: GroupSpec, a: set[int]) -> set[int]:
    """Subgroup generated by all pairwise differences of a."""
    elems = sorted(a)
    gens = {g.add(x, g.neg(elems[0])) for x in elems}
    span = {0}
    frontier = {0}
    while frontier:
        nxt = {g.add(x, y) for x in frontier for y in gens} - span
        span |= nxt
        frontier = nxt
    return span


def nterm_subsums_oracle(s: GSequence, n: int) -> set[int]:
    g = s.group
    terms = dense_terms(s)
    out = set()
    for combo in combinations(range(len(terms)), n):
        total = 0
        for i in combo:
            total = g.add(total, terms[i])
        out.add(total)
    return out


def setpartitions_oracle(s: GSequence, s_prime_len: int, n: int) -> Iterator[tuple[set[int], ...]]:
    """Every n-setpartition A = (A_1, ..., A_n) with S(A) | S and |S(A)| =
    s_prime_len, parts as sets of element indices.  Each support element of
    multiplicity m goes into an at most m-subset of the n parts (exactly m
    when s_prime_len = |S|), the subsets' sizes add up to s_prime_len, and
    only the choices with no empty part are kept."""
    supp = [x for x, m in enumerate(s.mult) if m]

    def choose(k: int, parts: tuple[set[int], ...], left: int):
        if k == len(supp):
            if left == 0 and all(parts):
                yield parts
            return
        x = supp[k]
        for size in range(min(s.mult[x], n, left) + 1):
            for chosen in combinations(range(n), size):
                yield from choose(k + 1, tuple(p | {x} if j in chosen else p
                                               for j, p in enumerate(parts)), left - size)

    yield from choose(0, tuple(set() for _ in range(n)), s_prime_len)


def subsum_rows_oracle(s: GSequence, cap: int, target: int) -> list[int]:
    """sequences._subsum_rows before it bundled copies: for each support
    element of multiplicity m, row j takes every t <= min(m, j) copies in
    turn, under the same reachability window, so rows target..cap are exact."""
    g = s.group
    rows = [0] * (cap + 1)
    rows[0] = 1
    seen, left = 0, s.length
    for idx in s.support_indices():
        m = s.mult[idx]
        left -= m
        shifts = [idx]  # t*idx for t = 1..min(m, cap), as a running sum
        for _ in range(1, min(m, cap)):
            shifts.append(g.add(shifts[-1], idx))
        for j in range(min(cap, seen + m), max(0, target - left - 1), -1):
            acc = rows[j]
            for t in range(max(1, j - seen), min(m, j) + 1):
                acc |= g.translate_mask(rows[j - t], shifts[t - 1])
            rows[j] = acc
        seen += m
    return rows


def verify_subgroup_scan(g: GroupSpec, k: set[int]) -> Optional[str]:
    """verify_subgroup's verdict on K by a scan over all of K: None for a
    subgroup, else its message, naming the least x in K with K + x != K."""
    if 0 not in k:
        return "subgroup must contain 0"
    for x in sorted(k):
        if {g.add(x, y) for y in k} != k:
            return f"not closed under addition by {g.format_element(x)}"
    return None


def representation_count_oracle(g: GroupSpec, sets: list[set[int]],
                                target: int) -> int:
    count = 0
    for combo in product(*[sorted(a) for a in sets]):
        total = 0
        for x in combo:
            total = g.add(total, x)
        if total == target:
            count += 1
    return count


def davenport_oracle(g: GroupSpec) -> int:
    """Least d such that every length-d sequence has a nonempty zero-sum
    subsequence; checked by enumerating all multisets of each length."""
    from itertools import combinations_with_replacement

    def has_zero_subsum(terms):
        reach = set()
        for t in terms:
            reach |= {g.add(x, t) for x in reach} | {t}
        return 0 in reach

    d = 1
    while True:
        if all(has_zero_subsum(terms)
               for terms in combinations_with_replacement(range(g.order), d)):
            return d
        d += 1


def _prime_powers(m: int) -> list[tuple[int, int]]:
    """(p, a) for each prime p dividing m, p ascending, p^a exactly dividing m."""
    out = []
    p = 2
    while m > 1:
        a = 0
        while m % p == 0:
            m //= p
            a += 1
        if a:
            out.append((p, a))
        p += 1
    return out


def normalize_factors_oracle(factors) -> tuple[int, ...]:
    """Invariant-factor chain of C_{f1} x ... x C_{fk} from its elementary
    divisors: each prime's largest power goes into the last factor, its next
    largest into the one before, and so on."""
    by_prime: dict[int, list[int]] = {}
    for f in factors:
        for p, a in _prime_powers(f):
            by_prime.setdefault(p, []).append(a)
    if not by_prime:
        return (1,)
    chain = [1] * max(len(v) for v in by_prime.values())
    for p, exps in by_prime.items():
        for i, a in enumerate(sorted(exps, reverse=True)):
            chain[i] *= p ** a
    return tuple(reversed(chain))


def abelian_groups_oracle(m: int) -> list[tuple[int, ...]]:
    """Invariant-factor chains of the abelian groups of order m, listed as
    abelian_groups_of_order lists them: each prime's exponent partitions are
    merged in turn into the chains built from the smaller primes, which vary
    fastest."""
    def partitions(a: int, largest: int):
        if a == 0:
            yield []
        for first in range(min(a, largest), 0, -1):
            for rest in partitions(a - first, first):
                yield [first] + rest

    chains: list[list[int]] = [[]]
    for p, a in _prime_powers(m):
        merged_chains = []
        for part in partitions(a, a):
            powers = [p ** e for e in reversed(part)]  # ascending
            for base in chains:
                base = [1] * (len(powers) - len(base)) + base
                padded = [1] * (len(base) - len(powers)) + powers
                merged_chains.append([x * y for x, y in zip(base, padded)])
        chains = merged_chains
    return [tuple(c) or (1,) for c in chains]


def subset(g: GroupSpec, indices) -> GroupSubset:
    return GroupSubset.from_indices(g, indices)


def subgroup(g: GroupSpec, indices) -> Subgroup:
    return Subgroup(GroupSubset.from_indices(g, indices))


def _sum_of_parts(g: GroupSpec, parts_bits) -> int:
    acc = 1
    for b in parts_bits:
        acc = sum_masks(g, acc, b)
    return acc


def improve_oracle(s: GSequence, parts: list[int], best: int) -> bool:
    """setpartitions._improve as it was before it kept one partial sum per
    part pair: the same moves in the same order, each scored by summing all
    n parts afresh.  Applies the first improving move to parts and returns
    whether there was one."""
    g = s.group
    used = [0] * g.order
    for b in parts:
        for i in iter_bits(b):
            used[i] += 1
    spare = [u for u, (m, c) in enumerate(zip(s.mult, used)) if m > c]
    for i, part in enumerate(parts):
        rest = _sum_of_parts(g, parts[:i] + parts[i + 1:])
        for e in iter_bits(part):
            for u in spare:
                cand = (part & ~(1 << e)) | (1 << u)
                if not (part >> u) & 1 and sum_masks(g, rest, cand).bit_count() > best:
                    parts[i] = cand
                    return True
        for j, other in enumerate(parts):
            if j == i:
                continue
            for e in iter_bits(part & ~other):
                moves = [(part & ~(1 << e), other | (1 << e))] if part.bit_count() >= 2 else []
                moves += [((part & ~(1 << e)) | (1 << f), (other & ~(1 << f)) | (1 << e))
                          for f in iter_bits(other & ~part)]
                for cand_i, cand_j in moves:
                    trial = parts[:]
                    trial[i], trial[j] = cand_i, cand_j
                    if _sum_of_parts(g, trial).bit_count() > best:
                        parts[i], parts[j] = cand_i, cand_j
                        return True
    return False


def spread_outside_terms_oracle(g: GroupSpec, parts: list[int], z: int,
                                target: int) -> Optional[list[int]]:
    """setpartitions._spread_outside_terms as it was before it kept one
    partial sum per part pair: the same moves in the same order, each scored
    by summing all n parts afresh."""
    while True:
        over = next((i for i, b in enumerate(parts) if (b & ~z).bit_count() > 1), None)
        if over is None:
            return parts
        moves = ((e, j, f) for e in iter_bits(parts[over] & ~z)
                 for j, b in enumerate(parts) if not b & ~z
                 for f in (-1, *iter_bits(b & ~parts[over])))
        for e, j, f in moves:
            trial = parts[:]
            trial[over] &= ~(1 << e)
            trial[j] |= 1 << e
            if f >= 0:
                trial[over] |= 1 << f
                trial[j] &= ~(1 << f)
            if _sum_of_parts(g, trial) == target:
                parts = trial
                break
        else:
            return None


# ---------------------------------------------------------------------------
# sequence helpers only the tests use


def from_terms(g: GroupSpec, terms) -> GSequence:
    """The sequence holding each listed element index once per listing."""
    mult = [0] * g.order
    for t in terms:
        mult[t] += 1
    return GSequence(g, mult)


def remove(s: GSequence, other: GSequence) -> GSequence:
    """s with the terms of other removed; other | s required."""
    if not other.is_subsequence_of(s):
        raise SequenceError("removal of a non-subsequence")
    return GSequence(s.group, [a - b for a, b in zip(s.mult, other.mult)])


def underlying_sequence(partition: SetPartition) -> GSequence:
    """S(A): each element once per part that holds it."""
    g = partition.group
    return GSequence(g, [sum((p >> i) & 1 for p in partition.parts) for i in range(g.order)])


# ---------------------------------------------------------------------------
# dense references for the loops that run over supp(S)


def dense_terms(s: GSequence) -> list[int]:
    """Each term once per multiplicity, ascending element index."""
    return [i for i, m in enumerate(s.mult) for _ in range(m)]


def dense_count_outside(s: GSequence, mask: int) -> int:
    return sum(m for i, m in enumerate(s.mult) if not (mask >> i) & 1)


def dense_format(s: GSequence) -> str:
    return ";".join(s.group.format_element(i) + (f"^{m}" if m > 1 else "")
                    for i, m in enumerate(s.mult) if m)


def dense_max_multiplicity(s: GSequence) -> int:
    return max(s.mult, default=0)


def dense_is_subsequence(s: GSequence, t: GSequence) -> bool:
    return all(a <= b for a, b in zip(s.mult, t.mult))


def dense_round_robin(s: GSequence, n: int) -> list[int]:
    """Part bitmasks of setpartitions._round_robin: term t of S, ascending, into part t mod n."""
    bits = [0] * n
    for t, i in enumerate(dense_terms(s)):
        bits[t % n] |= 1 << i
    return bits


def dense_push_forward(s: GSequence, images: list[int], q_order: int) -> list[int]:
    mult = [0] * q_order
    for i, m in enumerate(s.mult):
        mult[images[i]] += m
    return mult
