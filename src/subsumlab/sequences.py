"""Sequences (multisets) over a finite abelian group and subsequence-sum tools.

A sequence is stored as a multiplicity vector indexed by element index; all
the standard functionals (sigma, h, supp, n-term subsums) are multiplicity
based.  n-term subsums are computed by a bounded-knapsack DP over bitmask
rows, one row per chosen-count.
"""

from __future__ import annotations

import itertools
import warnings
from array import array
from typing import Sequence

from .groups import (
    GroupError,
    GroupSpec,
    GroupSubset,
    InputError,
    Subgroup,
    QuotientStructure,
    iter_bits,
    parse_element,
    parse_int,
    quotient_cached,
    stabilizer,
)

DEFAULT_ROW_CAP = 2 ** 16   # rows of the Sigma_n DP; see _subsum_rows


class SequenceError(InputError):
    """Invalid sequence operation (bad lengths, mismatched groups, ...)."""


class InternalError(RuntimeError):
    """A step the theory guarantees has failed; carries an instance dump."""

    def __init__(self, message: str, dump: dict):
        super().__init__(message)
        self.dump = dump


class GSequence:
    """Multiset of group elements with cached length and support.  supp(S) is
    built on first use and kept: the bound audit never reads most supports, a
    certify request at |G| = 1024 reads each several times.  An array("H")
    holds it, two bytes per index < DEFAULT_ORDER_CAP = 4096, not a tuple."""

    __slots__ = ("group", "mult", "length", "_supp")

    def __init__(self, group: GroupSpec, mult: Sequence[int]):
        if len(mult) != group.order:
            raise SequenceError("multiplicity vector length must equal |G|")
        self.mult = tuple(mult)
        if min(self.mult) < 0:   # mult has |G| >= 1 entries
            raise SequenceError("negative multiplicity")
        self.group = group
        self.length = sum(self.mult)
        self._supp = None

    @classmethod
    def _derived(cls, group: GroupSpec, mult: tuple[int, ...], length: int) -> "GSequence":
        """Trusted constructor for vectors the library derives itself: mult
        is a tuple of |G| non-negative ints summing to length, so __init__'s
        checks are skipped.  Input from outside goes through __init__."""
        seq = object.__new__(cls)
        seq.group, seq.mult, seq.length, seq._supp = group, mult, length, None
        return seq

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GSequence)
                and other.group is self.group and other.mult == self.mult)

    def __hash__(self) -> int:
        return hash((self.group, self.mult))

    def __repr__(self) -> str:
        return f"GSequence({self.group.spec_string()}, {self.format()!r})"

    def support_indices(self) -> array:
        """supp(S) ascending, built on first use; callers only read it."""
        if self._supp is None:
            self._supp = array("H", itertools.compress(range(len(self.mult)), self.mult))
        return self._supp

    def support(self) -> GroupSubset:
        return GroupSubset.from_indices(self.group, self.support_indices())

    # plain loops over supp(S) beat max()/all() over maps or all of mult, even at |G| = 8
    def max_multiplicity(self) -> int:
        mult, h = self.mult, 0
        for i in self.support_indices():
            if mult[i] > h:
                h = mult[i]
        return h

    def is_subsequence_of(self, other: "GSequence") -> bool:
        if other is self:
            return True
        if other.group is not self.group:
            raise SequenceError("mixed groups")
        mult, omult = self.mult, other.mult
        for i in self.support_indices():
            if mult[i] > omult[i]:
                return False
        return True

    def count_outside(self, mask: int) -> int:
        return sum(self.mult[i] for i in self.support_indices() if not (mask >> i) & 1)

    def format(self) -> str:
        lits, mult = self.group.literals(), self.mult
        return ";".join(lits[i] if mult[i] == 1 else f"{lits[i]}^{mult[i]}"
                        for i in self.support_indices())


def parse_sequence(group: GroupSpec, text: str) -> GSequence:
    """Parse sequence literal 'elem(^count)?(;elem(^count)?)*', e.g. '0^2;4^2'."""
    text = "".join(text.split())
    mult = [0] * group.order
    for term in text.split(";") if text else ():
        if "^" in term:
            elem_text, _, count_text = term.rpartition("^")
            try:
                count = parse_int(count_text)
            except ValueError:
                raise SequenceError(f"bad multiplicity in {term!r}") from None
            if count < 0:
                raise SequenceError(f"negative multiplicity in {term!r}")
        else:
            elem_text, count = term, 1
        mult[parse_element(group, elem_text)] += count
    return GSequence(group, mult)


# ---------------------------------------------------------------------------
# subsequence sums


def subsum_table(s: GSequence, cap: int) -> list[int]:
    """Bitmasks of Sigma_j(S) for j = 0..cap (rows[0] = {0})."""
    return _subsum_rows(s, cap, 0)


# The last Sigma_n DP as one (key, subset) tuple, key = (invariant factors,
# mult, n), which fixes the group law and the DP's whole input.  Only
# nterm_subsums writes it, so a hit is what a fresh DP would return, and one
# tuple (never two globals) means a race can only cost a recompute.  A hit
# returns the same subset, on which stabilizer keeps H once computed.
_last_nterm: tuple = (None, 0)


def nterm_subsums(s: GSequence, n: int) -> GroupSubset:
    """Sigma_n(S): sums of all length-n subsequences; repeat calls on the
    same (G, S, n) are served from a one-entry memo."""
    global _last_nterm
    if not 0 <= n <= s.length:
        raise SequenceError(f"n={n} outside [0, |S|={s.length}]")
    key = (s.group.invariant_factors, s.mult, n)
    last_key, sigma = _last_nterm
    if last_key != key:
        sigma = GroupSubset(s.group, _subsum_rows(s, n, n)[n])
        _last_nterm = (key, sigma)
    return sigma


def refuse_rows(cap: int) -> None:
    """SequenceError when a Sigma_j DP up to j = cap would pass DEFAULT_ROW_CAP."""
    if cap > DEFAULT_ROW_CAP:
        raise SequenceError(f"Sigma_j DP up to j = {cap} exceeds the row cap {DEFAULT_ROW_CAP}")


def _subsum_rows(s: GSequence, cap: int, target: int) -> list[int]:
    """Bounded-knapsack DP, one 0/1 bundle of copies at a time, rows descending.

    An element of multiplicity m enters as bundles of 1, 2, 4, ... copies and
    a clipped last one, min(m, cap) copies in all; every t <= min(m, cap) is
    a sum of distinct bundles, so a row costs O(log m) translations, not O(m).
    Each bundle (over S's kept support) fetches its shift's translate_plan
    once and add_bundle applies it to every row of its window.
    Row j, the sums of j of the terms seen so far, is updated only while it
    is reachable (j <= terms seen) and can still reach row target
    (j >= target - terms left), so rows target..cap come out exact; an
    update reads only rows that were exact one bundle earlier.
    cap > DEFAULT_ROW_CAP is refused before allocation: 2**16 + 1 rows of at
    most 4096 bits take about 36 MB, and every n-threshold of the theorem
    (|G|/p - 1, d*(G), exp(G) + 1, ...) is at most |G| + 1 <= 4097.
    """
    refuse_rows(cap)
    g = s.group
    rows = [0] * (cap + 1)
    rows[0] = 1
    seen, left = 0, s.length
    for idx in s.support_indices():
        m = s.mult[idx]
        left -= m
        m, b, shift = min(m, cap), 1, idx   # shift = b*idx, by doubling
        while m:
            if b > m:
                b, shift = m, g.scale(m, idx)
            m -= b
            plan = g.translate_plan(shift)
            add_bundle(rows, plan, b, min(cap, seen + b), max(b, target - left - m))
            seen += b
            if m:
                b, shift = 2 * b, g.add(shift, shift)
    return rows


def add_bundle(rows: list[int], plan: tuple, b: int, top: int, bottom: int) -> None:
    """rows[j] |= rows[j - b] + b*x for j = top down to bottom, plan = translate_plan(b*x)."""
    for j in range(top, bottom - 1, -1):
        moved = rows[j - b]
        for low, high, rot, keep in plan:   # moved + b*x, as translate_mask
            moved = ((moved & low) << rot) | ((moved & high) >> keep)
        rows[j] |= moved


def push_forward(s: GSequence, q: QuotientStructure) -> GSequence:
    """phi_H(S) as a sequence over the quotient spec."""
    if q.parent is not s.group:
        raise SequenceError("quotient structure over a different group")
    mult = [0] * q.quotient_spec.order
    images = q.images
    for idx in s.support_indices():
        mult[images[idx]] += s.mult[idx]
    return GSequence._derived(q.quotient_spec, tuple(mult), s.length)


class SubsumProfile:
    """Bookkeeping (H, X, e, rho) for the n-term subsum bound, whose one
    value is bound_primary = ((N-1)n + e + 1)|H|.  X is a subset of
    quotient_spec, phi is phi_H(S) over quotient_spec and Z_mask is
    phi_H^{-1}(X) in the parent group."""

    __slots__ = ("H", "quotient", "X", "N", "e", "rho", "n", "ref_len", "sigma_n",
                 "bound_primary", "phi", "Z_mask")

    def __init__(self, H: Subgroup, quotient: QuotientStructure, X: GroupSubset, N: int,
                 e: int, rho: int, n: int, ref_len: int, sigma_n: GroupSubset,
                 bound_primary: int, phi: GSequence, Z_mask: int):
        self.H, self.quotient, self.X, self.N, self.e, self.rho = H, quotient, X, N, e, rho
        self.n, self.ref_len, self.sigma_n, self.bound_primary = n, ref_len, sigma_n, bound_primary
        self.phi, self.Z_mask = phi, Z_mask


def _dump(s: GSequence, n: int) -> dict:
    """The instance an InternalError reports."""
    return {"group": s.group.spec_string(), "S": s.format(), "n": n}


def subsum_profile(s: GSequence, n: int, ref_len: int,
                   sigma: GroupSubset | None = None) -> SubsumProfile:
    """H = H(Sigma_n(S)), X, e and rho = |X||H|n + e - ref_len.

    ref_len is |S| for the plain subsum bound and |S'| when profiling against
    a distinguished subsequence.  sigma, when given, must equal Sigma_n(S)
    (the audit's walk holds it as a row of its own DP); else nterm_subsums
    gives it.  H = stabilizer(sigma) is kept on that subset.  The capped form
    of the bound, (sum_x min(n, v_x(phi(S))) - n + 1)|H|, is bound_primary:
    the sum is N*n + e.
    H = {0} adds no relation to G's Smith form, so quotient_cached(G, {0}) is G
    with images[x] = x (test_trivial_quotient_is_the_identity): phi(S) = S,
    Z = X, and push_forward and preimage_mask are skipped.
    """
    if not 1 <= n <= s.length:
        raise SequenceError(f"n={n} outside [1, |S|={s.length}]")
    sig = sigma if sigma is not None else nterm_subsums(s, n)
    h = stabilizer(sig)
    q = quotient_cached(s.group, h)
    phi_s = s if h.is_trivial else push_forward(s, q)
    # one pass: X = {x : v_x >= n}, e = terms outside X
    mult = phi_s.mult
    x_bits = e = 0
    for idx in phi_s.support_indices():
        if mult[idx] >= n:
            x_bits |= 1 << idx
        else:
            e += mult[idx]
    big_n = x_bits.bit_count()
    order_h = h.order
    rho = big_n * order_h * n + e - ref_len
    bound_primary = ((big_n - 1) * n + e + 1) * order_h
    return SubsumProfile(h, q, GroupSubset(q.quotient_spec, x_bits), big_n, e, rho,
                         n, ref_len, sig, bound_primary, phi_s,
                         x_bits if phi_s is s else q.preimage_mask(x_bits))


def build_s_star(s: GSequence, profile: SubsumProfile, n: int) -> GSequence:
    """S*: every term of phi_H^{-1}(X) raised to multiplicity exactly n.

    |S*| = |S| + rho needs no check: with no term lost, S* is n copies of
    each of the N|H| elements of Z plus the e terms outside Z.  S itself is
    returned when nothing grows, as always when H is trivial and h(S) <= n."""
    if profile.n != n or profile.ref_len != s.length:
        raise SequenceError("profile was not computed from (S, n) with ref_len=|S|")
    # S* differs from S only on Z, so one pass over Z gives the lost-terms
    # test (S | S* iff v_g <= n on Z), the growth |S*| - |S| and whether S* != S
    mult = list(s.mult)
    grown = 0
    for idx in iter_bits(profile.Z_mask):
        m = mult[idx]
        if m > n:
            raise InternalError("S* construction lost terms of S", _dump(s, n))
        grown += n - m
        mult[idx] = n
    if not grown:
        return s
    star = GSequence._derived(s.group, tuple(mult), s.length + grown)
    # Sigma_n(S) <= Sigma_n(S*) already holds (S | S*), and Sigma_n(S) is
    # H-saturated, so equality reduces to equality of quotient images --
    # a DP over the much smaller quotient group.  phi(S*) is phi(S) with
    # every coset in X raised to n|H|, since S* holds each of its
    # elements n times.
    q = profile.quotient
    phi = list(profile.phi.mult)
    full = n * profile.H.order
    for x in iter_bits(profile.X.bits):
        phi[x] = full
    phi_star = GSequence._derived(q.quotient_spec, tuple(phi), star.length)
    if nterm_subsums(phi_star, n).bits != q.image_mask(profile.sigma_n.bits):
        raise InternalError("Sigma_n(S*) != Sigma_n(S)", _dump(s, n))
    return star


# ---------------------------------------------------------------------------
# Davenport constant


def davenport_bruteforce(g: GroupSpec, cap: int = 16) -> int:
    """D(G) by exhaustive search over canonical zero-sum-free sequences.

    Explores sequences in nondecreasing element order, extending only while
    zero-sum-free; D(G) is one more than the longest zero-sum-free length.
    """
    if g.order > cap:
        raise GroupError(f"group order {g.order} exceeds Davenport cap {cap}")
    best = 0

    def extend(min_elem: int, subsums: int, length: int) -> None:
        nonlocal best
        best = max(best, length)
        for e in range(min_elem, g.order):   # min_elem >= 1: 0 is never a term
            new = subsums | g.translate_mask(subsums, e) | (1 << e)
            if not new & 1:  # still zero-sum-free
                extend(e, new, length + 1)

    extend(1, 0, 0)
    d = best + 1
    if not g.d_star + 1 <= d <= g.order:
        warnings.warn(
            f"Davenport value {d} escapes the classical sandwich "
            f"[{g.d_star + 1}, {g.order}] for {g.spec_string()}; "
            "at this scale that indicates a bug", RuntimeWarning)
    return d
