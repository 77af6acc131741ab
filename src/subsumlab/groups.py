"""Finite abelian group arithmetic and dense subset algebra.

Elements of a group C_{m1} x ... x C_{mr} (with m1 | m2 | ... | mr) are
mixed-radix tuples (c1, ..., cr), 0 <= ci < mi, encoded little-endian into a
single index in [0, |G|).  Subsets are arbitrary-precision integers used as
dense bit vectors over the index space; translating a subset by a group
element decomposes into one masked rotation per coordinate, so every subset
operation is a handful of big-int operations regardless of |G|.

A subgroup is a bitmask too, grown one cyclic subgroup at a time by
doubling (_join_cyclic).  G/H is read off the Smith form of G's relations
m_i e_i together with a few generators of H: QuotientStructure keeps the
image of every element and the least element of every coset, and
quotient_decompose checks that the map is onto G/H with kernel exactly H.

There is one GroupSpec per invariant factor chain: GroupSpec(factors)
returns it, make_group reads the chain of any factor list off the same Smith
form, and groups are compared with `is`.  Everything here is exact and
immutable; make_group caps |G| at 4096.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from typing import Iterable, Iterator, Sequence

DEFAULT_ORDER_CAP = 4096


class InputError(ValueError):
    """Base of the library's input errors, so the CLI maps each to its exit
    code without importing the module that defines it: 2, a usage error,
    except for HypothesesUnmetError's verdict 1."""

    exit_code = 2


class GroupError(InputError):
    """Invalid group construction or mismatched-group operation."""


# the one GroupSpec of each invariant factor chain
_SPECS: dict[tuple[int, ...], "GroupSpec"] = {}


class GroupSpec:
    """A finite abelian group given by its invariant factor chain.

    GroupSpec(factors) returns the one object for its chain, so two groups
    are the same exactly when they are the same object (`is`); copy,
    deepcopy and pickle give that object back too.
    """

    __slots__ = (
        "invariant_factors", "order", "exponent", "rank", "strides",
        "full_mask", "_rot_cache", "_plans", "_neg_cache", "_order_cache",
        "_literals", "_literal_index",
    )

    def __new__(cls, invariant_factors: Sequence[int]) -> "GroupSpec":
        factors = tuple(invariant_factors)
        spec = _SPECS.get(factors)
        if spec is not None:
            return spec
        if not factors or any(m < 1 for m in factors):
            raise GroupError(f"invariant factors must be positive: {factors}")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise GroupError(f"not a divisibility chain: {factors}")
        self = object.__new__(cls)
        self.invariant_factors = factors
        self.order = math.prod(factors)
        self.exponent = factors[-1]
        self.rank = len(factors)
        self.strides = tuple(math.prod(factors[:i]) for i in range(self.rank))
        self.full_mask = (1 << self.order) - 1
        self._rot_cache: dict[tuple[int, int], tuple[int, int, int, int]] = {}
        self._plans: list[tuple | None] = [None] * self.order
        self._neg_cache: list[int] | None = None
        self._order_cache: list[int] | None = None
        self._literals: list[str] | None = None
        self._literal_index: dict[str, int] | None = None
        # a thread that registered the chain first wins
        return _SPECS.setdefault(factors, self)

    def __reduce__(self):
        return GroupSpec, (self.invariant_factors,)

    # -- formatting -----------------------------------------------------------

    def __repr__(self) -> str:
        return f"GroupSpec({list(self.invariant_factors)})"

    def spec_string(self) -> str:
        return "x".join(str(m) for m in self.invariant_factors)

    @property
    def d_star(self) -> int:
        """d*(G) = sum of (m_i - 1) over the invariant factors m_i."""
        return sum(m - 1 for m in self.invariant_factors)

    # -- element arithmetic ---------------------------------------------------

    def coords(self, index: int) -> tuple[int, ...]:
        out = []
        for m in self.invariant_factors:
            out.append(index % m)
            index //= m
        return tuple(out)

    def index(self, coords: Sequence[int]) -> int:
        if len(coords) != self.rank:
            raise GroupError(f"expected {self.rank} coordinates, got {len(coords)}")
        idx = 0
        for c, m, s in zip(coords, self.invariant_factors, self.strides):
            idx += (c % m) * s
        return idx

    def add(self, a: int, b: int) -> int:
        if self.rank == 1:
            return (a + b) % self.order
        idx = 0
        for m, s in zip(self.invariant_factors, self.strides):
            idx += ((a // s + b // s) % m) * s
        return idx

    def neg(self, a: int) -> int:
        cache = self._neg_cache
        if cache is None:
            cache = [self.index(tuple((-c) % m for c, m in zip(self.coords(i), self.invariant_factors)))
                     for i in range(self.order)]
            self._neg_cache = cache
        return cache[a]

    def scale(self, k: int, a: int) -> int:
        """k*a for integer k (k may be negative)."""
        idx = 0
        for m, s in zip(self.invariant_factors, self.strides):
            idx += ((k * ((a // s) % m)) % m) * s
        return idx

    def element_order(self, a: int) -> int:
        cache = self._order_cache
        if cache is None:
            cache = [0] * self.order
            self._order_cache = cache
        o = cache[a]
        if o:
            return o
        o = 1
        for c, m in zip(self.coords(a), self.invariant_factors):
            if c:
                o = math.lcm(o, m // math.gcd(c, m))
        cache[a] = o
        return o

    # -- bitmask translation --------------------------------------------------

    def _rot_params(self, axis: int, d: int) -> tuple[int, int, int, int]:
        key = (axis, d)
        params = self._rot_cache.get(key)
        if params is None:
            m = self.invariant_factors[axis]
            stride = self.strides[axis]
            period = stride * m
            shift = d * stride
            keep = period - shift
            low_block = (1 << keep) - 1
            high_block = ((1 << shift) - 1) << keep
            low = high = 0
            for off in range(0, self.order, period):
                low |= low_block << off
                high |= high_block << off
            params = (low, high, shift, keep)
            self._rot_cache[key] = params
        return params

    def translate_plan(self, b: int) -> tuple:
        """The masked rotations (_rot_params) of b's nonzero coordinates, built on first use."""
        plan = self._plans[b]
        if plan is None:
            plan = self._plans[b] = tuple(
                self._rot_params(axis, c) for axis, c in enumerate(self.coords(b)) if c)
        return plan

    def translate_mask(self, mask: int, b: int) -> int:
        """Bitmask of {x + b : x in mask}, by b's translate_plan."""
        for low, high, shift, keep in self._plans[b] or self.translate_plan(b):
            mask = ((mask & low) << shift) | ((mask & high) >> keep)
        return mask

    def literals(self) -> list[str]:
        """Canonical literal of every element by index, built on first use:
        a bare int for rank 1, '(c1,...,cr)' otherwise."""
        lits = self._literals
        if lits is None:
            if self.rank == 1:
                lits = [str(i) for i in range(self.order)]
            else:
                # product varies its last axis fastest, the index its first
                axes = [[str(c) for c in range(m)] for m in reversed(self.invariant_factors)]
                lits = ["(" + ",".join(reversed(t)) + ")" for t in itertools.product(*axes)]
            self._literals = lits
        return lits

    def literal_index(self) -> dict[str, int]:
        """The inverse of literals(): canonical literal -> element index."""
        index = self._literal_index
        if index is None:
            index = self._literal_index = {t: i for i, t in enumerate(self.literals())}
        return index

    def format_element(self, index: int) -> str:
        return self.literals()[index]


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class GroupSubset:
    """Dense subset of a GroupSpec, stored as a bitmask over element indices."""

    __slots__ = ("group", "bits", "_size")

    def __init__(self, group: GroupSpec, bits: int):
        if bits < 0 or bits >> group.order:
            raise GroupError("bitmask out of range for group")
        self.group = group
        self.bits = bits
        self._size = -1

    @classmethod
    def from_indices(cls, group: GroupSpec, indices) -> "GroupSubset":
        bits = 0
        for i in indices:
            if not 0 <= i < group.order:
                raise GroupError(f"element index {i} out of range")
            bits |= 1 << i
        return cls(group, bits)

    @property
    def size(self) -> int:
        if self._size < 0:
            self._size = self.bits.bit_count()
        return self._size

    def __len__(self) -> int:
        return self.size

    def __contains__(self, index: int) -> bool:
        return bool((self.bits >> index) & 1)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GroupSubset)
                and other.group is self.group and other.bits == self.bits)

    def __hash__(self) -> int:
        return hash((self.group, self.bits))

    def __repr__(self) -> str:
        return f"GroupSubset({self.group.spec_string()}, {{{self.format()}}})"

    def format(self) -> str:
        lits = self.group.literals()
        return ",".join(lits[i] for i in self.indices())

    def indices(self) -> Iterator[int]:
        return iter_bits(self.bits)


class Subgroup:
    """A verified subgroup; carrier is closed under addition and contains 0.

    Equal, and hashed alike, exactly when group and carrier bits match,
    without a per-call tuple or GroupSubset compare, since quotient_cached
    looks a Subgroup up on every profile."""

    __slots__ = ("carrier",)

    def __init__(self, carrier: GroupSubset):
        self.carrier = carrier

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        a, b = self.carrier, other.carrier
        return a.bits == b.bits and a.group is b.group

    def __hash__(self) -> int:
        return hash((self.carrier.group, self.carrier.bits))

    @property
    def group(self) -> GroupSpec:
        return self.carrier.group

    @property
    def order(self) -> int:
        return self.carrier.size

    @property
    def is_trivial(self) -> bool:
        return self.carrier.size == 1

    @property
    def is_full(self) -> bool:
        return self.carrier.size == self.carrier.group.order

    def __contains__(self, index: int) -> bool:
        return index in self.carrier

    def contains_subgroup(self, other: "Subgroup") -> bool:
        _check_same_group(self, other)
        return other.carrier.bits & ~self.carrier.bits == 0


def _check_same_group(a, b) -> None:
    ga = a.group if hasattr(a, "group") else a
    gb = b.group if hasattr(b, "group") else b
    if ga is not gb:
        raise GroupError(f"mixed groups: {ga!r} vs {gb!r}")


# ---------------------------------------------------------------------------
# construction / parsing


def smallest_prime_divisor(m: int) -> int:
    """Least prime dividing m; m itself when m is prime or m < 2."""
    d = 2
    while d * d <= m:
        if m % d == 0:
            return d
        d += 1
    return m


def _prime_power_split(m: int) -> dict[int, int]:
    out: dict[int, int] = {}
    while m > 1:
        p = smallest_prime_divisor(m)
        out[p] = out.get(p, 0) + 1
        m //= p
    return out


def make_group(factors: Sequence[int]) -> GroupSpec:
    """The GroupSpec of C_{f1} x ... x C_{fk} for positive factors f_i in any
    order (e.g. [4,2] -> [2,4], [6,10] -> [2,30]): its chain is the Smith form
    of diag(f_1, ..., f_k) without the 1s.

    |G| > DEFAULT_ORDER_CAP is refused before normalizing and before
    GroupSpec allocates O(|G|) tables.
    """
    if not factors:
        raise GroupError("empty factor list")
    if min(factors) <= 0:
        raise GroupError(f"factor must be positive: {min(factors)}")
    order = math.prod(factors)
    if order > DEFAULT_ORDER_CAP:
        raise GroupError(f"group order {order} exceeds the cap {DEFAULT_ORDER_CAP}")
    k = len(factors)
    d, _ = _smith_columns([[f if j == i else 0 for j in range(k)] for i, f in enumerate(factors)])
    return GroupSpec(tuple(x for x in d if x > 1) or (1,))


def parse_int(text: str) -> int:
    """An optional '-' and ASCII digits amid whitespace; ValueError on anything
    else, such as the '+3', '1_0' and non-ASCII digits that int() reads."""
    if not re.fullmatch(r"\s*-?[0-9]+\s*", text):
        raise ValueError(f"not an integer literal: {text!r}")
    return int(text)


def parse_group(text: str) -> GroupSpec:
    """Parse a spec string like '2x4x8'."""
    parts = text.strip().split("x")
    try:
        factors = [parse_int(p) for p in parts]
    except ValueError:
        raise GroupError(f"bad group spec {text!r}") from None
    return make_group(factors)


def parse_element(group: GroupSpec, text: str) -> int:
    """Parse an element literal: bare int for rank 1, '(c1,...,cr)' otherwise."""
    text = text.strip()
    if text.startswith("("):
        if not text.endswith(")"):
            raise GroupError(f"bad element literal {text!r}")
        try:
            coords = [parse_int(t) for t in text[1:-1].split(",")]
        except ValueError:
            raise GroupError(f"bad element literal {text!r}") from None
        return group.index(coords)
    try:
        value = parse_int(text)
    except ValueError:
        raise GroupError(f"bad element literal {text!r}") from None
    if group.rank != 1:
        raise GroupError(f"bare integer element for rank-{group.rank} group")
    return value % group.order


# ---------------------------------------------------------------------------
# subset operations


def sum_masks(g: GroupSpec, a: int, b: int) -> int:
    """Bitmask of A + B for bitmasks a, b over g (0 when either is empty).

    Translates the operand with more elements by each element of the other.
    """
    if a.bit_count() < b.bit_count():
        a, b = b, a
    out = 0
    while b:
        low = b & -b
        out |= g.translate_mask(a, low.bit_length() - 1)
        b ^= low
    return out


def sum_of_masks(g: GroupSpec, masks: Iterable[int]) -> int:
    """Bitmask of the n-fold sum of the given bitmasks; {0} for none.  The
    singletons only translate, so their elements are summed and applied once."""
    acc, shift = 1, 0
    for b in masks:
        if b & (b - 1):
            acc = sum_masks(g, acc, b)
        elif b:
            shift = g.add(shift, b.bit_length() - 1)
        else:
            return 0
    return g.translate_mask(acc, shift) if shift else acc


def sumset(a: GroupSubset, b: GroupSubset) -> GroupSubset:
    """A + B = {x + y : x in A, y in B}."""
    _check_same_group(a, b)
    if a.bits == 0 or b.bits == 0:
        raise GroupError("sumset of empty set")
    return GroupSubset(a.group, sum_masks(a.group, a.bits, b.bits))


def iterated_sumset(a: GroupSubset, n: int) -> GroupSubset:
    """nA, with 0A = {0}.  Early-exits once further summands only translate."""
    if n < 0:
        raise GroupError("negative iteration count")
    g = a.group
    if n == 0:
        return GroupSubset(g, 1)
    if a.bits == 0:
        raise GroupError("iterated sumset of empty set")
    a0 = next(iter_bits(a.bits))
    result = a
    for step in range(1, n):
        nxt = sumset(result, a)
        if nxt.bits == g.translate_mask(result.bits, a0):
            # stabilized: each remaining summand is a translation by a0
            remaining = n - step
            return GroupSubset(g, g.translate_mask(result.bits, g.scale(remaining, a0)))
        result = nxt
    return result


def representation_min(summands: Sequence[GroupSubset]) -> tuple[int, int]:
    """(min over x in the sumset of r(x), the least x attaining it), where
    r(x) is the number of tuples in A1 x ... x An with sum x."""
    if not summands:
        raise GroupError("no summands")
    g = summands[0].group
    for s in summands[1:]:
        _check_same_group(s, summands[0])
    counts = [0] * g.order
    counts[0] = 1
    for subset in summands:
        nxt = [0] * g.order
        for a in iter_bits(subset.bits):
            for i, c in enumerate(counts):
                if c:
                    nxt[g.add(i, a)] += c
        counts = nxt
    best = None
    best_x = -1
    for x, c in enumerate(counts):
        if c and (best is None or c < best):
            best, best_x = c, x
    return best, best_x


def stabilizer(a: GroupSubset) -> Subgroup:
    """H(A) = {x : x + A = A}, the maximal period of A.

    Intersects C = (W - w_1) & (W - w_2) & ... over W, the smaller of A and
    its complement (both have period H).  H <= W - w for every w in W, so
    H <= C at every step, and C = {x : x + W <= W} = H once all of W is
    used.  The scan stops early at C = {0}, or when an intersection leaves
    C unchanged and C's _least_generators are all periods of W: periods of
    W that generate a subgroup containing C give C <= H.  Each C is tested
    at most once.
    """
    if a.bits == 0:
        raise GroupError("stabilizer of empty set")
    g = a.group
    w = a.bits
    if 2 * w.bit_count() > g.order:
        w ^= g.full_mask
        if not w:
            return Subgroup(GroupSubset(g, g.full_mask))
    c = tested = -1
    for x in iter_bits(w):
        nxt = c & g.translate_mask(w, g.neg(x))
        if nxt == c != tested:
            if all(g.translate_mask(w, y) == w for y in _least_generators(g, c)):
                break
            tested = c
        c = nxt
        if c == 1:
            break
    return Subgroup(GroupSubset(g, c))


def _least_generators(g: GroupSpec, bits: int) -> Iterator[int]:
    """Each least element of bits outside the span of the earlier ones, until
    their span contains bits."""
    span = 1
    while rest := bits & ~span:
        x = next(iter_bits(rest))
        yield x
        span = _join_cyclic(g, span, x)


def _join_cyclic(g: GroupSpec, span: int, x: int) -> int:
    """Bitmask of span + <x> for a subgroup bitmask span.

    span + {0, ..., 2^t - 1}x stops growing only once it is span + <x>:
    fewer than ord(x) consecutive cosets never have period 2^t x.
    """
    step = x
    while (nxt := span | g.translate_mask(span, step)) != span:
        span, step = nxt, g.add(step, step)
    return span


def subgroup_generated(s: GroupSubset) -> Subgroup:
    """Additive closure of S together with 0."""
    g = s.group
    closure = 1  # contains 0
    for gen in iter_bits(s.bits):
        if not (closure >> gen) & 1:
            closure = _join_cyclic(g, closure, gen)
    return Subgroup(GroupSubset(g, closure))


def affine_span(a: GroupSubset) -> Subgroup:
    """<A>_* = <-a0 + A>: smallest subgroup with A inside one of its cosets."""
    if a.bits == 0:
        raise GroupError("affine span of empty set")
    g = a.group
    a0 = next(iter_bits(a.bits))
    shifted = g.translate_mask(a.bits, g.neg(a0))
    return subgroup_generated(GroupSubset(g, shifted))


def verify_subgroup(g: GroupSpec, carrier: GroupSubset) -> Subgroup:
    """Wrap carrier K as a Subgroup, or raise GroupError.  As in stabilizer, K
    is one iff 0 in K and K + x = K for each x of _least_generators(g, K), as
    then <x> <= K <= sum of the <x>.  Only a reject scans K, for its least bad x."""
    _check_same_group(carrier, g)
    k = carrier.bits
    if not k & 1:
        raise GroupError("subgroup must contain 0")
    if any(g.translate_mask(k, x) != k for x in _least_generators(g, k)):
        x = next(x for x in iter_bits(k) if g.translate_mask(k, x) != k)
        raise GroupError(f"not closed under addition by {g.format_element(x)}")
    return Subgroup(carrier)


# ---------------------------------------------------------------------------
# quotients


def _smith_columns(rows: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Smith form diag(d_1, ..., d_r), d_1 | d_2 | ... | d_r, of an integer
    matrix with r columns and full column rank, and the column transform V:
    U * rows * V = diag(d) for some unimodular U, which is not kept."""
    a = [list(row) for row in rows]
    r = len(a[0])
    v = [[int(i == j) for j in range(r)] for i in range(r)]
    d = []
    for t in range(r):
        while True:
            # pivot: an entry of least absolute value in the minor from (t, t)
            _, i, j = min((abs(x), i, j) for i in range(t, len(a))
                          for j, x in enumerate(a[i][t:], t) if x)
            a[t], a[i] = a[i], a[t]
            for row in a + v:
                row[t], row[j] = row[j], row[t]
            p = a[t][t]
            for i in range(t + 1, len(a)):
                if q := a[i][t] // p:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, r):
                if q := a[t][j] // p:
                    for row in a + v:
                        row[j] -= q * row[t]
            if any(a[i][t] for i in range(t + 1, len(a))) or any(a[t][t + 1:]):
                continue  # a remainder is smaller than the pivot: pivot again
            # p must divide the rest of the minor; else fold a row it does
            # not divide into row t, whose remainders then undercut p
            bad = next((i for i in range(t + 1, len(a))
                        if any(x % p for x in a[i][t + 1:])), None)
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
        d.append(abs(a[t][t]))
    return d, v


def _quotient_generators(g: GroupSpec, hbits: int) -> tuple[GroupSpec, list[int]]:
    """G/H as a GroupSpec and the images there of G's standard generators e_i.

    G/H is Z^r modulo the rows m_i e_i and the coordinates of H's
    _least_generators.  With U * rows * V = diag(d) in Smith form,
    c -> cV mod d maps Z^r onto the product of the C_d, d > 1, with exactly
    that kernel, so e_i goes to row i of V reduced mod d.
    """
    rows = [[m if j == i else 0 for j in range(g.rank)]
            for i, m in enumerate(g.invariant_factors)]
    rows += [list(g.coords(x)) for x in _least_generators(g, hbits)]
    d, v = _smith_columns(rows)
    keep = [j for j in range(g.rank) if d[j] > 1]
    spec = GroupSpec(tuple(d[j] for j in keep) or (1,))
    return spec, [sum(row[j] % d[j] * s for j, s in zip(keep, spec.strides)) for row in v]


class QuotientStructure:
    """G/H as a GroupSpec: images maps each element of G to its quotient_spec
    index, and representatives each quotient_spec index to the least element
    of its coset of H."""

    __slots__ = ("parent", "subgroup", "images", "representatives", "quotient_spec")

    def __init__(self, parent: GroupSpec, subgroup: Subgroup, images: list[int],
                 representatives: list[int], quotient_spec: GroupSpec):
        self.parent, self.subgroup, self.images = parent, subgroup, images
        self.representatives, self.quotient_spec = representatives, quotient_spec

    def image_mask(self, mask: int) -> int:
        images = self.images
        out = 0
        for i in iter_bits(mask):
            out |= 1 << images[i]
        return out

    def preimage_mask(self, qmask: int) -> int:
        out = 0
        hbits = self.subgroup.carrier.bits
        for q in iter_bits(qmask):
            out |= self.parent.translate_mask(hbits, self.representatives[q])
        return out


def quotient_decompose(g: GroupSpec, h: Subgroup) -> QuotientStructure:
    """G/H from the Smith form of H's relations (_quotient_generators).

    The image of each element c = sum c_i e_i, 0 <= c_i < m_i, is tabulated
    as sum c_i f(e_i) from the generator images f(e_i), then three checks
    make the table a surjective homomorphism with kernel exactly H:
      - m_i f(e_i) = 0 for every i, so c -> sum c_i f(e_i), a homomorphism
        on Z^r, vanishes on the relations m_i e_i and is one on G;
      - every element of H maps to 0, so H lies in the kernel;
      - every quotient index is hit and |G/H| |H| = |G|, so the kernel has
        |G| / |G/H| = |H| elements and is H (which also makes H a subgroup).
    GroupError is raised when any of them fails.  Costs O(|G| rank(G/H))
    integer operations.
    """
    _check_same_group(h.carrier, g)
    hbits = h.carrier.bits
    spec, gens = _quotient_generators(g, hbits)
    gen_coords = [spec.coords(f) for f in gens]
    images = [0] * g.order
    for j, (d, stride) in enumerate(zip(spec.invariant_factors, spec.strides)):
        # coordinate j of every image, axis by axis of G: the index of G
        # runs over axis i's coordinate outside the earlier axes
        col = [0]
        for m, f in zip(g.invariant_factors, gen_coords):
            col = [(a + c * f[j]) % d for c in range(m) for a in col]
        images = [x + y * stride for x, y in zip(images, col)]
    reps = [-1] * spec.order
    for x in range(g.order - 1, -1, -1):
        reps[images[x]] = x
    if any(spec.scale(m, f) for m, f in zip(g.invariant_factors, gens)):
        raise GroupError("quotient map is not well defined on G")
    if any(images[x] for x in iter_bits(hbits)):
        raise GroupError("quotient map does not send H to 0")
    if -1 in reps or spec.order * h.order != g.order:
        raise GroupError("quotient map is not onto a group of order |G|/|H|")
    return QuotientStructure(g, h, images, reps, spec)


# quotients quotient_cached keeps, least recently used evicted first
QUOTIENT_CACHE_SIZE = 512


@functools.lru_cache(maxsize=QUOTIENT_CACHE_SIZE)
def quotient_cached(g: GroupSpec, h: Subgroup) -> QuotientStructure:
    return quotient_decompose(g, h)


def enumerate_subgroups(g: GroupSpec) -> list[Subgroup]:
    """All subgroups of G, sorted by (size, carrier bitmask)."""
    seen = {1}  # trivial subgroup bitmask
    frontier = [1]
    while frontier:
        bits = frontier.pop()
        for e in range(1, g.order):
            if (bits >> e) & 1:
                continue
            new = _join_cyclic(g, bits, e)
            if new not in seen:
                seen.add(new)
                frontier.append(new)
    masks = sorted(seen, key=lambda b: (b.bit_count(), b))
    return [Subgroup(GroupSubset(g, b)) for b in masks]


def abelian_groups_of_order(m: int) -> list[GroupSpec]:
    """All abelian groups of order m, as invariant-factor specs."""
    if m < 1:
        raise GroupError("order must be positive")

    def partitions(a: int, largest: int) -> Iterator[list[int]]:
        """Partitions of a into parts <= largest, in reverse lexicographic order."""
        if a == 0:
            yield []
        for first in range(min(a, largest), 0, -1):
            for rest in partitions(a - first, first):
                yield [first, *rest]

    # a choice of one partition of each prime's exponent; product varies its
    # last argument fastest, and the listing the first prime
    choices = [[[p ** e for e in part] for part in partitions(a, a)]
               for p, a in reversed(_prime_power_split(m).items())]
    return [make_group([f for powers in combo for f in powers] or [1])
            for combo in itertools.product(*choices)]
