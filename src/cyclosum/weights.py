"""Exact weight sets of vanishing root-of-unity sums, via bitset sumsets.

For a group G of m-th roots of unity inside F_q, the n-fold sumset n*G is
always a union of multiplicative cosets of G (plus possibly {0}), so each
layer is stored as a boolean mask over the d = (q-1)/m cosets together
with a zero flag.  The weight n belongs to the weight set exactly when
layer n contains zero, and consecutive layers differ by one vectorized
pass over at most q index pairs.

Layers are kept so that certificates (explicit vanishing sums) can be read
back off by greedy backtracking.  They are grown and stored only up to
saturation, the first layer holding zero and every coset: every later
layer equals it, so memory is O(s*d) for saturation layer s, however far
the exploration bound reaches.

A certificate is exponent -> count.  Every level above saturation picks
exponent 0, so those levels are counted in one step and only the stored
levels are backtracked; the last of them (layer 0 holds only zero) is one
division.  Weights past the exploration bound first drop blocks of p
copies of exponent 0, which sum to zero, so layers are never grown for
them.

Each field of the gf registry holds one layer engine and one weight set per
m, so compute_weight_set, field_weight_set and minimal_vanishing_sums read
the same layers; a WeightSet carries them as its `field` and `layers`.
Roots and the sums over them come from the field: an engine's exponents
are the field's roots_of_unity array, a certificate exponent j indexes it,
and verification re-evaluates through the field's multiset_sum.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from .errors import (
    DoesNotDivide,
    EnumerationCapExceeded,
    InternalMismatch,
    NotAMember,
    NotPrime,
    PreconditionViolated,
)
from .gf import DEFAULT_SIZE_CAP, FieldTable, build_field
from .ntheory import is_prime, multiplicative_order, prime_factors

DEFAULT_ENUMERATION_CAP = 12


def strip_p_part(p: int, m: int) -> int:
    """Remove every factor of p from m."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if m < 1:
        raise PreconditionViolated(f"m must be >= 1, got {m}")
    while m % p == 0:
        m //= p
    return m


class LayerEngine:
    """Iterated sumsets n*G over a fixed field, one coset bitset per weight.

    Layers are stored up to the saturation layer s, the first one holding
    zero and every coset.  Every later layer equals it, since any x is
    (x - z) + z for a root z, so layer n >= s is read from layer s.
    """

    def __init__(self, table: FieldTable, m: int):
        if m < 2 or table.order % m != 0:
            raise DoesNotDivide(f"need m >= 2 dividing q-1, got m={m}, q={table.q}")
        self.table = table
        self.m = m
        self.d = table.order // m
        self.exponents = table.roots_of_unity(m)
        # coset whose elements are negatives of group members; adding the
        # matching root to such an element is the only way to reach zero
        self.zero_feed_coset = table.neg_one_exp % self.d
        self.masks: list[np.ndarray] = [np.zeros(self.d, dtype=bool)]  # coset bitsets
        self.zeros: list[bool] = [True]  # whether layer n holds zero
        self.saturation: int | None = None

    def grow_to(self, n: int) -> None:
        table = self.table
        q1 = table.order
        while len(self.masks) <= n and self.saturation is None:
            cur = self.masks[-1]
            had_zero = self.zeros[-1]
            cosets = np.flatnonzero(cur)
            nxt = np.zeros(self.d, dtype=bool)
            if cosets.size:
                delta = (self.exponents[None, :] - cosets[:, None]) % q1
                vals = (cosets[:, None] + table.zech[delta]) % self.d
                nxt[vals[delta != table.neg_one_exp]] = True
            if had_zero:
                nxt[0] = True
            self.masks.append(nxt)
            self.zeros.append(bool(cur[self.zero_feed_coset]))
            i = len(self.masks) - 1
            j = i - table.p
            if j >= 0:
                if np.any(self.masks[j] & ~nxt) or (self.zeros[j] and not self.zeros[i]):
                    raise InternalMismatch(f"layer {i} does not contain layer {j}")
            if self.zeros[i] and nxt.all():
                self.saturation = i

    def _stored(self, n: int) -> int:
        """Index of the stored layer equal to layer n."""
        self.grow_to(n)
        return min(n, len(self.masks) - 1)

    def contains_zero(self, n: int) -> bool:
        return self.zeros[self._stored(n)]

    def mask(self, n: int) -> np.ndarray:
        return self.masks[self._stored(n)]

    def extract(self, n: int) -> Counter:
        """Counts of root exponents e, n roots g**(d*e) in all, summing to zero.

        Backtracks from layer n toward layer 0, preferring the least root
        exponent at each step.  Levels above the top stored layer pick
        exponent 0, since the saturated layer below holds everything, so
        they are counted at once and the backtrack starts from the residue
        they leave.  Layer 0 holds only zero, so the level-1 root equals
        the remaining target and its exponent is one division.
        """
        top = self._stored(n)
        table = self.table
        zero_index, d = table.zero_index, self.d
        roots = memoryview(self.exponents)  # reads give Python ints, unlike numpy scalars
        counts: Counter = Counter()
        if n > top:
            counts[0] = n - top
        target = table.index_of_encoding((top - n) % table.p)
        for level in range(top, 1, -1):
            layer, has_zero = self.masks[level - 1], self.zeros[level - 1]
            for e in range(self.m):
                rest = table.sub_index(target, roots[e])
                if rest == zero_index:
                    ok = has_zero
                else:
                    ok = layer[rest % d]
                if ok:
                    counts[e] += 1
                    target = rest
                    break
            else:  # pragma: no cover - membership guaranteed by caller
                raise InternalMismatch("backtracking lost a stored layer")
        if top:
            if target == zero_index or target % d:
                raise InternalMismatch("the last level's target is not a root")
            counts[target // d] += 1
        return counts


@dataclass(frozen=True)
class WeightSet:
    """Exact description of a weight set: explicit members below a bound
    plus a proven arithmetic tail.

    Every n < bound is classified explicitly in members_below; for
    n >= bound, n is a member iff period | n and n >= tail_start.
    """

    p: int
    m: int
    m_prime: int
    k: int
    period: int
    members_below: tuple[int, ...]
    tail_start: int
    bound: int
    # where the set was computed; None for closed forms and for m' = 1
    field: FieldTable | None = dataclasses.field(default=None, compare=False, repr=False)
    layers: LayerEngine | None = dataclasses.field(default=None, compare=False, repr=False)

    @cached_property
    def _members(self) -> frozenset[int]:
        return frozenset(self.members_below)

    def contains(self, n: int) -> bool:
        if n < 0:
            return False
        if n < self.bound:
            return n in self._members
        return n % self.period == 0 and n >= self.tail_start

    def json_dict(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "m_prime": self.m_prime,
            "k": self.k,
            "period": self.period,
            "members_below": list(self.members_below),
            "tail_start": self.tail_start,
            "bound_B": self.bound,
        }


@dataclass(frozen=True)
class Certificate:
    """A verified vanishing sum: n root exponents relative to the canonical
    primitive root of order m' (the p-free part of m)."""

    p: int
    m: int
    n: int
    exponents: tuple[int, ...]


def membership(ws: WeightSet, n: int) -> bool:
    """Exact membership of weight n, explicit below the bound, tail rule above."""
    return ws.contains(n)


def _p_multiple_weight_set(p: int, m: int) -> WeightSet:
    return WeightSet(
        p=p, m=m, m_prime=1, k=1, period=p,
        members_below=(0, p), tail_start=0, bound=p + 1,
    )


def _exploration_bound(p: int, m_prime: int) -> int:
    q_min = prime_factors(m_prime)[0]
    return (p - 1) * (q_min - 1) + p + 1


def _weight_set_on_engine(engine: LayerEngine, m: int, m_prime: int) -> WeightSet:
    p = engine.table.p
    bound = _exploration_bound(p, m_prime)
    engine.grow_to(bound - 1)
    members = [0] + [n for n in range(1, bound) if engine.contains_zero(n)]
    member_set = set(members)
    period = 0
    for n in members[1:]:
        period = math.gcd(period, n)
    period = period or 1
    guaranteed_from = (p - 1) * (prime_factors(m_prime)[0] - 1)
    missing = [n for n in range(guaranteed_from, bound) if n not in member_set]
    if missing:
        raise InternalMismatch(f"weights {missing} missing from the guaranteed tail")
    non_members = [n for n in range(bound) if n % period == 0 and n not in member_set]
    tail_start = (max(non_members) + 1) if non_members else 0
    return WeightSet(
        p=p, m=m, m_prime=m_prime, k=engine.table.k, period=period,
        members_below=tuple(members), tail_start=tail_start, bound=bound,
        field=engine.table, layers=engine,
    )


def _layers(table: FieldTable, m: int) -> LayerEngine:
    """The field's one layer engine for its m-th roots."""
    return table.derived(("layers", m), lambda: LayerEngine(table, m))


def _weight_set_in(table: FieldTable, m: int, m_prime: int) -> WeightSet:
    """The field's one weight set for m, computed on its m'-th roots."""
    return table.derived(
        ("weights", m), lambda: _weight_set_on_engine(_layers(table, m_prime), m, m_prime)
    )


def compute_weight_set(p: int, m: int, size_cap: int = DEFAULT_SIZE_CAP) -> WeightSet:
    """Exact weight set of vanishing sums of m-th roots of unity in
    characteristic p, computed in the smallest splitting field."""
    m_prime = strip_p_part(p, m)
    if m_prime == 1:
        return _p_multiple_weight_set(p, m)
    table = build_field(p, multiplicative_order(p, m_prime), size_cap=size_cap)
    return _weight_set_in(table, m, m_prime)


def field_weight_set(table: FieldTable, m: int) -> WeightSet:
    """Weight set computed on a caller-supplied field containing the roots.

    Same set as compute_weight_set, but layers (hence certificates) live in
    the given field, which is what the diagonal-equation solver needs.
    """
    if m < 1 or table.order % m != 0:
        raise DoesNotDivide(f"{m} does not divide q-1 = {table.order}")
    if m == 1:
        return _p_multiple_weight_set(table.p, 1)
    return _weight_set_in(table, m, m)


def certificate_counts(ws: WeightSet, n: int) -> dict[int, int]:
    """Exponent -> count, in ascending exponent order, of n exponents e_i
    with the roots g**(d*e_i) of ws.field summing to zero, where g is the
    field's generator and d = (q-1)/m'."""
    if not ws.contains(n):
        raise NotAMember(f"{n} is not in the weight set of (p={ws.p}, m={ws.m})")
    if ws.m_prime == 1:
        return {0: n} if n else {}
    if ws.layers is None:
        raise PreconditionViolated("this weight set carries no stored layers")
    padding = 0
    if n >= ws.bound:
        # peel copies of p * 1 = 0 until the stored layers cover the rest
        padding = ws.p * ((n - ws.bound) // ws.p + 1)
    counts = ws.layers.extract(n - padding)
    if padding:
        counts[0] += padding
    return dict(sorted(counts.items()))


def _expanded(counts: dict[int, int]) -> tuple[int, ...]:
    return tuple(chain.from_iterable(repeat(e, c) for e, c in counts.items()))


def certificate_exponents(ws: WeightSet, n: int) -> tuple[int, ...]:
    """The exponents of certificate_counts(ws, n), sorted, one per root."""
    return _expanded(certificate_counts(ws, n))


def _verify_vanishing(table: FieldTable, m: int, counts) -> None:
    roots = table.roots_of_unity(m)
    if table.multiset_sum({int(roots[e]): c for e, c in counts.items()}) != table.zero_index:
        raise InternalMismatch("certificate does not re-evaluate to zero")


def certificate(p: int, m: int, n: int, size_cap: int = DEFAULT_SIZE_CAP) -> Certificate:
    """A verified vanishing sum of weight n, extracted from stored layers."""
    ws = compute_weight_set(p, m, size_cap)
    counts = certificate_counts(ws, n)
    if ws.m_prime > 1:
        _verify_vanishing(ws.field, ws.m_prime, counts)
    return Certificate(p=p, m=m, n=n, exponents=_expanded(counts))


# ---------------------------------------------------------------------------
# minimal vanishing sums

def _canonical_rotation(exps: tuple[int, ...], m: int) -> tuple[int, ...]:
    return min(tuple(sorted((e + c) % m for e in exps)) for c in range(m))


def minimal_vanishing_sums(
    p: int,
    m: int,
    wmax: int,
    size_cap: int = DEFAULT_SIZE_CAP,
    enum_cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[tuple[int, ...]]:
    """All vanishing sums of weight <= wmax with no vanishing proper subsum,
    as canonical exponent multisets (least representative under rotation).
    """
    if wmax > enum_cap:
        raise EnumerationCapExceeded(f"wmax={wmax} above enumeration cap {enum_cap}")
    m_prime = strip_p_part(p, m)
    if m_prime == 1:
        return [(0,) * p] if wmax >= p else []
    k = multiplicative_order(p, m_prime)
    table = build_field(p, k, size_cap=size_cap)
    engine = _layers(table, m_prime)
    exps = engine.exponents
    # reach[r][c]: some sum of at most r roots lies in coset c
    reach = [engine.mask(0)]
    for w in range(1, wmax + 1):
        reach.append(reach[-1] | engine.mask(w))

    zero = table.zero_index
    found: set[tuple[int, ...]] = set()

    def descend(start_e, prefix, total, all_sums, proper_sums):
        # all_sums: values of nonempty subset sums of the prefix
        # proper_sums: values over strict subsets (the empty one included)
        for e in range(start_e, m_prime):
            x = int(exps[e])
            if table.neg_index(x) in proper_sums:
                continue  # a strict subsum would vanish in any extension
            new_total = table.add_index(total, x)
            new_prefix = prefix + (e,)
            if new_total == zero:
                found.add(_canonical_rotation(new_prefix, m_prime))
                continue
            if len(new_prefix) == wmax:
                continue
            # new_total is nonzero here, so the coset of its negative decides
            if not reach[wmax - len(new_prefix)][table.neg_index(new_total) % engine.d]:
                continue
            shifted = {table.add_index(t, x) for t in all_sums}
            descend(
                e,
                new_prefix,
                new_total,
                all_sums | shifted | {x},
                all_sums | {zero} | {table.add_index(t, x) for t in proper_sums},
            )

    # every rotation class has a representative whose least exponent is 0
    if wmax >= 2:
        x0 = int(exps[0])
        descend(0, (0,), x0, {x0}, {zero})
    for result in found:
        _verify_vanishing(table, m_prime, Counter(result))
    return sorted(found)
