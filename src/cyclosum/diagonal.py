"""All-nonzero solutions of x_1^d + ... + x_n^d = 0 over F_q.

The nonzero d-th powers form the group of m-th roots of unity with
m = (q-1)/d, so a solution with every coordinate nonzero is exactly a
vanishing sum of m-th roots of weight n.  Solutions are produced from
weight-set certificates computed on the instance's own field, never by
random search, so output is deterministic.

A certificate arrives as exponent -> count, and a solution keeps it as
(coordinate, multiplicity) pairs: each distinct coordinate is mapped,
checked nonzero and re-evaluated once, and the arity is the sum of the
counts.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .errors import InternalMismatch, NotPrime, PreconditionViolated
from .gf import DEFAULT_SIZE_CAP, FieldElement, FieldTable, build_field
from .ntheory import factorize
from .weights import WeightSet, certificate_counts, field_weight_set


@dataclass(frozen=True)
class DiagonalInstance:
    """One equation x_1^e + ... + x_n^e = 0 over a concrete field."""

    table: FieldTable
    e: int
    d: int
    m: int
    n: int


@dataclass(frozen=True)
class GoodSolution:
    """A verified solution with every coordinate nonzero.

    counts holds (coordinate exponent, multiplicity) pairs in certificate
    order; values and exponents expand them in that order, and values
    repeats one FieldElement per distinct coordinate.
    """

    values: tuple[FieldElement, ...]
    exponents: tuple[int, ...]
    d: int
    counts: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class NoSolution:
    """Definitive non-existence, with the exact weight set as evidence."""

    n: int
    weight_set: WeightSet


def reduce_exponent(q: int, e: int) -> tuple[int, int]:
    """Replace the degree e by d = gcd(q-1, e); the nonzero d-th powers are
    the m-th roots of unity with m = (q-1)/d."""
    if q < 2 or e < 1:
        raise PreconditionViolated(f"need q >= 2 and e >= 1, got q={q}, e={e}")
    d = math.gcd(q - 1, e)
    return d, (q - 1) // d


def diagonal_instance(
    q: int,
    e: int,
    n: int,
    modulus=None,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> DiagonalInstance:
    fac = factorize(q)
    if len(fac) != 1:
        raise NotPrime(f"q = {q} is not a prime power")
    ((p, k),) = fac.items()
    if n < 1:
        raise PreconditionViolated(f"need n >= 1, got {n}")
    table = build_field(p, k, modulus, size_cap)
    d, m = reduce_exponent(q, e)
    return DiagonalInstance(table=table, e=e, d=d, m=m, n=n)


def _verify_solution(inst: DiagonalInstance, counts) -> None:
    table = inst.table
    if sum(k for _, k in counts) != inst.n or any(x == table.zero_index for x, _ in counts):
        raise InternalMismatch("solution has a zero coordinate or wrong arity")
    powers: Counter = Counter()
    for x, k in counts:
        powers[table.pow_index(x, inst.e)] += k
    if table.multiset_sum(powers) != table.zero_index:
        raise InternalMismatch("solution does not evaluate to zero")


def solve_good(inst: DiagonalInstance) -> GoodSolution | NoSolution:
    """Solve for an all-nonzero solution, or prove there is none.

    Decides membership of n in the exact weight set of the field's root
    group; on success each distinct certificate exponent c, standing for
    the root g**(d*c), turns into the coordinate x = g**(c*u mod m), where
    e = d*t and u is the inverse of t mod m.  Then x^e = g**(d*c).
    """
    ws = field_weight_set(inst.table, inst.m)
    if not ws.contains(inst.n):
        return NoSolution(n=inst.n, weight_set=ws)
    # gcd(t, m) = 1 because d = gcd(q-1, e) takes every common factor
    u = pow(inst.e // inst.d, -1, inst.m)
    counts = tuple((c * u % inst.m, k) for c, k in certificate_counts(ws, inst.n).items())
    _verify_solution(inst, counts)
    table = inst.table
    values = tuple(chain.from_iterable((FieldElement(table, x),) * k for x, k in counts))
    exponents = tuple(chain.from_iterable((x,) * k for x, k in counts))
    return GoodSolution(values=values, exponents=exponents, d=inst.d, counts=counts)


def witt_quadratic_check(
    q: int,
    n: int,
    modulus=None,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> GoodSolution | NoSolution:
    """Sums of n squares over F_q, q odd and > 5.

    For n >= 3 a good zero always exists and is returned verified; n = 2 is
    delegated and may legitimately come back NoSolution.
    """
    fac = factorize(q)
    if len(fac) != 1:
        raise PreconditionViolated(f"q = {q} is not a prime power")
    ((p, _),) = fac.items()
    if p == 2 or q <= 5:
        raise PreconditionViolated("need an odd prime power q > 5")
    inst = diagonal_instance(q, 2, n, modulus, size_cap)
    result = solve_good(inst)
    if n >= 3 and not isinstance(result, GoodSolution):
        raise InternalMismatch("sums of >= 3 squares are always isotropic here")
    return result
