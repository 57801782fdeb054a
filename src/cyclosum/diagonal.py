"""All-nonzero solutions of x_1^d + ... + x_n^d = 0 over F_q.

The nonzero d-th powers form the group of m-th roots of unity with
m = (q-1)/d, so a solution with every coordinate nonzero is exactly a
vanishing sum of m-th roots of weight n.  Solutions are produced from
weight-set certificates computed on the instance's own field, never by
random search, so output is deterministic.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import InternalMismatch, NotPrime, PreconditionViolated
from .gf import DEFAULT_SIZE_CAP, FieldElement, FieldTable, build_field
from .ntheory import factorize
from .weights import WeightSet, certificate_exponents, field_weight_set


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
    """A verified solution with every coordinate nonzero."""

    values: tuple[FieldElement, ...]
    exponents: tuple[int, ...]
    d: int


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


def _verify_solution(inst: DiagonalInstance, values) -> None:
    table = inst.table
    if len(values) != inst.n or any(v.is_zero for v in values):
        raise InternalMismatch("solution has a zero coordinate or wrong arity")
    counts = Counter(table.pow_index(v.index, inst.e) for v in values)
    if table.multiset_sum(counts) != table.zero_index:
        raise InternalMismatch("solution does not evaluate to zero")


def solve_good(inst: DiagonalInstance) -> GoodSolution | NoSolution:
    """Solve for an all-nonzero solution, or prove there is none.

    Decides membership of n in the exact weight set of the field's root
    group; on success each certificate exponent c_i, standing for the root
    g**(d*c_i), turns into the coordinate x_i = g**(c_i*u mod m), where
    e = d*t and u is the inverse of t mod m.  Then x_i^e = g**(d*c_i).
    """
    ws = field_weight_set(inst.table, inst.m)
    if not ws.contains(inst.n):
        return NoSolution(n=inst.n, weight_set=ws)
    certificate = certificate_exponents(ws, inst.n)
    # gcd(t, m) = 1 because d = gcd(q-1, e) takes every common factor
    u = pow(inst.e // inst.d, -1, inst.m)
    # padding makes most exponents 0, so map each distinct one once
    coordinate = {c: c * u % inst.m for c in set(certificate)}
    exponents = tuple(map(coordinate.__getitem__, certificate))
    values = tuple(FieldElement(inst.table, c) for c in exponents)
    solution = GoodSolution(values=values, exponents=exponents, d=inst.d)
    _verify_solution(inst, values)
    return solution


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
