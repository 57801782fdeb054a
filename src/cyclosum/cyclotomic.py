"""Cyclotomic cosets and the factorization of X^m - 1 over F_p.

Factors are built as products of (X - z^j) over each p-coset of exponents
inside the splitting field, which is deterministic and reuses the field
tables; no general-purpose factorization is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InternalMismatch, NotCoprime, NotPrime, PreconditionViolated
from .gf import DEFAULT_SIZE_CAP, FieldTable, PrimePoly, build_field
from .ntheory import euler_phi, is_prime, multiplicative_order, prime_factors
from .weights import strip_p_part

__all__ = [
    "CyclotomicCoset",
    "FactorizationReport",
    "strip_p_part",
    "cyclotomic_cosets",
    "factor_xm_minus_1",
    "min_extension_degree",
    "phi_m_irreducible_mod_p",
]


@dataclass(frozen=True)
class CyclotomicCoset:
    """Orbit of a residue mod m under multiplication by p."""

    modulus: int
    rep: int
    members: tuple[int, ...]


@dataclass(frozen=True)
class FactorEntry:
    poly: PrimePoly
    degree: int
    trace_coeff: int


@dataclass(frozen=True)
class FactorizationReport:
    """Monic irreducible factors of X^m - 1 over F_p, including X - 1.

    trace_coeff of a factor is the negated coefficient of its second
    highest term, i.e. the common trace of its roots down to F_p.
    """

    p: int
    m: int
    splitting_degree: int
    factors: tuple[FactorEntry, ...]

    def expand(self) -> PrimePoly:
        prod = PrimePoly.one(self.p)
        for entry in self.factors:
            prod = prod * entry.poly
        return prod

    def display(self) -> str:
        return "".join(f"({entry.poly})" for entry in self.factors)

    def json_dict(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "factors": [
                {
                    "coeffs": list(entry.poly.coeffs),
                    "degree": entry.degree,
                    "trace_coeff": entry.trace_coeff,
                }
                for entry in self.factors
            ],
        }


def _check_coprime(p: int, m: int) -> None:
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if math.gcd(p, m) != 1:
        raise NotCoprime(f"gcd({p}, {m}) != 1")


def cyclotomic_cosets(p: int, m: int) -> list[CyclotomicCoset]:
    """Partition of Z/m into orbits under multiplication by p."""
    if m < 1:
        raise PreconditionViolated(f"m must be >= 1, got {m}")
    if m == 1:
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        return [CyclotomicCoset(1, 0, (0,))]
    _check_coprime(p, m)
    seen = [False] * m
    out = []
    for r in range(m):
        if seen[r]:
            continue
        orbit = []
        j = r
        while not seen[j]:
            seen[j] = True
            orbit.append(j)
            j = (j * p) % m
        out.append(CyclotomicCoset(m, r, tuple(sorted(orbit))))
    return out


def _factor_in(table: FieldTable, m: int) -> FactorizationReport:
    p, k = table.p, table.k
    roots = table.roots_of_unity(m)
    factors = []
    for coset in cyclotomic_cosets(p, m):
        # product of (X - z^j) over the coset, with index-form coefficients
        coeffs = [0]  # the constant one-element polynomial "1"
        for j in coset.members:
            root = int(roots[j])
            shifted = [table.zero_index] + coeffs
            for i, c in enumerate(coeffs):
                term = table.mul_index(root, c)
                shifted[i] = table.sub_index(shifted[i], term)
            coeffs = shifted
        residues = tuple(table.residue_of_index(c) for c in coeffs)
        poly = PrimePoly(p, residues)
        degree = poly.degree
        if degree != len(coset.members):
            raise InternalMismatch(f"factor degree {degree} != coset size")
        trace = (-poly.coeffs[degree - 1]) % p if degree >= 1 else 0
        factors.append(FactorEntry(poly=poly, degree=degree, trace_coeff=trace))
    factors.sort(key=lambda entry: (entry.degree, entry.poly.coeffs))
    report = FactorizationReport(p=p, m=m, splitting_degree=k, factors=tuple(factors))
    if report.expand() != PrimePoly(p, (-1,) + (0,) * (m - 1) + (1,)):
        raise InternalMismatch(f"factor product is not X^{m} - 1 over F_{p}")
    return report


def factor_xm_minus_1(p: int, m: int, size_cap: int = DEFAULT_SIZE_CAP) -> FactorizationReport:
    """Factor X^m - 1 into monic irreducibles over F_p, sorted canonically."""
    if m < 1:
        raise PreconditionViolated(f"m must be >= 1, got {m}")
    if m > 1:
        _check_coprime(p, m)
    elif not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    table = build_field(p, 1 if m == 1 else multiplicative_order(p, m), size_cap=size_cap)
    return table.derived(("factor", m), lambda: _factor_in(table, m))


def min_extension_degree(p: int, m: int) -> int:
    """Least e >= 1 such that F_{p**e} contains an m-th root of unity
    other than 1; the minimum of ord_q(p) over prime divisors q of m."""
    if m < 2:
        raise PreconditionViolated(f"m must be >= 2, got {m}")
    _check_coprime(p, m)
    return min(multiplicative_order(p, q) for q in prime_factors(m))


def phi_m_irreducible_mod_p(p: int, m: int) -> bool:
    """Whether the m-th cyclotomic polynomial stays irreducible mod p."""
    if m < 2:
        raise PreconditionViolated(f"m must be >= 2, got {m}")
    _check_coprime(p, m)
    return multiplicative_order(p, m) == euler_phi(m)
