"""Trace sets of root-of-unity groups and the half-order residue criteria.

The trace set T of the group H of m'-th roots of unity inside the minimal
extension L is computed twice, by direct field traces and from the second
coefficients of the irreducible factors of X^{m'} - 1, and the two routes
must agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cyclotomic import factor_xm_minus_1, min_extension_degree
from .errors import (
    HypothesisFails,
    InternalMismatch,
    NotOddPrime,
)
from .gf import DEFAULT_SIZE_CAP, build_field
from .ntheory import is_prime, multiplicative_order


@dataclass(frozen=True)
class TraceProfile:
    """Traces of the nontrivial root group down to the prime field.

    factor_traces lists the trace of 1 (the extension degree mod p) followed
    by one value per nontrivial factor of X^{m'} - 1; trace_set is the set of
    distinct values among them, and t its size.
    """

    p: int
    m: int
    ell: int
    m_prime: int
    r: int
    trace_set: tuple[int, ...]
    t: int
    factor_traces: tuple[int, ...]

    def json_dict(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "ell": self.ell,
            "m_prime": self.m_prime,
            "r": self.r,
            "T": list(self.trace_set),
            "t": self.t,
        }


@dataclass(frozen=True)
class QStar:
    """The signed prime q* = +-q chosen so that q* = 1 mod 4."""

    q: int
    value: int


def trace_profile(p: int, m: int, size_cap: int = DEFAULT_SIZE_CAP) -> TraceProfile:
    """Compute T = tr(H) two independent ways and check they agree."""
    ell = min_extension_degree(p, m)
    table = build_field(p, ell, size_cap=size_cap)
    m_prime = math.gcd(table.order, m)
    direct = {table.trace_index(int(e)) for e in table.roots_of_unity(m_prime)}

    report = factor_xm_minus_1(p, m_prime, size_cap)
    if report.splitting_degree != ell:
        raise InternalMismatch(
            f"splitting degree {report.splitting_degree} != minimal degree {ell}"
        )
    one_root = (p - 1, 1)  # coeffs of X - 1 over F_p
    nontrivial = [f for f in report.factors if f.poly.coeffs != one_root]
    if len(nontrivial) != len(report.factors) - 1:
        raise InternalMismatch("expected exactly one X - 1 factor")
    if any(f.degree != ell for f in nontrivial):
        raise InternalMismatch("a nontrivial factor has degree != ell")
    factor_traces = (ell % p,) + tuple(f.trace_coeff for f in nontrivial)
    from_factors = set(factor_traces)
    if from_factors != direct:
        raise InternalMismatch(
            f"trace sets disagree: direct {sorted(direct)} vs factors {sorted(from_factors)}"
        )
    trace_set = tuple(sorted(direct))
    return TraceProfile(
        p=p, m=m, ell=ell, m_prime=m_prime, r=len(nontrivial),
        trace_set=trace_set, t=len(trace_set), factor_traces=factor_traces,
    )


def q_star(q: int) -> QStar:
    if q == 2 or not is_prime(q):
        raise NotOddPrime(f"{q} is not an odd prime")
    return QStar(q=q, value=q if q % 4 == 1 else -q)


def _check_half_order_hypothesis(p: int, q: int) -> None:
    if p == 2 or not is_prime(p):
        raise NotOddPrime(f"{p} is not an odd prime")
    if q == 2 or not is_prime(q):
        raise NotOddPrime(f"{q} is not an odd prime")
    if p == q:
        raise HypothesisFails("p and q must be distinct")
    if multiplicative_order(p, q) != (q - 1) // 2:
        raise HypothesisFails(f"order of {p} mod {q} is not (q-1)/2")


def predict_trace_count(p: int, q: int) -> int:
    """Predicted t for an odd prime q when p has half order mod q:
    2 when p divides q* - 1, else 3."""
    _check_half_order_hypothesis(p, q)
    return 2 if (q_star(q).value - 1) % p == 0 else 3


def half_order_tail(p: int, q: int) -> int:
    """Tail start for the weight set of q-th roots in characteristic p when
    p has half order mod q: 2*l*l' if p | q* - 1 else l*l', with
    l = (q-1)/2 and l' = (p-1)/2."""
    _check_half_order_hypothesis(p, q)
    ell = (q - 1) // 2
    ell_p = (p - 1) // 2
    return 2 * ell * ell_p if (q_star(q).value - 1) % p == 0 else ell * ell_p
