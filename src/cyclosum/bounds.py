"""Closed-form tail bounds for weight sets and their case classification.

Every (p, m, k) triple falls into one of three classes by m0 = gcd(p-1, m),
and each class carries its own guaranteed tail.  predicted_tails returns
every applicable bound, not just the best one, because the audit verifies
each of them independently against the exact set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cyclotomic import min_extension_degree, phi_m_irreducible_mod_p
from .errors import (
    HypothesisFails,
    InternalMismatch,
    NotCoprime,
    PreconditionViolated,
    SizeCapExceeded,
)
from .gf import DEFAULT_SIZE_CAP
from .ntheory import factorize, is_prime, multiplicative_order
from .traces import half_order_tail, trace_profile
from .weights import WeightSet

GCD_GE_3 = "GE_3"
GCD_EQ_2 = "EQ_2"
GCD_EQ_1 = "EQ_1"

EXC_NONE = "none"
EXC_P3_FULL_GROUP = "p3_full_group"          # p = 3 and the roots fill the group
EXC_DPRIME_P_MINUS_1 = "dprime_eq_p_minus_1"  # scalar coset representatives
EXC_P2_D3_M5 = "p2_d3_m5"                     # the one sharp binary case

# prediction labels, by mechanism
T_INDEX_PLUS_ONE = "index_plus_one"      # group index + 1, the uniform bound
T_PRIME_FIELD_SUMSET = "prime_field_sumset"  # roots inside F_p, class GE_3
T_GROUP_INDEX = "group_index"            # the index itself, class EQ_2
T_SUBFIELD_INDEX = "subfield_index"      # index in the minimal extension, EQ_1
T_TRACE_SUMSET = "trace_sumset"          # trace-set sumsets, needs t
T_TRACE_SUMSET_FLOOR = "trace_sumset_floor"  # same with the worst case t = 2
T_HALF_ORDER = "half_order_residue"      # prime m with half-order p


@dataclass(frozen=True)
class CaseClass:
    gcd_class: str
    exception: str


@dataclass(frozen=True)
class TailPrediction:
    theorem: str
    tail: int | None  # None when the needed trace data is above the cap

    def json_dict(self) -> dict:
        return {"theorem": self.theorem, "tail": self.tail}


@dataclass(frozen=True)
class BoundReport:
    p: int
    m: int
    k: int
    d: int
    m0: int
    d0: int
    m_prime: int
    d_prime: int | None
    ell: int | None
    s: int | None
    t: int | None
    case: CaseClass
    predictions: tuple[TailPrediction, ...]
    best: int

    def json_dict(self) -> dict:
        return {
            "case": self.case.gcd_class,
            "exception": self.case.exception,
            "d": self.d,
            "d0": self.d0,
            "d_prime": self.d_prime,
            "ell": self.ell,
            "s": self.s,
            "t": self.t,
            "predictions": [pr.json_dict() for pr in self.predictions],
            "best": self.best,
        }


def _validate(p: int, m: int, k: int) -> None:
    if not is_prime(p):
        raise PreconditionViolated(f"{p} is not prime")
    if k < 1:
        raise PreconditionViolated(f"k must be >= 1, got {k}")
    if m < 2:
        raise PreconditionViolated(f"m must be >= 2, got {m}")
    if math.gcd(p, m) != 1:
        raise PreconditionViolated(f"gcd({p}, {m}) != 1")
    if (p**k - 1) % m != 0:
        raise PreconditionViolated(f"{m} does not divide p^k - 1 = {p**k - 1}")


def classify(p: int, m: int, k: int) -> CaseClass:
    """Case of (p, m, k) by gcd(p-1, m), with its exception flag if any."""
    _validate(p, m, k)
    m0 = math.gcd(p - 1, m)
    if m0 >= 3:
        return CaseClass(GCD_GE_3, EXC_NONE)
    if m0 == 2:
        if p == 3 and m == 3**k - 1:
            return CaseClass(GCD_EQ_2, EXC_P3_FULL_GROUP)
        return CaseClass(GCD_EQ_2, EXC_NONE)
    ell = min_extension_degree(p, m)
    m_prime = math.gcd(p**ell - 1, m)
    d_prime = (p**ell - 1) // m_prime
    if d_prime == p - 1:
        return CaseClass(GCD_EQ_1, EXC_DPRIME_P_MINUS_1)
    if p == 2 and d_prime == 3 and m_prime == 5:
        return CaseClass(GCD_EQ_1, EXC_P2_D3_M5)
    return CaseClass(GCD_EQ_1, EXC_NONE)


def predicted_tails(p: int, m: int, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> BoundReport:
    """All applicable tail predictions for the weight set of (p, m, k)."""
    _validate(p, m, k)
    if m == 2 and k == 1:
        raise PreconditionViolated("(m, k) = (2, 1) carries no tail guarantee")
    d = (p**k - 1) // m
    m0 = math.gcd(p - 1, m)
    d0 = (p - 1) // m0
    case = classify(p, m, k)

    ell = min_extension_degree(p, m)
    m_prime = math.gcd(p**ell - 1, m)
    d_prime = (p**ell - 1) // m_prime
    s = None
    numerator = (p**ell - 1) // (p - 1)
    if numerator % m_prime == 0:
        s = numerator // m_prime

    predictions = [TailPrediction(T_INDEX_PLUS_ONE, d + 1)]
    t = None
    if m >= 3:
        if case.gcd_class == GCD_GE_3:
            if d % d0 != 0:
                raise InternalMismatch(f"d0 = {d0} should divide d = {d}")
            predictions.append(TailPrediction(T_PRIME_FIELD_SUMSET, d0 + 1))
        elif case.gcd_class == GCD_EQ_2:
            bump = 1 if case.exception == EXC_P3_FULL_GROUP else 0
            predictions.append(TailPrediction(T_GROUP_INDEX, d + bump))
        else:
            if d % d_prime != 0:
                raise InternalMismatch(f"d' = {d_prime} should divide d = {d}")
            if s is None or s * (p - 1) != d_prime:
                raise InternalMismatch("s * (p - 1) != d' in the coprime case")
            bump = 1 if case.exception != EXC_NONE else 0
            predictions.append(TailPrediction(T_SUBFIELD_INDEX, d_prime + bump))
            try:
                t = trace_profile(p, m, size_cap).t
            except SizeCapExceeded:
                t = None
            if t is not None:
                if t < 2:
                    raise InternalMismatch("trace set must have at least 2 values")
                n_needed = -((1 - p) // (t - 1))  # ceil((p-1)/(t-1))
                predictions.append(TailPrediction(T_TRACE_SUMSET, ell * n_needed))
            else:
                predictions.append(TailPrediction(T_TRACE_SUMSET, None))
            predictions.append(TailPrediction(T_TRACE_SUMSET_FLOOR, ell * (p - 1)))
            if p != 2 and is_prime(m) and multiplicative_order(p, m) == (m - 1) // 2:
                predictions.append(TailPrediction(T_HALF_ORDER, half_order_tail(p, m)))

    available = [pr.tail for pr in predictions if pr.tail is not None]
    return BoundReport(
        p=p, m=m, k=k, d=d, m0=m0, d0=d0,
        m_prime=m_prime, d_prime=d_prime, ell=ell, s=s, t=t,
        case=case, predictions=tuple(predictions), best=min(available),
    )


def semigroup_tail(a: int, b: int) -> int:
    """Least n0 with every n >= n0 representable as xa + yb, x, y >= 0."""
    if a < 2 or b < 2:
        raise PreconditionViolated(f"need a, b >= 2, got {a}, {b}")
    if math.gcd(a, b) != 1:
        raise NotCoprime(f"gcd({a}, {b}) != 1")
    return (a - 1) * (b - 1)


def closed_form_weight_set(p: int, m: int) -> WeightSet:
    """The weight set as the numerical semigroup Np + Nl, valid exactly when
    m is a power of a prime l != p whose cyclotomic polynomial stays
    irreducible mod p.  Matches compute_weight_set field for field."""
    if not is_prime(p):
        raise PreconditionViolated(f"{p} is not prime")
    fac = factorize(m)
    if len(fac) != 1:
        raise HypothesisFails(f"{m} is not a prime power")
    (ell_base,) = fac
    if ell_base == p:
        raise HypothesisFails("the prime base must differ from p")
    if not phi_m_irreducible_mod_p(p, m):
        raise HypothesisFails(
            f"the {m}-th cyclotomic polynomial is reducible mod {p}"
        )
    bound = (p - 1) * (ell_base - 1) + p + 1
    members = sorted(
        {a * p + b * ell_base
         for a in range(bound // p + 1)
         for b in range(bound // ell_base + 1)
         if a * p + b * ell_base < bound}
    )
    member_set = set(members)
    non_members = [n for n in range(bound) if n not in member_set]
    tail_start = (max(non_members) + 1) if non_members else 0
    return WeightSet(
        p=p, m=m, m_prime=m, k=multiplicative_order(p, m), period=1,
        members_below=tuple(members), tail_start=tail_start, bound=bound,
    )
