"""Output checks written apart from the program.

Nothing here imports cyclosum.  Field elements are coefficient tuples over
F_p with the constant term first, arithmetic is schoolbook polynomial
arithmetic modulo a monic modulus, and weight sets are recomputed by a
plain sumset over the p x ... x p grid of coefficient vectors, so no
discrete-log or Zech table of the program is trusted.  Every check returns
a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


# ---------------------------------------------------------------------------
# integers

def prime_divisors(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and prime_divisors(n) == [n]


def order_mod(a: int, n: int) -> int:
    """Least k >= 1 with a**k = 1 mod n, by plain repeated multiplication."""
    k, x = 1, a % n
    while x != 1 % n:
        x = (x * a) % n
        k += 1
    return k


def p_free_part(p: int, m: int) -> int:
    while m % p == 0:
        m //= p
    return m


# ---------------------------------------------------------------------------
# polynomials over F_p: coefficient lists, constant term first

def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mod(a, f, p: int) -> list[int]:
    """Remainder of a modulo the monic polynomial f."""
    a = _trim([c % p for c in a])
    k = len(f) - 1
    while len(a) > k:
        c = a[-1]
        shift = len(a) - 1 - k
        for j in range(k):
            a[shift + j] = (a[shift + j] - c * f[j]) % p
        a.pop()
        _trim(a)
    return a


def poly_mulmod(a, b, f, p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_mod(out, f, p)


def poly_powmod(a, e: int, f, p: int) -> list[int]:
    result, base = [1], poly_mod(list(a), f, p)
    while e:
        if e & 1:
            result = poly_mulmod(result, base, f, p)
        base = poly_mulmod(base, base, f, p)
        e >>= 1
    return poly_mod(result, f, p)


def _poly_gcd(a, b, p: int) -> list[int]:
    a, b = _trim([c % p for c in a]), _trim([c % p for c in b])
    while b:
        inv = pow(b[-1], -1, p)
        monic = [(c * inv) % p for c in b]
        a, b = b, poly_mod(a, monic, p)
    return a


def is_irreducible(f, p: int) -> bool:
    """Rabin's test for a monic f of degree k over F_p: X**(p**k) = X mod f
    and gcd(X**(p**(k/r)) - X, f) = 1 for every prime r dividing k."""
    f = [c % p for c in f]
    k = len(f) - 1
    if k < 1 or f[-1] != 1:
        return False
    if k == 1:
        return True

    def frobenius_power(j):
        return poly_powmod([0, 1], p**j, f, p)

    for r in prime_divisors(k):
        h = frobenius_power(k // r)
        h = h + [0] * (2 - len(h))
        h[1] = (h[1] - 1) % p
        if len(_poly_gcd(f, h, p)) != 1:
            return False
    return frobenius_power(k) == [0, 1]


@lru_cache(maxsize=None)
def is_irreducible_cached(f: tuple, p: int) -> bool:
    return is_irreducible(f, p)


def some_irreducible(p: int, k: int) -> list[int]:
    """A monic irreducible of degree k, searched from the top coefficient down
    (an order unrelated to the program's lex-least choice)."""
    for n in range(p**k):
        coeffs = []
        for _ in range(k):
            coeffs.append(n % p)
            n //= p
        f = coeffs[::-1] + [1]
        if f[0] and is_irreducible(f, p):
            return f
    raise ValueError(f"no irreducible of degree {k} over F_{p}")


def root_group(p: int, f, m: int) -> list[list[int]]:
    """All m-th roots of unity in F_p[X]/(f), found as the powers of
    x**((q-1)/m) for the first x that makes that power of exact order m."""
    k = len(f) - 1
    q = p**k
    if (q - 1) % m:
        raise ValueError(f"{m} does not divide {q - 1}")
    for n in range(1, q):
        x = [(n // p**i) % p for i in range(k)]
        y = poly_powmod(x, (q - 1) // m, f, p)
        if all(poly_powmod(y, m // r, f, p) != [1] for r in prime_divisors(m)):
            roots, z = [], [1]
            for _ in range(m):
                roots.append(z)
                z = poly_mulmod(z, y, f, p)
            return roots
    raise ValueError("no element of the required order")  # pragma: no cover


def sumset_membership(p: int, k: int, roots, upto: int) -> list[bool]:
    """member[n] for n <= upto: whether some n roots sum to zero, by rolling
    a boolean grid indexed by coefficient vectors."""
    shifts = [tuple(r[i] if i < len(r) else 0 for i in range(k)) for r in roots]
    shifts = list(dict.fromkeys(shifts))
    axes = tuple(range(k))
    layer = np.zeros((p,) * k, dtype=bool)
    layer[(0,) * k] = True
    member = [True]
    for _ in range(upto):
        nxt = np.zeros_like(layer)
        for s in shifts:
            nxt |= np.roll(layer, s, axis=axes)
        layer = nxt
        member.append(bool(layer[(0,) * k]))
    return member


# ---------------------------------------------------------------------------
# checks on program outputs

def check_weight_set(ws: dict) -> list[str]:
    """Check a weight set given as plain data (p, m, m_prime, k, period,
    members_below, tail_start, bound_B).

    Membership is recomputed by the grid sumset for n <= tail_start +
    2 * period; p and every prime factor of m' must be members; and the
    reported tail must follow from the reported members.
    """
    p, m, k = ws["p"], ws["m"], ws["k"]
    m_prime, period = ws["m_prime"], ws["period"]
    tail_start, bound = ws["tail_start"], ws["bound_B"]
    members = set(ws["members_below"])
    problems = []
    if m_prime != p_free_part(p, m):
        problems.append(f"m' = {m_prime}, expected {p_free_part(p, m)}")
        return problems
    if m_prime > 1 and k != order_mod(p, m_prime):
        problems.append(f"k = {k}, expected ord_{m_prime}({p})")
        return problems

    def contains(n):
        if n < bound:
            return n in members
        return n % period == 0 and n >= tail_start

    for n in [p] + prime_divisors(m_prime):
        if not contains(n):
            problems.append(f"{n} must be a member of W_{p}({m})")
    gcd = 0
    for n in members:
        gcd = math.gcd(gcd, n)
    if gcd != period:
        problems.append(f"period {period} is not the gcd {gcd} of the members")
    if tail_start > 0 and ((tail_start - 1) % period or contains(tail_start - 1)):
        problems.append(f"tail_start {tail_start} is not past the last non-member")
    if any(n % period == 0 and n not in members for n in range(tail_start, bound)):
        problems.append("a multiple of the period past tail_start is missing")

    upto = tail_start + 2 * period
    if m_prime > 1:
        f = some_irreducible(p, k)
        roots = root_group(p, f, m_prime)
        naive = sumset_membership(p, k, roots, upto)
        wrong = [n for n in range(upto + 1) if naive[n] != contains(n)]
        if wrong:
            problems.append(f"membership of {wrong[:5]} disagrees with the grid sumset")
    return problems


def check_solution(p: int, modulus, e: int, n: int, counts: dict) -> list[str]:
    """Check a diagonal solution given as counts of distinct coordinates.

    counts maps each coordinate, as a coefficient tuple, to how often it
    occurs.  The sum of x**e is re-evaluated one distinct value at a time,
    modulo the reported modulus, which must itself be irreducible.
    """
    problems = []
    f = [c % p for c in modulus]
    if not is_irreducible_cached(tuple(f), p):
        return [f"modulus {modulus} is not irreducible mod {p}"]
    k = len(f) - 1
    if sum(counts.values()) != n:
        problems.append(f"{sum(counts.values())} coordinates, expected {n}")
    acc = [0] * k
    for x, count in counts.items():
        x = list(x)
        if len(x) > k or any(not 0 <= c < p for c in x):
            problems.append(f"coordinate {x} is not a reduced element of F_{p}^{k}")
            continue
        if not any(x):
            problems.append("a coordinate is zero")
            continue
        power = poly_powmod(x, e, f, p)
        for i, c in enumerate(power):
            acc[i] = (acc[i] + count * c) % p
    if any(acc):
        problems.append(f"sum of x_i^{e} is {acc}, not zero")
    return problems


def audit_pairs(p_max: int, m_max: int, size_cap: int) -> tuple[int, set]:
    """Recount the sweep's pairs: every prime p <= p_max and 3 <= m <= m_max
    with gcd(p, m) = 1; a pair is skipped when p**ord_m(p) exceeds the cap."""
    total, skipped = 0, set()
    for p in range(2, p_max + 1):
        if not is_prime(p):
            continue
        for m in range(3, m_max + 1):
            if math.gcd(p, m) != 1:
                continue
            total += 1
            if p ** order_mod(p, m) > size_cap:
                skipped.add((p, m))
    return total, skipped

