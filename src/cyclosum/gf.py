"""Prime fields, extension fields, and their root-of-unity groups.

Nonzero elements are held in discrete-log form: the integer i stands for
g**i, where g is a fixed generator of the multiplicative group, and the
index q-1 is reserved for zero.  Addition goes through a Zech table Z
with g**Z[i] = 1 + g**i, so the hot loops downstream (sumset iteration
over root groups) cost O(1) per added pair.  All tables are built once,
with numpy, and are never mutated afterwards.

Construction is deterministic: without an explicit modulus the
lexicographically least monic irreducible polynomial is used (comparing
coefficient tuples from the constant term up), and the generator is the
primitive element with the least base-p integer encoding.

Each field is built once per process into one registry, and what is derived
from it (root groups, layer engines, weight sets, factorizations) hangs off
its table; clear_fields() drops them all.

The field owns the layout of its root groups: in roots_of_unity(m), the
exponent j stands for the m-th root g**(j*(q-1)/m).  It also owns the one
evaluator of sums c_1*g**i_1 + ... over it, multiset_sum, which both the
certificate and the solution verifiers call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DivisionByZero,
    DoesNotDivide,
    NotPrime,
    OverrideNotIrreducible,
    PreconditionViolated,
    SizeCapExceeded,
)
from .ntheory import factorize, is_prime

DEFAULT_SIZE_CAP = 1 << 22


# ---------------------------------------------------------------------------
# polynomials over F_p, coefficient tuples with the constant term first

def _norm(cs) -> tuple[int, ...]:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _padd(p, a, b):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return _norm((x + y) % p for x, y in zip(a, b))


def _psub(p, a, b):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return _norm((x - y) % p for x, y in zip(a, b))


def _pmul(p, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _norm(out)


def _pdivmod(p, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = pow(b[-1], -1, p)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        c = (a[-1] * inv_lead) % p
        quot[shift] = c
        for j, y in enumerate(b):
            a[shift + j] = (a[shift + j] - c * y) % p
        a.pop()
    return _norm(quot), _norm(a)


def _pmod(p, a, b):
    return _pdivmod(p, a, b)[1]


def _pgcd(p, a, b):
    while b:
        a, b = b, _pmod(p, a, b)
    if a:
        inv = pow(a[-1], -1, p)
        a = _norm((c * inv) % p for c in a)
    return a


def _ppow_mod(p, base, e, mod):
    result = (1,)
    base = _pmod(p, base, mod)
    while e:
        if e & 1:
            result = _pmod(p, _pmul(p, result, base), mod)
        base = _pmod(p, _pmul(p, base, base), mod)
        e >>= 1
    return result


@dataclass(frozen=True)
class PrimePoly:
    """Polynomial over F_p; coeffs run from the constant term up, no trailing zeros."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.p < 2:
            raise PreconditionViolated(f"characteristic must be >= 2, got {self.p}")
        cs = _norm(c % self.p for c in self.coeffs)
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def x(cls, p: int) -> "PrimePoly":
        return cls(p, (0, 1))

    @classmethod
    def one(cls, p: int) -> "PrimePoly":
        return cls(p, (1,))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __add__(self, other: "PrimePoly") -> "PrimePoly":
        return PrimePoly(self.p, _padd(self.p, self.coeffs, other.coeffs))

    def __sub__(self, other: "PrimePoly") -> "PrimePoly":
        return PrimePoly(self.p, _psub(self.p, self.coeffs, other.coeffs))

    def __mul__(self, other: "PrimePoly") -> "PrimePoly":
        return PrimePoly(self.p, _pmul(self.p, self.coeffs, other.coeffs))

    def __mod__(self, other: "PrimePoly") -> "PrimePoly":
        return PrimePoly(self.p, _pmod(self.p, self.coeffs, other.coeffs))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                terms.append(f"{head}X" if i == 1 else f"{head}X^{i}")
        return " + ".join(terms)


def is_irreducible(poly: PrimePoly) -> bool:
    """Deterministic irreducibility test over F_p.

    Checks gcd(X**(p**i) - X, f) = 1 for i <= deg/2 and X**(p**deg) = X mod f.
    """
    p, f = poly.p, poly.coeffs
    k = poly.degree
    if k <= 0:
        return False
    if k == 1:
        return True
    if f[0] == 0:
        return False
    x = (0, 1)
    r = x
    for i in range(1, k + 1):
        r = _ppow_mod(p, r, p, f)
        if i <= k // 2 and _pgcd(p, _psub(p, r, x), f) != (1,):
            return False
    return r == x


def lex_least_irreducible(p: int, k: int) -> PrimePoly:
    """Lexicographically least monic irreducible of degree k over F_p."""
    if k == 1:
        return PrimePoly.x(p)
    # below p**(k-1) every candidate has c_0 = 0, so X divides it
    for n in range(p ** (k - 1), p**k):
        coeffs = []
        v = n
        for _ in range(k):  # digit order makes the scan lexicographic from c_0 up
            coeffs.append(v // p ** (k - 1))
            v = (v % p ** (k - 1)) * p
        cand = PrimePoly(p, tuple(coeffs) + (1,))
        if is_irreducible(cand):
            return cand
    raise AssertionError("an irreducible of every degree exists")  # pragma: no cover


# ---------------------------------------------------------------------------
# field tables

class FieldTable:
    """Arithmetic tables for F_{p**k} with a fixed modulus and generator.

    Attributes of note:
      exp[i]   base-p integer encoding of g**i, for i in [0, q-2]
      log[e]   the exponent of the element with encoding e (log[0] unused)
      zech[i]  index of 1 + g**i, with zero_index for the vanishing case
    Arrays are read-only; instances are safe to share between threads.
    """

    def __init__(self, p, k, modulus, gen_encoding, exp, log, zech):
        self.p = p
        self.k = k
        self.q = p**k
        self.order = self.q - 1
        self.modulus = modulus
        self.gen_encoding = gen_encoding
        self.exp = exp
        self.log = log
        self.zech = zech
        self.zero_index = self.q - 1
        self.neg_one_exp = self.order // 2 if p != 2 else 0
        for arr in (exp, log, zech):
            arr.flags.writeable = False
        self._derived: dict = {}

    def derived(self, key, make):
        """The object derived from this field under key, made once by make()."""
        if key not in self._derived:
            self._derived[key] = make()
        return self._derived[key]

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldTable)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    def __repr__(self) -> str:
        return f"FieldTable(q={self.p}^{self.k}, modulus={self.modulus})"

    def json_dict(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "modulus_coeffs": list(self.modulus.coeffs),
            "generator_poly": list(self.poly_of_index(0 if self.q == 2 else 1).coeffs),
        }

    # -- conversions -------------------------------------------------------

    def encoding_of_index(self, i: int) -> int:
        return 0 if i == self.zero_index else int(self.exp[i])

    def index_of_encoding(self, e: int) -> int:
        return self.zero_index if e == 0 else int(self.log[e])

    def poly_of_index(self, i: int) -> PrimePoly:
        e = self.encoding_of_index(i)
        coeffs = []
        for _ in range(self.k):
            coeffs.append(e % self.p)
            e //= self.p
        return PrimePoly(self.p, tuple(coeffs))

    def index_of_poly(self, coeffs) -> int:
        if isinstance(coeffs, PrimePoly):
            coeffs = coeffs.coeffs
        reduced = _pmod(self.p, _norm(c % self.p for c in coeffs), self.modulus.coeffs)
        e = 0
        for c in reversed(reduced):
            e = e * self.p + c
        return self.index_of_encoding(e)

    def residue_of_index(self, i: int) -> int:
        """The element as a residue mod p; requires it to lie in the prime subfield."""
        e = self.encoding_of_index(i)
        if e >= self.p:
            raise PreconditionViolated(f"element {e} is not in the prime subfield")
        return e

    # -- index arithmetic ----------------------------------------------------

    def add_index(self, i: int, j: int) -> int:
        z = self.zero_index
        if i == z:
            return j
        if j == z:
            return i
        delta = (j - i) % self.order
        if delta == self.neg_one_exp:
            return z
        return (i + int(self.zech[delta])) % self.order

    def neg_index(self, i: int) -> int:
        if i == self.zero_index or self.p == 2:
            return i
        return (i + self.order // 2) % self.order

    def sub_index(self, i: int, j: int) -> int:
        return self.add_index(i, self.neg_index(j))

    def mul_index(self, i: int, j: int) -> int:
        z = self.zero_index
        if i == z or j == z:
            return z
        return (i + j) % self.order

    def inv_index(self, i: int) -> int:
        if i == self.zero_index:
            raise DivisionByZero("zero has no inverse")
        return (-i) % self.order

    def div_index(self, i: int, j: int) -> int:
        return self.mul_index(i, self.inv_index(j))

    def pow_index(self, i: int, e: int) -> int:
        if i == self.zero_index:
            if e > 0:
                return i
            if e == 0:
                return 0
            raise DivisionByZero("negative power of zero")
        return (i * e) % self.order

    # -- trace and element construction --------------------------------------

    def trace_index(self, i: int) -> int:
        """Field trace down to F_p, returned as a residue mod p."""
        if i == self.zero_index:
            return 0
        acc = self.zero_index
        t = i
        for _ in range(self.k):
            acc = self.add_index(acc, t)
            t = (t * self.p) % self.order
        return self.residue_of_index(acc)

    def element(self, index: int) -> "FieldElement":
        return FieldElement(self, index)

    def zero(self) -> "FieldElement":
        return FieldElement(self, self.zero_index)

    def one(self) -> "FieldElement":
        return FieldElement(self, 0)

    def from_poly(self, coeffs) -> "FieldElement":
        return FieldElement(self, self.index_of_poly(coeffs))

    # -- root groups and sums over them ---------------------------------------

    def roots_of_unity(self, m: int) -> np.ndarray:
        """The m-th roots of unity as a read-only int64 array of indices:
        entry j is the index j*(q-1)/m of the root g**(j*(q-1)/m).

        Made once per m; every caller reads the same array.
        """
        if m < 1 or self.order % m != 0:
            raise DoesNotDivide(f"{m} does not divide q-1 = {self.order}")

        def make():
            exponents = np.arange(m, dtype=np.int64) * (self.order // m)
            exponents.flags.writeable = False
            return exponents

        return self.derived(("roots", m), make)

    def multiset_sum(self, counts) -> int:
        """Index of the sum of c * g**i over the items (i, c) of counts, the
        count c standing for the residue c mod p of the prime subfield."""
        acc = self.zero_index
        for i, c in counts.items():
            scalar = self.index_of_encoding(c % self.p)
            acc = self.add_index(acc, self.mul_index(i, scalar))
        return acc


class FieldElement:
    """A single element of a FieldTable, in discrete-log form."""

    __slots__ = ("table", "index")

    def __init__(self, table: FieldTable, index: int):
        self.table = table
        self.index = index

    @property
    def is_zero(self) -> bool:
        return self.index == self.table.zero_index

    @property
    def poly(self) -> PrimePoly:
        return self.table.poly_of_index(self.index)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.table == other.table
            and self.index == other.index
        )

    def __hash__(self) -> int:
        return hash((self.table, self.index))

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.table, self.table.add_index(self.index, other.index))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.table, self.table.sub_index(self.index, other.index))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.table, self.table.neg_index(self.index))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.table, self.table.mul_index(self.index, other.index))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.table, self.table.div_index(self.index, other.index))

    def __pow__(self, e: int) -> "FieldElement":
        return FieldElement(self.table, self.table.pow_index(self.index, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.table, self.table.inv_index(self.index))

    def trace(self) -> int:
        """Field trace down to the prime field, as a residue mod p."""
        return self.table.trace_index(self.index)

    def __repr__(self) -> str:
        if self.is_zero:
            return "FieldElement(0)"
        return f"FieldElement(g^{self.index} = {self.poly})"


# ---------------------------------------------------------------------------
# construction

def _matpow_mod(a: np.ndarray, e: int, p: int) -> np.ndarray:
    result = np.eye(a.shape[0], dtype=np.int64)
    while e:
        if e & 1:
            result = (result @ a) % p
        a = (a @ a) % p
        e >>= 1
    return result


def _find_generator(p: int, k: int, modulus: tuple[int, ...]) -> tuple[int, ...]:
    """Primitive element with least base-p encoding, as a coefficient tuple."""
    q1 = p**k - 1
    prime_divs = sorted(factorize(q1))
    for enc in range(1, p**k):
        coeffs = []
        v = enc
        while v:
            coeffs.append(v % p)
            v //= p
        cand = tuple(coeffs)
        if all(_ppow_mod(p, cand, q1 // r, modulus) != (1,) for r in prime_divs):
            return cand
    raise AssertionError("the multiplicative group is cyclic")  # pragma: no cover


def _build_tables(p: int, k: int, modulus: tuple[int, ...]):
    q = p**k
    q1 = q - 1
    gen = _find_generator(p, k, modulus)
    gen_encoding = 0
    for c in reversed(gen):
        gen_encoding = gen_encoding * p + c

    # Powers of g in blocks: inside a block multiply by g stepwise, then jump
    # a whole block at once with the matrix of multiply-by-g**B (1x1 for k = 1).
    a = np.zeros((k, k), dtype=np.int64)
    for j in range(k):
        col = _pmod(p, _pmul(p, gen, (0,) * j + (1,)), modulus)
        for i, c in enumerate(col):
            a[i, j] = c
    block = min(1024, q1)
    v = np.zeros((k, block), dtype=np.int64)
    v[0, 0] = 1
    for b in range(1, block):
        v[:, b] = (a @ v[:, b - 1]) % p
    jump = _matpow_mod(a, block, p)
    weights = p ** np.arange(k, dtype=np.int64)
    exp = np.empty(q1, dtype=np.int64)
    pos = 0
    while pos < q1:
        width = min(block, q1 - pos)
        exp[pos : pos + width] = weights @ v[:, :width]
        pos += width
        if pos < q1:
            v = (jump @ v) % p

    log = np.zeros(q, dtype=np.int64)
    powers = np.arange(q1, dtype=np.int64)
    log[exp] = powers
    # a repeated power overwrites an earlier log entry, so this also
    # catches a table that is not injective; zero is no power of g
    if exp[0] != 1 or not exp.all() or not (log[exp] == powers).all():
        raise AssertionError("generator power table is not a bijection")
    c0 = exp % p
    enc_plus1 = exp - c0 + (c0 + 1) % p
    zech = np.where(enc_plus1 == 0, q1, log[enc_plus1]).astype(np.int64)
    return gen_encoding, exp, log, zech


# (p, k, modulus coeffs) -> table; (p, k, None) names the lex-least modulus
_REGISTRY: dict[tuple, FieldTable] = {}


def build_field(p: int, k: int = 1, modulus=None, size_cap: int = DEFAULT_SIZE_CAP) -> FieldTable:
    """The field F_{p**k}, built on first use and then fetched from the registry.

    Without a modulus the lex-least monic irreducible of degree k is used;
    an explicit modulus is verified irreducible.  Both name the same table
    when they agree.  size_cap is checked on every call, cached or not.
    Results are deterministic and identical across runs.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 1:
        raise PreconditionViolated(f"extension degree must be >= 1, got {k}")
    if p**k > size_cap:
        raise SizeCapExceeded(f"q = {p}^{k} exceeds the size cap {size_cap}")
    if isinstance(modulus, PrimePoly):
        modulus = modulus.coeffs
    if modulus is not None:
        modulus = PrimePoly(p, tuple(int(c) for c in modulus)).coeffs
    key = (p, k, modulus)
    if key not in _REGISTRY:
        if modulus is None:
            resolved = lex_least_irreducible(p, k)
        else:
            resolved = PrimePoly(p, modulus)
            if resolved.degree != k or not resolved.is_monic:
                raise OverrideNotIrreducible(
                    f"modulus must be monic of degree {k}, got {resolved}"
                )
            if not is_irreducible(resolved):
                raise OverrideNotIrreducible(f"{resolved} is not irreducible mod {p}")
        full_key = (p, k, resolved.coeffs)
        if full_key not in _REGISTRY:
            gen_encoding, exp, log, zech = _build_tables(p, k, resolved.coeffs)
            _REGISTRY[full_key] = FieldTable(p, k, resolved, gen_encoding, exp, log, zech)
        _REGISTRY[key] = _REGISTRY[full_key]
    return _REGISTRY[key]


def clear_fields() -> None:
    """Drop every registered field and everything derived from it."""
    for table in _REGISTRY.values():
        table._derived.clear()
    _REGISTRY.clear()
