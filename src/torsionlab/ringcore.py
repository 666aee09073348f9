"""Exact arithmetic in Z[t, t^-1] and in the finite group ring Z[Z/q].

LaurentPoly is a lowest exponent and a dense tuple of Python big
integers with nonzero ends, so products of long matrix words never
overflow.  Its span deg_hi - deg_lo is at most MAX_SPAN (2^20), and a
wider one, such as t^(10^9) + 1 read from JSON, raises SpanTooLarge, a
ValueError.  CycElem is a dense length-q coefficient vector;
multiplication is cyclic convolution.  Every product in both rings goes
through _poly_mul: a schoolbook loop for short factors, Kronecker
substitution for long ones.  Both rings carry the involution t -> t^-1
(resp. k -> -k mod q), and every integer they write to JSON goes through
exact_str, at any size.  The module ends with the dense
integer-polynomial kernel (lists of ints, constant first) that mahler
and homology share, and the same kernel over
F_p for primes below 2^31: one cached descending list of those primes,
drawn by a numpy sieve, one rule (_primes_for) that turns every bound of
a caller into the count of leading primes its CRT lift needs, and the
Garner CRT that lifts residues modulo a batch of those primes back to
integers.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import json
import math
import operator
import types
from typing import Iterable, Mapping, Sequence

import numpy as np


class NonUnitModulus(ValueError):
    """Evaluation point is not on the unit circle."""


class InvalidModulus(ValueError):
    """Cyclic reduction requires a positive modulus."""


class SpanTooLarge(ValueError):
    """A Laurent polynomial would span more than MAX_SPAN exponents."""


# the largest deg_hi - deg_lo a LaurentPoly holds: its coefficients are
# stored densely, so t^(10^9) would take 10^9 slots
MAX_SPAN = 1 << 20


def _check_span(span: int) -> None:
    if span > MAX_SPAN:
        raise SpanTooLarge(f"a Laurent polynomial of span {span} exceeds MAX_SPAN = {MAX_SPAN}")


def json_int(x) -> int:
    """A JSON integer or integer string as an int; floats, bools and null
    raise ValueError rather than being truncated, and so does a string
    int() refuses, such as "1.5"."""
    if type(x) in (int, str):
        return int(x)
    raise ValueError(f"expected an integer, got {x!r}")


def exact_str(n: int) -> str:
    """n in decimal at any size, the one writer of JSON integers.  str()
    refuses integers of more than sys.get_int_max_str_digits() digits;
    Decimal converts them exactly."""
    return str(decimal.Decimal(n))


def json_rows(rows) -> list:
    """A JSON matrix, checked to be a list of lists."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError("expected the matrix as a list of rows")
    return rows


class LaurentPoly:
    """Integer Laurent polynomial in one variable t, stored densely.

    cs holds the coefficients of t^lo, t^(lo + 1), ..., t^deg_hi, with
    nonzero ends; the zero polynomial is lo = 0 and cs = ().  The span
    deg_hi - deg_lo is at most MAX_SPAN: a constructor or operation that
    would exceed it raises SpanTooLarge, a ValueError.  Every product
    goes through the dense kernel _poly_mul.  Instances are immutable and
    hash as the pair (lo, cs), with no cached value; coeffs is a read-only
    exponent -> coefficient view of the nonzero terms.
    """

    __slots__ = ("lo", "cs")

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        d = {}
        for k, c in items:
            k = int(k)
            d[k] = d.get(k, 0) + int(c)
        self._set(d)

    def _set(self, d: dict) -> None:
        """Fill the slots from a map exponent -> coefficient."""
        keys = [k for k, c in d.items() if c]
        self.lo, self.cs = 0, ()
        if keys:
            lo = min(keys)
            _check_span(max(keys) - lo)
            cs = [0] * (max(keys) - lo + 1)
            for k in keys:
                cs[k - lo] = d[k]
            self.lo, self.cs = lo, tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._wrap(0, ())

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._wrap(0, (1,))

    @classmethod
    def t(cls, k: int = 1) -> "LaurentPoly":
        return cls._wrap(int(k), (1,))

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls._wrap(0, (int(c),) if c else ())

    @classmethod
    def _wrap(cls, lo: int, cs: tuple) -> "LaurentPoly":
        """Wrap cs, a tuple with nonzero ends (lo = 0 when empty), as is."""
        out = cls.__new__(cls)
        out.lo, out.cs = lo, cs
        return out

    @classmethod
    def from_list(cls, coeffs: Sequence[int], lo: int = 0) -> "LaurentPoly":
        """Dense coefficients starting at exponent `lo`; zero ends are
        dropped."""
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        i = 0
        while i < n and not coeffs[i]:
            i += 1
        if i == n:
            return cls._wrap(0, ())
        _check_span(n - i - 1)
        return cls._wrap(lo + i, tuple(coeffs[i:n]))

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.cs

    @property
    def coeffs(self) -> Mapping[int, int]:
        """Read-only map exponent -> coefficient of the nonzero terms."""
        lo = self.lo
        return types.MappingProxyType({lo + i: c for i, c in enumerate(self.cs) if c})

    @property
    def deg_lo(self) -> int:
        if not self.cs:
            raise ValueError("zero polynomial has no degree")
        return self.lo

    @property
    def deg_hi(self) -> int:
        if not self.cs:
            raise ValueError("zero polynomial has no degree")
        return self.lo + len(self.cs) - 1

    def degree_span(self) -> int:
        """deg_hi - deg_lo, or -1 for zero."""
        return len(self.cs) - 1

    def __getitem__(self, k: int) -> int:
        i = k - self.lo
        return self.cs[i] if 0 <= i < len(self.cs) else 0

    def __bool__(self) -> bool:
        return bool(self.cs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.lo == other.lo and self.cs == other.cs

    def __hash__(self):
        return hash((self.lo, self.cs))

    # -- arithmetic ---------------------------------------------------

    def _combine(self, other, op) -> "LaurentPoly":
        """self op other for op = operator.add or operator.sub, one pass
        over a list that spans both."""
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self.cs, other.cs
        if not b:
            return self
        if not a:
            return other if op is operator.add else -other
        lo = min(self.lo, other.lo)
        i, j = self.lo - lo, other.lo - lo
        n = max(i + len(a), j + len(b))
        _check_span(n - 1)
        out = [0] * n
        out[i : i + len(a)] = a
        out[j : j + len(b)] = map(op, out[j : j + len(b)], b)
        return LaurentPoly.from_list(out, lo)

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._wrap(self.lo, tuple(map(operator.neg, self.cs)))

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        return LaurentPoly.const(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return LaurentPoly.zero()
            return LaurentPoly._wrap(self.lo, tuple([c * other for c in self.cs]))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self.cs, other.cs
        if not a or not b:
            return LaurentPoly.zero()
        _check_span(len(a) + len(b) - 2)
        # a product's end coefficients are the products of the factors' ends
        return LaurentPoly._wrap(self.lo + other.lo, tuple(_poly_mul(a, b)))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers only for units; shift exponents instead")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly._wrap(self.lo + k, self.cs) if self.cs else self

    def involution(self) -> "LaurentPoly":
        """The ring involution t -> t^-1."""
        if not self.cs:
            return self
        return LaurentPoly._wrap(1 - self.lo - len(self.cs), self.cs[::-1])

    def augmentation(self) -> int:
        """Evaluation at t = 1 (the augmentation Z[Z] -> Z)."""
        return sum(self.cs)

    def content_max(self) -> int:
        """Largest absolute coefficient (0 for the zero polynomial)."""
        return max(map(abs, self.cs), default=0)

    def coeff_list(self) -> list[int]:
        """Dense coefficients from deg_lo to deg_hi; [] for zero."""
        return list(self.cs)

    def divide_exact(self, other: "LaurentPoly") -> "LaurentPoly | None":
        """Exact quotient self / other in Z[t, t^-1], or None.

        Returns None when other does not divide self exactly (including
        non-integer quotient coefficients).  Division by zero raises.
        """
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        qr = _poly_divmod(self.cs, other.cs)
        if qr is None or qr[1]:
            return None
        return LaurentPoly.from_list(qr[0], lo=self.lo - other.lo)

    def __repr__(self):
        if not self.cs:
            return "LaurentPoly(0)"
        terms = []
        for k, c in self.terms():
            if k == 0:
                terms.append(f"{c}")
            elif k == 1:
                terms.append(f"{c}*t")
            else:
                terms.append(f"{c}*t^{k}")
        return "LaurentPoly(" + " + ".join(terms) + ")"

    def terms(self) -> list[tuple[int, int]]:
        """The nonzero terms as (exponent, coefficient), ascending."""
        lo = self.lo
        return [(lo + i, c) for i, c in enumerate(self.cs) if c]

    # -- serialization ------------------------------------------------

    def to_json_obj(self) -> list[list]:
        return [[k, exact_str(c)] for k, c in self.terms()]

    @classmethod
    def from_json_obj(cls, obj) -> "LaurentPoly":
        if not isinstance(obj, list) or not all(isinstance(t, list) and len(t) == 2 for t in obj):
            raise ValueError("expected a polynomial as a list of [exponent, coeff] pairs")
        # json.loads gives exact ints already; only the rest goes through json_int
        d = {k if type(k) is int else json_int(k): c if type(c) is int else json_int(c)
             for k, c in obj}
        if len(d) < len(obj):
            raise ValueError("repeated exponent in a polynomial")
        out = cls.__new__(cls)
        out._set(d)
        return out

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def loads(cls, s: str) -> "LaurentPoly":
        return cls.from_json_obj(json.loads(s))


class CycElem:
    """Element of the group ring Z[Z/q], as q big-integer coefficients."""

    __slots__ = ("q", "coeffs")

    def __init__(self, q: int, coeffs: Iterable[int] = ()):
        if q < 1:
            raise InvalidModulus(f"modulus must be positive, got {q}")
        self.q = q
        cs = [0] * q
        for i, c in enumerate(coeffs):
            cs[i % q] += int(c)
        self.coeffs = cs

    @classmethod
    def _raw(cls, q: int, cs: list) -> "CycElem":
        """Wrap cs, a list of exactly q ints, without a copy."""
        out = cls.__new__(cls)
        out.q = q
        out.coeffs = cs
        return out

    @classmethod
    def zero(cls, q: int) -> "CycElem":
        return cls(q)

    @classmethod
    def one(cls, q: int) -> "CycElem":
        return cls(q, [1])

    @classmethod
    def t(cls, q: int, k: int = 1) -> "CycElem":
        e = cls(q)
        e.coeffs[k % q] = 1
        return e

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = CycElem(self.q, [other])
        if not isinstance(other, CycElem):
            return NotImplemented
        return self.q == other.q and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.q, tuple(self.coeffs)))

    def _check(self, other: "CycElem"):
        if self.q != other.q:
            raise ValueError(f"modulus mismatch: {self.q} vs {other.q}")

    def __add__(self, other):
        if isinstance(other, int):
            other = CycElem(self.q, [other])
        self._check(other)
        return CycElem._raw(self.q, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycElem._raw(self.q, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return CycElem._raw(self.q, [a * other for a in self.coeffs])
        if not isinstance(other, CycElem):
            return NotImplemented
        self._check(other)
        # the product of the degree < q lifts, folded by t^q = 1
        q = self.q
        prod = _poly_mul(self.coeffs, other.coeffs)
        out = prod[:q]
        for k, c in enumerate(prod[q:]):
            out[k] += c
        return CycElem._raw(q, out)

    __rmul__ = __mul__

    def involution(self) -> "CycElem":
        """Anti-automorphism sending exponent k to q - k mod q."""
        q = self.q
        out = [0] * q
        for k, c in enumerate(self.coeffs):
            out[(q - k) % q] = c
        return CycElem._raw(q, out)

    def augmentation(self) -> int:
        return sum(self.coeffs)

    def lift(self) -> LaurentPoly:
        """Lift to the honest-polynomial representative of degree < q."""
        return LaurentPoly.from_list(self.coeffs)

    def __repr__(self):
        return f"CycElem(q={self.q}, {self.coeffs})"

    def to_json_obj(self) -> dict:
        return {"q": self.q, "coeffs": [exact_str(c) for c in self.coeffs]}

    @classmethod
    def from_json_obj(cls, obj) -> "CycElem":
        return cls(json_int(obj["q"]), [json_int(c) for c in obj["coeffs"]])


# ---------------------------------------------------------------------------
# operations


def laurent_eval(p: LaurentPoly, z: complex) -> complex:
    """Evaluate p at a point z on the unit circle.

    Uses compensated (Kahan) summation of the term values.  Raises
    NonUnitModulus when z is off the circle by more than 1e-12.
    """
    if abs(abs(z) - 1.0) > 1e-12:
        raise NonUnitModulus(f"|z| = {abs(z)!r} is not 1 within 1e-12")
    total = 0 + 0j
    comp = 0 + 0j
    for k, c in p.terms():
        term = c * _unit_power(z, k)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _unit_power(z: complex, k: int) -> complex:
    # z^k for |z| = 1; negative exponents via conjugation keeps |.|=1 exact
    if k >= 0:
        return z ** k
    return z.conjugate() ** (-k)


def reduce_mod_q(p: LaurentPoly, q: int) -> CycElem:
    """Ring morphism Z[t,t^-1] -> Z[Z/q], exponent k -> k mod q."""
    if q < 1:
        raise InvalidModulus(f"modulus must be positive, got {q}")
    out = [0] * q
    for k, c in enumerate(p.cs, p.lo % q):
        out[k % q] += c
    return CycElem._raw(q, out)


def normalize_unit(p: LaurentPoly) -> tuple[LaurentPoly, int]:
    """Shift p by the unit t^shift so it becomes an honest polynomial
    with nonzero constant term; returns (shifted polynomial, shift).

    The zero polynomial maps to (0, 0).  Signs are left untouched.
    """
    if p.is_zero():
        return p, 0
    shift = -p.deg_lo
    return p.shift(shift), shift


def circulant_expand(c: CycElem):
    """Matrix of multiplication by c on Z[Z/q] in the exponent basis.

    Returns a q x q list-of-rows of Python ints.  The assignment
    c -> matrix is a ring homomorphism.
    """
    q = c.q
    # column j is c * t^j: entry (i, j) = coeff of t^i in c*t^j = c_{i-j mod q}
    return [[c.coeffs[(i - j) % q] for j in range(q)] for i in range(q)]


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def totient(n: int) -> int:
    """Euler's totient by trial-division factorization."""
    if n < 1:
        raise ValueError("totient requires n >= 1")
    for p in _prime_factors(n):
        n -= n // p
    return n


@functools.cache
def cyclotomic(n: int) -> LaurentPoly:
    """The n-th cyclotomic polynomial from its Moebius binomials.

    Phi_n = prod_{d | n} (1 - t^d)^mu(n/d) for n > 1, and 1 - t = -Phi_1:
    [1] is multiplied by the binomials with mu = 1 and divided exactly by
    those with mu = -1 (_binomial_ratio).  Results are memoized.
    """
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    plus, minus = _mobius_binomials(n)
    g = _binomial_ratio(np.ones(1, np.int64), plus, minus)
    if g is None:
        raise ArithmeticError("cyclotomic division must be exact")
    return LaurentPoly.from_list((g if n > 1 else -g).tolist())


# ---------------------------------------------------------------------------
# dense integer-polynomial kernel: lists of Python ints, index = exponent


def _offset(n: int, width: int) -> int:
    """sum 2^(8 width - 1) 2^(8 width k) over k < n: half a slot in each
    of n slots."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _pack(a: list[int], width: int) -> int:
    """sum a_k 2^(8 width k) for signed |a_k| < 2^(8 width - 1).

    Slot k holds the nonnegative digit a_k + 2^(8 width - 1), and the
    offsets are subtracted once at the end.  While a slot is one 8-byte
    word (width <= 8) every a_k fits int64, and numpy writes all slots in
    one pass: a digit is the low width bytes of a_k + 2^(8 width - 1)
    modulo 2^64.  Wider slots are written one coefficient at a time.
    """
    half = 1 << (8 * width - 1)
    if width <= 8:
        low = np.array(a, dtype=np.int64).view(np.uint64) + np.uint64(half)
        raw = low.astype("<u8").view(np.uint8).reshape(-1, 8)[:, :width].tobytes()
    else:
        raw = b"".join((c + half).to_bytes(width, "little") for c in a)
    return int.from_bytes(raw, "little") - _offset(len(a), width)


def _unpack(x: int, n: int, width: int) -> list[int]:
    """The n slots v_k of x = sum v_k 2^(8 width k), |v_k| < 2^(8 width - 1).

    The inverse of _pack: adding the offsets makes every slot the digit
    v_k + 2^(8 width - 1), with no borrow between slots.  numpy reads all
    slots in one pass while a slot is one 8-byte word (width <= 8); wider
    slots are read one at a time.
    """
    half = 1 << (8 * width - 1)
    raw = (x + _offset(n, width)).to_bytes(width * n, "little")
    if width > 8:
        digits = memoryview(raw)
        return [int.from_bytes(digits[i:i + width], "little") - half
                for i in range(0, width * n, width)]
    words = np.zeros((n, 8), np.uint8)
    words[:, :width] = np.frombuffer(raw, np.uint8).reshape(n, width)
    return (words.view("<u8")[:, 0] - np.uint64(half)).view(np.int64).tolist()


# products of at most this many coefficient pairs take the schoolbook loop
# in _poly_mul: below it, packing for Kronecker costs more than the loop
SCHOOLBOOK_PAIRS = 256


def _poly_mul(a, b) -> list[int]:
    """Product of two dense integer polynomials (lists or tuples of ints).

    Short factors, of at most SCHOOLBOOK_PAIRS coefficient pairs, take the
    schoolbook loop.  Longer ones go by Kronecker substitution: both are
    packed into one integer with slots wide enough for any signed
    coefficient of the product, multiplied once, and unpacked.
    """
    if not a or not b:
        return []
    if len(a) * len(b) <= SCHOOLBOOK_PAIRS:
        if len(a) > len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return out
    bits = (max(abs(c) for c in a).bit_length() + max(abs(c) for c in b).bit_length()
            + min(len(a), len(b)).bit_length() + 1)
    width = (bits + 7) // 8
    x = _pack(a, width)
    prod = x * x if b is a else x * _pack(b, width)
    return _unpack(prod, len(a) + len(b) - 1, width)


@functools.cache
def _mobius_binomials(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(plus, minus): the d | m with mu(m/d) = 1, resp. -1, so that
    Phi_m = prod_plus (t^d - 1) / prod_minus (t^d - 1).  plus starts with m,
    and phi(m) = sum(plus) - sum(minus).  Cached, like the record of each
    index (_phi_index), which reads them for Phi_m(2)."""
    plus, minus = (m,), ()
    for p in _prime_factors(m):
        plus, minus = plus + tuple(d // p for d in minus), minus + tuple(d // p for d in plus)
    return plus, minus


class _PhiIndex:
    """What the cyclotomic split reads of one index m, whatever the input:
    phi(m), and Phi_m(2) = prod_plus (2^d - 1) / prod_minus (2^d - 1) over
    the Moebius binomials, computed on first use.  The scan reads Phi_m(2)
    only where phi(m) fits the degree left, and most indices up to the
    horizon of a long input never get there."""

    __slots__ = ("m", "phi", "_at_2")

    def __init__(self, m: int):
        self.m, self.phi, self._at_2 = m, totient(m), 0

    @property
    def at_2(self) -> int:
        if not self._at_2:
            plus, minus = _mobius_binomials(self.m)
            self._at_2 = (math.prod((1 << d) - 1 for d in plus)
                          // math.prod((1 << d) - 1 for d in minus))
        return self._at_2


_phi_index = functools.cache(_PhiIndex)  # one record per index, like the binomials


def _as_row(g: list[int]) -> np.ndarray:
    """g as a numpy row: int64 when every coefficient fits, else object
    (Python ints).  The dtype is always named: numpy's own inference
    would give uint64 for coefficients in [2^63, 2^64), and float64 for
    [2^63, -1]."""
    try:
        return np.array(g, dtype=np.int64)
    except OverflowError:
        return np.array(g, dtype=object)


def _binomial_ratio(g: np.ndarray, times, over) -> np.ndarray | None:
    """g prod_times (1 - t^d) / prod_over (1 - t^d) for the numpy row g
    (constant first), when each division by 1 - t^d in turn is exact;
    else None.  Every d of over is below the length the row has by then.

    Multiplying by 1 - t^d is one shifted subtract.  Dividing by it takes
    the running sums along each residue class mod d, q_i = g_i + q_(i-d):
    the row, zero-padded to whole blocks of d, takes one cumulative sum
    (np.add.accumulate) down the columns of its (blocks, d) reshape, and
    the division is exact iff the remainder, the last d running sums,
    vanishes.

    The dtype is set from an exact bound.  Each product at most doubles
    max|g|, and a running sum over k blocks is at most k times the bound
    of the row it sums, so every value of the products and of the first
    division is below max|g| 2^len(times) (len g + sum times).  The row
    is int64 when that is below 2^62, else object, the same code on
    Python ints.  Later divisions carry the bound on: an int64 row whose
    running sums could reach 2^63 is measured first, and turns object if
    its measure still says so.
    """
    n = len(g)
    bound = max(int(np.maximum.reduce(g)), -int(np.minimum.reduce(g))) << len(times)
    dtype = np.int64 if bound * (n + sum(times)) < 1 << 62 else object
    buf = np.zeros(n + sum(times) + max(over, default=0), dtype)
    buf[:n] = g
    for d in times:
        buf[d:n + d] -= buf[:n]
        n += d
    # past the live length the buffer stays zero: an exact division leaves
    # zeros from its remainder on, so each block padding reads zeros
    for d in over:
        k = -(-n // d)
        bound *= k
        if bound >> 63 and buf.dtype != object:
            bound = k * int(np.abs(buf[:n]).max())
            if bound >> 63:
                buf = buf.astype(object)
        blocks = buf[:k * d].reshape(k, d)
        np.add.accumulate(blocks, axis=0, out=blocks)
        n -= d
        if np.count_nonzero(buf[n:n + d]):
            return None
    return buf[:n]


def _phi_quotient(g: np.ndarray, m: int) -> np.ndarray | None:
    """g / Phi_m when Phi_m divides the nonzero numpy row g, else None.

    Phi_m = prod_{d | m} (1 - t^d)^mu(m/d) for m > 1, and 1 - t = -Phi_1.
    g is first multiplied by the binomials with mu = -1, then divided by
    those with mu = 1, as whole-array passes (_binomial_ratio).  Since the
    product comes first, every division is exact exactly when Phi_m
    divides g; the first, by 1 - t^m, already decides.  The passes run on
    int64 when max|g| 2^(number of mu = -1 binomials) (len g + their sum)
    < 2^62, and on Python ints (object) otherwise, whatever g's dtype.
    """
    plus, minus = _mobius_binomials(m)
    if sum(plus) - sum(minus) >= len(g):
        return None
    q = _binomial_ratio(g, minus, plus)
    return -q if m == 1 and q is not None else q


@functools.cache
def _index_horizon(r: int) -> int:
    """The largest m with phi(m) <= r can be, for r >= 0: floor(r P / phi(P))
    for the largest primorial P = p_1 ... p_w with phi(P) <= r (0 when r = 0).

    An m with w' prime factors has phi(m) >= phi(p_1 ... p_w'), so phi(m) <= r
    forces w' <= w, and m / phi(m) = prod_{p | m} p / (p - 1) is at most
    prod_{i <= w} p_i / (p_i - 1) = P / phi(P).  The primes are drawn as
    needed, so the bound holds at any r.
    """
    if r < 1:
        return 0
    P, phi = 1, 1
    for p in itertools.count(2):
        if _prime_factors(p) == [p]:
            if phi * (p - 1) > r:
                return r * P // phi
            P, phi = P * p, phi * (p - 1)


def _phi_split(g: list[int], candidates) -> tuple[list[int], dict[int, int]]:
    """(rest, k) with g = rest prod Phi_e^k[e] over the e among the
    candidates and rest divisible by none of them; g nonzero, and the
    candidates ascending (they may run on forever, as itertools.count does).

    Each index's cached record (_phi_index) gives phi(e) and Phi_e(2), and
    the division (_phi_quotient) runs only when phi(e) fits the remaining
    degree and Phi_e(2) divides the remaining g(2).  g becomes a numpy row
    at the first division (_as_row: int64 when every coefficient fits,
    else object), each division picks its own dtype by the bound in
    _phi_quotient, and the rest is a list of ints again at the end.
    The scan stops once the rest is a constant or e passes _index_horizon
    of the rest's degree, which is recomputed after each division: no
    later candidate can divide the rest.  This is the one loop that
    divides out cyclotomic factors.
    """
    k = {}
    value = sum(c << j for j, c in enumerate(g))
    n = len(g)
    horizon = _index_horizon(n - 1)
    row = None
    for e in candidates:
        if e > horizon:
            break
        index = _phi_index(e)
        if index.phi >= n:
            continue
        v = index.at_2
        while not value % v:
            if row is None:
                row = _as_row(g)
            quot = _phi_quotient(row, e)
            if quot is None:
                break
            row, value, n = quot, value // v, len(quot)
            k[e] = k.get(e, 0) + 1
            horizon = _index_horizon(n - 1)
    return (row.tolist() if k else g), k


def _poly_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]] | None:
    """Quotient and remainder of a by b (b[-1] != 0) over Z.

    The remainder has its trailing zeros stripped, so it is [] exactly
    when b divides a.  Returns None when some quotient coefficient is not
    an integer, which cannot happen when b[-1] is a unit.
    """
    n = len(b) - 1
    lead = b[-1]
    terms = [(j, c) for j, c in enumerate(b[:n]) if c]
    rem = list(a)
    quot = [0] * max(len(a) - n, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + n]
        if not c:
            continue
        if lead != 1:
            c, r = divmod(c, lead)
            if r:
                return None
        quot[i] = c
        for j, bc in terms:
            rem[i + j] -= c * bc
    rem = rem[:n]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def _div_exact_int(a: list[int], b: list[int]) -> list[int]:
    """Quotient a / b for a division that must be exact (Gauss's lemma)."""
    qr = _poly_divmod(a, b)
    if qr is None or qr[1]:
        raise ArithmeticError("division expected to be exact")
    return qr[0]


def _pp(c: list[int]) -> list[int]:
    """Primitive part with positive leading coefficient."""
    while c and c[-1] == 0:
        c = c[:-1]
    if not c:
        return []
    g = 0
    for x in c:
        g = math.gcd(g, abs(x))
    if c[-1] < 0:
        g = -g
    return [x // g for x in c]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """prem(a, b) for len(a) >= len(b): the remainder of lc(b)^(deg a -
    deg b + 1) a by b, whose quotient is integral."""
    scale = b[-1] ** (len(a) - len(b) + 1)
    return _poly_divmod([x * scale for x in a], b)[1]


def _poly_gcd(a: list[int], b: list[int]) -> list[int]:
    a, b = _pp(a), _pp(b)
    while b:
        if len(b) > len(a):
            a, b = b, a
            continue
        a, b = b, _pp(_pseudo_rem(a, b))
    return a


def _graeffe_step(coeffs: list[int]) -> list[int]:
    """Root-squaring: coefficients of +-P(sqrt(y))P(-sqrt(y)).

    With P(x) = E(x^2) + x O(x^2) this is E(y)^2 - y O(y)^2, normalized to
    a positive leading coefficient; its roots are the squares of P's.  E
    and O are packed once each, at one slot width that holds every
    coefficient |sum E_i E_j - sum O_i O_j| <= len(P) max|P_k|^2, and the
    packed E^2 - 2^(8 width) O^2 is unpacked once.
    """
    n = len(coeffs)
    bits = 2 * max(abs(c) for c in coeffs).bit_length() + n.bit_length() + 1
    width = (bits + 7) // 8
    even, odd = _pack(coeffs[0::2], width), _pack(coeffs[1::2], width)
    out = _unpack(even * even - (odd * odd << 8 * width), n, width)
    if out[-1] < 0:
        out = [-c for c in out]
    return out


def _derivative(c: list[int]) -> list[int]:
    return [k * x for k, x in enumerate(c)][1:]


def _fold_palindromic(c: list[int]) -> list[int] | None:
    """Q of half the degree with c(t) = t^m Q(t + 1/t), or None.

    Folds a palindromic c of even degree 2m: t^-m c(t) = c_m + sum_j
    c_(m+j) (t^j + t^-j), and t^j + t^-j = T_j(t + 1/t) with T_0 = 2,
    T_1 = x, T_(j+1) = x T_j - T_(j-1).
    """
    if len(c) % 2 == 0 or c != c[::-1]:
        return None
    m = len(c) // 2
    q = [c[m]] + [0] * m
    prev, cur = [2], [0, 1]
    for j in range(1, m + 1):
        for k, x in enumerate(cur):
            q[k] += c[m + j] * x
        nxt = [0] + cur
        for k, x in enumerate(prev):
            nxt[k] -= x
        prev, cur = cur, nxt
    return q


# ---------------------------------------------------------------------------
# the same kernel over F_p, for primes below 2^31


# primes _squarefree_by_prime tries before the exact gcd has to decide
SQUAREFREE_PRIMES = 3

# the largest primes below 2^31, descending; grown on demand by replacing
# the tuple, so a concurrent caller never sees a half-built list
_PRIMES: tuple[int, ...] = ()


def _primes_below_2_31(count: int) -> tuple[int, ...]:
    """At least `count` of the largest primes below 2^31, descending.

    The list grows by sieving the window just below its smallest prime
    with the primes up to isqrt(2^31) = 46340: every composite below 2^31
    has a prime factor among them.  A window spans 32 numbers per missing
    prime (about one in 21 is prime there), and the next window below is
    sieved while too few turn up.
    """
    global _PRIMES
    primes = _PRIMES
    if len(primes) < count:
        root = math.isqrt(1 << 31)
        sieve = np.ones(root + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, math.isqrt(root) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        small = np.flatnonzero(sieve).tolist()
        out = list(primes)
        hi = out[-1] if out else 1 << 31
        while len(out) < count:
            lo = hi - 32 * (count - len(out))
            is_prime = np.ones(hi - lo, dtype=bool)
            for p in small:
                is_prime[-lo % p :: p] = False
            out += (lo + np.flatnonzero(is_prime)[::-1]).tolist()
            hi = lo
        _PRIMES = primes = tuple(out)
    return primes


def _primes_for(bounds, avoid: int = 1) -> tuple[list[int], list[int]]:
    """(primes, counts): the largest primes below 2^31 that do not divide
    `avoid` (nonzero), descending, and for each of the bounds the fewest
    of them, from the first, whose product exceeds 2 * bound, so the
    symmetric CRT lift of any |x| <= bound over that prefix is exact.
    Every count is at least 1, and there are as many primes as the largest
    count.  This is the one rule that turns a bound into a prime count."""
    if not avoid:
        raise ValueError("avoid must be nonzero: every prime divides 0")
    bounds = list(bounds)
    counts = [0] * len(bounds)
    primes, out, prod, i = _PRIMES, [], 1, 0
    for j in sorted(range(len(bounds)), key=bounds.__getitem__):
        while not out or prod <= 2 * bounds[j]:
            if i == len(primes):
                primes = _primes_below_2_31(2 * i + 8)
            p = primes[i]
            i += 1
            if avoid % p:
                out.append(p)
                prod *= p
        counts[j] = len(out)
    return out, counts


def _crt_symmetric(residues: np.ndarray, primes, counts=None) -> list[int]:
    """The integers x with |x| < prod(primes[:n]) / 2 and x = residues[i]
    modulo primes[i] for i < n, one per column of `residues` (an int64
    array with one row per prime; distinct primes below 2^31), by Garner's
    algorithm.  n is the column's entry of counts, or every prime; the
    rows from a column's count on do not matter.

    With M_j = p_0 ... p_(j-1), the mixed-radix digit d_i of x is
    (x - sum_(j<i) d_j M_j) / M_i modulo p_i.  A table of M_j mod p_i
    turns that sum into one product of whole int64 arrays per digit; each
    product is reduced below 2^31 before the sum, so everything fits in 63
    bits.  Only the final Horner sum of the digits runs on Python ints.
    """
    primes = list(primes)
    P = np.array(primes, dtype=np.int64)
    M = np.ones((len(primes), len(primes)), dtype=np.int64)  # M[i, j] = M_j mod p_i
    for j in range(1, len(primes)):
        M[:, j] = M[:, j - 1] * P[j - 1] % P
    digits = np.empty((len(primes), residues.shape[1]), dtype=np.int64)
    digits[0] = residues[0] % primes[0]
    for i in range(1, len(primes)):
        p = primes[i]
        lower = (digits[:i] * M[i, :i, None] % p).sum(axis=0)
        digits[i] = (residues[i] - lower) % p * pow(int(M[i, i]), -1, p) % p
    mods = list(itertools.accumulate(primes, operator.mul))
    if counts is None:
        ms = [mods[-1]] * residues.shape[1]
    else:
        digits[np.arange(len(primes))[:, None] >= np.asarray(counts)] = 0
        ms = [mods[n - 1] for n in counts]
    # Horner from the top digit; the top two still fit in 63 bits
    x = digits[-1] if len(primes) == 1 else digits[-1] * primes[-2] + digits[-2]
    x = x.astype(object)
    for d, p in zip(digits[-3::-1], primes[-3::-1]):
        x = x * p + d
    return [v - m if 2 * v > m else v for v, m in zip(x.tolist(), ms)]


def _rem_monic(a: list, m: list, p: int) -> list:
    """a modulo the monic m over F_p; coefficient lists, constant first."""
    n = len(m) - 1
    r = list(a)
    for k in range(len(r) - 1, n - 1, -1):
        x = r[k] % p
        if x:
            off = k - n
            for i in range(n):
                r[off + i] -= x * m[i]
    return [x % p for x in r[:n]]


def _monic_resultant(a: list, b: list, p: int) -> int:
    """Product of b(alpha) over the roots alpha of the monic a, over F_p,
    by Euclid's algorithm; deg b < deg a."""
    acc = 1
    while True:
        while b and not b[-1]:
            b.pop()
        if not b:
            return 0
        m, n = len(a) - 1, len(b) - 1
        if n == 0:
            return acc * pow(b[0], m, p) % p
        # prod_a b(alpha) = (-1)^{mn} lc(b)^m prod_b a(beta), and
        # a(beta) = (a mod b)(beta) at each root beta of b
        lc = b[-1]
        acc = acc * pow(lc, m, p) % p
        if m * n % 2:
            acc = -acc % p
        inv = pow(lc, -1, p)
        b = [x * inv % p for x in b]
        a, b = b, _rem_monic(a, b, p)


def _squarefree_by_prime(c: list[int]) -> bool:
    """Whether c (degree >= 1) is square-free modulo one of the
    SQUAREFREE_PRIMES largest primes below 2^31 that does not divide lc(c).
    True proves c square-free over Q: a square factor of c keeps its degree
    mod p.  False proves nothing."""
    dc = _derivative(c)
    for p in _primes_below_2_31(SQUAREFREE_PRIMES)[:SQUAREFREE_PRIMES]:
        lc = c[-1] % p
        if lc:
            inv = pow(lc, -1, p)
            if _monic_resultant([x * inv % p for x in c], [x % p for x in dc], p):
                return True
    return False
