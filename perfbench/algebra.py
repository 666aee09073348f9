"""Independent integer algebra for generating inputs and checking outputs.

Nothing here imports torsionlab: the checks must not trust the code they
check, and building inputs must not warm the library's module caches.
Dense polynomials are lists of Python ints, index = exponent.
"""

from __future__ import annotations

from functools import lru_cache


def trim(a: list[int]) -> list[int]:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _times_binomial(a: list[int], d: int) -> list[int]:
    """a * (t^d - 1)."""
    out = [-x for x in a] + [0] * d
    for i, x in enumerate(a):
        out[i + d] += x
    return out


def _div_binomial(a: list[int], d: int) -> list[int]:
    """a / (t^d - 1); raises if the division is not exact."""
    n = len(a) - 1 - d
    if n < 0:
        raise ArithmeticError("quotient degree is negative")
    work = list(a)
    quot = [0] * (n + 1)
    for i in range(n, -1, -1):
        c = work[i + d]
        quot[i] = c
        work[i + d] = 0
        work[i] += c
    if any(work):
        raise ArithmeticError("t^d - 1 does not divide")
    return quot


def mobius(n: int) -> int:
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def totient(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Phi_n as the Moebius product of the binomials t^d - 1, d | n."""
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    divs = [d for d in range(1, n + 1) if n % d == 0]
    num = [1]
    for d in divs:
        if mobius(n // d) == 1:
            num = _times_binomial(num, d)
    for d in divs:
        if mobius(n // d) == -1:
            num = _div_binomial(num, d)
    return tuple(trim(num))


def cyclotomic_product(indices: dict[int, int]) -> list[int]:
    out = [1]
    for m in sorted(indices):
        for _ in range(indices[m]):
            out = mul(out, list(cyclotomic(m)))
    return out


# -- Laurent polynomials as {exponent: coefficient} ---------------------


def laurent_from_json(obj) -> dict[int, int]:
    out: dict[int, int] = {}
    for k, c in obj:
        c = int(c)
        if c:
            out[int(k)] = out.get(int(k), 0) + c
    return {k: c for k, c in out.items() if c}


def laurent_to_json(p: dict[int, int]) -> list[list]:
    return [[k, str(p[k])] for k in sorted(p) if p[k]]


def laurent_from_dense(dense: list[int], lo: int = 0) -> dict[int, int]:
    return {lo + i: c for i, c in enumerate(dense) if c}


def laurent_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: c for k, c in out.items() if c}


def laurent_sub(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) - c
    return {k: c for k, c in out.items() if c}


def honest(p: dict[int, int]) -> list[int]:
    """Dense coefficients of t^-lo * p, lowest exponent first."""
    if not p:
        return []
    lo, hi = min(p), max(p)
    return [p.get(k, 0) for k in range(lo, hi + 1)]


def matrix_det_laurent(rows) -> dict[int, int]:
    """Determinant of a 1x1 or 2x2 matrix of Laurent polynomials."""
    if len(rows) == 1:
        return dict(rows[0][0])
    if len(rows) == 2:
        return laurent_sub(
            laurent_mul(rows[0][0], rows[1][1]), laurent_mul(rows[0][1], rows[1][0])
        )
    raise ValueError("only 1x1 and 2x2 presentations are supported")


# -- resultants ----------------------------------------------------------


def bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free exact determinant of a square integer matrix."""
    a = [list(r) for r in m]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * akk - aik * row_k[j]) // prev
        prev = akk
    return sign * a[n - 1][n - 1]


def sylvester_resultant(f: list[int], g: list[int]) -> int:
    """Res(f, g) as the determinant of the Sylvester matrix."""
    f, g = trim(f), trim(g)
    m, n = len(f) - 1, len(g) - 1
    if m < 0 or n < 0:
        return 0
    size = m + n
    if size == 0:
        return 1
    rows = []
    hf, hg = f[::-1], g[::-1]  # highest coefficient first
    for i in range(n):
        rows.append([0] * i + hf + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + hg + [0] * (size - n - 1 - i))
    return bareiss_det(rows)


def cover_torsion_oracle(delta: dict[int, int], q: int) -> int:
    """|Res(Delta, t^q - 1)|: the order of H_1 of the q-fold cover when
    it is finite, and 0 exactly when the cover has positive Betti number."""
    return abs(sylvester_resultant(honest(delta), [-1] + [0] * (q - 1) + [1]))
