"""Ring laws and serialization for the Laurent / cyclic group rings."""

import json
import math
import random

import numpy as np
import pytest

from torsionlab import ringcore
from torsionlab.ringcore import (
    MAX_SPAN,
    SCHOOLBOOK_PAIRS,
    CycElem,
    _crt_symmetric,
    _fold_palindromic,
    _as_row,
    _graeffe_step,
    _mobius_binomials,
    _pack,
    _phi_split,
    _poly_divmod,
    _poly_mul,
    _primes_below_2_31,
    _primes_for,
    _pseudo_rem,
    _unpack,
    LaurentPoly,
    NonUnitModulus,
    SpanTooLarge,
    circulant_expand,
    cyclotomic,
    laurent_eval,
    normalize_unit,
    reduce_mod_q,
    totient,
)

from oracles import DictLaurent, _over_binomial, _phi_quotient, divisors, phi_split_oracle

rng = random.Random(20260824)


def rand_poly(max_terms=5, coeff=9, span=6):
    return LaurentPoly(
        {
            rng.randint(-span, span): rng.randint(-coeff, coeff)
            for _ in range(rng.randint(0, max_terms))
        }
    )


def rand_cyc(q, coeff=9):
    return CycElem(q, [rng.randint(-coeff, coeff) for _ in range(q)])


# -- Laurent ring laws ------------------------------------------------


def test_ring_laws_random():
    for _ in range(500):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * LaurentPoly.one() == a
        assert a + LaurentPoly.zero() == a
        assert a - a == LaurentPoly.zero()


def test_monomial_units():
    t = LaurentPoly.t(1)
    tinv = LaurentPoly.t(-1)
    assert t * tinv == LaurentPoly.one()
    assert LaurentPoly.t(5) * LaurentPoly.t(-3) == LaurentPoly.t(2)


def test_involution_is_ring_antiautomorphism():
    for _ in range(200):
        a, b = rand_poly(), rand_poly()
        assert (a * b).involution() == a.involution() * b.involution()
        assert (a + b).involution() == a.involution() + b.involution()
        assert a.involution().involution() == a


def test_involution_conjugates_on_circle():
    p = rand_poly()
    for theta in (0.3, 1.1, 2.9):
        z = complex(math.cos(theta), math.sin(theta))
        lhs = laurent_eval(p.involution(), z)
        rhs = laurent_eval(p, z).conjugate()
        assert abs(lhs - rhs) < 1e-10


def test_augmentation_is_evaluation_at_one():
    for _ in range(100):
        a, b = rand_poly(), rand_poly()
        assert (a * b).augmentation() == a.augmentation() * b.augmentation()
        assert a.augmentation() == sum(a.coeffs.values())


def test_pow():
    p = LaurentPoly({1: 1, 0: 1})
    # (t+1)^4 binomial oracle
    assert p**4 == LaurentPoly({k: math.comb(4, k) for k in range(5)})
    assert p**0 == LaurentPoly.one()


def test_big_coefficients_exact():
    p = LaurentPoly({0: 10**40, 1: 1})
    q = p * p
    assert q[0] == 10**80
    assert q[1] == 2 * 10**40


# -- reduction to the cyclic ring -------------------------------------


def test_reduce_mod_q_is_ring_morphism():
    for _ in range(300):
        q = rng.choice([3, 4, 5, 7, 12])
        a, b = rand_poly(), rand_poly()
        assert reduce_mod_q(a * b, q) == reduce_mod_q(a, q) * reduce_mod_q(b, q)
        assert reduce_mod_q(a + b, q) == reduce_mod_q(a, q) + reduce_mod_q(b, q)
    assert reduce_mod_q(LaurentPoly.one(), 5) == CycElem.one(5)


def test_reduce_wraps_exponents():
    # t^7 -> t^1, t^-1 -> t^2 in Z[Z/3]
    c = reduce_mod_q(LaurentPoly({7: 1, -1: 2}), 3)
    assert c == CycElem(3, [0, 1, 2])


def _cyc_mul_double_loop(a: CycElem, b: CycElem) -> list:
    # the schoolbook cyclic convolution CycElem.__mul__ used to run
    q = a.q
    out = [0] * q
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[(i + j) % q] += x * y
    return out


@pytest.mark.parametrize("q", [1, 2, 3, 7, 50])
def test_cyc_products_match_double_loop(q):
    zero = CycElem.zero(q)
    elems = [zero, CycElem.one(q), CycElem.t(q, q - 1), rand_cyc(q),
             rand_cyc(q, coeff=2 ** 70), CycElem(q, [-3] + [0] * (q - 1))]
    for a in elems:
        for b in elems:
            prod = a * b
            assert prod.q == q and len(prod.coeffs) == q
            assert prod.coeffs == _cyc_mul_double_loop(a, b), (a, b)
    assert (rand_cyc(q) * zero).is_zero() and (zero * zero).is_zero()
    assert (rand_cyc(q) * 0).coeffs == [0] * q


def test_cyc_involution_matches_laurent():
    for _ in range(100):
        q = rng.choice([3, 5, 8])
        a = rand_poly()
        assert reduce_mod_q(a.involution(), q) == reduce_mod_q(a, q).involution()


def test_cyc_lift_roundtrip():
    for _ in range(50):
        q = rng.choice([3, 4, 7])
        c = rand_cyc(q)
        assert reduce_mod_q(c.lift(), q) == c


# -- circulant expansion ----------------------------------------------


def test_circulant_is_ring_homomorphism():
    for _ in range(200):
        q = rng.choice([3, 4, 5, 6])
        a, b = rand_cyc(q), rand_cyc(q)
        ma = np.array(circulant_expand(a), dtype=object)
        mb = np.array(circulant_expand(b), dtype=object)
        mab = np.array(circulant_expand(a * b), dtype=object)
        assert (ma @ mb == mab).all()
        assert (
            np.array(circulant_expand(a + b), dtype=object) == ma + mb
        ).all()


def test_circulant_of_t_is_cyclic_shift():
    m = circulant_expand(CycElem.t(3))
    # basis index k maps to k+1 mod 3
    assert m == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]


# -- normalization and division ---------------------------------------


def test_normalize_unit():
    p = LaurentPoly({-2: 3, 1: 5})
    mono, shift = normalize_unit(p)
    assert shift == 2
    assert mono == LaurentPoly({0: 3, 3: 5})
    assert mono.deg_lo == 0


def test_divide_exact_roundtrip():
    for _ in range(200):
        a, b = rand_poly(), rand_poly()
        if b.is_zero():
            continue
        prod = a * b
        quot = prod.divide_exact(b)
        assert quot == a or (a.is_zero() and quot is not None and quot.is_zero())
    assert LaurentPoly({1: 1, 0: 1}).divide_exact(LaurentPoly({1: 1, 0: -1})) is None


def test_strip_unit_roots_and_fold():
    gen = random.Random(12)
    t, one = LaurentPoly.t(1), LaurentPoly.one()
    for _ in range(40):
        half = [gen.randint(-50, 50) for _ in range(gen.randint(0, 8))] + [gen.randint(1, 9)]
        rest = half + half[-2::-1]  # palindromic, even degree
        if sum(rest) == 0 or sum(rest[0::2]) == sum(rest[1::2]):
            continue
        a, b = gen.randint(0, 4), gen.randint(0, 4)
        p = LaurentPoly.from_list(rest) * (t - one) ** a * (t + one) ** b
        k = {e: m for e, m in ((1, a), (2, b)) if m}
        assert _phi_split(p.coeff_list(), (1, 2)) == (rest, k)
        q = _fold_palindromic(rest)
        m = len(half) - 1
        assert len(q) == m + 1 and q[-1] == rest[-1]
        # t^m Q(t + 1/t) multiplies back to rest
        x = t + LaurentPoly.t(-1)
        back = sum((LaurentPoly.const(c) * x ** k for k, c in enumerate(q)), LaurentPoly.zero())
        assert back.shift(m) == LaurentPoly.from_list(rest)
    assert _fold_palindromic([1, 2, 2, 1]) is None  # odd degree
    assert _fold_palindromic([1, 2, 3]) is None  # not palindromic
    assert _fold_palindromic([5]) == [5]
    assert _phi_split([3], (1, 2)) == ([3], {})


def test_phi_split_matches_plain_division_loop():
    # random products of Phi_m (m <= 60, with repeats) times a random
    # factor, sometimes with g(2) = 0 so that every Phi_e(2) divides g(2)
    gen = random.Random(15)
    for _ in range(80):
        g = [gen.randint(-9, 9) for _ in range(gen.randint(0, 6))] + [gen.choice((1, -1, 2, -3))]
        if gen.random() < 0.2:
            g = _poly_mul(g, [-2, 1])
        for _ in range(gen.randint(0, 6)):
            m = gen.choice((1, 2, 3, 4, 6, gen.randint(1, 60)))
            g = _poly_mul(g, cyclotomic(m).coeff_list())
        rest, k = _phi_split(g, range(1, 61))
        back = rest
        for e, m in k.items():
            back = _poly_mul(back, (cyclotomic(e) ** m).coeff_list())
        assert back == g
        # the oracle: divide while Phi_e divides, with no Phi_e(2) pre-filter
        # and no early stop
        want, h = {}, g
        for e in range(1, 61):
            while (quot := _phi_quotient(h, e)) is not None:
                h, want[e] = quot, want.get(e, 0) + 1
        assert (rest, k) == (h, want)


def test_dense_kernel_mul_and_divmod():
    gen = random.Random(11)
    for _ in range(200):
        bits = gen.choice((1, 8, 64, 200))
        a = [gen.randint(-(1 << bits), 1 << bits) for _ in range(gen.randint(1, 30))]
        b = [gen.randint(-(1 << bits), 1 << bits) for _ in range(gen.randint(0, 12))]
        b.append(gen.choice((1, -1)))
        school = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                school[i + j] += x * y
        prod = _poly_mul(a, b)
        assert prod == school
        assert _poly_mul(a, a) == _poly_mul(a, list(a))
        # a unit leading coefficient always divides; the remainder is
        # trimmed, so [] means exact
        r = [gen.randint(-9, 9) for _ in range(len(b) - 1)]
        num = [x + (r[k] if k < len(r) else 0) for k, x in enumerate(prod)]
        while r and not r[-1]:
            r.pop()
        quot, rem = _poly_divmod(num, b)
        while a and not a[-1]:
            a.pop()
        assert (quot[: len(a)], rem) == (a, r) and not any(quot[len(a):])
    # non-unit leading coefficient: exact quotients survive, others are None
    assert _poly_divmod([2, 6, 4], [1, 2]) == ([2, 2], [])
    assert _poly_divmod([1, 0, 1], [1, 2]) is None


def test_long_laurent_products_match_term_loop():
    gen = random.Random(7)

    def term_loop(x, y):
        d = {}
        for ka, ca in x.coeffs.items():
            for kb, cb in y.coeffs.items():
                d[ka + kb] = d.get(ka + kb, 0) + ca * cb
        return LaurentPoly(d)

    for _ in range(60):
        bits = gen.choice((2, 40, 300))
        x, y = (
            LaurentPoly({gen.randint(-60, 60): gen.randint(-(1 << bits), 1 << bits)
                         for _ in range(gen.randint(16, 80))})
            for _ in range(2)
        )
        assert x * y == term_loop(x, y)
        assert x * x == term_loop(x, x)
    # coefficients are stored densely, so a span of 10^9 exponents is
    # rejected as a ValueError rather than allocated
    with pytest.raises(SpanTooLarge):
        LaurentPoly({10**9 * k: 1 for k in range(16)})
    assert issubclass(SpanTooLarge, ValueError) and MAX_SPAN < 10**9


def _schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_poly_mul_matches_schoolbook_across_the_cutoff():
    # every length pair on both sides of SCHOOLBOOK_PAIRS, the short
    # branch and Kronecker substitution, lists and tuples, squares too
    gen = random.Random(5)
    top = math.isqrt(SCHOOLBOOK_PAIRS) + 2
    lengths = [(m, n) for m in range(1, top + 1) for n in range(1, top + 1)]
    lengths += [(m, SCHOOLBOOK_PAIRS // m + k) for m in (1, 2, 3, 7) for k in (0, 1, 2)]
    branches = set()
    for m, n in lengths:
        bits = gen.choice((2, 40, 70, 300))
        a = [gen.randint(-(1 << bits), 1 << bits) for _ in range(m)]
        b = tuple(gen.randint(-(1 << bits), 1 << bits) for _ in range(n))
        a[-1] = a[-1] or 1
        assert _poly_mul(a, b) == _schoolbook(a, b), (m, n, bits)
        assert _poly_mul(b, a) == _schoolbook(a, b)
        assert _poly_mul(a, a) == _schoolbook(a, a)
        branches.add(m * n <= SCHOOLBOOK_PAIRS)
    assert branches == {True, False}
    assert _poly_mul([], [1, 2]) == _poly_mul((3,), ()) == []


def test_pack_unpack_round_trip_at_every_width():
    # numpy packs and unpacks one-word slots (width <= 8), and wider slots
    # go one coefficient at a time; rows that fit int64 in a wider slot
    # are the rows the per-coefficient path must read back exactly too
    gen = random.Random(24)
    for width in range(1, 25):
        top = (1 << (8 * width - 1)) - 1
        rows = [[top, -top, 0, 1, -1], [0], [top], [-top] * 3]
        rows += [[gen.randint(-top, top) for _ in range(gen.randint(1, 40))] for _ in range(20)]
        if 9 <= width <= 16:
            small = (1 << 63) - 1
            rows += [[small, -small, 0, 1, -1]]
            rows += [[gen.randint(-small, small) for _ in range(gen.randint(1, 120))]
                     for _ in range(10)]
        for a in rows:
            x = _pack(a, width)
            assert x == sum(c << (8 * width * k) for k, c in enumerate(a)), (width, a)
            assert _unpack(x, len(a), width) == a, (width, a)


@pytest.mark.parametrize("n, bits", [(45, 40), (400, 28)])
def test_multi_word_slots_of_int64_inputs_match_schoolbook(n, bits):
    # inputs that fit int64 whose product slots take 9 to 16 bytes: the
    # walk's block_det products (45 x 45 at 40 bits) and a long product
    # past the width where one-word numpy packing stops
    gen = random.Random(n * bits)
    a = [gen.randint(-(1 << bits), 1 << bits) for _ in range(n)]
    b = [gen.randint(-(1 << bits), 1 << bits) for _ in range(n)]
    a[-1] = b[-1] = 1 << bits
    width = (2 * (bits + 1) + n.bit_length() + 1 + 7) // 8  # as _poly_mul sets it
    assert 9 <= width <= 16
    assert _poly_mul(a, b) == _schoolbook(a, b)
    assert _poly_mul(a, a) == _schoolbook(a, a)
    even, odd = _schoolbook(a[0::2], a[0::2]), _schoolbook(a[1::2], a[1::2])
    want = [x - (odd[k - 1] if 0 < k <= len(odd) else 0) for k, x in enumerate(even + [0])][:n]
    assert _graeffe_step(a) == (want if want[-1] > 0 else [-c for c in want])


def _dense_and_dict(gen, kind):
    """The same seeded polynomial as a LaurentPoly and as a DictLaurent."""
    if kind == "zero":
        terms = {}
    elif kind == "single":
        terms = {gen.randint(-40, 40): gen.choice((1, -1, gen.randint(-9, 9) or 2))}
    else:
        bits = {"small": 4, "big": 300}[kind]
        terms = {gen.randint(-30, 30): gen.randint(-(1 << bits), 1 << bits)
                 for _ in range(gen.randint(1, 40))}
    return LaurentPoly(terms), DictLaurent(terms)


def _agrees(p, o):
    """p (LaurentPoly) and o (DictLaurent) are one polynomial, read through
    every query."""
    assert dict(p.coeffs) == o.coeffs
    assert p.to_json_obj() == o.to_json_obj() and p.dumps() == o.dumps()
    assert repr(p) == repr(o) and p.coeff_list() == o.coeff_list()
    assert (p.is_zero(), bool(p), p.degree_span()) == (o.is_zero(), bool(o), o.degree_span())
    assert (p.augmentation(), p.content_max()) == (o.augmentation(), o.content_max())
    assert p.terms() == sorted(o.coeffs.items())
    if o.coeffs:
        assert (p.deg_lo, p.deg_hi) == (o.deg_lo, o.deg_hi)
        lo, hi = o.deg_lo, o.deg_hi
        assert [p[k] for k in range(lo - 2, hi + 3)] == [o[k] for k in range(lo - 2, hi + 3)]
    else:
        for bad in (lambda: p.deg_lo, lambda: p.deg_hi):
            with pytest.raises(ValueError):
                bad()
    assert (p == o.augmentation()) is (o == o.augmentation())
    return True


def test_dense_laurent_matches_the_sparse_oracle():
    gen = random.Random(19)
    kinds = ("zero", "single", "small", "big")
    cancelled = 0
    for _ in range(300):
        (a, oa), (b, ob) = (_dense_and_dict(gen, gen.choice(kinds)) for _ in range(2))
        assert _agrees(a, oa) and _agrees(b, ob)
        k, n = gen.randint(-50, 50), gen.randint(-3, 3)
        for got, want in ((a + b, oa + ob), (a - b, oa - ob), (a * b, oa * ob), (-a, -oa),
                          (a + n, oa + n), (n + a, n + oa), (a - n, oa - n), (n - a, n - oa),
                          (a * n, oa * n), (n * a, n * oa), (a ** 3, oa ** 3),
                          (a.shift(k), oa.shift(k)), (a.involution(), oa.involution())):
            assert _agrees(got, want)
        # ends that cancel: a + b minus the end terms of b, and that minus a
        edge = (min(ob.coeffs, default=0), max(ob.coeffs, default=0))
        ends = {e: c for e, c in ob.coeffs.items() if e in edge}
        c, oc = a + b - LaurentPoly(ends), oa + ob - DictLaurent(ends)
        assert _agrees(c, oc) and _agrees(c - a, oc - oa)
        cancelled += bool(ends) and (c - a).degree_span() < b.degree_span()
        # equal polynomials from different routes have equal hashes
        for same in ((a + b) - b, LaurentPoly.from_list([0, 0] + a.coeff_list() + [0], a.lo - 2),
                     LaurentPoly.loads(a.dumps()), a.involution().involution(), a * 1):
            assert same == a and hash(same) == hash(a)
        if not ob.is_zero():
            prod = a * b
            assert _agrees(prod.divide_exact(b), (oa * ob).divide_exact(ob))
            got, want = (prod + 1).divide_exact(b), (oa * ob + 1).divide_exact(ob)
            assert (got is None) is (want is None) and (got is None or _agrees(got, want))
    assert cancelled > 50
    assert LaurentPoly() == LaurentPoly.zero() == 0 and hash(LaurentPoly.zero()) == hash(LaurentPoly({5: 0}))


def test_span_guard_rejects_before_allocating():
    # every route to a span past MAX_SPAN raises SpanTooLarge, a
    # ValueError, without building the dense list
    far = LaurentPoly.t(MAX_SPAN + 1)
    one = LaurentPoly.one()
    assert (far - far).is_zero() and far.degree_span() == 0
    edge = LaurentPoly({0: 1, MAX_SPAN: 1})
    assert edge.degree_span() == MAX_SPAN
    huge = LaurentPoly.t(10**12)
    for build in (lambda: one + far, lambda: far - one, lambda: one + huge, lambda: huge - one,
                  lambda: edge * LaurentPoly.t(0) * (one + LaurentPoly.t(1)),
                  lambda: LaurentPoly({0: 1, 10**12: 1}), lambda: LaurentPoly([(-10**12, 1), (0, 2)]),
                  lambda: LaurentPoly.from_json_obj([[0, "1"], [10**12, "1"]]),
                  lambda: LaurentPoly.loads('[[0, "1"], [1000000000000, "1"]]'),
                  lambda: (one + LaurentPoly.t(1 << 19)) ** 3):
        with pytest.raises(SpanTooLarge):
            build()
    # zero coefficients do not count toward the span
    assert LaurentPoly({0: 1, 10**12: 0}) == one


def test_crt_symmetric_lifts_batches():
    gen = random.Random(3)
    for k in (1, 2, 5, 13):
        primes = _primes_below_2_31(k)[:k]
        half = math.prod(primes) // 2
        xs = [gen.randint(-half, half) for _ in range(50)] + [half, -half, 0, 1, -1]
        residues = np.array([[x % p for x in xs] for p in primes], dtype=np.int64)
        assert _crt_symmetric(residues, primes) == xs
        # residues need not be reduced: any int64 representative lifts
        assert _crt_symmetric(residues - np.array(primes)[:, None], primes) == xs
        # a column with its own prime count reads only its leading primes
        counts = [gen.randint(1, k) for _ in xs]
        want = []
        for x, n in zip(xs, counts):
            m = math.prod(primes[:n])
            want.append(x % m - m if 2 * (x % m) > m else x % m)
        garbage = np.array([[gen.randrange(1 << 31) for _ in xs] for _ in primes], dtype=np.int64)
        ragged = np.where(np.arange(k)[:, None] < np.array(counts), residues, garbage)
        assert _crt_symmetric(ragged, primes, counts) == want


def schoolbook_prem(a, b):
    """Reference pseudo-remainder: scale by lc(b), cancel the top term."""
    a = list(a)
    lb = b[-1]
    for k in range(len(a) - len(b), -1, -1):
        lead = a[len(b) - 1 + k]
        a = [x * lb for x in a]
        for i, bc in enumerate(b):
            a[i + k] -= lead * bc
    while a and a[-1] == 0:
        a.pop()
    return a


def test_primes_for_is_the_fewest_prefix():
    # bound 0 still needs one prime: a symmetric CRT lift of 0
    assert _primes_for([0])[0] == list(_primes_below_2_31(1)[:1])
    for bound in (1, 2 ** 31, 2 ** 62, 3 ** 400, 2 ** 3000 - 1):
        primes = _primes_for([bound])[0]
        k = len(primes)
        assert primes == list(_primes_below_2_31(k)[:k])
        assert math.prod(primes) > 2 * bound >= math.prod(primes[:-1])
    # divisors of `avoid` are skipped; the product still covers the bound
    p0, p1, p2 = _primes_below_2_31(3)[:3]
    primes = _primes_for([2 ** 100], avoid=7 * p0 * p2)[0]
    assert p0 not in primes and p2 not in primes and primes[0] == p1
    assert math.prod(primes) > 2 ** 101 >= math.prod(primes[:-1])
    assert len(_primes_for([2 ** 40000])[0]) > 1000


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, exact below 2^64:
    the sieve's independent oracle."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_sieve_draws_the_miller_rabin_primes(monkeypatch):
    # from a cold cache: a small draw, then a larger one that sieves on
    # below it and must keep its prefix
    monkeypatch.setattr(ringcore, "_PRIMES", ())
    first = _primes_below_2_31(8)
    assert len(first) >= 8
    primes = _primes_below_2_31(2000)
    assert primes[:len(first)] == first and _primes_below_2_31(100) is primes
    want, n = [], (1 << 31) - 1
    while len(want) < 2000:
        if is_probable_prime(n):
            want.append(n)
        n -= 2
    assert primes[:2000] == tuple(want)


def test_pseudo_rem_matches_schoolbook():
    gen = random.Random(5)
    for _ in range(500):
        b = [gen.randint(-20, 20) for _ in range(gen.randint(0, 6))]
        b.append(gen.choice([x for x in range(-7, 8) if x]))
        a = [gen.randint(-50, 50) for _ in range(gen.randint(len(b), 14))]
        assert _pseudo_rem(a, b) == schoolbook_prem(a, b)


# -- totient / cyclotomic ---------------------------------------------


def test_totient_against_gcd_count():
    for n in range(1, 60):
        assert totient(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_cyclotomic_known_values():
    assert cyclotomic(1) == LaurentPoly({1: 1, 0: -1})
    assert cyclotomic(2) == LaurentPoly({1: 1, 0: 1})
    assert cyclotomic(6) == LaurentPoly({2: 1, 1: -1, 0: 1})
    assert cyclotomic(12) == LaurentPoly({4: 1, 2: -1, 0: 1})
    # first index with a coefficient other than 0, +-1
    assert cyclotomic(105).content_max() == 2


def test_cyclotomic_product_identity():
    for n in (4, 6, 10, 12, 15):
        prod = LaurentPoly.one()
        for d in divisors(n):
            prod = prod * cyclotomic(d)
        assert prod == LaurentPoly({n: 1, 0: -1})


def _recursive_cyclotomic(n, memo={}):
    """Phi_n = (t^n - 1) / prod_{d | n, d < n} Phi_d, by schoolbook division."""
    if n not in memo:
        num = [-1] + [0] * (n - 1) + [1]
        for d in divisors(n)[:-1]:
            num, rem = _poly_divmod(num, _recursive_cyclotomic(d))
            assert rem == []
        memo[n] = num
    return memo[n]


def test_cyclotomic_from_binomials_matches_recursive_division():
    for n in list(range(1, 301)) + [2010, 2310]:
        assert cyclotomic(n) == LaurentPoly.from_list(_recursive_cyclotomic(n)), n


def test_mobius_binomials():
    for m in list(range(1, 200)) + [2310, 2**10, 3**5 * 7]:
        plus, minus = _mobius_binomials(m)
        assert plus[0] == m and sum(plus) - sum(minus) == totient(m)
        mu = {}  # mu(m/d) by the Moebius sum over the divisors of m/d
        for k in divisors(m):
            mu[k] = 1 if k == 1 else -sum(mu[j] for j in divisors(k)[:-1])
        assert sorted(plus) == sorted(d for d in divisors(m) if mu[m // d] == 1)
        assert sorted(minus) == sorted(d for d in divisors(m) if mu[m // d] == -1)


@pytest.mark.parametrize("m", [1, 2, 30, 210, 2310, 2**10])
def test_phi_quotient_matches_division_by_phi(m):
    gen = random.Random(m)
    phi = cyclotomic(m).coeff_list()
    for trial in range(24):
        bits = gen.choice((1, 8, 200))
        h = [gen.randint(-(1 << bits), 1 << bits) for _ in range(gen.randint(1, 40))]
        h[-1] = h[-1] or 3  # a nonzero, mostly non-unit leading coefficient
        g = _poly_mul(h, phi)
        if trial % 2:
            # a nonzero remainder of degree below phi(m), or a perturbed
            # top coefficient, keeps Phi_m from dividing g
            if trial % 4 == 1:
                g[gen.randrange(len(phi) - 1)] += gen.choice((1, -1, 1 << 199))
            else:
                g = g + [gen.choice((1, -1))]
        while not g[-1]:
            g.pop()
        quot, rem = _poly_divmod(g, phi)
        want = quot if not rem else None
        assert _phi_quotient(g, m) == want, (m, trial)
        assert row_quotient(g, m) == want, (m, trial)
        assert (want is None) == bool(trial % 2)
    # shorter than Phi_m; Phi_m itself, of either sign
    for quotient in (_phi_quotient, row_quotient):
        assert quotient(phi[:-1], m) is None
        assert quotient(phi, m) == [1]
        assert quotient([-c for c in phi], m) == [-1]


def row_quotient(g, m):
    """The library's numpy-row _phi_quotient on a list, as a list."""
    q = ringcore._phi_quotient(_as_row(g), m)
    return None if q is None else q.tolist()


def test_phi_split_matches_the_list_kernel_split():
    # random cofactors times random Phi_m powers: small coefficients (int64
    # rows), 55-bit ones, whose divisions fall on either side of the
    # int64 bound, and 70-bit ones past int64 (object rows);
    # indices from 1 to 120, so that d^2 < n for small d and d^2 >= n for
    # large ones, and palindromic cofactors times odd powers of Phi_1,
    # which are anti-palindromic.  Every input not divisible by t - 1 takes
    # a non-exact division by 1 - t, whose whole remainder is its last
    # running sum.  The oracle divides with the list kernel, while Phi_e
    # divides, for every index: no Phi_e(2) filter and no horizon.
    gen = random.Random(2718)
    seen = set()
    for trial in range(90):
        bits = (4, 55, 70)[trial % 3]
        h = [gen.randint(-(1 << bits), 1 << bits) for _ in range(gen.randint(1, 8))]
        h[-1] = h[-1] or 1
        if trial % 2:
            h = h + h[-2::-1]
        g = h
        for _ in range(gen.randint(0, 7)):
            m = gen.choice((1, 2, 3, gen.randint(1, 12), gen.randint(13, 120)))
            g = _poly_mul(g, cyclotomic(m).coeff_list())
        if trial % 4 == 1:
            g = _poly_mul(g, [-1, 1])
        if g[::-1] == [-c for c in g]:
            seen.add("anti-palindromic")
        rest, k = _phi_split(g, range(1, 121))
        assert (rest, k) == phi_split_oracle(g, range(1, 121)), trial
        seen.add(_as_row(g).dtype)
        seen.update("d^2 < n" if e * e < len(g) else "d^2 >= n" for e in k)
        if k.get(1, 0) % 2:
            seen.add("odd power of Phi_1")
    assert seen == {np.dtype(np.int64), np.dtype(object), "d^2 < n", "d^2 >= n",
                    "anti-palindromic", "odd power of Phi_1"}, seen


def test_phi_split_overflow_guard():
    # (t^2 - 1)^60 Phi_30 fits int64, but at m = 30 (four mu = -1
    # binomials, of sum 32) the bound on its products and running sums,
    # max|g| 2^4 (len g + 32), passes 2^63; (2^61 + 3)(t + 2)(t + 1)
    # (t^2 + t + 1) has coefficients in [2^63, 2^64), which numpy's own
    # inference would read as uint64; (t^2 - 1)^70 has coefficients past
    # 2^64
    def power(p, e):
        out = [1]
        for _ in range(e):
            out = _poly_mul(out, p)
        return out

    fits = _poly_mul(power([-1, 0, 1], 60), cyclotomic(30).coeff_list())
    trap = [(2**61 + 3) * c for c in _poly_mul([2, 1], _poly_mul([1, 1], [1, 1, 1]))]
    past = power([-1, 0, 1], 70)
    assert max(map(abs, fits)) < 2**63 <= (max(fits) << 4) * (len(fits) + 32)
    assert 2**63 <= max(trap) < 2**64 and min(trap) > 0
    assert max(map(abs, past)) >= 2**64
    assert [_as_row(g).dtype for g in (fits, trap, past)] == [np.int64, object, object]
    for g, want in ((fits, {1: 60, 2: 60, 30: 1}), (trap, {2: 1, 3: 1}), (past, {1: 70, 2: 70})):
        rest, k = _phi_split(g, range(1, 61))
        assert (rest, k) == phi_split_oracle(g, range(1, 61))
        assert k == want


def test_binomial_ratio_guards_later_divisions():
    # a square wave of height c = 2^51, length 1000 and sum 0: c len g <
    # 2^62 lets the first division by 1 - t run on int64, but its
    # quotient, a triangle wave of height 250 c, has running sums up to
    # about 250^2 c / 2 > 2^63, so the row must turn object before the
    # second division
    c = 2**51
    wave = [c] * 250 + [-c] * 500 + [c] * 250
    want = _over_binomial(_over_binomial(wave, 1), 1)
    assert max(map(abs, want)) >= 2**63
    row = _as_row(wave)
    assert row.dtype == np.int64 and c * len(wave) < 2**62
    got = ringcore._binomial_ratio(row, (), (1, 1))
    assert got.dtype == object and got.tolist() == want


def test_cyclotomic_roots_primitive():
    n = 8
    cs = cyclotomic(n).coeff_list()
    roots = np.roots(cs[::-1])
    prim = [np.exp(2j * np.pi * k / n) for k in range(n) if math.gcd(k, n) == 1]
    assert sorted(np.angle(roots)) == pytest.approx(sorted(np.angle(prim)), abs=1e-8)


# -- evaluation guard and serialization -------------------------------


def test_laurent_eval_rejects_off_circle():
    p = LaurentPoly({-1: 1})
    with pytest.raises(NonUnitModulus):
        laurent_eval(p, 0.5 + 0j)
    assert laurent_eval(p, 1j) == pytest.approx(-1j)


def test_json_roundtrip():
    for _ in range(50):
        p = rand_poly()
        assert LaurentPoly.loads(p.dumps()) == p
    p = LaurentPoly({0: 10**30, -4: -7})
    obj = json.loads(p.dumps())
    # coefficients travel as decimal strings
    assert all(isinstance(c, str) for _, c in obj)

    q = 5
    c = rand_cyc(q)
    assert CycElem.from_json_obj(c.to_json_obj()) == c
    # JSON integers and integer strings only: a float, bool or null is
    # refused rather than truncated, and so is a repeated exponent
    assert LaurentPoly.from_json_obj([[-2, "-7"], [1, 3], [4, 0]]) == LaurentPoly({-2: -7, 1: 3})
    for bad in ([[0, 1.5]], [[0.5, 1]], [[0, True]], [[0, None]], [[0, "1.0"]], [[0, "1e3"]],
                [5], [[0, 1, 2]], 5, [[0, 5], [1, 1], [0, 0]]):
        with pytest.raises(ValueError):
            LaurentPoly.from_json_obj(bad)
    for bad in ({"q": 2.0, "coeffs": [1, 0]}, {"q": 2, "coeffs": [1, 0.5]}):
        with pytest.raises(ValueError):
            CycElem.from_json_obj(bad)
