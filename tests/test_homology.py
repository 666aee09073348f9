"""Smith normal form, cover torsion, growth scans, Heegaard homology."""

import itertools
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from torsionlab import homology
from torsionlab.hermitian import block_det, bottom_left_block
from torsionlab.homology import (
    NotSymplectic,
    _cyclotomic_resultant,
    _euclid_rows,
    _height_bits,
    _sweep_folded,
    _sweep_unfolded,
    _tower,
    _tower_resultants,
    circulant_det,
    cover_homology,
    expand_presentation,
    growth_scan,
    heegaard_homology,
    smith_normal_form,
)
from torsionlab.ringcore import CycElem, LaurentPoly, circulant_expand, cyclotomic
from torsionlab.ringcore import InvalidModulus, reduce_mod_q, totient
from torsionlab.ringcore import _monic_resultant, _phi_split, _poly_divmod
from torsionlab.ringcore import _fold_palindromic, _primes_for
from torsionlab.ringcore import _mobius_binomials, _primes_below_2_31, _rem_monic
from torsionlab.walks import WalkConfig, bundled_generators, sample_word

from oracles import _phi_quotient, bareiss_det, divisors, resultant_with_tq_minus_1

rng = random.Random(314159)
GENS, PROBS = bundled_generators(3)
LEHMER = LaurentPoly({10: 1, 9: 1, 7: -1, 6: -1, 5: -1, 4: -1, 3: -1, 1: 1, 0: 1})
DEGENERATE = LaurentPoly({3: 1, 2: -2, 1: -2, 0: 1})  # (t + 1)(t^2 - 3t + 1)
TOWER_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "tower.json"


def walk_trial_block():
    """The bundled genus-3 walk of 32 steps, master seed 7, trial 0: a 2 x 2
    block with det B = (t - 1)^6 D0, deg D0 = 28."""
    config = WalkConfig(generators=GENS, probabilities=PROBS, g=3, n_steps=32, master_seed=7)
    return bottom_left_block(sample_word(config, 0, 32))



def int_resultant(a: list[int], b: list[int]) -> int:
    """Res(a, b) = prod b(alpha) over the roots alpha of the monic a,
    exactly: the determinant of multiplication by b on Z[t]/(a)."""
    k = len(a) - 1
    col = _poly_divmod(b, a)[1]
    cols = []
    for _ in range(k):
        col = col + [0] * (k - len(col))
        cols.append(col)
        top = col[-1]
        col = [0] + col[:-1]
        if top:
            col = [x - top * y for x, y in zip(col, a)]
    return bareiss_det(cols)



def _mulmod(a: list, b: list, m: list, p: int) -> list:
    """a * b modulo the monic m over F_p."""
    h = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                h[i + j] += x * y
    return _rem_monic(h, m, p)


def _resultant_mod(g: list[int], q: int, p: int) -> int:
    """The per-prime oracle: prod (beta^q - 1) over the roots beta of g,
    over F_p (p not dividing lc(g)); t^q is reduced modulo g / lc(g) by
    square-and-multiply and the product finished by Euclid."""
    inv = pow(g[-1], -1, p)
    m = [x * inv % p for x in g]
    r = [1] + [0] * (len(g) - 2)
    for bit in bin(q)[2:]:
        r = _mulmod(r, r, m, p)
        if bit == "1":
            r = _rem_monic([0] + r, m, p)
    r[0] = (r[0] - 1) % p
    return _monic_resultant(m, r, p)


# the largest primes below 2^30; the sweep draws its own from below 2^31
ORACLE_PRIMES = [1073741789, 1073741783, 1073741741]


def rand_matrix(m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


# -- Smith normal form -------------------------------------------------


def test_snf_examples():
    dec = smith_normal_form([[2, 0], [0, 3]])
    assert dec.invariant_factors == [1, 6]
    dec = smith_normal_form([[0, 0, 0], [0, 0, 0]])
    assert dec.corank() == 2
    assert dec.invariant_factors == [0, 0]


def test_snf_decomposition_property():
    # independent oracle: d_1 ... d_k is the gcd of all k x k minors of A
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = [[x if rng.random() < 0.7 else 0 for x in row] for row in rand_matrix(m, n)]
        dec = smith_normal_form(A)
        assert all(dec.D[i][j] == 0 for i in range(m) for j in range(n) if i != j)
        fac = dec.invariant_factors
        assert min(fac) >= 0
        for k in range(1, min(m, n) + 1):
            minors = [bareiss_det([[A[i][j] for j in cols] for i in rows])
                      for rows in itertools.combinations(range(m), k)
                      for cols in itertools.combinations(range(n), k)]
            assert math.prod(fac[:k]) == math.gcd(*minors), (A, fac, k)
        # divisibility chain
        nz = dec.nonzero_factors()
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0


def test_snf_determinant_is_product_of_factors():
    for _ in range(20):
        n = rng.randint(1, 4)
        A = rand_matrix(n, n)
        dec = smith_normal_form(A)
        prod = 1
        for d in dec.invariant_factors:
            prod *= d
        assert prod == abs(bareiss_det(A))


def test_snf_big_entries():
    A = [[10**30, 1], [0, 10**30]]
    dec = smith_normal_form(A)
    assert dec.invariant_factors == [1, 10**60]


# -- circulant determinant --------------------------------------------


def test_circulant_det_matches_bareiss():
    for _ in range(20):
        q = rng.choice([3, 4, 5, 6])
        c = [rng.randint(-9, 9) for _ in range(q)]
        M = [[c[(i - j) % q] for j in range(q)] for i in range(q)]
        assert circulant_det(CycElem(q, c)) == bareiss_det(M)


def test_circulant_det_signed_on_wrapping_supports():
    # short supports placed anywhere, so most wrap past t^(q-1); this
    # exercises the rotation sign (-1)^(s(q-1)) and the window search
    for _ in range(300):
        q = rng.randint(1, 14)
        c = [0] * q
        start = rng.randrange(q)
        for k in range(rng.randint(1, 4)):
            c[(start + k) % q] = rng.randint(-6, 6)
        M = [[c[(i - j) % q] for j in range(q)] for i in range(q)]
        assert circulant_det(CycElem(q, c)) == bareiss_det(M), (q, c)


def test_circulant_det_edge_cases():
    for q in (1, 2, 5, 8):
        assert circulant_det(CycElem.zero(q)) == 0
        assert circulant_det(CycElem(q, [-3])) == (-3) ** q
        for s in range(q):
            # a pure shift is a permutation matrix of sign (-1)^(s(q-1))
            assert circulant_det(CycElem.t(q, s)) == (-1) ** (s * (q - 1))
            assert circulant_det(CycElem.t(q, s) * -2) == (-1) ** (s * (q - 1)) * (-2) ** q


def test_circulant_det_resultant_divisibility_lehmer():
    # t^d - 1 divides t^q - 1 for d | q, so Res(L, t^d - 1) | Res(L, t^q - 1)
    lehmer = LaurentPoly({10: 1, 9: 1, 7: -1, 6: -1, 5: -1, 4: -1, 3: -1, 1: 1, 0: 1})
    for q in (1680, 2000):
        top = circulant_det(reduce_mod_q(lehmer, q))
        assert top != 0
        for d in range(1, q):
            if q % d == 0:
                assert top % circulant_det(reduce_mod_q(lehmer, d)) == 0, (q, d)
    rep = cover_homology([[reduce_mod_q(lehmer, 2000)]], 2000)
    assert rep.method == "circulant_det"
    assert rep.torsion_order == abs(top)
    assert rep.log_torsion_over_q == pytest.approx(0.16235761, abs=1e-3)


def test_circulant_det_large_known():
    # circulant of t - 2 at q = 100: |det| = 2^100 - 1
    c = CycElem(100, [-2, 1] + [0] * 98)
    assert abs(circulant_det(c)) == 2**100 - 1


# -- cover homology ----------------------------------------------------


def test_cover_homology_resultant_oracle():
    corpus = [
        LaurentPoly({1: 1, 0: -2}),
        LaurentPoly({1: 1, 0: -3}),
        LaurentPoly({2: 1, 1: -1, 0: -1}),
    ]
    for p in corpus:
        for q in (3, 4, 5, 7, 9):
            rep = cover_homology([[reduce_mod_q(p, q)]], q)
            assert rep.betti == 0
            assert rep.torsion_order == resultant_with_tq_minus_1(p, q)


def test_cover_homology_free_rank():
    # t - 1 vanishes at every q-th root of unity: rank drops by one
    p = LaurentPoly({1: 1, 0: -1})
    rep = cover_homology([[reduce_mod_q(p, 3)]], 3)
    assert rep.betti == 1


def test_cover_homology_fast_path_agrees_with_snf():
    p = LaurentPoly({1: 1, 0: -2})
    for q in (12, 90):
        Bq = [[reduce_mod_q(p, q)]]
        rep = cover_homology(Bq, q)
        dec = smith_normal_form(expand_presentation(Bq, q))
        torsion = 1
        for d in dec.nonzero_factors():
            torsion *= d
        assert rep.method == "circulant_det"
        assert (rep.torsion_order, rep.betti) == (torsion, dec.corank())
        assert rep.torsion_order == 2**q - 1


def snf_torsion_betti(Bq, q):
    """The oracle: Smith normal form of the expanded hq x hq presentation."""
    dec = smith_normal_form(expand_presentation(Bq, q))
    torsion = 1
    for d in dec.nonzero_factors():
        torsion *= d
    return torsion, dec.corank()


def test_cover_homology_degenerate_takes_split_resultant():
    # (t + 1)(t^2 - 3t + 1) vanishes at t = -1, a root of t^q - 1 for even q
    p = LaurentPoly({3: 1, 2: -2, 1: -2, 0: 1})
    Bq = [[reduce_mod_q(p, 10)]]
    even = cover_homology(Bq, 10)
    assert even.method == "split_resultant" and even.betti == 1
    assert even.torsion_order == snf_torsion_betti(Bq, 10)[0]
    odd = cover_homology([[reduce_mod_q(p, 9)]], 9)
    assert odd.method == "circulant_det" and odd.betti == 0
    assert odd.torsion_order == resultant_with_tq_minus_1(p, 9)


def test_split_resultant_matches_snf_on_walk_blocks():
    config = WalkConfig(generators=GENS, probabilities=PROBS, g=3, n_steps=12)
    methods = []
    for trial in range(4):
        B = bottom_left_block(sample_word(config, trial, 12))
        for q in (2, 3, 5, 6, 8, 12):
            Bq = [[reduce_mod_q(e, q) for e in row] for row in B]
            rep = cover_homology(Bq, q)
            assert (rep.torsion_order, rep.betti) == snf_torsion_betti(Bq, q), (trial, q)
            methods.append(rep.method)
    # t - 1 divides every entry of a walk block, so no cover is nondegenerate
    assert "circulant_det" not in methods
    assert methods.count("split_resultant") >= 20


def test_split_resultant_matches_snf_on_tower_presentation():
    p = LaurentPoly({3: 1, 2: -2, 1: -2, 0: 1})  # (t + 1)(t^2 - 3t + 1)
    for q in range(2, 41):
        Bq = [[reduce_mod_q(p, q)]]
        rep = cover_homology(Bq, q)
        assert rep.method == ("split_resultant" if q % 2 == 0 else "circulant_det")
        assert (rep.torsion_order, rep.betti) == snf_torsion_betti(Bq, q), q


def test_split_resultant_matches_snf_on_cyclotomic_products():
    local = random.Random(2718)
    t = LaurentPoly.t()
    fixed = [
        (cyclotomic(1) * cyclotomic(2) * (t - 3), 2),  # G = t^2 - 1, F = 1
        (cyclotomic(1) * cyclotomic(3) * (2 * t + 1), 3),  # G = t^3 - 1, F = 1
        (cyclotomic(2) ** 2 * (t * t - 3 * t + 1), 6),  # Phi_2^2 | Delta
        (cyclotomic(3) ** 2 * cyclotomic(6) * (t + 2), 12),
        (cyclotomic(1) ** 3 * cyclotomic(4), 8),  # Delta is all cyclotomic
    ]
    randomized = []
    for _ in range(60):
        p = LaurentPoly({k: local.randint(-3, 3) for k in range(local.randint(1, 3))})
        for _ in range(local.randint(1, 3)):
            p = p * cyclotomic(local.choice([1, 2, 3, 4, 6, 8, 12]))
        randomized.append((p.shift(local.randint(-3, 3)), local.randint(2, 16)))
    methods = set()
    for p, q in fixed + randomized:
        if p.is_zero():
            continue
        Bq = [[reduce_mod_q(p, q)]]
        rep = cover_homology(Bq, q)
        assert rep.method != "snf"  # h = 1: G is every Phi_d (d | q) dividing Delta
        assert (rep.torsion_order, rep.betti) == snf_torsion_betti(Bq, q), (p, q)
        methods.add(rep.method)
    assert methods == {"split_resultant", "circulant_det"}
    for p, q in fixed[:2]:
        rep = cover_homology([[reduce_mod_q(p, q)]], q)
        assert (rep.torsion_order, rep.betti) == (1, q)


def test_snf_kept_when_phi_divides_det_but_not_every_entry():
    t = LaurentPoly.t()
    B = [[t - 1, LaurentPoly.one()], [LaurentPoly.zero(), t + 2]]  # det (t - 1)(t + 2)
    for q in (2, 3, 4):
        Bq = [[reduce_mod_q(e, q) for e in row] for row in B]
        rep = cover_homology(Bq, q)
        assert rep.method == "snf" and rep.betti == 1
        assert (rep.torsion_order, rep.betti) == snf_torsion_betti(Bq, q)


class _Swept(Exception):
    """Raised in place of _tower's split of det B, once its C is known."""


def _tower_common_set(monkeypatch, B, qs):
    """The set C that _tower takes: the Phi_d (d | some q) dividing every
    nonzero entry.  _tower splits each entry, then det B; the last entry's
    multiplicities are C, and the run stops at the split of det B."""
    n = sum(not e.is_zero() for row in B for e in row)
    found = []
    split = homology._phi_split

    def spy(g, candidates):
        if len(found) == n:
            raise _Swept
        out = split(g, candidates)
        found.append(out[1])
        return out

    monkeypatch.setattr(homology, "_phi_split", spy)
    try:
        reports = _tower(B, block_det(B), qs)
    except _Swept:
        reports = None
    monkeypatch.undo()
    divs = {d for q in qs for d in divisors(q)}
    return set(found[-1]) if found else divs, reports


def _common_set_oracle(B, qs):
    """C by the probe _tower took before it split the entries: one
    _phi_quotient per entry and divisor."""
    polys = [e.coeff_list() for row in B for e in row if not e.is_zero()]
    divs = {d for q in qs for d in divisors(q)}
    return {d for d in divs if all(_phi_quotient(g, d) is not None for g in polys)}


def test_tower_common_set_matches_the_quotient_probe(monkeypatch):
    # random 1 x 1 and 2 x 2 blocks with Phi_d and Phi_d^2 planted in some
    # entries, and in every entry for some d; the walk trial block; and
    # blocks with det 0, whose towers run to the end
    local = random.Random(4242)
    qs = sorted(local.sample(range(1, 241), 30))
    divs = sorted({d for q in qs for d in divisors(q)})
    nontrivial = 0
    for _ in range(40):
        h = local.choice([1, 2])
        common = local.sample(divs[:40], local.randint(0, 2))
        B = []
        for _ in range(h):
            row = []
            for _ in range(h):
                e = LaurentPoly({k: local.randint(-3, 3) for k in range(local.randint(1, 4))})
                for d in common + local.sample(divs[:40], local.randint(0, 2)):
                    e = e * cyclotomic(d) ** local.randint(1, 2)
                row.append(e.shift(local.randint(-2, 2)))
            B.append(row)
        if block_det(B).is_zero():
            continue
        C, _ = _tower_common_set(monkeypatch, B, qs)
        assert C == _common_set_oracle(B, qs), B
        nontrivial += len(C) > 1
    assert nontrivial >= 10
    C, _ = _tower_common_set(monkeypatch, walk_trial_block(), range(1, 301))
    assert C == _common_set_oracle(walk_trial_block(), range(1, 301)) == {1}
    f = cyclotomic(2) * cyclotomic(3) * LaurentPoly({0: 1, 1: -3, 2: 1})
    zero = LaurentPoly.zero()
    for B in ([[f, f], [f, f]], [[f, zero], [zero, zero]], [[zero]]):
        qs = list(range(1, 13))
        C, reports = _tower_common_set(monkeypatch, B, qs)
        assert C == _common_set_oracle(B, qs), B
        assert [r.betti for r in reports] == [snf_torsion_betti(
            [[reduce_mod_q(e, q) for e in row] for row in B], q)[1] for q in qs], B


def test_walk_cover_at_q_2000_and_resultant_divisibility():
    config = WalkConfig(generators=GENS, probabilities=PROBS, g=3, n_steps=16)
    B = bottom_left_block(sample_word(config, 0, 16))
    # Phi_e (e | 2000) dividing every entry; G_d = G_q for every d | q they divide
    common = [e for e in divisors(2000)
              if all(x.divide_exact(cyclotomic(e)) is not None for row in B for x in row)]
    assert common == [1]
    top = cover_homology([[reduce_mod_q(e, 2000) for e in row] for row in B], 2000)
    assert top.method == "split_resultant" and top.betti == 2
    assert top.log_torsion_over_q > 1.0
    for d in (1000, 400, 250):
        # G_d = G_q = t - 1, so F_d | F_q and Res(F_d, D) | Res(F_q, D)
        rep = cover_homology([[reduce_mod_q(e, d) for e in row] for row in B], d)
        assert rep.betti == 2
        assert top.torsion_order % rep.torsion_order == 0, d


def test_cyclotomic_resultant_closed_form():
    for m in range(1, 31):
        for n in range(1, 31):
            if m != n:
                exact = int_resultant(cyclotomic(m).coeff_list(), cyclotomic(n).coeff_list())
                assert _cyclotomic_resultant(m, n) == abs(exact), (m, n)


def test_euclid_rows_match_one_row_at_a_time():
    # the row kernel of the tower sweep, every row its own a, b and prime:
    # small primes make the remainder sequences drop degree often, so rows
    # leave the batch with an a that is no longer monic and are finished
    # alone from their current state; the largest primes below 2^31, with
    # residues near p, make every product of a pseudo-remainder step come
    # near 2^62, so a sum of two of them, or a step without its reduction,
    # overflows int64
    local = random.Random(1618)
    small = [p for p in range(3, 200) if all(p % k for k in range(2, p))]
    large = _primes_below_2_31(24)[:24]
    for i in range(300):
        k = local.randint(1, 9)
        if i % 3:
            P = [local.choice(small) for _ in range(local.randint(1, 40))]
            a = [[local.randrange(p) for _ in range(k)] + [1] for p in P]
            b = [[local.randrange(p) if local.random() > 0.15 else 0 for _ in range(k)] for p in P]
        else:
            P = [local.choice(large) for _ in range(local.randint(1, 40))]
            a = [[p - 1 - local.randrange(1 << 12) for _ in range(k)] + [1] for p in P]
            b = [[p - 1 - local.randrange(1 << 12) for _ in range(k)] for p in P]
        got = _euclid_rows(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64),
                           np.array(P, dtype=np.int64))
        assert got.tolist() == [_monic_resultant(x, y, p) for x, y, p in zip(a, b, P)]


def test_tower_resultants_match_int_resultant_oracle():
    # the oracle: the determinant of multiplication by D0 on Z[t]/(t^q - 1)
    local = random.Random(1414)
    zeros = 0
    for i in range(20):
        D0 = [local.randint(-6, 6) for _ in range(local.randint(1, 10))]
        D0 = D0 + [local.choice([1, -1, 2, -3, 5])]
        if i % 4 == 0:  # a Phi_e factor: Res vanishes at every q divisible by e
            D0 = (LaurentPoly.from_list(D0, lo=0) * cyclotomic(local.choice([1, 2, 3, 4, 6]))
                  ).coeff_list()
        qs = list(range(1, 41))
        got = _tower_resultants(D0, qs)
        for q, res in zip(qs, got):
            assert res == int_resultant([-1] + [0] * (q - 1) + [1], D0), (D0, q)
        zeros += got.count(0)
    assert zeros > 10


def test_zero_avoid_is_refused_not_looped_on():
    # every prime divides 0, so no prime could be drawn: _primes_for
    # refuses it, and so does the sweep of a g with g(0) = 0, which no
    # caller passes
    with pytest.raises(ValueError):
        _primes_for([10], avoid=0)
    with pytest.raises(ValueError):
        _tower_resultants([0, 1, 1], [1, 2, 3])


def test_tower_resultants_match_per_prime_oracle():
    # the sweep at every q <= 200, on the D0 that growth_scan sweeps for
    # Lehmer, (t + 1)(t^2 - 3t + 1) and the walk trial, against the
    # per-prime square-and-multiply modulo primes the sweep does not use,
    # so the CRT lift is checked too
    delta = block_det(walk_trial_block()).coeff_list()
    trial, k = _phi_split(delta, range(1, 100))
    assert k == {1: 6} and len(trial) == 29
    towers = [LEHMER.coeff_list(), DEGENERATE.coeff_list(), [1, -3, 1], trial]
    qs = list(range(1, 201))
    for D0 in towers:
        d, lc = len(D0) - 1, D0[-1]
        assert not set(ORACLE_PRIMES) & set(_primes_for([1 << _height_bits(D0, qs)[-1]], avoid=lc)[0])
        got = _tower_resultants(D0, qs)
        for q, res in zip(qs, got):
            for p in ORACLE_PRIMES:
                # Res(t^q - 1, D0) = (-1)^{qd} lc^q prod (beta^q - 1)
                want = (-1) ** (q * d) * pow(lc, q, p) * _resultant_mod(D0, q, p)
                assert res % p == want % p, (D0, q, p)
        # t^d - 1 divides t^q - 1 for d | q, so Res(t^d - 1, D0) | Res(t^q - 1, D0)
        for q in qs:
            for d in divisors(q):
                if got[d - 1]:
                    assert got[q - 1] % got[d - 1] == 0, (D0, d, q)


def test_tower_resultants_pass_the_mobius_certificate():
    # Res(t^q - 1, D0) = prod_{d | q} Res(Phi_d, D0), so over a full tower
    # R_d = prod_plus Res(t^delta - 1, D0) / prod_minus Res(t^delta - 1, D0),
    # with delta over the Moebius binomials of Phi_d, is Res(Phi_d, D0): an
    # integer, which a wrong residue or CRT lift breaks with near certainty
    qs = list(range(1, 201))
    delta = block_det(walk_trial_block()).coeff_list()
    for g in (LEHMER.coeff_list(), DEGENERATE.coeff_list(), delta):
        D0 = _phi_split(g, qs)[0]
        res = _tower_resultants(D0, qs)
        for d in qs:
            plus, minus = _mobius_binomials(d)
            R, rem = divmod(math.prod(res[e - 1] for e in plus),
                            math.prod(res[e - 1] for e in minus))
            assert not rem, (D0, d)
            if d <= 60:
                assert abs(R) == abs(int_resultant(cyclotomic(d).coeff_list(), D0)), (D0, d)


def test_tower_sweep_takes_each_q_its_own_prime_count(monkeypatch):
    rows = []
    kernel = homology._euclid_rows

    def counting(a, b, P):
        rows.append(len(P))
        return kernel(a, b, P)

    monkeypatch.setattr(homology, "_euclid_rows", counting)
    # the top-level rows only: rows whose remainder drops degree go on as
    # their own batch inside the same call
    D0 = LEHMER.coeff_list()
    qs = list(range(1, 301, 3))
    _tower_resultants(D0, qs)
    assert sum(rows) == sum(_primes_for([1 << _height_bits(D0, [q])[0]])[1][0] for q in qs)


def tower_reference_d0s() -> list[list[int]]:
    """The D0 that growth_scan sweeps for each presentation of the
    benchmark's tower pool: Lehmer, (t + 1)(t^2 - 3t + 1) and 24 blocks of
    short form-preserving words."""
    ref = json.loads(TOWER_REFERENCE.read_text())
    blocks = [ref["lehmer"]["binf"], ref["degenerate"]["binf"]] + [b["binf"] for b in ref["blocks"]]
    out = []
    for binf in blocks:
        B = [[LaurentPoly.from_json_obj(e) for e in row] for row in binf["rows"]]
        out.append(_phi_split(block_det(B).coeff_list(), range(1, 301))[0])
    return out


def test_folded_route_equals_unfolded_route():
    # every D0 met so far is a palindrome of even degree, swept on its fold
    # Q of half the degree; the sweep on D0 itself is the oracle, signs
    # included, at every q <= 300.  t^2 - 3t + 1 folds to degree 1, where
    # V_1 = x must be reduced modulo Q; 2t^2 - 5t + 2 and -t^2 + 3t - 1
    # carry lc^q with lc != 1; the seeded palindromes reach both signs of
    # lc and every fold degree up to 6
    config = WalkConfig(generators=GENS, probabilities=PROBS, g=3, n_steps=16)
    walks = [bottom_left_block(sample_word(config, 0, 16)), walk_trial_block()]
    towers = tower_reference_d0s() + [_phi_split(block_det(B).coeff_list(), range(1, 301))[0]
                                      for B in walks]
    assert [len(D0) for D0 in towers[-2:]] == [9, 29]
    towers += [[1, -3, 1], [2, -5, 2], [-1, 3, -1]]
    local = random.Random(2718)
    for k in range(1, 7):
        for _ in range(3):
            half = [local.randint(-5, 5) for _ in range(k)]
            lc = local.choice([1, -1, 2, -3])
            towers.append([lc] + half + [local.randint(-5, 5)] + half[::-1] + [lc])
    qs = list(range(1, 301))
    for D0 in towers:
        Q = _fold_palindromic(D0)
        assert Q is not None and 2 * (len(Q) - 1) == len(D0) - 1, D0
        assert _sweep_folded(D0, Q, qs) == _sweep_unfolded(D0, qs), D0


def test_routes_of_the_tower_sweep(monkeypatch):
    # only an even-degree palindrome takes the folded route: t^3 - t - 1 is
    # no palindrome, and a window of odd degree is none of even degree;
    # (t - 1)^2 folds to x - 2, and 2 - V_q(2) = 0 at every q
    routes = []
    for name in ("_sweep_folded", "_sweep_unfolded"):
        def spy(*args, _route=getattr(homology, name), _name=name):
            routes.append(_name)
            return _route(*args)
        monkeypatch.setattr(homology, name, spy)
    for q in (1, 2, 5, 9, 16):
        routes.clear()
        assert abs(_tower_resultants([-1, -1, 0, 1], [q])[0]) == resultant_with_tq_minus_1(
            LaurentPoly({3: 1, 1: -1, 0: -1}), q)
        assert routes == ["_sweep_unfolded"]
    for q in (5, 9, 16):
        routes.clear()
        window = CycElem(q, [2, 5, 5, 2] + [0] * (q - 4))
        det = circulant_det(window)
        assert abs(det) == resultant_with_tq_minus_1(LaurentPoly({0: 2, 1: 5, 2: 5, 3: 2}), q)
        assert det == bareiss_det(circulant_expand(window))
        assert routes == ["_sweep_unfolded"]
        routes.clear()
        assert circulant_det(CycElem(q, [1, -2, 1] + [0] * (q - 3))) == 0
        assert routes == ["_sweep_folded"]


def test_height_bits_bound_the_circulant_det():
    for _ in range(60):
        q = rng.randint(2, 12)
        g = [rng.randint(-9, 9) for _ in range(rng.randint(1, q - 1))] + [rng.randint(1, 9)]
        M = [[(g + [0] * q)[(i - j) % q] for j in range(q)] for i in range(q)]
        assert abs(bareiss_det(M)) < 2 ** _height_bits(g, [q])[0], (g, q)


def test_height_bits_bound_long_polynomials():
    # deg g >= q: the polynomial folds modulo t^q - 1, and Parseval on its
    # own coefficients would not bound the resultant
    cases = [(q, [1] + [0] * (q - 1) + [3, 1]) for q in (1, 2, 3, 5, 8, 13)]
    for q, g in cases:  # folds to 4 + t: sum of squares 17 against 11
        assert sum(x * x for x in g) ** q < abs(int_resultant([-1] + [0] * (q - 1) + [1], g)) ** 2
    for _ in range(80):
        q = rng.randint(1, 10)
        cases.append((q, [rng.randint(-9, 9) for _ in range(rng.randint(q, q + 8))]
                      + [rng.choice([1, -1, 2, 5])]))
    for q, g in cases:
        res = int_resultant([-1] + [0] * (q - 1) + [1], g)
        assert abs(res) < 2 ** _height_bits(g, [q])[0], (g, q)


@pytest.mark.parametrize("h, q", [(1, 1), (1, 5), (2, 3), (3, 4)])
def test_expand_presentation_matches_block_by_block(h, q):
    Bq = [[CycElem(q, [rng.randint(-5, 5) for _ in range(q)]) for _ in range(h)]
          for _ in range(h)]
    # the block-by-block placement expand_presentation used to run
    want = [[0] * (h * q) for _ in range(h * q)]
    for i in range(h):
        for j in range(h):
            block = circulant_expand(Bq[i][j])
            for a in range(q):
                for b in range(q):
                    want[i * q + a][j * q + b] = block[a][b]
    assert expand_presentation(Bq, q) == want


def test_cover_homology_2x2_vs_expanded_snf():
    for _ in range(5):
        B = [
            [
                LaurentPoly({rng.randint(0, 1): rng.randint(-2, 2) for _ in range(2)})
                for _ in range(2)
            ]
            for _ in range(2)
        ]
        q = 4
        Bq = [[reduce_mod_q(e, q) for e in row] for row in B]
        rep = cover_homology(Bq, q)
        dec = smith_normal_form(expand_presentation(Bq, q))
        torsion = 1
        for d in dec.invariant_factors:
            if d:
                torsion *= d
        assert rep.betti == dec.corank()
        if rep.betti == 0:
            assert rep.torsion_order == torsion


# -- growth scan -------------------------------------------------------


def test_growth_scan_converges_to_mahler():
    res = growth_scan([[LaurentPoly({1: 1, 0: -2})]], range(3, 40))
    assert not res.degenerate
    assert res.mahler.log_measure == pytest.approx(math.log(2), abs=1e-9)
    assert res.deviations[-1] < 0.02
    assert res.deviations[-1] < res.deviations[0]


def test_growth_scan_degenerate():
    res = growth_scan([[LaurentPoly.zero()]], range(3, 8))
    assert res.degenerate
    assert res.mahler is None


def test_growth_scan_validation():
    with pytest.raises(ValueError):
        growth_scan([[LaurentPoly.one()]], [5, 4])
    for qs in ([0, 3], [-2, 3]):
        with pytest.raises(InvalidModulus):
            growth_scan([[LaurentPoly({1: 1, 0: -2})]], qs)


def test_non_square_blocks_and_bad_cover_degrees_are_rejected():
    t, one = LaurentPoly.t(), LaurentPoly.one()
    # ragged rows, and a 1 x 2 block whose determinant would be read off
    # its first entry alone
    for B in ([[t, one], [one]], [[t, one]], [[t], [one]]):
        with pytest.raises(ValueError, match="square"):
            growth_scan(B, range(1, 6))
        with pytest.raises(ValueError, match="square"):
            cover_homology([[reduce_mod_q(e, 3) for e in row] for row in B], 3)
    for q in (0, -2):
        with pytest.raises(InvalidModulus):
            cover_homology([[CycElem.one(1)]], q)
    # t - 2 over Z[Z/5] passed as a 3-cover, and a Laurent entry
    for B in ([[reduce_mod_q(t - 2 * one, 5)]], [[t - 2 * one]]):
        with pytest.raises(ValueError, match="Z/3"):
            cover_homology(B, 3)


def test_growth_scan_rows_equal_per_cover_rows():
    # growth_scan takes det B once per tower, on the Laurent entries, and
    # sweeps many q in chunks; cover_homology takes the shortest-window
    # lifts of the reduced block, finds its own S and sweeps its one q
    t, one, zero = LaurentPoly.t(), LaurentPoly.one(), LaurentPoly.zero()
    lehmer = LaurentPoly({10: 1, 9: 1, 7: -1, 6: -1, 5: -1, 4: -1, 3: -1, 1: 1, 0: 1})
    s6 = t ** 6 - one  # Phi_1 Phi_2 Phi_3 Phi_6 divides every entry
    towers = [
        ([[lehmer]], 200),
        ([[LaurentPoly({3: 1, 2: -2, 1: -2, 0: 1})]], 200),  # (t + 1)(t^2 - 3t + 1)
        ([[t - 1, one], [zero, t + 2]], 40),  # Smith normal form at every q
        ([[s6 * (t - 3), s6 * t], [s6 * (t * t + 2), s6 * (t + 5)]], 60),
        ([[cyclotomic(1) ** 3 * cyclotomic(4)]], 60),  # D0 = 1 where 4 divides q
    ]
    config = WalkConfig(generators=GENS, probabilities=PROBS, g=3, n_steps=12)
    towers += [(bottom_left_block(sample_word(config, trial, 12)), 120) for trial in range(4)]
    methods = set()
    for B, qmax in towers:
        scan = growth_scan(B, range(1, qmax + 1))
        for rep in scan.reports:
            q = rep.q
            want = cover_homology([[reduce_mod_q(e, q) for e in row] for row in B], q)
            got = (rep.torsion_order, rep.betti, rep.method, rep.log_torsion_over_q)
            assert got == (want.torsion_order, want.betti, want.method,
                           want.log_torsion_over_q), (B, q)
            methods.add(rep.method)
    assert methods == {"circulant_det", "split_resultant", "snf"}


def test_walk_trial_tower_equals_per_cover_rows():
    B = walk_trial_block()
    for rep in growth_scan(B, range(1, 201)).reports:
        q = rep.q
        want = cover_homology([[reduce_mod_q(e, q) for e in row] for row in B], q)
        assert (rep.torsion_order, rep.betti, rep.method) == (
            want.torsion_order, 2, "split_resultant"), q


def test_growth_scan_stride_rows_equal_stride_one_rows():
    for B in ([[LEHMER]], [[DEGENERATE]], walk_trial_block()):
        every = growth_scan(B, range(1, 121)).reports
        strided = growth_scan(B, range(1, 121, 7)).reports
        assert [r.q for r in strided] == list(range(1, 121, 7))
        assert strided == [every[r.q - 1] for r in strided]


def test_growth_scan_sweeps_once_per_tower(monkeypatch):
    sweeps = []
    sweep = homology._tower_resultants

    def counting_sweep(D0, qs):
        sweeps.append(len(qs))
        return sweep(D0, qs)

    monkeypatch.setattr(homology, "_tower_resultants", counting_sweep)
    # one D0 per tower, and one sweep that also takes every e | d for each
    # Phi_d common to every entry, since Res(Phi_d, D0) is the Moebius
    # quotient of its Res(t^e - 1, D0): the walk trial's block is 0 at
    # q = 1, which the sweep takes for Phi_1, common at every q;
    # (t + 1)(t^2 - 3t + 1) has D0 = t^2 - 3t + 1 at every q, with Phi_2
    # common to every entry at even q and priced by Apostol at odd q.  The
    # last block takes Smith normal form at every q, and its sweep is empty.
    t, one, zero = LaurentPoly.t(), LaurentPoly.one(), LaurentPoly.zero()
    for B, qmax, want in (
            ([[LEHMER]], 100, [100]), (walk_trial_block(), 100, [100]),
            ([[DEGENERATE]], 100, [100]), ([[t - one, one], [zero, t + 2 * one]], 20, [0])):
        sweeps.clear()
        growth_scan(B, range(1, qmax + 1))
        assert sweeps == want


def test_tower_raises_when_the_mobius_quotient_is_not_exact(monkeypatch):
    # B = [[Phi_6 (t - 2)]] at q = 6: S = {6}, so the sweep takes e = 1, 2,
    # 3, 6 and Res(Phi_6, D0) = R_6 R_1 / (R_2 R_3) = +-Phi_6(2) = +-3.
    # A value off by a factor 5 in the denominator leaves no integer
    t = LaurentPoly.t()
    B = [[cyclotomic(6) * (t - 2)]]
    rep = _tower(B, B[0][0], [6])[0]
    assert (rep.torsion_order, rep.betti, rep.method) == (63 // 3, 2, "split_resultant")
    sweep = homology._tower_resultants

    def off(D0, qs):
        return [r * 5 if q == 2 else r for q, r in zip(qs, sweep(D0, qs))]

    monkeypatch.setattr(homology, "_tower_resultants", off)
    with pytest.raises(ArithmeticError, match="Moebius"):
        _tower(B, B[0][0], [6])


def test_phi_q_times_t_minus_2_closed_form():
    # B = [[Phi_q (t - 2)]]: S = {q}, F = (t^q - 1) / Phi_q and D = t - 2,
    # so the q-cover has Betti number phi(q) and torsion order
    # |F(2)| = (2^q - 1) / Phi_q(2); Res(Phi_q, D0) is the Moebius quotient
    # over every divisor of q
    t = LaurentPoly.t()
    for q in (1, 2, 6, 12, 30, 97, 128, 210, 420):
        phi = cyclotomic(q)
        B = [[phi * (t - 2)]]
        want = ((2 ** q - 1) // sum(c << k for k, c in enumerate(phi.coeff_list())), totient(q))
        rep = growth_scan(B, [q]).reports[0]
        assert (rep.torsion_order, rep.betti) == want, q
        rep = cover_homology([[reduce_mod_q(B[0][0], q)]], q)
        assert (rep.torsion_order, rep.betti) == want, q


def test_phi_e_of_det_dividing_some_q_matches_snf():
    # det B has Phi_e factors whose e divides only some of the q: at the
    # other q they are priced by Apostol's closed form, not swept in D0
    t, one = LaurentPoly.t(), LaurentPoly.one()
    phi = [None] + [cyclotomic(m) for m in range(1, 7)]
    towers = [
        [[phi[3] * phi[5] ** 2 * (t * t - 3 * t + one)]],
        [[phi[4] * (t - one), phi[4]], [phi[4] * phi[6], phi[4] * (t + 2 * one)]],
    ]
    methods = set()
    for B in towers:
        for qs in (range(1, 25), range(1, 25, 5)):
            for rep in growth_scan(B, qs).reports:
                q = rep.q
                snf = smith_normal_form(expand_presentation(
                    [[reduce_mod_q(e, q) for e in row] for row in B], q))
                assert (rep.torsion_order, rep.betti) == (
                    math.prod(snf.nonzero_factors()), snf.corank()), (B, q)
                methods.add(rep.method)
    assert methods == {"circulant_det", "split_resultant"}


# -- Heegaard homology -------------------------------------------------


def sp_generators(g):
    """Elementary integer symplectic matrices in the [[A,B],[C,D]] block
    convention (J = [[0,I],[-I,0]])."""
    gens = []
    ident = np.eye(2 * g, dtype=int)
    for i in range(g):
        for s in (1, -1):
            M = ident.copy()
            M[i, g + i] = s  # shear in (a_i, b_i)
            gens.append(M)
            M = ident.copy()
            M[g + i, i] = s
            gens.append(M)
    for i in range(g - 1):
        M = ident.copy()
        # swap-like mixing of handles i and i+1, symplectically
        M[i, i + 1] = 1
        M[g + i + 1, g + i] = -1
        gens.append(M)
    return gens


def rand_symplectic(g, length=6):
    gens = sp_generators(g)
    M = np.eye(2 * g, dtype=int)
    for _ in range(length):
        M = rng.choice(gens) @ M
    return M


def test_heegaard_identity_gives_free_part():
    for g in (2, 3, 4):
        rep = heegaard_homology(np.eye(2 * g, dtype=int).tolist())
        assert rep["betti"] == g
        assert rep["torsion"] == 1


def test_heegaard_known_lens_like():
    # shear with B-block [[2]]: quotient Z/2
    M = [[1, 0], [2, 1]]
    rep = heegaard_homology(M)
    assert rep["betti"] == 0
    assert rep["torsion"] == 2
    assert rep["det_agrees"] is True


def test_heegaard_random_words():
    for _ in range(30):
        g = rng.choice([2, 3])
        M = rand_symplectic(g)
        rep = heegaard_homology(M.tolist())
        assert rep["betti"] <= g
        if rep["det_bottom_left"] != 0:
            assert rep["det_agrees"] is True
            assert rep["torsion"] == abs(rep["det_bottom_left"])


def test_heegaard_rejects_non_symplectic():
    with pytest.raises(NotSymplectic):
        heegaard_homology([[1, 1], [1, 1]])


def test_heegaard_rejects_unimodular_non_symplectic():
    J = np.block([[np.zeros((2, 2), int), np.eye(2, dtype=int)],
                  [-np.eye(2, dtype=int), np.zeros((2, 2), int)]])
    swap = np.eye(4, dtype=int)[[3, 1, 2, 0]]  # a1 <-> b2, det -1
    shear = np.eye(4, dtype=int)
    shear[0, 2] = 1  # b1 -> b1 + a1 preserves the form
    assert (shear.T @ J @ shear == J).all()
    assert heegaard_homology(shear.tolist())["betti"] == 2
    perturbed = shear.copy()
    perturbed[0, 1] = 1
    for M in (swap, perturbed):
        assert not (M.T @ J @ M == J).all()
        with pytest.raises(NotSymplectic):
            heegaard_homology(M.tolist())


# -- Betti number at a prime cover ------------------------------------


@pytest.mark.parametrize("q", [5, 13, 31])
def test_betti_number_at_prime_cover(q):
    # Phi_q | det B raises the Betti number by phi(q); t - 1 | det B by 1
    lehmer = LaurentPoly({10: 1, 9: 1, 7: -1, 6: -1, 5: -1, 4: -1, 3: -1, 1: 1, 0: 1})
    t = LaurentPoly.t()
    dets = {
        "one": (LaurentPoly.one(), 0),
        "t-1": (t - 1, 1),
        "lehmer": (lehmer, 0),
        "phi_q": (cyclotomic(q), q - 1),
        "lehmer*phi_q": (lehmer * cyclotomic(q), q - 1),
    }
    for name, (det, betti) in dets.items():
        # 2x2 block [[det, 1 + t], [0, 1]] has ring determinant det
        Bq = [[reduce_mod_q(det, q), reduce_mod_q(1 + t, q)],
              [CycElem.zero(q), CycElem.one(q)]]
        assert cover_homology(Bq, q).betti == betti, name
