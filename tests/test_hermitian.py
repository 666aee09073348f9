"""Skew-Hermitian form, transvections, the iota embedding, exterior algebra."""

import itertools
import random

import numpy as np
import pytest

from torsionlab.hermitian import (
    EmptyGeneratorSet,
    ExteriorMarking,
    FormMatrix,
    NonPrimitiveRoot,
    NotIsotropic,
    NotSymmetric,
    NotTorelliLike,
    SurfaceModel,
    block_det,
    bottom_left_block,
    check_form_preserved,
    columns_pair_as_basis,
    degree_bound,
    exterior_power_matrix,
    iota_embed,
    is_torelli_like,
    pairing,
    reidemeister_form,
    transvection,
)
from torsionlab.ringcore import CycElem, LaurentPoly, laurent_eval, reduce_mod_q

from oracles import exterior_coefficient, form_preserved_by_products, iota_scalar

rng = random.Random(4711)

R_SYM = LaurentPoly({1: 1, -1: 1, 0: -2})  # fixed by t -> 1/t, augments to 0


def rand_vector(model, isotropic=True, tries=200):
    """Random ring vector; optionally resampled until isotropic."""
    n = model.dim
    for _ in range(tries):
        v = [
            LaurentPoly(
                {rng.randint(-1, 1): rng.randint(-1, 1)}
                if rng.random() < 0.6
                else {}
            )
            for _ in range(n)
        ]
        if all(e.is_zero() for e in v):
            continue
        if not isotropic or pairing(v, v).is_zero():
            return v
    raise RuntimeError("no isotropic vector found")


def rand_word(model, length=5, torelli=True):
    M = FormMatrix.identity(model)
    for _ in range(length):
        v = rand_vector(model)
        r = rng.choice([R_SYM, -R_SYM, LaurentPoly({0: rng.randint(-2, 2)})])
        if torelli and r.augmentation() != 0:
            r = R_SYM
        try:
            M = transvection(model, v, r, torelli_like=torelli) @ M
        except NotTorelliLike:
            continue
    return M


# -- the form and its preservation ------------------------------------


def test_gram_matrix_shape():
    J = reidemeister_form(SurfaceModel(3))
    assert J.rows[0][2] == LaurentPoly.one()
    assert J.rows[2][0] == -LaurentPoly.one()
    assert J.rows[0][1].is_zero()


def test_pairing_skew_hermitian():
    model = SurfaceModel(4)
    for _ in range(40):
        x = rand_vector(model, isotropic=False)
        y = rand_vector(model, isotropic=False)
        lhs = pairing(x, y)
        rhs = -pairing(y, x).involution()
        assert lhs == rhs


def test_pairing_linear_in_first_argument():
    model = SurfaceModel(3)
    x = rand_vector(model, isotropic=False)
    y = rand_vector(model, isotropic=False)
    z = rand_vector(model, isotropic=False)
    s = LaurentPoly({2: 3, -1: 1})
    xs = [s * e for e in x]
    assert pairing(xs, y) == s * pairing(x, y)
    xz = [a + b for a, b in zip(x, z)]
    assert pairing(xz, y) == pairing(x, y) + pairing(z, y)


def test_product_matches_dense_product():
    # the product skips zero factors; the dense triple loop is the oracle
    model = SurfaceModel(3)

    def dense(A, B):
        n = A.n
        zero = A.rows[0][0] - A.rows[0][0]
        return [[sum((A.rows[i][k] * B.rows[k][j] for k in range(n)), zero) for j in range(n)]
                for i in range(n)]

    for q in (None, 5):
        J = reidemeister_form(model, q)
        for _ in range(5):
            A, B = rand_word(model, 3), rand_word(model, 2)
            if q is not None:
                A, B = A.reduce_mod_q(q), B.reduce_mod_q(q)
            for X, Y in ((A, B), (J, A), (B, J), (J, J)):
                assert [list(r) for r in (X @ Y).rows] == dense(X, Y)


def test_identity_preserves_form():
    assert check_form_preserved(FormMatrix.identity(SurfaceModel(3)))
    assert check_form_preserved(FormMatrix.identity(SurfaceModel(4), q=5))


def test_transvections_preserve_form():
    for g in (3, 4):
        model = SurfaceModel(g)
        for _ in range(20):
            v = rand_vector(model)
            T = transvection(model, v, R_SYM)
            assert check_form_preserved(T)
            assert check_form_preserved(rand_word(model, 4))


def test_transvection_inverse():
    model = SurfaceModel(3)
    v = rand_vector(model)
    T = transvection(model, v, R_SYM)
    Tinv = transvection(model, v, -R_SYM)
    assert T @ Tinv == FormMatrix.identity(model)


def test_transvection_validation():
    model = SurfaceModel(3)
    one = LaurentPoly.one()
    zero = LaurentPoly.zero()
    # a1 and b1 together are not isotropic under t-weighted pairing
    v_bad = [one, zero, LaurentPoly.t(1), zero]
    if not pairing(v_bad, v_bad).is_zero():
        with pytest.raises(NotIsotropic):
            transvection(model, v_bad, R_SYM)
    v = [one, zero, zero, zero]
    with pytest.raises(NotSymmetric):
        transvection(model, v, LaurentPoly.t(1))
    with pytest.raises(NotTorelliLike):
        transvection(model, v, LaurentPoly.one(), torelli_like=True)


def test_torelli_like_augments_to_identity():
    model = SurfaceModel(3)
    T = rand_word(model, 5, torelli=True)
    n = model.dim
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    assert T.augmentation() == ident
    assert is_torelli_like(T)
    assert not is_torelli_like(transvection(model, [LaurentPoly.one()] + [LaurentPoly.zero()] * 3,
                                            LaurentPoly.one()))


def diagonal_only(q=None):
    """The genus-3 identity with column 0 = e_0 + (t - 1/t) e_2: every pair
    Phi(c_i, c_j), i != j, is J_ij, but Phi(c_0, c_0) = 2/t - 2t."""
    M = FormMatrix.identity(SurfaceModel(3))
    rows = [list(r) for r in M.rows]
    rows[2][0] = LaurentPoly({1: 1, -1: -1})
    M = FormMatrix(M.model, rows)
    return M if q is None else M.reduce_mod_q(q)


def test_diagonal_pairs_decide_too():
    for q in (None, 3, 5):
        M = diagonal_only(q)
        cols = list(zip(*M.rows))
        assert not pairing(cols[0], cols[0]).is_zero()
        assert all(pairing(cols[i], cols[j]) == (1 if j == i + 2 else 0)
                   for i in range(4) for j in range(i, 4) if (i, j) != (0, 0))
        assert check_form_preserved(M) is False
        assert form_preserved_by_products(M) is False
        assert is_torelli_like(M)
    # over Z[Z/2], t = 1/t, so t - 1/t = 0 and the column is e_0 again
    assert check_form_preserved(diagonal_only(2)) and form_preserved_by_products(diagonal_only(2))


def perturbed(M, rnd):
    rows = [list(r) for r in M.rows]
    i, j = rnd.randrange(M.n), rnd.randrange(M.n)
    rows[i][j] = rows[i][j] + LaurentPoly({rnd.randint(-2, 2): rnd.choice([1, -1, 2])})
    return FormMatrix(M.model, rows)


def test_form_check_matches_the_product_oracle():
    # words, their reductions mod q, and words with one entry perturbed,
    # which preserve the form only by accident
    rnd = random.Random(31)
    verdicts = set()
    for g in (3, 4):
        model = SurfaceModel(g)
        for _ in range(8):
            word = rand_word(model, 4, torelli=rnd.random() < 0.5)
            for M in (word, perturbed(word, rnd), perturbed(perturbed(word, rnd), rnd)):
                for X in (M, M.reduce_mod_q(3), M.reduce_mod_q(5), M.reduce_mod_q(8)):
                    want = form_preserved_by_products(X)
                    assert check_form_preserved(X) is want, (g, X.q)
                    verdicts.add((X.q, want))
    assert {(None, True), (None, False), (5, True), (5, False)} <= verdicts


def test_columns_pair_as_basis_on_integer_columns():
    # the integer specialisation: M^T J M == J at any 2h, h = 1 included
    rnd = np.random.default_rng(8)
    verdicts = set()
    for h in (1, 2, 3):
        J = np.block([[np.zeros((h, h), int), np.eye(h, dtype=int)],
                      [-np.eye(h, dtype=int), np.zeros((h, h), int)]])
        for _ in range(30):
            M = np.eye(2 * h, dtype=int)
            for _ in range(4):
                i, j = rnd.integers(0, h, size=2)
                E = np.eye(2 * h, dtype=int)
                E[i, h + j] = E[j, h + i] = rnd.integers(-2, 3)  # symmetric shear
                M = (E if rnd.random() < 0.5 else J @ E @ J.T) @ M
            if rnd.random() < 0.5:
                M[rnd.integers(0, 2 * h), rnd.integers(0, 2 * h)] += 1
            cols = [[LaurentPoly.const(int(x)) for x in col] for col in M.T]
            want = bool((M.T @ J @ M == J).all())
            assert columns_pair_as_basis(cols) == want, M
            verdicts.add((h, want))
    assert len(verdicts) == 6


# -- iota embedding ----------------------------------------------------


def test_pairing_reads_a_cyclic_ring():
    model = SurfaceModel(3)
    for q in (3, 5, 8):
        for _ in range(10):
            x = rand_vector(model, isotropic=False)
            y = rand_vector(model, isotropic=False)
            xq = [reduce_mod_q(e, q) for e in x]
            yq = [reduce_mod_q(e, q) for e in y]
            assert pairing(xq, yq) == reduce_mod_q(pairing(x, y), q)
            assert pairing(xq, yq) == -pairing(yq, xq).involution()


def test_form_matrix_reads_one_ring_from_its_entries():
    model = SurfaceModel(3)
    M = rand_word(model, 3)
    assert M.q is None and M.reduce_mod_q(5).q == 5
    assert FormMatrix(model, M.reduce_mod_q(5).rows) == M.reduce_mod_q(5)
    mixed = [list(r) for r in M.reduce_mod_q(5).rows]
    for bad in (M.rows[0][1], CycElem.zero(3), 0):
        mixed[0][1] = bad
        with pytest.raises(TypeError):
            FormMatrix(model, mixed)
    with pytest.raises(TypeError):
        transvection(model, [reduce_mod_q(e, 5) for e in rand_vector(model)], R_SYM)


def test_iota_scalar_is_evaluation():
    c = CycElem(5, [1, -2, 0, 3, 0])
    z = np.exp(2j * np.pi / 5)
    assert iota_scalar(c) == pytest.approx(1 - 2 * z + 3 * z**3)


def test_iota_requires_primitive_root():
    with pytest.raises(NonPrimitiveRoot):
        iota_scalar(CycElem.one(6), 2)
    with pytest.raises(NonPrimitiveRoot):
        iota_embed(FormMatrix.identity(SurfaceModel(3), q=6), 3)


def test_iota_multiplicative():
    q = 7
    for _ in range(30):
        a = CycElem(q, [rng.randint(-4, 4) for _ in range(q)])
        b = CycElem(q, [rng.randint(-4, 4) for _ in range(q)])
        assert iota_scalar(a * b, 3) == pytest.approx(
            iota_scalar(a, 3) * iota_scalar(b, 3)
        )


def test_iota_carries_form_to_standard_form():
    # A^* J_C A = J_C for the embedded image of a form-preserving word
    model = SurfaceModel(3)
    q = 5
    Jc = iota_embed(reidemeister_form(model, q))
    for _ in range(10):
        M = rand_word(model, 4).reduce_mod_q(q)
        A = iota_embed(M)
        assert np.allclose(A.conj().T @ Jc @ A, Jc, atol=1e-9)


def test_iota_embed_is_iota_scalar_bit_for_bit():
    # both share one table of powers of zeta per call; each entry must be
    # the per-entry sum with zeta recomputed, as iota_scalar once took it
    def per_entry(c, root):
        zeta = np.exp(2j * np.pi * root / c.q)
        return complex(sum(co * zeta ** k for k, co in enumerate(c.coeffs) if co))

    model = SurfaceModel(3)
    for q, root in ((3, 1), (5, 2), (7, 3), (12, 5), (97, 10)):
        for M in (rand_word(model, 4).reduce_mod_q(q), reidemeister_form(model, q)):
            want = np.array([[per_entry(e, root) for e in row] for row in M.rows])
            scalars = np.array([[iota_scalar(e, root) for e in row] for row in M.rows])
            for got in (iota_embed(M, root), scalars):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (q, root)


def test_iota_matches_laurent_eval():
    model = SurfaceModel(3)
    M = rand_word(model, 3)
    q = 7
    A = iota_embed(M.reduce_mod_q(q))
    z = np.exp(2j * np.pi / q)
    for i in range(model.dim):
        for j in range(model.dim):
            assert A[i, j] == pytest.approx(laurent_eval(M.rows[i][j], z), abs=1e-9)


# -- blocks, determinants, exterior power -----------------------------


def test_block_det_matches_numpy():
    for n in (1, 2, 3, 4):
        block = [
            [LaurentPoly({0: rng.randint(-5, 5)}) for _ in range(n)]
            for _ in range(n)
        ]
        ints = np.array([[e.augmentation() for e in row] for row in block])
        want = round(float(np.linalg.det(ints)))
        assert block_det(block).augmentation() == want


def test_block_det_reads_a_cyclic_ring():
    # a 3 x 3 block over Z[Z/5] called without its modulus: the value it had
    # with q=5 passed, and the Leibniz sum over permutations
    rnd = random.Random(5)
    block = [[CycElem(5, [rnd.randint(-3, 3) for _ in range(5)]) for _ in range(3)]
             for _ in range(3)]
    det = block_det(block)
    assert det == CycElem(5, [42, 34, 94, -139, -70])
    leibniz = CycElem.zero(5)
    for perm in itertools.permutations(range(3)):
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        leibniz = leibniz + block[0][perm[0]] * block[1][perm[1]] * block[2][perm[2]] * sign
    assert det == leibniz
    assert block_det([]) == LaurentPoly.one()


def test_exterior_marking_indices():
    mk = ExteriorMarking(3)
    assert mk.dim == 6
    assert mk.subsets[mk.e_index] == (0, 1)
    assert mk.subsets[mk.f_index] == (2, 3)


def test_exterior_power_multiplicative():
    mk = ExteriorMarking(3)
    A = np.random.default_rng(1).normal(size=(4, 4))
    B = np.random.default_rng(2).normal(size=(4, 4))
    lhs = exterior_power_matrix(A @ B, mk)
    rhs = exterior_power_matrix(A, mk) @ exterior_power_matrix(B, mk)
    assert np.allclose(lhs, rhs)


def test_exterior_coefficient_fast_equals_slow():
    mk = ExteriorMarking(3)
    for seed in range(10):
        A = np.random.default_rng(seed).normal(size=(4, 4)) + 1j * np.random.default_rng(
            seed + 100
        ).normal(size=(4, 4))
        fast = exterior_coefficient(A, mk)
        slow = exterior_power_matrix(A, mk)[mk.f_index, mk.e_index]
        assert fast == pytest.approx(slow, abs=1e-10)


def test_block_identity_on_words():
    # |f-coefficient of the exterior image of e| = |iota(det B)|
    for g, q in ((3, 5), (4, 3)):
        model = SurfaceModel(g)
        mk = ExteriorMarking(g)
        for _ in range(10):
            M = rand_word(model, 4)
            A = iota_embed(M.reduce_mod_q(q))
            lhs = abs(exterior_coefficient(A, mk))
            det = block_det(bottom_left_block(M.reduce_mod_q(q)))
            rhs = abs(iota_scalar(det))
            assert lhs == pytest.approx(rhs, abs=1e-8)


# -- degree bound ------------------------------------------------------


def test_degree_bound():
    model = SurfaceModel(3)
    T = transvection(model, rand_vector(model), R_SYM)
    assert degree_bound([T]) >= 2
    shifted = T.scale(LaurentPoly.t(5))
    assert degree_bound([shifted]) == degree_bound([T])
    with pytest.raises(EmptyGeneratorSet):
        degree_bound([])


# -- serialization -----------------------------------------------------


def test_form_matrix_json_roundtrip():
    model = SurfaceModel(3)
    M = rand_word(model, 3)
    assert FormMatrix.loads(M.dumps()) == M
    Mq = M.reduce_mod_q(4)
    assert FormMatrix.loads(Mq.dumps()) == Mq
    # the genus, the cyclic modulus and cyclic coefficients must be integers
    obj = Mq.to_json_obj()
    for key, value in (("g", 3.0), ("ring", {"cyclic": 4.5})):
        with pytest.raises(ValueError):
            FormMatrix.from_json_obj({**obj, key: value})
    rows = [[list(e) for e in r] for r in obj["rows"]]
    rows[0][0][0] = 0.5
    with pytest.raises(ValueError):
        FormMatrix.from_json_obj({**obj, "rows": rows})
    # rows must be lists of lists, and a cyclic entry a list, not a string
    # of digits read one character at a time
    rows[0][0] = "10"
    lrows = M.to_json_obj()
    for bad in ({**obj, "rows": rows}, {**obj, "rows": 5}, {**lrows, "rows": 5},
                {**lrows, "rows": [5] * 4}, {**obj, "ring": 4}):
        with pytest.raises(ValueError):
            FormMatrix.from_json_obj(bad)
