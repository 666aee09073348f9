"""Skew-Hermitian form, transvections, the iota embedding, exterior algebra."""

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
    degree_bound,
    exterior_coefficient,
    exterior_power_matrix,
    iota_embed,
    iota_scalar,
    pairing,
    reidemeister_form,
    transvection,
)
from torsionlab.ringcore import CycElem, LaurentPoly, laurent_eval

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
        if not isotropic or pairing(v, v, model, None).is_zero():
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
        lhs = pairing(x, y, model)
        rhs = -pairing(y, x, model).involution()
        assert lhs == rhs


def test_pairing_linear_in_first_argument():
    model = SurfaceModel(3)
    x = rand_vector(model, isotropic=False)
    y = rand_vector(model, isotropic=False)
    z = rand_vector(model, isotropic=False)
    s = LaurentPoly({2: 3, -1: 1})
    xs = [s * e for e in x]
    assert pairing(xs, y, model) == s * pairing(x, y, model)
    xz = [a + b for a, b in zip(x, z)]
    assert pairing(xz, y, model) == pairing(x, y, model) + pairing(z, y, model)


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
    if not pairing(v_bad, v_bad, model).is_zero():
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


# -- iota embedding ----------------------------------------------------


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
            det = block_det(bottom_left_block(M.reduce_mod_q(q)), q=q)
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
