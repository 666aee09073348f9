"""Independent oracles the tests share: exact integer determinants and
resultants, float Mahler measures, the iota evaluation of one element,
the exterior coefficient, and the form check by two matrix products."""

import math

import numpy as np

from torsionlab.hermitian import _iota_at, reidemeister_form


def bareiss_det(M):
    """Independent exact determinant (fraction-free elimination)."""
    A = [list(map(int, row)) for row in M]
    n = len(A)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[-1][-1]


def resultant_with_tq_minus_1(p, q: int) -> int:
    """|Res(P, t^q - 1)| by the Sylvester matrix, independent of the
    library's circulant identity."""
    cs = p.coeff_list()
    d = len(cs) - 1
    n = d + q
    S = [[0] * n for _ in range(n)]
    for i in range(q):  # q shifted copies of P
        for k, c in enumerate(cs):
            S[i][i + d - k] = c
    g = [1] + [0] * (q - 1) + [-1]  # t^q - 1
    for i in range(d):
        for k, c in enumerate(g):
            S[q + i][i + q - k] = c
    return abs(bareiss_det(S))


def jensen_oracle(p) -> float:
    """Independent float Jensen product via numpy companion roots."""
    cs = p.coeff_list()
    roots = np.roots(np.array(cs[::-1], dtype=float))
    return math.log(abs(cs[-1])) + sum(
        math.log(a) for a in np.abs(roots) if a > 1
    )


def iota_scalar(c, root_index: int = 1) -> complex:
    """Evaluation of a group-ring element at exp(2*pi*i*j/q), by the
    evaluator iota_embed uses."""
    return _iota_at(c.q, root_index)(c)


def exterior_coefficient(A: np.ndarray, marking) -> complex:
    """The f-coefficient of the exterior-power image of e.

    Equals the determinant of the bottom-left (g-1)x(g-1) block of A (the
    Leibniz identity), which is exterior_power_matrix(A, marking)[f, e].
    """
    h = marking.g - 1
    block = A[h : 2 * h, 0:h]
    if h == 0:
        return 0j
    return complex(np.linalg.det(block))


def form_preserved_by_products(M) -> bool:
    """M^T J Mbar == J by two general matrix products."""
    J = reidemeister_form(M.model, M.q)
    return M.transpose() @ J @ M.conjugate() == J
