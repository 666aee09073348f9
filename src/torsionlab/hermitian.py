"""Matrices over Z[t,t^-1] and Z[Z/q] preserving the skew-Hermitian
pairing on the rank-(2g-2) free module of a cyclic-cover surface.

Conventions fixed here and used everywhere downstream:
  * basis order: a-block (indices 0..g-2) then b-block (g-1..2g-3);
  * the pairing is linear in the first argument, conjugate-linear in
    the second: Phi(x, y) = x^T . J . ybar with J = [[0, I], [-I, 0]];
  * the bottom-left block B has rows indexed by the b-basis and columns
    by the a-basis, so column j of B lists the b-components of the
    image of the j-th a-vector.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .ringcore import CycElem, LaurentPoly, exact_str, json_int, json_rows, reduce_mod_q


class NotIsotropic(ValueError):
    """Transvection vector must pair to zero with itself."""


class NotSymmetric(ValueError):
    """Transvection coefficient must be fixed by the involution."""


class NotTorelliLike(ValueError):
    """Requested augmentation-trivial generator is not augmentation-trivial."""


class NonPrimitiveRoot(ValueError):
    """Root index must be coprime to the cover degree."""


class EmptyGeneratorSet(ValueError):
    """Degree bound of an empty generator list is undefined."""


@dataclass(frozen=True)
class SurfaceModel:
    """Genus-g surface data for the free cover module of rank 2g-2."""

    g: int

    def __post_init__(self):
        if self.g < 3:
            raise ValueError("genus must be >= 3")

    @property
    def dim(self) -> int:
        return 2 * self.g - 2

    @property
    def half(self) -> int:
        return self.g - 1


# ---------------------------------------------------------------------------
# generic ring helpers: entries are LaurentPoly (q is None) or CycElem


def _zero(q):
    return LaurentPoly.zero() if q is None else CycElem.zero(q)


def _one(q):
    return LaurentPoly.one() if q is None else CycElem.one(q)


class FormMatrix:
    """Square matrix over Z[t,t^-1] or Z[Z/q] with pairing metadata.

    `q` is None for the Laurent ring and the cover degree otherwise.
    Instances are immutable; products allocate fresh matrices.
    """

    __slots__ = ("model", "q", "rows")

    def __init__(self, model: SurfaceModel, rows, q: int | None = None):
        n = model.dim
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"expected {n}x{n} matrix for genus {model.g}")
        for r in rows:
            for e in r:
                if q is None and not isinstance(e, LaurentPoly):
                    raise TypeError("laurent matrix entries must be LaurentPoly")
                if q is not None and not (isinstance(e, CycElem) and e.q == q):
                    raise TypeError(f"cyclic matrix entries must be CycElem mod {q}")
        self.model = model
        self.q = q
        self.rows = rows

    @property
    def n(self) -> int:
        return self.model.dim

    @classmethod
    def identity(cls, model: SurfaceModel, q: int | None = None) -> "FormMatrix":
        n = model.dim
        return cls(
            model,
            [[_one(q) if i == j else _zero(q) for j in range(n)] for i in range(n)],
            q,
        )

    def __eq__(self, other):
        if not isinstance(other, FormMatrix):
            return NotImplemented
        return self.q == other.q and self.rows == other.rows

    def __hash__(self):
        return hash((self.q, self.rows))

    def __matmul__(self, other: "FormMatrix") -> "FormMatrix":
        if self.q != other.q or self.model != other.model:
            raise ValueError("ring/model mismatch in matrix product")
        n = self.n
        a, b = self.rows, other.rows
        # zero factors are skipped: the form J and transvections are sparse
        bcols = [[(k, b[k][j]) for k in range(n) if not b[k][j].is_zero()] for j in range(n)]
        out = []
        for i in range(n):
            ai = [x.is_zero() for x in a[i]]
            row = []
            for col in bcols:
                s = _zero(self.q)
                for k, y in col:
                    if not ai[k]:
                        s = s + a[i][k] * y
                row.append(s)
            out.append(row)
        return FormMatrix(self.model, out, self.q)

    def scale(self, unit) -> "FormMatrix":
        """Multiply every entry by a ring element (e.g. the unit t^k)."""
        return FormMatrix(
            self.model, [[unit * e for e in r] for r in self.rows], self.q
        )

    def conjugate(self) -> "FormMatrix":
        return FormMatrix(
            self.model, [[e.involution() for e in r] for r in self.rows], self.q
        )

    def transpose(self) -> "FormMatrix":
        n = self.n
        return FormMatrix(
            self.model, [[self.rows[j][i] for j in range(n)] for i in range(n)], self.q
        )

    def augmentation(self):
        """Integer matrix of entrywise augmentations (t -> 1)."""
        return [[e.augmentation() for e in r] for r in self.rows]

    def reduce_mod_q(self, q: int) -> "FormMatrix":
        if self.q is not None:
            raise ValueError("matrix already lives over a cyclic ring")
        return FormMatrix(
            self.model,
            [[reduce_mod_q(e, q) for e in r] for r in self.rows],
            q,
        )

    # -- serialization ------------------------------------------------

    def to_json_obj(self) -> dict:
        ring = "laurent" if self.q is None else {"cyclic": self.q}
        if self.q is None:
            rows = [[e.to_json_obj() for e in r] for r in self.rows]
        else:
            rows = [[[exact_str(c) for c in e.coeffs] for e in r] for r in self.rows]
        return {"g": self.model.g, "ring": ring, "rows": rows}

    @classmethod
    def from_json_obj(cls, obj) -> "FormMatrix":
        if not isinstance(obj, dict):
            raise ValueError(f"expected a matrix as a JSON object, got {type(obj).__name__}")
        model = SurfaceModel(json_int(obj["g"]))
        ring = obj["ring"]
        rows = json_rows(obj["rows"])
        if ring == "laurent":
            return cls(model, [[LaurentPoly.from_json_obj(e) for e in r] for r in rows], None)
        if not isinstance(ring, dict):
            raise ValueError(f"unknown ring {ring!r}")
        q = json_int(ring["cyclic"])
        if not all(isinstance(e, list) for r in rows for e in r):
            raise ValueError("expected each cyclic entry as a list of coefficients")
        return cls(model, [[CycElem(q, [json_int(c) for c in e]) for e in r] for r in rows], q)

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def loads(cls, s: str) -> "FormMatrix":
        return cls.from_json_obj(json.loads(s))

    def __repr__(self):
        ring = "laurent" if self.q is None else f"Z[Z/{self.q}]"
        return f"FormMatrix(g={self.model.g}, ring={ring})"


def reidemeister_form(model: SurfaceModel, q: int | None = None) -> FormMatrix:
    """Gram matrix J = [[0, I], [-I, 0]] of the pairing in the a/b basis."""
    h = model.half
    n = model.dim
    rows = [[_zero(q) for _ in range(n)] for _ in range(n)]
    for i in range(h):
        rows[i][h + i] = _one(q)
        rows[h + i][i] = -_one(q)
    return FormMatrix(model, rows, q)


def pairing(x, y, model: SurfaceModel, q: int | None = None):
    """Phi(x, y) = x^T J ybar for coordinate vectors over the ring."""
    h = model.half
    ybar = [e.involution() for e in y]
    s = _zero(q)
    for i in range(h):
        s = s + x[i] * ybar[h + i] - x[h + i] * ybar[i]
    return s


def check_form_preserved(M: FormMatrix) -> bool:
    """Exact check of the invariance identity M^T J Mbar = J."""
    J = reidemeister_form(M.model, M.q)
    lhs = M.transpose() @ J @ M.conjugate()
    return lhs == J


def form_inverse(M: FormMatrix) -> FormMatrix:
    """Inverse of a form-preserving M, with no ring products.

    M^T J Mbar = J gives M^-1 = J^-1 Mbar^T J, which for Mbar^T =
    [[A, B], [C, D]] is the block shuffle [[D, -C], [-B, A]].
    """
    h = M.model.half
    n = 2 * h
    mt = M.conjugate().transpose().rows
    rows = []
    for i in range(n):
        row = [mt[(i + h) % n][(j + h) % n] for j in range(n)]
        rows.append([-e if (i < h) != (j < h) else e for j, e in enumerate(row)])
    return FormMatrix(M.model, rows, M.q)


def transvection(
    model: SurfaceModel,
    v,
    r,
    q: int | None = None,
    torelli_like: bool = False,
) -> FormMatrix:
    """Form-preserving map T(x) = x + Phi(x, v) * r * v.

    Requires Phi(v, v) = 0 and r fixed by the involution.  With
    torelli_like=True the entries of T - Id must lie in the augmentation
    ideal (T reduces to the identity at t = 1).
    """
    v = list(v)
    if len(v) != model.dim:
        raise ValueError("vector length must equal 2g-2")
    if not pairing(v, v, model, q).is_zero():
        raise NotIsotropic("transvection vector must be isotropic")
    if not (r.involution() == r):
        raise NotSymmetric("transvection coefficient must satisfy rbar = r")
    n = model.dim
    h = model.half
    vbar = [e.involution() for e in v]
    # Phi(e_j, v) = (J vbar)_j:  +vbar[h+j] for a-rows, -vbar[j-h] for b-rows
    phi_ej_v = [vbar[h + j] for j in range(h)] + [-vbar[j] for j in range(h)]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            e = phi_ej_v[j] * r * v[i]
            if i == j:
                e = e + _one(q)
            row.append(e)
        rows.append(row)
    T = FormMatrix(model, rows, q)
    if not check_form_preserved(T):
        raise RuntimeError("transvection construction must preserve the form")
    if torelli_like:
        aug = T.augmentation()
        ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        if aug != ident:
            raise NotTorelliLike(
                "augmentation of the transvection is not the identity"
            )
    return T


def bottom_left_block(M: FormMatrix):
    """The block B: rows indexed by the b-basis, columns by the a-basis."""
    h = M.model.half
    return [list(M.rows[h + i][:h]) for i in range(h)]


def block_det(block, q: int | None = None):
    """Determinant of a small matrix over the ring, by cofactor expansion."""
    n = len(block)
    if n == 0:
        return _one(q)
    if n == 1:
        return block[0][0]
    if n == 2:
        return block[0][0] * block[1][1] - block[0][1] * block[1][0]
    det = _zero(q)
    for j in range(n):
        if block[0][j].is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in block[1:]]
        term = block[0][j] * block_det(minor, q)
        det = det + term if j % 2 == 0 else det - term
    return det


def _iota_at(q: int, root_index: int):
    """Evaluation of elements of Z[Z/q] at zeta = exp(2*pi*i*root_index/q),
    each power of zeta computed once, when an element first needs it."""
    if math.gcd(root_index, q) != 1:
        raise NonPrimitiveRoot(f"gcd({root_index}, {q}) != 1")
    zeta = np.exp(2j * np.pi * root_index / q)
    powers = {}

    def at(c: CycElem) -> complex:
        for k, co in enumerate(c.coeffs):
            if co and k not in powers:
                powers[k] = zeta**k
        return complex(sum(co * powers[k] for k, co in enumerate(c.coeffs) if co))

    return at


def iota_scalar(c: CycElem, root_index: int = 1) -> complex:
    """Evaluation of a group-ring element at exp(2*pi*i*j/q)."""
    return _iota_at(c.q, root_index)(c)


def iota_embed(M: FormMatrix, root_index: int = 1) -> np.ndarray:
    """Entrywise evaluation of a cyclic-ring matrix at a primitive root,
    with zeta and its powers computed once per matrix."""
    if M.q is None:
        raise ValueError("iota_embed requires a cyclic-ring matrix")
    at = _iota_at(M.q, root_index)
    return np.array([[at(e) for e in row] for row in M.rows], dtype=complex)


@dataclass(frozen=True)
class ExteriorMarking:
    """Index bookkeeping for e = a1^...^a_{g-1}, f = b1^...^b_{g-1}."""

    g: int
    subsets: tuple = field(init=False)
    index: dict = field(init=False)

    def __post_init__(self):
        h = self.g - 1
        subs = tuple(itertools.combinations(range(2 * h), h))
        object.__setattr__(self, "subsets", subs)
        object.__setattr__(self, "index", {s: i for i, s in enumerate(subs)})

    @property
    def dim(self) -> int:
        return len(self.subsets)

    @property
    def e_index(self) -> int:
        return self.index[tuple(range(self.g - 1))]

    @property
    def f_index(self) -> int:
        return self.index[tuple(range(self.g - 1, 2 * self.g - 2))]

    def e_vector(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[self.e_index] = 1.0
        return v


def exterior_power_matrix(A: np.ndarray, marking: ExteriorMarking) -> np.ndarray:
    """Matrix of the induced action on the (g-1)-th exterior power.

    Entry (S, T) is the minor det(A[S, T]) over the ordered basis of
    (g-1)-subsets of the 2g-2 coordinates.
    """
    subs = marking.subsets
    d = len(subs)
    out = np.empty((d, d), dtype=complex)
    for a, S in enumerate(subs):
        rows = np.array(S)
        for b, T in enumerate(subs):
            out[a, b] = np.linalg.det(A[np.ix_(rows, np.array(T))])
    return out


def exterior_coefficient(A: np.ndarray, marking: ExteriorMarking) -> complex:
    """The f-coefficient of the exterior-power image of e.

    Equals the determinant of the bottom-left (g-1)x(g-1) block of A (the
    Leibniz identity), which is exterior_power_matrix(A, marking)[f, e].
    """
    h = marking.g - 1
    block = A[h : 2 * h, 0:h]
    if h == 0:
        return 0j
    return complex(np.linalg.det(block))


def degree_bound(generators: list[FormMatrix]) -> int:
    """Max entry degree after unit-normalizing each generator to honest
    polynomial entries (shifting by the largest needed power of t)."""
    if not generators:
        raise EmptyGeneratorSet("degree bound of an empty generator set")
    worst = 0
    for M in generators:
        if M.q is not None:
            raise ValueError("degree bound applies to Laurent-ring matrices")
        lo = hi = None
        for row in M.rows:
            for e in row:
                if not e.is_zero():
                    lo = e.deg_lo if lo is None else min(lo, e.deg_lo)
                    hi = e.deg_hi if hi is None else max(hi, e.deg_hi)
        if lo is not None:
            worst = max(worst, hi - lo)
    return worst
