"""Matrices over Z[t,t^-1] and Z[Z/q] preserving the skew-Hermitian
pairing on the rank-(2g-2) free module of a cyclic-cover surface.

Conventions fixed here and used everywhere downstream:
  * basis order: a-block (indices 0..g-2) then b-block (g-1..2g-3);
  * the pairing is linear in the first argument, conjugate-linear in
    the second: Phi(x, y) = x^T . J . ybar with J = [[0, I], [-I, 0]];
  * the bottom-left block B has rows indexed by the b-basis and columns
    by the a-basis, so column j of B lists the b-components of the
    image of the j-th a-vector.

The form is stated once, in pairing and columns_pair_as_basis, which
serves both rings and the integer gluings of homology.  Matrices,
pairings, transvections and block determinants read their ring from
their entries; FormMatrix.identity and reidemeister_form take q.
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


def _ring_of(e) -> int | None:
    """The ring of an entry: None for Z[t,t^-1], q for Z[Z/q]."""
    if isinstance(e, LaurentPoly):
        return None
    if isinstance(e, CycElem):
        return e.q
    raise TypeError(f"matrix entries must be LaurentPoly or CycElem, not {type(e).__name__}")


class FormMatrix:
    """Square matrix over Z[t,t^-1] or Z[Z/q] with pairing metadata.

    `q`, read from the entries, is None for the Laurent ring and the
    cover degree otherwise.  Instances are immutable; products allocate
    fresh matrices.
    """

    __slots__ = ("model", "q", "rows")

    def __init__(self, model: SurfaceModel, rows):
        n = model.dim
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"expected {n}x{n} matrix for genus {model.g}")
        q = _ring_of(rows[0][0])
        if any(_ring_of(e) != q for r in rows for e in r):
            raise TypeError("matrix entries must all lie in one ring")
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
        return FormMatrix(self.model, out)

    def scale(self, unit) -> "FormMatrix":
        """Multiply every entry by a ring element (e.g. the unit t^k)."""
        return FormMatrix(self.model, [[unit * e for e in r] for r in self.rows])

    def conjugate(self) -> "FormMatrix":
        return FormMatrix(self.model, [[e.involution() for e in r] for r in self.rows])

    def transpose(self) -> "FormMatrix":
        n = self.n
        return FormMatrix(self.model, [[self.rows[j][i] for j in range(n)] for i in range(n)])

    def augmentation(self):
        """Integer matrix of entrywise augmentations (t -> 1)."""
        return [[e.augmentation() for e in r] for r in self.rows]

    def reduce_mod_q(self, q: int) -> "FormMatrix":
        if self.q is not None:
            raise ValueError("matrix already lives over a cyclic ring")
        return FormMatrix(self.model, [[reduce_mod_q(e, q) for e in r] for r in self.rows])

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
            return cls(model, [[LaurentPoly.from_json_obj(e) for e in r] for r in rows])
        if not isinstance(ring, dict):
            raise ValueError(f"unknown ring {ring!r}")
        q = json_int(ring["cyclic"])
        if not all(isinstance(e, list) for r in rows for e in r):
            raise ValueError("expected each cyclic entry as a list of coefficients")
        return cls(model, [[CycElem(q, [json_int(c) for c in e]) for e in r] for r in rows])

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
    return FormMatrix(model, rows)


def _pair_bar(x, ybar):
    """Phi(x, y) from x and ybar, the conjugate of y; h = len(x) / 2.  A
    term with a zero factor is skipped, so sparse columns take few
    products."""
    h = len(x) // 2
    s = _zero(_ring_of(x[0]))
    for i in range(h):
        if not (x[i].is_zero() or ybar[h + i].is_zero()):
            s = s + x[i] * ybar[h + i]
        if not (x[h + i].is_zero() or ybar[i].is_zero()):
            s = s - x[h + i] * ybar[i]
    return s


def pairing(x, y):
    """Phi(x, y) = x^T J ybar for coordinate vectors of length 2h over the
    ring of their entries."""
    return _pair_bar(x, [e.involution() for e in y])


def columns_pair_as_basis(cols) -> bool:
    """Whether the columns c_i of a 2h x 2h matrix M pair as the basis
    does, Phi(c_i, c_j) = J_ij, which is M^T J Mbar = J, exactly.

    Phi is skew-Hermitian, Phi(c_j, c_i) = -conj Phi(c_i, c_j), and so is
    J, so the pairs i <= j decide the rest.  The diagonal ones stay:
    Phi(c, c) = -conj Phi(c, c) need not vanish (c = e_0 + (t - 1/t) e_h
    gives 2/t - 2t).
    """
    n = len(cols)
    h = n // 2
    bars = [[e.involution() for e in c] for c in cols]
    for i, x in enumerate(cols):
        for j in range(i, n):
            if _pair_bar(x, bars[j]) != (1 if j == i + h else 0):
                return False
    return True


def check_form_preserved(M: FormMatrix) -> bool:
    """Exact check of the invariance identity M^T J Mbar = J."""
    return columns_pair_as_basis(list(zip(*M.rows)))


def is_torelli_like(M: FormMatrix) -> bool:
    """Whether M reduces to the identity at t = 1: every entry of M - Id
    lies in the augmentation ideal."""
    return all(x == (i == j) for i, row in enumerate(M.augmentation()) for j, x in enumerate(row))


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
    return FormMatrix(M.model, rows)


def transvection(model: SurfaceModel, v, r, torelli_like: bool = False) -> FormMatrix:
    """Form-preserving map T(x) = x + Phi(x, v) * r * v.

    Requires Phi(v, v) = 0 and r fixed by the involution; the ring is
    that of v and r.  With torelli_like=True, T must be Torelli-like
    (is_torelli_like).
    """
    v = list(v)
    if len(v) != model.dim:
        raise ValueError("vector length must equal 2g-2")
    if not pairing(v, v).is_zero():
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
                e = e + 1
            row.append(e)
        rows.append(row)
    T = FormMatrix(model, rows)
    if not check_form_preserved(T):
        raise RuntimeError("transvection construction must preserve the form")
    if torelli_like and not is_torelli_like(T):
        raise NotTorelliLike("augmentation of the transvection is not the identity")
    return T


def bottom_left_block(M: FormMatrix):
    """The block B: rows indexed by the b-basis, columns by the a-basis."""
    h = M.model.half
    return [list(M.rows[h + i][:h]) for i in range(h)]


def block_det(block):
    """Determinant of a small matrix over the ring of its entries, by
    cofactor expansion; the 0 x 0 block gives the Laurent 1."""
    n = len(block)
    if n == 0:
        return LaurentPoly.one()
    if n == 1:
        return block[0][0]
    if n == 2:
        return block[0][0] * block[1][1] - block[0][1] * block[1][0]
    det = _zero(_ring_of(block[0][0]))
    for j in range(n):
        if block[0][j].is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in block[1:]]
        term = block[0][j] * block_det(minor)
        det = det + term if j % 2 == 0 else det - term
    return det


def _iota_at(q: int, root_index: int):
    """Evaluation of elements of Z[Z/q] at zeta = exp(2*pi*i*root_index/q),
    each power of zeta computed once, when an element first needs it.  The
    angle is taken of root_index mod q, so an index of any size is a float.

    The value is the sum of c_k zeta^k in doubles, so its domain is elements
    whose coefficients a double holds exactly: the walks embed generators,
    whose coefficients are small, and iota_embed the matrix it is given.  A
    coefficient past 2^53 is rounded, and one past the float range raises
    OverflowError."""
    if math.gcd(root_index, q) != 1:
        raise NonPrimitiveRoot(f"gcd({root_index}, {q}) != 1")
    zeta = np.exp(2j * np.pi * (root_index % q) / q)
    powers = {}

    def at(c: CycElem) -> complex:
        for k, co in enumerate(c.coeffs):
            if co and k not in powers:
                powers[k] = zeta**k
        return complex(sum(co * powers[k] for k, co in enumerate(c.coeffs) if co))

    return at


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
