"""Integer pattern matrices, congruence arithmetic and Smith normal form.

A regular integer matrix M defines the sampling lattice M^{-1} Z^d.  Its
m = |det M| residues modulo Z^d, collected in the half-open symmetric cell
[-1/2, 1/2)^d, form the pattern; the integer vectors M y, y in the pattern,
form the generating set.  Everything is enumerated lexicographically in
Smith coordinates so that the pattern, both generating sets and the fast
Fourier transform share a single canonical ordering:

    U M V = D = diag(d_1, ..., d_d)   with unimodular U, V and d_1 | d_2 | ...

    pattern point     y(j) = wrap(V D^{-1} j)         j_l in {0, ..., d_l - 1}
    spatial frequency g(j) = M y(j)
    dual frequency    h(j) = M^T wrap(U^T D^{-1} j)

where wrap reduces componentwise into [-1/2, 1/2).  With these orderings
exp(-2 pi i h(j')^T y(j)) = exp(-2 pi i sum_l j'_l j_l / d_l), i.e. the
Fourier matrix of the pattern is the plain separable DFT on the Smith grid.

All arithmetic that decides congruence questions is exact: numerators are
integers over the common denominator m, reduced with integer operations
before anything is converted to floating point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, RegularityError

__all__ = [
    "PatternMatrix",
    "SmithDecomposition",
    "Pattern",
    "GeneratingSet",
    "smith_normal_form",
    "pattern",
    "generating_set",
    "frequency_set",
    "period_shifts",
]

_SUPPORTED_DIMS = (1, 2, 3)

# Inputs larger than this could overflow int64 intermediates in the exact
# residue arithmetic; real pattern matrices have entries of a few hundred.
_MAX_ENTRY = 2**31


def _minor(rows, i: int, j: int) -> tuple:
    """``rows`` without row i and column j."""
    return tuple(row[:j] + row[j + 1 :] for k, row in enumerate(rows) if k != i)


def _det_int(rows) -> int:
    """Exact determinant by cofactor expansion along the first row (1 for the empty matrix)."""
    if not rows:
        return 1
    return sum((-1) ** j * a * _det_int(_minor(rows, 0, j)) for j, a in enumerate(rows[0]))


def _adjugate_int(rows) -> tuple:
    """Adjugate matrix (transposed cofactors), so that M adj(M) = det(M) I."""
    d = len(rows)
    return tuple(tuple((-1) ** (i + j) * _det_int(_minor(rows, j, i)) for j in range(d)) for i in range(d))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PatternMatrix:
    """Regular integer matrix defining a lattice and all derived index sets."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        d = len(rows)
        if d not in _SUPPORTED_DIMS or any(len(r) != d for r in rows):
            raise RegularityError(f"expected a square 1x1..3x3 integer matrix, got {rows!r}")
        if any(abs(v) >= _MAX_ENTRY for r in rows for v in r):
            raise RegularityError("matrix entries exceed the supported integer range")
        if _det_int(rows) == 0:
            raise RegularityError(f"pattern matrix {rows!r} is singular")

    @classmethod
    def from_any(cls, value) -> "PatternMatrix":
        """Build from nested lists, an integer ndarray or a JSON string like "[[2,1],[0,2]]"."""
        if isinstance(value, PatternMatrix):
            return value
        try:
            arr = np.asarray(json.loads(value) if isinstance(value, str) else value)
        except ValueError as exc:  # invalid JSON text or ragged rows
            raise RegularityError(f"cannot interpret {value!r} as a matrix: {exc}") from exc
        if arr.ndim != 2:
            if arr.size != 1:
                raise RegularityError(f"cannot interpret {value!r} as a square matrix")
            arr = arr.reshape(1, 1)
        if not np.issubdtype(arr.dtype, np.integer):
            if arr.dtype.kind != "f" or not np.all(np.isfinite(arr) & (arr == np.round(arr))):
                raise RegularityError("pattern matrices must have integer entries")
            arr = arr.astype(np.int64)
        return cls(tuple(tuple(int(v) for v in row) for row in arr))

    @property
    def d(self) -> int:
        return len(self.rows)

    @property
    def det(self) -> int:
        return _det_int(self.rows)

    @property
    def m(self) -> int:
        """Pattern size |det M|."""
        return abs(self.det)

    @property
    def array(self) -> np.ndarray:
        return _frozen(np.array(self.rows, dtype=np.int64))

    @property
    def adjugate(self) -> tuple:
        return _adjugate_int(self.rows)

    def __str__(self):
        return json.dumps([list(r) for r in self.rows])


@dataclass(frozen=True)
class SmithDecomposition:
    """Unimodular U, V and diagonal D with U M V = D and d_1 | d_2 | ... ."""

    U: tuple
    V: tuple
    diag: tuple

    @property
    def U_array(self) -> np.ndarray:
        return _frozen(np.array(self.U, dtype=np.int64))

    @property
    def V_array(self) -> np.ndarray:
        return _frozen(np.array(self.V, dtype=np.int64))


def _round_div(a: int, b: int) -> int:
    """Division rounded to the nearest integer (keeps Euclidean remainders small)."""
    q, r = divmod(a, b)
    if 2 * abs(r) > abs(b):
        q += 1
    return q


@lru_cache(maxsize=256)
def smith_normal_form(M: PatternMatrix) -> SmithDecomposition:
    """Exact Smith normal form U M V = D over the integers.

    Pivots are chosen with minimal absolute value and eliminations use
    nearest-integer quotients, which keeps intermediate entries small for the
    matrix sizes supported here.
    """
    d = M.d
    A = [list(row) for row in M.rows]
    U = [[int(i == j) for j in range(d)] for i in range(d)]
    V = [[int(i == j) for j in range(d)] for i in range(d)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def sub_row(src, dst, q):  # row dst -= q * row src
        A[dst] = [a - q * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a - q * b for a, b in zip(U[dst], U[src])]

    def sub_col(src, dst, q):  # col dst -= q * col src
        for row in A:
            row[dst] -= q * row[src]
        for row in V:
            row[dst] -= q * row[src]

    for t in range(d):
        while True:
            piv = None
            for i in range(t, d):
                for j in range(t, d):
                    if A[i][j] != 0 and (piv is None or abs(A[i][j]) < abs(A[piv[0]][piv[1]])):
                        piv = (i, j)
            if piv is None:
                raise RegularityError("matrix is singular")  # unreachable for regular M
            if piv[0] != t:
                swap_rows(t, piv[0])
            if piv[1] != t:
                swap_cols(t, piv[1])

            dirty = False
            for i in range(t + 1, d):
                if A[i][t] != 0:
                    sub_row(t, i, _round_div(A[i][t], A[t][t]))
                    dirty = dirty or A[i][t] != 0
            for j in range(t + 1, d):
                if A[t][j] != 0:
                    sub_col(t, j, _round_div(A[t][j], A[t][t]))
                    dirty = dirty or A[t][j] != 0
            if dirty:
                continue

            bad_col = None
            for i in range(t + 1, d):
                for j in range(t + 1, d):
                    if A[i][j] % A[t][t] != 0:
                        bad_col = j
                        break
                if bad_col is not None:
                    break
            if bad_col is None:
                break
            sub_col(bad_col, t, -1)  # pull a non-divisible entry into the pivot column

    for t in range(d):
        if A[t][t] < 0:
            A[t] = [-v for v in A[t]]
            U[t] = [-v for v in U[t]]

    return SmithDecomposition(
        U=tuple(tuple(r) for r in U),
        V=tuple(tuple(r) for r in V),
        diag=tuple(A[t][t] for t in range(d)),
    )


def _residues(basis: np.ndarray, diag: tuple) -> np.ndarray:
    """The (m, d) numerators over m = d_1 ... d_d of wrap(basis D^{-1} j), j over the Smith grid lexicographically."""
    m = math.prod(diag)
    J = np.indices(diag, dtype=np.int64).reshape(len(diag), -1).T
    nums = np.mod(J @ (basis * (m // np.array(diag, dtype=np.int64))).T, m)  # column l scaled by m / d_l: exact
    nums[2 * nums >= m] -= m
    return nums


@dataclass(frozen=True, eq=False)
class Pattern:
    """The m lattice residues of a pattern matrix in canonical order.

    Points are stored as integer numerators over the common denominator m,
    so congruence tests and index lookups stay exact.
    """

    matrix: PatternMatrix
    smith: SmithDecomposition
    nums: np.ndarray  # (m, d) int64; point i is nums[i] / m

    @property
    def m(self) -> int:
        return self.matrix.m

    @property
    def points(self) -> np.ndarray:
        """(m, d) float64 points in [-1/2, 1/2)^d."""
        return self.nums / float(self.m)


@dataclass(frozen=True, eq=False)
class GeneratingSet:
    """Integer frequency representatives modulo a matrix, in canonical order.

    The matrix is M for the spatial set and M^T for the dual set used by the
    Fourier transform; the ``coords`` matrix maps any integer vector to the
    Smith coordinates of its congruence class.
    """

    freqs: np.ndarray  # (m, d) int64
    diag: tuple
    coords: np.ndarray  # (d, d) int64

    def class_index(self, k: np.ndarray) -> np.ndarray:
        """Canonical position of the congruence class of each row of k."""
        k = np.atleast_2d(np.asarray(k, dtype=np.int64))
        j = (k @ self.coords.T) % np.array(self.diag, dtype=np.int64)
        return np.ravel_multi_index(j.T, self.diag)


@lru_cache(maxsize=128)
def pattern(M: PatternMatrix) -> Pattern:
    """Enumerate the pattern of M in canonical (Smith lexicographic) order."""
    snf = smith_normal_form(M)
    return Pattern(matrix=M, smith=snf, nums=_frozen(_residues(snf.V_array, snf.diag)))  # y(j) = V D^{-1} j


@lru_cache(maxsize=128)
def generating_set(M: PatternMatrix) -> GeneratingSet:
    """G(M) = M * pattern(M): integer representatives modulo M, same order."""
    pat = pattern(M)
    gm = pat.nums @ M.array.T
    if np.any(gm % M.m != 0):
        raise RegularityError("internal error: pattern points left the lattice")
    return GeneratingSet(
        freqs=_frozen(gm // M.m),
        diag=pat.smith.diag,
        coords=pat.smith.U_array,
    )


@lru_cache(maxsize=128)
def frequency_set(M: PatternMatrix) -> GeneratingSet:
    """G(M^T) in the ordering matched to the fast transform of M.

    Built from the Smith decomposition of M itself (transposing U M V = D),
    so that row j of the Fourier matrix pairs with dual frequency h(j) and
    the kernel separates over the Smith grid.
    """
    snf = smith_normal_form(M)
    nums = _residues(snf.U_array.T, snf.diag)
    hm = nums @ M.array  # rows times M^T transposed == nums @ M
    if np.any(hm % M.m != 0):
        raise RegularityError("internal error: dual points left the lattice")
    return GeneratingSet(
        freqs=_frozen(hm // M.m),
        diag=snf.diag,
        coords=_frozen(snf.V_array.T.copy()),
    )


def period_shifts(d: int, periods: int) -> np.ndarray:
    """All z in Z^d with |z|_inf <= periods, lexicographic with the last axis fastest.

    The (2 periods + 1)^d shifts of a truncated class sum h + M^T z; every
    sum over them accumulates in this order.
    """
    if periods < 0:
        raise DomainError("truncation radius must be >= 0")
    rng = list(range(-periods, periods + 1))
    return np.stack(np.meshgrid(*([rng] * d), indexing="ij"), axis=-1).reshape(-1, d)
