"""Mandel-notation tensor algebra and the elastic Green operator.

Symmetric second-order tensors are stored as Mandel vectors of length
D = d (d + 1) / 2 with components

    d = 2:  (e11, e22, sqrt(2) e12)
    d = 3:  (e11, e22, e33, sqrt(2) e12, sqrt(2) e13, sqrt(2) e23)

so that the Euclidean inner product of two Mandel vectors equals the full
tensor contraction, and fourth-order tensors become plain D x D matrices
acting by matrix-vector products.

The reference Green operator maps a polarization stress to the compatible
strain of the homogeneous reference problem, frequency by frequency.  With
the symmetrised-gradient matrix S(k) (so that the strain of a displacement
amplitude u at frequency k is i S(k) u) it reads

    G0(k) = S(k) (S(k)^T C0 S(k))^{-1} S(k)^T,        G0(0) = 0,

a real, symmetric, positive-semidefinite Mandel matrix.  It is invariant
under scaling of k: the middle inverse is (-2)-homogeneous and cancels the
two gradient factors, so any consistent 2 pi convention in the frequency
variable drops out.  The zero-frequency entry is set to zero, which pins the
mean of the fluctuation strain to zero while the prescribed macroscopic
strain carries the mean.

A batch of frequencies is evaluated without per-frequency linear algebra.
S(k) = sum_a k_a E_a is linear in k with constant D x d matrices E_a = S(e_a),
so the acoustic matrix A(k) = S(k)^T C0 S(k) is the quadratic form

    A(k) = (k (x) k) Q,       Q[(a, b), (i, j)] = (E_a^T C0 E_b)[i, j],

one (n, d^2) x (d^2, d^2) product with Q built once per call for any SPD C0.
A is inverted in closed form as adj(A) / det(A), and G0 = S A^{-1} S^T is
synthesised as the product (k (x) k (x) A^{-1}) T with the constant
(d^4, D^2) matrix T[(a, b, i, j), (p, q)] = E_a[p, i] E_b[q, j].  Since G0
is 0-homogeneous, k is first scaled to unit length, which keeps det A of
order one for any |k|; k = 0 gives k (x) k = 0 and hence G0 = 0.

The periodised Green operator of a generator rule accumulates weighted
class sums m sum_z G0(h + M^T z) |c_{h + M^T z}|^2 over the dual generating
set.  For the orthonormalised Dirichlet rule (|c|^2 = 1/m on its support)
the table reproduces G0 on G(M^T) exactly; it is stored as symmetric-packed rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, ShapeError
from .lattice import PatternMatrix, frequency_set, period_shifts
from .translates import CoefficientRule, GeneratorSpec

__all__ = [
    "mandel_dim",
    "iso_stiffness",
    "sym_grad_matrix",
    "sym_grad_hat",
    "green_coeff",
    "green_coeff_batch",
    "pack_symmetric",
    "mandel_product",
    "GreenTable",
    "periodized_green",
]

_SHEAR_PAIRS = {1: (), 2: ((0, 1),), 3: ((0, 1), (0, 2), (1, 2))}
_SQRT2 = np.sqrt(2.0)


def mandel_dim(d: int) -> int:
    return d * (d + 1) // 2


def _check_spd(C: np.ndarray, what: str) -> None:
    C = np.asarray(C)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ShapeError(f"{what} must be a square Mandel matrix, got shape {C.shape}")
    if not np.allclose(C, C.T, atol=1e-12 * max(1.0, float(np.abs(C).max()))):
        raise DomainError(f"{what} must be symmetric")
    if np.linalg.eigvalsh(C).min() <= 0.0:
        raise DomainError(f"{what} must be positive definite")


def iso_stiffness(lam: float, mu: float, d: int) -> np.ndarray:
    """Mandel matrix of the isotropic stiffness with Lame parameters lam, mu."""
    if d not in (2, 3):
        raise DomainError(f"elasticity supports d in (2, 3), got {d}")
    if not (mu > 0.0 and d * lam + 2.0 * mu > 0.0):
        raise DomainError(f"non-elliptic parameters lam = {lam}, mu = {mu} (d = {d})")
    D = mandel_dim(d)
    C = np.zeros((D, D))
    C[:d, :d] = lam
    C[:d, :d] += 2.0 * mu * np.eye(d)
    for i in range(d, D):
        C[i, i] = 2.0 * mu
    return C


def sym_grad_matrix(k) -> np.ndarray:
    """Real D x d matrix S(k) with sym-gradient amplitude i S(k) u."""
    k = np.asarray(k, dtype=np.float64)
    d = k.shape[0]
    D = mandel_dim(d)
    S = np.zeros((D, d))
    for a in range(d):
        S[a, a] = k[a]
    for row, (a, b) in enumerate(_SHEAR_PAIRS[d], start=d):
        S[row, b] += k[a] / _SQRT2
        S[row, a] += k[b] / _SQRT2
    return S


def sym_grad_hat(k, u_hat) -> np.ndarray:
    """Mandel vector of the symmetrised gradient (i/2)(k u^T + u k^T)."""
    u_hat = np.asarray(u_hat)
    return 1j * (sym_grad_matrix(k) @ u_hat)


@lru_cache(maxsize=None)
def _gradient_basis(d: int) -> np.ndarray:
    """(d, D, d) stack of E_a = S(e_a), so that S(k) = sum_a k_a E_a."""
    E = np.stack([sym_grad_matrix(e) for e in np.eye(d)])
    E.setflags(write=False)
    return E


@lru_cache(maxsize=None)
def _green_synthesis(d: int) -> np.ndarray:
    """(d^4, D^2) matrix T[(a, b, i, j), (p, q)] = E_a[p, i] E_b[q, j]."""
    E = _gradient_basis(d)
    D = mandel_dim(d)
    T = np.einsum("api,bqj->abijpq", E, E).reshape(d**4, D * D)
    T.setflags(write=False)
    return T


def _adjugate_det(A: np.ndarray, d: int):
    """Adjugate (d^2, n) and determinant (n,) of d x d matrices stored as rows (d^2, n)."""
    if d == 1:
        return np.ones_like(A), A[0]
    a = [[A[d * i + j] for j in range(d)] for i in range(d)]
    if d == 2:
        adj = [a[1][1], -a[0][1], -a[1][0], a[0][0]]
    else:
        # adj[i][j] is the (j, i) cofactor; the cyclic index form carries its sign
        adj = [
            a[(j + 1) % 3][(i + 1) % 3] * a[(j + 2) % 3][(i + 2) % 3]
            - a[(j + 1) % 3][(i + 2) % 3] * a[(j + 2) % 3][(i + 1) % 3]
            for i in range(3)
            for j in range(3)
        ]
    det = sum(a[0][j] * adj[d * j] for j in range(d))
    return np.stack(adj), det


def green_coeff_batch(C0: np.ndarray, ks: np.ndarray, check: bool = True) -> np.ndarray:
    """Green operator matrices for an (n, d) batch of integer frequencies."""
    ks = np.asarray(ks, dtype=np.float64)
    if ks.ndim != 2:
        raise ShapeError(f"expected an (n, d) frequency batch, got shape {ks.shape}")
    n, d = ks.shape
    if check:
        _check_spd(C0, "reference stiffness")
        if np.asarray(C0).shape != (mandel_dim(d), mandel_dim(d)):
            raise ShapeError("reference stiffness does not match the spatial dimension")
    D = mandel_dim(d)
    E = _gradient_basis(d)
    # Q[(a, b), (i, j)] = (E_a^T C0 E_b)[i, j], so that A(k) = (k (x) k) Q
    Q = np.tensordot(E.transpose(0, 2, 1) @ C0, E, axes=([2], [1]))
    Q = Q.transpose(0, 2, 1, 3).reshape(d * d, d * d)
    k = np.ascontiguousarray(ks.T)  # frequency index last throughout
    norm = np.sqrt(sum(row**2 for row in k))
    zero = norm == 0.0
    norm[zero] = 1.0
    u = k / norm  # G is 0-homogeneous; unit directions keep det A of order one
    kk = (u[:, None, :] * u[None, :, :]).reshape(d * d, n)
    adj, det = _adjugate_det(Q.T @ kk, d)
    det[zero] = 1.0  # k = 0 leaves kk = 0, hence G = 0
    adj /= det
    X = (kk[:, None, :] * adj[None, :, :]).reshape(d**4, n)
    return (X.T @ _green_synthesis(d)).reshape(n, D, D)


def green_coeff(C0: np.ndarray, k) -> np.ndarray:
    """Green operator matrix at a single integer frequency (zero at k = 0)."""
    k = np.asarray(k, dtype=np.int64)
    return green_coeff_batch(C0, k[None, :])[0]


def pack_symmetric(A) -> np.ndarray:
    """Symmetric-packed rows (D (D + 1) / 2, ...) of (..., D, D) matrices.

    Row k holds entry (i, j) of the upper triangle taken row by row.
    """
    rows, cols = np.triu_indices(np.shape(A)[-1])
    return np.ascontiguousarray(np.moveaxis(np.asarray(A)[..., rows, cols], -1, 0))


def mandel_product(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Pointwise products A(y) x(y) of component-major (D, m) fields.

    ``A`` holds one matrix per node as rows over nodes: D^2 dense row-major
    rows, or the D (D + 1) / 2 rows of ``pack_symmetric``.  Each output row
    is an unrolled sum of contiguous row products, so A is never cast whole.
    """
    D = len(x)
    idx = np.arange(D * D).reshape(D, D)  # row of entry (i, j)
    if len(A) != D * D:
        rows, cols = np.triu_indices(D)
        idx[rows, cols] = idx[cols, rows] = np.arange(rows.size)
    out = np.empty(x.shape, dtype=np.result_type(A, x))
    term = np.empty(x.shape[1:], dtype=out.dtype)
    for i, row in enumerate(out):
        np.multiply(A[idx[i, 0]], x[0], out=row)
        for j in range(1, D):
            row += np.multiply(A[idx[i, j]], x[j], out=term)
    return out


@dataclass(frozen=True, eq=False)
class GreenTable:
    """Periodised Green operator over the dual generating set.

    One real symmetric PSD Mandel matrix per frequency class, in canonical
    order; the entry for the class of h = 0 is zero.
    """

    matrix: PatternMatrix
    table: np.ndarray  # (D (D + 1) / 2, m) float64 packed rows, read-only
    reference: np.ndarray  # (D, D) reference stiffness
    generator: GeneratorSpec
    periods: int
    tail_estimate: float

    @property
    def m(self) -> int:
        return self.matrix.m

    def apply_hat(self, tau_hat: np.ndarray) -> np.ndarray:
        """Multiply component-major (D, m) frequency fields by the per-class matrices."""
        if tau_hat.shape[-1] != self.m:
            raise ShapeError("frequency field does not match the Green table")
        return mandel_product(self.table, tau_hat)


def periodized_green(
    C0: np.ndarray,
    rule: CoefficientRule,
    M: PatternMatrix | None = None,
    periods: int | None = None,
) -> GreenTable:
    """Build the generator-weighted periodisation of the Green operator.

    ``rule`` must be orthonormalised.  ``periods`` bounds the class sums at
    |z|_inf <= periods, by default at the rule's ``default_periods``, which
    covers finitely supported rules exactly; the resulting tail estimate is
    recorded on the table.
    """
    if M is None:
        M = rule.matrix
    elif M != rule.matrix:
        raise ShapeError("pattern matrix does not match the generator rule")
    if not rule.orthonormalized:
        raise DomainError("periodised Green operator requires an orthonormalised generator")
    _check_spd(C0, "reference stiffness")
    d = M.d
    if np.asarray(C0).shape != (mandel_dim(d), mandel_dim(d)):
        raise ShapeError("reference stiffness does not match the spatial dimension")
    if periods is None:
        periods = rule.default_periods
    freqs = frequency_set(M).freqs
    D = mandel_dim(d)
    classes = np.arange(M.m)  # h + M^T z stays in the class of h
    acc = np.zeros((M.m, D, D))
    for shift in period_shifts(d, periods):
        ks = freqs + (shift @ M.array)[None, :]
        weights = M.m * np.abs(rule.coefficients(ks, classes)) ** 2
        live = weights > 0.0
        if not np.any(live):
            continue
        if np.all(live):
            live = slice(None)  # views instead of gathered copies
        acc[live] += green_coeff_batch(C0, ks[live], check=False) * weights[live, None, None]
    acc[0] = 0.0  # class of h = 0 is always first in canonical order
    table = pack_symmetric(acc)
    table.setflags(write=False)
    return GreenTable(
        matrix=M,
        table=table,
        reference=np.array(C0, dtype=np.float64),
        generator=rule.spec(),
        periods=int(periods),
        tail_estimate=rule.truncation_tail(int(periods)),
    )
