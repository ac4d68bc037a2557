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

Both G0 and the periodised table are evaluated through polynomials.
S(k) = sum_a k_a E_a is linear in k with constant D x d matrices E_a = S(e_a),
so A(k) = S(k)^T C0 S(k) has quadratic entries and

    G0(k) = N(k) / det A(k),        N(k) = S(k) adj(A(k)) S(k)^T,

where N (stored as its D (D + 1) / 2 symmetric-packed rows) and det A are
homogeneous of degree 2d in k: 5 monomials k^alpha in 2-D, 28 in 3-D.  Their
monomial coefficients are built once per call from C0 by exact products of
polynomial coefficient rows (the linear S entries, the quadratic A entries,
the cofactors of A), never by fitting.  A batch of frequencies then costs
one row of monomials per k and two small matrix products; since G0 is
0-homogeneous, ``green_coeff_batch`` and ``compatible_green`` evaluate them
on unit k, which keeps det A of order one, and k = 0 (zero monomials) gives
G0 = 0.  They run in passes of ``_CHUNK`` frequencies through one workspace,
and each pass writes its quotient straight into the packed rows returned, so
a build holds the result and one pass of temporaries.

The periodised Green operator of a generator rule is the weighted class sum

    Gamma(h) = m sum_z |c_{h + M^T z}|^2 G0(h + M^T z)
             = w(h) N . sum_z W_z(h) k_z^alpha / det A(k_z),    k_z = h + M^T z,

over the dual generating set.  The generator weight separates: since
M^{-T} k_z = xi_h + z, the squared coefficient is the per-class factor
w(h) = m (raw_scale / class_scale(h))^2 times W_z(h) = prod_j F_j(xi_h,j + z_j)^2,
a product of one-axis factors tabulated once for |z_j| <= periods.  The
(shift, class) frequencies are processed in passes of at most ``_CHUNK``
pairs, each as many shifts of one block of classes (blocks of equal width)
as fit, on views of buffers allocated once per call, that accumulate the
(monomials, m) moment rows sum_z W_z k_z^alpha / det A(k_z); one final
(D (D + 1) / 2 x monomials) product with the numerator coefficients gives the
packed table.  The class of h = 0 is left at zero.  For the orthonormalised
Dirichlet rule (|c|^2 = 1/m on its support) the table reproduces G0 on
G(M^T) exactly.

Truncating the class sums is the table's only approximation.  An
orthonormalised class sums to one, so the box |z|_inf <= periods keeps the
share w(h) prod_j sum_t F_j(xi_h,j + t)^2 of class h, read off the same axis
factors.  Inside the box, shift z holds at most
b(z) = max_h w(h) prod_j max_h F_j(xi_h,j + z_j)^2 of any class.  The shifts
with the smallest bounds are left out while their bounds sum to at most 1e-2
of the largest share the box leaves out; they move each class matrix by at
most that sum times max |G0|.  A finitely supported rule leaves nothing out
of the box, so only its shifts with an all-zero axis factor, which add
nothing, are left out.  ``tail_estimate`` is the largest share that the
summed shifts leave out, over the stored classes, summed from the same
weights as the table (0 for finitely supported rules), and ``shifts`` counts
the summed shifts.

Since G0 is even in k, a rule with |c_{-k}| = |c_k| (``conjugate_symmetric``)
gives Gamma(-h) = Gamma(h): the operator maps real fields to real fields, and
the table is built and stored only on the half Smith grid that a real
transform keeps (``FftPlan.classes``); the other classes are the negations of
stored ones.  A truncated B-spline sum is even only up to its tail, and the
real path applies the even extension of the stored half (where h and -h are
both stored, j_d = 0 or d_d / 2, the inverse real transform applies their
mean).  Other rules (Dirichlet-type factors on even patterns) keep the full
table and complex fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, ShapeError
from .lattice import PatternMatrix, frequency_set, period_shifts
from .pfft import FftPlan, plan as fft_plan
from .translates import CoefficientRule, GeneratorSpec

__all__ = [
    "mandel_dim",
    "iso_stiffness",
    "sym_grad_matrix",
    "green_coeff_batch",
    "pack_symmetric",
    "mandel_product",
    "live_rows",
    "GreenTable",
    "periodized_green",
    "compatible_green",
]

_SHEAR_PAIRS = {1: (), 2: ((0, 1),), 3: ((0, 1), (0, 2), (1, 2))}
_SQRT2 = np.sqrt(2.0)
_CHUNK = 16384  # frequencies per pass of a Green-table build: (shift, class) pairs, or classes
_DROPPED_SHARE = 1e-2  # bound on the weight of the shifts left out, relative to the box's truncation tail


def mandel_dim(d: int) -> int:
    return d * (d + 1) // 2


def _check_reference(C0: np.ndarray, d: int) -> np.ndarray:
    """A read-only float64 copy of C0; raises unless it is a symmetric positive-definite d-dimensional Mandel matrix."""
    C0 = np.array(C0, dtype=np.float64)
    if C0.ndim != 2 or C0.shape[0] != C0.shape[1]:
        raise ShapeError(f"reference stiffness must be a square Mandel matrix, got shape {C0.shape}")
    if not np.allclose(C0, C0.T, atol=1e-12 * max(1.0, float(np.abs(C0).max()))):
        raise DomainError("reference stiffness must be symmetric")
    if np.linalg.eigvalsh(C0).min() <= 0.0:
        raise DomainError("reference stiffness must be positive definite")
    if C0.shape != (mandel_dim(d), mandel_dim(d)):
        raise ShapeError("reference stiffness does not match the spatial dimension")
    C0.setflags(write=False)
    return C0


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


@lru_cache(maxsize=None)
def _gradient_basis(d: int) -> np.ndarray:
    """(d, D, d) stack of E_a = S(e_a), so that S(k) = sum_a k_a E_a."""
    E = np.stack([sym_grad_matrix(e) for e in np.eye(d)])
    E.setflags(write=False)
    return E


@lru_cache(maxsize=None)
def _monomials(d: int, n: int) -> tuple:
    """Exponents of the degree-n monomials in d variables, in descending lexicographic order."""
    if d == 1:
        return ((n,),)
    return tuple((a,) + rest for a in range(n, -1, -1) for rest in _monomials(d - 1, n - a))


@lru_cache(maxsize=None)
def _product_map(d: int, a: int, b: int) -> np.ndarray:
    """0/1 matrix taking flattened outer products of degree-a and degree-b coefficients to degree a + b."""
    index = {e: i for i, e in enumerate(_monomials(d, a + b))}
    pairs = [(x, y) for x in _monomials(d, a) for y in _monomials(d, b)]
    P = np.zeros((len(pairs), len(index)))
    for row, (x, y) in enumerate(pairs):
        P[row, index[tuple(i + j for i, j in zip(x, y))]] = 1.0
    P.setflags(write=False)
    return P


def _poly_mul(p: np.ndarray, q: np.ndarray, d: int, a: int, b: int) -> np.ndarray:
    """Products of homogeneous polynomials given by coefficient rows (..., monomials) of degrees a, b."""
    outer = p[..., :, None] * q[..., None, :]
    return outer.reshape(outer.shape[:-2] + (-1,)) @ _product_map(d, a, b)


def _green_polynomials(C0: np.ndarray, d: int):
    """Degree-2d coefficients of the packed numerator N(k) (D (D + 1) / 2 rows) and of det A(k)."""
    S = _gradient_basis(d).transpose(1, 2, 0)  # S[p, i] as linear coefficients over k_a
    A = _poly_mul(S[:, :, None], np.tensordot(C0, S, axes=1)[:, None, :], d, 1, 1).sum(axis=0)
    i, j = np.indices((d, d))
    if d == 1:
        adj, deg = np.ones((1, 1, 1)), 0
    elif d == 2:
        adj, deg = A[1 - j, 1 - i] * np.where(i == j, 1.0, -1.0)[..., None], 2
    else:
        # adj[i][j] is the (j, i) cofactor; the cyclic index form carries its sign
        r1, r2, c1, c2 = (j + 1) % 3, (j + 2) % 3, (i + 1) % 3, (i + 2) % 3
        adj = _poly_mul(A[r1, c1], A[r2, c2], d, 2, 2) - _poly_mul(A[r1, c2], A[r2, c1], d, 2, 2)
        deg = 4
    det = _poly_mul(A[0], adj[:, 0], d, 2, deg).sum(axis=0)
    S_adj = _poly_mul(S[:, :, None], adj[None], d, 1, deg).sum(axis=1)
    rows, cols = np.triu_indices(mandel_dim(d))
    return _poly_mul(S_adj[rows], S[cols], d, deg + 1, 1).sum(axis=1), det


def _workspace_view(work: dict, key, shape: tuple) -> np.ndarray:
    """A C-contiguous float64 array of ``shape``: the front of buffer ``work[key]``, which grows on demand.

    Passes that reuse one ``work`` and start with their largest shapes
    allocate every buffer once.
    """
    size = math.prod(shape)
    if key not in work or work[key].size < size:
        work[key] = np.empty(size)
    return work[key][:size].reshape(shape)


def _monomial_rows(k: np.ndarray, n: int, work: dict) -> np.ndarray:
    """Rows k^alpha over the degree-n monomials (n >= 1) at frequencies given as rows k (d, ...).

    The rows of each intermediate degree are written into ``work`` (see ``_workspace_view``).
    """
    if n == 1:
        return k
    low = _monomial_rows(k, n // 2, work)
    high = low if n % 2 == 0 else _monomial_rows(k, n - n // 2, work)
    # each monomial is one product of a low and a high row: the first pair that forms it
    first = _product_map(len(k), n // 2, n - n // 2).argmax(axis=0)
    out = _workspace_view(work, n, (len(first),) + k.shape[1:])
    for row, pair in zip(out, first):
        np.multiply(low[pair // len(high)], high[pair % len(high)], out=row)
    return out


def _green_rows(C0: np.ndarray, d: int, n: int, frequencies) -> np.ndarray:
    """Packed rows (D (D + 1) / 2, n) of G0 at n frequencies, zero at k = 0.

    ``frequencies(cls)`` gives the frequencies of the slice ``cls`` of the n
    as rows (d, ...).  G0 is evaluated in passes of ``_CHUNK`` frequencies
    through one workspace and written straight into the rows it returns.
    """
    numer, det = _green_polynomials(C0, d)
    table = np.empty((len(numer), n))
    work: dict = {}  # the first pass is the widest, so each buffer is allocated once
    for lo in range(0, n, _CHUNK):
        cls = slice(lo, lo + _CHUNK)
        k = frequencies(cls)
        shape = k.shape[1:]
        norm = np.multiply(k[0], k[0], out=_workspace_view(work, "norm", shape))
        for row in k[1:]:
            norm += np.multiply(row, row, out=_workspace_view(work, "square", shape))
        np.sqrt(norm, out=norm)
        zero = norm == 0.0
        norm[zero] = 1.0
        # G0 is 0-homogeneous; unit k keeps det A of order one
        mono = _monomial_rows(np.divide(k, norm, out=_workspace_view(work, "unit", k.shape)), 2 * d, work)
        den = np.matmul(det, mono, out=_workspace_view(work, "den", shape))
        den[zero] = 1.0  # k = 0 has zero monomials, hence G0 = 0
        rows = table[:, cls]
        np.divide(np.matmul(numer, mono, out=rows), den, out=rows)
    return table


def green_coeff_batch(C0: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Green operator matrices for an (n, d) batch of integer frequencies (zero at k = 0)."""
    ks = np.asarray(ks, dtype=np.float64)
    if ks.ndim != 2:
        raise ShapeError(f"expected an (n, d) frequency batch, got shape {ks.shape}")
    n, d = ks.shape
    _check_reference(C0, d)
    rows, cols = np.triu_indices(mandel_dim(d))
    G = np.empty((n,) + (mandel_dim(d),) * 2)
    G[:, rows, cols] = G[:, cols, rows] = _green_rows(C0, d, n, lambda cls: ks[cls].T).T
    return G


def pack_symmetric(A) -> np.ndarray:
    """Symmetric-packed rows (D (D + 1) / 2, ...) of (..., D, D) matrices.

    Row k holds entry (i, j) of the upper triangle taken row by row.
    """
    rows, cols = np.triu_indices(np.shape(A)[-1])
    return np.ascontiguousarray(np.moveaxis(np.asarray(A)[..., rows, cols], -1, 0))


@lru_cache(maxsize=None)
def _product_terms(D: int, live: tuple | None) -> tuple:
    """Per output row i, the (row of A, component j) pairs of the entries (i, j) held by ``live`` rows.

    Rows are numbered among the rows of ``pack_symmetric``; ``live`` None holds every row.
    """
    idx = np.empty((D, D), dtype=int)
    rows, cols = np.triu_indices(D)
    idx[rows, cols] = idx[cols, rows] = np.arange(rows.size)
    return tuple(
        tuple((int(idx[i, j]), j) for j in range(D) if live is None or live[idx[i, j]]) for i in range(D)
    )


def live_rows(A: np.ndarray) -> tuple:
    """Which rows over nodes of ``A`` hold a nonzero entry, as ``mandel_product`` takes them."""
    return tuple(bool(v) for v in np.asarray(A).any(axis=1))


def mandel_product(
    A: np.ndarray, x: np.ndarray, *, out: np.ndarray | None = None, live: tuple | None = None
) -> np.ndarray:
    """Pointwise products A(y) x(y) of component-major (D, m) fields.

    ``A`` holds one symmetric matrix per node as rows over nodes: packed
    rows only, the D (D + 1) / 2 rows of ``pack_symmetric``; any other row
    count raises ShapeError.  Each output row is an unrolled sum of
    contiguous row products, so A is never cast whole.  ``live``, from
    ``live_rows(A)``, leaves out the rows of A that are zero
    at every node: a stiffness contrast between isotropic phases has 2 such
    rows of 6 in 2-D and 12 of 21 in 3-D.  Adding an exact zero changes no
    sum, so the products are those of every row up to the sign of a zero
    (and up to the NaN of 0 times a non-finite x).  ``out``, if given,
    receives the products; it must not overlap ``x``.
    """
    D = len(x)
    if len(A) != D * (D + 1) // 2:
        raise ShapeError(f"expected the {D * (D + 1) // 2} packed rows of a {D} x {D} matrix field, got {len(A)} rows")
    terms = _product_terms(D, live)
    if out is None:
        out = np.empty(x.shape, dtype=np.result_type(A, x))
    term = None
    for row, pairs in zip(out, terms):
        if not pairs:
            row.fill(0)
            continue
        (k, j), *rest = pairs
        np.multiply(A[k], x[j], out=row)
        for k, j in rest:
            if term is None:
                term = np.empty(out.shape[1:], dtype=out.dtype)
            row += np.multiply(A[k], x[j], out=term)
    return out


@dataclass(frozen=True, eq=False)
class GreenTable:
    """Periodised Green operator over the dual generating set.

    One real symmetric PSD Mandel matrix per stored frequency class, in the
    order of ``plan.classes``: every class in canonical order, or on a
    ``real`` table only the half Smith grid of a real transform.  The entry
    for the class of h = 0 comes first and is zero.
    """

    matrix: PatternMatrix
    table: np.ndarray  # (D (D + 1) / 2, stored classes) float64 packed rows, read-only
    generator: GeneratorSpec
    periods: int | None  # class-sum truncation; None on a ``compatible_green`` table
    shifts: int | None  # shifts z summed in each class; None on a ``compatible_green`` table
    tail_estimate: float
    real: bool  # even in the class: real fields, half-spectrum table
    compatible: bool  # every class matrix is a C0-projector (or zero): the VE and LS equations coincide
    reference: np.ndarray  # (D, D) read-only copy of the C0 the table was built for; the solvers require it

    @property
    def m(self) -> int:
        return self.matrix.m

    @property
    def plan(self) -> FftPlan:
        """The transform whose spectrum the table covers (a real plan for a real table)."""
        return fft_plan(self.matrix, self.real)

    def apply_hat(self, tau_hat: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
        """Multiply component-major (D, stored classes) frequency fields by the per-class matrices (into ``out``)."""
        if tau_hat.shape[-1] != self.table.shape[-1]:
            raise ShapeError("frequency field does not match the Green table")
        return mandel_product(self.table, tau_hat, out=out)


def periodized_green(C0: np.ndarray, rule: CoefficientRule, periods: int | None = None) -> GreenTable:
    """Build the generator-weighted periodisation of the Green operator on ``rule.matrix``.

    ``rule`` must be orthonormalised.  ``periods`` bounds the class sums at
    |z|_inf <= periods, by default at the rule's ``default_periods``, which
    covers finitely supported rules exactly, and must cover their support
    (at least one period for a B-spline).  Inside that box the shifts whose
    bounded weight sums to at most 1e-2 of the box's left-out share are not
    summed (see the module docstring); the table's ``shifts`` counts the
    others.  Its ``tail_estimate`` is the largest share of a stored class's
    orthonormal weight that the summed shifts leave out, at most 1% above the
    box's own; in the tested B-spline settings it lies within a factor 3
    above the largest entry change to a longer-period table, relative to the
    table maximum.  A conjugate-symmetric rule gives a real table on the half
    Smith grid.
    """
    if not rule.orthonormalized:
        raise DomainError("periodised Green operator requires an orthonormalised generator")
    M = rule.matrix
    d = M.d
    C0 = _check_reference(C0, d)
    periods = rule.default_periods if periods is None else int(periods)
    support = rule.support_periods
    if support is not None and periods < support:
        raise DomainError(f"truncation below the rule's support ({support} periods)")
    if support is None and periods < 1:
        raise DomainError("B-spline class sums need at least one period")
    real = rule.conjugate_symmetric
    # the class of h = 0 comes first among the stored classes and keeps a zero
    # entry, so no accumulated frequency is zero; a full table keeps a slice
    kept = fft_plan(M, real).classes[1:] if real else slice(1, None)
    freqs = frequency_set(M).freqs[kept].T.astype(np.float64)
    factors = rule.axis_factors(periods, kept)
    factors **= 2  # in place: squared coefficient factors
    class_weight = M.m * (rule.raw_scale / rule.class_scale[kept]) ** 2  # w(h)
    box_tail = 0.0
    if support is None and len(class_weight):
        # an orthonormal class sums to 1; the box |z|_inf <= periods keeps w(h) prod_j sum_t F_j^2
        box_tail = max(0.0, float(np.max(1.0 - class_weight * np.prod(factors.sum(axis=1), axis=0))))
    shifts = period_shifts(d, periods)
    taps = shifts.T + periods  # row of each shift in the per-axis factor tables
    # b(z) = max_h w(h) prod_j max_h F_j^2(xi_h,j + z_j) bounds shift z's share of every class; the longest run of
    # smallest bounds that sums to at most _DROPPED_SHARE of the box's tail is left out (the zero bounds if it is 0)
    peak = factors.max(axis=2, initial=0.0)
    bound = (class_weight.max(initial=0.0) * np.prod(peak[np.arange(d)[:, None], taps], axis=0)).tolist()
    summed = np.ones(len(bound), dtype=bool)  # which shifts the class sums run over
    total = 0.0
    # Python's stable sort: numpy's argsort and sort raised the process's peak RSS by about 0.5 MB, their code pages
    for i in sorted(range(len(bound)), key=bound.__getitem__):
        total += bound[i]
        if total > _DROPPED_SHARE * box_tail:
            break
        summed[i] = False
    taps = taps[:, summed]
    offsets = (shifts[summed] @ M.array).T.astype(np.float64)
    numer, det = _green_polynomials(C0, d)
    n = freqs.shape[1]
    # class blocks of equal width, each pass as many shifts of a block as fit in about _CHUNK pairs
    width = max(1, -(-n // max(1, -(-n // _CHUNK))))
    depth = max(1, _CHUNK // width)
    moments = np.zeros((len(det), n))
    share = np.zeros(n)  # sum_z W_z(h) over the summed shifts
    work: dict = {}  # the first chunk is the widest and deepest, so each buffer is allocated once
    for lo in range(0, n, width):
        cls = slice(lo, lo + width)
        for first in range(0, taps.shape[1], depth):
            sh = slice(first, first + depth)
            shape = (len(taps[0, sh]), len(freqs[0, cls]))
            weight = _workspace_view(work, "weight", shape)
            factor = _workspace_view(work, "factor", shape)
            np.take(factors[0, :, cls], taps[0, sh], axis=0, out=weight, mode="clip")
            for j in range(1, d):
                weight *= np.take(factors[j, :, cls], taps[j, sh], axis=0, out=factor, mode="clip")
            k = np.add(freqs[:, None, cls], offsets[:, sh, None], out=_workspace_view(work, "k", (d,) + shape))
            mono = _monomial_rows(k, 2 * d, work)
            # every per-chunk array is a workspace view: a fresh one left the stage's time to the allocator
            share[cls] += weight.sum(axis=0, out=_workspace_view(work, "share", (shape[1],)))
            den = _workspace_view(work, "den", (math.prod(shape),))
            weight /= np.matmul(det, mono.reshape(len(det), -1), out=den).reshape(shape)
            mono *= weight
            moments[:, cls] += mono.sum(axis=1, out=_workspace_view(work, "sum", (len(det), shape[1])))
    table = np.zeros((len(numer), n + 1))
    table[:, 1:] = numer @ (moments * class_weight)
    table.setflags(write=False)
    tail = 0.0
    if support is None and n:
        tail = max(0.0, float(np.max(1.0 - class_weight * share)))
    return GreenTable(
        matrix=M,
        table=table,
        generator=rule.spec(),
        periods=periods,
        shifts=int(summed.sum()),
        tail_estimate=tail,
        real=real,
        compatible=rule.kind == "dirichlet",
        reference=C0,
    )


def compatible_green(C0: np.ndarray, rule: CoefficientRule) -> GreenTable:
    """The C0-projector table Gamma(h) = G0(mu_h) at the class-mean frequencies mu_h of ``rule``.

    mu_h = h + M^T delta_h (``CoefficientRule.class_mean_shift``) is the mean
    of the class frequencies under the weights |c_k|^2.  Each class matrix is
    a C0-projector, or zero where mu_h = 0 (as at h = 0); there is no class
    sum, no ``periods`` and no tail.  For dirichlet mu_h = h, which gives
    ``periodized_green``'s table.  Conjugate-symmetric rules keep the real
    half table.  The class means and their Green rows are evaluated in
    passes of ``_CHUNK`` classes written straight into the table, so the
    build holds the table and one pass of temporaries.
    """
    M = rule.matrix
    C0 = _check_reference(C0, M.d)
    real = rule.conjugate_symmetric
    freqs = frequency_set(M).freqs
    stored = fft_plan(M, real).classes if real else None

    def class_means(cls: slice) -> np.ndarray:
        kept = cls if stored is None else stored[cls]
        return freqs[kept].T + M.array.T @ rule.class_mean_shift(kept)

    table = _green_rows(C0, M.d, M.m if stored is None else len(stored), class_means)
    table.setflags(write=False)
    return GreenTable(
        matrix=M,
        table=table,
        generator=rule.spec(),
        periods=None,
        shifts=None,
        tail_estimate=0.0,
        real=real,
        compatible=True,
        reference=C0,
    )
