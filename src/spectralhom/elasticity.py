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

Every table is evaluated through polynomials.  S(k) = sum_a k_a E_a is
linear in k with constant D x d matrices E_a = S(e_a), so
A(k) = S(k)^T C0 S(k) has quadratic entries and

    G0(k) = N(k) / det A(k),        N(k) = S(k) adj(A(k)) S(k)^T,

where N (stored as its D (D + 1) / 2 symmetric-packed rows) and det A are
homogeneous of degree 2d in k: 5 monomials k^alpha in 2-D, 28 in 3-D.  Their
monomial coefficients are built once per call from C0 by exact products of
polynomial coefficient rows (the linear S entries, the quadratic A entries,
the cofactors of A), never by fitting.  The periodised Green operator of a
generator rule is the weighted class sum

    Gamma(h) = m sum_z |c_{h + M^T z}|^2 G0(h + M^T z)
             = w(h) N . sum_z W_z(h) k_z^alpha / det A(k_z),    k_z = h + M^T z,

over the dual generating set, for the orthonormalised translates.  The weight
separates: since M^{-T} k_z = xi_h + z, the squared coefficient is the class
factor w(h) = 1 / prod_j S0_j(h) (``CoefficientRule.class_sums``) times
W_z(h) = prod_j F_j(xi_h,j + z_j)^2, a product of one-axis factors tabulated
once for |z_j| <= periods; neither reads a class scale.  The class of h = 0
is left at zero.  For the Dirichlet rule (w = 1) the table is G0 on G(M^T).

One pass loop, ``_green_rows``, evaluates G0 for every table: it fills packed
rows with sum_z W_z G0(k_z) over a fixed number of terms per class.  The
periodised table sums its shifts with the weights W_z(h) and then scales
class h by w(h); ``compatible_green`` (G0 at the class means) and
``green_coeff_batch`` (G0 itself) are the case of one term of weight one.
The classes run in blocks of equal width, and each pass takes as many terms
of one block as fit in ``_CHUNK`` (term, class) pairs, on views of one
workspace that the first, widest pass allocates.  A block accumulates the
moment rows sum_z W_z k_z^alpha / det A(k_z), one row of monomials per
frequency and one small product for det A, and ends with one
(D (D + 1) / 2 x monomials) product with the numerator coefficients written
into its columns of the table, so a build holds the table and one pass of
temporaries.  k^alpha / det A(k) is 0-homogeneous, so k is used as given,
and det A(k) > 0 for k != 0: a zero denominator marks k = 0 alone, which
gets an infinite one and so G0(0) = 0.

Truncating the class sums is the table's only approximation.  A class's
weights w(h) W_z(h) sum to one, so the box |z|_inf <= periods keeps the
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
    "mandel_product",
    "GreenTable",
    "periodized_green",
    "compatible_green",
]

_SHEAR_PAIRS = {1: (), 2: ((0, 1),), 3: ((0, 1), (0, 2), (1, 2))}
_SQRT2 = np.sqrt(2.0)
_CHUNK = 16384  # (term, class) pairs per pass of a Green-table build
_DROPPED_SHARE = 1e-2  # bound on the weight of the shifts left out, relative to the box's truncation tail


def mandel_dim(d: int) -> int:
    return d * (d + 1) // 2


def _check_reference(C0: np.ndarray, d: int) -> np.ndarray:
    """A read-only float64 copy of C0; raises unless d is 2 or 3 and C0 a symmetric positive-definite Mandel matrix."""
    if d not in (2, 3):
        raise DomainError(f"elasticity supports d in (2, 3), got {d}")
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
    if d == 2:
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


def _green_rows(C0: np.ndarray, d: int, table: np.ndarray, terms: int, frequencies) -> np.ndarray:
    """Fill the packed rows ``table`` (D (D + 1) / 2, n) with sum_z W_z G0(k_z) over ``terms`` terms per class.

    ``frequencies(cls, sh, work)`` gives one pass: for the S terms in the
    slice ``sh`` of the ``terms`` and the W classes in the slice ``cls`` of
    the n, the frequencies k_z as rows (d, S, W) and the weights W_z as
    (S, W), or None for weights of one, either of them possibly on views of
    ``work``; its scratch may use ``work``'s "den" buffer, which each pass
    fills only after.  G0 is zero at k = 0.  The passes run as the module
    docstring describes, and ``table`` is returned.
    """
    numer, det = _green_polynomials(C0, d)
    n = table.shape[1]
    width = max(1, -(-n // max(1, -(-n // _CHUNK))))  # class blocks of equal width
    depth = max(1, _CHUNK // width)  # terms per pass
    # every per-pass array is a workspace view (a fresh one left the stage's time to the allocator); the first
    # pass is the widest and deepest, so each buffer is allocated once
    work: dict = {}
    for lo in range(0, n, width):
        cls = slice(lo, min(lo + width, n))
        for first in range(0, terms, depth):
            k, weight = frequencies(cls, slice(first, first + depth), work)
            mono = _monomial_rows(k, 2 * d, work)
            den = np.matmul(det, mono.reshape(len(det), -1), out=_workspace_view(work, "den", (mono[0].size,)))
            den = den.reshape(k.shape[1:])
            den[den == 0.0] = np.inf  # det A(k) > 0 for k != 0: k = 0, where G0 = 0
            if weight is None:
                weight = np.reciprocal(den, out=den)
            else:
                weight /= den
            mono *= weight
            if terms == 1:  # one term: the weighted rows are the moments
                moments = mono[:, 0]
            elif first == 0:
                moments = mono.sum(axis=1, out=_workspace_view(work, "moments", (len(det), cls.stop - lo)))
            else:
                moments += mono.sum(axis=1, out=_workspace_view(work, "sum", moments.shape))
        np.matmul(numer, moments, out=table[:, cls])
    return table


def green_coeff_batch(C0: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Green operator matrices for an (n, d) batch of frequencies (zero at k = 0): ``_green_rows`` with one term."""
    ks = np.asarray(ks, dtype=np.float64)
    if ks.ndim != 2:
        raise ShapeError(f"expected an (n, d) frequency batch, got shape {ks.shape}")
    n, d = ks.shape
    _check_reference(C0, d)
    table = _green_rows(C0, d, _packed_rows(d, n), 1, lambda cls, sh, work: (ks[cls].T[:, None], None))
    return np.ascontiguousarray(np.moveaxis(table[_packed_index(mandel_dim(d))], -1, 0))


def _packed_rows(d: int, n: int) -> np.ndarray:
    """Zeroed packed rows (D (D + 1) / 2, n) of n symmetric D x D Mandel matrices in d dimensions."""
    D = mandel_dim(d)
    return np.zeros((D * (D + 1) // 2, n))


@lru_cache(maxsize=None)
def _packed_index(D: int) -> np.ndarray:
    """(D, D) row of entry (i, j) among packed rows (upper triangle, row by row): ``rows[_packed_index(D)]`` unpacks."""
    idx = np.empty((D, D), dtype=np.intp)
    rows, cols = np.triu_indices(D)
    idx[rows, cols] = idx[cols, rows] = np.arange(rows.size)
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=None)
def _product_terms(D: int) -> tuple:
    """Per output row i, the (packed row, component j) pairs of its entries (i, j), numbered as in ``_packed_index``."""
    idx = _packed_index(D)
    return tuple(tuple((int(idx[i, j]), j) for j in range(D)) for i in range(D))


def mandel_product(A: np.ndarray, x: np.ndarray, *, out: np.ndarray | None = None, scratch=None) -> np.ndarray:
    """Pointwise products A(y) x(y) of component-major (D, m) fields.

    ``A`` holds one symmetric matrix per node as rows over nodes: packed
    rows only, the D (D + 1) / 2 rows of the upper triangle; any other row
    count raises ShapeError.  Each output row is an unrolled sum of
    contiguous row products, so A is never cast whole.  ``out``, if given,
    receives the products; it must not overlap ``x``.  ``scratch``, if
    given, is the row (m,) of the output's dtype that holds each term; it
    must overlap neither.
    """
    D = len(x)
    if len(A) != D * (D + 1) // 2:
        raise ShapeError(f"expected the {D * (D + 1) // 2} packed rows of a {D} x {D} matrix field, got {len(A)} rows")
    if out is None:
        out = np.empty(x.shape, dtype=np.result_type(A, x))
    if scratch is None and D > 1:
        scratch = np.empty(out.shape[1:], dtype=out.dtype)
    for row, ((k, j), *rest) in zip(out, _product_terms(D)):
        np.multiply(A[k], x[j], out=row)
        for k, j in rest:
            row += np.multiply(A[k], x[j], out=scratch)
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

    def apply_hat(self, tau_hat: np.ndarray, *, out: np.ndarray | None = None, scratch=None) -> np.ndarray:
        """Multiply component-major (D, stored classes) frequency fields by the per-class matrices (into ``out``).

        ``scratch`` is as in ``mandel_product``: a row of the product's dtype, allocated if not given.
        """
        if tau_hat.shape[-1] != self.table.shape[-1]:
            raise ShapeError("frequency field does not match the Green table")
        return mandel_product(self.table, tau_hat, out=out, scratch=scratch)

    def projector_classes(self) -> np.ndarray:
        """Mask of the stored classes whose matrix is a C0-projector or zero: every class of a compatible table.

        There G C0 G = G.  The eigenvalues lambda of X = C0 G(h) lie in
        [0, 1], so sum lambda - lambda^2 = tr X - tr X^2 vanishes exactly on
        those classes.
        """
        if self.compatible:
            return np.ones(self.table.shape[-1], dtype=bool)
        X = np.tensordot(self.reference, self.table[_packed_index(len(self.reference))], axes=1)
        return np.trace(X) - np.einsum("ijh,jih->h", X, X) <= 1e-12


def periodized_green(C0: np.ndarray, rule: CoefficientRule, periods: int | None = None) -> GreenTable:
    """Build the generator-weighted periodisation of the Green operator on ``rule.matrix``.

    ``rule`` may be raw or orthonormalised: no class scale is read, and both
    give the same bits.  ``periods`` bounds the class sums at |z|_inf <=
    periods, by default at the rule's ``default_periods``, which covers
    finitely supported rules exactly, and must cover their support (at least
    one period for a B-spline).  Inside that box the shifts whose bounded
    weight sums to at most 1e-2 of the box's left-out share are not summed
    (see the module docstring); the table's ``shifts`` counts the others.
    Its ``tail_estimate`` is the largest share of a stored class's weight
    that the summed shifts leave out, at most 1% above the box's own; in the
    tested B-spline settings it lies within a factor 3 above the largest
    entry change to a longer-period table, relative to the table maximum.  A
    conjugate-symmetric rule gives a real table on the half Smith grid.  A
    rule of support 0 (every slope zero) has one term per class, G0(h), a
    C0-projector: its table is ``compatible_green``'s, bit for bit.
    """
    M = rule.matrix
    d = M.d
    C0 = _check_reference(C0, d)
    periods = rule.default_periods if periods is None else int(periods)
    support = rule.support_periods
    floor = 1 if support is None else support  # a B-spline's class sums need at least one period
    if periods < floor:
        raise DomainError(f"truncation below the rule's floor ({floor} periods)")
    kept, freqs = _stored_classes(rule)
    factors = rule.axis_factors(periods, kept)
    factors **= 2  # in place: squared coefficient factors
    class_weight = 1.0 / np.prod(rule.class_sums(kept)[0], axis=0)  # w(h)
    box_tail = 0.0
    if support is None and len(class_weight):
        # a class's weights sum to 1; the box |z|_inf <= periods keeps w(h) prod_j sum_t F_j^2
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
    n = freqs.shape[1]
    share = np.zeros(n)  # sum_z W_z(h) over the summed shifts

    def shifted(cls: slice, sh: slice, work: dict) -> tuple:
        """The frequencies k_z = h + M^T z and weights W_z(h) of the summed shifts ``sh`` in the classes ``cls``."""
        shape = (len(taps[0, sh]), len(freqs[0, cls]))
        weight = _workspace_view(work, "weight", shape)
        factor = _workspace_view(work, "den", shape)  # free until _green_rows forms the denominators
        np.take(factors[0, :, cls], taps[0, sh], axis=0, out=weight, mode="clip")
        for j in range(1, d):
            weight *= np.take(factors[j, :, cls], taps[j, sh], axis=0, out=factor, mode="clip")
        share[cls] += weight.sum(axis=0, out=_workspace_view(work, "den", (shape[1],)))
        return np.add(freqs[:, None, cls], offsets[:, sh, None], out=_workspace_view(work, "k", (d,) + shape)), weight

    table = _packed_rows(d, n + 1)
    _green_rows(C0, d, table[:, 1:], taps.shape[1], shifted)
    table[:, 1:] *= class_weight
    tail = 0.0
    if support is None and n:
        tail = max(0.0, float(np.max(1.0 - class_weight * share)))
    return _green_table(rule, C0, table, periods, int(summed.sum()), tail)


def compatible_green(C0: np.ndarray, rule: CoefficientRule) -> GreenTable:
    """The C0-projector table Gamma(h) = G0(mu_h) at the class-mean frequencies mu_h of ``rule``.

    mu_h = h + M^T delta_h (``CoefficientRule.class_mean_shift``) is the mean
    of the class frequencies under the weights |c_k|^2.  A class scale
    multiplies all of a class's weights alike, so the means do not depend on
    it: ``rule`` may be raw or orthonormalised, and both give the same bits.
    Each class matrix is a C0-projector, or zero where mu_h = 0 (as at
    h = 0); there is no class sum, no ``periods`` and no tail.  At support 0
    mu_h = h, taken without evaluating the shift.  Conjugate-symmetric rules
    keep the real half table.  The table is ``_green_rows``'s case of one
    term of weight one per class, its frequency the class mean, which each
    pass forms for its block of classes; the build holds the table and one
    pass of temporaries, in ``periodized_green``'s columns.
    """
    M = rule.matrix
    C0 = _check_reference(C0, M.d)
    kept, freqs = _stored_classes(rule)

    def class_means(cls: slice, sh: slice, work: dict) -> tuple:
        if rule.support_periods == 0:  # the class sums run over t = 0 alone: the shift is zero
            return freqs[:, None, cls], None
        where = kept[cls] if rule.conjugate_symmetric else slice(cls.start + 1, cls.stop + 1)
        return (freqs[:, cls] + M.array.T @ rule.class_mean_shift(where))[:, None], None

    table = _packed_rows(M.d, freqs.shape[1] + 1)
    _green_rows(C0, M.d, table[:, 1:], 1, class_means)
    return _green_table(rule, C0, table)


def _stored_classes(rule: CoefficientRule) -> tuple:
    """Canonical positions and float frequency rows (d, n) of the classes that ``rule``'s table stores after h = 0.

    Column 0 holds h = 0 and stays zero, so no frequency a build evaluates is
    zero; a full table's positions are a slice, read without a gather.
    """
    M = rule.matrix
    real = rule.conjugate_symmetric
    rows = frequency_set(M).freqs.T  # component-major (d, m)
    if not real:
        return slice(1, None), rows[:, 1:].astype(np.float64)
    kept = fft_plan(M, real).classes[1:]
    return kept, np.take(rows, kept, axis=1).astype(np.float64)


def _green_table(rule: CoefficientRule, C0: np.ndarray, table: np.ndarray, periods=None, shifts=None, tail=0.0):
    """``table``, made read-only, as ``rule``'s GreenTable for the checked ``C0``: compatible without periods or support."""
    table.setflags(write=False)
    return GreenTable(
        matrix=rule.matrix,
        table=table,
        generator=rule.spec(),
        periods=periods,
        shifts=shifts,
        tail_estimate=tail,
        real=rule.conjugate_symmetric,
        compatible=periods is None or rule.support_periods == 0,
        reference=C0,
    )
