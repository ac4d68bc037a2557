"""Discrete cell-problem solvers on pattern-translation spaces.

Nodal unknowns are the fluctuation strain coefficients E, one Mandel vector
per pattern node, with the prescribed macroscopic strain eps0 carrying the
mean.  Two schemes are provided, both run by one conjugate-gradient loop:

* ``ls_fixed_point`` solves the fixed-point (Lippmann-Schwinger) form
  E + G((C - C0) : (E + eps0)) = 0 of Moulinec and Suquet's basic scheme,
  generalised to an arbitrary periodised Green table, by conjugate gradients
  in the Green-weighted inner product <G a, G b> = Re a^H G b, one Green
  convolution and one stiffness product per iteration.
* ``ve_krylov`` solves the variational (Galerkin) form G(C : (E + eps0)) = 0
  on a compatible table (``compatible_green``) of C0-projectors, where
  G C0 E = E on the range of G and G C0 eps0 = 0: the two equations and
  residuals coincide, and the same iteration runs (Zeman et al., J. Comput.
  Phys. 2010; Vondřejc, Zeman & Marek, Comput. Math. Appl. 2014).

Why CG applies to the fixed-point form: every periodised table is a class
sum m sum_z |c_z|^2 G0(k_z) whose weights sum to one (less the truncated
tail), and C0^{1/2} G0(k) C0^{1/2} is an orthogonal projector, so each class
matrix C0^{1/2} G(h) C0^{1/2} is a convex combination of projectors with
eigenvalues in [0, 1] (one projector, or zero, on a compatible table).
Hence G >= G C0 G, and for x = G z the operator A = I + G (C - C0) satisfies
<x, A x> = Re z^H G z - Re x^H C0 x + Re x^H C x >= Re x^H C x.  So A is
self-adjoint in the Green-weighted inner product and positive definite
whenever every nodal stiffness is, whatever the reference C0, while the
Neumann series E <- -G((C - C0) : (E + eps0)) needs the spectral radius of
G (C - C0) below one.  Both schemes therefore reject a stiffness field that
is not uniformly elliptic.

Field dtypes follow the Green table.  Generators whose coefficient
magnitudes are even in k (B-splines, trapezoids with positive slopes) and
every rule on a pattern with odd det M give a table that is even in the
class (``GreenTable.real``): the solution is real, and the iteration runs on
real fields with real transforms over a half-spectrum table.  The half-open
frequency cell of a Dirichlet-type rule on an even pattern is not closed
under conjugation; there the fields are complex, and the exact discrete
solution carries a small imaginary component on the boundary (Nyquist) rows,
reported as ``imbalance``.  Keeping it is what makes the fixed-point and
variational solutions coincide exactly on the Dirichlet space.

The iterations run in single precision: complex64 fields, or float32 on a
real table, against float32 copies of the stiffness contrast rows and of
the Green table, made once per solve.  They solve the problem scaled to unit
loading and unit reference stiffness (strains divided by ||eps0||, stresses
by ||eps0|| max|C0|, the table multiplied by max|C0|), so the float32 range
never limits them.  Double precision holds the strain and every convergence
decision: when the recurred residual has fallen by sqrt(eps) of float32
since the last refresh, or below the tolerance once that lies within a
fall of sqrt(eps)^(3/2) of the last refreshed residual, a refresh flushes
the single-precision strain increment into the float64 strain, forms the
residual by float64 convolutions and re-casts it.  Both loops below keep
this one schedule.  The search direction is kept (reliable updates, van der
Vorst & Ye, SIAM J. Sci. Comput. 2000), or restarted from the refreshed
residual when that exceeds twice the recurred one and the tolerance, which
shows the recurrence drifted.  Rounding can also lose the search direction:
<r, r> or the curvature <p, A p> comes out nonpositive.  After a step since
the last refresh that too calls a refresh, and the next step restarts from
it with beta = 0; the same breakdown right after a refresh ends the solve
unconverged.  So the residual history holds single-precision recurred
estimates between refreshes, its last entry is the float64 residual of the
returned strain, and a solve converges only on that.

The Green-weighted inner product needs a pre-image z of each image x = G z,
and the loop is chosen by the table.  Where every stored class is a
C0-projector (``GreenTable.projector_classes``: every compatible table, so
every ``ve_krylov`` solve, and the Dirichlet and dlvp(0, ..., 0) tables of
``ls_fixed_point``), G C0 G = G makes C0 x a pre-image of x, and CG runs on
the strain itself: its state is E, the residual r, the direction p and the
strain increment, <r, r> is Re (C0 r)^H r and the curvature <p, A p> is
Re (C0 p)^H A p.  Each of its refreshes projects the flushed strain back
on the range of G, E <- G C0 E, and forms the fixed-point residual
G((C0 - C)(E + eps0)) - E of the projected strain.  On any other table the
residual and direction carry pre-images zeta and pi, the strain its
pre-image zeta_E, E = G zeta_E, in double precision, and <r, r> is
Re zeta^H r.  The single-precision recurrences cannot resolve a pre-image
whose part in the null space of G dwarfs its image, so there pre-images
drop that part where it is cheap: the per-step update subtracts the mean,
which G annihilates, and each refresh forms the pre-image in frequency,
putting C0 r in the classes that are C0-projectors.  Those always include
h = 0, where G and so r vanish, which removes the mean.

Every phase is isotropic, so the stiffness is one Lame pair (lambda, mu)
per node, an (m, 2) array.  With C0 = iso(lambda0, mu0) + R split exactly
(R = 0 for an isotropic C0), (C0 - C) x = (lambda0 - lambda) tr(x) delta +
2 (mu0 - mu) x + R x: the solve keeps these two contrast rows of C0 - C (the
sign the residual's pre-image needs, so no negation pass is made), in
float64 for the refreshes and float32 for the iterations, and adds R x only
when R has a nonzero entry.  A refresh costs one float64 stiffness product
and two convolutions: one projects the strain or rebuilds it from its
pre-image, one forms the residual; on the pre-image loop one more float64
inverse transform forms the refreshed pre-image.  The effective action of its
strain is read off that product, mean(dC (E + eps0)) + C0 (mean E + eps0),
so the action needs no pass over C of its own.
Iteration 1 is the first refresh, at E = 0: it skips the convolution forming
E and takes b from the real products -dC eps0.  ``SolveReport.green_convolutions``
counts the convolutions the solve ran in each precision: one float64
convolution at iteration 1 and two at each refresh, and one single-precision
convolution in each later iteration that forms a direction.  A loading whose
largest entry lies below 1/2 is solved scaled up by a power of two, exactly,
so that the float64 norms, which square its entries, do not underflow.

Iterates are component-major (D, m) fields (FFTs over the trailing Smith
axes, pointwise products as row operations); the Lame pairs (m, 2) and the
reported strain (m, D) stay pattern-major.  A non-finite residual or
curvature (overflowing input) ends a solve unconverged.

All norms are root-mean-square over nodes so tolerances are resolution
independent; each is one ``vdot`` over the field in memory order, and
reductions have a fixed order, making repeated runs bit-identical.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .elasticity import GreenTable, compatible_green, mandel_dim
from .errors import DomainError, ShapeError
from .translates import make_rule

__all__ = [
    "SolverConfig",
    "SolveReport",
    "ErrorMetrics",
    "ls_fixed_point",
    "ve_krylov",
    "error_metrics",
    "field_norm",
    "apply_stiffness",
]

LOG_ERROR_FORMS = ("difference", "sum")
_SPATIAL_DIM = {3: 2, 6: 3}  # Mandel dimension D -> spatial dimension d of the elasticity solvers
_ELLIPTIC_FLOOR = 1e-12  # smallest admissible nodal eigenvalue, relative to the largest diagonal entry
_REFRESH_FALL = float(np.sqrt(np.finfo(np.float32).eps))  # recurred-residual fall that calls a float64 refresh
_DRIFT_RESTART = 2.0  # a refreshed residual over this multiple of max(recurred, tol) is drift, not rounding: restart


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls and scheme selection."""

    tolerance: float = 1e-8
    max_iterations: int = 10000
    scheme: str = "ls_fixed_point"  # or "ve_krylov"

    def __post_init__(self):
        tolerance, cap = self.tolerance, self.max_iterations
        if isinstance(tolerance, bool) or not isinstance(tolerance, numbers.Real) or not 0.0 < tolerance < math.inf:
            raise DomainError(f"tolerance must be a finite positive number, got {tolerance!r}")
        if isinstance(cap, bool) or not isinstance(cap, numbers.Integral) or cap < 1:
            raise DomainError(f"max_iterations must be an integer >= 1, got {cap!r}")
        if self.scheme not in ("ls_fixed_point", "ve_krylov"):
            raise DomainError(f"unknown scheme {self.scheme!r}")


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Converged (or partial) state of one cell-problem solve."""

    strain: np.ndarray  # (m, D) fluctuation coefficients, space domain; complex unless the table is real
    iterations: int
    residuals: tuple
    effective_action: np.ndarray  # (D,) real effective stiffness applied to eps0
    converged: bool
    scheme: str
    residual_refreshes: int = 0  # float64 recomputations of the residual after iteration 1
    # the Green convolutions the solve ran in each precision
    green_convolutions: dict = dataclasses.field(default_factory=lambda: {"single": 0, "double": 0})

    @property
    def imbalance(self) -> float:
        """Relative size of the imaginary (Nyquist) component of the strain."""
        if not np.iscomplexobj(self.strain):
            return 0.0
        flat = self.strain.ravel(order="K")  # memory order: a transposed view is not copied
        scale = float(np.vdot(flat, flat).real)
        if scale == 0.0:
            return 0.0
        return float(np.sqrt(np.dot(flat.imag, flat.imag) / scale))


@dataclass(frozen=True, eq=False)
class ErrorMetrics:
    """Relative field and effective-stiffness errors against a reference."""

    e_l2: float | None
    e_eff: float | None
    e_log: np.ndarray | None  # (m,) per-node logarithmic error field
    log_form: str


def field_norm(values: np.ndarray) -> float:
    """Root-mean-square norm over the nodes of an (m, ...) field.

    A constant field keeps its vector norm; (D, m) fields are passed
    transposed.  One ``vdot`` runs over the entries in memory order, so a
    transposed view is not copied.
    """
    values = np.asarray(values)
    flat = values.ravel(order="K")
    return float(np.sqrt(np.vdot(flat, flat).real / values.shape[0]))


def apply_stiffness(contrast: np.ndarray, x: np.ndarray, *, remainder=None, out=None) -> np.ndarray:
    """Pointwise (C0 - C) x = a tr(x) delta + b x + R x on component-major (D, m) fields.

    ``contrast`` holds the rows (a, b) = (lambda0 - lambda, 2 (mu0 - mu))
    over nodes and ``remainder`` the (D, D) anisotropic part R of C0 (None
    for zero), whose nonzero entries alone are added, through one scratch
    row.  The trace term is formed in the last output row, a shear row
    written last.  ``out``, if given, must not overlap ``x``.
    """
    D = len(x)
    d = _SPATIAL_DIM.get(D)
    if d is None or len(contrast) != 2:
        raise ShapeError(f"expected (2, m) contrast rows and a 2-D or 3-D Mandel field, got {len(contrast)}, {D} rows")
    if out is None:
        out = np.empty(x.shape, dtype=np.result_type(contrast, x))
    a, b = contrast
    trace = np.add(x[0], x[1], out=out[-1])
    for j in range(2, d):
        trace += x[j]
    trace *= a
    for i, row in enumerate(out[:d]):
        np.multiply(b, x[i], out=row)
        row += trace
    for i in range(d, D):
        np.multiply(b, x[i], out=out[i])
    if remainder is not None:
        term = np.empty(out.shape[1:], dtype=out.dtype)
        for i, j in zip(*np.nonzero(remainder)):
            np.add(out[i], np.multiply(remainder[i, j], x[j], out=term), out=out[i])
    return out


def _green_convolve(G: GreenTable, tau: np.ndarray, out=None, spectra=(None, None), row=None) -> np.ndarray:
    """Action of the periodised Green operator on a (D, m) nodal field (real on a real table).

    ``out`` receives the result, and the two (D, stored classes) ``spectra``
    the transform and its Green product; ``row``, a complex128 row over the
    stored classes that overlaps none of them, holds the product's terms in
    the spectrum's precision.  Buffers not given are allocated.
    """
    p = G.plan
    tau_hat, product = spectra
    tau_hat = p.fft(tau, out=tau_hat)
    scratch = None if row is None else _carve(row, tau_hat.dtype, tau_hat.shape[1:])
    return p.ifft(G.apply_hat(tau_hat, out=product, scratch=scratch), out=out)


def _validate_problem(C, C0, eps0, G: GreenTable):
    C = np.asarray(C, dtype=np.float64)
    C0 = np.asarray(C0, dtype=np.float64)
    eps0 = np.asarray(eps0, dtype=np.float64)
    m = G.m
    D = mandel_dim(G.matrix.d)
    if C.shape != (m, 2):
        raise ShapeError(f"stiffness field must hold one Lame pair per node, shape {(m, 2)}, got {C.shape}")
    if C0.shape != (D, D):
        raise ShapeError(f"reference stiffness must have shape {(D, D)}, got {C0.shape}")
    if eps0.shape != (D,):
        raise ShapeError(f"macroscopic strain must have shape {(D,)}, got {eps0.shape}")
    if not np.all(np.abs(C0 - G.reference) <= 1e-12 * np.abs(G.reference).max()):
        raise DomainError("reference stiffness differs from the one the Green table was built for")
    for name, value in (("stiffness field", C), ("macroscopic strain", eps0)):
        if not np.isfinite(value).all():
            raise DomainError(f"{name} must be finite")
    return C, C0, eps0


def _stiffness_rows(C: np.ndarray, C0: np.ndarray) -> tuple:
    """The contrast rows (lambda0 - lambda, 2 (mu0 - mu)) (2, m) of C0 - C and the remainder R of C0, or None.

    C0 splits exactly as iso(lambda0, mu0) + R with lambda0 = C0[0, 1] and
    mu0 = C0[d, d] / 2, so R is zero, and None is returned, for every
    ``iso_stiffness`` reference.  Raises DomainError unless every node is
    uniformly elliptic: 2 mu and d lambda + 2 mu, the eigenvalues of its
    stiffness, must exceed ``_ELLIPTIC_FLOOR`` times its largest diagonal
    entry 2 mu + max(lambda, 0).
    """
    D = len(C0)
    d = _SPATIAL_DIM[D]
    lam, mu = C.T
    contrast = np.empty((2, len(C)))
    two_mu, floor = contrast  # scratch until the check passes
    np.multiply(mu, 2.0, out=two_mu)
    np.maximum(lam, 0.0, out=floor)
    floor += two_mu
    floor *= _ELLIPTIC_FLOOR
    if not (np.all(two_mu > floor) and np.all(np.add(two_mu, d * lam, out=two_mu) > floor)):
        raise DomainError("stiffness field is not uniformly elliptic")
    lam0, two_mu0 = C0[0, 1], C0[d, d]
    np.subtract(lam0, lam, out=contrast[0])
    np.subtract(two_mu0 / 2, mu, out=contrast[1])
    contrast[1] *= 2.0
    iso = np.zeros((D, D))
    iso[:d, :d] = lam0
    iso[np.diag_indices(D)] += two_mu0
    remainder = C0 - iso
    return contrast, (remainder if remainder.any() else None)


def _carve(buffer: np.ndarray, dtype, shape: tuple, part: int = 0) -> np.ndarray:
    """The ``part``-th C-contiguous (shape, dtype) array laid end to end over the bytes of a contiguous ``buffer``."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    return buffer.reshape(-1).view(np.uint8)[part * size : (part + 1) * size].view(dtype).reshape(shape)


class _UnitLoop:
    """The single-precision unit problem that both CG loops iterate, and the float64 data of its refreshes.

    The unit problem divides strains by ||eps0|| and stresses by
    ||eps0|| max|C0|, so its stiffness rows are divided by max|C0| and its
    Green table multiplied by it.  A loop holds the float64 strain ``E``,
    the single-precision residual ``r`` and direction ``p``, the effective
    ``action`` of ``E`` read off its last refresh; ``refresh``, ``inner``,
    ``direction`` and ``advance`` are the steps that ``_conjugate_gradients``
    runs, on the one refresh schedule of ``_next_refresh``.
    """

    def __init__(self, contrast: np.ndarray, remainder, eps0: np.ndarray, G: GreenTable):
        self.contrast, self.remainder, self.eps0, self.G = contrast, remainder, eps0, G  # -dC = C0 - C
        self.scale = float(np.linalg.norm(eps0))
        stiffness_unit = float(np.abs(G.reference).max())
        self.stress_unit = self.scale * stiffness_unit
        dC1 = np.empty(contrast.shape, np.float32)
        self.dC1 = np.multiply(contrast, -1.0 / stiffness_unit, out=dC1, casting="same_kind")  # dC = C - C0
        self.R1 = None if remainder is None else (remainder * (-1.0 / stiffness_unit)).astype(np.float32)
        table = np.multiply(G.table, stiffness_unit, out=np.empty(G.table.shape, np.float32), casting="same_kind")
        self.G1 = dataclasses.replace(G, table=table, reference=G.reference / stiffness_unit)
        self.E = np.zeros((len(eps0), G.m), dtype=np.float64 if G.real else np.complex128)
        self.single = np.float32 if G.real else np.complex64
        self.spectrum = (len(eps0), G.table.shape[-1])
        self.row = np.empty(self.spectrum[1], np.complex128)  # every Green product's term row, in either precision
        self.action = None

    def stiffness_product(self, out: np.ndarray, total: np.ndarray | None = None) -> np.ndarray:
        """-dC (E + eps0) into ``out``, from ``total`` = E + eps0 (None at E = 0), and the action of E read off it.

        At E = 0 the products are real, written in the field's dtype: a
        complex transform would copy a real input.  The mean stress is
        mean(C (E + eps0)) = mean(dC (E + eps0)) + C0 (mean E + eps0).
        """
        if total is None:
            total, mean = np.broadcast_to(self.eps0[:, None], self.E.shape), self.eps0
        else:
            mean = total.mean(axis=1)
        product = apply_stiffness(self.contrast, total, remainder=self.remainder, out=out)
        self.action = np.real(self.G.reference @ mean - product.mean(axis=1))
        return product


class _StrainLoop(_UnitLoop):
    """CG on the strain itself, on a table whose every class is a C0-projector.

    There G C0 G = G, so C0 maps each image x = G z to a pre-image of x: the
    Green-weighted inner product of two images is Re (C0 x)^H y, and no
    pre-image is carried.  The state is E, the single-precision r and p
    and the strain increment dE since the last refresh.  The scratch is two
    complex128 spectra, ``work`` and ``hat``, each of which a refresh also
    uses as a float64 field (a real table's half spectrum is the larger);
    the iterations carve their fields dC p and q from ``work`` and their two
    complex64 spectra from ``hat``.  Each refresh runs two float64
    convolutions: the projection and the residual.
    """

    def __init__(self, *args):
        super().__init__(*args)
        E, single = self.E, self.single
        self.C1 = self.G1.reference.astype(np.float32)
        self.r = np.empty(E.shape, dtype=single)
        self.p, self.dE = (np.zeros(E.shape, dtype=single) for _ in range(2))  # beta = 0 starts p at r
        self.work, self.hat = (np.empty(self.spectrum, np.complex128) for _ in range(2))
        self.scratch, self.q = (_carve(self.work, single, E.shape, part) for part in (0, 1))
        self.spectra = tuple(_carve(self.hat, np.complex64, self.spectrum, part) for part in (0, 1))

    def refresh(self, initial: bool = False) -> float:
        """Flush dE into E, project it and return the float64 residual of E, cast into r.

        E <- G C0 E drops the part of the flushed strain that rounding put
        outside the range of G, where G C0 E = E.  The residual is then
        r64 = G((C0 - C)(E + eps0)) - E = b - A E (b itself at E = 0, the
        ``initial`` refresh).  Each transform's input and output lie in
        different buffers: an overlapping real transform copies its input.
        """
        E = self.E
        field, product = (_carve(buffer, E.dtype, E.shape) for buffer in (self.work, self.hat))
        if initial:
            product = self.stiffness_product(product)
        else:
            E += np.multiply(self.dE, self.scale, out=field, dtype=E.dtype)
            self.dE.fill(0.0)
            C0E = np.matmul(self.G.reference, E, out=field)
            _green_convolve(self.G, C0E, out=E, spectra=(self.hat, self.work), row=self.row)
            product = self.stiffness_product(product, np.add(E, self.eps0[:, None], out=field))
        r64 = _green_convolve(self.G, product, out=field, spectra=(self.work, self.hat), row=self.row)
        if not initial:
            r64 -= E
        np.multiply(r64, 1.0 / self.scale, out=self.r, casting="same_kind")
        return field_norm(r64.T) / self.scale

    def inner(self) -> float:
        """<r, r> = Re (C0 r)^H r."""
        return float(np.vdot(np.matmul(self.C1, self.r, out=self.scratch), self.r).real)

    def direction(self, beta: float) -> float:
        """p <- r + beta p, q = A p = p + G dC p, and the curvature <p, A p> = Re (C0 p)^H q.

        On the range of G, Re (C0 p)^H G dC p is Re p^H dC p.  Rounding puts a
        small part of r and p off the range, where the recurrence acts as the
        identity; in the C0 inner product CG damps that part as an
        eigenvalue 1, whereas with Re p^H dC p a reference stiffer than the
        phases (every step length above 2) amplifies it until the residual
        grows without bound.
        """
        p = self.p
        p *= beta
        p += self.r
        dCp = apply_stiffness(self.dC1, p, remainder=self.R1, out=self.scratch)
        q = _green_convolve(self.G1, dCp, out=self.q, spectra=self.spectra, row=self.row)
        q += p
        return float(np.vdot(np.matmul(self.C1, p, out=self.scratch), q).real)

    def advance(self, alpha: float) -> None:
        """r -= alpha A p and dE += alpha p."""
        q = self.q
        q *= alpha
        self.r -= q
        self.dE += np.multiply(self.p, alpha, out=self.scratch)


class _PreImageLoop(_UnitLoop):
    """CG on a table with classes that are not C0-projectors, carrying pre-images.

    The residual r = G zeta and the direction p = G pi carry zeta and pi,
    and the strain its pre-image zeta_E, E = G zeta_E, in double precision.
    A pre-image whose part in the null space of G dwarfs its image cannot be
    resolved in single precision.  G annihilates constants, so the per-step
    pre-image update drops the mean.  Each refresh forms the new pre-image
    in frequency, C0 r in the ``projector`` classes (G C0 G = G there) and
    the transform of zeta64 elsewhere, by one float64 inverse transform
    beyond its two convolutions; the mask always holds h = 0, where r is
    zero, so the pre-image has zero mean.
    """

    def __init__(self, *args, projector: np.ndarray):
        super().__init__(*args)
        E, single = self.E, self.single
        self.r, self.zeta = (np.empty(E.shape, dtype=single) for _ in range(2))
        self.p, self.pi = (np.zeros(E.shape, dtype=single) for _ in range(2))  # beta = 0 starts them at r and zeta
        self.zeta_E = np.zeros_like(E)
        self.dzeta_E = np.zeros_like(self.r)  # the increment of zeta_E since the last refresh
        # the refreshes' double-precision field and spectra; the iterations' scratch lies on the same bytes
        self.field = np.empty_like(E)
        self.zeta_hat, self.r_hat = (np.empty(self.spectrum, np.complex128) for _ in range(2))
        self.dCp, self.q = (_carve(self.field, single, E.shape, part) for part in (0, 1))
        self.spectra = tuple(_carve(buffer, np.complex64, self.spectrum) for buffer in (self.zeta_hat, self.r_hat))
        self.projector = projector

    def refresh(self, initial: bool = False) -> float:
        """Flush the increment into zeta_E, rebuild E = G zeta_E and return its float64 residual.

        zeta64 = -dC (E + eps0) - zeta_E is a pre-image of r = b - A E (b at
        E = 0, the ``initial`` refresh); r and the pre-image that takes C0 r
        in the ``projector`` classes, transformed back from ``zeta_hat``, are
        cast into r and zeta.
        """
        E, zeta_E, zeta_hat = self.E, self.zeta_E, self.zeta_hat
        if initial:  # E = zeta_E = 0
            zeta64 = self.stiffness_product(self.field)
        else:
            np.multiply(self.dzeta_E, self.stress_unit, out=E, dtype=E.dtype)  # E is rebuilt below
            np.add(zeta_E, E, out=zeta_E)
            self.dzeta_E.fill(0.0)
            _green_convolve(self.G, zeta_E, out=E, spectra=(zeta_hat, self.r_hat), row=self.row)
            total = np.add(E, self.eps0[:, None], out=_carve(zeta_hat, E.dtype, E.shape))
            zeta64 = self.stiffness_product(self.field, total)
            zeta64 -= zeta_E
        r64 = _green_convolve(self.G, zeta64, out=self.field, spectra=(zeta_hat, self.r_hat), row=self.row)
        np.multiply(r64, 1.0 / self.scale, out=self.r, casting="same_kind")
        residual = field_norm(r64.T) / self.scale
        zeta_hat[:, self.projector] = self.G.reference @ self.r_hat[:, self.projector]
        zeta64 = self.G.plan.ifft(zeta_hat, out=self.field)
        np.multiply(zeta64, 1.0 / self.stress_unit, out=self.zeta, casting="same_kind")
        return residual

    def inner(self) -> float:
        """<r, r> = Re zeta^H r."""
        return float(np.vdot(self.zeta, self.r).real)

    def direction(self, beta: float) -> float:
        """p <- r + beta p and pi <- zeta + beta pi, q = G dC p, and the curvature Re pi^H p + Re p^H dC p."""
        p, pi = self.p, self.pi
        p *= beta
        p += self.r
        pi *= beta
        pi += self.zeta
        self.dCp = apply_stiffness(self.dC1, p, remainder=self.R1, out=self.dCp)
        self.q = _green_convolve(self.G1, self.dCp, out=self.q, spectra=self.spectra, row=self.row)
        return float(np.vdot(pi, p).real) + float(np.vdot(p, self.dCp).real)

    def advance(self, alpha: float) -> None:
        """r -= alpha A p and zeta -= a pre-image of it; dzeta_E += alpha pi."""
        q, dCp = self.q, self.dCp
        dCp -= dCp.mean(axis=1, keepdims=True)  # a pre-image of q = G dC p with less of the null space of G
        q += self.p  # A p
        q *= alpha
        self.r -= q
        np.multiply(self.pi, alpha, out=q)  # the step's increment of zeta_E
        self.dzeta_E += q
        dCp *= alpha
        dCp += q  # a pre-image of alpha A p
        self.zeta -= dCp


def _next_refresh(fresh: float, tolerance: float) -> float:
    """The recurred residual that calls the refresh after one at float64 residual ``fresh``, in either loop.

    A fall of _REFRESH_FALL^(3/2) = eps^(3/4) from a refresh to the
    tolerance is recurred in single precision: the recurred residual tracks
    the true one to about eps times the refreshed residual, which leaves the
    recurrence's amplification a margin of eps^(-1/4), about 54.  So the
    refresh comes at the tolerance itself once that lies within such a fall
    of ``fresh``, and after a fall of ``_REFRESH_FALL`` otherwise.
    """
    return tolerance if tolerance >= _REFRESH_FALL**1.5 * fresh else _REFRESH_FALL * fresh


@np.errstate(over="ignore", invalid="ignore")  # a non-finite residual stops it unconverged
def _conjugate_gradients(C, C0, eps0, G: GreenTable, cfg: SolverConfig | None, scheme: str) -> SolveReport:
    """The iteration of both schemes (see ``ls_fixed_point``), reported under ``scheme``: CG with float64 refreshes.

    A table whose every class is a C0-projector runs ``_StrainLoop``, any other ``_PreImageLoop``.
    """
    cfg = cfg or SolverConfig()
    C, C0, eps0 = _validate_problem(C, C0, eps0, G)
    contrast, remainder = _stiffness_rows(C, C0)  # -dC = C0 - C, as ``apply_stiffness`` takes it
    if not eps0.any():
        E = np.zeros((len(eps0), G.m), dtype=np.float64 if G.real else np.complex128)
        return SolveReport(E.T, 0, (0.0,), np.zeros(len(eps0)), True, scheme)
    # a loading with max|eps0| < 1/2 is solved exactly scaled up by 2^-exponent: the float64 norms square its entries
    exponent = min(math.frexp(float(np.abs(eps0).max()))[1], 0)
    eps0 = np.ldexp(eps0, -exponent)
    projector = G.projector_classes()
    if projector.all():
        loop = _StrainLoop(contrast, remainder, eps0, G)
    else:
        loop = _PreImageLoop(contrast, remainder, eps0, G, projector=projector)
    residuals = [loop.refresh(initial=True)]  # iteration 1 forms b = -G dC eps0
    iterations, refreshes, steps, directions = 1, 0, 0, 0  # steps: iterations since the last refresh
    target = _next_refresh(residuals[-1], cfg.tolerance)
    rs = math.inf  # beta = 0 on the first step
    while residuals[-1] > cfg.tolerance and np.isfinite(residuals[-1]) and iterations < cfg.max_iterations:
        rs_next = loop.inner()
        iterations += 1
        directions += rs_next > 0.0  # <r, r> <= 0 loses the direction too
        curvature = loop.direction(rs_next / rs) if rs_next > 0.0 else 0.0
        lost = steps > 0 and -np.inf < curvature <= 0.0  # a lost direction after a step: restart from a refresh
        if not (0.0 < curvature < np.inf or lost):
            residuals.append(residuals[-1] if curvature <= 0.0 else float("nan"))
            break
        if not lost:
            rs = rs_next
            loop.advance(rs / curvature)
            steps += 1
        residuals.append(field_norm(loop.r.T))  # recurred; the unit loading has norm one
        if lost or residuals[-1] <= target:
            recurred = residuals[-1]
            residuals[-1] = fresh = loop.refresh()
            if lost or fresh > _DRIFT_RESTART * max(recurred, cfg.tolerance):
                rs = math.inf  # beta = 0: the next step starts from the refreshed residual
            target = _next_refresh(fresh, cfg.tolerance)
            refreshes += 1
            steps = 0
    if steps:  # stopped between refreshes: the returned strain and the last residual come from one
        residuals[-1] = loop.refresh()
        refreshes += 1
    if exponent:
        loop.E *= math.ldexp(1.0, exponent)
    return SolveReport(
        strain=loop.E.T,
        iterations=iterations,
        residuals=tuple(residuals),
        effective_action=np.ldexp(loop.action, exponent),
        converged=residuals[-1] <= cfg.tolerance,
        scheme=scheme,
        residual_refreshes=refreshes,
        green_convolutions={"single": directions, "double": 1 + 2 * refreshes},
    )


def ls_fixed_point(C, C0, eps0, G: GreenTable, cfg: SolverConfig | None = None) -> SolveReport:
    """Conjugate-gradient solve of the fixed-point nodal equation E + G((C - C0) : (E + eps0)) = 0.

    Runs CG on A E = b, with A = I + G dC, dC = C - C0 and b = -G dC eps0, in
    the Green-weighted inner product <G a, G b> = Re a^H G b on the range of G,
    where A is self-adjoint with <x, A x> >= Re x^H C x > 0.  With pre-images
    r = G zeta and p = G pi of the residual and the direction, <r, r> is
    Re zeta^H r and the curvature <p, A p> is Re pi^H p + Re p^H dC p.  On a
    table of C0-projectors (Dirichlet, dlvp(0, ..., 0)) zeta = C0 r and
    pi = C0 p, and the loop carries the strain, r and p alone, with the
    curvature Re (C0 p)^H A p; on any other table it carries the pre-images
    (see the module notes).  Iteration 1 is a refresh at E = 0 that forms b;
    every later one costs one single-precision stiffness product dC p and
    Green convolution, and each of the ``residual_refreshes`` (see the
    module notes) one float64 stiffness product and two convolutions: one
    projects the strain (on a table of C0-projectors) or rebuilds it from
    its pre-image (on any other table, where one more inverse transform
    forms the refreshed pre-image), one forms the residual.  It stops
    when the relative nodal residual ||E + G(dC (E + eps0))|| / ||eps0||,
    recomputed in float64, drops below the tolerance.  A nonpositive <r, r>
    or curvature restarts CG from a float64 refresh; right after a refresh it
    ends the solve unconverged, as a non-finite residual or curvature does,
    and the partial field is returned with the flag cleared.  C0 must be
    ``G.reference``, C an (m, 2) array of finite Lame pairs (lambda, mu)
    whose stiffness is uniformly elliptic, and eps0 finite; ShapeError or
    DomainError names the input that is not.
    """
    return _conjugate_gradients(C, C0, eps0, G, cfg, "ls_fixed_point")


def ve_krylov(C, C0, eps0, G: GreenTable, cfg: SolverConfig | None = None) -> SolveReport:
    """Variational solve G(C : (E + eps0)) = 0 on the compatible table of ``G``'s generator.

    A table that is not ``compatible`` is rebuilt by ``compatible_green``
    on its ``reference``; the inputs are checked as in ``ls_fixed_point``.
    There the equation is the fixed-point one, so the iteration, its count
    and its residual, now ||G(C : (E + eps0))|| / ||eps0||, are those of
    ``ls_fixed_point``.  Every class of a compatible table is a
    C0-projector, so the loop runs on the strain itself: CG in the C0 inner
    product on the range of G, as in Zeman et al. and Vondřejc et al.
    """
    if not G.compatible:
        G = compatible_green(G.reference, make_rule(G.generator, G.matrix))
    return _conjugate_gradients(C, C0, eps0, G, cfg, "ve_krylov")


def _minres_fallback(operator, b, x0, cfg: SolverConfig):
    """Minimal-residual solve of a Hermitian system on (D, m) fields.

    No solver calls it; the benchmark tracer (perfbench/tracer.py) wraps it by name.
    scipy is imported on call: it is a dependency of the ``test`` extra only.

    scipy's minres is real-symmetric; a Hermitian operator on complex fields
    is lifted to the equivalent real system on interleaved real/imaginary
    parts, and real fields are passed as they are.
    """
    from scipy.sparse.linalg import LinearOperator, minres

    dtype = b.dtype

    def flat(v):
        return np.ascontiguousarray(v).ravel().view(np.float64)

    def matvec(vec):
        return flat(operator(flat(vec).view(dtype).reshape(b.shape)))

    rhs = flat(b)
    A = LinearOperator((rhs.size,) * 2, matvec=matvec, dtype=np.float64)
    sol, info = minres(A, rhs, x0=flat(x0), rtol=cfg.tolerance * 1e-2, maxiter=cfg.max_iterations)
    return sol.view(dtype).reshape(b.shape), info == 0


def error_metrics(
    strain,
    ref_strain=None,
    effective_action=None,
    ref_effective_action=None,
    log_form: str = "difference",
) -> ErrorMetrics:
    """Relative errors of a solution against reference data.

    e_l2 compares strain fields over all nodes and Mandel components; e_eff
    compares effective-stiffness actions; e_log is the per-node logarithmic
    deviation log(1 + |e - e_ref|).  ``log_form = "sum"`` switches the last
    to log(1 + |e + e_ref|) for compatibility with that printed convention.
    Complex strain coefficients are compared in full.  A zero reference
    field or action leaves its relative error undefined and raises
    DomainError.
    """
    if log_form not in LOG_ERROR_FORMS:
        raise DomainError(f"unknown log-error form {log_form!r}")
    e_l2 = None
    e_log = None
    if ref_strain is not None:
        strain = np.asarray(strain)
        ref_strain = np.asarray(ref_strain)
        if strain.shape != ref_strain.shape:
            raise ShapeError("strain fields have mismatched shapes")
        ref_norm = np.linalg.norm(ref_strain)
        if ref_norm == 0.0:
            raise DomainError("reference strain field is zero; relative errors are undefined")
        mixed = strain - ref_strain
        e_l2 = float(np.linalg.norm(mixed) / ref_norm)
        if log_form == "sum":
            np.add(strain, ref_strain, out=mixed)
        e_log = np.log1p(np.linalg.norm(mixed, axis=1))
    e_eff = None
    if ref_effective_action is not None:
        if effective_action is None:
            raise ShapeError("effective action required to compare against its reference")
        effective_action = np.asarray(effective_action, dtype=np.float64)
        ref_effective_action = np.asarray(ref_effective_action, dtype=np.float64)
        if effective_action.shape != ref_effective_action.shape:
            raise ShapeError("effective actions have mismatched shapes")
        ref_norm = np.linalg.norm(ref_effective_action)
        if ref_norm == 0.0:
            raise DomainError("reference effective action is zero; relative errors are undefined")
        e_eff = float(np.linalg.norm(effective_action - ref_effective_action) / ref_norm)
    return ErrorMetrics(e_l2=e_l2, e_eff=e_eff, e_log=e_log, log_form=log_form)
