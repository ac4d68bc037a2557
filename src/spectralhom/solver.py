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
never limits them.  Double precision holds the strain, as the pre-image
zeta_E of E = G zeta_E, and every convergence decision: when the recurred
residual has fallen by sqrt(eps) of float32 since the last refresh, or below
the tolerance, a refresh flushes the single-precision increment into zeta_E,
forms E and the residual by float64 convolutions, and re-casts the residual
and its pre-image; the search direction is kept (reliable updates, van der
Vorst & Ye, SIAM J. Sci. Comput. 2000), or restarted from the refreshed
residual when that exceeds twice the recurred one and the tolerance, which
shows the recurrence drifted.  The single-precision recurrences cannot
resolve a pre-image whose part in the null space of G dwarfs its image, so
pre-images drop that part where it is cheap: where G C0 G = G, C0 maps an
image to a pre-image without it, and G annihilates constants.
On a compatible table the recurrences use C0 G dC p for dC p and each
refresh C0 r; elsewhere they subtract the mean, and each refresh puts C0 r
in the classes that are C0-projectors.  So the residual history holds
single-precision recurred estimates between refreshes, its last entry is the
float64 residual of the returned strain, and a solve converges only on that.

Every phase is isotropic, so the stiffness is one Lame pair (lambda, mu)
per node, an (m, 2) array.  With C0 = iso(lambda0, mu0) + R split exactly
(R = 0 for an isotropic C0), (C0 - C) x = (lambda0 - lambda) tr(x) delta +
2 (mu0 - mu) x + R x: the solve keeps these two contrast rows of C0 - C (the
sign the residual's pre-image needs, so no negation pass is made), in
float64 for the refreshes and float32 for the iterations, and adds R x only
when R has a nonzero entry.  A refresh costs one float64 stiffness product
and two convolutions, and the effective action of its strain is read off
that product, mean(dC (E + eps0)) + C0 (mean E + eps0), so the action needs
no pass over C of its own.
Iteration 1 is the first refresh, at E = 0: it skips the convolution forming
E and takes b from the real products -dC eps0.  ``SolveReport.green_convolutions``
follows from the iteration and refresh counts.

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

    @property
    def green_convolutions(self) -> dict:
        """Green convolutions in each precision: a single one per later iteration, double ones for b and refreshes."""
        if not self.iterations:
            return {"single": 0, "double": 0}
        return {"single": self.iterations - 1, "double": 1 + 2 * self.residual_refreshes}

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


def _green_convolve(G: GreenTable, tau: np.ndarray, out=None, spectra=(None, None)) -> np.ndarray:
    """Action of the periodised Green operator on a (D, m) nodal field (real on a real table).

    ``out`` receives the result, and the two (D, stored classes) ``spectra``
    the transform and its Green product; buffers not given are allocated.
    """
    p = G.plan
    tau_hat, product = spectra
    return p.ifft(G.apply_hat(p.fft(tau, out=tau_hat), out=product), out=out)


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


@np.errstate(over="ignore", invalid="ignore")  # a non-finite residual stops it unconverged
def _conjugate_gradients(C, C0, eps0, G: GreenTable, cfg: SolverConfig | None, scheme: str) -> SolveReport:
    """The iteration of both schemes (see ``ls_fixed_point``), reported under ``scheme``: CG with float64 refreshes."""
    cfg = cfg or SolverConfig()
    C, C0, eps0 = _validate_problem(C, C0, eps0, G)
    contrast, remainder = _stiffness_rows(C, C0)  # -dC = C0 - C, as ``apply_stiffness`` takes it
    scale = float(np.linalg.norm(eps0))
    E = np.zeros((len(eps0), G.m), dtype=np.float64 if G.real else np.complex128)
    if scale == 0.0:
        return SolveReport(E.T, 0, (0.0,), np.zeros(len(eps0)), True, scheme)
    # the single-precision state is that of the unit problem: strains divided by ||eps0|| and stresses by
    # stress_unit, so the stiffness is divided by stiffness_unit and the Green table multiplied by it
    C0 = G.reference
    stiffness_unit = float(np.abs(C0).max())
    stress_unit = scale * stiffness_unit
    dC1 = np.multiply(contrast, -1.0 / stiffness_unit, out=np.empty(contrast.shape, np.float32), casting="same_kind")
    R1 = None if remainder is None else (remainder * (-1.0 / stiffness_unit)).astype(np.float32)  # dC = C - C0
    C1 = (C0 / stiffness_unit).astype(np.float32)
    table = np.multiply(G.table, stiffness_unit, out=np.empty(G.table.shape, np.float32), casting="same_kind")
    G1 = dataclasses.replace(G, table=table, reference=C0 / stiffness_unit)
    single = np.float32 if G.real else np.complex64
    r, zeta = (np.empty(E.shape, dtype=single) for _ in range(2))
    p, pi = (np.zeros(E.shape, dtype=single) for _ in range(2))  # so that beta = 0 starts them at r and zeta
    zeta_E = np.zeros_like(E)  # E = G zeta_E, carried in double precision
    dzeta_E = np.zeros_like(r)  # the increment of zeta_E since the last refresh
    # the refreshes' double-precision field and spectra; the iterations' scratch lies on the same bytes
    spectrum = (len(eps0), G.table.shape[-1])
    field, zeta_hat, r_hat = np.empty_like(E), np.empty(spectrum, np.complex128), np.empty(spectrum, np.complex128)
    dCp, q = (_carve(field, single, E.shape, part) for part in (0, 1))
    spectra = tuple(_carve(buffer, np.complex64, spectrum) for buffer in (zeta_hat, r_hat))
    # a pre-image whose part in the null space of G dwarfs its image cannot be resolved in single
    # precision; where G C0 G = G, C0 maps an image to a pre-image without such a part
    projector = G.projector_classes()
    projector_table = bool(projector.all())
    spectral_pre_image = not projector_table and bool(projector[1:].any())  # beyond the class of h = 0
    iterations = refreshes = steps = 0  # steps: iterations since the last refresh
    action = None  # the effective action of E, read off each refresh

    def refresh() -> float:
        """Flush the single-precision increment into zeta_E, rebuild E = G zeta_E and return its float64 residual.

        zeta64 = -dC (E + eps0) - zeta_E is a pre-image of r = b - A E (b at E = 0, before the first iteration);
        r and a pre-image taking C0 r in the ``projector`` classes are cast into r and zeta.  The effective
        action of E is read off the same stiffness product.
        """
        nonlocal action
        if iterations:  # else E = zeta_E = 0 and nothing has been accumulated
            np.multiply(dzeta_E, stress_unit, out=E, dtype=E.dtype)  # E is rebuilt below
            np.add(zeta_E, E, out=zeta_E)
            dzeta_E.fill(0.0)
            _green_convolve(G, zeta_E, out=E, spectra=(zeta_hat, r_hat))
            total = np.add(E, eps0[:, None], out=_carve(zeta_hat, E.dtype, E.shape))
            mean = total.mean(axis=1)
        else:  # real products, written in the field's dtype: a complex transform would copy a real input
            total, mean = np.broadcast_to(eps0[:, None], E.shape), eps0
        zeta64 = apply_stiffness(contrast, total, remainder=remainder, out=field)
        # the mean stress mean(C (E + eps0)) = mean(dC (E + eps0)) + C0 (mean E + eps0)
        action = np.real(C0 @ mean - zeta64.mean(axis=1))
        zeta64 -= zeta_E
        # the transform of zeta stays in zeta_hat where the pre-image is formed class by class
        r64 = field if spectral_pre_image else _carve(zeta_hat, E.dtype, E.shape)
        r64 = _green_convolve(G, zeta64, out=r64, spectra=(zeta_hat, r_hat))
        np.multiply(r64, 1.0 / scale, out=r, casting="same_kind")
        residual = field_norm(r64.T) / scale
        if projector_table:
            zeta64 = np.matmul(C0, r64, out=field)
        elif spectral_pre_image:
            zeta_hat[:, projector] = C0 @ r_hat[:, projector]
            zeta64 = G.plan.ifft(zeta_hat, out=field)
        else:  # the class of h = 0 alone, where G vanishes: the mean
            zeta64 -= zeta64.mean(axis=1, keepdims=True)
        np.multiply(zeta64, 1.0 / stress_unit, out=zeta, casting="same_kind")
        return residual

    residuals = [refresh()]  # iteration 1 forms b = -G dC eps0
    iterations = 1
    fresh = residuals[-1]  # the float64 residual of the last refresh
    rs = math.inf  # beta = 0 on the first step
    while residuals[-1] > cfg.tolerance and np.isfinite(residuals[-1]) and iterations < cfg.max_iterations:
        rs_next = float(np.vdot(zeta, r).real)
        beta, rs = rs_next / rs, rs_next
        p *= beta
        p += r
        pi *= beta
        pi += zeta
        iterations += 1
        dCp = apply_stiffness(dC1, p, remainder=R1, out=dCp)
        q = _green_convolve(G1, dCp, out=q, spectra=spectra)
        curvature = float(np.vdot(pi, p).real) + float(np.vdot(p, dCp).real)
        if not 0.0 < curvature < np.inf:
            residuals.append(residuals[-1] if curvature <= 0.0 else float("nan"))
            break
        alpha = rs / curvature
        # a pre-image of q = G dC p with less of the null space of G than dC p: C0 q on a projector
        # table, else dC p less its mean, which G annihilates
        if projector_table:
            dCp = np.matmul(C1, q, out=dCp)
        else:
            dCp -= dCp.mean(axis=1, keepdims=True)
        q += p  # A p
        q *= alpha
        r -= q
        np.multiply(pi, alpha, out=q)  # the step's increment of zeta_E
        dzeta_E += q
        dCp *= alpha
        dCp += q  # a pre-image of alpha A p
        zeta -= dCp
        steps += 1
        residuals.append(field_norm(r.T))  # recurred; the unit loading has norm one
        if residuals[-1] <= max(cfg.tolerance, _REFRESH_FALL * fresh):
            recurred = residuals[-1]
            residuals[-1] = fresh = refresh()
            if fresh > _DRIFT_RESTART * max(recurred, cfg.tolerance):
                rs = math.inf  # beta = 0: the next step starts from the refreshed r and zeta
            refreshes += 1
            steps = 0
    if steps:  # stopped between refreshes: the returned strain and the last residual come from one
        residuals[-1] = refresh()
        refreshes += 1
    return SolveReport(
        strain=E.T,
        iterations=iterations,
        residuals=tuple(residuals),
        effective_action=action,
        converged=residuals[-1] <= cfg.tolerance,
        scheme=scheme,
        residual_refreshes=refreshes,
    )


def ls_fixed_point(C, C0, eps0, G: GreenTable, cfg: SolverConfig | None = None) -> SolveReport:
    """Conjugate-gradient solve of the fixed-point nodal equation E + G((C - C0) : (E + eps0)) = 0.

    Runs CG on A E = b, with A = I + G dC, dC = C - C0 and b = -G dC eps0, in
    the Green-weighted inner product <G a, G b> = Re a^H G b on the range of G,
    where A is self-adjoint with <x, A x> >= Re x^H C x > 0.  Beside the
    residual r = G zeta and the direction p = G pi it carries their
    pre-images, so <r, r> = Re zeta^H r and the curvature <p, A p> is
    Re pi^H p + Re p^H dC p.  Iteration 1 is a refresh at E = 0 that forms b;
    every later one costs one single-precision stiffness product dC p and
    Green convolution, and each of the ``residual_refreshes`` (see the
    module notes) one float64 stiffness product and two convolutions.  It
    stops when the relative nodal residual ||E + G(dC (E + eps0))|| / ||eps0||,
    recomputed in float64, drops below the tolerance.  A non-finite residual
    or curvature, or a nonpositive curvature, ends the solve unconverged, and
    the partial field is returned with the flag cleared.  C0 must be
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
    ``ls_fixed_point``.
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
        e_l2 = float(np.linalg.norm(strain - ref_strain) / ref_norm)
        mixed = strain - ref_strain if log_form == "difference" else strain + ref_strain
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
