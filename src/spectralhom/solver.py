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

Iterates are component-major (D, m) fields (FFTs over the trailing Smith
axes, pointwise products as ``mandel_product`` row sums); the symmetric
stiffness (m, D, D) and the reported strain (m, D) stay pattern-major.  A
non-finite residual or curvature (overflowing input) ends a solve unconverged.

All norms are root-mean-square over nodes so tolerances are resolution
independent; reductions use numpy's fixed pairwise summation, making
repeated runs bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elasticity import GreenTable, compatible_green, mandel_dim, mandel_product, pack_symmetric
from .errors import DomainError, ShapeError
from .translates import make_rule

__all__ = [
    "SolverConfig",
    "SolveReport",
    "ErrorMetrics",
    "ls_fixed_point",
    "ve_krylov",
    "effective_stiffness",
    "error_metrics",
    "field_norm",
    "apply_stiffness",
]

LOG_ERROR_FORMS = ("difference", "sum")
_ELLIPTIC_FLOOR = 1e-12  # smallest admissible Gaussian pivot, relative to the largest diagonal entry


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls and scheme selection."""

    tolerance: float = 1e-8
    max_iterations: int = 10000
    scheme: str = "ls_fixed_point"  # or "ve_krylov"

    def __post_init__(self):
        if not self.tolerance > 0.0:
            raise DomainError("tolerance must be positive")
        if self.max_iterations < 1:
            raise DomainError("max_iterations must be >= 1")
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

    @property
    def imbalance(self) -> float:
        """Relative size of the imaginary (Nyquist) component of the strain."""
        scale = float(np.linalg.norm(self.strain))
        if scale == 0.0:
            return 0.0
        return float(np.linalg.norm(self.strain.imag) / scale)


@dataclass(frozen=True, eq=False)
class ErrorMetrics:
    """Relative field and effective-stiffness errors against a reference."""

    e_l2: float | None
    e_eff: float | None
    e_log: np.ndarray | None  # (m,) per-node logarithmic error field
    log_form: str


def field_norm(values: np.ndarray) -> float:
    """Root-mean-square norm over the nodes of an (m, ...) field.

    A constant field keeps its vector norm; (D, m) fields are passed transposed.
    """
    values = np.asarray(values)
    return float(np.linalg.norm(values) / np.sqrt(values.shape[0]))


apply_stiffness = mandel_product  # pointwise stress C(y) : strain(y), C as rows over nodes


def _green_convolve(G: GreenTable, tau: np.ndarray) -> np.ndarray:
    """Action of the periodised Green operator on a (D, m) nodal field (real on a real table)."""
    p = G.plan
    return p.ifft(G.apply_hat(p.fft(tau)))


def _validate_problem(C, C0, eps0, G: GreenTable):
    C = np.asarray(C, dtype=np.float64)
    C0 = np.asarray(C0, dtype=np.float64)
    eps0 = np.asarray(eps0, dtype=np.float64)
    m = G.m
    D = mandel_dim(G.matrix.d)
    if C.shape != (m, D, D):
        raise ShapeError(f"stiffness field must have shape {(m, D, D)}, got {C.shape}")
    if C0.shape != (D, D):
        raise ShapeError(f"reference stiffness must have shape {(D, D)}, got {C0.shape}")
    if eps0.shape != (D,):
        raise ShapeError(f"macroscopic strain must have shape {(D,)}, got {eps0.shape}")
    if not np.all(np.abs(C0 - G.reference) <= 1e-12 * np.abs(G.reference).max()):
        raise DomainError("reference stiffness differs from the one the Green table was built for")
    for name, value in (("stiffness field", C), ("macroscopic strain", eps0)):
        if not np.isfinite(value).all():
            raise DomainError(f"{name} must be finite")
    rows, cols = np.triu_indices(D, 1)  # the iteration packs the upper triangle; the effective stiffness reads all of C
    if np.abs(C[:, rows, cols] - C[:, cols, rows]).max(initial=0.0) > 1e-12 * max(1.0, float(np.abs(C).max())):
        raise DomainError("stiffness field must be symmetric at every node")
    return C, C0, eps0


def effective_stiffness(C: np.ndarray, strain: np.ndarray, eps0: np.ndarray) -> np.ndarray:
    """Equal-weight cell average of C : (total strain) under loading eps0.

    Accepts complex strain coefficients; the returned action is the real
    part (the response of a real material to a real mean strain; any
    imaginary content is a Nyquist artifact that averages out to round-off).
    """
    C = np.asarray(C, dtype=np.float64)
    strain = np.asarray(strain)
    eps0 = np.asarray(eps0, dtype=np.float64)
    if strain.shape != C.shape[:2]:
        raise ShapeError("strain field does not match the stiffness field")
    return np.real(apply_stiffness(C.reshape(len(C), -1).T, strain.T + eps0[:, None]).mean(axis=1))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite residual stops it unconverged
def _conjugate_gradients(C, C0, eps0, G: GreenTable, cfg: SolverConfig | None, scheme: str) -> SolveReport:
    """The iteration of both schemes (see ``ls_fixed_point``), reported under ``scheme``."""
    cfg = cfg or SolverConfig()
    C, C0, eps0 = _validate_problem(C, C0, eps0, G)
    _check_elliptic(C)
    dC = pack_symmetric(C - C0)
    scale = float(np.linalg.norm(eps0))
    E = np.zeros((len(eps0), G.m), dtype=np.float64 if G.real else np.complex128)
    residuals: list[float] = []
    iterations = 0
    if scale == 0.0:
        converged = True
        residuals.append(0.0)
    else:
        zeta = -apply_stiffness(dC, E + eps0[:, None])  # the pre-image of r = b
        r = _green_convolve(G, zeta)
        p, pi = r.copy(), zeta.copy()
        rs = float(np.vdot(zeta, r).real)
        iterations = 1
        residuals.append(field_norm(r.T) / scale)
        while residuals[-1] > cfg.tolerance and np.isfinite(residuals[-1]) and iterations < cfg.max_iterations:
            if iterations > 1:
                rs_next = float(np.vdot(zeta, r).real)
                beta = rs_next / rs
                p *= beta
                p += r
                pi *= beta
                pi += zeta
                rs = rs_next
            iterations += 1
            dCp = apply_stiffness(dC, p)
            q = _green_convolve(G, dCp)
            curvature = float(np.vdot(pi, p).real + np.vdot(p, dCp).real)
            if not 0.0 < curvature < np.inf:
                residuals.append(residuals[-1] if curvature <= 0.0 else float("nan"))
                break
            alpha = rs / curvature
            E += alpha * p
            q += p  # A p
            q *= alpha
            r -= q
            dCp += pi  # the pre-image of A p
            dCp *= alpha
            zeta -= dCp
            residuals.append(field_norm(r.T) / scale)
        converged = residuals[-1] <= cfg.tolerance
    return SolveReport(
        strain=E.T,
        iterations=iterations,
        residuals=tuple(residuals),
        effective_action=effective_stiffness(C, E.T, eps0),
        converged=converged,
        scheme=scheme,
    )


def ls_fixed_point(C, C0, eps0, G: GreenTable, cfg: SolverConfig | None = None) -> SolveReport:
    """Conjugate-gradient solve of the fixed-point nodal equation E + G((C - C0) : (E + eps0)) = 0.

    Runs CG on A E = b, with A = I + G dC, dC = C - C0 and b = -G dC eps0, in
    the Green-weighted inner product <G a, G b> = Re a^H G b on the range of G,
    where A is self-adjoint with <x, A x> >= Re x^H C x > 0.  Beside the
    residual r = G zeta and the direction p = G pi it carries their
    pre-images, so <r, r> = Re zeta^H r and the curvature <p, A p> is
    Re pi^H p + Re p^H dC p.  Iteration 1 is the convolution that forms b;
    every later one costs one stiffness product dC p and one Green
    convolution.  It stops when the relative nodal residual
    ||E + G(dC (E + eps0))|| / ||eps0|| drops below the tolerance.  A
    non-finite residual or curvature, or a nonpositive curvature, ends the
    solve unconverged, and the partial field is returned with the flag
    cleared.  C0 must be ``G.reference``, C finite, symmetric and uniformly
    elliptic, and eps0 finite; DomainError names the input that is not.
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


def _check_elliptic(C: np.ndarray) -> None:
    """Raise DomainError unless every nodal stiffness in the (m, D, D) stack is positive definite.

    Gaussian elimination runs on all nodes at once over (D, D, m) rows.  Every
    pivot of a node with condition number below 1 / ``_ELLIPTIC_FLOOR`` exceeds
    that fraction of its largest diagonal entry; a smaller (or non-finite)
    pivot marks a node that is indefinite or singular to round-off.
    """
    A = C.transpose(1, 2, 0).copy()  # Schur complements are formed in place
    floor = _ELLIPTIC_FLOOR * np.diagonal(A).max(axis=1)
    for k in range(len(A)):
        if not np.all(A[k, k] > floor):
            raise DomainError("stiffness field is not uniformly elliptic")
        A[k + 1 :, k + 1 :] -= A[k + 1 :, k, None] * (A[k, k + 1 :] / A[k, k])


def _minres_fallback(operator, b, x0, cfg: SolverConfig):
    """Minimal-residual solve of a Hermitian system on (D, m) fields.

    No solver calls it; the benchmark tracer (perfbench/tracer.py) wraps it by name.

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
