"""Independent brute-force oracles used to pin expected values in the tests.

Everything here is computed from first principles (exhaustive enumeration,
Fraction arithmetic, the textbook closed forms, dense matrices), avoiding
the code paths under test; ``dense_oracle`` reuses the solver's operator
kernels but replaces the iteration by a direct solve, on the full table that
``full_table`` rebuilds from a half-spectrum one by class negation,
``float64_conjugate_gradients`` is the solver's iteration run wholly in
double precision, ``true_residual`` is the float64 residual of a strain by
which both are judged, and ``effective_stiffness`` averages the stress of a
strain.  These take the solver's (m, 2) Lame pairs and expand them into
dense (m, D, D) stiffness fields by ``iso_stiffness`` (``dense_stiffness``),
whose products run through the Green table's packed-row ``mandel_product``,
not the solver's contrast-row ``apply_stiffness``.
"""

import dataclasses
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np

from spectralhom.elasticity import GreenTable, iso_stiffness, mandel_product
from spectralhom.errors import ShapeError
from spectralhom.lattice import frequency_set, smith_normal_form
from spectralhom.solver import (
    SolverConfig,
    SolveReport,
    _green_convolve,
    _stiffness_rows,
    _validate_problem,
    field_norm,
)

_DENSE_FOURIER_LIMIT = 4096  # m; the complex matrix takes 16 m^2 bytes
_DENSE_SOLVE_LIMIT = 2048  # m D


def det_int(rows):
    d = len(rows)
    if d == 1:
        return rows[0][0]
    if d == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    a, b, c = rows[0]
    p, q, r = rows[1]
    x, y, z = rows[2]
    return a * (q * z - r * y) - b * (p * z - r * x) + c * (p * y - q * x)


def inverse_fraction(rows):
    """Exact inverse as a matrix of Fractions."""
    d = len(rows)
    det = det_int(rows)
    if d == 1:
        return [[Fraction(1, det)]]
    if d == 2:
        (a, b), (c, e) = rows
        return [
            [Fraction(e, det), Fraction(-b, det)],
            [Fraction(-c, det), Fraction(a, det)],
        ]
    a, b, c = rows[0]
    p, q, r = rows[1]
    x, y, z = rows[2]
    adj = [
        [q * z - r * y, -(b * z - c * y), b * r - c * q],
        [-(p * z - r * x), a * z - c * x, -(a * r - c * p)],
        [p * y - q * x, -(a * y - b * x), a * q - b * p],
    ]
    return [[Fraction(v, det) for v in row] for row in adj]


def _in_half_open_cell(vec):
    return all(Fraction(-1, 2) <= c < Fraction(1, 2) for c in vec)


def brute_force_pattern(rows):
    """All lattice residues of M^{-1}Z^d in [-1/2, 1/2)^d, as Fraction tuples."""
    d = len(rows)
    inv = inverse_fraction(rows)
    bound = [sum(abs(rows[i][j]) for j in range(d)) // 2 + 1 for i in range(d)]
    points = set()
    for k in product(*[range(-b, b + 1) for b in bound]):
        y = tuple(sum(inv[i][j] * k[j] for j in range(d)) for i in range(d))
        if _in_half_open_cell(y):
            points.add(y)
    return points


def brute_force_generating_set(rows):
    """M times the brute-force pattern, as integer tuples."""
    d = len(rows)
    out = set()
    for y in brute_force_pattern(rows):
        g = tuple(sum(rows[i][j] * y[j] for j in range(d)) for i in range(d))
        assert all(v.denominator == 1 for v in g)
        out.add(tuple(int(v) for v in g))
    return out


def brute_force_residue(k, rows, search=3):
    """The congruence representative of k modulo M Z^d by exhaustive search.

    Searches integer shifts z around the rational solution M^{-1} k, where
    the representative must lie.
    """
    d = len(rows)
    inv = inverse_fraction(rows)
    center = [round(sum(inv[i][j] * k[j] for j in range(d))) for i in range(d)]
    for dz in product(range(-search, search + 1), repeat=d):
        z = [center[i] + dz[i] for i in range(d)]
        h = tuple(k[i] - sum(rows[i][j] * z[j] for j in range(d)) for i in range(d))
        y = tuple(sum(inv[i][j] * h[j] for j in range(d)) for i in range(d))
        if _in_half_open_cell(y):
            return h
    raise AssertionError(f"no representative of {k} found within search radius {search}")


def dense_dft_direct(rows, pattern_points, freqs):
    """Fourier matrix from its defining entries, with Fraction phases."""
    m = len(pattern_points)
    F = np.empty((m, m), dtype=complex)
    for i, h in enumerate(freqs):
        for j, y in enumerate(pattern_points):
            phase = sum(Fraction(int(hc)) * yc for hc, yc in zip(h, y)) % 1
            F[i, j] = np.exp(-2j * np.pi * float(phase))
    return F / np.sqrt(m)


_PAIRS = {2: [(0, 1)], 3: [(0, 1), (0, 2), (1, 2)]}


def mandel_matrix_from_tensor4(T, d):
    """Mandel reduction of a minor-symmetric fourth-order tensor."""
    pairs = [(i, i) for i in range(d)] + _PAIRS[d]
    weights = [1.0] * d + [np.sqrt(2.0)] * len(_PAIRS[d])
    D = len(pairs)
    out = np.zeros((D, D))
    for a, (i, j) in enumerate(pairs):
        for b, (k, h) in enumerate(pairs):
            out[a, b] = weights[a] * weights[b] * T[i, j, k, h]
    return out


def isotropic_green_mandel(lam0, mu0, k, d):
    """Classical closed-form Green operator of an isotropic reference medium."""
    k = np.asarray(k, dtype=float)
    n2 = float(k @ k)
    if n2 == 0.0:
        return np.zeros((d * (d + 1) // 2,) * 2)
    coef = (lam0 + mu0) / (mu0 * (lam0 + 2.0 * mu0))
    T = np.zeros((d, d, d, d))
    for i in range(d):
        for j in range(d):
            for p in range(d):
                for q in range(d):
                    T[i, j, p, q] = (
                        (p == i) * k[q] * k[j]
                        + (q == i) * k[p] * k[j]
                        + (p == j) * k[q] * k[i]
                        + (q == j) * k[p] * k[i]
                    ) / (4.0 * mu0 * n2) - coef * k[i] * k[j] * k[p] * k[q] / n2**2
    return mandel_matrix_from_tensor4(T, d)


def random_regular_matrix(rng, d, max_m, max_entry=5):
    """Random regular integer matrix with |det| in [1, max_m]."""
    while True:
        rows = [[int(rng.integers(-max_entry, max_entry + 1)) for _ in range(d)] for _ in range(d)]
        det = det_int(rows)
        if det != 0 and abs(det) <= max_m:
            return rows


def random_spd_mandel(rng, D, shift=0.5):
    """Random symmetric positive-definite D x D matrix."""
    A = rng.standard_normal((D, D))
    return A @ A.T + shift * np.eye(D)


def sym_grad_batch(ks):
    """(n, D, d) symmetrised-gradient matrices S(k) written out entry by entry."""
    ks = np.asarray(ks, dtype=float)
    n, d = ks.shape
    S = np.zeros((n, d * (d + 1) // 2, d))
    for a in range(d):
        S[:, a, a] = ks[:, a]
    for row, (a, b) in enumerate(_PAIRS[d], start=d):
        S[:, row, b] += ks[:, a] / np.sqrt(2.0)
        S[:, row, a] += ks[:, b] / np.sqrt(2.0)
    return S


def green_einsum_inverse(C0, ks):
    """Green matrices S (S^T C0 S)^{-1} S^T by batched einsum and a LAPACK inverse."""
    ks = np.asarray(ks, dtype=float)
    S = sym_grad_batch(ks)
    A = np.einsum("nai,ab,nbj->nij", S, C0, S)
    zero = np.all(ks == 0.0, axis=1)
    A[zero] = np.eye(ks.shape[1])
    G = np.einsum("nai,nij,nbj->nab", S, np.linalg.inv(A), S)
    G[zero] = 0.0
    return G


def green_dense_solve(C0, k):
    """Green matrix at one frequency by a dense solve, zero at k = 0."""
    S = sym_grad_batch(np.asarray(k, dtype=float)[None, :])[0]
    if not np.any(S):
        return np.zeros((S.shape[0], S.shape[0]))
    return S @ np.linalg.solve(S.T @ C0 @ S, S.T)


def _box(d, periods):
    return list(product(range(-periods, periods + 1), repeat=d))


def periodized_green_einsum(C0, rule, freqs, periods, shifts=None):
    """Generator-weighted class sums of green_einsum_inverse over ``shifts``, by default all of |z|_inf <= periods."""
    M = np.array(rule.matrix.rows, dtype=np.int64)
    m, d = freqs.shape
    acc = np.zeros((m, d * (d + 1) // 2, d * (d + 1) // 2))
    shifts = np.array(_box(d, periods) if shifts is None else shifts, dtype=np.int64).reshape(-1, d)
    batch = max(1, 4096 // m)  # shifts per batched einsum
    for first in range(0, len(shifts), batch):
        ks = (freqs[None, :, :] + (shifts[first : first + batch] @ M)[:, None, :]).reshape(-1, d)
        weights = np.abs(rule.coefficients(ks)) ** 2
        acc += (green_einsum_inverse(C0, ks) * weights[:, None, None]).reshape(-1, m, *acc.shape[1:]).sum(axis=0)
    acc *= m
    acc[0] = 0.0
    return acc


def pack_symmetric(A):
    """Symmetric-packed rows (D (D + 1) / 2, ...) of (..., D, D) matrices: the upper triangle, row by row."""
    rows, cols = np.triu_indices(np.shape(A)[-1])
    return np.ascontiguousarray(np.moveaxis(np.asarray(A)[..., rows, cols], -1, 0))


def dense_stiffness(C, d):
    """The (m, D, D) Mandel stiffness field of (m, 2) Lame pairs C, one ``iso_stiffness`` matrix per node."""
    pairs, which = np.unique(np.asarray(C, dtype=np.float64), axis=0, return_inverse=True)
    return np.stack([iso_stiffness(lam, mu, d) for lam, mu in pairs])[which.reshape(-1)]


def stiffness_product_einsum(C, strain):
    """Pointwise C(y) strain(y) on pattern-major (m, D, D) and (m, D) arrays."""
    return np.einsum("hij,hj->hi", C, strain)


def effective_stiffness(C, strain, eps0):
    """Equal-weight cell average of C : (total strain) under loading eps0: the reference for ``effective_action``.

    C holds the (m, 2) Lame pairs the solvers take, expanded here by
    ``dense_stiffness``.  Accepts complex strain coefficients; the returned
    action is the real part (the response of a real material to a real mean
    strain; any imaginary content is a Nyquist artifact that averages out to
    round-off).
    """
    strain = np.asarray(strain)
    eps0 = np.asarray(eps0, dtype=np.float64)
    if strain.shape[0] != len(C) or strain.shape[1] not in (3, 6):
        raise ShapeError("strain field does not match the stiffness field")
    dense = dense_stiffness(C, {3: 2, 6: 3}[strain.shape[1]])
    return np.real(mandel_product(pack_symmetric(dense), strain.T + eps0[:, None]).mean(axis=1))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite residual stops it unconverged
def neumann_fixed_point(C, C0, eps0, G: GreenTable, cfg: SolverConfig | None = None) -> SolveReport:
    """Fixed-point (Neumann series) solve of the nodal cell problem.

    Iterates E <- -G((C - C0) : (E + eps0)) from E = 0 and stops when the
    relative nodal residual ||E + G((C - C0)(E + eps0))|| / ||eps0|| drops
    below the tolerance.  On non-convergence the partial field is returned
    with the flag cleared.  This is the basic scheme of Moulinec and Suquet
    that ``ls_fixed_point`` replaced by conjugate gradients; it diverges once
    G (C - C0) has spectral radius one or more, for example with C0 the soft
    phase of a high-contrast field.
    """
    cfg = cfg or SolverConfig()
    C, C0, eps0 = _validate_problem(C, C0, eps0, G)
    dC = pack_symmetric(dense_stiffness(C, G.matrix.d) - C0)
    scale = float(np.linalg.norm(eps0))
    E = np.zeros((len(eps0), G.m), dtype=np.float64 if G.real else np.complex128)
    residuals: list[float] = []
    converged = False
    iterations = 0
    if scale == 0.0:
        converged = True
        residuals.append(0.0)
    else:
        for iterations in range(1, cfg.max_iterations + 1):
            E_next = -_green_convolve(G, mandel_product(dC, E + eps0[:, None]))
            r = field_norm((E - E_next).T) / scale
            residuals.append(r)
            E = E_next
            if r <= cfg.tolerance:
                converged = True
                break
            if not np.isfinite(r):
                break
    return SolveReport(
        strain=E.T,
        iterations=iterations,
        residuals=tuple(residuals),
        effective_action=effective_stiffness(C, E.T, eps0),
        converged=converged,
        scheme="ls_fixed_point",
    )


def true_residual(strain, C, C0, eps0, G: GreenTable) -> float:
    """The float64 nodal residual ||E + G dC (E + eps0)|| / ||eps0|| of an (m, D) strain, dC = C - C0."""
    E = strain.T  # component-major (D, m), the solver's internal layout
    dC = pack_symmetric(dense_stiffness(C, G.matrix.d) - C0[None])
    resid = E + _green_convolve(G, mandel_product(dC, E + eps0[:, None]))
    return field_norm(resid.T) / np.linalg.norm(eps0)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite residual stops it unconverged
def float64_conjugate_gradients(
    C, C0, eps0, G: GreenTable, cfg: SolverConfig | None = None, scheme: str = "ls_fixed_point"
) -> SolveReport:
    """The conjugate-gradient loop of ``ls_fixed_point`` and ``ve_krylov`` run wholly in double precision.

    The reference for the solver's single-precision iteration: the same
    Green-weighted CG on the table it is given, every field in float64, and
    the recurred residual as the stopping test.  On a table whose every class
    is a C0-projector it runs, as the solver does, in the strain form: the
    pre-images are zeta = C0 r and pi = C0 p, and the curvature is
    Re (C0 p)^H (p + q), q = G dC p.  (The pre-image recurrence, with the
    curvature Re pi^H p + Re p^H dC p, breaks down there when C0 is stiffer
    than every phase.)  At exit the last residual is replaced, as in the
    solver, by ``true_residual`` of the returned strain, and ``converged``
    rests on that value.
    """
    cfg = cfg or SolverConfig()
    C, C0, eps0 = _validate_problem(C, C0, eps0, G)
    _stiffness_rows(C, C0)  # checks ellipticity
    dC = pack_symmetric(dense_stiffness(C, G.matrix.d) - C0)
    strain_form = bool(G.projector_classes().all())
    scale = float(np.linalg.norm(eps0))
    E = np.zeros((len(eps0), G.m), dtype=np.float64 if G.real else np.complex128)
    residuals: list[float] = []
    iterations = 0
    if scale == 0.0:
        converged = True
        residuals.append(0.0)
    else:
        zeta = -mandel_product(dC, E + eps0[:, None])  # a pre-image of r = b
        r = _green_convolve(G, zeta)
        if strain_form:
            zeta = C0 @ r
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
            dCp = mandel_product(dC, p)
            q = _green_convolve(G, dCp)
            if strain_form:
                curvature = float(np.vdot(pi, p + q).real)
            else:
                curvature = float(np.vdot(pi, p).real + np.vdot(p, dCp).real)
            if not 0.0 < curvature < np.inf:
                residuals.append(residuals[-1] if curvature <= 0.0 else float("nan"))
                break
            alpha = rs / curvature
            E += alpha * p
            q += p  # A p
            q *= alpha
            r -= q
            if strain_form:
                zeta = C0 @ r
            else:
                dCp += pi  # the pre-image of A p
                dCp *= alpha
                zeta -= dCp
            residuals.append(field_norm(r.T) / scale)
        if iterations > 1:  # the first residual is formed from b, the later ones recurred
            residuals[-1] = true_residual(E.T, C, C0, eps0, G)
        converged = residuals[-1] <= cfg.tolerance
    return SolveReport(
        strain=E.T,
        iterations=iterations,
        residuals=tuple(residuals),
        effective_action=effective_stiffness(C, E.T, eps0),
        converged=converged,
        scheme=scheme,
    )


def unpack_symmetric(rows):
    """(m, D, D) matrices from (D (D + 1) / 2, m) symmetric-packed rows (upper triangle, row by row)."""
    D = int(round((np.sqrt(8 * rows.shape[0] + 1) - 1) / 2))
    r, c = np.triu_indices(D)
    out = np.empty((rows.shape[1], D, D))
    out[:, r, c] = out[:, c, r] = rows.T
    return out


def fourier_matrix(M):
    """Dense unitary Fourier matrix with rows over G(M^T), columns over P(M), for m <= 4096.

    Entry (h, y) is exp(-2 pi i h^T y) / sqrt(m).  In Smith coordinates
    h(j')^T y(j) = sum_l j'_l j_l / d_l mod 1, so every phase is an integer
    multiple of 1/m, reduced modulo m before the exponential is evaluated.
    """
    m = M.m
    if m > _DENSE_FOURIER_LIMIT:
        raise ValueError(f"dense Fourier matrix limited to m <= {_DENSE_FOURIER_LIMIT}, got m = {m}")
    diag = np.array(smith_normal_form(M).diag, dtype=np.int64)
    J = np.indices(tuple(diag), dtype=np.int64).reshape(len(diag), -1).T
    phases = ((J * (m // diag)[None, :]) @ J.T) % m
    return np.exp((-2j * np.pi / m) * phases) / np.sqrt(m)


def index_of_nums(pat, nums):
    """Canonical positions of pattern points given as integer numerators over m.

    A point is y = V D^{-1} j, so its Smith coordinates are j = D V^{-1} y mod d.
    """
    diag = np.array(pat.smith.diag, dtype=np.int64)
    v_inverse = np.array([[int(v) for v in row] for row in inverse_fraction(pat.smith.V)], dtype=np.int64)
    jm = np.atleast_2d(nums) @ (diag[:, None] * v_inverse).T
    assert np.all(jm % pat.m == 0), "coordinates do not lie on the pattern lattice"
    return np.ravel_multi_index(((jm // pat.m) % diag).T, pat.smith.diag)


def residues_matmul(basis, diag):
    """The (m, d) numerators over m of wrap(basis D^{-1} j), by one (m, d) integer matmul and mod.

    The lattice's former formulation of ``_residues``, kept to pin the
    component-major enumeration bit for bit.
    """
    m = int(np.prod(diag))
    J = np.indices(diag, dtype=np.int64).reshape(len(diag), -1).T
    nums = np.mod(J @ (np.asarray(basis, dtype=np.int64) * (m // np.array(diag, dtype=np.int64))).T, m)
    nums[2 * nums >= m] -= m
    return nums


def frequency_set_matmul(M):
    """Dual frequencies h(j) = M^T y(j) of ``frequency_set`` as ``nums @ M // m``: the former formulation."""
    snf = smith_normal_form(M)
    hm = residues_matmul(snf.U_array.T, snf.diag) @ M.array
    assert np.all(hm % M.m == 0), "dual points left the lattice"
    return hm // M.m


def wrap_torus_mod(x):
    """Coordinates reduced into [-pi, pi) by np.mod: the former torus wrap."""
    return np.mod(x + np.pi, 2.0 * np.pi) - np.pi


def quadric_einsum(rel, Q):
    """The quadratic forms rel_n^T Q rel_n of (n, d) points by the three-operand einsum."""
    return np.einsum("ni,ij,nj->n", rel, Q, rel)


def phase_index_mod(ms, x):
    """``ms.phase_index(x)`` of (n, d) points by the former np.mod wrap and einsum quadric, for every kind."""
    kind = type(ms).__name__
    if kind in ("Laminate", "VoxelMap"):
        u = np.mod(x / (2.0 * np.pi) + 0.5, 1.0)
        if kind == "Laminate":
            return np.where(u[:, ms.axis] < ms.fraction, 0, 1)
        shape = ms.grid.shape
        return ms.grid[tuple(np.minimum((u[:, a] * n).astype(np.int64), n - 1) for a, n in enumerate(shape))]
    rel = wrap_torus_mod(x - ms.center[None, :])
    if kind == "Inclusion" and ms.shape == "box":
        return np.where(np.all(np.abs(rel) <= ms.half[None, :], axis=1), 0, 1)
    quadrics = (ms.core_q, ms.coating_q) if kind == "HashinEllipses" else (ms.quadric,)
    return sum((quadric_einsum(rel, Q) > 1.0).astype(np.intp) for Q in quadrics)


def bracket_sum(values, M, h, periods):
    """Truncated class sum sum_{|z|_inf <= periods} a(h + M^T z); ``values`` maps (n, d) frequencies to a(k)."""
    shifts = np.array(list(product(range(-periods, periods + 1), repeat=M.d)), dtype=np.int64)
    ks = np.asarray(h, dtype=np.int64)[None, :] + shifts @ M.array
    return complex(np.sum(values(ks)))


def bspline_axis_sum(xi, order, terms=200):
    """S0 = sum_t sinc(xi + t)^(2 order) over all integers t, at scaled frequencies xi in [-1/2, 1/2].

    The terms |t| <= ``terms`` are summed directly; beyond them sinc(xi + t)^(2 order)
    = (sin(pi xi) / pi)^(2 order) (xi + t)^(-2 order) exactly, and the two tails are
    Hurwitz zeta values.
    """
    from scipy.special import zeta

    xi = np.asarray(xi, dtype=np.float64)
    t = np.arange(-terms, terms + 1)
    direct = (np.sinc(xi[..., None] + t) ** (2 * order)).sum(axis=-1)
    tails = zeta(2 * order, terms + 1 + xi) + zeta(2 * order, terms + 1 - xi)
    return direct + (np.sin(np.pi * xi) / np.pi) ** (2 * order) * tails


def omitted_class_share(rule, periods, shifts=None):
    """Largest share of an orthonormal class's weight outside ``shifts``, over the stored classes h != 0.

    The share is 1 - m sum_z |c_{h + M^T z}|^2 over ``shifts``, by default
    the box |z|_inf <= periods, from the rule's coefficients.  The stored
    classes are those of the rule's Green table: the half spectrum of a
    conjugate-symmetric rule.  Over the box, which is symmetric under
    z -> -z, a class and its negation leave out the same share.
    """
    M = rule.matrix
    z = np.array(_box(M.d, periods) if shifts is None else shifts, dtype=np.int64).reshape(-1, M.d) @ M.array
    classes = half_spectrum_classes(M) if rule.conjugate_symmetric else np.arange(M.m)
    freqs = frequency_set(M).freqs
    return max(1.0 - M.m * float(np.sum(np.abs(rule.coefficients(freqs[c] + z)) ** 2)) for c in classes[1:])


def _axis_factor(rule, axis, x):
    """The rule's one-axis factor F_axis at the scaled frequency x (a Fraction), from its definition."""
    if rule.kind == "bspline":
        return float(np.sinc(float(x))) ** rule.order
    alpha = rule.alpha[axis] if rule.kind == "dlvp" else 0.0
    if alpha == 0.0:
        return 1.0 if Fraction(-1, 2) <= x < Fraction(1, 2) else 0.0
    return min(1.0, max(0.0, ((1.0 + alpha) / 2.0 - abs(float(x))) / alpha))


def kept_shifts(rule, periods, dropped_share=1e-2):
    """The shifts z of |z|_inf <= periods that a Green table of ``rule`` sums, lexicographically.

    Over the stored classes h != 0 (see ``omitted_class_share``), with the
    scaled frequencies xi_h = M^{-T} h in Fractions, shift z's share of a
    class is at most b(z) = max_h w(h) prod_j max_h F_j(xi_h,j + z_j)^2, where
    w(h) = m |c_h|^2 / prod_j F_j(xi_h,j)^2.  Taking the bounds smallest first
    (ties lexicographically), the shifts whose running sum stays within
    ``dropped_share`` of the box's omitted share are left out.
    """
    M = rule.matrix
    d = M.d
    inverse = inverse_fraction([list(row) for row in M.rows])
    classes = half_spectrum_classes(M) if rule.conjugate_symmetric else np.arange(M.m)
    freqs = frequency_set(M).freqs
    peak = [[0.0] * (2 * periods + 1) for _ in range(d)]
    top = 0.0
    for c in classes[1:]:
        h = [int(v) for v in freqs[c]]
        xi = [sum(inverse[i][j] * h[i] for i in range(d)) for j in range(d)]
        factor = np.prod([_axis_factor(rule, j, xi[j]) ** 2 for j in range(d)])
        top = max(top, M.m * abs(rule.coefficients(h)) ** 2 / factor)
        for j in range(d):
            for t in range(-periods, periods + 1):
                peak[j][t + periods] = max(peak[j][t + periods], _axis_factor(rule, j, xi[j] + t) ** 2)
    box = _box(d, periods)
    bound = [top * float(np.prod([peak[j][z[j] + periods] for j in range(d)])) for z in box]
    budget = dropped_share * max(0.0, omitted_class_share(rule, periods)) if rule.support_periods is None else 0.0
    total, left_out = 0.0, set()
    for i in sorted(range(len(box)), key=bound.__getitem__):
        if total + bound[i] > budget:
            break
        total += bound[i]
        left_out.add(i)
    return [z for i, z in enumerate(box) if i not in left_out]


def _smith_coordinates(M):
    """All Smith coordinates j of M, lexicographically (the canonical class order), and the factors."""
    diag = smith_normal_form(M).diag
    return np.array(list(product(*[range(n) for n in diag])), dtype=np.int64).reshape(-1, len(diag)), diag


def half_spectrum_classes(M):
    """Canonical positions of the Smith coordinates with j_d <= d_d // 2, lexicographically."""
    J, diag = _smith_coordinates(M)
    return np.ravel_multi_index(J[J[:, -1] <= diag[-1] // 2].T, diag)


def stored_classes(G):
    """Canonical positions of the classes a Green table stores, in table order: the half spectrum if real."""
    return half_spectrum_classes(G.matrix) if G.real else np.arange(G.m)


def negated_classes(M):
    """Canonical position of the class of -h for every class h: Smith coordinates negate modulo d_l."""
    J, diag = _smith_coordinates(M)
    return np.ravel_multi_index(((-J) % np.array(diag)).T, diag)


def full_table(G):
    """The operator of a real half table as a complex-path table over every class.

    A missing class takes the entry of its negation.  Where both h and -h are
    stored (j_d = 0, or d_d / 2 for even d_d), the inverse real transform
    keeps only the real part, which applies the mean of the two entries, so
    the result is the even part (Gamma(h) + Gamma(-h)) / 2 of the filled table.
    """
    if not G.real:
        return G
    neg = negated_classes(G.matrix)
    filled = np.full((len(G.table), G.m), np.nan)
    filled[:, stored_classes(G)] = G.table
    missing = np.isnan(filled[0])
    filled[:, missing] = filled[:, neg[missing]]
    assert not np.isnan(filled).any(), "a class and its negation are both missing"
    return dataclasses.replace(G, table=(filled + filled[:, neg]) / 2, real=False)


def dense_oracle(C, C0, eps0, G):
    """Direct dense solve of the fixed-point equations E + G((C - C0) : (E + eps0)) = 0, for m D <= 2048.

    Assembles the (m D) x (m D) matrix of E -> E + G((C - C0) : E) from the
    images of all unit fields at once and returns the (m, D) fluctuation strain.
    A real table is expanded by ``full_table`` and solved with complex fields.
    """
    G = full_table(G)
    m, D = G.m, len(eps0)
    n = m * D
    if n > _DENSE_SOLVE_LIMIT:
        raise ValueError(f"dense oracle limited to m*D <= {_DENSE_SOLVE_LIMIT}, got {n}")
    dC = pack_symmetric(dense_stiffness(C, G.matrix.d) - C0)
    const = _green_convolve(G, mandel_product(dC, np.tile(np.asarray(eps0, dtype=complex)[:, None], m)))
    # every unit field at once, as a (D, n, m) batch with field i at [:, i]
    basis = np.eye(n, dtype=np.complex128).reshape(n, D, m).transpose(1, 0, 2)
    A = (basis + _green_convolve(G, mandel_product(dC, basis))).transpose(0, 2, 1).reshape(n, n)
    solution = np.linalg.solve(A, -const.reshape(-1))
    residual = np.linalg.norm(A @ solution + const.reshape(-1))
    assert residual <= 1e-6 * max(1.0, float(np.linalg.norm(const))), f"condition estimate {np.linalg.cond(A):.3e}"
    return solution.reshape(D, m).T


def read_gray_image(path):
    """(height, width) uint8 pixels of a binary P5 graymap with maxval 255."""
    header, _, rest = Path(path).read_bytes().partition(b"\n")
    magic, w, h, maxval = header.split()
    assert magic == b"P5" and maxval == b"255", f"{path}: unsupported graymap header"
    return np.frombuffer(rest, dtype=np.uint8, count=int(w) * int(h)).reshape(int(h), int(w))
