import tracemalloc

import numpy as np
import pytest

from spectralhom import (
    Inclusion,
    IsoPhase,
    PatternMatrix,
    SolverConfig,
    VoxelMap,
    bspline_rule,
    compatible_green,
    dirichlet_rule,
    dlvp_rule,
    error_metrics,
    iso_stiffness,
    ls_fixed_point,
    orthonormalize,
    pattern,
    periodized_green,
    plan,
    sample_stiffness,
    ve_krylov,
)
from spectralhom import solver
from spectralhom.elasticity import mandel_product
from spectralhom.errors import DomainError, ShapeError
from spectralhom.solver import apply_stiffness, field_norm

from oracles import (
    dense_oracle,
    dense_stiffness,
    effective_stiffness,
    float64_conjugate_gradients,
    full_table,
    neumann_fixed_point,
    pack_symmetric,
    random_spd_mandel,
    stiffness_product_einsum,
    true_residual,
)

EPS0 = np.array([1.0, 0.0, 0.0])


def _checkerboard(M, soft=(1.0, 1.0), stiff=(2.0, 2.0)):
    ms = VoxelMap([[0, 1], [1, 0]], [IsoPhase(*soft), IsoPhase(*stiff)])
    return sample_stiffness(ms, M)


def _random_two_phase(rng, M, contrast):
    ids = rng.integers(0, 2, M.m)
    return np.where(ids[:, None] == 0, [1.0, 1.0], [contrast, contrast])


class TestConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.tolerance == 1e-8
        assert cfg.max_iterations == 10000

    def test_validation(self):
        with pytest.raises(DomainError):
            SolverConfig(tolerance=0.0)
        with pytest.raises(DomainError):
            SolverConfig(max_iterations=0)
        with pytest.raises(DomainError):
            SolverConfig(scheme="newton")

    @pytest.mark.parametrize(
        "bad",
        [
            {"tolerance": float("inf")},  # the loop would never run and report a zero strain as converged
            {"tolerance": float("nan")},
            {"tolerance": True},
            {"tolerance": "1e-8"},
            {"max_iterations": 2.5},
            {"max_iterations": True},
            {"max_iterations": "10"},
        ],
    )
    def test_non_finite_tolerance_and_non_integer_cap_rejected(self, bad):
        with pytest.raises(DomainError):
            SolverConfig(**bad)

    def test_integer_cap_of_any_integer_type_accepted(self):
        assert SolverConfig(max_iterations=np.int64(3), tolerance=np.float32(1e-3)).max_iterations == 3


class TestFixedPoint:
    def test_homogeneous_converges_immediately(self):
        M = PatternMatrix.from_any([[4, 1], [0, 4]])
        C0 = iso_stiffness(1.0, 1.0, 2)
        C = np.tile([1.0, 1.0], (M.m, 1))
        G = periodized_green(C0, orthonormalize(dirichlet_rule(M)))
        rep = ls_fixed_point(C, C0, EPS0, G)
        assert rep.converged and rep.iterations == 1
        assert field_norm(rep.strain) < 1e-12
        assert np.abs(rep.effective_action - C0 @ EPS0).max() < 1e-12

    def test_constant_polarization_annihilated(self):
        M = PatternMatrix.from_any([[4, 1], [0, 4]])
        C0 = iso_stiffness(1.0, 1.0, 2)
        Cc = iso_stiffness(3.0, 2.0, 2)
        C = np.tile([3.0, 2.0], (M.m, 1))
        G = periodized_green(C0, orthonormalize(dirichlet_rule(M)))
        rep = ls_fixed_point(C, C0, EPS0, G)
        assert rep.converged
        assert field_norm(rep.strain) < 1e-12
        assert np.abs(rep.effective_action - Cc @ EPS0).max() < 1e-12

    def test_matches_dense_oracle_checkerboard(self):
        M = PatternMatrix.from_any([[8, 0], [0, 8]])
        C0 = iso_stiffness(1.5, 1.5, 2)
        C = _checkerboard(M)
        G = periodized_green(C0, orthonormalize(dirichlet_rule(M)))
        rep = ls_fixed_point(C, C0, EPS0, G, SolverConfig(tolerance=1e-10))
        E = dense_oracle(C, C0, EPS0, G)
        assert field_norm(rep.strain - E) / field_norm(E) < 1e-8

    def test_zero_mean_and_mean_total_strain(self):
        M = PatternMatrix.from_any([[6, 1], [2, 5]])
        C0 = iso_stiffness(1.5, 1.5, 2)
        rng = np.random.default_rng(50)
        C = _random_two_phase(rng, M, 3.0)
        G = periodized_green(C0, orthonormalize(dirichlet_rule(M)))
        rep = ls_fixed_point(C, C0, EPS0, G, SolverConfig(tolerance=1e-10))
        assert np.abs(plan(M).fft(rep.strain.T)[:, 0]).max() < 1e-12
        total_mean = (rep.strain + EPS0[None, :]).mean(axis=0)
        assert np.abs(total_mean - EPS0).max() < 1e-12

    def test_loading_linearity(self):
        M = PatternMatrix.from_any([[8, 0], [0, 8]])
        C0 = iso_stiffness(1.5, 1.5, 2)
        C = _checkerboard(M)
        G = periodized_green(C0, orthonormalize(dirichlet_rule(M)))
        cfg = SolverConfig(tolerance=1e-11)
        r1 = ls_fixed_point(C, C0, EPS0, G, cfg)
        r2 = ls_fixed_point(C, C0, 2.0 * EPS0, G, cfg)
        assert field_norm(r2.strain - 2.0 * r1.strain) / field_norm(r1.strain) < 1e-9

    def test_residual_reevaluates_below_tolerance(self):
        M = PatternMatrix.from_any([[8, 0], [0, 8]])
        C0 = iso_stiffness(1.5, 1.5, 2)
        C = _checkerboard(M)
        G = periodized_green(C0, orthonormalize(dirichlet_rule(M)))
        cfg = SolverConfig(tolerance=1e-9)
        rep = ls_fixed_point(C, C0, EPS0, G, cfg)
        assert true_residual(rep.strain, C, C0, EPS0, G) <= cfg.tolerance

    @pytest.mark.parametrize(
        "rows", [[[12, 3], [0, 12]], [[4, 1, 0], [0, 6, 2], [0, 0, 2]]], ids=["bspline2-2d", "bspline2-3d"]
    )
    def test_residual_reevaluates_below_tolerance_on_real_fields(self, rows):
        # the recurred CG residual against the residual of the returned strain
        M = PatternMatrix.from_any(rows)
        C = _random_two_phase(np.random.default_rng(57), M, 8.0)
        C0 = iso_stiffness(4.5, 4.5, M.d)
        eps0 = np.arange(1.0, M.d * (M.d + 1) // 2 + 1)
        G = periodized_green(C0, orthonormalize(bspline_rule(M, 2)))
        assert G.real
        for tolerance in (1e-6, 1e-9, 1e-11):
            cfg = SolverConfig(tolerance=tolerance)
            rep = ls_fixed_point(C, C0, eps0, G, cfg)
            assert rep.converged and rep.strain.dtype == np.float64
            assert true_residual(rep.strain, C, C0, eps0, G) <= tolerance

    def test_nonconvergence_flagged(self):
        M = PatternMatrix.from_any([[8, 0], [0, 8]])
        C0 = iso_stiffness(1.5, 1.5, 2)
        C = _checkerboard(M)
        G = periodized_green(C0, orthonormalize(dirichlet_rule(M)))
        rep = ls_fixed_point(C, C0, EPS0, G, SolverConfig(tolerance=1e-14, max_iterations=2))
        assert not rep.converged
        assert rep.iterations == 2
        assert rep.strain.shape == (M.m, 3)

    def test_shape_mismatch_rejected(self):
        M = PatternMatrix.from_any([[4, 0], [0, 4]])
        other = PatternMatrix.from_any([[8, 0], [0, 8]])
        C0 = iso_stiffness(1.5, 1.5, 2)
        C = _checkerboard(other)
        G = periodized_green(C0, orthonormalize(dirichlet_rule(M)))
        with pytest.raises(ShapeError):
            ls_fixed_point(C, C0, EPS0, G)

    def test_bspline_generator_solve_matches_dense(self):
        # space-compact generator: truncated Green table, real fields
        M = PatternMatrix.from_any([[8, 0], [0, 8]])
        C0 = iso_stiffness(1.5, 1.5, 2)
        C = _checkerboard(M)
        rule = orthonormalize(bspline_rule(M, 2))
        G = periodized_green(C0, rule, periods=8)
        rep = ls_fixed_point(C, C0, EPS0, G, SolverConfig(tolerance=1e-10))
        assert rep.converged
        assert rep.imbalance < 1e-7  # even coefficient magnitude keeps fields real
        E = dense_oracle(C, C0, EPS0, G)
        assert field_norm(rep.strain - E) / field_norm(E) < 1e-8

    def test_three_dimensional_checkerboard_matches_dense(self):
        M = PatternMatrix.from_any([[4, 0, 0], [0, 4, 0], [0, 0, 4]])
        ms = VoxelMap(
            np.indices((2, 2, 2)).sum(axis=0) % 2,
            [IsoPhase(1.0, 1.0), IsoPhase(2.0, 2.0)],
        )
        C = sample_stiffness(ms, M)
        C0 = iso_stiffness(1.5, 1.5, 3)
        eps0 = np.array([1.0, 0.0, 0.0, 0.5, 0.0, 0.0])
        G = periodized_green(C0, orthonormalize(dirichlet_rule(M)))
        cfg = SolverConfig(tolerance=1e-10)
        rep = ls_fixed_point(C, C0, eps0, G, cfg)
        rep_ve = ve_krylov(C, C0, eps0, G, cfg)
        E = dense_oracle(C, C0, eps0, G)
        assert field_norm(rep.strain - E) / field_norm(E) < 1e-8
        assert field_norm(rep_ve.strain - E) / field_norm(E) < 1e-8
        total_mean = (rep.strain + eps0[None, :]).mean(axis=0)
        assert np.abs(total_mean - eps0).max() < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_indefinite_node_rejected(self, d):
        # the conjugate gradients rest on a positive-definite stiffness at every node
        M = PatternMatrix.from_any(np.diag([4] * d).tolist())
        C0 = iso_stiffness(1.5, 1.5, d)
        C = np.tile([1.5, 1.5], (M.m, 1))
        C[1] = -1.5  # -C0
        G = periodized_green(C0, orthonormalize(dirichlet_rule(M)))
        with pytest.raises(DomainError, match="stiffness field is not uniformly elliptic"):
            ls_fixed_point(C, C0, np.ones(len(C0)), G)

    def test_contrast_hundred_converges_with_mean_reference(self):
        M = PatternMatrix.from_any([[8, 0], [0, 8]])
        C = _checkerboard(M, soft=(1.0, 1.0), stiff=(100.0, 100.0))
        C0 = iso_stiffness(50.5, 50.5, 2)  # arithmetic mean of the two phases
        G = periodized_green(C0, orthonormalize(dirichlet_rule(M)))
        rep = ls_fixed_point(C, C0, EPS0, G, SolverConfig(tolerance=1e-8))
        assert rep.converged


class TestFixedPointConjugateGradients:
    """The Green-weighted CG of ``ls_fixed_point`` against the Neumann series it replaces."""

    CASES = {
        "dirichlet-even-complex": ([[16, 6], [0, 16]], dirichlet_rule, False),
        "dlvp": ([[12, 3], [0, 12]], lambda M: dlvp_rule(M, [0.4, 0.7]), True),
        "dlvp-complex": ([[16, 0], [0, 16]], lambda M: dlvp_rule(M, [0.4, 0.0]), False),
        "bspline1": ([[12, 3], [0, 12]], lambda M: bspline_rule(M, 1), True),
        "bspline2": ([[12, 3], [0, 12]], lambda M: bspline_rule(M, 2), True),
        "bspline2-3d": ([[4, 1, 0], [0, 6, 2], [0, 0, 2]], lambda M: bspline_rule(M, 2), True),
        "dirichlet-3d": ([[4, 1, 0], [0, 4, 0], [0, 0, 4]], dirichlet_rule, False),
    }

    @pytest.mark.parametrize("rows, factory, real", CASES.values(), ids=CASES.keys())
    def test_matches_neumann_series_in_fewer_iterations(self, rows, factory, real):
        M = PatternMatrix.from_any(rows)
        C = _random_two_phase(np.random.default_rng(58), M, 4.0)
        C0 = iso_stiffness(2.5, 2.5, M.d)  # the phase mean: the Neumann series converges
        eps0 = np.arange(1.0, M.d * (M.d + 1) // 2 + 1)
        G = periodized_green(C0, orthonormalize(factory(M)))
        assert G.real is real
        cfg = SolverConfig(tolerance=1e-9, max_iterations=5000)
        cg = ls_fixed_point(C, C0, eps0, G, cfg)
        neumann = neumann_fixed_point(C, C0, eps0, G, cfg)
        assert cg.converged and neumann.converged
        assert cg.strain.dtype == neumann.strain.dtype == (np.float64 if real else np.complex128)
        assert field_norm(cg.strain - neumann.strain) / field_norm(neumann.strain) <= 10 * cfg.tolerance
        assert cg.iterations <= neumann.iterations
        assert cg.residuals[0] == neumann.residuals[0]  # iteration 1 forms b = -G dC eps0 in both

    def test_converges_where_neumann_series_diverges(self):
        # C0 = the soft phase: G (C - C0) has spectral radius above one, A stays positive definite
        M = PatternMatrix.from_any([[12, 3], [0, 12]])
        C = _random_two_phase(np.random.default_rng(59), M, 10.0)
        C0 = iso_stiffness(1.0, 1.0, 2)
        G = periodized_green(C0, orthonormalize(bspline_rule(M, 2)))
        cfg = SolverConfig(tolerance=1e-10, max_iterations=300)
        neumann = neumann_fixed_point(C, C0, EPS0, G, cfg)
        assert not neumann.converged and not neumann.residuals[-1] < neumann.residuals[0]
        cg = ls_fixed_point(C, C0, EPS0, G, cfg)
        assert cg.converged
        E = dense_oracle(C, C0, EPS0, G)
        assert field_norm(cg.strain - E) / field_norm(E) < 1e-8

    @pytest.mark.parametrize("run", [ls_fixed_point, ve_krylov], ids=["ls", "ve"])
    def test_one_stiffness_product_and_convolution_per_iteration(self, monkeypatch, run):
        M = PatternMatrix.from_any([[12, 3], [0, 12]])
        C = _random_two_phase(np.random.default_rng(58), M, 4.0)
        C0 = iso_stiffness(2.5, 2.5, 2)
        G = periodized_green(C0, orthonormalize(bspline_rule(M, 2)))
        calls = {"apply_stiffness": 0, "_green_convolve": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(solver, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(solver, name, counted)
        rep = run(C, C0, EPS0, G, SolverConfig(tolerance=1e-8))
        assert rep.converged and rep.iterations > 5 and rep.residual_refreshes >= 1
        # dC eps0 in iteration 1 and dC (E + eps0) in each refresh, which also gives the action
        assert calls["apply_stiffness"] == rep.iterations + rep.residual_refreshes
        # each refresh also convolves zeta_E into E and the recomputed residual pre-image
        assert calls["_green_convolve"] == rep.iterations + 2 * rep.residual_refreshes
        assert rep.green_convolutions == {"single": rep.iterations - 1, "double": 1 + 2 * rep.residual_refreshes}

    @pytest.mark.parametrize("run", [ls_fixed_point, ve_krylov], ids=["ls", "ve"])
    def test_nonpositive_curvature_stops_unconverged(self, monkeypatch, run):
        # shift the first search-direction product dC p far below zero: no rescue, the solve ends
        M = PatternMatrix.from_any([[12, 3], [0, 12]])
        C = _random_two_phase(np.random.default_rng(58), M, 4.0)
        C0 = iso_stiffness(2.5, 2.5, 2)
        G = periodized_green(C0, orthonormalize(bspline_rule(M, 2)))
        product = solver.apply_stiffness
        calls = []

        def flipped(A, x, **kwargs):
            calls.append(None)
            return product(A, x, **kwargs) - 1e3 * x if len(calls) == 2 else product(A, x, **kwargs)

        monkeypatch.setattr(solver, "apply_stiffness", flipped)
        rep = run(C, C0, EPS0, G, SolverConfig(tolerance=1e-8))
        assert not rep.converged and rep.iterations == 2
        assert rep.residuals[1] == rep.residuals[0] and field_norm(rep.strain) == 0.0


class TestSinglePrecisionIteration:
    """The single-precision CG with float64 refreshes against the float64 loop it replaced."""

    CASES = {
        "dirichlet-2d-sheared-complex": ([[16, 6], [0, 16]], dirichlet_rule),
        "dirichlet-2d-odd-real": ([[15, 4], [0, 15]], dirichlet_rule),
        "dlvp-2d-sheared": ([[12, 3], [0, 12]], lambda M: dlvp_rule(M, [0.4, 0.7])),
        "dlvp-2d-complex": ([[16, 0], [0, 16]], lambda M: dlvp_rule(M, [0.4, 0.0])),
        "bspline1-2d-sheared": ([[12, 3], [0, 12]], lambda M: bspline_rule(M, 1)),
        "bspline2-2d-sheared": ([[12, 3], [0, 12]], lambda M: bspline_rule(M, 2)),
        "dirichlet-3d-complex": ([[4, 1, 0], [0, 4, 0], [0, 0, 4]], dirichlet_rule),
        "dlvp-3d": ([[4, 1, 0], [0, 6, 2], [0, 0, 4]], lambda M: dlvp_rule(M, [0.4, 0.7, 0.2])),
        "bspline1-3d": ([[4, 1, 0], [0, 6, 2], [0, 0, 2]], lambda M: bspline_rule(M, 1)),
        "bspline2-3d": ([[4, 1, 0], [0, 6, 2], [0, 0, 2]], lambda M: bspline_rule(M, 2)),
    }

    @pytest.mark.parametrize("scheme", ["ls", "ve"])
    @pytest.mark.parametrize("rows, factory", CASES.values(), ids=CASES.keys())
    def test_matches_float64_oracle(self, rows, factory, scheme):
        M = PatternMatrix.from_any(rows)
        C = _random_two_phase(np.random.default_rng(60), M, 4.0)
        C0 = iso_stiffness(2.5, 2.5, M.d)
        eps0 = np.arange(1.0, M.d * (M.d + 1) // 2 + 1)
        rule = orthonormalize(factory(M))
        G = periodized_green(C0, rule) if scheme == "ls" else compatible_green(C0, rule)
        self._check_against_oracle(ls_fixed_point if scheme == "ls" else ve_krylov, C, C0, eps0, G)

    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_float64_oracle_with_the_soft_phase_as_reference(self, order):
        # the criterion-8 inclusion with C0 its soft matrix phase: the loop takes the oracle's 21 and 24
        # iterations, but 23 and 25 if the per-step pre-image update keeps the mean of dC p
        M = PatternMatrix.from_any([[12, 3], [0, 12]])
        inclusion = Inclusion("ellipse", (1.2, 1.0), (0.2, -0.3), 0.3, IsoPhase(5.0, 4.0), IsoPhase(0.5, 0.4))
        C = sample_stiffness(inclusion, M)
        C0 = iso_stiffness(0.5, 0.4, 2)
        G = periodized_green(C0, orthonormalize(bspline_rule(M, order)))
        self._check_against_oracle(ls_fixed_point, C, C0, EPS0, G)

    def test_matches_float64_oracle_on_an_aligned_laminate(self):
        # layers with integer normal (1, 2) on a pattern whose first row is 8 (1, 2), on a bspline2 table: the
        # float64 loop converges in 4 iterations; this loop's last refresh, at iteration 5, gives 7.0e-9, below
        # the tolerance by a thin margin (ROADMAP item 4)
        M = PatternMatrix.from_any([[8, 16], [-16, 8]])
        layer = (pattern(M).points % 1 @ np.array([1, 2])) % 1 < 0.375
        C = np.where(layer[:, None], [5.0, 4.0], [0.5, 0.4])
        C0 = iso_stiffness(2.75, 2.2, 2)
        G = periodized_green(C0, orthonormalize(bspline_rule(M, 2)))
        self._check_against_oracle(ls_fixed_point, C, C0, EPS0, G, tolerance=1e-8)

    @pytest.mark.parametrize("scheme", ["ls", "ve"])
    @pytest.mark.parametrize("rows", [[[12, 3], [0, 12]], [[4, 1, 0], [0, 6, 2], [0, 0, 2]]], ids=["2d", "3d"])
    def test_anisotropic_reference_matches_float64_oracle(self, rows, scheme):
        # a random SPD C0 leaves a nonzero remainder R = C0 - iso(C0[0, 1], C0[d, d] / 2), which every stiffness
        # product adds
        M = PatternMatrix.from_any(rows)
        D = M.d * (M.d + 1) // 2
        C0 = random_spd_mandel(np.random.default_rng(62 + M.d), D, shift=2.0)
        C = _random_two_phase(np.random.default_rng(63), M, 4.0)
        assert solver._stiffness_rows(C, C0)[1] is not None
        eps0 = np.arange(1.0, D + 1)
        rule = orthonormalize(bspline_rule(M, 2))
        G = periodized_green(C0, rule) if scheme == "ls" else compatible_green(C0, rule)
        cfg = SolverConfig(tolerance=1e-10)
        rep = (ls_fixed_point if scheme == "ls" else ve_krylov)(C, C0, eps0, G, cfg)
        ref = float64_conjugate_gradients(C, C0, eps0, G, cfg)
        assert rep.converged and ref.converged and rep.residual_refreshes >= 1
        assert field_norm(rep.strain - ref.strain) <= 1e-9 * field_norm(ref.strain)

    @pytest.mark.parametrize(
        "scheme, tolerance",
        [("ls", 1e-8), ("ve", 1e-8), ("ve", 1e-6)],
        ids=["ls-restart", "ve-restart", "ve-pre-image"],
    )
    def test_stiff_checkerboard_matches_float64_oracle(self, scheme, tolerance):
        # the 100:1 checkerboard with C0 half the soft phase.  At tol 1e-8, a direction kept on after a refresh that
        # shows drift leaves the recurred residual stalled above the refresh threshold: both schemes stop at the cap
        # with residual 3.9e-8, while the float64 loop converges in 44 iterations.  At tol 1e-6 VE needs the per-step
        # pre-image C0 G dC p of the compatible table: with dC p less its mean in its place, as on other tables, it
        # breaks down unconverged at 52 iterations with residual 3.4e-4
        M = PatternMatrix.from_any([[8, 0], [0, 8]])
        C = _checkerboard(M, soft=(1, 1), stiff=(100, 100))
        C0 = iso_stiffness(0.5, 0.4, 2)
        rule = orthonormalize(dirichlet_rule(M))
        G = periodized_green(C0, rule) if scheme == "ls" else compatible_green(C0, rule)
        cfg = SolverConfig(tolerance=tolerance, max_iterations=400)
        rep = (ls_fixed_point if scheme == "ls" else ve_krylov)(C, C0, EPS0, G, cfg)
        ref = float64_conjugate_gradients(C, C0, EPS0, G, cfg)
        assert rep.converged and ref.converged
        assert true_residual(rep.strain, C, C0, EPS0, G) <= cfg.tolerance
        assert field_norm(rep.strain - ref.strain) <= 10 * cfg.tolerance * field_norm(ref.strain)

    @staticmethod
    def _check_against_oracle(run, C, C0, eps0, G, tolerance=1e-9):
        cfg = SolverConfig(tolerance=tolerance)
        rep = run(C, C0, eps0, G, cfg)
        ref = float64_conjugate_gradients(C, C0, eps0, G, cfg)
        assert rep.converged and ref.converged and rep.residual_refreshes >= 1
        assert rep.strain.dtype == ref.strain.dtype == (np.float64 if G.real else np.complex128)
        assert field_norm(rep.strain - ref.strain) <= 10 * cfg.tolerance * field_norm(ref.strain)
        assert rep.iterations <= ref.iterations + 1
        assert rep.residuals[0] == ref.residuals[0]  # both form b = -G dC eps0 in float64

    def test_last_residual_is_the_float64_residual_of_the_strain(self):
        M = PatternMatrix.from_any([[12, 3], [0, 12]])
        C = _random_two_phase(np.random.default_rng(61), M, 4.0)
        C0 = iso_stiffness(2.5, 2.5, 2)
        G = periodized_green(C0, orthonormalize(bspline_rule(M, 2)))
        for cfg in (SolverConfig(tolerance=1e-9), SolverConfig(tolerance=1e-12, max_iterations=7)):
            rep = ls_fixed_point(C, C0, EPS0, G, cfg)
            assert len(rep.residuals) == rep.iterations
            true = true_residual(rep.strain, C, C0, EPS0, G)
            assert abs(rep.residuals[-1] - true) <= 1e-4 * true
            assert rep.converged is (cfg.max_iterations > 7)

    def test_stiff_phase_converges_at_tight_tolerance(self):
        # the stiff phase of the criterion-8 inclusion ten times stiffer, at tol 1e-11
        M = PatternMatrix.from_any([[64, 136], [0, 64]])
        inclusion = Inclusion("ellipse", (1.2, 1.0), (0.2, -0.3), 0.3, IsoPhase(50.0, 40.0), IsoPhase(0.5, 0.4))
        C = sample_stiffness(inclusion, M)
        C0 = iso_stiffness(2.75, 2.2, 2)
        G = periodized_green(C0, orthonormalize(bspline_rule(M, 2)))
        cfg = SolverConfig(tolerance=1e-11)
        rep = ls_fixed_point(C, C0, EPS0, G, cfg)
        ref = float64_conjugate_gradients(C, C0, EPS0, G, cfg)
        assert rep.converged and true_residual(rep.strain, C, C0, EPS0, G) <= cfg.tolerance
        assert rep.iterations <= ref.iterations + 1

    @pytest.mark.parametrize("factor", [1e30, 1e-30])
    def test_scaled_problem_gives_the_same_strain(self, factor):
        # the single-precision state is that of the unit problem, so float32 range never limits it
        M = PatternMatrix.from_any([[16, 6], [0, 16]])
        C = _random_two_phase(np.random.default_rng(61), M, 4.0)
        C0 = iso_stiffness(2.5, 2.5, 2)
        eps0 = np.array([1.0, 2.0, 3.0])
        rule = orthonormalize(dirichlet_rule(M))
        cfg = SolverConfig(tolerance=1e-9)
        base = ls_fixed_point(C, C0, eps0, periodized_green(C0, rule), cfg)
        stiff = ls_fixed_point(factor * C, factor * C0, eps0, periodized_green(factor * C0, rule), cfg)
        loaded = ls_fixed_point(C, C0, factor * eps0, periodized_green(C0, rule), cfg)
        for rep, strain in ((stiff, stiff.strain), (loaded, loaded.strain / factor)):
            assert rep.converged
            assert field_norm(strain - base.strain) <= 10 * cfg.tolerance * field_norm(base.strain)

    @pytest.mark.parametrize("run", [ls_fixed_point, ve_krylov], ids=["ls", "ve"])
    def test_zero_loading_takes_no_iteration(self, run):
        M = PatternMatrix.from_any([[12, 3], [0, 12]])
        C = _random_two_phase(np.random.default_rng(61), M, 4.0)
        C0 = iso_stiffness(2.5, 2.5, 2)
        G = periodized_green(C0, orthonormalize(bspline_rule(M, 2)))
        rep = run(C, C0, np.zeros(3), G)
        assert rep.converged and rep.iterations == 0 and rep.residual_refreshes == 0
        assert rep.residuals == (0.0,) and field_norm(rep.strain) == 0.0


class TestKrylov:
    def test_homogeneous_is_trivial(self):
        M = PatternMatrix.from_any([[4, 1], [0, 4]])
        C0 = iso_stiffness(1.0, 1.0, 2)
        C = np.tile([1.0, 1.0], (M.m, 1))
        G = periodized_green(C0, orthonormalize(dirichlet_rule(M)))
        rep = ve_krylov(C, C0, EPS0, G)
        assert rep.converged
        assert field_norm(rep.strain) < 1e-12

    def test_dirichlet_equivalence_random_structures(self):
        rng = np.random.default_rng(51)
        from oracles import random_regular_matrix

        trials = 0
        while trials < 6:
            M = PatternMatrix(tuple(map(tuple, random_regular_matrix(rng, 2, 256))))
            if M.m < 4:
                continue
            trials += 1
            contrast = float(rng.uniform(2.0, 10.0))
            C = _random_two_phase(rng, M, contrast)
            if np.abs(C - C[0][None]).max() == 0.0:
                continue  # degenerate draw: a single phase everywhere
            C0 = iso_stiffness((1 + contrast) / 2, (1 + contrast) / 2, 2)
            G = periodized_green(C0, orthonormalize(dirichlet_rule(M)))
            cfg = SolverConfig(tolerance=1e-10, max_iterations=20000)
            r_ls = ls_fixed_point(C, C0, EPS0, G, cfg)
            r_ve = ve_krylov(C, C0, EPS0, G, cfg)
            assert r_ls.converged and r_ve.converged
            gap = field_norm(r_ls.strain - r_ve.strain) / field_norm(r_ls.strain)
            assert gap < 1e-7

    def test_dlvp_solutions_differ(self):
        M = PatternMatrix.from_any([[16, 0], [0, 16]])
        C0 = iso_stiffness(1.5, 1.5, 2)
        C = _checkerboard(M)
        G = periodized_green(C0, orthonormalize(dlvp_rule(M, [0.4, 0.0])))
        cfg = SolverConfig(tolerance=1e-10, max_iterations=20000)
        r_ls = ls_fixed_point(C, C0, EPS0, G, cfg)
        r_ve = ve_krylov(C, C0, EPS0, G, cfg)
        gap = field_norm(r_ls.strain - r_ve.strain) / field_norm(r_ls.strain)
        assert gap > 1e-4

    def test_krylov_matches_dense_oracle_on_fixed_point_form(self):
        # both discrete forms have the same solution on the Dirichlet space
        M = PatternMatrix.from_any([[6, 1], [2, 5]])
        C0 = iso_stiffness(2.0, 1.5, 2)
        rng = np.random.default_rng(52)
        C = _random_two_phase(rng, M, 4.0)
        G = periodized_green(C0, orthonormalize(dirichlet_rule(M)))
        rep = ve_krylov(C, C0, EPS0, G, SolverConfig(tolerance=1e-11))
        E = dense_oracle(C, C0, EPS0, G)
        assert field_norm(rep.strain - E) / field_norm(E) < 1e-8


class TestCompatibleScheme:
    """VE runs the fixed-point iteration on the compatible table of its generator."""

    CASES = {
        "dirichlet-sheared": ([[16, 6], [0, 16]], dirichlet_rule),
        "dlvp-zero-slope": ([[16, 0], [0, 16]], lambda M: dlvp_rule(M, [0.4, 0.0])),
        "dlvp": ([[12, 3], [0, 12]], lambda M: dlvp_rule(M, [0.4, 0.7])),
        "bspline1": ([[12, 3], [0, 12]], lambda M: bspline_rule(M, 1)),
        "bspline2": ([[12, 3], [0, 12]], lambda M: bspline_rule(M, 2)),
        "bspline1-even": ([[16, 0], [0, 16]], lambda M: bspline_rule(M, 1)),
        "dirichlet-3d": ([[4, 1, 0], [0, 4, 0], [0, 0, 4]], dirichlet_rule),
        "dlvp-3d": ([[4, 1, 0], [0, 6, 2], [0, 0, 2]], lambda M: dlvp_rule(M, [0.4, 0.7, 0.0])),
        "bspline2-3d": ([[4, 1, 0], [0, 6, 2], [0, 0, 2]], lambda M: bspline_rule(M, 2)),
    }

    @pytest.mark.parametrize("rows, factory", CASES.values(), ids=CASES.keys())
    def test_matches_dense_oracle_on_compatible_table(self, rows, factory):
        M = PatternMatrix.from_any(rows)
        C = _random_two_phase(np.random.default_rng(90), M, 5.0)
        C0 = iso_stiffness(3.0, 3.0, M.d)
        eps0 = np.arange(1.0, M.d * (M.d + 1) // 2 + 1)
        rule = orthonormalize(factory(M))
        Gc = compatible_green(C0, rule)
        cfg = SolverConfig(tolerance=1e-11, max_iterations=2000)
        rep = ve_krylov(C, C0, eps0, Gc, cfg)
        assert rep.converged and rep.iterations <= 40
        # a paper table is rebuilt as the compatible one (the Dirichlet table is one, up to round-off)
        paper = ve_krylov(C, C0, eps0, periodized_green(C0, rule), cfg)
        assert field_norm(paper.strain - rep.strain) <= 1e-12 * field_norm(rep.strain)
        E = dense_oracle(C, C0, eps0, Gc)
        assert field_norm(rep.strain - E) / field_norm(E) <= 1e-8
        # the variational residual C0 G C (E + eps0), relative to its value at E = 0
        Cp = pack_symmetric(dense_stiffness(C, M.d))
        strain = rep.strain.T

        def projected(field):
            return field_norm((C0 @ solver._green_convolve(Gc, mandel_product(Cp, field))).T)

        assert projected(strain + eps0[:, None]) <= 1e-9 * projected(np.zeros_like(strain) + eps0[:, None])

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize(
        "lam, mu",
        [(1.0, -0.25), (1.0, 0.0), (-1.5, None), (-1.0, None)],
        ids=["shear-negative", "shear-zero", "bulk-negative", "bulk-zero"],
    )
    def test_non_elliptic_node_rejected(self, d, lam, mu):
        # the eigenvalues of iso(lambda, mu) are 2 mu and d lambda + 2 mu; with mu = d / 2 the bulk one is
        # d (lambda + 1), exactly zero at lambda = -1
        M = PatternMatrix.from_any(np.diag([4] * d).tolist())
        C0 = iso_stiffness(1.5, 1.5, d)
        C = np.tile([1.5, 1.5], (M.m, 1))
        G = periodized_green(C0, orthonormalize(dirichlet_rule(M)))
        D = len(C0)
        C[M.m // 2] = lam, d / 2 if mu is None else mu
        with pytest.raises(DomainError, match="not uniformly elliptic"):
            ve_krylov(C, C0, np.ones(D), G)
        C[M.m // 2] = (-1.0 + 1e-10, d / 2) if mu is None else (lam, 1e-10)  # just elliptic: accepted
        assert ve_krylov(C, C0, np.ones(D), G, SolverConfig(max_iterations=2)).iterations == 2


class TestInputContract:
    """Inputs that the iteration would misread are rejected before it starts, under both schemes."""

    @staticmethod
    def _inclusion(factory):
        M = PatternMatrix.from_any([[32, 0], [0, 32]])
        ms = Inclusion("ellipse", [0.3, 0.2], [0.5, 0.5], 0.3, IsoPhase(10.0, 8.0), IsoPhase(1.0, 1.0))
        C0 = iso_stiffness(5.5, 4.5, 2)
        return sample_stiffness(ms, M), C0, periodized_green(C0, orthonormalize(factory(M)))

    @pytest.mark.parametrize("run", [ls_fixed_point, ve_krylov])
    @pytest.mark.parametrize("factory", [dirichlet_rule, lambda M: bspline_rule(M, 2)])
    def test_reference_other_than_the_tables_rejected(self, run, factory):
        # with another C0 the iteration solved another problem: a converged wrong action, or a stall
        C, C0, G = self._inclusion(factory)
        cfg = SolverConfig(tolerance=1e-10)
        assert np.array_equal(G.reference, C0) and not G.reference.flags.writeable
        for lam, mu in ((1.0, 1.0), (20.0, 20.0)):
            with pytest.raises(DomainError, match="reference stiffness differs"):
                run(C, iso_stiffness(lam, mu, 2), EPS0, G, cfg)
        assert run(C, C0 * (1.0 + 1e-14), EPS0, G, cfg).converged  # round-off is not a different reference

    @pytest.mark.parametrize("run", [ls_fixed_point, ve_krylov])
    def test_stiffness_field_contract(self, run, monkeypatch):
        # one finite Lame pair per node: a dense (m, D, D) field, a third column or a non-finite pair is refused
        # before the first stiffness product or convolution
        M = PatternMatrix.from_any([[16, 0], [0, 16]])
        C0 = iso_stiffness(1.5, 1.5, 2)
        C = _checkerboard(M)
        G = periodized_green(C0, orthonormalize(dirichlet_rule(M)))
        assert C.shape == (M.m, 2) and run(C, C0, EPS0, G).converged

        def refused(*args, **kwargs):
            raise AssertionError("iterated on a rejected stiffness field")

        for name in ("apply_stiffness", "_green_convolve"):
            monkeypatch.setattr(solver, name, refused)
        for bad in (dense_stiffness(C, 2), np.hstack([C, C[:, :1]])):
            with pytest.raises(ShapeError, match="one Lame pair per node"):
                run(bad, C0, EPS0, G)
        for value in (np.nan, np.inf, -np.inf):
            bad = C.copy()
            bad[7, 1] = value
            with pytest.raises(DomainError, match="stiffness field must be finite"):
                run(bad, C0, EPS0, G)

    @pytest.mark.parametrize("run", [ls_fixed_point, ve_krylov])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, run, bad):
        M = PatternMatrix.from_any([[8, 0], [0, 8]])
        C0 = iso_stiffness(1.5, 1.5, 2)
        C = _checkerboard(M)
        G = periodized_green(C0, orthonormalize(dirichlet_rule(M)))
        with pytest.raises(DomainError, match="macroscopic strain must be finite"):
            run(C, C0, np.array([1.0, bad, 0.0]), G)
        C[5, 1] = bad
        with pytest.raises(DomainError, match="stiffness field must be finite"):
            run(C, C0, EPS0, G)


class TestRealFields:
    """Conjugate-symmetric rules run on real fields and a half table; dense solves use the expanded table."""

    CASES = {
        "bspline2-2d": ([[12, 3], [0, 12]], lambda M: bspline_rule(M, 2)),
        "dlvp-2d": ([[12, 3], [0, 12]], lambda M: dlvp_rule(M, [0.4, 0.7])),
        "dirichlet-odd-2d": ([[9, 3], [0, 9]], dirichlet_rule),
        "bspline2-3d": ([[4, 1, 0], [0, 6, 2], [0, 0, 2]], lambda M: bspline_rule(M, 2)),
        "dlvp-3d": ([[4, 1, 0], [0, 6, 2], [0, 0, 2]], lambda M: dlvp_rule(M, [0.4, 0.7, 0.2])),
        "dirichlet-odd-3d": ([[3, 1, 0], [0, 3, 1], [0, 0, 5]], dirichlet_rule),
    }

    @pytest.mark.parametrize("rows, factory", CASES.values(), ids=CASES.keys())
    def test_ls_and_ve_match_dense_solves(self, rows, factory):
        M = PatternMatrix.from_any(rows)
        C = _random_two_phase(np.random.default_rng(56), M, 3.0)
        C0 = iso_stiffness(2.0, 2.0, M.d)
        eps0 = np.arange(1.0, M.d * (M.d + 1) // 2 + 1)
        rule = orthonormalize(factory(M))
        cfg = SolverConfig(tolerance=1e-11, max_iterations=20000)
        for G, run in ((periodized_green(C0, rule), ls_fixed_point), (compatible_green(C0, rule), ve_krylov)):
            assert G.real and G.table.shape[1] < M.m
            rep = run(C, C0, eps0, G, cfg)
            assert rep.converged and rep.strain.dtype == np.float64
            E = dense_oracle(C, C0, eps0, G)
            assert np.abs(E.imag).max() <= 1e-12 * np.abs(E).max()  # the expanded table is even
            assert field_norm(rep.strain - E) / field_norm(E) < 1e-8
            # against the same iteration with complex fields on the expanded table
            complex_rep = run(C, C0, eps0, full_table(G), cfg)
            assert complex_rep.converged and complex_rep.imbalance < 1e-12
            assert field_norm(rep.strain - complex_rep.strain) / field_norm(complex_rep.strain) < 1e-9


class TestComponentMajorKernels:
    """Unrolled (D, m) kernels against the pattern-major einsum formulas."""

    @staticmethod
    def _stiffness_stack(rng, d, m=40):
        D = d * (d + 1) // 2
        return np.stack([random_spd_mandel(rng, D) for _ in range(m)])

    @pytest.mark.parametrize("d", [2, 3])
    def test_mandel_product_packed_rows(self, d):
        rng = np.random.default_rng(70 + d)
        C = self._stiffness_stack(rng, d)
        m, D, _ = C.shape
        x = rng.standard_normal((D, m)) + 1j * rng.standard_normal((D, m))
        want = stiffness_product_einsum(C, x.T).T
        rows = pack_symmetric(C)
        assert np.abs(mandel_product(rows, x) - want).max() <= 1e-14 * np.abs(want).max()
        out = np.empty_like(x)
        assert mandel_product(rows, x, out=out) is out and np.array_equal(out, mandel_product(rows, x))
        # packed rows only: dense row-major rows, or any other count, are refused
        for bad in (C.reshape(m, -1).T, rows[:-1]):
            with pytest.raises(ShapeError, match="packed rows"):
                mandel_product(bad, x)

    @pytest.mark.parametrize("dtype", [np.float32, np.complex64, np.float64, np.complex128])
    @pytest.mark.parametrize("d", [2, 3])
    def test_apply_stiffness_contrast_rows(self, d, dtype):
        # (C0 - C) x from the rows (lambda0 - lambda, 2 (mu0 - mu)) and the remainder R = C0 - iso(lambda0, mu0),
        # for an isotropic C0 (R = 0, returned as None) and an anisotropic one
        rng = np.random.default_rng(90 + d)
        M = PatternMatrix.from_any(np.diag([8] * d))
        C = _random_two_phase(rng, M, 7.0)
        m, D = M.m, d * (d + 1) // 2
        real = np.finfo(dtype).dtype  # rows of the field's precision, as the solver keeps them
        x = rng.standard_normal((D, m)).astype(dtype)
        if np.iscomplexobj(x):
            x += 1j * rng.standard_normal((D, m)).astype(dtype)
        for C0 in (iso_stiffness(2.0, 1.5, d), random_spd_mandel(rng, D)):
            contrast, remainder = solver._stiffness_rows(C, C0)
            assert contrast.shape == (2, m) and (remainder is None) == (C0[0, -1] == 0.0)
            want = np.einsum("hij,jh->ih", C0[None] - dense_stiffness(C, d), x.astype(np.complex128))
            R = None if remainder is None else remainder.astype(real)
            out = np.full(x.shape, np.nan, dtype=dtype)  # every output row is written
            got = apply_stiffness(contrast.astype(real), x, remainder=R, out=out)
            assert got is out and np.abs(got - want).max() <= 50 * np.finfo(dtype).eps * np.abs(want).max()
            if R is None:  # a zero remainder adds nothing, exactly
                zero = np.zeros((D, D), dtype=real)
                assert np.array_equal(got, apply_stiffness(contrast.astype(real), x, remainder=zero))
        with pytest.raises(ShapeError, match="contrast rows"):
            apply_stiffness(pack_symmetric(dense_stiffness(C, d)), x)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_field_norm_of_transposed_views(self, dtype):
        rng = np.random.default_rng(93)
        for D, m in ((3, 257), (6, 64), (1, 100)):
            values = rng.standard_normal((D, m)).astype(dtype)
            if np.iscomplexobj(values):
                values += 1j * rng.standard_normal((D, m))
            want = np.linalg.norm(values.T) / np.sqrt(m)
            assert abs(field_norm(values.T) - want) <= 1e-15 * want
        assert field_norm(np.zeros((5, 3))) == 0.0


class TestReportedAction:
    """The effective action read off the last float64 refresh against ``effective_stiffness``."""

    CASES = {
        "dirichlet-2d": ([[16, 6], [0, 16]], dirichlet_rule),
        "bspline2-2d": ([[12, 3], [0, 12]], lambda M: bspline_rule(M, 2)),
        "dirichlet-3d": ([[4, 1, 0], [0, 4, 0], [0, 0, 4]], dirichlet_rule),
        "bspline2-3d": ([[4, 1, 0], [0, 6, 2], [0, 0, 2]], lambda M: bspline_rule(M, 2)),
    }

    @pytest.mark.parametrize("scheme", ["ls", "ve"])
    @pytest.mark.parametrize("rows, factory", CASES.values(), ids=CASES.keys())
    def test_matches_effective_stiffness(self, rows, factory, scheme):
        M = PatternMatrix.from_any(rows)
        C = _random_two_phase(np.random.default_rng(94), M, 6.0)
        C0 = iso_stiffness(2.0, 2.0, M.d)
        eps0 = np.linspace(1.0, -0.5, M.d * (M.d + 1) // 2)
        rule = orthonormalize(factory(M))
        G = periodized_green(C0, rule) if scheme == "ls" else compatible_green(C0, rule)
        run = ls_fixed_point if scheme == "ls" else ve_krylov
        # a converged solve, one stopped at the cap between refreshes, and one that never iterates (E = 0)
        for cap in (10000, 4, 1):
            rep = run(C, C0, eps0, G, SolverConfig(tolerance=1e-9, max_iterations=cap))
            assert rep.converged == (cap == 10000) and rep.iterations == min(cap, rep.iterations)
            want = effective_stiffness(C, rep.strain, eps0)
            assert rep.effective_action.dtype == np.float64
            assert np.abs(rep.effective_action - want).max() <= 1e-12 * np.abs(want).max()


class TestAllocations:
    def test_iterations_allocate_no_field(self, monkeypatch):
        # Dirichlet on an even pattern: complex fields, whose transforms write into their buffers; at
        # m = 16384 numpy's cast buffers (at most 8192 elements) stay below a (D, m) field
        M = PatternMatrix.from_any([[128, 32], [0, 128]])
        C = _random_two_phase(np.random.default_rng(95), M, 4.0)
        C0 = iso_stiffness(1.0, 1.0, 2)
        G = periodized_green(C0, orthonormalize(dirichlet_rule(M)))
        # every stiffness product and Green convolution opens a stretch that lasts to the next one; its
        # traced peak, above the traced size at its start, counts the (D, m) fields of the precision of
        # the opening call's output allocated in it (a table product holds one row and one cast buffer of
        # scratch, below that size; a stiffness product with an isotropic C0 forms its trace in its output)
        stretches = []  # [traced size at the start, field bytes, fields allocated]

        def sampled(fn):
            def call(*args, out, **kwargs):
                if tracemalloc.is_tracing():
                    current, peak = tracemalloc.get_traced_memory()
                    if stretches:
                        start, field, _ = stretches[-1]
                        stretches[-1][2] = (peak - start) // field
                    tracemalloc.reset_peak()
                    stretches.append([current, out.nbytes, None])
                return fn(*args, out=out, **kwargs)

            return call

        for name in ("apply_stiffness", "_green_convolve"):
            monkeypatch.setattr(solver, name, sampled(getattr(solver, name)))
        counts = {}
        for cap in (3, 20):
            cfg = SolverConfig(tolerance=1e-14, max_iterations=cap)
            ls_fixed_point(C, C0, EPS0, G, cfg)  # plans, caches and the allocator settle
            stretches.clear()
            tracemalloc.start()
            try:
                rep = ls_fixed_point(C, C0, EPS0, G, cfg)
            finally:
                tracemalloc.stop()
            assert rep.iterations == cap and not rep.converged
            assert len(stretches) == 2 * rep.iterations + 3 * rep.residual_refreshes  # the last one is open
            counts[cap] = sum(fields for _, _, fields in stretches[:-1]), rep.residual_refreshes
        assert counts[20][1] > counts[3][1]  # more iterations and more refreshes, yet no more fields
        assert counts[20][0] == counts[3][0] == 0


    def test_stiffness_rows_take_four_rows_over_nodes(self):
        # checking and preparing the stiffness of a 3-D diag(32, 32, 32) solve traces at most 4 float64 rows over
        # the nodes above its input: the two contrast rows, which the ellipticity check uses as scratch, and the
        # check's one temporary row
        M = PatternMatrix.from_any(np.diag([32] * 3).tolist())
        ms = Inclusion("ellipse", (1.2, 1.0, 0.9), (0.2, -0.3, 0.1), 0.0, IsoPhase(5.0, 4.0), IsoPhase(0.5, 0.4))
        C = sample_stiffness(ms, M)
        C0 = iso_stiffness(2.75, 2.2, 3)
        G = compatible_green(C0, orthonormalize(dirichlet_rule(M)))
        eps0 = np.ones(len(C0))
        tracemalloc.start()
        try:
            solver._stiffness_rows(*solver._validate_problem(C, C0, eps0, G)[:2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * M.m * 8


class TestMinresFallback:
    def test_solves_hermitian_psd_system(self):
        # exercise the real-lifted rescue path directly
        from spectralhom.solver import _minres_fallback

        rng = np.random.default_rng(55)
        A = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        H = A @ A.conj().T + np.eye(12)

        def operator(w):
            return (H @ w.reshape(-1)).reshape(w.shape)

        x_true = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        b = operator(x_true)
        x, ok = _minres_fallback(operator, b, np.zeros_like(b), SolverConfig(tolerance=1e-9))
        assert ok
        assert np.abs(x - x_true).max() < 1e-8


class TestDenseOracle:
    def test_homogeneous_zero(self):
        M = PatternMatrix.from_any([[4, 0], [0, 4]])
        C0 = iso_stiffness(1.0, 1.0, 2)
        C = np.tile([1.0, 1.0], (M.m, 1))
        G = periodized_green(C0, orthonormalize(dirichlet_rule(M)))
        E = dense_oracle(C, C0, EPS0, G)
        assert field_norm(E) < 1e-14

    def test_linearity_in_loading(self):
        M = PatternMatrix.from_any([[4, 0], [0, 4]])
        C0 = iso_stiffness(1.5, 1.5, 2)
        C = _checkerboard(M)
        G = periodized_green(C0, orthonormalize(dirichlet_rule(M)))
        E1 = dense_oracle(C, C0, EPS0, G)
        E2 = dense_oracle(C, C0, 2.0 * EPS0, G)
        assert field_norm(E2 - 2.0 * E1) < 1e-12

    def test_capacity_guard(self):
        M = PatternMatrix.from_any([[32, 0], [0, 32]])
        C0 = iso_stiffness(1.5, 1.5, 2)
        C = np.tile([1.5, 1.5], (M.m, 1))
        G = periodized_green(C0, orthonormalize(dirichlet_rule(M)))
        with pytest.raises(ValueError):
            dense_oracle(C, C0, EPS0, G)


class TestEffectiveStiffness:
    def test_homogeneous(self):
        M = PatternMatrix.from_any([[4, 0], [0, 4]])
        C0 = iso_stiffness(2.0, 1.0, 2)
        C = np.tile([2.0, 1.0], (M.m, 1))
        E = np.zeros((M.m, 3))
        assert np.abs(effective_stiffness(C, E, EPS0) - C0 @ EPS0).max() < 1e-15

    def test_matches_mean_stress(self):
        M = PatternMatrix.from_any([[4, 0], [0, 4]])
        C = _checkerboard(M)
        rng = np.random.default_rng(53)
        E = rng.standard_normal((M.m, 3))
        want = np.einsum("hij,hj->hi", dense_stiffness(C, 2), E + EPS0[None, :]).mean(axis=0)
        assert np.abs(effective_stiffness(C, E, EPS0) - want).max() < 1e-14


class TestErrorMetrics:
    def test_identical_fields_have_zero_errors(self):
        rng = np.random.default_rng(54)
        E = rng.standard_normal((10, 3))
        a = rng.standard_normal(3)
        m = error_metrics(E, ref_strain=E, effective_action=a, ref_effective_action=a)
        assert m.e_l2 == 0.0
        assert m.e_eff == 0.0
        assert np.abs(m.e_log).max() == 0.0

    def test_relative_normalisation(self):
        E = np.zeros((4, 3))
        ref = np.ones((4, 3))
        m = error_metrics(E, ref_strain=ref)
        assert m.e_l2 == pytest.approx(1.0)

    def test_log_forms(self):
        E = np.ones((2, 3))
        ref = np.ones((2, 3))
        diff = error_metrics(E, ref_strain=ref, log_form="difference")
        summ = error_metrics(E, ref_strain=ref, log_form="sum")
        assert np.abs(diff.e_log).max() == 0.0
        assert np.abs(summ.e_log - np.log1p(2.0 * np.sqrt(3.0))).max() < 1e-14
        with pytest.raises(DomainError):
            error_metrics(E, ref_strain=ref, log_form="ratio")

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            error_metrics(np.zeros((4, 3)), ref_strain=np.zeros((5, 3)))

    def test_zero_references_rejected(self):
        with pytest.raises(DomainError, match="reference strain field is zero"):
            error_metrics(np.ones((4, 3)), ref_strain=np.zeros((4, 3)))
        with pytest.raises(DomainError, match="reference effective action is zero"):
            error_metrics(np.zeros((4, 3)), effective_action=np.ones(3), ref_effective_action=np.zeros(3))

    def test_partial_references(self):
        m = error_metrics(np.zeros((4, 3)), effective_action=np.ones(3), ref_effective_action=np.ones(3))
        assert m.e_l2 is None and m.e_log is None
        assert m.e_eff == 0.0
