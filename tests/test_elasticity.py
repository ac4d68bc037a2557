import tracemalloc
from itertools import product

import numpy as np
import pytest

from spectralhom import (
    PatternMatrix,
    bspline_rule,
    compatible_green,
    dirichlet_rule,
    dlvp_rule,
    frequency_set,
    green_coeff_batch,
    iso_stiffness,
    orthonormalize,
    periodized_green,
)
from spectralhom import elasticity
from spectralhom.elasticity import sym_grad_matrix
from spectralhom.errors import DomainError

from oracles import (
    green_dense_solve,
    green_einsum_inverse,
    isotropic_green_mandel,
    kept_shifts,
    negated_classes,
    omitted_class_share,
    periodized_green_einsum,
    random_regular_matrix,
    random_spd_mandel,
    stiffness_product_einsum,
    stored_classes,
    unpack_symmetric,
)


class TestIsoStiffness:
    def test_symmetric_identity_case(self):
        # lam = 0, mu = 1/2 makes C the identity on Mandel vectors
        assert np.abs(iso_stiffness(0.0, 0.5, 2) - np.eye(3)).max() < 1e-15

    def test_two_dimensional_entries(self):
        expect = np.array([[3.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 2.0]])
        assert np.abs(iso_stiffness(1.0, 1.0, 2) - expect).max() < 1e-15

    def test_three_dimensional_contraction(self):
        # Mandel quadratic form must equal the tensor contraction eps:C:eps
        lam, mu = 1.7, 0.9
        C = iso_stiffness(lam, mu, 3)
        rng = np.random.default_rng(41)
        e = rng.standard_normal((3, 3))
        e = (e + e.T) / 2
        mandel = np.array(
            [e[0, 0], e[1, 1], e[2, 2], np.sqrt(2) * e[0, 1], np.sqrt(2) * e[0, 2], np.sqrt(2) * e[1, 2]]
        )
        sigma = lam * np.trace(e) * np.eye(3) + 2 * mu * e
        assert mandel @ C @ mandel == pytest.approx(np.tensordot(sigma, e), rel=1e-13)

    def test_rejects_degenerate(self):
        with pytest.raises(DomainError):
            iso_stiffness(1.0, 0.0, 2)
        with pytest.raises(DomainError):
            iso_stiffness(-2.0, 1.0, 2)  # d lam + 2 mu = -2


class TestSymGrad:
    """The strain amplitude of a displacement amplitude u at frequency k is i S(k) u."""

    def test_zero_frequency(self):
        assert np.abs(sym_grad_matrix(np.array([0, 0])) @ np.array([1.0, 2.0])).max() == 0.0

    def test_axis_stretch(self):
        out = 1j * sym_grad_matrix(np.array([1, 0])) @ np.array([1.0, 0.0])
        assert np.abs(out - np.array([1j, 0, 0])).max() < 1e-15

    def test_shear_mode(self):
        out = 1j * sym_grad_matrix(np.array([0, 1])) @ np.array([1.0, 0.0])
        assert np.abs(out - np.array([0, 0, np.sqrt(2) * 0.5j])).max() < 1e-15


class TestGreenCoeff:
    def test_zero_frequency_is_zero(self):
        C0 = iso_stiffness(1.0, 1.0, 2)
        assert np.abs(green_coeff_batch(C0, np.array([[0, 0]]))).max() == 0.0

    def test_matches_isotropic_closed_form(self):
        rng = np.random.default_rng(42)
        for d in (2, 3):
            lam0, mu0 = 1.3, 0.8
            C0 = iso_stiffness(lam0, mu0, d)
            for _ in range(250):
                k = rng.integers(-12, 13, d)
                if not k.any():
                    continue
                got = green_coeff_batch(C0, k[None])[0]
                want = isotropic_green_mandel(lam0, mu0, k, d)
                assert np.abs(got - want).max() < 1e-12

    def test_scale_invariance(self):
        # the middle inverse cancels the two gradient factors
        C0 = iso_stiffness(2.0, 1.0, 3)
        rng = np.random.default_rng(43)
        for _ in range(20):
            k = rng.integers(-6, 7, 3)
            if not k.any():
                continue
            base = green_coeff_batch(C0, k[None])[0]
            for t in (2, 3, -1):
                assert np.abs(green_coeff_batch(C0, t * k[None])[0] - base).max() < 1e-12
        # int64-range frequencies, evaluated without normalising k: their monomials stay within float64 range
        rng = np.random.default_rng(143)
        for d in (2, 3):
            C0 = random_spd_mandel(rng, d * (d + 1) // 2)
            ks = rng.integers(-1, 2, (40, d)) * 2**62
            ks = ks[ks.any(axis=1)]
            assert ks.dtype == np.int64 and np.abs(ks).max() == 2**62
            want = green_einsum_inverse(C0, ks / np.linalg.norm(ks.astype(float), axis=1, keepdims=True))
            assert np.abs(green_coeff_batch(C0, ks) - want).max() <= 1e-14 * np.abs(want).max()

    def test_projects_compatible_strains(self):
        rng = np.random.default_rng(44)
        for d in (2, 3):
            C0 = random_spd_mandel(rng, d * (d + 1) // 2)
            for _ in range(20):
                k = rng.integers(-5, 6, d)
                if not k.any():
                    continue
                u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                eps = 1j * sym_grad_matrix(k) @ u
                G = green_coeff_batch(C0, k[None])[0]
                assert np.abs(G @ (C0 @ eps) - eps).max() < 1e-10

    def test_symmetric_psd(self):
        rng = np.random.default_rng(45)
        C0 = random_spd_mandel(rng, 6)
        for _ in range(20):
            k = rng.integers(-5, 6, 3)
            if not k.any():
                continue
            G = green_coeff_batch(C0, k[None])[0]
            assert np.abs(G - G.T).max() < 1e-12
            assert np.linalg.eigvalsh(G).min() > -1e-12

    def test_rejects_indefinite_reference(self):
        with pytest.raises(DomainError):
            green_coeff_batch(-np.eye(3), np.array([[1, 0]]))

    def test_batch_matches_single(self):
        C0 = iso_stiffness(1.0, 2.0, 2)
        ks = np.array([[1, 0], [0, 0], [2, -3], [-1, 1]])
        batch = green_coeff_batch(C0, ks)
        for i, k in enumerate(ks):
            assert np.abs(batch[i] - green_coeff_batch(C0, k[None])[0]).max() < 1e-14


def _oracle_frequencies(rng, d):
    """Small and |k| ~ 1e5 integer frequencies, with k = 0 among them."""
    small = rng.integers(-12, 13, (60, d))
    large = rng.integers(-100_000, 100_001, (60, d))
    return np.vstack([np.zeros((1, d), dtype=np.int64), small, large])


class TestGreenKernelOracles:
    @pytest.mark.parametrize("d", [2, 3])
    def test_isotropic_closed_form(self, d):
        rng = np.random.default_rng(47 + d)
        lam0, mu0 = 2.75, 2.2
        ks = _oracle_frequencies(rng, d)
        got = green_coeff_batch(iso_stiffness(lam0, mu0, d), ks)
        for k, G in zip(ks, got):
            assert np.abs(G - isotropic_green_mandel(lam0, mu0, k, d)).max() < 1e-13

    def test_dense_solve_anisotropic_3d(self):
        rng = np.random.default_rng(49)
        C0 = random_spd_mandel(rng, 6)
        ks = _oracle_frequencies(rng, 3)
        got = green_coeff_batch(C0, ks)
        for k, G in zip(ks, got):
            want = green_dense_solve(C0, k)
            assert np.abs(G - want).max() < 1e-12 * max(1.0, np.abs(want).max())

    def test_one_dimensional_reciprocal(self):
        # d = 1: G0(k) = k (k C0 k)^{-1} k = 1 / C0 away from k = 0
        got = green_coeff_batch(np.array([[4.0]]), np.array([[3], [0], [-70_000]]))
        assert got.ravel().tolist() == [0.25, 0.0, 0.25]

    def test_input_frequencies_not_modified(self):
        ks = np.array([[3.0, -4.0], [0.0, 0.0]])
        green_coeff_batch(iso_stiffness(1.0, 1.0, 2), ks)
        assert ks.tolist() == [[3.0, -4.0], [0.0, 0.0]]

    def test_bspline_table_3d_matches_einsum_inverse(self):
        M = PatternMatrix.from_any([[8, 0, 0], [0, 8, 0], [0, 0, 8]])
        C0 = iso_stiffness(1.3, 0.8, 3)
        rule = orthonormalize(bspline_rule(M, 2))
        table = periodized_green(C0, rule, periods=2)
        shifts = kept_shifts(rule, 2)
        want = periodized_green_einsum(C0, rule, frequency_set(M).freqs, 2, shifts)[stored_classes(table)]
        assert np.abs(unpack_symmetric(table.table) - want).max() < 1e-14


    @pytest.mark.parametrize(
        "factory",
        [
            dirichlet_rule,
            lambda M: dlvp_rule(M, [0.4, 0.7]),
            lambda M: bspline_rule(M, 1),
            lambda M: bspline_rule(M, 2),
        ],
        ids=["dirichlet", "dlvp", "bspline1", "bspline2"],
    )
    def test_sheared_tables_match_einsum_inverse(self, factory):
        M = PatternMatrix.from_any([[16, 34], [0, 16]])
        C0 = random_spd_mandel(np.random.default_rng(71), 3)
        rule = orthonormalize(factory(M))
        table = periodized_green(C0, rule)
        periods = rule.default_periods
        want = periodized_green_einsum(C0, rule, frequency_set(M).freqs, periods, kept_shifts(rule, periods))
        want = want[stored_classes(table)]
        assert np.abs(unpack_symmetric(table.table) - want).max() <= 1e-14 * np.abs(want).max()


    def test_sheared_3d_anisotropic_table_matches_einsum_inverse(self):
        M = PatternMatrix.from_any([[4, 1, 0], [0, 6, 2], [0, 0, 2]])
        C0 = random_spd_mandel(np.random.default_rng(72), 6)
        for rule in (orthonormalize(dlvp_rule(M, [0.3, 0.6, 0.0])), orthonormalize(bspline_rule(M, 2))):
            table = periodized_green(C0, rule, periods=2)
            shifts = kept_shifts(rule, 2)
            want = periodized_green_einsum(C0, rule, frequency_set(M).freqs, 2, shifts)[stored_classes(table)]
            assert np.abs(unpack_symmetric(table.table) - want).max() <= 1e-14 * np.abs(want).max()


class TestPeriodizedGreen:
    def test_dirichlet_reduction_random(self):
        rng = np.random.default_rng(46)
        for trial in range(20):
            d = 2 if trial % 2 == 0 else 3
            M = PatternMatrix(tuple(map(tuple, random_regular_matrix(rng, d, 128))))
            C0 = random_spd_mandel(rng, d * (d + 1) // 2)
            rule = orthonormalize(dirichlet_rule(M))
            table = periodized_green(C0, rule)
            direct = green_coeff_batch(C0, frequency_set(M).freqs[stored_classes(table)])
            assert np.abs(unpack_symmetric(table.table) - direct).max() < 1e-12

    def test_requires_orthonormal_rule(self):
        M = PatternMatrix.from_any([[4, 1], [0, 4]])
        with pytest.raises(DomainError):
            periodized_green(iso_stiffness(1, 1, 2), dirichlet_rule(M))

    def test_zero_row_at_mean_frequency(self):
        M = PatternMatrix.from_any([[4, 1], [0, 4]])
        rule = orthonormalize(dlvp_rule(M, [0.4, 0.0]))
        table = periodized_green(iso_stiffness(1, 1, 2), rule)
        assert np.abs(unpack_symmetric(table.table)[0]).max() == 0.0  # h = 0 comes first

    def test_dlvp_single_period_is_exact(self):
        M = PatternMatrix.from_any([[4, 1], [0, 4]])
        C0 = iso_stiffness(1.3, 0.7, 2)
        rule = orthonormalize(dlvp_rule(M, [0.4, 0.0]))
        t1 = periodized_green(C0, rule, periods=1)
        t4 = periodized_green(C0, rule, periods=4)
        assert np.abs(unpack_symmetric(t1.table) - unpack_symmetric(t4.table)).max() < 1e-14
        assert t1.tail_estimate == 0.0

    def test_tables_symmetric_psd(self):
        M = PatternMatrix.from_any([[6, 1], [2, 5]])
        C0 = iso_stiffness(1.0, 1.0, 2)
        for rule in (
            orthonormalize(dirichlet_rule(M)),
            orthonormalize(dlvp_rule(M, [0.5, 0.8])),
            orthonormalize(bspline_rule(M, 2)),
        ):
            table = unpack_symmetric(periodized_green(C0, rule).table)
            assert np.abs(table - table.transpose(0, 2, 1)).max() < 1e-12
            for i in range(len(table)):
                assert np.linalg.eigvalsh(table[i]).min() > -1e-10

    def test_even_symmetry_for_even_generators(self):
        # |c_{-k}| = |c_k| makes the full table invariant under h -> rep(-h),
        # which is what lets these generators run on real fields and a half
        # table; exact for finitely supported rules, truncation-tail small otherwise
        M = PatternMatrix.from_any([[4, 0], [0, 4]])
        C0 = iso_stiffness(1.0, 1.0, 2)
        freqs = frequency_set(M).freqs
        neg = negated_classes(M)

        def defect(rule, periods):
            table = periodized_green_einsum(C0, rule, freqs, periods)
            return np.abs(table - table[neg]).max()

        assert defect(orthonormalize(dlvp_rule(M, [0.4, 0.25])), 1) < 1e-14
        rule = orthonormalize(bspline_rule(M, 2))
        defect12 = defect(rule, 12)
        defect30 = defect(rule, 30)
        assert defect12 < 1e-7
        assert defect30 < defect12 / 10

    @pytest.mark.parametrize(
        "rows, factory, symmetric, asymmetry",
        [
            ([[4, 0], [0, 4]], dirichlet_rule, False, 0.1),
            ([[4, 0], [0, 4]], lambda M: dlvp_rule(M, [0.4, 0.0]), False, 0.1),
            ([[4, 0], [0, 4]], lambda M: dlvp_rule(M, [0.4, 0.7]), True, 1e-14),
            ([[4, 0], [0, 4]], lambda M: bspline_rule(M, 1), True, 1e-4),  # truncation at 8 periods
            ([[4, 0], [0, 4]], lambda M: bspline_rule(M, 2), True, 1e-6),
            ([[5, 2], [0, 3]], dirichlet_rule, True, 1e-14),  # odd det M
            ([[5, 2], [0, 3]], lambda M: dlvp_rule(M, [0.4, 0.0]), True, 1e-14),
            ([[16, 34], [0, 16]], dirichlet_rule, False, 0.1),
            # even anyway: the property is sufficient, not necessary
            ([[16, 34], [0, 16]], lambda M: dlvp_rule(M, [0.4, 0.0]), False, None),
            ([[4, 1, 0], [0, 6, 2], [0, 0, 2]], dirichlet_rule, False, 0.1),
            ([[4, 1, 0], [0, 6, 2], [0, 0, 2]], lambda M: dlvp_rule(M, [0.3, 0.6, 0.2]), True, 1e-14),
            ([[3, 1, 0], [0, 3, 1], [0, 0, 5]], dirichlet_rule, True, 1e-14),
        ],
    )
    def test_conjugate_symmetry_property_against_full_table(self, rows, factory, symmetric, asymmetry):
        # the rule's property against the measured asymmetry of the full (einsum) table,
        # max |Gamma(h) - Gamma(-h)| relative to the table maximum; the built table is real exactly then
        M = PatternMatrix.from_any(rows)
        C0 = random_spd_mandel(np.random.default_rng(73), M.d * (M.d + 1) // 2)
        rule = orthonormalize(factory(M))
        assert rule.conjugate_symmetric is symmetric
        assert periodized_green(C0, rule).real is symmetric
        full = periodized_green_einsum(C0, rule, frequency_set(M).freqs, periods=rule.default_periods)
        measured = np.abs(full - full[negated_classes(M)]).max() / np.abs(full).max()
        if symmetric:
            assert measured <= asymmetry
        elif asymmetry is not None:
            assert measured >= asymmetry

    def test_bspline_table_converges_in_periods(self):
        M = PatternMatrix.from_any([[3, 0], [0, 3]])
        C0 = iso_stiffness(1.0, 1.0, 2)
        rule = orthonormalize(bspline_rule(M, 2))
        t8 = periodized_green(C0, rule, periods=8)
        t16 = periodized_green(C0, rule, periods=16)
        assert np.abs(unpack_symmetric(t8.table) - unpack_symmetric(t16.table)).max() < 1e-4
        assert t16.tail_estimate < t8.tail_estimate

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize(
        "rows, periods, reference",
        [([[16, 34], [0, 16]], (2, 8), 32), ([[6, 2, 0], [0, 6, 1], [0, 0, 6]], (1, 2, 3), 8)],
    )
    def test_tail_bounds_table_gap(self, rows, periods, reference, order):
        # the largest table difference to a long-period table, relative to its maximum,
        # lies below the reported tail and within a small factor of it
        M = PatternMatrix.from_any(rows)
        C0 = iso_stiffness(1.3, 0.8, M.d)
        rule = orthonormalize(bspline_rule(M, order))
        far = periodized_green(C0, rule, periods=reference).table
        for p in periods:
            table = periodized_green(C0, rule, periods=p)
            gap = np.abs(table.table - far).max() / np.abs(far).max()
            assert gap <= table.tail_estimate <= 3.0 * gap

    @pytest.mark.parametrize("periods", [None, 3], ids=["default", "3"])
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("rows", [[[16, 34], [0, 16]], [[2, 1, 0], [0, 3, 1], [0, 0, 2]]], ids=["2d", "3d"])
    def test_bspline_table_within_dropped_share_of_box(self, rows, order, periods):
        # against the whole box |z|_inf <= periods, each stored class moves by at most the share of its
        # weight that the shifts left out carry, times the largest |G0| among them; that share stays within
        # 1e-2 of the box's own tail, and the reported tail within 1% above the box's
        M = PatternMatrix.from_any(rows)
        C0 = random_spd_mandel(np.random.default_rng(74), M.d * (M.d + 1) // 2)
        rule = orthonormalize(bspline_rule(M, order))
        table = periodized_green(C0, rule, periods)
        periods = table.periods
        kept = kept_shifts(rule, periods)
        left_out = np.array(sorted(set(product(range(-periods, periods + 1), repeat=M.d)) - set(kept))) @ M.array
        assert table.shifts == len(kept) and len(left_out)
        freqs = frequency_set(M).freqs[stored_classes(table)][1:]
        share = np.array([M.m * np.sum(np.abs(rule.coefficients(h + left_out)) ** 2) for h in freqs])
        peak = max(np.abs(green_einsum_inverse(C0, h + left_out)).max() for h in freqs)
        full = periodized_green_einsum(C0, rule, frequency_set(M).freqs, periods)[stored_classes(table)][1:]
        gap = np.abs(unpack_symmetric(table.table)[1:] - full).max(axis=(1, 2))
        assert np.all(gap <= share * peak + 1e-14 * np.abs(full).max())
        box = omitted_class_share(rule, periods)
        assert share.max() <= 1e-2 * box
        assert box <= table.tail_estimate <= 1.01 * box

    @pytest.mark.parametrize(
        "rows, factory",
        [
            ([[16, 0], [0, 16]], dirichlet_rule),
            ([[9, 3], [0, 9]], dirichlet_rule),  # odd det M: a real table
            ([[16, 34], [0, 16]], lambda M: dlvp_rule(M, [0.4, 0.0])),
            ([[12, 3], [0, 12]], lambda M: dlvp_rule(M, [0.4, 1.0])),
            ([[4, 1, 0], [0, 6, 2], [0, 0, 2]], dirichlet_rule),
            ([[4, 1, 0], [0, 6, 2], [0, 0, 2]], lambda M: dlvp_rule(M, [0.3, 0.0, 1.0])),
        ],
        ids=["dirichlet", "dirichlet-odd", "dlvp-zero-slope", "dlvp", "dirichlet-3d", "dlvp-3d"],
    )
    def test_finitely_supported_tables_sum_the_whole_box(self, rows, factory):
        # no tail, so only the shifts with an all-zero axis factor are left out: those add nothing
        M = PatternMatrix.from_any(rows)
        C0 = random_spd_mandel(np.random.default_rng(75), M.d * (M.d + 1) // 2)
        rule = orthonormalize(factory(M))
        for periods in (rule.default_periods, 2):
            table = periodized_green(C0, rule, periods)
            want = periodized_green_einsum(C0, rule, frequency_set(M).freqs, periods)[stored_classes(table)]
            assert np.abs(unpack_symmetric(table.table) - want).max() <= 1e-14 * np.abs(want).max()
            assert table.shifts == len(kept_shifts(rule, periods)) and table.tail_estimate == 0.0

    @pytest.mark.parametrize("chunk", [7, 256, 1000])
    def test_chunking_leaves_table_unchanged(self, monkeypatch, chunk):
        # chunks that split the classes, hold whole shifts or straddle both
        M = PatternMatrix.from_any([[16, 34], [0, 16]])
        C0 = iso_stiffness(1.3, 0.8, 2)
        rule = orthonormalize(bspline_rule(M, 2))
        want = periodized_green(C0, rule).table
        monkeypatch.setattr(elasticity, "_CHUNK", chunk)
        got = periodized_green(C0, rule).table
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("chunk", [7, 128])
    @pytest.mark.parametrize(
        "rows, factory",
        [
            ([[16, 34], [0, 16]], lambda M: bspline_rule(M, 1)),
            ([[3, 1, 0], [0, 3, 1], [0, 0, 3]], lambda M: bspline_rule(M, 2)),
            ([[16, 0], [0, 16]], lambda M: dlvp_rule(M, [0.4, 0.0])),  # complex: the full table
        ],
        ids=["bspline1-2d", "bspline2-3d", "dlvp-complex"],
    )
    def test_ragged_chunks_reuse_one_workspace(self, monkeypatch, rows, factory, chunk):
        # a short last chunk of classes or shifts runs on views of the first chunk's buffers
        M = PatternMatrix.from_any(rows)
        C0 = iso_stiffness(1.3, 0.8, M.d)
        rule = orthonormalize(factory(M))
        want = periodized_green(C0, rule).table
        view = elasticity._workspace_view
        shapes, buffers = [], {}

        def recorded(work, key, shape):
            out = view(work, key, shape)
            if key == "weight":
                shapes.append(shape)
            buffers.setdefault(key, []).append(work[key])
            return out

        monkeypatch.setattr(elasticity, "_CHUNK", chunk)
        monkeypatch.setattr(elasticity, "_workspace_view", recorded)
        got = periodized_green(C0, rule).table
        assert any(s[0] < shapes[0][0] or s[1] < shapes[0][1] for s in shapes)
        assert all(b is held[0] for held in buffers.values() for b in held)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("chunk", [None, 3000, 6000])
    def test_passes_hold_about_chunk_pairs(self, monkeypatch, chunk):
        # 8,207 accumulated classes, a little over half the default _CHUNK: class blocks of equal width
        # and as many shifts per pass as fit, so only the last pass of a block may run short
        if chunk is not None:
            monkeypatch.setattr(elasticity, "_CHUNK", chunk)
        M = PatternMatrix.from_any([[128, 272], [0, 128]])
        rule = orthonormalize(bspline_rule(M, 2))
        rows = elasticity._monomial_rows
        shapes = []

        def recorded(k, n, work):
            if n == 2 * len(k):  # a pass, not one of its lower-degree steps
                shapes.append(k.shape[1:])
            return rows(k, n, work)

        monkeypatch.setattr(elasticity, "_monomial_rows", recorded)
        table = periodized_green(iso_stiffness(1.3, 0.8, 2), rule)
        n = table.table.shape[1] - 1  # h = 0 is not accumulated
        assert n == 8207
        blocks = -(-n // shapes[0][1])
        assert len(shapes) % blocks == 0
        per_block = len(shapes) // blocks
        assert sum(shapes[b * per_block][1] for b in range(blocks)) == n
        assert sum(depth for depth, _ in shapes[:per_block]) == table.shifts
        pairs = [depth * width for depth, width in shapes]
        assert max(pairs) <= elasticity._CHUNK
        for b in range(blocks):
            assert min(pairs[b * per_block : (b + 1) * per_block - 1], default=elasticity._CHUNK) >= elasticity._CHUNK / 2

    @pytest.mark.parametrize("d", [2, 3])
    def test_packed_apply_hat_matches_einsum(self, d):
        rng = np.random.default_rng(60 + d)
        M = PatternMatrix(tuple(map(tuple, random_regular_matrix(rng, d, 64))))
        D = d * (d + 1) // 2
        table = periodized_green(random_spd_mandel(rng, D), orthonormalize(dlvp_rule(M, [0.3] * d)))
        n = len(stored_classes(table))
        assert table.table.shape == (D * (D + 1) // 2, n)
        tau = rng.standard_normal((D, n)) + 1j * rng.standard_normal((D, n))
        want = stiffness_product_einsum(unpack_symmetric(table.table), tau.T).T
        assert np.abs(table.apply_hat(tau) - want).max() <= 1e-14 * np.abs(want).max()


class TestCompatibleGreen:
    """The table G0(mu_h) at the class-mean frequencies: one C0-projector per class."""

    CASES = {
        "dirichlet": ([[16, 6], [0, 16]], dirichlet_rule),
        "dlvp-zero-slope": ([[16, 0], [0, 16]], lambda M: dlvp_rule(M, [0.4, 0.0])),
        "dlvp": ([[12, 3], [0, 12]], lambda M: dlvp_rule(M, [0.4, 1.0])),
        "bspline1": ([[16, 0], [0, 16]], lambda M: bspline_rule(M, 1)),
        "bspline2": ([[12, 3], [0, 12]], lambda M: bspline_rule(M, 2)),
        "dirichlet-odd": ([[9, 3], [0, 9]], dirichlet_rule),
        "dlvp-3d": ([[4, 1, 0], [0, 6, 2], [0, 0, 2]], lambda M: dlvp_rule(M, [0.3, 0.0, 1.0])),
        "bspline2-3d": ([[4, 1, 0], [0, 6, 2], [0, 0, 2]], lambda M: bspline_rule(M, 2)),
        # 20,496 stored classes: more than one pass of _CHUNK
        "bspline2-large": ([[256, 272], [0, 160]], lambda M: bspline_rule(M, 2)),
    }

    @staticmethod
    def _build(rows, factory, seed=80):
        M = PatternMatrix.from_any(rows)
        C0 = random_spd_mandel(np.random.default_rng(seed), M.d * (M.d + 1) // 2)
        rule = orthonormalize(factory(M))
        return M, C0, rule, compatible_green(C0, rule)

    @pytest.mark.parametrize("rows, factory", CASES.values(), ids=CASES.keys())
    def test_every_class_is_a_reference_projector(self, rows, factory):
        M, C0, rule, G = self._build(rows, factory)
        assert G.compatible and G.periods is None and G.tail_estimate == 0.0
        assert G.real is rule.conjugate_symmetric
        table = unpack_symmetric(G.table)
        scale = np.abs(table).max()
        assert np.abs(table @ C0 @ table - table).max() <= 1e-13 * scale
        # rank d where the class mean is nonzero, zero where it vanishes
        stored = frequency_set(M).freqs[stored_classes(G)].T
        mean = stored + M.array.T @ rule.class_mean_shift(stored_classes(G))
        rank = np.trace(C0 @ table, axis1=1, axis2=2)
        assert np.abs(rank - np.where(mean.any(axis=0), M.d, 0)).max() <= 1e-12

    def test_zero_class_means_give_zero_entries(self):
        # bspline1 on diag(16, 16): classes with every xi_a in {0, -1/2} have mean zero
        M, C0, rule, G = self._build(*self.CASES["bspline1"])
        freqs = frequency_set(M).freqs[stored_classes(G)]
        zero = np.all((freqs == 0) | (freqs == -8), axis=1)
        assert zero.sum() == 4
        assert not G.table[:, zero].any() and G.table[:, ~zero].any(axis=0).all()

    @pytest.mark.parametrize(
        "rows",
        [
            [[16, 6], [0, 16]],
            [[9, 3], [0, 9]],
            [[4, 1, 0], [0, 4, 0], [0, 0, 4]],
            [[3, 1, 0], [0, 3, 1], [0, 0, 5]],
            [[128, 0], [0, 144]],  # 18,432 classes: more than one pass of _CHUNK
        ],
    )
    def test_dirichlet_equals_periodized_table(self, rows):
        M = PatternMatrix.from_any(rows)
        C0 = random_spd_mandel(np.random.default_rng(81), M.d * (M.d + 1) // 2)
        rule = orthonormalize(dirichlet_rule(M))
        paper = periodized_green(C0, rule)
        assert paper.compatible
        table = compatible_green(C0, rule).table
        assert table.shape == paper.table.shape
        assert np.abs(table - paper.table).max() <= 1e-14 * np.abs(paper.table).max()
        assert paper.projector_classes().all()
        dlvp = periodized_green(C0, orthonormalize(dlvp_rule(M, [0.4] * M.d)))
        assert not dlvp.compatible
        # the classes of the dlvp plateau, and those alone, hold C0-projectors
        full = unpack_symmetric(dlvp.table)
        projector = np.abs(full @ C0 @ full - full).max(axis=(1, 2)) <= 1e-13 * np.abs(full).max()
        assert 0 < projector.sum() < projector.size
        assert np.array_equal(dlvp.projector_classes(), projector)

    @pytest.mark.parametrize("chunk", [7, 1000])
    @pytest.mark.parametrize("name", ["dirichlet", "dlvp", "bspline2", "bspline2-3d"])
    def test_chunking_leaves_table_unchanged(self, monkeypatch, name, chunk):
        M, C0, rule, G = self._build(*self.CASES[name])
        ks = frequency_set(M).freqs
        batch = green_coeff_batch(C0, ks)
        monkeypatch.setattr(elasticity, "_CHUNK", chunk)
        table = compatible_green(C0, rule).table
        assert np.abs(table - G.table).max() <= 1e-14 * np.abs(G.table).max()
        assert np.abs(green_coeff_batch(C0, ks) - batch).max() <= 1e-14 * np.abs(batch).max()

    def test_build_memory_is_the_table_and_two_passes(self):
        # the 3-D table of 73,728 classes is built in class blocks of at most _CHUNK through one workspace: the
        # monomials of degrees 2, 3 and 6 and the denominator, 45 rows of a block, and the class means; one term per
        # class takes its weighted monomial rows as the moments, with no copy
        M = PatternMatrix.from_any([[48, 0, 0], [0, 48, 0], [0, 0, 32]])
        C0 = iso_stiffness(1.3, 0.8, 3)
        rule = orthonormalize(dirichlet_rule(M))
        frequency_set(M)  # cached by every builder; not part of the build
        assert M.m > elasticity._CHUNK
        tracemalloc.start()
        try:
            table = compatible_green(C0, rule).table
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        workspace = 60 * elasticity._CHUNK * table.itemsize
        assert table.nbytes < peak < table.nbytes + workspace

    @pytest.mark.parametrize("name", ["dlvp", "bspline1", "bspline2", "dirichlet-odd", "bspline2-3d", "bspline2-large"])
    def test_even_real_half_table(self, name):
        # class means of conjugate-symmetric rules are odd in the class, so the table is even and
        # the stored half holds einsum-inverse Green matrices at those means
        M, C0, rule, G = self._build(*self.CASES[name])
        assert G.real and G.table.shape[1] == len(stored_classes(G)) < M.m
        freqs = frequency_set(M).freqs
        mean = freqs.T + M.array.T @ rule.class_mean_shift()
        neg = negated_classes(M)
        assert np.abs(mean[:, neg] + mean).max() <= 1e-13 * np.abs(mean).max()
        full = green_einsum_inverse(C0, mean.T)
        assert np.abs(full[neg] - full).max() <= 1e-13 * np.abs(full).max()
        want = full[stored_classes(G)]
        assert np.abs(unpack_symmetric(G.table) - want).max() <= 1e-13 * np.abs(want).max()
