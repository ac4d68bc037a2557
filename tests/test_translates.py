import numpy as np
import pytest

from spectralhom import (
    GeneratorSpec,
    PatternMatrix,
    bspline_rule,
    compatible_green,
    dirichlet_rule,
    dlvp_rule,
    frequency_set,
    iso_stiffness,
    make_rule,
    orthonormalize,
    period_shifts,
    periodized_green,
)
from spectralhom.errors import DegenerateGeneratorError, DomainError, ShapeError
from spectralhom.translates import _BSPLINE_MAX_ORDER, CoefficientRule

from oracles import bracket_sum, bspline_axis_sum, random_regular_matrix

M44 = PatternMatrix.from_any([[4, 1], [0, 4]])


class TestGeneratorSpec:
    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "dirichlet"},
            {"kind": "dlvp", "alpha": [0.4, 0.0]},
            {"kind": "bspline", "order": 2},
        ],
    )
    def test_json_round_trip(self, doc):
        spec = GeneratorSpec.from_json(doc)
        assert GeneratorSpec.from_json(spec.to_json()) == spec

    def test_rules_from_spec(self):
        for doc in ({"kind": "dirichlet"}, {"kind": "dlvp", "alpha": [0.2, 0.6]}, {"kind": "bspline", "order": 1}):
            rule = make_rule(GeneratorSpec.from_json(doc), M44)
            assert rule.coefficients(np.zeros((1, 2), dtype=np.int64)).shape == (1,)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            GeneratorSpec.from_json({"kind": "sinc"})


class TestDirichletRule:
    def test_indicator_values(self):
        M = PatternMatrix.from_any([[2, 0], [0, 2]])
        rule = dirichlet_rule(M)
        assert rule.coefficients(np.array([0, 0])) == 1.0
        assert rule.coefficients(np.array([3, 0])) == 0.0

    def test_support_is_exactly_the_dual_set(self):
        M = PatternMatrix.from_any([[2, 1], [0, 2]])
        rule = dirichlet_rule(M)
        ks = np.array([[i, j] for i in range(-4, 5) for j in range(-4, 5)])
        vals = rule.coefficients(ks)
        assert int(vals.sum()) == 4  # exactly m frequencies carry weight 1
        dual = {tuple(h) for h in frequency_set(M).freqs}
        live = {tuple(k) for k, v in zip(ks, vals) if v == 1.0}
        assert live == dual


class TestDlvpRule:
    def test_zero_alpha_matches_dirichlet(self):
        rule0 = dlvp_rule(M44, [0.0, 0.0])
        ruled = dirichlet_rule(M44)
        ks = np.array([[i, j] for i in range(-6, 7) for j in range(-6, 7)])
        assert np.abs(np.sqrt(M44.m) * rule0.coefficients(ks) - ruled.coefficients(ks)).max() == 0.0

    def test_one_dimensional_hat_value(self):
        # alpha = 1 degenerates the trapezoid to the unit hat 1 - |xi|
        M = PatternMatrix.from_any([[4]])
        rule = dlvp_rule(M, [1.0])
        assert rule.coefficients(np.array([1])) == pytest.approx(0.5 * 0.75, abs=1e-15)

    def test_alpha_validation(self):
        with pytest.raises(DomainError):
            dlvp_rule(M44, [1.2, 0.0])
        with pytest.raises(DomainError):
            dlvp_rule(M44, [0.4])

    def test_support_bound(self):
        rule = dlvp_rule(M44, [0.4, 0.0])
        assert rule.support_periods == 1
        # outside (1+alpha)/2 per axis the coefficients vanish
        ks = np.array([[i, j] for i in range(-12, 13) for j in range(-12, 13)])
        vals = rule.coefficients(ks)
        xi = (ks @ np.array(M44.adjugate, dtype=np.int64)) / M44.det
        live = np.abs(vals) > 0
        assert np.all(np.abs(xi[live, 0]) <= 0.7 + 1e-12)
        assert np.all(np.abs(xi[live, 1]) <= 0.5 + 1e-12)

    def test_continuity_toward_dirichlet_on_odd_pattern(self):
        # odd Smith factors leave no half-cell boundary frequencies
        M = PatternMatrix.from_any([[5, 2], [0, 5]])
        ks = np.concatenate([frequency_set(M).freqs, np.array([[7, 3], [-6, 2], [11, -9]])])
        small = np.sqrt(M.m) * dlvp_rule(M, [1e-3, 1e-3]).coefficients(ks)
        target = dirichlet_rule(M).coefficients(ks)
        assert np.abs(small - target).max() < 2e-3

    def test_boundary_weight_is_shared(self):
        # on an even pattern the cell boundary xi = -1/2 carries 1/2 for alpha > 0
        M = PatternMatrix.from_any([[4]])
        rule = dlvp_rule(M, [0.4])
        assert rule.coefficients(np.array([-2])) == pytest.approx(0.25, abs=1e-15)  # m^{-1/2} * 1/2
        assert rule.coefficients(np.array([2])) == pytest.approx(0.25, abs=1e-15)


class TestBsplineRule:
    def test_zero_frequency(self):
        rule = bspline_rule(M44, 1)
        assert rule.coefficients(np.array([0, 0])) == pytest.approx(1 / 4.0, abs=1e-15)

    def test_vanishes_on_transposed_lattice(self):
        M = PatternMatrix.from_any([[3, 0], [0, 3]])
        rule = bspline_rule(M, 1)
        k = M.array.T @ np.array([1, 2])
        assert rule.coefficients(k) == pytest.approx(0.0, abs=1e-15)

    def test_frozen_value_order_two(self):
        M = PatternMatrix.from_any([[2]])
        rule = bspline_rule(M, 2)
        expect = (1.0 / np.sqrt(2.0)) * (2.0 / np.pi) ** 2
        assert rule.coefficients(np.array([1])) == pytest.approx(expect, rel=1e-14)

    def test_order_validation(self):
        with pytest.raises(DomainError):
            bspline_rule(M44, 0)
        with pytest.raises(DomainError, match=f"B-spline order {_BSPLINE_MAX_ORDER + 1} is above"):
            bspline_rule(M44, _BSPLINE_MAX_ORDER + 1)

    def test_class_sums_match_direct_sums_at_every_accepted_order(self):
        # the cosine series of S0 cancels near xi = +-1/2; every accepted order keeps 1e-10, and the
        # first rejected one would not: the limit is the largest order that does
        M = PatternMatrix.from_any([[16, 0], [0, 16]])  # its classes include xi = -1/2 on both axes
        worst = {}
        for order in range(1, _BSPLINE_MAX_ORDER + 2):
            rule = CoefficientRule(M, "bspline", order=order)  # the constructor, bypassing the order check
            s0, _ = rule.class_sums()
            xi = (frequency_set(M).freqs @ np.array(M.adjugate)).T / M.det
            worst[order] = float(np.abs(s0 / bspline_axis_sum(xi, order) - 1.0).max())
        assert max(worst[order] for order in range(1, _BSPLINE_MAX_ORDER + 1)) <= 1e-10
        assert worst[_BSPLINE_MAX_ORDER + 1] > 1e-10

    def test_conjugate_symmetry(self):
        rule = bspline_rule(M44, 3)
        ks = np.array([[i, j] for i in range(-9, 10) for j in range(-9, 10)])
        assert np.abs(rule.coefficients(ks) - rule.coefficients(-ks)).max() < 1e-15


class TestBracketSum:
    def test_delta_sequence(self):
        def delta(ks):
            return np.all(ks == 0, axis=1).astype(float)

        M = PatternMatrix.from_any([[3, 1], [0, 2]])
        assert bracket_sum(delta, M, (0, 0), 2) == 1.0
        h = frequency_set(M).freqs[1]
        assert bracket_sum(delta, M, h, 2) == 0.0

    def test_dirichlet_squared_is_one_per_class(self):
        M = PatternMatrix.from_any([[3, 1], [0, 2]])
        rule = dirichlet_rule(M)

        def sq(ks):
            return np.abs(rule.coefficients(ks)) ** 2

        for h in frequency_set(M).freqs:
            assert bracket_sum(sq, M, h, 2) == pytest.approx(1.0, abs=1e-15)

    def test_dlvp_truncation_is_exact(self):
        M = PatternMatrix.from_any([[4, 0], [0, 4]])
        rule = dlvp_rule(M, [1.0, 1.0])

        def sq(ks):
            return np.abs(rule.coefficients(ks)) ** 2

        val1 = bracket_sum(sq, M, (0, 0), 1)
        val3 = bracket_sum(sq, M, (0, 0), 3)
        assert val1 == pytest.approx(val3, abs=1e-16)
        assert val1 == pytest.approx(rule.gram_bracket()[0] / M.m, rel=1e-13)

    def test_bspline_closed_form_matches_truncated_sum(self):
        # |c|^2 summands are nonnegative, so truncated sums increase toward
        # the closed form; the tail at |z| > Z decays like Z^{1-2p} per axis
        M = PatternMatrix.from_any([[3, 1], [0, 2]])
        tails = {1: 2e-2, 2: 5e-8, 3: 2e-12}
        for order, tail in tails.items():
            rule = bspline_rule(M, order)

            def sq(ks):
                return np.abs(rule.coefficients(ks)) ** 2

            closed = rule.gram_bracket() / M.m
            for idx, h in enumerate(frequency_set(M).freqs):
                lo = bracket_sum(sq, M, h, 20).real
                hi = bracket_sum(sq, M, h, 40).real
                assert lo <= hi <= closed[idx] + 1e-14
                assert closed[idx] - hi < tail

    def test_bspline_integer_samples_match_convolution_quadrature(self):
        # the closed-form cosine weights (B(0), 2 B(1), ...) and sine weights -B'(j) / pi are integer
        # samples of the centred cardinal B-spline B of even order 2p and of its slope (the mean of the
        # one-sided slopes at a kink); rebuild B by repeated numerical convolution
        from spectralhom.translates import _series_weights

        h = 1e-4
        x = np.arange(-0.5 + h / 2, 0.5, h)
        box = np.ones(x.size)
        spline = box.copy()
        for order in range(2, 7):
            spline = np.convolve(spline, box) * h
            if order % 2:
                continue
            half_support = order / 2.0
            samples = [w / (2.0 if j else 1.0) for j, w in enumerate(_series_weights(order // 2, 0))]
            for j, val in enumerate(samples):
                idx = int(round(j / h)) + spline.size // 2
                if abs(j) < half_support:
                    assert abs(spline[idx] - val) < 5e-4
            for j, w in enumerate(_series_weights(order // 2, 1)):
                idx = int(round(j / h)) + spline.size // 2
                if abs(j) < half_support:
                    assert abs((spline[idx + 1] - spline[idx - 1]) / (2 * h) + np.pi * w) < 5e-4

    def test_high_orders_need_few_spline_evaluations(self, monkeypatch):
        # the exact B-spline recursion is memoised: O(order^2) calls build every series weight,
        # where the unmemoised one made about 2^(2 order) per sample; a budget stops it early
        import spectralhom.translates as tr

        M = PatternMatrix.from_any([[16, 0], [0, 16]])
        C0 = iso_stiffness(2.0, 1.5, 2)
        inner = tr._cardinal_bspline
        calls = []

        def counted(n, x):
            calls.append(n)
            if len(calls) > 8 * order**2:
                raise AssertionError(f"more than {8 * order**2} B-spline evaluations at order {order}")
            return inner(n, x)

        monkeypatch.setattr(tr, "_cardinal_bspline", counted)  # the recursion calls through the module name
        for order in (12, 16):
            calls.clear()
            inner.cache_clear()
            tr._series_weights.cache_clear()
            rule = orthonormalize(bspline_rule(M, order))
            tables = (periodized_green(C0, rule), compatible_green(C0, rule))
            assert calls
            assert np.abs(rule.gram_bracket() - 1.0).max() < 1e-12
            assert all(np.isfinite(table.table).all() for table in tables)

    def test_first_power_closed_form_bounds(self):
        # the first-power class sum of order 2, sum_t sinc^2(pi (xi + t)), is
        # m [|c|^2] of order 1; its summands are nonnegative, so the truncated
        # sum brackets the closed form together with an integral tail bound
        M = PatternMatrix.from_any([[3]])
        rule = bspline_rule(M, 1)
        closed = rule.gram_bracket()
        for idx, h in enumerate(frequency_set(M).freqs):
            for Z in (50, 200):
                approx = bracket_sum(
                    lambda ks: M.m * np.abs(rule.coefficients(ks)) ** 2, M, h, Z
                ).real
                tail = 2.0 / (np.pi**2 * (Z - 0.5))
                assert approx - 1e-13 <= closed[idx] <= approx + tail


class TestAxisFactors:
    @pytest.mark.parametrize(
        "rows, factory",
        [
            ([[16, 34], [0, 16]], dirichlet_rule),
            ([[16, 34], [0, 16]], lambda M: dlvp_rule(M, [0.4, 0.7])),
            ([[16, 34], [0, 16]], lambda M: bspline_rule(M, 2)),
            ([[4, 1, 0], [0, 6, 2], [0, 0, 2]], dirichlet_rule),
            ([[4, 1, 0], [0, 6, 2], [0, 0, 2]], lambda M: dlvp_rule(M, [0.3, 0.0, 1.0])),
            ([[4, 1, 0], [0, 6, 2], [0, 0, 2]], lambda M: bspline_rule(M, 3)),
        ],
    )
    def test_product_reproduces_coefficients(self, rows, factory):
        # c at h + M^T z is raw_scale * prod_j F[j, z_j + periods, h] / class_scale(h)
        M = PatternMatrix.from_any(rows)
        freqs = frequency_set(M).freqs
        periods = 2
        for rule in (factory(M), orthonormalize(factory(M))):
            F = rule.axis_factors(periods)
            assert F.shape == (M.d, 2 * periods + 1, M.m)
            scale = np.ones(M.m) if rule.class_scale is None else rule.class_scale
            for z in period_shifts(M.d, periods):
                got = rule.raw_scale * np.prod(F[np.arange(M.d), z + periods], axis=0) / scale
                want = rule.coefficients(freqs + z @ M.array)
                assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(initial=1.0)


class TestClassMeanShift:
    """delta_h against brute-force weighted means over the class frequencies."""

    @pytest.mark.parametrize(
        "rows, factory",
        [
            ([[16, 34], [0, 16]], dirichlet_rule),
            ([[16, 34], [0, 16]], lambda M: dlvp_rule(M, [0.4, 0.0])),
            ([[12, 3], [0, 12]], lambda M: dlvp_rule(M, [0.4, 1.0])),
            ([[4, 1, 0], [0, 6, 2], [0, 0, 2]], lambda M: dlvp_rule(M, [0.3, 0.0, 1.0])),
        ],
    )
    def test_finite_rules_match_weighted_means(self, rows, factory):
        # weights |c_{h + M^T z}|^2 from the coefficients one frequency at a time, over a box past the support
        M = PatternMatrix.from_any(rows)
        rule = orthonormalize(factory(M))
        freqs = frequency_set(M).freqs
        shifts = period_shifts(M.d, 2)
        weight = np.stack([np.abs(rule.coefficients(freqs + z @ M.array)) ** 2 for z in shifts])
        want = (shifts.T @ weight) / weight.sum(axis=0)
        got = rule.class_mean_shift()
        assert np.abs(got - want).max() <= 1e-14
        if rule.kind == "dirichlet":
            assert not got.any()

    @pytest.mark.parametrize("order, tolerance", [(1, 1e-4), (2, 1e-12), (3, 1e-12)])
    def test_bspline_matches_truncated_sums(self, order, tolerance):
        # sum_t sinc^{2p}(pi (xi + t)) t over |t| <= 4000; at order 1 the truncated terms decay only like 1/t
        M = PatternMatrix.from_any([[12, 3], [0, 12]])
        rule = bspline_rule(M, order)
        xi = np.linalg.solve(M.array.T, frequency_set(M).freqs.T.astype(float))  # M^{-T} h, (d, m)
        t = np.arange(-4000, 4001.0)
        weight = np.sinc(xi[..., None] + t) ** (2 * order)
        want = (weight * t).sum(axis=-1) / weight.sum(axis=-1)
        assert np.abs(rule.class_mean_shift() - want).max() <= tolerance

    def test_bspline_self_mirrored_axis_is_exact(self):
        # at xi_a = -1/2 the aliases pair off about zero (delta_a = 1/2), and at xi_a = 0 only t = 0 has
        # weight: the mean frequency is exactly zero where every axis is one of the two
        M = PatternMatrix.from_any([[8, 0], [0, 8]])
        freqs = frequency_set(M).freqs
        for order in (1, 2):
            delta = bspline_rule(M, order).class_mean_shift()
            assert np.all(delta[freqs.T == -4] == 0.5)
            mean = freqs.T + M.array.T @ delta
            assert np.array_equal(~mean.any(axis=0), np.all((freqs == 0) | (freqs == -4), axis=1))


class TestOrthonormalize:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda M: dirichlet_rule(M),
            lambda M: dlvp_rule(M, [0.4, 0.0]),
            lambda M: dlvp_rule(M, [1.0, 1.0]),
            lambda M: bspline_rule(M, 1),
            lambda M: bspline_rule(M, 2),
            lambda M: bspline_rule(M, 4),
        ],
    )
    def test_certificate(self, factory):
        rule = orthonormalize(factory(M44))
        assert np.abs(rule.gram_bracket() - 1.0).max() < 1e-12

    def test_certificate_random_matrices(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            M = PatternMatrix(tuple(map(tuple, random_regular_matrix(rng, 2, 128))))
            for rule in (dirichlet_rule(M), dlvp_rule(M, [0.7, 0.3]), bspline_rule(M, 2)):
                assert np.abs(orthonormalize(rule).gram_bracket() - 1.0).max() < 1e-12

    def test_dirichlet_becomes_uniform(self):
        rule = orthonormalize(dirichlet_rule(M44))
        vals = rule.coefficients(frequency_set(M44).freqs)
        assert np.abs(vals - 1.0 / np.sqrt(M44.m)).max() < 1e-15

    def test_idempotent(self):
        # an orthonormal rule is the raw rule flagged: orthonormalising it again changes no bit
        ks = np.array([[i, j] for i in range(-6, 7) for j in range(-6, 7)])
        for raw in (dirichlet_rule(M44), dlvp_rule(M44, [0.4, 0.6]), bspline_rule(M44, 2)):
            rule = orthonormalize(raw)
            again = orthonormalize(rule)
            assert again.orthonormal and np.array_equal(rule.coefficients(ks), again.coefficients(ks))
            assert np.array_equal(rule.class_scale, again.class_scale) and raw.class_scale is None

    def test_degenerate_generator_rejected(self):
        # no generator of the three families leaves a class sum at zero, so
        # one is zeroed on an instance to reach the error path
        import spectralhom.translates as tr

        broken = tr.CoefficientRule(M44, "dlvp", alpha=(1.0, 1.0))
        orig = broken.class_sums

        def patched(classes=slice(None)):
            s0, s1 = orig(classes)
            s0[:, 3] = 0.0
            return s0, s1

        broken.class_sums = patched
        with pytest.raises(DegenerateGeneratorError):
            orthonormalize(broken)


@pytest.mark.parametrize("length", [1, 3])
@pytest.mark.parametrize("factory", [dirichlet_rule, lambda M: dlvp_rule(M, [0.4, 0.6]), lambda M: bspline_rule(M, 2)])
def test_coefficients_reject_frequency_vectors_of_the_wrong_length(factory, length):
    rule = factory(M44)
    for k in (np.ones(length, dtype=np.int64), np.ones((5, length), dtype=np.int64)):
        with pytest.raises(ShapeError, match="expected frequency vectors of length 2"):
            rule.coefficients(k)
