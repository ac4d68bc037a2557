import math
import tracemalloc

import numpy as np
import pytest

from spectralhom import PatternMatrix, frequency_set, pattern, plan
from spectralhom.errors import ShapeError

from oracles import (
    dense_dft_direct,
    fourier_matrix,
    half_spectrum_classes,
    index_of_nums,
    negated_classes,
    random_regular_matrix,
)


def _fraction_points(M):
    from fractions import Fraction

    pat = pattern(M)
    return [tuple(Fraction(int(v), M.m) for v in row) for row in pat.nums]


class TestFourierMatrix:
    def test_identity(self):
        F = fourier_matrix(PatternMatrix.from_any([[1, 0], [0, 1]]))
        assert F.shape == (1, 1)
        assert abs(F[0, 0] - 1.0) < 1e-15

    def test_two_point(self):
        M = PatternMatrix.from_any([[2, 0], [0, 1]])
        F = fourier_matrix(M)
        expect = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        # canonical order puts the zero point/frequency first
        assert np.abs(F - expect).max() < 1e-15

    def test_matches_defining_formula(self):
        rng = np.random.default_rng(21)
        for d in (2, 3):
            for _ in range(8):
                M = PatternMatrix(tuple(map(tuple, random_regular_matrix(rng, d, 48))))
                F = fourier_matrix(M)
                F_direct = dense_dft_direct(M.rows, _fraction_points(M), frequency_set(M).freqs)
                assert np.abs(F - F_direct).max() < 1e-13

    def test_unitary_small(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            M = PatternMatrix(tuple(map(tuple, random_regular_matrix(rng, 2, 64))))
            F = fourier_matrix(M)
            assert np.abs(F @ F.conj().T - np.eye(M.m)).max() < 1e-12

    def test_capacity_guard(self):
        with pytest.raises(ValueError):
            fourier_matrix(PatternMatrix.from_any([[128, 272], [0, 128]]))


class TestFastTransform:
    def test_constant_input(self):
        M = PatternMatrix.from_any([[3, 1], [0, 4]])
        a = np.full(M.m, 2.5 + 0.5j)
        ahat = plan(M).fft(a)
        assert abs(ahat[0] - np.sqrt(M.m) * (2.5 + 0.5j)) < 1e-12
        assert np.abs(ahat[1:]).max() < 1e-12

    def test_delta_input(self):
        M = PatternMatrix.from_any([[3, 1], [0, 4]])
        a = np.zeros(M.m)
        a[0] = 1.0  # the origin node is first in canonical order
        ahat = plan(M).fft(a)
        assert np.abs(ahat - 1.0 / np.sqrt(M.m)).max() < 1e-12

    def test_matches_dense(self):
        rng = np.random.default_rng(23)
        M = PatternMatrix.from_any([[4, 1], [0, 4]])
        F = fourier_matrix(M)
        a = rng.standard_normal(M.m) + 1j * rng.standard_normal(M.m)
        assert np.abs(plan(M).fft(a) - F @ a).max() < 1e-12

    def test_inverse_matches_dense(self):
        rng = np.random.default_rng(24)
        M = PatternMatrix.from_any([[4, 1], [0, 4]])
        F = fourier_matrix(M)
        ahat = rng.standard_normal(M.m) + 1j * rng.standard_normal(M.m)
        assert np.abs(plan(M).ifft(ahat) - F.conj().T @ ahat).max() < 1e-12

    def test_round_trip_many_sizes(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            d = int(rng.integers(2, 4))
            M = PatternMatrix(tuple(map(tuple, random_regular_matrix(rng, d, 1024))))
            a = rng.standard_normal(M.m) + 1j * rng.standard_normal(M.m)
            back = plan(M).ifft(plan(M).fft(a))
            assert np.abs(back - a).max() < 1e-12 * max(1.0, np.abs(a).max())

    def test_unit_frequency_gives_constant(self):
        M = PatternMatrix.from_any([[5, 2], [0, 3]])
        ahat = np.zeros(M.m)
        ahat[0] = 1.0
        a = plan(M).ifft(ahat)
        assert np.abs(a - 1.0 / np.sqrt(M.m)).max() < 1e-14

    def test_parseval(self):
        rng = np.random.default_rng(26)
        for _ in range(25):
            M = PatternMatrix(tuple(map(tuple, random_regular_matrix(rng, 2, 512))))
            a = rng.standard_normal(M.m) + 1j * rng.standard_normal(M.m)
            b = rng.standard_normal(M.m) + 1j * rng.standard_normal(M.m)
            lhs = np.vdot(plan(M).fft(a), plan(M).fft(b))
            rhs = np.vdot(a, b)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_diagonal_matches_numpy_grid_fft(self):
        # on diag(4, 6) the transform equals the separable (4, 6)-point DFT,
        # once pattern nodes and dual frequencies are mapped onto that raster
        rng = np.random.default_rng(27)
        M = PatternMatrix.from_any([[4, 0], [0, 6]])
        a = rng.standard_normal(M.m) + 1j * rng.standard_normal(M.m)
        pat = pattern(M)
        p1 = (pat.nums[:, 0] // 6) % 4  # y1 = k/4 = 6k/24
        p2 = (pat.nums[:, 1] // 4) % 6
        grid = np.zeros((4, 6), dtype=complex)
        grid[p1, p2] = a
        grid_hat = np.fft.fftn(grid) / np.sqrt(M.m)
        freqs = frequency_set(M).freqs
        expect = grid_hat[freqs[:, 0] % 4, freqs[:, 1] % 6]
        assert np.abs(plan(M).fft(a) - expect).max() < 1e-12

    def test_translation_property(self):
        rng = np.random.default_rng(28)
        M = PatternMatrix.from_any([[4, 1], [0, 4]])
        pat = pattern(M)
        freqs = frequency_set(M)
        a = rng.standard_normal(M.m) + 1j * rng.standard_normal(M.m)
        shift_idx = 5
        shift_nums = pat.nums[shift_idx]
        # permute nodes: value at y comes from y - y'
        lookup = index_of_nums(pat, pat.nums - shift_nums[None, :])
        shifted = np.empty_like(a)
        shifted[np.arange(M.m)] = a[lookup]
        phases = np.exp(-2j * np.pi * (freqs.freqs @ shift_nums) / M.m)
        assert np.abs(plan(M).fft(shifted) - phases * plan(M).fft(a)).max() < 1e-12

    def test_shape_guard(self):
        M = PatternMatrix.from_any([[2, 0], [0, 2]])
        with pytest.raises(ShapeError):
            plan(M).fft(np.zeros(5))

    def test_batched_components(self):
        # leading axes are independent transforms over the trailing pattern index
        rng = np.random.default_rng(29)
        M = PatternMatrix.from_any([[3, 1], [1, 4]])
        a = rng.standard_normal((3, M.m))
        stacked = np.stack([plan(M).fft(a[i]) for i in range(3)])
        assert np.abs(plan(M).fft(a) - stacked).max() < 1e-14

    def test_trailing_axis_matches_dense_3d(self):
        rng = np.random.default_rng(30)
        M = PatternMatrix.from_any([[4, 1, 0], [0, 6, 2], [0, 0, 2]])
        F = fourier_matrix(M)
        a = rng.standard_normal((2, 3, M.m)) + 1j * rng.standard_normal((2, 3, M.m))
        assert np.abs(plan(M).fft(a) - a @ F.T).max() < 1e-12
        assert np.abs(plan(M).ifft(a) - a @ F.conj()).max() < 1e-12

    def test_plan_is_cached_and_reusable(self):
        M = PatternMatrix.from_any([[3, 1], [1, 4]])
        assert plan(M) is plan(PatternMatrix.from_any([[3, 1], [1, 4]]))


# sheared patterns with nontrivial leading Smith factors and odd or even last factors
REAL_PATTERNS = {
    "2d-even": [[6, 3], [0, 6]],  # Smith (3, 12)
    "2d-odd": [[3, 3], [0, 9]],  # Smith (3, 9)
    "3d-even": [[4, 1, 0], [0, 6, 2], [0, 0, 2]],  # Smith (1, 2, 24)
    "3d-odd": [[3, 0, 0], [0, 3, 1], [0, 0, 3]],  # Smith (1, 3, 9)
}


class TestRealTransform:
    """Real plans against the dense Fourier matrix restricted to the half-spectrum rows."""

    @pytest.mark.parametrize("rows", REAL_PATTERNS.values(), ids=REAL_PATTERNS.keys())
    def test_forward_matches_dense_half_rows(self, rows):
        M = PatternMatrix.from_any(rows)
        p = plan(M, True)
        half = half_spectrum_classes(M)
        assert np.array_equal(p.classes, half)
        F = fourier_matrix(M)
        a = np.random.default_rng(31).standard_normal((2, 3, M.m))
        got = p.fft(a)
        assert got.shape == (2, 3, len(half))
        assert np.abs(got - a @ F[half].T).max() < 1e-12

    @pytest.mark.parametrize("rows", REAL_PATTERNS.values(), ids=REAL_PATTERNS.keys())
    def test_inverse_matches_dense_and_round_trips(self, rows):
        M = PatternMatrix.from_any(rows)
        p = plan(M, True)
        half = half_spectrum_classes(M)
        F = fourier_matrix(M)
        rng = np.random.default_rng(32)
        a = rng.standard_normal((3, M.m))
        ahat = a @ F.T  # conjugate-symmetric: the class of -h holds the conjugate
        assert np.abs(ahat[:, negated_classes(M)] - ahat.conj()).max() < 1e-12
        back = p.ifft(ahat[:, half])
        assert back.dtype == np.float64
        assert np.abs(back - (ahat @ F.conj()).real).max() < 1e-12
        assert np.abs(p.ifft(p.fft(a)) - a).max() < 1e-12

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_single_precision_follows_the_input(self, real):
        # float32 fields transform to complex64 spectra and back, within single-precision round-off
        M = PatternMatrix.from_any([[6, 3], [0, 6]])
        p = plan(M, real)
        a = np.random.default_rng(33).standard_normal((3, M.m))
        if not real:
            a = a + 1j * np.random.default_rng(34).standard_normal((3, M.m))
        single = a.astype(np.float32 if real else np.complex64)
        spectrum = p.fft(single)
        assert spectrum.dtype == np.complex64
        back = p.ifft(spectrum)
        assert back.dtype == single.dtype
        assert np.abs(spectrum - p.fft(a)).max() < 1e-5 and np.abs(back - a).max() < 1e-5

    def test_output_buffers_are_written_and_checked(self):
        M = PatternMatrix.from_any([[6, 3], [0, 6]])
        p = plan(M, True)
        a = np.random.default_rng(35).standard_normal((3, M.m))
        spectrum = np.empty((3, len(p.classes)), dtype=np.complex128)
        field = np.empty((3, M.m))
        assert p.fft(a, out=spectrum) is spectrum and p.ifft(spectrum, out=field) is field
        assert np.abs(field - a).max() < 1e-12
        for bad in (np.empty((3, M.m), dtype=np.float32), np.empty((3, M.m + 1)), np.empty((M.m, 3)).T):
            with pytest.raises(ShapeError, match="output buffer"):
                p.ifft(spectrum, out=bad)

    def test_real_plans_cached_apart(self):
        M = PatternMatrix.from_any([[6, 3], [0, 6]])
        assert plan(M, True) is plan(PatternMatrix.from_any([[6, 3], [0, 6]]), True)
        assert plan(M, True).real and not plan(M).real
        assert plan(M).spectrum_shape == (3, 12) and plan(M, True).spectrum_shape == (3, 7)
        with pytest.raises(ShapeError):
            plan(M, True).ifft(np.zeros(M.m, dtype=complex))

    def test_negated_classes_are_congruent(self):
        # oracle check: h + rep(-h) lies in M^T Z^d, i.e. M^{-T} of it is integral
        for rows in REAL_PATTERNS.values():
            M = PatternMatrix.from_any(rows)
            h = frequency_set(M).freqs
            total = h + h[negated_classes(M)]
            assert np.all((total @ np.array(M.adjugate, dtype=np.int64)) % M.det == 0)


# Smith grids with leading factors 1 and above 1, odd and even last factors
BIT_PATTERNS = {
    "2d-leading-one": [[12, 5], [0, 12]],  # Smith (1, 144)
    "2d-even": [[6, 3], [0, 6]],  # Smith (3, 12)
    "2d-odd": [[3, 3], [0, 9]],  # Smith (3, 9)
    "3d-leading-one": [[4, 1, 0], [0, 6, 2], [0, 0, 2]],  # Smith (1, 2, 24)
    "3d-even": [[2, 0, 0], [0, 4, 0], [0, 0, 6]],  # Smith (2, 2, 12)
    "3d-odd": [[3, 0, 0], [0, 3, 0], [0, 0, 9]],  # Smith (3, 3, 9)
}
# plans that pad (at least 2^14 points): complex rows of 2048, 256 and 32 classes and a real row of 66 made odd; the
# real plans of the first three keep their odd rows of 1025, 129 and 17
PADDED_PATTERNS = {
    "2d-surrogate": [[256, 544], [0, 256]],  # Smith (32, 2048)
    "2d-square": [[256, 0], [0, 256]],  # Smith (256, 256)
    "3d-cube": [[32, 0, 0], [0, 32, 0], [0, 0, 32]],  # Smith (32, 32, 32)
    "2d-real-pads": [[130, 0], [0, 130]],  # Smith (130, 130)
}


class TestNumpyBits:
    """The per-axis passes give the bits of numpy's nd transforms on the Smith grid."""

    @pytest.mark.parametrize("precision", [np.float32, np.float64])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize(
        "rows", {**BIT_PATTERNS, **PADDED_PATTERNS}.values(), ids={**BIT_PATTERNS, **PADDED_PATTERNS}.keys()
    )
    def test_equal_to_nd_functions(self, rows, real, precision):
        M = PatternMatrix.from_any(rows)
        p = plan(M, real)
        grid, axes = p.diag, tuple(range(-M.d, 0))
        rng = np.random.default_rng(36)
        for lead in ((), (3,), (2, 3)) if M.m < 1 << 14 else ((), (3,)):
            a = rng.standard_normal(lead + (M.m,)).astype(precision)
            if not real:
                a = a + 1j * rng.standard_normal(a.shape).astype(precision)
            spectrum = p.fft(a)
            assert spectrum.shape == lead + (p.slots,)
            nd = np.fft.rfftn if real else np.fft.fftn
            want = nd(a.reshape(lead + grid), axes=axes, norm="ortho")
            on_grid = p.stored(spectrum)
            assert spectrum.dtype == want.dtype and np.array_equal(on_grid, want)
            assert not np.delete(spectrum, p.class_slots, axis=-1).any()  # the pad slots hold zeros
            if real:
                want = np.fft.irfftn(on_grid, s=grid, axes=axes, norm="ortho")
            else:
                want = np.fft.ifftn(on_grid, axes=axes, norm="ortho")
            want = want.reshape(a.shape)
            back = p.ifft(spectrum)
            assert back.dtype == want.dtype and np.array_equal(back, want)
            out = np.empty_like(back)
            assert p.ifft(spectrum.copy(), out=out, overwrite=True) is out and np.array_equal(out, want)

    def test_only_an_overwritten_spectrum_changes(self):
        M = PatternMatrix.from_any(BIT_PATTERNS["2d-even"])
        p = plan(M, True)
        a = np.random.default_rng(37).standard_normal((3, M.m))
        spectrum, full = p.fft(a), plan(M).fft(a)
        kept = spectrum.copy(), full.copy()
        p.ifft(spectrum)
        plan(M).ifft(full, overwrite=True)  # a complex plan that does not pad only reads its input
        assert np.array_equal(spectrum, kept[0]) and np.array_equal(full, kept[1])
        p.ifft(spectrum, overwrite=True)
        assert not np.array_equal(spectrum, kept[0])

    def test_real_inverse_into_out_allocates_no_spectrum(self):
        # a (3, 256, 256) float32 field: its half spectrum is 794 KB, which the inverse used to allocate
        M = PatternMatrix.from_any([[256, 0], [0, 256]])
        p = plan(M, True)
        spectrum = p.fft(np.random.default_rng(38).standard_normal((3, M.m)).astype(np.float32))
        field = np.empty((3, M.m), dtype=np.float32)
        peaks = {}
        for overwrite in (False, True):
            p.ifft(spectrum.copy(), out=field, overwrite=overwrite)  # warm up numpy's plan caches
            values = spectrum.copy()
            tracemalloc.start()
            try:
                p.ifft(values, out=field, overwrite=overwrite)
                peaks[overwrite] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[False] >= spectrum.nbytes  # the measurement sees a spectrum-sized allocation
        assert peaks[True] < spectrum.nbytes // 64


class TestPaddedLayout:
    """Plans of at least 2^14 points with a leading axis of 16 or more store each even spectrum row at odd length."""

    # pattern: slot shapes of the complex and the real plan
    RULE = {
        "below-2^14": ([[96, 0], [0, 160]], (32, 480), (32, 241)),  # 15,360 points
        "square": ([[128, 0], [0, 128]], (128, 129), (128, 65)),  # the real row of 65 is odd already
        "short-leading-axis": ([[8, 0], [0, 8192]], (8, 8192), (8, 4097)),  # lines of 8 points: rows kept
        "sixteen-rows": ([[16, 0], [0, 1024]], (16, 1025), (16, 513)),
        "no-leading-pass": ([[1, 0], [0, 16384]], (1, 16384), (1, 8193)),
        "real-pads": ([[130, 0], [0, 130]], (130, 131), (130, 67)),
        "cube": ([[32, 0, 0], [0, 32, 0], [0, 0, 32]], (32, 32, 33), (32, 32, 17)),
    }

    @pytest.mark.parametrize("rows, complex_slots, real_slots", RULE.values(), ids=RULE.keys())
    def test_padding_rule(self, rows, complex_slots, real_slots):
        M = PatternMatrix.from_any(rows)
        for real, slots in ((False, complex_slots), (True, real_slots)):
            p = plan(M, real)
            assert p.slot_shape == slots and p.slots == math.prod(slots)
            assert p.slot_shape[:-1] == p.spectrum_shape[:-1] and p.slot_shape[-1] in (
                p.spectrum_shape[-1],
                p.spectrum_shape[-1] + 1,
            )
            grid = np.arange(p.slots).reshape(slots)[..., : p.spectrum_shape[-1]]
            assert np.array_equal(p.class_slots, grid.ravel()) and len(p.class_slots) == len(p.classes)

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_pad_slots_are_written_as_zeros_and_never_read(self, real):
        M = PatternMatrix.from_any(PADDED_PATTERNS["2d-real-pads"])
        p = plan(M, real)
        pads = np.ones(p.slots, dtype=bool)
        pads[p.class_slots] = False
        assert pads.sum() == math.prod(p.slot_shape[:-1])  # one pad slot per row
        rng = np.random.default_rng(39)
        a = rng.standard_normal((3, M.m))
        if not real:
            a = a + 1j * rng.standard_normal(a.shape)
        spectrum = p.fft(a, out=np.full((3, p.slots), np.nan, dtype=complex))
        assert not spectrum[:, pads].any()
        want = p.ifft(spectrum)
        poisoned = spectrum.copy()
        poisoned[:, pads] = np.nan
        assert np.array_equal(p.ifft(poisoned), want)
        out = np.empty_like(want)
        assert np.array_equal(p.ifft(poisoned, out=out, overwrite=True), want)
        assert np.isnan(poisoned[:, pads]).all()  # the passes ran on the stored classes alone
        assert not np.array_equal(p.stored(poisoned), p.stored(spectrum))  # ... in the spectrum itself

    def test_complex_inverse_in_the_spectrum_allocates_nothing(self):
        M = PatternMatrix.from_any(PADDED_PATTERNS["2d-square"])
        p = plan(M)
        a = np.random.default_rng(41).standard_normal((3, M.m)).astype(np.complex64)
        spectrum = p.fft(a)
        field = np.empty_like(a)
        p.ifft(spectrum.copy(), out=field, overwrite=True)  # warm up numpy's plan caches
        values = spectrum.copy()
        tracemalloc.start()
        try:
            p.ifft(values, out=field, overwrite=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < spectrum.nbytes // 64 and not np.array_equal(values, spectrum)
