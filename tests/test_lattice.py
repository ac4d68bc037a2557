import numpy as np
import pytest

from spectralhom import (
    PatternMatrix,
    frequency_set,
    generating_set,
    pattern,
    period_shifts,
    smith_normal_form,
)
from spectralhom.errors import DomainError, RegularityError

from oracles import (
    brute_force_generating_set,
    brute_force_pattern,
    brute_force_residue,
    det_int,
    frequency_set_matmul,
    index_of_nums,
    random_regular_matrix,
    residues_matmul,
)


def _as_fraction_set(pat):
    from fractions import Fraction

    m = pat.m
    return {tuple(Fraction(int(v), m) for v in row) for row in pat.nums}


class TestPatternMatrix:
    def test_parses_json_string(self):
        M = PatternMatrix.from_any("[[128,272],[0,128]]")
        assert M.m == 16384
        assert M.d == 2

    def test_rejects_singular(self):
        with pytest.raises(RegularityError):
            PatternMatrix.from_any([[1, 2], [2, 4]])

    def test_rejects_non_square(self):
        with pytest.raises(RegularityError):
            PatternMatrix.from_any([[1, 2, 3], [4, 5, 6]])

    def test_rejects_non_integer(self):
        with pytest.raises(RegularityError):
            PatternMatrix.from_any([[1.5, 0], [0, 1]])

    @pytest.mark.parametrize("rows", [[[2**31, 0], [0, 1]], [[1, 0], [0, -(2**31)]], [[1, 0, 0], [0, 1, 0], [0, 2**40, 1]]])
    def test_rejects_entries_beyond_the_integer_range(self, rows):
        # |entry| >= 2^31 could overflow the int64 residue arithmetic
        with pytest.raises(RegularityError, match="exceed the supported integer range"):
            PatternMatrix.from_any(rows)

    def test_adjugate_identity(self):
        rng = np.random.default_rng(7)
        for d in (1, 2, 3):
            for _ in range(20):
                M = PatternMatrix(tuple(map(tuple, random_regular_matrix(rng, d, 400))))
                adj = np.array(M.adjugate, dtype=np.int64)
                assert np.array_equal(M.array @ adj, M.det * np.eye(d, dtype=np.int64))


class TestPattern:
    def test_diagonal_two(self):
        M = PatternMatrix.from_any([[2, 0], [0, 2]])
        pts = _as_fraction_set(pattern(M))
        from fractions import Fraction

        half = Fraction(-1, 2)
        assert pts == {(half, half), (half, 0), (0, half), (0, 0)}

    def test_identity(self):
        M = PatternMatrix.from_any([[1, 0], [0, 1]])
        pat = pattern(M)
        assert pat.m == 1
        assert np.array_equal(pat.nums, [[0, 0]])

    def test_large_anisotropic_size(self):
        M = PatternMatrix.from_any([[128, 272], [0, 128]])
        assert pattern(M).nums.shape == (16384, 2)

    def test_points_in_cell(self):
        rng = np.random.default_rng(11)
        for d in (2, 3):
            for _ in range(25):
                M = PatternMatrix(tuple(map(tuple, random_regular_matrix(rng, d, 300))))
                nums = pattern(M).nums
                assert np.all(2 * nums >= -M.m) and np.all(2 * nums < M.m)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for d in (2, 3):
            for _ in range(10):
                rows = random_regular_matrix(rng, d, 60)
                M = PatternMatrix(tuple(map(tuple, rows)))
                assert _as_fraction_set(pattern(M)) == brute_force_pattern(rows)

    def test_index_lookup_roundtrip(self):
        M = PatternMatrix.from_any([[6, 1], [2, 5]])
        pat = pattern(M)
        idx = index_of_nums(pat, pat.nums)
        assert np.array_equal(idx, np.arange(M.m))


class TestGeneratingSet:
    def test_diagonal_two(self):
        M = PatternMatrix.from_any([[2, 0], [0, 2]])
        got = {tuple(int(v) for v in row) for row in generating_set(M).freqs}
        assert got == {(-1, -1), (-1, 0), (0, -1), (0, 0)}

    def test_identity(self):
        M = PatternMatrix.from_any([[1, 0], [0, 1]])
        assert np.array_equal(generating_set(M).freqs, [[0, 0]])

    def test_shear_matrix_matches_brute_force(self):
        rows = [[2, 1], [0, 2]]
        M = PatternMatrix(tuple(map(tuple, rows)))
        got = {tuple(int(v) for v in row) for row in generating_set(M).freqs}
        assert got == brute_force_generating_set(rows)
        assert len(got) == 4

    def test_is_matrix_times_pattern(self):
        rng = np.random.default_rng(13)
        for d in (2, 3):
            for _ in range(15):
                M = PatternMatrix(tuple(map(tuple, random_regular_matrix(rng, d, 200))))
                pat = pattern(M)
                gs = generating_set(M)
                assert np.array_equal(gs.freqs * M.m, pat.nums @ M.array.T)

    def test_frequency_set_is_dual_generating_set(self):
        rng = np.random.default_rng(14)
        for d in (2, 3):
            for _ in range(15):
                rows = random_regular_matrix(rng, d, 120)
                M = PatternMatrix(tuple(map(tuple, rows)))
                dual = {tuple(int(v) for v in row) for row in frequency_set(M).freqs}
                transposed = [[rows[j][i] for j in range(d)] for i in range(d)]
                assert dual == brute_force_generating_set(transposed)

    def test_class_index_inverts_enumeration(self):
        for rows in ([[6, 1], [2, 5]], [[2, 1, 0], [0, 3, 1], [1, 0, 4]]):
            M = PatternMatrix(tuple(map(tuple, rows)))
            for gs in (generating_set(M), frequency_set(M)):
                assert np.array_equal(gs.class_index(gs.freqs), np.arange(M.m))


# 1-D to 3-D; skewed, with negative entries, even and odd det, diagonal, and cyclic with an axis (4099) long
# enough for the enumeration to split it
KERNEL_PATTERNS = [
    [[-7]],
    [[256, 544], [0, 256]],
    [[3, 1], [-7, 5]],
    [[5, 2], [-3, 7]],
    [[12, 0], [0, 12]],
    [[1, 0], [0, 4099]],
    [[16, 4, 0], [0, 16, 0], [0, 0, 16]],
    [[4, -2, 1], [3, 5, -6], [1, 0, 9]],
    [[3, 1, 0], [0, 5, 2], [1, 0, 7]],
]


class TestComponentMajorEnumeration:
    """The pattern and both generating sets keep the bits of the (m, d) matmul-and-mod formulation."""

    @pytest.mark.parametrize("rows", KERNEL_PATTERNS, ids=str)
    def test_matches_the_matmul_formulation(self, rows):
        M = PatternMatrix.from_any(rows)
        snf = smith_normal_form(M)
        nums = pattern(M).nums
        assert nums.dtype == np.int64 and nums.T.flags.c_contiguous  # component-major rows
        assert np.array_equal(nums, residues_matmul(snf.V_array, snf.diag))
        freqs = frequency_set(M).freqs
        assert freqs.dtype == np.int64 and freqs.T.flags.c_contiguous
        assert np.array_equal(freqs, frequency_set_matmul(M))
        assert np.array_equal(generating_set(M).freqs, nums @ M.array.T // M.m)

    def test_random_matrices_match_the_matmul_formulation(self):
        rng = np.random.default_rng(31)
        for d in (1, 2, 3):
            for _ in range(25):
                M = PatternMatrix.from_any(random_regular_matrix(rng, d, 3000, max_entry=9))
                snf = smith_normal_form(M)
                assert np.array_equal(pattern(M).nums, residues_matmul(snf.V_array, snf.diag))
                assert np.array_equal(frequency_set(M).freqs, frequency_set_matmul(M))


class TestSizes:
    def test_pattern_sizes_match_determinant(self):
        rng = np.random.default_rng(15)
        count = 0
        while count < 200:
            d = 2 if count % 2 == 0 else 3
            rows = random_regular_matrix(rng, d, 512)
            M = PatternMatrix(tuple(map(tuple, rows)))
            assert pattern(M).nums.shape[0] == M.m
            assert generating_set(M).freqs.shape[0] == M.m
            assert np.unique(pattern(M).nums, axis=0).shape[0] == M.m
            count += 1


class TestSmithNormalForm:
    def test_diagonal(self):
        M = PatternMatrix.from_any([[2, 0], [0, 2]])
        snf = smith_normal_form(M)
        assert snf.diag == (2, 2)
        assert np.array_equal(snf.U_array @ M.array @ snf.V_array, np.diag(snf.diag))

    def test_already_smith(self):
        snf = smith_normal_form(PatternMatrix.from_any([[1, 0], [0, 6]]))
        assert snf.diag == (1, 6)

    def test_anisotropic_example(self):
        M = PatternMatrix.from_any([[128, 272], [0, 128]])
        snf = smith_normal_form(M)
        assert snf.diag[0] * snf.diag[1] == 16384
        assert snf.diag[1] % snf.diag[0] == 0
        assert np.array_equal(snf.U_array @ M.array @ snf.V_array, np.diag(snf.diag))
        assert abs(det_int(snf.U)) == 1
        assert abs(det_int(snf.V)) == 1

    def test_random_matrices_exactly(self):
        rng = np.random.default_rng(16)
        for d in (1, 2, 3):
            for _ in range(60):
                rows = random_regular_matrix(rng, d, 512)
                M = PatternMatrix(tuple(map(tuple, rows)))
                snf = smith_normal_form(M)
                assert np.array_equal(snf.U_array @ M.array @ snf.V_array, np.diag(snf.diag))
                assert abs(det_int(snf.U)) == 1
                assert abs(det_int(snf.V)) == 1
                prod = 1
                for i, di in enumerate(snf.diag):
                    assert di > 0
                    if i > 0:
                        assert di % snf.diag[i - 1] == 0
                    prod *= di
                assert prod == M.m


def canonical_residue(k, M):
    """The representative of k modulo M Z^d that the generating set holds for its class."""
    gs = generating_set(M)
    h = gs.freqs[gs.class_index(k)]
    return h[0] if np.ndim(k) == 1 else h


class TestCanonicalResidue:
    """Generating-set representatives, looked up through ``class_index``, are the canonical residues."""

    def test_documented_case(self):
        M = PatternMatrix.from_any([[2, 0], [0, 2]])
        assert np.array_equal(canonical_residue((5, 0), M), [-1, 0])

    def test_zero_is_fixed(self):
        for rows in ([[2, 0], [0, 2]], [[6, 1], [2, 5]], [[2, 1, 0], [0, 3, 1], [1, 0, 4]]):
            M = PatternMatrix(tuple(map(tuple, rows)))
            assert np.array_equal(canonical_residue((0,) * M.d, M), [0] * M.d)

    def test_idempotent_on_generating_set(self):
        M = PatternMatrix.from_any([[6, 1], [2, 5]])
        for h in generating_set(M).freqs:
            assert np.array_equal(canonical_residue(h, M), h)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for d in (2, 3):
            for _ in range(10):
                rows = random_regular_matrix(rng, d, 40)
                M = PatternMatrix(tuple(map(tuple, rows)))
                for _ in range(10):
                    k = [int(v) for v in rng.integers(-15, 16, d)]
                    assert tuple(canonical_residue(k, M)) == brute_force_residue(k, rows)

    def test_constant_on_congruence_classes(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            rows = random_regular_matrix(rng, 2, 200)
            M = PatternMatrix(tuple(map(tuple, rows)))
            k = rng.integers(-20, 21, 2)
            base = canonical_residue(k, M)
            for _ in range(5):
                z = rng.integers(-3, 4, 2)
                shifted = k + M.array @ z
                assert np.array_equal(canonical_residue(shifted, M), base)

    def test_batch_matches_single(self):
        M = PatternMatrix.from_any([[6, 1], [2, 5]])
        rng = np.random.default_rng(19)
        ks = rng.integers(-30, 31, (40, 2))
        batch = canonical_residue(ks, M)
        for i, k in enumerate(ks):
            assert np.array_equal(batch[i], canonical_residue(k, M))

    def test_pattern_to_generating_set_bijection(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            rows = random_regular_matrix(rng, 2, 256)
            M = PatternMatrix(tuple(map(tuple, rows)))
            pat = pattern(M)
            gs = generating_set(M)
            assert np.unique(gs.freqs, axis=0).shape[0] == M.m
            assert np.array_equal(gs.freqs * M.m, pat.nums @ M.array.T)


class TestPeriodShifts:
    def test_lexicographic_cube(self):
        from itertools import product

        for d in (1, 2, 3):
            for periods in (0, 1, 2):
                want = list(product(range(-periods, periods + 1), repeat=d))
                assert period_shifts(d, periods).tolist() == [list(z) for z in want]

    def test_rejects_negative_radius(self):
        with pytest.raises(DomainError):
            period_shifts(2, -1)
