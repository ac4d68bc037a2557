import json
import re
import struct
import tracemalloc
from itertools import product

import numpy as np
import pytest

from spectralhom import (
    HashinEllipses,
    Inclusion,
    IsoPhase,
    Laminate,
    PatternMatrix,
    VoxelMap,
    iso_stiffness,
    laminate_reference,
    load_reference_values,
    pattern,
    read_field,
    sample_stiffness,
    write_field,
)
from spectralhom.errors import DomainError, GeometryError, IngestionError, ShapeError
from spectralhom.geometry import DOMAIN_FREQUENCY, DOMAIN_SPACE, _wrap, microstructure_from_json

from oracles import phase_index_mod

P_SOFT = IsoPhase(1.0, 1.0)
P_STIFF = IsoPhase(2.0, 2.0)


class TestLaminate:
    def test_half_fraction_splits_nodes_evenly(self):
        M = PatternMatrix.from_any([[4, 0], [0, 4]])
        lam = Laminate(axis=0, fraction=0.5, phases=(P_SOFT, P_STIFF))
        C = sample_stiffness(lam, M)
        soft = (P_SOFT.lam, P_SOFT.mu)
        count = sum(np.abs(C[i] - soft).max() < 1e-15 for i in range(M.m))
        assert count == 8

    def test_fraction_validation(self):
        with pytest.raises(GeometryError):
            Laminate(axis=0, fraction=1.5, phases=(P_SOFT, P_STIFF))
        with pytest.raises(GeometryError):
            Laminate(axis=0, fraction=0.5, phases=(P_SOFT,))

    def test_sampling_is_periodic(self):
        M = PatternMatrix.from_any([[6, 1], [2, 5]])
        lam = Laminate(axis=1, fraction=0.3, phases=(P_SOFT, P_STIFF))
        nodes = 2.0 * np.pi * pattern(M).points
        base = lam.phase_index(nodes)
        shifted = lam.phase_index(nodes + 2.0 * np.pi * np.array([3.0, -2.0])[None, :])
        assert np.array_equal(base, shifted)


class TestHashin:
    def _structure(self):
        a_c, b_c = 1.2, 0.8
        a_e = 1.6
        b_e = np.sqrt(a_e**2 - (a_c**2 - b_c**2))
        return HashinEllipses(
            (a_c, b_c), (a_e, b_e), (0.0, 0.0), 0.0, P_STIFF, P_SOFT, IsoPhase(3.0, 2.0)
        )

    def test_matrix_phase_at_cell_corners(self):
        M = PatternMatrix.from_any([[8, 0], [0, 8]])
        ms = self._structure()
        corner = np.array([[-np.pi, -np.pi]])
        assert ms.phase_index(corner)[0] == 2

    def test_core_at_center(self):
        ms = self._structure()
        assert ms.phase_index(np.array([[0.0, 0.0]]))[0] == 0
        assert ms.phase_index(np.array([[1.4, 0.0]]))[0] == 1  # between core and coating

    def test_confocality_enforced(self):
        with pytest.raises(GeometryError):
            HashinEllipses((1.2, 0.8), (1.6, 1.0), (0, 0), 0.0, P_SOFT, P_STIFF, P_SOFT)

    def test_containment_enforced(self):
        with pytest.raises(GeometryError):
            HashinEllipses((1.2, 0.8), (1.1, 0.7), (0, 0), 0.0, P_SOFT, P_STIFF, P_SOFT)

    def test_boundary_belongs_to_inner_region(self):
        # core semi-axis 1.0 makes the quadric value at (1, 0) exactly 1.0
        ms = HashinEllipses(
            (1.0, 0.5), (1.25, np.sqrt(1.25**2 - 0.75)), (0.0, 0.0), 0.0, P_STIFF, P_SOFT, IsoPhase(3.0, 2.0)
        )
        assert ms.phase_index(np.array([[1.0, 0.0]]))[0] == 0


class TestBoxInclusion:
    """An axis-aligned box: |wrap(x - center)| <= half-widths on every axis, boundary included."""

    def test_classification(self):
        box = Inclusion("box", (1.0, 0.5), (0.0, 0.0), 0.0, P_STIFF, P_SOFT)
        x = np.array([[0.0, 0.0], [0.9, -0.4], [1.1, 0.0], [0.0, 0.6], [-1.2, 0.7]])
        assert box.phase_index(x).tolist() == [0, 0, 1, 1, 1]

    def test_wraps_around_the_torus(self):
        # centred near x1 = pi, the box reaches across the cell edge to x1 = -pi + 0.2
        box = Inclusion("box", (0.5, 0.5), (3.0, 0.0), 0.0, P_STIFF, P_SOFT)
        x = np.array([[-3.0, 0.0], [2.6, 0.0], [-2.6, 0.0]])
        assert box.phase_index(x).tolist() == [0, 0, 1]

    def test_boundary_belongs_to_the_box(self):
        box = Inclusion("box", (1.0, 0.5), (0.0, 0.0), 0.0, P_STIFF, P_SOFT)
        assert box.phase_index(np.array([[1.0, -0.5], [-1.0, 0.5]])).tolist() == [0, 0]
        # on diag(8, 8) the nodes lie at multiples of pi/4: |k| <= 2 by |k| <= 1 of them, edges included
        M = PatternMatrix.from_any([[8, 0], [0, 8]])
        ms = microstructure_from_json({
            "kind": "inclusion",
            "shape": "box",
            "semi_axes": [np.pi / 2, np.pi / 4],
            "phases": {"inclusion": {"lambda": 2.0, "mu": 2.0}, "matrix": {"lambda": 1.0, "mu": 1.0}},
        })
        stiff = sample_stiffness(ms, M)[:, 0] == P_STIFF.lam
        assert stiff.sum() == 15

    @pytest.mark.parametrize("half", [(1.0, 0.0), (1.0, -0.5), (1.0,), (1.0, 0.5, 0.5)])
    def test_half_widths_validated(self, half):
        with pytest.raises(GeometryError, match="half-widths"):
            Inclusion("box", half, (0.0, 0.0), 0.0, P_STIFF, P_SOFT)

    def test_unknown_shape_rejected(self):
        doc = {
            "kind": "inclusion",
            "shape": "star",
            "semi_axes": [1.0, 1.0],
            "phases": {"inclusion": {"lambda": 2.0, "mu": 2.0}, "matrix": {"lambda": 1.0, "mu": 1.0}},
        }
        with pytest.raises(GeometryError, match="'star'"):
            microstructure_from_json(doc)


class TestVoxelMap:
    def test_checkerboard(self):
        M = PatternMatrix.from_any([[2, 0], [0, 2]])
        ms = VoxelMap([[0, 1], [1, 0]], [P_SOFT, P_STIFF])
        C = sample_stiffness(ms, M)
        soft = (P_SOFT.lam, P_SOFT.mu)
        kinds = [int(np.abs(C[i] - soft).max() > 1e-15) for i in range(4)]
        assert sorted(kinds) == [0, 0, 1, 1]

    def test_phase_id_validation(self):
        with pytest.raises(GeometryError):
            VoxelMap([[0, 2], [1, 0]], [P_SOFT, P_STIFF])


class TestSampling:
    def test_cell_average_blends_interface(self):
        M = PatternMatrix.from_any([[4, 0], [0, 4]])
        lam = Laminate(axis=0, fraction=0.5, phases=(P_SOFT, P_STIFF))
        C_node = sample_stiffness(lam, M, mode="node")
        C_avg = sample_stiffness(lam, M, mode="cell_average", subsamples=4)
        soft = np.array([P_SOFT.lam, P_SOFT.mu])
        stiff = np.array([P_STIFF.lam, P_STIFF.mu])
        pure = {0.0, np.abs(stiff - soft).max()}
        dev = {round(float(np.abs(C_avg[i] - soft).max()), 12) for i in range(M.m)}
        assert len(dev) > 2  # interface cells carry intermediate values
        assert all(np.abs(C_node[i] - soft).max() in pure for i in range(M.m))

    @pytest.mark.parametrize(
        "ms, rows",
        [
            (VoxelMap([[0, 1, 2], [2, 0, 1], [1, 1, 0]], [P_SOFT, P_STIFF, IsoPhase(0.3, 0.7)]), [[12, 5], [0, 9]]),
            (
                Inclusion("ellipse", [1.3, 0.9], [0.2, -0.3], 0.4, IsoPhase(1.7, 2.9), IsoPhase(0.41, 0.23)),
                [[16, 6], [0, 16]],
            ),
            (
                Inclusion("box", [1.1, 0.7, 1.9], [0.1, 0.2, -0.3], 0.0, IsoPhase(3.3, 1.1), IsoPhase(0.7, 0.9)),
                [[6, 1, 0], [0, 5, 2], [0, 0, 6]],
            ),
        ],
        ids=["voxel-map", "ellipse", "box-3d"],
    )
    def test_cell_average_is_the_subcell_mean(self, ms, rows):
        # the phase's Lame pair averaged over the s^d subcells of each node cell, one subcell at a time
        M = PatternMatrix.from_any(rows)
        nodes = 2.0 * np.pi * pattern(M).points
        tables = np.array([(p.lam, p.mu) for p in ms.phases])
        for s in (1, 2, 3):
            steps = (np.arange(s) + 0.5) / s - 0.5
            want = np.zeros((M.m,) + tables.shape[1:])
            for y in product(steps, repeat=M.d):
                offset = 2.0 * np.pi * np.linalg.solve(M.array.astype(float), np.array(y))
                want += tables[ms.phase_index(nodes + offset)]
            want /= s**M.d
            got = sample_stiffness(ms, M, mode="cell_average", subsamples=s)
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    def test_volume_fraction_converges(self):
        lam = Laminate(axis=0, fraction=0.3, phases=(P_SOFT, P_STIFF))
        errs = []
        for n in (8, 32, 128):
            M = PatternMatrix.from_any([[n, 0], [0, n]])
            nodes = 2.0 * np.pi * pattern(M).points
            frac = float(np.mean(lam.phase_index(nodes) == 0))
            errs.append(abs(frac - 0.3))
        assert errs[-1] <= errs[0]
        assert errs[-1] < 1e-2

    def test_json_round_trip_structures(self):
        docs = [
            {
                "kind": "laminate",
                "axis": 0,
                "fraction": 0.5,
                "phases": [{"lambda": 1, "mu": 1}, {"lambda": 2, "mu": 2}],
            },
            {
                "kind": "voxel_map",
                "grid": [[0, 1], [1, 0]],
                "phase_table": [{"lambda": 1, "mu": 1}, {"lambda": 2, "mu": 2}],
            },
            {
                "kind": "inclusion",
                "shape": "ellipse",
                "semi_axes": [1.0, 0.8],
                "center": [0.1, -0.2],
                "rotation": 0.3,
                "phases": {"inclusion": {"lambda": 2, "mu": 2}, "matrix": {"lambda": 1, "mu": 1}},
            },
        ]
        M = PatternMatrix.from_any([[4, 0], [0, 4]])
        for doc in docs:
            ms = microstructure_from_json(doc)
            C = sample_stiffness(ms, M)
            assert C.shape == (16, 2)

    def test_unknown_kind(self):
        with pytest.raises(GeometryError):
            microstructure_from_json({"kind": "gyroid"})


P_THIRD = IsoPhase(0.3, 0.7)
# every kind; centres inside [-pi, pi), at 0 (so centred coordinates hit +-pi exactly) and outside it
KINDS = {
    "laminate": Laminate(axis=1, fraction=0.375, phases=(P_SOFT, P_STIFF)),
    "voxel-map": VoxelMap([[0, 1, 2], [2, 0, 1]], [P_SOFT, P_STIFF, P_THIRD]),
    "voxel-map-3d": VoxelMap(np.arange(12).reshape(2, 3, 2) % 3, [P_SOFT, P_STIFF, P_THIRD]),
    "hashin": HashinEllipses((0.8, 0.5), (1.2, np.sqrt(1.44 - 0.39)), (0.3, -7.5), 0.4, P_SOFT, P_STIFF, P_THIRD),
    "ellipse": Inclusion("ellipse", [1.2, 1.0], [0.2, -0.3], 0.3, P_STIFF, P_SOFT),
    "ellipse-centred-0": Inclusion("ellipse", [1.3, 0.7], [0.0, 0.0], 1.1, P_STIFF, P_SOFT),
    "ellipse-far": Inclusion("ellipse", [1.2, 1.0], [3.5, -4.0], 0.7, P_STIFF, P_SOFT),
    "ellipsoid": Inclusion("ellipse", [1.0, 0.8, 1.3], [0.2, -0.1, 9.4], 0.0, P_STIFF, P_SOFT),
    "box": Inclusion("box", [1.0, 0.5], [0.0, 0.0], 0.0, P_STIFF, P_SOFT),
    "box-far-3d": Inclusion("box", [1.1, 0.7, 1.9], [-3.0, 0.25, 9.0], 0.0, P_STIFF, P_SOFT),
}


def _adversarial_points(ms, d, rng):
    """Points whose centred coordinates sit at +-pi, on a laminate interface, an ellipse boundary or a box edge."""
    centre = getattr(ms, "center", np.zeros(d))
    pts = [centre + np.pi * np.array(signs) for signs in product((-1.0, 1.0), repeat=d)]
    pts += [centre + np.nextafter(np.pi, 0.0), centre - np.nextafter(np.pi, 4.0), centre + 3.0 * np.pi]
    if isinstance(ms, Laminate):
        pts.append(np.full(d, (ms.fraction - 0.5) * 2.0 * np.pi))
    for Q in (getattr(ms, name) for name in ("quadric", "core_q", "coating_q") if hasattr(ms, name)):
        u = rng.standard_normal((200, d))
        pts += list(centre + u / np.sqrt(np.einsum("ni,ij,nj->n", u, Q, u))[:, None])
    if hasattr(ms, "half"):
        pts += [centre + ms.half * np.array(signs) for signs in product((-1.0, 0.0, 1.0), repeat=d)]
    return np.array(pts)


class TestComponentMajorPhases:
    """phase_index and node sampling keep the bits of the np.mod wrap and the einsum quadric."""

    def test_wrap_keeps_np_mod_bits(self):
        rng = np.random.default_rng(23)
        for period in (2.0 * np.pi, 1.0):
            edges = [0.0, -0.0, -5e-324, -1e-300, -1e-17 * period, np.nextafter(-period, 0.0),
                     np.nextafter(period, 0.0), period, np.nextafter(period, 4.0 * period), np.nextafter(2 * period, 0.0)]
            fast = np.concatenate([edges, rng.uniform(-period, 2.0 * period, 5000)])
            beyond = np.concatenate([fast, [2.0 * period, -period, -7.5 * period, 1e300, np.inf, np.nan]])
            for values in (fast, beyond, fast.reshape(2, -1)):
                with np.errstate(invalid="ignore"):  # np.mod of inf
                    got, want = _wrap(values.copy(), period), np.mod(values, period)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("name", sorted(KINDS))
    def test_phase_index_matches_the_mod_and_einsum_formulation(self, name):
        ms = KINDS[name]
        d = ms.d or 2
        rng = np.random.default_rng(41)
        nodes_range = rng.uniform(-np.pi, np.pi, (5000, d))
        for x in (nodes_range, rng.uniform(-15.0, 15.0, (5000, d)), _adversarial_points(ms, d, rng)):
            want = phase_index_mod(ms, x)
            assert np.array_equal(ms.phase_index(x), want)
            assert np.array_equal(ms.phase_index(np.ascontiguousarray(x.T).T), want)  # a component-major block

    @pytest.mark.parametrize("name", sorted(KINDS))
    def test_node_sampling_matches_the_mod_and_einsum_formulation(self, name):
        ms = KINDS[name]
        tables = np.array([(p.lam, p.mu) for p in ms.phases])
        for rows in ([[16, 6], [0, 16]], [[3, 1], [-7, 5]]) if (ms.d or 2) == 2 else ([[6, 1, 0], [0, 5, 2], [0, 0, 6]],):
            M = PatternMatrix.from_any(rows)
            want = tables[phase_index_mod(ms, 2.0 * np.pi * pattern(M).points)]
            assert np.array_equal(sample_stiffness(ms, M), want)


class TestLaminateReference:
    def test_equal_phases_trivial(self):
        M = PatternMatrix.from_any([[4, 0], [0, 4]])
        lam = Laminate(axis=0, fraction=0.5, phases=(P_SOFT, P_SOFT))
        ref = laminate_reference(lam, M, np.array([1.0, 0.0, 0.0]))
        assert np.abs(ref.strain).max() < 1e-15
        assert np.abs(ref.effective_action - P_SOFT.stiffness(2) @ [1, 0, 0]).max() < 1e-15

    def test_harmonic_mixing_normal_loading(self):
        # fraction 1/2 of (lam, mu) = (1, 1) and (2, 2) under uniaxial strain:
        # series coupling of the normal moduli 3 and 6 gives stress 4, and
        # lateral stress lam_i * eps_11 = 4/3 in both layers
        M = PatternMatrix.from_any([[4, 0], [0, 4]])
        lam = Laminate(axis=0, fraction=0.5, phases=(P_SOFT, P_STIFF))
        ref = laminate_reference(lam, M, np.array([1.0, 0.0, 0.0]))
        assert np.abs(ref.effective_action - np.array([4.0, 4.0 / 3.0, 0.0])).max() < 1e-12

    def test_vanishing_layer_limit(self):
        M = PatternMatrix.from_any([[8, 0], [0, 8]])
        lam = Laminate(axis=0, fraction=0.0, phases=(P_SOFT, P_STIFF))
        ref = laminate_reference(lam, M, np.array([1.0, 0.0, 0.0]))
        assert np.abs(ref.effective_action - P_STIFF.stiffness(2) @ [1, 0, 0]).max() < 1e-12

    def test_interface_conditions(self):
        # traction continuity and tangential strain continuity, by construction
        M = PatternMatrix.from_any([[8, 0], [0, 8]])
        eps0 = np.array([0.7, -0.2, 0.4])
        lam = Laminate(axis=0, fraction=0.375, phases=(IsoPhase(1.0, 0.8), IsoPhase(3.0, 2.5)))
        ref = laminate_reference(lam, M, eps0)
        nodes = 2.0 * np.pi * pattern(M).points
        which = lam.phase_index(nodes)
        s0 = ref.strain[which == 0][0]
        s1 = ref.strain[which == 1][0]
        C0m = lam.phases[0].stiffness(2)
        C1m = lam.phases[1].stiffness(2)
        stress_jump = C0m @ (eps0 + s0) - C1m @ (eps0 + s1)
        # traction on the axis-0 interface: components (s11, s12)
        assert abs(stress_jump[0]) < 1e-12
        assert abs(stress_jump[2]) < 1e-12
        # tangential strain jump: component e22
        assert abs(s0[1] - s1[1]) < 1e-12
        # zero mean fluctuation
        assert np.abs(ref.strain.mean(axis=0)).max() < 1e-12

    def test_fluctuation_matches_high_resolution_solve(self):
        import spectralhom as sh

        M = PatternMatrix.from_any([[32, 0], [0, 32]])
        eps0 = np.array([1.0, 0.0, 0.0])
        lam = Laminate(axis=0, fraction=0.5, phases=(P_SOFT, P_STIFF))
        ref = laminate_reference(lam, M, eps0)
        C = sample_stiffness(lam, M)
        C0 = iso_stiffness(1.5, 1.5, 2)
        G = sh.periodized_green(C0, sh.orthonormalize(sh.dirichlet_rule(M)))
        rep = sh.ls_fixed_point(C, C0, eps0, G, sh.SolverConfig(tolerance=1e-11))
        err = np.linalg.norm(rep.strain - ref.strain) / np.linalg.norm(ref.strain)
        assert err < 1e-9


class TestFieldIO:
    def test_round_trip_bits(self, tmp_path):
        M = PatternMatrix.from_any([[6, 1], [2, 5]])
        rng = np.random.default_rng(60)
        values = rng.standard_normal((M.m, 3))
        path = tmp_path / "field.pfld"
        write_field(path, M, values, DOMAIN_SPACE)
        first = path.read_bytes()
        M2, values2, domain = read_field(path)
        assert M2 == M
        assert domain == DOMAIN_SPACE
        assert np.array_equal(values, values2)
        write_field(path, M2, values2, domain)
        assert path.read_bytes() == first

    def test_views_written_as_little_endian_rows(self, tmp_path):
        # a transposed complex field's real part and a big-endian array give the same (m, D) payload
        M = PatternMatrix.from_any([[6, 1], [2, 5]])
        rng = np.random.default_rng(61)
        values = rng.standard_normal((M.m, 3))
        first = None
        for field in (values, (values.T + 1j * rng.standard_normal((3, M.m))).T.real, values.astype(">f8")):
            write_field(tmp_path / "field.pfld", M, field)
            data = (tmp_path / "field.pfld").read_bytes()
            assert data.endswith(values.astype("<f8").tobytes())
            first = first or data
            assert data == first

    def test_transposed_field_written_through_one_block(self, tmp_path):
        # the (m, D) view of a component-major (D, m) field with m = 2^18 is converted through the 256 KB write
        # block (an (m, D) copy of it would take 6 MB), into the bytes of the contiguous field
        M = PatternMatrix.from_any([[512, 0], [0, 512]])
        values = np.random.default_rng(62).standard_normal((3, M.m))
        tracemalloc.start()
        try:
            write_field(tmp_path / "view.pfld", M, values.T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (1 << 18) + (1 << 14)
        data = (tmp_path / "view.pfld").read_bytes()
        assert len(data) == 12 + 8 * 4 + 8 + values.nbytes and data.endswith(values.T.astype("<f8").tobytes())

    def test_frequency_domain_flag(self, tmp_path):
        M = PatternMatrix.from_any([[2, 0], [0, 2]])
        path = tmp_path / "f.pfld"
        write_field(path, M, np.zeros((4, 3)), DOMAIN_FREQUENCY)
        assert read_field(path)[2] == DOMAIN_FREQUENCY

    def test_matrix_mismatch_rejected(self, tmp_path):
        M = PatternMatrix.from_any([[2, 0], [0, 2]])
        path = tmp_path / "f.pfld"
        write_field(path, M, np.zeros((4, 3)))
        with pytest.raises(IngestionError):
            read_field(path, expected=PatternMatrix.from_any([[4, 0], [0, 4]]))

    def test_truncated_payload_rejected(self, tmp_path):
        M = PatternMatrix.from_any([[2, 0], [0, 2]])
        path = tmp_path / "f.pfld"
        write_field(path, M, np.zeros((4, 3)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(IngestionError):
            read_field(path)

    def test_shape_validation(self, tmp_path):
        M = PatternMatrix.from_any([[2, 0], [0, 2]])
        with pytest.raises(ShapeError):
            write_field(tmp_path / "f.pfld", M, np.zeros((5, 3)))

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: raw[:6],  # ends inside the version word
            lambda raw: raw[:8] + struct.pack("<I", 0) + raw[12:],
            lambda raw: raw[:8] + struct.pack("<I", 4) + raw[12:],  # the 2-D file is as long as a 4-D header
            lambda raw: raw[:30],  # ends inside the matrix block
            lambda raw: raw[:-3],  # ends inside the last value
        ],
        ids=["six_bytes", "dimension_0", "dimension_4", "short_matrix_block", "short_last_value"],
    )
    def test_malformed_file_rejected(self, tmp_path, damage):
        path = tmp_path / "f.pfld"
        write_field(path, PatternMatrix.from_any([[2, 0], [0, 2]]), np.zeros((4, 3)))
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(IngestionError):
            read_field(path)

    def test_singular_matrix_block_names_the_file(self, tmp_path):
        path = tmp_path / "f.pfld"
        write_field(path, PatternMatrix.from_any([[2, 0], [0, 2]]), np.zeros((4, 3)))
        raw = bytearray(path.read_bytes())
        raw[12:44] = struct.pack("<4q", 1, 1, 1, 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(IngestionError, match=r"^" + re.escape(str(path)) + ": matrix block: .*singular"):
            read_field(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected(self, tmp_path, bad):
        values = np.zeros((4, 3))
        values[2, 1] = bad
        path = tmp_path / "f.pfld"
        write_field(path, PatternMatrix.from_any([[2, 0], [0, 2]]), values)
        with pytest.raises(IngestionError, match="non-finite"):
            read_field(path)


class TestReferenceIngestion:
    def test_action_only(self, tmp_path):
        M = PatternMatrix.from_any([[2, 0], [0, 2]])
        doc = {"effective_action": [4.0, 4.0 / 3.0, 0.0]}
        path = tmp_path / "ref.json"
        path.write_text(json.dumps(doc))
        ref = load_reference_values(path, M)
        assert ref.strain is None
        assert np.allclose(ref.effective_action, [4.0, 4.0 / 3.0, 0.0])

    def test_strain_field_reference(self, tmp_path):
        M = PatternMatrix.from_any([[2, 0], [0, 2]])
        rng = np.random.default_rng(61)
        values = rng.standard_normal((4, 3))
        write_field(tmp_path / "strain.pfld", M, values)
        doc = {"strain_field": "strain.pfld", "effective_action": [1.0, 0.0, 0.0]}
        (tmp_path / "ref.json").write_text(json.dumps(doc))
        ref = load_reference_values(tmp_path / "ref.json", M)
        assert np.array_equal(ref.strain, values)
        assert ref.effective_action is not None

    def test_bare_pfld_reference(self, tmp_path):
        M = PatternMatrix.from_any([[2, 0], [0, 2]])
        values = np.ones((4, 3))
        write_field(tmp_path / "strain.pfld", M, values)
        ref = load_reference_values(tmp_path / "strain.pfld", M)
        assert np.array_equal(ref.strain, values)
        assert ref.effective_action is None

    def test_mismatched_pattern_rejected(self, tmp_path):
        M = PatternMatrix.from_any([[2, 0], [0, 2]])
        write_field(tmp_path / "strain.pfld", M, np.ones((4, 3)))
        with pytest.raises(IngestionError):
            load_reference_values(tmp_path / "strain.pfld", PatternMatrix.from_any([[4, 0], [0, 4]]))

    def test_zero_references_rejected(self, tmp_path):
        M = PatternMatrix.from_any([[2, 0], [0, 2]])
        write_field(tmp_path / "zero.pfld", M, np.zeros((4, 3)))
        with pytest.raises(IngestionError, match=r"zero\.pfld: reference strain field is zero"):
            load_reference_values(tmp_path / "zero.pfld", M)
        cases = {
            "effective action": {"effective_action": [0.0, -0.0, 0.0]},
            "strain field": {"strain_field": "zero.pfld"},
        }
        for what, doc in cases.items():
            (tmp_path / "ref.json").write_text(json.dumps(doc))
            with pytest.raises(IngestionError, match=f"reference {what} is zero"):
                load_reference_values(tmp_path / "ref.json", M)

    def test_empty_reference_rejected(self, tmp_path):
        (tmp_path / "ref.json").write_text("{}")
        with pytest.raises(IngestionError):
            load_reference_values(tmp_path / "ref.json", PatternMatrix.from_any([[2, 0], [0, 2]]))

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError):
            load_reference_values(tmp_path / "nope.json", PatternMatrix.from_any([[2, 0], [0, 2]]))


_M22 = PatternMatrix.from_any([[2, 0], [0, 2]])
_LAYERS = Laminate(axis=0, fraction=0.5, phases=(P_SOFT, P_STIFF))


def _write(path, data):
    """``path``, holding ``data``: bytes as they are, anything else as JSON."""
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(json.dumps(data))
    return path


def _pfld(path, values=np.ones((4, 3)), version=None):
    """A PFLD field on _M22 at ``path``; ``version`` overwrites the header's version."""
    write_field(path, _M22, values)
    if version is not None:
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", version)
        path.write_bytes(bytes(data))
    return path


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda tmp: sample_stiffness(_LAYERS, _M22, "corner"), DomainError, "unknown sampling mode 'corner'"),
        (lambda tmp: sample_stiffness(_LAYERS, _M22, "cell_average", 0), DomainError, "at least one subsample"),
        (lambda tmp: read_field(tmp / "nope.pfld"), IngestionError, r"field file .*nope\.pfld does not exist"),
        (lambda tmp: read_field(_write(tmp / "junk.pfld", b"JUNK" * 8)), IngestionError, "not a PFLD file"),
        (lambda tmp: read_field(_pfld(tmp / "v7.pfld", version=7)), IngestionError, "unsupported PFLD version 7"),
        (
            lambda tmp: load_reference_values(_write(tmp / "ref.json", {"effective_action": [1.0, 0.0]}), _M22),
            IngestionError,
            r"ref\.json: effective action must have 3 components",
        ),
        (
            lambda tmp: load_reference_values(_pfld(tmp / "six.pfld", np.ones((4, 6))), _M22),
            IngestionError,
            r"six\.pfld: field has 6 components, expected 3",
        ),
        (
            lambda tmp: sample_stiffness(Laminate(2, 0.5, (P_SOFT, P_STIFF)), _M22),
            GeometryError,
            r"laminate axis 2 is not in 0\.\.1",
        ),
        (
            lambda tmp: Inclusion("ellipse", [1.0, -0.5], [0.0, 0.0], 0.0, P_STIFF, P_SOFT),
            GeometryError,
            "semi-axes must be 2 positive numbers",
        ),
        (
            lambda tmp: Inclusion("ellipse", [0.3, 0.2], [0.0, 0.0, 0.0], 0.0, P_STIFF, P_SOFT),
            GeometryError,
            "semi-axes must be 3 positive numbers",
        ),
        (
            lambda tmp: Inclusion("ellipse", [0.3, 0.2, 0.1], [0.0, 0.0, 0.0], 0.3, P_STIFF, P_SOFT),
            GeometryError,
            "rotation is only supported for planar ellipses",
        ),
        (
            lambda tmp: HashinEllipses([0.3, 0.2], [0.5, 0.4], [0.0, 0.0, 0.0], 0.0, P_SOFT, P_STIFF, P_SOFT),
            GeometryError,
            r"planar \(d = 2\)",
        ),
        (
            lambda tmp: HashinEllipses([0.3, 0.2, 0.1], [0.5, 0.4], [0.0, 0.0], 0.0, P_SOFT, P_STIFF, P_SOFT),
            GeometryError,
            "two semi-axes each",
        ),
        (lambda tmp: VoxelMap([[0, 1.5], [1, 0]], [P_SOFT, P_STIFF]), GeometryError, "integer phase ids"),
        (
            lambda tmp: laminate_reference(_LAYERS, PatternMatrix.from_any([[4]]), [1.0]),
            DomainError,
            r"d in \(2, 3\)",
        ),
        (
            lambda tmp: laminate_reference(Laminate(2, 0.5, (P_SOFT, P_STIFF)), _M22, [1.0, 0.0, 0.0]),
            GeometryError,
            r"laminate axis 2 is not in 0\.\.1",
        ),
        (
            lambda tmp: laminate_reference(_LAYERS, _M22, [1.0, 0.0]),
            ShapeError,
            "macroscopic strain does not match the spatial dimension",
        ),
        (
            lambda tmp: write_field(tmp / "f.pfld", _M22, np.ones((4, 3)), 2),
            DomainError,
            "domain flag must be 0 or 1, got 2",
        ),
    ],
    ids=[
        "sampling-mode",
        "subsamples",
        "missing-field",
        "not-pfld",
        "pfld-version",
        "action-length",
        "strain-components",
        "laminate-axis",
        "negative-semi-axis",
        "semi-axes-length",
        "rotation-3d",
        "hashin-3d",
        "hashin-semi-axes",
        "voxel-grid",
        "laminate-reference-1d",
        "laminate-reference-axis",
        "laminate-reference-eps0",
        "domain-flag",
    ],
)
def test_input_checks(tmp_path, call, error, message):
    with pytest.raises(error, match=message):
        call(tmp_path)
    assert not (tmp_path / "f.pfld").exists()  # write_field checks before it opens the file
