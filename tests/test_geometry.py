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
from spectralhom.errors import GeometryError, IngestionError, ShapeError
from spectralhom.geometry import DOMAIN_FREQUENCY, DOMAIN_SPACE, microstructure_from_json

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
