"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities at the stated tolerance."""

import json
from pathlib import Path

import numpy as np
import pytest

import spectralhom as sh
from spectralhom.cli import run_solve, sweep_alpha
from spectralhom.solver import field_norm

from oracles import (
    dense_oracle,
    fourier_matrix,
    isotropic_green_mandel,
    random_regular_matrix,
    random_spd_mandel,
    read_gray_image,
    stored_classes,
    unpack_symmetric,
)

EPS0 = np.array([1.0, 0.0, 0.0])
DOCS = Path(__file__).parent.parent / "docs"


def _random_matrix_pool(rng, count, max_m, dims=(2, 3)):
    pool = []
    while len(pool) < count:
        d = dims[len(pool) % len(dims)]
        rows = random_regular_matrix(rng, d, max_m)
        pool.append(sh.PatternMatrix(tuple(map(tuple, rows))))
    return pool


def _two_phase_field(rng, M, contrast):
    ids = rng.integers(0, 2, M.m)
    if ids.min() == ids.max():
        ids[0] = 1 - ids[0]
    return np.where(ids[:, None] == 0, [1.0, 1.0], [contrast, contrast])


def test_criterion_1_fft_matches_dense_and_unitary():
    rng = np.random.default_rng(101)
    pool = _random_matrix_pool(rng, 96, 1024)
    # a few deterministic large/anisotropic cases on top of the random pool
    pool += [
        sh.PatternMatrix.from_any([[32, 0], [0, 32]]),
        sh.PatternMatrix.from_any([[32, 17], [0, 32]]),
        sh.PatternMatrix.from_any([[8, 0, 0], [0, 8, 0], [0, 0, 8]]),
        sh.PatternMatrix.from_any([[16, 34], [0, 16]]),
    ]
    worst_match = 0.0
    worst_unitary = 0.0
    for M in pool:
        F = fourier_matrix(M)
        a = rng.standard_normal(M.m) + 1j * rng.standard_normal(M.m)
        ref = F @ a
        worst_match = max(worst_match, float(np.abs(sh.plan(M).fft(a) - ref).max() / np.abs(ref).max()))
        worst_unitary = max(worst_unitary, float(np.abs(F @ F.conj().T - np.eye(M.m)).max()))
    assert worst_match < 1e-10
    assert worst_unitary < 1e-12
    print(
        f"criterion 1 PASS: fft vs dense rel err {worst_match:.2e} (<1e-10), "
        f"unitarity defect {worst_unitary:.2e} (<1e-12) over {len(pool)} matrices"
    )


def test_criterion_2_dirichlet_periodisation_reduces_to_green():
    rng = np.random.default_rng(102)
    worst = 0.0
    for M in _random_matrix_pool(rng, 20, 192):
        D = M.d * (M.d + 1) // 2
        C0 = random_spd_mandel(rng, D)
        rule = sh.orthonormalize(sh.dirichlet_rule(M))
        table = sh.periodized_green(C0, rule)
        direct = sh.green_coeff_batch(C0, sh.frequency_set(M).freqs[stored_classes(table)])
        worst = max(worst, float(np.abs(unpack_symmetric(table.table) - direct).max()))
    assert worst < 1e-12
    print(f"criterion 2 PASS: Dirichlet table vs direct Green, worst entry gap {worst:.2e} (<1e-12)")


def test_criterion_3_green_matches_isotropic_closed_form():
    rng = np.random.default_rng(103)
    worst = 0.0
    for d in (2, 3):
        lam0, mu0 = 1.7, 0.6
        C0 = sh.iso_stiffness(lam0, mu0, d)
        count = 0
        while count < 500:
            k = rng.integers(-40, 41, d)
            if not k.any():
                continue
            count += 1
            got = sh.green_coeff_batch(C0, k[None])[0]
            want = isotropic_green_mandel(lam0, mu0, k, d)
            worst = max(worst, float(np.abs(got - want).max()))
    assert worst < 1e-12
    print(f"criterion 3 PASS: closed-form oracle gap {worst:.2e} (<1e-12) over 1000 frequencies")


def test_criterion_4_fixed_point_matches_dense_oracle():
    rng = np.random.default_rng(104)
    cfg = sh.SolverConfig(tolerance=1e-10, max_iterations=20000)
    worst = 0.0
    done = 0
    while done < 25:
        d = 2 if done % 3 else 3
        rows = random_regular_matrix(rng, d, 64)
        M = sh.PatternMatrix(tuple(map(tuple, rows)))
        if M.m < 4:
            continue
        done += 1
        contrast = float(rng.uniform(2.0, 10.0))
        C = _two_phase_field(rng, M, contrast)
        C0 = sh.iso_stiffness((1 + contrast) / 2, (1 + contrast) / 2, d)
        alpha = tuple(float(rng.uniform(0.0, 1.0)) for _ in range(d))
        eps0 = np.zeros(d * (d + 1) // 2)
        eps0[0] = 1.0
        for rule in (sh.dirichlet_rule(M), sh.dlvp_rule(M, alpha)):
            G = sh.periodized_green(C0, sh.orthonormalize(rule))
            rep = sh.ls_fixed_point(C, C0, eps0, G, cfg)
            assert rep.converged
            E = dense_oracle(C, C0, eps0, G)
            worst = max(worst, field_norm(rep.strain - E) / field_norm(E))
    assert worst < 1e-7
    print(f"criterion 4 PASS: fixed point vs dense oracle gap {worst:.2e} (<1e-7) on 25 structures x 2 generators")


def test_criterion_5_scheme_equivalence_on_and_off_dirichlet():
    M = sh.PatternMatrix.from_any([[16, 0], [0, 16]])
    ms = sh.VoxelMap([[0, 1], [1, 0]], [sh.IsoPhase(1.0, 1.0), sh.IsoPhase(2.0, 2.0)])
    C = sh.sample_stiffness(ms, M)
    C0 = sh.iso_stiffness(1.5, 1.5, 2)
    cfg = sh.SolverConfig(tolerance=1e-10, max_iterations=20000)

    G_dir = sh.periodized_green(C0, sh.orthonormalize(sh.dirichlet_rule(M)))
    ls_dir = sh.ls_fixed_point(C, C0, EPS0, G_dir, cfg)
    ve_dir = sh.ve_krylov(C, C0, EPS0, G_dir, cfg)
    gap_dir = field_norm(ls_dir.strain - ve_dir.strain) / field_norm(ls_dir.strain)

    G_vp = sh.periodized_green(C0, sh.orthonormalize(sh.dlvp_rule(M, [0.4, 0.0])))
    ls_vp = sh.ls_fixed_point(C, C0, EPS0, G_vp, cfg)
    ve_vp = sh.ve_krylov(C, C0, EPS0, G_vp, cfg)
    gap_vp = field_norm(ls_vp.strain - ve_vp.strain) / field_norm(ls_vp.strain)

    assert gap_dir <= 1e-6
    assert gap_vp > 1e-4
    print(
        f"criterion 5 PASS: Dirichlet LS/VE gap {gap_dir:.2e} (<=1e-6); "
        f"dlvp(0.4,0) contrast-2 gap {gap_vp:.3e} (>1e-4, schemes genuinely differ)"
    )


def test_criterion_6_homogeneous_and_constant_polarization():
    M = sh.PatternMatrix.from_any([[12, 5], [0, 12]])
    C0 = sh.iso_stiffness(1.5, 1.2, 2)
    G = sh.periodized_green(C0, sh.orthonormalize(sh.dirichlet_rule(M)))
    worst_strain = 0.0
    worst_action = 0.0
    for pair in ((1.5, 1.2), (3.0, 2.5)):
        Cc = sh.iso_stiffness(*pair, 2)
        C = np.tile(pair, (M.m, 1))
        for run in (sh.ls_fixed_point, sh.ve_krylov):
            rep = run(C, C0, EPS0, G)
            assert rep.converged
            worst_strain = max(worst_strain, field_norm(rep.strain))
            worst_action = max(
                worst_action,
                float(np.abs(rep.effective_action - Cc @ EPS0).max() / np.abs(Cc @ EPS0).max()),
            )
    assert worst_strain <= 1e-12
    assert worst_action <= 1e-13
    print(
        f"criterion 6 PASS: homogeneous/constant cases |E| {worst_strain:.2e} (<=1e-12), "
        f"action error {worst_action:.2e} (round-off)"
    )


def test_criterion_7_laminate_effective_convergence():
    # fraction 0.26 keeps the grid-rounding error strictly halving per
    # refinement (grid-resolved fractions are solved nodally exactly)
    lam = sh.Laminate(axis=0, fraction=0.26, phases=(sh.IsoPhase(1, 1), sh.IsoPhase(2, 2)))
    C0 = sh.iso_stiffness(1.5, 1.5, 2)
    cfg = sh.SolverConfig(tolerance=1e-10, max_iterations=20000)
    errors = []
    for n in (8, 16, 32, 64):
        M = sh.PatternMatrix.from_any([[n, 0], [0, n]])
        ref = sh.laminate_reference(lam, M, EPS0)
        C = sh.sample_stiffness(lam, M)
        G = sh.periodized_green(C0, sh.orthonormalize(sh.dirichlet_rule(M)))
        rep = sh.ls_fixed_point(C, C0, EPS0, G, cfg)
        assert rep.converged
        met = sh.error_metrics(
            rep.strain, effective_action=rep.effective_action, ref_effective_action=ref.effective_action
        )
        errors.append(met.e_eff)
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-2
    seq = " > ".join(f"{e:.3e}" for e in errors)
    print(f"criterion 7 PASS: laminate e_eff {seq} (monotone, final <1e-2)")


@pytest.fixture(scope="module")
def hashin_style_setup(tmp_path_factory):
    """Shared surrogate-reference setup for the criterion-8 replacement check.

    Analytic reference values for the confocal-ellipse benchmark are not
    available to this repository, so the criterion runs its replacement
    form: scaled geometry at m = 4096 against a converged m = 65536
    Dirichlet solve used as the surrogate reference.
    """
    base = tmp_path_factory.mktemp("hashin")
    # contrast 10; VE runs on the compatible table of each generator, where
    # every sweep evaluation converges in a few dozen iterations
    micro = {
        "kind": "inclusion",
        "shape": "ellipse",
        "semi_axes": [1.2, 1.0],
        "center": [0.2, -0.3],
        "rotation": 0.3,
        "phases": {"inclusion": {"lambda": 5.0, "mu": 4.0}, "matrix": {"lambda": 0.5, "mu": 0.4}},
    }
    reference_stiffness = {"lambda": 2.75, "mu": 2.2}  # midpoint of the phases
    solver = {"scheme": "ve_krylov", "tolerance": 1e-6, "max_iterations": 8000}

    ms = sh.geometry.microstructure_from_json(micro)
    C0 = sh.iso_stiffness(2.75, 2.2, 2)
    Mref = sh.PatternMatrix.from_any([[256, 544], [0, 256]])
    Cref = sh.sample_stiffness(ms, Mref)
    Gref = sh.periodized_green(C0, sh.orthonormalize(sh.dirichlet_rule(Mref)))
    surrogate = sh.ve_krylov(Cref, C0, EPS0, Gref, sh.SolverConfig(tolerance=1e-8, max_iterations=6000))
    assert surrogate.converged

    (base / "reference.json").write_text(
        json.dumps({"effective_action": surrogate.effective_action.tolist(), "note": "m=65536 surrogate"})
    )
    config = {
        "pattern_matrix": [[64, 136], [0, 64]],
        "generator": {"kind": "dirichlet"},
        "microstructure": micro,
        "loading": [1.0, 0.0, 0.0],
        "reference_stiffness": reference_stiffness,
        "solver": solver,
        "reference_values": "reference.json",
        "sweep": {"axes": [1], "interval": [0.0, 1.0], "budget": 12},
        "output": {"sweep_report": "out/sweep.json"},
    }
    (base / "config.json").write_text(json.dumps(config))
    return base


def test_criterion_8_replacement_dlvp_beats_dirichlet(hashin_style_setup):
    code, doc = sweep_alpha(hashin_style_setup / "config.json")
    assert code == 0
    assert doc["best_e_eff"] < doc["dirichlet_e_eff"]
    print(
        "criterion 8 PASS (replacement check): e_eff dlvp(alpha="
        f"{[round(a, 3) for a in doc['best_alpha']]}) = {doc['best_e_eff']:.5f} < "
        f"dirichlet {doc['dirichlet_e_eff']:.5f} "
        f"(reduction {doc['reduction_vs_dirichlet']:.0%}) vs m=65536 surrogate"
    )


def test_criterion_8_elog_image_structure(tmp_path):
    # the field-error benchmark images need the analytic reference, which is
    # not available; the export is verified structurally instead
    M_rows = [[8, 16], [0, 8]]  # Smith factors (8, 8): a proper 2-D raster
    M = sh.PatternMatrix.from_any(M_rows)
    lam = sh.Laminate(axis=0, fraction=0.5, phases=(sh.IsoPhase(1, 1), sh.IsoPhase(2, 2)))
    ref = sh.laminate_reference(lam, M, EPS0)
    sh.write_field(tmp_path / "ref.pfld", M, ref.strain)
    (tmp_path / "reference.json").write_text(
        json.dumps({"strain_field": "ref.pfld", "effective_action": ref.effective_action.tolist()})
    )
    config = {
        "pattern_matrix": M_rows,
        "generator": {"kind": "dlvp", "alpha": [0.4, 0.0]},
        "microstructure": {
            "kind": "laminate",
            "axis": 0,
            "fraction": 0.5,
            "phases": [{"lambda": 1.0, "mu": 1.0}, {"lambda": 2.0, "mu": 2.0}],
        },
        "loading": [1.0, 0.0, 0.0],
        "solver": {"scheme": "ls_fixed_point", "tolerance": 1e-9, "max_iterations": 5000},
        "reference_values": "reference.json",
        "output": {"report": "out/report.json", "elog_image": "out/elog.pgm"},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    code, doc = run_solve(tmp_path / "config.json")
    assert code == 0
    img = read_gray_image(tmp_path / "out/elog.pgm")
    smith = sh.smith_normal_form(M).diag
    assert img.shape == smith  # Smith raster (d1 rows, d2 columns)
    assert img.max() == 255 or img.max() == 0  # normalised to the field maximum
    first = (tmp_path / "out/elog.pgm").read_bytes()
    code, _ = run_solve(tmp_path / "config.json")
    assert (tmp_path / "out/elog.pgm").read_bytes() == first
    print(
        f"criterion 8 PASS (structural): e_log graymap {img.shape[1]}x{img.shape[0]} "
        f"on the Smith raster, normalised, round-trip stable"
    )


def test_neutral_coated_disk_converges_to_the_exact_action():
    # a coated disk in a matrix of the Hashin coated-cylinder bulk modulus kappa* is neutral under
    # dilatation, so the action under (1, 1, 0) is exactly 2 kappa* (1, 1, 0): no surrogate is involved
    config = json.loads((DOCS / "neutral_coated_disk_solve.json").read_text())
    exact = np.array(json.loads((DOCS / config["reference_values"]).read_text())["effective_action"])
    ms = sh.geometry.microstructure_from_json(config["microstructure"])
    reference = config["reference_stiffness"]
    C0 = sh.iso_stiffness(reference["lambda"], reference["mu"], 2)
    eps0 = np.array(config["loading"])
    cfg = sh.SolverConfig(tolerance=config["solver"]["tolerance"])
    errors, gaps = [], []
    for n in (64, 128, 256):
        M = sh.PatternMatrix.from_any([[n, 0], [0, n]])
        C = sh.sample_stiffness(ms, M)
        rule = sh.orthonormalize(sh.dirichlet_rule(M))
        ls = sh.ls_fixed_point(C, C0, eps0, sh.periodized_green(C0, rule), cfg)
        ve = sh.ve_krylov(C, C0, eps0, sh.compatible_green(C0, rule), cfg)
        assert ls.converged and ve.converged
        met = sh.error_metrics(ls.strain, effective_action=ls.effective_action, ref_effective_action=exact)
        errors.append(met.e_eff)
        gaps.append(float(np.abs(ls.effective_action - ve.effective_action).max() / np.abs(ls.effective_action).max()))
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 5e-4
    assert max(gaps) <= 1e-12
    seq = " > ".join(f"{e:.3e}" for e in errors)
    print(
        f"neutral coated disk PASS: Dirichlet LS e_eff {seq} at n = 64, 128, 256 against the exact action "
        f"(monotone, final <=5e-4); LS/VE action gap {max(gaps):.1e} (<=1e-12)"
    )


def test_criterion_9_determinism(tmp_path):
    config = {
        "pattern_matrix": [[12, 5], [0, 12]],
        "generator": {"kind": "dlvp", "alpha": [0.4, 0.0]},
        "microstructure": {
            "kind": "inclusion",
            "shape": "ellipse",
            "semi_axes": [1.0, 0.7],
            "center": [0.3, 0.2],
            "rotation": 0.4,
            "phases": {"inclusion": {"lambda": 3.0, "mu": 2.0}, "matrix": {"lambda": 1.0, "mu": 1.0}},
        },
        "loading": [1.0, -0.2, 0.5],
        "solver": {"scheme": "ve_krylov", "tolerance": 1e-9, "max_iterations": 5000},
        "output": {"report": "out/report.json", "strain_field": "out/strain.pfld", "residuals": "out/r.csv"},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))

    def run_once():
        code, _ = run_solve(tmp_path / "config.json")
        assert code == 0
        report = json.loads((tmp_path / "out/report.json").read_text())
        report.pop("timing")
        return (
            json.dumps(report, sort_keys=True).encode(),
            (tmp_path / "out/strain.pfld").read_bytes(),
            (tmp_path / "out/r.csv").read_bytes(),
        )

    first = run_once()
    second = run_once()
    assert first == second
    print("criterion 9 PASS: repeated runs byte-identical (report sans timing, PFLD, CSV)")
