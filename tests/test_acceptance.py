"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  The pipeline criteria run the real CLI at default scale, so
this module takes several minutes; everything else in tests/ is fast."""

import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.signal import find_peaks

from fem_surrogate import beam, mlp
from fem_surrogate import oscillator as osc
from fem_surrogate.numerics import band_ldlt, band_to_dense
from oracles import grad_check, steady_state_oracle


def report(number, name, passed, detail):
    print(f"[criterion {number:02d}] {'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def read_metrics(path):
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


def read_curves(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    k = (len(header) - 2) // 2
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return data[:, 0], data[:, 1:1 + k], data[:, 1 + k:1 + 2 * k], data[:, -1] > 0.5


@pytest.fixture(scope="session")
def eval_runs(tmp_path_factory):
    """Default-seed CLI eval for both experiments, twice each (the second
    run feeds the determinism criterion)."""
    runs = {}
    for experiment in ("example1", "example2"):
        for tag in ("a", "b"):
            out_dir = tmp_path_factory.mktemp(f"{experiment}_{tag}")
            t0 = time.time()
            res = subprocess.run(
                [sys.executable, "-m", "fem_surrogate", "eval",
                 "--experiment", experiment, "--seed", "42",
                 "--out-dir", str(out_dir)],
                capture_output=True, text=True)
            assert res.returncode == 0, res.stderr
            runs[(experiment, tag)] = (out_dir, time.time() - t0)
    return runs


def test_criterion_01_gradient_oracle():
    t0 = time.time()
    worst = 0.0
    cases = []
    for seed in (34, 38, 23, 47):  # random architectures within [2,50,50,3]
        rng = np.random.default_rng(seed)
        n_hidden = int(rng.integers(1, 3))
        arch = [int(rng.integers(1, 3))] \
            + [int(rng.integers(5, 51)) for _ in range(n_hidden)] \
            + [int(rng.integers(1, 4))]
        cases.append((arch, seed, rng))
    cases.append(([2, 50, 50, 3], 1000, np.random.default_rng(1000)))
    for arch, seed, rng in cases:
        net = mlp.init(arch, seed)
        x = rng.standard_normal((int(rng.integers(3, 9)) if seed != 1000 else 6,
                                 arch[0]))
        t = mlp.forward(net, x) + 0.01 * rng.standard_normal((x.shape[0], arch[-1]))
        worst = max(worst, grad_check(net, x, t))
    elapsed = time.time() - t0
    report(1, "gradient oracle", worst < 1e-6 and elapsed < 10.0,
           f"max rel err {worst:.2e} over 5 architectures in {elapsed:.1f}s")


def test_criterion_02_oscillator_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        m = rng.uniform(0.5, 3.0)
        k = rng.uniform(5.0, 60.0)
        zeta = rng.uniform(0.05, 0.3)
        c = 2.0 * zeta * math.sqrt(k * m)
        f0 = rng.uniform(0.5, 5.0)
        p = osc.OscillatorParams(m, c, k, f0)
        f = rng.uniform(0.3, 2.0) * p.omega0 / (2.0 * math.pi)
        cycles = max(60, int(math.ceil(2.5 * (2.0 * math.pi * f / p.omega0) / zeta)))
        a_num = steady_state_oracle(p, f, cycles=cycles, steps_per_cycle=150)
        worst = max(worst, abs(a_num - osc.amplitude(p, f)) / osc.amplitude(p, f))
    elapsed = time.time() - t0
    report(2, "oscillator oracle equivalence", worst < 1e-3 and elapsed < 30.0,
           f"max rel dev {worst:.2e} over 10 random damped sets in {elapsed:.1f}s")


def test_criterion_03_fem_modal_validation():
    t0 = time.time()
    spec = beam.default_spec()
    freqs = np.array(beam.natural_frequencies(spec, 200.0))
    f1_ref = (1.875104 ** 2 / (2.0 * math.pi)) * math.sqrt(
        spec.material.youngs_modulus * spec.section.i_y
        / (spec.material.density * spec.section.area * spec.length ** 4))
    f1_err = abs(freqs[0] - f1_ref) / f1_ref
    # the fundamental plane's second mode is the list entry nearest 6.267*f1
    # (the next ascending mode belongs to the stiffer bending plane)
    ratio_ref = (4.694091 / 1.875104) ** 2
    partner = freqs[np.argmin(np.abs(freqs - ratio_ref * freqs[0]))]
    ratio_err = abs(partner / freqs[0] - ratio_ref) / ratio_ref
    elapsed = time.time() - t0
    report(3, "FEM modal validation",
           f1_err < 0.01 and ratio_err < 0.02 and elapsed < 30.0,
           f"f1 {freqs[0]:.4f} Hz vs {f1_ref:.4f} Hz ({f1_err:.2e}); "
           f"f2/f1 {partner / freqs[0]:.4f} vs {ratio_ref:.4f} ({ratio_err:.2e}); "
           f"{elapsed:.1f}s")


def test_criterion_04_fem_static_validation():
    spec = beam.BeamSpec(length=1.0, section=beam.CrossSection(0.03, 0.02),
                         material=beam.STEEL, n_elements=20,
                         axis_direction=np.array([1.0, 0.0, 0.0]),
                         tip_load=np.array([0.0, 5.0, 0.0]))
    _, red = beam.reduced_system(spec)
    u = beam.static_solve(red.kb, red.f)
    tip = beam.max_displacements(u.astype(complex))[1]
    expected = 5.0 * spec.length ** 3 / (3.0 * spec.material.youngs_modulus
                                         * spec.section.i_z)
    err = abs(tip - expected) / expected
    report(4, "FEM static validation", err < 0.005,
           f"tip deflection {tip:.6e} m vs F*L^3/(3EI) = {expected:.6e} m ({err:.2e})")


def test_criterion_05_cross_module_single_dof():
    m_, c_, k_, f0 = 2.0, 0.3, 50.0, 1.5
    p = osc.OscillatorParams(m_, c_, k_, f0)
    K, M, C = np.array([[k_]]), np.array([[m_]]), np.array([[c_]])
    F = np.array([f0])
    worst = 0.0
    for f in np.linspace(0.05, 3.0, 50):
        u = beam.harmonic_solve(K, M, C, F, f)
        a = osc.amplitude(p, f)
        worst = max(worst, abs(abs(u[0]) - a) / a)
    report(5, "cross-module single-DOF oracle", worst < 1e-10,
           f"max rel dev {worst:.2e} across 50 frequencies")


def test_criterion_06_limit_consistency():
    # KNOWN RED (second clause): near the lightly damped resonances the
    # double-precision representation floor eps * || |D|*|u| || / ||F||
    # reaches ~4e-9, so no double-precision solver can push the
    # F-normalized residual under 1e-10 there (LAPACK zgesv measures worse
    # than this solver, 8.2e-10 against 6.8e-10; extended-precision
    # refinement stalls at ~3e-10).  The solver's normwise backward error
    # is ~9e-18.  Kept faithful to the stated tolerance rather than weakened.
    spec = beam.default_spec()
    damping = beam.default_damping(spec)
    _, red = beam.reduced_system(spec, damping)
    u_static = beam.static_solve(red.kb, red.f)
    u0 = beam.harmonic_solve(red.kb, red.mb, red.cb, red.f, 0.0)
    static_dev = np.abs(u0.real - u_static).max() / np.abs(u_static).max()
    static_ok = static_dev <= 1e-12 and np.all(u0.imag == 0.0)

    worst_resid, worst_floor, n_over = 0.0, 0.0, 0
    f_norm = np.linalg.norm(red.f)
    k, m, c = red.k, red.m, band_to_dense(red.cb)
    for f in beam.default_grid().values:
        u = beam.harmonic_solve(red.kb, red.mb, red.cb, red.f, f)
        w = 2.0 * math.pi * f
        dyn = k - w * w * m + 1j * w * c
        resid = np.linalg.norm(dyn @ u - red.f) / f_norm
        floor = np.finfo(float).eps * np.linalg.norm(np.abs(dyn) @ np.abs(u)) / f_norm
        worst_resid = max(worst_resid, resid)
        worst_floor = max(worst_floor, floor)
        n_over += resid >= 1e-10
    report(6, "limit consistency", static_ok and worst_resid < 1e-10,
           f"w=0 dev {static_dev:.2e}; max sweep residual {worst_resid:.2e} "
           f"({n_over}/{len(beam.default_grid())} frequencies over 1e-10; "
           f"double-precision floor {worst_floor:.2e})")


def test_criterion_07_example1_reproduction(eval_runs):
    out_dir, elapsed = eval_runs[("example1", "a")]
    kv = read_metrics(out_dir / "example1_metrics.txt")
    offpeak = float(kv["test_rel_rmse_offpeak"])
    true_peak = float(kv["true_peaks_1"])
    pred_peak = float(kv["pred_peaks_1"])
    step = (10.0 - 0.1) / 199
    peak_ok = abs(pred_peak - true_peak) <= step * (1.0 + 1e-12)
    report(7, "example 1 reproduction",
           offpeak < 0.05 and peak_ok and elapsed < 300.0,
           f"off-peak test rel RMSE {offpeak:.4f}; argmax {pred_peak:.4f} Hz vs "
           f"{true_peak:.4f} Hz (step {step:.4f}); {elapsed:.0f}s")


def test_criterion_08_example2_reproduction(eval_runs):
    out_dir, elapsed = eval_runs[("example2", "a")]
    kv = read_metrics(out_dir / "example2_metrics.txt")
    test_mse = float(kv["final_test_mse_scaled"])
    freq, true_out, pred_out, _ = read_curves(out_dir / "example2_curves.csv")
    all_matched = True
    peak_note = []
    for c in range(3):
        true_idx, _ = find_peaks(true_out[:, c],
                                 prominence=3.0 * np.median(true_out[:, c]))
        pred_idx, _ = find_peaks(pred_out[:, c])
        ok = all(np.abs(pred_idx - t).min() <= 1 for t in true_idx) \
            if len(true_idx) else True
        if len(true_idx) and len(pred_idx) == 0:
            ok = False
        all_matched &= ok
        peak_note.append(f"ch{c + 1}: {len(true_idx)} peaks "
                         f"{'matched' if ok else 'MISSED'}")
    report(8, "example 2 reproduction",
           all_matched and test_mse < 1e-2 and elapsed < 900.0,
           f"log-space test MSE {test_mse:.2e}; {'; '.join(peak_note)}; {elapsed:.0f}s")


def test_criterion_09_determinism(eval_runs):
    identical = True
    detail = []
    for experiment in ("example1", "example2"):
        dir_a, _ = eval_runs[(experiment, "a")]
        dir_b, _ = eval_runs[(experiment, "b")]
        for stem in ("curves.csv", "metrics.txt"):
            a = (dir_a / f"{experiment}_{stem}").read_bytes()
            b = (dir_b / f"{experiment}_{stem}").read_bytes()
            identical &= a == b
            detail.append(f"{experiment} {stem}: {'==' if a == b else '!='}")
    report(9, "byte-level determinism", identical, "; ".join(detail))


def test_criterion_10_structural_invariants():
    spec = beam.default_spec()
    model = beam.build_mesh(spec)
    # band storage holds one triangle, so symmetry is checked on what the
    # assembly scatters: the element matrices, local and rotated
    to_global = np.kron(np.eye(4), beam.section_frame(spec.axis_direction, spec.section_ref))
    k_loc, m_loc = beam.element_matrices(spec)
    sym_ok = all(np.abs(a - a.T).max() <= 1e-10 * np.abs(a).max()
                 for a in (k_loc, m_loc, to_global.T @ k_loc @ to_global,
                           to_global.T @ m_loc @ to_global))

    _, red = beam.reduced_system(spec)
    pivots_ok = bool(np.all(band_ldlt(red.mb[None]).d > 0.0))

    big_k = band_to_dense(beam.assemble(spec)[0])
    k_scale = np.abs(big_k).max()

    center = model.nodes.mean(axis=0)
    rigid_worst = 0.0
    for d in range(3):
        v = np.zeros(model.n_dof)
        v[d::6] = 1.0
        rigid_worst = max(rigid_worst, np.abs(big_k @ v).max() / k_scale)
    for d in range(3):
        e = np.zeros(3)
        e[d] = 1.0
        v = np.zeros(model.n_dof)
        for i in range(model.n_nodes):
            v[6 * i: 6 * i + 3] = np.cross(e, model.nodes[i] - center)
            v[6 * i + 3: 6 * i + 6] = e
        rigid_worst = max(rigid_worst, np.abs(big_k @ v).max() / k_scale)
    rigid_ok = rigid_worst <= 1e-8

    rng = np.random.default_rng(99)
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    kx = np.array([[0.0, -axis[2], axis[1]],
                   [axis[2], 0.0, -axis[0]],
                   [-axis[1], axis[0], 0.0]])
    rot = np.eye(3) + math.sin(angle) * kx + (1.0 - math.cos(angle)) * (kx @ kx)
    frame = beam.section_frame(spec.axis_direction, spec.section_ref)
    axis2 = rot @ spec.axis_direction
    axis2 /= np.linalg.norm(axis2)
    spec2 = beam.BeamSpec(spec.length, spec.section, spec.material,
                          spec.n_elements, axis_direction=axis2,
                          tip_load=rot @ spec.tip_load,
                          section_ref=rot @ frame[2])
    _, r1 = beam.reduced_system(spec)
    _, r2 = beam.reduced_system(spec2)
    t1 = np.concatenate([np.zeros(6), beam.static_solve(r1.kb, r1.f)]).reshape(-1, 6)[:, :3]
    t2 = np.concatenate([np.zeros(6), beam.static_solve(r2.kb, r2.f)]).reshape(-1, 6)[:, :3]
    equiv_dev = np.abs(t2 - t1 @ rot.T).max() / np.abs(t1).max()
    equiv_ok = equiv_dev < 1e-9

    report(10, "structural invariants",
           sym_ok and pivots_ok and rigid_ok and equiv_ok,
           f"symmetry ok={sym_ok}; reduced-M pivots ok={pivots_ok}; "
           f"rigid-mode residual {rigid_worst:.2e}; equivariance dev {equiv_dev:.2e}")
