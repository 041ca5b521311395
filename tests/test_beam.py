import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest

from fem_surrogate.errors import (DimensionMismatch, InvalidDamping, InvalidSpec, Singular,
                                  SolverError)
from fem_surrogate import beam, dataset
from fem_surrogate.numerics import band_ldlt, band_to_dense
from fem_surrogate import oscillator as osc
from oracles import modal_response

X_AXIS = np.array([1.0, 0.0, 0.0])


def straight_spec(n_elements=20, tip_load=(0.0, 5.0, 0.0)):
    return beam.BeamSpec(length=1.0, section=beam.CrossSection(0.03, 0.02),
                         material=beam.STEEL, n_elements=n_elements,
                         axis_direction=X_AXIS, tip_load=np.array(tip_load))


# --- mesh --------------------------------------------------------------------

def test_mesh_two_elements_node_positions():
    spec = straight_spec(n_elements=2)
    model = beam.build_mesh(spec)
    npt.assert_allclose(model.nodes[:, 0], [0.0, 0.5, 1.0], atol=0)
    npt.assert_array_equal(model.nodes[:, 1:], np.zeros((3, 2)))


def test_mesh_dof_counts():
    model, red = beam.reduced_system(straight_spec(n_elements=20))
    assert model.n_nodes == 21
    assert model.n_dof == 126
    assert red.free_dofs.size == 120
    npt.assert_array_equal(red.free_dofs, np.arange(6, 126))


def test_mesh_tilted_axis_and_load_placement():
    axis = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    spec = beam.BeamSpec(1.2, beam.CrossSection(0.03, 0.02), beam.STEEL, 4,
                         axis_direction=axis, tip_load=np.array([1.0, 2.0, 3.0]))
    model = beam.build_mesh(spec)
    for i in range(5):
        npt.assert_allclose(model.nodes[i], i * 0.3 * axis, rtol=1e-15)
    npt.assert_array_equal(model.load[-6:-3], [1.0, 2.0, 3.0])
    assert np.all(model.load[:-6] == 0.0) and np.all(model.load[-3:] == 0.0)


def test_spec_validation_names_field():
    with pytest.raises(InvalidSpec, match="n_elements"):
        straight_spec(n_elements=1)
    for axis in ([0.0, 0.0, 0.0], [math.inf, 0.0, 0.0], [1.0, 0.0]):
        with pytest.raises(InvalidSpec, match="axis_direction"):
            beam.BeamSpec(1.0, beam.CrossSection(0.03, 0.02), beam.STEEL, 4,
                          axis_direction=np.array(axis), tip_load=np.zeros(3))
    with pytest.raises(InvalidSpec, match="length"):
        beam.BeamSpec(-1.0, beam.CrossSection(0.03, 0.02), beam.STEEL, 4,
                      axis_direction=X_AXIS, tip_load=np.zeros(3))
    with pytest.raises(InvalidSpec, match="poisson"):
        beam.Material(200e9, 0.5, 8000.0)


def test_spec_normalizes_any_finite_nonzero_axis():
    def axis(a):
        return beam.BeamSpec(1.0, beam.CrossSection(0.03, 0.02), beam.STEEL, 4,
                             axis_direction=np.array(a), tip_load=np.zeros(3)).axis_direction

    a = np.array([0.3, -1.0, 2.0])
    npt.assert_array_equal(axis(a), a / np.linalg.norm(a))
    npt.assert_array_equal(axis(axis(a)), axis(a))
    # |a|^2 underflows or overflows: scaled by the largest component first
    npt.assert_array_equal(axis([1e-170, 1e-170, 1e-170]), axis([1.0, 1.0, 1.0]))
    npt.assert_array_equal(axis([1e200, 1.0, -1.0]), [1.0, 1e-200, -1e-200])
    npt.assert_array_equal(axis([1.7e308, -1.7e308, 0.0]), axis([1.0, -1.0, 0.0]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fields, named", [
    ({"length": 1e-200}, "ZeroDivisionError"),            # le^3 underflows to 0
    ({"length": 1e200}, "OverflowError"),                 # le^3 overflows
    ({"width": 1e-200}, "stiffness"),                     # i_z underflows to 0
    ({"youngs_modulus": 1e-303}, "stiffness"),            # 2 E I_y / le is subnormal
    ({"density": 5e-324}, "mass"),                        # rho A le underflows to 0
    ({"length": 1e6, "density": 1.7e308}, "mass"),        # rho A le overflows
])
def test_element_matrices_out_of_double_range_name_the_matrix(fields, named):
    spec = straight_spec()

    def given(part):
        return {k: v for k, v in fields.items() if k in vars(part)}

    spec = dataclasses.replace(
        spec, **given(spec), section=dataclasses.replace(spec.section, **given(spec.section)),
        material=dataclasses.replace(spec.material, **given(spec.material)))
    with pytest.raises(InvalidSpec, match="out of double range") as exc:
        beam.element_matrices(spec)
    assert named in str(exc.value)


# --- element matrices vs shape-function integration ---------------------------

def hermite_bending_matrices(ei, rho_a, le):
    """Independent quadrature route: integrate cubic Hermite shape functions
    (4-point Gauss, exact through degree 7) for one bending plane."""
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(4)

    def shapes(xi):
        n1 = 1.0 - 3.0 * xi ** 2 + 2.0 * xi ** 3
        n2 = le * (xi - 2.0 * xi ** 2 + xi ** 3)
        n3 = 3.0 * xi ** 2 - 2.0 * xi ** 3
        n4 = le * (-xi ** 2 + xi ** 3)
        return np.array([n1, n2, n3, n4])

    def curvatures(xi):
        d1 = (-6.0 + 12.0 * xi) / le ** 2
        d2 = (-4.0 + 6.0 * xi) / le
        d3 = (6.0 - 12.0 * xi) / le ** 2
        d4 = (-2.0 + 6.0 * xi) / le
        return np.array([d1, d2, d3, d4])

    k = np.zeros((4, 4))
    m = np.zeros((4, 4))
    for x, w in zip(gauss_x, gauss_w):
        xi = 0.5 * (x + 1.0)
        wx = 0.5 * w * le  # map [-1, 1] -> [0, le]
        b = curvatures(xi)
        n = shapes(xi)
        k += wx * ei * np.outer(b, b)
        m += wx * rho_a * np.outer(n, n)
    return k, m


def test_element_axial_and_bending_diagonals():
    spec = straight_spec()
    le = spec.element_length
    k, m = beam.element_matrices(spec)
    e_mod = spec.material.youngs_modulus
    assert k[0, 0] == pytest.approx(e_mod * spec.section.area / le, rel=1e-12)
    assert k[1, 1] == pytest.approx(12.0 * e_mod * spec.section.i_z / le ** 3, rel=1e-12)
    assert k[2, 2] == pytest.approx(12.0 * e_mod * spec.section.i_y / le ** 3, rel=1e-12)


def test_element_bending_blocks_match_quadrature():
    spec = straight_spec()
    le = spec.element_length
    k, m = beam.element_matrices(spec)
    rho_a = spec.material.density * spec.section.area

    k_ref, m_ref = hermite_bending_matrices(
        spec.material.youngs_modulus * spec.section.i_z, rho_a, le)
    idx = np.ix_([1, 5, 7, 11], [1, 5, 7, 11])
    npt.assert_allclose(k[idx], k_ref, rtol=1e-12)
    npt.assert_allclose(m[idx], m_ref, rtol=1e-12)

    # the x-z plane uses ry = -dw/dx, i.e. the same matrices conjugated by
    # diag(1, -1, 1, -1)
    flip = np.diag([1.0, -1.0, 1.0, -1.0])
    k_ref2, m_ref2 = hermite_bending_matrices(
        spec.material.youngs_modulus * spec.section.i_y, rho_a, le)
    idx2 = np.ix_([2, 4, 8, 10], [2, 4, 8, 10])
    npt.assert_allclose(k[idx2], flip @ k_ref2 @ flip, rtol=1e-12)
    npt.assert_allclose(m[idx2], flip @ m_ref2 @ flip, rtol=1e-12)


def test_element_symmetry_and_definiteness():
    spec = straight_spec()
    k, m = beam.element_matrices(spec)
    npt.assert_allclose(k, k.T, atol=1e-10 * np.abs(k).max())
    npt.assert_allclose(m, m.T, atol=1e-12 * np.abs(m).max())
    k_eigs = np.linalg.eigvalsh(k)
    # exactly 6 rigid-body modes, the rest strictly positive
    assert np.sum(np.abs(k_eigs) < 1e-6 * k_eigs.max()) == 6
    assert np.all(np.linalg.eigvalsh(m) > 0.0)


def test_element_mass_conserves_translational_mass():
    spec = straight_spec()
    _, m = beam.element_matrices(spec)
    le = spec.element_length
    expected = spec.material.density * spec.section.area * le
    for d in range(3):
        rigid = np.zeros(12)
        rigid[d] = rigid[d + 6] = 1.0
        assert rigid @ m @ rigid == pytest.approx(expected, rel=1e-12)


# --- assembly ----------------------------------------------------------------

def test_assembly_along_x_uses_identity_rotation():
    spec = beam.BeamSpec(0.5, beam.CrossSection(0.03, 0.02), beam.STEEL, 2,
                         axis_direction=X_AXIS, tip_load=np.zeros(3))
    model = beam.build_mesh(spec)
    npt.assert_array_equal(beam.section_frame(spec.axis_direction, spec.section_ref), np.eye(3))
    k_loc, m_loc = beam.element_matrices(spec)
    kb, mb = beam.assemble(spec)
    assert kb.shape == mb.shape == (model.n_dof, 12)
    big_k, big_m = band_to_dense(kb), band_to_dense(mb)
    # element 0's own corner blocks appear untransformed ...
    npt.assert_allclose(big_k[:6, :6], k_loc[:6, :6], rtol=1e-15)
    npt.assert_allclose(big_k[:6, 6:12], k_loc[:6, 6:], rtol=1e-15)
    # ... and the shared middle node accumulates the two element corners
    mid = slice(6, 12)
    npt.assert_allclose(big_k[mid, mid], k_loc[6:, 6:] + k_loc[:6, :6], rtol=1e-15)
    npt.assert_allclose(big_m[mid, mid], m_loc[6:, 6:] + m_loc[:6, :6], rtol=1e-15)


def rotated_element_matrices(spec):
    """Element K and M, local and rotated to the global frame by
    section_frame."""
    rot = np.kron(np.eye(4), beam.section_frame(spec.axis_direction, spec.section_ref))
    k_loc, m_loc = beam.element_matrices(spec)
    return k_loc, m_loc, rot.T @ k_loc @ rot, rot.T @ m_loc @ rot


def test_assembly_symmetry_and_rigid_modes():
    # band storage holds one triangle, so symmetry is checked on the
    # element matrices, local and rotated, that the assembly scatters
    spec = beam.default_spec()
    model = beam.build_mesh(spec)
    for a in rotated_element_matrices(spec):
        assert np.abs(a - a.T).max() <= 1e-10 * np.abs(a).max()
    big_k = band_to_dense(beam.assemble(spec)[0])
    scale = np.abs(big_k).max()

    center = model.nodes.mean(axis=0)
    for d in range(3):
        v = np.zeros(model.n_dof)
        v[d::6] = 1.0
        assert np.abs(big_k @ v).max() <= 1e-8 * scale
    for d in range(3):
        e = np.zeros(3)
        e[d] = 1.0
        v = np.zeros(model.n_dof)
        for i in range(model.n_nodes):
            v[6 * i: 6 * i + 3] = np.cross(e, model.nodes[i] - center)
            v[6 * i + 3: 6 * i + 6] = e
        assert np.abs(big_k @ v).max() <= 1e-8 * scale * max(1.0, np.abs(v).max())


# --- constraints and damping ---------------------------------------------------

def test_apply_constraints_reduces_and_maps_back():
    # the clamp at node 0 drops its 6 rows and columns: in band storage,
    # the first 6 band rows
    spec = straight_spec()
    model = beam.build_mesh(spec)
    kb, mb = beam.assemble(spec)
    _, red = beam.reduced_system(spec)
    assert red.kb.shape == red.mb.shape == (120, 12)
    npt.assert_array_equal(red.k, band_to_dense(kb)[6:, 6:])
    npt.assert_array_equal(red.m, band_to_dense(mb)[6:, 6:])
    npt.assert_array_equal(red.f, model.load[6:])
    npt.assert_array_equal(red.free_dofs, np.arange(6, model.n_dof))


def test_reduced_mass_positive_definite():
    spec = beam.default_spec()
    _, red = beam.reduced_system(spec)
    assert np.all(band_ldlt(red.mb[None]).d > 0.0)
    assert np.all(band_ldlt(red.kb[None]).d > 0.0)


def test_rayleigh_damping_forms():
    k = np.array([[2.0, 0.5], [3.0, 0.0]])   # band storage of [[2, 0.5], [0.5, 3]]
    m = np.array([[1.0, 0.0], [1.0, 0.0]])
    npt.assert_allclose(beam.rayleigh_damping(k, m, 0.0, 0.001), 0.001 * k, atol=0)
    npt.assert_allclose(beam.rayleigh_damping(k, m, 1.0, 0.0), m, atol=0)
    for alpha, beta in ((0.0, 0.0), (-1.0, 0.001), (math.nan, 0.001), (0.0, math.inf)):
        with pytest.raises(InvalidDamping):
            beam.rayleigh_damping(k, m, alpha, beta)


def test_default_damping_hits_target_modal_ratio():
    spec = beam.default_spec()
    alpha, beta = beam.default_damping(spec)
    assert alpha == 0.0
    f1 = beam.natural_frequencies(spec, 50.0)[0]
    zeta = beta * (2.0 * math.pi * f1) / 2.0
    assert zeta == pytest.approx(0.01, rel=1e-6)


# --- solves ------------------------------------------------------------------

def test_static_tip_deflection_matches_cantilever_formula():
    spec = straight_spec(tip_load=(0.0, 5.0, 0.0))
    _, red = beam.reduced_system(spec)
    u = beam.static_solve(red.kb, red.f)
    ux, uy, uz = beam.max_displacements(u.astype(complex))
    expected = 5.0 * spec.length ** 3 / (3.0 * spec.material.youngs_modulus
                                         * spec.section.i_z)
    assert uy == pytest.approx(expected, rel=5e-3)
    # tip is the deflection maximum and the other channels stay numerically zero
    full = np.concatenate([np.zeros(6), u])
    assert abs(full[6 * 20 + 1]) == pytest.approx(uy, rel=1e-12)
    assert ux < 1e-12 * uy and uz < 1e-12 * uy


def test_static_solve_linearity_and_zero_load():
    spec = straight_spec()
    _, red = beam.reduced_system(spec)
    npt.assert_array_equal(beam.static_solve(red.kb, np.zeros(120)), np.zeros(120))
    u1 = beam.static_solve(red.kb, red.f)
    u2 = beam.static_solve(red.kb, 2.0 * red.f)
    npt.assert_allclose(u2, 2.0 * u1, rtol=1e-12)


def test_harmonic_zero_frequency_equals_static_bitwise():
    spec = beam.default_spec()
    _, red = beam.reduced_system(spec, damping=(0.0, 2e-4))
    u_static = beam.static_solve(red.kb, red.f)
    u0 = beam.harmonic_solve(red.kb, red.mb, red.cb, red.f, 0.0)
    npt.assert_array_equal(u0.real, u_static)
    assert np.all(u0.imag == 0.0)


def test_harmonic_single_dof_matches_oscillator():
    m_, c_, k_, f0 = 2.0, 0.3, 50.0, 1.5
    p = osc.OscillatorParams(m_, c_, k_, f0)
    K, M, C = np.array([[k_]]), np.array([[m_]]), np.array([[c_]])
    F = np.array([f0])
    for f in np.linspace(0.05, 3.0, 50):
        u = beam.harmonic_solve(K, M, C, F, f)
        assert abs(u[0]) == pytest.approx(osc.amplitude(p, f), rel=1e-10)


def test_harmonic_residual_is_tiny():
    spec = beam.default_spec()
    _, red = beam.reduced_system(spec, damping=beam.default_damping(spec))
    rng = np.random.default_rng(1)
    for f in rng.uniform(1.0, 200.0, size=8):
        u = beam.harmonic_solve(red.kb, red.mb, red.cb, red.f, f)
        w = 2.0 * math.pi * f
        dyn = red.k - w * w * red.m + 1j * w * band_to_dense(red.cb)
        resid = np.linalg.norm(dyn @ u - red.f) / np.linalg.norm(red.f)
        assert resid < 1e-10


def test_harmonic_undamped_resonance_is_singular():
    k = np.array([[4.0]])
    m = np.array([[1.0]])
    f_res = 2.0 / (2.0 * math.pi)
    with pytest.raises(Singular):
        beam.harmonic_solve(k, m, None, np.array([1.0]), f_res)


def test_harmonic_rejects_mismatched_shapes():
    # upper band storage (3, 2): three DOFs, one off-diagonal
    k, m, c = np.array([[4.0, 1.0], [3.0, 1.0], [2.0, 0.0]]), np.ones((3, 2)), np.ones((3, 2))
    with pytest.raises(DimensionMismatch):
        beam.harmonic_solve(k, m, c, np.ones(1), 1.0)
    with pytest.raises(DimensionMismatch):
        beam.harmonic_solve(k, np.ones((2, 2)), c, np.ones(3), 1.0)
    with pytest.raises(DimensionMismatch):
        beam.harmonic_solve(k, m, np.ones((3, 1)), np.ones(3), 1.0)
    with pytest.raises(DimensionMismatch):
        beam.static_solve(np.ones(3), np.ones(3))


def test_dynamic_pivots_have_positive_imaginary_part():
    """Why the sweep needs no pivoting: with Rayleigh damping Im D = wC is
    positive definite, and so is every Schur complement's imaginary part,
    so no pivot can vanish."""
    spec = beam.default_spec()
    _, red = beam.reduced_system(spec, beam.default_damping(spec))
    w = 2.0 * math.pi * beam.default_grid().values[:, None, None]
    pivots = band_ldlt(red.kb - w * w * red.mb + 1j * w * red.cb).d
    assert np.all(pivots.imag > 0.0)


def test_harmonic_peaks_near_first_mode():
    spec = beam.default_spec()
    f1 = beam.natural_frequencies(spec, 50.0)[0]
    _, red = beam.reduced_system(spec, damping=beam.default_damping(spec))
    grid = np.linspace(f1 - 1.0, f1 + 1.0, 41)
    mags = [beam.max_displacements(
        beam.harmonic_solve(red.kb, red.mb, red.cb, red.f, f))[1]
        for f in grid]
    step = grid[1] - grid[0]
    assert abs(grid[int(np.argmax(mags))] - f1) <= step


def test_max_displacements_contract():
    spec = straight_spec(n_elements=4)
    _, red = beam.reduced_system(spec)
    n_free = red.free_dofs.size
    npt.assert_array_equal(
        beam.max_displacements(np.zeros(n_free, dtype=complex)), [0.0, 0.0, 0.0])
    u = np.zeros(n_free, dtype=complex)
    u[-6] = 1.0 + 0.0j  # tip node ux
    npt.assert_array_equal(beam.max_displacements(u), [1.0, 0.0, 0.0])
    v = np.zeros(n_free, dtype=complex)
    v[2] = -2.0j        # first free node: uz counts,
    v[5] = 7.0          # its rotation rz does not
    npt.assert_array_equal(beam.max_displacements(np.stack([u, v, u + v])),
                           [[1.0, 0.0, 0.0], [0.0, 0.0, 2.0], [1.0, 0.0, 2.0]])
    with pytest.raises(DimensionMismatch):
        beam.max_displacements(np.zeros((2, 3, n_free)))
    for width in (0, n_free - 1):  # not 6 values per node
        with pytest.raises(DimensionMismatch):
            beam.max_displacements(np.zeros(width))


# --- sweep -------------------------------------------------------------------

def test_sweep_quasi_static_row():
    spec = straight_spec(tip_load=(0.0, 5.0, 0.0))
    _, red = beam.reduced_system(spec)
    static = beam.max_displacements(beam.static_solve(red.kb, red.f).astype(complex))
    table = beam.frequency_sweep(spec, osc.FrequencyGrid(np.array([0.01])),
                                 damping=(0.0, 2e-4))
    assert table.shape == (1, 3)
    npt.assert_allclose(table[0], static, rtol=1e-4)


def test_sweep_default_has_multiple_peaks_per_transverse_channel():
    from scipy.signal import find_peaks
    spec = beam.default_spec()
    table = beam.frequency_sweep(spec, beam.default_grid(),
                                 beam.default_damping(spec))
    peaks_y, _ = find_peaks(table[:, 1])
    peaks_z, _ = find_peaks(table[:, 2])
    assert len(peaks_y) >= 2 and len(peaks_z) >= 2
    freqs = beam.default_grid().values
    assert len(set(freqs[peaks_y]) | set(freqs[peaks_z])) >= 2


def test_sweep_damping_sensitivity():
    spec = beam.default_spec()
    grid = osc.FrequencyGrid.uniform(5.0, 60.0, 111)
    alpha, beta = beam.default_damping(spec)
    full = beam.frequency_sweep(spec, grid, (alpha, beta))[:, 1]
    half = beam.frequency_sweep(spec, grid, (alpha, 0.5 * beta))[:, 1]
    from scipy.signal import find_peaks
    peaks, _ = find_peaks(full)
    assert len(peaks) >= 1
    for i in peaks:
        assert half[i] > full[i]
    # away from resonance peaks and anti-resonance dips damping barely matters
    dips, _ = find_peaks(-full)
    features = grid.values[np.concatenate([peaks, dips])]
    off = [i for i in range(len(grid))
           if np.abs(grid.values[i] - features).min() > 5.0]
    assert len(off) >= 20
    rel = np.abs(half[off] - full[off]) / full[off]
    assert rel.max() < 0.01


@pytest.mark.parametrize("n_points", [1, 15, 16, 17, 31, 32, 33, 64, 65])
def test_sweep_rows_bit_equal_one_frequency_solves(n_points):
    # 31, 32, 33, 64 and 65 points straddle the 32-frequency chunk edges
    # (15, 16 and 17 those of an earlier 16-frequency chunk)
    spec = beam.default_spec()
    damping = (0.0, 2e-4)
    grid = osc.FrequencyGrid.uniform(3.0, 190.0, n_points)
    table = beam.frequency_sweep(spec, grid, damping)
    _, red = beam.reduced_system(spec, damping)
    for i, f in enumerate(grid.values):
        npt.assert_array_equal(
            table[i],
            beam.max_displacements(beam.harmonic_solve(red.kb, red.mb, red.cb, red.f, f)))


def _refined_dense_solve(d, f, steps=3):
    """LAPACK's partial-pivot LU solve (zgesv) plus iterative refinement with
    the residual f - d u formed in extended precision: zgesv alone can be
    1.25e-9 from the exact solution of the same d near an anti-resonance."""
    import scipy.linalg
    lu = scipy.linalg.lu_factor(d)
    u = scipy.linalg.lu_solve(lu, f)
    d_ext, f_ext = d.astype(np.clongdouble), f.astype(np.clongdouble)
    for _ in range(steps):
        r = (f_ext - d_ext @ u.astype(np.clongdouble)).astype(complex)
        u = u + scipy.linalg.lu_solve(lu, r)
    return u


def test_default_sweep_matches_scipy_solve():
    """Each row against a refined scipy LU solve of the dense D_f, normwise
    per row (deviation over the row's largest channel): a channel far below
    the others, such as uy near its 10 Hz anti-resonance, carries the
    solution's normwise error, so it sets the deviation there."""
    spec = beam.default_spec()
    damping = beam.default_damping(spec)
    table = beam.frequency_sweep(spec, beam.default_grid(), damping)
    _, red = beam.reduced_system(spec, damping)
    for i, f in enumerate(beam.default_grid().values):
        w = 2.0 * math.pi * f
        ref = beam.max_displacements(
            _refined_dense_solve(red.k - w * w * red.m + 1j * w * band_to_dense(red.cb), red.f))
        assert np.abs(table[i] - ref).max() <= 1e-9 * ref.max()


def test_default_sweep_matches_modal_superposition():
    """The whole default sweep against the modal solution of the same K and
    M: this checks the Rayleigh damping and the band build, not only the
    solve (2.9e-9 at most, cell by cell)."""
    spec = beam.default_spec()
    alpha, beta = beam.default_damping(spec)
    grid = beam.default_grid()
    table = beam.frequency_sweep(spec, grid, (alpha, beta))
    _, red = beam.reduced_system(spec)
    ref = beam.max_displacements(modal_response(red.k, red.m, red.f, alpha, beta, grid.values))
    npt.assert_allclose(table, ref, rtol=1e-7, atol=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dynamic_matrix_out_of_double_range_names_the_frequency():
    _, red = beam.reduced_system(beam.default_spec())
    cb = beam.rayleigh_damping(red.kb, red.mb, 0.0, 1e300)  # overflows to inf
    with pytest.raises(SolverError, match=r"out of double range at f = 3\.0 Hz"):
        beam.harmonic_solve(red.kb, red.mb, cb, red.f, 3.0)
    with pytest.raises(SolverError, match=r"at f = 0\.5 Hz"):
        beam.harmonic_solve(red.kb, np.full_like(red.mb, 1e308), None, red.f, 0.5)


def test_sweep_collects_every_singular_frequency(monkeypatch, tmp_path):
    grid = osc.FrequencyGrid.uniform(1.0, 40.0, 40)
    broken = grid.values[[0, 3, 15, 16, 20, 33, 39]]
    build = beam._dynamic_matrix

    def with_zero_row(bands, freqs):
        dyn = build(bands, freqs)
        dyn[np.isin(freqs, broken), 0, :] = 0.0
        return dyn

    monkeypatch.setattr(beam, "_dynamic_matrix", with_zero_row)
    with pytest.raises(Singular) as info:
        beam.frequency_sweep(beam.default_spec(), grid, (0.0, 2e-4))
    message = str(info.value)
    assert message.startswith("7 sweep frequencies failed")
    for f in broken[:5]:
        assert f"f = {f} Hz: pivot" in message
    assert f"f = {broken[5]} Hz" not in message
    with pytest.raises(Singular, match="dynamic matrix singular at f = 16.0 Hz: pivot"):
        _, red = beam.reduced_system(beam.default_spec(), (0.0, 2e-4))
        beam.harmonic_solve(red.kb, red.mb, red.cb, red.f, 16.0)

    from fem_surrogate import cli
    out = tmp_path / "sweep.csv"
    rc = cli.main(["generate", "--experiment", "example2", "--grid-start", "1",
                   "--grid-stop", "40", "--grid-points", "40", "--out", str(out)])
    assert rc == 3
    assert not out.exists()


def test_sweep_csv_round_trip(tmp_path):
    spec = beam.default_spec()
    grid = osc.FrequencyGrid.uniform(5.0, 30.0, 7)
    table = beam.frequency_sweep(spec, grid, (0.0, 2e-4))
    path = tmp_path / "table.csv"
    dataset.write_csv(path, grid.values, table)
    header = path.read_text().splitlines()[0]
    assert header == "freq_hz,ux_max,uy_max,uz_max"
    freqs, outputs = dataset.read_csv(path)
    npt.assert_array_equal(freqs, grid.values)
    npt.assert_array_equal(outputs, table)


# --- natural frequencies -------------------------------------------------------

def euler_bernoulli_cantilever_hz(spec, i_area, mode_constant):
    return (mode_constant ** 2 / (2.0 * math.pi)) * math.sqrt(
        spec.material.youngs_modulus * i_area
        / (spec.material.density * spec.section.area * spec.length ** 4))


def test_first_mode_matches_euler_bernoulli():
    spec = beam.default_spec()
    freqs = beam.natural_frequencies(spec, 200.0)
    f1_ref = euler_bernoulli_cantilever_hz(spec, spec.section.i_y, 1.875104)
    assert freqs[0] == pytest.approx(f1_ref, rel=0.01)


def test_same_plane_second_mode_ratio():
    spec = beam.default_spec()
    freqs = np.array(beam.natural_frequencies(spec, 200.0))
    ratio = 6.267
    # the second mode of the fundamental bending plane is the list entry
    # closest to 6.267 x f1 (the next ascending entry is the other plane)
    partner = freqs[np.argmin(np.abs(freqs - ratio * freqs[0]))]
    assert partner / freqs[0] == pytest.approx(ratio, rel=0.02)


def test_both_bending_plane_families_found():
    spec = beam.default_spec()
    freqs = np.array(beam.natural_frequencies(spec, 200.0))
    assert len(freqs) == 4
    expected = sorted([
        euler_bernoulli_cantilever_hz(spec, spec.section.i_y, 1.875104),
        euler_bernoulli_cantilever_hz(spec, spec.section.i_z, 1.875104),
        euler_bernoulli_cantilever_hz(spec, spec.section.i_y, 4.694091),
        euler_bernoulli_cantilever_hz(spec, spec.section.i_z, 4.694091),
    ])
    npt.assert_allclose(freqs, expected, rtol=0.01)


def cantilever_mode_constants(n):
    """The first n roots of cos(x) cosh(x) = -1, the clamped-free bending
    mode constants beta_i L; root i lies within 0.5 of (i - 1/2) pi."""
    from scipy.optimize import brentq
    return [brentq(lambda x: math.cos(x) + 1.0 / math.cosh(x),
                   (i - 0.5) * math.pi - 0.5, (i - 0.5) * math.pi + 0.5, xtol=1e-14)
            for i in range(1, n + 1)]


def test_axial_and_torsional_modes_match_closed_forms():
    # x-aligned default beam: below 1300 Hz lie 5 + 4 bending modes of the two
    # planes, the first torsion mode (650 Hz) and the first axial one (1228 Hz)
    spec = straight_spec()
    sec, mat, length = spec.section, spec.material, spec.length
    bending = [euler_bernoulli_cantilever_hz(spec, i_area, c)
               for i_area in (sec.i_y, sec.i_z) for c in cantilever_mode_constants(6)]
    torsion = math.sqrt(mat.shear_modulus * sec.torsion_constant
                        / (mat.density * sec.polar_moment)) / (4.0 * length)
    axial = math.sqrt(mat.youngs_modulus / mat.density) / (4.0 * length)
    expected = sorted([f for f in bending if f < 1300.0] + [torsion, axial])
    assert len(expected) == 11
    assert torsion == pytest.approx(649.7, abs=0.1) and axial == pytest.approx(1227.9, abs=0.1)
    npt.assert_allclose(beam.natural_frequencies(spec, 1300.0), expected, rtol=1e-3)


def test_mesh_convergence_of_frequencies():
    base = beam.default_spec()
    coarse = beam.BeamSpec(base.length, base.section, base.material, 10,
                           base.axis_direction, base.tip_load)
    fine = beam.BeamSpec(base.length, base.section, base.material, 40,
                         base.axis_direction, base.tip_load)
    fc = np.array(beam.natural_frequencies(coarse, 200.0))
    ff = np.array(beam.natural_frequencies(fine, 200.0))
    assert len(fc) == len(ff)
    npt.assert_allclose(fc, ff, rtol=5e-3)


def test_pivot_count_steps_by_one_across_modes():
    spec = beam.default_spec()
    _, red = beam.reduced_system(spec)

    def count_below(f):
        w = 2.0 * math.pi * f
        return int(np.count_nonzero(band_ldlt((red.kb - w * w * red.mb)[None]).d < 0.0))

    freqs = beam.natural_frequencies(spec, 200.0)
    assert len(freqs) == 4
    for i, f in enumerate(freqs):
        assert count_below(0.99 * f) == i
        assert count_below(1.01 * f) == i + 1


def test_zero_pivot_raises_singular_naming_frequency(monkeypatch):
    build = beam._dynamic_matrix

    def zero_pivot_at_f_max(bands, freqs):
        dyn = build(bands, freqs)
        dyn[freqs == 200.0, 0, :] = 0.0
        return dyn

    monkeypatch.setattr(beam, "_dynamic_matrix", zero_pivot_at_f_max)
    with pytest.raises(Singular, match="f = 200.0 Hz"):
        beam.natural_frequencies(beam.default_spec(), 200.0)


def section_spec(width, height):
    base = beam.default_spec()
    return beam.BeamSpec(base.length, beam.CrossSection(width, height), base.material,
                         base.n_elements, base.axis_direction, base.tip_load)


def eigh_hz(spec):
    import scipy.linalg
    _, red = beam.reduced_system(spec)
    return np.sqrt(scipy.linalg.eigh(red.k, red.m, eigvals_only=True)) / (2.0 * math.pi)


# default section; two close bending planes; a square section with repeated roots
SECTIONS = pytest.mark.parametrize("width, height", [(0.03, 0.02), (0.0201, 0.02), (0.02, 0.02)],
                                   ids=["default", "close", "square"])


@SECTIONS
def test_natural_frequencies_match_eigh_with_multiplicity(width, height):
    spec = section_spec(width, height)
    ref = eigh_hz(spec)
    ref = ref[ref <= 200.0]
    freqs = beam.natural_frequencies(spec, 200.0)
    assert len(freqs) == len(ref) == 4
    npt.assert_allclose(freqs, ref, rtol=1e-6)


@SECTIONS
def test_default_damping_matches_eigh_first_mode(width, height):
    spec = section_spec(width, height)
    alpha, beta = beam.default_damping(spec)
    assert alpha == 0.0
    zeta = beta * (2.0 * math.pi * eigh_hz(spec)[0]) / 2.0
    assert zeta == pytest.approx(0.01, rel=1e-6)


def test_mode_finder_factors_at_most_32_shifts_per_call(monkeypatch):
    # a 100 m square beam has 182 natural frequencies below 200 Hz, most of
    # them in pairs, so a multisection round holds far more than 32 shifts
    import scipy.linalg
    base = beam.default_spec()
    spec = beam.BeamSpec(100.0, beam.CrossSection(0.02, 0.02), base.material, 40,
                         base.axis_direction, base.tip_load)
    sizes = []

    def recording(ab):
        sizes.append(len(ab))
        return band_ldlt(ab)

    monkeypatch.setattr(beam, "band_ldlt", recording)
    freqs = np.array(beam.natural_frequencies(spec, 200.0))
    assert max(sizes) == 32  # every call within the cap, and the cap was reached

    _, red = beam.reduced_system(spec)
    lam = scipy.linalg.eigh(red.k, red.m, eigvals_only=True)
    ref = np.sqrt(lam[lam <= (2.0 * math.pi * 200.0) ** 2]) / (2.0 * math.pi)
    assert len(freqs) == len(ref) > 8
    # rounding moves an eigenvalue by about eps * lam_max in eigh and in the
    # pivot count alike (lam spans 1e-4 to 5e7 here), which outweighs the
    # 1e-6 bracket for the lowest roots
    floor = np.finfo(float).eps * lam.max() / (8.0 * math.pi ** 2 * ref)
    assert np.all(np.abs(freqs - ref) <= 1e-6 * ref + floor)


def long_spec():
    # a 100 m beam puts 36 roots below 200 Hz on 6 elements, so the lowest
    # brackets share every round with many other open ones
    base = beam.default_spec()
    return beam.BeamSpec(100.0, base.section, base.material, 6,
                         base.axis_direction, base.tip_load)


@pytest.mark.parametrize("spec", [beam.default_spec(), section_spec(0.02, 0.02), long_spec()],
                         ids=["default", "square", "100m"])
def test_first_roots_bit_equal_full_scan(spec):
    full = beam.natural_frequencies(spec, 200.0)
    assert len(full) >= 4
    for k in range(1, len(full) + 2):
        assert beam.natural_frequencies(spec, 200.0, n_roots=k) == full[:k]
    alpha, beta = beam.default_damping(spec)
    assert (alpha, beta) == (0.0, 2.0 * 0.01 / (2.0 * math.pi * full[0]))


def test_first_roots_scan_needs_a_positive_count():
    with pytest.raises(InvalidSpec, match="n_roots"):
        beam.natural_frequencies(beam.default_spec(), 200.0, n_roots=0)


def _brute_brackets(freqs, counts, n):
    pairs = list(zip(freqs.tolist(), counts.tolist()))
    return ([max(f for f, c in pairs if c < i) for i in range(1, n + 1)],
            [min(f for f, c in pairs if c >= i) for i in range(1, n + 1)])


def test_brackets_match_brute_force_definition():
    # counts out of order in f (rounding can do this near a cluster), with
    # ties and probes that arrive unsorted
    freqs = np.array([0.0, 9.0, 5.0, 2.0, 7.0, 3.0, 1.0, 8.0, 4.0, 6.0, 2.5])
    counts = np.array([0, 6, 3, 2, 4, 1, 1, 5, 4, 2, 2])
    assert beam._brackets(freqs, counts, 6) == _brute_brackets(freqs, counts, 6)
    rng = np.random.default_rng(17)
    for _ in range(20):
        f = np.concatenate([[0.0], rng.permutation(rng.uniform(0.0, 10.0, 30)), [10.0]])
        c = np.concatenate([[0], rng.integers(0, 8, 30), [8]])
        assert beam._brackets(f, c, 8) == _brute_brackets(f, c, 8)


# --- orientation equivariance --------------------------------------------------

def rotation_matrix(axis, angle):
    axis = axis / np.linalg.norm(axis)
    kx = np.array([[0.0, -axis[2], axis[1]],
                   [axis[2], 0.0, -axis[0]],
                   [-axis[1], axis[0], 0.0]])
    return np.eye(3) + math.sin(angle) * kx + (1.0 - math.cos(angle)) * (kx @ kx)


def test_orientation_equivariance_static_and_harmonic():
    rng = np.random.default_rng(42)
    spec1 = beam.default_spec()
    frame1 = beam.section_frame(spec1.axis_direction, spec1.section_ref)
    for _ in range(3):
        rot = rotation_matrix(rng.standard_normal(3), rng.uniform(0.0, 2.0 * math.pi))
        axis2 = rot @ spec1.axis_direction
        axis2 /= np.linalg.norm(axis2)
        spec2 = beam.BeamSpec(spec1.length, spec1.section, spec1.material,
                              spec1.n_elements, axis_direction=axis2,
                              tip_load=rot @ spec1.tip_load,
                              section_ref=rot @ frame1[2])
        _, r1 = beam.reduced_system(spec1, damping=(0.0, 2e-4))
        _, r2 = beam.reduced_system(spec2, damping=(0.0, 2e-4))
        for solve in (lambda r: beam.static_solve(r.kb, r.f).astype(complex),
                      lambda r: beam.harmonic_solve(r.kb, r.mb, r.cb, r.f, 40.0)):
            t1 = np.concatenate([np.zeros(6), solve(r1)]).reshape(-1, 6)[:, :3]
            t2 = np.concatenate([np.zeros(6), solve(r2)]).reshape(-1, 6)[:, :3]
            dev = np.abs(t2 - t1 @ rot.T).max() / np.abs(t1).max()
            assert dev < 1e-9
