"""3D cantilever frame model: Euler-Bernoulli elements with consistent mass,
clamped at node 0, harmonic tip load at the free end.

Per node there are 6 DOFs (ux, uy, uz, rx, ry, rz) in the global frame.
Element matrices are formed in the local frame (x along the beam axis,
y along the section width, z along the section height), rotated to global
coordinates, and scatter-added straight into upper band storage, the
layout the band LDL^T solvers read; the clamp drops node 0's band rows.
The steady-state response solves

    (K - w^2 M + i w C) u = F,  w = 2*pi*f,

with Rayleigh damping C = alpha*M + beta*K.  Natural frequencies come from
multisection on the count of negative LDL^T pivots of K - w^2 M (a Sturm
sequence check); only a handful of validation modes are needed, so no full
eigensolver.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidDamping, InvalidSpec, Singular, SolverError
from .numerics import band_ldlt, band_ldlt_refined, band_to_dense
from .oscillator import FrequencyGrid

# The smallest positive normal double.
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class Material:
    youngs_modulus: float  # E, Pa
    poisson_ratio: float   # nu
    density: float         # rho, kg/m^3

    def __post_init__(self):
        if not (np.isfinite(self.youngs_modulus) and self.youngs_modulus > 0.0):
            raise InvalidSpec(f"youngs_modulus must be > 0, got {self.youngs_modulus}")
        if not (np.isfinite(self.poisson_ratio) and 0.0 <= self.poisson_ratio < 0.5):
            raise InvalidSpec(f"poisson_ratio must be in [0, 0.5), got {self.poisson_ratio}")
        if not (np.isfinite(self.density) and self.density > 0.0):
            raise InvalidSpec(f"density must be > 0, got {self.density}")

    @property
    def shear_modulus(self) -> float:
        return self.youngs_modulus / (2.0 * (1.0 + self.poisson_ratio))


@dataclass(frozen=True)
class CrossSection:
    """Solid rectangle: width b along local y, height h along local z."""

    width: float
    height: float

    def __post_init__(self):
        if not (np.isfinite(self.width) and self.width > 0.0):
            raise InvalidSpec(f"width must be > 0, got {self.width}")
        if not (np.isfinite(self.height) and self.height > 0.0):
            raise InvalidSpec(f"height must be > 0, got {self.height}")

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def i_y(self) -> float:
        """Second moment about local y (bending deflects along local z)."""
        return self.width * self.height ** 3 / 12.0

    @property
    def i_z(self) -> float:
        """Second moment about local z (bending deflects along local y)."""
        return self.height * self.width ** 3 / 12.0

    @property
    def polar_moment(self) -> float:
        return self.i_y + self.i_z

    @property
    def torsion_constant(self) -> float:
        # St. Venant J for a solid rectangle, long side a, short side b:
        # J = a*b^3*(1/3 - 0.21*(b/a)*(1 - b^4/(12 a^4)))
        a = max(self.width, self.height)
        b = min(self.width, self.height)
        return a * b ** 3 * (1.0 / 3.0 - 0.21 * (b / a) * (1.0 - b ** 4 / (12.0 * a ** 4)))


# Matrices factored per band_ldlt call, frequencies in the sweep and shifts
# in the mode finder: a larger batch spreads the per-step Python overhead of
# the band LDL^T, a smaller one bounds the working arrays (a default
# generate peaks 1.1 MiB over its start at 16, 2.4 at 32, 5 at 64).
_BATCH = 32
# Memory budget for the arrays that grow with the mesh.  The model holds 12
# doubles per DOF and matrix; the peak is one sweep batch, where the complex
# dynamic matrices live on with the elimination's working copy, which also
# holds the multipliers, and the solves' right-hand sides and solutions.
# Four complex arrays of _BATCH x 12 entries per DOF bound that with room to
# spare (a 400-point sweep traces 16.9 kB per DOF against the 24.6 here,
# the mode finder's real batches 5.4 kB).
MEMORY_BUDGET = 1 << 30  # bytes
_BYTES_PER_DOF = 4 * 16 * _BATCH * 12


def band_model_bytes(n_elements: int) -> int:
    """Peak bytes of the band working set of an n_elements mesh."""
    return 6 * (n_elements + 1) * _BYTES_PER_DOF


# The largest mesh whose band working set fits MEMORY_BUDGET.
MAX_ELEMENTS = MEMORY_BUDGET // (6 * _BYTES_PER_DOF) - 1


@dataclass(frozen=True)
class BeamSpec:
    length: float
    section: CrossSection
    material: Material
    n_elements: int
    axis_direction: np.ndarray       # 3-vector, global frame; stored normalized
    tip_load: np.ndarray             # harmonic force amplitude at the free end, N
    # Optional reference replacing the default global-z one in the section
    # frame (local y = ref x axis); pass a rotated local z to co-rotate a model.
    section_ref: np.ndarray | None = None

    def __post_init__(self):
        if not (np.isfinite(self.length) and self.length > 0.0):
            raise InvalidSpec(f"length must be > 0, got {self.length}")
        if self.n_elements < 2:
            raise InvalidSpec(f"n_elements must be >= 2, got {self.n_elements}")
        if self.n_elements > MAX_ELEMENTS:
            raise InvalidSpec(
                f"n_elements must be <= {MAX_ELEMENTS}, got {self.n_elements}: its band "
                f"working set needs {band_model_bytes(self.n_elements) / 2 ** 30:.3g} GiB, "
                f"over the {MEMORY_BUDGET / 2 ** 30:g} GiB budget")
        axis = np.asarray(self.axis_direction, dtype=float)
        if axis.shape != (3,) or not np.all(np.isfinite(axis)) or not axis.any():
            raise InvalidSpec(
                f"axis_direction must be a finite, nonzero 3-vector, got {self.axis_direction}")
        with np.errstate(over="ignore"):
            squares = axis @ axis
        if not _TINY <= squares < math.inf:
            # |a|^2 would leave the normal range: scale by the largest component first
            axis = axis / np.abs(axis).max()
        load = np.asarray(self.tip_load, dtype=float)
        if load.shape != (3,) or not np.all(np.isfinite(load)):
            raise InvalidSpec("tip_load must be a finite 3-vector")
        object.__setattr__(self, "axis_direction", axis / np.linalg.norm(axis))
        object.__setattr__(self, "tip_load", load)
        if self.section_ref is not None:
            ref = np.asarray(self.section_ref, dtype=float)
            if ref.shape != (3,) or not np.all(np.isfinite(ref)):
                raise InvalidSpec("section_ref must be a finite 3-vector")
            object.__setattr__(self, "section_ref", ref)

    @property
    def element_length(self) -> float:
        return self.length / self.n_elements


# 304 stainless handbook values; rectangular section with distinct I_y, I_z
# so the two bending-mode families land at different frequencies, and a
# tilted axis so all three global output channels carry resonance peaks.
STEEL = Material(youngs_modulus=193e9, poisson_ratio=0.29, density=8000.0)
DEFAULT_GRID = (1.0, 200.0, 400)
# Shifts per open bracket and round of the mode finder's multisection: each
# round cuts every bracket (_SHIFTS + 1)-fold with one batched elimination
# per _BATCH shifts.  On the default beam 4 was the fastest of 2, 4, 8 and
# 16 (11 rounds).
_SHIFTS = 4
# default_damping: the first mode's damping ratio, and the first bound below
# which that mode is searched.
_DAMPING_RATIO = 0.01
_DAMPING_F_MAX = 200.0


def default_spec() -> BeamSpec:
    return BeamSpec(
        length=1.0,
        section=CrossSection(width=0.03, height=0.02),
        material=STEEL,
        n_elements=20,
        axis_direction=np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0),
        tip_load=np.array([0.0, 10.0, 10.0]),
    )


def default_grid() -> FrequencyGrid:
    return FrequencyGrid.uniform(*DEFAULT_GRID)


def section_frame(axis, section_ref=None) -> np.ndarray:
    """Rows are the local (x, y, z) axes in global coordinates.

    Local y = normalize(ref x axis) with ref = global z by default (global y
    when the beam is near-vertical).  section_ref replaces that default
    reference; since ref plays the role of local z, co-rotating a model means
    passing the rotated local z here.
    """
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    if section_ref is None:
        ref = np.array([0.0, 0.0, 1.0])
        if abs(a @ ref) > 0.99:
            ref = np.array([0.0, 1.0, 0.0])
    else:
        ref = np.asarray(section_ref, dtype=float)
    ly = np.cross(ref, a)
    norm = np.linalg.norm(ly)
    if norm < 1e-10:
        raise InvalidSpec("section_ref is parallel to axis_direction")
    ly /= norm
    lz = np.cross(a, ly)
    return np.vstack([a, ly, lz])


@dataclass
class BeamModel:
    """Mesh and load data derived from a BeamSpec."""

    nodes: np.ndarray        # (n_nodes, 3) coordinates, m
    load: np.ndarray         # (n_dof,) nodal force amplitudes

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_dof(self) -> int:
        return 6 * self.n_nodes


def build_mesh(spec: BeamSpec) -> BeamModel:
    """Uniform 1D mesh along axis_direction from node 0; the tip load goes
    on the translational DOFs of the last node."""
    n = spec.n_elements
    t = np.linspace(0.0, spec.length, n + 1)
    nodes = t[:, None] * spec.axis_direction[None, :]
    load = np.zeros(6 * (n + 1))
    load[6 * n: 6 * n + 3] = spec.tip_load
    return BeamModel(nodes=nodes, load=load)


def element_matrices(spec: BeamSpec) -> tuple[np.ndarray, np.ndarray]:
    """Local 12x12 stiffness and consistent mass of an element; the mesh is
    uniform, so every element has the same ones.

    Local DOF order per node: (ux, uy, uz, rx, ry, rz).  Axial and torsion
    use linear shape functions; the two bending planes use cubic Hermite
    shape functions (no shear deformation, no rotary inertia).

    Raises InvalidSpec when the spec's numbers leave double range on the
    way: a formula that overflows or divides by zero, or, naming the
    matrix, an entry that is not finite or a filled one that is not a
    normal double.
    """
    le = spec.element_length
    mat, sec = spec.material, spec.section
    e_mod, g_mod, rho = mat.youngs_modulus, mat.shear_modulus, mat.density
    area = sec.area

    k = np.zeros((12, 12))
    m = np.zeros((12, 12))
    filled = np.zeros((12, 12), dtype=bool)

    def add(block, idx, target):
        target[np.ix_(idx, idx)] += block
        filled[np.ix_(idx, idx)] = True

    two_node = np.array([[1.0, -1.0], [-1.0, 1.0]])
    consistent_2 = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0

    def bending_k(ei):
        return ei / le ** 3 * np.array([
            [12.0, 6.0 * le, -12.0, 6.0 * le],
            [6.0 * le, 4.0 * le ** 2, -6.0 * le, 2.0 * le ** 2],
            [-12.0, -6.0 * le, 12.0, -6.0 * le],
            [6.0 * le, 2.0 * le ** 2, -6.0 * le, 4.0 * le ** 2],
        ])

    def bending_m():
        return rho * area * le / 420.0 * np.array([
            [156.0, 22.0 * le, 54.0, -13.0 * le],
            [22.0 * le, 4.0 * le ** 2, 13.0 * le, -3.0 * le ** 2],
            [54.0, 13.0 * le, 156.0, -22.0 * le],
            [-13.0 * le, -3.0 * le ** 2, -22.0 * le, 4.0 * le ** 2],
        ])

    # the rotation enters the x-z plane as ry = -dw/dx, flipping the sign of
    # every odd row/column
    flip = np.diag([1.0, -1.0, 1.0, -1.0])
    try:
        # an entry that overflows to inf, or to nan in the flips, is caught below
        with np.errstate(over="ignore", invalid="ignore"):
            # axial (u1, u2) and torsion (rx1, rx2)
            add(e_mod * area / le * two_node, [0, 6], k)
            add(rho * area * le * consistent_2, [0, 6], m)
            add(g_mod * sec.torsion_constant / le * two_node, [3, 9], k)
            add(rho * sec.polar_moment * le * consistent_2, [3, 9], m)
            # bending in the local x-y plane: DOFs (v1, rz1, v2, rz2)
            add(bending_k(e_mod * sec.i_z), [1, 5, 7, 11], k)
            add(bending_m(), [1, 5, 7, 11], m)
            # bending in the local x-z plane: DOFs (w1, ry1, w2, ry2)
            add(flip @ bending_k(e_mod * sec.i_y) @ flip, [2, 4, 8, 10], k)
            add(flip @ bending_m() @ flip, [2, 4, 8, 10], m)
    except (OverflowError, ZeroDivisionError) as exc:
        raise InvalidSpec(f"element matrices are out of double range for this spec "
                          f"({type(exc).__name__})") from None
    for name, block in (("stiffness", k), ("mass", m)):
        if not (np.isfinite(block).all() and (np.abs(block[filled]) >= _TINY).all()):
            raise InvalidSpec(f"element {name} matrix is out of double range for this spec")
    return k, m


def assemble(spec: BeamSpec) -> tuple[np.ndarray, np.ndarray]:
    """Global K, M over all DOFs (constraints not yet applied) in upper band
    storage (n_dof, 12), row i holding A[i, i..i+11].  Element e joins nodes
    e and e+1, DOFs 6e..6e+11, so its block is one slice-add into band rows
    6e..6e+11, in element order."""
    frame = section_frame(spec.axis_direction, spec.section_ref)
    rot = np.zeros((12, 12))
    for b in range(4):
        rot[3 * b: 3 * b + 3, 3 * b: 3 * b + 3] = frame

    k_loc, m_loc = element_matrices(spec)
    k_glob = rot.T @ k_loc @ rot
    m_glob = rot.T @ m_loc @ rot
    # the rotation leaves a rounding-level asymmetry; the band storage holds
    # one triangle, so make the blocks exactly symmetric
    k_glob = 0.5 * (k_glob + k_glob.T)
    m_glob = 0.5 * (m_glob + m_glob.T)

    # the blocks in band layout: blk[r, t] = glob[r, r + t], zero past the block
    r, t = np.indices((12, 12))
    inside = r + t < 12
    k_blk = np.where(inside, k_glob[r, np.minimum(r + t, 11)], 0.0)
    m_blk = np.where(inside, m_glob[r, np.minimum(r + t, 11)], 0.0)

    n_dof = 6 * (spec.n_elements + 1)
    kb = np.zeros((n_dof, 12))
    mb = np.zeros((n_dof, 12))
    for i in range(spec.n_elements):
        kb[6 * i: 6 * i + 12] += k_blk
        mb[6 * i: 6 * i + 12] += m_blk
    return kb, mb


@dataclass
class ReducedSystem:
    """Free-DOF system after clamping node 0, K, M and C in upper band
    storage (n_free, b+1): the full system without its first 6 DOFs."""

    kb: np.ndarray
    mb: np.ndarray
    cb: np.ndarray | None
    f: np.ndarray

    @property
    def free_dofs(self) -> np.ndarray:
        """The full DOF index of each free DOF."""
        return np.arange(6, 6 + self.f.size)

    # dense copies, for oracles that need the full matrices
    @property
    def k(self) -> np.ndarray:
        return band_to_dense(self.kb)

    @property
    def m(self) -> np.ndarray:
        return band_to_dense(self.mb)


def rayleigh_damping(k, m, alpha: float, beta: float) -> np.ndarray:
    """C = alpha*M + beta*K, entry by entry, so band storage in gives band
    storage out.  Raises InvalidDamping unless alpha and beta are finite,
    >= 0 and not both zero."""
    if not (math.isfinite(alpha) and math.isfinite(beta)) \
            or alpha < 0.0 or beta < 0.0 or (alpha == 0.0 and beta == 0.0):
        raise InvalidDamping(
            f"need finite alpha, beta >= 0 and not both zero, got ({alpha}, {beta})")
    # an entry that overflows is caught where the dynamic matrix is formed
    with np.errstate(over="ignore", invalid="ignore"):
        return alpha * np.asarray(m) + beta * np.asarray(k)


def _band_system(kb, mb=None, cb=None) -> tuple[np.ndarray, ...]:
    """K and, where given, M and C (else None) as float upper band storage;
    raises DimensionMismatch unless they share one (n, b+1) shape."""
    mats = [None if x is None else np.asarray(x, dtype=float) for x in (kb, mb, cb)]
    shapes = [x.shape for x in mats if x is not None]
    if len(shapes[0]) != 2 or any(s != shapes[0] for s in shapes):
        raise DimensionMismatch(
            f"K, M and C must be upper band storage (n, b+1) of one shape, got {shapes}")
    return tuple(mats)


def static_solve(kb, f) -> np.ndarray:
    """u = K^-1 F on the reduced system, K in upper band storage: the
    harmonic solve at w = 0, in real arithmetic."""
    u, failures = _solve_frequencies(_band_system(kb), f, np.zeros(1))
    if failures:
        raise Singular(f"stiffness matrix singular at {failures[0]}")
    return u[0]


def _dynamic_matrix(bands, freqs: np.ndarray) -> np.ndarray:
    """Upper band storage of D = K - w^2 M + i w C at each frequency, shape
    (len(freqs), n, b+1); real when the damping term vanishes.  A missing M
    or C counts as zero.  SolverError names the first frequency whose D is
    not finite."""
    kb, mb, cb = bands
    w = (2.0 * math.pi * freqs)[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        stiff = kb - w * w * (0.0 if mb is None else mb)
        if cb is None or not np.any(w):
            dyn = stiff
        else:
            dyn = np.empty(stiff.shape, dtype=complex)
            dyn.real = stiff
            dyn.imag = w * cb
    bad = ~np.isfinite(dyn).all(axis=(1, 2))
    if bad.any():
        raise SolverError(f"K - w^2 M + i w C is out of double range at "
                          f"f = {freqs[bad.argmax()]} Hz")
    return dyn


def _solve_frequencies(bands, f, freqs: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Displacement amplitudes (len(freqs), n) from one batched band solve,
    and a message for each frequency whose dynamic matrix is singular."""
    dyn = _dynamic_matrix(bands, freqs)
    rhs = np.asarray(f, dtype=dyn.dtype)
    if rhs.shape != dyn.shape[1:2]:
        raise DimensionMismatch(f"load shape {rhs.shape} does not match {dyn.shape[1]} DOFs")
    u, fac = band_ldlt_refined(dyn, np.broadcast_to(rhs, dyn.shape[:2]))
    failures = [f"f = {freqs[s]} Hz: {fac.failure(s)}" for s in np.flatnonzero(fac.bad >= 0)]
    return u, failures


def harmonic_solve(kb, mb, cb, f, freq_hz: float) -> np.ndarray:
    """Complex displacement amplitudes solving (K - w^2 M + i w C) u = F,
    with K, M and C (or None) in upper band storage of one shape.

    This is the sweep's batched band solve run on a one-frequency batch, so
    it reproduces a sweep row bit for bit.  When the damping term vanishes
    the dynamic matrix is real and the solve stays in real arithmetic, so
    the w = 0 result is bit-identical to static_solve.
    """
    bands = _band_system(kb, mb, cb)
    u, failures = _solve_frequencies(bands, f, np.array([freq_hz], dtype=float))
    if failures:
        raise Singular(f"dynamic matrix singular at {failures[0]}")
    return u[0].astype(complex, copy=False)


def max_displacements(u) -> np.ndarray:
    """Per global axis, the maximum of |u_axis| over all nodes (translations
    only; the clamped node's zeros never exceed a magnitude, so it is left
    out).

    u holds free-DOF values, 6 per free node, one solution (n_free,) or a
    batch (C, n_free); the result is (3,) or (C, 3).
    """
    u = np.asarray(u)
    if u.ndim not in (1, 2) or u.shape[-1] == 0 or u.shape[-1] % 6:
        raise DimensionMismatch(
            f"expected 6 free-DOF values per free node in each row, got shape {u.shape}")
    return np.abs(u.reshape(*u.shape[:-1], -1, 6)[..., :3]).max(axis=-2)


# --- frequency sweep ---------------------------------------------------------

def reduced_system(spec: BeamSpec, damping: tuple[float, float] | None = None,
                   ) -> tuple[BeamModel, ReducedSystem]:
    """Mesh + assemble + clamp in one step; attaches Rayleigh damping when
    (alpha, beta) is given.  Node 0 is the clamped node, and band rows from
    6 on never reach a column below 6, so the clamp drops the first 6 rows."""
    model = build_mesh(spec)
    kb, mb = assemble(spec)
    red = ReducedSystem(kb=kb[6:], mb=mb[6:], cb=None, f=model.load[6:])
    if damping is not None:
        red.cb = rayleigh_damping(red.kb, red.mb, *damping)
    return model, red


def frequency_sweep(spec: BeamSpec, grid: FrequencyGrid,
                    damping: tuple[float, float]) -> np.ndarray:
    """Per-axis maxima of the displacement magnitudes, (len(grid), 3), one
    row per grid frequency.

    One assembly, then one batched band solve per _BATCH grid frequencies
    (each with one refinement step), so memory stays flat in the grid size.
    A singular frequency does not stop the sweep; every failure is collected
    and one Singular names up to five of them.  A row that is not finite,
    holds a nonzero subnormal, or is all 0 under a nonzero load has left
    double range: SolverError names the first such frequency.
    """
    _, red = reduced_system(spec, damping)
    bands = (red.kb, red.mb, red.cb)
    freqs = grid.values
    rows, failures = [], []
    for start in range(0, freqs.size, _BATCH):
        u, failed = _solve_frequencies(bands, red.f, freqs[start:start + _BATCH])
        rows.append(max_displacements(u))
        failures += failed
    if failures:
        raise Singular(f"{len(failures)} sweep frequencies failed ({'; '.join(failures[:5])})")
    table = np.concatenate(rows)
    bad = ~np.isfinite(table).all(axis=1) | ((table > 0.0) & (table < _TINY)).any(axis=1)
    if red.f.any():
        bad |= ~table.any(axis=1)
    if bad.any():
        i = bad.argmax()
        raise SolverError(f"sweep output at f = {freqs[i]} Hz is out of double range: "
                          f"{table[i].tolist()}")
    return table


def _negative_pivots(bands, shifts: np.ndarray) -> np.ndarray:
    """Count of negative LDL^T pivots of K - w^2 M at each shift (Hz), from
    one batched elimination per _BATCH shifts; a zero pivot raises Singular."""
    counts = []
    for start in range(0, shifts.size, _BATCH):
        batch = shifts[start:start + _BATCH]
        pivots = band_ldlt(_dynamic_matrix(bands, batch)).d
        zero = (pivots == 0.0).any(axis=1)
        if zero.any():
            raise Singular(f"K - w^2 M has a zero pivot at f = {batch[zero.argmax()]} Hz")
        counts.append(np.count_nonzero(pivots < 0.0, axis=1))
    return np.concatenate(counts)


def natural_frequencies(spec: BeamSpec, f_max: float, n_roots: int | None = None,
                        ) -> list[float]:
    """Undamped natural frequencies in (0, f_max), ascending; a repeated root
    is returned once per multiplicity.  With n_roots, only the lowest
    n_roots of them (fewer when fewer lie below f_max) are refined and
    returned, each bit-equal to its value in the full list.

    The number of negative pivots of the LDL^T elimination of K - w^2 M is
    the number of natural frequencies below f (Sylvester's law of inertia;
    the Sturm sequence check of Bathe, Finite Element Procedures, 11.4.3).
    Root i is the smallest f whose count reaches i, found by multisection
    (Lo, Philippe & Sameh, SIAM J. Sci. Stat. Comput. 8, 1987): every round
    counts at _SHIFTS evenly spaced shifts inside every open bracket, at
    most _BATCH shifts per elimination, until each bracket is within a
    relative 1e-6.  A zero pivot at a probed f raises Singular.  Once the
    brackets separate, a root's probes stay inside its own bracket, and a
    member's pivots do not depend on the rest of its batch, so leaving the
    higher brackets closed changes none of the lower roots.
    """
    if not f_max > 0.0:
        raise InvalidSpec(f"f_max must be > 0, got {f_max}")
    if n_roots is not None and n_roots < 1:
        raise InvalidSpec(f"n_roots must be >= 1, got {n_roots}")
    _, red = reduced_system(spec)
    bands = (red.kb, red.mb, None)
    counts = {0.0: 0}  # K is positive definite

    def brackets():
        wanted = counts[f_max] if n_roots is None else min(n_roots, counts[f_max])
        return zip(*_brackets(np.array(list(counts)), np.array(list(counts.values())),
                              wanted))

    steps = np.arange(1, _SHIFTS + 1) / (_SHIFTS + 1)
    shifts = np.linspace(0.0, f_max, _SHIFTS + 2)[1:]  # f_max itself, first round only
    while shifts.size:
        counts.update(zip(shifts.tolist(), _negative_pivots(bands, shifts).tolist()))
        open_ = {(lo, hi) for lo, hi in brackets() if hi - lo > 1e-6 * hi}
        shifts = np.array([lo + (hi - lo) * t for lo, hi in sorted(open_) for t in steps])
    # every root sharing a bracket lies in it and gets its midpoint
    return [0.5 * (lo + hi) for lo, hi in brackets()]


def _brackets(freqs: np.ndarray, counts: np.ndarray, n: int) -> tuple[list, list]:
    """For i = 1..n, the tightest known bracket [lo_i, hi_i] with
    count(lo_i) < i <= count(hi_i): lo_i is the largest probed f with
    count < i, hi_i the smallest with count >= i.  Counts need not be
    monotone in f.  With the probes sorted by count, the first kind is a
    prefix and the second the rest, so a prefix maximum and a suffix
    minimum, indexed by np.searchsorted, give every bracket in
    O(p log p) for p probes.  Needs a probe with count < 1 and one with
    count >= n."""
    order = np.argsort(counts, kind="stable")
    f = freqs[order]
    split = np.searchsorted(counts[order], np.arange(1, n + 1), side="left")
    lo = np.maximum.accumulate(f)[split - 1]
    hi = np.minimum.accumulate(f[::-1])[::-1][split]
    return lo.tolist(), hi.tolist()


def default_damping(spec: BeamSpec) -> tuple[float, float]:
    """Stiffness-proportional damping tuned so the first mode sees the
    damping ratio _DAMPING_RATIO: beta = 2*zeta/(2*pi*f1), alpha = 0.  The
    first mode is searched below _DAMPING_F_MAX, then below 4, 16 and 64
    times that."""
    f_hi = _DAMPING_F_MAX
    for _ in range(4):
        freqs = natural_frequencies(spec, f_hi, n_roots=1)
        if freqs:
            return 0.0, 2.0 * _DAMPING_RATIO / (2.0 * math.pi * freqs[0])
        f_hi *= 4.0
    raise InvalidSpec(f"no natural frequency found below {f_hi / 4.0} Hz")
