"""3D cantilever frame model: Euler-Bernoulli elements with consistent mass,
clamped at node 0, harmonic tip load at the free end.

Per node there are 6 DOFs (ux, uy, uz, rx, ry, rz) in the global frame.
Element matrices are formed in the local frame (x along the beam axis,
y along the section width, z along the section height), rotated to global
coordinates, and scatter-added.  Constraints are applied by row/column
elimination.  The steady-state response solves

    (K - w^2 M + i w C) u = F,  w = 2*pi*f,

with Rayleigh damping C = alpha*M + beta*K.  Natural frequencies come from
bisection on the count of negative LDL^T pivots of K - w^2 M (a Sturm
sequence check); only a handful of validation modes are needed, so no full
eigensolver.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySystem,
    InvalidDamping,
    InvalidSpec,
    Singular,
)
from .numerics import (
    band_solve_refined,
    band_storage,
    bandwidth,
    solve_refined,
    symmetric_pivots,
)
from .oscillator import FrequencyGrid


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


@dataclass(frozen=True)
class BeamSpec:
    length: float
    section: CrossSection
    material: Material
    n_elements: int
    axis_direction: np.ndarray       # unit 3-vector, global frame
    tip_load: np.ndarray             # harmonic force amplitude at the free end, N
    # Optional reference replacing the default global-z one in the section
    # frame (local y = ref x axis); pass a rotated local z to co-rotate a model.
    section_ref: np.ndarray | None = None

    def __post_init__(self):
        if not (np.isfinite(self.length) and self.length > 0.0):
            raise InvalidSpec(f"length must be > 0, got {self.length}")
        if self.n_elements < 2:
            raise InvalidSpec(f"n_elements must be >= 2, got {self.n_elements}")
        axis = np.asarray(self.axis_direction, dtype=float)
        if axis.shape != (3,) or not np.all(np.isfinite(axis)):
            raise InvalidSpec("axis_direction must be a finite 3-vector")
        if abs(np.linalg.norm(axis) - 1.0) > 1e-12:
            raise InvalidSpec(
                f"axis_direction must be a unit vector, |a| = {np.linalg.norm(axis)!r}")
        load = np.asarray(self.tip_load, dtype=float)
        if load.shape != (3,) or not np.all(np.isfinite(load)):
            raise InvalidSpec("tip_load must be a finite 3-vector")
        object.__setattr__(self, "axis_direction", axis)
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
# Sweep frequencies factored per batch: a larger batch spreads the per-step
# Python overhead of the band LU, a smaller one bounds the working arrays
# (all 400 default frequencies at once raise peak memory by about 50 MiB).
_SWEEP_CHUNK = 16


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
    """Mesh, constraint, and load data derived from a BeamSpec."""

    nodes: np.ndarray        # (n_nodes, 3) coordinates, m
    elements: np.ndarray     # (n_elements, 2) node index pairs
    fixed_dofs: np.ndarray   # global DOF indices clamped to zero
    load: np.ndarray         # (n_dof,) nodal force amplitudes
    frame: np.ndarray        # (3, 3) local axes as rows

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_dof(self) -> int:
        return 6 * self.n_nodes

    @property
    def free_dofs(self) -> np.ndarray:
        return np.setdiff1d(np.arange(self.n_dof), self.fixed_dofs)


def build_mesh(spec: BeamSpec) -> BeamModel:
    """Uniform 1D mesh along axis_direction; node 0 fully clamped; the tip
    load goes on the translational DOFs of the last node."""
    n = spec.n_elements
    t = np.linspace(0.0, spec.length, n + 1)
    nodes = t[:, None] * spec.axis_direction[None, :]
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    fixed = np.arange(6)
    load = np.zeros(6 * (n + 1))
    load[6 * n: 6 * n + 3] = spec.tip_load
    frame = section_frame(spec.axis_direction, spec.section_ref)
    return BeamModel(nodes=nodes, elements=elements, fixed_dofs=fixed,
                     load=load, frame=frame)


def element_matrices(spec: BeamSpec, element_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Local 12x12 stiffness and consistent mass of one element.

    Local DOF order per node: (ux, uy, uz, rx, ry, rz).  Axial and torsion
    use linear shape functions; the two bending planes use cubic Hermite
    shape functions (no shear deformation, no rotary inertia).
    """
    if not 0 <= element_index < spec.n_elements:
        raise InvalidSpec(
            f"element_index must be in [0, {spec.n_elements}), got {element_index}")
    le = spec.element_length
    mat, sec = spec.material, spec.section
    e_mod, g_mod, rho = mat.youngs_modulus, mat.shear_modulus, mat.density
    area = sec.area

    k = np.zeros((12, 12))
    m = np.zeros((12, 12))

    def add(block, idx, target):
        target[np.ix_(idx, idx)] += block

    two_node = np.array([[1.0, -1.0], [-1.0, 1.0]])
    consistent_2 = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0

    # axial (u1, u2) and torsion (rx1, rx2)
    add(e_mod * area / le * two_node, [0, 6], k)
    add(rho * area * le * consistent_2, [0, 6], m)
    add(g_mod * sec.torsion_constant / le * two_node, [3, 9], k)
    add(rho * sec.polar_moment * le * consistent_2, [3, 9], m)

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

    # bending in the local x-y plane: DOFs (v1, rz1, v2, rz2)
    add(bending_k(e_mod * sec.i_z), [1, 5, 7, 11], k)
    add(bending_m(), [1, 5, 7, 11], m)

    # bending in the local x-z plane: DOFs (w1, ry1, w2, ry2); the rotation
    # enters as ry = -dw/dx, flipping the sign of every odd row/column.
    flip = np.diag([1.0, -1.0, 1.0, -1.0])
    add(flip @ bending_k(e_mod * sec.i_y) @ flip, [2, 4, 8, 10], k)
    add(flip @ bending_m() @ flip, [2, 4, 8, 10], m)

    return k, m


def assemble(model: BeamModel, spec: BeamSpec) -> tuple[np.ndarray, np.ndarray]:
    """Global K, M over all DOFs (constraints not yet applied)."""
    n_dof = model.n_dof
    big_k = np.zeros((n_dof, n_dof))
    big_m = np.zeros((n_dof, n_dof))

    rot = np.zeros((12, 12))
    for b in range(4):
        rot[3 * b: 3 * b + 3, 3 * b: 3 * b + 3] = model.frame

    k_loc, m_loc = element_matrices(spec, 0)  # uniform mesh: all elements equal
    k_glob = rot.T @ k_loc @ rot
    m_glob = rot.T @ m_loc @ rot

    for i, j in model.elements:
        dofs = np.r_[6 * i: 6 * i + 6, 6 * j: 6 * j + 6]
        big_k[np.ix_(dofs, dofs)] += k_glob
        big_m[np.ix_(dofs, dofs)] += m_glob
    return big_k, big_m


@dataclass
class ReducedSystem:
    """Free-DOF system after row/column elimination, with the map back to
    full DOF indices."""

    k: np.ndarray
    m: np.ndarray
    c: np.ndarray | None
    f: np.ndarray
    free_dofs: np.ndarray
    n_full: int

    def expand(self, u: np.ndarray) -> np.ndarray:
        full = np.zeros(self.n_full, dtype=u.dtype)
        full[self.free_dofs] = u
        return full


def apply_constraints(k, m, c, f, fixed_dofs) -> ReducedSystem:
    """Delete the rows/columns of the fixed DOFs (reduction, not penalty)."""
    k = np.asarray(k)
    n = k.shape[0]
    fixed = np.asarray(fixed_dofs, dtype=int)
    if fixed.size and (fixed.min() < 0 or fixed.max() >= n):
        raise DimensionMismatch(f"fixed DOF indices out of range for {n} DOFs")
    free = np.setdiff1d(np.arange(n), fixed)
    if free.size == 0:
        raise EmptySystem("all DOFs are fixed")
    sel = np.ix_(free, free)
    return ReducedSystem(
        k=k[sel],
        m=np.asarray(m)[sel],
        c=None if c is None else np.asarray(c)[sel],
        f=np.asarray(f)[free],
        free_dofs=free,
        n_full=n,
    )


def rayleigh_damping(k, m, alpha: float, beta: float) -> np.ndarray:
    """C = alpha*M + beta*K."""
    if alpha < 0.0 or beta < 0.0 or (alpha == 0.0 and beta == 0.0):
        raise InvalidDamping(
            f"need alpha, beta >= 0 and not both zero, got ({alpha}, {beta})")
    return alpha * np.asarray(m) + beta * np.asarray(k)


def static_solve(k, f) -> np.ndarray:
    """u = K^-1 F on the reduced system."""
    return solve_refined(np.asarray(k, dtype=float), np.asarray(f, dtype=float))


def _bands(k, m, c) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Row-band storage of K, M and C (or None) at their common
    half-bandwidth."""
    mats = [np.asarray(x, dtype=float) for x in (k, m, c) if x is not None]
    if any(x.shape != mats[0].shape for x in mats):
        raise DimensionMismatch(
            f"K, M and C must share one shape, got {[x.shape for x in mats]}")
    b = max(bandwidth(x) for x in mats)
    kb, mb, *cb = (band_storage(x, b) for x in mats)
    return kb, mb, (cb[0] if cb else None)


def _dynamic_bands(bands, freqs: np.ndarray) -> np.ndarray:
    """Row-band storage of D = K - w^2 M + i w C at each frequency, shape
    (len(freqs), n, 2b+1); real when the damping term vanishes."""
    kb, mb, cb = bands
    w = (2.0 * math.pi * freqs)[:, None, None]
    stiff = kb - w * w * mb
    if cb is None or not np.any(w):
        return stiff
    dyn = np.empty(stiff.shape, dtype=complex)
    dyn.real = stiff
    dyn.imag = w * cb
    return dyn


def _solve_frequencies(bands, f, freqs: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Displacement amplitudes (len(freqs), n) from one batched band solve,
    and a message for each frequency whose dynamic matrix is singular."""
    dyn = _dynamic_bands(bands, freqs)
    rhs = np.asarray(f, dtype=dyn.dtype)
    if rhs.shape != dyn.shape[1:2]:
        raise DimensionMismatch(f"load shape {rhs.shape} does not match {dyn.shape[1]} DOFs")
    u, lu = band_solve_refined(dyn, np.broadcast_to(rhs, dyn.shape[:2]))
    failures = [f"f = {freqs[s]} Hz: {lu.failure(s)}" for s in np.flatnonzero(lu.bad >= 0)]
    return u.astype(complex, copy=False), failures


def harmonic_solve(k, m, c, f, freq_hz: float) -> np.ndarray:
    """Complex displacement amplitudes solving (K - w^2 M + i w C) u = F.

    This is the sweep's batched band solve run on a one-frequency batch, so
    it reproduces a sweep row bit for bit.  When the damping term vanishes
    the dynamic matrix is real and the solve stays in real arithmetic, so
    the w = 0 result is bit-identical to static_solve.
    """
    u, failures = _solve_frequencies(_bands(k, m, c), f, np.array([freq_hz], dtype=float))
    if failures:
        raise Singular(f"dynamic matrix singular at {failures[0]}")
    return u[0]


def max_displacements(u, model: BeamModel) -> np.ndarray:
    """Per global axis, the maximum of |u_axis| over all nodes (translations
    only; clamped DOFs contribute zero).

    u holds free-DOF values, one solution (n_free,) or a batch
    (C, n_free); the result is (3,) or (C, 3).
    """
    u = np.asarray(u)
    free = model.free_dofs
    if u.ndim not in (1, 2) or u.shape[-1] != free.size:
        raise DimensionMismatch(
            f"expected {free.size} free-DOF values per row, got shape {u.shape}")
    full = np.zeros(u.shape[:-1] + (model.n_dof,), dtype=complex)
    full[..., free] = u
    return np.abs(full.reshape(*u.shape[:-1], -1, 6)[..., :3]).max(axis=-2)


# --- frequency sweep ---------------------------------------------------------

@dataclass
class ResponseTable:
    """Per-frequency maxima of the displacement magnitudes, one row per
    grid point."""

    freq_hz: np.ndarray
    ux_max: np.ndarray
    uy_max: np.ndarray
    uz_max: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.freq_hz, dtype=float)
        if f.size > 1 and not np.all(np.diff(f) > 0.0):
            raise InvalidSpec("response table frequencies must be strictly increasing")
        for name in ("ux_max", "uy_max", "uz_max"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != f.shape:
                raise DimensionMismatch(f"{name} length does not match freq_hz")
            if np.any(v < 0.0):
                raise InvalidSpec(f"{name} must be >= 0")

    def outputs(self) -> np.ndarray:
        """(n, 3) matrix of the per-axis maxima."""
        return np.column_stack([self.ux_max, self.uy_max, self.uz_max])


def reduced_system(spec: BeamSpec, damping: tuple[float, float] | None = None,
                   ) -> tuple[BeamModel, ReducedSystem]:
    """Mesh + assemble + constrain in one step; attaches Rayleigh damping
    when (alpha, beta) is given."""
    model = build_mesh(spec)
    big_k, big_m = assemble(model, spec)
    red = apply_constraints(big_k, big_m, None, model.load, model.fixed_dofs)
    if damping is not None:
        red.c = rayleigh_damping(red.k, red.m, *damping)
    return model, red


def frequency_sweep(spec: BeamSpec, grid: FrequencyGrid,
                    damping: tuple[float, float]) -> ResponseTable:
    """One assembly, then one batched band solve per chunk of grid
    frequencies (each with one refinement step), so memory stays flat in
    the grid size.

    A singular frequency does not stop the sweep; every failure is collected
    and one Singular names up to five of them.
    """
    model, red = reduced_system(spec, damping)
    bands = _bands(red.k, red.m, red.c)
    freqs = grid.values
    rows, failures = [], []
    for start in range(0, freqs.size, _SWEEP_CHUNK):
        u, failed = _solve_frequencies(bands, red.f, freqs[start:start + _SWEEP_CHUNK])
        rows.append(max_displacements(u, model))
        failures += failed
    if failures:
        raise Singular(f"{len(failures)} sweep frequencies failed ({'; '.join(failures[:5])})")

    rows = np.concatenate(rows)
    return ResponseTable(freqs.copy(), rows[:, 0], rows[:, 1], rows[:, 2])


def natural_frequencies(spec: BeamSpec, f_max: float) -> list[float]:
    """Undamped natural frequencies in (0, f_max), ascending; a repeated root
    is returned once per multiplicity.

    The number of negative pivots of the LDL^T elimination of K - w^2 M is
    the number of natural frequencies below f (Sylvester's law of inertia;
    the Sturm sequence check of Bathe, Finite Element Procedures, 11.4.3).
    Root i is the smallest f whose count reaches i, bisected to a relative
    tolerance of 1e-6.  A zero pivot at a probed f raises Singular.
    """
    if not f_max > 0.0:
        raise InvalidSpec(f"f_max must be > 0, got {f_max}")
    _, red = reduced_system(spec)

    def count_below(f):
        w = 2.0 * math.pi * f
        pivots = symmetric_pivots(red.k - w * w * red.m)
        if pivots[-1] == 0.0:
            raise Singular(f"K - w^2 M has a zero pivot at f = {f} Hz")
        return int(np.count_nonzero(pivots < 0.0))

    counts = {0.0: 0, f_max: count_below(f_max)}  # K is positive definite
    roots = []
    while len(roots) < counts[f_max]:
        i = len(roots) + 1
        lo = max(f for f, c in counts.items() if c < i)
        hi = min(f for f, c in counts.items() if c >= i)
        while hi - lo > 1e-6 * hi:
            mid = 0.5 * (lo + hi)
            counts[mid] = count_below(mid)
            if counts[mid] >= i:
                hi = mid
            else:
                lo = mid
        # every root from i up to counts[hi] lies in [lo, hi)
        roots.extend([0.5 * (lo + hi)] * (counts[hi] - len(roots)))
    return roots


def default_damping(spec: BeamSpec, target_zeta: float = 0.01,
                    f_max: float = 200.0) -> tuple[float, float]:
    """Stiffness-proportional damping tuned so the first mode sees the
    target damping ratio: beta = 2*zeta/(2*pi*f1), alpha = 0."""
    f_hi = f_max
    for _ in range(4):
        freqs = natural_frequencies(spec, f_hi)
        if freqs:
            return 0.0, 2.0 * target_zeta / (2.0 * math.pi * freqs[0])
        f_hi *= 4.0
    raise InvalidSpec(f"no natural frequency found below {f_hi / 4.0} Hz")
