"""Walkthrough: cantilever beam model validation against textbook formulas.

Builds the default 3D beam, extracts natural frequencies below 200 Hz by
multisection on the count of negative LDL^T pivots of K - w^2 M, and compares
them with the Euler-Bernoulli closed forms; then checks the static tip
deflection on an axis-aligned variant of the same beam.
"""

import math

import numpy as np

from fem_surrogate import beam

spec = beam.default_spec()
sec, mat = spec.section, spec.material
print(f"beam: L={spec.length} m, section {sec.width * 1e3:.0f}x{sec.height * 1e3:.0f} mm, "
      f"{spec.n_elements} elements, axis {np.round(spec.axis_direction, 4)}")
print(f"material: E={mat.youngs_modulus / 1e9:.0f} GPa, nu={mat.poisson_ratio}, "
      f"rho={mat.density} kg/m^3")


def cantilever_mode_hz(i_area, mode_constant):
    return (mode_constant ** 2 / (2.0 * math.pi)) * math.sqrt(
        mat.youngs_modulus * i_area / (mat.density * sec.area * spec.length ** 4))


print("\nnatural frequencies from the pivot count, vs closed forms:")
fem = beam.natural_frequencies(spec, 200.0)
reference = sorted((cantilever_mode_hz(i, c), plane)
                   for i, plane in ((sec.i_y, "soft plane"), (sec.i_z, "stiff plane"))
                   for c in (1.875104, 4.694091))
for f_num, (f_ref, plane) in zip(fem, reference):
    print(f"  {f_num:8.4f} Hz   closed form {f_ref:8.4f} Hz ({plane}), "
          f"rel dev {abs(f_num - f_ref) / f_ref:.2e}")

straight = beam.BeamSpec(spec.length, sec, mat, spec.n_elements,
                         axis_direction=np.array([1.0, 0.0, 0.0]),
                         tip_load=np.array([0.0, 5.0, 0.0]))
_, red = beam.reduced_system(straight)
u = beam.static_solve(red.kb, red.f)
tip = beam.max_displacements(u)[1]
expected = 5.0 * spec.length ** 3 / (3.0 * mat.youngs_modulus * sec.i_z)
print(f"\nstatic 5 N transverse tip load on the x-aligned beam:")
print(f"  FEM tip deflection {tip:.6e} m, F*L^3/(3EI) = {expected:.6e} m, "
      f"rel dev {abs(tip - expected) / expected:.2e}")

alpha, beta = beam.default_damping(spec)
print(f"\ndefault Rayleigh damping: alpha={alpha}, beta={beta:.6e} s "
      f"(1% modal damping at f1 = {fem[0]:.3f} Hz)")
