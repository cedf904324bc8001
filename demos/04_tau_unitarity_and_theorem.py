"""The involution is unitary and swaps the two Hardy-type subspaces.

A vector of the two-sided space is a circle pair (f1, f2) with
f2 = -P_-(R f1) plus free values at the mass points.  The involution sends
it to the dual space; norms are preserved, applying it twice returns the
vector, and the image of anything orthogonal to the embedded analytic
polynomials satisfies the condition-side membership test
(T_e~ f1~ analytic, mass values matching its interior extension).
"""

import numpy as np

from hardydual import (
    TauVector,
    apply_tau,
    canonical_vector,
    dual_of,
    l2_norm,
    theorem_check,
)
from hardydual.corpus import BY_NAME

space = BY_NAME["mixed_two_mass"].space(4096)
dual = dual_of(space)
symbol, masses = dual.symbol, dual.masses
grid = symbol.grid

rng = np.random.default_rng(1)
print("random two-sided vectors: unitarity and involution")
for index in range(5):
    exponents = np.arange(-60, 61)
    coeffs = (rng.standard_normal(121) + 1j * rng.standard_normal(121)) \
        * 0.8 ** np.abs(exponents)
    full = np.zeros(grid.size, dtype=complex)
    full[exponents % grid.size] = coeffs
    mass_values = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    vec = canonical_vector(symbol, grid.values(full), mass_values)

    norm = l2_norm(vec, symbol, masses)
    image = apply_tau(vec, dual)
    image_norm = l2_norm(image, dual.dual_symbol, dual.dual_masses)
    back = apply_tau(image, dual.back)
    diff = TauVector(back.f1 - vec.f1, back.f2 - vec.f2,
                     back.mass_values - vec.mass_values)
    print(f"  #{index}: | ||tau f||^2 - ||f||^2 | / ||f||^2 = "
          f"{abs(image_norm**2 - norm**2) / norm**2:.2e}, "
          f"||tau tau f - f|| / ||f|| = {l2_norm(diff, symbol, masses) / norm:.2e}")

print("\ncomplement-mapping theorem (degree = half band = 32):")
report = theorem_check(space, dual, degree=32)
print(f"  complement dimension          {report.complement_dimension}")
print(f"  worst analyticity residual    {report.forward_hardy_residual:.2e}")
print(f"  worst mass-value mismatch     {report.forward_mass_residual:.2e}")
print(f"  converse orthogonality        {report.converse_orthogonality:.2e}")

classical = BY_NAME["hankel_rank1"].space(4096)
classical_report = theorem_check(classical, dual_of(classical), degree=32)
print("\nno masses (R rank-one): the classical pairing, residuals at machine precision")
print(f"  analyticity {classical_report.forward_hardy_residual:.2e}, "
      f"converse {classical_report.converse_orthogonality:.2e}")
