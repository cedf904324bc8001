"""The dual data and the scalar duality identity.

From outer factor T_e, Blaschke product B and T = T_e/B, the dual data has
symbol R~(conj t) = -R(t) conj(T_e) B / T_e and masses at the conjugated
points.  The pairing between primal and dual weights is fixed so that the
involution is unitary on the point-mass component:

    nu~ = 1 / (nu |(1/T)'(zeta_k)|^2),  (1/T)'(zeta_k) = B'(zeta_k)/T_e(zeta_k).

The identity  T(0) K^{alpha_{-1}}(0) K^{alpha~}(0) = 1  then holds exactly;
for the single-mass case: 2 * sqrt(5/17) * sqrt(17/20) = 1.  The printed
pairing nu~ nu = |(1/T)'|^2 is also selectable and visibly breaks both the
identity and the involution, which is why it is not the default.
"""

import numpy as np

from hardydual import dual_of, duality_identity
from hardydual.corpus import BY_NAME

space = BY_NAME["mass_single"].space(4096)

dual = dual_of(space)
print("single mass nu=3 at 1/2")
print(f"  dual mass point  {dual.dual_masses.points[0]:.6f}")
print(f"  dual mass weight {dual.dual_masses.weights[0]:.10f}  (closed form 3/16)")
print(f"  T(0) = {dual.T_at_zero}")

report = duality_identity(space, dual, degree=40)
print(f"  T(0) * K_shifted * K_dual = {report.product:.15f}")
print(f"  identity residual  {report.residual:.2e}")
print(f"  vector-form residual (tau of z^-1 K vs dual kernel): {report.vector_residual:.2e}")

printed = dual_of(space, convention="printed")
printed_report = duality_identity(space, printed, degree=40)
print(f"\nprinted pairing instead: dual weight {printed.dual_masses.weights[0]:.6f}")
print(f"  identity product = {printed_report.product:.6f}  (off by {printed_report.residual:.3f})")

print("\nidentity across the corpus (degree 48):")
for name in ("hankel_rank1", "mixed_basic", "mixed_two_mass", "mixed_deg2",
             "mixed_complex", "mixed_rational"):
    case_space = BY_NAME[name].space(4096)
    r = duality_identity(case_space, dual_of(case_space), degree=48)
    print(f"  {name:15s} residual {r.residual:.2e}, vector {r.vector_residual:.2e}")

# the dual construction is an involution on the data itself
back = dual.back
sym_err = np.abs(back.dual_symbol.values - space.symbol.values).max()
print(f"\ndual of dual returns the symbol within {sym_err:.2e}")
