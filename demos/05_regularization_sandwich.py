"""Two-sided bounds from mass truncation and symbol scaling.

Dropping masses (keep the first N) lowers the metric, scaling the symbol by
rho < 1 raises it, so the kernel values order as

    K(cutoff)(0) >= K(alpha)(0) >= K(scaled)(0),

with the matching positive-semidefinite ordering of the Gram matrices.  The
combined data bound K(cutoff)(0) from above, by (T_e^rho(0)/T_e(0)) K(both)(0).
The duality identity transports each regularized kernel to the dual kernel
at the complementary shift, which is what makes the bounds usable from
either side.
"""

import numpy as np

from hardydual import build_gram_analytic, kernel_at_origin, regularized, sandwich_check
from hardydual.corpus import BY_NAME

space = BY_NAME["mixed_rational"].space(4096)

report = sandwich_check(space, cutoff=1, rho=0.5, n=0, degree=40)
print("mixed_rational, cutoff N=1, rho=0.5, shift n=0")
print(f"  K(cutoff) = {report.k_cutoff:.12f}")
print(f"  K(alpha)  = {report.k_alpha:.12f}")
print(f"  K(scaled) = {report.k_scaled:.12f}")
print(f"  margins: cutoff side {report.margin_cutoff:.3e}, scaled side {report.margin_scaled:.3e}")
print(f"  Gram PSD margins: {report.psd_margin_cutoff:.1e}, {report.psd_margin_scaled:.1e}")
print(f"  upper chain slack (combined N,rho data): {report.chain_upper_slack:.3e}")
print(f"  worst margin {report.worst_margin:.3e} against tolerance {report.tolerance:.0e}: "
      f"{'holds' if report.worst_margin >= -report.tolerance else 'VIOLATED'}")
print("  transported identity residuals:",
      {k: f"{v:.1e}" for k, v in report.identity_residuals.items()})

print("\nrho sweep: K(scaled) climbs toward K(alpha) as rho -> 1")
k_alpha = kernel_at_origin(build_gram_analytic(space, 40)).norm
for rho in (0.5, 0.9, 0.99, 0.999):
    k = kernel_at_origin(build_gram_analytic(regularized(space, rho=rho), 40)).norm
    print(f"  rho = {rho:5g}: K = {k:.12f}   gap {k_alpha - k:.3e}")

print("\ncutoff sweep: K(cutoff) descends toward K(alpha) as N grows")
for cutoff in (0, 1, 2):
    k = kernel_at_origin(build_gram_analytic(regularized(space, mass_cutoff=cutoff), 40)).norm
    print(f"  N = {cutoff}: K = {k:.12f}   gap {k - k_alpha:.3e}")

print("\nPSD ordering, checked by a dense eigensolve:")
base = build_gram_analytic(space, 40)
for rho in (0.5, 0.9):
    scaled = build_gram_analytic(regularized(space, rho=rho), 40)
    print(f"  min eig of Gram(rho={rho}) - Gram(alpha): {np.linalg.eigvalsh(scaled - base)[0]:+.2e}")
