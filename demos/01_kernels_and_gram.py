"""Build a perturbed Hardy space and compute its reproducing kernel.

The space carries the metric

    ||f||^2 - ||P_-(R f)||^2 + sum_k |f(zeta_k)|^2 nu_k

on analytic functions.  On the monomial basis this is a Gram matrix, and
the normalized kernel value at the origin is K(0) = sqrt((G^{-1})_{00}).
For the zero symbol with a single mass nu = 3 at zeta = 1/2 the value is
known in closed form: K(0) = sqrt(2/5).
"""

import numpy as np

from hardydual import (
    CircleGrid,
    MassSet,
    SpaceData,
    build_gram_analytic,
    kernel_at_origin,
    kernel_at_point,
    symbol_from_expression,
    zero_symbol,
)

grid = CircleGrid(4096)

# --- a pure point-mass perturbation ----------------------------------------
masses = MassSet(np.array([0.5]), np.array([3.0]))
space = SpaceData(zero_symbol(grid), masses)
gram = build_gram_analytic(space, degree=40)
kernel = kernel_at_origin(gram)

print("single mass nu=3 at zeta=1/2")
print(f"  Gram order {gram.shape[0]}, min eig {np.linalg.eigvalsh(gram)[0]:.6f}")
print(f"  K(0) computed  = {kernel.norm:.15f}")
print(f"  K(0) closed    = {np.sqrt(2/5):.15f}")
print(f"  reproducing: k(0) - ||k||^2 = {abs(kernel.value_at_zero - kernel.norm**2):.2e}")

# evaluation at an interior point: <f, k_w> = f(w) for every basis vector
point = 0.3 + 0.2j
k_w = kernel_at_point(gram, point)
z = np.zeros(41, dtype=complex)
z[1] = 1.0  # the monomial z
inner = np.vdot(k_w.coefficients, gram @ z)
print(f"  <z, k_w> = {inner:.12f} vs w = {point}")

# --- a pure Hankel perturbation ---------------------------------------------
hankel_space = SpaceData(symbol_from_expression(grid, "0.6*conj(t)"), MassSet.empty())
hankel_gram = build_gram_analytic(hankel_space, degree=6)
print("\nR(t) = 0.6 conj(t), no masses")
print("  Gram diagonal:", np.round(np.diag(hankel_gram).real, 12))
print(f"  K(0) = {kernel_at_origin(hankel_gram).norm}  (exact: 1/0.8 = 1.25)")
