"""Eigenfunctions and the two independent verification paths.

A guided mode is reconstructed at a dispersion root, checked against the
equations that define it (interface continuity, the layer ODE's first
integral, and the quotient identity tying its three norms together), and
exported on a depth grid.  The dispersion values themselves are then cross-checked
against the explicit boundary-matching determinant, and the root set
against a finite-difference eigensolver that never touches the
transfer-matrix code.
"""

import numpy as np

from lovedisp import (
    Medium,
    determinant_oracle,
    dispersion_value,
    fd_eigen_oracle,
    mode_norms,
    mode_residuals,
    mode_shape,
    roots_at_omega,
)
from lovedisp.io import write_mode_csv

medium = Medium(mu=[1e6, 1e8], rho=[1.0, 1.0], thickness=[100.0])
omega = 100.0
roots = roots_at_omega(medium, omega)
print(f"{len(roots)} guided modes at omega = {omega:g}")

shape = mode_shape(medium, omega, omega * roots[0])
diag = mode_residuals(shape)
print("fundamental mode diagnostics:")
print(f"  interface jumps     {max(diag.phi_jump, diag.stress_jump):.2e}")
print(f"  ODE first integral  {diag.ode_residual:.2e}")
print(f"  quotient identity   {diag.rayleigh_residual:.2e} "
      f"(quotient {diag.rayleigh_quotient:.4f} > 1)")
mu_dphi_sq, rho_phi_sq, mu_phi_sq = mode_norms(shape)
print(f"  closed-form norms   {mu_dphi_sq:.6g}, {rho_phi_sq:.6g}, {mu_phi_sq:.6g}")

z = np.linspace(0.0, 100.0 + 3.0 / shape.decay_rate, 400)
phi, mu_dphi = shape.evaluate(z)
write_mode_csv("mode_fundamental.csv", z, phi, mu_dphi)
print("wrote mode_fundamental.csv (columns z, phi, mu_dphi)")

print("\ndeterminant oracle vs transfer-matrix recursion at random points:")
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(200):
    y = rng.uniform(1.2e-4, 9.8e-4)
    w = rng.uniform(1.0, 200.0)
    det = determinant_oracle(medium, w, w * y)
    dv = dispersion_value(medium, w, y)
    rec = w * dv.value * np.exp(dv.log_scale)
    worst = max(worst, abs(det - rec) / max(abs(det), abs(rec)))
print(f"  max relative deviation over 200 points: {worst:.2e}")

print("\nfinite-difference eigensolver vs transfer-matrix roots:")
ks = fd_eigen_oracle(medium, omega, depth_factor=10.0, grid_points=8000)
for k_fd, y in zip(ks, roots):
    print(f"  k_fd = {k_fd:.8f}   k_root = {omega * y:.8f}   "
          f"rel diff {abs(k_fd - omega * y) / (omega * y):.2e}")
