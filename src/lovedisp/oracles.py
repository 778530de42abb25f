"""Independent verification paths for the dispersion relation.

Two cross-checks that share no code with the transfer-matrix recursion:

* the full boundary-matching determinant, assembled as the explicit
  ``2n x 2n`` complex system of interface conditions and reduced by the
  scaling prefactor to the dispersion function value, and
* a second-order finite-difference discretization of the depth ODE,
  solved as a symmetric tridiagonal generalized eigenproblem.  Its solver,
  ``scipy.linalg.eigh_tridiagonal``, is imported on the first call, so
  importing the package needs numpy alone.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import DegeneratePoint, NonRealResult
from .medium import Medium

__all__ = ["determinant_oracle", "fd_eigen_oracle"]

_NU_REL_TOL = 1e-9  # relative distance to a layer slowness refused by the determinant
_IMAG_TOL = 1e-8  # relative imaginary residue that marks a wrong determinant assembly
_CUTOFF_OFFSET = 0.05  # relative offset above 1/c_inf of the FD reference decay
_Y_REL_MARGIN = 1e-9  # relative margin inside the slowness domain of FD eigenvalues


def _complex_nus(medium: Medium, omega: float, y: float) -> np.ndarray:
    """Vertical wavenumbers ``nu_j = omega * sqrt(y^2 - 1/c_j^2)``, Im <= 0."""
    d = y * y - medium.slowness_sq
    return omega * np.where(d >= 0, np.sqrt(d + 0j), -1j * np.sqrt(-d + 0j))


def determinant_oracle(medium: Medium, omega: float, k: float) -> float:
    """Dispersion value from the explicit boundary-matching determinant.

    Builds the full interface-condition matrix in the exponential solution
    basis, takes its determinant by LU with partial pivoting, and applies
    the scaling prefactor that reduces it to the transfer-matrix dispersion
    function ``mu_inf nu_inf P_n + Q_n`` at generic points.  The last
    column is pre-scaled by ``exp(+nu_inf H_last)`` (a pure column scaling)
    so the prefactor never overflows.

    Raises
    ------
    DegeneratePoint
        If the slowness sits within 1e-9 (relative) of any layer
        slowness; the generic prefactor is invalid there.
    NonRealResult
        If the assembled value keeps an imaginary residue above 1e-8
        (relative), which would signal an assembly bug.
    """
    if not omega > 0.0:
        raise ValueError("omega must be > 0")
    y = k / omega
    lo, hi = medium.slowness_domain
    if not lo < y < hi:
        raise ValueError(f"slowness {y!r} outside the open domain ({lo}, {hi})")
    for inv in medium.slowness:
        if abs(y - inv) <= _NU_REL_TOL * inv:
            raise DegeneratePoint(
                f"slowness {y!r} within {_NU_REL_TOL:g} (relative) of layer "
                f"slowness {inv!r}"
            )

    n = medium.n
    nus = _complex_nus(medium, omega, y)
    mu = medium.mu
    depths = medium.depths  # H_1 = 0 .. H_{n+1}
    mat = np.zeros((2 * n, 2 * n), dtype=complex)

    # first column: surface layer, cosh solution
    nu1, t1 = nus[0], float(medium.thickness[0])
    mat[0, 0] = 2.0 * np.cosh(nu1 * t1)
    mat[1, 0] = 2.0 * mu[0] * nu1 * np.sinh(nu1 * t1)

    for j in range(2, n + 1):  # interior layers with exp(+-nu z) pairs
        a_j = mu[j - 1] * nus[j - 1]
        h_top = depths[j - 1]  # H_j
        h_bot = depths[j]  # H_{j+1}
        c_lo, c_hi = 2 * j - 3, 2 * j - 2
        r_top = 2 * (j - 2)
        em, ep = np.exp(-nus[j - 1] * h_top), np.exp(+nus[j - 1] * h_top)
        mat[r_top, c_lo] = -em
        mat[r_top, c_hi] = -ep
        mat[r_top + 1, c_lo] = +a_j * em
        mat[r_top + 1, c_hi] = -a_j * ep
        em, ep = np.exp(-nus[j - 1] * h_bot), np.exp(+nus[j - 1] * h_bot)
        mat[r_top + 2, c_lo] = +em
        mat[r_top + 2, c_hi] = +ep
        mat[r_top + 3, c_lo] = -a_j * em
        mat[r_top + 3, c_hi] = +a_j * ep

    # last column: decaying half-space solution, pre-scaled by exp(+nu H)
    mat[2 * n - 2, 2 * n - 1] = -1.0
    mat[2 * n - 1, 2 * n - 1] = +mu[n] * nus[n]

    det = np.linalg.det(mat)
    denom = 2.0**n * np.prod(mu[1:n] * nus[1:n]) if n >= 2 else 2.0
    f = det / denom
    if abs(f.imag) > _IMAG_TOL * max(abs(f.real), np.finfo(float).tiny):
        raise NonRealResult(
            f"imaginary residue {f.imag!r} vs real part {f.real!r} at "
            f"(omega={omega:g}, k={k:g})"
        )
    return float(f.real)


def _fd_grid(medium: Medium, z_max: float, grid_points: int) -> np.ndarray:
    """Node positions with every material interface exactly on a node.

    Each layer (and the truncated half-space tail) gets a uniform sub-grid
    whose cell count is rounded from the global target spacing, so halving
    the target spacing almost exactly doubles every sub-grid.
    """
    bounds = np.concatenate([medium.depths, [z_max]])
    h_target = z_max / (grid_points - 1)
    pieces = [np.array([0.0])]
    for a, b in zip(bounds[:-1], bounds[1:]):
        cells = max(1, int(round((b - a) / h_target)))
        pieces.append(np.linspace(a, b, cells + 1)[1:])
    return np.concatenate(pieces)


def _face_harmonic_mu(medium: Medium, z: np.ndarray) -> np.ndarray:
    """Harmonic-mean modulus over each face interval ``[z_i, z_{i+1}]``.

    Exact sub-interval weighting of ``1/mu``; with interfaces on nodes the
    faces are single-material and the mean degenerates to that modulus.
    """
    bounds = medium.depths[1:]  # interior interfaces
    inv_integral = np.zeros(len(z) - 1)
    left = z[:-1]
    right = z[1:]
    segs = np.concatenate([[0.0], bounds, [np.inf]])
    for j in range(medium.n + 1):
        a = np.maximum(left, segs[j])
        b = np.minimum(right, segs[j + 1])
        overlap = np.maximum(b - a, 0.0)
        inv_integral += overlap / float(medium.mu[j])
    return (right - left) / inv_integral


def fd_eigen_oracle(
    medium: Medium,
    omega: float,
    depth_factor: float = 6.0,
    grid_points: int = 4000,
) -> np.ndarray:
    """Guided wavenumbers from a finite-difference eigensolve, descending.

    Discretizes ``-(mu phi')' - omega^2 rho phi = -k^2 mu phi`` in
    conservative form with harmonic-mean moduli at cell faces, a half-cell
    Neumann condition at the surface, and a Dirichlet condition at the
    truncation depth ``H_last + depth_factor / nu_ref``.  Interfaces are
    aligned with grid nodes, which keeps the scheme second order in the
    cell size.  The reference decay ``nu_ref`` is evaluated at 1.05 times
    the half-space slowness; modes closer to their cutoff than that carry
    an extra truncation bias of order ``exp(-2 depth_factor)``.

    Returns all eigenvalue-derived ``k`` inside ``(omega/c_inf, omega/c0)``.
    """
    from scipy.linalg import eigh_tridiagonal

    if not 0.0 < omega < np.inf:
        raise ValueError("omega must be finite and > 0")
    if not 3.0 <= depth_factor < np.inf:
        raise ValueError("depth_factor must be finite and >= 3")
    grid_points = operator.index(grid_points)
    if grid_points < 2000:
        raise ValueError("grid_points must be >= 2000")
    lo, hi = medium.slowness_domain
    y_ref = lo * (1.0 + _CUTOFF_OFFSET)
    nu_ref = omega * np.sqrt(y_ref * y_ref - lo * lo)
    z_max = float(medium.depths[-1]) + depth_factor / nu_ref

    z = _fd_grid(medium, z_max, grid_points)
    h = np.diff(z)
    mu_face = _face_harmonic_mu(medium, z)
    mid = 0.5 * (z[:-1] + z[1:])
    layer_face = np.searchsorted(medium.depths[1:], mid, side="right")
    rho_face = medium.rho[layer_face]
    mu_cell = medium.mu[layer_face]

    # unknowns: nodes 0..G-2 (Dirichlet drops the last node); node masses
    # integrate the two adjacent half-cells, a single half-cell at z=0
    g = len(z) - 1
    flux = mu_face / h
    diag = np.empty(g)
    diag[0] = flux[0]
    diag[1:] = flux[: g - 1] + flux[1:g]
    off = -flux[: g - 1]
    rho_mass = np.empty(g)
    mu_mass = np.empty(g)
    rho_mass[0] = 0.5 * rho_face[0] * h[0]
    mu_mass[0] = 0.5 * mu_cell[0] * h[0]
    rho_mass[1:] = 0.5 * (rho_face[: g - 1] * h[: g - 1] + rho_face[1:g] * h[1:g])
    mu_mass[1:] = 0.5 * (mu_cell[: g - 1] * h[: g - 1] + mu_cell[1:g] * h[1:g])
    a_diag = diag - omega**2 * rho_mass

    # symmetrize the generalized problem with the diagonal mass matrix
    d = a_diag / mu_mass
    e = off / np.sqrt(mu_mass[:-1] * mu_mass[1:])

    k_lo = omega * lo * (1.0 + _Y_REL_MARGIN)
    k_hi = omega * hi * (1.0 - _Y_REL_MARGIN)
    vals = eigh_tridiagonal(
        d, e, eigvals_only=True, select="v", select_range=(-(k_hi**2), -(k_lo**2))
    )
    ks = np.sqrt(-vals[(vals > -(k_hi**2)) & (vals < -(k_lo**2))])
    return np.sort(ks)[::-1]
