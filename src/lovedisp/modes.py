"""Construction and verification of guided-wave eigenfunctions.

A mode at a dispersion root ``(omega, k)`` is normalized to ``phi(0) = 1``
and ``phi'(0) = 0`` and built on the scaled propagation of
:mod:`lovedisp.dispersion`: the true displacement and scaled stress
``(phi, mu phi'/omega)`` are recorded at every interface, and inside a
layer the shape is the same layer kernel applied to the state at the layer
top.  Below the last interface it decays exponentially.  Norm integrals
are evaluated in closed form per layer, which keeps the quotient
identities accurate to rounding.  The same integrals, on states shot from
both ends of the stack, give the Rayleigh-principle sensitivities of the
root wavenumbers to every modulus, density and thickness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dispersion import (
    _dispersion_scale_floor,
    _dispersion_scaled,
    _halfspace_decay,
    _layer,
    _layer_integrals,
    _propagate,
)
from .errors import NotOnBranch, ResultOutOfRange
from .medium import Medium

__all__ = ["ModeShape", "ModeDiagnostics", "mode_shape", "mode_residuals", "mode_norms"]


@dataclass(frozen=True)
class LayerCoefficients:
    """Values at a layer top: displacement and scaled stress ``mu phi'/omega``."""

    phi: float
    q: float


@dataclass(frozen=True)
class ModeShape:
    """Eigenfunction at a dispersion root, normalized to ``phi(0) = 1``.

    ``tops[j]`` holds the displacement and scaled stress at interface j,
    i.e. the top of finite layer j+1.  Below the last interface the shape
    is ``a_inf * exp(-decay_rate * (z - H_last))``; a zero decay rate means
    the point sits on the half-space slowness and the shape is not square
    integrable (no guided mode there).
    """

    medium: Medium
    omega: float
    k: float
    tops: tuple[LayerCoefficients, ...]
    a_inf: float
    decay_rate: float

    @property
    def y(self) -> float:
        return self.k / self.omega

    @property
    def is_l2(self) -> bool:
        return self.decay_rate > 0.0

    def evaluate(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Displacement and stress ``mu phi'`` on depth array ``z``."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        m = self.medium
        phi = np.empty_like(z)
        stress = np.empty_like(z)
        h_last = float(m.depths[-1])
        layer = np.searchsorted(m.depths[1:], z, side="right")
        for j in range(m.n):
            sel = layer == j
            if not np.any(sel):
                continue
            phi[sel], stress[sel] = self._eval_layer(j, z[sel])
        deep = layer == m.n
        if np.any(deep):
            tail = self.a_inf * np.exp(-self.decay_rate * (z[deep] - h_last))
            phi[deep] = tail
            stress[deep] = -float(m.mu[-1]) * self.decay_rate * tail
        return phi, stress

    def _eval_layer(self, j: int, z: np.ndarray):
        """Displacement and stress in finite layer ``j`` at depths ``z``."""
        top = self.tops[j]
        dz = z - float(self.medium.depths[j])
        p, q, lf = _layer(self.medium, j, self.omega, self.y, dz, top.phi, top.q)[:3]
        scale = np.exp(lf)
        return p * scale, self.omega * q * scale


@dataclass(frozen=True)
class ModeDiagnostics:
    """Self-consistency report of a constructed mode (all relative)."""

    phi_jump: float
    stress_jump: float
    ode_residual: float
    decay_error: float
    rayleigh_residual: float
    rayleigh_quotient: float


def mode_shape(
    medium: Medium, omega: float, k: float, residual_floor: float = 1e-8
) -> ModeShape:
    """Build the eigenfunction at a dispersion root ``(omega, k)``.

    Raises
    ------
    NotOnBranch
        If the normalized dispersion residual at ``(omega, k/omega)``
        exceeds ``residual_floor``.
    ResultOutOfRange
        If the displacement or stress at an interface leaves double range.
    """
    if not omega > 0.0:
        raise ValueError("omega must be > 0")
    y = k / omega
    lo, hi = medium.slowness_domain
    if not lo <= y < hi:
        raise ValueError(f"slowness {y!r} outside [{lo}, {hi})")
    # on-branch test: either the dispersion function changes sign within a
    # few refinement widths of y (strong evanescence can put an irreducible
    # cancellation floor under the pointwise value), or the value itself is
    # below the global floor
    delta = max(1e-11 * y, 8.0 * np.spacing(y))
    probe = np.array([y - delta, y, y + delta])
    vals, logs = _dispersion_scaled(medium, omega, probe)
    res = abs(float(vals[1])) / _dispersion_scale_floor(medium)
    brackets = vals[0] == 0.0 or vals[2] == 0.0 or np.sign(vals[0]) != np.sign(vals[2])
    if not brackets and res > residual_floor:
        raise NotOnBranch(
            f"no dispersion zero within {delta:.2e} of y={y!r} and normalized "
            f"residual {res:.3e} exceeds floor {residual_floor:.1e} "
            f"at (omega={omega:g}, k={k:g})"
        )
    tops = [LayerCoefficients(phi=1.0, q=0.0)]
    with np.errstate(over="ignore", invalid="ignore"):
        for p, q, ls in _propagate(medium, omega, y):
            scale = np.exp(ls)
            tops.append(LayerCoefficients(phi=float(p * scale), q=float(q * scale)))
    if not all(np.isfinite(t.phi) and np.isfinite(t.q) for t in tops):
        raise ResultOutOfRange(
            f"mode amplitude leaves double range at (omega={omega:g}, k={k:g})"
        )
    return ModeShape(
        medium=medium,
        omega=float(omega),
        k=float(k),
        tops=tuple(tops[:-1]),
        a_inf=tops[-1].phi,
        decay_rate=omega * float(_halfspace_decay(medium, y)),
    )


def mode_residuals(
    shape: ModeShape, n_depths: int = 100, decay_span: float = 1.0
) -> ModeDiagnostics:
    """Verify a constructed mode against the equations that define it.

    Checks continuity of displacement and stress at every interface, the
    pointwise layer ODE at ``n_depths`` sample depths per layer, the
    exponential decay rate below the last interface, and the quotient
    identity tying the three closed-form norms together.
    """
    m = shape.medium
    omega, k, y = shape.omega, shape.k, shape.y

    # interface jumps: evaluate the layer form at its bottom vs the stored top
    phi_jump = 0.0
    stress_jump = 0.0
    stress_scale = _dispersion_scale_floor(m) * omega
    for j in range(m.n):
        bottom = float(m.depths[j + 1])
        phi_b, stress_b = shape._eval_layer(j, np.array([bottom]))
        if j + 1 < m.n:
            phi_t = shape.tops[j + 1].phi
            stress_t = omega * shape.tops[j + 1].q
        else:
            phi_t = shape.a_inf
            stress_t = -float(m.mu[-1]) * shape.decay_rate * shape.a_inf
        phi_scale = max(abs(phi_b[0]), abs(phi_t), 1e-300)
        phi_jump = max(phi_jump, abs(phi_b[0] - phi_t) / phi_scale)
        s_scale = max(abs(stress_b[0]), abs(stress_t), stress_scale)
        stress_jump = max(stress_jump, abs(stress_b[0] - stress_t) / s_scale)

    # pointwise ODE residual: every layer form has phi'' = omega^2 (y^2 -
    # 1/c_j^2) phi, checked against the coefficient built from mu and rho
    ode_residual = 0.0
    for j in range(m.n):
        zs = np.linspace(float(m.depths[j]), float(m.depths[j + 1]), n_depths + 2)[1:-1]
        phi, _ = shape._eval_layer(j, zs)
        mu_j, rho_j = float(m.mu[j]), float(m.rho[j])
        coef = (mu_j * k * k - rho_j * omega * omega) / mu_j
        d2 = omega * omega * (y * y - float(m.slowness_sq[j])) * phi
        scale = np.max(np.abs(coef * phi)) + np.max(np.abs(d2)) + 1e-300
        ode_residual = max(ode_residual, float(np.max(np.abs(d2 - coef * phi)) / scale))

    # exponential decay below the last interface
    h_last = float(m.depths[-1])
    if shape.decay_rate > 0.0:
        dz = min(1.0 / shape.decay_rate, h_last if h_last > 0 else 1.0) * decay_span
        ratio = shape.evaluate(np.array([h_last + dz]))[0][0] / shape.a_inf
        decay_error = abs(ratio - np.exp(-shape.decay_rate * dz)) / abs(ratio)
    else:
        decay_error = np.inf  # constant tail: not square integrable

    if shape.is_l2:
        # both figures are ratios of norms, which scale with the square of
        # the amplitudes: take the norms of the shape over its largest
        # displacement, so that a huge tail cannot overflow them
        amp = max(abs(shape.a_inf), *(abs(t.phi) for t in shape.tops))
        unit = replace(
            shape,
            tops=tuple(LayerCoefficients(t.phi / amp, t.q / amp) for t in shape.tops),
            a_inf=shape.a_inf / amp,
        )
        mu_dphi_sq, rho_phi_sq, mu_phi_sq = mode_norms(unit)
        lhs = mu_dphi_sq - omega * omega * rho_phi_sq
        rhs = -k * k * mu_phi_sq
        rayleigh_residual = abs(lhs - rhs) / abs(rhs)
        rayleigh_quotient = omega * omega * rho_phi_sq / (k * k * mu_phi_sq)
    else:
        rayleigh_residual = np.inf
        rayleigh_quotient = np.nan

    return ModeDiagnostics(
        phi_jump=float(phi_jump),
        stress_jump=float(stress_jump),
        ode_residual=float(ode_residual),
        decay_error=float(decay_error),
        rayleigh_residual=float(rayleigh_residual),
        rayleigh_quotient=float(rayleigh_quotient),
    )


def mode_norms(shape: ModeShape) -> tuple[float, float, float]:
    """Closed-form norms ``(||sqrt(mu) phi'||^2, ||sqrt(rho) phi||^2, ||sqrt(mu) phi||^2)``.

    Each finite layer contributes the analytic integrals of its form from
    :func:`~lovedisp.dispersion._layer_integrals`, taken on the layer-top
    state divided by its largest entry, with that factor and the kernel's
    ``exp(2x)`` carried as a log-scale; the half-space contributes the
    exponential tail.  Requires a decaying (square-integrable) mode.

    Raises
    ------
    ResultOutOfRange
        If a norm leaves double range.
    """
    if not shape.is_l2:
        raise ValueError("mode is not square integrable (zero decay rate)")
    m = shape.medium
    phi = np.array([t.phi for t in shape.tops])
    q = np.array([t.q for t in shape.tops])
    s = np.maximum(np.abs(phi), np.abs(q))
    i_phi, i_dphi, lg = _layer_integrals(
        m, np.arange(m.n), shape.omega, shape.y, phi / s, q / s
    )
    nu_inf = shape.decay_rate
    tail = 0.5 * shape.a_inf * shape.a_inf
    with np.errstate(over="ignore"):
        weight = np.exp(lg + 2.0 * np.log(s))
        phi_sq, dphi_sq = i_phi * weight, i_dphi * weight
    mu_inf, rho_inf = float(m.mu[-1]), float(m.rho[-1])
    norms = (
        float(m.mu[:-1] @ dphi_sq) + mu_inf * tail * nu_inf,
        float(m.rho[:-1] @ phi_sq) + rho_inf * tail / nu_inf,
        float(m.mu[:-1] @ phi_sq) + mu_inf * tail / nu_inf,
    )
    if not np.all(np.isfinite(norms)):
        raise ResultOutOfRange(
            f"mode norms leave double range at (omega={shape.omega:g}, k={shape.k:g})"
        )
    return norms


def _interface_states(medium: Medium, omega, y):
    """The eigenfunction at every interface, shot from both ends.

    Shooting down from the surface loses a mode's decaying part below its
    trapping layers: rounding excites the growing solution, which can
    swamp the true state (the surface-shooting limit of
    :func:`mode_shape`).  Shooting up from the half-space's decaying
    solution has the same flaw in the opposite direction.  Each side's
    state is trusted by the log of its size over the largest growth an
    error could have had on the way (the evanescent phases ``x`` crossed);
    the two are matched at the interface that maximizes the smaller of
    the two margins, and the upper side is taken from the downward shot,
    the lower side from the upward one.  Going up, a layer is the
    downward map applied to ``(p, -q)``: the reflection ``z -> -z``.

    Vectorized over roots; returns ``(p, q, ls, up)``, each of shape
    ``(n + 1, len(y))`` and indexed by interface from the surface: the state
    is ``exp(ls) * (p, q)`` up to one factor per root, and ``up`` marks the
    states taken from the upward shot.
    """
    n = medium.n
    ones, zeros = np.ones_like(y), np.zeros_like(y)
    pd, qd, ld = map(np.array, zip((ones, zeros, zeros), *_propagate(medium, omega, y)))
    p, q = ones, -float(medium.mu[-1]) * _halfspace_decay(medium, y)
    s = np.maximum(np.abs(p), np.abs(q))
    shot = [(p / s, q / s, zeros)]
    for j in range(n - 1, -1, -1):
        p, q, ls = shot[-1]
        p2, q2, lf = _layer(medium, j, omega, y, medium.thickness[j], p, -q)[:3]
        s = np.maximum(np.abs(p2), np.abs(q2))
        shot.append((p2 / s, -q2 / s, ls + np.log(s) + lf))
    pu, qu, lu = map(np.array, zip(*shot[::-1]))
    d = y * y - medium.slowness_sq[:-1, None]
    growth = np.sqrt(np.maximum(d, 0.0)) * omega * medium.thickness[:, None]
    above = np.vstack([zeros, np.cumsum(growth, axis=0)])
    margin = np.minimum(ld - above, lu - (above[-1] - above))
    match = np.argmax(margin, axis=0)
    cols = np.arange(len(y))
    shift = ld[match, cols] - lu[match, cols] + 0.5 * np.log(
        (pd[match, cols] ** 2 + qd[match, cols] ** 2)
        / (pu[match, cols] ** 2 + qu[match, cols] ** 2)
    )
    use_up = np.arange(n + 1)[:, None] > match
    return (
        np.where(use_up, pu, pd),
        np.where(use_up, qu, qd),
        np.where(use_up, lu + shift, ld),
        use_up,
    )


def _wavenumber_sensitivities(medium: Medium, omega, y) -> np.ndarray:
    """Derivatives of the root wavenumber ``k = omega y`` at fixed ``omega``.

    By Rayleigh's principle the variational identity
    ``omega^2 sum rho int phi^2 - k^2 sum mu int phi^2 - sum mu int phi'^2 = 0``
    is stationary in ``phi``, so with ``I2 = sum_j mu_j int_j phi^2``
    (half-space included) a parameter change moves ``k`` by

    - ``dk/dmu_j = -(k^2 int_j phi^2 + int_j phi'^2) / (2 k I2)``,
    - ``dk/drho_j = omega^2 int_j phi^2 / (2 k I2)``,
    - ``dk/dT_j = sum_{i >= j} (L_i - L_{i+1})(z_i) / (2 k I2)``, where
      ``L_m = (rho_m omega^2 - mu_m k^2) phi^2 + tau^2 / mu_m`` is taken at
      interface ``i`` on the side of layer ``m`` and ``tau = mu phi'``.

    The interface states come from :func:`_interface_states`.  A layer
    above the matching interface is integrated down from its top state, a
    layer below it up from its bottom state (the integrals of the
    reflected shape are the same), so each runs in the direction its shot
    is accurate.  Vectorized over roots ``(omega_i, y_i)``; every integral
    and interface value is scaled by the same per-root factor, which
    cancels.  Returns an array of shape ``(len(omega), 3n + 2)`` over
    ``[mu, rho, thickness]``.
    """
    omega = np.asarray(omega, dtype=float)
    y = np.asarray(y, dtype=float)
    p, q, ls, up = _interface_states(medium, omega, y)
    layers = np.arange(medium.n)[:, None]
    from_top = _layer_integrals(medium, layers, omega, y, p[:-1], q[:-1])
    from_bottom = _layer_integrals(medium, layers, omega, y, p[1:], -q[1:])
    i_phi, i_dphi, lg = (np.where(up[1:], b, t) for t, b in zip(from_top, from_bottom))
    logs = np.vstack([lg + 2.0 * np.where(up[1:], ls[1:], ls[:-1]), 2.0 * ls[-1:]])
    ref = np.maximum(logs.max(axis=0), 2.0 * ls.max(axis=0))
    weight = np.exp(logs - ref)
    nu_inf = omega * _halfspace_decay(medium, y)
    tail = 0.5 * p[-1] ** 2
    phi_sq = np.vstack([i_phi, tail / nu_inf]) * weight
    dphi_sq = np.vstack([i_dphi, tail * nu_inf]) * weight
    k = omega * y
    mu, rho = medium.mu[:, None], medium.rho[:, None]
    den = 2.0 * k * np.sum(mu * phi_sq, axis=0)
    # interface i sits at the bottom of finite layer i
    at = np.exp(2.0 * ls[1:] - ref)
    jump = ((rho[:-1] - rho[1:]) * omega**2 - (mu[:-1] - mu[1:]) * k**2) * p[1:] ** 2 * at
    jump += (1.0 / mu[:-1] - 1.0 / mu[1:]) * (omega * q[1:]) ** 2 * at
    d_t = np.cumsum(jump[::-1], axis=0)[::-1]
    return (np.vstack([-(k**2 * phi_sq + dphi_sq), omega**2 * phi_sq, d_t]) / den).T
