"""Construction and verification of guided-wave eigenfunctions.

A mode at a dispersion root ``(omega, k)`` is normalized to ``phi(0) = 1``
and ``phi'(0) = 0``.  Its displacement and scaled stress
``(phi, mu phi'/omega)`` at every interface are shot down from the surface
and up from the half-space by :func:`~lovedisp.dispersion._shoot`, and
matched where both shots are accurate (:func:`_interface_states`).  They
are stored with their log scale, as the shots yield them; only
:meth:`ModeShape.evaluate` and :func:`mode_norms` form true values, and
raise :class:`~lovedisp.errors.ResultOutOfRange` where one leaves double
range.  Each finite layer is evaluated, integrated and checked from the
end its shot is accurate at, with the same layer kernel.  Below the last
interface the shape decays exponentially.  Norm integrals are
closed-form per layer (:func:`_norm_terms`), which keeps the quotient
identities accurate to rounding; the same terms give the
Rayleigh-principle sensitivities of the root wavenumbers to every
modulus, density and thickness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import (
    _apply_map,
    _check_strip,
    _dispersion_from_state,
    _dispersion_scale_floor,
    _halfspace_decay,
    _layer_integrals,
    _layer_map,
    _shoot,
)
from .errors import NotOnBranch, OutOfRange, ResultOutOfRange
from .medium import Medium

__all__ = ["ModeShape", "ModeDiagnostics", "mode_shape", "mode_residuals", "mode_norms"]

_RESIDUAL_FLOOR = 1e-8  # normalized dispersion residual accepted as on-branch


@dataclass(frozen=True)
class ModeShape:
    """Eigenfunction at a dispersion root, normalized to ``phi(0) = 1``.

    ``p``, ``q`` and ``ls`` hold the state at every interface from the
    surface down, the last interface included, as
    :func:`_interface_states` returns it: the displacement and scaled
    stress ``mu phi'/omega`` at interface j are ``exp(ls[j]) * (p[j],
    q[j])``, so a mode whose amplitudes leave double range is still
    stored.  The last row's stress is the tail's own, ``-mu_inf nu p``.
    Below the last interface the shape is ``exp(ls[-1] - decay_rate * (z -
    H_last)) * p[-1]``; a zero decay rate means the point sits on the
    half-space slowness and the shape is not square integrable (no guided
    mode there).  ``match`` is the interface where the downward and upward
    shots meet: a finite layer above it is carried down from its top
    state, a layer below it up from its bottom state.
    """

    medium: Medium
    omega: float
    k: float
    p: np.ndarray
    q: np.ndarray
    ls: np.ndarray
    decay_rate: float
    match: int

    @property
    def y(self) -> float:
        return self.k / self.omega

    @property
    def is_l2(self) -> bool:
        return self.decay_rate > 0.0

    def evaluate(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Displacement and stress ``mu phi'`` on depth array ``z``.

        Raises
        ------
        ValueError
            If a depth is negative or not finite.
        ResultOutOfRange
            If a value leaves double range.
        """
        z = np.atleast_1d(np.asarray(z, dtype=float))
        if not np.all((z >= 0.0) & (z < np.inf)):
            raise ValueError("depths must be finite and >= 0")
        m = self.medium
        h_last = float(m.depths[-1])
        layer = np.searchsorted(m.depths[1:], z, side="right")
        deep = layer == m.n
        p, q, lg = self._in_layers(np.minimum(layer, m.n - 1), np.minimum(z, h_last))
        p, q = np.where(deep, self.p[-1], p), np.where(deep, self.q[-1], q)
        lg = np.where(deep, self.ls[-1] - self.decay_rate * (z - h_last), lg)
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.exp(lg)
            phi, stress = p * scale, self.omega * q * scale
        bad = ~(np.isfinite(phi) & np.isfinite(stress))
        if np.any(bad):
            raise ResultOutOfRange(
                f"mode shape leaves double range at depth {z[bad][0]:g} "
                f"(omega={self.omega:g}, k={self.k:g})"
            )
        return phi, stress

    def _in_layers(self, j, z):
        """Scaled displacement and stress ``exp(lg) * (p, q)`` in finite
        layers ``j`` at depths ``z`` (broadcast), each carried from the end
        its shot is accurate at; returns ``(p, q, lg)``.
        """
        up = j >= self.match
        start = j + up
        sign = np.where(up, -1.0, 1.0)
        dz = sign * (z - self.medium.depths[start])
        step = _layer_map(self.medium, j, self.omega, self.y, dz)[:5]
        p, q, lf = _apply_map(*step, self.p[start], sign * self.q[start])
        return p, sign * q, lf + self.ls[start]


@dataclass(frozen=True)
class ModeDiagnostics:
    """Self-consistency report of a constructed mode (all relative)."""

    phi_jump: float
    stress_jump: float
    ode_residual: float
    rayleigh_residual: float
    rayleigh_quotient: float


def mode_shape(medium: Medium, omega: float, k: float) -> ModeShape:
    """Build the eigenfunction at a dispersion root ``(omega, k)``.

    Raises
    ------
    ValueError
        If ``omega`` is not finite and > 0.
    OutOfRange
        If the slowness ``k / omega`` is off the slowness strip
        ``[1/c_inf, 1/c0)``.
    NotOnBranch
        If the normalized dispersion residual at ``(omega, k/omega)``
        exceeds ``1e-8``.
    """
    if not 0.0 < omega < np.inf:  # before k / omega is formed
        raise ValueError("omega must be finite and > 0")
    y = k / omega
    _check_strip(medium, omega, y)
    # on-branch test: either the dispersion function changes sign within a
    # few refinement widths of y (strong evanescence can put an irreducible
    # cancellation floor under the pointwise value), or the value itself is
    # below the global floor
    delta = max(1e-11 * y, 8.0 * np.spacing(y))
    probe = np.array([y - delta, y, y + delta])
    # one downward shot gives the probe's values and the states at y
    down = np.array([state[:3] for state in _shoot(medium, omega, probe)])
    vals = _dispersion_from_state(medium, probe, down[-1, 0], down[-1, 1])
    res = abs(float(vals[1])) / _dispersion_scale_floor(medium)
    brackets = vals[0] == 0.0 or vals[2] == 0.0 or np.sign(vals[0]) != np.sign(vals[2])
    if not brackets and res > _RESIDUAL_FLOOR:
        raise NotOnBranch(
            f"no dispersion zero within {delta:.2e} of y={y!r} and normalized "
            f"residual {res:.3e} exceeds floor {_RESIDUAL_FLOOR:.1e} "
            f"at (omega={omega:g}, k={k:g})"
        )
    states = _interface_states(medium, omega, probe[1:2], down[..., 1:2])
    p, q, ls, match = (a[..., 0] for a in states)
    nu_inf = float(_halfspace_decay(medium, y))
    q[-1] = -float(medium.mu[-1]) * nu_inf * p[-1]
    return ModeShape(
        medium=medium,
        omega=float(omega),
        k=float(k),
        p=p,
        q=q,
        ls=ls,
        decay_rate=omega * nu_inf,
        match=int(match),
    )


def mode_residuals(shape: ModeShape) -> ModeDiagnostics:
    """Verify a constructed mode against the equations that define it.

    Each finite layer is carried from the end it is built from to the
    other, where it must match the stored state, the tail's included.  The
    layer ODE ``phi'' = omega^2 (y^2 - 1/c_j^2) phi`` keeps the first
    integral ``J = q^2 - mu_j^2 (y^2 - 1/c_j^2) p^2`` of the state ``(p, q)
    = (phi, mu phi'/omega)`` constant across layer ``j``; it is compared at
    both ends.  The quotient identity ties the three closed-form norms
    together.  Every comparison is made on the scaled states, so no
    diagnostic leaves double range.
    """
    m = shape.medium
    omega, k, y = shape.omega, shape.k, shape.y
    layers = np.arange(m.n)
    # each layer is carried from its near interface and checked at its far one
    near = layers + (layers >= shape.match)
    far = layers + (layers < shape.match)
    p, q, lg = shape._in_layers(layers, m.depths[far])

    # displacement and stress jumps, each relative to its size or a floor,
    # all over the stored state's scale exp(ls)
    stored = np.array([shape.p[far], shape.q[far]])
    with np.errstate(over="ignore", invalid="ignore"):
        ends = np.array([p, q]) * np.exp(lg - shape.ls[far])
        floor = np.array([[1e-300], [_dispersion_scale_floor(m)]]) * np.exp(-shape.ls[far])
        size = np.maximum(np.maximum(np.abs(ends), np.abs(stored)), floor)
        phi_jump, stress_jump = np.max(np.abs(ends - stored) / size, axis=1)

    # ODE residual: the change of J across each layer, relative to the
    # largest of its two terms at either end, over the larger end's scale
    lgs = np.array([shape.ls[near], lg])
    scale = np.exp(2.0 * (lgs - lgs.max(axis=0)))
    q_sq = np.array([shape.q[near], q]) ** 2 * scale
    coef = m.mu[:-1] ** 2 * (y * y - m.slowness_sq[:-1])
    p_sq = coef * np.array([shape.p[near], p]) ** 2 * scale
    terms = np.maximum(q_sq, np.abs(p_sq)).max(axis=0) + 1e-300
    change = (q_sq[1] - p_sq[1]) - (q_sq[0] - p_sq[0])
    ode_residual = np.max(np.abs(change) / terms)

    if shape.is_l2:
        # both figures are ratios of norms: take them from the scaled sums
        mu_dphi_sq, rho_phi_sq, mu_phi_sq = _scaled_norms(shape)[0]
        lhs = mu_dphi_sq - omega * omega * rho_phi_sq
        rhs = -k * k * mu_phi_sq
        rayleigh_residual = abs(lhs - rhs) / abs(rhs)
        rayleigh_quotient = omega * omega * rho_phi_sq / (k * k * mu_phi_sq)
    else:
        rayleigh_residual = np.inf  # constant tail: not square integrable
        rayleigh_quotient = np.nan

    return ModeDiagnostics(
        phi_jump=float(phi_jump),
        stress_jump=float(stress_jump),
        ode_residual=float(ode_residual),
        rayleigh_residual=float(rayleigh_residual),
        rayleigh_quotient=float(rayleigh_quotient),
    )


def mode_norms(shape: ModeShape) -> tuple[float, float, float]:
    """Closed-form norms ``(||sqrt(mu) phi'||^2, ||sqrt(rho) phi||^2, ||sqrt(mu) phi||^2)``.

    Each finite layer contributes the analytic integrals of its form from
    :func:`_norm_terms`; the half-space contributes the exponential tail.
    Requires a decaying (square-integrable) mode.

    Raises
    ------
    OutOfRange
        If the mode does not decay (zero decay rate): it is not square
        integrable.
    ResultOutOfRange
        If a norm leaves double range.
    """
    if not shape.is_l2:
        raise OutOfRange("mode is not square integrable (zero decay rate)")
    sums, ref = _scaled_norms(shape)
    with np.errstate(over="ignore"):
        norms = tuple(float(v) for v in np.array(sums) * np.exp(ref))
    if not np.all(np.isfinite(norms)):
        raise ResultOutOfRange(
            f"mode norms leave double range at (omega={shape.omega:g}, k={shape.k:g})"
        )
    return norms


def _scaled_norms(shape: ModeShape):
    """The three norms of :func:`mode_norms` over ``exp(ref)``, and ``ref``."""
    m = shape.medium
    phi_sq, dphi_sq, ref = _norm_terms(
        m, shape.omega, shape.y, shape.p, shape.q, shape.ls, shape.match
    )
    return (m.mu @ dphi_sq, m.rho @ phi_sq, m.mu @ phi_sq), ref


def _interface_states(medium: Medium, omega, y, down):
    """The eigenfunction at every interface, shot from both ends.

    Shooting down from the surface loses a mode's decaying part below its
    trapping layers: rounding excites the growing solution, which can
    swamp the true state.  Shooting up from the half-space's decaying
    solution has the same flaw in the opposite direction.  Each side's
    state is trusted by the log of its size over the largest growth an
    error could have had on the way (the evanescent phases ``x`` crossed);
    the two are matched in size and sign at the interface that maximizes
    the smaller of the two margins, and the upper side is taken from the
    downward shot, the lower side from the upward one.  ``down`` is the
    downward shot at ``y`` as :func:`~lovedisp.dispersion._shoot` yields
    it, or stacked to shape ``(n + 1, 3) + y.shape``; the upward shot is
    made here and reversed, so that both are indexed from the surface.

    Vectorized over roots; returns ``(p, q, ls, match)``.  The first three
    have shape ``(n + 1, len(y))`` and are indexed by interface from the
    surface: the state is ``exp(ls) * (p, q)``, with ``max(|p|, |q|) == 1``
    and ``(1, 0)`` at the surface.  ``match`` is the matching interface per
    root; the states below it come from the upward shot.
    """
    n = medium.n
    pd, qd, ld = map(np.array, list(zip(*down))[:3])
    pu, qu, lu = map(np.array, list(zip(*reversed(list(_shoot(medium, omega, y, up=True)))))[:3])
    d = y * y - medium.slowness_sq[:-1, None]
    growth = np.sqrt(np.maximum(d, 0.0)) * omega * medium.thickness[:, None]
    above = np.vstack([np.zeros_like(y), np.cumsum(growth, axis=0)])
    margin = np.minimum(ld - above, lu - (above[-1] - above))
    match = np.argmax(margin, axis=0)
    at = match, np.arange(len(y))
    shift = ld[at] - lu[at] + 0.5 * np.log(
        (pd[at] ** 2 + qd[at] ** 2) / (pu[at] ** 2 + qu[at] ** 2)
    )
    sign = np.where(pd[at] * pu[at] + qd[at] * qu[at] < 0.0, -1.0, 1.0)
    use_up = np.arange(n + 1)[:, None] > match
    return (*np.where(use_up, [sign * pu, sign * qu, lu + shift], [pd, qd, ld]), match)


def _norm_terms(medium: Medium, omega, y, p, q, ls, match):
    """Integrals of ``phi^2`` and ``phi'^2`` per finite layer, then the tail.

    Takes interface states ``exp(ls) * (p, q)`` and the matching interface
    as :func:`_interface_states` returns them, for one root (a scalar
    ``match``) or many; only the mantissas are squared in doubles.  A layer
    above the matching interface is integrated down from its top state, a
    layer below it up from its bottom state (the reflected shape has the
    same integrals), so each runs in the direction its shot is accurate.
    Returns ``(phi_sq, dphi_sq, ref)``: rows ``0..n-1`` hold the layers,
    row ``n`` the half-space, all over ``exp(ref)``; ``ref`` is at least
    ``2 max(ls)``.
    """
    n = medium.n
    layers = np.arange(n).reshape((n,) + (1,) * np.ndim(match))
    up = layers >= match
    p0, q0, l0 = np.where(up, [p[1:], -q[1:], ls[1:]], [p[:-1], q[:-1], ls[:-1]])
    i_phi, i_dphi, lg = _layer_integrals(medium, layers, omega, y, p0, q0)
    logs = np.concatenate([lg + 2.0 * l0, [2.0 * ls[-1]]])
    ref = np.maximum(logs.max(axis=0), 2.0 * ls.max(axis=0))
    weight = np.exp(logs - ref)
    nu_inf = omega * _halfspace_decay(medium, y)
    tail = 0.5 * p[-1] ** 2
    phi_sq = np.concatenate([i_phi, [tail / nu_inf]]) * weight
    dphi_sq = np.concatenate([i_dphi, [tail * nu_inf]]) * weight
    return phi_sq, dphi_sq, ref


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

    The interface states come from :func:`_interface_states` and the
    integrals from :func:`_norm_terms`.  Vectorized over roots
    ``(omega_i, y_i)``; every integral and interface value is scaled by the
    same per-root factor, which cancels.  Returns an array of shape
    ``(len(omega), 3n + 2)`` over ``[mu, rho, thickness]``.

    Raises
    ------
    OutOfRange
        If a root's half-space decay rate ``omega sqrt(y^2 - 1/c_inf^2)`` is
        0, a root within rounding of ``1/c_inf``.
    """
    omega = np.asarray(omega, dtype=float)
    y = np.asarray(y, dtype=float)
    # a root within rounding of 1/c_inf has no decaying tail, and the
    # half-space integral of phi^2 divides by the decay rate
    at_edge = np.flatnonzero(omega * _halfspace_decay(medium, y) == 0.0)
    if len(at_edge):
        i = at_edge[0]
        raise OutOfRange(
            f"root y={float(y[i])!r} at omega={float(omega[i])!r} lies at the half-space "
            "slowness 1/c_inf: its mode does not decay, so it has no sensitivities"
        )
    p, q, ls, match = _interface_states(medium, omega, y, _shoot(medium, omega, y))
    phi_sq, dphi_sq, ref = _norm_terms(medium, omega, y, p, q, ls, match)
    k = omega * y
    mu, rho = medium.mu[:, None], medium.rho[:, None]
    den = 2.0 * k * np.sum(mu * phi_sq, axis=0)
    # interface i sits at the bottom of finite layer i
    at = np.exp(2.0 * ls[1:] - ref)
    jump = ((rho[:-1] - rho[1:]) * omega**2 - (mu[:-1] - mu[1:]) * k**2) * p[1:] ** 2 * at
    jump += (1.0 / mu[:-1] - 1.0 / mu[1:]) * (omega * q[1:]) ** 2 * at
    d_t = np.cumsum(jump[::-1], axis=0)[::-1]
    return (np.vstack([-(k**2 * phi_sq + dphi_sq), omega**2 * phi_sq, d_t]) / den).T
