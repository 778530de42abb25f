"""Dispersion function of the layered half-space, via one scaled layer kernel.

The pair ``(P, Q)`` proportional to ``(phi, mu phi'/omega)`` is carried
from the surface down through the finite layers.  :func:`_layer` is the
only code that knows the three forms of a layer's transfer map, chosen by
the sign of ``d = y^2 - 1/c_j^2``: a real cos/sin rotation in oscillatory
layers (``d < 0``), cosh/sinh scaled by ``exp(-x)`` in evanescent layers
(``d > 0``), and the linear limit only on an exact hit (``d == 0``).  The root count, the dispersion value, the
public layer matrix and the mode shapes all call it.  The state is
renormalized after every layer, so arbitrarily large frequency-thickness
products stay inside double range; the accumulated positive factor is
tracked as ``log_scale``.  The dispersion function

    F(omega, y) = mu_inf * nu_inf(y) * P_n(omega, y) + Q_n(omega, y)

is real on the slowness strip ``y in [1/c_inf, 1/c0)`` and vanishes exactly
at the guided-wave slownesses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .medium import Medium

__all__ = ["DispersionValue", "layer_matrix", "dispersion_value"]


@dataclass(frozen=True)
class DispersionValue:
    """Scaled dispersion value: the true value is ``exp(log_scale) * value``."""

    value: float
    log_scale: float
    sign: int


def _layer(medium: Medium, j: int, omega, y, depth, p, q):
    """Carry the state ``(p, q)`` from the top of finite layer ``j`` (0-based)
    down ``depth``, broadcast over ``omega``, ``y``, ``depth`` and the state.

    The map is ``[[C, S/a], [sigma a S, C]]`` with ``a = mu_j |nu_j|``,
    ``x = omega |nu_j| depth`` and ``sigma = sign(y^2 - 1/c_j^2)``:
    ``(C, S) = (cos x, sin x)`` in oscillatory layers, and the
    ``exp(-x)``-scaled ``(cosh x, sinh x)`` in evanescent ones.  The
    degenerate form ``[[1, omega depth/mu_j], [0, 1]]`` is used only on an
    exact hit ``y^2 == 1/c_j^2``, which includes ``y == 1/c_j``.  Once
    ``exp(-2x)`` is below rounding, the scaled cosh and sinh round to the
    same value; a state whose growing part cancels exactly would then map
    to zero, so it is kept as the decaying solution it is, scaled by
    ``exp(-x)``.

    Returns ``(p2, q2, lf, x, a, mono)``: the true state below is
    ``exp(lf) * (p2, q2)``, and ``mono`` marks the evanescent and
    degenerate points, where the displacement changes sign at most once.
    """
    mu = float(medium.mu[j])
    d = y * y - float(medium.slowness_sq[j])
    mag = np.sqrt(np.abs(d))
    x = omega * mag * depth
    a = mu * mag
    osc = d < 0.0
    em = np.expm1(-2.0 * x)
    c = np.where(osc, np.cos(x), 1.0 + 0.5 * em)
    s = np.where(osc, np.sin(x), -0.5 * em)
    with np.errstate(divide="ignore", invalid="ignore"):
        s_a = s / a
    hit = d == 0.0
    if np.any(hit):
        s_a = np.where(hit, omega * depth / mu, s_a)
    p2 = c * p + s_a * q
    q2 = c * q + np.sign(d) * a * s * p
    lf = np.where(osc, 0.0, x)
    lost = (p2 == 0.0) & (q2 == 0.0)
    if np.any(lost):
        p2, q2, lf = np.where(lost, p, p2), np.where(lost, q, q2), np.where(lost, -x, lf)
    return p2, q2, lf, x, a, ~osc


def _propagate(medium: Medium, omega, y):
    """Yield the scaled state ``(p, q, log_scale)`` at the bottom of each layer.

    Starts from the surface state ``(1, 0)``; ``omega`` and ``y`` must be
    broadcast-compatible, ``omega >= 0``.  After every layer the state is
    divided by ``max(|p|, |q|)``.
    """
    omega = np.asarray(omega, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = np.broadcast_shapes(omega.shape, y.shape)
    p, q, ls = np.ones(shape), np.zeros(shape), np.zeros(shape)
    for j in range(medium.n):
        p, q, lf = _layer(medium, j, omega, y, medium.thickness[j], p, q)[:3]
        s = np.maximum(np.abs(p), np.abs(q))
        p, q, ls = p / s, q / s, ls + np.log(s) + lf
        yield p, q, ls


def _pq_scaled(medium: Medium, omega, y):
    """Vectorized scaled propagation: returns arrays ``(p, q, log_scale)``.

    The true pair below the last finite layer is ``exp(log_scale) * (p, q)``,
    with ``max(|p|, |q|) == 1``.
    """
    for state in _propagate(medium, omega, y):
        pass
    return state


def _halfspace_decay(medium: Medium, y):
    """Nonnegative half-space decay factor ``sqrt(y^2 - 1/c_inf^2)``."""
    d = np.asarray(y, dtype=float) ** 2 - float(medium.slowness_sq[-1])
    return np.sqrt(np.maximum(d, 0.0))


def _sturm_count(medium: Medium, omega, y):
    """Exact number of dispersion roots with slowness strictly above ``y``.

    Counts the interior zeros of the surface-normalized solution down
    through the stack and the decaying tail; by Sturm oscillation theory
    that zero count equals the number of eigenvalues below the shooting
    slowness.  Per layer the zero count is closed-form: a rigid rotation
    crossing in oscillatory layers, at most one sign change in evanescent
    (or exactly degenerate) layers.  The tail contributes one more zero
    exactly when the dispersion value and the displacement at the last
    interface have opposite signs.

    Vectorized over broadcastable ``omega`` and ``y``; returns an int64
    array (0-d for scalars).
    """
    omega = np.asarray(omega, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = np.broadcast_shapes(omega.shape, y.shape)
    p, q = np.ones(shape), np.zeros(shape)
    total = np.zeros(shape, dtype=np.int64)
    half_pi = 0.5 * np.pi
    for j in range(medium.n):
        p2, q2, _, x, a, mono = _layer(medium, j, omega, y, medium.thickness[j], p, q)
        # monotone-type layer: at most one interior sign change
        flip = (p != 0.0) & ((p2 == 0.0) | (np.sign(p2) == -np.sign(p)))
        # oscillatory layer: zeros of R cos(t - delta) for the rotation angle t in (0, x]
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = np.arctan2(q / a, p)
        turns = np.floor((x - delta - half_pi) / np.pi) - np.floor((-delta - half_pi) / np.pi)
        total += np.where(mono, flip, turns).astype(np.int64)
        s = np.maximum(np.abs(p2), np.abs(q2))
        p, q = p2 / s, q2 / s
    f = float(medium.mu[-1]) * _halfspace_decay(medium, y) * p + q
    tail = (p != 0.0) & (np.sign(f) == -np.sign(p))
    return total + tail.astype(np.int64)


def _dispersion_scaled(medium: Medium, omega, y):
    """Vectorized scaled dispersion value: returns ``(value, log_scale)``."""
    p, q, ls = _pq_scaled(medium, omega, y)
    val = float(medium.mu[-1]) * _halfspace_decay(medium, y) * p + q
    return val, ls


def _dispersion_scale_floor(medium: Medium) -> float:
    """Magnitude floor for normalizing dispersion residuals.

    Near a cutoff both assembled terms vanish together, so residuals are
    normalized against this slowness-bandwidth proxy instead of the local
    term magnitudes alone.
    """
    lo, hi = medium.slowness_domain
    return float(medium.mu[-1]) * float(np.sqrt(hi * hi - lo * lo))


def _check_point(medium: Medium, omega: float, y: float) -> None:
    if not omega >= 0.0:
        raise ValueError("omega must be >= 0")
    lo = float(medium.slowness[-1])
    if y < lo * (1.0 - 1e-12):
        raise ValueError(
            f"slowness {y!r} below the half-space slowness {lo!r}: the "
            "dispersion function is complex there"
        )


def layer_matrix(medium: Medium, j: int, omega: float, y: float) -> np.ndarray:
    """True (unscaled) 2x2 transfer matrix of finite layer ``j`` (1-based).

    Unit determinant in every branch.  Its columns are the images of the
    unit states under the layer kernel.  For very large ``omega * T`` the
    hyperbolic entries can overflow double range; the propagation behind
    :func:`dispersion_value` and the mode shapes is immune to that because
    it rescales per layer.
    """
    if not 1 <= j <= medium.n:
        raise ValueError(f"layer index {j} outside 1..{medium.n}")
    _check_point(medium, omega, y)
    p, q, lf = _layer(
        medium, j - 1, float(omega), float(y), medium.thickness[j - 1],
        np.array([1.0, 0.0]), np.array([0.0, 1.0]),
    )[:3]
    return np.exp(lf) * np.array([p, q])


def dispersion_value(medium: Medium, omega: float, y: float) -> DispersionValue:
    """Scaled dispersion value at ``(omega, y)``.

    Zeros of this function on ``y in (1/c_inf, 1/c0)`` are the guided-wave
    slownesses at ``omega``; at ``omega = 0`` the value reduces exactly to
    ``mu_inf * nu_inf(y)``.
    """
    _check_point(medium, omega, y)
    val, ls = _dispersion_scaled(
        medium, np.asarray(float(omega)), np.asarray(float(y))
    )
    v = float(val)
    return DispersionValue(value=v, log_scale=float(ls), sign=int(np.sign(v)))
