"""Dispersion function of the layered half-space, via one scaled layer kernel.

The pair ``(P, Q)`` proportional to ``(phi, mu phi'/omega)`` is carried
through the finite layers by :func:`_shoot`: down from the surface for the
dispersion value and the mode shapes, or up from the half-space's
decaying solution for the mode shapes.  :func:`_layer_map` is the only
code that knows the three forms of a layer's transfer map, chosen by the
sign of ``d = y^2 - 1/c_j^2``: a real cos/sin rotation in oscillatory
layers (``d < 0``), cosh/sinh scaled by ``exp(-x)`` in evanescent layers
(``d > 0``), and the linear limit only on an exact hit (``d == 0``).
:func:`_apply_map` applies a map to a state; every caller that carries a
state, the mode shapes and the public layer matrix included, calls the
two in turn.  The shot and the root count take every layer's map from
:func:`_layer_maps`, which on a small pass (``n >= 2`` layers, at most
``_SMALL_PASS`` points) forms all n of them in one kernel call, since
there numpy's cost per call outweighs the arithmetic; only the 2x2 step
and the renormalization stay in the per-layer loop.
:func:`_layer_integrals` holds the integrals of ``phi^2`` and ``phi'^2``
over a layer in the same three forms; the mode norms and the root
sensitivities call it.  The state is renormalized after every layer, so
arbitrarily large frequency-thickness products stay inside double range;
the accumulated positive factor is tracked as ``log_scale``.  The
dispersion function

    F(omega, y) = mu_inf * nu_inf(y) * P_n(omega, y) + Q_n(omega, y)

is real on the slowness strip ``y in [1/c_inf, 1/c0)`` and vanishes exactly
at the guided-wave slownesses.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import ResultOutOfRange
from .medium import Medium

__all__ = ["DispersionValue", "layer_matrix", "dispersion_value"]

_SMALL_PASS = 4096  # points below which a pass costs its numpy calls, not its points
_STACK_POINTS = 2**16  # (layer x point) entries one stacked map may hold: bounds its memory
_LOG_MAX = float(np.log(np.finfo(float).max))  # largest exponent a double holds


@dataclass(frozen=True)
class DispersionValue:
    """Scaled dispersion value: the true value is ``exp(log_scale) * value``."""

    value: float
    log_scale: float
    sign: int


def _layer_map(medium: Medium, j, omega, y, depth):
    """Transfer map of finite layer ``j`` (0-based) over ``depth``,
    broadcast over ``j``, ``omega``, ``y`` and ``depth``.

    The map is ``[[C, S/a], [sigma a S, C]]`` with ``a = mu_j |nu_j|``,
    ``x = omega |nu_j| depth`` and ``sigma = sign(y^2 - 1/c_j^2)``:
    ``(C, S) = (cos x, sin x)`` in oscillatory layers, and the
    ``exp(-x)``-scaled ``(cosh x, sinh x)`` in evanescent ones.  The
    degenerate form ``[[1, omega depth/mu_j], [0, 1]]`` is used only on an
    exact hit ``y^2 == 1/c_j^2``, which includes ``y == 1/c_j``.

    Returns ``(C, S/a, sigma a S, lf, x, a, osc)``: the true map is
    ``exp(lf)`` times the matrix, and ``osc`` marks the oscillatory
    points; at the others the displacement changes sign at most once.
    A rare case (a zero divisor) is found by one ``np.count_nonzero`` and
    handled only when present.
    """
    mu = medium.mu[j]
    d = y * y - medium.slowness_sq[j]
    mag = np.sqrt(np.abs(d))
    x = omega * mag * depth
    a = mu * mag
    osc = d < 0.0
    em = np.expm1(-2.0 * x)
    c = np.where(osc, np.cos(x), 1.0 + 0.5 * em)
    s = np.where(osc, np.sin(x), -0.5 * em)
    if np.count_nonzero(a) < a.size:  # an exact hit y^2 == 1/c_j^2
        with np.errstate(divide="ignore", invalid="ignore"):
            s_a = np.where(d == 0.0, omega * depth / mu, s / a)
    else:
        s_a = s / a
    return c, s_a, np.copysign(a, d) * s, np.where(osc, 0.0, x), x, a, osc


def _apply_map(c, s_a, sas, lf, x, p, q):
    """Apply one layer's map, as :func:`_layer_map` returns it, to the
    state ``(p, q)``; returns ``(p2, q2, lf)``, the true state below being
    ``exp(lf) * (p2, q2)``.

    Once ``exp(-2x)`` is below rounding, the scaled cosh and sinh round to
    the same value; a state whose growing part cancels exactly would then
    map to zero, so it is kept as the decaying solution it is, scaled by
    ``exp(-x)``.
    """
    p2 = c * p + s_a * q
    q2 = c * q + sas * p
    kept = np.logical_or(p2, q2)
    if np.count_nonzero(kept) < kept.size:
        p2, q2, lf = np.where(kept, p2, p), np.where(kept, q2, q), np.where(kept, lf, -x)
    return p2, q2, lf


def _layer_maps(medium: Medium, omega, y, shape, order):
    """Each finite layer's map at ``(omega, y)``, broadcast to ``shape``,
    as :func:`_layer_map` returns it, in the layer ``order`` given.

    Forming one map takes about 20 numpy calls, and on a small pass each
    costs its call, not its points.  So for ``n >= 2`` layers and at most
    ``_SMALL_PASS`` points the n maps are formed in one kernel call with a
    leading layer axis, unless that stack would hold over
    ``_STACK_POINTS`` entries (a deep stack); otherwise each layer's map
    is formed when the caller's loop reaches it, one map at a time.
    """
    n = medium.n
    if n == 1:
        return [_layer_map(medium, 0, omega, y, medium.thickness[0])]
    size = math.prod(shape)
    if size <= _SMALL_PASS and n * size <= _STACK_POINTS:
        j = np.array(order).reshape((n,) + (1,) * len(shape))
        return zip(*_layer_map(medium, j, omega, y, medium.thickness[j]))
    return (_layer_map(medium, j, omega, y, medium.thickness[j]) for j in order)


def _layer_integrals(medium: Medium, j, omega, y, p, q):
    """Integrals of ``phi^2`` and ``phi'^2`` over finite layer ``j`` (0-based).

    ``(p, q)`` is the state ``(phi, mu phi'/omega)`` at the layer top; every
    argument broadcasts, ``j`` included.  With ``b = q / (mu_j |nu_j|)``
    and ``x = omega |nu_j| T_j``, an oscillatory layer holds
    ``phi = p cos + b sin`` and is integrated in that form.  An evanescent
    layer holds ``phi = g e^(nu z) + h e^(-nu z)`` with ``g, h = (p +- b)/2``
    and is integrated in that form scaled by ``exp(-2x)``, so ``sinh(2x)``
    is never formed and the growing part of a decaying mode, which nearly
    cancels at the top, is never squared against its own rounding.  The
    degenerate layer (an exact hit ``y^2 == 1/c_j^2``) is linear in depth.
    Returns ``(i_phi, i_dphi, lg)``: the true integrals are
    ``exp(lg) * (i_phi, i_dphi)``.
    """
    mu = medium.mu[j]
    t = medium.thickness[j]
    d = y * y - medium.slowness_sq[j]
    mag = np.sqrt(np.abs(d))
    nu = omega * mag
    x = nu * t
    osc = d < 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        b = q / (mu * mag)
        two_x, inv = 2.0 * x, 0.5 / nu
        # oscillatory: the integrals of cos^2 and sin^2, and the cross term
        # 2 p b times the integral of cos sin
        w = 0.5 * np.sin(two_x) * inv
        i_cc, i_ss = 0.5 * t + w, 0.5 * t - w
        pp, bb, mix = p * p, b * b, 2.0 * p * b * (np.sin(x) ** 2 * inv)
        # evanescent, times exp(-2x): e^(2 nu z) and e^(-2 nu z) integrate
        # to (1 - e^(-2x)) / (2 nu) and e^(-2x) times that, the cross term to T
        g, h = 0.5 * (p + b), 0.5 * (p - b)
        decay = np.exp(-two_x)
        ends = (g * g + h * h * decay) * (-np.expm1(-two_x) * inv)
        cross = 2.0 * g * h * t * decay
        i_phi = np.where(osc, pp * i_cc + mix + bb * i_ss, ends + cross)
        i_dphi = nu * nu * np.where(osc, pp * i_ss - mix + bb * i_cc, ends - cross)
    hit = d == 0.0
    if np.any(hit):  # the degenerate layer: phi is linear in depth
        slope = omega * q / mu
        i_phi = np.where(hit, p * p * t + p * slope * t**2 + slope**2 * t**3 / 3.0, i_phi)
        i_dphi = np.where(hit, slope * slope * t, i_dphi)
    return i_phi, i_dphi, np.where(osc, 0.0, 2.0 * x)


def _shoot(medium: Medium, omega, y, up=False):
    """Carry the eigenfunction's state through the layer stack, down or up.

    Yields ``n + 1`` scaled states ``(p, q, ls)``, one per interface, in
    the order the shot reaches them: from the surface down, or from the
    last interface up.  The true state is ``exp(ls) * (p, q)`` with
    ``max(|p|, |q|) == 1``.  Going down the shot starts from the surface
    state ``(1, 0)``; going up, from the half-space's decaying state
    ``(1, -mu_inf nu_inf)``, and each layer is the downward map applied to
    the reflected state ``(p, -q)`` (``z -> -z``), reflected back when
    yielded.  A caller that keeps only the state it reads holds one
    interface's arrays at any depth of stack.  ``omega`` and ``y`` must be
    broadcast-compatible, ``omega >= 0``.
    """
    omega = np.asarray(omega, dtype=float)
    y = np.asarray(y, dtype=float)
    zeros = np.zeros(np.broadcast(omega, y).shape)
    if up:  # the reflected tail: its stress is +mu_inf nu_inf going up
        q = float(medium.mu[-1]) * _halfspace_decay(medium, y) + zeros
        s = np.maximum(1.0, q)
        p, q, ls = 1.0 / s, q / s, zeros
    else:
        p, q, ls = zeros + 1.0, zeros, zeros
    yield (p, -q, ls) if up else (p, q, ls)
    order = range(medium.n - 1, -1, -1) if up else range(medium.n)
    for c, s_a, sas, lf, x, _, _ in _layer_maps(medium, omega, y, zeros.shape, order):
        p, q, lf = _apply_map(c, s_a, sas, lf, x, p, q)
        s = np.maximum(np.abs(p), np.abs(q))
        p, q, ls = p / s, q / s, ls + np.log(s) + lf
        yield (p, -q, ls) if up else (p, q, ls)


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

    It carries the state down with its own loop rather than read
    :func:`_shoot`: a count needs no log scale, and root isolation calls
    it on every step, where carrying one (a ``log`` per layer) slows the
    count by a few percent.  The turns are summed in doubles, which hold
    every count below ``2**53`` exactly.

    Vectorized over broadcastable ``omega`` and ``y``; returns an int64
    array (0-d for scalars).

    Raises
    ------
    ResultOutOfRange
        If a count reaches ``2**53``, where a double no longer holds it
        exactly: a phase ``x`` of about ``2.8e16`` summed over the layers.
    """
    omega = np.asarray(omega, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = np.broadcast(omega, y).shape
    q = np.zeros(shape)
    p = q + 1.0
    total = np.zeros(shape)
    half_pi = 0.5 * np.pi
    for c, s_a, sas, lf, x, a, osc in _layer_maps(medium, omega, y, shape, range(medium.n)):
        p2, q2, _ = _apply_map(c, s_a, sas, lf, x, p, q)
        # monotone-type layer: at most one interior sign change
        flip = (np.sign(p2) * np.sign(p) <= 0.0) & (p != 0.0)
        # oscillatory layer: zeros of R cos(t - delta) for the rotation angle
        # t in (0, x], floor((x - e) / pi) + ceil(e / pi) with e = delta + pi/2
        degenerate = np.count_nonzero(a) < a.size  # a == 0: q / a is not used
        with np.errstate(divide="ignore", invalid="ignore") if degenerate else nullcontext():
            delta = np.arctan2(q / a, p)
        turns = np.floor((x - delta - half_pi) / np.pi) + np.ceil((delta + half_pi) / np.pi)
        total += np.where(osc, turns, flip)
        s = np.maximum(np.abs(p2), np.abs(q2))
        p, q = p2 / s, q2 / s
    # the tail adds a zero where F and the displacement have opposite signs
    total += np.sign(_dispersion_from_state(medium, y, p, q)) * np.sign(p) < 0.0
    if not total.max() < 2.0**53:
        at = np.flatnonzero(~(total < 2.0**53))[0]
        raise ResultOutOfRange(
            f"root count at omega={float(np.broadcast_to(omega, shape).flat[at])!r} "
            "is beyond 2**53, where a double no longer holds it exactly"
        )
    return total.astype(np.int64)


def _dispersion_from_state(medium: Medium, y, p, q):
    """The dispersion function from the state ``(p, q)`` at the last interface."""
    return float(medium.mu[-1]) * _halfspace_decay(medium, y) * p + q


def _dispersion_scaled(medium: Medium, omega, y):
    """Vectorized scaled dispersion value: returns ``(value, log_scale)``."""
    for p, q, ls in _shoot(medium, omega, y):
        pass
    return _dispersion_from_state(medium, y, p, q), ls


def _oscillatory_phase(medium: Medium, y) -> float:
    """Oscillatory phase per unit frequency, ``sum_j T_j sqrt(max(1/c_j^2 -
    y^2, 0))``: it sets the cutoff spacing and the Weyl count's slope."""
    nu = np.sqrt(np.maximum(medium.slowness_sq[:-1] - y * y, 0.0))
    return float(np.sum(nu * medium.thickness))


def _dispersion_scale_floor(medium: Medium) -> float:
    """Magnitude floor for normalizing dispersion residuals.

    Near a cutoff both assembled terms vanish together, so residuals are
    normalized against this slowness-bandwidth proxy instead of the local
    term magnitudes alone.
    """
    lo, hi = medium.slowness_domain
    return float(medium.mu[-1]) * float(np.sqrt(hi * hi - lo * lo))


def _check_point(medium: Medium, omega: float, y: float) -> None:
    if not 0.0 <= omega < np.inf:
        raise ValueError("omega must be finite and >= 0")
    if not np.isfinite(y):
        raise ValueError(f"slowness {y!r} is not finite")
    lo = float(medium.slowness[-1])
    if y < lo * (1.0 - 1e-12):
        raise ValueError(
            f"slowness {y!r} below the half-space slowness {lo!r}: the "
            "dispersion function is complex there"
        )


def layer_matrix(medium: Medium, j: int, omega: float, y: float) -> np.ndarray:
    """True (unscaled) 2x2 transfer matrix of finite layer ``j`` (1-based).

    Unit determinant in every branch.  Its columns are the images of the
    unit states under the layer kernel.  The propagation behind
    :func:`dispersion_value` and the mode shapes rescales per layer, so it
    never forms this matrix.

    Raises
    ------
    ResultOutOfRange
        If an entry lies outside double range, which happens once the
        layer's evanescent phase ``omega |nu_j| T_j`` passes about 709.
    """
    if not 1 <= j <= medium.n:
        raise ValueError(f"layer index {j} outside 1..{medium.n}")
    _check_point(medium, omega, y)
    step = _layer_map(medium, j - 1, float(omega), float(y), medium.thickness[j - 1])[:5]
    p, q, lf = _apply_map(*step, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    scaled = np.array([p, q])
    # each column pairs C with a sine term, never both zero, so the log is finite
    if np.max(lf + np.log(np.abs(scaled).max(axis=0))) > _LOG_MAX:
        raise ResultOutOfRange(
            f"layer {j} has evanescent phase omega*|nu|*T = {float(step[4]):.6g}, so its "
            f"transfer matrix leaves double range (omega={float(omega)!r}, y={float(y)!r})"
        )
    return np.exp(lf) * scaled


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
