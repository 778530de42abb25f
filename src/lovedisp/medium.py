"""Layered elastic half-space model.

The medium consists of ``n`` finite layers over a semi-infinite half-space,
each with constant shear modulus ``mu`` (Pa) and density ``rho`` (kg/m^3).
Shear velocities are ``c_j = sqrt(mu_j / rho_j)``.  Guided Love waves exist
only when the minimum velocity is strictly below the half-space velocity.

Slownesses ``y = k / omega`` (s/m) are the natural horizontal variable: a
layer is *oscillatory* at ``y`` when ``y < 1/c_j``, *evanescent* when
``y > 1/c_j``, and degenerate exactly at ``y = 1/c_j``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NonPositiveParameter, NoLoveWaves

__all__ = [
    "Medium",
    "OrderedProfile",
    "validate_medium",
    "ordered_profile",
    "load_medium",
]


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Medium:
    """Immutable description of an (n+1)-layer elastic half-space.

    Parameters
    ----------
    mu : array_like, shape (n+1,)
        Shear moduli in Pa; the last entry belongs to the half-space.
    rho : array_like, shape (n+1,)
        Densities in kg/m^3.
    thickness : array_like, shape (n,)
        Finite-layer thicknesses in m.  The half-space has none.

    Attributes
    ----------
    c : ndarray
        Shear velocities ``sqrt(mu/rho)`` per layer.
    slowness, slowness_sq : ndarray
        Stored per-layer slownesses ``1/c_j`` and their squares.  The layer
        kernel treats a layer as degenerate only when ``y * y`` equals the
        stored square exactly, never fuzzily.
    depths : ndarray, shape (n+1,)
        Interface depths ``H_1 = 0 < H_2 < ... < H_{n+1}``.

    Raises
    ------
    NonPositiveParameter
        If any modulus, density, or thickness is not strictly positive.
    NoLoveWaves
        If ``min_j c_j >= c_inf``; such a medium guides no Love waves.
    """

    mu: np.ndarray
    rho: np.ndarray
    thickness: np.ndarray

    def __post_init__(self):
        mu = _readonly(np.atleast_1d(self.mu))
        rho = _readonly(np.atleast_1d(self.rho))
        thickness = _readonly(np.atleast_1d(self.thickness))
        if mu.ndim != 1 or rho.ndim != 1 or thickness.ndim != 1:
            raise ValueError("mu, rho, thickness must be one-dimensional")
        if len(mu) != len(rho):
            raise ValueError("mu and rho must have the same length")
        if len(thickness) != len(mu) - 1:
            raise ValueError("need exactly one thickness per finite layer")
        if len(mu) < 2:
            raise ValueError("need at least one finite layer over the half-space")
        if not np.all(np.isfinite(mu)) or np.any(mu <= 0.0):
            raise NonPositiveParameter("shear moduli must be finite and > 0")
        if not np.all(np.isfinite(rho)) or np.any(rho <= 0.0):
            raise NonPositiveParameter("densities must be finite and > 0")
        if not np.all(np.isfinite(thickness)) or np.any(thickness <= 0.0):
            raise NonPositiveParameter("thicknesses must be finite and > 0")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "thickness", thickness)

        c = _readonly(np.sqrt(mu / rho))
        if c.min() >= c[-1]:
            raise NoLoveWaves(
                "minimum shear velocity must lie strictly below the half-space "
                f"velocity (got min c = {c.min():g}, c_inf = {c[-1]:g})"
            )
        depths = _readonly(np.concatenate([[0.0], np.cumsum(thickness)]))
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "slowness", _readonly(1.0 / c))
        object.__setattr__(self, "slowness_sq", _readonly((1.0 / c) ** 2))
        object.__setattr__(self, "depths", depths)

    @property
    def n(self) -> int:
        """Number of finite layers."""
        return len(self.thickness)

    @property
    def c0(self) -> float:
        """Minimum shear velocity over all layers."""
        return float(self.c.min())

    @property
    def c_inf(self) -> float:
        """Half-space shear velocity."""
        return float(self.c[-1])

    @property
    def slowness_domain(self) -> tuple[float, float]:
        """Slowness interval ``[1/c_inf, 1/c0)`` hosting all dispersion roots."""
        return float(self.slowness[-1]), float(self.slowness.max())

    def describe(self) -> str:
        rows = [f"{self.n}+1 layers"]
        for j in range(self.n + 1):
            t = f"{self.thickness[j]:g} m" if j < self.n else "half-space"
            rows.append(
                f"  layer {j + 1}: c={self.c[j]:g} m/s  rho={self.rho[j]:g}  "
                f"mu={self.mu[j]:.6g}  {t}"
            )
        return "\n".join(rows)


@dataclass(frozen=True)
class OrderedProfile:
    """Velocities sorted nondecreasingly, with thicknesses carried along.

    ``sigma`` maps ordered position to the original 1-based layer index; the
    sort is stable so ties keep the original ordering.  The thickness slot of
    the half-space is ``nan`` (it has no finite thickness).
    """

    c_tilde: np.ndarray
    t_tilde: np.ndarray
    sigma: tuple[int, ...]

    def oscillatory_sum(self, y: float) -> float:
        """Sum of ``|nu_tilde_p(y)| * T_tilde_p`` over layers oscillatory at y."""
        total = 0.0
        for cj, tj in zip(self.c_tilde, self.t_tilde):
            inv = 1.0 / cj
            if y < inv and np.isfinite(tj):
                total += float(np.sqrt(inv * inv - y * y)) * tj
        return total


def validate_medium(raw) -> Medium:
    """Build a validated :class:`Medium` from a config mapping.

    The mapping holds ``layers``, a list of ``{mu|c, rho, thickness}`` dicts
    ordered top-down, the last one (half-space) without ``thickness``.  An
    optional ``n`` is checked against the layer count.  Velocities ``c`` are
    canonicalized to moduli via ``mu = rho * c^2``.
    """
    if isinstance(raw, Medium):
        return raw
    if not isinstance(raw, dict) or "layers" not in raw:
        raise ValueError("medium config must be a mapping with a 'layers' list")
    layers = raw["layers"]
    if not isinstance(layers, (list, tuple)) or len(layers) < 2:
        raise ValueError("medium config needs at least two layers")
    if "n" in raw and int(raw["n"]) != len(layers) - 1:
        raise ValueError(
            f"config says n={raw['n']} but provides {len(layers)} layers"
        )
    mu, rho, thickness = [], [], []
    for i, layer in enumerate(layers):
        last = i == len(layers) - 1
        if "rho" not in layer:
            raise ValueError(f"layer {i + 1}: missing rho")
        r = float(layer["rho"])
        if ("mu" in layer) == ("c" in layer):
            raise ValueError(f"layer {i + 1}: give exactly one of mu or c")
        m = float(layer["mu"]) if "mu" in layer else r * float(layer["c"]) ** 2
        mu.append(m)
        rho.append(r)
        if last:
            if "thickness" in layer:
                raise ValueError("the half-space (last layer) takes no thickness")
        else:
            if "thickness" not in layer:
                raise ValueError(f"layer {i + 1}: missing thickness")
            thickness.append(float(layer["thickness"]))
    return Medium(mu=np.array(mu), rho=np.array(rho), thickness=np.array(thickness))


def load_medium(path: str | Path) -> Medium:
    """Read a JSON medium config from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return validate_medium(json.load(fh))


def ordered_profile(medium: Medium) -> OrderedProfile:
    """Stable nondecreasing reordering of velocities with carried thicknesses."""
    order = np.argsort(medium.c, kind="stable")
    c_tilde = medium.c[order]
    t_all = np.concatenate([medium.thickness, [np.nan]])
    return OrderedProfile(
        c_tilde=_readonly(c_tilde),
        t_tilde=_readonly(t_all[order]),
        sigma=tuple(int(i) + 1 for i in order),
    )
