"""Recovery of medium parameters from dispersion data.

For a single layer over a half-space every parameter has a closed-form
rule: the two velocities from the slowness limits of the branches, the
thickness from the uniform cutoff spacing, and the substrate density from
the dispersion identity evaluated on any branch sample.  For two layers
the velocities and thicknesses come from the accumulation levels and
weights, with the layer ordering resolved by an equidistance test on the
level crossings.  A derivative-free least-squares refiner covers the
general case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .branch import Branch, BranchSet, _roots_on_grid, trace_branches
from .dispersion import _dispersion_scale_floor, _dispersion_scaled
from .errors import (
    AmbiguousOrdering,
    DivergedOrInfeasible,
    InsufficientData,
    LoveDispError,
    UnresolvedLevels,
)
from .medium import Medium
from .spectral import detect_levels

__all__ = [
    "DispersionDataset",
    "ParameterEstimate",
    "InversionReport",
    "recover_extremes",
    "invert_single_layer",
    "invert_double_layer",
    "least_squares_refine",
    "synthesize_observations",
    "alt_thickness_estimate",
    "branchset_from_dataset",
]


@dataclass(frozen=True)
class DispersionDataset:
    """Observed frequency-wavenumber samples, optionally labeled by branch."""

    omega: np.ndarray
    k: np.ndarray
    ell: np.ndarray | None = None
    noise_sigma: float | None = None

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        k = np.asarray(self.k, dtype=float)
        if omega.shape != k.shape or omega.ndim != 1:
            raise ValueError("omega and k must be 1-D arrays of equal length")
        if not np.all(omega > 0.0) or not np.all(k > 0.0):
            raise ValueError("omega and k must be strictly positive")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "k", k)
        if self.ell is not None:
            ell = np.asarray(self.ell, dtype=int)
            if ell.shape != omega.shape:
                raise ValueError("ell must match omega in shape")
            # noise can legitimately swap the order of near-degenerate
            # wavenumbers, so the rank consistency check only applies to
            # noiseless data; noisy labels carry true branch identity
            if not self.noise_sigma:
                _check_labels(omega, k, ell)
            object.__setattr__(self, "ell", ell)

    def __len__(self) -> int:
        return len(self.omega)


def _check_labels(omega, k, ell):
    for w in np.unique(omega):
        sel = omega == w
        if len(np.unique(ell[sel])) != int(np.sum(sel)):
            raise ValueError(f"duplicate branch labels at omega={w:g}")
        order = np.argsort(ell[sel])
        if np.any(np.diff(k[sel][order]) >= 0.0):
            raise ValueError(
                f"labels at omega={w:g} are inconsistent with descending k"
            )


@dataclass(frozen=True)
class ParameterEstimate:
    """One recovered parameter, the rule that produced it, and a spread proxy."""

    name: str
    value: float
    rule: str
    spread: float = float("nan")


@dataclass(frozen=True)
class InversionReport:
    """Recovered parameters with provenance and a model-fit residual."""

    parameters: tuple[ParameterEstimate, ...]
    medium: Medium | None
    residual: float
    notes: tuple[str, ...] = field(default_factory=tuple)

    def __getitem__(self, name: str) -> ParameterEstimate:
        for p in self.parameters:
            if p.name == name:
                return p
        raise KeyError(name)

    def render(self) -> str:
        lines = [f"{'parameter':<12} {'value':<24} rule"]
        for p in self.parameters:
            lines.append(f"{p.name:<12} {p.value:<24.17g} {p.rule}")
        lines.append(f"residual     {self.residual:.17g}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def branchset_from_dataset(dataset: DispersionDataset) -> BranchSet:
    """Group labeled (or rank-labeled) samples into an empirical branch set.

    Cutoffs are approximated by each branch's smallest observed frequency,
    which overshoots the true cutoff by at most one grid step; spacing-based
    rules are insensitive to that shared bias.
    """
    omega = dataset.omega
    k = dataset.k
    if dataset.ell is not None:
        ell = dataset.ell
    else:
        ell = np.empty(len(omega), dtype=int)
        for w in np.unique(omega):
            sel = np.flatnonzero(omega == w)
            order = np.argsort(-k[sel])
            ell[sel[order]] = np.arange(1, len(sel) + 1)
    grid = np.unique(omega)
    branches = []
    cutoffs = []
    for lab in np.unique(ell):
        sel = ell == lab
        order = np.argsort(omega[sel])
        w = omega[sel][order]
        y = (k[sel] / omega[sel])[order]
        branches.append(Branch(ell=int(lab), omega=w, y=y))
        cutoffs.append(float(w[0]))
    return BranchSet(omega_grid=grid, branches=tuple(branches), cutoffs=np.array(cutoffs))


def recover_extremes(branchset: BranchSet, tail_fraction: float = 0.25):
    """Estimate ``(c0, c_inf)`` from branch slowness limits.

    The half-space slowness is the infimum of each branch (attained at its
    cutoff); the median over branches is robust to grid offsets.  The
    minimum velocity comes from the supremum of the first branch via the
    tail fit ``y_1(omega) ~ 1/c0 - a/omega^2``.

    Raises
    ------
    InsufficientData
        If no branch carries at least 20 samples.
    """
    long_enough = [b for b in branchset.branches if len(b.omega) >= 20]
    if not long_enough:
        raise InsufficientData("need at least one branch with >= 20 samples")
    inv_cinf = float(np.median([b.y.min() for b in branchset.branches if len(b.y)]))

    b1 = branchset.branches[0]
    n_tail = max(int(len(b1.omega) * tail_fraction), 8)
    w = b1.omega[-n_tail:]
    y = b1.y[-n_tail:]
    design = np.column_stack([np.ones_like(w), -1.0 / w**2])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    inv_c0 = float(coef[0])
    return 1.0 / inv_c0, 1.0 / inv_cinf


def _branch_crossings(branchset: BranchSet, level: float) -> np.ndarray:
    """Frequencies where branches cross a slowness level, ascending.

    Each branch slowness is increasing, so it crosses the level at most
    once; the crossing is located by linear interpolation between the two
    bracketing samples.
    """
    crossings = []
    for b in branchset.branches:
        y = b.y
        if len(y) < 2 or y[0] >= level or y[-1] < level:
            continue
        i = int(np.searchsorted(y, level))
        w0, w1 = b.omega[i - 1], b.omega[i]
        y0, y1 = y[i - 1], y[i]
        crossings.append(float(w0 + (level - y0) / (y1 - y0) * (w1 - w0)))
    return np.sort(np.array(crossings))


def _spacing_verdict(spacings: np.ndarray, cv_threshold: float = 0.02):
    """Classify level crossings as equidistant or not.

    Equidistant needs both a small coefficient of variation and a small
    relative range: a monotone drift of the spacings (the signature of the
    slow approach to uniform spacing) shows up in the range even when the
    variation looks small.
    """
    mean = float(np.mean(spacings))
    cv = float(np.std(spacings) / mean)
    rng = float((spacings.max() - spacings.min()) / np.median(spacings))
    return cv < cv_threshold and rng < cv_threshold, cv


def invert_single_layer(
    branchset: BranchSet, rho1: float, n_rho_samples: int = 25
) -> InversionReport:
    """Closed-form recovery of ``(c1, c2, H, rho2)`` for a 1-layer medium.

    Assumes (without verifying) that the data came from a single layer over
    a half-space.  The surface density must be supplied; the substrate
    density follows from the dispersion identity averaged over well-spaced
    samples of the fundamental branch, excluding 5% of the slowness span at
    both ends where the identity is ill-conditioned.

    Raises
    ------
    InsufficientData
        With fewer than 2 cutoffs, or no branch with >= 20 samples.
    """
    if len(branchset.cutoffs) < 2:
        raise InsufficientData("need at least 2 cutoffs to read the spacing")
    c1, c2 = recover_extremes(branchset)
    c1_est = ParameterEstimate("c1", c1, "branch-slowness-supremum-tail-fit")
    c2_est = ParameterEstimate(
        "c2",
        c2,
        "cutoff-slowness-level",
        spread=float(np.std([b.y.min() for b in branchset.branches])),
    )

    cuts = np.sort(np.asarray(branchset.cutoffs, dtype=float))
    if len(cuts) >= 3:
        ells = np.arange(len(cuts))
        spacing = float(np.polyfit(ells, cuts, 1)[0])
        spacing_spread = float(np.std(np.diff(cuts)))
    else:
        spacing = float(cuts[1] - cuts[0])
        spacing_spread = float("nan")
    h = c1 * c2 / np.sqrt(c2 * c2 - c1 * c1) * np.pi / spacing
    h_est = ParameterEstimate("H", float(h), "cutoff-spacing", spread=spacing_spread)

    rho2_samples, rho2_weights = _rho2_from_identity(
        branchset.branches[0], c1, c2, h, rho1, n_rho_samples
    )
    rho2 = float(np.average(rho2_samples, weights=rho2_weights))
    spread = float(
        np.sqrt(np.average((rho2_samples - rho2) ** 2, weights=rho2_weights))
    )
    rho2_est = ParameterEstimate(
        "rho2", rho2, "dispersion-identity-average", spread=spread
    )

    mu1 = rho1 * c1 * c1
    mu2 = rho2 * c2 * c2
    medium = Medium(mu=np.array([mu1, mu2]), rho=np.array([rho1, rho2]),
                    thickness=np.array([h]))
    residual = _model_residual(medium, branchset)
    return InversionReport(
        parameters=(
            c1_est,
            c2_est,
            h_est,
            rho2_est,
            ParameterEstimate("mu1", mu1, "rho1 * c1^2"),
            ParameterEstimate("mu2", mu2, "rho2 * c2^2"),
        ),
        medium=medium,
        residual=residual,
    )


def _rho2_from_identity(
    branch: Branch, c1: float, c2: float, h: float, rho1: float, n_samples: int
):
    """Substrate density from the identity rho2 = rho1 (c1/c2)^2 * ratio * tan.

    Excludes 5% of the slowness span at both branch ends, evaluates the
    identity on the remaining samples, and returns values with
    inverse-variance weights.  A slowness error is amplified by
    ``(2/|sin 2theta|) * H w y^2 / |nu1|`` through the tangent and by
    ``y^2 / nu2^2`` through the prefactor, so the weights fall off sharply
    toward the ill-conditioned (pole-adjacent) part of the branch.
    """
    y = branch.y
    span = y.max() - y.min()
    inv1, inv2 = 1.0 / c1**2, 1.0 / c2**2
    nu1 = np.sqrt(np.maximum(inv1 - y * y, 1e-300))
    nu2_sq = np.maximum(y * y - inv2, 1e-300)
    theta = h * branch.omega * nu1
    amp = (2.0 / np.maximum(np.abs(np.sin(2.0 * theta)), 1e-9)) * (
        h * branch.omega * y * y / nu1
    ) + y * y / nu2_sq
    keep = (y >= y.min() + 0.05 * span) & (y <= y.max() - 0.05 * span)
    idx = np.flatnonzero(keep)
    if len(idx) < 10:
        raise InsufficientData("fewer than 10 usable samples for the density rule")
    pick = idx[np.argsort(amp[idx], kind="stable")][: max(4 * n_samples, 10)]
    yy = y[pick]
    ww = branch.omega[pick]
    num = inv1 - yy * yy
    den = yy * yy - inv2
    vals = (
        rho1
        * (c1 / c2) ** 2
        * np.sqrt(num / den)
        * np.tan(h * ww * np.sqrt(num))
    )
    weights = 1.0 / np.maximum(amp[pick], 1e-12) ** 2
    ok = np.isfinite(vals) & (vals > 0)
    if not np.any(ok):
        raise InsufficientData("no finite positive density sample survived")
    return vals[ok], weights[ok]


def invert_double_layer(branchset: BranchSet) -> InversionReport:
    """Recovery of ``(c1, c2, c3, T1, T2)`` for a 2-layer medium.

    Velocities come from the accumulation levels (plus the cutoff slowness
    for the half-space), thicknesses from the level weights, and the layer
    ordering from the equidistance of the crossings of the middle level:
    equidistant crossings mean the middle-level velocity belongs to the
    surface layer (fast layer on top).  Densities are not identified by
    these rules; the reported medium assumes them equal.

    Raises
    ------
    UnresolvedLevels
        If level detection does not find one or two accumulation levels.
    AmbiguousOrdering
        If too few level crossings exist to test equidistance.
    """
    _, c_inf = recover_extremes(branchset)
    levels = detect_levels(branchset)
    if len(levels) not in (1, 2):
        raise UnresolvedLevels(
            f"expected 1 or 2 accumulation levels, found {len(levels)}"
        )

    c3_est = ParameterEstimate("c3", c_inf, "cutoff-slowness-level")
    if len(levels) == 1:
        c0 = 1.0 / levels[0].slowness
        t_sum = levels[0].weight * np.sqrt(c0)
        params = (
            ParameterEstimate("c1", c0, "accumulation-level"),
            ParameterEstimate("c2", c0, "accumulation-level (single level: c1=c2)"),
            c3_est,
            ParameterEstimate("T1+T2", float(t_sum), "accumulation-weight"),
        )
        medium = Medium(
            mu=np.array([c0**2, c0**2, c_inf**2]),
            rho=np.ones(3),
            thickness=np.array([t_sum / 2, t_sum / 2]),
        )
        return InversionReport(
            parameters=params,
            medium=medium,
            residual=_model_residual(medium, branchset),
            notes=(
                "single accumulation level: layers share one velocity and only "
                "the summed thickness is identified",
                "densities assumed equal (not identified by these rules)",
            ),
        )

    c_t1 = 1.0 / levels[0].slowness  # smaller velocity (higher slowness)
    c_t2 = 1.0 / levels[1].slowness
    t_t1 = levels[0].weight * np.sqrt(c_t1)
    t_t2 = levels[1].weight * np.sqrt(c_t2)

    # crossings are read a hair above the detected level: below it the
    # branches graze the level tangentially and interpolation noise would
    # masquerade as non-uniform spacing
    crossings = _branch_crossings(branchset, levels[1].slowness * (1.0 + 5e-4))
    if len(crossings) < 5:
        raise AmbiguousOrdering(
            f"only {len(crossings)} crossings of the middle level; need >= 5"
        )
    equidistant, cv = _spacing_verdict(np.diff(crossings))
    if equidistant:
        # uniform crossings: the middle-level velocity is the surface layer
        c1, c2, t1, t2 = c_t2, c_t1, t_t2, t_t1
        ordering = f"level-crossing-equidistance (cv={cv:.4f}: fast layer on top)"
    else:
        c1, c2, t1, t2 = c_t1, c_t2, t_t1, t_t2
        ordering = f"level-crossing-equidistance (cv={cv:.4f}: slow layer on top)"

    medium = Medium(
        mu=np.array([c1**2, c2**2, c_inf**2]),
        rho=np.ones(3),
        thickness=np.array([t1, t2]),
    )
    params = (
        ParameterEstimate("c1", float(c1), f"accumulation-level + {ordering}"),
        ParameterEstimate("c2", float(c2), f"accumulation-level + {ordering}"),
        c3_est,
        ParameterEstimate("T1", float(t1), "accumulation-weight"),
        ParameterEstimate("T2", float(t2), "accumulation-weight"),
    )
    return InversionReport(
        parameters=params,
        medium=medium,
        residual=_model_residual(medium, branchset),
        notes=("densities assumed equal (not identified by these rules)",),
    )


def _model_residual(medium: Medium, branchset: BranchSet, max_samples: int = 200) -> float:
    """RMS of the normalized dispersion values at the branch samples."""
    ws, ys = [], []
    for b in branchset.branches:
        ws.append(b.omega)
        ys.append(b.y)
    w = np.concatenate(ws)
    y = np.concatenate(ys)
    if len(w) > max_samples:
        pick = np.unique(np.linspace(0, len(w) - 1, max_samples).astype(int))
        w, y = w[pick], y[pick]
    lo, hi = medium.slowness_domain
    keep = (y > lo) & (y < hi)
    if not np.any(keep):
        return float("inf")
    vals, _ = _dispersion_scaled(medium, w[keep], y[keep])
    return float(np.sqrt(np.mean((vals / _dispersion_scale_floor(medium)) ** 2)))


# ---------------------------------------------------------------------------
# least-squares refinement


def _theta_from_medium(medium: Medium) -> np.ndarray:
    return np.concatenate([medium.mu, medium.rho, medium.thickness])


def _medium_from_theta(theta: np.ndarray, n: int) -> Medium:
    return Medium(
        mu=theta[: n + 1], rho=theta[n + 1 : 2 * n + 2], thickness=theta[2 * n + 2 :]
    )


def parameter_mask(
    medium: Medium, mu: bool = False, rho: bool = False, thickness: bool = False
) -> np.ndarray:
    """Boolean mask over the flat parameter vector ``[mu, rho, thickness]``."""
    n = medium.n
    return np.concatenate(
        [
            np.full(n + 1, bool(mu)),
            np.full(n + 1, bool(rho)),
            np.full(n, bool(thickness)),
        ]
    )


def least_squares_refine(
    guess: Medium,
    data: DispersionDataset,
    free: np.ndarray,
    max_iter: int = 400,
) -> tuple[Medium, float]:
    """Refine masked parameters by simplex descent on the wavenumber misfit.

    The objective is ``sum_i (k_model(omega_i) - k_i)^2`` with the model
    wavenumber read from the root of matching rank at each sample
    frequency; the roots at all sample frequencies are found in one
    vectorized pass per evaluation.  A rank the trial medium lacks at a
    sample frequency is filled with the half-space edge value
    ``omega_i / c_inf`` of the guess, where that branch starts.  The
    simplex is seeded at +2% per free parameter, iterates never increase
    the best residual, and any iterate that violates positivity or the
    guided-wave condition is rejected with an infinite objective.

    Raises
    ------
    DivergedOrInfeasible
        If the initial guess is infeasible or no finite-objective point is
        found.
    """
    if len(data) == 0:
        raise ValueError("dataset is empty")
    free = np.asarray(free, dtype=bool)
    theta0 = _theta_from_medium(guess)
    if free.shape != theta0.shape:
        raise ValueError(f"mask length {free.shape} != parameter length {theta0.shape}")
    n = guess.n
    try:
        _medium_from_theta(theta0, n)
    except LoveDispError as exc:
        raise DivergedOrInfeasible(f"initial guess invalid: {exc}") from exc

    uniq_w, inverse = np.unique(data.omega, return_inverse=True)
    ranks = _sample_ranks(data, inverse, uniq_w)
    edge = float(guess.slowness[-1])

    def objective(free_vals: np.ndarray) -> float:
        theta = theta0.copy()
        theta[free] = free_vals
        if np.any(theta <= 0.0):
            return np.inf
        try:
            medium = _medium_from_theta(theta, n)
        except LoveDispError:
            return np.inf
        roots = _roots_on_grid(medium, uniq_w)
        counts = np.fromiter(map(len, roots), dtype=np.int64, count=len(roots))
        # the edge value sits last, where every missing rank points
        ys = np.append(np.concatenate(roots), edge)
        first = np.cumsum(counts) - counts
        at = np.where(ranks < counts[inverse], first[inverse] + ranks, len(ys) - 1)
        return float(np.sum((data.omega * ys[at] - data.k) ** 2))

    x0 = theta0[free]
    if len(x0) == 0:
        return guess, objective(x0)
    simplex = np.tile(x0, (len(x0) + 1, 1))
    for i in range(len(x0)):
        simplex[i + 1, i] *= 1.02
    result = minimize(
        objective,
        x0,
        method="Nelder-Mead",
        options={
            "initial_simplex": simplex,
            "xatol": 1e-10 * float(np.max(np.abs(x0))),
            "fatol": 1e-14 * max(objective(x0), 1e-30),
            "maxiter": max_iter,
        },
    )
    if not np.isfinite(result.fun):
        raise DivergedOrInfeasible("no feasible point with finite misfit found")
    theta = theta0.copy()
    theta[free] = result.x
    return _medium_from_theta(theta, n), float(result.fun)


def _sample_ranks(data: DispersionDataset, inverse, uniq_w) -> np.ndarray:
    """Zero-based root rank per sample: labels if given, else descending k."""
    ranks = np.empty(len(data), dtype=int)
    if data.ell is not None:
        ranks[:] = data.ell - 1
        return ranks
    for wi in range(len(uniq_w)):
        sel = np.flatnonzero(inverse == wi)
        order = np.argsort(-data.k[sel])
        ranks[sel[order]] = np.arange(len(sel))
    return ranks


def synthesize_observations(
    medium: Medium,
    omega_grid,
    noise_sigma: float = 0.0,
    seed: int = 0,
    branchset: BranchSet | None = None,
) -> DispersionDataset:
    """Trace branches and emit (omega, k) samples with multiplicative noise.

    The perturbation is ``k * (1 + eps)`` with ``eps ~ Normal(0, sigma)``
    drawn from a seeded generator, so a fixed seed reproduces the dataset
    bit for bit.  Pass an existing ``branchset`` to skip the trace.
    """
    if branchset is None:
        branchset = trace_branches(medium, omega_grid)
    ws, ks, ells = [], [], []
    for b in branchset.branches:
        ws.append(b.omega)
        ks.append(b.k)
        ells.append(np.full(len(b.omega), b.ell, dtype=int))
    omega = np.concatenate(ws)
    k = np.concatenate(ks)
    ell = np.concatenate(ells)
    order = np.lexsort((ell, omega))
    omega, k, ell = omega[order], k[order], ell[order]
    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        k = k * (1.0 + noise_sigma * rng.standard_normal(len(k)))
    return DispersionDataset(omega=omega, k=k, ell=ell, noise_sigma=noise_sigma)


def alt_thickness_estimate(branchset: BranchSet, c1: float) -> float:
    """Layer thickness from adjacent-branch differences at the top frequency.

    For a single layer over a half-space the vertical phase
    ``sqrt(omega^2/c1^2 - k_ell^2)`` of adjacent branches differs by
    ``pi/H`` in the large-frequency limit; the median over adjacent pairs
    at the largest traced frequency estimates ``H``.

    Raises
    ------
    InsufficientData
        If fewer than two branches (or no valid pair) exist at the top
        frequency.
    """
    top = len(branchset.omega_grid) - 1
    ys = branchset.slownesses_at(top)
    if len(ys) < 2:
        raise InsufficientData("need at least two branches at the top frequency")
    w = float(branchset.omega_grid[top])
    rad = (w / c1) ** 2 - (w * ys) ** 2
    valid = rad > 0.0
    v = np.sqrt(rad[valid])  # descending y -> ascending vertical phase
    dv = np.diff(np.sort(v))
    dv = dv[dv > 0.0]
    if len(dv) == 0:
        raise InsufficientData("no usable adjacent branch pair (degenerate branches)")
    return float(np.median(np.pi / dv))
