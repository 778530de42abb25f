"""Recovery of medium parameters from dispersion data.

For a single layer over a half-space every parameter has a closed-form
rule: the two velocities from the slowness limits of the branches, the
thickness from the uniform cutoff spacing, and the substrate density from
the dispersion identity evaluated on any branch sample.  For two layers
the velocities and thicknesses come from the accumulation levels and
weights, with the layer ordering resolved by an equidistance test on the
level crossings.  A Levenberg-Marquardt least-squares refiner covers the
general case; its Jacobian is the Rayleigh-principle sensitivity of every
root, from the closed-form energy integrals of the mode shapes.

The rules read branch data from the (node x rank) slowness table of a
:class:`~lovedisp.branch.BranchSet`.  Observed samples enter that table
through :func:`branchset_from_dataset`, ranked by the same helper that
matches samples to roots in the least-squares refiner: labels if given,
else descending wavenumber at each frequency.
"""

from __future__ import annotations

import logging
import operator
from dataclasses import dataclass, field

import numpy as np

from .branch import BranchSet, _roots_on_grid, trace_branches
from .dispersion import _dispersion_scale_floor, _dispersion_scaled
from .errors import (
    AmbiguousOrdering,
    InsufficientData,
    NoLoveWaves,
    NonPositiveParameter,
    ResultOutOfRange,
    UnresolvedLevels,
)
from .medium import Medium
from .modes import _wavenumber_sensitivities
from .spectral import detect_levels

_log = logging.getLogger("lovedisp")

_TAIL_FRACTION = 0.25  # share of branch 1's samples in the 1/c0 tail fit
_SPACING_CV = 0.02  # largest variation and relative range of equidistant spacings
_RHO_SAMPLES = 100  # best-conditioned branch samples the density rule averages
_MAX_RESIDUAL_SAMPLES = 200  # branch samples in a model residual

__all__ = [
    "DispersionDataset",
    "ParameterEstimate",
    "InversionReport",
    "recover_extremes",
    "invert_single_layer",
    "invert_double_layer",
    "least_squares_refine",
    "synthesize_observations",
    "branchset_from_dataset",
    "parameter_mask",
]


def _check_noise_sigma(sigma) -> None:
    if not (np.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"noise_sigma must be finite and >= 0, got {sigma!r}")


@dataclass(frozen=True)
class DispersionDataset:
    """Observed (omega, k) couples, optionally labeled by branch, stored by
    frequency, then by label or descending k, ties in input order: the same
    couples in any row order give the same results."""

    omega: np.ndarray
    k: np.ndarray
    ell: np.ndarray | None = None
    noise_sigma: float | None = None

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        k = np.asarray(self.k, dtype=float)
        if omega.shape != k.shape or omega.ndim != 1:
            raise ValueError("omega and k must be 1-D arrays of equal length")
        for name, v in (("omega", omega), ("k", k)):
            if (bad := v[~((0.0 < v) & (v < np.inf))]).size:
                raise ValueError(f"{name} must be finite and > 0, got {float(bad[0])!r}")
        if self.noise_sigma is not None:
            _check_noise_sigma(self.noise_sigma)
        if (ell := self.ell) is not None:
            raw = np.asarray(ell, dtype=float)
            if raw.shape != omega.shape:
                raise ValueError("ell must match omega in shape")
            if not np.all(np.isfinite(raw) & (raw == np.round(raw))):
                raise ValueError("branch labels must be integers")
            if np.any(raw < 1):
                raise ValueError("branch labels must be >= 1")
            ell = raw.astype(int)
        # numpy orders complex numbers by real part, then by imaginary part
        order = np.argsort(omega - 1j * k if ell is None else omega + 1j * ell,
                           kind="stable")
        omega, k = omega[order], k[order]
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "k", k)
        if ell is None:
            return
        ell = ell[order]
        same = omega[1:] == omega[:-1]
        dup = same & (ell[1:] == ell[:-1])
        # noise can legitimately swap the order of near-degenerate
        # wavenumbers, so descending k is only checked on noiseless data;
        # noisy labels carry true branch identity
        bad = dup if self.noise_sigma else dup | (same & (k[1:] >= k[:-1]))
        if bad.any():
            at = omega[np.argmax(bad)]
            if np.any(dup & (omega[1:] == at)):
                raise ValueError(f"duplicate branch labels at omega={at:g}")
            raise ValueError(f"labels at omega={at:g} are inconsistent with descending k")
        object.__setattr__(self, "ell", ell)

    def __len__(self) -> int:
        return len(self.omega)


@dataclass(frozen=True)
class ParameterEstimate:
    """One recovered parameter, the rule that produced it, and a spread proxy.

    ``spread`` is in the parameter's unit, NaN where the rule gives none.
    """

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
    """Scatter labeled (or rank-labeled) samples into an empirical branch set.

    The grid is the set of sample frequencies, and sample ``i`` fills the
    cell of its frequency and rank (:func:`_sample_grid`) with
    ``k_i / omega_i``.  A branch's cutoff is approximated by its smallest
    observed frequency, which overshoots the true cutoff by at most one grid
    step; spacing-based rules are insensitive to that shared bias.  Branch 1
    exists at every frequency above 0, so its cutoff is 0.0.  A later branch
    already present at the first sample frequency started before the data,
    so its cutoff is NaN.

    Raises
    ------
    ValueError
        If a rank below the largest label has no sample.
    InsufficientData
        If the data carry no labels and a frequency holds fewer samples than
        the one below it.
    """
    grid, inverse, ranks = _sample_grid(dataset)
    y = np.full((len(grid), ranks.max(initial=-1) + 1), np.nan)
    y[inverse, ranks] = dataset.k / dataset.omega
    # the row of each branch's first sample
    first = np.argmax(~np.isnan(y), axis=0) if len(grid) else np.zeros(0, int)
    cutoffs = np.where(first > 0, grid[first], np.nan)
    cutoffs[:1] = 0.0
    return BranchSet(omega_grid=grid, y=y, cutoffs=cutoffs)


def recover_extremes(branchset: BranchSet):
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
    if not np.any(np.sum(~np.isnan(branchset.y), axis=0) >= 20):
        raise InsufficientData("need at least one branch with >= 20 samples")
    inv_cinf = float(np.median(np.nanmin(branchset.y, axis=0)))

    w, y = _first_branch(branchset)
    n_tail = max(int(len(w) * _TAIL_FRACTION), 8)
    w, y = w[-n_tail:], y[-n_tail:]
    design = np.column_stack([np.ones_like(w), -1.0 / w**2])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    inv_c0 = float(coef[0])
    return 1.0 / inv_c0, 1.0 / inv_cinf


def _first_branch(branchset: BranchSet):
    """Frequencies and slownesses of the samples of branch 1."""
    col = branchset.y[:, 0]
    keep = ~np.isnan(col)
    return branchset.omega_grid[keep], col[keep]


def _branch_crossings(branchset: BranchSet, level: float) -> np.ndarray:
    """Frequencies where branches cross a slowness level, ascending.

    Each branch slowness is increasing, so it crosses the level at most
    once: between its first sample at or above the level and the sample
    before that one, by linear interpolation.  A branch that starts at or
    above the level, or ends below it, has no crossing.
    """
    y, grid = branchset.y, branchset.omega_grid
    rows = np.arange(len(grid))[:, None]
    # per cell, the row of the latest sample at or before it (-1 if none)
    last = np.maximum.accumulate(np.where(np.isnan(y), -1, rows), axis=0)
    above = y >= level
    cols = np.arange(y.shape[1])
    i1 = np.argmax(above, axis=0)
    i0 = np.where(i1 > 0, last[i1 - 1, cols], -1)
    cols = np.flatnonzero(above[last[-1], cols] & (i0 >= 0))
    i0, i1 = i0[cols], i1[cols]
    w0, w1 = grid[i0], grid[i1]
    y0, y1 = y[i0, cols], y[i1, cols]
    return np.sort(w0 + (level - y0) / (y1 - y0) * (w1 - w0))


def _spacing_verdict(spacings: np.ndarray):
    """Classify level crossings as equidistant or not.

    Equidistant needs both a small coefficient of variation and a small
    relative range: a monotone drift of the spacings (the signature of the
    slow approach to uniform spacing) shows up in the range even when the
    variation looks small.
    """
    mean = float(np.mean(spacings))
    cv = float(np.std(spacings) / mean)
    rng = float((spacings.max() - spacings.min()) / np.median(spacings))
    return cv < _SPACING_CV and rng < _SPACING_CV, cv


def invert_single_layer(branchset: BranchSet, rho1: float) -> InversionReport:
    """Closed-form recovery of ``(c1, c2, H, rho2)`` for a 1-layer medium.

    Assumes (without verifying) that the data came from a single layer over
    a half-space.  The surface density must be supplied; the substrate
    density follows from the dispersion identity averaged over well-spaced
    samples of the fundamental branch, excluding 5% of the slowness span at
    both ends where the identity is ill-conditioned.

    Raises
    ------
    InsufficientData
        With fewer than 2 finite cutoffs, or no branch with >= 20 samples.
    """
    cuts = np.asarray(branchset.cutoffs, dtype=float)
    ells = np.flatnonzero(np.isfinite(cuts)) + 1
    if len(ells) < 2:
        raise InsufficientData("need at least 2 finite cutoffs to read the spacing")
    cuts = cuts[ells - 1]
    c1, c2 = recover_extremes(branchset)
    c1_est = ParameterEstimate("c1", c1, "branch-slowness-supremum-tail-fit")
    c2_est = ParameterEstimate(
        "c2",
        c2,
        "cutoff-slowness-level",
        spread=float(np.std(1.0 / np.nanmin(branchset.y, axis=0))),
    )

    # cutoff ell sits (ell - 1) spacings above 0
    spacing = float(np.polyfit(ells, cuts, 1)[0])
    gaps = np.diff(cuts) / np.diff(ells)
    h = c1 * c2 / np.sqrt(c2 * c2 - c1 * c1) * np.pi / spacing
    # H is proportional to 1/spacing: a gap's relative spread is H's
    h_spread = float(h * np.std(gaps) / spacing) if len(gaps) >= 2 else float("nan")
    h_est = ParameterEstimate("H", float(h), "cutoff-spacing", spread=h_spread)

    rho2_samples, rho2_weights = _rho2_from_identity(
        *_first_branch(branchset), c1, c2, h, rho1
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


def _rho2_from_identity(omega, y, c1: float, c2: float, h: float, rho1: float):
    """Substrate density from the identity rho2 = rho1 (c1/c2)^2 * ratio * tan.

    Excludes 5% of the slowness span at both branch ends, evaluates the
    identity on the remaining samples, and returns values with
    inverse-variance weights.  A slowness error is amplified by
    ``(2/|sin 2theta|) * H w y^2 / |nu1|`` through the tangent and by
    ``y^2 / nu2^2`` through the prefactor, so the weights fall off sharply
    toward the ill-conditioned (pole-adjacent) part of the branch.
    """
    span = y.max() - y.min()
    inv1, inv2 = 1.0 / c1**2, 1.0 / c2**2
    nu1 = np.sqrt(np.maximum(inv1 - y * y, 1e-300))
    nu2_sq = np.maximum(y * y - inv2, 1e-300)
    theta = h * omega * nu1
    amp = (2.0 / np.maximum(np.abs(np.sin(2.0 * theta)), 1e-9)) * (
        h * omega * y * y / nu1
    ) + y * y / nu2_sq
    keep = (y >= y.min() + 0.05 * span) & (y <= y.max() - 0.05 * span)
    idx = np.flatnonzero(keep)
    if len(idx) < 10:
        raise InsufficientData("fewer than 10 usable samples for the density rule")
    pick = idx[np.argsort(amp[idx], kind="stable")][:_RHO_SAMPLES]
    yy = y[pick]
    ww = omega[pick]
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
    notes = ("densities assumed equal (not identified by these rules)",)
    if len(levels) == 1:
        # one velocity for both layers, which share the summed thickness
        c1 = c2 = 1.0 / levels[0].slowness
        t1 = t2 = levels[0].weight * np.sqrt(c1) / 2
        params = (
            ParameterEstimate("c1", c1, "accumulation-level"),
            ParameterEstimate("c2", c2, "accumulation-level (single level: c1=c2)"),
            c3_est,
            ParameterEstimate("T1+T2", float(t1 + t2), "accumulation-weight"),
        )
        notes = ("single accumulation level: layers share one velocity and only "
                 "the summed thickness is identified", *notes)
    else:
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
        params = (
            ParameterEstimate("c1", float(c1), f"accumulation-level + {ordering}"),
            ParameterEstimate("c2", float(c2), f"accumulation-level + {ordering}"),
            c3_est,
            ParameterEstimate("T1", float(t1), "accumulation-weight"),
            ParameterEstimate("T2", float(t2), "accumulation-weight"),
        )

    medium = Medium(
        mu=np.array([c1**2, c2**2, c_inf**2]),
        rho=np.ones(3),
        thickness=np.array([t1, t2]),
    )
    return InversionReport(
        parameters=params,
        medium=medium,
        residual=_model_residual(medium, branchset),
        notes=notes,
    )


def _model_residual(medium: Medium, branchset: BranchSet) -> float:
    """RMS of the normalized dispersion values at the branch samples.

    Samples are taken branch by branch, each in ascending frequency.
    """
    rank, node = np.nonzero(~np.isnan(branchset.y.T))
    w, y = branchset.omega_grid[node], branchset.y[node, rank]
    if len(w) > _MAX_RESIDUAL_SAMPLES:
        pick = np.unique(np.linspace(0, len(w) - 1, _MAX_RESIDUAL_SAMPLES).astype(int))
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
    """Refine masked parameters by Levenberg-Marquardt on the wavenumber misfit.

    The misfit is ``sum_i (k_model(omega_i) - k_i)^2`` with the model
    wavenumber read from the root of matching rank at each sample
    frequency; the roots at all sample frequencies are found per trial
    medium as one (frequency x rank) table, in the trace's blocks.  A
    rank the trial medium lacks at a sample frequency is filled with the
    half-space edge value ``omega_i / c_inf`` of the guess, where that
    branch starts, and gets a zero Jacobian row.

    The free parameters are refined in logarithms, which keeps them
    positive.  The Jacobian is analytic: Rayleigh-principle sensitivities
    of every root from the closed-form energy integrals
    (:func:`~lovedisp.modes._wavenumber_sensitivities`), so an iteration
    costs one root search.  The step solves the damped normal equations
    ``(J^T J + lam D^2) step = -J^T r`` with ``D^2 = diag(J^T J)``, as a
    least-squares problem, so a rank-deficient ``J`` (moduli and densities
    scaled together leave every velocity unchanged) still gives a step.
    ``lam`` starts at 1e-3, shrinks tenfold after an accepted step and
    grows tenfold after a rejected one.  A trial is rejected if its medium
    is infeasible, if its root search is out of range (its root table over
    the size budget, or a count past ``2**53``) or if its misfit is not
    lower, so accepted iterates never raise the misfit.  The iteration
    stops when the largest relative step is below 1e-10, when the misfit
    is below 1e-14 of the initial misfit, or after ``max_iter`` trials, an
    integer >= 0.

    A debug line on the ``lovedisp`` logger reports the iterations, root
    searches, rejected steps, samples at the edge value and the final
    misfit.

    Raises
    ------
    ResultOutOfRange
        If the guess's root table (frequencies x most roots) is over
        ``2**22``, or a root count at the guess reaches ``2**53``.
    OutOfRange
        If the guess or an accepted medium has a root within rounding of its
        half-space slowness ``1/c_inf``, where a mode does not decay and the
        Jacobian is undefined.
    InsufficientData
        If the data carry no labels and a frequency holds fewer samples than
        the one below it.
    """
    max_iter = operator.index(max_iter)
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    if len(data) == 0:
        raise ValueError("dataset is empty")
    free = np.asarray(free, dtype=bool)
    theta0 = _theta_from_medium(guess)
    if free.shape != theta0.shape:
        raise ValueError(f"mask length {free.shape} != parameter length {theta0.shape}")
    n = guess.n

    uniq_w, inverse, ranks = _sample_grid(data)
    edge = float(guess.slowness[-1])

    def model(medium: Medium):
        """Residuals, and the model slowness and a found flag per sample."""
        table = _roots_on_grid(medium, uniq_w)
        # a missing rank is NaN in the table or lies past its width
        inside = ranks < table.shape[1]
        y = np.full(len(data), np.nan)
        y[inside] = table[inverse[inside], ranks[inside]]
        found = ~np.isnan(y)
        y[~found] = edge
        return data.omega * y - data.k, y, found

    def jacobian(medium: Medium, theta, y, found):
        """Residual derivatives in the free log-parameters; zero rows where missing."""
        jac = np.zeros((len(data), int(free.sum())))
        sens = _wavenumber_sensitivities(medium, data.omega[found], y[found])
        jac[found] = sens[:, free] * theta[free]
        return jac

    theta, medium = theta0, guess
    r, y, found = model(medium)
    misfit = float(r @ r)
    target = 1e-14 * max(misfit, 1e-30)
    jac = jacobian(medium, theta, y, found)
    lam = 1e-3
    iterations, searches, rejected = 0, 1, 0
    while free.any() and iterations < max_iter and misfit > target:
        damp = np.sqrt(lam * np.sum(jac * jac, axis=0))
        step = np.linalg.lstsq(
            np.vstack([jac, np.diag(damp)]),
            np.concatenate([-r, np.zeros(len(damp))]),
            rcond=None,
        )[0]
        if np.max(np.abs(step)) < 1e-10:
            break
        iterations += 1
        trial = theta.copy()
        with np.errstate(over="ignore"):  # Medium refuses an inf parameter
            trial[free] *= np.exp(step)
        try:
            trial_medium = _medium_from_theta(trial, n)
            searches += 1
            r_t, y_t, found_t = model(trial_medium)
        except (NonPositiveParameter, NoLoveWaves, ResultOutOfRange):
            rejected, lam = rejected + 1, 10.0 * lam
            continue
        if r_t @ r_t < misfit:
            theta, medium, r, found = trial, trial_medium, r_t, found_t
            misfit = float(r @ r)
            jac = jacobian(medium, theta, y_t, found)
            lam *= 0.1
        else:
            rejected, lam = rejected + 1, 10.0 * lam
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "least_squares_refine: %d iterations, %d root searches, %d rejected "
            "steps, %d of %d samples at the edge value, misfit %.6g",
            iterations, searches, rejected, int(np.sum(~found)), len(data), misfit,
        )
    return medium, misfit


def _sample_grid(data: DispersionDataset):
    """``(grid, inverse, ranks)``: the sample frequencies, ascending, each
    sample's index in them, and its zero-based root rank.

    The dataset stores a frequency's samples together, by label or by
    descending k, so a rank is ``ell - 1`` or, without labels, the
    sample's place within its frequency.

    Raises
    ------
    InsufficientData
        If the data carry no labels and a frequency holds fewer samples than
        the one below it.  No branch ends as omega grows, so a sample is
        missing there, and ranking by descending k would shift every rank
        below it.
    """
    w = data.omega
    new = np.ones(len(w), dtype=bool)
    new[1:] = w[1:] != w[:-1]
    start = np.flatnonzero(new)
    inverse = np.cumsum(new) - 1  # frequency index per sample
    if data.ell is not None:
        return w[start], inverse, data.ell - 1
    counts = np.diff(start, append=len(w))
    if (fall := np.flatnonzero(counts[1:] < counts[:-1])).size:
        i = fall[0]
        raise InsufficientData(
            f"unlabelled data lack a sample: {counts[i + 1]} samples at "
            f"omega={float(w[start[i + 1]])} after {counts[i]} at "
            f"omega={float(w[start[i]])}; no branch ends as omega grows, so "
            "ranks by descending k would shift"
        )
    return w[start], inverse, np.arange(len(w)) - start[inverse]


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

    Raises
    ------
    ValueError
        If ``noise_sigma`` is negative or not finite; checked before the trace.
    """
    _check_noise_sigma(noise_sigma)
    if branchset is None:
        branchset = trace_branches(medium, omega_grid)
    # row-major order of the filled cells: by omega, then by ell
    node, rank = np.nonzero(~np.isnan(branchset.y))
    omega = branchset.omega_grid[node]
    k = omega * branchset.y[node, rank]
    ell = rank + 1
    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        k = k * (1.0 + noise_sigma * rng.standard_normal(len(k)))
    return DispersionDataset(omega=omega, k=k, ell=ell, noise_sigma=noise_sigma)
