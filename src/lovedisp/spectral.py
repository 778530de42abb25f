"""Mode counting, Weyl-law predictions, and accumulation-level detection.

``mode_count`` counts dispersion zeros above a slowness level with the
exact Sturm count that also locates every root.  The Weyl prediction
``W = (omega/pi) * sum_j |nu_j(y)| * T_j``, over the layers oscillatory
at ``y``, is within ``O(n)`` of that count ``N`` for any n, ``omega``,
``y`` on the strip and layer order: ``-n <= N - W <= n + 1``.  The count
adds zeros layer by layer, as the Prüfer-angle count does (Pryce,
*Numerical Solution of Sturm-Liouville Problems*, 1993) and
Wittrick-Williams counting rests on (Wittrick & Williams, 1971): an
oscillatory layer of phase ``x`` adds ``floor((x - e)/pi) + ceil(e/pi)``,
strictly within 1 of its Weyl term ``x/pi``; an evanescent or degenerate
layer, and the tail, add 0 or 1.  Branches pile up just below each
distinct layer slowness ``1/c_j`` at rate ``sqrt(omega)``; the
accumulation statistic measures that pile-up and its limits identify the
layer velocities and thicknesses from dispersion data alone.  The joint
weight fit is a small non-negative least-squares problem, solved here in
numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .branch import BranchSet
from .dispersion import _check_strip, _oscillatory_phase, _sturm_count
from .errors import DivergedOrInfeasible, InsufficientData
from .medium import Medium, ordered_profile

__all__ = [
    "WeylPrediction",
    "LevelEstimate",
    "mode_count",
    "weyl_prediction",
    "accumulation_statistic",
    "detect_levels",
]

_MIN_CLUSTER = 3  # dense gaps a run needs to count as an accumulation level
_GAP_FACTOR = 0.4  # a gap below this fraction of the median gap is dense
_MAX_MEMBERS = 8  # top cluster members in the level extrapolation
_FIT_NODES = 40  # grid nodes of the top decade in the joint weight fit

@dataclass(frozen=True)
class WeylPrediction:
    """Asymptotic mode-count estimate and whether the paper's theorem covers it.

    ``proven`` keeps the paper's meaning: always true for one or two finite
    layers; for three or more, true only above the second-smallest ordered
    slowness level and only when the minimum velocity is attained by a
    single ordered slot.  The ``O(n)`` remainder bound
    ``-n <= N - W <= n + 1`` holds everywhere, flagged or not.
    """

    value: float
    proven: bool


@dataclass(frozen=True)
class LevelEstimate:
    """A detected accumulation level with its pile-up weight.

    ``slowness`` estimates ``1/c_j`` for some layer j; ``weight`` estimates
    ``T_j / sqrt(c_j)`` (or the summed thickness over layers sharing the
    velocity).
    """

    slowness: float
    weight: float


def mode_count(medium: Medium, omega: float, y: float) -> int:
    """Number of dispersion zeros with slowness above ``y`` at ``omega``.

    Counted by the exact Sturm count that also locates every root of
    :func:`~lovedisp.branch.roots_at_omega`, independent of any stored
    branch data.  At ``y = 1/c_inf`` it counts every root.

    Raises
    ------
    ValueError
        If ``omega`` is not finite and > 0.
    OutOfRange
        If ``y`` is off the slowness strip ``[1/c_inf, 1/c0)``.
    ResultOutOfRange
        If the count reaches ``2**53``, which a double cannot hold.
    """
    _check_strip(medium, omega, y)
    return int(_sturm_count(medium, omega, y)[0])


def weyl_prediction(medium: Medium, omega: float, y: float) -> WeylPrediction:
    """Asymptotic count of modes with slowness >= ``y``.

    Raises
    ------
    ValueError
        If ``omega`` is not finite and > 0.
    OutOfRange
        If ``y`` is off the slowness strip ``[1/c_inf, 1/c0)``.
    """
    _check_strip(medium, omega, y)
    prof = ordered_profile(medium)
    value = omega / np.pi * _oscillatory_phase(medium, y)
    if medium.n <= 2:
        proven = True
    else:
        distinct_min = prof.c_tilde[0] < prof.c_tilde[1]
        proven = bool(distinct_min and y >= 1.0 / prof.c_tilde[1])
    return WeylPrediction(value=float(value), proven=proven)


def accumulation_statistic(medium: Medium, omega: float, y: float) -> float:
    """Pile-up statistic ``pi * (N(omega, y - 1/omega) - N(omega, y)) / sqrt(2 omega)``.

    As ``omega`` grows this tends to ``T_j / sqrt(c_j)`` at ``y = 1/c_j``
    (summed thickness if several layers share the velocity) and to zero at
    any other level.

    When the shifted level ``y - 1/omega`` falls below ``1/c_inf`` it is
    clamped there, so the count is taken over all existing branches, which
    is the natural extension of the definition; at ``y = 1/c_inf`` the
    statistic is 0.

    Raises
    ------
    ValueError
        If ``omega`` is not finite and > 0.
    OutOfRange
        If ``y`` is off the slowness strip ``[1/c_inf, 1/c0)``.
    """
    _check_strip(medium, omega, y)
    lo = float(medium.slowness[-1])
    n_hi, n_lo = _sturm_count(medium, omega, np.array([max(y - 1.0 / omega, lo), y]))[0]
    return float(np.pi * (n_hi - n_lo) / np.sqrt(2.0 * omega))


# ---------------------------------------------------------------------------
# level detection from traced branches


def detect_levels(branchset: BranchSet) -> list[LevelEstimate]:
    """Locate accumulation levels in traced branches and estimate weights.

    Levels are read off the branch slownesses at the largest traced
    frequency: a level shows up as a run of anomalously small gaps between
    consecutive slownesses, and the top of the run estimates ``1/c_j``.
    Weights come from the scaled count differences of the pile-up
    statistic, sampled across the top decade of the frequency grid and
    solved jointly for the per-level thicknesses (the joint solve removes
    the contamination that the ``1/omega`` level shift picks up from
    neighboring levels at finite frequency).

    Raises
    ------
    InsufficientData
        If fewer than 10 branches exist at the largest traced frequency.
    DivergedOrInfeasible
        If the joint weight fit does not converge.
    """
    # noisy labelled data need not descend along the top row
    top_row = branchset.slownesses_at(-1) if len(branchset.omega_grid) else np.empty(0)
    y_top = np.sort(top_row)[::-1]
    if len(y_top) < 10:
        raise InsufficientData(
            f"only {len(y_top)} branches at the top frequency; need >= 10"
        )

    gaps = -np.diff(y_top)  # descending input -> positive gaps
    thr = _GAP_FACTOR * float(np.median(gaps))
    # a run of dense gaps i..j-1 spans the slownesses i..j
    edges = np.flatnonzero(np.diff(np.concatenate([[0], gaps < thr, [0]])))
    levels = [
        _refine_level(y_top[i : j + 1])
        for i, j in zip(edges[::2], edges[1::2])
        if j - i >= _MIN_CLUSTER
    ]
    if not levels:
        return []
    levels.sort(reverse=True)

    weights = _level_weights(branchset, levels)
    return [LevelEstimate(slowness=lv, weight=w) for lv, w in zip(levels, weights)]


def _refine_level(cluster_y: np.ndarray) -> float:
    """Extrapolate the accumulation level from the top cluster members.

    Below a level ``L`` the member slownesses satisfy exactly
    ``y_p^2 = L^2 - ((p + s) * pi / (omega T))^2`` up to the slow drift of
    the phase offset ``s``, so a quadratic fit of ``y^2`` against the
    member index has its apex at ``L^2``.  Falls back to the top member
    when the fit is degenerate.
    """
    ys = np.asarray(cluster_y, dtype=float)[:_MAX_MEMBERS]
    top = float(ys[0])
    if len(ys) < 4:
        return top
    p = np.arange(len(ys), dtype=float)
    c, b, a = np.polyfit(p, ys * ys, 2)  # highest power first
    if c >= 0.0:
        return top
    apex = a - b * b / (4.0 * c)
    if apex <= top * top:
        return top
    level = float(np.sqrt(apex))
    span = float(ys[0] - ys[-1])
    if level > top + 4.0 * span:
        return top  # extrapolation outran the cluster: distrust it
    return level


def _level_weights(branchset: BranchSet, levels: list[float]) -> np.ndarray:
    """Joint least-squares thicknesses from shifted count differences.

    Each sample equation matches an observed count difference
    ``N(omega, level - 1/omega) - N(omega, level)`` against its Weyl form,
    which is linear in the unknown per-level thicknesses.  Shifted levels
    falling below the observed slowness floor are clamped there (count all
    branches), with the design row built at the same clamped point.  The
    thicknesses are the non-negative least-squares solution, from
    :func:`_nnls`.
    """
    grid = branchset.omega_grid
    top = len(grid) - 1
    lo_idx = int(np.searchsorted(grid, grid[top] / 10.0))
    idxs = np.unique(np.linspace(lo_idx, top, _FIT_NODES).astype(int))
    ys = branchset.y[idxs]
    keep = ~np.isnan(ys).all(axis=1)
    ys, w = ys[keep], grid[idxs[keep], None]
    lv = np.asarray(levels)

    # one equation per (node, level); the last axis runs over ranks or unknowns
    floor = np.nanmin(ys, axis=1)[:, None] * (1.0 - 1e-12)
    shifted = np.maximum(lv - 1.0 / w, floor)[..., None]
    level = lv[:, None]
    d_obs = np.sum(ys[:, None] >= shifted, axis=2) - np.sum(ys[:, None] >= level, axis=2)
    nu_hi = np.sqrt(np.maximum(lv * lv - shifted * shifted, 0.0))
    nu_lo = np.sqrt(np.maximum(lv * lv - level * level, 0.0))
    a = (w[..., None] / np.pi * (nu_hi - nu_lo)).reshape(-1, len(lv))
    thickness = _nnls(a, d_obs.ravel().astype(float))
    return thickness * np.sqrt(lv)  # T_j / sqrt(c_j) with c_j = 1/level


def _nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``argmin ||a x - b||`` over ``x >= 0``, by the Lawson-Hanson
    active-set method (*Solving Least Squares Problems*, 1974, ch. 23).

    Each outer pass moves the column with the largest positive dual
    ``w = a^T (b - a x)`` into the passive set and solves the unconstrained
    problem on that set; while that solution leaves the orthant, it steps
    from ``x`` toward it until a passive entry reaches zero and drops that
    column.  A dual below a rounding floor scaled by ``|a_j| |b|`` counts
    as zero.  Outer passes are capped at ``3 n``, as scipy caps them;
    reaching the cap raises :class:`DivergedOrInfeasible` rather than
    return a point that is not optimal.
    """
    m, n = a.shape
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    tol = 10.0 * max(m, n) * np.finfo(float).eps * np.linalg.norm(a, axis=0) * np.linalg.norm(b)
    for _ in range(3 * n):
        dual = a.T @ (b - a @ x)
        free = ~passive & (dual > tol)
        if not free.any():
            return x
        passive[np.argmax(np.where(free, dual, -np.inf))] = True
        while True:
            s = np.zeros(n)
            s[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            q = np.flatnonzero(passive & (s <= 0.0))
            if not q.size:
                break
            # a column already at zero admits no step
            ratio = np.divide(x[q], x[q] - s[q], out=np.zeros(q.size), where=x[q] > 0.0)
            x += ratio.min() * (s - x)
            x[q[np.argmin(ratio)]] = 0.0
            passive &= x > 0.0
            x[~passive] = 0.0
        x = s
    raise DivergedOrInfeasible(f"non-negative least squares did not converge in {3 * n} passes")
