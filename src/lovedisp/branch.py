"""Root finding in slowness at fixed frequency, branch tracing, cutoffs.

Every root count goes through the exact Sturm count of
:func:`~lovedisp.dispersion._sturm_count`, the Love-wave form of the
Wittrick-Williams algorithm: the number of dispersion roots with slowness
above any level.  Root ``ell`` (rank by descending slowness) is isolated by
vectorized bisection on "count >= ell" until its bracket holds exactly that
one root, then refined on the sign of the dispersion function by bisection
and one secant step.  Roots are found for a block of frequencies in one
vectorized pass: every step works on all (frequency, rank) pairs of the
block at once, and a single frequency is a block of one.  Cutoffs are
isolated the same way in frequency, from the count at the half-space
slowness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import _dispersion_scaled, _sturm_count
from .errors import BadBracket
from .medium import Medium

__all__ = [
    "Branch",
    "BranchSet",
    "roots_at_omega",
    "refine_root",
    "cutoff_frequencies",
    "trace_branches",
]

_REFINE_TOL = 1e-12  # relative bracket width (in y) at which bisection stops
_OMEGA_TOL = 1e-13  # the same for cutoff frequencies
_Y_MARGIN = 1e-9  # relative offset keeping roots away from 1/c_inf and 1/c0
_SEED_NODES = 64  # uniform count grid seeding the per-rank isolation
_MAX_HALVINGS = 100  # more halvings than double precision can resolve
_TRACE_BLOCK = 64  # frequencies per root search in a trace: bounds its memory


def _domain(medium: Medium) -> tuple[float, float]:
    lo, hi = medium.slowness_domain
    return lo * (1.0 + _Y_MARGIN), hi * (1.0 - _Y_MARGIN)


def _count_above(medium: Medium, omega: float, levels) -> np.ndarray:
    """Roots above each slowness level inside the trimmed domain, in one count."""
    y_lo, y_hi = _domain(medium)
    ys = np.clip(np.append(levels, y_hi), y_lo, y_hi)
    counts = _sturm_count(medium, omega, ys)
    return counts[:-1] - counts[-1]


def _isolate(count, inside, outside, c_in, c_out, ranks, label):
    """Shrink brackets until each holds exactly one step of a monotone count.

    Rank ``ell`` is bracketed by a point ``inside`` counting at least ``ell``
    roots and a point ``outside`` counting fewer; bisection on
    "count >= ell" stops once the ends read exactly ``ell`` and ``ell - 1``.
    Vectorized over brackets; ``count(k, x)`` maps bracket indices ``k`` and
    points ``x`` to counts, and ``label(k)`` names bracket ``k`` in errors.
    Updates the given arrays in place and returns the ``(inside, outside)``
    ends.
    """
    for _ in range(_MAX_HALVINGS):
        todo = np.flatnonzero((c_in != ranks) | (c_out != ranks - 1))
        if len(todo) == 0:
            return inside, outside
        mid = 0.5 * (inside[todo] + outside[todo])
        c = count(todo, mid)
        hit = c >= ranks[todo]
        inside[todo[hit]], c_in[todo[hit]] = mid[hit], c[hit]
        outside[todo[~hit]], c_out[todo[~hit]] = mid[~hit], c[~hit]
    k = todo[0]
    raise BadBracket(
        f"could not isolate {label(k)} between {float(inside[k])!r} "
        f"and {float(outside[k])!r}"
    )


def _bisect_zeros(
    f, lo: np.ndarray, hi: np.ndarray, tol: float, label, max_iter: int = 80
):
    """Vectorized bisection of sign-change brackets of ``f``; returns refined (lo, hi).

    Each bracket is halved until its width is at most ``tol`` times its
    midpoint.  ``f(k, x)`` evaluates at points ``x`` of bracket indices
    ``k``; ``label(k)`` names bracket ``k`` in errors.

    Raises
    ------
    BadBracket
        Unless ``f`` has strictly opposite signs at the ends of every bracket.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    k = np.arange(len(lo))
    v = np.sign(f(np.concatenate([k, k]), np.concatenate([lo, hi])))
    s_lo, s_hi = v[: len(lo)], v[len(lo) :]
    bad = np.flatnonzero((s_lo == 0) | (s_hi == 0) | (s_lo == s_hi))
    if len(bad):
        b = bad[0]
        raise BadBracket(
            f"no sign change for {label(b)} on ({lo[b]}, {hi[b]}): "
            f"signs {int(s_lo[b])}, {int(s_hi[b])}"
        )
    for _ in range(max_iter):
        todo = np.flatnonzero(hi - lo > tol * 0.5 * (lo + hi))
        if len(todo) == 0:
            break
        mid = 0.5 * (lo[todo] + hi[todo])
        sm = np.sign(f(todo, mid))
        right = sm == s_lo[todo]
        lo[todo[right]] = mid[right]
        hi[todo[~right]] = mid[~right]
        # an exact zero at the midpoint collapses the bracket
        hit = sm == 0
        lo[todo[hit]] = mid[hit]
    return lo, hi


def _secant_polish(
    medium: Medium, omega: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    v_lo, l_lo = _dispersion_scaled(medium, omega, lo)
    v_hi, l_hi = _dispersion_scaled(medium, omega, hi)
    ref = np.maximum(l_lo, l_hi)
    f_lo = v_lo * np.exp(l_lo - ref)
    f_hi = v_hi * np.exp(l_hi - ref)
    denom = f_hi - f_lo
    mid = 0.5 * (lo + hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.where(denom != 0.0, (lo * f_hi - hi * f_lo) / denom, mid)
    return np.where((y > lo) & (y < hi) | (lo == hi), np.clip(y, lo, hi), mid)


def _refine_roots(
    medium: Medium, omega: np.ndarray, lo: np.ndarray, hi: np.ndarray, label
) -> np.ndarray:
    """Slowness zeros of F in sign-change brackets: bisection, then one secant step.

    Bracket ``i`` lies at frequency ``omega[i]``.
    """
    lo, hi = _bisect_zeros(
        lambda k, y: _dispersion_scaled(medium, omega[k], y)[0],
        lo, hi, _REFINE_TOL, label,
    )
    return _secant_polish(medium, omega, lo, hi)


def _roots_on_grid(medium: Medium, omegas: np.ndarray) -> list[np.ndarray]:
    """Roots at each frequency of ``omegas``, each strictly descending.

    One pass for the whole block: one seed count on the (frequency x node)
    grid, then isolation, bisection and the secant step each vectorized
    over every (frequency, rank) pair.
    """
    nodes = np.linspace(*_domain(medium), _SEED_NODES)
    counts = _sturm_count(medium, omegas[:, None], nodes)
    # seed cell (row b, node j) holds the ranks counts[b, j+1]+1 .. counts[b, j];
    # listing them cell by cell orders each frequency's ranks descending
    c_in, c_out = counts[:, :-1].ravel(), counts[:, 1:].ravel()
    per_cell = c_in - c_out
    cell = np.repeat(np.arange(len(per_cell)), per_cell)
    first = np.cumsum(per_cell) - per_cell
    ranks = c_in[cell] - (np.arange(len(cell)) - first[cell])
    row, j = np.divmod(cell, _SEED_NODES - 1)
    omega = omegas[row]

    def label(k):
        return f"rank {ranks[k]} at omega={float(omega[k])!r}"

    lo, hi = _isolate(
        lambda k, y: _sturm_count(medium, omega[k], y),
        nodes[j], nodes[j + 1], c_in[cell], c_out[cell], ranks, label,
    )
    roots = _refine_roots(medium, omega, lo, hi, label)
    # ranks run descending per frequency; reverse to descending slowness
    splits = np.cumsum(counts[:, 0] - counts[:, -1])[:-1]
    return [r[::-1] for r in np.split(roots, splits)]


def roots_at_omega(medium: Medium, omega: float) -> np.ndarray:
    """All guided-wave slownesses at ``omega``, strictly descending.

    Covers ``(1/c_inf, 1/c0)`` shrunk by a fixed relative margin of 1e-9 on
    both ends; an empty array simply means no branch exists yet at this
    frequency.

    Raises
    ------
    BadBracket
        If the count fails to isolate a root, or an isolated bracket shows
        no strict sign change of the dispersion function.
    """
    if not omega > 0.0:
        raise ValueError("omega must be > 0")
    return _roots_on_grid(medium, np.array([float(omega)]))[0]


def refine_root(medium: Medium, omega: float, bracket: tuple[float, float]) -> float:
    """Refine one bracketed dispersion zero in slowness.

    Raises
    ------
    BadBracket
        If the dispersion values at the bracket ends do not have strictly
        opposite signs.
    """
    y_lo, y_hi = float(bracket[0]), float(bracket[1])
    if not y_lo < y_hi:
        raise BadBracket(f"empty bracket ({y_lo}, {y_hi})")
    root = _refine_roots(
        medium, np.array([float(omega)]), np.array([y_lo]), np.array([y_hi]),
        lambda k: f"the bracket at omega={omega!r}",
    )
    return float(root[0])


def cutoff_frequencies(medium: Medium, ell_max: int) -> np.ndarray:
    """First ``ell_max`` branch-start frequencies, ascending.

    Branch ``ell`` appears where the count of roots above the half-space
    slowness ``y0 = 1/c_inf`` first reaches ``ell``; there the dispersion
    function vanishes at ``y0`` (where it reduces to the propagated ``Q``
    component).  Each transition is isolated by bisection on that count,
    vectorized over ``ell``, and refined on the sign of ``F(omega, y0)``.
    An exact ``0.0`` is emitted for a branch that exists at arbitrarily
    small frequency.

    Raises
    ------
    BadBracket
        If an isolated frequency bracket shows no strict sign change of
        ``F(omega, y0)``.
    """
    if ell_max < 1:
        raise ValueError("ell_max must be >= 1")
    y0 = float(medium.slowness[-1])

    def count(k, w):
        return _sturm_count(medium, w, y0)

    # frequency scale: one pi of total layer phase at y0, the cutoff spacing
    nu = np.sqrt(np.maximum(medium.slowness_sq[:-1] - y0 * y0, 0.0))
    scale = np.pi / float(np.sum(nu * medium.thickness))
    w_min, w_max = 1e-3 * scale, (ell_max + 1) * scale
    n_min = int(count(None, w_min))
    while (n_max := int(count(None, w_max))) < ell_max:
        w_max *= 2.0
    ranks = np.arange(n_min + 1, ell_max + 1)
    ones = np.ones(len(ranks), dtype=np.int64)

    def label(k):
        return f"cutoff {ranks[k]}"

    hi, lo = _isolate(
        count, w_max * ones, w_min * ones, n_max * ones, n_min * ones, ranks, label
    )
    lo, hi = _bisect_zeros(
        lambda k, w: _dispersion_scaled(medium, w, y0)[0], lo, hi, _OMEGA_TOL, label
    )
    return np.concatenate([np.zeros(min(n_min, ell_max)), 0.5 * (lo + hi)])


@dataclass(frozen=True)
class Branch:
    """Samples ``(omega, y)`` of one dispersion branch, omega ascending."""

    ell: int
    omega: np.ndarray
    y: np.ndarray

    @property
    def k(self) -> np.ndarray:
        return self.omega * self.y


@dataclass(frozen=True)
class BranchSet:
    """Branches indexed by rank: branch 1 carries the largest slowness.

    ``cutoffs[ell-1]`` is where branch ``ell`` appears; the start point
    itself (slowness exactly ``1/c_inf``) is not a guided mode and is never
    included among the branch samples.
    """

    omega_grid: np.ndarray
    branches: tuple[Branch, ...]
    cutoffs: np.ndarray

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    def slownesses_at(self, node: int) -> np.ndarray:
        """Slownesses of all branches present at grid index ``node``, descending."""
        out = []
        for br in self.branches:
            start = len(self.omega_grid) - len(br.omega)
            if node >= start:
                out.append(br.y[node - start])
        return np.asarray(out)


def trace_branches(medium: Medium, omega_grid) -> BranchSet:
    """Find the roots at every grid frequency and assemble rank-indexed branches.

    Branch identity across frequencies is by rank in descending slowness,
    which is exact because branches never cross.  Cutoffs come from
    :func:`cutoff_frequencies`.
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    if omega_grid.ndim != 1 or len(omega_grid) == 0:
        raise ValueError("omega_grid must be a non-empty 1-D array")
    if not np.all(omega_grid > 0.0) or not np.all(np.diff(omega_grid) > 0.0):
        raise ValueError("omega_grid must be positive and strictly increasing")

    roots = [
        r
        for s in range(0, len(omega_grid), _TRACE_BLOCK)
        for r in _roots_on_grid(medium, omega_grid[s : s + _TRACE_BLOCK])
    ]
    counts = np.fromiter(map(len, roots), dtype=np.int64, count=len(roots))
    n_branches = int(counts.max())
    # row i: the roots at node i by rank, padded after its last one
    table = np.full((len(roots), n_branches), np.nan)
    table[np.arange(n_branches) < counts[:, None]] = np.concatenate(roots)
    branches = []
    for ell in range(1, n_branches + 1):
        start = int(np.argmax(counts >= ell))
        ys = table[start:, ell - 1].copy()
        branches.append(Branch(ell=ell, omega=omega_grid[start:].copy(), y=ys))
    return BranchSet(
        omega_grid=omega_grid.copy(),
        branches=tuple(branches),
        cutoffs=cutoff_frequencies(medium, n_branches) if n_branches else np.empty(0),
    )
