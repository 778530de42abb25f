"""Root finding in slowness at fixed frequency, branch tracing, cutoffs.

Every root count goes through the exact Sturm count of
:func:`~lovedisp.dispersion._sturm_count`, the Love-wave form of the
Wittrick-Williams algorithm: the number of dispersion roots with slowness
above any level.  One count on a seed grid of ``_SEED_NODES`` points lists
the ranks (by descending slowness) each grid cell holds; root ``ell`` is
then isolated by vectorized bisection on "count >= ell" until its bracket
holds exactly that one root, and refined on the sign change of the
dispersion function by ITP steps (an Illinois point, truncated toward the
midpoint, kept within bisection's worst case by a minmax window and at
least a quarter of the tolerance from either end, the minimum step of
Dekker's and Brent's zeroin), and one secant step from the values the
refinement already holds at the final ends.  Roots are found for a block
of frequencies in one vectorized pass: every step works on all (frequency,
rank) pairs of the block at once, a trace of up to ``_TRACE_BLOCK``
frequencies is one block, and a single frequency is a block of one.
Cutoffs are found the same way in frequency: one count at the half-space
slowness on a seed grid of frequencies, then the same isolation and
refinement.

Each call's size is bounded before anything is allocated per root: a root
search's (frequency x rank) table holds at most ``_ROOT_BUDGET`` (2**22)
entries, a cutoff search at most that many cutoffs, and a trace's (node x
rank) table at most that many entries.  A larger request raises
:class:`~lovedisp.errors.ResultOutOfRange` naming its size.  Within the
budget a search makes one seed count (a cutoff search doubles its
frequency range and counts again while the range holds too few
branches), at most ``_MAX_STEPS`` isolation counts, and at most the
bisection count plus ``_SLACK_STEPS`` dispersion passes in the refinement;
a trace adds one count at its top frequency for the budget.

On a single query the searches hold a few dozen brackets, where numpy's
cost per call outweighs the arithmetic.  So the refinement keeps every
per-bracket quantity as a row of one state table (``_ROWS``): a step
reads and writes whole rows of the open brackets' columns, and the
columns are gathered and written back only when some bracket finishes.

The root search returns a (frequency x rank) table of slownesses, NaN
where a rank is absent, which is what a :class:`BranchSet` stores; its
:class:`Branch` objects are copies of the table's columns, NaNs dropped.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .dispersion import _dispersion_scaled, _sturm_count
from .errors import BadBracket, ResultOutOfRange
from .medium import Medium

__all__ = [
    "Branch",
    "BranchSet",
    "roots_at_omega",
    "cutoff_frequencies",
    "trace_branches",
]

_REFINE_TOL = 1e-12  # relative bracket width (in y) at which refinement stops
_OMEGA_TOL = 1e-13  # the same for cutoff frequencies
_SEED_NODES = 64  # uniform count grid seeding the per-rank isolation
_MAX_STEPS = 100  # more halvings or refine steps than double precision can resolve
_SLACK_STEPS = 8  # refine steps a bracket may take beyond bisection's count
_ITP_KAPPA1 = 0.2  # ITP truncation gain times the initial bracket width
_TRACE_BLOCK = 1024  # frequencies per root search in a trace: bounds its memory
_ROOT_BUDGET = 2**22  # table entries or cutoffs one call may return
# rows of the refine's state table, one column per bracket
_ROWS = (
    "lo", "hi",  # the ends
    "v_lo", "v_hi", "ls_lo", "ls_hi",  # f at the ends: v * exp(ls)
    "w_lo", "w_hi",  # Illinois log weights of the end values
    "moved",  # the end the last step replaced: 0 lo, 1 hi, -1 none yet
    "s_lo",  # the sign of f at the lo end
    "kappa1", "half0",  # ITP's truncation gain and half the initial width
)
# rows 0 lo, 1 hi: ("x replaces hi" == _ENDS) marks the end a step moves
_ENDS = np.array([[False], [True]])
_LOG2 = float(np.log(2.0))


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
    for _ in range(_MAX_STEPS):
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


def _refine_zeros(f, lo: np.ndarray, hi: np.ndarray, tol: float, label):
    """Shrink sign-change brackets of ``f`` by ITP steps on the Illinois point.

    ``f(k, x)`` returns ``(value, log_scale)`` at points ``x`` of bracket
    indices ``k``, the true value being ``value * exp(log_scale)``;
    ``label(k)`` names bracket ``k`` in errors.  Each step is one of ITP
    (Oliveira & Takahashi, ACM TOMS 2020) with the Illinois point (Dowell &
    Jarratt, BIT 1971) as its interpolation: regula falsi on the true
    values, with the value at an end halved each further step that end is
    kept.  Truncation moves that point toward the midpoint by
    ``kappa1 * width**2``, ``kappa1 = _ITP_KAPPA1 / width0`` (the paper's
    ``kappa2 = 2``), so a point stuck near the small end of an exponentially
    growing bracket still gains ground; a point closer to the midpoint than
    that, or a NaN point, is the midpoint.  Projection then clips it to the
    minmax window around the midpoint, so after ``j`` steps a bracket is no
    wider than bisection leaves it after ``j - _SLACK_STEPS`` halvings.
    Last, the point is kept ``h = tol * mid / 4`` inside each end, the
    minimum step of Dekker's and Brent's zeroin (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4): once an end is within
    ``h`` of the root, an Illinois point that rounds onto that end lands
    past the root instead, and the bracket closes rather than its far end
    crawling in.  A bracket is done once its width is at most ``tol``
    times its midpoint.

    A point replaces the end whose sign it shares, and a point where ``f``
    is exactly 0 replaces the ``hi`` end: ``lo`` never holds a zero.  An
    exact zero stays the ``hi`` end while ``lo`` closes in, and a secant
    step from such ends returns it exactly.

    Every per-bracket quantity is a row of one state table (see
    ``_ROWS``), one column per bracket; the Illinois halvings are log
    weights of their own, so the value rows stay ``f`` at the ends.  The
    brackets still open are a compact copy of their columns: a step works
    on that copy alone, and only when some bracket finishes is the copy
    written back and its open columns gathered again.  A bracket's path
    depends on nothing but itself and the step number.

    Returns the refined ``(lo, hi, v, ls)``: ``v`` and ``ls`` are (2, n),
    row 0 holding ``f`` at the ``lo`` ends, row 1 at the ``hi`` ends.

    Raises
    ------
    BadBracket
        Unless ``f`` has strictly opposite signs at the ends of every
        bracket, or if a bracket is not done after ``_MAX_STEPS`` steps.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    n = len(lo)
    k = np.arange(n)
    v, ls = f(np.concatenate([k, k]), np.concatenate([lo, hi]))
    # row 0 holds the lo ends, row 1 the hi ends
    v, ls = np.reshape(v, (2, n)), np.reshape(ls, (2, n))
    s_lo, s_hi = np.sign(v)
    bad = np.flatnonzero((s_lo == 0) | (s_hi == 0) | (s_lo == s_hi))
    if len(bad):
        b = bad[0]
        raise BadBracket(
            f"no sign change for {label(b)} on ({lo[b]}, {hi[b]}): "
            f"signs {int(s_lo[b])}, {int(s_hi[b])}"
        )
    half0 = 0.5 * (hi - lo)
    state = np.empty((len(_ROWS), n))
    state[0], state[1], state[2:4], state[4:6] = lo, hi, v, ls
    state[6:8], state[8], state[9] = 0.0, -1.0, s_lo
    state[10], state[11] = _ITP_KAPPA1 / (2.0 * half0), half0
    t, todo = state, k
    step = 0
    while len(todo):
        a, c = t[0], t[1]
        width, mid = c - a, 0.5 * (a + c)
        live = width > tol * mid
        if np.count_nonzero(live) < len(live):
            # write the table back, then go on with the brackets still open
            state[:, todo] = t
            t, todo = t[:, live], todo[live]
            continue
        if step == _MAX_STEPS:
            raise BadBracket(
                f"could not refine {label(todo[0])} to relative width {tol!r} "
                f"between {float(a[0])!r} and {float(c[0])!r}"
            )
        lt = t[4:6] + t[6:8]
        fa, fc = t[2:4] * np.exp(lt - np.maximum(lt[0], lt[1]))
        # the denominator is not 0: fc is 0 or of the other sign than fa, and
        # fa is nonzero unless it underflows, a log-scale gap of about 745
        # below an exact zero at hi (the larger-scaled end has weight 1)
        x = (a * fc - c * fa) / (fc - fa)
        # truncation: toward the midpoint by delta, or onto it (NaN included)
        delta, d = t[10] * width**2, mid - x
        x = np.where(delta < np.abs(d), x + np.sign(d) * delta, mid)
        # projection onto the minmax window
        r = t[11] * 2.0 ** (_SLACK_STEPS - step) - 0.5 * width
        x = np.minimum(np.maximum(x, mid - r), mid + r)
        # minimum step: once an end is within h of the root, x lands past it
        h = 0.25 * tol * mid
        x = np.minimum(np.maximum(x, a + h), c - h)
        vx, lx = f(todo, x)
        # x replaces the end whose sign it shares, an exact zero the hi end;
        # the other end is kept
        up = np.sign(vx) != t[9]
        moved = up == _ENDS
        # Illinois: an end kept again has its value halved (the moved end's
        # weight is reset to 0 below)
        t[6:8] -= _LOG2 * (t[8] == up)
        t[8] = up
        np.copyto(t[0:2], x, where=moved)
        np.copyto(t[2:4], vx, where=moved)
        np.copyto(t[4:6], lx, where=moved)
        np.copyto(t[6:8], 0.0, where=moved)
        step += 1
    return state[0], state[1], state[2:4], state[4:6]


def _secant_polish(lo: np.ndarray, hi: np.ndarray, v: np.ndarray, ls: np.ndarray):
    """One secant step on each refined bracket from its end values ``v``, ``ls``.

    The step is taken from ``lo`` as an offset, ``lo - f_lo (hi - lo) /
    (f_hi - f_lo)``: the form ``(lo f_hi - hi f_lo) / (f_hi - f_lo)``
    cancels two products of the size of the root and loses the last bits
    of a bracket only ``tol`` wide.
    """
    f_lo, f_hi = v * np.exp(ls - ls.max(axis=0))
    denom = f_hi - f_lo
    mid = 0.5 * (lo + hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.where(denom != 0.0, lo - f_lo * (hi - lo) / denom, mid)
    # a secant point that rounds onto an end, or just past it, is that end
    return np.clip(y, lo, hi)


def _over_budget(what: str, size: int) -> ResultOutOfRange:
    """The error for a call whose ``size`` is over ``_ROOT_BUDGET``."""
    return ResultOutOfRange(f"{what} is {size}, over the per-call budget of {_ROOT_BUDGET}")


def _list_ranks(c_in: np.ndarray, c_out: np.ndarray):
    """The ranks each seed cell holds, listed cell by cell.

    Cell ``i`` holds the ranks ``c_out[i] + 1 .. c_in[i]``, listed
    descending.  Returns the cell of each listed rank and the rank.
    """
    per_cell = c_in - c_out
    cell = np.repeat(np.arange(len(per_cell)), per_cell)
    first = np.cumsum(per_cell) - per_cell
    return cell, c_in[cell] - (np.arange(len(cell)) - first[cell])


def _roots_on_grid(medium: Medium, omegas: np.ndarray) -> np.ndarray:
    """The (frequency x rank) table of roots at ``omegas``, as BranchSet stores it.

    Row ``i`` holds the roots at ``omegas[i]`` by rank, strictly descending,
    NaN past its last one.  One pass for the whole block: one seed count on
    the (frequency x node) grid, then isolation, refinement and the secant
    step each vectorized over every (frequency, rank) pair.
    """
    nodes = np.linspace(*medium.slowness_domain, _SEED_NODES)
    # at 1/c0 every layer is evanescent or degenerate, so the shot from (1, 0)
    # never changes sign there: the last node counts exactly 0 roots
    counts = _sturm_count(medium, omegas[:, None], nodes)
    width = int(counts[:, 0].max())
    if (size := len(omegas) * width) > _ROOT_BUDGET:
        what = (f"the root count at omega={float(omegas[0])!r}" if len(omegas) == 1
                else f"the root table's size at {len(omegas)} frequencies")
        raise _over_budget(what, size)
    # seed cell (row b, node j) holds the ranks counts[b, j+1]+1 .. counts[b, j]
    c_in, c_out = counts[:, :-1].ravel(), counts[:, 1:].ravel()
    cell, ranks = _list_ranks(c_in, c_out)
    row, j = np.divmod(cell, _SEED_NODES - 1)
    omega = omegas[row]

    def label(k):
        return f"rank {ranks[k]} at omega={float(omega[k])!r}"

    lo, hi = _isolate(
        lambda k, y: _sturm_count(medium, omega[k], y),
        nodes[j], nodes[j + 1], c_in[cell], c_out[cell], ranks, label,
    )
    table = np.full((len(omegas), width), np.nan)
    table[row, ranks - 1] = _secant_polish(*_refine_zeros(
        lambda k, y: _dispersion_scaled(medium, omega[k], y), lo, hi, _REFINE_TOL, label
    ))
    return table


def roots_at_omega(medium: Medium, omega: float) -> np.ndarray:
    """All guided-wave slownesses at ``omega``, strictly descending.

    Returns every root the Sturm count sees on the closed slowness domain
    ``[1/c_inf, 1/c0]``.  None sits at ``1/c0``, where the count is 0.
    ``F(omega, 1/c_inf) = 0`` only at a cutoff, where the half-space
    solution is constant and there is no guided mode: the count does not
    include that point, so at a cutoff exactly the branches below it are
    returned.

    Raises
    ------
    BadBracket
        If the count fails to isolate a root, or an isolated bracket shows
        no strict sign change of the dispersion function.
    ResultOutOfRange
        If the root count is over the per-call budget ``2**22``, or reaches
        ``2**53``, which a double cannot hold.
    """
    if not 0.0 < omega < np.inf:
        raise ValueError("omega must be finite and > 0")
    return _roots_on_grid(medium, np.array([float(omega)]))[0]


def cutoff_frequencies(medium: Medium, ell_max: int) -> np.ndarray:
    """First ``ell_max`` branch-start frequencies, ascending.

    Branch ``ell`` appears where the count of roots above the half-space
    slowness ``y0 = 1/c_inf`` first reaches ``ell``; there the dispersion
    function vanishes at ``y0`` (where it reduces to the propagated ``Q``
    component).  The count grows with frequency, so one count at ``y0`` on
    a seed grid of frequencies lists the ranks each grid cell holds, as
    the root search lists them in slowness; the grid's top is doubled
    until it counts ``ell_max``.  Each transition is then isolated on that
    count, vectorized over ``ell``, and refined on the sign of
    ``F(omega, y0)``.  The branch-free end of each final bracket is
    returned, so a reported cutoff is the last frequency without its
    branch: :func:`roots_at_omega` there returns ``ell - 1`` roots.  That
    end never holds an exact zero of ``F(omega, y0)``, which the refinement
    keeps at the other end.  An exact ``0.0`` is emitted for a branch that
    exists at arbitrarily small frequency.

    Raises
    ------
    BadBracket
        If an isolated frequency bracket shows no strict sign change of
        ``F(omega, y0)``.
    ResultOutOfRange
        If ``ell_max`` is over the per-call budget ``2**22``.
    """
    ell_max = operator.index(ell_max)
    if ell_max < 1:
        raise ValueError("ell_max must be >= 1")
    if ell_max > _ROOT_BUDGET:
        raise _over_budget("ell_max", ell_max)
    y0 = float(medium.slowness[-1])

    def count(k, w):
        return _sturm_count(medium, w, y0)

    # frequency scale: one pi of total layer phase at y0, the cutoff spacing
    nu = np.sqrt(np.maximum(medium.slowness_sq[:-1] - y0 * y0, 0.0))
    scale = np.pi / float(np.sum(nu * medium.thickness))
    w_min, w_max = 1e-3 * scale, (ell_max + 1) * scale
    while True:
        # descending, so that the count falls along the grid as in slowness
        w = np.linspace(w_max, w_min, _SEED_NODES)
        counts = count(None, w)
        if counts[0] >= ell_max:
            break
        w_max *= 2.0
    # only the ranks up to ell_max are listed; the ends keep their true counts
    capped = np.minimum(counts, ell_max)
    cell, ranks = _list_ranks(capped[:-1], capped[1:])

    def label(k):
        return f"cutoff {ranks[k]}"

    hi, lo = _isolate(
        count, w[cell], w[cell + 1], counts[cell], counts[cell + 1], ranks, label
    )
    lo = _refine_zeros(
        lambda k, w: _dispersion_scaled(medium, w, y0), lo, hi, _OMEGA_TOL, label
    )[0]
    # ranks run descending; reverse to ascending frequency
    return np.concatenate([np.zeros(min(int(counts[-1]), ell_max)), lo[::-1]])


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
    """Slownesses by grid node and rank: branch 1 carries the largest slowness.

    ``y[i, ell-1]`` is the slowness of branch ``ell`` at ``omega_grid[i]``,
    NaN where that branch has no sample; every branch has at least one.
    ``cutoffs[ell-1]`` is where branch ``ell`` appears, NaN where that is
    unknown (a branch set read from data whose branch started before its
    first sample); the start point itself (slowness exactly ``1/c_inf``) is
    not a guided mode and is never included among the branch samples.
    """

    omega_grid: np.ndarray
    y: np.ndarray
    cutoffs: np.ndarray

    def __post_init__(self):
        if self.y.ndim != 2 or len(self.y) != len(self.omega_grid):
            raise ValueError("y must hold one row per grid frequency")
        empty = np.flatnonzero(np.isnan(self.y).all(axis=0))
        if len(empty):
            raise ValueError(f"branch {empty[0] + 1} has no samples")

    @property
    def n_branches(self) -> int:
        return self.y.shape[1]

    @property
    def branches(self) -> tuple[Branch, ...]:
        """One :class:`Branch` per column of the table, its NaNs dropped."""
        present = ~np.isnan(self.y)
        return tuple(
            Branch(ell=r + 1, omega=self.omega_grid[p], y=col[p])
            for r, (col, p) in enumerate(zip(self.y.T, present.T))
        )

    def slownesses_at(self, node: int) -> np.ndarray:
        """Slownesses of all branches present at grid index ``node``, by rank.

        Rank order is descending slowness for traced branches.
        """
        row = self.y[node]
        return row[~np.isnan(row)]


def trace_branches(medium: Medium, omega_grid) -> BranchSet:
    """Find the roots at every grid frequency and assemble rank-indexed branches.

    Branch identity across frequencies is by rank in descending slowness,
    which is exact because branches never cross.  Cutoffs come from
    :func:`cutoff_frequencies`.

    Raises
    ------
    ResultOutOfRange
        If the (node x rank) table would hold more than ``2**22`` entries,
        checked from one count at the top frequency before any root search.
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    if omega_grid.ndim != 1 or len(omega_grid) == 0:
        raise ValueError("omega_grid must be a non-empty 1-D array")
    finite = np.all((0.0 < omega_grid) & (omega_grid < np.inf))
    if not finite or not np.all(np.diff(omega_grid) > 0.0):
        raise ValueError("omega_grid must be finite, positive and strictly increasing")

    # no branch ends as omega grows: the top node holds the most roots
    size = len(omega_grid) * int(_sturm_count(medium, omega_grid[-1], medium.slowness[-1]))
    if size > _ROOT_BUDGET:
        raise _over_budget("the branch table's size", size)
    starts = range(0, len(omega_grid), _TRACE_BLOCK)
    blocks = [_roots_on_grid(medium, omega_grid[s : s + _TRACE_BLOCK]) for s in starts]
    n_branches = max(b.shape[1] for b in blocks)
    # row i: the roots at node i by rank, NaN past its last one
    table = np.full((len(omega_grid), n_branches), np.nan)
    for s, b in zip(starts, blocks):
        table[s : s + len(b), : b.shape[1]] = b
    return BranchSet(
        omega_grid=omega_grid.copy(),
        y=table,
        cutoffs=cutoff_frequencies(medium, n_branches) if n_branches else np.empty(0),
    )
