"""Root finding in slowness at fixed frequency, branch tracing, cutoffs.

Every root count goes through the exact Sturm count of
:func:`~lovedisp.dispersion._sturm_count`, the Love-wave form of the
Wittrick-Williams algorithm: the number of dispersion roots with slowness
above any level.  One count on a seed grid of uniform slowness nodes lists
the ranks (by descending slowness) each grid cell holds; root ``ell`` is
then isolated by vectorized bisection on "count >= ell" until its bracket
holds exactly that one root, and refined on the sign change of the
dispersion function by ITP steps (Chandrupatla's choice between inverse
quadratic interpolation and bisection, kept within bisection's worst case
by a minmax window and at least a quarter of the tolerance from either
end, the minimum step of Dekker's and Brent's zeroin), and one secant step
from the values the refinement already holds at the final ends.  Every
count forms the dispersion value at each point it visits (its tail term
reads its sign), and the isolation carries those values with the bracket
ends, so the refinement starts from them: no point is evaluated twice.
Roots are found for a block of frequencies in one vectorized pass: every
step works on all (frequency, rank) pairs of the block at once, a
frequency grid (a trace's or the refine's) is searched in blocks of up to
``_TRACE_BLOCK``, and a single frequency is a block of one.  A pass over a few dozen
brackets costs its numpy calls, not its points, so a single frequency
seeds on ``_QUERY_SEED_NODES`` (512) nodes: fewer ranks per cell leave
fewer isolation counts, and narrower brackets leave fewer refinement
steps.  Over many frequencies the seed count would dominate, so a grid's
block seeds on about two nodes per root at the grid's top frequency (16
to ``_SEED_NODES``, 64, and at least ``_SMALL_PASS`` points in all, the
size below which a pass costs its numpy calls, not its points).  Cutoffs
are found the same way in frequency: one count at the half-space slowness
on a seed grid of ``_SEED_NODES`` frequencies, then the same isolation
and refinement, which starts from the values of ``F(omega, 1/c_inf)``
the counts formed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .dispersion import _SMALL_PASS, _dispersion_scaled, _oscillatory_phase, _sturm_count
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
_QUERY_SEED_NODES = 512  # the same for a single frequency
_MIN_SEED_NODES = 16  # the fewest seed nodes a trace block uses
_MAX_STEPS = 100  # more halvings or refine steps than double precision can resolve
_SLACK_STEPS = 8  # refine steps a bracket may take beyond bisection's count
_TRACE_BLOCK = 1024  # frequencies per root search in a trace: bounds its memory
_ROOT_BUDGET = 2**22  # table entries or cutoffs one call may return
# rows of the refine's state table, one column per bracket
_ROWS = (
    "x1", "x2", "x3",  # the end the last step moved, the other end, the point dropped
    "v1", "v2", "v3", "ls1", "ls2", "ls3",  # f at those points: v * exp(ls)
    "s_lo",  # the sign of f at the lo end
    "half0",  # half the initial width
)


def _isolate(count, x, c, v, ls, ranks, label):
    """Shrink brackets until each holds exactly one step of a monotone count.

    Rank ``ell`` is bracketed by an end counting at least ``ell`` roots and
    an end counting fewer; bisection on "count >= ell" stops once the ends
    read exactly ``ell`` and ``ell - 1``.  Each end moves with its count
    and the scaled dispersion value the count formed there: ``x``, ``c``,
    ``v`` and ``ls`` are (2, n), row 0 the end inside rank ``ell``, row 1
    the end outside it, one column per bracket.  Vectorized over brackets;
    ``count(k, x)`` maps bracket indices ``k`` and points ``x`` to
    ``(count, value, log_scale)``, and ``label(k)`` names bracket ``k`` in
    errors.  Updates the given arrays in place and returns ``(x, v, ls)``.
    """
    for _ in range(_MAX_STEPS):
        todo = np.flatnonzero((c[0] != ranks) | (c[1] != ranks - 1))
        if len(todo) == 0:
            return x, v, ls
        mid = 0.5 * (x[0, todo] + x[1, todo])
        cm, vm, lm = count(todo, mid)
        # the midpoint replaces the inside end where it counts at least ell
        row = (cm < ranks[todo]).astype(np.intp)
        x[row, todo], c[row, todo], v[row, todo], ls[row, todo] = mid, cm, vm, lm
    k = todo[0]
    raise BadBracket(
        f"could not isolate {label(k)} between {float(x[0, k])!r} "
        f"and {float(x[1, k])!r}"
    )


def _refine_zeros(f, lo: np.ndarray, hi: np.ndarray, v: np.ndarray, ls: np.ndarray,
                  tol: float, label):
    """Shrink sign-change brackets of ``f`` by ITP steps on Chandrupatla's point.

    ``f(k, x)`` returns ``(value, log_scale)`` at points ``x`` of bracket
    indices ``k``, the true value being ``value * exp(log_scale)``;
    ``label(k)`` names bracket ``k`` in errors.  ``v`` and ``ls`` are
    ``f`` at the given ends, (2, n): row 0 at ``lo``, row 1 at ``hi``.  A
    root search takes them from its counts, which form ``f`` at every
    point they visit, so ``f`` is called only at the points the steps
    choose.  Each step is one of ITP (Oliveira & Takahashi, ACM TOMS 2020)
    with Chandrupatla's choice
    (Chandrupatla, Adv. Eng. Software 28, 1997) as its interpolation:
    inverse quadratic interpolation through the bracket's ends and the point
    the last step dropped, where the quadratic is monotone over the bracket,
    and the midpoint otherwise (also on the first step, which has no
    dropped point).  Projection then clips that point to the minmax window
    around the midpoint, so after ``j`` steps a bracket is no wider than
    bisection leaves it after ``j - _SLACK_STEPS`` halvings.  Last, the
    point is kept ``h = tol * mid / 4`` inside each end, the minimum step of
    Dekker's and Brent's zeroin (Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4): once an end is within ``h`` of the root, a
    point that rounds onto that end lands past the root instead, and the
    bracket closes rather than its far end crawling in.  A bracket is done
    once its width is at most ``tol`` times its midpoint.

    A point replaces the end whose sign it shares, and a point where ``f``
    is exactly 0 replaces the ``hi`` end: ``lo`` never holds a zero.  An
    exact zero stays the ``hi`` end while ``lo`` closes in, and a secant
    step from such ends returns it exactly.

    Every per-bracket quantity is a row of one state table (see
    ``_ROWS``), one column per bracket; its points are ordered as
    Chandrupatla's are, the end the last step moved first, so the
    interpolation reads them without a gather.  The brackets still open
    are a compact copy of their columns: a step works on that copy alone,
    and only when some bracket finishes is the copy written back and its
    open columns gathered again.  A bracket's path depends on nothing but
    itself and the step number.

    Returns the refined ``(lo, hi, v, ls)``: ``v`` and ``ls`` are (2, n),
    row 0 holding ``f`` at the ``lo`` ends, row 1 at the ``hi`` ends.

    Raises
    ------
    BadBracket
        Unless the given values have strictly opposite signs at the ends of
        every bracket, or if a bracket is not done after ``_MAX_STEPS``
        steps.
    """
    n = len(lo)
    s_lo, s_hi = np.sign(v)
    bad = np.flatnonzero((s_lo == 0) | (s_hi == 0) | (s_lo == s_hi))
    if len(bad):
        b = bad[0]
        raise BadBracket(
            f"no sign change for {label(b)} on ({lo[b]}, {hi[b]}): "
            f"signs {int(s_lo[b])}, {int(s_hi[b])}"
        )
    state = np.empty((len(_ROWS), n))
    # no point has been dropped yet: its NaN makes the first step bisect
    state[0:2], state[3:5], state[6:8] = (lo, hi), v, ls
    state[2:9:3], state[9], state[10] = np.nan, s_lo, 0.5 * (hi - lo)
    t, todo = state, np.arange(n)
    step = 0
    while len(todo):
        # points by (x, v, ls) and by x1 (the end moved last), x2, x3 (dropped)
        p = t[0:9].reshape(3, 3, -1)
        x1, x2, x3 = t[0], t[1], t[2]
        d = x2 - x1
        width, mid = np.abs(d), 0.5 * (x1 + x2)
        live = width > tol * mid
        if np.count_nonzero(live) < len(live):
            # write the table back, then go on with the brackets still open
            state[:, todo] = t
            t, todo = t[:, live], todo[live]
            continue
        if step == _MAX_STEPS:
            a, c = sorted((float(x1[0]), float(x2[0])))
            raise BadBracket(
                f"could not refine {label(todo[0])} to relative width {tol!r} "
                f"between {a!r} and {c!r}"
            )
        f1, f2, f3 = p[1] * np.exp(p[2] - np.maximum(np.maximum(t[6], t[7]), t[8]))
        f12, f32 = f1 - f2, f3 - f2
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # Chandrupatla's test: the inverse quadratic through the three
            # points is monotone over the bracket; x = x1 + u (x2 - x1).  It
            # fails where f1 / f32 may overflow, as it needs |f1| < |f32|
            xi, phi = d / (x2 - x3), f12 / f32
            iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            u = f1 / f32 * (f3 / f12 + (x3 - x1) / d * f2 / (f3 - f1))
        u = np.where(iqi, u, 0.5)
        # projection onto the minmax window, |x - mid| <= reach - width / 2,
        # and the minimum step h = tol * mid / 4 from either end (once an end
        # is within h of the root, x lands past it): both symmetric in u
        reach = t[10] * 2.0 ** (_SLACK_STEPS - step)
        u_min = np.maximum(0.25 * tol * mid, width - reach) / width
        u = np.minimum(np.maximum(u, u_min), 1.0 - u_min)
        x = x1 + u * d
        vx, lx = f(todo, x)
        # x replaces the end whose sign it shares, an exact zero the hi end;
        # the replaced end becomes x3, x the new x1
        up = np.sign(vx) != t[9]
        keep = up == (x1 > x2)  # x replaces x1, x2 stays
        p[:, 2:0:-1] = np.where(keep, p[:, 0:2], p[:, 1::-1])
        t[0], t[3], t[6] = x, vx, lx
        step += 1
    # the ends in (lo, hi) order
    p = state[0:9].reshape(3, 3, n)
    ends = np.where(p[0, 0] < p[0, 1], p[:, 0:2], p[:, 1::-1])
    return ends[0, 0], ends[0, 1], ends[1], ends[2]


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


def _roots_in_block(medium: Medium, omegas: np.ndarray, seed_nodes: int) -> np.ndarray:
    """The (frequency x rank) table of roots at ``omegas``, as BranchSet stores it.

    Row ``i`` holds the roots at ``omegas[i]`` by rank, strictly descending,
    NaN past its last one.  One pass for the whole block: one seed count on
    the (frequency x node) grid of ``seed_nodes`` uniform slowness nodes,
    then isolation, refinement and the secant step each vectorized over
    every (frequency, rank) pair.  The count is exact, so any number of
    nodes finds every root; fewer nodes leave more ranks per cell for the
    isolation to split.
    """
    nodes = np.linspace(*medium.slowness_domain, seed_nodes)
    # at 1/c0 every layer is evanescent or degenerate, so the shot from (1, 0)
    # never changes sign there: the last node counts exactly 0 roots
    counts, v, ls = _sturm_count(medium, omegas[:, None], nodes)
    width = int(counts[:, 0].max())
    # a grid's blocks are checked before they are searched: only a single
    # query gets here over the budget
    if (size := len(omegas) * width) > _ROOT_BUDGET:
        raise _over_budget(f"the root count at omega={float(omegas[0])!r}", size)
    # seed cell (row b, node j) holds the ranks counts[b, j+1]+1 .. counts[b, j]
    cell, ranks = _list_ranks(counts[:, :-1].ravel(), counts[:, 1:].ravel())
    row, j = np.divmod(cell, seed_nodes - 1)
    omega = omegas[row]

    def label(k):
        return f"rank {ranks[k]} at omega={float(omega[k])!r}"

    # each cell's ends, nodes j and j + 1, with the seed count's values there
    ends = np.array([j, j + 1])
    x, v, ls = _isolate(
        lambda k, y: _sturm_count(medium, omega[k], y),
        nodes[ends], counts[row, ends], v[row, ends], ls[row, ends], ranks, label,
    )
    table = np.full((len(omegas), width), np.nan)
    table[row, ranks - 1] = _secant_polish(*_refine_zeros(
        lambda k, y: _dispersion_scaled(medium, omega[k], y), x[0], x[1], v, ls,
        _REFINE_TOL, label,
    ))
    return table


def _roots_on_grid(medium: Medium, omegas: np.ndarray) -> np.ndarray:
    """The (frequency x rank) table of roots at ascending ``omegas``.

    Each block of up to ``_TRACE_BLOCK`` frequencies is one root search,
    seeded on ``min(64, max(16, 2 * top, 4096 // len(block)))`` slowness
    nodes, ``top`` being the root count at the grid's top frequency: about
    two nodes per root, since a seed count over a block of many
    frequencies costs more than the isolation steps that fewer nodes add,
    and at least 4096 seed points, under which the count's cost is its
    numpy calls and nodes are free.  The table is ``top`` wide and raises
    as :func:`trace_branches` documents.
    """
    # no branch ends as omega grows: the top frequency holds the most roots
    top = int(_sturm_count(medium, omegas[-1], medium.slowness[-1])[0])
    if (size := len(omegas) * top) > _ROOT_BUDGET:
        raise _over_budget("the branch table's size", size)
    table = np.full((len(omegas), top), np.nan)
    for s in range(0, len(omegas), _TRACE_BLOCK):
        block = omegas[s : s + _TRACE_BLOCK]
        nodes = min(_SEED_NODES, max(_MIN_SEED_NODES, 2 * top, _SMALL_PASS // len(block)))
        roots = _roots_in_block(medium, block, nodes)
        table[s : s + len(block), : roots.shape[1]] = roots
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
    return _roots_in_block(medium, np.array([float(omega)]), _QUERY_SEED_NODES)[0]


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
    scale = np.pi / _oscillatory_phase(medium, y0)
    w_min, w_max = 1e-3 * scale, (ell_max + 1) * scale
    while True:
        # descending, so that the count falls along the grid as in slowness
        w = np.linspace(w_max, w_min, _SEED_NODES)
        counts, v, ls = count(None, w)
        if counts[0] >= ell_max:
            break
        w_max *= 2.0
    # only the ranks up to ell_max are listed; the ends keep their true counts
    capped = np.minimum(counts, ell_max)
    cell, ranks = _list_ranks(capped[:-1], capped[1:])

    def label(k):
        return f"cutoff {ranks[k]}"

    # the count at y0 is the shot of F(omega, y0): its values start the refine
    ends = np.array([cell, cell + 1])
    x, v, ls = _isolate(count, w[ends], counts[ends], v[ends], ls[ends], ranks, label)
    # row 0, inside the rank, is the higher frequency: the refine's hi end
    lo = _refine_zeros(
        lambda k, w: _dispersion_scaled(medium, w, y0), x[1], x[0], v[::-1], ls[::-1],
        _OMEGA_TOL, label,
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
    :func:`cutoff_frequencies`.  The roots are searched in blocks of
    frequencies and match those of :func:`roots_at_omega` to within the
    refinement's tolerance.

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
    table = _roots_on_grid(medium, omega_grid)
    top = table.shape[1]
    return BranchSet(
        omega_grid=omega_grid.copy(),
        y=table,
        cutoffs=cutoff_frequencies(medium, top) if top else np.empty(0),
    )
