import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from test_modes import _stress_medium

import lovedisp.branch as branch_mod
from lovedisp import (
    BadBracket,
    Medium,
    ResultOutOfRange,
    cutoff_frequencies,
    dispersion_value,
    mode_count,
    roots_at_omega,
    trace_branches,
)

MAG_A = np.sqrt(1e-6 - 1e-8)  # |nu_1| of the benchmark at the half-space slowness
SPACING_A = np.pi / (MAG_A * 100.0)  # closed-form cutoff spacing
# c = (1000, 10000) m/s, H = 1000 m: 15,836 roots at omega = 5e4
THICK_LAYER = Medium(mu=[1e6, 1e8], rho=[1.0, 1.0], thickness=[1000.0])
# seed-105 random medium: two roots 1.8% apart at omega = 60
FOUR_LAYER = Medium(
    mu=[4612356.4957442675, 24043856.688325193, 1281914.2909105883,
        6697000.2330318, 73352399.29616506],
    rho=[1.0150405901166124, 2.7084220584269563, 1.8512071997082267,
         2.0305111513959364, 1.213403968980094],
    thickness=[124.53003394766058, 154.7248812895132, 63.80876746410887,
               75.00988020061546],
)
# a random two-layer medium: at omega = 582.4 rank 22's bracket spans a
# factor of about e^6 in |F|, where an untruncated Illinois point crawls
STEEP = Medium(
    mu=[9.1718e6, 1.86215e6, 4.50347e7], rho=[1.85828, 1.56913, 0.806314],
    thickness=[194.191, 147.52],
)


@pytest.mark.parametrize("omega,expected", [(15.0, 1), (100.0, 4), (1000.0, 32)])
def test_root_counts_match_cutoff_formula(medium_a, omega, expected):
    # expected = floor(omega |nu_1| H / pi) + 1 from the closed-form cutoffs
    assert int(omega * MAG_A * 100.0 / np.pi) + 1 == expected
    assert len(roots_at_omega(medium_a, omega)) == expected


def test_roots_descending_and_separated(medium_a):
    roots = roots_at_omega(medium_a, 1000.0)
    assert np.all(np.diff(roots) < 0)
    assert np.min(-np.diff(roots) / roots[:-1]) > 10 * branch_mod._REFINE_TOL


def test_roots_satisfy_single_layer_transcendental(medium_a):
    # tan[H omega sqrt(1/c1^2 - y^2)] = (mu2/mu1) sqrt((y^2-1/c2^2)/(1/c1^2-y^2))
    for y in roots_at_omega(medium_a, 100.0):
        lhs = np.tan(100.0 * 100.0 * np.sqrt(1e-6 - y * y))
        rhs = 100.0 * np.sqrt((y * y - 1e-8) / (1e-6 - y * y))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_roots_fill_the_closed_domain(medium_a, medium_b, medium_b_swapped):
    # every root the count sees on [1/c_inf, 1/c0] is returned, strictly
    # inside it; the last point is one relative 1e-8 past a cutoff
    w2 = float(cutoff_frequencies(medium_a, 2)[1])
    cases = [(medium_a, 1800.0), (medium_b, 300.0), (medium_b_swapped, 300.0)]
    for medium, omega in cases + [(medium_a, w2 * (1 + 1e-8))]:
        lo, hi = medium.slowness_domain
        roots = roots_at_omega(medium, omega)
        assert np.all((roots > lo) & (roots < hi))
        assert len(roots) == branch_mod._sturm_count(medium, omega, lo)[0]
        assert branch_mod._sturm_count(medium, omega, hi)[0] == 0


def test_thick_layer_keeps_its_fundamental():
    # c = (1000, 10000) m/s, H = 1000 m: at omega = 5e4 the fundamental lies
    # within 1e-9 (relative) of 1/c0; every root solves the closed form
    omega, wh = 5e4, 5e4 * 1000.0
    roots = roots_at_omega(THICK_LAYER, omega)
    mag = np.sqrt(1e-6 - 1e-8)  # |nu_1| at the half-space slowness
    assert len(roots) == int(wh * mag / np.pi) + 1 == 15_836
    # branch p has layer phase theta in (p pi, p pi + pi/2), solving
    # theta = p pi + atan(mu2 nu2 / (mu1 nu1)); the right side minus the
    # left increases with theta, so bisection converges to rounding
    p = np.arange(len(roots))
    a, b = p * np.pi, np.minimum(p * np.pi + 0.5 * np.pi, wh * mag)
    for _ in range(60):
        theta = 0.5 * (a + b)
        nu1 = theta / wh
        g = theta - p * np.pi - np.arctan(100.0 * np.sqrt(mag**2 - nu1**2) / nu1)
        a, b = np.where(g < 0, theta, a), np.where(g < 0, b, theta)
    expected = np.sqrt(1e-6 - (0.5 * (a + b) / wh) ** 2)
    # the secant step takes a bracket of relative width 1e-12 to rounding
    assert np.allclose(roots, expected, rtol=1e-13, atol=0.0)


def _add_phantom_count_step(monkeypatch):
    real = branch_mod._sturm_count
    def phantom(medium, omega, y):
        count, value, log_scale = real(medium, omega, y)
        return count + (np.asarray(y) < 5e-4), value, log_scale

    monkeypatch.setattr(branch_mod, "_sturm_count", phantom)


def test_phantom_count_step_raises(medium_a, monkeypatch):
    # a count step with no sign change of F behind it is an error, not a root
    _add_phantom_count_step(monkeypatch)
    with pytest.raises(BadBracket):
        roots_at_omega(medium_a, 15.0)


def test_phantom_count_step_raises_in_trace(medium_a, monkeypatch):
    # the batched path raises the same error and names rank and frequency
    _add_phantom_count_step(monkeypatch)
    with pytest.raises(BadBracket, match=r"rank \d+ at omega=5\.0"):
        trace_branches(medium_a, np.arange(5.0, 400.01, 5.0))


def test_root_near_interior_kink(medium_b):
    # the root nearest 1/c_2, where the dispersion function has a kink, is
    # the only root of a bracket straddling the kink, and F changes sign there
    omega, inv2 = 300.0, float(medium_b.slowness[1])
    roots = roots_at_omega(medium_b, omega)
    near = roots[np.argmin(np.abs(roots - inv2))]
    width = 4 * abs(near - inv2) + 1e-8
    lo, hi = near - width, near + width
    assert lo < inv2 < hi  # genuinely straddles the kink
    assert np.sum((roots > lo) & (roots < hi)) == 1
    assert mode_count(medium_b, omega, lo) - mode_count(medium_b, omega, hi) == 1
    signs = [dispersion_value(medium_b, omega, near * (1 + d)).sign for d in (-1e-10, 1e-10)]
    assert signs[0] == -signs[1] != 0


def test_cutoffs_match_closed_form(medium_a):
    cuts = cutoff_frequencies(medium_a, 6)
    expected = np.arange(6) * SPACING_A
    assert cuts[0] == 0.0
    assert np.allclose(cuts[1:], expected[1:], rtol=1e-10)


def test_cutoffs_are_branch_start_roots(medium_a, medium_b, medium_b_swapped):
    # one relative 1e-8 past each cutoff one more root exists than before it
    for medium in (medium_a, medium_b, medium_b_swapped):
        lo = medium.slowness_domain[0]
        cuts = cutoff_frequencies(medium, 8)
        for ell, w in enumerate(cuts[1:], start=2):
            assert len(roots_at_omega(medium, w * (1 + 1e-8))) == ell
            assert len(roots_at_omega(medium, w * (1 - 1e-8))) == ell - 1
            # a computed cutoff is the last frequency without its branch
            roots = roots_at_omega(medium, w)
            assert len(roots) == ell - 1
            assert np.all(roots > lo * (1 + 1e-6))


def test_single_layer_cutoffs_equal_pi_multiples(medium_a):
    # positive zeros at the half-space slowness sit at p*pi/(|nu_1| H)
    cuts = cutoff_frequencies(medium_a, 8)
    p = np.arange(1, 8)
    assert np.allclose(cuts[1:], p * np.pi / (MAG_A * 100.0), rtol=1e-9)


def test_trace_small_grid(medium_a):
    grid = np.arange(5.0, 200.01, 5.0)
    bs = trace_branches(medium_a, grid)
    assert bs.n_branches == int(200.0 * MAG_A * 100.0 / np.pi) + 1
    for b in bs.branches:
        assert np.all(np.diff(b.y) > 0)  # strictly increasing slowness
    # no crossing: at every node the ranked values strictly decrease
    for node in range(len(grid)):
        ys = bs.slownesses_at(node)
        assert np.all(np.diff(ys) < 0)
    # cutoffs refined onto the closed form
    assert bs.cutoffs[0] == 0.0
    assert np.allclose(bs.cutoffs[1:], np.arange(1, bs.n_branches) * SPACING_A, rtol=1e-8)


def test_trace_rejects_bad_grids(medium_a):
    with pytest.raises(ValueError):
        trace_branches(medium_a, [3.0, 2.0])
    with pytest.raises(ValueError):
        trace_branches(medium_a, [])
    with pytest.raises(ValueError):
        trace_branches(medium_a, [-1.0, 2.0])


def test_cutoffs_take_an_integer_count(medium_a):
    with pytest.raises(TypeError):
        cutoff_frequencies(medium_a, 2.5)
    assert np.array_equal(cutoff_frequencies(medium_a, np.int64(3)),
                          cutoff_frequencies(medium_a, 3))


def test_branch_k_property(medium_a):
    bs = trace_branches(medium_a, np.arange(10.0, 100.01, 10.0))
    b = bs.branches[0]
    assert np.array_equal(b.k, b.omega * b.y)


def test_trace_cutoffs_match_scan_cutoffs(medium_b):
    bs = trace_branches(medium_b, np.arange(2.0, 300.01, 2.0))
    scan = cutoff_frequencies(medium_b, bs.n_branches)
    assert np.allclose(bs.cutoffs, scan, rtol=1e-8, atol=1e-8)


def test_interior_layer_at_halfspace_velocity():
    # an interior layer exactly at the half-space velocity is degenerate at
    # the scan edge; cutoffs reduce to the surface-layer sequence
    m = Medium(mu=[1e6, 1e8, 1e8], rho=[1.0, 1.0, 1.0], thickness=[100.0, 50.0])
    cuts = cutoff_frequencies(m, 4)
    assert cuts[0] == 0.0
    assert np.allclose(cuts[1:], np.arange(1, 4) * SPACING_A, rtol=1e-9)


def test_interior_layer_faster_than_halfspace():
    # a faster-than-half-space interior layer is evanescent on the whole
    # scan domain; roots must still match the independent eigensolver
    from lovedisp import fd_eigen_oracle

    m = Medium(mu=[1e6, 4e8, 1e8], rho=[1.0, 1.0, 1.0], thickness=[100.0, 50.0])
    roots = roots_at_omega(m, 150.0)
    ks = fd_eigen_oracle(m, 150.0, depth_factor=8.0, grid_points=8000)
    assert len(ks) == len(roots)
    assert np.max(np.abs(ks - 150.0 * roots) / (150.0 * roots)) < 1e-3


def test_four_layer_medium_keeps_close_root_pair():
    # two roots 1.8% apart at omega = 60 that a phase-sampled scan skips
    from lovedisp import fd_eigen_oracle

    m = FOUR_LAYER
    trace_branches(m, np.arange(1.0, 300.5, 1.0))
    roots = roots_at_omega(m, 60.0)
    ks = fd_eigen_oracle(m, 60.0, depth_factor=8.0, grid_points=8000)
    assert len(roots) == len(ks) == 4
    assert np.max(np.abs(ks - 60.0 * roots) / ks) < 1e-3


def _assert_trace_matches_pointwise(medium, grid, monkeypatch):
    monkeypatch.setattr(branch_mod, "_TRACE_BLOCK", 64)
    assert len(grid) > branch_mod._TRACE_BLOCK  # spans more than one block
    bs = trace_branches(medium, grid)
    for node, w in enumerate(grid):
        traced = bs.slownesses_at(node)
        single = roots_at_omega(medium, w)
        assert len(traced) == len(single)
        assert np.all(np.abs(traced - single) <= 1e-12 * single)
    return bs


@pytest.mark.parametrize("name", ["medium_a", "medium_b", "medium_b_swapped"])
def test_trace_matches_roots_at_omega(name, request, monkeypatch):
    _assert_trace_matches_pointwise(
        request.getfixturevalue(name), np.arange(1.0, 150.01, 1.5), monkeypatch
    )


def test_trace_matches_roots_at_omega_four_layer(monkeypatch):
    _assert_trace_matches_pointwise(FOUR_LAYER, np.arange(1.0, 300.5, 3.0), monkeypatch)


@pytest.mark.parametrize("block", [64, 128])
@pytest.mark.parametrize("name", ["medium_a", "medium_b", "medium_b_swapped"])
def test_grid_search_is_the_trace(name, block, request, monkeypatch):
    # the refine's grid search and a trace fill one table, bit for bit, over
    # several blocks; blocks of 128 seed on 32 nodes, not one pass's 64
    medium, grid = request.getfixturevalue(name), np.arange(0.5, 150.01, 0.5)
    monkeypatch.setattr(branch_mod, "_TRACE_BLOCK", block)
    assert len(grid) > 2 * branch_mod._TRACE_BLOCK
    roots = branch_mod._roots_on_grid(medium, grid)
    assert np.array_equal(roots, trace_branches(medium, grid).y, equal_nan=True)


def _predictions(medium, cold):
    """Seed tables for ``_roots_on_grid``: (name, predicted roots, moves)."""
    lo, hi = medium.slowness_domain
    sign = np.where(np.arange(cold.shape[1]) % 2, 1.0, -1.0)
    zero = np.zeros_like(cold)
    wide = np.hstack([cold, np.full((len(cold), 3), hi), cold[:, :1]])
    return [
        ("exact", cold, zero),
        ("exact, moved", cold, 1e-3 * cold),
        # the roots lie outside their narrow seed brackets
        ("shifted", cold * (1.0 + 1e-3 * sign), zero),
        ("shifted, moved", cold * (1.0 - 1e-3 * sign), 1e-3 * cold),
        ("nan", np.full_like(cold, np.nan), np.full_like(cold, np.nan)),
        ("edges", np.where(np.isnan(cold), lo, np.where(sign > 0, hi, lo)), zero),
        ("past the edges", np.where(sign > 0, 2.0 * hi, -lo) + zero, zero),
        ("duplicated", np.repeat(cold[:, :1], cold.shape[1], axis=1), zero),
        ("rank-swapped", cold[:, ::-1], 1e-6 * cold[:, ::-1]),
        ("one rank", cold[:, :1], zero[:, :1]),
        ("wider", wide, np.zeros_like(wide)),
    ]


def _prediction_cases():
    rng = np.random.default_rng(7)
    stress = [_stress_medium(rng) for _ in range(20)]
    return [
        ("medium_a", None), ("medium_b", None), ("medium_b_swapped", None),
        *((m, np.linspace(omega / 12, omega, 12)) for m, omega in stress),
    ]


@pytest.mark.parametrize("block", [1024, 5])
def test_no_prediction_changes_the_roots(block, request, monkeypatch):
    # a seeded search finds what the cold one finds, however far off the
    # prediction: the same ranks at every frequency, the same roots within
    # the refinement's tolerance; blocks of 5 search 12 or 25 frequencies
    # in several seeded blocks, after the top count
    monkeypatch.setattr(branch_mod, "_TRACE_BLOCK", block)
    searched = 0
    for medium, grid in _prediction_cases():
        if grid is None:
            medium, grid = request.getfixturevalue(medium), np.linspace(20.0, 500.0, 25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cold = branch_mod._roots_on_grid(medium, grid)
            for name, predicted, move in _predictions(medium, cold):
                warm = branch_mod._roots_on_grid(medium, grid, (predicted, move))
                assert warm.shape == cold.shape, name
                assert np.array_equal(np.isnan(warm), np.isnan(cold)), name
                assert np.allclose(warm, cold, rtol=1e-12, atol=0.0, equal_nan=True), name
                searched += 1
    assert searched == 23 * 11


def _random_four_layer(rng):
    c = np.concatenate([rng.uniform(600.0, 3000.0, 4), [rng.uniform(5000.0, 12000.0)]])
    rho = rng.uniform(0.5, 3.0, 5)
    return Medium(mu=rho * c * c, rho=rho, thickness=rng.uniform(30.0, 200.0, 4))


@pytest.mark.parametrize("case", ["A", "B", "swapped B", "R4-0", "R4-1", "R4-2"])
def test_trace_seed_grid_matches_roots_at_omega(case, medium_a, medium_b, medium_b_swapped):
    # a whole trace block seeds on fewer slowness nodes than a single query
    # (16 on B up to omega = 150): the same ranks everywhere, the same roots
    # to within the refinement's tolerance
    rng = np.random.default_rng(5)
    four = [_random_four_layer(rng) for _ in range(3)]
    medium, grid = {
        "A": (medium_a, np.arange(0.5, 150.01, 0.5)),
        "B": (medium_b, np.arange(0.5, 150.01, 0.5)),
        "swapped B": (medium_b_swapped, np.arange(0.5, 150.01, 0.5)),
        "R4-0": (four[0], np.arange(1.0, 300.5, 1.0)),
        "R4-1": (four[1], np.arange(1.0, 300.5, 1.0)),
        "R4-2": (four[2], np.arange(1.0, 300.5, 1.0)),
    }[case]
    traced = trace_branches(medium, grid).y
    single = np.full_like(traced, np.nan)
    for i, w in enumerate(grid):
        roots = roots_at_omega(medium, w)
        single[i, : len(roots)] = roots
    assert np.array_equal(np.isnan(traced), np.isnan(single))
    ok = ~np.isnan(single)
    assert np.all(np.abs(traced[ok] - single[ok]) <= 1e-13 * single[ok])


def test_trace_seed_points(medium_b, monkeypatch):
    # tripwire: a 300-node trace of B seeds on 16 slowness nodes per
    # frequency (4,800 points) where 64 took 19,200; a 5-node trace keeps
    # its 5 x 64 seed points, under which the count's cost is its calls
    real, points = branch_mod._sturm_count, []

    def counted(medium, omega, y):
        points.append(np.broadcast(omega, y).size)
        return real(medium, omega, y)

    monkeypatch.setattr(branch_mod, "_sturm_count", counted)
    trace_branches(medium_b, np.arange(0.5, 150.01, 0.5))
    assert sum(points) <= 6000
    points.clear()
    monkeypatch.setattr(branch_mod, "cutoff_frequencies", lambda m, n: np.zeros(n))
    trace_branches(medium_b, np.arange(30.0, 150.01, 30.0))
    assert points[1] == 5 * 64


def test_trace_blocks_without_roots(monkeypatch):
    # below the first cutoff of the faster-interior medium whole blocks of
    # the trace hold no root at all
    m = Medium(mu=[1e6, 4e8, 1e8], rho=[1.0, 1.0, 1.0], thickness=[100.0, 50.0])
    grid = np.arange(1, 241) * 0.05
    bs = _assert_trace_matches_pointwise(m, grid, monkeypatch)
    first = int(np.argmax(grid > bs.cutoffs[0]))
    assert bs.cutoffs[0] == pytest.approx(9.8077, abs=1e-4)
    assert first >= 3 * branch_mod._TRACE_BLOCK  # three whole blocks
    assert [len(bs.slownesses_at(i)) for i in range(first)] == [0] * first
    assert len(bs.branches[0].omega) == len(grid) - first
    # one block mixing empty and nonempty frequencies keeps them in place
    roots = branch_mod._roots_on_grid(m, grid)
    traced = [len(bs.slownesses_at(i)) for i in range(len(grid))]
    assert np.count_nonzero(~np.isnan(roots), axis=1).tolist() == traced


def test_unconverged_bracket_raises(medium_a, monkeypatch):
    # with tol = 0 no bracket of a root without an exact zero can finish:
    # the refine names it instead of returning it as converged
    monkeypatch.setattr(branch_mod, "_REFINE_TOL", 0.0)
    with pytest.raises(BadBracket, match=r"could not refine rank 1 at omega=15\.0"):
        roots_at_omega(medium_a, 15.0)


def _bisection_steps(f, lo, hi, tol):
    """Steps plain bisection takes on each bracket to the same stop rule."""
    lo, hi = lo.copy(), hi.copy()
    s_lo = np.sign(f(np.arange(len(lo)), lo)[0])
    steps = np.zeros(len(lo), dtype=int)
    while len(todo := np.flatnonzero(hi - lo > tol * 0.5 * (lo + hi))):
        mid = 0.5 * (lo[todo] + hi[todo])
        sm = np.sign(f(todo, mid)[0])
        right = sm == s_lo[todo]
        lo[todo[right]] = mid[right]
        hi[todo[~right]] = mid[~right]
        lo[todo[sm == 0]] = mid[sm == 0]
        steps[todo] += 1
    return steps


@pytest.mark.parametrize(
    "case",
    ["B at 12000", "swapped B at 12000", "thick layer at 5e4", "B cutoffs"],
)
def test_refine_steps_within_bisection_plus_slack(case, medium_b, medium_b_swapped,
                                                  monkeypatch):
    # the minmax window bounds every bracket, also where Illinois alone
    # crawls: without it both B cases at omega = 12000 exceed the bound
    real, seen = branch_mod._refine_zeros, []

    def counted(f, lo, hi, v, ls, tol, label):
        evals = np.zeros(len(lo), dtype=int)

        def g(k, x):
            np.add.at(evals, k, 1)
            return f(k, x)

        out = real(g, lo, hi, v, ls, tol, label)
        seen.append((evals, _bisection_steps(f, lo, hi, tol)))
        return out

    monkeypatch.setattr(branch_mod, "_refine_zeros", counted)
    {
        "B at 12000": lambda: roots_at_omega(medium_b, 12000.0),
        "swapped B at 12000": lambda: roots_at_omega(medium_b_swapped, 12000.0),
        "thick layer at 5e4": lambda: roots_at_omega(THICK_LAYER, 5e4),
        "B cutoffs": lambda: cutoff_frequencies(medium_b, 40),
    }[case]()
    ((steps, halvings),) = seen
    assert len(steps) > 20
    assert np.all(steps <= halvings + branch_mod._SLACK_STEPS)


def _count_dispersion_calls(monkeypatch):
    real, calls = branch_mod._dispersion_scaled, []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(branch_mod, "_dispersion_scaled", counted)
    return calls


def test_trace_dispersion_passes(medium_b, monkeypatch):
    # tripwire: a trace of 300 nodes is one root search with ITP steps and
    # the minimum step, its refine started from the counts' values of F (14
    # passes; 16 with an opening pass over the bracket ends); without the
    # minimum step it made 34, the untruncated Illinois step 55, bisection
    # in 64-frequency blocks 250
    calls = _count_dispersion_calls(monkeypatch)
    trace_branches(medium_b, np.arange(0.5, 150.01, 0.5))
    assert len(calls) <= 15


def test_single_query_dispersion_passes(monkeypatch):
    # tripwire: the untruncated Illinois step crawled on STEEP's rank 22 and
    # made 46 passes, with truncation 15, with the minimum step 12
    calls = _count_dispersion_calls(monkeypatch)
    assert len(roots_at_omega(STEEP, 582.4)) == 41
    assert len(calls) <= 14


def test_cutoff_dispersion_passes(medium_b, monkeypatch):
    # tripwire: with the minimum step 40 cutoffs of B take 12 passes; without
    # it the far end of some bracket bisected down to the tolerance in 24
    calls = _count_dispersion_calls(monkeypatch)
    assert len(cutoff_frequencies(medium_b, 40)) == 40
    assert len(calls) <= 15


def test_cutoff_count_passes(medium_b, monkeypatch):
    # tripwire: 40 cutoffs of B take one count on a seed grid of frequencies;
    # bisecting every rank from the whole frequency range took 8
    real, calls = branch_mod._sturm_count, []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(branch_mod, "_sturm_count", counted)
    assert len(cutoff_frequencies(medium_b, 40)) == 40
    assert len(calls) <= 2


def _query_random_like(rng, n):
    """A query of the benchmark's query-random kind: an (n+1)-layer medium
    drawn as ``_random_four_layer`` draws one, at the frequency that puts a
    total layer phase of 10-150 rad at the half-space slowness."""
    c = np.concatenate([rng.uniform(600.0, 3000.0, n), [rng.uniform(5000.0, 12000.0)]])
    rho = rng.uniform(0.5, 3.0, n + 1)
    thickness = rng.uniform(30.0, 200.0, n)
    rate = float(thickness @ np.sqrt(1.0 / c[:-1] ** 2 - 1.0 / c[-1] ** 2))
    omega = rng.uniform(10.0, 150.0) / rate
    rng.uniform(0.10, 0.95)  # the query level the benchmark draws next
    return Medium(mu=rho * c * c, rho=rho, thickness=thickness), omega


def test_query_passes(monkeypatch):
    # tripwire on the passes of a single-frequency root search, over the
    # first 100 queries of the benchmark's seed-1 stream: 6.78 F passes and
    # 1.20 counts per query with 512 seed nodes and the refine started from
    # the counts' values of F; 8.38 and 1.52 with 256 nodes and an opening F
    # pass over the bracket ends; 11.48 and 2.77 with the Illinois step and
    # 64 nodes, 10.67 F passes with the Illinois step alone and 2.77 counts
    # with 64 nodes alone
    f_calls, counts = _count_dispersion_calls(monkeypatch), []
    real = branch_mod._sturm_count

    def counted(*args):
        counts.append(1)
        return real(*args)

    monkeypatch.setattr(branch_mod, "_sturm_count", counted)
    rng = np.random.default_rng(1)
    ns = rng.permutation(np.repeat(np.arange(1, 6), 96))[:100]
    for n in ns:
        roots_at_omega(*_query_random_like(rng, int(n)))
    assert len(f_calls) / len(ns) <= 7.0
    assert len(counts) / len(ns) <= 1.3


def test_stress_root_invariants():
    # every root of 300 stress media (n = 1..20, 25,617 roots): the search
    # finds as many as the count sees above 1/c_inf, strictly descending,
    # and F changes sign strictly across y(1 -+ 1e-11) at the first three
    rng = np.random.default_rng(31337)
    found = 0
    for _ in range(300):
        m, omega = _stress_medium(rng)
        roots = roots_at_omega(m, omega)
        assert len(roots) == branch_mod._sturm_count(m, omega, m.slowness[-1])[0]
        assert np.all(np.diff(roots) < 0.0)
        top = roots[:3]
        below = branch_mod._dispersion_scaled(m, omega, top * (1.0 - 1e-11))[0]
        above = branch_mod._dispersion_scaled(m, omega, top * (1.0 + 1e-11))[0]
        assert np.all(np.sign(below) * np.sign(above) < 0.0)
        found += len(roots)
    assert found == 25617


def _extreme_medium(rng):
    """A stress medium at the edges of double range: n = 1..5, c 100-5000
    m/s, one layer 1e6-1e9 m thick and the others 0.01-1000 m, and
    mu_inf / mu_min up to 1e40.  omega puts a Weyl count of at most
    1e4 - n - 1 below the half-space slowness, so at most 1e4 roots."""
    n = int(rng.integers(1, 6))
    c = rng.uniform(100.0, 5000.0, n)
    rho = rng.uniform(0.5, 3.5, n + 1)
    t = np.exp(rng.uniform(np.log(0.01), np.log(1000.0), n))
    t[rng.integers(n)] = np.exp(rng.uniform(np.log(1e6), np.log(1e9)))
    mu = rho[:-1] * c**2
    # the half-space at least 1.1 times faster than the slowest layer
    floor = np.log10(1.21 * c.min() ** 2 * rho[-1] / mu.min())
    m = Medium(mu=np.append(mu, mu.min() * 10.0 ** rng.uniform(floor, 40.0)),
               rho=rho, thickness=t)
    phase = branch_mod._oscillatory_phase(m, float(m.slowness[-1]))
    return m, np.exp(rng.uniform(0.0, np.log(np.pi * (1e4 - n - 1)))) / phase


def _extreme_draws(count):
    """The first ``count`` seed-1 extreme media, each with omega and its
    roots, found with every warning an error."""
    rng = np.random.default_rng(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(count):
            m, omega = _extreme_medium(rng)
            yield m, omega, roots_at_omega(m, omega)


def test_extreme_root_invariants():
    # 300 extreme media, 329,322 roots: no warning (draw 50 overflowed in
    # the refine's interpolation), the count identity at 1/c_inf, strict
    # descent and a strict sign change of F across y(1 -+ 1e-11) at the first 3
    found = 0
    for m, omega, roots in _extreme_draws(300):
        assert len(roots) == branch_mod._sturm_count(m, omega, m.slowness[-1])[0] <= 10**4
        assert np.all(np.diff(roots) < 0.0)
        top = roots[:3]
        below = branch_mod._dispersion_scaled(m, omega, top * (1.0 - 1e-11))[0]
        above = branch_mod._dispersion_scaled(m, omega, top * (1.0 + 1e-11))[0]
        assert np.all(np.sign(below) * np.sign(above) < 0.0)
        found += len(roots)
    assert found == 329322


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="FOUND: roots_at_omega returns 1/c_inf itself "
                   "as a root when the true root lies within rounding of it")
def test_extreme_roots_never_sit_at_the_halfspace_slowness():
    # BranchSet never holds the point 1/c_inf, where no mode decays; about
    # one extreme draw in five returns it as its last root
    for m, _, roots in _extreme_draws(30):
        assert not np.any(roots == m.slowness[-1])


def test_refine_does_not_overflow_on_a_deep_layer():
    # the refine's interpolation formed f1 / f32 with f32 far below f1 and
    # warned of an overflow; 18,053 roots under a 6.17e7 m layer
    c = np.array([3820.3, 4803.2, 1778.9, 8220.2])
    m = Medium(mu=c**2, rho=np.ones(4), thickness=[7.55, 6.17e7, 832.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = roots_at_omega(m, 5.44)
    assert len(roots) == branch_mod._sturm_count(m, 5.44, m.slowness[-1])[0] == 18053
    assert np.all(np.diff(roots) < 0.0)


def _assert_cutoffs_start_branches(medium, cuts, ells):
    for ell in ells:
        w = float(cuts[ell - 1])
        assert len(roots_at_omega(medium, w)) == ell - 1
        assert len(roots_at_omega(medium, w * (1 + 1e-8))) >= ell


@pytest.mark.parametrize("draw,ell,omega", [
    (5, 10, 577.8428429591656), (13, 9, 348.51938625431967), (30, 2, 101104.1834860921),
    (54, 11, 10604.472326810715), (106, 16, 87.64982806287448),
    (152, 21, 28.888319348096303), (185, 2, 779.656495197856),
    (212, 2, 11.135735870828132), (240, 7, 113.35217218813108),
    (262, 6, 27.652818432605134), (286, 7, 44.5958568167183),
])
def test_cutoff_near_an_exact_zero(draw, ell, omega):
    # draws of the seed-31337 stress stream whose cutoff refinement lands on
    # an exact zero of F(omega, 1/c_inf), and draws 152 and 286, whose
    # refinement from the whole frequency range did: the zero stays the
    # bracket's hi end, so the returned lo end has a nonzero F and the
    # branches below it.  Draw 13's value is one ulp below its zero, 2.5e-14
    # relative above the cutoff returned.
    rng = np.random.default_rng(31337)
    for _ in range(draw + 1):
        m, w = _stress_medium(rng)
    cuts = cutoff_frequencies(m, min(len(roots_at_omega(m, w)) + 2, 40))
    assert cuts[ell - 1] == pytest.approx(omega, rel=1e-12)
    assert branch_mod._dispersion_scaled(m, cuts[ell - 1], m.slowness[-1])[0] != 0.0
    _assert_cutoffs_start_branches(m, cuts, [ell])


def test_stress_cutoffs_start_branches():
    # every positive cutoff of 20 stress media (n = 1..20, layer phases up
    # to 3000 rad): ell - 1 roots at it and at least ell just above it
    rng = np.random.default_rng(2027)
    checked = 0
    for _ in range(20):
        m, omega = _stress_medium(rng)
        cuts = cutoff_frequencies(m, min(len(roots_at_omega(m, omega)) + 2, 40))
        ells = np.flatnonzero(cuts > 0) + 1
        _assert_cutoffs_start_branches(m, cuts, ells)
        checked += len(ells)
    assert checked == 434


def test_cutoff_grid_top_doubles(monkeypatch):
    # an eight-layer medium whose first grid top counts 18 of 19 branches:
    # the seed grid's top is doubled once, and every cutoff still starts
    # its branch
    c = np.array([3454.95, 1584.18, 4712.39, 1008.17, 584.475, 1461.84, 2697.44, 1954.65])
    rho = np.array([8.212, 3.979, 1.218, 3.885, 0.45, 5.837, 5.662, 6.866])
    m = Medium(mu=rho * c * c, rho=rho,
               thickness=[0.0102321, 0.0410037, 2.1296, 0.0256587, 0.103113,
                          0.322095, 52.6591])
    real, tops = branch_mod._sturm_count, []

    def spy(medium, omega, y):
        if np.size(omega) == branch_mod._SEED_NODES:  # a seed grid, top first
            tops.append(float(np.ravel(omega)[0]))
        return real(medium, omega, y)

    monkeypatch.setattr(branch_mod, "_sturm_count", spy)
    cuts = cutoff_frequencies(m, 19)
    monkeypatch.undo()
    assert len(tops) == 2 and tops[1] == 2.0 * tops[0]
    assert tops[0] < cuts[-1] <= tops[1]
    assert np.all(cuts > 0)
    _assert_cutoffs_start_branches(m, cuts, range(1, 20))


# c = (1000, 2000) m/s, H = 100 m holds 2.76e8 roots at omega = 1e10 and
# 2.76e10 at 1e12: without a budget the root search asks numpy for 2 GiB and
# 205 GiB.  The child runs under a 1 GiB address-space limit.
_BUDGET_CHILD = """
import resource, time
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from lovedisp import Medium, ResultOutOfRange, roots_at_omega
m = Medium(mu=[1e6, 4e6], rho=[1.0, 1.0], thickness=[100.0])
for omega in (1e10, 1e12):
    t = time.perf_counter()
    try:
        roots_at_omega(m, omega)
    except ResultOutOfRange as exc:
        print(time.perf_counter() - t, exc)
"""


def test_root_budget_raises_before_allocating():
    import lovedisp

    src = str(Path(lovedisp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _BUDGET_CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 2
    for line, count in zip(lines, ("275664448", "27566444772")):
        seconds, message = line.split(" ", 1)
        assert float(seconds) < 1.0
        assert f"is {count}, over the per-call budget of 4194304" in message


def test_budget_bounds_a_single_query(medium_a):
    # A holds 6,334,287 roots at omega = 2e8: the seed count alone says so
    with pytest.raises(ResultOutOfRange, match="is 6334287, over the per-call budget"):
        roots_at_omega(medium_a, 2e8)


def test_budget_bounds_cutoffs_and_trace_table(medium_a):
    with pytest.raises(ResultOutOfRange, match="ell_max is 4194305"):
        cutoff_frequencies(medium_a, 2**22 + 1)
    # A holds 317 roots at omega = 1e4: a table of 100,000 x 317 entries
    grid = np.linspace(0.1, 1e4, 100_000)
    with pytest.raises(ResultOutOfRange, match="is 31700000, over"):
        trace_branches(medium_a, grid)


def _end_values(f, lo, hi):
    """``f`` at the ends of every bracket, as the refine takes them: (2, n)
    values and log scales, row 0 at ``lo``, in one pass over both ends."""
    k = np.arange(len(lo))
    v, ls = f(np.concatenate([k, k]), np.concatenate([lo, hi]))
    return np.reshape(v, (2, -1)), np.reshape(ls, (2, -1))


def test_refine_closes_once_a_point_lands_by_the_root():
    # a linear f with its root tol*mid/8 above lo, so lo starts within
    # h = tol*mid/4 of it.  The first steps' truncation keeps the point off
    # the root; the minimum step then puts the first point that lands within
    # h of the root past it, which closes the bracket on that step.  Without
    # it the point could land between lo and the root, and the far end
    # bisected on from there.
    tol, n = branch_mod._REFINE_TOL, 400
    lo, hi = np.ones(n), 1.0 + np.logspace(-11.9, 0.0, n)
    mid = 0.5 * (lo + hi)
    root, h = lo + tol * mid / 8, tol * mid / 4
    steps, reached = np.zeros(n, dtype=int), np.zeros(n, dtype=int)

    def f(k, x):
        if len(k) <= n:  # not the initial pass over both ends
            steps[k] += 1
            near = (np.abs(x - root[k]) <= h[k]) & (reached[k] == 0)
            reached[k[near]] = steps[k[near]]
        return x - root[k], np.zeros(len(x))

    lo_out, hi_out, _, _ = branch_mod._refine_zeros(f, lo, hi, *_end_values(f, lo, hi), tol, str)
    assert np.all(hi_out - lo_out <= tol * 0.5 * (lo_out + hi_out))
    assert np.all((lo_out <= root) & (root <= hi_out))
    landed = reached > 0
    assert landed.sum() > n // 2
    assert np.array_equal(steps[landed], reached[landed])
    assert steps.max() <= 5


@pytest.mark.parametrize("case", ["B at 12000", "steep at 582.4"])
def test_refine_returns_true_end_values(case, medium_b, monkeypatch):
    # the polish reads F at the final ends from the refine, so those values
    # must be F there bit for bit, with no Illinois halving left in them;
    # and the refine's evaluations are the search's only F passes
    medium, omega = {"B at 12000": (medium_b, 12000.0), "steep at 582.4": (STEEP, 582.4)}[case]
    real, seen, ends = branch_mod._refine_zeros, [], []

    def recorded(f, lo, hi, v, ls, tol, label):
        def g(k, x):
            seen.append(1)
            return f(k, x)

        ends.append(real(g, lo, hi, v, ls, tol, label))
        return ends[-1]

    monkeypatch.setattr(branch_mod, "_refine_zeros", recorded)
    calls = _count_dispersion_calls(monkeypatch)
    roots_at_omega(medium, omega)
    assert len(calls) == len(seen)
    ((lo, hi, v, ls),) = ends
    assert len(lo) > 20
    for row, y in enumerate((lo, hi)):
        fresh_v, fresh_ls = branch_mod._dispersion_scaled(medium, omega, y)
        assert np.array_equal(v[row], fresh_v)
        assert np.array_equal(ls[row], fresh_ls)


@pytest.mark.parametrize("case", ["B at 12000", "steep at 582.4"])
def test_refine_bracket_alone_matches_joint(case, medium_b, monkeypatch):
    # every quantity of a bracket lives in its own column of the state table,
    # so a bracket refined alone takes the same path, bit for bit, as it does
    # among all the others: only the shared step number couples them
    medium, omega = {"B at 12000": (medium_b, 12000.0), "steep at 582.4": (STEEP, 582.4)}[case]
    real, calls = branch_mod._refine_zeros, []

    def recorded(f, lo, hi, v, ls, tol, label):
        calls.append((f, lo.copy(), hi.copy(), v.copy(), ls.copy(), tol))
        return real(f, lo, hi, v, ls, tol, label)

    monkeypatch.setattr(branch_mod, "_refine_zeros", recorded)
    roots_at_omega(medium, omega)
    ((f, lo, hi, v, ls, tol),) = calls
    assert len(lo) > 40
    joint = real(f, lo, hi, v, ls, tol, str)
    for b in range(len(lo)):
        alone = real(lambda k, x: f(k + b, x), lo[b : b + 1], hi[b : b + 1],
                     v[:, b : b + 1], ls[:, b : b + 1], tol, str)
        for got, want in zip(alone, joint):
            assert np.array_equal(got, want[..., b : b + 1])


def test_refine_keeps_an_exact_zero_as_hi():
    # the first Illinois point of x - 1.5 on [1, 2] is the midpoint, an exact
    # zero: it becomes the hi end, lo closes in below it with the sign lo
    # had, and the secant step from those ends returns the zero exactly;
    # a bracket without an exact zero refines on beside it
    root = np.array([1.5, 1.7])

    def f(k, x):
        return x - root[k], np.zeros(len(x))

    lo, hi = np.ones(2), np.full(2, 2.0)
    lo, hi, v, ls = branch_mod._refine_zeros(f, lo, hi, *_end_values(f, lo, hi), 1e-12, str)
    assert hi[0] == 1.5 and v[1, 0] == 0.0
    assert lo[0] < 1.5 and v[0, 0] < 0.0
    assert 1.5 - lo[0] <= 1e-12 * 1.5
    assert branch_mod._secant_polish(lo, hi, v, ls)[0] == 1.5
    assert lo[1] <= 1.7 <= hi[1] and hi[1] - lo[1] <= 1e-12 * 1.7
