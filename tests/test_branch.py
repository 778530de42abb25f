import numpy as np
import pytest

import lovedisp.branch as branch_mod
from lovedisp import (
    BadBracket,
    Medium,
    cutoff_frequencies,
    refine_root,
    roots_at_omega,
    trace_branches,
)

MAG_A = np.sqrt(1e-6 - 1e-8)  # |nu_1| of the benchmark at the half-space slowness
SPACING_A = np.pi / (MAG_A * 100.0)  # closed-form cutoff spacing
# seed-105 random medium: two roots 1.8% apart at omega = 60
FOUR_LAYER = Medium(
    mu=[4612356.4957442675, 24043856.688325193, 1281914.2909105883,
        6697000.2330318, 73352399.29616506],
    rho=[1.0150405901166124, 2.7084220584269563, 1.8512071997082267,
         2.0305111513959364, 1.213403968980094],
    thickness=[124.53003394766058, 154.7248812895132, 63.80876746410887,
               75.00988020061546],
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


def test_roots_stay_inside_margins(medium_a):
    lo, hi = medium_a.slowness_domain
    roots = roots_at_omega(medium_a, 1800.0)
    assert np.all(roots >= lo * (1 + branch_mod._Y_MARGIN))
    assert np.all(roots <= hi * (1 - branch_mod._Y_MARGIN))


def test_refine_root_against_scan(medium_a):
    roots = roots_at_omega(medium_a, 100.0)
    y = roots[1]
    refined = refine_root(medium_a, 100.0, (y * (1 - 1e-4), y * (1 + 1e-4)))
    assert refined == pytest.approx(y, rel=1e-10)


def test_refine_root_rejects_equal_signs(medium_a):
    with pytest.raises(BadBracket):
        refine_root(medium_a, 100.0, (4e-4, 4.05e-4))


def _add_phantom_count_step(monkeypatch):
    real = branch_mod._sturm_count
    def phantom(medium, omega, y):
        return real(medium, omega, y) + (np.asarray(y) < 5e-4)

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


def test_refine_root_across_interior_kink(medium_b):
    # bracket straddling 1/c_2 where the dispersion function has a kink
    inv2 = float(medium_b.slowness[1])
    roots = roots_at_omega(medium_b, 300.0)
    near = roots[np.argmin(np.abs(roots - inv2))]
    width = 4 * abs(near - inv2) + 1e-8
    lo, hi = near - width, near + width
    assert lo < inv2 < hi  # genuinely straddles the kink
    refined = refine_root(medium_b, 300.0, (lo, hi))
    assert refined == pytest.approx(near, rel=1e-9)


def test_cutoffs_match_closed_form(medium_a):
    cuts = cutoff_frequencies(medium_a, 6)
    expected = np.arange(6) * SPACING_A
    assert cuts[0] == 0.0
    assert np.allclose(cuts[1:], expected[1:], rtol=1e-10)


def test_cutoffs_are_branch_start_roots(medium_a):
    # past each cutoff one more root exists than before it; the offset must
    # clear the scan margin, which censors a root within ~1e-2 of its start
    cuts = cutoff_frequencies(medium_a, 4)
    for ell, w in enumerate(cuts[1:], start=2):
        assert len(roots_at_omega(medium_a, w + 0.1)) == ell
        assert len(roots_at_omega(medium_a, w - 0.1)) == ell - 1


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


def _assert_trace_matches_pointwise(medium, grid):
    assert len(grid) > branch_mod._TRACE_BLOCK  # spans more than one block
    bs = trace_branches(medium, grid)
    for node, w in enumerate(grid):
        traced = bs.slownesses_at(node)
        single = roots_at_omega(medium, w)
        assert len(traced) == len(single)
        assert np.all(np.abs(traced - single) <= 1e-12 * single)
    return bs


@pytest.mark.parametrize("name", ["medium_a", "medium_b", "medium_b_swapped"])
def test_trace_matches_roots_at_omega(name, request):
    _assert_trace_matches_pointwise(
        request.getfixturevalue(name), np.arange(1.0, 150.01, 1.5)
    )


def test_trace_matches_roots_at_omega_four_layer():
    _assert_trace_matches_pointwise(FOUR_LAYER, np.arange(1.0, 300.5, 3.0))


def test_trace_blocks_without_roots():
    # below the first cutoff of the faster-interior medium whole blocks of
    # the trace hold no root at all
    m = Medium(mu=[1e6, 4e8, 1e8], rho=[1.0, 1.0, 1.0], thickness=[100.0, 50.0])
    grid = np.arange(1, 241) * 0.05
    bs = _assert_trace_matches_pointwise(m, grid)
    first = int(np.argmax(grid > bs.cutoffs[0]))
    assert bs.cutoffs[0] == pytest.approx(9.8077, abs=1e-4)
    assert first >= 3 * branch_mod._TRACE_BLOCK  # three whole blocks
    assert [len(bs.slownesses_at(i)) for i in range(first)] == [0] * first
    assert len(bs.branches[0].omega) == len(grid) - first
    # one block mixing empty and nonempty frequencies keeps them in place
    roots = branch_mod._roots_on_grid(m, grid)
    traced = [len(bs.slownesses_at(i)) for i in range(len(grid))]
    assert [len(r) for r in roots] == traced
