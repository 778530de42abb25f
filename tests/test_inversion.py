import logging
import re
import warnings

import numpy as np
import pytest

from lovedisp import (
    AmbiguousOrdering,
    DispersionDataset,
    InsufficientData,
    LoveDispError,
    Medium,
    branchset_from_dataset,
    invert_double_layer,
    invert_single_layer,
    least_squares_refine,
    parameter_mask,
    recover_extremes,
    roots_at_omega,
    synthesize_observations,
    trace_branches,
)
from lovedisp.branch import BranchSet
from test_modes import _stress_medium


def test_dataset_validation():
    with pytest.raises(ValueError):
        DispersionDataset(omega=np.array([1.0, -1.0]), k=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        DispersionDataset(
            omega=np.array([1.0, 1.0]),
            k=np.array([2.0, 1.0]),
            ell=np.array([2, 1]),  # bigger k must carry the smaller rank
        )
    for omega, k in (([np.inf, 1.0], [2.0, 1.0]), ([1.0, 1.0], [2.0, np.inf])):
        with pytest.raises(ValueError, match="finite and > 0, got inf"):
            DispersionDataset(omega=np.array(omega), k=np.array(k))
    ds = DispersionDataset(
        omega=np.array([1.0, 1.0]), k=np.array([2.0, 1.0]), ell=np.array([1, 2])
    )
    assert len(ds) == 2


def test_dataset_rejects_labels_below_one():
    # rank 0 would be read as rank -1, the last root, by the refine
    for sigma in (None, 1e-3):
        with pytest.raises(ValueError, match=">= 1"):
            DispersionDataset(omega=np.array([1.0, 1.0]), k=np.array([2.0, 1.0]),
                              ell=np.array([0, 1]), noise_sigma=sigma)


def test_dataset_rejects_non_integer_labels():
    # an integer cast would read label 1.5 as branch 1
    for sigma in (None, 1e-3):
        with pytest.raises(ValueError, match="integers"):
            DispersionDataset(omega=np.array([1.0, 1.0]), k=np.array([2.0, 1.0]),
                              ell=np.array([1.5, 2.0]), noise_sigma=sigma)


def test_dataset_rejects_negative_or_nonfinite_noise():
    # a negative sigma would also switch off the ordered-label check
    for sigma in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="noise_sigma"):
            DispersionDataset(omega=np.array([1.0, 1.0]), k=np.array([2.0, 1.0]),
                              ell=np.array([2, 1]), noise_sigma=sigma)


def test_synthesize_rejects_bad_noise_before_tracing(medium_a, monkeypatch):
    # the sigma is checked by the dataset's rule before any root is searched
    import lovedisp.inversion as inversion_mod

    def no_trace(*args):
        raise AssertionError("traced before checking noise_sigma")

    monkeypatch.setattr(inversion_mod, "trace_branches", no_trace)
    for sigma in (-1.0, np.nan):
        with pytest.raises(ValueError, match="noise_sigma"):
            synthesize_observations(medium_a, np.arange(1.0, 10.01, 1.0), noise_sigma=sigma)


def test_noisy_dataset_rejects_duplicate_labels():
    # noise exempts the descending-k order, not the one sample per label
    omega, k = np.array([1.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0])
    swapped = DispersionDataset(omega=omega, k=k, ell=np.array([1, 2, 1]),
                                noise_sigma=1e-3)
    assert len(swapped) == 3
    with pytest.raises(ValueError, match="duplicate branch labels at omega=1"):
        DispersionDataset(omega=omega, k=k, ell=np.array([1, 1, 1]), noise_sigma=1e-3)


@pytest.mark.parametrize("labelled", [False, True])
def test_dataset_stores_rows_in_one_canonical_order(labelled):
    # by frequency, then by label or by descending k, ties in input order
    # (Python's sort is stable), whatever the row order
    rng = np.random.default_rng(11)
    omega = np.repeat([3.0, 1.0, 2.0], [5, 7, 6])
    k = rng.integers(1, 4, len(omega)) * 0.5  # tied k within a frequency
    ell = np.concatenate([rng.permutation(n) + 1 for n in (5, 7, 6)])
    for _ in range(3):
        perm = rng.permutation(len(omega))
        data = DispersionDataset(omega=omega[perm], k=k[perm],
                                 ell=ell[perm] if labelled else None,
                                 noise_sigma=1e-3 if labelled else None)
        rows = sorted(zip(omega[perm], k[perm], ell[perm]),
                      key=lambda r: (r[0], r[2] if labelled else -r[1]))
        want_w, want_k, want_ell = map(np.array, zip(*rows))
        assert np.array_equal(data.omega, want_w) and np.array_equal(data.k, want_k)
        if labelled:
            assert data.ell.dtype == int and np.array_equal(data.ell, want_ell)


@pytest.mark.parametrize("labelled", [False, True])
def test_least_squares_ignores_row_order(medium_a, labelled):
    # the misfit sums the residuals in the stored order, not the input one
    for seed in range(6):
        rng = np.random.default_rng(seed)
        grid = np.sort(rng.uniform(20.0, 500.0, 25))
        data = synthesize_observations(medium_a, grid, noise_sigma=1e-4, seed=seed)
        guess = Medium(mu=medium_a.mu, rho=medium_a.rho,
                       thickness=[100.0 * rng.uniform(1.04, 1.06)])
        mask = parameter_mask(guess, thickness=True)
        results = set()
        for _ in range(3):
            perm = rng.permutation(len(data))
            shuffled = DispersionDataset(
                omega=data.omega[perm], k=data.k[perm],
                ell=data.ell[perm] if labelled else None, noise_sigma=1e-4)
            refined, misfit = least_squares_refine(guess, shuffled, mask, max_iter=60)
            results.add((float(refined.thickness[0]).hex(), misfit.hex()))
        assert len(results) == 1


def test_branchset_from_dataset_with_gap(medium_a):
    # a branch with a missing sample keeps every other sample in its cell
    grid = np.arange(10.0, 300.01, 10.0)
    bs = trace_branches(medium_a, grid)
    ds = synthesize_observations(medium_a, grid, branchset=bs)
    keep = ~((ds.omega == 150.0) & (ds.ell == 1))
    gapped = branchset_from_dataset(
        DispersionDataset(omega=ds.omega[keep], k=ds.k[keep], ell=ds.ell[keep])
    )
    assert gapped.n_branches == bs.n_branches
    for node, w in enumerate(grid):
        expected = bs.slownesses_at(node)[1:] if w == 150.0 else bs.slownesses_at(node)
        got = gapped.slownesses_at(node)
        assert len(got) == len(expected)
        assert np.allclose(got, expected, rtol=1e-15, atol=0.0)


def test_unlabelled_dataset_with_gap_is_refused(medium_a):
    # without labels the missing sample would shift every rank below it;
    # the count falling from omega = 140 to 150 proves it is missing
    grid = np.arange(10.0, 300.01, 10.0)
    ds = synthesize_observations(medium_a, grid)
    keep = ~((ds.omega == 150.0) & (ds.ell == 1))
    gapped = DispersionDataset(omega=ds.omega[keep], k=ds.k[keep])
    message = "4 samples at omega=150.0 after 5 at omega=140.0"
    with pytest.raises(InsufficientData, match=message):
        branchset_from_dataset(gapped)
    with pytest.raises(InsufficientData, match=message):
        least_squares_refine(medium_a, gapped, parameter_mask(medium_a, thickness=True))


def test_branchset_from_dataset_rejects_unobserved_rank():
    ds = DispersionDataset(omega=np.array([1.0, 1.0]), k=np.array([2.0, 1.0]),
                           ell=np.array([1, 3]))
    with pytest.raises(ValueError, match="branch 2 has no samples"):
        branchset_from_dataset(ds)


def test_synthesize_deterministic_and_exact(medium_a):
    grid = np.arange(10.0, 300.01, 10.0)
    bs = trace_branches(medium_a, grid)
    clean = synthesize_observations(medium_a, grid, branchset=bs)
    again = synthesize_observations(medium_a, grid, branchset=bs)
    assert np.array_equal(clean.k, again.k)
    # noiseless samples lie exactly on the branches
    for b in bs.branches:
        sel = clean.ell == b.ell
        assert np.array_equal(np.sort(clean.k[sel]), np.sort(b.k))
    noisy1 = synthesize_observations(medium_a, grid, 1e-3, seed=9, branchset=bs)
    noisy2 = synthesize_observations(medium_a, grid, 1e-3, seed=9, branchset=bs)
    assert np.array_equal(noisy1.k, noisy2.k)
    assert not np.array_equal(noisy1.k, clean.k)


def test_synthesized_noise_magnitude(medium_a, trace_a_coarse):
    grid = trace_a_coarse.omega_grid
    clean = synthesize_observations(medium_a, grid, branchset=trace_a_coarse)
    noisy = synthesize_observations(
        medium_a, grid, noise_sigma=1e-3, seed=21, branchset=trace_a_coarse
    )
    assert len(noisy) > 1000
    dev = np.std(noisy.k / clean.k - 1.0)
    assert dev == pytest.approx(1e-3, rel=0.2)


def test_branchset_from_dataset_roundtrip(medium_a):
    grid = np.arange(10.0, 300.01, 10.0)
    bs = trace_branches(medium_a, grid)
    ds = synthesize_observations(medium_a, grid, branchset=bs)
    rebuilt = branchset_from_dataset(ds)
    assert rebuilt.n_branches == bs.n_branches
    for orig, back in zip(bs.branches, rebuilt.branches):
        assert np.allclose(orig.y, back.y)


def test_branchset_from_unlabeled_dataset(medium_a):
    grid = np.arange(10.0, 300.01, 10.0)
    ds = synthesize_observations(medium_a, grid)
    unlabeled = DispersionDataset(omega=ds.omega, k=ds.k)
    rebuilt = branchset_from_dataset(unlabeled)
    labeled = branchset_from_dataset(ds)
    assert rebuilt.n_branches == labeled.n_branches
    assert np.allclose(rebuilt.branches[0].y, labeled.branches[0].y)


def test_recover_extremes(trace_a_coarse):
    c0, c_inf = recover_extremes(trace_a_coarse)
    assert c0 == pytest.approx(1000.0, rel=5e-3)
    assert c_inf == pytest.approx(10000.0, rel=1e-3)


def test_recover_extremes_insufficient_data(medium_a):
    short = trace_branches(medium_a, np.linspace(5.0, 30.0, 10))
    with pytest.raises(InsufficientData):
        recover_extremes(short)


def test_invert_single_layer_roundtrip(trace_a_coarse):
    rep = invert_single_layer(trace_a_coarse, rho1=1.0)
    assert rep["c1"].value == pytest.approx(1000.0, rel=5e-3)
    assert rep["c2"].value == pytest.approx(10000.0, rel=5e-3)
    assert rep["H"].value == pytest.approx(100.0, rel=1e-2)
    assert rep["rho2"].value == pytest.approx(1.0, rel=2e-2)
    assert rep["mu1"].value == pytest.approx(1e6, rel=1e-2)
    assert rep["mu2"].value == pytest.approx(1e8, rel=4e-2)
    assert np.isfinite(rep.residual)
    assert all(p.rule for p in rep.parameters)
    assert "rho2" in rep.render()


def test_invert_single_layer_spreads_in_parameter_units(medium_a):
    # c2's spread is that of the per-branch estimates 1/infimum (m/s), and
    # H's that of the per-gap estimates c1 c2 / sqrt(c2^2 - c1^2) pi / gap (m)
    data = synthesize_observations(
        medium_a, np.arange(1.0, 999.01, 1.0), noise_sigma=1e-3, seed=3
    )
    bs = branchset_from_dataset(data)
    rep = invert_single_layer(bs, rho1=1.0)
    c1, c2 = rep["c1"].value, rep["c2"].value
    per_branch = 1.0 / np.nanmin(bs.y, axis=0)
    assert rep["c2"].spread == pytest.approx(np.std(per_branch), rel=0.05)
    ells = np.flatnonzero(np.isfinite(bs.cutoffs)) + 1
    gaps = np.diff(bs.cutoffs[ells - 1]) / np.diff(ells)
    per_gap = c1 * c2 / np.sqrt(c2 * c2 - c1 * c1) * np.pi / gaps
    assert rep["H"].spread == pytest.approx(np.std(per_gap), rel=0.05)


def test_invert_single_layer_needs_two_cutoffs(medium_a):
    bs = trace_branches(medium_a, np.linspace(1.0, 25.0, 25))
    assert bs.n_branches == 1
    with pytest.raises(InsufficientData):
        invert_single_layer(bs, rho1=1.0)


@pytest.mark.parametrize("start,h,rho2", [(20.0, 99.967, 0.998), (60.0, 99.941, 0.984)])
def test_invert_single_layer_fits_only_observed_cutoffs(start, h, rho2):
    # c = (1000, 1818) m/s, H = 100 m: branch 2 starts near omega = 37.6.
    # Branch 1's cutoff is 0, not its first sample; from omega = 60 branch 2
    # started before the data, so its cutoff is unknown and left out of the
    # spacing fit
    medium = Medium(mu=[1e6, 1818.0**2], rho=[1.0, 1.0], thickness=[100.0])
    grid = np.arange(start, 400.01, 0.5)
    bs = branchset_from_dataset(synthesize_observations(medium, grid))
    assert bs.cutoffs[0] == 0.0
    assert np.isnan(bs.cutoffs[1]) == (start > 38.0)
    assert np.all(bs.cutoffs[2:] > start)
    rep = invert_single_layer(bs, rho1=1.0)
    assert rep["H"].value == pytest.approx(h, abs=1e-3)
    assert rep["rho2"].value == pytest.approx(rho2, abs=1e-3)


def test_invert_single_layer_needs_two_finite_cutoffs():
    bs = BranchSet(
        omega_grid=np.array([10.0, 20.0]),
        y=np.array([[5e-4, 4e-4], [6e-4, 5e-4]]),
        cutoffs=np.array([0.0, np.nan]),
    )
    with pytest.raises(InsufficientData, match="2 finite cutoffs"):
        invert_single_layer(bs, rho1=1.0)


def test_scale_covariance(medium_a):
    # scaling mu and rho together leaves all branch data invariant and the
    # density rule recovers the ratio rho2/rho1 unchanged
    scaled = Medium(mu=5.0 * medium_a.mu, rho=5.0 * medium_a.rho,
                    thickness=medium_a.thickness)
    r1 = roots_at_omega(medium_a, 321.0)
    r2 = roots_at_omega(scaled, 321.0)
    assert np.allclose(r1, r2, rtol=1e-12)
    grid = np.arange(2.0, 900.01, 2.0)
    bs = trace_branches(scaled, grid)
    rep = invert_single_layer(bs, rho1=5.0)
    assert rep["rho2"].value / 5.0 == pytest.approx(1.0, rel=2e-2)


def test_least_squares_fixed_point(medium_a):
    grid = np.linspace(20.0, 500.0, 25)
    bs = trace_branches(medium_a, grid)
    data = synthesize_observations(medium_a, grid, branchset=bs)
    mask = parameter_mask(medium_a, thickness=True)
    refined, resid = least_squares_refine(medium_a, data, mask, max_iter=40)
    assert refined.thickness[0] == pytest.approx(100.0, rel=1e-6)
    assert resid <= 1e-20


def _count_root_searches(monkeypatch, on_roots=None):
    """Count (and optionally inspect) the refine's batched root searches."""
    import lovedisp.inversion as inv_mod

    calls = []
    orig = inv_mod._roots_on_grid

    def recording(medium, omegas):
        roots = orig(medium, omegas)
        calls.append(medium)
        if on_roots is not None:
            on_roots(omegas, roots)
        return roots

    monkeypatch.setattr(inv_mod, "_roots_on_grid", recording)
    return calls


def test_least_squares_recovers_thickness(medium_a, monkeypatch):
    grid = np.linspace(20.0, 500.0, 25)
    bs = trace_branches(medium_a, grid)
    data = synthesize_observations(medium_a, grid, branchset=bs)
    guess = Medium(mu=medium_a.mu, rho=medium_a.rho, thickness=[105.0])
    mask = parameter_mask(guess, thickness=True)
    calls = _count_root_searches(monkeypatch)
    refined, resid = least_squares_refine(guess, data, mask)
    assert refined.thickness[0] == pytest.approx(100.0, abs=1e-6)
    assert len(calls) <= 10


def test_least_squares_searches_in_trace_blocks(medium_a, monkeypatch):
    # 100 sample frequencies, blocks of 64: every trial's search is split
    # as a trace's is, and no one pass covers the whole grid
    import lovedisp.branch as branch_mod

    monkeypatch.setattr(branch_mod, "_TRACE_BLOCK", 64)
    sizes, real = [], branch_mod._roots_in_block

    def recording(medium, omegas, seed_nodes):
        sizes.append(len(omegas))
        return real(medium, omegas, seed_nodes)

    monkeypatch.setattr(branch_mod, "_roots_in_block", recording)
    data = synthesize_observations(medium_a, np.linspace(20.0, 500.0, 100))
    sizes.clear()
    guess = Medium(mu=medium_a.mu, rho=medium_a.rho, thickness=[105.0])
    refined, _ = least_squares_refine(guess, data, parameter_mask(guess, thickness=True))
    assert refined.thickness[0] == pytest.approx(100.0, abs=1e-6)
    assert sizes and max(sizes) <= 64 < len(np.unique(data.omega))


def test_least_squares_recovers_two_thicknesses(medium_b):
    grid = np.linspace(20.0, 500.0, 25)
    data = synthesize_observations(medium_b, grid)
    guess = Medium(mu=medium_b.mu, rho=medium_b.rho, thickness=[105.0, 95.0])
    refined, _ = least_squares_refine(guess, data, parameter_mask(guess, thickness=True))
    assert refined.thickness == pytest.approx([100.0, 100.0], abs=1e-6)


def test_least_squares_moduli_and_densities_together(medium_b):
    # scaling every mu and rho together changes no velocity, so J^T J is
    # singular; the damped step must still make progress without error
    grid = np.linspace(20.0, 300.0, 12)
    data = synthesize_observations(medium_b, grid)
    guess = Medium(
        mu=medium_b.mu * np.array([1.05, 0.97, 1.02]),
        rho=medium_b.rho * np.array([0.98, 1.03, 1.0]),
        thickness=medium_b.thickness,
    )
    mask = parameter_mask(guess, mu=True, rho=True)
    _, start = least_squares_refine(guess, data, mask, max_iter=0)
    refined, resid = least_squares_refine(guess, data, mask)
    assert resid <= start
    assert refined.c == pytest.approx(medium_b.c, rel=1e-6)


def test_least_squares_takes_an_integer_max_iter(medium_a):
    data = synthesize_observations(medium_a, np.linspace(20.0, 300.0, 12))
    guess = Medium(mu=medium_a.mu, rho=medium_a.rho, thickness=[103.0])
    mask = parameter_mask(guess, thickness=True)
    for bad, err in ((-1, ValueError), (np.nan, TypeError), (2.5, TypeError)):
        with pytest.raises(err):
            least_squares_refine(guess, data, mask, max_iter=bad)
    one, misfit = least_squares_refine(guess, data, mask, max_iter=np.int64(1))
    again, misfit_again = least_squares_refine(guess, data, mask, max_iter=1)
    assert np.array_equal(one.thickness, again.thickness) and misfit == misfit_again


def test_least_squares_monotone_residual(medium_a, monkeypatch):
    grid = np.linspace(20.0, 300.0, 12)
    bs = trace_branches(medium_a, grid)
    data = synthesize_observations(medium_a, grid, branchset=bs)
    guess = Medium(mu=medium_a.mu, rho=medium_a.rho, thickness=[103.0])
    edge = float(guess.slowness[-1])
    seen = []

    def misfit(omegas, roots):
        # the misfit of this trial: the labelled rank's root, else the edge
        by_omega = {w: r[~np.isnan(r)] for w, r in zip(omegas.tolist(), roots)}
        y = np.array([
            by_omega[w][ell - 1] if ell <= len(by_omega[w]) else edge
            for w, ell in zip(data.omega.tolist(), data.ell)
        ])
        seen.append(float(np.sum((data.omega * y - data.k) ** 2)))

    _count_root_searches(monkeypatch, misfit)
    _, resid = least_squares_refine(
        guess, data, parameter_mask(guess, thickness=True), max_iter=60
    )
    assert len(seen) >= 2
    # equal up to the order in which the squares are summed
    assert resid == pytest.approx(min(seen), rel=1e-12)
    assert resid <= seen[0]


def test_least_squares_edge_value_for_missing_ranks(medium_a):
    # at H = 90 m the guess lacks the rank of 6 of the 67 samples; each of
    # those reads the guess's 1/c_inf, the start of the missing branch
    data = synthesize_observations(medium_a, np.linspace(20.0, 300.0, 12))
    guess = Medium(mu=medium_a.mu, rho=medium_a.rho, thickness=[90.0])
    _, misfit = least_squares_refine(
        guess, data, parameter_mask(guess, thickness=True), max_iter=0
    )
    roots = {w: roots_at_omega(guess, w) for w in np.unique(data.omega).tolist()}
    pairs = [(roots[w], ell) for w, ell in zip(data.omega.tolist(), data.ell)]
    y = np.array([r[ell - 1] if ell <= len(r) else guess.slowness[-1] for r, ell in pairs])
    assert len(data) == 67 and sum(ell > len(r) for r, ell in pairs) == 6
    assert misfit == pytest.approx(np.sum((data.omega * y - data.k) ** 2), rel=1e-12)


def test_least_squares_logs_its_work(medium_a, caplog):
    grid = np.linspace(20.0, 300.0, 12)
    data = synthesize_observations(medium_a, grid)
    guess = Medium(mu=medium_a.mu, rho=medium_a.rho, thickness=[103.0])
    mask = parameter_mask(guess, thickness=True)
    with caplog.at_level(logging.DEBUG, logger="lovedisp"):
        least_squares_refine(guess, data, mask)
    (record,) = [r for r in caplog.records if r.name == "lovedisp"]
    assert "root searches" in record.getMessage()
    assert f"of {len(data)} samples at the edge value" in record.getMessage()
    caplog.clear()
    least_squares_refine(guess, data, mask)  # the logger is off by default
    assert not [r for r in caplog.records if r.name == "lovedisp"]


def test_least_squares_rejects_infeasible_and_worse_steps(medium_a, caplog):
    # a stiff first guess: early steps overshoot the layer modulus past the
    # half-space's or raise the misfit; each is rejected and lam grows
    data = synthesize_observations(medium_a, np.arange(5.0, 300.1, 5.0))
    guess = Medium(mu=medium_a.mu * [1.3, 1.0], rho=medium_a.rho,
                   thickness=medium_a.thickness)
    with warnings.catch_warnings(), caplog.at_level(logging.DEBUG, logger="lovedisp"):
        warnings.simplefilter("error")
        _, misfit = least_squares_refine(
            guess, data, parameter_mask(guess, mu=True), max_iter=60
        )
    (record,) = [r for r in caplog.records if r.name == "lovedisp"]
    iterations, searches, rejected = map(
        int, re.search(r"(\d+) iterations, (\d+) root searches, (\d+) rejected",
                       record.getMessage()).groups()
    )
    # every trial medium that builds costs one search beyond the first
    infeasible = iterations - (searches - 1)
    assert infeasible >= 1 and rejected - infeasible >= 1
    assert misfit <= 1e-12


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_least_squares_soft_guess_raises_typed(medium_a, action):
    # a soft first guess: an accepted trial medium has a half-space so stiff
    # (mu_inf = 1.05e163) that its root at omega = 5 is 1/c_inf itself, where
    # the Jacobian would divide by zero: a typed error under either filter,
    # not a RuntimeWarning or numpy's LinAlgError from NaNs in the step
    data = synthesize_observations(medium_a, np.arange(5.0, 300.1, 5.0))
    guess = Medium(mu=medium_a.mu * [0.3, 1.0], rho=medium_a.rho,
                   thickness=medium_a.thickness)
    with warnings.catch_warnings(), pytest.raises(LoveDispError, match="1/c_inf"):
        warnings.simplefilter(action)
        least_squares_refine(guess, data, parameter_mask(guess, mu=True), max_iter=60)


@pytest.mark.parametrize("draw", [19, 31])
def test_least_squares_rejects_a_trial_the_root_search_cannot_take(draw):
    # stress draw 19's first steps overflow exp(step) to an inf thickness,
    # and draw 31's trials ask for a root table over the size budget; each
    # such trial is a rejected step.  With 12 samples and up to 12 free
    # thicknesses T is not identified, so only the misfit is checked.
    rng = np.random.default_rng(7)
    for _ in range(draw + 1):
        m, omega = _stress_medium(rng)
    full = synthesize_observations(m, np.linspace(omega / 12, omega, 12))
    pick = np.unique(np.linspace(0, len(full) - 1, 12).astype(int))
    data = DispersionDataset(omega=full.omega[pick], k=full.k[pick], ell=full.ell[pick])
    guess = Medium(mu=m.mu, rho=m.rho, thickness=m.thickness * 1.01)
    mask = parameter_mask(guess, thickness=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        refined, misfit = least_squares_refine(guess, data, mask, max_iter=60)
    _, start = least_squares_refine(guess, data, mask, max_iter=0)
    assert isinstance(refined, Medium)
    assert misfit <= start


def test_least_squares_infeasible_guess_detected(medium_a):
    grid = np.linspace(20.0, 100.0, 5)
    data = synthesize_observations(medium_a, grid)
    # masked theta crafted directly: an invalid medium cannot even be built,
    # so drive infeasibility through a mask that zeroes a modulus
    guess = medium_a
    mask = parameter_mask(guess, mu=True)
    theta_bad = np.concatenate([guess.mu, guess.rho, guess.thickness])
    from lovedisp.inversion import _medium_from_theta

    theta_bad[0] = guess.mu[1] * 2  # slow layer faster than half-space
    with pytest.raises(Exception):
        _medium_from_theta(theta_bad, guess.n)
    # and least_squares_refine refuses an infeasible dataset-free call
    with pytest.raises(ValueError):
        least_squares_refine(
            guess, DispersionDataset(omega=np.empty(0), k=np.empty(0)), mask
        )


def test_ambiguous_ordering_with_few_crossings(medium_b, monkeypatch):
    import lovedisp.inversion as inv_mod
    from lovedisp.spectral import LevelEstimate

    bs = trace_branches(medium_b, np.arange(2.0, 500.01, 2.0))
    monkeypatch.setattr(
        inv_mod,
        "detect_levels",
        lambda b: [LevelEstimate(1e-3, 3.16), LevelEstimate(1 / 1818.0, 2.35)],
    )
    monkeypatch.setattr(
        inv_mod, "_branch_crossings", lambda b, level: np.array([40.0, 77.0, 114.0])
    )
    with pytest.raises(AmbiguousOrdering):
        inv_mod.invert_double_layer(bs)


def test_double_layer_single_level():
    # two layers of one velocity show one accumulation level: the report
    # gives c1 = c2 and only the summed thickness, 100 m here
    m = Medium(mu=[1e6, 1e6, 1e8], rho=[1.0, 1.0, 1.0], thickness=[60.0, 40.0])
    rep = invert_double_layer(trace_branches(m, np.arange(1.0, 1000.01, 1.0)))
    assert [p.name for p in rep.parameters] == ["c1", "c2", "c3", "T1+T2"]
    assert rep.notes[0].startswith("single accumulation level")
    assert rep["c1"].value == rep["c2"].value == pytest.approx(1000.0, rel=1e-3)
    assert rep["c3"].value == pytest.approx(10000.0, rel=1e-3)
    assert rep["T1+T2"].value == pytest.approx(100.0, rel=0.05)
    assert rep.medium.c.tolist()[:2] == [rep["c1"].value] * 2
    assert rep.medium.thickness.tolist() == [rep["T1+T2"].value / 2] * 2


def test_unresolved_levels(medium_b, monkeypatch):
    import lovedisp.inversion as inv_mod
    from lovedisp.errors import UnresolvedLevels
    from lovedisp.spectral import LevelEstimate

    bs = trace_branches(medium_b, np.arange(2.0, 500.01, 2.0))
    monkeypatch.setattr(
        inv_mod,
        "detect_levels",
        lambda b: [LevelEstimate(1e-3, 3.0), LevelEstimate(7e-4, 1.0),
                   LevelEstimate(5.5e-4, 2.0)],
    )
    with pytest.raises(UnresolvedLevels):
        inv_mod.invert_double_layer(bs)
