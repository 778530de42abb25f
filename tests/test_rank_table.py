"""The rank-table code against per-branch and per-frequency loop references."""

import numpy as np
import pytest

import lovedisp.inversion as inv
import lovedisp.io as lio
import lovedisp.spectral as spectral
from lovedisp import DispersionDataset, trace_branches


def _check_labels_loop(omega, k, ell, ordered):
    for w in np.unique(omega):
        sel = omega == w
        if len(np.unique(ell[sel])) != int(np.sum(sel)):
            raise ValueError(f"duplicate branch labels at omega={w:g}")
        order = np.argsort(ell[sel])
        if ordered and np.any(np.diff(k[sel][order]) >= 0.0):
            raise ValueError(f"labels at omega={w:g} are inconsistent with descending k")


def _error(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("ordered", [True, False])
def test_check_labels_matches_loop(ordered):
    rng = np.random.default_rng(5)
    raised = 0
    for _ in range(300):
        n = int(rng.integers(1, 12))
        omega = rng.choice([1.0, 2.0, 3.0], n)
        k = rng.permutation(n) + 1.0
        ell = rng.integers(1, 5, n)
        expected = _error(_check_labels_loop, omega, k, ell, ordered)
        # noisy labels are checked for duplicates only
        sigma = None if ordered else 1e-3
        assert _error(DispersionDataset, omega, k, ell, sigma) == expected
        raised += expected is not None
    assert 50 < raised < 300  # both outcomes are exercised


def _sample_grid_loop(data):
    grid, inverse = np.unique(data.omega, return_inverse=True)
    if data.ell is not None:
        return grid, inverse, data.ell - 1
    ranks = np.empty(len(data), dtype=int)
    for wi in range(len(grid)):
        sel = np.flatnonzero(inverse == wi)
        ranks[sel[np.argsort(-data.k[sel], kind="stable")]] = np.arange(len(sel))
    return grid, inverse, ranks


@pytest.mark.parametrize("labelled", [False, True])
@pytest.mark.parametrize("ties", [False, True])
def test_sample_grid_matches_loop(labelled, ties):
    # shuffled rows, k tied within a frequency (kept in input order) or not,
    # labels as ranks, and empty datasets; counts never fall, so no sample
    # is missing from the unlabelled sets
    rng = np.random.default_rng(8)
    for n_freq in [0, 1, 2, 29] * 5:
        omega = np.repeat(np.sort(rng.choice(np.arange(1.0, 60.0), n_freq, replace=False)),
                          np.sort(rng.integers(1, 30, n_freq)))
        perm = rng.permutation(len(omega))
        k = rng.integers(1, 4, len(omega)) * 0.1 if ties else rng.random(len(omega)) + 0.1
        ell = None
        if labelled:
            ell = np.empty(len(omega), dtype=int)
            for w in np.unique(omega):
                sel = np.flatnonzero(omega == w)
                ell[sel] = rng.permutation(len(sel)) + 1
            k = 1.0 / ell  # descending k by label, as the dataset checks
        data = DispersionDataset(omega=omega[perm], k=k[perm],
                                 ell=None if ell is None else ell[perm])
        got, want = inv._sample_grid(data), _sample_grid_loop(data)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.fixture(scope="module")
def trace_b(medium_b):
    return trace_branches(medium_b, np.arange(2.0, 600.01, 2.0))


def test_branch_crossings_match_loop(trace_b):
    level = 1.0 / 1818.0 * (1.0 + 5e-4)
    expected = []
    for b in trace_b.branches:
        y = b.y
        if len(y) < 2 or y[0] >= level or y[-1] < level:
            continue
        i = int(np.searchsorted(y, level))
        w0, w1, y0, y1 = b.omega[i - 1], b.omega[i], y[i - 1], y[i]
        expected.append(w0 + (level - y0) / (y1 - y0) * (w1 - w0))
    got = inv._branch_crossings(trace_b, level)
    assert len(got) > 5
    assert np.array_equal(got, np.sort(expected))


def test_level_weights_match_loop(trace_b):
    levels = [1e-3, 1.0 / 1818.0]
    grid = trace_b.omega_grid
    lo_idx = int(np.searchsorted(grid, grid[-1] / 10.0))
    lv = np.asarray(levels)
    rows, rhs = [], []
    for i in np.unique(np.linspace(lo_idx, len(grid) - 1, 40).astype(int)):
        ys = trace_b.slownesses_at(i)
        w = float(grid[i])
        floor = float(ys.min()) * (1.0 - 1e-12)
        for level in levels:
            shifted = max(level - 1.0 / w, floor)
            rhs.append(float(np.sum(ys >= shifted) - np.sum(ys >= level)))
            nu_hi = np.sqrt(np.maximum(lv * lv - shifted * shifted, 0.0))
            nu_lo = np.sqrt(np.maximum(lv * lv - level * level, 0.0))
            rows.append(w / np.pi * (nu_hi - nu_lo))
    expected = spectral._nnls(np.asarray(rows), np.asarray(rhs)) * np.sqrt(lv)
    assert np.array_equal(spectral._level_weights(trace_b, levels), expected)


def test_branches_csv_matches_loop(tmp_path, trace_b):
    lio.write_branches_csv(tmp_path / "b.csv", trace_b)
    lines = ["ell,omega,y,k"] + [
        f"{b.ell},{w:.17g},{y:.17g},{w * y:.17g}"
        for b in trace_b.branches
        for w, y in zip(b.omega, b.y)
    ]
    assert (tmp_path / "b.csv").read_text() == "\n".join(lines) + "\n"
