from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import nnls

from lovedisp import (
    InsufficientData,
    Medium,
    OutOfRange,
    accumulation_statistic,
    branchset_from_dataset,
    detect_levels,
    mode_count,
    roots_at_omega,
    synthesize_observations,
    trace_branches,
    weyl_prediction,
)
from lovedisp.spectral import _nnls

MAG_A = np.sqrt(1e-6 - 1e-8)


def test_mode_count_near_halfspace_level(medium_a):
    # counts every branch: floor(1000 * |nu_1| H / pi) + 1 = 32
    assert mode_count(medium_a, 1000.0, 1e-4 + 1e-9) == 32


def test_mode_count_zero_below_first_root(medium_a):
    # at this level the first crossing happens well above omega = 1
    assert mode_count(medium_a, 1.0, 5e-4) == 0


def test_mode_count_nondecreasing_in_omega(medium_a):
    counts = [mode_count(medium_a, w, 3e-4) for w in np.linspace(20, 600, 24)]
    assert np.all(np.diff(counts) >= 0)


def test_mode_count_matches_roots(medium_b):
    for omega in (100.0, 350.0):
        roots = roots_at_omega(medium_b, omega)
        for y in (1.2e-4, 4.3e-4, 7.7e-4):
            assert mode_count(medium_b, omega, y) == int(np.sum(roots >= y))


def test_mode_count_domain_check(medium_a):
    with pytest.raises(OutOfRange):
        mode_count(medium_a, 10.0, 0.99e-4)
    with pytest.raises(OutOfRange):
        mode_count(medium_a, 10.0, 1.1e-3)


def test_weyl_prediction_single_layer(medium_a):
    pred = weyl_prediction(medium_a, 1000.0, 1e-4)
    assert pred.value == pytest.approx(1000.0 * MAG_A * 100.0 / np.pi, rel=1e-12)
    assert pred.value == pytest.approx(31.67, abs=0.01)
    assert pred.proven


def test_weyl_prediction_double_layer(medium_b):
    y = 1.0 / 1818.0
    expected = 1000.0 / np.pi * np.sqrt(1e-6 - y * y) * 100.0
    pred = weyl_prediction(medium_b, 1000.0, y)
    assert pred.value == pytest.approx(expected, rel=1e-12)
    assert pred.proven


def test_weyl_prediction_counts_oscillatory_layers(medium_b):
    # below 1/c_2 both layers contribute
    y = 2e-4
    expected = (
        1000.0
        / np.pi
        * (np.sqrt(1e-6 - y * y) + np.sqrt(1.0 / 1818.0**2 - y * y))
        * 100.0
    )
    assert weyl_prediction(medium_b, 1000.0, y).value == pytest.approx(expected, rel=1e-12)


def test_weyl_conjecture_flag_for_three_layers():
    m = Medium(
        mu=[1e6, 1429.0**2, 2500.0**2, 1e8],
        rho=[1.0, 1.0, 1.0, 1.0],
        thickness=[100.0, 100.0, 100.0],
    )
    assert not weyl_prediction(m, 100.0, 2e-4).proven  # below 1/c_tilde_2
    assert weyl_prediction(m, 100.0, 8e-4).proven  # proven band near the top


def test_weyl_conjecture_flag_degenerate_minimum():
    m = Medium(
        mu=[1e6, 1e6, 2500.0**2, 1e8],
        rho=[1.0, 1.0, 1.0, 1.0],
        thickness=[100.0, 100.0, 100.0],
    )
    # two layers share the minimum velocity: nothing is proven for n >= 3
    assert not weyl_prediction(m, 100.0, 8e-4).proven


def test_accumulation_statistic_clamps_shifted_level(medium_b):
    # y - 1/omega falls below 1/c_inf: the count is taken over all branches
    y = 1.0 / 1818.0
    assert accumulation_statistic(medium_b, 500.0, y) > 0.0


def test_accumulation_statistic_vanishes_between_levels(medium_b):
    # intermediate level, with omega large enough that the 1/omega window
    # clears the level below; the statistic then decays like 1/sqrt(omega)
    y = 7.6e-4
    assert 20000.0 > 1.0 / (y - 1.0 / 1818.0)
    hi = accumulation_statistic(medium_b, 20000.0, y)
    assert abs(hi) < 0.6


def test_accumulation_statistic_single_layer_analogue(medium_a):
    # near the top level the n=1 analogue approaches T1/sqrt(c1)
    val = accumulation_statistic(medium_a, 4000.0, 1e-3 * (1 - 1e-9))
    assert val == pytest.approx(100.0 / np.sqrt(1000.0), rel=0.12)


def test_detect_levels_single_layer(medium_a):
    bs = trace_branches(medium_a, np.arange(4.0, 460.01, 4.0))
    levels = detect_levels(bs)
    assert len(levels) == 1
    assert levels[0].slowness == pytest.approx(1e-3, rel=2e-3)
    assert levels[0].weight == pytest.approx(100.0 / np.sqrt(1000.0), rel=0.08)


def test_detect_levels_ignores_label_order(medium_b):
    # noise 1e-3 swaps close wavenumbers, so the labelled top row is not
    # sorted; dropping the labels must not change the levels
    grid = np.arange(1.0, 1000.01, 1.0)
    data = synthesize_observations(medium_b, grid, noise_sigma=1e-3, seed=6)
    labelled = detect_levels(branchset_from_dataset(data))
    unlabelled = detect_levels(branchset_from_dataset(replace(data, ell=None)))
    assert labelled == unlabelled


def test_detect_levels_requires_branches(medium_a):
    bs = trace_branches(medium_a, np.arange(5.0, 100.01, 5.0))
    with pytest.raises(InsufficientData):
        detect_levels(bs)


def test_root_spacing_converges_to_layer_period(medium_b):
    # fixed level above 1/c_2: only the slow surface layer oscillates and
    # consecutive dispersion zeros in omega approach pi/(|nu_1| T_1)
    y = 7e-4
    period = np.pi / (np.sqrt(1e-6 - y * y) * 100.0)
    zeros = []
    ws = np.linspace(1200.0, 1800.0, 4000)
    from lovedisp.dispersion import _dispersion_scaled

    vals, _ = _dispersion_scaled(medium_b, ws, y)
    s = np.sign(vals)
    for i in np.flatnonzero(s[:-1] * s[1:] < 0):
        zeros.append(0.5 * (ws[i] + ws[i + 1]))
    spacings = np.diff(zeros)
    assert np.allclose(spacings, period, rtol=2e-2)


def test_root_spacing_converges_between_levels(medium_b):
    # level below 1/c_2: both layers oscillate; at a level where the buried
    # layer dominates the near-level count, zeros bunch at its period too
    y = 1.0 / 1818.0
    period = np.pi / (np.sqrt(1e-6 - y * y) * 100.0)
    from lovedisp.dispersion import _dispersion_scaled

    ws = np.linspace(1200.0, 1800.0, 4000)
    vals, _ = _dispersion_scaled(medium_b, ws, y)
    s = np.sign(vals)
    zeros = [0.5 * (ws[i] + ws[i + 1]) for i in np.flatnonzero(s[:-1] * s[1:] < 0)]
    assert np.allclose(np.diff(zeros), period, rtol=2e-2)


def test_detect_levels_degenerate_shared_velocity():
    # both finite layers at the same velocity: one level, summed thickness
    m = Medium(mu=[1e6, 1e6, 1e8], rho=[1.0, 1.0, 1.0], thickness=[100.0, 100.0])
    bs = trace_branches(m, np.arange(4.0, 800.01, 4.0))
    levels = detect_levels(bs)
    assert len(levels) == 1
    t_sum = levels[0].weight * np.sqrt(1.0 / levels[0].slowness)
    assert t_sum == pytest.approx(200.0, rel=0.10)


def test_conjectured_weyl_regime_numerically_corroborated():
    # three finite layers, level below the second ordered slowness: the
    # asymptotic count is only conjectured there, and the probe agrees
    m = Medium(
        mu=[1e6, 1429.0**2, 2500.0**2, 1e8],
        rho=np.ones(4),
        thickness=[100.0, 100.0, 100.0],
    )
    pred = weyl_prediction(m, 2000.0, 2e-4)
    assert not pred.proven
    ratio = mode_count(m, 2000.0, 2e-4) / pred.value
    assert ratio == pytest.approx(1.0, abs=0.02)


def test_nnls_matches_scipy():
    # full-rank problems (m >= n), so the solution is unique; true
    # coefficients of either sign keep most bounds active, and |x_j| >= 0.5
    # against 0.01 noise keeps each solution well conditioned
    rng = np.random.default_rng(0)
    bounded = 0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(max(2, n), 201))
        a = rng.standard_normal((m, n))
        x_true = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n)
        b = a @ x_true + 0.01 * rng.standard_normal(m)
        expected = nnls(a, b)[0]
        got = _nnls(a, b)
        assert np.all(got >= 0.0)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
        bounded += bool(np.any(expected == 0.0))
    assert bounded > 700


def test_nnls_zero_column_and_zero_solution():
    rng = np.random.default_rng(1)
    a = np.abs(rng.standard_normal((30, 3)))
    a[:, 1] = 0.0
    x = _nnls(a, a @ np.array([1.0, 5.0, 2.0]))
    assert x[1] == 0.0 and np.allclose(x, [1.0, 0.0, 2.0], rtol=1e-14, atol=0.0)
    # a positive matrix against a negative b: x = 0 is optimal
    assert np.array_equal(_nnls(a, -np.ones(30)), np.zeros(3))
