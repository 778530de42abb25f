"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail
line per criterion.  The fine traces are session fixtures shared with the
rest of the suite; their build time is counted where a criterion includes
tracing in its runtime budget.
"""

import time

import numpy as np
import pytest

from lovedisp import (
    Medium,
    accumulation_statistic,
    branchset_from_dataset,
    cutoff_frequencies,
    determinant_oracle,
    dispersion_value,
    fd_eigen_oracle,
    invert_double_layer,
    invert_single_layer,
    mode_count,
    mode_residuals,
    mode_shape,
    roots_at_omega,
    synthesize_observations,
    weyl_prediction,
)
from lovedisp.dispersion import _dispersion_scaled

MAG_A = np.sqrt(1e-6 - 1e-8)  # |nu_1| at the half-space slowness of Medium A
SPACING_A = np.pi * 1000.0 * 10000.0 / (100.0 * np.sqrt(1e8 - 1e6))  # 31.574194...


def _report(num: int, message: str) -> None:
    print(f"\n[PASS] criterion {num:2d}: {message}")


def test_criterion_01_cutoff_reproduction(medium_a):
    t0 = time.perf_counter()
    cuts = cutoff_frequencies(medium_a, 20)
    elapsed = time.perf_counter() - t0
    expected = np.arange(20) * SPACING_A
    assert cuts[0] == 0.0
    rel = np.abs(cuts[1:] - expected[1:]) / expected[1:]
    assert np.max(rel) < 1e-6
    assert elapsed < 5.0
    _report(1, f"20 cutoffs match (l-1)*{SPACING_A:.4f} to {np.max(rel):.1e} "
               f"relative in {elapsed:.2f}s")


def test_criterion_02_weyl_law_single_layer(medium_a):
    t0 = time.perf_counter()
    level = 1e-4 + 1e-9
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 50:
        omega = rng.uniform(50.0, 2000.0)
        frac = omega * MAG_A * 100.0 / np.pi
        if min(frac % 1.0, 1.0 - frac % 1.0) < 1e-2:
            continue  # cutoff degeneracy: the newest root sits at the level
        expected = int(frac) + 1
        assert mode_count(medium_a, omega, level) == expected
        checked += 1
    count_2000 = mode_count(medium_a, 2000.0, level)
    prediction = 2000.0 * MAG_A * 100.0 / np.pi
    ratio = count_2000 / prediction
    assert 0.97 <= ratio <= 1.03
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(2, f"50 exact counts, ratio at omega=2000 is {ratio:.4f} "
               f"in {elapsed:.1f}s")


def test_criterion_03_weyl_law_double_layer(medium_b):
    t0 = time.perf_counter()
    worst = 0.0
    for y in (1.2e-4, 4e-4, 7e-4):
        count = mode_count(medium_b, 2000.0, y)
        pred = weyl_prediction(medium_b, 2000.0, y)
        assert pred.proven
        dev = abs(count / pred.value - 1.0)
        worst = max(worst, dev)
        assert dev < 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(3, f"count/prediction within {worst:.3f} at omega=2000 in {elapsed:.1f}s")


def test_criterion_04_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in (1, 2, 3, 4, 5):
        checked = 0
        while checked < 100:
            c = np.concatenate(
                [rng.uniform(600.0, 3000.0, n), [rng.uniform(5000.0, 12000.0)]]
            )
            rho = rng.uniform(0.5, 3.0, n + 1)
            thickness = rng.uniform(30.0, 200.0, n)
            medium = Medium(mu=rho * c * c, rho=rho, thickness=thickness)
            lo, hi = medium.slowness_domain
            y = rng.uniform(lo * 1.01, hi * 0.99)
            if np.any(np.abs(y - medium.slowness) < 1e-6 * medium.slowness):
                continue
            w_cap = 300.0 / float(medium.thickness @ medium.slowness[:-1])
            omega = rng.uniform(0.1, 1.0) * min(w_cap, 500.0)
            det = determinant_oracle(medium, omega, omega * y)
            dv = dispersion_value(medium, omega, y)
            rec = omega * dv.value * np.exp(dv.log_scale)
            worst = max(worst, abs(det - rec) / max(abs(det), abs(rec)))
            checked += 1
    assert worst < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(4, f"500 generic points, max relative deviation {worst:.2e} "
               f"in {elapsed:.1f}s")


def test_criterion_05_fd_cross_check(medium_a):
    t0 = time.perf_counter()
    roots = roots_at_omega(medium_a, 100.0)
    k_ref = 100.0 * roots
    ks = fd_eigen_oracle(medium_a, 100.0, depth_factor=10.0, grid_points=8000)
    assert len(ks) == len(roots) == 4
    rel = np.abs(ks - k_ref) / k_ref
    assert np.max(rel) < 1e-3
    # second-order convergence, measured on the truncation-clean modes
    e1 = np.abs(fd_eigen_oracle(medium_a, 100.0, 10.0, 8000)[:3] - k_ref[:3]).max()
    e2 = np.abs(fd_eigen_oracle(medium_a, 100.0, 10.0, 16000)[:3] - k_ref[:3]).max()
    ratio = e1 / e2
    assert 3.0 <= ratio <= 5.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(5, f"4/4 roots within {np.max(rel):.1e}, convergence ratio "
               f"{ratio:.2f} in {elapsed:.1f}s")


def test_criterion_06_monotonicity_no_crossing(trace_a_fine, trace_b_fine):
    violations = 0
    for branchset, _ in (trace_a_fine, trace_b_fine):
        for branch in branchset.branches:
            violations += int(np.any(np.diff(branch.y) <= 0.0))
        for node in range(len(branchset.omega_grid)):
            ys = branchset.slownesses_at(node)
            if len(ys) > 1:
                violations += int(np.any(np.diff(ys) >= 0.0))
    assert violations == 0
    n_a = trace_a_fine[0].n_branches
    n_b = trace_b_fine[0].n_branches
    _report(6, f"0 violations over {n_a}+{n_b} branches at step 0.25")


def test_criterion_07_single_layer_round_trip(medium_a, trace_a_fine):
    branchset, trace_seconds = trace_a_fine
    t0 = time.perf_counter()
    grid = branchset.omega_grid

    clean = synthesize_observations(medium_a, grid, branchset=branchset)
    rep = invert_single_layer(branchset_from_dataset(clean), rho1=1.0)
    errs = {
        "c1": abs(rep["c1"].value - 1000.0) / 1000.0,
        "c2": abs(rep["c2"].value - 10000.0) / 10000.0,
        "H": abs(rep["H"].value - 100.0) / 100.0,
        "rho2": abs(rep["rho2"].value - 1.0),
    }
    assert errs["c1"] < 0.005 and errs["c2"] < 0.005
    assert errs["H"] < 0.01 and errs["rho2"] < 0.02

    noisy = synthesize_observations(
        medium_a, grid, noise_sigma=1e-3, seed=1234, branchset=branchset
    )
    rep_n = invert_single_layer(branchset_from_dataset(noisy), rho1=1.0)
    errs_n = {
        "c1": abs(rep_n["c1"].value - 1000.0) / 1000.0,
        "c2": abs(rep_n["c2"].value - 10000.0) / 10000.0,
        "H": abs(rep_n["H"].value - 100.0) / 100.0,
        "rho2": abs(rep_n["rho2"].value - 1.0),
    }
    assert max(errs_n.values()) < 0.05
    elapsed = time.perf_counter() - t0 + trace_seconds
    assert elapsed < 120.0
    _report(7, "clean errors "
            + " ".join(f"{k}={v:.2%}" for k, v in errs.items())
            + "; noisy worst "
            + f"{max(errs_n.values()):.2%} in {elapsed:.0f}s incl. tracing")


def test_criterion_08_double_layer_round_trip(trace_b_fine, trace_b_swapped):
    rep = invert_double_layer(trace_b_fine[0])
    errs = {
        "c1": abs(rep["c1"].value - 1000.0) / 1000.0,
        "c2": abs(rep["c2"].value - 1818.0) / 1818.0,
        "c3": abs(rep["c3"].value - 10000.0) / 10000.0,
        "T1": abs(rep["T1"].value - 100.0) / 100.0,
        "T2": abs(rep["T2"].value - 100.0) / 100.0,
    }
    assert errs["c1"] < 0.01 and errs["c2"] < 0.01 and errs["c3"] < 0.01
    assert errs["T1"] < 0.10 and errs["T2"] < 0.10
    assert "slow layer on top" in rep["c1"].rule

    rep_s = invert_double_layer(trace_b_swapped[0])
    assert "fast layer on top" in rep_s["c1"].rule
    assert abs(rep_s["c1"].value - 1818.0) / 1818.0 < 0.01
    assert abs(rep_s["c2"].value - 1000.0) / 1000.0 < 0.01
    assert abs(rep_s["T1"].value - 100.0) / 100.0 < 0.10
    assert abs(rep_s["T2"].value - 100.0) / 100.0 < 0.10
    _report(8, "errors "
            + " ".join(f"{k}={v:.2%}" for k, v in errs.items())
            + "; ordering resolved on both variants")


def test_criterion_09_accumulation_statistic(medium_b):
    target = 100.0 / np.sqrt(1818.0)
    assert target == pytest.approx(2.3453, abs=1e-4)
    values = [
        accumulation_statistic(medium_b, w, 1.0 / 1818.0)
        for w in (500.0, 1000.0, 2000.0)
    ]
    assert values[0] < values[1] < values[2]  # monotone toward the limit
    final_dev = abs(values[2] - target) / target
    assert final_dev < 0.15
    _report(9, "statistic " + " -> ".join(f"{v:.3f}" for v in values)
            + f" vs {target:.4f} (final dev {final_dev:.1%})")


def test_criterion_10_mode_validity(medium_a, medium_b):
    # ten modes spanning both media and many branch ranks, restricted to
    # numerically well-conditioned configurations (see ModeShape notes)
    jobs = [(medium_a, 100.0, r) for r in range(4)]
    jobs += [(medium_a, 500.0, r) for r in (0, 7)]
    jobs += [(medium_b, 50.0, 0)]
    jobs += [(medium_b, 300.0, r) for r in (9, 11, 13)]
    assert len(jobs) == 10
    worst = {"jump": 0.0, "ode": 0.0, "ray": 0.0}
    for medium, omega, rank in jobs:
        roots = roots_at_omega(medium, omega)
        shape = mode_shape(medium, omega, omega * roots[rank])
        diag = mode_residuals(shape)
        worst["jump"] = max(worst["jump"], diag.phi_jump, diag.stress_jump)
        worst["ode"] = max(worst["ode"], diag.ode_residual)
        worst["ray"] = max(worst["ray"], diag.rayleigh_residual)
        # the constructed decay rate reproduces the half-space wavenumber
        y = roots[rank]
        nu_inf = omega * np.sqrt(y * y - float(medium.slowness_sq[-1]))
        assert shape.decay_rate == pytest.approx(nu_inf, rel=1e-9)
    assert worst["jump"] < 1e-9
    assert worst["ode"] < 1e-9
    assert worst["ray"] < 1e-6
    _report(10, "10 modes: worst jump "
            f"{worst['jump']:.1e}, ode {worst['ode']:.1e}, "
            f"rayleigh {worst['ray']:.1e}")


def test_criterion_11_windowed_zero_counts(medium_b):
    # regime with both finite layers oscillatory at the probe level
    y = 3e-4
    p1 = np.sqrt(1e-6 - y * y) * 100.0
    p2 = np.sqrt(1.0 / 1818.0**2 - y * y) * 100.0
    m, big_m = min(p1, p2), max(p1, p2)
    allowed = {int(big_m / m) + 1, int(np.ceil(big_m / m)) + 1}
    # window anchors from the slow-phase zero sequence
    nu2 = np.sqrt(1.0 / 1818.0**2 - y * y)
    nu3 = np.sqrt(y * y - 1e-8)
    c = float(medium_b.mu[1]) * nu2 / (float(medium_b.mu[2]) * nu3)
    anchors = (np.arange(3, 30) * np.pi - np.arctan(c)) / m
    counts = []
    for a, b in zip(anchors[:-1], anchors[1:]):
        if a < 200.0:
            continue
        ws = np.linspace(a, b, 160)
        vals, _ = _dispersion_scaled(medium_b, ws, y)
        s = np.sign(vals)
        counts.append(int(np.sum(s[:-1] * s[1:] < 0)))
    assert len(counts) >= 15
    assert set(counts) <= allowed
    _report(11, f"window counts {sorted(set(counts))} within {sorted(allowed)} "
            f"over {len(counts)} windows")
