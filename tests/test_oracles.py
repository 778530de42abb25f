import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lovedisp
from lovedisp import (
    DegeneratePoint,
    Medium,
    determinant_oracle,
    dispersion_value,
    fd_eigen_oracle,
    mode_count,
    roots_at_omega,
)


def _random_valid_medium(rng, n):
    c = np.concatenate([rng.uniform(600.0, 3000.0, n), [rng.uniform(5000.0, 12000.0)]])
    rho = rng.uniform(0.5, 3.0, n + 1)
    thickness = rng.uniform(30.0, 200.0, n)
    return Medium(mu=rho * c * c, rho=rho, thickness=thickness)


def _recursion_value(medium, omega, y):
    dv = dispersion_value(medium, omega, y)
    return omega * dv.value * np.exp(dv.log_scale)


def test_single_layer_determinant_closed_form(medium_a):
    # e^{nu2 H} D_1 / 2 = mu2 nu2 cosh(nu1 T1) + mu1 nu1 sinh(nu1 T1),
    # evaluated with complex wavenumbers independently of the oracle
    rng = np.random.default_rng(5)
    for _ in range(25):
        y = rng.uniform(1.2e-4, 9.8e-4)
        omega = rng.uniform(1.0, 60.0)
        k = omega * y
        nu1 = omega * (-1j) * np.sqrt(1e-6 - y * y)
        nu2 = omega * np.sqrt(y * y - 1e-8)
        closed = 1e8 * nu2 * np.cosh(nu1 * 100.0) + 1e6 * nu1 * np.sinh(nu1 * 100.0)
        assert abs(closed.imag) < 1e-8 * abs(closed)
        val = determinant_oracle(medium_a, omega, k)
        assert val == pytest.approx(closed.real, rel=1e-10)
        assert val == pytest.approx(_recursion_value(medium_a, omega, y), rel=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_determinant_matches_recursion(n):
    rng = np.random.default_rng(100 + n)
    checked = 0
    worst = 0.0
    while checked < 30:
        m = _random_valid_medium(rng, n)
        lo, hi = m.slowness_domain
        y = rng.uniform(lo * 1.01, hi * 0.99)
        if np.any(np.abs(y - m.slowness) < 1e-6 * m.slowness):
            continue
        w_cap = 300.0 / float(m.thickness @ m.slowness[:-1])
        omega = rng.uniform(0.1, 1.0) * min(w_cap, 500.0)
        det = determinant_oracle(m, omega, omega * y)
        rec = _recursion_value(m, omega, y)
        worst = max(worst, abs(det - rec) / max(abs(det), abs(rec)))
        checked += 1
    assert worst < 1e-8


def test_determinant_rejects_degenerate_point(medium_b):
    inv2 = float(medium_b.slowness[1])
    with pytest.raises(DegeneratePoint):
        determinant_oracle(medium_b, 100.0, 100.0 * inv2)


def test_fd_reproduces_roots(medium_a):
    roots = roots_at_omega(medium_a, 100.0)
    ks = fd_eigen_oracle(medium_a, 100.0, depth_factor=10.0, grid_points=8000)
    assert len(ks) == len(roots) == 4
    rel = np.abs(ks - 100.0 * roots) / (100.0 * roots)
    assert np.max(rel) < 1e-3


def test_fd_count_matches_mode_count(medium_b):
    lo, _ = medium_b.slowness_domain
    ks = fd_eigen_oracle(medium_b, 200.0, depth_factor=8.0, grid_points=8000)
    assert len(ks) == mode_count(medium_b, 200.0, lo * (1 + 1e-6))


def test_fd_second_order_convergence(medium_a):
    # ratio measured on the truncation-clean modes (the freshest mode is
    # limited by the exp(-2 depth_factor)-scale truncation bias instead)
    k_ref = 100.0 * roots_at_omega(medium_a, 100.0)[:3]
    e1 = np.abs(fd_eigen_oracle(medium_a, 100.0, 10.0, 4000)[:3] - k_ref).max()
    e2 = np.abs(fd_eigen_oracle(medium_a, 100.0, 10.0, 8000)[:3] - k_ref).max()
    assert 3.0 < e1 / e2 < 5.0


def test_fd_parameter_validation(medium_a):
    with pytest.raises(ValueError):
        fd_eigen_oracle(medium_a, 100.0, depth_factor=2.0)
    with pytest.raises(ValueError):
        fd_eigen_oracle(medium_a, 100.0, grid_points=500)
    for depth_factor in (np.inf, np.nan):
        with pytest.raises(ValueError, match="depth_factor"):
            fd_eigen_oracle(medium_a, 100.0, depth_factor=depth_factor)
    with pytest.raises(TypeError):
        fd_eigen_oracle(medium_a, 100.0, grid_points=2500.5)


_IMPORT_CHILD = """
import sys
import lovedisp, lovedisp.cli, lovedisp.io
print(sorted(m for m in sys.modules if m.startswith("scipy")))
medium = lovedisp.Medium(mu=[1e6, 1e8], rho=[1.0, 1.0], thickness=[100.0])
print(len(lovedisp.fd_eigen_oracle(medium, 100.0)), "scipy.linalg" in sys.modules)
"""


def test_package_imports_without_scipy_until_the_fd_oracle_runs():
    # scipy serves only the FD oracle: a CLI process that never calls it
    # should not pay scipy's start-up time and memory
    src = str(Path(lovedisp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _IMPORT_CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "4 True"]
