import warnings

import numpy as np
import pytest

from lovedisp import (
    Medium,
    determinant_oracle,
    dispersion_value,
    layer_matrix,
)
from lovedisp.dispersion import _dispersion_scaled, _pq_scaled, _sturm_count


def _random_valid_medium(rng, n):
    """Random layered medium with a fast half-space, for property tests."""
    c = np.concatenate([rng.uniform(600.0, 3000.0, n), [rng.uniform(5000.0, 12000.0)]])
    rho = rng.uniform(0.5, 3.0, n + 1)
    thickness = rng.uniform(30.0, 200.0, n)
    return Medium(mu=rho * c * c, rho=rho, thickness=thickness)


def test_identity_at_zero_frequency(medium_a):
    for j in (1,):
        for y in (1.2e-4, 5e-4, 9e-4):
            assert np.array_equal(layer_matrix(medium_a, j, 0.0, y), np.eye(2))
    p, q, ls = _pq_scaled(medium_a, 0.0, 5e-4)
    assert (p, q, ls) == (1.0, 0.0, 0.0)


def test_dispersion_at_zero_frequency_is_halfspace_term(medium_a):
    # mu_inf * sqrt(y^2 - 1/c_inf^2), the independent closed form
    y = 2e-4
    expected = 1e8 * np.sqrt(y * y - 1e-8)
    dv = dispersion_value(medium_a, 0.0, y)
    assert dv.value * np.exp(dv.log_scale) == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(1.7320508075688772e4, rel=1e-12)


def test_dispersion_vanishes_at_origin_corner(medium_a, medium_b):
    for m in (medium_a, medium_b):
        dv = dispersion_value(m, 0.0, float(m.slowness[-1]))
        assert dv.value == 0.0 and dv.sign == 0


def test_oscillatory_layer_matrix_form(medium_a):
    # evaluate the cos/sin form independently at omega=1, y=1/c_inf
    y = 1e-4
    mag = np.sqrt(1e-6 - y * y)
    x = 1.0 * mag * 100.0
    assert x == pytest.approx(9.9498743710662e-2, rel=1e-12)
    m = layer_matrix(medium_a, 1, 1.0, y)
    a = 1e6 * mag
    assert m[0, 0] == pytest.approx(np.cos(x), rel=1e-15)
    assert m[0, 1] == pytest.approx(np.sin(x) / a, rel=1e-15)
    assert m[1, 0] == pytest.approx(-a * np.sin(x), rel=1e-15)
    assert m[1, 1] == pytest.approx(np.cos(x), rel=1e-15)


def test_degenerate_layer_matrix(medium_b):
    y = float(medium_b.slowness[1])  # exactly 1/1818
    m = layer_matrix(medium_b, 2, 3.0, y)
    assert np.array_equal(m, [[1.0, 3.0 * 100.0 / medium_b.mu[1]], [0.0, 1.0]])


def test_layer_matrix_unimodular_at_random_points(medium_b):
    # moderate arguments keep cosh^2 - sinh^2 meaningful in doubles
    rng = np.random.default_rng(7)
    lo, hi = medium_b.slowness_domain
    for _ in range(1000):
        j = int(rng.integers(1, medium_b.n + 1))
        omega = rng.uniform(0.0, 2.0)
        y = rng.uniform(lo, hi)
        det = np.linalg.det(layer_matrix(medium_b, j, omega, y))
        assert det == pytest.approx(1.0, rel=1e-12)


def test_pq_state_at_first_positive_cutoff(medium_a):
    # the closed-form cutoff makes the surface-layer phase exactly pi
    mag = np.sqrt(1e-6 - 1e-8)
    omega2 = np.pi / (mag * 100.0)
    p, q, ls = _pq_scaled(medium_a, omega2, 1e-4)
    true_p = p * np.exp(ls)
    true_q = q * np.exp(ls)
    assert true_p == pytest.approx(-1.0, rel=1e-12)
    assert abs(true_q) < 1e-9 * 1e6 * mag  # mu1 |nu1| sin(pi) ~ 0


def test_scaled_propagation_matches_unscaled_product():
    # direct cosh/sinh product evaluated independently at small frequency
    rng = np.random.default_rng(3)
    for trial in range(20):
        m = _random_valid_medium(rng, 3)
        lo, hi = m.slowness_domain
        y = rng.uniform(lo * 1.001, hi * 0.999)
        omega = rng.uniform(0.01, 2.0 / float(m.thickness.sum() * hi))
        vec = np.array([1.0, 0.0])
        for j in range(1, m.n + 1):
            vec = layer_matrix(m, j, omega, y) @ vec
        p, q, ls = _pq_scaled(m, omega, y)
        scale = np.exp(ls)
        assert p * scale == pytest.approx(vec[0], rel=1e-12)
        assert q * scale == pytest.approx(vec[1], rel=1e-12, abs=1e-12 * abs(vec[0]))


def test_deeply_evanescent_layer_keeps_decaying_part(medium_b):
    # the state entering the deeply evanescent layer 2 cancels its growing
    # part exactly in doubles here; the kernel must keep the decaying part
    # rather than map the state to zero (a 0/0 at the renormalization)
    y = 7.104536672233425e-4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dv = dispersion_value(medium_b, 953.5, y)
        counts = _sturm_count(medium_b, 953.5, np.array([y * (1 - 1e-15), y, y * (1 + 1e-15)]))
    assert np.isfinite(dv.value) and np.isfinite(dv.log_scale)
    assert np.all(np.diff(counts) <= 0)


def test_continuity_across_layer_slownesses(medium_b):
    # both sides of each interior kink agree to 1e-6 relative
    for omega in (5.0, 40.0, 100.0):
        inv = float(medium_b.slowness[1])
        vm, lm = _dispersion_scaled(medium_b, omega, np.asarray(inv - 1e-12))
        vp, lp = _dispersion_scaled(medium_b, omega, np.asarray(inv + 1e-12))
        left = float(vm) * np.exp(float(lm))
        right = float(vp) * np.exp(float(lp))
        assert left == pytest.approx(right, rel=1e-6)


def test_positive_beyond_upper_slowness_bound():
    # with every layer evanescent the propagated terms stay positive
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        m = _random_valid_medium(rng, n)
        y_hi = float(m.slowness.max())
        for _ in range(20):
            y = y_hi * rng.uniform(1.0 + 1e-6, 1.5)
            omega = rng.uniform(0.0, 50.0)
            val, _ = _dispersion_scaled(m, omega, np.asarray(y))
            assert float(val) > 0.0


def test_sign_agrees_with_determinant_oracle():
    rng = np.random.default_rng(19)
    for n in (1, 2, 3, 4, 5):
        checked = 0
        while checked < 40:
            m = _random_valid_medium(rng, n)
            lo, hi = m.slowness_domain
            y = rng.uniform(lo * 1.01, hi * 0.99)
            if np.any(np.abs(y - m.slowness) < 1e-6 * m.slowness):
                continue
            w_cap = 300.0 / float(m.thickness @ m.slowness[:-1])
            omega = rng.uniform(0.1, 1.0) * min(w_cap, 500.0)
            det = determinant_oracle(m, omega, omega * y)
            dv = dispersion_value(m, omega, y)
            assert np.sign(det) == dv.sign
            checked += 1


def test_rejects_slowness_below_halfspace(medium_a):
    with pytest.raises(ValueError):
        dispersion_value(medium_a, 1.0, 0.9e-4)


def test_dispersion_vanishes_at_closed_form_cutoff(medium_a):
    # the first positive branch start in closed form is a dispersion zero
    omega2 = np.pi / (np.sqrt(1e-6 - 1e-8) * 100.0)
    dv = dispersion_value(medium_a, omega2, 1e-4)
    scale = 1e6 * np.sqrt(1e-6 - 1e-8)  # mu_1 |nu_1|, the only surviving term
    assert abs(dv.value) * np.exp(dv.log_scale) < 1e-9 * scale
