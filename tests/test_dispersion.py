import tracemalloc
import warnings

import numpy as np
import pytest

from lovedisp import (
    Medium,
    OutOfRange,
    ResultOutOfRange,
    accumulation_statistic,
    determinant_oracle,
    dispersion_value,
    fd_eigen_oracle,
    layer_matrix,
    mode_count,
    mode_shape,
    roots_at_omega,
    trace_branches,
    weyl_prediction,
)
import lovedisp.dispersion as disp_mod
from lovedisp.dispersion import (
    _apply_map,
    _dispersion_from_state,
    _dispersion_scaled,
    _halfspace_decay,
    _layer_integrals,
    _layer_map,
    _shoot,
    _sturm_count,
)
from test_modes import _stress_medium


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
    p, q, ls = list(_shoot(medium_a, 0.0, 5e-4))[-1]
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


def test_layer_matrix_beyond_double_range_raises(medium_b):
    # layer 2 is evanescent at y = 9e-4 and its largest entry, about
    # 1200 exp(x), passes the double maximum between x = 702.7 and 702.8
    mag = np.sqrt(9e-4**2 - float(medium_b.slowness_sq[1]))
    inside = layer_matrix(medium_b, 2, 702.7 / (mag * 100.0), 9e-4)
    assert np.all(np.isfinite(inside)) and np.abs(inside).max() > 1e308
    with pytest.raises(ResultOutOfRange, match=r"layer 2 .* = 702\.8,"):
        layer_matrix(medium_b, 2, 702.8 / (mag * 100.0), 9e-4)
    with pytest.raises(ResultOutOfRange, match=r"layer 2 .* = 1424\.7,"):
        layer_matrix(medium_b, 2, 20000.0, 9e-4)


def test_pq_state_at_first_positive_cutoff(medium_a):
    # the closed-form cutoff makes the surface-layer phase exactly pi
    mag = np.sqrt(1e-6 - 1e-8)
    omega2 = np.pi / (mag * 100.0)
    p, q, ls = list(_shoot(medium_a, omega2, 1e-4))[-1]
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
        p, q, ls = list(_shoot(m, omega, y))[-1]
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


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize(
    "call,error",
    [
        pytest.param(lambda m: roots_at_omega(m, INF), ValueError, id="roots-inf"),
        pytest.param(lambda m: roots_at_omega(m, NAN), ValueError, id="roots-nan"),
        pytest.param(lambda m: trace_branches(m, [1.0, INF]), ValueError, id="trace-inf"),
        pytest.param(lambda m: trace_branches(m, [1.0, NAN]), ValueError, id="trace-nan"),
        pytest.param(lambda m: mode_count(m, INF, 5e-4), ValueError, id="count-inf"),
        pytest.param(lambda m: mode_count(m, 10.0, NAN), OutOfRange, id="count-y-nan"),
        pytest.param(lambda m: accumulation_statistic(m, INF, 5e-4), ValueError,
                     id="accumulation-inf"),
        pytest.param(lambda m: accumulation_statistic(m, 10.0, NAN), OutOfRange,
                     id="accumulation-y-nan"),
        pytest.param(lambda m: weyl_prediction(m, INF, 5e-4), ValueError, id="weyl-inf"),
        pytest.param(lambda m: weyl_prediction(m, NAN, 5e-4), ValueError, id="weyl-nan"),
        pytest.param(lambda m: weyl_prediction(m, 10.0, NAN), OutOfRange, id="weyl-y-nan"),
        pytest.param(lambda m: mode_shape(m, INF, 1.0), ValueError, id="shape-inf"),
        pytest.param(lambda m: mode_shape(m, 10.0, NAN), ValueError, id="shape-k-nan"),
        pytest.param(lambda m: layer_matrix(m, 1, INF, 5e-4), ValueError, id="layer-inf"),
        pytest.param(lambda m: layer_matrix(m, 1, 10.0, NAN), ValueError, id="layer-y-nan"),
        pytest.param(lambda m: dispersion_value(m, INF, 5e-4), ValueError, id="value-inf"),
        pytest.param(lambda m: dispersion_value(m, 10.0, INF), ValueError, id="value-y-inf"),
        pytest.param(lambda m: dispersion_value(m, 10.0, NAN), ValueError, id="value-y-nan"),
        pytest.param(lambda m: fd_eigen_oracle(m, INF), ValueError, id="fd-inf"),
        pytest.param(lambda m: fd_eigen_oracle(m, NAN), ValueError, id="fd-nan"),
    ],
)
def test_non_finite_inputs_raise(medium_a, call, error):
    # a typed error, never a wrong number or a warning from inside numpy
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error):
            call(medium_a)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda m: mode_count(m, 1e100, 5e-4), id="count"),
        pytest.param(lambda m: roots_at_omega(m, 1e300), id="roots"),
    ],
)
def test_count_beyond_double_precision_raises(medium_a, call):
    # about 3e98 turns in the layer: no double holds that count exactly, and
    # a cast to int64 would have returned -2**63 with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ResultOutOfRange, match=r"omega=1e\+(100|300)"):
            call(medium_a)


def test_large_counts_below_the_range_limit(medium_a):
    # counts summed in doubles: the values the int64 sum gave, up to 2.8e13
    counts = [mode_count(medium_a, w, 5e-4) for w in (1e13, 1e14, 1e15)]
    assert counts == [275664447711, 2756644477109, 27566444771090]


def test_dispersion_vanishes_at_closed_form_cutoff(medium_a):
    # the first positive branch start in closed form is a dispersion zero
    omega2 = np.pi / (np.sqrt(1e-6 - 1e-8) * 100.0)
    dv = dispersion_value(medium_a, omega2, 1e-4)
    scale = 1e6 * np.sqrt(1e-6 - 1e-8)  # mu_1 |nu_1|, the only surviving term
    assert abs(dv.value) * np.exp(dv.log_scale) < 1e-9 * scale


@pytest.mark.parametrize("case", ["B layer 2", "A layer 1", "swapped B layer 1"])
def test_layer_integrals_exact_hit_is_the_limit(case, medium_a, medium_b,
                                                medium_b_swapped):
    # at y^2 == 1/c_j^2 the layer is linear in depth; the mean of the
    # integrals at y (1 -+ eps) reaches that value at second order in eps
    medium, j, omega, p, q = {
        "B layer 2": (medium_b, 1, 300.0, 0.7, -0.3),
        "A layer 1": (medium_a, 0, 50.0, 1.0, 0.4),
        "swapped B layer 1": (medium_b_swapped, 0, 1000.0, -0.2, 1.0),
    }[case]
    s2 = medium.slowness_sq[j]
    y = next(v for v in (np.sqrt(s2), np.nextafter(np.sqrt(s2), 0.0),
                         np.nextafter(np.sqrt(s2), 1.0)) if v * v == s2)
    hit = np.array(_layer_integrals(medium, j, omega, y, p, q)[:2])
    gaps = []
    for eps in (1e-6, 1e-8):
        sides = [_layer_integrals(medium, j, omega, y * (1.0 + s * eps), p, q)
                 for s in (1.0, -1.0)]
        mean = 0.5 * sum(np.exp(lg) * np.array([i_phi, i_dphi])
                         for i_phi, i_dphi, lg in sides)
        gaps.append(np.abs(mean - hit) / np.abs(hit))
    assert np.all(gaps[1] * 1000.0 <= gaps[0])


def _shoot_by_layer(medium, omega, y, up=False):
    """The shot with one ``_layer_map`` and one ``_apply_map`` call per
    layer, the per-layer reference; its states are in the order reached."""
    omega, y = np.asarray(omega, dtype=float), np.asarray(y, dtype=float)
    zeros = np.zeros(np.broadcast(omega, y).shape)
    if up:
        q = float(medium.mu[-1]) * _halfspace_decay(medium, y) + zeros
        s = np.maximum(1.0, q)
        states = [(1.0 / s, q / s, zeros)]
    else:
        states = [(zeros + 1.0, zeros, zeros)]
    for j in range(medium.n - 1, -1, -1) if up else range(medium.n):
        p, q, ls = states[-1]
        c, s_a, sas, lf, x = _layer_map(medium, j, omega, y, medium.thickness[j])[:5]
        p, q, lf = _apply_map(c, s_a, sas, lf, x, p, q)
        s = np.maximum(np.abs(p), np.abs(q))
        states.append((p / s, q / s, ls + np.log(s) + lf))
    if up:
        return [(p, -q, ls) for p, q, ls in states]
    return states


def _assert_stacking_changes_nothing(medium, omega, y, monkeypatch):
    """The shots, the value and the count, with the maps stacked where the
    size rule allows, equal bit for bit their per-layer references: one
    map per layer for the shots, and for the count its own loop
    with every layer's map formed on its own (no pass is small)."""
    omega, y = np.asarray(omega, dtype=float), np.asarray(y, dtype=float)
    for up in (False, True):
        got = list(_shoot(medium, omega, y, up=up))
        ref = _shoot_by_layer(medium, omega, y, up=up)
        assert len(got) == len(ref) == medium.n + 1
        for a, b in zip(got, ref):
            assert all(np.array_equal(u, v) for u, v in zip(a, b))
    p, q, ls = _shoot_by_layer(medium, omega, y)[-1]
    value, log_scale = _dispersion_scaled(medium, omega, y)
    assert np.array_equal(value, _dispersion_from_state(medium, y, p, q))
    assert np.array_equal(log_scale, ls)
    count = _sturm_count(medium, omega, y)
    with monkeypatch.context() as mp:
        mp.setattr(disp_mod, "_SMALL_PASS", 0)
        assert np.array_equal(count, _sturm_count(medium, omega, y))


def _peak_bytes(fn, *args):
    """The tracemalloc peak of one call of ``fn``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_value_pass_memory_does_not_grow_with_the_layer_count():
    # a value pass keeps only the running state, as the count does; one that
    # kept every interface state peaked at 49.9 MB here, the count at 0.80 MB
    n = 500
    c = np.append(np.full(n, 1000.0), 2000.0)
    m = Medium(mu=c * c, rho=np.ones(n + 1), thickness=np.ones(n))
    lo, hi = m.slowness_domain
    y = np.linspace(lo, hi, 4096)
    value_peak = _peak_bytes(_dispersion_scaled, m, 10.0, y)
    count_peak = _peak_bytes(_sturm_count, m, 10.0, y)
    assert value_peak <= 2 * count_peak, (value_peak, count_peak)


def test_stacked_maps_match_the_per_layer_loop(medium_b, monkeypatch):
    rng = np.random.default_rng(24)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(30):  # n = 1..20, deeply evanescent stacks included
            m, omega = _stress_medium(rng)
            lo, hi = m.slowness_domain
            y = np.concatenate([np.linspace(lo, hi, 25), m.slowness])  # exact hits
            _assert_stacking_changes_nothing(m, omega, y, monkeypatch)
            _assert_stacking_changes_nothing(m, 0.0, y, monkeypatch)
            _assert_stacking_changes_nothing(m, np.array([0.0, omega, 9.0 * omega]),
                                             m.slowness[-1], monkeypatch)
        # the lost-state point, where the kernel keeps the decaying part
        y = 7.104536672233425e-4
        _assert_stacking_changes_nothing(
            medium_b, 953.5, np.array([y * (1 - 1e-15), y, y * (1 + 1e-15)]), monkeypatch)
        # one pass on each side of the size rule
        lo, hi = medium_b.slowness_domain
        for size in (disp_mod._SMALL_PASS, disp_mod._SMALL_PASS + 1):
            _assert_stacking_changes_nothing(
                medium_b, 300.0, np.linspace(lo, hi, size), monkeypatch)


def test_small_passes_form_every_map_at_once(medium_a, monkeypatch):
    # tripwire on the size rule: a small pass on n >= 2 layers forms its
    # maps in one kernel call; one layer, or a pass over more than
    # _SMALL_PASS points, forms one map per layer, as every pass once did
    real, calls = disp_mod._layer_map, []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(disp_mod, "_layer_map", counted)
    five = Medium(mu=[1e6, 2e6, 3e6, 4e6, 5e6, 1e8], rho=[1.0] * 6, thickness=[50.0] * 5)

    def maps_formed(medium, f, size):
        calls.clear()
        lo, hi = medium.slowness_domain
        f(medium, 100.0, np.linspace(lo, hi, size))
        return len(calls)

    assert maps_formed(five, _dispersion_scaled, 25) == 1
    assert maps_formed(five, _sturm_count, 25) == 1
    assert maps_formed(medium_a, _dispersion_scaled, 25) == 1
    assert maps_formed(medium_a, _sturm_count, 25) == 1
    assert maps_formed(five, _dispersion_scaled, disp_mod._SMALL_PASS + 1) == 5
    assert maps_formed(five, _sturm_count, disp_mod._SMALL_PASS + 1) == 5
    # a stack over _STACK_POINTS entries is not formed: its memory is bounded
    deep = Medium(mu=[1e6] * 20 + [1e8], rho=[1.0] * 21, thickness=[10.0] * 20)
    assert maps_formed(deep, _sturm_count, disp_mod._STACK_POINTS // 20) == 1
    assert maps_formed(deep, _sturm_count, disp_mod._STACK_POINTS // 20 + 1) == 20
