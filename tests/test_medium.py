import json
import re

import numpy as np
import pytest

from lovedisp import (
    Medium,
    NoLoveWaves,
    NonPositiveParameter,
    dispersion_value,
    layer_matrix,
    load_medium,
    ordered_profile,
    validate_medium,
)


def test_benchmark_medium_velocities(medium_a):
    assert np.allclose(medium_a.c, [1000.0, 10000.0])
    assert medium_a.c0 == 1000.0
    assert medium_a.c_inf == 10000.0
    assert medium_a.n == 1


def test_config_velocity_form_matches_modulus_form():
    via_c = validate_medium(
        {
            "n": 1,
            "layers": [
                {"c": 1000.0, "rho": 1.0, "thickness": 100.0},
                {"c": 10000.0, "rho": 1.0},
            ],
        }
    )
    via_mu = validate_medium(
        {
            "layers": [
                {"mu": 1e6, "rho": 1.0, "thickness": 100.0},
                {"mu": 1e8, "rho": 1.0},
            ]
        }
    )
    assert np.array_equal(via_c.mu, via_mu.mu)
    assert np.array_equal(via_c.c, via_mu.c)


_A = {"c": 1000.0, "rho": 1.0, "thickness": 100.0}
_HALF = {"c": 10000.0, "rho": 1.0}


@pytest.mark.parametrize("raw,fragment", [
    ([_A, _HALF], "must be a mapping"),
    ({"layers": [_HALF]}, "at least two layers"),
    ({"layers": [{"c": 1000.0, "thickness": 100.0}, _HALF]}, "layer 1: missing rho"),
    ({"layers": [{**_A, "mu": 1e6}, _HALF]}, "layer 1: give exactly one of mu or c"),
    ({"layers": [_A, {"c": 1000.0, "rho": 1.0}, _HALF]}, "layer 2: missing thickness"),
    ({"layers": [_A, {**_HALF, "thickness": 100.0}]}, "half-space (last layer) takes no"),
])
def test_config_rejections_name_their_cause(raw, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        validate_medium(raw)


@pytest.mark.parametrize("raw,fragment", [
    ({"layers": [1, 2]}, "layer 1: must be a mapping"),
    ({"layers": [{**_A, "thickness": None}, _HALF]}, "layer 1: thickness must be a number"),
    ({"layers": [{**_A, "c": [1000]}, _HALF]}, "layer 1: c must be a number"),
    ({"n": [1], "layers": [_A, _HALF]}, "n must be a whole number"),
])
def test_load_medium_rejects_malformed_values(raw, fragment, tmp_path):
    # each of these raised a TypeError from an unchecked `in`, float() or int()
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=re.escape(fragment)):
        load_medium(path)


@pytest.mark.parametrize("mu,rho,thickness,fragment", [
    ([[1e6, 1e8]], [[1.0, 1.0]], [100.0], "must be one-dimensional"),
    ([1e6, 1e8], [1.0], [100.0], "mu and rho must have the same length"),
    ([1e6, 1e8], [1.0, 1.0], [100.0, 100.0], "exactly one thickness per finite layer"),
    ([1e8], [1.0], [], "at least one finite layer over the half-space"),
])
def test_medium_shape_rejections_name_their_cause(mu, rho, thickness, fragment):
    with pytest.raises(ValueError, match=fragment):
        Medium(mu=mu, rho=rho, thickness=thickness)


def test_no_love_waves_when_surface_is_fastest():
    with pytest.raises(NoLoveWaves):
        Medium(mu=[1e8, 1e6], rho=[1.0, 1.0], thickness=[100.0])


@pytest.mark.parametrize(
    "mu,rho,thickness",
    [
        ([0.0, 1e8], [1.0, 1.0], [100.0]),
        ([1e6, 1e8], [1.0, -1.0], [100.0]),
        ([1e6, 1e8], [1.0, 1.0], [0.0]),
        ([1e6, 1e8], [1.0, 1.0], [np.inf]),
    ],
)
def test_nonpositive_parameters_rejected(mu, rho, thickness):
    with pytest.raises(NonPositiveParameter):
        Medium(mu=mu, rho=rho, thickness=thickness)


def test_config_rejects_bad_layer_specs():
    with pytest.raises(ValueError):
        validate_medium({"layers": [{"rho": 1.0, "thickness": 1.0}, {"c": 2.0, "rho": 1.0}]})
    with pytest.raises(ValueError):
        validate_medium(
            {
                "layers": [
                    {"c": 1.0, "mu": 1.0, "rho": 1.0, "thickness": 1.0},
                    {"c": 2.0, "rho": 1.0},
                ]
            }
        )
    with pytest.raises(ValueError):
        validate_medium(
            {
                "n": 3,
                "layers": [{"c": 1.0, "rho": 1.0, "thickness": 1.0}, {"c": 2.0, "rho": 1.0}],
            }
        )


def test_ordered_profile_already_sorted(medium_a):
    prof = ordered_profile(medium_a)
    assert np.allclose(prof.c_tilde, [1000.0, 10000.0])
    assert prof.sigma == (1, 2)


def test_ordered_profile_sorts_triple():
    m = Medium(mu=[1818.0**2, 1e6, 1e8], rho=[1.0, 1.0, 1.0], thickness=[50.0, 70.0])
    prof = ordered_profile(m)
    assert np.allclose(prof.c_tilde, [1000.0, 1818.0, 10000.0])
    assert prof.sigma == (2, 1, 3)
    assert prof.t_tilde[0] == 70.0 and prof.t_tilde[1] == 50.0
    assert np.isnan(prof.t_tilde[2])


def test_ordered_profile_stable_on_ties():
    m = Medium(mu=[1e6, 1e6, 1e8], rho=[1.0, 1.0, 1.0], thickness=[10.0, 20.0])
    prof = ordered_profile(m)
    assert prof.sigma == (1, 2, 3)


def test_ordered_profile_idempotent(medium_b_swapped):
    prof = ordered_profile(medium_b_swapped)
    again = np.sort(prof.c_tilde, kind="stable")
    assert np.array_equal(prof.c_tilde, again)


def test_lateral_wavenumber_oscillatory_example(medium_a):
    # sqrt(1/1000^2 - (1e-4)^2) computed independently; at phase pi/2 the
    # cos form reads m21 = -mu_1 |nu_1| and m12 = 1/(mu_1 |nu_1|)
    expected = np.sqrt(1e-6 - 1e-8)
    m = layer_matrix(medium_a, 1, 0.5 * np.pi / (expected * 100.0), 1e-4)
    assert m[1, 0] == pytest.approx(-1e6 * expected, rel=1e-15)
    assert m[0, 1] == pytest.approx(1.0 / (1e6 * expected), rel=1e-15)
    assert abs(m[0, 0]) < 1e-15


def test_lateral_wavenumber_zero_and_evanescent(medium_a):
    # an exact hit on 1/c_1 takes the degenerate form, a slowness above it
    # the cosh form; x = omega |nu_1| T_1 = 1 here
    inv = float(medium_a.slowness[0])
    assert np.array_equal(
        layer_matrix(medium_a, 1, 2.0, inv), [[1.0, 2.0 * 100.0 / 1e6], [0.0, 1.0]]
    )
    mag = np.sqrt(4e-6 - 1e-6)
    m = layer_matrix(medium_a, 1, 1.0 / (mag * 100.0), 2e-3)
    assert m[0, 0] == pytest.approx(np.cosh(1.0), rel=1e-14)
    assert m[1, 0] == pytest.approx(1e6 * mag * np.sinh(1.0), rel=1e-14)
    assert m[0, 1] == pytest.approx(np.sinh(1.0) / (1e6 * mag), rel=1e-14)
    # the half-space: no decay exactly on 1/c_inf, sqrt(y^2 - 1/c_inf^2) above
    assert dispersion_value(medium_a, 0.0, float(medium_a.slowness[1])).value == 0.0
    dv = dispersion_value(medium_a, 0.0, 2e-4)
    assert dv.value == pytest.approx(1e8 * np.sqrt(4e-8 - 1e-8), rel=1e-15)


def test_lateral_wavenumber_kind_switch_is_continuous(medium_b):
    # |nu_j| goes to zero from both sides of each stored slowness: the cos
    # form below (m21 < 0), the cosh form above (m21 > 0), and
    # m21 ~ -+omega T mu |nu|^2 on either side
    omega = 3.0
    for j in range(1, medium_b.n + 1):
        inv = float(medium_b.slowness[j - 1])
        mu_j, t_j = float(medium_b.mu[j - 1]), float(medium_b.thickness[j - 1])
        hit = layer_matrix(medium_b, j, omega, inv)
        assert hit[1, 0] == 0.0 and hit[0, 1] == omega * t_j / mu_j
        for eps in (1e-9, 1e-12):
            below = layer_matrix(medium_b, j, omega, inv * (1 - eps))
            above = layer_matrix(medium_b, j, omega, inv * (1 + eps))
            assert below[1, 0] < 0.0 < above[1, 0]
            scale = inv * np.sqrt(2 * eps) * 1.1
            assert abs(below[1, 0]) < omega * t_j * mu_j * scale**2
            assert abs(above[1, 0]) < omega * t_j * mu_j * scale**2
    inv = float(medium_b.slowness[-1])
    for eps in (1e-9, 1e-12):
        dv = dispersion_value(medium_b, 0.0, inv * (1 + eps))
        assert 0.0 < dv.value < float(medium_b.mu[-1]) * inv * np.sqrt(2 * eps) * 1.1


def test_medium_arrays_are_readonly(medium_a):
    with pytest.raises(ValueError):
        medium_a.mu[0] = 2.0
