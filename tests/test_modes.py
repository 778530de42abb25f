import numpy as np
import pytest
from scipy.integrate import quad

from lovedisp import (
    Medium,
    NotOnBranch,
    OutOfRange,
    cutoff_frequencies,
    layer_matrix,
    mode_norms,
    mode_residuals,
    mode_shape,
    roots_at_omega,
)


def _first_mode(medium, omega):
    y = roots_at_omega(medium, omega)[0]
    return mode_shape(medium, omega, omega * y)


def test_surface_normalization(medium_a):
    ms = _first_mode(medium_a, 100.0)
    phi, stress = ms.evaluate(np.array([0.0]))
    assert phi[0] == 1.0
    assert stress[0] == 0.0


def test_interface_continuity(medium_a):
    ms = _first_mode(medium_a, 100.0)
    h = 100.0
    below = ms.evaluate(np.array([h * (1 - 1e-12)]))
    above = ms.evaluate(np.array([h * (1 + 1e-12)]))
    assert below[0][0] == pytest.approx(above[0][0], rel=1e-9)
    assert below[1][0] == pytest.approx(above[1][0], rel=1e-6)


def test_diagnostics_clean_on_branch(medium_a):
    for omega in (40.0, 100.0):
        for y in roots_at_omega(medium_a, omega):
            d = mode_residuals(mode_shape(medium_a, omega, omega * y))
            assert d.phi_jump < 1e-9
            assert d.stress_jump < 1e-9
            assert d.ode_residual < 1e-9
            assert d.decay_error < 1e-9
            assert d.rayleigh_residual < 1e-6
            assert d.rayleigh_quotient > 1.0


def test_off_branch_rejected(medium_a):
    roots = roots_at_omega(medium_a, 100.0)
    y_off = 0.5 * (roots[0] + roots[1])  # between two roots
    with pytest.raises(NotOnBranch):
        mode_shape(medium_a, 100.0, 100.0 * y_off)


def test_cutoff_point_flagged_non_l2(medium_a):
    # at a branch start the shape exists but does not decay
    w2 = float(cutoff_frequencies(medium_a, 2)[1])
    k = w2 * 1e-4
    ms = mode_shape(medium_a, w2, k)
    assert ms.decay_rate == 0.0
    assert not ms.is_l2
    d = mode_residuals(ms)
    assert np.isinf(d.decay_error)


def test_perturbed_coefficients_detected(medium_b):
    omega = 150.0
    y = roots_at_omega(medium_b, omega)[0]
    ms = mode_shape(medium_b, omega, omega * y)
    clean = mode_residuals(ms)
    tops = list(ms.tops)
    tops[1] = type(tops[1])(phi=tops[1].phi, q=tops[1].q + 1e-3 * abs(tops[1].q) + 1e-6)
    broken = type(ms)(
        medium=ms.medium,
        omega=ms.omega,
        k=ms.k,
        tops=tuple(tops),
        a_inf=ms.a_inf,
        decay_rate=ms.decay_rate,
    )
    d = mode_residuals(broken)
    assert d.stress_jump > 100 * max(clean.stress_jump, 1e-12)


def test_norms_match_numerical_quadrature(medium_b):
    # closed-form layer integrals vs adaptive quadrature of the evaluated shape
    omega = 80.0
    y = roots_at_omega(medium_b, omega)[1]
    ms = mode_shape(medium_b, omega, omega * y)
    mu_dphi_sq, rho_phi_sq, mu_phi_sq = mode_norms(ms)

    m = ms.medium
    pieces = list(m.depths) + [float(m.depths[-1]) + 12.0 / ms.decay_rate]

    def piecewise(f):
        total = 0.0
        for a, b in zip(pieces[:-1], pieces[1:]):
            val, _ = quad(f, a, b, limit=200)
            total += val
        return total

    def mu_rho_at(z):
        idx = int(np.searchsorted(m.depths[1:], z, side="right"))
        return float(m.mu[idx]), float(m.rho[idx])

    q_mu_phi = piecewise(lambda z: mu_rho_at(z)[0] * ms.evaluate(z)[0][0] ** 2)
    q_rho_phi = piecewise(lambda z: mu_rho_at(z)[1] * ms.evaluate(z)[0][0] ** 2)
    q_mu_dphi = piecewise(
        lambda z: ms.evaluate(z)[1][0] ** 2 / mu_rho_at(z)[0]
    )
    assert mu_phi_sq == pytest.approx(q_mu_phi, rel=1e-7)
    assert rho_phi_sq == pytest.approx(q_rho_phi, rel=1e-7)
    assert mu_dphi_sq == pytest.approx(q_mu_dphi, rel=1e-7)


def test_rayleigh_identity_from_norms(medium_a):
    omega = 200.0
    for y in roots_at_omega(medium_a, omega)[:3]:
        ms = mode_shape(medium_a, omega, omega * y)
        mu_dphi_sq, rho_phi_sq, mu_phi_sq = mode_norms(ms)
        lhs = mu_dphi_sq - omega**2 * rho_phi_sq
        rhs = -((omega * y) ** 2) * mu_phi_sq
        assert lhs == pytest.approx(rhs, rel=1e-6)
        assert omega**2 * rho_phi_sq / ((omega * y) ** 2 * mu_phi_sq) > 1.0


def test_halfspace_decay_profile(medium_a):
    ms = _first_mode(medium_a, 60.0)
    h = float(ms.medium.depths[-1])
    dz = 2.0 / ms.decay_rate
    phi, _ = ms.evaluate(np.array([h, h + dz]))
    assert phi[1] / phi[0] == pytest.approx(np.exp(-ms.decay_rate * dz), rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mode_tops_match_layer_matrix_product(n):
    # at small omega T the unscaled product of layer matrices is accurate,
    # and no evanescent layer amplifies rounding by much
    rng = np.random.default_rng(40 + n)
    checked = 0
    while checked < 4:
        c = np.concatenate([rng.uniform(600.0, 3000.0, n), [rng.uniform(5000.0, 12000.0)]])
        rho = rng.uniform(0.5, 3.0, n + 1)
        m = Medium(mu=rho * c * c, rho=rho, thickness=rng.uniform(30.0, 200.0, n))
        omega = rng.uniform(0.5, 2.0) / float(m.thickness @ m.slowness[:-1])
        for y in roots_at_omega(m, omega):
            ms = mode_shape(m, omega, omega * y)
            vec = np.array([1.0, 0.0])
            for j in range(1, m.n + 1):
                vec = layer_matrix(m, j, omega, y) @ vec
                tol = 1e-12 * np.max(np.abs(vec))
                phi = ms.tops[j].phi if j < m.n else ms.a_inf
                assert phi == pytest.approx(vec[0], rel=1e-12, abs=tol)
                if j < m.n:
                    assert ms.tops[j].q == pytest.approx(vec[1], rel=1e-12, abs=tol)
            checked += 1


def _seed_301_medium():
    """Five layers whose fundamental mode at omega = 541.96 has a_inf ~ 3e158."""
    return Medium(
        mu=[965687.8306799785, 4225370.929023254, 10553868.242614688,
            11098091.655598242, 11926392.574845508, 92927167.95445684],
        rho=[2.303310066213048, 0.6704994347523034, 1.8208532533543145,
             1.6115293313156485, 2.2183231153308163, 1.4462332337509478],
        thickness=[42.77801600534525, 128.4061632376295, 93.11361021573084,
                   96.26575971241381, 174.30658318998996],
    )


def test_huge_mode_amplitude_gives_diagnostics_not_overflow():
    m = _seed_301_medium()
    omega = 541.9607729993972
    ms = mode_shape(m, omega, omega * roots_at_omega(m, omega)[0])
    assert ms.a_inf > 1e150
    with pytest.raises(OutOfRange):
        mode_norms(ms)  # a_inf^2 leaves double range
    d = mode_residuals(ms)
    assert all(np.isfinite(v) for v in vars(d).values())
    # the surface-shooting cancellation shows as a large interface jump
    assert max(d.phi_jump, d.stress_jump) > 1e-6


def test_mode_shape_out_of_double_range(medium_b):
    # the fundamental mode's evanescent phase in layer 2 is about 1000 here
    omega = 12000.0
    y = roots_at_omega(medium_b, omega)[0]
    with pytest.raises(OutOfRange):
        mode_shape(medium_b, omega, omega * y)
