import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from lovedisp import (
    Medium,
    NotOnBranch,
    OutOfRange,
    ResultOutOfRange,
    cutoff_frequencies,
    layer_matrix,
    mode_norms,
    mode_residuals,
    mode_shape,
    roots_at_omega,
)
from lovedisp.modes import _wavenumber_sensitivities


def _first_mode(medium, omega):
    y = roots_at_omega(medium, omega)[0]
    return mode_shape(medium, omega, omega * y)


def test_surface_normalization(medium_a):
    ms = _first_mode(medium_a, 100.0)
    phi, stress = ms.evaluate(np.array([0.0]))
    assert phi[0] == 1.0
    assert stress[0] == 0.0


def test_interface_continuity(medium_a, medium_b):
    # medium B's fundamental at omega = 5000 decays through layer 2 by
    # exp(-418): that layer is carried up from the tail, not down to it
    for medium, omega in ((medium_a, 100.0), (medium_b, 5000.0)):
        ms = _first_mode(medium, omega)
        h = float(medium.depths[-1])
        # the neighbouring doubles: at medium B's decay rate of 5/m, the
        # points h (1 -+ 1e-12) would already differ by 2e-9
        below = ms.evaluate(np.array([np.nextafter(h, 0.0)]))
        above = ms.evaluate(np.array([np.nextafter(h, np.inf)]))
        assert below[0][0] == pytest.approx(above[0][0], rel=1e-9, abs=0.0)
        assert below[1][0] == pytest.approx(above[1][0], rel=1e-6, abs=0.0)


def test_diagnostics_clean_on_branch(medium_a):
    for omega in (40.0, 100.0):
        for y in roots_at_omega(medium_a, omega):
            ms = mode_shape(medium_a, omega, omega * y)
            assert ms.decay_rate == pytest.approx(omega * np.sqrt(y * y - 1e-8), rel=1e-12)
            d = mode_residuals(ms)
            assert d.phi_jump < 1e-9
            assert d.stress_jump < 1e-9
            assert d.ode_residual < 1e-9
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
    assert np.isinf(d.rayleigh_residual)


def test_mode_norms_refuse_a_shape_that_does_not_decay(medium_a):
    w2 = float(cutoff_frequencies(medium_a, 2)[1])
    ms = mode_shape(medium_a, w2, w2 * 1e-4)
    with pytest.raises(OutOfRange, match="not square integrable"):
        mode_norms(ms)


def test_perturbed_coefficients_detected(medium_b):
    omega = 150.0
    y = roots_at_omega(medium_b, omega)[0]
    ms = mode_shape(medium_b, omega, omega * y)
    clean = mode_residuals(ms)
    q = ms.q.copy()
    q_true = q[1] * np.exp(ms.ls[1])
    q[1] = (q_true + 1e-3 * abs(q_true) + 1e-6) * np.exp(-ms.ls[1])
    d = mode_residuals(dataclasses.replace(ms, q=q))
    assert d.stress_jump > 100 * max(clean.stress_jump, 1e-12)


def test_ode_residual_detects_a_corrupted_kernel(medium_b, monkeypatch):
    # the layer kernel's displacement scaled by 1.001 breaks the first
    # integral J across every layer it carries; a check of the ODE's
    # coefficients alone read 1.2e-15 on this shape, clean or not
    import lovedisp.modes as modes_mod

    omega = 300.0
    y = roots_at_omega(medium_b, omega)[2]
    ms = mode_shape(medium_b, omega, omega * y)
    assert mode_residuals(ms).ode_residual < 1e-9
    real = modes_mod._apply_map

    def corrupted(*args):
        p, *rest = real(*args)
        return (1.001 * p, *rest)

    monkeypatch.setattr(modes_mod, "_apply_map", corrupted)
    assert mode_residuals(ms).ode_residual > 1e-4


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
                phi, q = np.array([ms.p[j], ms.q[j]]) * np.exp(ms.ls[j])
                assert phi == pytest.approx(vec[0], rel=1e-12, abs=tol)
                if j < m.n:
                    assert q == pytest.approx(vec[1], rel=1e-12, abs=tol)
            checked += 1


def _seed_301_medium():
    """Five layers whose fundamental mode at omega = 541.96 has a_inf ~ 6.5e-176."""
    return Medium(
        mu=[965687.8306799785, 4225370.929023254, 10553868.242614688,
            11098091.655598242, 11926392.574845508, 92927167.95445684],
        rho=[2.303310066213048, 0.6704994347523034, 1.8208532533543145,
             1.6115293313156485, 2.2183231153308163, 1.4462332337509478],
        thickness=[42.77801600534525, 128.4061632376295, 93.11361021573084,
                   96.26575971241381, 174.30658318998996],
    )


def test_deeply_decaying_mode_gives_clean_diagnostics():
    # below its trapping layer the mode falls by 176 decades: a shot from
    # the surface alone would lose that tail to the growing solution
    m = _seed_301_medium()
    omega = 541.9607729993972
    y = roots_at_omega(m, omega)[0]
    ms = mode_shape(m, omega, omega * y)
    nu_inf = omega * np.sqrt(y * y - float(m.slowness_sq[-1]))
    assert ms.decay_rate == pytest.approx(nu_inf, rel=1e-12)
    assert 0.0 < ms.p[-1] * np.exp(ms.ls[-1]) < 1e-170
    assert all(np.isfinite(mode_norms(ms)))
    d = mode_residuals(ms)
    assert max(d.phi_jump, d.stress_jump) < 1e-9
    assert d.ode_residual < 1e-9
    assert d.rayleigh_residual < 1e-12


def test_mode_shape_out_of_double_range(medium_b_swapped):
    # the surface sits on layer 1, evanescent over a phase of about 1000
    # above the trapping layer: phi(0) = 1 puts the tail near exp(1009).
    # The shape is stored and checked in log scale; only true values raise.
    omega = 12000.0
    y = roots_at_omega(medium_b_swapped, omega)[0]
    ms = mode_shape(medium_b_swapped, omega, omega * y)
    assert ms.ls[-1] > 709.0
    assert ms.evaluate(0.0)[0][0] == 1.0
    d = mode_residuals(ms)
    assert d.phi_jump < 1e-9
    assert d.ode_residual < 1e-9
    assert d.rayleigh_residual < 1e-12
    with pytest.raises(ResultOutOfRange):
        ms.evaluate(medium_b_swapped.depths[-1])
    with pytest.raises(ResultOutOfRange):
        mode_norms(ms)


def test_mode_residuals_out_of_double_range():
    # the tail amplitude is subnormal (3.6e-309) and the 10 m bottom layer
    # is carried up from it by exp(723): in log scale the layer stays near
    # its true size of 1.5e7
    c = np.array([1088.146096, 397.495038, 2585.79963, 883.835904, 5501.278982])
    rho = np.array([2.99005, 0.818725, 0.685846, 1.978559, 3.398566])
    m = Medium(mu=rho * c**2, rho=rho, thickness=[0.291999, 0.323976, 0.055829, 10.37214])
    omega = 37759.56934536499
    y = roots_at_omega(m, omega)[4]
    ms = mode_shape(m, omega, omega * y)
    d = mode_residuals(ms)
    assert max(d.phi_jump, d.stress_jump) < 1e-9
    assert d.rayleigh_residual < 1e-12
    h = float(m.depths[3])
    phi, _ = ms.evaluate([np.nextafter(h, 0.0), h, np.nextafter(h, np.inf)])
    assert phi[1] == pytest.approx(1.5e7, rel=0.05)
    assert phi[0] == pytest.approx(phi[2], rel=1e-9, abs=0.0)
    phi, _ = ms.evaluate([0.0, 1e3])  # the surface and the tail stay in range
    assert phi[0] == 1.0


def test_tail_stress_out_of_double_range():
    # phi at the last interface is about 3e303: the tail stress
    # mu_inf decay_rate phi is past double range, and must raise, not be -inf
    c = np.array([1801.3603467274218, 1300.8092006547597, 1354.3982070541408,
                  1362.008502834798, 1084.2998887445742, 2114.2027643433007])
    rho = np.array([2.241742754341158, 1.9371153515089943, 2.8321621957061227,
                    2.2160317739086732, 3.1953771545240786, 2.255648806340358])
    m = Medium(mu=rho * c**2, rho=rho,
               thickness=[230.20270162948933, 23.60710901659518, 180.49255880037225,
                          122.8095532820212, 202.00746649255967])
    omega = 2006.6752972121178
    ms = mode_shape(m, omega, omega * roots_at_omega(m, omega)[4])
    with pytest.raises(ResultOutOfRange, match="depth"):
        ms.evaluate(m.depths[-1])


@pytest.mark.parametrize("mu_inf", [1e40, 1e100, 1.05e163])
def test_sensitivities_at_the_halfspace_slowness_raise(mu_inf):
    # so stiff a half-space puts the root at omega = 5 within rounding of
    # 1/c_inf: the search returns 1/c_inf itself, whose mode has no decaying
    # tail.  Its sensitivities would divide by the decay rate 0 (NaN
    # entries), so they raise and name the root
    m = Medium(mu=[1e6, mu_inf], rho=[1.0, 1.0], thickness=[100.0])
    roots = roots_at_omega(m, 5.0)
    assert roots[-1] == m.slowness[-1]
    with pytest.raises(OutOfRange, match=r"root y=.* at omega=5\.0 lies at the half-space"):
        _wavenumber_sensitivities(m, np.full(len(roots), 5.0), roots)
    # a half-space whose root is off 1/c_inf keeps finite sensitivities
    m = Medium(mu=[1e6, 1e12], rho=[1.0, 1.0], thickness=[100.0])
    roots = roots_at_omega(m, 5.0)
    assert np.all(np.isfinite(_wavenumber_sensitivities(m, np.full(len(roots), 5.0), roots)))


@pytest.mark.parametrize("z", [-10.0, np.nan, np.inf])
def test_evaluate_rejects_bad_depths(medium_a, z):
    # phi(-10) used to extrapolate the surface layer above the surface
    ms = _first_mode(medium_a, 100.0)
    with pytest.raises(ValueError, match="depths"):
        ms.evaluate([0.0, z])


def test_mode_norms_in_range_where_the_shape_is(medium_b):
    # layer 2's evanescent phase is 418 here: sinh(2 nu T) alone would
    # overflow, the exp(-2x)-scaled integrals do not
    omega = 5000.0
    ms = mode_shape(medium_b, omega, omega * roots_at_omega(medium_b, omega)[0])
    d = mode_residuals(ms)
    assert all(np.isfinite(v) for v in vars(d).values())


def _exact_norms(shape):
    """The cos/cosh closed forms of the norms in 50-digit arithmetic."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        m = shape.medium
        omega, y = mp.mpf(shape.omega), mp.mpf(shape.y)
        mu_dphi = rho_phi = mu_phi = mp.mpf(0)
        p, q = ([mp.mpf(v) * mp.exp(mp.mpf(l)) for v, l in zip(s, shape.ls)]
                for s in (shape.p, shape.q))
        for j in range(m.n):
            mu, t = mp.mpf(float(m.mu[j])), mp.mpf(float(m.thickness[j]))
            d = y * y - mp.mpf(float(m.slowness_sq[j]))
            nu = omega * mp.sqrt(abs(d))
            a, b = p[j], q[j] * omega / (mu * nu)
            sigma, sine = (1, mp.sinh) if d > 0 else (-1, mp.sin)
            w = sine(2 * nu * t) / (4 * nu)
            i_cc, i_ss = t / 2 + w, sigma * (w - t / 2)
            i_cs = sine(nu * t) ** 2 / (2 * nu)
            phi_sq = a * a * i_cc + 2 * a * b * i_cs + b * b * i_ss
            dphi_sq = nu * nu * (a * a * i_ss + 2 * sigma * a * b * i_cs + b * b * i_cc)
            mu_dphi += mu * dphi_sq
            rho_phi += mp.mpf(float(m.rho[j])) * phi_sq
            mu_phi += mu * phi_sq
        nu, a2 = mp.mpf(shape.decay_rate), p[-1] ** 2
        mu_dphi += mp.mpf(float(m.mu[-1])) * a2 * nu / 2
        rho_phi += mp.mpf(float(m.rho[-1])) * a2 / (2 * nu)
        mu_phi += mp.mpf(float(m.mu[-1])) * a2 / (2 * nu)
        return np.array([float(mu_dphi), float(rho_phi), float(mu_phi)])


@pytest.mark.parametrize("name", ["medium_a", "medium_b"])
def test_mode_norms_match_exact_closed_form(name, request):
    medium = request.getfixturevalue(name)
    for omega in (10.0, 40.0, 70.0, 100.0, 130.0, 150.0):
        for y in roots_at_omega(medium, omega):
            ms = mode_shape(medium, omega, omega * y)
            exact = _exact_norms(ms)
            assert np.array(mode_norms(ms)) == pytest.approx(exact, rel=1e-12)


def _stress_medium(rng):
    """A medium drawn wider than the benchmark's: n = 1..20, c 100-5000 m/s,
    a half-space 1.1-20 times the slowest layer, T log-uniform on 0.01-1000 m,
    and a total layer phase omega sum T/c log-uniform on 1-3000 rad."""
    n = int(rng.integers(1, 21))
    c = rng.uniform(100.0, 5000.0, n)
    c = np.append(c, c.min() * rng.uniform(1.1, 20.0))
    rho = rng.uniform(0.5, 3.5, n + 1)
    t = np.exp(rng.uniform(np.log(0.01), np.log(1000.0), n))
    omega = np.exp(rng.uniform(0.0, np.log(3000.0))) / float(np.sum(t / c[:-1]))
    return Medium(mu=rho * c**2, rho=rho, thickness=t), omega


def test_every_stress_root_has_a_mode_shape():
    # about 28% of these roots sit under evanescent stacks so thick that
    # phi(0) = 1 puts their interface amplitudes outside double range; the
    # log-scaled states hold them all.  Jumps are not gated here: root
    # rounding alone gives up to 4.7e-7 on this set.
    rng = np.random.default_rng(2026)
    built = 0
    for _ in range(60):
        m, omega = _stress_medium(rng)
        for y in roots_at_omega(m, omega)[:10]:
            ms = mode_shape(m, omega, omega * y)
            d = mode_residuals(ms)
            if ms.is_l2:
                assert d.rayleigh_residual <= 1e-12
            assert d.ode_residual <= 1e-9
            h = float(m.depths[-1])
            tail = 3.0 / ms.decay_rate if ms.is_l2 else h
            try:
                phi, stress = ms.evaluate(np.linspace(0.0, h + tail, 301))
            except ResultOutOfRange:
                pass
            else:
                assert np.all(np.isfinite(phi)) and np.all(np.isfinite(stress))
            built += 1
    assert built == 388
