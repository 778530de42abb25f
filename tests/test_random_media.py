"""Property tests on random media: root counts and root sensitivities.

Every root counter agrees with the FD eigensolver, and the analytic
Rayleigh-principle sensitivities agree with central differences.

Media are drawn like the benchmark's random media: n finite layers at
600-3000 m/s over a 5-12 km/s half-space, thicknesses 30-200 m.  The
frequency puts 10-150 rad of total layer phase at the half-space slowness,
and the level sits 10-95% of the way into the slowness domain.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lovedisp import Medium, fd_eigen_oracle, mode_count, roots_at_omega
from lovedisp.dispersion import _sturm_count
from lovedisp.modes import _wavenumber_sensitivities


@st.composite
def query(draw, n):
    c = [draw(st.floats(600.0, 3000.0)) for _ in range(n)]
    c.append(draw(st.floats(5000.0, 12000.0)))
    rho = np.array([draw(st.floats(0.5, 3.0)) for _ in range(n + 1)])
    thickness = np.array([draw(st.floats(30.0, 200.0)) for _ in range(n)])
    medium = Medium(mu=rho * np.square(c), rho=rho, thickness=thickness)
    y0 = float(medium.slowness[-1])
    rate = float(thickness @ np.sqrt(medium.slowness_sq[:-1] - y0 * y0))
    omega = draw(st.floats(10.0, 150.0)) / rate
    lo, hi = medium.slowness_domain
    y = lo + draw(st.floats(0.10, 0.95)) * (hi - lo)
    return medium, omega, y


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@given(data=st.data())
def test_counts_agree_with_fd_oracle(n, data):
    medium, omega, y = data.draw(query(n))
    k_level = omega * y
    coarse, fine = (fd_eigen_oracle(medium, omega, grid_points=g) for g in (2000, 4000))
    # limits of the oracle, not of the solver: unresolved FD count, or an FD
    # root too close to the level to say on which side it falls
    assume(np.sum(coarse >= k_level) == np.sum(fine >= k_level))
    assume(not np.any(np.abs(fine - k_level) <= 1e-3 * fine))
    expected = int(np.sum(fine >= k_level))
    assert mode_count(medium, omega, y) == expected
    roots = roots_at_omega(medium, omega)
    assert int(np.sum(roots >= y)) == expected
    assert len(roots) == _sturm_count(medium, omega, medium.slowness_domain[0])[0]


def _log_sensitivities_by_differences(medium, omega, count, h=1e-6):
    """Central differences of the root wavenumbers in each log-parameter."""
    theta = np.concatenate([medium.mu, medium.rho, medium.thickness])
    n = medium.n
    columns = []
    for i in range(len(theta)):
        ks = []
        for sign in (1.0, -1.0):
            t = theta.copy()
            t[i] *= 1.0 + sign * h
            m = Medium(mu=t[: n + 1], rho=t[n + 1 : 2 * n + 2], thickness=t[2 * n + 2 :])
            roots = roots_at_omega(m, omega)
            assume(len(roots) == count)  # a perturbation crossed a cutoff
            ks.append(omega * roots)
        columns.append((ks[0] - ks[1]) / (2.0 * h))
    return np.array(columns).T, theta


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@given(data=st.data())
def test_sensitivities_match_central_differences(n, data):
    # every root's analytic dk/dtheta in log-parameters, against central
    # differences of roots_at_omega, relative to the root's largest entry
    medium, omega, _ = data.draw(query(n))
    roots = roots_at_omega(medium, omega)
    assume(len(roots) > 0)
    # a root just past its cutoff, or at a layer slowness, makes the
    # differences (or the closed-form integrals) ill-conditioned
    assume(np.all(roots > medium.slowness[-1] * (1.0 + 1e-4)))
    gaps = np.abs(roots[:, None] - medium.slowness[None, :-1])
    assume(np.all(gaps > 1e-4 * roots[:, None]))
    numeric, theta = _log_sensitivities_by_differences(medium, omega, len(roots))
    analytic = _wavenumber_sensitivities(medium, np.full(len(roots), omega), roots) * theta
    scale = np.max(np.abs(numeric), axis=1, keepdims=True)
    assert np.all(np.abs(analytic - numeric) <= 1e-5 * scale)
