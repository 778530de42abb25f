"""Property test: every root counter agrees with the FD eigensolver.

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
    assert int(np.sum(roots_at_omega(medium, omega) >= y)) == expected
