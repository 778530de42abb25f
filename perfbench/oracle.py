"""References the benchmark checks the program against.

Nothing here calls the solver under test.  Medium A has closed-form roots
and cutoffs; every medium whose finite layers are all slower than the
half-space has closed-form cutoffs (the stress after propagation through the
stack vanishes at the half-space slowness), and the mode count at a
frequency is the number of cutoffs below it.  Counts above a slowness level
come from the finite-difference eigensolver ``fd_eigen_oracle``, which
shares no code with the transfer-matrix path.
"""

import numpy as np

# Finite-difference resolutions compared by the screen, and the smallest
# relative gap in wavenumber inside which an FD root is too close to a level.
FD_GRIDS = (2000, 4000)
FD_GAP = 1e-3
# Levels are drawn at least this far into the slowness domain; below it the
# truncated FD domain misses modes close to their cutoff.
LEVEL_FLOOR = 0.10


def random_medium(rng, n):
    """Random (n+1)-layer medium: finite layers 600-3000 m/s over 5-12 km/s."""
    c = np.concatenate([rng.uniform(600.0, 3000.0, n), [rng.uniform(5000.0, 12000.0)]])
    rho = rng.uniform(0.5, 3.0, n + 1)
    thickness = rng.uniform(30.0, 200.0, n)
    return {"mu": rho * c * c, "rho": rho, "thickness": thickness}


def medium_config(m):
    """JSON config (the CLI's input format) for a medium given as arrays."""
    layers = [{"mu": float(mu), "rho": float(r)} for mu, r in zip(m["mu"], m["rho"])]
    for layer, t in zip(layers, m["thickness"]):
        layer["thickness"] = float(t)
    return {"n": len(m["thickness"]), "layers": layers}


def vertical_slowness(m, y):
    """Per-layer vertical slowness sqrt(1/c_j^2 - y^2) of the finite layers."""
    inv_sq = np.asarray(m["rho"][:-1]) / np.asarray(m["mu"][:-1])
    return np.sqrt(inv_sq - y * y)


def cutoff_reference(m, count):
    """First ``count`` cutoff frequencies, ascending, the first one 0.

    Branch ell starts where the stress q after the stack vanishes at
    y = 1/c_inf.  With every finite layer oscillatory there, q(omega) is a
    product of plane rotations; its zeros are bracketed on a grid of pi/32
    total phase and bisected to rounding.
    """
    y0 = np.sqrt(m["rho"][-1] / m["mu"][-1])
    nu = vertical_slowness(m, y0)
    a = np.asarray(m["mu"][:-1]) * nu
    t = np.asarray(m["thickness"])

    def stress(w):
        p, q = np.ones_like(w), np.zeros_like(w)
        for aj, tj, nj in zip(a, t, nu):
            x = w * tj * nj
            p, q = np.cos(x) * p + np.sin(x) / aj * q, -aj * np.sin(x) * p + np.cos(x) * q
        return q

    step = np.pi / 32.0 / float(t @ nu)
    zeros = []
    start = 0.5 * step
    while len(zeros) < count - 1:
        w = start + step * np.arange(4096)
        s = np.sign(stress(w))
        idx = np.flatnonzero(s[:-1] * s[1:] < 0)
        lo, hi = w[idx], w[idx + 1]
        s_lo = s[idx]
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            right = np.sign(stress(mid)) == s_lo
            lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
        zeros.extend(0.5 * (lo + hi))
        start = w[-1]
    return np.array([0.0] + sorted(zeros)[: count - 1])


def counts_from_cutoffs(cutoffs, omega):
    """Modes present at each frequency: the cutoffs strictly below it."""
    return np.searchsorted(cutoffs, omega, side="left")


def near_cutoff(cutoffs, omega, rel=1e-3):
    """Frequencies within ``rel`` (relative) of a positive cutoff.

    There the newest root sits within the solver's slowness margin of the
    domain end, so its presence is not a defect either way.
    """
    pos = cutoffs[cutoffs > 0.0]
    if len(pos) == 0:
        return np.zeros(np.shape(omega), dtype=bool)
    d = np.min(np.abs(np.subtract.outer(omega, pos)) / pos, axis=-1)
    return d < rel


def single_layer_roots(m, omega, ell_max):
    """Closed-form slownesses of a one-layer medium, shape (len(omega), ell_max).

    On branch ell the layer phase theta = omega H nu_1 lies in
    ((ell-1) pi, (ell-1) pi + pi/2) and solves tan(theta) = mu2 nu2 / (mu1 nu1);
    the left side minus the right side increases with theta, so bisection
    converges to rounding.  Missing branches are NaN.
    """
    mu1, mu2 = float(m["mu"][0]), float(m["mu"][1])
    inv1_sq = float(m["rho"][0] / m["mu"][0])
    inv2_sq = float(m["rho"][1] / m["mu"][1])
    h = float(m["thickness"][0])
    w = np.asarray(omega, dtype=float)[:, None]
    base = np.pi * np.arange(ell_max)[None, :]
    theta_max = w * h * np.sqrt(inv1_sq - inv2_sq)
    lo = np.broadcast_to(base, (len(w), ell_max)).copy()
    hi = np.minimum(base + 0.5 * np.pi, theta_max)
    exists = theta_max > base
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        nu1 = mid / (w * h)
        y_sq = inv1_sq - nu1 * nu1
        nu2 = np.sqrt(np.maximum(y_sq - inv2_sq, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            neg = np.tan(mid) < mu2 * nu2 / (mu1 * nu1)
        lo, hi = np.where(neg, mid, lo), np.where(neg, hi, mid)
    nu1 = 0.5 * (lo + hi) / (w * h)
    y = np.sqrt(np.maximum(inv1_sq - nu1 * nu1, 0.0))
    return np.where(exists, y, np.nan)


def fd_reference(fd_eigen_oracle, medium, omega, levels):
    """FD counts of modes with slowness >= each level, with a screen flag.

    A level is screened when the two resolutions disagree on its count, or
    when an FD root lies within ``FD_GAP`` (relative) or three times that
    root's coarse-to-fine change of the level: the fine-grid error is about
    a third of that change for a second-order scheme.  Also returns the
    fine-grid top wavenumber and its error bound, or None when the two
    resolutions find different numbers of modes or none at all.
    """
    coarse, fine = (fd_eigen_oracle(medium, omega, grid_points=g) for g in FD_GRIDS)
    k_levels = omega * np.asarray(levels, dtype=float)
    counts = [np.sum(k[:, None] >= k_levels[None, :], axis=0) for k in (coarse, fine)]
    if len(coarse) != len(fine):
        return counts[1], np.ones(len(k_levels), dtype=bool), None
    width = np.maximum(3.0 * np.abs(coarse - fine), FD_GAP * fine)
    close = np.any(np.abs(fine[:, None] - k_levels[None, :]) <= width[:, None], axis=0)
    top = (float(fine[0]), float(width[0])) if len(fine) else None
    return counts[1], close | (counts[0] != counts[1]), top
