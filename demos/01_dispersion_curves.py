"""Trace guided-wave branches for the two benchmark media.

The dispersion relation of a layered half-space selects, at each frequency,
a finite set of wavenumbers.  Seen as slowness y = k/omega against omega,
they form branches that all climb from the half-space slowness 1/c_inf
toward the minimum slowness 1/c0.  This script traces both benchmark media
on a modest grid and writes the branch and cutoff tables that any plotting
tool can consume (columns: ell, omega, y, k).
"""

import numpy as np

from lovedisp import Medium, cutoff_frequencies, trace_branches
from lovedisp.io import write_branches_csv, write_cutoffs_csv

single = Medium(mu=[1e6, 1e8], rho=[1.0, 1.0], thickness=[100.0])
double = Medium(mu=[1e6, 1818.0**2, 1e8], rho=[1.0, 1.0, 1.0], thickness=[100.0, 100.0])

grid = np.arange(2.0, 600.01, 2.0)

for name, medium in (("single", single), ("double", double)):
    print(f"--- {name} layer medium")
    print(medium.describe())
    branchset = trace_branches(medium, grid)
    print(f"{branchset.n_branches} branches up to omega = {grid[-1]:g}")
    print("first cutoffs:", np.round(branchset.cutoffs[:5], 4))
    write_branches_csv(f"branches_{name}.csv", branchset)
    write_cutoffs_csv(f"cutoffs_{name}.csv", branchset)
    print(f"wrote branches_{name}.csv and cutoffs_{name}.csv")

    # for a single layer the cutoffs are uniformly spaced in closed form
    if name == "single":
        spacing = np.pi * 1000.0 * 10000.0 / (100.0 * np.sqrt(1e8 - 1e6))
        cuts = cutoff_frequencies(medium, 5)
        print("cutoff spacing, closed form vs computed:",
              spacing, np.diff(cuts)[1:3])
    print()
