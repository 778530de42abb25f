"""Full closed-form recovery of a single layer over a half-space.

From dispersion data alone: the surface velocity from the branch slowness
supremum, the substrate velocity from the cutoff slowness, the thickness
from the uniform cutoff spacing, and (given the surface density) the
substrate density from the dispersion identity.  Both the clean and a
noisy dataset are inverted.
"""

import numpy as np

from lovedisp import (
    Medium,
    branchset_from_dataset,
    invert_single_layer,
    synthesize_observations,
    trace_branches,
)

truth = Medium(mu=[1e6, 1e8], rho=[1.0, 1.0], thickness=[100.0])
grid = np.arange(1.0, 1200.01, 1.0)
print("tracing the true medium ...")
branchset = trace_branches(truth, grid)

for sigma, tag in ((0.0, "noiseless"), (1e-3, "0.1% noise")):
    data = synthesize_observations(truth, grid, noise_sigma=sigma, seed=17,
                                   branchset=branchset)
    report = invert_single_layer(branchset_from_dataset(data), rho1=1.0)
    print(f"\n--- {tag} ({len(data)} samples)")
    print(report.render())
