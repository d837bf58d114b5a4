"""Masked-DFT sensing with shared readout noise: one bit stays clean.

Structured acquisition measures the signal through random masks followed by
a DFT.  When both intensities of a pair pick up the same nonnegative readout
offset (one detector read serving both channels), the offset cancels in the
comparison: the sign data is exactly what it would have been without noise,
while the raw intensities that the least-squares refinement and the
intensity-weighted initializer consume are corrupted.  This script builds
that scenario and compares final errors across initializations.

Run:  python3 demos/masked_dft_noise.py
"""

import numpy as np

from onebitphase.channels import quantize
from onebitphase.numkit import dist_sq
from onebitphase.recovery import alt_min, cdp_lsq_solver, initial_estimate
from onebitphase.sensing import CdpOperator, build_cdp_operator, intensities, substream

n, r, sigma, trials = 256, 4, 0.8, 5
finals = {"subexp": [], "onebit": [], "weighted1bit": []}
flips = 0

for t in range(trials):
    seed = 40 + t
    op1 = build_cdp_operator(n, r, int(substream(seed, "m1").integers(0, 2**63)))
    op2 = build_cdp_operator(n, r, int(substream(seed, "m2").integers(0, 2**63)))
    rng = substream(seed, "x0")
    # unnormalized signal keeps per-coordinate masked-DFT intensities at unit
    # scale, so sigma means the same thing it does for dense Gaussian sensing
    x0 = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
    b1_clean = intensities(op1, x0)
    b2_clean = intensities(op2, x0)
    noise = sigma * np.maximum(substream(seed, "noise").standard_normal(n * r), 0.0)
    b1, b2 = b1_clean + noise, b2_clean + noise

    y = quantize(b1, b2)
    flips += int(np.sum(y != quantize(b1_clean, b2_clean)))

    op_all = CdpOperator(np.vstack([op1.masks, op2.masks]))
    b_all = np.concatenate([b1, b2])
    solver = cdp_lsq_solver(op_all)
    for kind in finals:
        pw = substream(seed, "pw", kind)
        xi = initial_estimate(kind, op1, op2, b1, b2, y, (op_all, b_all), pw).estimate
        rep = alt_min(op_all, b_all, xi, max_iters=100, lsq_solver=solver)
        finals[kind].append(dist_sq(rep.estimate, x0))

print(f"masked-DFT sensing, n={n}, {2 * r} masks ({2 * r}n intensities),")
print(f"shared clipped Gaussian readout noise at sigma={sigma}, {trials} trials")
print()
print(f"comparisons flipped by the noise: {flips} of {trials * n * r}")
print()
print(f"{'init':>14} {'median final squared error':>28}")
for kind, errs in finals.items():
    print(f"{kind:>14} {float(np.median(errs)):28.4f}")

print()
print("The sign data is untouched (zero flips), so the one-bit initializers")
print("see a noiseless problem and hand the refinement a better start, while")
print("the intensity-weighted start absorbs the corrupted magnitudes.  The")
print("refinement itself works on noisy intensities either way, which is why")
print("nobody reaches the noiseless floor.")
