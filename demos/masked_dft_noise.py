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
from onebitphase.numkit import dist_sq, sample_complex_gaussian
from onebitphase.recovery import alt_min_many, initial_estimate
from onebitphase.sensing import build_paired_cdp, intensities, substream

n, r, sigma, trials = 256, 4, 0.8, 5
finals = {"subexp": [], "onebit": [], "weighted1bit": []}
flips = 0

for t in range(trials):
    seed = 40 + t
    # one operator over both mask families: family 1 fills the first r*n
    # outputs, family 2 the rest, and pair k compares output k of each
    seeds = [int(substream(seed, key).integers(0, 2**63)) for key in ("m1", "m2")]
    op, pairs = build_paired_cdp(n, r, seeds)
    # unnormalized signal keeps per-coordinate masked-DFT intensities at unit
    # scale, so sigma means the same thing it does for dense Gaussian sensing
    x0 = sample_complex_gaussian(n, substream(seed, "x0"))
    b_clean = intensities(op, x0)
    noise = sigma * np.maximum(substream(seed, "noise").standard_normal(n * r), 0.0)
    b = b_clean + np.tile(noise, 2)  # the same offset on both members of a pair

    y = quantize(b[pairs[0]], b[pairs[1]])
    flips += int(np.sum(y != quantize(b_clean[pairs[0]], b_clean[pairs[1]])))

    # one refinement loop steps all three starts together
    starts = [
        initial_estimate(kind, op, b, y, pairs, substream(seed, "pw", kind)).estimate
        for kind in finals
    ]
    for kind, rep in zip(finals, alt_min_many(op, b, starts, max_iters=100)):
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
