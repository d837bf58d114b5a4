"""End-to-end acceptance checks with pinned seeds and tolerances.

Covers the channel-constant oracles, the intensity distribution laws, the
expectation and excess-risk identities behind the spectral relaxations, the
equivalence of the matrix-free solvers with dense eigendecompositions, the
sample-complexity scaling, distortion robustness, alternating-minimization
convergence at benchmark scale, objective monotonicity, and byte-level CLI
reproducibility.  Runtime-bounded checks assert their own budgets.
"""

import time

import numpy as np
import pytest
from scipy import stats

from onebitphase import bench, cli
from onebitphase.channels import (
    ExponentialNoise,
    Identity,
    TanhDistortion,
    lambda_closed_form,
    lambda_monte_carlo,
    observe_pairs,
    quantize,
    ratio_weights,
)
from onebitphase.numkit import dist_sq
from onebitphase.recovery import alt_min_many, initial_estimate
from onebitphase.sensing import (
    build_paired_cdp,
    build_paired_ensemble,
    build_plain_ensemble,
    intensities,
    substream,
)

from _oracles import dense_one_bit_matrix, dense_subexp_matrix, hermitian_top_eig


def _unit(rng, n):
    v = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
    return v / np.linalg.norm(v)


def _one_bit_estimate(ens, x0, seed, model=Identity()):
    """Onebit spectral estimate from the pairs of ``x0`` observed through ``model``;
    ``ens`` is the ``(op, pairs)`` of a paired ensemble."""
    op, pairs = ens
    b, y = observe_pairs(model, intensities(op, x0), pairs)
    return initial_estimate("onebit", op, b, y, pairs, seed).estimate


def test_01_channel_constant_oracles():
    est, _ = lambda_monte_carlo(Identity(), 1_000_000, seed=5)
    assert 0.99 <= est <= 1.01
    for sigma in (0.25, 1.0, 4.0):
        model = ExponentialNoise(sigma)
        mc, se = lambda_monte_carlo(model, 1_000_000, seed=5)
        closed = lambda_closed_form(model)
        assert abs(mc - closed) <= 3 * se
    print(f"PASS channel constants: identity {est:.4f}, noisy grid within 3 SE")


def test_02_intensity_distribution_laws():
    op = build_plain_ensemble(8, 100_000, seed=21)
    x0 = _unit(substream(21, "x0"), 8)
    b = intensities(op, x0)
    ks_exp = stats.kstest(b, "expon").statistic
    assert ks_exp <= 0.01

    op, pairs = build_paired_ensemble(4, 100_000, seed=22)
    pb = intensities(op, _unit(substream(22, "x0"), 4))
    b1, b2 = pb[pairs[0]], pb[pairs[1]]
    ks_uni = stats.kstest(b1 / (b1 + b2), "uniform").statistic
    assert ks_uni <= 0.01
    print(f"PASS distribution laws: KS exp {ks_exp:.4f}, KS uniform {ks_uni:.4f}")


@pytest.fixture(scope="module")
def mc_pairs():
    n, m = 4, 1_000_000
    op, pairs = build_paired_ensemble(n, m, seed=33)
    x0 = _unit(substream(33, "x0"), n)
    b = intensities(op, x0)
    b1, b2 = b[pairs[0]], b[pairs[1]]
    y = quantize(b1, b2)
    r1, r2 = ratio_weights(b1, b2)
    probes = [x0] + [_unit(substream(33, "probe", k), n) for k in range(5)]
    return (op.rows[pairs[0]], op.rows[pairs[1]]), x0, y, r1, r2, probes


def test_03_expectation_identities(mc_pairs):
    (a1, a2), x0, y, r1, r2, probes = mc_pairs
    m = a1.shape[0]
    surrogate = ((a1 * y[:, None]).T @ a1.conj() - (a2 * y[:, None]).T @ a2.conj()) / m
    target = np.outer(x0, x0.conj())
    worst = np.max(np.abs(surrogate - target))
    assert worst <= 0.02

    worst_w = 0.0
    for x in probes:
        i1 = np.abs(a1.conj() @ x) ** 2
        i2 = np.abs(a2.conj() @ x) ** 2
        form = np.mean(y * (r1 * i1 - r2 * i2))
        expected = 0.5 * np.abs(np.vdot(x0, x)) ** 2 + 0.5
        worst_w = max(worst_w, abs(form - expected))
    assert worst_w <= 0.02
    print(f"PASS expectation identities: entrywise {worst:.4f}, weighted form {worst_w:.4f}")


def test_04_excess_risk_identities(mc_pairs):
    (a1, a2), x0, y, r1, r2, probes = mc_pairs

    def risk_bit(x):
        return np.mean(y * (np.abs(a1.conj() @ x) ** 2 - np.abs(a2.conj() @ x) ** 2))

    def risk_weighted(x):
        return np.mean(
            y * (r1 * np.abs(a1.conj() @ x) ** 2 - r2 * np.abs(a2.conj() @ x) ** 2)
        )

    worst = 0.0
    for x in probes[1:]:
        fro_sq = np.linalg.norm(np.outer(x, x.conj()) - np.outer(x0, x0.conj())) ** 2
        gap_bit = risk_bit(x0) - risk_bit(x)
        gap_w = risk_weighted(x0) - risk_weighted(x)
        worst = max(worst, abs(gap_bit - 0.5 * fro_sq), abs(gap_w - 0.25 * fro_sq))
    assert worst <= 0.02
    print(f"PASS excess-risk identities: worst deviation {worst:.4f}")


def test_05_spectral_oracle_equivalence():
    n, m = 8, 200
    worst = 0.0
    for s in range(20):
        seed = 500 + s
        op, pairs = build_paired_ensemble(n, m, seed=seed)
        x0 = _unit(substream(seed, "x0"), n)
        b = intensities(op, x0)
        b1, b2 = b[pairs[0]], b[pairs[1]]
        rows1, rows2 = op.rows[pairs[0]], op.rows[pairs[1]]
        y = quantize(b1, b2)

        def init(kind):
            return initial_estimate(kind, op, b, y, pairs, 1, tol=1e-13, max_iters=100_000)

        rep = init("onebit")
        dense = dense_one_bit_matrix(rows1, rows2, y)
        val, vec = hermitian_top_eig(dense)
        worst = max(worst, dist_sq(rep.estimate, vec))
        assert dist_sq(rep.estimate, vec) <= 1e-8
        assert rep.lambda_hat == pytest.approx(val, abs=1e-6)

        wrep = init("weighted1bit")
        weights = np.stack(ratio_weights(b1, b2), axis=1)
        wdense = dense_one_bit_matrix(rows1, rows2, y, weights=weights)
        _, wvec = hermitian_top_eig(wdense)
        worst = max(worst, dist_sq(wrep.estimate, wvec))
        assert dist_sq(wrep.estimate, wvec) <= 1e-8

        srep = init("subexp")
        _, svec = hermitian_top_eig(dense_subexp_matrix(op.rows, b))
        worst = max(worst, dist_sq(srep.estimate, svec))
        assert dist_sq(srep.estimate, svec) <= 1e-8
    print(f"PASS oracle equivalence: worst dist_sq {worst:.2e} over 20 seeds x 3 methods")


def test_06_sample_complexity_scaling():
    n = 32
    t0 = time.monotonic()
    medians = {}
    for m in (2048, 8192):
        errs = []
        for s in range(50):
            seed = int(substream(100 + s, "c6").integers(0, 2**63))
            ops = build_paired_ensemble(n, m, seed=seed)
            x0 = _unit(substream(seed, "x0"), n)
            est = _one_bit_estimate(ops, x0, substream(seed, "pw"))
            errs.append(dist_sq(est, x0))
        medians[m] = float(np.median(errs))
    ratio = medians[2048] / medians[8192]
    elapsed = time.monotonic() - t0
    assert 2.5 <= ratio <= 6.0
    assert elapsed < 120.0
    print(f"PASS sample-complexity scaling: ratio {ratio:.2f} in [2.5, 6], {elapsed:.0f}s")


def test_07_distortion_robustness():
    cfg = bench.ExperimentConfig(
        kind="distortion-sweep", n=64, ratio=64, trials=20, alphas=(0.125, 8.0), seed=11
    )
    rows, _ = bench.run_distortion_sweep(cfg)
    med = {(alpha, method): (m50, iqr) for alpha, method, m50, iqr, _ in rows}
    bit_med, _ = med[(8.0, "1bitPhase")]
    sub_med, _ = med[(8.0, "SubExpPhase")]
    assert bit_med <= 0.1
    assert sub_med >= 3.0 * bit_med
    assert med[(0.125, "1bitPhase")] == med[(8.0, "1bitPhase")]

    # sign-based estimates are bitwise invariant to the distortion strength
    ops = build_paired_ensemble(64, 256, seed=7)
    x0 = _unit(substream(7, "x0"), 64)
    estimates = [
        _one_bit_estimate(ops, x0, 3, TanhDistortion(a)) for a in (0.125, 1.0, 8.0)
    ]
    for other in estimates[1:]:
        np.testing.assert_array_equal(estimates[0], other)
    print(f"PASS distortion robustness: sign {bit_med:.4f}, intensity {sub_med:.4f}")


@pytest.fixture(scope="module")
def gaussian_noiseless_runs():
    """Refinement at n=512 with 8n Gaussian measurements, 20 seeds, all inits."""
    n, m = 512, 2048
    hits = {k: 0 for k in ("random", "subexp", "onebit", "weighted1bit")}
    traces = []
    t0 = time.monotonic()
    for s in range(20):
        seed = int(substream(8800 + s, "trial").integers(0, 2**63))
        op, pairs = build_paired_ensemble(n, m, seed=seed)
        x0 = _unit(substream(seed, "x0"), n)
        b = intensities(op, x0)
        y = quantize(b[pairs[0]], b[pairs[1]])

        # loose tolerance: a relative Ritz residual of 1e-4 is orders of
        # magnitude below the statistical error of the initializers
        def init(kind, stream):
            return initial_estimate(kind, op, b, y, pairs, substream(seed, stream),
                                    tol=1e-4, max_iters=400).estimate

        ests = {
            "onebit": init("onebit", "p1"),
            "weighted1bit": init("weighted1bit", "p2"),
            "subexp": init("subexp", "p3"),
            "random": init("random", "rand"),
        }
        for kind, xi in ests.items():
            errs = []
            rep = alt_min_many(op, b, [xi], max_iters=100, tol=1e-12,
                               callback=lambda run, k, x: errs.append(dist_sq(x, x0)))[0]
            if min(errs) <= 1e-6:
                hits[kind] += 1
            traces.append(rep.trace)
    return hits, traces, time.monotonic() - t0


@pytest.fixture(scope="module")
def cdp_noisy_runs():
    """Refinement at n=512 with 8n masked-DFT measurements and clipped
    Gaussian readout noise added to both intensities of each pair (the noise
    source is common to the pair, so the sign comparison stays clean while
    the raw intensities are corrupted), 20 seeds.  Returns the refined and
    the initial dist_sq of each kind, per seed."""
    n, r, sigma = 512, 4, 0.8
    finals = {k: [] for k in ("subexp", "onebit", "weighted1bit")}
    inits = {k: [] for k in finals}
    traces = []
    t0 = time.monotonic()
    for s in range(20):
        seed = 6000 + s
        seeds = [int(substream(seed, key).integers(0, 2**63)) for key in ("m1", "m2")]
        op, pairs = build_paired_cdp(n, r, seeds)
        rng = substream(seed, "x0")
        x0 = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
        noise = sigma * np.maximum(substream(seed, "noise").standard_normal(r * n), 0.0)
        b = intensities(op, x0) + np.tile(noise, 2)
        y = quantize(b[pairs[0]], b[pairs[1]])
        for kind in finals:
            xi = initial_estimate(kind, op, b, y, pairs,
                                  substream(seed, "pw", kind), max_iters=2000).estimate
            inits[kind].append(dist_sq(xi, x0))
            rep = alt_min_many(op, b, [xi], max_iters=100, tol=1e-12)[0]
            finals[kind].append(dist_sq(rep.estimate, x0))
            traces.append(rep.trace)
    return finals, traces, time.monotonic() - t0, inits


def test_08a_noiseless_spectral_inits_converge(gaussian_noiseless_runs):
    hits, _, _ = gaussian_noiseless_runs
    for kind in ("subexp", "onebit", "weighted1bit"):
        assert hits[kind] >= 18, f"{kind}: {hits[kind]}/20 reached 1e-6 within 100 iterations"
    print(f"PASS noiseless refinement, spectral inits: {hits}")


def test_08b_noiseless_random_init_converges(gaussian_noiseless_runs):
    """Without any spectral information, the refinement still reaches 1e-6
    from a uniformly random start within the pinned 100-iteration budget on
    at least 18 of 20 seeds.  Plain alternating projections need about 120
    iterations here, so this checks the relaxed (RAAR) engine behind
    ``alt_min_many``."""
    hits, _, _ = gaussian_noiseless_runs
    assert hits["random"] >= 18, (
        f"random init: {hits['random']}/20 seeds reached 1e-6 within 100 "
        "iterations; the refinement escapes the random start too slowly"
    )
    print(f"PASS noiseless refinement, random init: {hits['random']}/20")


# Relative spread allowed between the refined medians of test_08c.  On the
# fixture and six held-out seed bases (16000, ..., 66000, same recipe) the
# one-bit medians lie within 0.958 to 1.045 of subexp's.
FLOOR_SPREAD = 0.10


def test_08c_noisy_inits_refine_to_the_same_floor(cdp_noisy_runs):
    """After 100 refinement iterations on the noisy intensities, every
    spectral init reaches the same noise floor: each one-bit kind's median
    dist_sq is within ``FLOOR_SPREAD`` of subexp's.  Which of them is lowest
    changes from one seed base to the next (the init-stage advantage is
    test_08e's claim)."""
    finals, _, _, _ = cdp_noisy_runs
    med = {k: float(np.median(v)) for k, v in finals.items()}
    for kind in ("onebit", "weighted1bit"):
        assert abs(med[kind] / med["subexp"] - 1.0) <= FLOOR_SPREAD, med
    print(f"PASS noisy refinement medians within {FLOOR_SPREAD:.0%} of subexp: {med}")


def test_08d_runtime_budget(gaussian_noiseless_runs, cdp_noisy_runs):
    _, _, t_clean = gaussian_noiseless_runs
    _, _, t_noisy, _ = cdp_noisy_runs
    assert t_clean + t_noisy < 300.0
    print(f"PASS runtime budget: {t_clean:.0f}s + {t_noisy:.0f}s < 300s")


def test_08e_noisy_one_bit_init_beats_intensity_init(cdp_noisy_runs):
    """Before any refinement, under the pair-common readout noise of the
    fixture, the onebit init lands closer to the signal than the subexp init
    on at least 18 of 20 seeds: the signs stay clean while the intensities
    that weight the subexp surrogate are corrupted.  The weighted1bit init is
    not better than subexp's here (its ratio weights read the noisy
    intensities; it wins on about 5 to 10 of 20 seeds), so it is not
    asserted."""
    _, _, _, inits = cdp_noisy_runs
    wins = sum(bit < sub for bit, sub in zip(inits["onebit"], inits["subexp"]))
    assert wins >= 18, f"onebit init beat subexp on {wins}/20 seeds"
    med = {k: float(np.median(v)) for k, v in inits.items()}
    print(f"PASS noisy init: onebit beats subexp on {wins}/20 seeds, medians {med}")


def test_09_objective_monotonicity(gaussian_noiseless_runs, cdp_noisy_runs):
    _, clean_traces, _ = gaussian_noiseless_runs
    _, noisy_traces, _, _ = cdp_noisy_runs
    checked = 0
    for objectives in clean_traces + noisy_traces:
        assert all(b <= a for a, b in zip(objectives, objectives[1:]))
        checked += 1
    print(f"PASS objective monotonicity: {checked} refinement runs")


def test_10_cli_reproducibility(tmp_path):
    runs = [
        ["recover", "--n", "16", "--ratio", "8", "--seed", "5"],
        ["altmin-convergence", "--n", "32", "--ratio", "4", "--trials", "2",
         "--init", "onebit,random", "--seed", "5"],
        ["cdp-convergence", "--n", "16", "--ratio", "4", "--trials", "2",
         "--model", "clipgauss:sigma=0.5", "--seed", "5"],
        ["recover", "--n", "16", "--ratio", "16", "--refine", "resampled",
         "--epsilon", "0.5", "--init", "onebit,subexp", "--seed", "5"],
    ]
    for k, args in enumerate(runs):
        first = tmp_path / f"first_{k}.csv"
        again = tmp_path / f"again_{k}.csv"
        assert cli.main(args + ["--out", str(first)]) == 0
        csv2, _, _ = bench.run_manifest(bench.manifest_path(first), out=str(again))
        assert csv2.read_bytes() == first.read_bytes()
        assert cli.main(args + ["--out", str(again)]) == 0
        assert again.read_bytes() == first.read_bytes()
    print(f"PASS reproducibility: manifest reruns byte-identical for {len(runs)} runs")
