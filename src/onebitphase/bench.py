"""Reproducible benchmark harness behind the command-line interface.

Every experiment is described by an :class:`ExperimentConfig`; running one
yields a fixed-schema list of CSV rows plus a JSON manifest from which the
identical run (byte-for-byte CSV) can be regenerated.  All randomness derives
from the config seed through keyed substreams, so trials are order-independent
and reproducible.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .channels import (
    ExponentialNoise,
    Identity,
    PoissonNoise,
    TanhDistortion,
    apply_model,
    format_model,
    lambda_closed_form,
    lambda_monte_carlo,
    model_param,
    observe_pairs,
    parse_model,
)
from .numkit import dist_sq, sample_complex_gaussian
from .recovery import (
    InitKind,
    alt_min,
    alt_min_resampled,
    initial_estimate,
    multi_init_select,
    parse_init,
    random_init,
    resample_blocks,
)
from .sensing import (
    CdpOperator,
    build_cdp_operator,
    build_paired_ensemble,
    intensities,
    substream,
)


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


ALL_INITS = ("random", "subexp", "onebit", "weighted1bit")


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, serializable description of one benchmark run."""

    kind: str
    n: int = 0
    m: Optional[int] = None
    ratio: Optional[int] = None
    model: str = "identity"
    epsilon: float = 0.25
    trials: int = 20
    seed: int = 0
    tol: Optional[float] = None
    max_iters: Optional[int] = None
    inits: tuple = ALL_INITS
    refine: str = "altmin"
    samples: int = 1_000_000
    alphas: tuple = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
    sigmas: tuple = (0.25, 0.5, 1.0, 2.0, 4.0)
    etas: tuple = (0.5, 1.0, 2.0, 4.0)
    out: Optional[str] = None

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in ("inits", "alphas", "sigmas", "etas"):
            d[key] = list(d[key])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        d.pop("shift", None)  # the spectral shift of older manifests is gone
        for key in ("inits", "alphas", "sigmas", "etas"):
            if key in d and d[key] is not None:
                d[key] = tuple(d[key])
        return cls(**d)


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.kind not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment kind {cfg.kind!r}")
    if cfg.kind != "lambda-sweep" and cfg.n <= 0:
        raise ConfigError("n must be positive")
    if cfg.trials < 1:
        raise ConfigError("trials must be at least 1")
    if cfg.samples < 1000:
        raise ConfigError("samples must be at least 1000")
    if not 0.0 < cfg.epsilon < 1.0:
        raise ConfigError("epsilon must lie in (0, 1)")
    if cfg.refine not in ("altmin", "resampled", "none"):
        raise ConfigError(f"unknown refine mode {cfg.refine!r}")
    if cfg.m is not None and cfg.m <= 0:
        raise ConfigError("m must be positive")
    if cfg.ratio is not None and cfg.ratio <= 0:
        raise ConfigError("ratio must be positive")
    if cfg.kind == "cdp-convergence" and cfg.m is not None:
        raise ConfigError("cdp-convergence draws --ratio mask pairs per trial; it takes no --m")
    if cfg.max_iters is not None and cfg.max_iters < 1:
        raise ConfigError("max_iters must be at least 1")
    if cfg.tol is not None and not (np.isfinite(cfg.tol) and cfg.tol >= 0):
        raise ConfigError("tol must be finite and non-negative")
    if len(set(cfg.alphas)) < len(cfg.alphas):
        raise ConfigError(f"alphas must be distinct; got {list(cfg.alphas)}")
    if cfg.kind == "distortion-sweep" and not cfg.alphas:
        raise ConfigError("distortion-sweep needs at least one alpha")
    refines = cfg.kind == "altmin-convergence" or (cfg.kind, cfg.refine) == ("recover", "altmin")
    if refines and 2 * _pairs(cfg) < cfg.n:
        raise ConfigError(
            f"the least-squares step needs at least n = {cfg.n} measurements "
            f"(2 per pair); got {2 * _pairs(cfg)}"
        )
    try:
        model = parse_model(cfg.model)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        kinds = [parse_init(name) for name in cfg.inits]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not kinds:
        raise ConfigError("at least one init kind is required")
    if cfg.kind == "recover" and InitKind.WEIGHTED_ONEBIT in kinds:
        if not isinstance(model, Identity):
            raise ConfigError(
                "weighted1bit init uses pair ratio weights, which are only "
                f"defined for the identity model; got --model {cfg.model!r}"
            )


def _or(value, default):
    """A config value, or ``default`` where the config leaves it unset."""
    return default if value is None else value


def _pairs(cfg: ExperimentConfig) -> int:
    return _or(cfg.m, _or(cfg.ratio, EXPERIMENTS[cfg.kind].ratio) * cfg.n)


def _trial_seed(master: int, tag: str, index: int) -> int:
    return int(substream(master, tag, index).integers(0, 2**63))


def _gaussian_pairs(cfg: ExperimentConfig, trial: int, layout: str = "stacked"):
    """Pair operators, their operator over all rows (views of one array in
    ``layout``), unit signal and its clean pair intensities of a Gaussian
    trial."""
    seed = _trial_seed(cfg.seed, "ensemble", trial)
    op1, op2, op_all = build_paired_ensemble(cfg.n, _pairs(cfg), seed, layout)
    x0 = random_init(cfg.n, substream(cfg.seed, "signal", trial))
    return op1, op2, op_all, x0, intensities(op1, x0), intensities(op2, x0)


# ---------------------------------------------------------------------------
# lambda sweep


def run_lambda_sweep(cfg: ExperimentConfig) -> list[list]:
    """Monte-Carlo channel constants over the default model grids.

    Every grid point reuses the same intensity draws (one seed), so columns
    inherit the exact monotonicity of the underlying channel family.
    """
    models = [Identity()]
    models += [ExponentialNoise(s) for s in cfg.sigmas]
    models += [TanhDistortion(a) for a in cfg.alphas]
    models += [PoissonNoise(e) for e in cfg.etas]
    rows = []
    for model in models:
        est, se = lambda_monte_carlo(model, cfg.samples, seed=cfg.seed)
        closed = lambda_closed_form(model)
        family = format_model(model).partition(":")[0]
        rows.append([family, model_param(model), est, se, closed])
    return rows


# ---------------------------------------------------------------------------
# distortion sweep


def run_distortion_sweep(cfg: ExperimentConfig) -> list[list]:
    """Median recovery error of both spectral methods under tanh distortion.

    Ensembles, signals and Lanczos start vectors depend only on the trial
    index, never on alpha.  The sign-based method reads only the clean
    intensities, so it runs once per trial and its column is bit-identical
    across the sweep while the intensity-weighted method degrades.
    """
    tol = _or(cfg.tol, 1e-8)
    iters = _or(cfg.max_iters, 1000)
    err_bit = {a: [] for a in cfg.alphas}
    err_sub = {a: [] for a in cfg.alphas}
    for t in range(cfg.trials):
        op1, op2, op_all, x0, b1, b2 = _gaussian_pairs(cfg, t)
        b_all = np.concatenate([b1, b2])
        _, _, y = observe_pairs(Identity(), b1, b2)
        seed_bit = substream(cfg.seed, "power-bit", t)
        rep = initial_estimate(
            InitKind.ONEBIT, op1, op2, b1, b2, y, (op_all, b_all), seed_bit, tol, iters
        )
        bit = dist_sq(rep.estimate, x0)
        for alpha in cfg.alphas:
            err_bit[alpha].append(bit)
            stacked = (op_all, apply_model(TanhDistortion(alpha), b_all))
            seed_sub = substream(cfg.seed, "power-sub", t)
            rep_sub = initial_estimate(
                InitKind.SUBEXP, op1, op2, b1, b2, y, stacked, seed_sub, tol, iters
            )
            err_sub[alpha].append(dist_sq(rep_sub.estimate, x0))
    rows = []
    for alpha in cfg.alphas:
        for method, errs in (("1bitPhase", err_bit[alpha]), ("SubExpPhase", err_sub[alpha])):
            arr = np.asarray(errs)
            q25, q50, q75 = np.percentile(arr, [25.0, 50.0, 75.0])
            rows.append([alpha, method, float(q50), float(q75 - q25), cfg.trials])
    return rows


# ---------------------------------------------------------------------------
# shared recovery plumbing


_INIT_STREAMS = {
    InitKind.RANDOM: "init-random",
    InitKind.SUBEXP: "init-subexp",
    InitKind.ONEBIT: "init-onebit",
    InitKind.WEIGHTED_ONEBIT: "init-weighted",
}


def _init(kind: InitKind, op1, op2, b1, b2, y, stacked, cfg, trial: int):
    """Init estimate of trial ``trial``, seeded from the kind's own stream."""
    seed = substream(cfg.seed, _INIT_STREAMS[kind], trial)
    return initial_estimate(kind, op1, op2, b1, b2, y, stacked, seed)


def _median_curves(curves: Sequence[Sequence[float]]) -> list[float]:
    """Median across trials per iteration, padding each curve with its final
    value so early stoppers stay at their converged error."""
    width = max(len(c) for c in curves)
    padded = np.array(
        [list(c) + [c[-1]] * (width - len(c)) for c in curves], dtype=float
    )
    return np.median(padded, axis=0).tolist()


# ---------------------------------------------------------------------------
# alternating-minimization convergence experiments


def _convergence_rows(cfg: ExperimentConfig, setup) -> list[list]:
    """Median error-vs-iteration curve of alt-min from each init kind.

    ``setup(cfg, trial)`` returns the trial's pair operators, their stacked
    operator, the signal and its clean pair intensities.  One-bit inits
    quantize the observed intensities, and the weighted variant draws its
    ratio weights from the same values.
    """
    model = parse_model(cfg.model)
    kinds = [parse_init(name) for name in cfg.inits]
    iters = _or(cfg.max_iters, 100)
    tol = _or(cfg.tol, 1e-12)
    curves: dict[InitKind, list[list[float]]] = {k: [] for k in kinds}
    for t in range(cfg.trials):
        op1, op2, op_all, x0, b1c, b2c = setup(cfg, t)
        b1, b2, y = observe_pairs(model, b1c, b2c, substream(cfg.seed, "noise", t))
        b_all = np.concatenate([b1, b2])
        for kind in kinds:
            init_rep = _init(kind, op1, op2, b1, b2, y, (op_all, b_all), cfg, t)
            errs = [dist_sq(init_rep.estimate, x0)]
            alt_min(
                op_all,
                b_all,
                init_rep.estimate,
                max_iters=iters,
                tol=tol,
                callback=lambda k, x: errs.append(dist_sq(x, x0)),
            )
            curves[kind].append(errs)
    rows = []
    for kind in kinds:
        medians = _median_curves(curves[kind])
        for it, value in enumerate(medians):
            rows.append([kind.value, it, value])
    return rows


def run_altmin_convergence(cfg: ExperimentConfig) -> list[list]:
    """Error-vs-iteration curves of refined recovery for each initializer.

    Gaussian paired sensing; ``--model`` sets the intensity noise (identity
    for the noiseless baseline, clipgauss:sigma=... for one-sided Gaussian
    readout noise).
    """
    return _convergence_rows(cfg, _gaussian_pairs)


def _cdp_trial(cfg: ExperimentConfig, trial: int):
    n, r = cfg.n, _or(cfg.ratio, EXPERIMENTS[cfg.kind].ratio)
    op1 = build_cdp_operator(n, r, _trial_seed(cfg.seed, "cdp-masks-1", trial))
    op2 = build_cdp_operator(n, r, _trial_seed(cfg.seed, "cdp-masks-2", trial))
    op_all = CdpOperator(np.vstack([op1.masks, op2.masks]))
    # unnormalized: per-coordinate masked-DFT intensities then have mean
    # ||x0||^2/n ~ 1, the same scale the noise sigmas are calibrated against
    x0 = sample_complex_gaussian(n, substream(cfg.seed, "signal", trial))
    return op1, op2, op_all, x0, intensities(op1, x0), intensities(op2, x0)


def run_cdp_convergence(cfg: ExperimentConfig) -> list[list]:
    """Like :func:`run_altmin_convergence`, with masked-DFT sensing.

    Each trial draws ``ratio`` mask pairs; pairing is coordinate-wise across
    the two masked DFTs, giving n one-bit values per mask pair.  The least
    squares step of :meth:`CdpOperator.lsq_solve` exploits the diagonal normal
    matrix of unitary DFT blocks.
    The signal is left unnormalized so per-coordinate intensities keep unit
    scale and ``--model`` noise levels mean the same thing as for Gaussian
    sensing.
    """
    return _convergence_rows(cfg, _cdp_trial)


# ---------------------------------------------------------------------------
# single-shot recovery


def run_recover(cfg: ExperimentConfig) -> tuple[list[list], list[str]]:
    """One full pipeline run: sense, quantize, initialize, refine.

    Returns the per-iteration trace rows and console summary lines.  Each
    init kind runs once, on the data the refinement starts from: the full
    ensemble, or block 0 of the resampled schedule.  With several kinds the
    phase-consistency residual on that data picks the one to refine.
    """
    model = parse_model(cfg.model)
    kinds = [parse_init(name) for name in cfg.inits]
    layout = "interleaved" if cfg.refine == "resampled" else "stacked"
    op1, op2, op_all, x0, b1c, b2c = _gaussian_pairs(cfg, 0, layout)
    b1, b2, y = observe_pairs(model, b1c, b2c, substream(cfg.seed, "noise", 0))
    if cfg.refine == "resampled":
        init_args, stages = resample_blocks(op_all, b1, b2, y, cfg.epsilon)
    else:
        b_all = np.concatenate([b1, b2])
        init_args = (op1, op2, b1, b2, y, (op_all, b_all))

    inits = {kind: _init(kind, *init_args, cfg, 0) for kind in kinds}
    candidates = [(kind, rep.estimate) for kind, rep in inits.items()]
    chosen_kind, x_init = multi_init_select(candidates, *init_args[-1])

    rows: list[list] = []
    if cfg.refine == "none":
        rows.append(["init", 0, dist_sq(x_init, x0)])
        final = x_init
        report = None
    elif cfg.refine == "altmin":
        rows.append(["init", 0, dist_sq(x_init, x0)])
        report = alt_min(
            op_all,
            b_all,
            x_init,
            max_iters=_or(cfg.max_iters, 200),
            tol=_or(cfg.tol, 1e-12),
            callback=lambda k, x: rows.append(["altmin", k, dist_sq(x, x0)]),
        )
        final = report.estimate
    else:
        # stage 0 of the trace is the block-0 init
        report = alt_min_resampled(
            stages,
            x_init,
            callback=lambda t, x: rows.append(["resampled", t, dist_sq(x, x0)]),
        )
        final = report.estimate

    summary = [
        f"model: {format_model(model)}",
        f"init: {chosen_kind.value} (of {', '.join(k.value for k in kinds)})",
        f"init dist_sq: {dist_sq(x_init, x0)!r}",
        f"init lambda_hat: {inits[chosen_kind].lambda_hat!r}",
        f"init converged: {inits[chosen_kind].converged}",
        f"refine: {cfg.refine}",
        f"final dist_sq: {dist_sq(final, x0)!r}",
    ]
    if report is not None:
        summary.append(f"iterations: {report.iterations}")
        summary.append(f"converged: {report.converged}")
    return rows, summary


# ---------------------------------------------------------------------------
# dispatch and serialization


@dataclass(frozen=True)
class Experiment:
    """One experiment kind.  Its subcommand takes ``--seed``, ``--out`` and a
    flag per config field the runner reads (``fields``), with defaults ``n``
    and ``inits``; ``ratio`` is the pairs (or mask pairs) per signal dimension
    of a config that sets neither m nor ratio."""

    runner: Callable[[ExperimentConfig], tuple[list[list], list[str]]]
    header: list[str]
    out: str
    help: str
    fields: tuple[str, ...]
    n: int = 0
    ratio: Optional[int] = None
    inits: tuple = ALL_INITS


def _rows_only(runner):
    return lambda cfg: (runner(cfg), [])


EXPERIMENTS = {
    "lambda-sweep": Experiment(
        _rows_only(run_lambda_sweep),
        header=["model", "param", "lambda_estimate", "std_error", "closed_form"],
        out="lambda_sweep.csv",
        help="Monte-Carlo channel constants over the model grids",
        fields=("samples", "alphas", "sigmas", "etas"),
    ),
    "distortion-sweep": Experiment(
        _rows_only(run_distortion_sweep),
        header=["alpha", "method", "median_dist_sq", "iqr", "trials"],
        out="distortion_sweep.csv",
        help="spectral recovery error under tanh distortion",
        fields=("n", "m", "ratio", "trials", "tol", "max_iters", "alphas"),
        n=128, ratio=64,
    ),
    "recover": Experiment(
        run_recover,
        header=["stage", "iteration", "dist_sq"],
        out="recover_trace.csv",
        help="single-shot recovery pipeline with a trace CSV",
        fields=("n", "m", "ratio", "model", "inits", "epsilon", "tol", "max_iters", "refine"),
        n=64, ratio=16, inits=("onebit",),
    ),
    "altmin-convergence": Experiment(
        _rows_only(run_altmin_convergence),
        header=["init", "iteration", "median_dist_sq"],
        out="altmin_convergence.csv",
        help="error-vs-iteration curves, Gaussian sensing",
        fields=("n", "m", "ratio", "model", "inits", "trials", "tol", "max_iters"),
        n=512, ratio=4,
    ),
    "cdp-convergence": Experiment(
        _rows_only(run_cdp_convergence),
        header=["init", "iteration", "median_dist_sq"],
        out="cdp_convergence.csv",
        help="error-vs-iteration curves, masked-DFT sensing",
        fields=("n", "ratio", "model", "inits", "trials", "tol", "max_iters"),
        n=256, ratio=4,
    ),
}


def run(cfg: ExperimentConfig) -> tuple[list[str], list[list], list[str]]:
    """Run a validated config; returns (header, rows, summary lines)."""
    validate_config(cfg)
    spec = EXPERIMENTS[cfg.kind]
    rows, summary = spec.runner(cfg)
    return spec.header, rows, summary


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def manifest_path(csv_path) -> Path:
    return Path(str(csv_path) + ".manifest.json")


def write_manifest(cfg: ExperimentConfig, csv_path) -> Path:
    payload = {"artifact_version": __version__, "config": cfg.to_dict()}
    path = manifest_path(csv_path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def write_outputs(cfg: ExperimentConfig) -> tuple[Path, Path, list[str]]:
    """Run the experiment and write its CSV plus reproduction manifest."""
    header, rows, summary = run(cfg)
    out = Path(_or(cfg.out, EXPERIMENTS[cfg.kind].out))
    write_csv(out, header, rows)
    mpath = write_manifest(cfg, out)
    return out, mpath, summary


def load_manifest(path) -> ExperimentConfig:
    payload = json.loads(Path(path).read_text())
    return ExperimentConfig.from_dict(payload["config"])


def run_manifest(path, out: Optional[str] = None) -> tuple[Path, Path, list[str]]:
    """Re-run a recorded experiment, optionally redirecting the CSV."""
    cfg = load_manifest(path)
    if out is not None:
        cfg = replace(cfg, out=out)
    return write_outputs(cfg)
