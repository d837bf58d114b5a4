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
from typing import Optional, Sequence

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
from .numkit import dist_sq
from .recovery import (
    InitKind,
    alt_min,
    alt_min_resampled,
    cdp_lsq_solver,
    dense_lsq_solver,
    initial_estimate,
    multi_init_select,
    one_bit_terms,
    parse_init,
    spectral_estimate,
)
from .sensing import (
    CdpOperator,
    MatrixOperator,
    build_cdp_operator,
    build_paired_ensemble,
    intensities,
    paired_intensities,
    substream,
)


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


KINDS = (
    "lambda-sweep",
    "distortion-sweep",
    "recover",
    "altmin-convergence",
    "cdp-convergence",
)

HEADERS = {
    "lambda-sweep": ["model", "param", "lambda_estimate", "std_error", "closed_form"],
    "distortion-sweep": ["alpha", "method", "median_dist_sq", "iqr", "trials"],
    "recover": ["stage", "iteration", "dist_sq"],
    "altmin-convergence": ["init", "iteration", "median_dist_sq"],
    "cdp-convergence": ["init", "iteration", "median_dist_sq"],
}

_DEFAULT_OUT = {
    "lambda-sweep": "lambda_sweep.csv",
    "distortion-sweep": "distortion_sweep.csv",
    "recover": "recover_trace.csv",
    "altmin-convergence": "altmin_convergence.csv",
    "cdp-convergence": "cdp_convergence.csv",
}

# pairs (or mask pairs) per signal dimension when --m/--ratio are omitted
_DEFAULT_RATIO = {
    "distortion-sweep": 64,
    "recover": 16,
    "altmin-convergence": 4,
    "cdp-convergence": 4,
}

_DEFAULT_N = {
    "lambda-sweep": 0,
    "distortion-sweep": 128,
    "recover": 64,
    "altmin-convergence": 512,
    "cdp-convergence": 256,
}

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
    shift: bool = False
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
        for key in ("inits", "alphas", "sigmas", "etas"):
            if key in d and d[key] is not None:
                d[key] = tuple(d[key])
        return cls(**d)


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.kind not in KINDS:
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


def _pairs(cfg: ExperimentConfig) -> int:
    if cfg.m is not None:
        return cfg.m
    ratio = cfg.ratio if cfg.ratio is not None else _DEFAULT_RATIO[cfg.kind]
    return ratio * cfg.n


def _tol(cfg: ExperimentConfig, default: float) -> float:
    return cfg.tol if cfg.tol is not None else default


def _max_iters(cfg: ExperimentConfig, default: int) -> int:
    return cfg.max_iters if cfg.max_iters is not None else default


def _trial_seed(master: int, tag: str, index: int) -> int:
    return int(substream(master, tag, index).integers(0, 2**63))


def _unit_signal(n: int, rng) -> np.ndarray:
    v = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
    return v / np.linalg.norm(v)


def _cdp_signal(n: int, rng) -> np.ndarray:
    # unnormalized: per-coordinate masked-DFT intensities then have mean
    # ||x0||^2/n ~ 1, the same scale the noise sigmas are calibrated against
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)


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

    Ensembles, signals and power-iteration streams depend only on the trial
    index, never on alpha.  The sign-based method reads only the clean
    intensities, so it runs once per trial and its column is bit-identical
    across the sweep while the intensity-weighted method degrades.
    """
    n = cfg.n
    m = _pairs(cfg)
    tol = _tol(cfg, 1e-8)
    iters = _max_iters(cfg, 1000)
    err_bit = {a: [] for a in cfg.alphas}
    err_sub = {a: [] for a in cfg.alphas}
    for t in range(cfg.trials):
        ens = build_paired_ensemble(n, m, _trial_seed(cfg.seed, "ensemble", t))
        x0 = _unit_signal(n, substream(cfg.seed, "signal", t))
        b1, b2 = paired_intensities(ens, x0)
        b_all = np.concatenate([b1, b2])
        _, _, y = observe_pairs(Identity(), b1, b2)
        terms = one_bit_terms(MatrixOperator(ens.rows1), MatrixOperator(ens.rows2), y)
        seed_bit = substream(cfg.seed, "power-bit", t)
        rep = spectral_estimate(terms, tol, iters, seed_bit, cfg.shift)
        bit = dist_sq(rep.estimate, x0)
        op_all = MatrixOperator(ens.stacked_rows())
        for alpha in cfg.alphas:
            model = TanhDistortion(alpha)
            err_bit[alpha].append(bit)
            term_sub = (op_all, apply_model(model, b_all))
            seed_sub = substream(cfg.seed, "power-sub", t)
            rep_sub = spectral_estimate([term_sub], tol, iters, seed_sub)
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
    return initial_estimate(kind, op1, op2, b1, b2, y, stacked, seed, shift=cfg.shift)


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
    operator, the signal, its clean pair intensities and the exact LS solver
    of the stacked operator.  One-bit inits quantize the observed intensities,
    and the weighted variant draws its ratio weights from the same values.
    """
    model = parse_model(cfg.model)
    kinds = [parse_init(name) for name in cfg.inits]
    iters = _max_iters(cfg, 100)
    tol = _tol(cfg, 1e-12)
    curves: dict[InitKind, list[list[float]]] = {k: [] for k in kinds}
    for t in range(cfg.trials):
        op1, op2, op_all, x0, b1c, b2c, solver = setup(cfg, t)
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
                lsq_solver=solver,
                callback=lambda k, x: errs.append(dist_sq(x, x0)),
            )
            curves[kind].append(errs)
    rows = []
    for kind in kinds:
        medians = _median_curves(curves[kind])
        for it, value in enumerate(medians):
            rows.append([kind.value, it, value])
    return rows


def _gaussian_trial(cfg: ExperimentConfig, trial: int):
    ens = build_paired_ensemble(cfg.n, _pairs(cfg), _trial_seed(cfg.seed, "ensemble", trial))
    x0 = _unit_signal(cfg.n, substream(cfg.seed, "signal", trial))
    b1c, b2c = paired_intensities(ens, x0)
    rows_all = ens.stacked_rows()
    op1, op2 = MatrixOperator(ens.rows1), MatrixOperator(ens.rows2)
    return op1, op2, MatrixOperator(rows_all), x0, b1c, b2c, dense_lsq_solver(rows_all)


def run_altmin_convergence(cfg: ExperimentConfig) -> list[list]:
    """Error-vs-iteration curves of refined recovery for each initializer.

    Gaussian paired sensing; ``--model`` sets the intensity noise (identity
    for the noiseless baseline, clipgauss:sigma=... for one-sided Gaussian
    readout noise).
    """
    return _convergence_rows(cfg, _gaussian_trial)


def _cdp_trial(cfg: ExperimentConfig, trial: int):
    n = cfg.n
    r = cfg.ratio if cfg.ratio is not None else _DEFAULT_RATIO["cdp-convergence"]
    op1 = build_cdp_operator(n, r, _trial_seed(cfg.seed, "cdp-masks-1", trial))
    op2 = build_cdp_operator(n, r, _trial_seed(cfg.seed, "cdp-masks-2", trial))
    op_all = CdpOperator(np.vstack([op1.masks, op2.masks]))
    x0 = _cdp_signal(n, substream(cfg.seed, "signal", trial))
    b1c = intensities(op1, x0)
    b2c = intensities(op2, x0)
    return op1, op2, op_all, x0, b1c, b2c, cdp_lsq_solver(op_all)


def run_cdp_convergence(cfg: ExperimentConfig) -> list[list]:
    """Like :func:`run_altmin_convergence`, with masked-DFT sensing.

    Each trial draws ``ratio`` mask pairs; pairing is coordinate-wise across
    the two masked DFTs, giving n one-bit values per mask pair.  The least
    squares step exploits the diagonal normal matrix of unitary DFT blocks.
    The signal is left unnormalized so per-coordinate intensities keep unit
    scale and ``--model`` noise levels mean the same thing as for Gaussian
    sensing.
    """
    return _convergence_rows(cfg, _cdp_trial)


# ---------------------------------------------------------------------------
# single-shot recovery


def run_recover(cfg: ExperimentConfig) -> tuple[list[list], list[str]]:
    """One full pipeline run: sense, quantize, initialize, refine.

    Returns the per-iteration trace rows and console summary lines.  With
    several init kinds the phase-consistency residual picks the one to
    refine.
    """
    model = parse_model(cfg.model)
    kinds = [parse_init(name) for name in cfg.inits]
    n = cfg.n
    m = _pairs(cfg)
    ens = build_paired_ensemble(n, m, _trial_seed(cfg.seed, "ensemble", 0))
    x0 = _unit_signal(n, substream(cfg.seed, "signal", 0))
    b1c, b2c = paired_intensities(ens, x0)
    b1, b2, y = observe_pairs(model, b1c, b2c, substream(cfg.seed, "noise", 0))
    rows_all = ens.stacked_rows()
    b_all = np.concatenate([b1, b2])
    op1, op2 = MatrixOperator(ens.rows1), MatrixOperator(ens.rows2)
    op = MatrixOperator(rows_all)

    candidates = []
    lambda_hats = {}
    for kind in kinds:
        rep = _init(kind, op1, op2, b1, b2, y, (op, b_all), cfg, 0)
        candidates.append((kind, rep.estimate))
        lambda_hats[kind] = rep.lambda_hat
    chosen_kind, x_init = multi_init_select(candidates, op, b_all)

    rows: list[list] = []
    tol = _tol(cfg, 1e-12)
    if cfg.refine == "none":
        rows.append(["init", 0, dist_sq(x_init, x0)])
        final = x_init
        report = None
    elif cfg.refine == "altmin":
        rows.append(["init", 0, dist_sq(x_init, x0)])
        report = alt_min(
            op,
            b_all,
            x_init,
            max_iters=_max_iters(cfg, 200),
            tol=tol,
            lsq_solver=dense_lsq_solver(rows_all),
            callback=lambda k, x: rows.append(["altmin", k, dist_sq(x, x0)]),
        )
        final = report.estimate
    else:
        # Staged refinement draws its own initializer from block 0; stage 0
        # of the trace is that initial estimate.
        b_inter = np.empty(2 * m)
        b_inter[0::2] = b1
        b_inter[1::2] = b2
        report = alt_min_resampled(
            ens,
            b_inter,
            cfg.epsilon,
            init=chosen_kind,
            tol=1e-10,
            seed=cfg.seed,
            shift=cfg.shift,
            callback=lambda t, x: rows.append(["resampled", t, dist_sq(x, x0)]),
        )
        final = report.estimate

    summary = [
        f"model: {format_model(model)}",
        f"init: {chosen_kind.value} (of {', '.join(k.value for k in kinds)})",
        f"init dist_sq: {dist_sq(x_init, x0)!r}",
        f"init lambda_hat: {lambda_hats[chosen_kind]!r}",
        f"refine: {cfg.refine}",
        f"final dist_sq: {dist_sq(final, x0)!r}",
    ]
    if report is not None:
        summary.append(f"iterations: {report.iterations}")
        summary.append(f"converged: {report.converged}")
    return rows, summary


# ---------------------------------------------------------------------------
# dispatch and serialization


def run(cfg: ExperimentConfig) -> tuple[list[str], list[list], list[str]]:
    """Run a validated config; returns (header, rows, summary lines)."""
    validate_config(cfg)
    header = HEADERS[cfg.kind]
    if cfg.kind == "lambda-sweep":
        return header, run_lambda_sweep(cfg), []
    if cfg.kind == "distortion-sweep":
        return header, run_distortion_sweep(cfg), []
    if cfg.kind == "altmin-convergence":
        return header, run_altmin_convergence(cfg), []
    if cfg.kind == "cdp-convergence":
        return header, run_cdp_convergence(cfg), []
    rows, summary = run_recover(cfg)
    return header, rows, summary


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
    out = Path(cfg.out if cfg.out is not None else _DEFAULT_OUT[cfg.kind])
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
