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
import numbers
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence, Union, get_args, get_origin, get_type_hints

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
    model_family,
    observe_pairs,
    parse_model,
)
from .numkit import distance_to, sample_complex_gaussian
from .recovery import (
    INIT_KINDS,
    DegenerateDataError,
    alt_min_many,
    alt_min_resampled,
    factor_ahead,
    initial_estimate,
    multi_init_select,
    random_init,
    resample_blocks,
    resampled_schedule,
)
from .sensing import (
    build_paired_cdp,
    build_paired_ensemble,
    intensities,
    substream,
)


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


ALPHAS = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
REFINE_MODES = ("altmin", "resampled", "none")


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, serializable description of one benchmark run, valid once
    built.  A setting the run reads and leaves ``None`` takes its kind's
    default from :data:`EXPERIMENTS` when the config is built; the others
    stay ``None`` (``trials=1`` too, on a kind that does not read
    ``trials``).  :class:`ConfigError`, the one error that refuses a
    config, is raised for a set value not of its annotated type (see
    :func:`_has_type`; a JSON integer read as a float is kept as it is),
    then, once ``inits`` is stripped and case folded, by range checks on
    every set value, then for a set value the run does not read (the
    message lists :meth:`reads`), then by checks across settings.  Since
    the defaults are filled at build time, ``dataclasses.replace`` keeps
    the old ``refine`` mode's filled settings, which the new mode may not
    read: to change ``refine``, build a fresh config."""

    kind: str
    n: Optional[int] = None
    m: Optional[int] = None
    ratio: Optional[int] = None
    model: Optional[str] = None
    epsilon: Optional[float] = None
    trials: Optional[int] = None
    seed: int = 0
    tol: Optional[float] = None
    max_iters: Optional[int] = None
    inits: Optional[tuple[str, ...]] = None
    refine: Optional[str] = None
    samples: Optional[int] = None
    alphas: Optional[tuple[float, ...]] = None
    sigmas: Optional[tuple[float, ...]] = None
    etas: Optional[tuple[float, ...]] = None
    out: Optional[str] = None

    def __post_init__(self):
        for name, hint in _TYPES.items():
            value = getattr(self, name)
            if value is not None and not _has_type(value, hint, name):
                what = hint if get_origin(hint) else hint.__name__
                raise ConfigError(f"{name} must be of type {what}; got {value!r}")
        if self.inits is not None:
            object.__setattr__(self, "inits", tuple(k.strip().lower() for k in self.inits))
        if self.kind not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        spec = EXPERIMENTS[self.kind]
        for name in spec.reads(self.refine):
            if getattr(self, name) is None:
                object.__setattr__(self, name, spec.fields[name])
        if self.trials == 1 and "trials" not in spec.fields:
            object.__setattr__(self, "trials", None)
        # a check may raise a library ValueError: a model range, a schedule
        try:
            for name, (ok, rule) in _RANGES.items():
                value = getattr(self, name)
                if value is not None and not ok(value):
                    raise ConfigError(f"{name} {rule}; got {value!r}")
            if self.model is not None:
                parse_model(self.model)

            reads = self.reads()
            run = f"{self.kind} with refine={self.refine}" if "refine" in reads else self.kind
            for name, value in vars(self).items():
                if value is not None and name not in ("kind", "seed", "out", *reads):
                    raise ConfigError(f"{run} does not read {name}; it reads {', '.join(reads)}")

            if self.kind == "distortion-sweep" and not self.alphas:
                raise ConfigError("distortion-sweep needs at least one alpha")
            refines = self.kind == "altmin-convergence" or self.refine == "altmin"
            if refines and 2 * _pairs(self) < self.n:
                raise ConfigError(
                    f"the least-squares step needs at least n = {self.n} measurements "
                    f"(2 per pair); got {2 * _pairs(self)}"
                )
            if self.refine == "resampled":
                resampled_schedule(2 * _pairs(self), self.n, self.epsilon)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def reads(self) -> tuple[str, ...]:
        """The settings this run reads."""
        return EXPERIMENTS[self.kind].reads(self.refine)

    def to_dict(self) -> dict:
        """``kind``, ``seed``, ``out`` and the settings the run reads."""
        return {name: getattr(self, name) for name in ("kind", "seed", "out", *self.reads())}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Inverse of :meth:`to_dict`.  Keys the run does not read are
        dropped: older manifests record every field and a ``shift``."""
        if not isinstance(d, dict) or not isinstance(d.get("kind"), str):
            raise ConfigError(f"a config is an object with a string kind; got {d!r}")
        spec = EXPERIMENTS.get(d["kind"])  # an unknown kind fails in the build
        keep = ("kind", "seed", "out", *(spec.reads(d.get("refine")) if spec else ()))
        d = {key: d[key] for key in keep if key in d}
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})


# each setting's annotated type, without its Optional
_TYPES = {
    name: get_args(hint)[0] if get_origin(hint) is Union else hint
    for name, hint in get_type_hints(ExperimentConfig).items()
}
_TAKES = {int: numbers.Integral, float: numbers.Real, str: str}


def _has_type(value, hint, name: str = "") -> bool:
    """A ``_TAKES[hint]`` value and no bool; an int but ``seed`` (whose low 64
    bits :func:`substream` reads) fits in int64, and a float converts to one."""
    if get_origin(hint) is tuple:
        return isinstance(value, tuple) and all(_has_type(v, get_args(hint)[0]) for v in value)
    if isinstance(value, bool) or not isinstance(value, _TAKES[hint]):
        return False
    if hint is float:
        try:
            float(value)
        except OverflowError:
            return False
    return hint is not int or name == "seed" or -(2**63) <= value < 2**63


def _grid_of(model):
    return lambda v: len(set(v)) == len(v) and all(map(model, v))


# setting -> the test a set value must pass, and the rule it states
_RANGES = {
    "n": (lambda v: v > 0, "must be positive"),
    "trials": (lambda v: v >= 1, "must be at least 1"),
    "samples": (lambda v: v >= 1000, "must be at least 1000"),
    "epsilon": (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    "refine": (lambda v: v in REFINE_MODES, "must be " + ", ".join(REFINE_MODES)),
    "m": (lambda v: v > 0, "must be positive"),
    "ratio": (lambda v: v > 0, "must be positive"),
    "max_iters": (lambda v: v >= 1, "must be at least 1"),
    "inits": (lambda v: 0 < len(v) == len(set(v)) and set(v) <= set(INIT_KINDS),
              "must name at least one init kind, each once, from " + ", ".join(INIT_KINDS)),
    "tol": (lambda v: 0 <= v < np.inf, "must be finite and non-negative"),
    "alphas": (_grid_of(TanhDistortion), "must be distinct"),
    "sigmas": (_grid_of(ExponentialNoise), "must be distinct"),
    "etas": (_grid_of(PoissonNoise), "must be distinct"),
}


def _pairs(cfg: ExperimentConfig) -> int:
    return cfg.ratio * cfg.n if cfg.m is None else cfg.m


def _trial_seed(master: int, tag: str, index: int) -> int:
    return int(substream(master, tag, index).integers(0, 2**63))


def _gaussian_pairs(cfg: ExperimentConfig, trial: int):
    """Operator over all rows, its pair slices, unit signal and clean
    intensities of a Gaussian trial."""
    seed = _trial_seed(cfg.seed, "ensemble", trial)
    op, pairs = build_paired_ensemble(cfg.n, _pairs(cfg), seed)
    x0 = random_init(cfg.n, substream(cfg.seed, "signal", trial))
    return op, pairs, x0, intensities(op, x0)


def _cdp_trial(cfg: ExperimentConfig, trial: int):
    """The same for masked-DFT sensing: ``ratio`` mask pairs, one operator
    over both mask families stacked, and pair k compares output k of family
    1 with output k of family 2 (n one-bit values per mask pair).  The
    signal is unnormalized, so per-coordinate intensities have mean
    ||x0||^2/n ~ 1, the scale the ``--model`` noise levels assume."""
    seeds = [_trial_seed(cfg.seed, f"cdp-masks-{k}", trial) for k in (1, 2)]
    op, pairs = build_paired_cdp(cfg.n, cfg.ratio, seeds)
    x0 = sample_complex_gaussian(cfg.n, substream(cfg.seed, "signal", trial))
    return op, pairs, x0, intensities(op, x0)


def _observed_trial(cfg: ExperimentConfig, trial: int, builder, model):
    """Operator, pair slices, distance to the signal, and observed ``b`` and
    ``y`` of a ``builder`` trial seen through ``model`` (noise from the
    trial's "noise" stream).  An all-zero ``b`` raises DegenerateDataError."""
    op, pairs, x0, b_clean = builder(cfg, trial)
    b, y = observe_pairs(model, b_clean, pairs, substream(cfg.seed, "noise", trial))
    if not b.any():
        raise DegenerateDataError(f"every observed intensity is zero under {format_model(model)}")
    return op, pairs, distance_to(x0), b, y


def _usable_trials(cfg: ExperimentConfig, trial: Callable[[int], object]):
    """``trial(t)`` for each of the config's trials, skipping a trial whose
    data is degenerate (:class:`DegenerateDataError`), so the init kinds
    still compare on the same trials.

    Returns the results of the trials kept and the summary lines: none when
    every trial is kept, else one that counts the skipped trials.  When
    every trial is skipped, the first trial's error is raised.
    """
    results, first = [], None
    for t in range(cfg.trials):
        try:
            results.append(trial(t))
        except DegenerateDataError as exc:
            first = first or exc
    if not results:
        raise first
    skipped = cfg.trials - len(results)
    if not skipped:
        return results, []
    return results, [f"skipped trials: {skipped} of {cfg.trials}, on degenerate data ({first})"]


# ---------------------------------------------------------------------------
# lambda sweep


def run_lambda_sweep(cfg: ExperimentConfig) -> tuple[list[list], list[str]]:
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
        rows.append([*model_family(model), est, se, closed])
    return rows, []


# ---------------------------------------------------------------------------
# distortion sweep


def run_distortion_sweep(cfg: ExperimentConfig) -> tuple[list[list], list[str]]:
    """Median recovery error of both spectral methods under tanh distortion.

    Ensembles, signals and Lanczos start vectors depend only on the trial
    index, never on alpha.  The sign-based method reads only the clean
    intensities, so it runs once per trial and its one column of errors
    serves every alpha while the intensity-weighted method degrades.  The
    ``trials`` column counts the trials used: a trial with degenerate data
    is skipped (:func:`_usable_trials`).
    """
    def trial(t: int) -> tuple[float, list[float]]:
        op, pairs, dist, b, y = _observed_trial(cfg, t, _gaussian_pairs, Identity())
        seed_bit = substream(cfg.seed, "power-bit", t)
        rep = initial_estimate("onebit", op, b, y, pairs, seed_bit, cfg.tol, cfg.max_iters)
        err_sub = []
        for alpha in cfg.alphas:
            distorted = apply_model(TanhDistortion(alpha), b)
            # one per alpha: default_rng(g) returns g itself, so a shared g would move on
            seed_sub = substream(cfg.seed, "power-sub", t)
            rep_sub = initial_estimate(
                "subexp", op, distorted, y, pairs, seed_sub, cfg.tol, cfg.max_iters
            )
            err_sub.append(dist(rep_sub.estimate))
        return dist(rep.estimate), err_sub

    results, summary = _usable_trials(cfg, trial)
    err_bit = [bit for bit, _ in results]
    rows = []
    for k, alpha in enumerate(cfg.alphas):
        err_sub = [sub[k] for _, sub in results]
        for method, errs in (("1bitPhase", err_bit), ("SubExpPhase", err_sub)):
            arr = np.asarray(errs)
            q25, q50, q75 = np.percentile(arr, [25.0, 50.0, 75.0])
            rows.append([alpha, method, float(q50), float(q75 - q25), len(results)])
    return rows, summary


# ---------------------------------------------------------------------------
# shared recovery plumbing


_INIT_STREAMS = {
    "random": "init-random",
    "subexp": "init-subexp",
    "onebit": "init-onebit",
    "weighted1bit": "init-weighted",
}


def _init(kind: str, op, b, y, pairs, cfg, trial: int):
    """Init estimate of trial ``trial``, seeded from the kind's own stream."""
    seed = substream(cfg.seed, _INIT_STREAMS[kind], trial)
    return initial_estimate(kind, op, b, y, pairs, seed)


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


def _convergence_rows(builder, cfg: ExperimentConfig) -> tuple[list[list], list[str]]:
    """Median error-vs-iteration curve of alt-min from each init kind, on
    the trials of ``builder`` (see :func:`_observed_trial`).

    ``--model`` sets the intensity noise: identity for the noiseless
    baseline, clipgauss:sigma=... for one-sided Gaussian readout noise.
    One-bit inits quantize the observed intensities, and the weighted
    variant draws its ratio weights from the same values.  Each kind has
    its own seed stream, so a trial computes every init first and then
    refines them all in one :func:`alt_min_many` call.  A trial with
    degenerate data is skipped for every kind (:func:`_usable_trials`).
    """
    model = parse_model(cfg.model)

    def trial(t: int) -> list[list[float]]:
        op, pairs, dist, b, y = _observed_trial(cfg, t, builder, model)
        starts = [_init(kind, op, b, y, pairs, cfg, t).estimate for kind in cfg.inits]
        errs = [[dist(x)] for x in starts]
        alt_min_many(
            op,
            b,
            starts,
            max_iters=cfg.max_iters,
            tol=cfg.tol,
            callback=lambda run, k, x: errs[run].append(dist(x)),
        )
        return errs

    per_trial, summary = _usable_trials(cfg, trial)
    rows = []
    for k, kind in enumerate(cfg.inits):
        medians = _median_curves([errs[k] for errs in per_trial])
        for it, value in enumerate(medians):
            rows.append([kind, it, value])
    return rows, summary


# ---------------------------------------------------------------------------
# single-shot recovery


def run_recover(cfg: ExperimentConfig) -> tuple[list[list], list[str]]:
    """One full pipeline run: sense, quantize, initialize, refine.

    Returns the per-iteration trace rows and console summary lines.  Each
    init kind runs once, on the data the refinement starts from: the full
    ensemble, or block 0 of the resampled schedule.  With several kinds the
    phase-consistency residual on that data picks the one to refine.  Under
    ``resampled``, when BLAS runs on fewer threads than the process has
    cores, the stages are factored on a second thread while the inits run
    (:func:`~onebitphase.recovery.factor_ahead`); that changes no byte of
    the rows or summary.
    """
    model = parse_model(cfg.model)
    op, pairs, dist, b, y = _observed_trial(cfg, 0, _gaussian_pairs, model)
    data, stages = (op, b, y, pairs), []
    if cfg.refine == "resampled":
        data, stages = resample_blocks(op, b, y, cfg.epsilon)

    with factor_ahead(stages) as stages:
        inits = [_init(kind, *data, cfg, 0) for kind in cfg.inits]
        chosen = multi_init_select(data[0], data[1], [rep.estimate for rep in inits])
        x_init = inits[chosen].estimate

        # stage 0 is the chosen init: under resampled, the block-0 init
        label = "resampled" if cfg.refine == "resampled" else "init"
        rows: list[list] = [[label, 0, dist(x_init)]]
        report = None
        if cfg.refine == "altmin":
            report = alt_min_many(
                op,
                b,
                [x_init],
                max_iters=cfg.max_iters,
                tol=cfg.tol,
                callback=lambda run, k, x: rows.append(["altmin", k, dist(x)]),
            )[0]
        elif cfg.refine == "resampled":
            report = alt_min_resampled(
                stages, x_init, callback=lambda t, x: rows.append(["resampled", t, dist(x)])
            )
    final = x_init if report is None else report.estimate

    summary = [
        f"model: {format_model(model)}",
        f"init: {cfg.inits[chosen]} (of {', '.join(cfg.inits)})",
        f"init dist_sq: {rows[0][2]!r}",
        f"init lambda_hat: {inits[chosen].lambda_hat!r}",
        f"init converged: {inits[chosen].converged}",
        f"refine: {cfg.refine}",
        f"final dist_sq: {dist(final)!r}",
    ]
    if report is not None:
        summary.append(f"iterations: {report.iterations}")
        summary.append(f"converged: {report.converged}")
    return rows, summary


# ---------------------------------------------------------------------------
# dispatch and serialization


@dataclass(frozen=True)
class Experiment:
    """One experiment kind.  ``fields`` maps each setting its runner reads to
    the default a config fills in when it leaves the setting unset; the
    default ``m`` of None sizes a run by ``ratio`` pairs (or mask pairs) per
    signal dimension.  ``modes`` maps a setting that only one refine mode
    reads to that mode.  The kind's subcommand takes ``--seed``, ``--out``
    and a flag per setting in ``fields``."""

    runner: Callable[[ExperimentConfig], tuple[list[list], list[str]]]
    header: list[str]
    out: str
    help: str
    fields: dict
    modes: dict = field(default_factory=dict)

    def reads(self, refine: Optional[str] = None) -> tuple[str, ...]:
        """The settings a run reads under ``refine`` (None: the default mode)."""
        refine = refine or self.fields.get("refine")
        return tuple(f for f in self.fields if self.modes.get(f, refine) == refine)


_CONVERGENCE = dict(model="identity", inits=INIT_KINDS, trials=20, tol=1e-12, max_iters=100)

EXPERIMENTS = {
    "lambda-sweep": Experiment(
        run_lambda_sweep,
        header=["model", "param", "lambda_estimate", "std_error", "closed_form"],
        out="lambda_sweep.csv",
        help="Monte-Carlo channel constants over the model grids",
        fields=dict(
            samples=1_000_000, alphas=ALPHAS, sigmas=(0.25, 0.5, 1.0, 2.0, 4.0),
            etas=(0.5, 1.0, 2.0, 4.0),
        ),
    ),
    "distortion-sweep": Experiment(
        run_distortion_sweep,
        header=["alpha", "method", "median_dist_sq", "iqr", "trials"],
        out="distortion_sweep.csv",
        help="spectral recovery error under tanh distortion",
        fields=dict(n=128, m=None, ratio=64, trials=20, tol=1e-8, max_iters=1000, alphas=ALPHAS),
    ),
    "recover": Experiment(
        run_recover,
        header=["stage", "iteration", "dist_sq"],
        out="recover_trace.csv",
        help="single-shot recovery pipeline with a trace CSV",
        fields=dict(
            n=64, m=None, ratio=16, model="identity", inits=("onebit",), epsilon=0.25,
            tol=1e-12, max_iters=200, refine="altmin",
        ),
        modes=dict(epsilon="resampled", tol="altmin", max_iters="altmin"),
    ),
    "altmin-convergence": Experiment(
        partial(_convergence_rows, _gaussian_pairs),
        header=["init", "iteration", "median_dist_sq"],
        out="altmin_convergence.csv",
        help="error-vs-iteration curves, Gaussian sensing",
        fields=dict(n=512, m=None, ratio=4, **_CONVERGENCE),
    ),
    "cdp-convergence": Experiment(
        partial(_convergence_rows, _cdp_trial),
        header=["init", "iteration", "median_dist_sq"],
        out="cdp_convergence.csv",
        help="error-vs-iteration curves, masked-DFT sensing",
        fields=dict(n=256, ratio=4, **_CONVERGENCE),
    ),
}


def run(cfg: ExperimentConfig) -> tuple[list[str], list[list], list[str]]:
    """Run a config; returns (header, rows, summary lines)."""
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
    """Run the experiment and write its CSV plus reproduction manifest.  A
    CSV or manifest path that is a directory, or a CSV path whose parent is
    not one, is refused before the run."""
    out = Path(cfg.out or EXPERIMENTS[cfg.kind].out)
    for path in (out, manifest_path(out)):
        if path.is_dir():
            raise ConfigError(f"cannot write {str(path)!r}: it is a directory")
    if not out.parent.is_dir():
        raise ConfigError(f"cannot write {str(out)!r}: {str(out.parent)!r} is not a directory")
    header, rows, summary = run(cfg)
    write_csv(out, header, rows)
    mpath = write_manifest(cfg, out)
    return out, mpath, summary


def load_manifest(path) -> ExperimentConfig:
    """The recorded config; a file that is no manifest raises ConfigError."""
    try:
        config = json.loads(Path(path).read_text())["config"]
    except (ValueError, KeyError, TypeError):
        raise ConfigError(f"{str(path)!r} is not a manifest") from None
    return ExperimentConfig.from_dict(config)


def run_manifest(path, out: Optional[str] = None) -> tuple[Path, Path, list[str]]:
    """Re-run a recorded experiment, optionally redirecting the CSV."""
    cfg = load_manifest(path)
    if out is not None:
        cfg = replace(cfg, out=out)
    return write_outputs(cfg)
