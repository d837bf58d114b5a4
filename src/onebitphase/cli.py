"""Command-line front end for the benchmark harness.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from .bench import (
    _DEFAULT_N,
    ALL_INITS,
    ConfigError,
    ExperimentConfig,
    KINDS,
    write_outputs,
)

_DESCRIPTIONS = {
    "lambda-sweep": "Monte-Carlo channel constants over the model grids",
    "distortion-sweep": "spectral recovery error under tanh distortion",
    "recover": "single-shot recovery pipeline with a trace CSV",
    "altmin-convergence": "error-vs-iteration curves, Gaussian sensing",
    "cdp-convergence": "error-vs-iteration curves, masked-DFT sensing",
}


def _float_list(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats: {text!r}")


def _add_flags(sub: argparse.ArgumentParser, kind: str) -> None:
    sub.add_argument("--n", type=int, default=_DEFAULT_N[kind], help="signal dimension")
    sub.add_argument("--m", type=int, default=None, help="measurement pairs (overrides --ratio)")
    sub.add_argument(
        "--ratio", type=int, default=None,
        help="pairs (or mask pairs) per signal dimension",
    )
    sub.add_argument("--model", default="identity", help="measurement model spec")
    sub.add_argument(
        "--init", default=None,
        help="comma-separated init kinds: random, subexp, onebit, weighted1bit",
    )
    sub.add_argument("--epsilon", type=float, default=0.25, help="target accuracy for staged refinement")
    sub.add_argument("--trials", type=int, default=20)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--tol", type=float, default=None, help="main-loop stopping tolerance")
    sub.add_argument("--max-iters", type=int, default=None)
    sub.add_argument("--out", default=None, help="CSV output path")
    sub.add_argument("--refine", choices=("altmin", "resampled", "none"), default="altmin")
    sub.add_argument("--samples", type=int, default=1_000_000,
                     help="Monte-Carlo sample count for channel constants")
    sub.add_argument("--alphas", type=_float_list, default=None, help="tanh distortion grid")
    sub.add_argument("--sigmas", type=_float_list, default=None, help="exponential-noise variance grid")
    sub.add_argument("--etas", type=_float_list, default=None, help="Poisson period grid")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onebitphase",
        description="Benchmarks for phase retrieval from one-bit intensity comparisons.",
    )
    subparsers = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        sub = subparsers.add_parser(kind, help=_DESCRIPTIONS[kind])
        _add_flags(sub, kind)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    if args.init is None:
        inits = ("onebit",) if args.kind == "recover" else ALL_INITS
    else:
        inits = tuple(name.strip() for name in args.init.split(",") if name.strip())
    overrides = {}
    for key in ("alphas", "sigmas", "etas"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    return ExperimentConfig(
        kind=args.kind,
        n=args.n,
        m=args.m,
        ratio=args.ratio,
        model=args.model,
        epsilon=args.epsilon,
        trials=args.trials,
        seed=args.seed,
        tol=args.tol,
        max_iters=args.max_iters,
        inits=inits,
        refine=args.refine,
        samples=args.samples,
        out=args.out,
        **overrides,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        csv_path, mpath, summary = write_outputs(cfg)
    # LinAlgError is a ValueError, so the numerical failures come first
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in summary:
        print(line)
    print(f"wrote {csv_path} and {mpath}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
