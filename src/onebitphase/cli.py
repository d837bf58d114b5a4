"""Command-line front end for the benchmark harness.

Each subcommand takes ``--seed``, ``--out`` and a flag for each config field
its experiment reads (``bench.EXPERIMENTS``); any other flag, or an
abbreviation of one, is a usage error.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from .bench import EXPERIMENTS, ConfigError, ExperimentConfig, write_outputs


def _float_list(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats: {text!r}")


def _name_list(text: str) -> tuple:
    return tuple(name.strip() for name in text.split(",") if name.strip())


# config field -> its flag and argparse options
_FLAGS = {
    "n": ("--n", dict(type=int, help="signal dimension")),
    "m": ("--m", dict(type=int, help="measurement pairs (overrides --ratio)")),
    "ratio": ("--ratio", dict(type=int, help="pairs (or mask pairs) per signal dimension")),
    "model": ("--model", dict(help="measurement model spec")),
    "inits": ("--init", dict(
        type=_name_list, metavar="INIT",
        help="comma-separated init kinds: random, subexp, onebit, weighted1bit",
    )),
    "epsilon": ("--epsilon", dict(type=float, help="target accuracy for staged refinement")),
    "trials": ("--trials", dict(type=int)),
    "seed": ("--seed", dict(type=int)),
    "tol": ("--tol", dict(type=float, help="main-loop stopping tolerance")),
    "max_iters": ("--max-iters", dict(type=int)),
    "out": ("--out", dict(help="CSV output path")),
    "refine": ("--refine", dict(choices=("altmin", "resampled", "none"))),
    "samples": ("--samples", dict(type=int, help="Monte-Carlo sample count for channel constants")),
    "alphas": ("--alphas", dict(type=_float_list, help="tanh distortion grid")),
    "sigmas": ("--sigmas", dict(type=_float_list, help="exponential-noise variance grid")),
    "etas": ("--etas", dict(type=_float_list, help="Poisson period grid")),
}


class _Subcommand(argparse.ArgumentParser):
    """Reports a flag it does not take with its own usage line."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onebitphase",
        description="Benchmarks for phase retrieval from one-bit intensity comparisons.",
    )
    subparsers = parser.add_subparsers(dest="kind", required=True, parser_class=_Subcommand)
    for kind, spec in EXPERIMENTS.items():
        # an omitted flag keeps the config default, or the table's n and inits
        sub = subparsers.add_parser(
            kind, help=spec.help, allow_abbrev=False, argument_default=argparse.SUPPRESS
        )
        for field in (*spec.fields, "seed", "out"):
            flag, options = _FLAGS[field]
            sub.add_argument(flag, dest=field, **options)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    spec = EXPERIMENTS[args.kind]
    return ExperimentConfig(**{"n": spec.n, "inits": spec.inits, **vars(args)})


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a usage error (2) or --help (0)
        return exc.code
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
