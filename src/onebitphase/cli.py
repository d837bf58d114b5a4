"""Command-line front end for the benchmark harness.

Each subcommand takes ``--seed``, ``--out`` and a flag for each config field
its experiment reads (``bench.EXPERIMENTS``); any other flag, or an
abbreviation of one, is a usage error.

Exit codes: 0 success, 2 ``ConfigError`` or a failed write, 3 numerical
failure (any other ``ValueError``, ``RuntimeError``, ``ArithmeticError`` or
``MemoryError`` of a run).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .bench import EXPERIMENTS, REFINE_MODES, ConfigError, ExperimentConfig, write_outputs
from .recovery import INIT_KINDS


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
        help="comma-separated init kinds: " + ", ".join(INIT_KINDS),
    )),
    "epsilon": ("--epsilon", dict(type=float, help="target accuracy for staged refinement")),
    "trials": ("--trials", dict(type=int, help="independent trials, each on a fresh problem")),
    "seed": ("--seed", dict(type=int, help="master seed of every random draw")),
    "tol": ("--tol", dict(type=float, help="main-loop stopping tolerance")),
    "max_iters": ("--max-iters", dict(type=int, help="main-loop iteration cap")),
    "out": ("--out", dict(help="CSV output path")),
    "refine": ("--refine", dict(
        choices=REFINE_MODES,
        help="refinement after the init: alternating minimization, its resampled stages, or none",
    )),
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
        # an omitted flag leaves the setting to the kind's default in the table
        sub = subparsers.add_parser(
            kind, help=spec.help, allow_abbrev=False, argument_default=argparse.SUPPRESS
        )
        for field in (*spec.fields, "seed", "out"):
            flag, options = _FLAGS[field]
            sub.add_argument(flag, dest=field, **options)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a usage error (2) or --help (0)
        return exc.code
    try:
        csv_path, mpath, summary = write_outputs(ExperimentConfig(**vars(args)))
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    for line in summary:
        print(line)
    print(f"wrote {csv_path} and {mpath}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
