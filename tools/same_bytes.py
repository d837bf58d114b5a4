"""Fingerprint the CLI's outputs over a fixed list of commands.

    python tools/same_bytes.py <checkout> > bytes.txt

Runs each command of ``COMMANDS`` with ``<checkout>/src`` first on the
import path, one BLAS thread and a fresh temporary directory as the working
directory and the ``--out`` target.  For each command it prints one line:
the command, its exit code, and the first 16 hex digits of the sha256 of
its CSV, its manifest, its stdout and its stderr ("-" for a file the run did
not write), with the temporary directory masked out of the last three.  Two
checkouts write the same bytes when ``diff`` finds no line between their
outputs.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

MODELS = ("identity", "tanh:alpha=2", "expnoise:sigma=1", "poisson:eta=1", "clipgauss:sigma=0.5")

COMMANDS = [
    "recover --n 64 --seed 3",
    "recover --n 64 --seed 3 --refine none --init random,subexp,onebit,weighted1bit",
    "recover --n 64 --seed 3 --refine resampled --init subexp,onebit",
    "recover --n 256 --ratio 16 --refine resampled --seed 11",
    "recover --n 32 --refine none --seed 1",
    "recover --n 64 --model tanh:alpha=2 --seed 5 --max-iters 50",
    "recover --n 16 --m 4 --refine none --tol 1e-3",
    "recover --refine bogus",
    "altmin-convergence --n 32 --trials 3 --seed 2",
    "altmin-convergence --n 32 --trials 4 --seed 2",
    "cdp-convergence --n 32 --trials 3 --seed 2 --model clipgauss:sigma=0.5",
    "distortion-sweep --n 16 --trials 3 --seed 4",
    *(f"recover --n 32 --seed 2 --model {model}" for model in MODELS),
    "lambda-sweep --samples 20000 --seed 3",
    "lambda-sweep --samples 2000 --sigmas 0,0.5 --alphas 3 --etas 0.25",
    "lambda-sweep --samples 2000 --alphas nan,-1",
    "recover --model tanh:alpha=-1",
    "recover --model bogus",
    "altmin-convergence --n 4 --m 4 --model poisson:eta=2 --trials 20",
    "recover --n 8 --ratio 16 --model tanh:alpha=0.1234567",
    "recover --n 8 --ratio 16 --model TANH:Alpha=2.0",
    "altmin-convergence --n 16 --trials 2 --model Poisson:ETA=1",
    # at alpha 64 saturation ties most observed pairs
    "distortion-sweep --n 16 --ratio 16 --trials 3 --seed 4 --alphas 0.5,64",
    "recover --refine resampled --epsilon 5e-324",
    # saturated tanh pairs tie, so these change bytes if signs come from observed values
    "recover --n 64 --seed 5 --model tanh:alpha=64",
    "altmin-convergence --n 32 --trials 3 --seed 2 --model tanh:alpha=8",
]


def digest(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()[:16]


def fingerprint(checkout: Path, command: str) -> str:
    """One command's line: exit code and the digests of what it wrote."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "OPENBLAS_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        args = [sys.executable, "-m", "onebitphase.cli", *command.split(), "--out", str(out)]
        done = subprocess.run(args, cwd=tmp, env=env, capture_output=True, timeout=600)

        def masked(data: bytes | None) -> bytes | None:
            return None if data is None else data.replace(tmp.encode(), b"<tmp>")

        manifest = Path(f"{out}.manifest.json")
        files = [out.read_bytes() if out.exists() else None,
                 masked(manifest.read_bytes() if manifest.exists() else None),
                 masked(done.stdout), masked(done.stderr)]
    names = ("csv", "manifest", "stdout", "stderr")
    return " | ".join([command, f"exit {done.returncode}",
                       *(f"{name} {digest(data)}" for name, data in zip(names, files))])


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "onebitphase").is_dir():
        print("usage: python tools/same_bytes.py <checkout with src/onebitphase>", file=sys.stderr)
        return 2
    checkout = Path(argv[0]).resolve()
    for command in COMMANDS:
        print(fingerprint(checkout, command), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
