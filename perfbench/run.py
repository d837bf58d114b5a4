"""Benchmark for onebitphase: per-trial time, solve rate and memory.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cdp-altmin --seed 1 --seconds 15 --trace 0

The benchmark imports the package from ``src/`` of the checkout and drives
``bench.write_outputs`` (the CLI's work without argparse) in a closed loop,
one ``trials=1`` config at a time, each with a trial seed derived from
``--seed``.  It keeps starting trials until ``--seconds`` have passed (at
least one trial), checks every result's rows and scores it against the
workload's accuracy target, reruns the first trial to check that it writes
the same bytes, and prints one JSON result as the last line of stdout.
``failed`` counts results whose trial raised or whose rows are malformed; a
missed accuracy target is counted in ``solved_frac`` instead.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
runs each trial untraced and then traced (see ``tracing.py``), checks that the
two write identical CSV bytes and that a traced rerun of the first trial
repeats the exact work counts, and reports the per-layer metrics.  A line
``context {...}`` before the result gives the machine and kernel context;
``perfbench/out/`` receives the full result and, for traced runs, the spans.

Every timed process runs BLAS on one thread (see ``BLAS_THREAD_VARS``); only
the probe behind ``proc.blas_speedup`` and ``proc.cpu_per_wall`` runs with the
library's default thread count.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402

ALL_INITS = ("random", "subexp", "onebit", "weighted1bit")

SETUP_REPEATS = 9
WARMUP_N = 16
CHILD_TIMEOUT_S = 170

# Median time of the Calibrator kernel over the baseline runs (see
# README.md).  Timed metrics are reported in seconds at this host speed.
CAL_REF_S = 0.030

# On a shared two-vCPU host a second BLAS thread competes with other tenants
# for the second core; one thread per process keeps that contention out of
# the timings.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    config: dict  # ExperimentConfig fields other than trials, seed and out
    target: float  # accuracy target on the scored dist_sq values
    why: str


# gauss-altmin and distortion are runnable but not listed in BENCHMARK.json
# because their run medians do not hold still (see README.md).
# gauss-altmin-n128 runs the dense path of gauss-altmin at a size that fits
# many trials in a run.
WORKLOADS = {
    "gauss-altmin": Workload(
        dict(kind="altmin-convergence", n=512, ratio=4, model="identity", inits=ALL_INITS),
        1e-6,
        "dense 4096x512 complex rows: BLAS-bound spectral inits and alt-min",
    ),
    "gauss-altmin-n128": Workload(
        dict(kind="altmin-convergence", n=128, ratio=4, model="identity", inits=ALL_INITS),
        1e-6,
        "dense 1024x128 complex rows: MatrixOperator alt-min with the dense LS solver",
    ),
    "cdp-altmin": Workload(
        dict(kind="cdp-convergence", n=512, ratio=4, model="identity", inits=ALL_INITS),
        1e-6,
        "matrix-free masked-DFT operator: many small FFT calls, per-call overhead",
    ),
    "distortion": Workload(
        dict(kind="distortion-sweep", n=64, ratio=64, alphas=(0.125, 8.0)),
        0.1,
        "spectral-only, tall 4096-pair ensemble; subexp power iteration hits its cap",
    ),
    "resampled": Workload(
        dict(
            kind="recover", n=256, ratio=16, inits=("onebit",),
            refine="resampled", epsilon=0.25,
        ),
        0.25,
        "only path through alt_min_resampled, cgls and multi_init_select",
    ),
}

class BenchError(RuntimeError):
    """The benchmark could not run (missing sources, failed child process)."""


def import_bench():
    """Import onebitphase from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "onebitphase" / "__init__.py").is_file():
        raise BenchError(f"no onebitphase sources under {src}")
    sys.path.insert(0, str(src))
    from onebitphase import bench

    if Path(bench.__file__).resolve().parents[1] != src.resolve():
        raise BenchError(f"imported onebitphase from {bench.__file__}, not {src}")
    return bench


def trial_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"perfbench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def make_config(bench, workload: Workload, seed: int, out: Path, **overrides):
    fields = dict(workload.config, trials=1, seed=seed, out=str(out))
    fields.update(overrides)
    return bench.ExperimentConfig(**fields)


def warm_up(bench, workload: Workload, out_dir: Path) -> None:
    """One small run of the workload's experiment, so every code path,
    lazy import and thread pool is live before timing."""
    cfg = make_config(bench, workload, 0, out_dir / "warmup.csv", n=WARMUP_N)
    bench.write_outputs(cfg)


# ---------------------------------------------------------------------------
# host-speed calibration
#
# The host is shared: the same trial takes half as long again for minutes at
# a time, in pure Python and in NumPy alike, with almost no steal time reported
# and no cycle counters exposed.  A fixed kernel that does not touch
# onebitphase (an interpreter loop, a conjugate matvec on 4 MiB of rows and a
# small BLAS matmul) is timed before every set-up probe and every trial and
# once after the last trial.  The run's timed metrics are its wall times
# scaled by CAL_REF_S over the median kernel time: seconds at the reference
# host speed.  Pairing each trial with its own kernel sample instead added
# the kernel's own noise.  The raw wall times are kept in the run's detail.


class Calibrator:
    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.rows = rng.standard_normal((4096, 64)) + 1j * rng.standard_normal((4096, 64))
        self.vec = self.rows[0].copy()
        self.square = rng.standard_normal((256, 256))
        self.samples: list[float] = []
        self()  # warm-up, not kept
        self.samples.clear()

    def __call__(self) -> None:
        start = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        for _ in range(16):
            self.rows.conj() @ self.vec
        for _ in range(4):
            self.square @ self.square
        self.samples.append(perf_counter() - start)

    def speed(self) -> float:
        """Host speed over the run relative to the reference host."""
        return CAL_REF_S / statistics.median(self.samples)


# ---------------------------------------------------------------------------
# scoring


# A result is one scored value of a trial: the final dist² of one init on the
# convergence workloads, 1bitPhase at one alpha on distortion, the final dist²
# on resampled.  A result *fails* when its trial raised or its rows are
# malformed (missing, out of order, or a value that is not a number in
# [0, 1]).  Whether it meets the workload's accuracy target is counted
# apart, as *solved*: at ratio 4 alt-min misses 1e-6 within its 100
# iterations from the random start on most seeds (the shortfall test_08b
# states) and from a spectral start on a few, so a miss is a rate that
# solved_frac and solved_per_s measure, not a broken operation.

ALTMIN_ITERS = 100  # the convergence experiments' default iteration budget


@dataclass
class Score:
    attempted: int
    solved: int
    failed: int
    intact: bool = True  # False when an output breaks a stated invariant
    notes: list = field(default_factory=list)
    starts: dict = field(default_factory=dict)  # init -> iteration-0 dist²


def results_per_trial(workload: Workload) -> int:
    kind = workload.config["kind"]
    if kind in ("altmin-convergence", "cdp-convergence"):
        return len(workload.config["inits"])
    if kind == "distortion-sweep":
        return len(workload.config["alphas"])
    return 1


def unit_value(text: str):
    """The float in ``text`` if it lies in [0, 1] (as dist² does), else None."""
    try:
        value = float(text)
    except ValueError:
        return None
    return value if 0.0 <= value <= 1.0 else None


def score_csv(workload: Workload, text: str) -> Score:
    """Check one trial's CSV and score it against the workload's target."""
    kind = workload.config["kind"]
    rows = list(csv.reader(io.StringIO(text)))[1:]
    target = workload.target
    width = 5 if kind == "distortion-sweep" else 3
    if any(len(row) != width for row in rows):
        n = results_per_trial(workload)
        return Score(n, 0, n)
    if kind in ("altmin-convergence", "cdp-convergence"):
        curves = {}
        for init, iteration, value in rows:
            curves.setdefault(init, []).append((iteration, unit_value(value)))
        inits = workload.config["inits"]
        score = Score(len(inits), 0, 0)
        for init in inits:
            curve = curves.get(init, [])
            steps = [iteration for iteration, _ in curve]
            if (
                not curve
                or len(curve) > ALTMIN_ITERS + 1
                or steps != [str(k) for k in range(len(curve))]
                or any(value is None for _, value in curve)
            ):
                score.failed += 1
                continue
            score.starts[init] = curve[0][1]
            score.solved += curve[-1][1] <= target
        if set(curves) - set(inits):
            score.intact = False
            score.notes.append(f"unexpected inits in CSV: {sorted(set(curves) - set(inits))}")
        return score
    if kind == "distortion-sweep":
        # 1bitPhase is scored and must be bitwise identical across alpha;
        # SubExpPhase degrades at large alpha by design and is not scored.
        bits = {alpha: value for alpha, method, value, _iqr, _t in rows if method == "1bitPhase"}
        alphas = workload.config["alphas"]
        values = [unit_value(bits[a]) if a in bits else None for a in map(str, alphas)]
        score = Score(len(alphas), sum(1 for v in values if v is not None and v <= target),
                      sum(1 for v in values if v is None))
        if len(bits) != len(alphas) or len(set(bits.values())) != 1:
            score.intact = False
            score.notes.append(f"1bitPhase not identical across alpha: {bits}")
        return score
    values = [unit_value(value) for _stage, _iteration, value in rows]
    if not values or None in values:
        return Score(1, 0, 1)
    return Score(1, int(values[-1] <= target), 0)


def check_starts(workload: Workload, trials) -> list[str]:
    """The paper's premise, checked over a run: every spectral init starts
    closer to the signal than a random start (medians of iteration-0 dist²)."""
    if "random" not in workload.config.get("inits", ()):
        return []
    starts = {}
    for t in trials:
        for init, value in t.score.starts.items():
            starts.setdefault(init, []).append(value)
    if "random" not in starts:
        return []
    random_start = statistics.median(starts.pop("random"))
    return [
        f"{init} init median start dist² {statistics.median(v):.4g} is not below "
        f"the random start's {random_start:.4g}"
        for init, v in sorted(starts.items())
        if not statistics.median(v) < random_start
    ]


# ---------------------------------------------------------------------------
# running trials


@dataclass
class TrialResult:
    seconds: float
    csv: bytes  # empty when the trial raised
    score: Score


def run_trial(bench, workload: Workload, seed: int, out: Path) -> TrialResult:
    cfg = make_config(bench, workload, seed, out)
    start = perf_counter()
    try:
        bench.write_outputs(cfg)
    except Exception:  # a raised error is a failed operation, not a crash
        seconds = perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        n = results_per_trial(workload)
        return TrialResult(seconds, b"", Score(n, 0, n))
    seconds = perf_counter() - start
    data = out.read_bytes()
    return TrialResult(seconds, data, score_csv(workload, data.decode("utf-8")))


def tally(trials) -> tuple[int, int, int]:
    """(results attempted, results that met the target, results that
    failed) over trials."""
    return (
        sum(t.score.attempted for t in trials),
        sum(t.score.solved for t in trials),
        sum(t.score.failed for t in trials),
    )


def spawn_probe(workload_name: str, seed: int, probe: str):
    """Start run.py in probe mode; the blas probe gets default BLAS threads."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload_name,
        "--seed", str(seed), "--probe", probe,
    ]
    env = dict(os.environ)
    if probe == "blas":
        for var in BLAS_THREAD_VARS:
            env.pop(var, None)
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=env)


def finish_probe(proc) -> str:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("probe process timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"probe process exited with {proc.returncode}")
    return out


def measure_setup(workload_name: str, seed: int, cal: Calibrator) -> list[float]:
    """Fresh interpreter to ready (package imported, warm-up done), timed
    from outside, several times."""
    times = []
    for _ in range(SETUP_REPEATS):
        cal()
        start = perf_counter()
        proc = spawn_probe(workload_name, seed, "setup")
        line = proc.stdout.readline()
        times.append(perf_counter() - start)
        finish_probe(proc)
        if line.strip() != "ready":
            raise BenchError("setup probe did not report ready")
    return times


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_untraced(bench, name: str, workload: Workload, seed: int, seconds: float, work: Path):
    cal = Calibrator()
    setup = measure_setup(name, seed, cal)
    warm_up(bench, workload, work)
    trials: list[TrialResult] = []
    start = perf_counter()
    while not trials or perf_counter() - start < seconds:
        i = len(trials)
        cal()
        trials.append(run_trial(bench, workload, trial_seed(seed, i), work / f"trial-{i}.csv"))
    wall = perf_counter() - start
    cal()
    speed = cal.speed()  # wall seconds * speed = seconds at the reference host speed
    raw = [t.seconds for t in trials]
    attempted, solved, _ = tally(trials)
    # Outside the timed loop: the same trial seed must write the same bytes.
    again = run_trial(bench, workload, trial_seed(seed, 0), work / "repeat.csv")
    mismatches = [] if again.csv == trials[0].csv else ["rerun of trial 0 wrote different CSV bytes"]
    metrics = {
        "setup_s": metric(statistics.median(setup) * speed, "s"),
        "trial_s.p50": metric(statistics.median(raw) * speed, "s"),
        "trials_per_s": metric(len(trials) / (wall * speed), "1/s"),
        "solved_frac": metric(solved / attempted, "ratio"),
        "solved_per_s": metric(solved / (wall * speed), "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    # trial_s.p90 is context, not a metric: no workload runs enough trials
    # for ten samples above it.
    p90 = statistics.quantiles(raw, n=10, method="inclusive")[-1] if len(raw) > 1 else raw[0]
    detail = {
        "trials": len(trials),
        "trial_s.p90": p90 * speed,
        "samples_above_p90": sum(1 for t in raw if t > p90),
        "host_speed": speed,
        "loop_wall_s": wall,
        "wall_setup_s": statistics.median(setup),
        "wall_trial_s.p50": statistics.median(raw),
        "setup_samples_s": setup,
        "trial_seconds": raw,
        "cal_samples_s": cal.samples,
        "missed_target": attempted - solved,
    }
    return trials, metrics, detail, mismatches


# ---------------------------------------------------------------------------
# traced run and per-layer metrics


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class SpanIndex:
    """Per-trial and per-call views of one tracer's spans."""

    def __init__(self, tracer: Tracer, trial_ids):
        self.tracer = tracer
        self.trial_ids = list(trial_ids)
        self.durations: dict[str, list[float]] = {}
        self.per_trial: dict[tuple, list[float]] = {}
        self.trial_wall: dict[int, float] = {}
        self.child_time: dict[int, float] = {}
        spans = tracer.spans
        for name, start, end, parent, trial in spans:
            if trial not in self.trial_ids:
                continue
            dt = end - start
            self.durations.setdefault(name, []).append(dt)
            self.per_trial.setdefault((name, trial), []).append(dt)
            if name == "trial":
                self.trial_wall[trial] = dt
            elif parent >= 0 and spans[parent][0] == "trial":
                self.child_time[trial] = self.child_time.get(trial, 0.0) + dt

    def call_median(self, *names) -> float:
        return median_or_zero(d for n in names for d in self.durations.get(n, []))

    def trial_total(self, *names) -> float:
        return median_or_zero(
            sum(sum(self.per_trial.get((n, t), [])) for n in names) for t in self.trial_ids
        )

    def trial_count(self, *names, trial=None) -> float:
        trials = self.trial_ids if trial is None else [trial]
        return median_or_zero(
            sum(len(self.per_trial.get((n, t), [])) for n in names) for t in trials
        )

    def altmin_iters(self, trial=None) -> float:
        trials = self.trial_ids if trial is None else [trial]
        rows = self.tracer.altmin
        return median_or_zero(sum(it for tr, it, _ in rows if tr == t) for t in trials)


def exact_counts(index: SpanIndex, trial: int) -> dict:
    """Work counts that must repeat exactly for the same trial seed."""
    return {
        "numkit.matvecs": index.trial_count("numkit.matvec", trial=trial),
        "numkit.cgls_applies": index.trial_count("numkit.cgls_apply", trial=trial),
        "recovery.altmin_iters": index.altmin_iters(trial=trial),
        "recovery.lsq_solves": index.trial_count("recovery.lsq_solve", trial=trial),
        "sensing.cdp_calls": index.trial_count("sensing.cdp_apply", "sensing.cdp_adjoint", trial=trial),
    }


def layer_metrics(index: SpanIndex) -> dict:
    tr = index.tracer
    trials = set(index.trial_ids)
    capped = [c for t, c in tr.capped if t in trials]
    reports = [c for t, c in tr.reports if t in trials]
    altmin = [(it, hit) for t, it, hit in tr.altmin if t in trials]
    total_iters = sum(it for it, _ in altmin)
    hit_runs = [(it, hit) for it, hit in altmin if hit]
    altmin_total = sum(index.durations.get("recovery.altmin", []))
    share = [
        (sum(index.per_trial.get(("recovery.spectral", t), []))
         + sum(index.per_trial.get(("recovery.altmin", t), []))) / index.trial_wall[t]
        for t in index.trial_ids
    ]
    self_s = [index.trial_wall[t] - index.child_time.get(t, 0.0) for t in index.trial_ids]
    s, n, r = "s", "count", "ratio"
    return {
        "sensing.ensemble_s": metric(index.trial_total("sensing.ensemble"), s),
        "sensing.intensities_s": metric(index.trial_total("sensing.intensities"), s),
        "sensing.cdp_apply_s": metric(index.call_median("sensing.cdp_apply"), s),
        "sensing.cdp_adjoint_s": metric(index.call_median("sensing.cdp_adjoint"), s),
        "sensing.cdp_calls": metric(index.trial_count("sensing.cdp_apply", "sensing.cdp_adjoint"), n),
        "channels.observe_s": metric(index.trial_total("channels.observe"), s),
        "numkit.power_s": metric(index.call_median("numkit.power"), s),
        "numkit.matvecs": metric(index.trial_count("numkit.matvec"), n),
        "numkit.matvec_s": metric(index.call_median("numkit.matvec"), s),
        "numkit.capped_frac": metric(sum(capped) / len(capped) if capped else 0.0, r),
        "numkit.cgls_s": metric(index.call_median("numkit.cgls"), s),
        "numkit.cgls_applies": metric(index.trial_count("numkit.cgls_apply"), n),
        "recovery.spectral_s": metric(index.call_median("recovery.spectral"), s),
        "recovery.op_apply_s": metric(index.call_median("recovery.op_apply"), s),
        "recovery.op_applies": metric(index.trial_count("recovery.op_apply"), n),
        "recovery.lsq_factor_s": metric(index.call_median("recovery.lsq_factor"), s),
        "recovery.lsq_solve_s": metric(index.call_median("recovery.lsq_solve"), s),
        "recovery.lsq_solves": metric(index.trial_count("recovery.lsq_solve"), n),
        "recovery.altmin_s": metric(index.call_median("recovery.altmin"), s),
        "recovery.altmin_iters": metric(index.altmin_iters(), n),
        "recovery.altmin_s_per_iter": metric(altmin_total / total_iters if total_iters else 0.0, s),
        "recovery.hit_iter": metric(median_or_zero(hit for _, hit in altmin if hit), n),
        # over the runs that reach the target: hit iteration / iterations run
        "recovery.useful_iter_frac": metric(
            sum(hit for _, hit in hit_runs) / sum(it for it, _ in hit_runs) if hit_runs else 0.0, r
        ),
        "recovery.unconverged_frac": metric(
            sum(1 for c in reports if not c) / len(reports) if reports else 0.0, r
        ),
        "recovery.resampled_s": metric(index.call_median("recovery.resampled"), s),
        "recovery.select_s": metric(index.call_median("recovery.select"), s),
        "recovery.trial_share": metric(median_or_zero(share), r),
        "bench.write_s": metric(index.trial_total("bench.write"), s),
        "bench.self_s": metric(median_or_zero(self_s), s),
    }


def traced_trial(bench, tracer: Tracer, workload: Workload, seed: int, trial_id: int, out: Path):
    with tracer.trial(trial_id):
        return run_trial(bench, workload, seed, out)


def run_traced(bench, name: str, workload: Workload, seed: int, seconds: float, work: Path):
    warm_up(bench, workload, work)
    tracer = Tracer(workload.target)
    pairs = []
    mismatches = []
    start = perf_counter()
    while not pairs or perf_counter() - start < seconds:
        i = len(pairs)
        s = trial_seed(seed, i)
        plain = run_trial(bench, workload, s, work / f"trial-{i}.csv")
        with tracer.installed():
            traced = traced_trial(bench, tracer, workload, s, i, work / f"trial-{i}.csv")
        if plain.csv != traced.csv:
            mismatches.append(f"trial {i}: traced CSV differs from untraced CSV")
        pairs.append((plain, traced))
    index = SpanIndex(tracer, range(len(pairs)))
    metrics = layer_metrics(index)

    # Rerun the first trial traced: the work counts must repeat exactly, and
    # its wall time is the single-thread side of proc.blas_speedup.
    repeat = Tracer(workload.target)
    with repeat.installed():
        again = traced_trial(bench, repeat, workload, trial_seed(seed, 0), 0, work / "repeat.csv")
    first = exact_counts(index, 0)
    second = exact_counts(SpanIndex(repeat, [0]), 0)
    if first != second:
        mismatches.append(f"work counts differ on rerun: {first} vs {second}")
    if again.csv != pairs[0][1].csv:
        mismatches.append("traced rerun of trial 0 wrote different CSV bytes")

    probe = json.loads(finish_probe(spawn_probe(name, seed, "blas")).strip().splitlines()[-1])

    plain_p50 = statistics.median(p.seconds for p, _ in pairs)
    traced_p50 = statistics.median(t.seconds for _, t in pairs)
    metrics["bench.trace_overhead"] = metric(traced_p50 / plain_p50, "ratio")
    metrics["proc.cpu_per_wall"] = metric(probe["cpu_per_wall"], "ratio")
    metrics["proc.blas_speedup"] = metric(again.seconds / probe["seconds"], "ratio")

    detail = {
        "trials": len(pairs),
        "absent_layers": tracer.absent,
        "exact_counts_trial0": first,
        "untraced_trial_s.p50": plain_p50,
        "traced_trial_s.p50": traced_p50,
        "single_thread_trial0_s": again.seconds,
        "default_thread_trial0_s": probe["seconds"],
    }
    spans_path = OUT / f"spans-{name}-seed{seed}.json"
    spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "trial"],
                                      "spans": tracer.spans}))
    return [t for _, t in pairs], metrics, detail, mismatches


# ---------------------------------------------------------------------------
# machine and kernel context


def blas_info() -> dict:
    import ctypes
    import numpy as np

    info = dict(np.__config__.CONFIG["Build Dependencies"]["blas"])
    keep = {k: info.get(k) for k in ("name", "version")}
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    keep["threads"] = threads
    return keep


def l3_bytes():
    path = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    try:
        text = path.read_text().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024**2}.get(text[-1], 1)
    return int(text.rstrip("KM")) * scale


def kernel_model(workload: Workload) -> dict:
    """Computed (not measured) working set and per-call kernel costs."""
    cfg = workload.config
    n = cfg["n"]
    c16 = 16  # bytes per complex128
    if cfg["kind"] == "cdp-convergence":
        blocks = 2 * cfg["ratio"]  # the stacked operator of both mask families
        flops = blocks * (6 * n + 5 * n * math.log2(n))
        moved = c16 * (2 * blocks * n + n)  # masks + output + input
        return {
            "working_set_bytes": c16 * 2 * blocks * n,
            "masked_dft_apply": {"flops": flops, "bytes": moved, "computed": True},
        }
    rows = 2 * cfg["ratio"] * n  # both pair families stacked
    return {
        "working_set_bytes": c16 * rows * n,
        "dense_matvec": {"flops": 8 * rows * n, "bytes": c16 * (rows * n + rows + n),
                         "computed": True},
    }


def context(workload: Workload) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "l3_bytes": l3_bytes(),
        "kernel": kernel_model(workload),
    }


# ---------------------------------------------------------------------------
# entry points


def run_probe(bench, name: str, workload: Workload, seed: int, probe: str, work: Path) -> None:
    warm_up(bench, workload, work)
    if probe == "setup":
        print("ready", flush=True)
        return
    tracer = Tracer(workload.target)
    cpu0 = os.times()
    with tracer.installed():
        result = traced_trial(bench, tracer, workload, trial_seed(seed, 0), 0, work / "probe.csv")
    cpu1 = os.times()
    cpu = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
    print(json.dumps({"seconds": result.seconds, "cpu_per_wall": cpu / result.seconds}), flush=True)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "blas"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.probe != "blas":
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))  # before numpy loads
    try:
        bench = import_bench()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        if args.probe:
            run_probe(bench, args.workload, workload, args.seed, args.probe, work)
            return 0
        run = run_traced if args.trace else run_untraced
        trials, metrics, detail, mismatches = run(
            bench, args.workload, workload, args.seed, args.seconds, work
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for t in trials:
        if not t.score.intact:
            mismatches.extend(t.score.notes)
    mismatches.extend(check_starts(workload, trials))
    attempted, _, failed = tally(trials)
    result = {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    ctx = context(workload)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  why=workload.why, context=ctx, detail=detail, mismatches=mismatches)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    for line in mismatches:
        print(f"mismatch: {line}", file=sys.stderr)
    print("context " + json.dumps(dict(ctx, detail=detail)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
