import argparse
import csv
import importlib.util
import json
import re
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from onebitphase import __version__, bench, blas, cli, numkit, recovery, sensing
from onebitphase.bench import ConfigError, ExperimentConfig
from onebitphase.channels import quantize
from onebitphase.sensing import CdpOperator, build_cdp_operator, intensities, substream

from _oracles import dense_one_bit_matrix, with_lapack_info


def _cfg(**kw):
    return ExperimentConfig(**kw)


# the flags each subcommand takes besides --seed and --out
SUBCOMMAND_FLAGS = {
    "lambda-sweep": {"--samples", "--sigmas", "--alphas", "--etas"},
    "distortion-sweep": {"--n", "--m", "--ratio", "--trials", "--alphas"},
    "recover": {"--n", "--m", "--ratio", "--tol", "--max-iters", "--model", "--init",
                "--refine", "--epsilon"},
    "altmin-convergence": {"--n", "--m", "--ratio", "--trials", "--tol", "--max-iters",
                           "--model", "--init"},
    "cdp-convergence": {"--n", "--ratio", "--trials", "--tol", "--max-iters", "--model",
                        "--init"},
}
FLAG_VALUES = {
    "--n": "8", "--m": "64", "--ratio": "8", "--model": "identity", "--init": "onebit",
    "--epsilon": "0.5", "--trials": "1", "--tol": "1e-6", "--max-iters": "5",
    "--refine": "none", "--samples": "2000", "--alphas": "1", "--sigmas": "1", "--etas": "1",
}
UNREAD_FLAGS = [
    (kind, flag)
    for kind, flags in SUBCOMMAND_FLAGS.items()
    for flag in sorted(FLAG_VALUES.keys() - flags)
]


# the settings each kind's run reads; recover's depend on its refine mode
READ_FIELDS = {
    "lambda-sweep": {"samples", "alphas", "sigmas", "etas"},
    "distortion-sweep": {"n", "m", "ratio", "trials", "alphas"},
    "altmin-convergence": {"n", "m", "ratio", "model", "inits", "trials", "tol", "max_iters"},
    "cdp-convergence": {"n", "ratio", "model", "inits", "trials", "tol", "max_iters"},
}
RECOVER_FIELDS = {"n", "m", "ratio", "model", "inits", "refine"}
RECOVER_MODE_FIELDS = {"altmin": {"tol", "max_iters"}, "resampled": {"epsilon"}, "none": set()}


def _perfbench_run():
    """``perfbench/run.py``, imported by path without running it; the import
    path it extends and ``sys.modules`` (which its dataclasses need while
    they are built) are restored."""
    path = Path(__file__).parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
        del sys.modules[spec.name]
    return module


# one tiny config per experiment kind
TINY_CONFIGS = {
    "lambda-sweep": dict(samples=1000, alphas=(1.0,), sigmas=(1.0,), etas=(1.0,)),
    "distortion-sweep": dict(n=8, ratio=8, trials=2, alphas=(0.5, 8.0)),
    "recover": dict(n=8, ratio=8, inits=recovery.INIT_KINDS),
    "altmin-convergence": dict(n=8, ratio=4, trials=2, max_iters=5),
    "cdp-convergence": dict(n=8, ratio=2, trials=2, max_iters=5),
}

# configs that build no more, each with its CLI form and a phrase of its error
REFUSED_AT_BUILD = {
    "repeated-init": (
        dict(kind="altmin-convergence", n=8, ratio=4, trials=1, max_iters=2,
             inits=("onebit", "onebit", "ONEBIT")),
        ["altmin-convergence", "--n", "8", "--ratio", "4", "--trials", "1", "--max-iters", "2",
         "--init", "onebit,onebit,ONEBIT"],
        "inits must name at least one init kind, each once",
    ),
    "repeated-init-recover": (
        dict(kind="recover", inits=("onebit", " onebit")),
        ["recover", "--init", "onebit,onebit"],
        "each once",
    ),
    "negative-sigma": (
        dict(kind="lambda-sweep", sigmas=(-1.0,)),
        ["lambda-sweep", "--sigmas=-1"],
        "sigma must be non-negative and finite",
    ),
    "zero-eta": (
        dict(kind="lambda-sweep", etas=(0.0,)),
        ["lambda-sweep", "--etas", "0"],
        "eta must be positive and finite",
    ),
    "negative-alpha": (
        dict(kind="distortion-sweep", alphas=(-2.0,)),
        ["distortion-sweep", "--alphas=-2"],
        "alpha must be positive and finite",
    ),
    "resampled-too-few": (
        dict(kind="recover", n=64, m=40, refine="resampled"),
        ["recover", "--n", "64", "--m", "40", "--refine", "resampled"],
        "resampled schedule needs at least 192 measurements (3 blocks of >= 64); got 80",
    ),
    "resampled-empty-init-block": (
        dict(kind="recover", n=1, m=1, epsilon=0.5, refine="resampled"),
        ["recover", "--n", "1", "--m", "1", "--epsilon", "0.5", "--refine", "resampled"],
        "initialization block has no measurement pairs",
    ),
    "n-beyond-int64": (
        dict(kind="recover", n=10**30),
        ["recover", "--n", str(10**30)],
        f"n must be of type int; got {10**30}",
    ),
}

# settings of the wrong type, refused before any other check: a bool is
# no number, a float no int, an int setting leaves int64 and a float
# setting must convert to a float
WRONG_TYPES = {
    "str-n": dict(n="8"),
    "float-n": dict(n=8.0),
    "bool-n": dict(n=True),
    "str-tol": dict(tol="x"),
    "bool-tol": dict(tol=False),
    "int-init": dict(inits=(1,)),
    "str-inits": dict(inits="onebit"),
    "str-in-grid": dict(alphas=(1.0, "2")),
    "int-model": dict(model=3),
    "str-seed": dict(seed="1"),
    "int-out": dict(out=5),
    "int-beyond-float-tol": dict(tol=10**400),
    "int-beyond-float-in-grid": dict(alphas=(1.0, -(10**400))),
    "m-beyond-int64": dict(m=2**63),
}

# manifest files that are not a JSON object whose config is an object with
# a string kind
MALFORMED_MANIFESTS = {
    "not-json": "{",
    "payload-list": "[]",
    "no-config": '{"artifact_version": "0.1.0"}',
    "config-list": '{"config": []}',
    "no-kind": '{"config": {"n": 8}}',
    "kind-list": '{"config": {"kind": ["recover"]}}',
}

# the manifest that `recover --n 16 --ratio 8 --seed 5 --out <path>` wrote
# when every config carried all 17 fields, plus the retired spectral shift
OLD_RECOVER_MANIFEST = {
    "alphas": [0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
    "epsilon": 0.25,
    "etas": [0.5, 1.0, 2.0, 4.0],
    "inits": ["onebit"],
    "kind": "recover",
    "m": None,
    "max_iters": None,
    "model": "identity",
    "n": 16,
    "out": "old.csv",
    "ratio": 8,
    "refine": "altmin",
    "samples": 1000000,
    "seed": 5,
    "shift": True,
    "sigmas": [0.25, 0.5, 1.0, 2.0, 4.0],
    "tol": None,
    "trials": 20,
}

# the manifest that `distortion-sweep --n 8 --ratio 8 --trials 3 --alphas
# 0.5,8 --seed 5 --out <path>` wrote while the sweep read its Lanczos stop
OLD_SWEEP_MANIFEST = {
    "alphas": [0.5, 8.0],
    "kind": "distortion-sweep",
    "m": None,
    "max_iters": 1000,
    "n": 8,
    "out": "old.csv",
    "ratio": 8,
    "seed": 5,
    "tol": 1e-08,
    "trials": 3,
}

# each old manifest and the CLI run that writes its CSV now
OLD_MANIFESTS = {
    "recover": (OLD_RECOVER_MANIFEST, ["recover", "--n", "16", "--ratio", "8", "--seed", "5"]),
    "distortion-sweep": (
        OLD_SWEEP_MANIFEST,
        ["distortion-sweep", "--n", "8", "--ratio", "8", "--trials", "3", "--alphas", "0.5,8",
         "--seed", "5"],
    ),
}


class TestConfig:
    def test_dict_round_trip(self):
        cfg = _cfg(kind="recover", n=16, inits=("onebit", "random"), refine="resampled")
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_init_names_are_folded_when_built(self):
        cfg = _cfg(kind="recover", inits=(" OneBit", "SUBEXP"))
        assert cfg.inits == ("onebit", "subexp")
        assert cfg.to_dict()["inits"] == ("onebit", "subexp")

    def test_model_spec_is_kept_canonical_when_built(self):
        cfg = ExperimentConfig(kind="recover", model=" TANH:Alpha=2")
        assert cfg.model == "tanh:alpha=2"
        assert cfg == ExperimentConfig(kind="recover", model="tanh:alpha=2.0")

    def test_cli_manifest_records_the_canonical_model(self, tmp_path, capsys):
        out = tmp_path / "rec.csv"
        args = ["recover", "--n", "8", "--ratio", "16", "--model", "TANH:Alpha=2.0"]
        assert cli.main(args + ["--out", str(out)]) == 0
        assert "model: tanh:alpha=2\n" in capsys.readouterr().out
        payload = json.loads(bench.manifest_path(out).read_text())
        assert payload["config"]["model"] == "tanh:alpha=2"

    def test_manifest_with_a_non_canonical_model_reruns_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = {"kind": "recover", "n": 8, "ratio": 16, "seed": 2, "model": "tanh:alpha=2.0",
                  "out": "old.csv"}
        manifest = tmp_path / "old.csv.manifest.json"
        manifest.write_text(json.dumps({"artifact_version": "0.1.0", "config": config}))
        rerun, mpath, _ = bench.run_manifest(manifest)
        args = ["recover", "--n", "8", "--ratio", "16", "--seed", "2", "--model", "tanh:alpha=2"]
        assert cli.main(args + ["--out", "cli.csv"]) == 0
        assert rerun.read_bytes() == (tmp_path / "cli.csv").read_bytes()
        assert json.loads(mpath.read_text())["config"]["model"] == "tanh:alpha=2"

    def test_manifest_round_trip(self, tmp_path):
        cfg = _cfg(kind="lambda-sweep", samples=5000, sigmas=(0.5,), out="x.csv")
        path = bench.write_manifest(cfg, tmp_path / "x.csv")
        assert bench.load_manifest(path) == cfg
        # manifests written while the spectral shift existed still load
        payload = json.loads(path.read_text())
        payload["config"]["shift"] = True
        path.write_text(json.dumps(payload))
        assert bench.load_manifest(path) == cfg

    def test_artifact_version_is_the_project_version(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
        with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
            project = tomllib.load(fh)["project"]
        path = bench.write_manifest(_cfg(kind="recover"), tmp_path / "x.csv")
        recorded = json.loads(path.read_text())["artifact_version"]
        assert recorded == __version__ == project["version"]

    @pytest.mark.parametrize("kind", list(bench.EXPERIMENTS))
    def test_library_and_cli_defaults_agree(self, kind):
        args = cli.build_parser().parse_args([kind])
        assert _cfg(kind=kind) == ExperimentConfig(**vars(args))

    @pytest.mark.parametrize("kind", list(bench.EXPERIMENTS))
    def test_runner_returns_rows_as_wide_as_the_header_and_summary_lines(self, kind):
        spec = bench.EXPERIMENTS[kind]
        rows, summary = spec.runner(_cfg(kind=kind, **TINY_CONFIGS[kind]))
        assert isinstance(rows, list) and rows
        assert all(isinstance(row, list) and len(row) == len(spec.header) for row in rows)
        assert isinstance(summary, list)
        assert all(isinstance(line, str) for line in summary)

    def test_defaults_fill_what_the_run_reads(self):
        cfg = _cfg(kind="recover")
        assert (cfg.n, cfg.ratio, cfg.inits, cfg.refine) == (64, 16, ("onebit",), "altmin")
        assert (cfg.tol, cfg.max_iters) == (1e-12, 200)
        assert cfg.epsilon is None and cfg.trials is None and cfg.alphas is None
        assert _cfg(kind="recover", refine="resampled").epsilon == 0.25
        # the sweep's Lanczos runs stop by initial_estimate's own rule
        sweep = _cfg(kind="distortion-sweep")
        assert sweep.tol is None and sweep.max_iters is None
        assert _cfg(kind="lambda-sweep").n is None

    @pytest.mark.parametrize("kind", list(READ_FIELDS))
    def test_manifest_records_what_the_run_reads(self, tmp_path, kind):
        path = bench.write_manifest(_cfg(kind=kind), tmp_path / "x.csv")
        config = json.loads(path.read_text())["config"]
        assert set(config) == READ_FIELDS[kind] | {"kind", "seed", "out"}
        assert None not in (config[name] for name in READ_FIELDS[kind] - {"m"})

    @pytest.mark.parametrize("refine", list(RECOVER_MODE_FIELDS))
    def test_recover_manifest_follows_the_refine_mode(self, tmp_path, refine):
        args = cli.build_parser().parse_args(["recover", "--n", "16", "--refine", refine])
        path = bench.write_manifest(ExperimentConfig(**vars(args)), tmp_path / "x.csv")
        config = json.loads(path.read_text())["config"]
        expected = RECOVER_FIELDS | RECOVER_MODE_FIELDS[refine] | {"kind", "seed", "out"}
        assert set(config) == expected
        if refine == "altmin":
            assert (config["tol"], config["max_iters"]) == (1e-12, 200)

    def test_unread_setting_is_an_error(self):
        for kind, name, value, reads in [
            ("lambda-sweep", "n", 8, "samples, alphas, sigmas, etas"),
            ("cdp-convergence", "m", 64, "n, ratio, model, inits, trials, tol, max_iters"),
            ("distortion-sweep", "model", "identity", "n, m, ratio, trials, alphas"),
            ("distortion-sweep", "tol", 1e-8, "n, m, ratio, trials, alphas"),
            ("distortion-sweep", "max_iters", 1000, "n, m, ratio, trials, alphas"),
        ]:
            with pytest.raises(ConfigError) as raised:
                _cfg(kind=kind, **{name: value})
            assert str(raised.value) == f"{kind} does not read {name}; it reads {reads}"
        # recover names its refine mode and lists only what that mode reads
        for name, value in (("alphas", (1.0,)), ("epsilon", 0.5)):
            with pytest.raises(ConfigError) as raised:
                _cfg(kind="recover", **{name: value})
            assert str(raised.value) == (
                f"recover with refine=altmin does not read {name}; "
                "it reads n, m, ratio, model, inits, tol, max_iters, refine"
            )

    def test_checked_when_built(self):
        with pytest.raises(ConfigError, match="n must be positive; got 0"):
            ExperimentConfig.from_dict({"kind": "recover", "n": 0, "seed": 0})
        with pytest.raises(ConfigError, match="unknown experiment kind 'mystery'"):
            ExperimentConfig.from_dict({"kind": "mystery"})
        # the filled tol and max_iters go along, and resampled reads neither
        with pytest.raises(ConfigError, match="refine=resampled does not read tol; it reads n,"):
            replace(_cfg(kind="recover"), refine="resampled")

    def test_one_trial_is_unset_where_trials_are_unread(self):
        cfg = _cfg(kind="recover", trials=1)
        assert cfg == _cfg(kind="recover")
        assert "trials" not in cfg.to_dict()
        for trials in (0, 2):
            with pytest.raises(ConfigError, match="trials"):
                _cfg(kind="recover", trials=trials)

    def test_benchmark_configs_validate(self):
        # every workload's config, built as the benchmark builds it: the
        # timed trials at the workload's size, then the warm-up run
        run = _perfbench_run()
        for workload in run.WORKLOADS.values():
            for overrides in ({}, {"n": run.WARMUP_N}):
                cfg = run.make_config(bench, workload, 3, Path("trial.csv"), **overrides)
                assert cfg.n == overrides.get("n", workload.config["n"])

    @pytest.mark.parametrize("case", list(OLD_MANIFESTS))
    def test_old_manifest_reruns_byte_identical(self, tmp_path, monkeypatch, case):
        config, args = OLD_MANIFESTS[case]
        monkeypatch.chdir(tmp_path)
        manifest = tmp_path / "old.csv.manifest.json"
        payload = {"artifact_version": "0.1.0", "config": config}
        manifest.write_text(json.dumps(payload))
        rerun, _, _ = bench.run_manifest(manifest)
        assert rerun.name == "old.csv"
        assert cli.main(args + ["--out", "cli.csv"]) == 0
        assert rerun.read_bytes() == (tmp_path / "cli.csv").read_bytes()
        old = replace(bench.load_manifest(manifest), out="cli.csv")
        assert old == bench.load_manifest("cli.csv.manifest.json")

    @pytest.mark.parametrize(
        "kw",
        [
            {"kind": "mystery"},
            {"kind": "recover", "n": 0},
            {"kind": "recover", "n": 8, "trials": 0},
            {"kind": "lambda-sweep", "samples": 10},
            {"kind": "recover", "n": 8, "epsilon": 0.0},
            {"kind": "recover", "n": 8, "epsilon": 1.0},
            {"kind": "recover", "n": 8, "refine": "polish"},
            {"kind": "recover", "n": 8, "m": -4},
            {"kind": "recover", "n": 8, "ratio": 0},
            {"kind": "recover", "n": 8, "model": "tanh:alpha=-1"},
            {"kind": "recover", "n": 8, "model": "laplace:b=1"},
            {"kind": "recover", "n": 8, "inits": ("psychic",)},
            {"kind": "recover", "n": 8, "inits": ()},
            {"kind": "recover", "n": 8, "model": "expnoise:sigma=nan", "inits": ("onebit",)},
            {"kind": "recover", "n": 8, "model": "clipgauss:sigma=inf", "inits": ("onebit",)},
            {"kind": "recover", "n": 8, "model": "tanh:alpha=inf", "inits": ("onebit",)},
            {"kind": "recover", "n": 8, "model": "poisson:eta=inf", "inits": ("onebit",)},
            {"kind": "recover", "n": 8, "tol": float("nan")},
            {"kind": "recover", "n": 8, "tol": float("inf")},
            {"kind": "recover", "n": 8, "tol": -1.0},
            {"kind": "recover", "n": 16, "m": 4},
        ],
    )
    def test_invalid_configs(self, kw):
        with pytest.raises(ConfigError):
            _cfg(**kw)

    @pytest.mark.parametrize("case", list(REFUSED_AT_BUILD))
    def test_refused_when_built(self, case):
        kw, _, phrase = REFUSED_AT_BUILD[case]
        with pytest.raises(ConfigError, match=re.escape(phrase)):
            _cfg(**kw)

    @pytest.mark.parametrize("case", list(WRONG_TYPES))
    def test_wrong_type_refused_when_built(self, case):
        (name, value), = WRONG_TYPES[case].items()
        phrase = f"{name} must be of type .*; got {re.escape(repr(value))}"
        with pytest.raises(ConfigError, match=phrase):
            _cfg(kind="recover", **WRONG_TYPES[case])

    def test_json_integer_read_as_a_float_is_kept(self, tmp_path):
        for tol in (0, 10**300):  # 10**300 is beyond int64 but converts to a float
            cfg = _cfg(kind="recover", tol=tol, m=64)
            assert type(cfg.tol) is int
            path = bench.write_manifest(cfg, tmp_path / "x.csv")
            assert json.loads(path.read_text())["config"]["tol"] == tol
            assert bench.load_manifest(path) == cfg

    def test_json_integer_grid_values_are_written_as_integers(self, tmp_path):
        # a model keeps its parameter as given, so the sweep's CSV keeps the ints
        cfg = _cfg(kind="lambda-sweep", samples=1000, alphas=(2,), sigmas=(1,), etas=(4,))
        path = bench.write_manifest(cfg, tmp_path / "x.csv")
        out, _, _ = bench.run_manifest(path, out=str(tmp_path / "x.csv"))
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert [row[:2] for row in rows[1:]] == [
            ["identity", ""], ["expnoise", "1"], ["tanh", "2"], ["poisson", "4"]
        ]

    @pytest.mark.parametrize("name, value", [("n", 8.0), ("seed", "1"), ("inits", [1])])
    def test_hand_edited_manifest_of_the_wrong_type_writes_nothing(self, tmp_path, name, value):
        path = bench.write_manifest(_cfg(kind="recover", n=8), tmp_path / "x.csv")
        payload = json.loads(path.read_text())
        payload["config"][name] = value
        path.write_text(json.dumps(payload))
        edited = path.read_bytes()
        with pytest.raises(ConfigError, match=f"{name} must be of type"):
            bench.run_manifest(path, out=str(tmp_path / "rerun.csv"))
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
        assert path.read_bytes() == edited

    @pytest.mark.parametrize("case", list(MALFORMED_MANIFESTS))
    def test_malformed_manifest_writes_nothing(self, tmp_path, case):
        path = tmp_path / "x.csv.manifest.json"
        path.write_text(MALFORMED_MANIFESTS[case])
        with pytest.raises(ConfigError):
            bench.run_manifest(path, out=str(tmp_path / "rerun.csv"))
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_cli_refine_choices_are_the_library_modes(self):
        assert cli._FLAGS["refine"][1]["choices"] is bench.REFINE_MODES

    def test_manifest_with_a_repeated_init_does_not_load(self, tmp_path):
        path = bench.write_manifest(_cfg(kind="recover"), tmp_path / "x.csv")
        payload = json.loads(path.read_text())
        payload["config"]["inits"] = ["onebit", "Onebit"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="each once"):
            bench.load_manifest(path)

    def test_resampled_size_rule_is_the_library_rule(self):
        # 1/5e-324 overflows, so the schedule refuses it before counting blocks
        for n, m, epsilon in ((64, 40, 0.25), (1, 1, 0.5), (64, 400, 5e-324)):
            op, pairs = sensing.build_paired_ensemble(n, m, seed=0)
            with pytest.raises(ValueError) as library:
                recovery.resample_blocks(op, np.ones(2 * m), np.ones(m), epsilon)
            with pytest.raises(ConfigError) as config:
                _cfg(kind="recover", n=n, m=m, epsilon=epsilon, refine="resampled")
            assert str(config.value) == str(library.value)
        # the smallest ensemble the schedule takes builds
        _cfg(kind="recover", n=64, m=96, refine="resampled")

    def test_weighted_init_builds_under_any_model(self):
        # one rule for every kind: zero-count pairs get weight 0, so the
        # pair ratio weights are defined under every model
        for model in ("tanh:alpha=2", "poisson:eta=4", "expnoise:sigma=1"):
            cfg = _cfg(kind="recover", n=8, model=model, inits=("weighted1bit",))
            assert cfg.model == model

    def test_weighted_init_fine_with_identity(self):
        _cfg(kind="recover", n=8, inits=("weighted1bit",))

    def test_alpha_grid_distinct_and_nonempty(self):
        for alphas in ((0.5, 2.0, 0.5), ()):
            with pytest.raises(ConfigError, match="alpha"):
                _cfg(kind="distortion-sweep", n=8, alphas=alphas)
        with pytest.raises(ConfigError, match="distinct"):
            _cfg(kind="lambda-sweep", alphas=(1.0, 1.0))
        # the channel sweep has identity, noise and Poisson rows without alphas
        _cfg(kind="lambda-sweep", alphas=())


class TestLambdaSweep:
    def test_grid_and_estimates(self):
        cfg = _cfg(
            kind="lambda-sweep",
            samples=100000,
            sigmas=(1.0,),
            alphas=(0.5, 4.0),
            etas=(1.0,),
            seed=7,
        )
        rows, _ = bench.run_lambda_sweep(cfg)
        assert len(rows) == 1 + 1 + 2 + 1
        by_model = {}
        for model, param, est, se, closed in rows:
            by_model.setdefault(model, []).append((param, est, se, closed))
            assert 0.0 < est <= 1.0 + 3 * se
        ident = by_model["identity"][0]
        assert abs(ident[1] - 1.0) <= 4 * ident[2]
        assert ident[3] == 1.0
        exp_row = by_model["expnoise"][0]
        assert abs(exp_row[1] - exp_row[3]) <= 4 * exp_row[2]
        tanh_vals = [est for _, est, _, _ in by_model["tanh"]]
        assert tanh_vals[1] <= tanh_vals[0] + 1e-12
        assert all(closed is None for _, _, _, closed in by_model["tanh"])
        assert all(closed is None for _, _, _, closed in by_model["poisson"])

    def test_same_seed_same_rows(self):
        cfg = _cfg(kind="lambda-sweep", samples=5000, sigmas=(0.5,), alphas=(1.0,), etas=(2.0,))
        assert bench.run_lambda_sweep(cfg) == bench.run_lambda_sweep(cfg)


class TestDistortionSweep:
    def test_sign_method_ignores_distortion_strength(self):
        cfg = _cfg(
            kind="distortion-sweep",
            n=16,
            ratio=8,
            trials=3,
            alphas=(0.5, 8.0),
            seed=3,
        )
        rows, _ = bench.run_distortion_sweep(cfg)
        assert len(rows) == 4
        bit = {alpha: med for alpha, method, med, _, _ in rows if method == "1bitPhase"}
        sub = {alpha: med for alpha, method, med, _, _ in rows if method == "SubExpPhase"}
        assert bit[0.5] == bit[8.0]
        assert set(sub) == {0.5, 8.0}
        assert all(r[4] == 3 for r in rows)
        assert all(0.0 <= r[2] <= 1.0 for r in rows)


class TestConvergenceRuns:
    def test_altmin_curves(self):
        cfg = _cfg(
            kind="altmin-convergence",
            n=32,
            ratio=4,
            trials=2,
            inits=("random", "onebit"),
            seed=5,
        )
        _, rows, _ = bench.run(cfg)
        onebit = [(it, v) for init, it, v in rows if init == "onebit"]
        assert onebit[0][0] == 0
        assert [it for it, _ in onebit] == list(range(len(onebit)))
        assert onebit[-1][1] <= 1e-6
        assert {init for init, _, _ in rows} == {"random", "onebit"}

    def test_cdp_curves(self):
        cfg = _cfg(
            kind="cdp-convergence",
            n=16,
            ratio=4,
            trials=2,
            inits=("onebit",),
            seed=6,
        )
        _, rows, _ = bench.run(cfg)
        assert rows[0][1] == 0
        assert rows[-1][2] <= 1e-6

    @pytest.mark.parametrize("trials", [1, 2, 3, 4, 7, 40])
    def test_median_curves_are_np_median_bit_for_bit(self, trials):
        rng = np.random.default_rng(trials)
        curves = [list(rng.random(rng.integers(1, 102)) ** 8) for _ in range(trials)]
        width = max(map(len, curves))
        padded = np.array([c + [c[-1]] * (width - len(c)) for c in curves])
        assert bench._median_curves(curves) == np.median(padded, axis=0).tolist()

    def test_cdp_trial_masks_are_the_two_family_stack(self):
        cfg = _cfg(kind="cdp-convergence", n=16, ratio=3, trials=2, seed=7)
        for trial in range(2):
            op, pairs, _, _ = bench._cdp_trial(cfg, trial)
            families = [
                build_cdp_operator(16, 3, bench._trial_seed(7, f"cdp-masks-{k}", trial)).masks
                for k in (1, 2)
            ]
            assert op.masks.tobytes() == np.vstack(families).tobytes()
            assert pairs == (slice(None, 48), slice(48, None))

    def test_cdp_sign_matvec_matches_dense_assembly(self):
        n = 8
        op1 = build_cdp_operator(n, 2, seed=11)
        op2 = build_cdp_operator(n, 2, seed=12)
        # one operator over both mask families: family 1 fills outputs [:2n]
        op = CdpOperator(np.vstack([op1.masks, op2.masks]))
        rng = substream(11, "x0")
        x0 = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
        b = intensities(op, x0)
        y = quantize(b[: 2 * n], b[2 * n :])
        surrogate = op.surrogate(np.concatenate([2 * y, -2 * y]))

        eye = np.eye(n, dtype=complex)
        mat1 = np.stack([op1.apply(eye[:, j]) for j in range(n)], axis=1)
        mat2 = np.stack([op2.apply(eye[:, j]) for j in range(n)], axis=1)
        dense = dense_one_bit_matrix(mat1.conj(), mat2.conj(), y.astype(np.int8))

        probe_rng = substream(11, "probe")
        for _ in range(4):
            v = probe_rng.standard_normal(n) + 1j * probe_rng.standard_normal(n)
            np.testing.assert_allclose(surrogate(v), dense @ v, atol=1e-10)


class TestRecoverRun:
    def test_refine_none_reports_init_only(self):
        cfg = _cfg(kind="recover", n=16, ratio=16, inits=("onebit",), refine="none", seed=2)
        rows, summary = bench.run_recover(cfg)
        assert rows == [["init", 0, rows[0][2]]]
        assert any(line.startswith("final dist_sq") for line in summary)

    def test_refine_altmin_traces_to_solution(self):
        cfg = _cfg(kind="recover", n=16, ratio=16, inits=("onebit",), seed=2)
        rows, summary = bench.run_recover(cfg)
        stages = [r[0] for r in rows]
        assert stages[0] == "init"
        assert set(stages[1:]) == {"altmin"}
        assert rows[-1][2] <= 1e-8
        assert any("converged: True" in line for line in summary)

    def test_refine_resampled_stage_rows(self):
        cfg = _cfg(
            kind="recover", n=16, ratio=16, inits=("onebit",),
            refine="resampled", epsilon=0.5, seed=2,
        )
        rows, summary = bench.run_recover(cfg)
        resampled = [r for r in rows if r[0] == "resampled"]
        assert [r[1] for r in resampled] == [0, 1]
        assert resampled[-1][2] <= 0.25
        assert any("refine: resampled" in line for line in summary)
        # the summary describes the init that was refined: stage 0
        assert f"init dist_sq: {resampled[0][2]!r}" in summary
        # onebit signs come from the clean intensities, so saturating the
        # observed ones cannot move the block-0 init
        stage0 = {}
        for alpha in (1, 64):
            rows, _ = bench.run_recover(replace(cfg, model=f"tanh:alpha={alpha}"))
            stage0[alpha] = rows[0]
        assert stage0[1][:2] == ["resampled", 0]
        assert stage0[64] == stage0[1]

    @pytest.mark.parametrize(
        "refine, stage", [("altmin", "init"), ("resampled", "resampled"), ("none", "init")]
    )
    def test_stage_zero_then_one_row_per_step(self, refine, stage):
        cfg = _cfg(kind="recover", n=16, ratio=16, inits=recovery.INIT_KINDS, refine=refine, seed=5)
        rows, summary = bench.run_recover(cfg)
        assert rows[0][:2] == [stage, 0]
        assert f"init dist_sq: {rows[0][2]!r}" in summary
        steps = next((int(l.split(": ")[1]) for l in summary if l.startswith("iterations:")), 0)
        assert (steps > 0) == (refine != "none")
        assert [r[:2] for r in rows[1:]] == [[refine, k] for k in range(1, steps + 1)]

    def test_multi_init_selection_reported(self):
        cfg = _cfg(kind="recover", n=16, ratio=16, seed=4, refine="none", inits=recovery.INIT_KINDS)
        _, summary = bench.run_recover(cfg)
        line = next(l for l in summary if l.startswith("init:"))
        assert "(of random, subexp, onebit, weighted1bit)" in line

    def test_init_convergence_reported(self, monkeypatch):
        cfg = _cfg(kind="recover", n=16, ratio=16, inits=("onebit",), refine="none", seed=2)
        _, summary = bench.run_recover(cfg)
        assert "init converged: True" in summary
        # one Lanczos matvec cannot resolve the top eigenvector at n = 16
        monkeypatch.setattr(
            recovery, "lanczos", lambda matvec, n, tol, max_iters, seed:
            numkit.lanczos(matvec, n, tol, 1, seed),
        )
        _, summary = bench.run_recover(cfg)
        assert "init converged: False" in summary

    @pytest.mark.parametrize("refine", ["altmin", "resampled"])
    def test_rows_are_scanned_once(self, monkeypatch, refine):
        scans = []
        checked = sensing._checked_matrix

        def counting(a, name):
            scans.append(a.shape)
            checked(a, name)

        monkeypatch.setattr(sensing, "_checked_matrix", counting)
        bench.run_recover(_cfg(kind="recover", n=16, ratio=16, refine=refine, seed=3))
        assert scans == [(2 * 16 * 16, 16)]


class TestRefineTable:
    """``bench.REFINE_MODES`` is the one table of refine modes, checked
    against the independent oracle ``RECOVER_MODE_FIELDS``."""

    def test_each_mode_setting_is_a_recover_field_of_one_mode(self):
        named = [name for mode in bench.REFINE_MODES.values() for name in mode.settings]
        assert set(named) <= set(bench.EXPERIMENTS["recover"].fields)
        assert len(named) == len(set(named))
        assert {
            refine: set(mode.settings) for refine, mode in bench.REFINE_MODES.items()
        } == RECOVER_MODE_FIELDS

    @pytest.mark.parametrize("args, calls", [
        (["recover", "--n", "8", "--refine", "altmin"], [1]),
        (["altmin-convergence", "--n", "8", "--trials", "2", "--init", "onebit,random"], [2, 2]),
        (["cdp-convergence", "--n", "8", "--ratio", "2", "--trials", "2"], [4, 4]),
    ])
    def test_the_altmin_entry_refines_recover_and_the_convergence_runs(
        self, tmp_path, monkeypatch, capsys, args, calls
    ):
        seen = []
        entry = bench.REFINE_MODES["altmin"]

        def recording(cfg, op, b, y, pairs, stages, starts, callback):
            seen.append(len(starts))
            return entry.refine(cfg, op, b, y, pairs, stages, starts, callback)

        monkeypatch.setitem(bench.REFINE_MODES, "altmin", replace(entry, refine=recording))
        assert cli.main(args + ["--out", str(tmp_path / "x.csv")]) == 0
        assert seen == calls

    def test_a_new_entry_is_a_refine_mode_of_recover(self, tmp_path, monkeypatch, capsys):
        def halving(cfg, op, b, y, pairs, stages, starts, callback):
            for run, x in enumerate(starts):
                callback(run, 1, x / 2)
            return [recovery.RecoveryReport(x / 2, [0.0], False) for x in starts]

        monkeypatch.setitem(bench.REFINE_MODES, "halve", bench.RefineMode((), False, halving))
        out = tmp_path / "x.csv"
        assert cli.main(["recover", "--n", "8", "--refine", "halve", "--out", str(out)]) == 0
        summary = capsys.readouterr().out.splitlines()
        assert "refine: halve" in summary
        assert summary[-3:-1] == ["iterations: 1", "converged: False"]
        with open(out) as fh:
            rows = list(csv.reader(fh))
        # dist_sq does not see the scale
        assert rows == [["stage", "iteration", "dist_sq"], ["init", "0", rows[1][2]],
                        ["halve", "1", rows[1][2]]]
        config = json.loads(bench.manifest_path(out).read_text())["config"]
        assert set(config) == RECOVER_FIELDS | {"kind", "seed", "out"}
        assert config["refine"] == "halve"


# every kind at a tiny size, and recover under each refine mode
TINY_RUNS = {
    **{kind: dict(kind=kind, **kw) for kind, kw in TINY_CONFIGS.items() if kind != "recover"},
    **{f"recover-{refine}": dict(kind="recover", **TINY_CONFIGS["recover"], refine=refine)
       for refine in bench.REFINE_MODES},
}


class TestThreads:
    """A run leaves no thread behind, on either schedule of the resampled
    stages' factors (see ``recovery.factor_ahead``), which is forced here
    so that the BLAS thread count does not choose it."""

    @pytest.mark.parametrize("worker", [True, False], ids=["worker", "serial"])
    @pytest.mark.parametrize("run", list(TINY_RUNS))
    def test_a_run_leaves_no_thread_running(self, tmp_path, monkeypatch, run, worker):
        monkeypatch.setattr(recovery, "_spare_core", lambda: worker)
        before = threading.enumerate()
        bench.write_outputs(_cfg(**TINY_RUNS[run], out=str(tmp_path / "x.csv")))
        assert threading.enumerate() == before

    @pytest.mark.parametrize("worker", [True, False], ids=["worker", "serial"])
    @pytest.mark.parametrize("refine", bench.REFINE_MODES)
    def test_a_run_that_raises_leaves_no_thread_running(self, tmp_path, monkeypatch, refine,
                                                         worker):
        monkeypatch.setattr(recovery, "_spare_core", lambda: worker)

        def failing(*args):
            raise RuntimeError("selection failed")

        # raised while the worker, if any, factors the stages
        monkeypatch.setattr(bench, "multi_init_select", failing)
        before = threading.enumerate()
        cfg = _cfg(**TINY_RUNS[f"recover-{refine}"], out=str(tmp_path / "x.csv"))
        with pytest.raises(RuntimeError, match="selection failed"):
            bench.write_outputs(cfg)
        assert threading.enumerate() == before

    def test_both_schedules_write_the_same_bytes(self, tmp_path, monkeypatch, capsys):
        written = {}
        for worker in (True, False):
            monkeypatch.setattr(recovery, "_spare_core", lambda worker=worker: worker)
            # the same relative --out under both, which the manifest records
            (tmp_path / str(worker)).mkdir()
            monkeypatch.chdir(tmp_path / str(worker))
            for seed in range(3):
                out = Path(f"r{seed}.csv")
                args = ["recover", "--n", "32", "--ratio", "16", "--refine", "resampled",
                        "--seed", str(seed), "--out", str(out)]
                assert cli.main(args) == 0
                written[worker, seed] = (capsys.readouterr().out, out.read_bytes(),
                                         bench.manifest_path(out).read_bytes())
        for seed in range(3):
            assert written[True, seed] == written[False, seed]


class TestCsvAndManifest:
    def test_format_cell(self):
        assert bench._format_cell(None) == ""
        assert bench._format_cell(True) == "True"
        assert bench._format_cell(np.int64(3)) == "3"
        assert bench._format_cell(np.float64(0.5)) == "0.5"
        assert bench._format_cell(1e-17) == "1e-17"
        assert bench._format_cell("tanh") == "tanh"

    def test_write_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        bench.write_csv(path, ["a", "b"], [[1, None], [0.25, "x"]])
        assert path.read_text(encoding="utf-8") == "a,b\n1,\n0.25,x\n"

    def test_write_outputs_and_rerun_identical(self, tmp_path):
        cfg = _cfg(
            kind="recover", n=8, ratio=8, inits=("onebit",), seed=9,
            out=str(tmp_path / "first.csv"),
        )
        csv_path, mpath, _ = bench.write_outputs(cfg)
        assert csv_path.exists() and mpath.exists()
        payload = json.loads(mpath.read_text())
        assert payload["config"]["kind"] == "recover"
        csv2, _, _ = bench.run_manifest(mpath, out=str(tmp_path / "second.csv"))
        assert csv2.read_bytes() == csv_path.read_bytes()

    def test_rerun_to_missing_directory_writes_nothing(self, tmp_path):
        cfg = _cfg(kind="recover", n=8, ratio=8, seed=9, out=str(tmp_path / "first.csv"))
        _, mpath, _ = bench.write_outputs(cfg)
        before = sorted(tmp_path.rglob("*"))
        with pytest.raises(ConfigError, match="not a directory"):
            bench.run_manifest(mpath, out=str(tmp_path / "missing" / "second.csv"))
        assert sorted(tmp_path.rglob("*")) == before


class TestCli:
    def test_lambda_sweep_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "lam.csv"
        rc = cli.main([
            "lambda-sweep", "--samples", "2000", "--sigmas", "0.5",
            "--alphas", "1", "--etas", "2", "--out", str(out),
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert f"wrote {out}" in captured.out
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["model", "param", "lambda_estimate", "std_error", "closed_form"]
        assert len(rows) == 1 + 4
        assert rows[1][0] == "identity"

    def test_recover_prints_summary(self, tmp_path, capsys):
        out = tmp_path / "rec.csv"
        rc = cli.main([
            "recover", "--n", "8", "--ratio", "8", "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "final dist_sq:" in captured.out
        assert bench.manifest_path(out).exists()

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        args = ["recover", "--n", "8", "--ratio", "8", "--seed", "3"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_weighted_init_with_distortion_exits_0(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = cli.main([
            "recover", "--n", "8", "--model", "tanh:alpha=2",
            "--init", "weighted1bit", "--out", str(out),
        ])
        assert rc == 0
        assert "init: weighted1bit" in capsys.readouterr().out
        assert out.read_text().startswith("stage,iteration,dist_sq\n")

    def test_bad_model_exits_2(self, tmp_path, capsys):
        rc = cli.main([
            "recover", "--n", "8", "--model", "cauchy:s=1",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_non_finite_sweep_parameter_exits_2(self, tmp_path, capsys):
        for k, grid in enumerate([
            ["--sigmas", "nan"],
            ["--alphas", "nan,-1", "--sigmas", "1", "--etas", "1"],
        ]):
            out = tmp_path / f"lam{k}.csv"
            rc = cli.main(["lambda-sweep", "--samples", "2000", *grid, "--out", str(out)])
            assert rc == 2, grid
            assert "finite" in capsys.readouterr().err
            assert not out.exists()

    def test_non_finite_tol_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = cli.main(["recover", "--n", "8", "--tol", "nan", "--out", str(out)])
        assert rc == 2
        assert "tol" in capsys.readouterr().err
        assert not out.exists()

    def test_too_few_measurements_exits_2(self, tmp_path, capsys):
        for kind, *extra in (["recover"], ["altmin-convergence", "--trials", "1"]):
            out = tmp_path / f"{kind}.csv"
            rc = cli.main([kind, "--n", "16", "--m", "4", *extra, "--out", str(out)])
            assert rc == 2, kind
            assert "least-squares step needs at least n = 16" in capsys.readouterr().err
            assert not out.exists()
        # a spectral-only run solves no least-squares problem
        out = tmp_path / "none.csv"
        assert cli.main(["recover", "--n", "16", "--m", "4", "--refine", "none",
                         "--out", str(out)]) == 0

    @pytest.mark.parametrize("refine", ["none", "resampled"])
    @pytest.mark.parametrize("flag,value", [("--tol", "1e-3"), ("--max-iters", "5")])
    def test_unread_stopping_rule_exits_2(self, tmp_path, capsys, refine, flag, value):
        out = tmp_path / "x.csv"
        rc = cli.main(["recover", "--n", "16", "--ratio", "16", "--refine", refine,
                       flag, value, "--out", str(out)])
        assert rc == 2
        reads = "epsilon, refine" if refine == "resampled" else "refine"
        assert capsys.readouterr().err == (
            f"error: recover with refine={refine} does not read {flag[2:].replace('-', '_')}; "
            f"it reads n, m, ratio, model, inits, {reads}\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("refine", ["altmin", "none"])
    def test_unread_epsilon_exits_2(self, tmp_path, capsys, refine):
        out = tmp_path / "x.csv"
        rc = cli.main(["recover", "--n", "16", "--ratio", "16", "--refine", refine,
                       "--epsilon", "0.5", "--out", str(out)])
        assert rc == 2
        reads = "tol, max_iters, refine" if refine == "altmin" else "refine"
        assert capsys.readouterr().err == (
            f"error: recover with refine={refine} does not read epsilon; "
            f"it reads n, m, ratio, model, inits, {reads}\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_max_iters_below_one_exits_2(self, tmp_path, capsys):
        runs = [
            ["recover", "--n", "16", "--ratio", "8", "--refine", "none", "--max-iters", "-3"],
            ["recover", "--n", "16", "--ratio", "8", "--refine", "resampled", "--max-iters", "-7"],
            ["altmin-convergence", "--n", "8", "--trials", "1", "--max-iters", "0"],
        ]
        for k, args in enumerate(runs):
            out = tmp_path / f"run{k}.csv"
            assert cli.main(args + ["--out", str(out)]) == 2, args
            assert "max_iters must be at least 1" in capsys.readouterr().err
            assert not out.exists()

    def test_cdp_convergence_rejects_m(self, tmp_path, capsys):
        out = tmp_path / "cdp.csv"
        rc = cli.main(["cdp-convergence", "--n", "16", "--ratio", "4", "--m", "3",
                       "--trials", "1", "--out", str(out)])
        assert rc == 2
        assert "--ratio" in capsys.readouterr().err
        assert not out.exists()

    def test_linalg_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        # the Cholesky factorization reports a leading minor not positive definite
        monkeypatch.setattr(blas, "zpotrf", with_lapack_info(blas.zpotrf, 3))
        for refine in ("altmin", "resampled"):
            out = tmp_path / f"{refine}.csv"
            rc = cli.main(["recover", "--n", "16", "--ratio", "8", "--refine", refine,
                           "--out", str(out)])
            assert rc == 3, refine
            assert "numerical failure: potrf found a leading minor not positive definite" in (
                capsys.readouterr().err
            )
            assert not out.exists()

    def test_value_error_in_a_run_exits_3(self, tmp_path, monkeypatch, capsys):
        def failing_observe(*args):
            raise ValueError("lam value too large")

        monkeypatch.setattr(bench, "observe_pairs", failing_observe)
        out = tmp_path / "x.csv"
        rc = cli.main(["recover", "--n", "16", "--ratio", "8", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == "numerical failure: lam value too large\n"
        assert list(tmp_path.iterdir()) == []

    def test_memory_error_in_a_run_exits_3(self, tmp_path, monkeypatch, capsys):
        # an ensemble that cannot be allocated, without allocating it
        def failing_build(*args):
            raise MemoryError("Unable to allocate 1.00 TiB for an array")

        monkeypatch.setattr(bench, "build_paired_ensemble", failing_build)
        out = tmp_path / "x.csv"
        rc = cli.main(["recover", "--n", "16", "--ratio", "8", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == (
            "numerical failure: Unable to allocate 1.00 TiB for an array\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ["recover", "--n", "4", "--m", "4", "--init", "subexp"],
        ["recover", "--n", "4", "--m", "4", "--init", "subexp", "--refine", "none"],
        ["recover", "--n", "4", "--m", "8", "--init", "onebit", "--refine", "resampled",
         "--epsilon", "0.5"],
        ["altmin-convergence", "--n", "4", "--m", "4", "--trials", "1"],
        # every trial skipped: the run fails with the first trial's reason
        ["altmin-convergence", "--n", "4", "--m", "4", "--trials", "3"],
    ])
    def test_all_zero_observation_exits_3(self, tmp_path, capsys, args):
        # at eta = 1e6 every Poisson count of these tiny ensembles is zero
        out = tmp_path / "x.csv"
        rc = cli.main([*args, "--model", "poisson:eta=1e6", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == (
            "numerical failure: every observed intensity is zero under poisson:eta=1e+06\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind, seed", [("onebit", "10"), ("weighted1bit", "151")])
    def test_all_tied_pairs_exit_3(self, tmp_path, capsys, kind, seed):
        # every Poisson count pair of these seeds ties, so y = 0 and the
        # one-bit surrogate is zero: no init to report, converged or not
        out = tmp_path / "x.csv"
        rc = cli.main(["recover", "--n", "4", "--m", "4", "--model", "poisson:eta=20",
                       "--init", kind, "--refine", "none", "--seed", seed, "--out", str(out)])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"numerical failure: every {kind} surrogate coefficient is zero: "
            "every pair ties or every intensity is zero\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_degenerate_trials_are_skipped_for_every_kind(self, tmp_path, monkeypatch, capsys):
        # 2 of these 20 Poisson trials tie every pair, so no one-bit init exists
        refined = []
        real = bench.alt_min_many

        def counting(op, b, starts, **kwargs):
            refined.append(len(starts))
            return real(op, b, starts, **kwargs)

        monkeypatch.setattr(bench, "alt_min_many", counting)
        out = tmp_path / "x.csv"
        rc = cli.main(["altmin-convergence", "--n", "4", "--m", "4", "--model", "poisson:eta=2",
                       "--trials", "20", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "skipped trials: 2 of 20, on degenerate data (every onebit surrogate coefficient "
            "is zero: every pair ties or every intensity is zero)"
        )
        # the kept trials refine all four kinds, the skipped ones none
        assert refined == [4] * 18
        with open(out) as fh:
            assert {row["init"] for row in csv.DictReader(fh)} == set(recovery.INIT_KINDS)

    def test_distortion_sweep_counts_the_trials_it_used(self, tmp_path, monkeypatch, capsys):
        real = bench._observed_trial

        def observed(cfg, trial, builder, model):
            if trial == 1:
                raise recovery.DegenerateDataError("every observed intensity is zero")
            return real(cfg, trial, builder, model)

        monkeypatch.setattr(bench, "_observed_trial", observed)
        out = tmp_path / "x.csv"
        rc = cli.main(["distortion-sweep", "--n", "8", "--ratio", "4", "--trials", "3",
                       "--alphas", "1,2", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "skipped trials: 1 of 3, on degenerate data (every observed intensity is zero)"
        )
        with open(out) as fh:
            assert [row["trials"] for row in csv.DictReader(fh)] == ["2"] * 4

    def test_poisson_rate_beyond_the_sampler_exits_3(self, tmp_path, capsys):
        out = tmp_path / "lam.csv"
        rc = cli.main(["lambda-sweep", "--samples", "1000", "--etas", "1e-300", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")
        assert list(tmp_path.iterdir()) == []

    def test_ritz_step_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(blas, "dstebz", with_lapack_info(blas.dstebz, 1))
        for refine in ("altmin", "resampled"):
            out = tmp_path / f"{refine}.csv"
            rc = cli.main(["recover", "--n", "16", "--ratio", "8", "--refine", refine,
                           "--out", str(out)])
            assert rc == 3, refine
            assert "numerical failure: stebz did not converge" in capsys.readouterr().err
            assert not out.exists()

    def test_bad_init_exits_2(self, tmp_path, capsys):
        rc = cli.main([
            "altmin-convergence", "--n", "8", "--trials", "1",
            "--init", "psychic", "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2
        assert "psychic" in capsys.readouterr().err

    def test_default_inits_per_kind(self):
        parser = cli.build_parser()
        args = parser.parse_args(["recover", "--n", "8"])
        assert ExperimentConfig(**vars(args)).inits == ("onebit",)
        args = parser.parse_args(["altmin-convergence", "--n", "8"])
        assert ExperimentConfig(**vars(args)).inits == recovery.INIT_KINDS

    @pytest.mark.parametrize("grid", ["--sigmas", "--alphas", "--etas"])
    def test_repeated_lambda_grid_exits_2(self, tmp_path, capsys, grid):
        grids = {"--sigmas": "1", "--alphas": "1", "--etas": "1", grid: "1,2,1"}
        out = tmp_path / "lam.csv"
        rc = cli.main(["lambda-sweep", "--samples", "2000",
                       *(word for item in grids.items() for word in item), "--out", str(out)])
        assert rc == 2
        assert f"{grid[2:]} must be distinct" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_repeated_or_empty_alpha_grid_exits_2(self, tmp_path, capsys):
        for alphas in ("0.5,2,0.5", "", "1,x"):
            out = tmp_path / "d.csv"
            rc = cli.main(["distortion-sweep", "--n", "8", "--ratio", "8", "--trials", "2",
                           "--alphas", alphas, "--out", str(out)])
            assert rc == 2, alphas
            assert "alpha" in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == []

    def test_bad_alpha_exits_2_before_any_trial(self, tmp_path, monkeypatch, capsys):
        builds = []

        def counting(*args):
            builds.append(args)
            return sensing.build_paired_ensemble(*args)

        monkeypatch.setattr(bench, "build_paired_ensemble", counting)
        rc = cli.main(["distortion-sweep", "--n", "8", "--ratio", "8", "--trials", "2",
                       "--alphas", "1,0", "--out", str(tmp_path / "d.csv")])
        assert rc == 2
        assert "alpha must be positive" in capsys.readouterr().err
        assert builds == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("case", list(REFUSED_AT_BUILD))
    def test_refused_config_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys, case):
        _, args, phrase = REFUSED_AT_BUILD[case]
        runs = []
        monkeypatch.setattr(bench, "run", lambda cfg: runs.append(cfg))
        assert cli.main(args + ["--out", str(tmp_path / "x.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert phrase in captured.err
        assert runs == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("target", ["missing/x.csv", "taken"])
    def test_unwritable_out_exits_2_before_the_run(self, tmp_path, monkeypatch, capsys, target):
        (tmp_path / "taken").mkdir()
        runs = []
        monkeypatch.setattr(bench, "run", lambda cfg: runs.append(cfg))
        rc = cli.main(["recover", "--n", "8", "--ratio", "16", "--out", str(tmp_path / target)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and err.count("\n") == 1
        assert runs == []
        assert [p.name for p in tmp_path.rglob("*")] == ["taken"]

    def test_failed_write_exits_2(self, tmp_path, monkeypatch, capsys):
        # a manifest path that is a directory is refused before the run, so
        # no CSV is left behind without its manifest
        out = tmp_path / "x.csv"
        bench.manifest_path(out).mkdir()
        runs = []
        monkeypatch.setattr(bench, "run", lambda cfg: runs.append(cfg))
        rc = cli.main(["recover", "--n", "8", "--ratio", "16", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and err.count("\n") == 1
        assert runs == []
        assert not out.exists()

    def test_write_time_os_error_exits_2(self, tmp_path, monkeypatch, capsys):
        def full_disk(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(bench, "write_manifest", full_disk)
        rc = cli.main(["recover", "--n", "8", "--ratio", "16", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No space left" in err and err.count("\n") == 1

    def test_every_flag_has_help(self):
        subparsers = next(
            action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        for kind, sub in subparsers.choices.items():
            for action in sub._actions:
                assert action.help, f"{kind} {action.option_strings} has no help text"

    @pytest.mark.parametrize("kind,flag", UNREAD_FLAGS)
    def test_unread_flag_is_a_usage_error(self, tmp_path, monkeypatch, capsys, kind, flag):
        monkeypatch.chdir(tmp_path)
        assert cli.main([kind, flag, FLAG_VALUES[flag], "--out", "x.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: onebitphase {kind} ")
        assert f"unrecognized arguments: {flag} " in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", list(SUBCOMMAND_FLAGS))
    def test_subcommand_flags_follow_the_table(self, capsys, kind):
        assert cli.main([kind, "--help"]) == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert set(re.findall(r"--[a-z-]+", usage)) == {"--seed", "--out"} | SUBCOMMAND_FLAGS[kind]
        fields = bench.EXPERIMENTS[kind].fields
        flags = {"--init" if f == "inits" else "--" + f.replace("_", "-") for f in fields}
        assert flags == SUBCOMMAND_FLAGS[kind]

    def test_every_subcommand_is_in_the_table(self):
        assert list(bench.EXPERIMENTS) == list(SUBCOMMAND_FLAGS)
        assert sum(2 + len(flags) for flags in SUBCOMMAND_FLAGS.values()) == 43

    @pytest.mark.parametrize("args", [
        ["recover", "--to", "1e-3"],
        ["recover", "--max", "3"],
        ["distortion-sweep", "--alpha", "1"],
        ["lambda-sweep", "--sample", "2000"],
    ], ids=" ".join)
    def test_flag_prefix_is_a_usage_error(self, tmp_path, monkeypatch, capsys, args):
        monkeypatch.chdir(tmp_path)
        assert cli.main(args) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
