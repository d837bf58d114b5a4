import csv
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from onebitphase import bench, cli, numkit, recovery, sensing
from onebitphase.bench import ConfigError, ExperimentConfig
from onebitphase.channels import quantize
from onebitphase.numkit import dist_sq
from onebitphase.recovery import one_bit_terms, surrogate_matvec
from onebitphase.sensing import build_cdp_operator, intensities, substream

from _oracles import dense_one_bit_matrix


def _cfg(**kw):
    return ExperimentConfig(**kw)


# the flags each subcommand takes besides --seed and --out
SUBCOMMAND_FLAGS = {
    "lambda-sweep": {"--samples", "--sigmas", "--alphas", "--etas"},
    "distortion-sweep": {"--n", "--m", "--ratio", "--trials", "--tol", "--max-iters", "--alphas"},
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


class TestConfig:
    def test_dict_round_trip(self):
        cfg = _cfg(kind="recover", n=16, inits=("onebit", "random"), alphas=(1.0, 2.0))
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_manifest_round_trip(self, tmp_path):
        cfg = _cfg(kind="lambda-sweep", samples=5000, sigmas=(0.5,), out="x.csv")
        path = bench.write_manifest(cfg, tmp_path / "x.csv")
        assert bench.load_manifest(path) == cfg
        # manifests written while the spectral shift existed still load
        payload = json.loads(path.read_text())
        payload["config"]["shift"] = True
        path.write_text(json.dumps(payload))
        assert bench.load_manifest(path) == cfg

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
            bench.validate_config(_cfg(**kw))

    def test_weighted_init_requires_identity_model(self):
        cfg = _cfg(kind="recover", n=8, model="tanh:alpha=2", inits=("weighted1bit",))
        with pytest.raises(ConfigError, match="identity"):
            bench.validate_config(cfg)

    def test_weighted_init_fine_with_identity(self):
        bench.validate_config(_cfg(kind="recover", n=8, inits=("weighted1bit",)))

    def test_alpha_grid_distinct_and_nonempty(self):
        for alphas in ((0.5, 2.0, 0.5), ()):
            with pytest.raises(ConfigError, match="alpha"):
                bench.validate_config(_cfg(kind="distortion-sweep", n=8, alphas=alphas))
        with pytest.raises(ConfigError, match="distinct"):
            bench.validate_config(_cfg(kind="lambda-sweep", alphas=(1.0, 1.0)))
        # the channel sweep has identity, noise and Poisson rows without alphas
        bench.validate_config(_cfg(kind="lambda-sweep", alphas=()))


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
        rows = bench.run_lambda_sweep(cfg)
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
        rows = bench.run_distortion_sweep(cfg)
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
        rows = bench.run_altmin_convergence(cfg)
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
        rows = bench.run_cdp_convergence(cfg)
        assert rows[0][1] == 0
        assert rows[-1][2] <= 1e-6

    def test_cdp_sign_matvec_matches_dense_assembly(self):
        n = 8
        op1 = build_cdp_operator(n, 2, seed=11)
        op2 = build_cdp_operator(n, 2, seed=12)
        rng = substream(11, "x0")
        x0 = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
        y = quantize(intensities(op1, x0), intensities(op2, x0))
        surrogate = surrogate_matvec(one_bit_terms(op1, op2, y))

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

    def test_multi_init_selection_reported(self):
        cfg = _cfg(kind="recover", n=16, ratio=16, seed=4, refine="none")
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

    def test_weighted_init_with_distortion_exits_2(self, tmp_path, capsys):
        rc = cli.main([
            "recover", "--n", "8", "--model", "tanh:alpha=2",
            "--init", "weighted1bit", "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2
        assert "identity" in capsys.readouterr().err

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
        def failing_factor(*args, **kwargs):
            raise np.linalg.LinAlgError("leading minor not positive definite")

        monkeypatch.setattr(sensing, "cho_factor", failing_factor)
        for refine in ("altmin", "resampled"):
            out = tmp_path / f"{refine}.csv"
            rc = cli.main(["recover", "--n", "16", "--ratio", "8", "--refine", refine,
                           "--out", str(out)])
            assert rc == 3, refine
            assert "numerical failure" in capsys.readouterr().err
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
        assert cli.config_from_args(args).inits == ("onebit",)
        args = parser.parse_args(["altmin-convergence", "--n", "8"])
        assert cli.config_from_args(args).inits == bench.ALL_INITS

    def test_repeated_or_empty_alpha_grid_exits_2(self, tmp_path, capsys):
        for alphas in ("0.5,2,0.5", ""):
            out = tmp_path / "d.csv"
            rc = cli.main(["distortion-sweep", "--n", "8", "--ratio", "8", "--trials", "2",
                           "--alphas", alphas, "--out", str(out)])
            assert rc == 2, alphas
            assert "alpha" in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == []

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
        assert sum(2 + len(flags) for flags in SUBCOMMAND_FLAGS.values()) == 45

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
