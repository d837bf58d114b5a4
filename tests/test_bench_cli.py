import csv
import json

import numpy as np
import pytest

from onebitphase import bench, cli
from onebitphase.bench import ConfigError, ExperimentConfig
from onebitphase.channels import quantize
from onebitphase.numkit import dist_sq
from onebitphase.recovery import one_bit_terms, surrogate_matvec
from onebitphase.sensing import build_cdp_operator, intensities, substream

from _oracles import dense_one_bit_matrix


def _cfg(**kw):
    return ExperimentConfig(**kw)


class TestConfig:
    def test_dict_round_trip(self):
        cfg = _cfg(kind="recover", n=16, inits=("onebit", "random"), alphas=(1.0, 2.0))
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_manifest_round_trip(self, tmp_path):
        cfg = _cfg(kind="lambda-sweep", samples=5000, sigmas=(0.5,), out="x.csv")
        path = bench.write_manifest(cfg, tmp_path / "x.csv")
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

    def test_multi_init_selection_reported(self):
        cfg = _cfg(kind="recover", n=16, ratio=16, seed=4, refine="none")
        _, summary = bench.run_recover(cfg)
        line = next(l for l in summary if l.startswith("init:"))
        assert "(of random, subexp, onebit, weighted1bit)" in line


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
