"""Command line pipeline: exit codes, artifacts, determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import surrkit
from surrkit.cli import main
from surrkit.data import DataTensor, export_tensor
from surrkit.synthbench import forrester_pair, truth_evaluate


def run(argv):
    return main(argv)


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "bench"
    code = run([
        "synth", "--pair", "forrester", "--n-lf", "50", "--n-hf", "8",
        "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    return out


def write_config(path, body):
    path.write_text(json.dumps(body, indent=2))
    return path


class TestSynth:
    def test_writes_tensor_files_and_config(self, synth_dir):
        for name in ("lf_x.txt", "lf_y.txt", "hf_x.txt", "hf_y.txt", "mf_config.json"):
            assert (synth_dir / name).exists()
        header = (synth_dir / "lf_x.txt").read_text().splitlines()[0]
        assert header == "50 1 1"

    def test_unknown_pair_exits_2(self, tmp_path, capsys):
        assert run(["synth", "--pair", "nope", "--out", str(tmp_path)]) == 2
        assert "unknown benchmark" in capsys.readouterr().err


class TestTrain:
    def config_for(self, synth_dir, tmp_path, seed=7):
        return write_config(tmp_path / "cfg.json", {
            "seed": seed,
            "out_dir": str(tmp_path / "run"),
            "data": {"x": str(synth_dir / "lf_x.txt"), "y": str(synth_dir / "lf_y.txt")},
            "model": {"kind": "gpr"},
            "gpr": {"kernels": ["constant*rbf", "constant*matern1.5"], "restarts": 2},
        })

    def test_single_fidelity_run(self, synth_dir, tmp_path):
        cfg = self.config_for(synth_dir, tmp_path)
        assert run(["train", "--config", str(cfg)]) == 0
        run_dir = tmp_path / "run"
        report = json.loads((run_dir / "eval_report.json").read_text())
        assert report["global_r2"] > 0.99
        assert (run_dir / "one_to_one.csv").exists()
        assert (run_dir / "sweep.csv").exists()
        assert (run_dir / "config.json").exists()
        assert (run_dir / "model_v1" / "meta.json").exists()

    def test_missing_data_file_exit_2_names_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", {
            "data": {"x": "absent_x.txt", "y": "absent_y.txt"},
        })
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "absent_x.txt" in err

    def test_seed_reproducibility(self, synth_dir, tmp_path):
        cfg = self.config_for(synth_dir, tmp_path)
        assert run(["train", "--config", str(cfg), "--seed", "7",
                    "--out", str(tmp_path / "a")]) == 0
        assert run(["train", "--config", str(cfg), "--seed", "7",
                    "--out", str(tmp_path / "b")]) == 0
        report_a = (tmp_path / "a" / "eval_report.json").read_bytes()
        report_b = (tmp_path / "b" / "eval_report.json").read_bytes()
        assert report_a == report_b

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", {"modle": {"kind": "gpr"}})
        assert run(["train", "--config", str(cfg)]) == 2
        assert "modle" in capsys.readouterr().err


class TestMfTrainAndServe:
    def test_end_to_end_chain(self, synth_dir, tmp_path):
        cfg = synth_dir / "mf_config.json"
        run_dir = tmp_path / "mfrun"
        assert run(["mf-train", "--config", str(cfg), "--out", str(run_dir)]) == 0
        bundles = sorted(run_dir.glob("mf_model_v*"))
        assert len(bundles) == 1
        assert (run_dir / "lf_sweep.csv").exists()
        assert (run_dir / "mf_sweep.csv").exists()

        # end-to-end accuracy against the analytic truth on a fresh grid
        pair = forrester_pair()
        grid = np.linspace(0, 1, 200)[:, None, None]
        x_file = tmp_path / "grid_x.txt"
        y_file = tmp_path / "grid_y.txt"
        export_tensor(DataTensor.from_values(grid, ("x",)), x_file)
        export_tensor(
            DataTensor.from_values(truth_evaluate(pair, grid[:, :, 0])[:, :, None], ("y",)),
            y_file,
        )
        eval_dir = tmp_path / "eval"
        assert run(["evaluate", "--model-dir", str(bundles[0]),
                    "--x", str(x_file), "--y", str(y_file),
                    "--out", str(eval_dir)]) == 0
        report = json.loads((eval_dir / "eval_report.json").read_text())
        assert report["global_r2"] > 0.99

    def test_data_path_override_flags(self, synth_dir, tmp_path):
        """--lf-input/--hf-input etc. replace the config's data paths."""
        cfg = write_config(tmp_path / "cfg.json", {
            "seed": 7,
            "lf_data": {"x": "wrong.txt", "y": "wrong.txt"},
            "hf_data": {"x": "wrong.txt", "y": "wrong.txt"},
            "gpr": {"kernels": ["constant*rbf"], "restarts": 1},
        })
        run_dir = tmp_path / "r"
        code = run([
            "mf-train", "--config", str(cfg), "--out", str(run_dir),
            "--lf-input", str(synth_dir / "lf_x.txt"),
            "--lf-output", str(synth_dir / "lf_y.txt"),
            "--hf-input", str(synth_dir / "hf_x.txt"),
            "--hf-output", str(synth_dir / "hf_y.txt"),
        ])
        assert code == 0
        assert (run_dir / "mf_model_v1" / "meta.json").exists()

    def test_predict_row_counts(self, synth_dir, tmp_path):
        run_dir = tmp_path / "mfrun"
        assert run(["mf-train", "--config", str(synth_dir / "mf_config.json"),
                    "--out", str(run_dir)]) == 0
        bundle = next(run_dir.glob("mf_model_v*"))
        sites = tmp_path / "sites.csv"
        sites.write_text("x\n0.1\n0.5\n0.9\n")
        out = tmp_path / "pred.csv"
        assert run(["predict", "--model-dir", str(bundle),
                    "--sites", str(sites), "--out", str(out)]) == 0
        rows = list(csv.reader(open(out)))
        assert len(rows) == 1 + 3
        assert rows[0] == ["x", "y"]

    def test_bench_command(self, synth_dir, tmp_path, capsys):
        run_dir = tmp_path / "mfrun"
        assert run(["mf-train", "--config", str(synth_dir / "mf_config.json"),
                    "--out", str(run_dir)]) == 0
        bundle = next(run_dir.glob("mf_model_v*"))
        sites = tmp_path / "sites.csv"
        sites.write_text("x\n" + "\n".join(str(v) for v in np.linspace(0, 1, 10)) + "\n")
        assert run(["bench", "--model-dir", str(bundle), "--sites", str(sites),
                    "--repeats", "2"]) == 0
        assert "predictions/second" in capsys.readouterr().out


class TestConvergenceCommand:
    def test_three_sizes_three_rows(self, synth_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "seed": 3,
            "data": {"x": str(synth_dir / "lf_x.txt"), "y": str(synth_dir / "lf_y.txt")},
            "gpr": {"kernels": ["constant*rbf"], "restarts": 1},
        })
        run_dir = tmp_path / "conv"
        assert run(["convergence", "--config", str(cfg), "--sizes", "8,16,32",
                    "--out", str(run_dir)]) == 0
        rows = list(csv.reader(open(run_dir / "convergence.csv")))
        assert rows[0] == ["size", "test_rmse", "test_r2"]
        assert len(rows) == 1 + 3


class TestTuneCommand:
    def test_writes_sweep(self, synth_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "seed": 1,
            "data": {"x": str(synth_dir / "lf_x.txt"), "y": str(synth_dir / "lf_y.txt")},
            "gpr": {"kernels": ["constant*rbf", "constant*matern2.5"], "restarts": 1},
        })
        run_dir = tmp_path / "tune"
        assert run(["tune", "--config", str(cfg), "--out", str(run_dir)]) == 0
        rows = list(csv.reader(open(run_dir / "sweep.csv")))
        assert len(rows) == 1 + 2
        assert sum(int(r[5]) for r in rows[1:]) == 1


class TestIngest:
    def test_valid_file_summary(self, synth_dir, capsys):
        assert run(["ingest", "--input", str(synth_dir / "hf_x.txt")]) == 0
        assert "(8, 1, 1)" in capsys.readouterr().out

    def test_convert_to_csv(self, synth_dir, tmp_path):
        out = tmp_path / "hf_x.csv"
        assert run(["ingest", "--input", str(synth_dir / "hf_x.txt"),
                    "--out", str(out), "--export-format", "csv"]) == 0
        assert out.read_text().splitlines()[0] == "x"

    def test_invalid_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 1 1\n1.0\n")
        assert run(["ingest", "--input", str(bad)]) == 2
        assert "data lines" in capsys.readouterr().err


class TestFidelityChainConfig:
    def test_three_level_chain_via_config(self, tmp_path):
        from surrkit.data import export_tensor
        from surrkit.synthbench import Sampler, sample

        pair = forrester_pair()
        data_dir = tmp_path / "data"
        sizes = {"l0": 40, "l1": 16, "l2": 10}
        funcs = {
            "l0": pair.lf,
            "l1": lambda x: 0.5 * (pair.lf(x) + pair.hf(x)),
            "l2": pair.hf,
        }
        for i, (name, n) in enumerate(sizes.items()):
            X = sample(Sampler("uniform-grid", seed=20 + i), pair.bounds, n)
            export_tensor(DataTensor.from_values(X[:, :, None], ("x",)),
                          data_dir / f"{name}_x.txt")
            export_tensor(DataTensor.from_values(funcs[name](X)[:, :, None], ("y",)),
                          data_dir / f"{name}_y.txt")
        cfg = write_config(tmp_path / "chain.json", {
            "seed": 20,
            "fidelity_chain": [
                {"x": "data/l0_x.txt", "y": "data/l0_y.txt", "fidelity": "L0"},
                {"x": "data/l1_x.txt", "y": "data/l1_y.txt", "fidelity": "L1"},
                {"x": "data/l2_x.txt", "y": "data/l2_y.txt", "fidelity": "L2"},
            ],
            "gpr": {"kernels": ["constant*rbf"], "restarts": 1},
        })
        run_dir = tmp_path / "chainrun"
        assert run(["mf-train", "--config", str(cfg), "--out", str(run_dir)]) == 0
        bundle = next(run_dir.glob("mf_model_v*"))
        meta = json.loads((bundle / "meta.json").read_text())
        assert meta["model_type"] == "mf-composite"
        assert (bundle / "lf_model" / "meta.json").exists()
        inner = json.loads((bundle / "lf_model" / "meta.json").read_text())
        assert inner["model_type"] == "mf-composite"  # nested level


class TestSplitFlagOverrides:
    def test_train_frac_flag_changes_bins(self, synth_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "seed": 2,
            "data": {"x": str(synth_dir / "lf_x.txt"), "y": str(synth_dir / "lf_y.txt")},
            "gpr": {"kernels": ["constant*rbf"], "restarts": 1},
        })
        run_dir = tmp_path / "r"
        assert run(["train", "--config", str(cfg), "--out", str(run_dir),
                    "--train-frac", "0.6", "--test-frac", "0.2",
                    "--val-frac", "0.2"]) == 0
        report = json.loads((run_dir / "eval_report.json").read_text())
        assert report["n_points"] == 10  # 20% of 50


class TestNumericFailureExitCode:
    @pytest.mark.filterwarnings("ignore:overflow")
    def test_diverging_mlp_exit_3(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", {
            "seed": 0,
            "data": {"x": str(synth_dir / "lf_x.txt"), "y": str(synth_dir / "lf_y.txt")},
            "model": {"kind": "mlp"},
            "mlp": {"layers": [1], "widths": [8], "learning_rate": 1e12,
                    "max_epochs": 30, "batch_size": 64, "early_stop_patience": 30,
                    "optimizer": "sgd"},
        })
        code = run(["train", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert code == 3
        assert "numeric error" in capsys.readouterr().err


FAST_GPR = {"kernels": ["constant*rbf"], "restarts": 1}


def cli_process(*argv):
    """Run the command in a fresh interpreter, as a user would, so anything
    ``main`` lets escape shows up as a traceback on stderr."""
    src = str(Path(surrkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "surrkit.cli", *argv], capture_output=True, text=True, env=env
    )


@pytest.fixture()
def sf_bundle(synth_dir, tmp_path):
    cfg = write_config(tmp_path / "sf.json", {
        "seed": 7,
        "data": {"x": str(synth_dir / "lf_x.txt"), "y": str(synth_dir / "lf_y.txt")},
        "gpr": FAST_GPR,
    })
    assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "sf")]) == 0
    return tmp_path / "sf" / "model_v1"


@pytest.fixture()
def sites_csv(tmp_path):
    sites = tmp_path / "sites.csv"
    sites.write_text("x\n0.1\n0.5\n0.9\n")
    return sites


class TestPredictOutput:
    def test_same_header_layout_for_single_fidelity_and_composite(
        self, synth_dir, sf_bundle, sites_csv, tmp_path
    ):
        cfg = json.loads((synth_dir / "mf_config.json").read_text())
        cfg["gpr"] = FAST_GPR
        mf_cfg = write_config(synth_dir / "mf_fast.json", cfg)
        assert run(["mf-train", "--config", str(mf_cfg), "--out", str(tmp_path / "mf")]) == 0
        tables = {}
        for name, bundle in (("sf", sf_bundle), ("mf", tmp_path / "mf" / "mf_model_v1")):
            out = tmp_path / f"{name}_pred.csv"
            assert run(["predict", "--model-dir", str(bundle),
                        "--sites", str(sites_csv), "--out", str(out)]) == 0
            tables[name] = list(csv.reader(open(out)))
        assert tables["sf"][0] == tables["mf"][0] == ["x", "y"]
        assert len(tables["sf"]) == len(tables["mf"]) == 1 + 3
        assert [r[0] for r in tables["sf"]] == [r[0] for r in tables["mf"]]


class TestErrorsExit2WithoutTraceback:
    def assert_one_line_exit_2(self, result):
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1

    def test_sites_is_a_directory(self, sf_bundle, tmp_path):
        self.assert_one_line_exit_2(cli_process(
            "predict", "--model-dir", str(sf_bundle), "--sites", str(tmp_path),
            "--out", str(tmp_path / "pred.csv"),
        ))

    def test_out_is_a_directory(self, sf_bundle, sites_csv, tmp_path):
        self.assert_one_line_exit_2(cli_process(
            "predict", "--model-dir", str(sf_bundle), "--sites", str(sites_csv),
            "--out", str(tmp_path),
        ))

    def test_bundle_without_y_layout(self, sf_bundle, sites_csv, tmp_path):
        meta = json.loads((sf_bundle / "meta.json").read_text())
        del meta["y_layout"]
        (sf_bundle / "meta.json").write_text(json.dumps(meta))
        result = cli_process(
            "predict", "--model-dir", str(sf_bundle), "--sites", str(sites_csv),
            "--out", str(tmp_path / "pred.csv"),
        )
        self.assert_one_line_exit_2(result)
        assert "y_layout" in result.stderr
