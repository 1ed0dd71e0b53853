"""Command line pipeline: exit codes, artifacts, determinism."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import surrkit
from helpers import (
    NON_FINITE_HYPERPARAMETER_IDS,
    NON_FINITE_HYPERPARAMETERS,
    payload_sections,
    resign_checksums,
)
from surrkit import cli, mlp, multifid, tuner
from surrkit.cli import main
from surrkit.config import (
    LENGTH_SCALE_RANGE,
    MAX_LAYERS,
    MAX_RESTARTS,
    MAX_WIDTH,
    UNREAD_MLP_KEYS,
    DataSource,
    load_config,
)
from surrkit.data import DataTensor, FidelityDataset, export_tensor, import_tensor
from surrkit.errors import StoreError
from surrkit.modelstore import load_model, save_model
from surrkit.preprocess import SplitSpec
from surrkit.synthbench import Sampler, forrester_pair, sample, truth_evaluate
from surrkit.tuner import GprGrid, MlpGrid, convergence_study, export_convergence_csv


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


FAST_GPR = {"kernels": ["constant*rbf"], "restarts": 1}


def write_config(path, body):
    path.write_text(json.dumps(body, indent=2))
    return path


def payloads(run_dir):
    """The payload file of a run's composite bundle, by name."""
    return {path.name: path.read_bytes() for path in (run_dir / "mf_model_v1").glob("payload.*")}


class TestSynth:
    def test_writes_tensor_files_and_config(self, synth_dir):
        for name in ("lf_x.txt", "lf_y.txt", "hf_x.txt", "hf_y.txt", "mf_config.json"):
            assert (synth_dir / name).exists()
        header = (synth_dir / "lf_x.txt").read_text().splitlines()[0]
        assert header == "50 1 1"

    def test_unknown_pair_exits_2(self, tmp_path, capsys):
        assert run(["synth", "--pair", "nope", "--out", str(tmp_path)]) == 2
        assert "unknown benchmark" in capsys.readouterr().err


    def test_warning_is_one_stderr_line(self, tmp_path, capsys):
        """A library warning reaches stderr as one line, without Python's
        category and source line."""
        assert run(["synth", "--n-lf", "3", "--n-hf", "5", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == (
            "warning: n_lf=3 < n_hf=5; multi-fidelity setups normally have many "
            "more low-fidelity points\n"
        )


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
        assert not (run_dir / "history.csv").exists()  # a GPR has no training history
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

    def test_default_mlp_reaches_the_papers_accuracy(self, tmp_path):
        """The paper reports network surrogates at R^2 > 0.99; the default MLP
        grid meets that on 120 rows of the smooth Forrester LF function."""
        data = tmp_path / "forrester"
        assert run(["synth", "--pair", "forrester", "--n-lf", "120", "--seed", "4",
                    "--out", str(data)]) == 0
        cfg = write_config(tmp_path / "cfg.json", {
            "seed": 4,
            "data": {"x": str(data / "lf_x.txt"), "y": str(data / "lf_y.txt")},
            "model": {"kind": "mlp"},
        })
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        report = json.loads((tmp_path / "run" / "eval_report.json").read_text())
        assert report["global_r2"] >= 0.99
        assert (tmp_path / "run" / "history.csv").exists()


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

    def test_mlp_section_that_sets_only_max_epochs_trains(self, synth_dir, tmp_path):
        """An omitted patience is min(50, max_epochs), so a cap below 50 alone is valid."""
        cfg = json.loads((synth_dir / "mf_config.json").read_text())
        cfg.update(mf_model={"kind": "mlp"}, gpr=FAST_GPR, mlp={"max_epochs": 10})
        path = write_config(synth_dir / "short.json", cfg)
        assert run(["mf-train", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
        # The MLP stage's history is written under its level's prefix.
        assert sorted(p.name for p in (tmp_path / "run").glob("*_history.csv")) == [
            "mf_history.csv"
        ]

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

    def test_data_path_flags_read_against_the_working_directory(
        self, synth_dir, tmp_path, monkeypatch
    ):
        write_config(synth_dir / "cfg.json", {
            "seed": 7,
            "lf_data": {"x": "wrong.txt", "y": "wrong.txt"},
            "hf_data": {"x": "hf_x.txt", "y": "hf_y.txt"},
            "gpr": FAST_GPR,
        })
        monkeypatch.chdir(tmp_path)
        assert run([
            "mf-train", "--config", "bench/cfg.json", "--out", "r",
            "--lf-input", "bench/lf_x.txt", "--lf-output", "bench/lf_y.txt",
        ]) == 0
        copy = json.loads((tmp_path / "r" / "config.json").read_text())
        assert Path(copy["lf_data"]["x"]).samefile(synth_dir / "lf_x.txt")
        assert Path(copy["hf_data"]["y"]).samefile(synth_dir / "hf_y.txt")
        assert payloads(tmp_path / "r")

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

    @pytest.mark.parametrize("kind, section, winner", [
        ("gpr", {"gpr": {"kernels": ["constant*matern2.5"], "restarts": 1}},
         "constant*matern(nu=2.5)"),
        ("mlp", {"mlp": {"layers": [1], "widths": [4], "max_epochs": 5}}, "4"),
    ], ids=["gpr", "mlp"])
    def test_sweeps_the_configured_grid_at_every_size(
        self, synth_dir, tmp_path, monkeypatch, kind, section, winner
    ):
        """The command reads ``gpr.*`` and ``mlp.*`` as ``train`` does: its CSV
        is the library call's with the config's grids, and a one-candidate
        grid gives that candidate at every size."""
        data = {"x": str(synth_dir / "lf_x.txt"), "y": str(synth_dir / "lf_y.txt")}
        cfg_path = write_config(tmp_path / "cfg.json", {
            "seed": 3, "data": data, "convergence": {"sizes": [8, 16, 32], "model": kind},
            **section,
        })
        sweeps, inner = [], tuner.tune

        def recorded(*args):
            sweeps.append(inner(*args))
            return sweeps[-1]

        monkeypatch.setattr(tuner, "tune", recorded)
        run_dir = tmp_path / "conv"
        assert run(["convergence", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
        assert [[e.label for e in sweep.entries] for sweep in sweeps] == [[winner]] * 3

        cfg = load_config(cfg_path)
        dataset = FidelityDataset(
            "LF", import_tensor(data["x"], "tensor-text"), import_tensor(data["y"], "tensor-text")
        )
        curve = convergence_study(dataset, kind, [8, 16, 32], cfg.split, cfg.gpr_grid,
                                  cfg.mlp_grid)
        export_convergence_csv(curve, tmp_path / "library.csv")
        assert (run_dir / "convergence.csv").read_bytes() == (
            tmp_path / "library.csv").read_bytes()


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


@pytest.fixture()
def chain_data(tmp_path):
    """Three Forrester levels, the middle one halfway between LF and HF, as
    ``data/l{0,1,2}_{x,y}.txt``; returns the config entries that list them."""
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
    return [
        {"x": f"data/{name}_x.txt", "y": f"data/{name}_y.txt", "fidelity": name.upper()}
        for name in sizes
    ]


class TestFidelityChainConfig:
    def test_three_level_chain_via_config(self, chain_data, tmp_path):
        cfg = write_config(tmp_path / "chain.json", {
            "seed": 20,
            "fidelity_chain": chain_data,
            "gpr": {"kernels": ["constant*rbf"], "restarts": 1},
        })
        run_dir = tmp_path / "chainrun"
        assert run(["mf-train", "--config", str(cfg), "--out", str(run_dir)]) == 0
        bundle = next(run_dir.glob("mf_model_v*"))
        meta = json.loads((bundle / "meta.json").read_text())
        assert meta["model_type"] == "mf-composite"
        assert meta["lf"]["model_type"] == "mf-composite"  # nested level
        assert sorted(p.name for p in bundle.iterdir()) == ["CHECKSUMS", "meta.json", "payload.txt"]
        assert (run_dir / "lf_sweep.csv").exists()
        assert (run_dir / "mf_sweep.csv").exists()

    def test_every_level_writes_its_sweep_and_mlp_history(self, chain_data, tmp_path):
        """The README's chain, an MLP between two GPR levels, writes each
        level's sweep under the level's prefix, and the MLP level's history
        too: the files the library's sweeps of the same run give."""
        chain_data[1]["model"] = "mlp"
        cfg_path = write_config(tmp_path / "chain.json", {
            "seed": 20, "fidelity_chain": chain_data, "gpr": FAST_GPR,
            "mlp": {"layers": [1], "widths": [4, 8], "max_epochs": 15},
        })
        run_dir = tmp_path / "chainrun"
        assert run(["mf-train", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
        assert sorted(p.name for p in run_dir.glob("*.csv") if "one_to_one" not in p.name) == [
            "level1_history.csv", "level1_sweep.csv", "lf_sweep.csv", "mf_sweep.csv",
        ]

        cfg = load_config(cfg_path)
        datasets = [
            FidelityDataset(source.fidelity, import_tensor(source.x), import_tensor(source.y))
            for source, _ in cfg.fidelity_chain
        ]
        _, sweeps = multifid.train_mf_chain(datasets, ["gpr", "mlp", "gpr"], cfg.split,
                                            cfg.gpr_grid, cfg.mlp_grid)

        def sweep_rows(path):  # every column but the wall time of each fit
            return [row[:4] + row[5:] for row in csv.reader(open(path))]

        for prefix, sweep in zip(["lf_", "level1_", "mf_"], sweeps):
            tuner.export_sweep_csv(sweep, tmp_path / "library.csv")
            assert sweep_rows(run_dir / f"{prefix}sweep.csv") == sweep_rows(
                tmp_path / "library.csv")
        assert [e.label for e in sweeps[1].entries] == ["4", "8"]
        mlp.export_history_csv(sweeps[1].model, tmp_path / "history.csv")
        assert (run_dir / "level1_history.csv").read_bytes() == (
            tmp_path / "history.csv").read_bytes()

    def test_data_path_flags_replace_the_lowest_and_highest_level(
        self, chain_data, tmp_path
    ):
        wrong = {"x": "absent_x.txt", "y": "absent_y.txt"}
        cfg = write_config(tmp_path / "chain.json", {
            "seed": 20,
            "fidelity_chain": [
                {**chain_data[0], **wrong}, chain_data[1], {**chain_data[2], **wrong},
            ],
            "gpr": FAST_GPR,
        })
        data = tmp_path / "data"
        run_dir = tmp_path / "r"
        assert run([
            "mf-train", "--config", str(cfg), "--out", str(run_dir),
            "--lf-input", str(data / "l0_x.txt"), "--lf-output", str(data / "l0_y.txt"),
            "--hf-input", str(data / "l2_x.txt"), "--hf-output", str(data / "l2_y.txt"),
        ]) == 0
        levels = json.loads((run_dir / "config.json").read_text())["fidelity_chain"]
        assert levels[0]["x"] == str(data / "l0_x.txt")
        assert levels[2]["y"] == str(data / "l2_y.txt")
        # The level the flags leave alone keeps its paths, read against the
        # config file's directory.
        assert levels[1] == {
            **chain_data[1],
            "x": str(data / "l1_x.txt"),
            "y": str(data / "l1_y.txt"),
        }

    def test_data_path_flag_naming_a_missing_file_exits_2(
        self, chain_data, tmp_path, capsys
    ):
        cfg = write_config(tmp_path / "chain.json", {
            "fidelity_chain": chain_data, "gpr": FAST_GPR,
        })
        assert run([
            "mf-train", "--config", str(cfg), "--out", str(tmp_path / "r"),
            "--lf-input", "nonexistent_x.txt", "--lf-output", "nonexistent_y.txt",
        ]) == 2
        assert "nonexistent_x.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["lf_data", "hf_data", "lf_model", "mf_model"])
    def test_mixing_chain_and_two_level_keys_exits_2(
        self, chain_data, tmp_path, capsys, key
    ):
        section = {"kind": "gpr"} if key.endswith("model") else chain_data[0]
        cfg = write_config(tmp_path / "mixed.json", {
            "fidelity_chain": chain_data, key: section, "gpr": FAST_GPR,
        })
        assert run(["mf-train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "fidelity_chain" in err[0] and key in err[0]
        assert not (tmp_path / "r").exists()

    def test_two_level_config_needs_both_levels(self, chain_data, tmp_path, capsys):
        cfg = write_config(tmp_path / "half.json", {"lf_data": chain_data[0]})
        assert run(["mf-train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert "hf_data.x" in capsys.readouterr().err


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


class TestConfigCopy:
    def test_rerun_from_config_copy_repeats_the_run(self, synth_dir, tmp_path):
        cfg = json.loads((synth_dir / "mf_config.json").read_text())
        for key in ("lf_data", "hf_data"):
            for axis in ("x", "y"):
                cfg[key][axis] = str(synth_dir / cfg[key][axis])
        cfg["gpr"] = FAST_GPR
        first, rerun = tmp_path / "first", tmp_path / "rerun"
        assert run(["mf-train", "--config", str(write_config(tmp_path / "mf.json", cfg)),
                    "--out", str(first), "--train-frac", "0.6", "--test-frac", "0.2",
                    "--val-frac", "0.2"]) == 0
        copy = json.loads((first / "config.json").read_text())
        assert copy["split"] == {"train_frac": 0.6, "test_frac": 0.2, "val_frac": 0.2}
        assert run(["mf-train", "--config", str(first / "config.json"),
                    "--out", str(rerun)]) == 0
        assert payloads(first) and payloads(first) == payloads(rerun)
        assert (first / "eval_report.json").read_bytes() == (
            rerun / "eval_report.json"
        ).read_bytes()

    def test_rerun_from_config_copy_with_relative_data_paths(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["synth", "--pair", "forrester", "--n-lf", "30", "--n-hf", "8",
                    "--seed", "3", "--out", "bench"]) == 0
        cfg = json.loads(Path("bench/mf_config.json").read_text())
        write_config(Path("bench/mf_config.json"), {**cfg, "gpr": FAST_GPR})
        assert run(["mf-train", "--config", "bench/mf_config.json", "--out", "first"]) == 0
        copy = json.loads(Path("first/config.json").read_text())
        assert Path(copy["lf_data"]["x"]).is_absolute()
        assert Path(copy["lf_data"]["x"]).samefile(tmp_path / "bench" / "lf_x.txt")
        assert run(["mf-train", "--config", "first/config.json", "--out", "second"]) == 0
        assert payloads(Path("first")) and payloads(Path("first")) == payloads(Path("second"))

    def test_empty_out_flag_is_the_working_directory(self, synth_dir, tmp_path, monkeypatch):
        """``--out ""`` overrides the config's out_dir with the working directory."""
        cfg = write_config(tmp_path / "cfg.json", {
            "out_dir": str(tmp_path / "run"),
            "data": {"x": str(synth_dir / "lf_x.txt"), "y": str(synth_dir / "lf_y.txt")},
            "gpr": FAST_GPR,
        })
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert run(["tune", "--config", str(cfg), "--out", ""]) == 0
        assert sorted(path.name for path in work.iterdir()) == [
            "config.json", "run.log", "sweep.csv"
        ]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("workdir", [".", "bench"])
    def test_relative_out_dir_is_read_against_the_config_file(
        self, tmp_path, monkeypatch, workdir
    ):
        monkeypatch.chdir(tmp_path)
        assert run(["synth", "--pair", "forrester", "--n-lf", "30", "--n-hf", "8",
                    "--seed", "3", "--out", "bench"]) == 0
        cfg = json.loads(Path("bench/mf_config.json").read_text())
        assert cfg["out_dir"] == "run"
        write_config(Path("bench/mf_config.json"), {**cfg, "gpr": FAST_GPR})
        monkeypatch.chdir(tmp_path / workdir)
        config = Path(os.path.relpath(tmp_path / "bench" / "mf_config.json"))
        assert run(["mf-train", "--config", str(config)]) == 0
        run_dir = tmp_path / "bench" / "run"
        assert payloads(run_dir)
        assert not (tmp_path / "bench" / "bench").exists()
        copy = json.loads((run_dir / "config.json").read_text())
        assert Path(copy["out_dir"]).is_absolute()
        assert Path(copy["out_dir"]).samefile(run_dir)

    @pytest.mark.parametrize("key", ["split", "model", "gpr", "data"])
    def test_section_that_is_not_an_object_exits_2(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path / "cfg.json", {key: 5})
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert key in capsys.readouterr().err


class TestNumericFailureExitCode:
    def test_diverging_mlp_exit_3(self, synth_dir, tmp_path, monkeypatch):
        """A non-finite training loss ends the run with exit 3 and one line
        that names the L-BFGS-B iteration."""
        exact = mlp.loss_gradients

        def nan_loss(*args, **kwargs):
            _, grads_w, grads_b = exact(*args, **kwargs)
            return math.nan, grads_w, grads_b

        monkeypatch.setattr(mlp, "loss_gradients", nan_loss)
        cfg = write_config(tmp_path / "cfg.json", {
            "seed": 0,
            "data": {"x": str(synth_dir / "lf_x.txt"), "y": str(synth_dir / "lf_y.txt")},
            "model": {"kind": "mlp"},
            "mlp": {"layers": [1], "widths": [8], "max_epochs": 30},
        })
        code, lines = run_captured(["train", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert code == 3
        assert lines == ["numeric error: [train] every sweep candidate failed to fit; "
                         "the last: training diverged at iteration 1"]


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
        resign_checksums(sf_bundle)
        result = cli_process(
            "predict", "--model-dir", str(sf_bundle), "--sites", str(sites_csv),
            "--out", str(tmp_path / "pred.csv"),
        )
        self.assert_one_line_exit_2(result)
        assert "y_layout" in result.stderr

    def test_nan_in_cholesky_factor(self, sf_bundle, sites_csv, tmp_path):
        """Bundles no longer store the Cholesky factor, so the NaN goes into
        ``alpha``, the dual weights."""
        bundle = save_model(load_model(sf_bundle), tmp_path, "bin", payload_format="binary")
        path = bundle / "payload.bin"
        values = np.frombuffer(path.read_bytes(), dtype="<f8").copy()
        values[payload_sections(bundle)["alpha"][0]] = np.nan
        path.write_bytes(values.tobytes())
        resign_checksums(bundle)
        result = cli_process(
            "predict", "--model-dir", str(bundle), "--sites", str(sites_csv),
            "--out", str(tmp_path / "pred.csv"),
        )
        self.assert_one_line_exit_2(result)
        assert "non-finite" in result.stderr

    def test_negative_synth_seed(self, tmp_path):
        out = tmp_path / "bench"
        result = cli_process("synth", "--pair", "forrester", "--seed", "-1", "--out", str(out))
        self.assert_one_line_exit_2(result)
        assert "seed must be >= 0, got -1" in result.stderr
        assert not out.exists()

    def test_overflowing_site(self, sf_bundle, tmp_path):
        """1e308 is finite but would overflow when scaled; the stage's bound
        refuses it first, and no overflow warning adds a line."""
        sites = tmp_path / "big.csv"
        sites.write_text("x\n0.5\n1e308\n")
        result = cli_process(
            "predict", "--model-dir", str(sf_bundle), "--sites", str(sites),
            "--out", str(tmp_path / "pred.csv"),
        )
        self.assert_one_line_exit_2(result)
        assert "X_star holds a value of magnitude 1e+308" in result.stderr


@pytest.fixture(scope="module")
def predict_bundles(tmp_path_factory):
    """A single-fidelity and a composite bundle on 1-D Forrester data."""
    root = tmp_path_factory.mktemp("fuzz")
    assert run(["synth", "--pair", "forrester", "--n-lf", "50", "--n-hf", "8",
                "--seed", "7", "--out", str(root / "bench")]) == 0
    sf_cfg = write_config(root / "sf.json", {
        "seed": 7,
        "data": {"x": str(root / "bench" / "lf_x.txt"), "y": str(root / "bench" / "lf_y.txt")},
        "gpr": FAST_GPR,
    })
    assert run(["train", "--config", str(sf_cfg), "--out", str(root / "sf")]) == 0
    mf_cfg = json.loads((root / "bench" / "mf_config.json").read_text())
    mf_cfg["gpr"] = FAST_GPR
    mf_path = write_config(root / "bench" / "mf_fast.json", mf_cfg)
    assert run(["mf-train", "--config", str(mf_path), "--out", str(root / "mf")]) == 0
    return root, (root / "sf" / "model_v1", root / "mf" / "mf_model_v1")


# Cells that break the predict input contract, one kind per strategy: text
# that is no number (no 'i' or 'n', so never a spelling of inf or nan), a
# non-finite number, and a finite number that overflows when scaled.
WRONG_TYPED_CELLS = st.text(alphabet="abcdefghjklmopqrstuvwxyz!?$%", min_size=1, max_size=6)
NON_FINITE_CELLS = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1e400"])
BAD_CELLS = st.one_of(
    WRONG_TYPED_CELLS,
    NON_FINITE_CELLS,
    st.builds(
        lambda sign, v: repr(sign * v),
        st.sampled_from([1.0, -1.0]),
        st.floats(min_value=1e308, max_value=np.finfo(np.float64).max),
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    which=st.integers(0, 1),
    good=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=4),
    where=st.integers(0, 4),
    bad=st.one_of(BAD_CELLS, st.just("wide-header"), st.just("wide-row")),
)
def test_malformed_sites_exit_2_with_one_line(predict_bundles, which, good, where, bad):
    """``surrkit predict`` on a site file with a non-numeric token, a NaN or
    infinity, the wrong width or an overflowing value exits 2 with one line
    on stderr; an escaping exception or warning fails the test."""
    root, bundles = predict_bundles
    cells = [repr(v) for v in good]
    header = "x"
    if bad == "wide-header":
        header = "x,z"
        rows = [f"{c},{c}" for c in cells] or ["0.5,0.5"]
    elif bad == "wide-row":
        rows = cells[:where] + ["0.5,0.5"] + cells[where:]
    else:
        rows = cells[:where] + [f'"{bad}"'] + cells[where:]
    sites = root / "sites.csv"
    sites.write_text("\n".join([header, *rows]) + "\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["predict", "--model-dir", str(bundles[which]), "--sites", str(sites),
                     "--out", str(root / "pred.csv")])
    assert code == 2
    lines = err.getvalue().strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def assert_refused_as_too_large(bundle, sites, out):
    """``surrkit predict`` in a fresh interpreter, where a numpy warning
    would print, exits 2 with one line that names the too-large value."""
    result = cli_process("predict", "--model-dir", str(bundle), "--sites", str(sites),
                         "--out", str(out))
    assert result.returncode == 2, result.stderr
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "X_star holds a value of magnitude" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("which", [0, 1], ids=["gpr", "composite"])
def test_site_whose_square_overflows_exits_2_with_one_line(predict_bundles, tmp_path, which):
    """1e200 stays finite through the input scaler, but its square does not:
    the model refuses it instead of warning of an overflow and writing the
    prior mean."""
    sites = tmp_path / "sites.csv"
    sites.write_text("x\n0.5\n1e200\n")
    assert_refused_as_too_large(predict_bundles[1][which], sites, tmp_path / "pred.csv")


def test_lf_outputs_that_overflow_the_mf_stage_exit_2_with_one_line(predict_bundles, tmp_path):
    """An LF amplitude at half the load bound gives LF outputs that are
    finite but near the float range, so the bundle loads; the MF stage
    refuses them as its query."""
    bundle = shutil.copytree(predict_bundles[1][1], tmp_path / "model")
    lf = load_model(bundle).lf
    sums = np.abs(lf.model.alpha).sum(axis=0) * lf.y_scaler.divisor
    meta = json.loads((bundle / "meta.json").read_text())
    meta["lf"]["hyperparameters"]["signal_variance"] = 0.5 * np.finfo(np.float64).max / sums.max()
    (bundle / "meta.json").write_text(json.dumps(meta))
    resign_checksums(bundle)
    load_model(bundle)
    sites = tmp_path / "sites.csv"
    sites.write_text("x\n0.25\n0.75\n")
    assert_refused_as_too_large(bundle, sites, tmp_path / "pred.csv")


@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_training_input_past_the_query_bound_exits_2_with_one_line(
    predict_bundles, tmp_path, fmt
):
    """A composite whose first ``lf/X_train`` value is 1e200, with its
    checksums re-signed, is refused at load, naming the stage, instead of
    warning of an overflow when a site is predicted."""
    bundle = save_model(load_model(predict_bundles[1][1]), tmp_path, "mf_model",
                        payload_format=fmt)
    if fmt == "binary":
        path = bundle / "payload.bin"
        values = np.frombuffer(path.read_bytes(), dtype="<f8").copy()
        values[payload_sections(bundle)["lf/X_train"][0]] = 1e200
        path.write_bytes(values.tobytes())
    else:
        # A section is a "rows cols" header and then one line per row.
        path = bundle / "payload.txt"
        lines = path.read_text().splitlines(keepends=True)
        at = 0
        for name, (_, (rows, _)) in payload_sections(bundle).items():
            if name == "lf/X_train":
                break
            at += 1 + rows
        lines[at + 1] = " ".join(["1e200", *lines[at + 1].split()[1:]]) + "\n"
        path.write_text("".join(lines))
    resign_checksums(bundle)
    with pytest.raises(StoreError, match="lf/X_train holds a value of magnitude 1e\\+200"):
        load_model(bundle)
    sites = tmp_path / "sites.csv"
    sites.write_text("x\n0.5\n")
    out = tmp_path / "pred.csv"
    result = cli_process("predict", "--model-dir", str(bundle), "--sites", str(sites),
                         "--out", str(out))
    assert result.returncode == 2, result.stderr
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "lf/X_train holds a value of magnitude" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("key, value", NON_FINITE_HYPERPARAMETERS,
                         ids=NON_FINITE_HYPERPARAMETER_IDS)
def test_non_finite_hyperparameter_exits_2_with_one_line(predict_bundles, tmp_path, key, value):
    """A bundle whose meta.json holds a NaN or infinite hyperparameter, with
    its checksums re-signed, is refused at load rather than served."""
    bundle = shutil.copytree(predict_bundles[1][0], tmp_path / "model")
    meta = json.loads((bundle / "meta.json").read_text())
    meta["hyperparameters"][key] = value
    (bundle / "meta.json").write_text(json.dumps(meta))
    resign_checksums(bundle)
    sites = tmp_path / "sites.csv"
    sites.write_text("x\n0.25\n0.75\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["predict", "--model-dir", str(bundle), "--sites", str(sites),
                     "--out", str(tmp_path / "pred.csv")])
    assert code == 2
    lines = err.getvalue().strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and key in lines[0], lines
    assert not (tmp_path / "pred.csv").exists()


@pytest.mark.parametrize("edit", ["empty", "blank-line", "rows-only", "three-tokens"])
def test_text_payload_without_a_two_integer_header_exits_2_with_one_line(
    predict_bundles, tmp_path, edit
):
    """A composite whose last section, the mf stage's ``alpha``, lost its
    ``rows cols`` header, or gained a third header token, with the checksums
    re-signed, is refused at load with one line on stderr instead of a
    traceback."""
    bundle = shutil.copytree(predict_bundles[1][1], tmp_path / "model")
    payload = bundle / "payload.txt"
    rows = payload_sections(bundle)["mf/alpha"][1][0]
    lines = payload.read_text().splitlines(keepends=True)
    before, header, body = lines[:-rows - 1], lines[-rows - 1], lines[-rows:]
    payload.write_text("".join(before) + {
        "empty": "",
        "blank-line": "\n",
        "rows-only": header.split()[0] + "\n",
        "three-tokens": f"{header.strip()} x\n" + "".join(body),
    }[edit])
    resign_checksums(bundle)
    sites = tmp_path / "sites.csv"
    sites.write_text("x\n0.25\n0.75\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["predict", "--model-dir", str(bundle), "--sites", str(sites),
                     "--out", str(tmp_path / "pred.csv")])
    assert code == 2
    lines = err.getvalue().strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "payload.txt[mf/alpha]: text payload needs a 'rows cols' header" in lines[0], lines
    assert not (tmp_path / "pred.csv").exists()


def run_captured(argv):
    """``main(argv)`` in process: its exit code and its stderr lines."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue().strip().splitlines()


FIELD_LABELS = ("t0", "t1", "t2")


@pytest.mark.parametrize("hf_input", ["x", "lf_u@t0"], ids=["plain", "clashing-name"])
def test_field_outputs_through_a_chain(tmp_path, monkeypatch, hf_input):
    """Outputs of m = 2 scalars at l = 3 coordinates, with units, train
    through ``mf-train``: the MF stage's inputs are named ``lf_<name>@<label>``
    and then the input's name, or ``c<i>_`` each when the HF input takes an
    LF column's name, and ``predict`` writes ``name@label`` columns that the
    reloaded, re-saved bundle reproduces."""
    pair = forrester_pair()

    def field(f, X):  # u = f(x) * (k + 1), v = f(x) - k at coordinate k
        k = np.arange(3.0)
        return np.stack([f(X) * (k + 1.0), f(X) - k], axis=1)

    paths = {}
    for level, f, n, name in (("lf", pair.lf, 30, "x"), ("hf", pair.hf, 12, hf_input)):
        X = sample(Sampler("uniform-random", seed=n), pair.bounds, n)
        for axis, tensor in (
            ("x", DataTensor.from_values(X[:, :, None], (name,))),
            ("y", DataTensor.from_values(field(f, X), ("u", "v"), FIELD_LABELS, ("m", "s"))),
        ):
            paths[f"{level}_{axis}"] = str(export_tensor(tensor, tmp_path / f"{level}_{axis}.txt"))
    cfg = write_config(tmp_path / "cfg.json", {
        "seed": 3, "gpr": FAST_GPR,
        "lf_data": {"x": paths["lf_x"], "y": paths["lf_y"]},
        "hf_data": {"x": paths["hf_x"], "y": paths["hf_y"]},
    })
    stage_inputs, train_stage = [], multifid.train_single_fidelity

    def recorded(data, *args):
        stage_inputs.append(data.X.scalar_names)
        return train_stage(data, *args)

    monkeypatch.setattr(multifid, "train_single_fidelity", recorded)
    assert run_captured(["mf-train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == (
        0, [])
    lf_columns = [f"lf_{name}@{label}" for name in ("u", "v") for label in FIELD_LABELS]
    mf_inputs = lf_columns + [hf_input]
    if hf_input in lf_columns:
        mf_inputs = [f"c{i}_{name}" for i, name in enumerate(mf_inputs)]
    assert stage_inputs == [("x",), tuple(mf_inputs)]

    bundle = tmp_path / "run" / "mf_model_v1"
    sites = DataTensor.from_values(np.linspace(0.0, 1.0, 5)[:, None, None], (hf_input,))
    export_tensor(sites, tmp_path / "sites.txt")
    assert run_captured(["predict", "--model-dir", str(bundle), "--sites",
                         str(tmp_path / "sites.txt"), "--sites-format", "tensor-text",
                         "--out", str(tmp_path / "pred.csv")]) == (0, [])
    rows = list(csv.reader(open(tmp_path / "pred.csv")))
    assert rows[0] == [hf_input] + [f"{name}@{label}" for name in ("u", "v")
                                    for label in FIELD_LABELS]

    loaded = load_model(bundle)
    assert (loaded.y_layout.scalar_names, loaded.y_layout.coord_labels,
            loaded.y_layout.units) == (("u", "v"), FIELD_LABELS, ("m", "s"))
    expected = np.hstack([sites.values[:, :, 0], loaded.predict_raw(sites.values[:, :, 0])])
    assert rows[1:] == [[repr(v) for v in row] for row in expected.tolist()]
    again = save_model(loaded, tmp_path / "again", "mf_model")
    assert {p.name: p.read_bytes() for p in again.glob("payload.*")} == payloads(tmp_path / "run")


@pytest.fixture(scope="module")
def mlp_bundle(predict_bundles):
    """A single-fidelity MLP bundle on the same Forrester data."""
    root, _ = predict_bundles
    cfg = write_config(root / "mlp.json", {
        "data": {"x": str(root / "bench" / "lf_x.txt"), "y": str(root / "bench" / "lf_y.txt")},
        "model": {"kind": "mlp"},
        "mlp": {"layers": [1], "widths": [4], "max_epochs": 5},
    })
    assert run(["train", "--config", str(cfg), "--out", str(root / "mlp")]) == 0
    return root / "mlp" / "model_v1"


# Re-signed meta.json edits that put a bool where a number is due, a
# length-scale vector of the wrong length for the 1-D model, an output name
# that is no nonempty string, or an amplitude that overflows the mean:
# (bundle, keys, value).
BAD_META = {
    "format_version": ("sf", ["format_version"], True),
    "signal_variance": ("sf", ["hyperparameters", "signal_variance"], True),
    "noise": ("sf", ["hyperparameters", "noise"], True),
    "length_scale-bool": ("sf", ["hyperparameters", "length_scale"], [True]),
    "length_scale-empty": ("sf", ["hyperparameters", "length_scale"], []),
    "length_scale-3": ("sf", ["hyperparameters", "length_scale"], [1.0, 2.0, 3.0]),
    "lml": ("sf", ["training", "lml"], True),
    "dims": ("mf", ["dims", "input_dim"], True),
    "mlp-input_dim": ("mlp", ["hyperparameters", "input_dim"], True),
    "mlp-hidden_layers": ("mlp", ["hyperparameters", "hidden_layers"], [True]),
    "mlp-output_dim": ("mlp", ["hyperparameters", "output_dim"], True),
    "scalar_names-string": ("sf", ["y_layout", "scalar_names"], "y"),
    "scalar_names-null": ("mf", ["mf", "y_layout", "scalar_names", 0], None),
    "scalar_names-empty": ("mlp", ["y_layout", "scalar_names", 0], ""),
    "coord_labels-object": ("sf", ["y_layout", "coord_labels", 0], {}),
    "units-empty": ("sf", ["y_layout", "units"], []),
    "lf-signal_variance": ("mf", ["lf", "hyperparameters", "signal_variance"], 1e308),
    # Integers past the float range, which float() refuses with OverflowError.
    "signal_variance-huge": ("sf", ["hyperparameters", "signal_variance"], 10**400),
    "noise-huge": ("sf", ["hyperparameters", "noise"], 10**400),
    "length_scale-huge": ("sf", ["hyperparameters", "length_scale"], [10**400]),
    "lml-huge": ("sf", ["training", "lml"], 10**400),
    "jitter_used-huge": ("sf", ["training", "jitter_used"], 10**400),
}


@pytest.mark.parametrize("which, keys, value", BAD_META.values(), ids=BAD_META.keys())
def test_mistyped_bundle_metadata_is_refused_at_load(
    predict_bundles, mlp_bundle, tmp_path, which, keys, value
):
    """A bool where meta.json needs a number loads as 1 if unchecked, a
    length-scale vector of the wrong length or an overflowing amplitude fails
    only at the first predict under a message that blames the sites, and an
    unchecked output name becomes a CSV header such as ``None``; all are
    refused at load."""
    source = {"sf": predict_bundles[1][0], "mf": predict_bundles[1][1], "mlp": mlp_bundle}
    bundle = shutil.copytree(source[which], tmp_path / "model")
    meta = json.loads((bundle / "meta.json").read_text())
    section = meta
    for key in keys[:-1]:
        section = section[key]
    section[keys[-1]] = value
    (bundle / "meta.json").write_text(json.dumps(meta))
    resign_checksums(bundle)
    sites = tmp_path / "sites.csv"
    sites.write_text("x\n0.25\n0.75\n")
    with pytest.raises(StoreError):
        load_model(bundle)
    code, lines = run_captured(["predict", "--model-dir", str(bundle), "--sites", str(sites),
                                "--out", str(tmp_path / "pred.csv")])
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert not (tmp_path / "pred.csv").exists()


# What the property below sets a meta.json node to: each JSON type, numbers
# that are fractional, negative, zero or huge, and empty values.
META_VALUES = [True, "x", [1], None, {}, 2.5, -1, 0, 1e308, 10**400, [], ""]


def json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


@pytest.fixture(scope="module")
def meta_bundles(predict_bundles, mlp_bundle):
    """The sites file, and by name the GPR, composite and MLP bundles, each
    with its meta.json tree, the key path of every node of the tree, and the
    bytes ``predict`` writes for the sites."""
    root, (sf, mf) = predict_bundles
    sites = root / "meta_sites.csv"
    sites.write_text("x\n0.25\n0.75\n")
    bundles = {}
    for name, bundle in (("gpr", sf), ("mf", mf), ("mlp", mlp_bundle)):
        out = root / f"meta_{name}.csv"
        assert run_captured(["predict", "--model-dir", str(bundle), "--sites", str(sites),
                             "--out", str(out)]) == (0, [])
        meta = json.loads((bundle / "meta.json").read_text())
        bundles[name] = bundle, meta, list(config_paths(meta)), out.read_bytes()
    return sites, bundles


@settings(max_examples=200, deadline=None)
@given(
    which=st.sampled_from(["gpr", "mf", "mlp"]),
    where=st.floats(0.0, 1.0, exclude_max=True),
    value=st.sampled_from(META_VALUES),
)
def test_resigned_meta_json_node_is_refused_or_changes_nothing(
    meta_bundles, tmp_path_factory, which, where, value
):
    """Any node of a bundle's meta.json, set to one of ``META_VALUES`` with
    the checksums re-signed, makes the load raise StoreError and ``predict``
    exit 2 with one line; or the bundle loads, and ``predict`` exits 0 with
    no stderr and, if the value's JSON type is not the node's, writes the
    original's bytes. A value of the node's own type may be a valid edit,
    such as another length scale, that changes the predictions."""
    sites, bundles = meta_bundles
    source, original, paths, expected = bundles[which]
    keys = paths[int(where * len(paths))]
    meta = json.loads(json.dumps(original))
    node = meta
    for key in keys[:-1]:
        node = node[key]
    wrong_type = json_type(node[keys[-1]]) != json_type(value)
    node[keys[-1]] = value
    tmp = tmp_path_factory.mktemp("meta")
    bundle = shutil.copytree(source, tmp / "model")
    (bundle / "meta.json").write_text(json.dumps(meta))
    resign_checksums(bundle)
    try:
        load_model(bundle)
        refused = False
    except StoreError:
        refused = True
    out = tmp / "pred.csv"
    code, lines = run_captured(["predict", "--model-dir", str(bundle), "--sites", str(sites),
                                "--out", str(out)])
    if refused:
        assert code == 2 and len(lines) == 1 and lines[0].startswith("error: "), lines
        assert not out.exists()
    else:
        assert (code, lines) == (0, [])
        assert not wrong_type or out.read_bytes() == expected


@pytest.mark.parametrize("units", ["K", ""], ids=["unit", "blank"])
def test_units_line_trains_a_bundle_predict_loads_or_is_refused_at_read(
    synth_dir, sites_csv, tmp_path, units
):
    """Train and predict apply one naming rule. Output data with a unit
    trains a bundle that ``predict`` loads; a blank ``# units:`` line is
    refused when the data is read, so no bundle is saved that load refuses."""
    y_file = synth_dir / "lf_y.txt"
    header, rest = y_file.read_text().split("\n", 1)
    y_file.write_text(f"{header}\n# units: {units}\n{rest}")
    cfg = write_config(tmp_path / "sf.json", {
        "seed": 7,
        "data": {"x": str(synth_dir / "lf_x.txt"), "y": str(y_file)},
        "gpr": FAST_GPR,
    })
    code, lines = run_captured(["train", "--config", str(cfg), "--out", str(tmp_path / "sf")])
    if units:
        assert (code, lines) == (0, [])
        out = tmp_path / "pred.csv"
        assert run_captured(["predict", "--model-dir", str(tmp_path / "sf" / "model_v1"),
                             "--sites", str(sites_csv), "--out", str(out)]) == (0, [])
        assert out.read_text().splitlines()[0] == "x,y"
    else:
        assert code == 2 and len(lines) == 1, lines
        assert lines[0].endswith(f"{y_file}: unit '' is not a nonempty string"), lines
        assert not (tmp_path / "sf" / "model_v1").exists()


@pytest.fixture(scope="module")
def flip_bundles(predict_bundles, mlp_bundle, tmp_path_factory):
    """A GPR, an MLP and a composite bundle, each in text and in binary."""
    root = tmp_path_factory.mktemp("flip")
    sources = {"gpr": predict_bundles[1][0], "mlp": mlp_bundle, "mf": predict_bundles[1][1]}
    return {
        (name, fmt): save_model(load_model(source), root, f"{name}_{fmt}", payload_format=fmt)
        for name, source in sources.items() for fmt in ("text", "binary")
    }


@settings(max_examples=100, deadline=None)
@given(
    which=st.sampled_from([(name, fmt) for name in ("gpr", "mlp", "mf")
                           for fmt in ("text", "binary")]),
    file=st.sampled_from(["meta.json", "payload", "CHECKSUMS"]),
    where=st.floats(0.0, 1.0, exclude_max=True),
    delta=st.integers(1, 255),
)
# The newline after CHECKSUMS' first line (byte 77 of 154) turned into a
# carriage return, which would end a line as well.
@example(which=("gpr", "text"), file="CHECKSUMS", where=0.5, delta=3)
def test_one_changed_byte_in_a_bundle_is_refused(
    flip_bundles, tmp_path_factory, which, file, where, delta
):
    """Any single byte of any of a bundle's three files, changed without
    re-signing, makes the load raise StoreError, and ``predict`` exit 2 with
    one stderr line."""
    tmp = tmp_path_factory.mktemp("flipped")
    bundle = shutil.copytree(flip_bundles[which], tmp / "model")
    path = next(bundle.glob("payload.*")) if file == "payload" else bundle / file
    data = bytearray(path.read_bytes())
    i = int(where * len(data))
    data[i] = (data[i] + delta) % 256
    path.write_bytes(bytes(data))
    with pytest.raises(StoreError):
        load_model(bundle)
    sites = tmp / "sites.csv"
    sites.write_text("x\n0.25\n0.75\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["predict", "--model-dir", str(bundle), "--sites", str(sites),
                     "--out", str(tmp / "pred.csv")])
    assert code == 2
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    assert not (tmp / "pred.csv").exists()


@pytest.mark.parametrize("name, shown", [("\rayload.txt", "\\rayload.txt"),
                                         ("\u00e9ayload.txt", "\u00e9ayload.txt")],
                         ids=["carriage-return", "printable-non-ascii"])
def test_checksums_name_is_printed_with_control_characters_escaped(
    predict_bundles, tmp_path, name, shown
):
    """A name in CHECKSUMS whose first letter became a carriage return is
    printed escaped, so the error line cannot overwrite itself on a terminal;
    a printable name is printed as it is."""
    bundle = shutil.copytree(predict_bundles[1][0], tmp_path / "model")
    checksums = bundle / "CHECKSUMS"
    listed = checksums.read_text(encoding="utf-8").replace("  payload.txt", "  " + name)
    checksums.write_bytes(listed.encode("utf-8"))
    sites = tmp_path / "sites.csv"
    sites.write_text("x\n0.25\n0.75\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["predict", "--model-dir", str(bundle), "--sites", str(sites),
                     "--out", str(tmp_path / "pred.csv")])
    assert code == 2
    assert "\r" not in err.getvalue()
    assert err.getvalue() == f"error: file listed in CHECKSUMS is missing: {bundle}/{shown}\n"


# Small valid input files, by the command that reads them and their format.
# The predict sites fit the 1-D Forrester bundles.
CUT_INPUTS = {
    ("ingest", "tensor-text"): "2 2 3\n# scalar_names: p,T\n# coord_labels: a,b,c\n"
                               "# units: \u00b5m,K\n1.5 -2.0 3e-05\n4.0 5.25 6.0\n"
                               "0.125 1e+20 -7.5\n8.0 9.0 10.0\n",
    ("ingest", "csv"): "p,T,\u00b5\n1.5,-2.0,3e-05\n4.0,5.25,6.0\n",
    ("predict", "tensor-text"): "3 1 1\n# scalar_names: x\n# units: \u00b5m\n0.25\n0.5\n0.75\n",
    ("predict", "csv"): "x\n0.25\n0.5\n0.75\n",
}


@settings(max_examples=150, deadline=None)
@given(
    case=st.sampled_from(sorted(CUT_INPUTS)).flatmap(
        lambda key: st.tuples(
            st.just(key), st.integers(0, len(CUT_INPUTS[key].encode("utf-8")))
        )
    ),
    which=st.integers(0, 1),
)
def test_input_file_cut_at_any_byte_exits_0_or_2_with_at_most_one_line(
    predict_bundles, case, which
):
    """A tensor-text or CSV file cut at any byte, given to ``ingest --input``
    or to ``predict --sites`` of a single-fidelity or a composite bundle,
    exits 0 with no stderr, or 2 with one line; an escaping exception or
    warning fails the test."""
    (command, fmt), cut = case
    root, bundles = predict_bundles
    path = root / "cut_input"
    path.write_bytes(CUT_INPUTS[command, fmt].encode("utf-8")[:cut])
    if command == "ingest":
        argv = ["ingest", "--input", str(path), "--format", fmt]
    else:
        argv = ["predict", "--model-dir", str(bundles[which]), "--sites", str(path),
                "--sites-format", fmt, "--out", str(root / "cut_pred.csv")]
    code, lines = run_captured(argv)
    if code == 0:
        assert lines == []
    else:
        assert code == 2 and len(lines) == 1 and lines[0].startswith("error: "), lines


def one_column_file(fmt, name, cells):
    """A tensor-text or CSV file of one scalar ``name`` holding ``cells``."""
    if fmt == "csv":
        return "\n".join([name, *(f'"{cell}"' for cell in cells)]) + "\n"
    return "\n".join([f"{len(cells)} 1 1", f"# scalar_names: {name}", *cells]) + "\n"


@settings(max_examples=80, deadline=None)
@given(
    command=st.sampled_from(["ingest", "train", "predict"]),
    fmt=st.sampled_from(["tensor-text", "csv"]),
    column=st.sampled_from(["x", "y"]),
    row=st.integers(0, 7),
    bad=st.one_of(WRONG_TYPED_CELLS, NON_FINITE_CELLS),
    which=st.integers(0, 1),
)
def test_bad_cell_in_a_data_or_sites_file_exits_2_with_one_line(
    predict_bundles, command, fmt, column, row, bad, which
):
    """A wrong-typed or non-finite cell in a data file given to ``ingest``
    or to ``train`` (in its x or its y file), or in a sites file given to
    ``predict`` of a single-fidelity or a composite bundle, exits 2 with one
    line on stderr and writes no run or prediction."""
    root, bundles = predict_bundles
    work = root / "bad_cell"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    if command == "predict":
        column = "x"  # the bundles' input
    files = {}
    for name in ("x", "y"):
        cells = [repr(v) for v in np.linspace(0.05, 0.95, 8).tolist()]
        if name == column:
            cells[row] = bad
        files[name] = work / f"{name}.{'csv' if fmt == 'csv' else 'txt'}"
        files[name].write_text(one_column_file(fmt, name, cells))
    if command == "ingest":
        argv = ["ingest", "--input", str(files[column]), "--format", fmt]
    elif command == "train":
        cfg = write_config(work / "cfg.json", {
            "data": {"x": str(files["x"]), "y": str(files["y"]), "format": fmt},
            "gpr": FAST_GPR,
        })
        argv = ["train", "--config", str(cfg), "--out", str(work / "run")]
    else:
        argv = ["predict", "--model-dir", str(bundles[which]), "--sites", str(files["x"]),
                "--sites-format", fmt, "--out", str(work / "pred.csv")]
    code, lines = run_captured(argv)
    assert code == 2 and len(lines) == 1 and lines[0].startswith("error: "), lines
    assert str(files[column]) in lines[0] or command == "predict", lines
    assert not (work / "pred.csv").exists()
    assert not (work / "run" / "model_v1").exists()


NOT_UTF8 = b"\xff\xfex\x00\n\x000\x00.\x005\x00\n\x00"  # "x\n0.5\n" in UTF-16


def test_non_utf8_data_file_exits_2_with_one_line(tmp_path):
    data = tmp_path / "utf16.txt"
    data.write_bytes(NOT_UTF8)
    code, lines = run_captured(["ingest", "--input", str(data)])
    assert code == 2
    assert lines == [f"error: {data}: not UTF-8 text (invalid start byte at byte 0)"]


def test_non_utf8_sites_csv_exits_2_with_one_line(predict_bundles, tmp_path):
    sites = tmp_path / "sites.csv"
    sites.write_bytes(NOT_UTF8)
    code, lines = run_captured(["predict", "--model-dir", str(predict_bundles[1][0]),
                                "--sites", str(sites), "--out", str(tmp_path / "pred.csv")])
    assert code == 2
    assert len(lines) == 1 and "not UTF-8 text" in lines[0], lines
    assert not (tmp_path / "pred.csv").exists()


def test_convergence_sizes_flag_that_is_no_integer_list_exits_2(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"data": {"x": "x.txt", "y": "y.txt"}})
    code, lines = run_captured(["convergence", "--config", str(cfg), "--sizes", "3,x",
                                "--out", str(tmp_path / "r")])
    assert code == 2
    assert lines == ["error: --sizes must be comma-separated integers, got '3,x'"]
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("sizes", [[8, 4], [8, 8, 16], [0, 5], [-3]],
                         ids=["decreasing", "repeated", "zero", "negative"])
def test_convergence_sizes_that_are_not_positive_and_increasing_exit_2(tmp_path, sizes):
    """Bad sizes are refused, by their key or their flag, before the run
    directory is made."""
    data = {"x": "x.txt", "y": "y.txt"}
    cfg = write_config(tmp_path / "cfg.json", {"data": data, "convergence": {"sizes": sizes}})
    out = tmp_path / "r"
    code, lines = run_captured(["convergence", "--config", str(cfg), "--out", str(out)])
    assert (code, lines) == (2, [f"error: config key 'convergence.sizes' must be positive, "
                                 f"increasing integers, got {sizes}"])
    cfg = write_config(tmp_path / "cfg.json", {"data": data})
    flag = ",".join(map(str, sizes))
    code, lines = run_captured(["convergence", "--config", str(cfg), "--sizes", flag,
                                "--out", str(out)])
    assert (code, lines) == (2, [f"error: --sizes must be positive, increasing integers, "
                                 f"got {sizes}"])
    assert not out.exists()


# Configs that end in a traceback, or are silently read as another value,
# unless the config reader checks each key's type and the seed's sign.
MALFORMED_CONFIGS = {
    "seed-negative": {"seed": -1},
    "seed-string": {"seed": "x"},
    "seed-list": {"seed": [1]},
    "seed-fraction": {"seed": 1.7},
    "seed-bool": {"seed": True},
    "restarts-string": {"gpr": {"restarts": "two"}},
    "restarts-fraction": {"gpr": {"restarts": 2.9}},
    "restarts-zero": {"gpr": {"restarts": 0}},
    "widths-string": {"mlp": {"widths": "abc"}},
    "widths-digits": {"mlp": {"widths": "123"}},
    "layers-integer": {"mlp": {"layers": 2}},
    "max_epochs-null": {"mlp": {"max_epochs": None}},
    "sizes-digits": {"convergence": {"sizes": "816"}},
    "learning_rate-string": {"mlp": {"learning_rate": "0.01"}},
    # MLP training is L-BFGS-B alone: any other optimizer name is refused.
    "optimizer-adam": {"mlp": {"optimizer": "adam"}},
    "optimizer-sgd": {"mlp": {"optimizer": "sgd"}},
    "train_frac-string": {"split": {"train_frac": "0.7"}},
    "fidelity-integer": {"data": {"x": "x.txt", "y": "y.txt", "fidelity": 3}},
    "noise_bounds-bool": {"gpr": {"noise_bounds": [True, 1.0]}},
}


def assert_config_exits_2_with_one_line(cfg, out):
    code, lines = run_captured(["train", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert not out.exists()


@pytest.mark.parametrize("body", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS.keys())
def test_malformed_config_exits_2_with_one_line(tmp_path, body):
    cfg = write_config(tmp_path / "cfg.json", {"data": {"x": "x.txt", "y": "y.txt"}, **body})
    assert_config_exits_2_with_one_line(cfg, tmp_path / "r")


@pytest.mark.parametrize("value", [1e308, -1e308], ids=["plus", "minus"])
@pytest.mark.parametrize("key", ["seed", "mlp.max_epochs", "convergence.sizes"])
def test_integer_key_written_as_a_huge_float_exits_2_with_a_short_line(synth_dir, key, value):
    """Past 2**53 a float no longer counts by ones, so an integer key
    written as 1e308 is refused as written, before the run starts, in one
    short line; a later check would echo it as a 309-digit integer, and
    +1e308 would train."""
    cfg = json.loads((synth_dir / "mf_config.json").read_text())
    cfg.update(gpr=FAST_GPR, mf_model={"kind": "mlp"})
    command = "mf-train"
    if key == "seed":
        cfg["seed"] = value
    elif key == "mlp.max_epochs":
        cfg["mlp"] = {"max_epochs": value}
    else:
        command = "convergence"
        cfg = {"data": cfg["lf_data"], "gpr": FAST_GPR, "convergence": {"sizes": [value]}}
    path, out = write_config(synth_dir / "huge.json", cfg), synth_dir / "r"
    code, lines = run_captured([command, "--config", str(path), "--out", str(out)])
    assert code == 2 and len(lines) == 1, lines
    assert lines[0].startswith(f"error: config key '{key}") and f"got {value!r}" in lines[0]
    assert len(lines[0]) < 200
    assert not out.exists()


# Config or meta.json bytes that json.loads cannot take: UTF-16 text, and
# arrays nested deeper than the decoder's recursion limit.
UNREADABLE_JSON = {
    "utf16": json.dumps({"data": {"x": "x.txt", "y": "y.txt"}}).encode("utf-16"),
    "deep": b'{"seed": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
}


@pytest.mark.parametrize("content", UNREADABLE_JSON.values(), ids=UNREADABLE_JSON.keys())
def test_config_that_is_no_json_text_exits_2_with_one_line(tmp_path, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    assert_config_exits_2_with_one_line(cfg, tmp_path / "r")


@pytest.mark.parametrize("name, content", [
    ("meta.json", UNREADABLE_JSON["utf16"]),
    ("meta.json", UNREADABLE_JSON["deep"]),
    ("CHECKSUMS", "abc  meta.json\n".encode("utf-16")),
], ids=["meta-utf16", "meta-deep", "checksums-utf16"])
def test_bundle_file_that_is_no_text_exits_2_with_one_line(
    predict_bundles, tmp_path, name, content
):
    bundle = shutil.copytree(predict_bundles[1][0], tmp_path / "model")
    (bundle / name).write_bytes(content)
    sites = tmp_path / "sites.csv"
    sites.write_text("x\n0.25\n")
    code, lines = run_captured(["predict", "--model-dir", str(bundle), "--sites", str(sites),
                                "--out", str(tmp_path / "pred.csv")])
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_number_past_the_float_range_in_a_config_exits_2_with_one_line(tmp_path):
    huge = 10**400
    cfg = write_config(tmp_path / "cfg.json",
                       {"data": {"x": "x.txt", "y": "y.txt"}, "split": {"train_frac": huge}})
    code, lines = run_captured(["tune", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert code == 2
    assert lines == [f"error: config key 'split.train_frac' must be a number, got {huge}"]
    assert not (tmp_path / "r").exists()


# Values of the right JSON type that could not run, with the message each
# gives: a restart count past the cap, which would run without end,
# length-scale bounds whose log or squared inverse is no normal float, which
# overflow in training, and MLP widths and layer counts past their caps, whose
# networks would allocate without bound (none is trained here).
OUT_OF_RANGE = {
    "restarts-2**63": (
        {"gpr": {"restarts": 2**63}},
        f"'gpr.restarts' must be an integer from 1 to {MAX_RESTARTS}, got {2**63}",
    ),
    "restarts-cap+1": (
        {"gpr": {"restarts": MAX_RESTARTS + 1}},
        f"'gpr.restarts' must be an integer from 1 to {MAX_RESTARTS}, got {MAX_RESTARTS + 1}",
    ),
    "length_scale-subnormal": (
        {"gpr": {"length_scale_bounds": [1e-320, 1e-300]}},
        "'gpr.length_scale_bounds[0]' must be a number from 1e-150 to 1e+150, got 1e-320",
    ),
    "length_scale-huge": (
        {"gpr": {"length_scale_bounds": [1.0, 1e200]}},
        "'gpr.length_scale_bounds[1]' must be a number from 1e-150 to 1e+150, got 1e+200",
    ),
    "widths-10**9": (
        {"mlp": {"widths": [16, 10**9]}},
        f"'mlp.widths[1]' must be an integer from 1 to {MAX_WIDTH}, got {10**9}",
    ),
    "widths-cap+1": (
        {"mlp": {"widths": [MAX_WIDTH + 1]}},
        f"'mlp.widths[0]' must be an integer from 1 to {MAX_WIDTH}, got {MAX_WIDTH + 1}",
    ),
    "widths-0": (
        {"mlp": {"widths": [0]}},
        f"'mlp.widths[0]' must be an integer from 1 to {MAX_WIDTH}, got 0",
    ),
    "layers-10**9": (
        {"mlp": {"layers": [10**9]}},
        f"'mlp.layers[0]' must be an integer from 1 to {MAX_LAYERS}, got {10**9}",
    ),
    "layers-cap+1": (
        {"mlp": {"layers": [1, MAX_LAYERS + 1]}},
        f"'mlp.layers[1]' must be an integer from 1 to {MAX_LAYERS}, got {MAX_LAYERS + 1}",
    ),
}


@pytest.mark.parametrize("section, message", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
def test_config_value_out_of_its_range_exits_2_at_config_read(tmp_path, section, message):
    """The data files do not exist, so a config the reader passed would exit
    on them instead, and no run starts either way."""
    cfg = write_config(tmp_path / "cfg.json", {"data": {"x": "x.txt", "y": "y.txt"}, **section})
    code, lines = run_captured(["train", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert code == 2
    assert lines == [f"error: config key {message}"]
    assert not (tmp_path / "r").exists()


def test_config_ranges_include_their_ends(tmp_path):
    lo, hi = LENGTH_SCALE_RANGE
    cfg = load_config(write_config(tmp_path / "cfg.json", {
        "data": {"x": "x.txt", "y": "y.txt"},
        "gpr": {"restarts": MAX_RESTARTS, "length_scale_bounds": [lo, hi]},
        "mlp": {"layers": [1, MAX_LAYERS], "widths": [1, MAX_WIDTH]},
    }))
    assert cfg.gpr_grid.restarts == MAX_RESTARTS
    assert cfg.gpr_grid.bounds.length_scale == (lo, hi)
    assert cfg.mlp_grid.layer_counts == (1, MAX_LAYERS)
    assert cfg.mlp_grid.widths == (1, MAX_WIDTH)


@pytest.mark.parametrize("keys", [(), *((key,) for key in UNREAD_MLP_KEYS)],
                         ids=["none", *UNREAD_MLP_KEYS])
def test_unread_mlp_key_warns_in_one_line_and_changes_nothing(synth_dir, tmp_path, keys):
    """A config that sets an MLP key that training does not read trains with
    one warning line per key; its exit code and trained bytes are those of
    the same config without the key."""
    values = {"learning_rate": 0.01, "batch_size": 16, "early_stop_patience": 10}

    def train(name, extra):
        cfg = write_config(tmp_path / f"{name}.json", {
            "seed": 3,
            "data": {"x": str(synth_dir / "lf_x.txt"), "y": str(synth_dir / "lf_y.txt")},
            "model": {"kind": "mlp"},
            "mlp": {"layers": [1], "widths": [4], "max_epochs": 5, **extra},
        })
        result = run_captured(["train", "--config", str(cfg), "--out", str(tmp_path / name)])
        bundle = tmp_path / name / "model_v1"
        return result, {path.name: path.read_bytes() for path in bundle.glob("payload.*")}

    (code, lines), plain = train("plain", {})
    assert (code, lines) == (0, [])
    (code, lines), keyed = train("keyed", {key: values[key] for key in keys})
    assert code == 0
    assert lines == [f"warning: config key 'mlp.{key}' has no effect: full-batch L-BFGS-B "
                     "training does not read it" for key in keys]
    assert keyed == plain and plain


# A config that sets every key but out_dir (for which null is valid), each
# leaf with the JSON type its reader takes: ints where an integer is due.
VALID_CONFIG = {
    "seed": 7,
    "split": {"train_frac": 0.6, "test_frac": 0.2, "val_frac": 0.2},
    "data": {"x": "x.txt", "y": "y.txt", "format": "csv", "fidelity": "HF"},
    "model": {"kind": "gpr"},
    "gpr": {"kernels": ["constant*rbf", "matern1.5"], "restarts": 2,
            "length_scale_bounds": [0.01, 100.0], "signal_variance_bounds": [0.001, 1000.0],
            "noise_bounds": [1e-10, 1.0]},
    "mlp": {"layers": [1, 2], "widths": [8, 16], "learning_rate": 0.001, "max_epochs": 50,
            "batch_size": 16, "early_stop_patience": 10, "optimizer": "lbfgs"},
    "convergence": {"sizes": [8, 16], "model": "mlp"},
}


def config_paths(node, path=()):
    """The key path of every value in ``node``: sections, lists and their items too."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from config_paths(value, path + (key,))


def test_valid_config_loads(tmp_path):
    with pytest.warns(UserWarning, match="has no effect"):
        cfg = load_config(write_config(tmp_path / "cfg.json", VALID_CONFIG))
    assert cfg.seed == 7 and cfg.mlp_grid.widths == (8, 16) and cfg.gpr_grid.restarts == 2


@settings(max_examples=80, deadline=None)
@given(
    leaf=st.sampled_from(list(config_paths(VALID_CONFIG))),
    value=st.sampled_from([True, False, "abc", "1", [1], [], None, 2.5]),
)
def test_one_mistyped_leaf_exits_2_with_one_line(tmp_path_factory, leaf, value):
    """Setting any one value of a valid config to one of another JSON type (a
    bool, a string, a list, null, or a fraction where an integer is due) is
    refused with one line before the run directory is made."""
    body = json.loads(json.dumps(VALID_CONFIG))
    node = body
    for key in leaf[:-1]:
        node = node[key]
    original = node[leaf[-1]]
    assume(type(value) is not type(original))
    node[leaf[-1]] = value
    tmp = tmp_path_factory.mktemp("mistyped")
    assert_config_exits_2_with_one_line(write_config(tmp / "cfg.json", body), tmp / "r")


def test_defaults_come_from_the_dataclasses(tmp_path):
    cfg = load_config(write_config(tmp_path / "cfg.json", {"data": {"x": "x", "y": "y"}}))
    assert cfg.split == SplitSpec(seed=0)
    # KernelSpec compares by identity, so the kernels compare by description.
    default = GprGrid()
    assert [k.describe() for k in cfg.gpr_grid.kernels] == [k.describe() for k in default.kernels]
    assert dataclasses.replace(cfg.gpr_grid, kernels=default.kernels) == default
    assert cfg.mlp_grid == MlpGrid()
    assert cfg.data == DataSource(x=tmp_path / "x", y=tmp_path / "y", fidelity="data")
    assert cfg.raw == {"data": {"x": str(tmp_path / "x"), "y": str(tmp_path / "y")}, "seed": 0}


# Numbers at the edges of what JSON carries into a config: an integer past
# int64, one past the float range, the least subnormal, either edge of the
# float range and negative zero.
NUMERIC_EXTREMES = [2**63, 10**400, 5e-324, 1e308, -1e308, -0.0]


def test_numeric_extreme_at_any_config_leaf_exits_0_or_2(tmp_path):
    """Setting any one value of a valid config that runs to any numeric
    extreme runs (exit 0) or is refused (exit 2) with one stderr line, never
    with a traceback; an unread MLP key adds its one warning line. Each leaf
    runs the command that reads it: ``train``, with an MLP model for the
    ``mlp`` keys, or ``convergence``. Every pair is tried."""
    data = tmp_path / "data"
    assert run(["synth", "--n-lf", "12", "--n-hf", "6", "--seed", "1", "--out", str(data)]) == 0
    base = json.loads(json.dumps(VALID_CONFIG))
    for key in UNREAD_MLP_KEYS:
        del base["mlp"][key]
    base["data"].update(x=str(data / "lf_x.txt"), y=str(data / "lf_y.txt"), format="tensor-text")
    base["convergence"]["sizes"] = [4, 6]
    out = tmp_path / "r"

    def exit_and_lines(body, leaf=("",)):
        command = "convergence" if leaf[0] == "convergence" else "train"
        if leaf[0] == "mlp":
            body["model"]["kind"] = "mlp"
        cfg = write_config(tmp_path / "cfg.json", body)
        result = run_captured([command, "--config", str(cfg), "--out", str(out)])
        shutil.rmtree(out, ignore_errors=True)
        return result

    for leaf in (("",), ("mlp",), ("convergence",)):
        assert exit_and_lines(json.loads(json.dumps(base)), leaf) == (0, []), leaf
    bad = []
    for leaf in config_paths(VALID_CONFIG):
        for value in NUMERIC_EXTREMES:
            body = json.loads(json.dumps(base))
            node = body
            for key in leaf[:-1]:
                node = node[key]
            node[leaf[-1]] = value
            code, lines = exit_and_lines(body, leaf)
            if leaf[-1] in UNREAD_MLP_KEYS and lines and lines[0].startswith("warning: "):
                lines = lines[1:]
            if code not in (0, 2) or len(lines) > 1 or (code == 2) != bool(lines):
                bad.append((leaf, value, code, lines))
    assert bad == []


def run_recorded(argv):
    """``main(argv)`` in process: its exit code, or argparse's, and its
    stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_one_parser_serves_every_call_as_a_fresh_one_would(tmp_path, monkeypatch):
    """``main`` parses with one parser per process. Calls of several
    subcommands, a flag left at its default after a call that set it, a
    parse error and ``--version`` give the exit codes, output and files
    that a parser built afresh for each call gives."""

    def calls(directory):
        directory.mkdir()
        synth = ["synth", "--n-lf", "6", "--n-hf", "3"]
        argvs = [
            [*synth, "--seed", "2", "--out", str(directory / "a")],
            [*synth, "--out", str(directory / "b")],
            ["ingest", "--input", str(directory / "a" / "lf_x.txt")],
            ["synth", "--n-lf", "x"],
            ["--version"],
            ["bogus"],
        ]
        results = [run_recorded(argv) for argv in argvs]
        files = {path.relative_to(directory): path.read_bytes()
                 for path in sorted(directory.rglob("*")) if path.is_file()}
        text = json.dumps(results).replace(str(directory), "<dir>")
        return text, {p: b.replace(str(directory).encode(), b"<dir>") for p, b in files.items()}

    assert cli.build_parser() is cli.build_parser()
    cached = calls(tmp_path / "cached")
    codes = [code for code, _, _ in json.loads(cached[0])]
    assert codes == [0, 0, 0, 2, 0, 2]
    error = json.loads(cached[0])[3][2].strip().splitlines()
    assert [line for line in error if "error:" in line] == error[-1:]
    assert error[-1] == "surrkit synth: error: argument --n-lf: invalid int value: 'x'"
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert calls(tmp_path / "fresh") == cached


def test_a_command_replaced_after_the_first_parse_is_the_one_run(monkeypatch):
    """The parser names the subcommand and ``main`` looks its function up at
    each call, so a wrapper installed after the parser was built runs."""
    cli.build_parser()
    ran = []
    monkeypatch.setattr(cli, "cmd_synth", lambda args: ran.append(args.n_lf) or 0)
    assert main(["synth", "--n-lf", "7"]) == 0
    assert ran == [7]
