"""Config-driven command line pipeline.

Commands mirror the workflow ingest -> preprocess -> tune -> train ->
evaluate/predict. Every run writes its artifacts (config copy, log, model
bundles, reports) into one output directory, so a run can be reproduced from
what it leaves behind. Exit codes: 0 success, 2 input problem (including a
malformed bundle and a path that cannot be read or written), 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from surrkit import __version__
from surrkit.config import DataSource, RunConfig, load_config
from surrkit.data import (
    DataTensor,
    FidelityDataset,
    export_tensor,
    flatten,
    import_tensor,
    write_csv,
)
from surrkit.errors import (
    InputError,
    NumericError,
    StoreError,
    SurrkitError,
    UnsupportedModelError,
)
from surrkit.metrics import EvalReport, evaluate, one_to_one_export
from surrkit.mlp import MlpModel, export_history_csv
from surrkit.modelstore import load_model, save_model
from surrkit.multifid import (
    TensorLayout,
    predict_tensor,
    train_mf_chain,
    train_single_fidelity,
)
from surrkit.preprocess import split_data_cv
from surrkit.synthbench import Sampler, generate_pair_dataset, get_pair
from surrkit.tuner import check_sizes, convergence_study, export_convergence_csv, export_sweep_csv

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


class _Run:
    """Output directory, made with a config.json copy, plus a logger that tees to run.log."""

    def __init__(self, cfg: RunConfig, verbose: bool):
        self.dir = cfg.out_dir or Path("surrkit_run")
        self.verbose = verbose
        self.dir.mkdir(parents=True, exist_ok=True)
        self._log_path = self.dir / "run.log"
        (self.dir / "config.json").write_text(json.dumps(cfg.raw, indent=2) + "\n", "utf-8")

    def say(self, message: str, detail: bool = False) -> None:
        if not detail or self.verbose:
            print(message)
        with open(self._log_path, "a", encoding="utf-8") as fh:
            fh.write(message + "\n")


@contextmanager
def _stage(name: str):
    try:
        yield
    except SurrkitError as exc:
        raise type(exc)(f"[{name}] {exc}") from exc


def _tensor_rows(tensor: DataTensor, idx: np.ndarray) -> DataTensor:
    rows = tensor.values[idx]
    rows.setflags(write=False)  # the tensor's own array, so it is not copied
    return DataTensor(rows, tensor.scalar_names, tensor.coord_labels, tensor.units)


def _load_dataset(source: DataSource) -> FidelityDataset:
    with _stage(f"ingest {source.fidelity}"):
        X = import_tensor(source.x, source.format)
        Y = import_tensor(source.y, source.format)
        return FidelityDataset(fidelity=source.fidelity, X=X, Y=Y)


def _data_section(cfg: RunConfig) -> DataSource:
    if cfg.data is None:
        raise InputError("this command needs the 'data' section in the config")
    return cfg.data


def _split_flags(args) -> dict:
    return {
        "train_frac": getattr(args, "train_frac", None),
        "test_frac": getattr(args, "test_frac", None),
        "val_frac": getattr(args, "val_frac", None),
    }


def _predict_and_score(
    model, X: DataTensor, Y: DataTensor, out_dir: Path | None
) -> EvalReport:
    """Predict once, score that prediction, and, given a directory, write
    the report and the one-to-one scatter data from it."""
    with _stage("evaluate"):
        y_pred = predict_tensor(model, X)
        report = evaluate(model.describe(), Y, y_pred)
        if out_dir is not None:
            report.write(out_dir)
            one_to_one_export(Y, y_pred, out_dir / "one_to_one.csv")
    return report


def _train_levels(args, cfg: RunConfig, levels) -> int:
    """The run of ``train`` and ``mf-train`` on (data source, model kind)
    levels, lowest first. Each level's sweep, and an MLP winner's history,
    is written with the level's prefix: none for one level, else ``lf_``,
    ``level<i>_`` for each level between, and ``mf_``. The top level's test
    bin scores the model."""
    datasets = [_load_dataset(source) for source, _ in levels]
    run = _Run(cfg, args.verbose)
    for data in datasets:
        run.say(f"loaded {data.fidelity}: X {data.X.shape}, Y {data.Y.shape}")
    with _stage(args.command):
        model, sweeps = train_mf_chain(
            datasets, [kind for _, kind in levels], cfg.split, cfg.gpr_grid, cfg.mlp_grid
        )
    top = len(sweeps) - 1
    for i, (data, sweep) in enumerate(zip(datasets, sweeps)):
        prefix = "" if top == 0 else "lf_" if i == 0 else "mf_" if i == top else f"level{i}_"
        export_sweep_csv(sweep, run.dir / f"{prefix}sweep.csv")
        run.say(f"sweep winner for {data.fidelity}: {sweep.winner.label} "
                f"(val RMSE {sweep.winner.val_rmse:.4e})")
        if isinstance(sweep.model, MlpModel):
            export_history_csv(sweep.model, run.dir / f"{prefix}history.csv")
    with _stage("save"):
        bundle = save_model(model, run.dir, "model" if top == 0 else "mf_model")
    run.say(f"model bundle: {bundle}")
    _, test_idx, _ = split_data_cv(datasets[-1].n, cfg.split)
    if len(test_idx) < 2:
        run.say(
            f"test bin has {len(test_idx)} row(s); too small for a meaningful "
            "report, skipping (score against independent data with 'evaluate')"
        )
        return EXIT_OK
    X, Y = (_tensor_rows(tensor, test_idx) for tensor in (datasets[-1].X, datasets[-1].Y))
    report = _predict_and_score(model, X, Y, run.dir)
    run.say(f"test bin ({len(test_idx)} rows): global R^2 = {report.global_r2:.6f}")
    run.say(report.to_text(), detail=True)
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.seed, args.out, _split_flags(args))
    return _train_levels(args, cfg, [(_data_section(cfg), cfg.model_kind)])


def cmd_mf_train(args) -> int:
    cfg = load_config(
        args.config, args.seed, args.out, _split_flags(args),
        {
            "lf_data": {"x": args.lf_input, "y": args.lf_output},
            "hf_data": {"x": args.hf_input, "y": args.hf_output},
        },
    )
    if not cfg.fidelity_chain:
        raise InputError(
            "this command needs a 'fidelity_chain', or 'lf_data' and 'hf_data', "
            "in the config"
        )
    return _train_levels(args, cfg, cfg.fidelity_chain)


def cmd_tune(args) -> int:
    cfg = load_config(args.config, args.seed, args.out, _split_flags(args))
    dataset = _load_dataset(_data_section(cfg))
    run = _Run(cfg, args.verbose)
    with _stage("tune"):
        _, sweep = train_single_fidelity(
            dataset, cfg.model_kind, cfg.split, cfg.gpr_grid, cfg.mlp_grid
        )
    export_sweep_csv(sweep, run.dir / "sweep.csv")
    run.say(
        f"winner: {sweep.winner.label} "
        f"(val RMSE {sweep.winner.val_rmse:.6e}, {sweep.winner.param_count} params)"
    )
    return EXIT_OK


def cmd_predict(args) -> int:
    model = load_model(args.model_dir)
    sites = import_tensor(args.sites, args.sites_format)
    with _stage("predict"):
        pred = predict_tensor(model, sites)
    # One row per site: input columns first, then output columns.
    out = write_csv(
        args.pred_out,
        TensorLayout.of(sites).column_names() + model.y_layout.column_names(),
        (
            map(repr, row)
            for row in np.hstack([flatten(sites), flatten(pred)]).tolist()
        ),
    )
    print(f"wrote {sites.n} predictions to {out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model = load_model(args.model_dir)
    X = import_tensor(args.x, args.format)
    Y = import_tensor(args.y, args.format)
    dataset = FidelityDataset(fidelity="eval", X=X, Y=Y)
    out_dir = Path(args.out) if args.out is not None else None
    report = _predict_and_score(model, dataset.X, dataset.Y, out_dir)
    print(report.to_text())
    return EXIT_OK


def cmd_convergence(args) -> int:
    cfg = load_config(args.config, args.seed, args.out, _split_flags(args))
    sizes = cfg.convergence_sizes
    try:
        if args.sizes:
            sizes = check_sizes(args.sizes.split(","), "--sizes")
    except ValueError:
        raise InputError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from None
    if not sizes:
        raise InputError("no sizes given; set convergence.sizes or pass --sizes")
    dataset = _load_dataset(_data_section(cfg))
    run = _Run(cfg, args.verbose)
    with _stage("convergence"):
        curve = convergence_study(
            dataset, cfg.convergence_model, list(sizes), cfg.split, cfg.gpr_grid, cfg.mlp_grid
        )
    export_convergence_csv(curve, run.dir / "convergence.csv")
    for point in curve.points:
        run.say(
            f"size {point.size:>6}: test RMSE {point.test_rmse:.6e}, "
            f"R^2 {point.test_r2:.6f}"
        )
    return EXIT_OK


def cmd_synth(args) -> int:
    pair = get_pair(args.pair)
    sampler = Sampler(kind=args.sampler, seed=args.seed if args.seed is not None else 0)
    lf, hf = generate_pair_dataset(pair, args.n_lf, args.n_hf, sampler)
    out = Path(args.out if args.out is not None else f"synth_{pair.name}")
    out.mkdir(parents=True, exist_ok=True)
    files = {
        "lf_x.txt": lf.X,
        "lf_y.txt": lf.Y,
        "hf_x.txt": hf.X,
        "hf_y.txt": hf.Y,
    }
    for name, tensor in files.items():
        export_tensor(tensor, out / name)
    config = {
        "seed": sampler.seed,
        "out_dir": "run",
        "lf_data": {"x": "lf_x.txt", "y": "lf_y.txt", "fidelity": "LF"},
        "hf_data": {"x": "hf_x.txt", "y": "hf_y.txt", "fidelity": "HF"},
        "lf_model": {"kind": "gpr"},
        "mf_model": {"kind": "gpr"},
    }
    (out / "mf_config.json").write_text(json.dumps(config, indent=2) + "\n", "utf-8")
    print(
        f"wrote {pair.name} benchmark (LF {lf.n}, HF {hf.n}) and mf_config.json to {out}"
    )
    return EXIT_OK


def cmd_ingest(args) -> int:
    tensor = import_tensor(args.input, args.format)
    print(
        f"valid tensor: shape {tensor.shape}, scalars {list(tensor.scalar_names)}"
        + (f", units {list(tensor.units)}" if tensor.units else "")
    )
    if args.out is not None:
        export_tensor(tensor, args.out, args.export_format)
        print(f"re-exported to {args.out} ({args.export_format})")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: building it costs
    about 25 times what a parse does, and a parse leaves it as it was.
    It names each subcommand in ``command``; ``main`` runs the ``cmd_*``
    function of that name as the module holds it at the call, so a function
    replaced after the first build, as a tracer replaces it, is the one run."""
    parser = argparse.ArgumentParser(
        prog="surrkit",
        description=(
            "Multi-fidelity surrogate modeling pipeline: ingest tensor data, "
            "preprocess, tune, train, and evaluate or serve predictions."
        ),
    )
    parser.add_argument("--version", action="version", version=f"surrkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, config: bool = True) -> None:
        if config:
            p.add_argument("--config", required=True, help="run config JSON file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--train-frac", type=float, default=None,
                       help="override split.train_frac")
        p.add_argument("--test-frac", type=float, default=None,
                       help="override split.test_frac")
        p.add_argument("--val-frac", type=float, default=None,
                       help="override split.val_frac")
        p.add_argument("--verbose", action="store_true", help="print extra detail")

    p = sub.add_parser("ingest", help="validate a data file and report its shape")
    p.add_argument("--input", required=True)
    p.add_argument("--format", default="tensor-text", choices=["tensor-text", "csv"])
    p.add_argument("--out", default=None, help="optionally re-export here")
    p.add_argument("--export-format", default="tensor-text", choices=["tensor-text", "csv"])

    p = sub.add_parser("train", help="single-fidelity pipeline: tune, train, evaluate")
    common(p)

    p = sub.add_parser(
        "mf-train", help="multi-fidelity pipeline over two or more fidelity levels"
    )
    common(p)
    p.add_argument("--lf-input", default=None, help="override the lowest level's x")
    p.add_argument("--lf-output", default=None, help="override the lowest level's y")
    p.add_argument("--hf-input", default=None, help="override the highest level's x")
    p.add_argument("--hf-output", default=None, help="override the highest level's y")

    p = sub.add_parser("tune", help="run the hyperparameter sweep only")
    common(p)

    p = sub.add_parser("predict", help="evaluate a saved model at new design sites")
    p.add_argument("--model-dir", required=True)
    p.add_argument("--sites", required=True, help="design sites file")
    p.add_argument("--sites-format", default="csv", choices=["csv", "tensor-text"])
    p.add_argument("--out", dest="pred_out", default="predictions.csv")

    p = sub.add_parser("evaluate", help="score a saved model on a labeled dataset")
    p.add_argument("--model-dir", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--format", default="tensor-text", choices=["tensor-text", "csv"])
    p.add_argument("--out", default=None, help="write report files here")

    p = sub.add_parser("convergence", help="training-set-size convergence study")
    common(p)
    p.add_argument("--sizes", default=None, help="comma-separated subset sizes")

    p = sub.add_parser("synth", help="generate an analytic benchmark dataset")
    p.add_argument("--pair", default="forrester")
    p.add_argument("--n-lf", type=int, default=50)
    p.add_argument("--n-hf", type=int, default=8)
    p.add_argument("--sampler", default="latin-hypercube",
                   choices=["latin-hypercube", "uniform-grid", "uniform-random"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    # A warning is one stderr line, as an error is, without a source line.
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return command(args)
        except NumericError as exc:
            print(f"numeric error: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        except (InputError, StoreError, UnsupportedModelError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT


def entrypoint() -> None:  # console script target
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
