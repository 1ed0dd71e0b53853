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
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from surrkit import __version__
from surrkit.config import RunConfig, load_config
from surrkit.data import (
    DataTensor,
    FidelityDataset,
    _format_float,
    export_tensor,
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
from surrkit.metrics import EvalReport, evaluate, one_to_one_export, throughput_benchmark
from surrkit.mlp import export_history_csv
from surrkit.modelstore import load_model, save_model
from surrkit.multifid import (
    TensorLayout,
    predict_tensor,
    train_mf,
    train_mf_chain,
    train_single_fidelity,
)
from surrkit.preprocess import split_data_cv, preprocess_data_pipeline
from surrkit.synthbench import Sampler, generate_pair_dataset, get_pair
from surrkit.tuner import (
    convergence_study,
    export_convergence_csv,
    export_sweep_csv,
    tune,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


class _Run:
    """Output directory plus a tiny logger that tees to run.log."""

    def __init__(self, out_dir: Path, verbose: bool):
        self.dir = out_dir
        self.verbose = verbose
        self.dir.mkdir(parents=True, exist_ok=True)
        self._log_path = self.dir / "run.log"

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
    return DataTensor(
        tensor.values[idx], tensor.scalar_names, tensor.coord_labels, tensor.units
    )


def _load_dataset(source, label: str) -> FidelityDataset:
    with _stage(f"ingest {label}"):
        X = import_tensor(source.x, source.format)
        Y = import_tensor(source.y, source.format)
        return FidelityDataset(
            fidelity=source.fidelity or label,
            X=X,
            Y=Y,
            provenance=f"{source.x} / {source.y}",
        )


def _write_config_copy(cfg: RunConfig, run: _Run) -> None:
    effective = dict(cfg.raw)
    effective["seed"] = cfg.seed
    (run.dir / "config.json").write_text(
        json.dumps(effective, indent=2) + "\n", encoding="utf-8"
    )


def _require(cfg: RunConfig, attr: str, key: str):
    value = getattr(cfg, attr)
    if value is None:
        raise InputError(f"this command needs the {key!r} section in the config")
    return value


def _out_dir(cfg: RunConfig, args) -> Path:
    if args.out is not None:
        return Path(args.out)
    if cfg.out_dir is not None:
        return cfg.out_dir
    return Path("surrkit_run")


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


def _evaluate_and_report(
    surrogate, dataset: FidelityDataset, cfg: RunConfig, run: _Run
) -> None:
    _, test_idx, _ = split_data_cv(dataset.n, cfg.split)
    if len(test_idx) < 2:
        run.say(
            f"test bin has {len(test_idx)} row(s); too small for a meaningful "
            "report, skipping (score against independent data with 'evaluate')"
        )
        return
    report = _predict_and_score(
        surrogate,
        _tensor_rows(dataset.X, test_idx),
        _tensor_rows(dataset.Y, test_idx),
        run.dir,
    )
    run.say(f"test bin ({len(test_idx)} rows): global R^2 = {report.global_r2:.6f}")
    run.say(report.to_text(), detail=True)


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.seed, args.out, _split_flags(args))
    run = _Run(_out_dir(cfg, args), args.verbose)
    _write_config_copy(cfg, run)
    source = _require(cfg, "data", "data")
    dataset = _load_dataset(source, "data")
    run.say(
        f"loaded {dataset.fidelity}: X {dataset.X.shape}, Y {dataset.Y.shape}"
    )
    with _stage("train"):
        surrogate, sweep = train_single_fidelity(
            dataset, cfg.model_kind, cfg.split, cfg.gpr_grid, cfg.mlp_grid
        )
    export_sweep_csv(sweep, run.dir / "sweep.csv")
    run.say(f"sweep winner: {sweep.winner.label} (val RMSE {sweep.winner.val_rmse:.4e})")
    if cfg.model_kind == "mlp":
        export_history_csv(surrogate.model, run.dir / "history.csv")
    with _stage("save"):
        bundle = save_model(surrogate, run.dir, "model")
    run.say(f"model bundle: {bundle}")
    _evaluate_and_report(surrogate, dataset, cfg, run)
    return EXIT_OK


def cmd_mf_train(args) -> int:
    cfg = load_config(args.config, args.seed, args.out, _split_flags(args))
    raw = dict(cfg.raw)
    for key, section in (("lf", "lf_data"), ("hf", "hf_data")):
        x_flag = getattr(args, f"{key}_input")
        y_flag = getattr(args, f"{key}_output")
        if x_flag or y_flag:
            block = dict(raw.get(section, {}))
            if x_flag:
                block["x"] = x_flag
            if y_flag:
                block["y"] = y_flag
            raw[section] = block
    if raw != cfg.raw:
        from surrkit.config import build_run_config

        cfg = build_run_config(
            raw, Path(args.config).parent, args.seed, args.out, _split_flags(args)
        )

    run = _Run(_out_dir(cfg, args), args.verbose)
    _write_config_copy(cfg, run)

    if cfg.fidelity_chain:
        datasets = [
            _load_dataset(source, source.fidelity or f"level{i}")
            for i, (source, _) in enumerate(cfg.fidelity_chain)
        ]
        kinds = [kind for _, kind in cfg.fidelity_chain]
        run.say(
            "fidelity chain: "
            + " -> ".join(f"{d.fidelity}({d.n})" for d in datasets)
        )
        with _stage("mf-train"):
            composite = train_mf_chain(
                datasets, kinds, cfg.split, cfg.gpr_grid, cfg.mlp_grid
            )
        top_data = datasets[-1]
    else:
        lf_data = _load_dataset(_require(cfg, "lf_data", "lf_data"), "LF")
        hf_data = _load_dataset(_require(cfg, "hf_data", "hf_data"), "HF")
        run.say(
            f"LF: {lf_data.n} samples, HF: {hf_data.n} samples, "
            f"input dim {lf_data.X.m * lf_data.X.l}"
        )
        with _stage("mf-train"):
            composite = train_mf(
                lf_data,
                hf_data,
                lf_kind=cfg.lf_kind,
                mf_kind=cfg.mf_kind,
                split=cfg.split,
                gpr_grid=cfg.gpr_grid,
                mlp_grid=cfg.mlp_grid,
            )
        top_data = hf_data

    if getattr(composite, "lf_sweep", None) is not None:
        export_sweep_csv(composite.lf_sweep, run.dir / "lf_sweep.csv")
    if getattr(composite, "mf_sweep", None) is not None:
        export_sweep_csv(composite.mf_sweep, run.dir / "mf_sweep.csv")
    with _stage("save"):
        bundle = save_model(composite, run.dir, "mf_model")
    run.say(f"model bundle: {bundle}")
    _evaluate_and_report(composite, top_data, cfg, run)
    return EXIT_OK


def cmd_tune(args) -> int:
    cfg = load_config(args.config, args.seed, args.out, _split_flags(args))
    run = _Run(_out_dir(cfg, args), args.verbose)
    _write_config_copy(cfg, run)
    dataset = _load_dataset(_require(cfg, "data", "data"), "data")
    with _stage("tune"):
        prepared = preprocess_data_pipeline(dataset, cfg.split)
        sweep = tune(prepared, cfg.model_kind, cfg.gpr_grid, cfg.mlp_grid)
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
            [_format_float(v) for v in row]
            for row in np.hstack(
                [sites.values.reshape(sites.n, -1), pred.values.reshape(pred.n, -1)]
            )
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
    run = _Run(_out_dir(cfg, args), args.verbose)
    _write_config_copy(cfg, run)
    dataset = _load_dataset(_require(cfg, "data", "data"), "data")
    sizes = (
        tuple(int(s) for s in args.sizes.split(","))
        if args.sizes
        else cfg.convergence_sizes
    )
    if not sizes:
        raise InputError("no sizes given; set convergence.sizes or pass --sizes")
    with _stage("convergence"):
        curve = convergence_study(
            dataset, cfg.convergence_model, list(sizes), cfg.split
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
        "out_dir": str(out / "run"),
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


def cmd_bench(args) -> int:
    model = load_model(args.model_dir)
    sites = import_tensor(args.sites, args.sites_format)
    X = sites.values.reshape(sites.n, -1)
    with _stage("bench"):
        rate = throughput_benchmark(model, X, repeats=args.repeats)
    print(f"{rate:.1f} single-site predictions/second "
          f"({sites.n} sites x {args.repeats} repeats)")
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "bench.json").write_text(
            json.dumps(
                {"predictions_per_second": rate, "sites": sites.n,
                 "repeats": args.repeats, "model": model.describe()},
                indent=2,
            )
            + "\n",
            encoding="utf-8",
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


def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="single-fidelity pipeline: tune, train, evaluate")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("mf-train", help="two-level multi-fidelity pipeline")
    common(p)
    p.add_argument("--lf-input", default=None, help="override lf_data.x")
    p.add_argument("--lf-output", default=None, help="override lf_data.y")
    p.add_argument("--hf-input", default=None, help="override hf_data.x")
    p.add_argument("--hf-output", default=None, help="override hf_data.y")
    p.set_defaults(func=cmd_mf_train)

    p = sub.add_parser("tune", help="run the hyperparameter sweep only")
    common(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("predict", help="evaluate a saved model at new design sites")
    p.add_argument("--model-dir", required=True)
    p.add_argument("--sites", required=True, help="design sites file")
    p.add_argument("--sites-format", default="csv", choices=["csv", "tensor-text"])
    p.add_argument("--out", dest="pred_out", default="predictions.csv")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a saved model on a labeled dataset")
    p.add_argument("--model-dir", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--format", default="tensor-text", choices=["tensor-text", "csv"])
    p.add_argument("--out", default=None, help="write report files here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("convergence", help="training-set-size convergence study")
    common(p)
    p.add_argument("--sizes", default=None, help="comma-separated subset sizes")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("synth", help="generate an analytic benchmark dataset")
    p.add_argument("--pair", default="forrester")
    p.add_argument("--n-lf", type=int, default=50)
    p.add_argument("--n-hf", type=int, default=8)
    p.add_argument("--sampler", default="latin-hypercube",
                   choices=["latin-hypercube", "uniform-grid", "uniform-random"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="measure single-site prediction throughput")
    p.add_argument("--model-dir", required=True)
    p.add_argument("--sites", required=True)
    p.add_argument("--sites-format", default="csv", choices=["csv", "tensor-text"])
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
