"""Command-line entry point: fit, transform, perturb, evaluate.

All randomness flows from one seed, resolved as --seed if given, else the
SCALEFREE_SEED environment variable, else the documented default 42.
Usage errors exit 2 (argparse); data/contract errors exit 1 with a
diagnostic naming the failed contract; success exits 0.
"""

import argparse
import os
import sys

from .data import load_csv, save_csv
from .errors import ScaleFreeError
from .evaluate import DEFAULT_FOLDS, DEFAULT_KNN_K, TASKS, evaluation_grid
from .model_io import load_model, save_model
from .perturb import (
    DEFAULT_SCALE,
    DEFAULT_SHIFT,
    PERTURBATION_KINDS,
    PerturbationSpec,
    perturb_matrix,
)
from .report import write_report
from .transforms import (
    DEFAULT_N_SUBSAMPLES,
    DEFAULT_SUBSAMPLE_SIZE,
    KINDS,
    fit_transformer,
)

DEFAULT_SEED = 42
SEED_ENV_VAR = "SCALEFREE_SEED"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _label_col(text: str):
    """A label column is a zero-based index if it parses as int, else a name."""
    try:
        return int(text)
    except ValueError:
        return text


def resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get(SEED_ENV_VAR, "").strip()
    if env:
        return int(env)
    return DEFAULT_SEED


def _add_io_args(parser):
    parser.add_argument("--input", required=True, help="input CSV file")
    parser.add_argument("--output", required=True, help="output file path")
    parser.add_argument(
        "--label-col",
        type=_label_col,
        default=None,
        help="label column by header name or zero-based index",
    )


def _add_perturb_args(parser):
    parser.add_argument(
        "--perturb",
        choices=PERTURBATION_KINDS,
        default="identity",
        help="monotone rescaling applied to every feature column",
    )
    parser.add_argument(
        "--perturb-a",
        type=float,
        default=DEFAULT_SHIFT,
        help="positive shift added to unit-scaled values (default %(default)s)",
    )
    parser.add_argument(
        "--perturb-b",
        type=float,
        default=DEFAULT_SCALE,
        help="positive scale applied after the shift (default %(default)s)",
    )


def _add_model_args(parser):
    parser.add_argument(
        "--psi",
        type=_positive_int,
        default=DEFAULT_SUBSAMPLE_SIZE,
        help="ares sub-sample size (default %(default)s)",
    )
    parser.add_argument(
        "--t",
        type=_positive_int,
        default=DEFAULT_N_SUBSAMPLES,
        help="ares sub-sample count (default %(default)s)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"base seed; falls back to ${SEED_ENV_VAR}, then {DEFAULT_SEED}",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalefree",
        description="Scale-robust preprocessing (min-max, rank, ares) and its evaluation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a transformer on a CSV, write a model file")
    _add_io_args(p_fit)
    p_fit.add_argument("--kind", choices=KINDS, default="ares", help="transform to fit")
    _add_model_args(p_fit)

    p_tr = sub.add_parser("transform", help="apply a saved model to a CSV")
    _add_io_args(p_tr)
    p_tr.add_argument("--model", required=True, help="model file written by fit")

    p_pe = sub.add_parser("perturb", help="rewrite a CSV on a perturbed measurement scale")
    _add_io_args(p_pe)
    _add_perturb_args(p_pe)

    p_ev = sub.add_parser("evaluate", help="run the classification/anomaly evaluation")
    _add_io_args(p_ev)
    _add_model_args(p_ev)
    _add_perturb_args(p_ev)
    p_ev.add_argument("--task", choices=TASKS, default="classify")
    p_ev.add_argument(
        "--preproc", choices=KINDS, default="ares", help="preprocessor to evaluate"
    )
    p_ev.add_argument(
        "--k", type=_positive_int, default=DEFAULT_KNN_K, help="KNN neighbor count"
    )
    p_ev.add_argument(
        "--folds",
        type=int,
        default=DEFAULT_FOLDS,
        help="cross-validation fold count (>= 2)",
    )
    p_ev.add_argument(
        "--grid",
        action="store_true",
        help="sweep all preprocessor x perturbation combinations into one report",
    )
    return parser


def cmd_fit(args) -> int:
    dataset = load_csv(args.input, label_column=args.label_col)
    transformer = fit_transformer(
        dataset.features,
        args.kind,
        subsample_size=args.psi,
        n_subsamples=args.t,
        seed=resolve_seed(args.seed),
    )
    save_model(transformer, args.output)
    return 0


def cmd_transform(args) -> int:
    transformer = load_model(args.model)
    dataset = load_csv(args.input, label_column=args.label_col)
    save_csv(transformer.transform_dataset(dataset), args.output)
    return 0


def cmd_perturb(args) -> int:
    dataset = load_csv(args.input, label_column=args.label_col)
    spec = PerturbationSpec(args.perturb, shift=args.perturb_a, scale=args.perturb_b)
    save_csv(dataset.with_features(perturb_matrix(dataset.features, spec)), args.output)
    return 0


def cmd_evaluate(args) -> int:
    if args.folds < 2:
        raise ScaleFreeError(f"--folds must be >= 2, got {args.folds}")
    dataset = load_csv(args.input, label_column=args.label_col)
    seed = resolve_seed(args.seed)

    task_kwargs = {"subsample_size": args.psi, "n_subsamples": args.t}
    if args.task == "classify":
        task_kwargs.update(knn_k=args.k, n_folds=args.folds)

    reports = evaluation_grid(
        dataset,
        args.task,
        KINDS if args.grid else (args.preproc,),
        PERTURBATION_KINDS if args.grid else (args.perturb,),
        seed=seed,
        shift=args.perturb_a,
        scale=args.perturb_b,
        **task_kwargs,
    )
    write_report(reports, args.output)
    return 0


_COMMANDS = {
    "fit": cmd_fit,
    "transform": cmd_transform,
    "perturb": cmd_perturb,
    "evaluate": cmd_evaluate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ScaleFreeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
