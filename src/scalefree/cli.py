"""Command-line entry point: fit, transform, perturb, evaluate.

All randomness flows from one seed, resolved as --seed if given, else the
SCALEFREE_SEED environment variable, else the documented default 42.
Usage errors, a malformed SCALEFREE_SEED among them, exit 2 (argparse);
data/contract errors exit 1 with a diagnostic naming the failed contract;
success exits 0.

The package's one BLAS call is the neighbour search's distance fill, whose
small blocks gain little from threads, while an OpenBLAS worker pool spins
for about 0.1 s of CPU when numpy loads. So, imported before numpy, this
module sets OPENBLAS_NUM_THREADS to 1 unless the variable is already set,
which keeps the user's count; once numpy is loaded the pool exists, and the
environment is left alone. Nothing else in the package sets the count.
"""

import argparse
import math
import os
import sys

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .data import _quoted, load_csv, save_csv
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


def _positive(parse, rule: str):
    """An argparse type: the text parsed, if positive and finite, or else a usage error."""

    def check(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = math.nan
        if not (value > 0 and math.isfinite(value)):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    return check


_positive_int = _positive(int, "an integer >= 1")
_positive_float = _positive(float, "a positive finite number")


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
    try:
        return int(env) if env else DEFAULT_SEED
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {_quoted(env)}") from None


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
        type=_positive_float,
        default=DEFAULT_SHIFT,
        help="positive shift added to unit-scaled values (default %(default)s)",
    )
    parser.add_argument(
        "--perturb-b",
        type=_positive_float,
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
    p_fit.set_defaults(run=cmd_fit)
    _add_io_args(p_fit)
    p_fit.add_argument("--kind", choices=KINDS, default="ares", help="transform to fit")
    _add_model_args(p_fit)

    p_tr = sub.add_parser("transform", help="apply a saved model to a CSV")
    p_tr.set_defaults(run=cmd_transform)
    _add_io_args(p_tr)
    p_tr.add_argument("--model", required=True, help="model file written by fit")

    p_pe = sub.add_parser("perturb", help="rewrite a CSV on a perturbed measurement scale")
    p_pe.set_defaults(run=cmd_perturb)
    _add_io_args(p_pe)
    _add_perturb_args(p_pe)

    p_ev = sub.add_parser("evaluate", help="run the classification/anomaly evaluation")
    p_ev.set_defaults(run=cmd_evaluate)
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
        seed=args.seed,
    )
    save_model(transformer, args.output)
    return 0


def cmd_transform(args) -> int:
    transformer = load_model(args.model)
    dataset = load_csv(args.input, label_column=args.label_col)
    save_csv(dataset.with_features(transformer.transform(dataset.features)), args.output)
    return 0


def cmd_perturb(args) -> int:
    dataset = load_csv(args.input, label_column=args.label_col)
    spec = PerturbationSpec(args.perturb, shift=args.perturb_a, scale=args.perturb_b)
    save_csv(dataset.with_features(perturb_matrix(dataset.features, spec)), args.output)
    return 0


def cmd_evaluate(args) -> int:
    task_kwargs = {"subsample_size": args.psi, "n_subsamples": args.t}
    if args.task == "classify":
        if args.folds < 2:
            raise ScaleFreeError(f"--folds must be >= 2, got {args.folds}")
        task_kwargs.update(knn_k=args.k, n_folds=args.folds)
    dataset = load_csv(args.input, label_column=args.label_col)

    reports = evaluation_grid(
        dataset,
        args.task,
        KINDS if args.grid else (args.preproc,),
        PERTURBATION_KINDS if args.grid else (args.perturb,),
        seed=args.seed,
        shift=args.perturb_a,
        scale=args.perturb_b,
        **task_kwargs,
    )
    write_report(reports, args.output)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "seed" in args:  # fit and evaluate: a bad seed variable is a usage error
        try:
            args.seed = resolve_seed(args.seed)
        except ValueError as exc:
            parser.exit(2, f"{parser.prog}: error: {exc}\n")
    try:
        return args.run(args)
    except ScaleFreeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
