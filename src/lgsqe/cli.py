"""Command-line driver: fit, score, eval, filter, sweep.

Runtime errors exit nonzero after printing a single ``lgsqe: error: ...``
line to stderr. Stage timings go to stderr as well; they never enter output
files, which stay byte-reproducible for a fixed seed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .datasets import ImageSet, load_images, save_raw_tensor, write_csv
from .dft import write_ranking_csv
from .errors import LgsqeError
from .evaluate import check_keep_fraction, filter_samples, histogram_svg, write_scores_csv
from .pipeline import (
    CONFIG_FIELDS,
    PipelineModel,
    RunConfig,
    checked_split,
    fit_and_evaluate,
    fit_pipeline,
    holdout_split,
    matches_training_data,
    parse_config_file,
)

FORMATS = ["auto", "idx", "cifar", "lgt"]  # --*-format choices; auto detects the magic bytes


def _add_config_flags(parser: argparse.ArgumentParser, keys: list[str] | None = None) -> None:
    """One flag per config key, named and documented by the field's metadata: every key and ``--config``, or
    only ``keys``."""
    group = parser.add_argument_group("pipeline configuration")
    if keys is None:
        group.add_argument("--config", help="key=value config file; explicit flags override it")
    for key in keys or CONFIG_FIELDS:
        f, types = CONFIG_FIELDS[key]
        flag = f.metadata.get("flag", "--" + f.name.replace("_", "-"))
        if "const" in f.metadata:
            how = {"action": "store_const", "const": f.metadata["const"]}
        else:
            how = {"type": types[0], "metavar": flag[2:].replace("-", "_").upper()}
        group.add_argument(flag, dest=key, help=f.metadata["help"], **how)


def _flag_values(args: argparse.Namespace) -> dict:
    """The config keys given as flags, with their values."""
    return {key: value for key, value in vars(args).items() if key in CONFIG_FIELDS and value is not None}


def _build_config(args: argparse.Namespace) -> RunConfig:
    doc = parse_config_file(args.config) if args.config else {}
    doc.update(_flag_values(args))
    return RunConfig.from_dict(doc)


def _add_sources(parser: argparse.ArgumentParser, real_help: str | None = None, generated_help: str | None = None):
    """The real and the generated image file, each with its format flag."""
    parser.add_argument("real", help=real_help)
    parser.add_argument("generated", help=generated_help)
    parser.add_argument("--real-format", default="auto", choices=FORMATS)
    parser.add_argument("--generated-format", default="auto", choices=FORMATS)


def _load_sources(args: argparse.Namespace) -> tuple[ImageSet, ImageSet]:
    real = load_images(args.real, fmt=args.real_format, provenance="real")
    return real, load_images(args.generated, fmt=args.generated_format, provenance="generated")


def cmd_fit(args) -> int:
    config = _build_config(args)
    real, generated = _load_sources(args)
    model, record = fit_pipeline(real, generated, config)
    model.save(args.out)
    if args.ranking_csv:
        write_ranking_csv(record["ranking"], args.ranking_csv)
    print(f"representation width: {model.training['representation_width']}")
    print(f"selected features: {model.training['selected_count']}")
    print(f"train accuracy: {model.training['train_accuracy']:.4f} (threshold {config.threshold})")
    if model.ensemble.train_loss:
        print(f"final train loss: {model.ensemble.train_loss[-1]:.6f}")
    print(f"model written to {args.out}")
    for stage, seconds in record["timings"].items():
        print(f"[timing] {stage}: {seconds:.2f}s", file=sys.stderr)
    return 0


def cmd_score(args) -> int:
    model = PipelineModel.load(args.model)
    samples = load_images(args.samples, fmt=args.format)
    scores = model.score_images(samples)
    write_scores_csv(args.out, np.arange(samples.count), [samples.provenance] * samples.count, scores)
    print(f"scored {samples.count} samples -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    model = PipelineModel.load(args.model)
    config = replace(model.config, **_flag_values(args))
    config.validate()  # before any image is read
    model = replace(model, config=config)
    real, generated = _load_sources(args)

    matches = args.use != "all" and matches_training_data(model, real, generated)
    if args.use == "holdout" and not matches:
        raise LgsqeError("--use holdout requires the exact files the model was fitted on")
    use = "holdout" if matches else "all"
    if use == "holdout":
        split = holdout_split(model, real, generated)
        real_eval, gen_eval = split.test_real, split.test_generated
    else:
        real_eval, gen_eval = real, generated
    if real_eval.count == 0 or gen_eval.count == 0:
        raise LgsqeError(
            f"the evaluated set ({use}) holds {real_eval.count} real and {gen_eval.count} generated images, "
            "and needs one of each"
        )

    report = model.evaluate(
        real_eval,
        gen_eval,
        metadata={
            "evaluated_on": use,
            "eval_counts": {"real": real_eval.count, "generated": gen_eval.count},
            "fingerprints": model.training["fingerprints"],
        },
    )
    with open(args.out, "w") as fh:
        fh.write(report.to_json())
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(histogram_svg(report.histogram))
    precision = "n/a" if report.precision is None else f"{report.precision:.4f}"
    recall = "n/a" if report.recall is None else f"{report.recall:.4f}"
    print(f"evaluated on: {use} ({real_eval.count} real + {gen_eval.count} generated)")
    print(f"accuracy: {report.accuracy:.4f}  precision: {precision}  recall: {recall}")
    print(f"pr_auc: {report.pr_auc:.4f}  roc_auc: {report.roc_auc:.4f}")
    print(f"report written to {args.out}")
    return 0


def cmd_filter(args) -> int:
    check_keep_fraction(args.keep_fraction)  # before any image is read
    model = PipelineModel.load(args.model)
    samples = load_images(args.samples, fmt=args.format, provenance="generated")
    scores = model.score_images(samples)
    ids = np.arange(samples.count)
    kept = filter_samples(ids, scores, args.keep_fraction)
    save_raw_tensor(samples.subset(kept), args.out)
    write_csv(args.ids_out, ("sample_id", "score"), ((int(sid), f"{scores[sid]:.6f}") for sid in kept))
    print(f"kept {kept.size} of {samples.count} samples -> {args.out}")
    return 0


def cmd_sweep(args) -> int:
    if not args.fractions:
        raise LgsqeError("at least one real-sample fraction is required")
    config = _build_config(args)
    real, generated = _load_sources(args)
    configs = [replace(config, real_fraction=fraction) for fraction in args.fractions]
    for each in configs:  # every fraction's range and split, before the first fit
        checked_split(real, generated, each, parts=("train", "test"))
    rows = []
    for each in configs:
        model, _, report = fit_and_evaluate(real, generated, each)
        rows.append([f"{each.real_fraction:g}", model.training["train_counts"]["real"], repr(report.accuracy)])
        print(f"real_fraction={each.real_fraction:g}: test accuracy {report.accuracy:.4f}")
    write_csv(args.out, ("real_fraction", "real_train_count", "accuracy"), rows)
    print(f"sweep written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgsqe",
        description="Quality scores for generated images via a real-vs-generated classifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="train a pipeline on a real and a generated source")
    p_fit.add_argument("-o", "--out", required=True, help="output model JSON path")
    _add_sources(p_fit, "real image file (idx/cifar/lgt)", "generated image file")
    p_fit.add_argument("--ranking-csv", help="also export the feature ranking as CSV")
    _add_config_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_score = sub.add_parser("score", help="score samples with a fitted model")
    p_score.add_argument("model")
    p_score.add_argument("samples")
    p_score.add_argument("-o", "--out", required=True, help="output scores CSV path")
    p_score.add_argument("--format", default="auto", choices=FORMATS)
    p_score.set_defaults(func=cmd_score)

    p_eval = sub.add_parser("eval", help="aggregate model-level metrics on test data")
    p_eval.add_argument("model")
    p_eval.add_argument("-o", "--out", required=True, help="output report JSON path")
    _add_sources(p_eval)
    p_eval.add_argument(
        "--use",
        default="auto",
        choices=["auto", "holdout", "all"],
        help="evaluate on the recorded holdout split (when the files match training) or on all samples",
    )
    p_eval.add_argument("--svg", help="also write a histogram SVG here")
    _add_config_flags(p_eval, ["threshold", "histogram_bins"])  # override the model's config
    p_eval.set_defaults(func=cmd_eval)

    p_filter = sub.add_parser("filter", help="keep the most realistic generated samples")
    p_filter.add_argument("model")
    p_filter.add_argument("samples")
    p_filter.add_argument("-o", "--out", required=True, help="output LGT path for kept samples")
    p_filter.add_argument("--ids-out", required=True, help="output CSV of kept sample ids")
    p_filter.add_argument("--keep-fraction", type=float, required=True)
    p_filter.add_argument("--format", default="auto", choices=FORMATS)
    p_filter.set_defaults(func=cmd_filter)

    p_sweep = sub.add_parser("sweep", help="refit over a grid of real-sample fractions")
    p_sweep.add_argument("-o", "--out", required=True, help="output CSV path")
    p_sweep.add_argument("--fractions", type=float, nargs="+", required=True)
    _add_sources(p_sweep)
    _add_config_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LgsqeError, ValueError, OSError) as exc:
        print(f"lgsqe: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
