"""Command-line front end: score, eval, modelsel, penalty-curve.

Configuration comes from flags, optionally seeded by a JSON config file
(flags win).  Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import baselines, comparison, evaluation
from .embeddings import find_pad_token, load_embeddings, lookup_sentence

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


@dataclass
class RunConfig:
    """Validated run settings shared by the subcommands."""

    embeddings: str | None = None
    normalize: bool = False
    method: str = "diag_aic"
    pad_token: str | None = None
    sif_a: float = baselines.DEFAULT_SIF_A
    freq_file: str | None = None
    prior_kappa0: float = 1.0
    prior_nu0: float | None = None
    out: str | None = None
    seed: int = 0
    refine_kappa: bool = False

    def validate(self, allow_all: bool = False) -> None:
        valid = set(evaluation.SUPPORTED_METHODS)
        if allow_all:
            valid.add("all")
        if self.method not in valid:
            raise UsageError(
                f"unknown method {self.method!r}; choose from {sorted(valid)}"
            )
        if not (math.isfinite(self.sif_a) and self.sif_a > 0):
            raise UsageError(f"sif-a must be positive and finite, got {self.sif_a!r}")


class UsageError(Exception):
    pass


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file of flag defaults (flags win)")
    parser.add_argument("--embeddings", help="path to text embedding file")
    parser.add_argument("--normalize", action="store_true", default=None,
                        help="unit-normalize stored vectors")
    parser.add_argument("--method", help="similarity method identifier")
    parser.add_argument("--pad-token", dest="pad_token", help="padding token (default: auto)")
    parser.add_argument("--sif-a", dest="sif_a", type=float, help="SIF smoothing parameter")
    parser.add_argument("--freq-file", dest="freq_file", help="token frequency file for SIF")
    parser.add_argument("--prior-kappa0", dest="prior_kappa0", type=float,
                        help="Normal-Wishart prior mean-precision scale")
    parser.add_argument("--prior-nu0", dest="prior_nu0", type=float,
                        help="Normal-Wishart prior degrees of freedom")
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--seed", type=int, help="seed for all randomness")
    parser.add_argument("--refine-kappa", dest="refine_kappa", action="store_true",
                        default=None, help="Newton-polish the concentration estimate")
    parser.add_argument("--verbose", action="store_true", help="print score breakdowns")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupsim",
        description="Similarity of embedding groups by penalised model comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_score = sub.add_parser("score", help="score one sentence pair")
    _add_common_flags(p_score)
    p_score.add_argument("sentence_a")
    p_score.add_argument("sentence_b")

    p_eval = sub.add_parser("eval", help="evaluate on TSV pair datasets")
    _add_common_flags(p_eval)
    p_eval.add_argument("datasets", nargs="+", help="TSV files: a<TAB>b<TAB>gold")

    p_sel = sub.add_parser("modelsel", help="rank candidate models by mean criterion")
    _add_common_flags(p_sel)
    p_sel.add_argument("corpus", help="text file, one sentence per line")

    p_curve = sub.add_parser("penalty-curve", help="emit penalty-vs-sample-size CSV")
    _add_common_flags(p_curve)
    p_curve.add_argument("--model", dest="curve_model", choices=["vmf", "diag"],
                         default="diag")
    p_curve.add_argument("--dim", type=int, default=10)
    p_curve.add_argument("--sizes", default="5,10,20,50,100,1000",
                         help="comma-separated sample sizes")
    p_curve.add_argument("--trials", type=int, default=20)
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    file_values = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as handle:
            file_values = json.load(handle)
        if not isinstance(file_values, dict):
            raise UsageError(
                f"config file must hold a JSON object, got {json.dumps(file_values)}"
            )
        unknown = set(file_values) - set(vars(config))
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for field in fields(RunConfig):
            if field.name in file_values:
                _check_config_value(field, file_values[field.name])
    for key in vars(config):
        flag = getattr(args, key, None)
        if flag is not None:
            setattr(config, key, flag)
        elif key in file_values:
            setattr(config, key, file_values[key])
    return config


# JSON values each RunConfig field type accepts; JSON true/false fit bool fields only
_CONFIG_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str}


def _check_config_value(field, value) -> None:
    """Raise UsageError unless a config-file value fits the field's type (null: default None)."""
    if value is None and field.default is None:
        return
    kind = field.type.split(" | ")[0]
    if isinstance(value, bool) != (kind == "bool") or not isinstance(value, _CONFIG_TYPES[kind]):
        raise UsageError(f"config key {field.name!r} must be {kind}, got {json.dumps(value)}")


def _load_store(config: RunConfig):
    if not config.embeddings:
        raise UsageError("--embeddings is required")
    return load_embeddings(config.embeddings, normalize=config.normalize)


def _options(config: RunConfig, dim: int | None = None) -> evaluation.EvalOptions:
    freqs = baselines.load_frequencies(config.freq_file) if config.freq_file else None
    prior = None
    if dim is not None and (config.prior_nu0 is not None or config.prior_kappa0 != 1.0):
        nu0 = config.prior_nu0 if config.prior_nu0 is not None else float(dim + 2)
        try:
            prior = comparison.NormalWishartPrior(
                mu0=np.zeros(dim), kappa0=config.prior_kappa0, nu0=nu0, t0=np.eye(dim)
            )
        except ValueError as exc:
            raise UsageError(f"bad prior: {exc}") from exc
    return evaluation.EvalOptions(
        pad_token=config.pad_token,
        sif_a=config.sif_a,
        freqs=freqs,
        prior=prior,
        refine_kappa=config.refine_kappa,
        seed=config.seed,
    )


def _cmd_score(args: argparse.Namespace) -> int:
    config = _merge_config(args)
    config.validate()
    store = _load_store(config)
    pad = config.pad_token or find_pad_token(store)
    sample_a = lookup_sentence(store, args.sentence_a, pad)
    sample_b = lookup_sentence(store, args.sentence_b, pad)
    if sample_a.token_count_before_padding == 0 or sample_b.token_count_before_padding == 0:
        print("warning: a sentence had no in-vocabulary tokens (double padding applied)",
              file=sys.stderr)
    options = _options(config, dim=store.dim)
    score = evaluation.score_pair(config.method, sample_a, sample_b, store, options)
    print(f"{config.method}\t{score.value!r}")
    if args.verbose and score.breakdown is not None:
        b = score.breakdown
        for key in ("loglik_joint", "loglik_1", "loglik_2",
                    "penalty_joint", "penalty_1", "penalty_2", "alpha"):
            print(f"  {key} = {getattr(b, key)!r}")
        print(f"  fallback = {score.fallback}")
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    config = _merge_config(args)
    config.validate(allow_all=True)
    store = _load_store(config)
    datasets = [evaluation.load_pairs(path) for path in args.datasets]
    options = _options(config, dim=store.dim)
    methods = (
        list(evaluation.SUPPORTED_METHODS) if config.method == "all" else [config.method]
    )
    all_lines: list[str] = []
    for method in methods:
        report = evaluation.evaluate(method, datasets, store, options)
        print(evaluation.format_table(report))
        print()
        all_lines.extend(evaluation.report_lines(report))
    if config.out:
        with open(config.out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(all_lines) + "\n")
    return EXIT_OK


def _cmd_modelsel(args: argparse.Namespace) -> int:
    config = _merge_config(args)
    config.validate()
    store = _load_store(config)
    pad = config.pad_token or find_pad_token(store)
    with open(args.corpus, "r", encoding="utf-8") as handle:
        sentences = [line.strip() for line in handle if line.strip()]
    if not sentences:
        raise UsageError(f"{args.corpus}: empty corpus")
    corpus = [lookup_sentence(store, text, pad) for text in sentences]
    candidates = [(comparison.DIAG, "aic"), ("spherical", "aic")]
    if config.normalize:
        candidates.append((comparison.VMF, "tic"))
        candidates.append((comparison.VMF, "aic"))
    rows = comparison.corpus_model_selection(
        corpus, candidates, refine_kappa=config.refine_kappa, on_degenerate="aic"
    )
    print(f"{'model':<12} {'ic':<5} {'mean_ic':>14}")
    for row in rows:
        print(f"{row.model:<12} {row.ic:<5} {row.mean_ic:>14.4f}")
    if config.out:
        with open(config.out, "w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(
                    {"model": row.model, "ic": row.ic, "mean_ic": row.mean_ic}
                ) + "\n")
    return EXIT_OK


def _cmd_penalty_curve(args: argparse.Namespace) -> int:
    config = _merge_config(args)
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError as exc:
        raise UsageError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from exc
    try:
        rows = comparison.penalty_curve(
            model=args.curve_model,
            d=args.dim,
            sample_sizes=sizes,
            trials=args.trials,
            seed=config.seed,
        )
    except ValueError as exc:  # penalty_curve checks its arguments before any work
        raise UsageError(str(exc)) from exc
    csv = comparison.penalty_curve_csv(rows)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as handle:
            handle.write(csv)
    else:
        sys.stdout.write(csv)
    return EXIT_OK


_COMMANDS = {
    "score": _cmd_score,
    "eval": _cmd_eval,
    "modelsel": _cmd_modelsel,
    "penalty-curve": _cmd_penalty_curve,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - single CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
