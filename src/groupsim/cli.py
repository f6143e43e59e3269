"""Command-line front end: score, eval, modelsel, penalty-curve.

Each subcommand takes only the flags it reads, declared once with their
defaults in ``_FLAGS``.  ``--config FILE`` reads a JSON object whose keys are
the ``dest`` names of the subcommand's other flags (``sif_a`` for
``--sif-a``); its values become that subcommand's defaults, so flags win.  A
value must fit its flag: true/false for an on/off flag, a number for a float,
an integer for an int, a string otherwise, and null only where the default
is None.  Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import baselines, comparison, evaluation
from .embeddings import find_pad_token, load_embeddings, lookup_sentence, lookup_sentences

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


# every flag a subcommand may take: dest -> (option string, add_argument keywords)
_FLAGS = {
    "embeddings": ("--embeddings", {"help": "path to text embedding file"}),
    "normalize": ("--normalize", {"action": "store_true",
                                  "help": "unit-normalize stored vectors"}),
    "pad_token": ("--pad-token", {"help": "padding token (default: auto)"}),
    "method": ("--method", {"default": "diag_aic", "help": "similarity method identifier"}),
    "sif_a": ("--sif-a", {"type": float, "default": baselines.DEFAULT_SIF_A,
                          "help": "SIF smoothing parameter"}),
    "freq_file": ("--freq-file", {"help": "token frequency file for SIF"}),
    "prior_kappa0": ("--prior-kappa0", {"type": float, "default": 1.0,
                                        "help": "Normal-Wishart prior mean-precision scale "
                                                "(read only by --method bayes_factor)"}),
    "prior_nu0": ("--prior-nu0", {"type": float,
                                  "help": "Normal-Wishart prior degrees of freedom "
                                          "(read only by --method bayes_factor)"}),
    "seed": ("--seed", {"type": int, "default": 0, "help": "seed for all randomness"}),
    "out": ("--out", {"help": "output file path"}),
    "verbose": ("--verbose", {"action": "store_true", "help": "print score breakdowns"}),
    "curve_model": ("--model", {"choices": ["vmf", "diag"], "default": "diag"}),
    "dim": ("--dim", {"type": int, "default": 10}),
    "sizes": ("--sizes", {"default": "5,10,20,50,100,1000",
                          "help": "comma-separated sample sizes"}),
    "trials": ("--trials", {"type": int, "default": 20}),
}
_STORE = ("embeddings", "normalize", "pad_token")
_SCORING = (*_STORE, "method", "sif_a", "freq_file", "prior_kappa0", "prior_nu0", "seed")


def _check_scoring(args: argparse.Namespace, allow_all: bool = False) -> None:
    valid = set(evaluation.SUPPORTED_METHODS)
    if allow_all:
        valid.add("all")
    if args.method not in valid:
        raise UsageError(f"unknown method {args.method!r}; choose from {sorted(valid)}")
    if not (math.isfinite(args.sif_a) and args.sif_a > 0):
        raise UsageError(f"sif-a must be positive and finite, got {args.sif_a!r}")
    if args.seed < 0:
        raise UsageError(f"seed must be a non-negative integer, got {args.seed!r}")


def _load_store(args: argparse.Namespace):
    if not args.embeddings:
        raise UsageError("--embeddings is required")
    store = load_embeddings(args.embeddings, normalize=args.normalize)
    if args.pad_token and args.pad_token not in store:
        raise UsageError(f"pad token {args.pad_token!r} not in vocabulary")
    return store


def _options(args: argparse.Namespace, dim: int) -> evaluation.EvalOptions:
    freqs = baselines.load_frequencies(args.freq_file) if args.freq_file else None
    prior = None
    if args.method in ("bayes_factor", "all"):
        nu0 = args.prior_nu0 if args.prior_nu0 is not None else float(dim + 2)
        try:
            prior = comparison.NormalWishartPrior(dim, kappa0=args.prior_kappa0, nu0=nu0)
        except ValueError as exc:
            raise UsageError(f"bad prior: {exc}") from exc
    return evaluation.EvalOptions(
        pad_token=args.pad_token,
        sif_a=args.sif_a,
        freqs=freqs,
        prior=prior,
        seed=args.seed,
    )


def _cmd_score(args: argparse.Namespace) -> int:
    _check_scoring(args)
    store = _load_store(args)
    pad = args.pad_token or find_pad_token(store)
    a = lookup_sentence(store, args.sentence_a, pad)
    b = lookup_sentence(store, args.sentence_b, pad)
    if not (a.tokens[0] and b.tokens[0]):
        print("warning: a sentence had no in-vocabulary tokens (double padding applied)",
              file=sys.stderr)
    options = _options(args, dim=store.dim)
    score = evaluation.score_pair(args.method, a, b, store, options)
    print(f"{args.method}\t{score.value!r}")
    if args.verbose and score.breakdown is not None:
        breakdown = score.breakdown
        for key in ("loglik_joint", "loglik_1", "loglik_2",
                    "penalty_joint", "penalty_1", "penalty_2", "alpha"):
            print(f"  {key} = {getattr(breakdown, key)!r}")
        print(f"  fallback = {score.fallback}")
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    _check_scoring(args, allow_all=True)
    names = [os.path.basename(path) for path in args.datasets]  # a report row's dataset name
    for i, name in enumerate(names):
        if name in names[:i]:
            raise UsageError(f"pair files {args.datasets[names.index(name)]} and "
                             f"{args.datasets[i]} share the name {name!r}")
    store = _load_store(args)
    datasets = [evaluation.load_pairs(path) for path in args.datasets]
    options = _options(args, dim=store.dim)
    methods = list(evaluation.SUPPORTED_METHODS) if args.method == "all" else [args.method]
    reports = evaluation.evaluate_methods(methods, datasets, store, options)
    for report in reports:
        print(evaluation.format_table(report), end="\n\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.writelines(line + "\n" for r in reports for line in evaluation.report_lines(r))
    return EXIT_OK


def _cmd_modelsel(args: argparse.Namespace) -> int:
    store = _load_store(args)
    pad = args.pad_token or find_pad_token(store)
    with open(args.corpus, "r", encoding="utf-8-sig") as handle:  # drops a byte-order mark
        sentences = [line.strip() for line in handle if line.strip()]
    if not sentences:
        raise UsageError(f"{args.corpus}: empty corpus")
    block = lookup_sentences(store, sentences, pad)
    candidates = [(comparison.DIAG, "aic"), ("spherical", "aic")]
    if args.normalize:
        candidates.append((comparison.VMF, "tic"))
        candidates.append((comparison.VMF, "aic"))
    rows = comparison.corpus_model_selection(block, candidates, on_degenerate="aic")
    print(f"{'model':<12} {'ic':<5} {'mean_ic':>14}")
    for row in rows:
        print(f"{row.model:<12} {row.ic:<5} {row.mean_ic:>14.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(
                    {"model": row.model, "ic": row.ic, "mean_ic": row.mean_ic}
                ) + "\n")
    return EXIT_OK


def _cmd_penalty_curve(args: argparse.Namespace) -> int:
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
            seed=args.seed,
        )
    except ValueError as exc:  # penalty_curve checks its arguments before any work
        raise UsageError(str(exc)) from exc
    csv = comparison.penalty_curve_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
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


def build_parser():
    """The parser, and per command its subparser and the flag actions a config file may set."""
    parser = argparse.ArgumentParser(
        prog="groupsim",
        description="Similarity of embedding groups by penalised model comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def add_command(name: str, help_text: str, flags) -> argparse.ArgumentParser:
        subparser = sub.add_parser(name, help=help_text)
        subparser.add_argument("--config", help="JSON file of flag defaults (flags win)")
        commands[name] = (subparser, [
            subparser.add_argument(_FLAGS[dest][0], dest=dest, **_FLAGS[dest][1])
            for dest in flags
        ])
        return subparser

    p_score = add_command("score", "score one sentence pair", (*_SCORING, "verbose"))
    p_score.add_argument("sentence_a")
    p_score.add_argument("sentence_b")
    p_eval = add_command("eval", "evaluate on TSV pair datasets", (*_SCORING, "out"))
    p_eval.add_argument("datasets", nargs="+", help="TSV files: a<TAB>b<TAB>gold")
    p_sel = add_command("modelsel", "rank candidate models by mean criterion", (*_STORE, "out"))
    p_sel.add_argument("corpus", help="text file, one sentence per line")
    add_command("penalty-curve", "emit penalty-vs-sample-size CSV",
                ("seed", "out", "curve_model", "dim", "sizes", "trials"))
    return parser, commands


def _config_defaults(path: str, actions) -> dict:
    """The JSON object in ``path``, each key the dest of one of ``actions`` and
    each value of that flag's type, with a leading UTF-8 byte-order mark
    dropped.  A file that does not parse is a usage error; one that cannot be
    opened is a runtime error."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            values = json.load(handle)
        except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on bytes not UTF-8
            raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise UsageError(f"config file must hold a JSON object, got {json.dumps(values)}")
    by_dest = {action.dest: action for action in actions}
    unknown = set(values) - set(by_dest)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, value in values.items():
        _check_config_value(by_dest[key], value)
    return values


def _check_config_value(action: argparse.Action, value) -> None:
    """Raise UsageError unless a config value fits its flag (true/false: on/off flags only)."""
    if value is None and action.default is None:
        return
    if action.nargs == 0:  # store_true
        kind, fits = "bool", isinstance(value, bool)
    else:
        kind = action.type.__name__ if action.type else "str"
        accepted = (int, float) if action.type is float else action.type or str
        fits = isinstance(value, accepted) and not isinstance(value, bool)
    if not fits:
        raise UsageError(f"config key {action.dest!r} must be {kind}, got {json.dumps(value)}")


def main(argv=None) -> int:
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        if args.config:
            subparser, actions = commands[args.command]
            subparser.set_defaults(**_config_defaults(args.config, actions))
            args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - single CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
