"""Span tracer that wraps groupsim's public functions from outside.

Nothing under ``src/`` is edited.  :meth:`Tracer.install` replaces every
module-level binding of each target function across the ``groupsim.*``
modules with one wrapper: ``from .special import bessel_ratio`` copies the
function object into ``vmf``, and that copy is what ``vmf`` calls, so both
names must point at the wrapper.  :meth:`Tracer.uninstall` puts the originals
back.  A target that no longer exists (a deleted module or function) is
reported as absent with zero calls instead of failing the run.

Each call records a span ``(name, start, end, parent)`` in memory; per-name
call counts, self time (duration minus time covered by direct child spans)
and counters read from return values and exceptions are derived at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import pkgutil
from collections import Counter
from time import perf_counter

PACKAGE = "groupsim"

TARGETS = {
    "embeddings": ("load_embeddings", "lookup_sentence"),
    "evaluation": ("load_pairs", "evaluate", "embedding_scores", "unit_rows", "spearman"),
    "comparison": (
        "similarity_ic",
        "similarity_bic",
        "bayes_factor_similarity",
        "nw_log_evidence",
        "default_prior",
        "corpus_model_selection",
        "penalty_curve",
    ),
    "vmf": ("fit_vmf", "vmf_tic_penalty"),
    "gaussian": ("fit_gaussian", "gaussian_tic_penalty"),
    "special": (
        "bessel_ratio",
        "bessel_ratio_table",
        "inv_bessel_ratio",
        "log_vmf_normalizer",
        "bessel_second_derivative_term",
        "log_multivariate_gamma",
    ),
    "hypersphere": ("to_spherical", "from_spherical"),
    "baselines": ("sif_embed", "remove_first_pc", "cosine"),
}

TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)

# functions whose return value is a similarity score (an object with .value or a float)
_SCORERS = (
    "comparison.similarity_ic",
    "comparison.similarity_bic",
    "comparison.bayes_factor_similarity",
    "baselines.cosine",
)


def _package_modules() -> list:
    package = importlib.import_module(PACKAGE)
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__):
        modules.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
    return modules


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except TypeError:  # a refactor changed the return type; not a score we can judge
        return True


def _text_argument(args, kwargs):
    if "text" in kwargs:
        return kwargs["text"]
    return args[1] if len(args) > 1 else None


class Tracer:
    """Install with :meth:`install`, run the traced work, then :meth:`uninstall`."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.counters: Counter = Counter()
        self.distinct_sentences: set[str] = set()
        self.nonfinite_scores = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = _package_modules()
        for mod_name, functions in TARGETS.items():
            try:
                home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.absent.extend(f"{mod_name}.{fn}" for fn in functions)
                continue
            for fn_name in functions:
                original = getattr(home, fn_name, None)
                if not callable(original):
                    self.absent.append(f"{mod_name}.{fn_name}")
                    continue
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @property
    def bindings(self) -> int:
        return len(self._patches)

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as raised:
                exc = raised
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                if exc is not None:
                    self.counters[name + ".raised"] += 1
                elif name in _SCORERS and not _finite(getattr(result, "value", result)):
                    self.nonfinite_scores += 1
                if observe is not None:
                    observe(args, kwargs, result, exc, span)

        return traced

    # -- counters read from return values ----------------------------------

    def _observe_embeddings_lookup_sentence(self, args, kwargs, result, exc, span):
        if exc is not None:
            return
        kept = getattr(result, "token_count_before_padding", 0)
        oov = getattr(result, "oov_count", 0)
        self.counters["lookup.tokens"] += kept + oov
        self.counters["lookup.oov"] += oov
        self.counters["lookup.double_padded"] += int(kept == 0)
        text = _text_argument(args, kwargs)
        if text is not None:
            self.distinct_sentences.add(text)

    def _observe_embeddings_load_embeddings(self, args, kwargs, result, exc, span):
        if exc is not None:
            return
        path = args[0] if args else kwargs.get("path")
        self.counters["load.rows"] += len(result)
        self.counters["load.bytes"] += os.path.getsize(path)
        self.counters["load.seconds"] += span[2] - span[1]

    def _observe_comparison_similarity_ic(self, args, kwargs, result, exc, span):
        if exc is None:
            self.counters["similarity_ic.fallback"] += int(bool(getattr(result, "fallback", False)))

    def _observe_vmf_fit_vmf(self, args, kwargs, result, exc, span):
        if exc is None:
            self.counters["fit_vmf.degenerate"] += int(bool(getattr(result, "degenerate", False)))

    def _observe_gaussian_fit_gaussian(self, args, kwargs, result, exc, span):
        if exc is None:
            self.counters["fit_gaussian.floored_dims"] += int(getattr(result, "floored_dims", 0))

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """Per-name (calls, self seconds)."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (name, start, end, _), covered in zip(self.spans, child_s):
            calls[name] += 1
            self_s[name] += end - start - covered
        return calls, self_s

    def write(self, path) -> None:
        """Dump every span as one JSON line: id, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": index, "name": name, "start": start, "end": end, "parent": parent}
                ) + "\n")

