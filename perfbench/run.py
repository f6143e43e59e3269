#!/usr/bin/env python3
"""groupsim benchmark: cold-load set-up, STS-style scoring and corpus fitting.

    python3 perfbench/run.py --workload sts-gauss --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all          # every workload, as a table

Run from the repository root.  Each run writes seeded synthetic inputs to a
fresh directory under ``.perfbench_tmp/``, then repeats whole passes (set-up,
compute, report) for ``--seconds`` and at least three times, each on a fresh
copy of the lexicon file so every load is a first load.  It prints one JSON
object as its last line: with ``--trace 0`` the end-to-end metrics (medians
over passes of times calibrated to a reference host speed by a probe run
between passes), with ``--trace 1`` the per-layer metrics of one traced pass
that follows untraced passes.  A failed correctness check makes
``"correct": false`` and the exit code 1; usage errors and a missing
``src/groupsim`` exit 2 without a result.

BLAS and OpenMP are pinned to one thread before numpy is imported, so every
workload runs on one thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
OUT_ROOT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

MIN_PASSES = 3
MAX_MEASURE_S = 120.0  # no new pass starts after this, so a run ends well within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _import_groupsim():
    """Import groupsim from this checkout's ``src`` and nowhere else."""
    if not (SRC / "groupsim" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'groupsim'} not found; run from a groupsim checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import groupsim

    if Path(groupsim.__file__).resolve().parent != (SRC / "groupsim").resolve():
        print(f"perfbench: imported groupsim from {groupsim.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric a ``--trace 1`` run emits."""
    import tracer
    from workloads import ALL_METHODS

    out = []
    for name in tracer.TRACED_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [
        ("embeddings.lookup_sentence.oov_ratio", "ratio"),
        ("embeddings.lookup_sentence.tokens", "count"),
        ("embeddings.lookup_sentence.double_padded", "count"),
        ("embeddings.lookup_sentence.distinct_ratio", "ratio"),
        ("embeddings.load_embeddings.rows_per_s", "1/s"),
        ("embeddings.load_embeddings.mb_per_s", "MB/s"),
        ("comparison.similarity_ic.fallback", "count"),
        ("vmf.fit_vmf.degenerate", "count"),
        ("vmf.vmf_tic_penalty.raised", "count"),
        ("gaussian.fit_gaussian.floored_dims", "count"),
        ("comparison.fits_per_op", "ratio"),
        ("comparison.ops", "count"),
    ]
    out += [(f"eval.{m}.us_per_pair", "us") for m in ALL_METHODS]
    out += [("trace.overhead_s", "s"), ("trace.untraced_run_s", "s")]
    return out


def _median(values):
    return statistics.median(values) if values else 0.0


def _context() -> dict:
    """Environment of the run; context for the numbers, not a gated metric."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = ""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle
                              if line.startswith("model name")), "")
    except OSError:
        pass
    src_lines = 0
    for path in sorted((SRC / "groupsim").glob("*.py")):
        with open(path, "rb") as handle:
            src_lines += sum(1 for _ in handle)
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "src_groupsim_lines": src_lines,
    }


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or the pinned env value."""
    import ctypes

    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS")


def _probe_step(x: float) -> float:
    return x * 0.5 + 1.0


class SpeedProbe:
    """Fixed work that uses no groupsim code, timed between passes.

    Shared hosts drift between speed states tens of percent apart for
    seconds to minutes at a time, so raw pass times move with the host while
    the program stays the same.  The probe mixes the kinds of work a pass
    does (interpreted Python, parsing numbers from text, small-array numpy,
    single-thread BLAS and streaming a few MB) and takes about 40 ms on the
    reference host.  A pass time divided by the mean of the probes before and
    after the pass, times ``REFERENCE_S``, is that pass time at the reference
    host's speed: a change to groupsim moves it, a change of host speed
    mostly does not.
    """

    # probe time on the host the benchmark was tuned on (2-vCPU KVM guest,
    # Intel Xeon); it only sets the scale of the calibrated times
    REFERENCE_S = 0.040

    def __init__(self):
        import numpy

        self.np = numpy
        self.small = numpy.linspace(-1.0, 1.0, 4800).reshape(16, 300)
        self.square = numpy.linspace(0.0, 1.0, 90000).reshape(300, 300)
        self.stream = numpy.linspace(0.0, 1.0, 1 << 19)
        self.out = numpy.empty_like(self.stream)
        self.line = " ".join(f"{v:.6f}" for v in numpy.linspace(-1.0, 1.0, 300))

    def __call__(self) -> float:
        np = self.np
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            total = sum(math.log(1.0 + i * 1e-3) for i in range(12000))
            counts: dict[int, int] = {}
            for i in range(12000):
                total += _probe_step(i)
                counts[i % 97] = counts.get(i % 97, 0) + 1
            for _ in range(100):
                total += float(np.array(self.line.split(), dtype=np.float64)[0])
            for _ in range(350):
                y = self.small - self.small.mean(axis=0)
                total += float((y * y).sum())
            for _ in range(6):
                total += float((self.square @ self.square)[0, 0])
            for _ in range(10):
                np.multiply(self.stream, 1.0001, out=self.out)
                total += float(self.out.sum())
            return perf_counter() - start
        finally:
            if enabled:
                gc.enable()


class Run:
    """One benchmark invocation on one workload."""

    def __init__(self, workload, size: str, seed: int, seconds: float, trace: bool,
                 record: bool):
        import workloads

        self.w = workloads
        self.workload = workload
        self.sizes = workload.sizes[size]
        self.size = size
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.record = record
        self.ops = workloads.ops_per_pass(workload, self.sizes)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = None
        self.details = {}
        self.probe = SpeedProbe()
        self.probe_s: list[float] = []  # one before each pass and one after the last
        if seed == workloads.REFERENCE_SEED and not record:
            self.reference = workloads.load_reference(REFERENCE, size, workload)
            if self.reference is None:
                self.problems.append(f"no reference values for {size}/{workload.name}")

    def one_pass(self, directory: Path, inputs, index: int):
        copy = directory / f"lexicon-{index}.txt"
        shutil.copyfile(inputs.lexicon, copy)  # a new file, so the load is a first load
        try:
            result = self.w.run_pass(self.workload, self.sizes, inputs, copy, self.seed,
                                     directory / "report.out")
        finally:
            copy.unlink()
        self.attempted += self.ops
        failed, problems = self.w.check_pass(self.workload, self.sizes, result.outcome,
                                             self.reference)
        self.failed += failed
        self.problems += problems
        if index == 0:
            failed, problems = self.w.spot_check_scores(self.workload, result)
            self.failed += failed
            self.problems += problems
            if self.record:
                self.w.record_reference(REFERENCE, self.size, self.workload, result.outcome)
        result.store = result.datasets = result.options = None
        return result

    def measure(self, directory: Path, inputs, seconds: float, min_passes: int) -> list:
        passes = []
        start = perf_counter()
        while len(passes) < min_passes or perf_counter() - start < seconds:
            if perf_counter() - start > MAX_MEASURE_S:
                break
            self.probe_s.append(self.probe())
            passes.append(self.one_pass(directory, inputs, len(passes)))
        self.probe_s.append(self.probe())
        return passes

    def execute(self) -> dict:
        TMP_ROOT.mkdir(exist_ok=True)
        directory = Path(tempfile.mkdtemp(prefix=f"{self.workload.name}-", dir=TMP_ROOT))
        try:
            inputs = self.w.write_inputs(self.workload, self.sizes, self.seed, directory)
            try:
                if self.trace:
                    return self._traced(directory, inputs)
                return self._end_to_end(self.measure(directory, inputs, self.seconds,
                                                     MIN_PASSES))
            except Exception:  # a crashed op aborts the run; its unfinished ops fail
                traceback.print_exc()
                self.problems.append("run aborted by an exception")
                self.attempted += self.ops
                self.failed += self.ops
                return {}
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def _end_to_end(self, passes) -> dict:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        probes = self.probe_s[-len(passes) - 1:]
        scale = [SpeedProbe.REFERENCE_S * 2.0 / (before + after)
                 for before, after in zip(probes, probes[1:])]
        self.details = {
            "wall_median": {"setup_s": _median([p.setup_s for p in passes]),
                            "ops_per_s": _median([self.ops / p.compute_s for p in passes]),
                            "run_s": _median([p.run_s for p in passes])},
            "passes": [{"setup_s": p.setup_s, "compute_s": p.compute_s, "run_s": p.run_s,
                        "speed_scale": k, **p.step_s} for p, k in zip(passes, scale)],
        }
        # Medians over passes of the times calibrated to the reference host speed.
        return {
            "setup_s": _median([p.setup_s * k for p, k in zip(passes, scale)]),
            "ops_per_s": _median([self.ops / (p.compute_s * k) for p, k in zip(passes, scale)]),
            "run_s": _median([p.run_s * k for p, k in zip(passes, scale)]),
            "peak_rss_mb": rss_kb / 1024.0,
        }

    def _traced(self, directory: Path, inputs) -> dict:
        import tracer

        untraced = self.measure(directory, inputs, self.seconds / 2.0, 2)
        trace = tracer.Tracer()
        trace.install()
        bindings = trace.bindings
        try:
            traced = self.one_pass(directory, inputs, len(untraced))
        finally:
            trace.uninstall()
        OUT_ROOT.mkdir(exist_ok=True)
        trace.write(OUT_ROOT / f"spans-{self.workload.name}.jsonl")
        if trace.nonfinite_scores:
            self.failed += trace.nonfinite_scores
            self.problems.append(f"{trace.nonfinite_scores} non-finite scores in the traced pass")

        calls, self_s = trace.self_times()
        c = trace.counters
        metrics = {}
        for name in tracer.TRACED_NAMES:
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.self_s"] = self_s[name]
        load_s = c["load.seconds"]
        fits = calls["vmf.fit_vmf"] + calls["gaussian.fit_gaussian"]
        metrics.update({
            "embeddings.lookup_sentence.oov_ratio": c["lookup.oov"] / max(c["lookup.tokens"], 1),
            "embeddings.lookup_sentence.tokens": c["lookup.tokens"],
            "embeddings.lookup_sentence.double_padded": c["lookup.double_padded"],
            "embeddings.lookup_sentence.distinct_ratio":
                len(trace.distinct_sentences) / max(calls["embeddings.lookup_sentence"], 1),
            "embeddings.load_embeddings.rows_per_s": c["load.rows"] / load_s if load_s else 0.0,
            "embeddings.load_embeddings.mb_per_s":
                c["load.bytes"] / 1e6 / load_s if load_s else 0.0,
            "comparison.similarity_ic.fallback": c["similarity_ic.fallback"],
            "vmf.fit_vmf.degenerate": c["fit_vmf.degenerate"],
            "vmf.vmf_tic_penalty.raised": c["vmf.vmf_tic_penalty.raised"],
            "gaussian.fit_gaussian.floored_dims": c["fit_gaussian.floored_dims"],
            "comparison.fits_per_op": fits / self.ops,
            "comparison.ops": self.ops,
        })
        pairs = self.sizes.pair_sets * self.sizes.pairs_per_set
        for method in self.w.ALL_METHODS:
            seconds = [p.step_s[method] for p in untraced if method in p.step_s]
            us = _median(seconds) / pairs * 1e6 if seconds else 0.0
            metrics[f"eval.{method}.us_per_pair"] = us
        base = _median([p.run_s for p in untraced])
        metrics["trace.overhead_s"] = traced.run_s - base
        metrics["trace.untraced_run_s"] = base
        self.details = {"absent": trace.absent, "bindings_wrapped": bindings}
        return metrics


def _result(run: Run, values: dict, units: list[tuple[str, str]]) -> dict:
    return {
        "correct": not run.problems and run.failed == 0 and bool(values),
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units if name in values},
    }


def run_one(args) -> int:
    from workloads import WORKLOADS

    run = Run(WORKLOADS[args.workload], args.size, args.seed, args.seconds, bool(args.trace),
              args.record_reference)
    values = run.execute()
    units = per_layer_metrics() if args.trace else list(END_TO_END)
    result = _result(run, values, units)
    for problem in dict.fromkeys(run.problems):
        print(f"check failed: {problem}", file=sys.stderr)
    probe_ms = [1e3 * s for s in run.probe_s]
    quartiles = (statistics.quantiles(probe_ms, n=4, method="inclusive")
                 if len(probe_ms) > 1 else [0.0] * 3)
    print(json.dumps({
        "workload": args.workload,
        "failed_ops_frac": result["failed"] / result["attempted"],
        "context": {**_context(),
                    "speed_probe_ms": dict(zip(("q1", "median", "q3"), quartiles))},
        **run.details,
    }))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process; prints one table of the end-to-end
    metrics and exits 1 if any check failed."""
    from workloads import WORKLOADS

    rows = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
               "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            status = 1
        if not lines:
            rows[name] = None
            continue
        result = json.loads(lines[-1])
        result["failed_ops_frac"] = result["failed"] / result["attempted"]
        rows[name] = result
        status |= 0 if result["correct"] else 1
    header = f"{'workload':<12}" + "".join(f"{m + ' [' + u + ']':>20}" for m, u in END_TO_END)
    print(header + f"{'failed_ops_frac':>17}{'correct':>9}")
    for name, result in rows.items():
        if result is None:
            print(f"{name:<12}  no result")
            continue
        cells = "".join(f"{result['metrics'].get(m, {}).get('value', float('nan')):>20.5g}"
                        for m, _ in END_TO_END)
        print(f"{name:<12}{cells}{result['failed_ops_frac']:>17.3g}{str(result['correct']):>9}")
    print(json.dumps({"correct": status == 0, "workloads": rows}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's results as the reference for its size "
                             "(seed 0 only)")
    args = parser.parse_args(argv)
    _import_groupsim()
    from workloads import REFERENCE_SEED, WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.record_reference and args.seed != REFERENCE_SEED:
        parser.error(f"--record-reference needs --seed {REFERENCE_SEED}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
