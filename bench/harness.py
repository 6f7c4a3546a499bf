"""Timed and traced runs of one workload through ndspec and its CLI.

An untraced run sets up (input build, ``ndcorr`` file, toy-size warm-up),
then samples four operations, interleaved, for the measuring time:

estimate  ``sequential_spectrum`` on the workload's signal and grid;
capon     ``assemble`` + ``invert_pd`` + ``capon_spectrum``, which is what
          ``ndspec estimate --method capon`` computes;
match     ``correlation_match`` of the latest sequential spectrum;
pipeline  in-process ``ndspec.cli.main`` for estimate, match and slice on the
          ``ndcorr`` file, text I/O included.

Every call's output is checked, and an exception, a nonzero CLI exit or a
failed check counts as a failed operation without stopping the run. A
traced run wraps the package's functions where their callers look them up
(see ``install_spans``) and reports per-layer times and counts.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import warnings
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy

import workloads
from spans import Tracer, total

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OPS = ("estimate", "capon", "match", "pipeline")
# Share of the measuring time each operation gets. The host's speed swings
# by up to 1.6x for seconds at a time, so every operation's samples must
# spread over the whole run: the next operation is the one furthest behind
# its share. estimate_tail_s needs well over 2 * TAIL_BEYOND samples to be an
# upper percentile, which cube's 0.5-s estimates get (30 to 40); match
# calls are short, so a small share still gives it dozens.
SHARES = {"estimate": 0.4, "capon": 0.2, "match": 0.1, "pipeline": 0.3}
MIN_ATTEMPTS = 3
MIN_TRACED_REPS = 2
TAIL_BEYOND = 10
SETUP_CHILDREN = 4
MB = 1e6
# The CLI writes shortest round-trip decimals, so its CSV must parse back exactly
# up to the last-digit effects of a different BLAS call order.
PARSE_REL_TOL = 1e-12
MAX_STAGES = 3
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def definitions() -> dict:
    """The metric names and units of BENCHMARK.json, and the layer map."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((BENCH_DIR / "metric_map.json").read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"],
            "why": {w["name"]: w["why"] for w in spec["workloads"]},
            "layer_map": layer_map}


def _positive(power) -> str | None:
    if not (np.all(np.isfinite(power)) and np.all(power > 0.0)):
        return "power is not finite and positive everywhere"
    return None


class PeakMemory:
    """Context that records the tracemalloc peak of its body, in MB."""

    peak_mb = 0.0

    def __enter__(self):
        gc.collect()
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        self.peak_mb = tracemalloc.get_traced_memory()[1] / MB
        tracemalloc.stop()
        return False


class Run:
    """One workload's inputs, the operations on them, and the failure tally."""

    def __init__(self, nd, inputs: workloads.Inputs, workdir: Path):
        self.nd = nd
        self.inputs = inputs
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.ndcorr = workdir / f"{inputs.name}.ndcorr"
        self.tracer = None
        self.attempted = 0
        self.failures: list[str] = []
        self.spectrum = None
        self.digests = None
        self.parse_problem = None
        self.match_lags = 0
        self.csv_bytes = 0
        self.exit_nonzero = 0

    def attempt(self, label, run, check, region=None) -> float | None:
        """Time ``run`` inside ``region``, then check its output.

        Returns the seconds ``run`` took, or None when it raised. Exceptions
        and failed checks are counted as failures and the run goes on.
        """
        self.attempted += 1
        if region is None:
            region = self.tracer.span(label) if self.tracer is not None else nullcontext()
        gc.collect()
        try:
            with region:
                start = time.perf_counter()
                out = run()
                elapsed = time.perf_counter() - start
            problem = check(out)
        except Exception as exc:  # a library failure is a counted outcome, not a crash
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        if problem:
            self.failures.append(f"{label}: {problem}")
        return elapsed

    def estimate(self, region=None):
        nd, inp = self.nd, self.inputs

        def check(spectrum):
            self.spectrum = spectrum
            return _positive(spectrum.power) or inp.check(spectrum.power)

        return self.attempt("estimate", lambda: nd.sequential_spectrum(inp.signal, inp.grid),
                            check, region)

    def capon(self, region=None):
        nd, inp = self.nd, self.inputs

        def run():
            r_inv = nd.invert_pd(nd.assemble(inp.signal).entries)
            return nd.capon_spectrum(r_inv, nd.DimSpec(inp.signal.gamma), inp.grid)

        return self.attempt("capon", run, lambda s: _positive(s.power), region)

    def match(self):
        nd, inp = self.nd, self.inputs
        reference = self.spectrum

        def run():
            if reference is None:
                raise RuntimeError("no sequential spectrum to match")
            with warnings.catch_warnings():
                # expected where the grid is coarser than the lag box (wide)
                warnings.simplefilter("ignore", nd.AliasingWarning)
                return nd.correlation_match(reference, inp.signal)

        def check(report):
            self.match_lags = len(report.per_lag)
            if self.match_lags != inp.signal.lags.size:
                return f"{self.match_lags} lags reported, expected {inp.signal.lags.size}"
            if not all(math.isfinite(entry.error) for entry in report.per_lag):
                return "non-finite matching error"
            return None

        return self.attempt("match", run, check)

    def pipeline(self):
        nd, inp = self.nd, self.inputs
        paths = [self.workdir / name for name in ("estimate.csv", "match.csv", "slice.csv")]
        grid = ",".join(str(c) for c in inp.grid.counts)
        commands = [
            ["estimate", str(self.ndcorr), "--grid", grid, "--out", str(paths[0])],
            ["match", str(paths[0]), str(self.ndcorr), "--out", str(paths[1])],
            ["slice", str(paths[0]), *inp.slice_fix, "--out", str(paths[2])],
        ]

        def run():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", nd.AliasingWarning)
                return [nd.cli.main(cmd) for cmd in commands]

        def check(codes):
            self.exit_nonzero = sum(code != 0 for code in codes)
            if self.exit_nonzero:
                return f"CLI exit codes {codes}"
            self.csv_bytes = sum(p.stat().st_size for p in paths)
            digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]
            if self.digests is None:
                self.digests = digests
                self.parse_problem = self._parse_back(paths[0])
            elif digests != self.digests:
                return "CLI outputs differ from the first repetition's bytes"
            return self.parse_problem

        return self.attempt("pipeline", run, check)

    def _parse_back(self, path: Path) -> str | None:
        if self.spectrum is None:
            return "no library spectrum to compare the estimate CSV with"
        counts = self.inputs.grid.counts
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if table.shape != (math.prod(counts), len(counts) + 1):
            return f"estimate CSV has shape {table.shape}"
        index = tuple(np.rint(table[:, axis] * c).astype(int) for axis, c in enumerate(counts))
        power = np.zeros(counts)
        power[index] = table[:, -1]
        reference = self.spectrum.power
        err = float(np.max(np.abs(power - reference) / reference))
        if not err <= PARSE_REL_TOL:
            return f"estimate CSV differs from the library spectrum by {err:.3e}"
        return None

    def cycle(self):
        """One attempt of each operation, in order."""
        self.estimate()
        self.capon()
        self.match()
        self.pipeline()


def setup(nd, workload: str, seed: int, workdir: Path, toy: bool, tracer=None) -> Run:
    """Build the inputs and the ndcorr file, then warm up at toy size.

    The warm-up runs every operation once on the workload's toy-size inputs,
    so lazy imports, BLAS thread start and first-call costs are paid before
    timing; its outcomes count toward the failure tally.
    """
    region = tracer.span("setup") if tracer is not None else nullcontext()
    if tracer is not None:
        install_spans(tracer, nd)
    try:
        with region:
            run = Run(nd, workloads.build(nd, workload, seed, toy), workdir)
            nd.save_ndcorr(run.inputs.signal, run.ndcorr)
    finally:
        if tracer is not None:
            tracer.uninstall()
    warm = Run(nd, workloads.build(nd, workload, seed, toy=True), workdir / "warmup")
    nd.save_ndcorr(warm.inputs.signal, warm.ndcorr)
    warm.cycle()
    run.attempted += warm.attempted
    run.failures += [f"warm-up {f}" for f in warm.failures]
    return run


def measure(run: Run, seconds: float) -> dict[str, list[float]]:
    """Collect samples of the four operations for about ``seconds``.

    A sample is one call's seconds. The next operation is the one whose
    busy time is furthest below its share (SHARES). An operation short of
    MIN_ATTEMPTS may always run; any other only when its mean duration fits
    in the time left after the attempts still owed to the short ones. So
    each operation's samples spread over the whole run, and the run ends
    close to ``seconds``.
    """
    ops = {"estimate": run.estimate, "capon": run.capon,
           "match": run.match, "pipeline": run.pipeline}
    samples = {op: [] for op in OPS}
    attempts = dict.fromkeys(OPS, 0)
    busy = dict.fromkeys(OPS, 0.0)
    start = time.perf_counter()
    while True:
        short = [op for op in OPS if attempts[op] < MIN_ATTEMPTS]
        owed = sum((MIN_ATTEMPTS - attempts[op]) * busy[op] / attempts[op]
                   for op in short if attempts[op])
        left = seconds - (time.perf_counter() - start) - owed
        pick = short + [op for op in OPS if op not in short and busy[op] / attempts[op] <= left]
        if not pick:
            return samples
        op = min(pick, key=lambda k: (busy[k] / SHARES[k], OPS.index(k)))
        began = time.perf_counter()
        elapsed = ops[op]()
        busy[op] += time.perf_counter() - began
        attempts[op] += 1
        if elapsed is not None:
            samples[op].append(elapsed)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest sample with TAIL_BEYOND samples above it.

    The percentile is the sample's rank over the sample count. With
    2 * TAIL_BEYOND samples or fewer that sample is at or below the median,
    which is no tail; the upper quartile is reported instead, which does not
    rest on the one or two slowest calls of a small sample.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n > 2 * TAIL_BEYOND:
        return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    if n < 2:
        return (ordered[0] if n else 0.0), 100.0
    return statistics.quantiles(ordered, n=4)[2], 75.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def stage_name(field, grid) -> str:
    return f"estimator.stage{field.stage}"


def stage_meta(field, grid) -> dict:
    try:
        new_axis = grid.counts[field.spec.d - field.stage]
        return {"block": field.block_size,
                "congruences": math.prod(field.counts) * new_axis}
    except (AttributeError, IndexError, TypeError):
        return {}


# (module under ndspec, "" for the package itself; attribute; span name or
# namer; optional sizes) -- wrapped where the calling module looks them up
SPAN_TARGETS = [
    ("", "synth_correlation", "correlation.synth"),
    ("", "estimate_correlation", "correlation.empirical"),
    ("", "save_ndcorr", "correlation.ndcorr_write"),
    ("", "sequential_spectrum", "estimator.sequential_spectrum"),
    ("", "assemble", "correlation.assemble"),
    ("", "invert_pd", "linalg.invert_pd"),
    ("", "capon_spectrum", "baselines.capon_spectrum"),
    ("", "correlation_match", "baselines.correlation_match"),
    ("estimator", "assemble", "correlation.assemble"),
    ("estimator", "invert_pd", "linalg.invert_pd"),
    ("estimator", "init_stage", "estimator.init_stage"),
    ("estimator", "stage_update", stage_name, stage_meta),
    ("estimator", "fourier_block_sum", "estimator.fourier_block_sum"),
    ("estimator", "sandwich", "linalg.sandwich"),
    ("cli", "load_ndcorr", "correlation.ndcorr_read"),
    ("cli", "sequential_spectrum", "estimator.sequential_spectrum"),
    ("cli", "assemble", "correlation.assemble"),
    ("cli", "invert_pd", "linalg.invert_pd"),
    ("cli", "capon_spectrum", "baselines.capon_spectrum"),
    ("cli", "correlation_match", "baselines.correlation_match"),
    ("cli", "cmd_estimate", "cli.estimate"),
    ("cli", "cmd_match", "cli.match"),
    ("cli", "cmd_slice", "cli.slice"),
]


def install_spans(tracer: Tracer, nd) -> None:
    """Wrap every SPAN_TARGETS entry that ndspec still has."""
    for sub, attr, *how in SPAN_TARGETS:
        module = getattr(nd, sub, None) if sub else nd
        if module is None:
            tracer.skip(f"{nd.__name__}.{sub}.{attr}")
        else:
            tracer.install(module, attr, *how)


def computed_values(nd, inputs: workloads.Inputs) -> dict:
    """Per-layer values computed from the input sizes, not measured."""
    gamma, grid = inputs.signal.gamma, inputs.grid
    q = math.prod(gamma)
    report = nd.cost_report(nd.DimSpec(gamma), grid)
    return {
        "correlation.q": q,
        "correlation.lags": int(inputs.signal.lags.size),
        "correlation.matrix_mb": 16 * q * q / MB,
        # zpotrf + zpotri: 4 q^3 real flops, whatever the implementation does
        "linalg.inverse_gflop": 4 * q**3 / 1e9,
        "baselines.capon_steering_mb": 16 * q * grid.size / MB,
        "baselines.model_seq_ops": float(report.sequential_total),
        "baselines.model_capon_ops": float(report.capon_total),
        "model_stage_ops": {t: float(ops) for t, ops in report.per_stage},
    }


def layer_values(run: Run, totals: dict, meta: dict, gflop: float) -> dict:
    """Per-layer times and counts of one traced repetition."""
    def span(root, name, parent=None):
        return total(totals, root, name, parent)

    v = {}
    v["correlation.assemble_s"] = span("estimate", "correlation.assemble")[1]
    v["correlation.ndcorr_read_s"] = span("pipeline", "correlation.ndcorr_read")[1]
    inverse = span("estimate", "linalg.invert_pd", "estimator.sequential_spectrum")[1]
    v["linalg.inverse_s"] = inverse
    v["linalg.inverse_gflop_per_s"] = gflop / inverse if inverse > 0 else 0.0
    calls, seconds, _ = span("estimate", "linalg.invert_pd", ("estimator.stage",))
    v["linalg.invert_pd_calls"], v["linalg.invert_pd_s"] = calls, seconds
    calls, seconds, _ = span("estimate", "linalg.sandwich")
    v["linalg.sandwich_calls"], v["linalg.sandwich_s"] = calls, seconds
    v["estimator.init_stage_s"] = span("estimate", "estimator.init_stage")[1]
    for t in range(1, MAX_STAGES + 1):
        name = f"estimator.stage{t}"
        calls, seconds, own = span("estimate", name)
        sizes = meta.get(name, {}) if calls else {}
        v[f"{name}_s"], v[f"{name}_self_s"] = seconds, own
        v[f"{name}_block"] = sizes.get("block", 0)
        v[f"{name}_congruences"] = sizes.get("congruences", 0)
    calls, seconds, _ = span("estimate", "estimator.fourier_block_sum")
    v["estimator.fourier_block_sum_calls"], v["estimator.fourier_block_sum_s"] = calls, seconds
    v["baselines.capon_spectrum_s"] = span("capon", "baselines.capon_spectrum")[1]
    v["baselines.match_s"] = span("match", "baselines.correlation_match")[1]
    v["baselines.match_lags"] = run.match_lags
    for cmd in ("estimate", "match", "slice"):
        _, seconds, own = span("pipeline", f"cli.{cmd}")
        v[f"cli.{cmd}_cmd_s"] = seconds
        v[f"cli.{cmd}_self_s"] = own
    v["cli.csv_mb"] = run.csv_bytes / MB
    v["cli.exit_nonzero"] = run.exit_nonzero
    v["op.estimate_s"] = span("estimate", "estimate")[1]
    return v


def traced(nd, run: Run, tracer: Tracer, seconds: float,
           gflop: float) -> tuple[list[dict], list[float]]:
    """Traced repetitions of all four operations, each followed by one
    untraced estimate; returns the per-repetition layer values and the
    untraced estimate samples."""
    reps, plain = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        # start another repetition only if one of mean length still fits
        if len(reps) >= MIN_TRACED_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps, plain
        install_spans(tracer, nd)
        run.tracer = tracer
        try:
            run.cycle()
        finally:
            run.tracer = None
            tracer.uninstall()
        reps.append(layer_values(run, tracer.take(), tracer.meta, gflop))
        untraced = run.estimate()
        if untraced is not None:
            plain.append(untraced)


def child_setups(workload: str, seed: int, toy: bool):
    """Set-up seconds of SETUP_CHILDREN fresh interpreters, plus their failures."""
    times, attempted, failures = [], 0, []
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only", "--workload", workload,
           "--seed", str(seed)] + (["--toy"] if toy else [])
    for _ in range(SETUP_CHILDREN):
        attempted += 1
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=ROOT)
        except subprocess.TimeoutExpired:
            failures.append("set-up child did not finish within 60 s")
            continue
        try:
            child = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            failures.append(f"set-up child exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        times.append(child["setup_s"])
        attempted += child["attempted"]
        failures += child["failures"]
    return times, attempted, failures


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def blas_threads() -> dict:
    """Thread counts of the OpenBLAS builds bundled with numpy and scipy."""
    out = {}
    for package in (np, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[package.__name__] = int(fn())
                    break
    return out


def environment(seed: int) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "git_commit": git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": deps.get("blas"),
        "lapack": deps.get("lapack"),
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "nproc": nproc,
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e9, 2),
        "platform": platform.platform(),
    }


def _metric(value, unit, samples, kind, note="") -> dict:
    return {"value": value, "unit": unit, "samples": samples, "kind": kind, "note": note}


def _call_time(values, what="") -> dict:
    """Mean seconds per call over the run, with the median in the note.

    The host runs interpreter-bound code up to 1.6x slower in phases lasting
    seconds, so a run's calls fall into two clusters. Their median jumps
    between the clusters as the share of slow calls crosses one half; their
    mean moves in proportion to it, and so varies less from run to run.
    """
    mean = statistics.fmean(values) if values else 0.0
    return _metric(mean, "s", len(values), "measured",
                   f"mean{what}; median {_median(values):.6g} s")


def end_to_end(run: Run, samples: dict, setups: list[float], peaks: dict, defs: dict) -> dict:
    est = samples["estimate"]
    estimate = _call_time(est)
    tail_s, pct = tail(est)
    tail_note = f"p{pct:.1f}" + (f" (upper quartile: {2 * TAIL_BEYOND} samples or fewer)"
                                 if len(est) <= 2 * TAIL_BEYOND else "")
    values = {
        "setup_s": _metric(_median(setups), "s", len(setups), "measured",
                           "median of cold set-ups: import, inputs, warm-up"),
        "estimate_s": estimate,
        "estimate_tail_s": _metric(tail_s, "s", len(est), "measured", tail_note),
        "estimate_points_per_s": _metric(run.inputs.grid.size / estimate["value"]
                                         if estimate["value"] else 0.0,
                                         "1/s", len(est), "computed",
                                         f"{run.inputs.grid.size} grid points / estimate_s"),
        "capon_s": _call_time(samples["capon"]),
        "match_s": _call_time(samples["match"]),
        "pipeline_s": _call_time(samples["pipeline"], " of cli.main estimate + match + slice"),
        "estimate_peak_mb": _metric(peaks["estimate"], "MB", 1, "measured", "tracemalloc peak"),
        "capon_peak_mb": _metric(peaks["capon"], "MB", 1, "measured", "tracemalloc peak"),
    }
    return {m["name"]: dict(values[m["name"]], unit=m["unit"]) for m in defs["end_to_end"]}


COMPUTED = ("correlation.q", "correlation.lags", "correlation.matrix_mb", "linalg.inverse_gflop",
            "baselines.capon_steering_mb", "baselines.model_seq_ops", "baselines.model_capon_ops")


def per_layer(run: Run, setup_totals: dict, reps: list[dict], plain: list[float],
              computed: dict, defs: dict) -> dict:
    def setup_seconds(name):
        return total(setup_totals, "setup", name)[1]

    once = {"correlation.synth_s": setup_seconds("correlation.synth"),
            "correlation.empirical_s": setup_seconds("correlation.empirical"),
            "correlation.ndcorr_write_s": setup_seconds("correlation.ndcorr_write")}
    traced_estimate = _median([rep["op.estimate_s"] for rep in reps])
    out, unsteady = {}, []
    for m in defs["per_layer"]:
        name, unit = m["name"], m["unit"]
        if name in COMPUTED:
            out[name] = _metric(computed[name], unit, 1, "computed")
        elif name in once:
            out[name] = _metric(once[name], unit, 1, "measured", "set-up, one call")
        elif name == "trace.overhead_s":
            out[name] = _metric(traced_estimate - _median(plain), unit, len(plain), "measured",
                                "traced minus untraced estimate_s (medians)")
        else:
            values = [rep[name] for rep in reps]
            if unit == "count":
                kind = "computed" if name.endswith(("_block", "_congruences")) else "counted"
                if len(set(values)) > 1:
                    unsteady.append(f"{name} {values}")
                out[name] = _metric(values[0], unit, len(values), kind)
            else:
                kind = "computed/measured" if name == "linalg.inverse_gflop_per_s" else "measured"
                out[name] = _metric(_median(values), unit, len(values), kind, "median per repetition")
    run.attempted += 1  # the check that counts repeat exactly between repetitions
    if unsteady:
        run.failures.append("trace: counts differ between repetitions: " + "; ".join(unsteady))
    return out


def run_benchmark(nd, workload: str, seed: int, seconds: float, trace: bool, toy: bool = False,
                  started: float | None = None) -> dict:
    """One benchmark run; returns the full record (see ``report``)."""
    started = time.perf_counter() if started is None else started
    defs = definitions()
    workdir = ROOT / ".bench_work" / str(os.getpid())
    tracer = Tracer() if trace else None
    try:
        run = setup(nd, workload, seed, workdir, toy, tracer)
        setups = [time.perf_counter() - started]
        computed = computed_values(nd, run.inputs)
        why = defs["why"].get(workload, "not gated by BENCHMARK.json; see workloads.py")
        record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "size": "toy" if toy else "full", "why": why,
                  "gamma": list(run.inputs.signal.gamma), "counts": list(run.inputs.grid.counts),
                  "planted": run.inputs.planted, "environment": environment(seed)}
        phases = record["phase_s"] = {"setup": setups[0]}
        mark = time.perf_counter()
        if trace:
            setup_totals = tracer.take()
            reps, plain = traced(nd, run, tracer, seconds, computed["linalg.inverse_gflop"])
            phases["traced"] = time.perf_counter() - mark
            record["metrics"] = per_layer(run, setup_totals, reps, plain, computed, defs)
            record["model_stage_ops"] = computed["model_stage_ops"]
            record["missing_spans"] = tracer.missing
            record["layer_map"] = defs["layer_map"]
        else:
            times, attempted, failures = child_setups(workload, seed, toy)
            setups += times
            run.attempted += attempted
            run.failures += failures
            phases["setup_children"], mark = time.perf_counter() - mark, time.perf_counter()
            samples = measure(run, seconds)
            phases["measure"], mark = time.perf_counter() - mark, time.perf_counter()
            peaks = {}
            for op in ("estimate", "capon"):
                peak = PeakMemory()
                getattr(run, op)(region=peak)
                peaks[op] = peak.peak_mb
            phases["memory"] = time.perf_counter() - mark
            record["metrics"] = end_to_end(run, samples, setups, peaks, defs)
            record["samples"] = samples
            record["setup_samples"] = setups
            record["model_ops"] = {"sequential": computed["baselines.model_seq_ops"],
                                   "capon": computed["baselines.model_capon_ops"]}
        record["attempted"] = run.attempted
        record["failed"] = len(run.failures)
        record["failures"] = run.failures
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass  # not empty or already gone


def setup_only(nd, workload: str, seed: int, toy: bool, started: float) -> dict:
    """One timed set-up in this process, for ``child_setups``."""
    workdir = ROOT / ".bench_work" / str(os.getpid())
    try:
        run = setup(nd, workload, seed, workdir, toy)
        return {"setup_s": time.perf_counter() - started, "attempted": run.attempted,
                "failures": run.failures}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def result_line(record: dict) -> dict:
    """The last line of the output: the contract's four keys."""
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in record["metrics"].items()}}
