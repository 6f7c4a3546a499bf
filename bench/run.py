"""Benchmark of ndspec: one workload, one seed, one run.

Usage, from the repository root:

    python3 bench/run.py --workload cube --seed 1 --seconds 50 --trace 0

Workloads are ``cube``, ``wide`` and ``plane`` (see ``workloads.py``).
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics from a separate traced run. The package is imported
from ``src/`` of the checkout this file sits in, never from site-packages.
BLAS runs at its default thread count; the environment record gives it.

Output: a human-readable report, then the full record as one JSON line
(save it as a BENCH_*.json), then the result as the last line:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

STARTED = time.perf_counter()  # set-up is timed from here: imports count

import argparse
import json
import sys
from pathlib import Path

import harness
import workloads


def import_ndspec(root: Path):
    """ndspec and ndspec.cli from ``root/src``; ImportError if they are not there."""
    src = root / "src"
    if not (src / "ndspec" / "__init__.py").is_file():
        raise ImportError(f"{src / 'ndspec'} not found")
    sys.path.insert(0, str(src))
    import ndspec
    import ndspec.cli

    if Path(ndspec.__file__).resolve().parent != (src / "ndspec").resolve():
        raise ImportError(f"ndspec was imported from {ndspec.__file__}, not {src}")
    return ndspec


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def report(record: dict) -> list[str]:
    """Human-readable lines: metrics with units and sample counts, the cost
    model beside the measured work, the environment and any failures."""
    lines = [f"ndspec benchmark: workload {record['workload']} ({record['size']} size), "
             f"seed {record['seed']}, {record['seconds']} s, trace {record['trace']}",
             f"  why: {record['why']}",
             f"  orders {tuple(record['gamma'])}, grid {tuple(record['counts'])}, "
             f"planted {record['planted']}",
             f"  {'metric':<36} {'value':>14} {'unit':<8} {'n':>4}  kind / note"]
    for name, m in record["metrics"].items():
        note = f"{m['kind']}" + (f"; {m['note']}" if m["note"] else "")
        lines.append(f"  {name:<36} {_fmt(m['value']):>14} {m['unit']:<8} {m['samples']:>4}  {note}")
    attempted, failed = record["attempted"], record["failed"]
    lines.append(f"  {'fail_ratio':<36} {_fmt(failed / attempted):>14} {'ratio':<8} {attempted:>4}"
                 f"  measured; {failed} failed of {attempted} attempted operations")
    metrics = record["metrics"]
    if "model_ops" in record:
        lines.append("  paper cost model (computed) beside measured times:")
        lines.append(f"    sequential {record['model_ops']['sequential']:.6g} ops"
                     f"  vs estimate_s {_fmt(metrics['estimate_s']['value'])} s (measured)")
        lines.append(f"    capon      {record['model_ops']['capon']:.6g} ops"
                     f"  vs capon_s {_fmt(metrics['capon_s']['value'])} s (measured)")
    if "model_stage_ops" in record:
        lines.append("  per stage: paper model ops (computed), congruences (computed), "
                     "block h (computed), stage s and self s (measured):")
        for t, ops in record["model_stage_ops"].items():
            stage = f"estimator.stage{t}"
            lines.append(
                f"    stage {t}: model {ops:.6g} ops, "
                f"{_fmt(metrics[stage + '_congruences']['value'])} congruences, "
                f"h {_fmt(metrics[stage + '_block']['value'])}, "
                f"{_fmt(metrics[stage + '_s']['value'])} s, "
                f"self {_fmt(metrics[stage + '_self_s']['value'])} s")
        lines.append(f"    model total {metrics['baselines.model_seq_ops']['value']:.6g} ops "
                     f"(capon {metrics['baselines.model_capon_ops']['value']:.6g})")
        if record["missing_spans"]:
            lines.append(f"  names no longer in ndspec (counted as 0): {record['missing_spans']}")
    env = record["environment"]
    lines.append(f"  environment: commit {env['git_commit']}, python {env['python']}, "
                 f"numpy {env['numpy']}, scipy {env['scipy']}, nproc {env['nproc']}, "
                 f"RAM {env['ram_gb']} GB, BLAS threads {env['blas_threads']}")
    if any(n > env["nproc"] for n in env["blas_threads"].values()):
        lines.append("  warning: BLAS thread count exceeds nproc")
    for failure in record["failures"]:
        lines.append(f"  FAILED {failure}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark one ndspec workload.")
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--toy", action="store_true",
                        help="toy-size inputs, for smoke runs")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print it (used internally)")
    args = parser.parse_args(argv)
    try:
        nd = import_ndspec(harness.ROOT)
    except ImportError as exc:
        print(f"bench: cannot import ndspec from this checkout: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps(harness.setup_only(nd, args.workload, args.seed, args.toy, STARTED)))
        return 0
    record = harness.run_benchmark(nd, args.workload, args.seed, args.seconds, bool(args.trace),
                                   toy=args.toy, started=STARTED)
    print("\n".join(report(record)))
    print(json.dumps(record))
    print(json.dumps(harness.result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
