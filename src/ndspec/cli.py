"""Command-line front end.

Subcommands: ``gen`` synthesizes a correlation file, ``estimate`` runs
either estimator over a grid, ``cost`` sweeps the analytic operation
counts, ``match`` reports correlation-matching errors, and ``slice``
cuts a 2D plane out of a spectrum CSV.

Exit codes: 0 success, 2 usage, 3 numerical (not positive definite),
4 file I/O or format errors.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .baselines import capon_spectrum, correlation_match, cost_report
from .correlation import (
    SpectralComposition,
    _fmt,
    assemble,
    load_ndcorr,
    ndcorr_lines,
    synth_correlation,
)
from .errors import (
    DimensionMismatch,
    FileFormatError,
    NdspecError,
    NotPositiveDefinite,
)
from .estimator import sequential_spectrum
from .grid import SpectralGridSpec, SpectrumEstimate
from .indexing import DimSpec
from .linalg import invert_pd

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class UsageError(NdspecError):
    """Flag combination that parses but is semantically invalid."""


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"entries must be positive integers, got {text!r}")
    return values


def _peak(text: str) -> tuple[tuple[float, ...], float]:
    head, sep, tail = text.rpartition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected f0,f1,...:power, got {text!r}")
    try:
        freqs = tuple(float(tok) for tok in head.split(","))
        power = float(tail)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected f0,f1,...:power, got {text!r}")
    return freqs, power


def _plane(text: str) -> tuple[int, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected axis:f:power, got {text!r}")
    try:
        return int(parts[0]), float(parts[1]), float(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected axis:f:power, got {text!r}")


def _sweep(text: str) -> tuple[int, int, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected cmin:cmax:step, got {text!r}")
    try:
        cmin, cmax, step = (int(tok) for tok in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected cmin:cmax:step, got {text!r}")
    if cmin < 1 or cmax < cmin or step < 1:
        raise argparse.ArgumentTypeError(f"need 1 <= cmin <= cmax and step >= 1, got {text!r}")
    return cmin, cmax, step


def _fix(text: str) -> tuple[int, int]:
    parts = text.split("=")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected axis=index, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected axis=index, got {text!r}")


def _write_lines(path, lines) -> None:
    if path is None:
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def _load_spectrum_csv(path) -> SpectrumEstimate:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise FileFormatError(f"{path}: empty spectrum file")
    header = lines[0].split(",")
    if len(header) < 2 or header[-1] != "power" or header[0] != "f_0":
        raise FileFormatError(f"{path}: unexpected header {lines[0]!r}")
    d = len(header) - 1
    try:
        rows = [tuple(float(tok) for tok in ln.split(",")) for ln in lines[1:]]
    except ValueError as exc:
        raise FileFormatError(f"{path}: malformed data row") from exc
    if any(len(row) != d + 1 for row in rows):
        raise FileFormatError(f"{path}: rows do not match the header width")
    if not all(math.isfinite(v) for row in rows for v in row):
        raise FileFormatError(f"{path}: non-finite value in a data row")
    counts = []
    for axis in range(d):
        values = sorted({row[axis] for row in rows})
        count = len(values)
        if any(abs(v - m / count) > 1e-9 for m, v in enumerate(values)):
            raise FileFormatError(f"{path}: axis {axis} is not a uniform m/C grid")
        counts.append(count)
    counts = tuple(counts)
    expected = int(np.prod(counts))
    if len(rows) != expected:
        raise FileFormatError(f"{path}: expected {expected} rows, found {len(rows)}")
    power = np.zeros(counts)
    for row in rows:
        idx = tuple(int(round(row[axis] * counts[axis])) for axis in range(d))
        power[idx] = row[d]
    try:
        return SpectrumEstimate(SpectralGridSpec(counts), power)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _spectrum_lines(s: SpectrumEstimate) -> list[str]:
    d = s.grid.d
    lines = [",".join([f"f_{i}" for i in range(d)] + ["power"])]
    for idx in np.ndindex(*s.grid.counts):
        freqs = [_fmt(m / count) for m, count in zip(idx, s.grid.counts)]
        lines.append(",".join(freqs + [_fmt(s.power[idx])]))
    return lines


def _fraction_str(value) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return _fmt(float(value))


def cmd_gen(args) -> int:
    try:
        comp = SpectralComposition(
            peaks=tuple(args.peak or ()),
            planes=tuple(args.plane or ()),
            noise_var=args.noise,
        )
        # powers whose sum overflows are refused by the finite-lag check
        with np.errstate(over="ignore", invalid="ignore"):
            signal = synth_correlation(comp, args.gamma, symmetrize=args.symmetrize)
    except (ValueError, DimensionMismatch) as exc:
        raise UsageError(str(exc)) from exc
    _write_lines(args.out, ndcorr_lines(signal))
    return EXIT_OK


def cmd_estimate(args) -> int:
    signal = load_ndcorr(args.correlation)
    if len(args.grid) != signal.d:
        raise UsageError(
            f"--grid has {len(args.grid)} axes but the correlation file has {signal.d}"
        )
    if not 0 <= args.ridge < math.inf:
        raise UsageError(f"--ridge must be finite and >= 0, got {args.ridge}")
    if args.ridge > 0:
        signal = signal.with_ridge(args.ridge)
    grid = SpectralGridSpec(args.grid)
    if args.method == "sequential":
        spectrum = sequential_spectrum(signal, grid)
    else:
        spec = DimSpec(signal.gamma)
        r_inv = invert_pd(assemble(signal).entries)
        spectrum = capon_spectrum(r_inv, spec, grid)
    _write_lines(args.out, _spectrum_lines(spectrum))
    return EXIT_OK


def cmd_cost(args) -> int:
    if args.dims < 1 or args.gamma < 1:
        raise UsageError("--dims and --gamma must be >= 1")
    cmin, cmax, step = args.grid_sweep
    spec = DimSpec((args.gamma,) * args.dims)
    lines = ["C,sequential_ops,capon_ops"]
    for count in range(cmin, cmax + 1, step):
        report = cost_report(spec, SpectralGridSpec((count,) * args.dims))
        lines.append(
            f"{count},{_fraction_str(report.sequential_total)},{_fraction_str(report.capon_total)}"
        )
    _write_lines(args.out, lines)
    return EXIT_OK


def cmd_match(args) -> int:
    spectrum = _load_spectrum_csv(args.spectrum)
    signal = load_ndcorr(args.correlation)
    report = correlation_match(spectrum, signal)
    d = signal.d
    lines = [",".join([f"t_{i}" for i in range(d)]
                      + ["r_re", "r_im", "rhat_re", "rhat_im", "rel_err", "mode"])]
    for entry in report.per_lag:
        row = [str(t) for t in entry.lag]
        row += [_fmt(entry.original.real), _fmt(entry.original.imag),
                _fmt(entry.reconstructed.real), _fmt(entry.reconstructed.imag),
                _fmt(entry.error), entry.mode]
        lines.append(",".join(row))
    _write_lines(args.out, lines)
    return EXIT_OK


def cmd_slice(args) -> int:
    spectrum = _load_spectrum_csv(args.spectrum)
    d = spectrum.grid.d
    fixed = dict(args.fix or ())
    for axis, index in fixed.items():
        if not 0 <= axis < d:
            raise UsageError(f"--fix axis {axis} outside 0..{d - 1}")
        if not 0 <= index < spectrum.grid.counts[axis]:
            raise UsageError(
                f"--fix index {index} outside the {spectrum.grid.counts[axis]}-point axis {axis}"
            )
    free = [axis for axis in range(d) if axis not in fixed]
    if len(free) != 2:
        raise UsageError(f"need exactly 2 free axes after --fix, got {len(free)}")
    selector = tuple(fixed[axis] if axis in fixed else slice(None) for axis in range(d))
    plane = spectrum.power[selector]
    lines = [",".join(_fmt(v) for v in row) for row in plane]
    _write_lines(args.out, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ndspec",
        description="Sequential multidimensional spectral estimation tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="synthesize a correlation file")
    gen.add_argument("--gamma", type=_int_list, required=True,
                     help="per-dimension orders, e.g. 3,3,3")
    gen.add_argument("--peak", type=_peak, action="append",
                     help="spectral peak f0,f1,...:power (repeatable)")
    gen.add_argument("--plane", type=_plane, action="append",
                     help="spectral plane axis:f:power (repeatable)")
    gen.add_argument("--noise", type=float, default=0.0, help="white noise variance")
    gen.add_argument("--symmetrize", action="store_true",
                     help="add conjugate mirror components at -f")
    gen.add_argument("--out", help="output correlation file (default stdout)")
    gen.set_defaults(func=cmd_gen)

    est = sub.add_parser("estimate", help="estimate a spectrum from a correlation file")
    est.add_argument("correlation", help="ndcorr input file")
    est.add_argument("--grid", type=_int_list, required=True,
                     help="per-dimension grid counts, e.g. 10,10,10")
    est.add_argument("--method", choices=("sequential", "capon"), default="sequential")
    est.add_argument("--ridge", type=float, default=0.0,
                     help="diagonal loading: add ridge * c(0) at the zero lag")
    est.add_argument("--out", help="output spectrum CSV (default stdout)")
    est.set_defaults(func=cmd_estimate)

    cost = sub.add_parser("cost", help="sweep analytic operation counts")
    cost.add_argument("--gamma", type=int, required=True, help="uniform per-dimension order")
    cost.add_argument("--dims", type=int, required=True, help="dimension count")
    cost.add_argument("--grid-sweep", type=_sweep, required=True,
                      help="uniform grid sweep cmin:cmax:step")
    cost.add_argument("--out", help="output cost CSV (default stdout)")
    cost.set_defaults(func=cmd_cost)

    match = sub.add_parser("match", help="correlation-matching report for a spectrum")
    match.add_argument("spectrum", help="spectrum CSV from estimate")
    match.add_argument("correlation", help="ndcorr input file")
    match.add_argument("--out", help="output match CSV (default stdout)")
    match.set_defaults(func=cmd_match)

    slc = sub.add_parser("slice", help="cut a 2D plane out of a spectrum CSV")
    slc.add_argument("spectrum", help="spectrum CSV from estimate")
    slc.add_argument("--fix", type=_fix, action="append",
                     help="pin one axis to a grid index, axis=index (repeatable)")
    slc.add_argument("--out", help="output matrix CSV (default stdout)")
    slc.set_defaults(func=cmd_slice)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"ndspec {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotPositiveDefinite as exc:
        print(f"ndspec {args.command}: not positive definite: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FileFormatError, DimensionMismatch) as exc:
        print(f"ndspec {args.command}: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"ndspec {args.command}: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    raise SystemExit(main())
