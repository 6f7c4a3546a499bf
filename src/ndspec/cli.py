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
from .estimator import _unit_scale, sequential_spectrum
from .grid import SpectralGridSpec, SpectrumEstimate
from .indexing import DimSpec
from .linalg import invert_pd
from .textio import _csv_rows, _lag_prefixes, _parse_rows, _prefixes, _read_table, _write_lines

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


def _fields(form: str, sep: str, *types):
    """argparse type of ``len(types)`` fields joined by ``sep``, each
    converted by its type; ``form`` names them in the complaint."""
    def parse(text: str) -> tuple:
        parts = text.split(sep)
        try:
            if len(parts) == len(types):
                return tuple(convert(part) for convert, part in zip(types, parts))
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")
    return parse


_plane = _fields("axis:f:power", ":", int, float, float)
_fix = _fields("axis=index", "=", int, int)
_sweep_fields = _fields("cmin:cmax:step", ":", int, int, int)


def _sweep(text: str) -> tuple[int, int, int]:
    cmin, cmax, step = _sweep_fields(text)
    if cmin < 1 or cmax < cmin or step < 1:
        raise argparse.ArgumentTypeError(f"need 1 <= cmin <= cmax and step >= 1, got {text!r}")
    return cmin, cmax, step


def _load_spectrum_csv(path) -> SpectrumEstimate:
    head, rows = _read_table(path, 1)
    if not head:
        raise FileFormatError(f"{path}: empty spectrum file")
    d = head[0].count(",")
    if d < 1 or head[0] != ",".join([f"f_{i}" for i in range(d)] + ["power"]):
        raise FileFormatError(f"{path}: unexpected header {head[0]!r}")
    if not rows:
        raise FileFormatError(f"{path}: no data rows")
    table = _parse_rows(
        path, rows, np.dtype([("row", np.float64, (d + 1,))]), ",",
        lambda line: ("rows do not match the header width" if line.count(",") != d
                      else "malformed data row"),
    )["row"]
    if not np.isfinite(table).all():
        raise FileFormatError(f"{path}: non-finite value in a data row")
    counts = []
    for axis in range(d):
        values = np.unique(table[:, axis])
        count = values.size
        if np.any(np.abs(values - np.arange(count) / count) > 1e-9):
            raise FileFormatError(f"{path}: axis {axis} is not a uniform m/C grid")
        counts.append(count)
    counts = tuple(counts)
    expected = math.prod(counts)
    if len(table) != expected:
        raise FileFormatError(f"{path}: expected {expected} rows, found {len(table)}")
    cells = np.ravel_multi_index(
        tuple(np.rint(table[:, axis] * c).astype(np.intp) for axis, c in enumerate(counts)),
        counts,
    )
    listed = np.bincount(cells, minlength=expected)
    if listed.max() > 1:
        cell = np.unravel_index(int(np.argmax(listed)), counts)
        freqs = ", ".join(repr(int(m) / c) for m, c in zip(cell, counts))
        raise FileFormatError(f"{path}: the cell at ({freqs}) is listed {listed.max()} times")
    power = np.empty(expected)
    power[cells] = table[:, d]
    try:
        return SpectrumEstimate(SpectralGridSpec(counts), power.reshape(counts))
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _spectrum_lines(s: SpectrumEstimate) -> list[str]:
    prefixes = _prefixes([[repr(m / c) for m in range(c)] for c in s.grid.counts], ",")
    header = ",".join([f"f_{i}" for i in range(s.grid.d)] + ["power"])
    return [header, *map(str.__add__, prefixes, _csv_rows(s.power.reshape(-1, 1)))]


def _fraction_str(value) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return _csv_rows([[value]])[0]


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
        # on the unit-scale signal, as the sequential estimator runs: the
        # inverse of a signal near either end of the double range over- or
        # underflows
        spec = DimSpec(signal.gamma)
        spectrum = SpectrumEstimate(grid, _unit_scale(
            signal, lambda unit: invert_pd(assemble(unit).entries),
            [lambda r_inv: capon_spectrum(r_inv, spec, grid).power]))
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
    per_lag = correlation_match(spectrum, signal).per_lag
    r, rhat = per_lag.original, per_lag.reconstructed
    values = _csv_rows(np.stack([r.real, r.imag, rhat.real, rhat.imag, per_lag.error], axis=1))
    header = ",".join([f"t_{i}" for i in range(signal.d)]
                      + ["r_re", "r_im", "rhat_re", "rhat_im", "rel_err", "mode"])
    rows = map("{}{},{}".format, _lag_prefixes(signal.gamma, ","), values, per_lag.mode.tolist())
    _write_lines(args.out, [header, *rows])
    return EXIT_OK


def cmd_slice(args) -> int:
    spectrum = _load_spectrum_csv(args.spectrum)
    d = spectrum.grid.d
    fixed = {}
    for axis, index in args.fix or ():
        if axis in fixed:
            raise UsageError(f"--fix axis {axis} fixed twice")
        fixed[axis] = index
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
    _write_lines(args.out, _csv_rows(plane))
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
    except (FileFormatError, DimensionMismatch, OSError) as exc:
        print(f"ndspec {args.command}: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    raise SystemExit(main())
