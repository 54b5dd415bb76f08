"""Command-line front end: reproducible clock runs with machine-readable output.

Subcommands
-----------
build           construct a spectrum and write the spectrum file
check-identity  completeness residual of the dial POVM for a spectrum
measure         simulate a seeded measurement run, JSON record (+ CSV histogram)
bounds          evaluate every relativistic limit for a clock configuration
sweep           CSV sweep of the bounds over one parameter

Every JSON document carries the tool version, unit mode, and the fully
resolved configuration; stochastic runs carry their seed.  Floats are printed
as their shortest round-trip ``repr`` (``0.3``, ``100.0``), so records parse
back to the same bits.  Each JSON document is the text of
``json.dump(document, sort_keys=True, indent=2)``, streamed from numpy slices
so that long records never become one string, and a document holding nan or
inf is refused before any of it is written.  The ``measure`` CSV is the text
``csv.writer`` would write, CRLF lines included.  Usage errors exit with
status 2; domain errors exit 1 after printing a structured message naming the
violated precondition (e.g. ``schwarzschild-violation``), and so does a file
that cannot be read or written, whose message names the path.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__
from .bounds import ClockBody, bound_report
from .clockstates import ClockPOVM, identity_residual, time_state
from .errors import InvalidArgument, NoEstimate, QClockError
from .measurement import outcome_probabilities, sample, with_estimate
from .spectrum import (ClockSpectrum, RationalRatio, build_equally_spaced,
                       build_rational, max_integer, rationalized_spectrum,
                       read_spectrum, write_spectrum)
from .units import resolve_constants


# --- deterministic JSON: sorted keys, two-space indent, repr floats ----------

# values per slice when an array or CSV is written: memory stays bounded by the
# slice, not by the document
_SLICE = 4096


def _check_finite(value) -> None:
    """Refuse nan and inf anywhere in a document, before any of it is written."""
    if isinstance(value, dict):
        for item in value.values():
            _check_finite(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _check_finite(item)
    elif isinstance(value, np.ndarray):
        if not np.isfinite(value).all():
            raise QClockError("non-finite result has no JSON form")
    elif isinstance(value, float) and not math.isfinite(value):
        raise QClockError(f"non-finite result has no JSON form: {value!r}")


def _write_value(value, fh, pad: str) -> None:
    inner = pad + "  "
    if isinstance(value, dict) and value:
        sep = "{\n" + inner
        for key in sorted(value):
            fh.write(f"{sep}{json.dumps(key)}: ")
            _write_value(value[key], fh, inner)
            sep = ",\n" + inner
        fh.write(f"\n{pad}}}")
    elif isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind in "if":
        sep = "[\n" + inner
        for start in range(0, value.size, _SLICE):
            fh.write(sep + (",\n" + inner).join(map(repr, value[start:start + _SLICE].tolist())))
            sep = ",\n" + inner
        fh.write(f"\n{pad}]" if value.size else "[]")
    else:
        # a JSON string never holds a raw newline, so every newline is indentation
        text = json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
        fh.write(text.replace("\n", "\n" + pad))


def _write(document: dict, fh) -> None:
    """Stream one JSON document to an open text file, refusing nan and inf.

    For dicts with str keys, the text is that of ``json.dump(document, fh,
    sort_keys=True, indent=2)`` plus a newline; 1-D integer and float numpy
    arrays are written as lists, one slice at a time.  Every value is checked before the first write, so a
    refused document leaves nothing behind.
    """
    _check_finite(document)
    _write_value(document, fh, "")
    fh.write("\n")


def _emit(document: dict, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            _write(document, fh)
    else:
        _write(document, sys.stdout)


def _document(args, config: dict, result: dict) -> dict:
    return {
        "tool": "qclock",
        "version": __version__,
        "units": args.units,
        "config": config,
        "result": result,
    }


# --- shared argument plumbing ------------------------------------------------

def _path(text: str) -> str:
    """A file path argument; open() cannot take one holding a NUL character."""
    if "\0" in text:
        raise argparse.ArgumentTypeError("a path cannot hold a NUL character")
    return text


def _add_units_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--units", choices=("si", "natural"), default="si",
                        help="unit mode (default si, CODATA 2018)")
    parser.add_argument("--constants", type=_path, metavar="FILE", default=None,
                        help="key=value constants file overriding the defaults "
                             "(or set QCLOCK_CONSTANTS)")


def _constants_for(args):
    return resolve_constants("natural" if args.units == "natural" else "SI",
                             args.constants)


def _parse_ratios(text: str) -> list[RationalRatio]:
    ratios = []
    for piece in text.split(","):
        piece = piece.strip()
        if "/" not in piece:
            raise InvalidArgument(f"ratio {piece!r} must look like C/B")
        c_text, _, b_text = piece.partition("/")
        try:
            ratios.append(RationalRatio(int(c_text), int(b_text)))
        except ValueError as exc:
            raise InvalidArgument(f"bad ratio {piece!r}") from exc
    return ratios


def _spectrum_from_args(args, consts) -> ClockSpectrum:
    if getattr(args, "spectrum", None):
        return read_spectrum(args.spectrum, consts)
    if getattr(args, "p", None) is None:
        raise InvalidArgument("provide --spectrum FILE or --p for an equally-spaced clock")
    if args.T is None:
        raise InvalidArgument("the --p route needs --T")
    return build_equally_spaced(args.p, args.T, consts)


def _spectrum_summary(spec: ClockSpectrum) -> dict:
    return {
        "kind": spec.kind.value,
        "p": spec.p,
        "T": spec.T,
        "r": list(spec.r),
        "r_max": max_integer(spec),
        "epsilon": spec.epsilon,
    }


# --- subcommands -------------------------------------------------------------

def cmd_build(args) -> int:
    consts = _constants_for(args)
    if args.kind == "equally-spaced":
        if args.p is None or args.T is None:
            raise InvalidArgument("equally-spaced build needs --p and --T")
        spec = build_equally_spaced(args.p, args.T, consts)
    elif args.kind == "rational":
        if args.e1 is None:
            raise InvalidArgument("rational build needs --e1 (and usually --ratios)")
        ratios = _parse_ratios(args.ratios) if args.ratios else []
        spec = build_rational(ratios, args.e1, consts)
    else:
        if args.levels is None or args.epsilon is None:
            raise InvalidArgument("rationalized build needs --levels and --epsilon")
        try:
            levels = [float(x) for x in args.levels.split(",")]
        except ValueError as exc:
            raise InvalidArgument(f"bad --levels {args.levels!r}") from exc
        spec = rationalized_spectrum(levels, args.epsilon, consts)
    write_spectrum(spec, args.spectrum_out)
    config = {"command": "build", "kind": args.kind, "p": args.p, "T": args.T,
              "ratios": args.ratios, "e1": args.e1, "levels": args.levels,
              "epsilon": args.epsilon, "spectrum_out": args.spectrum_out}
    _emit(_document(args, config, _spectrum_summary(spec)), args.out)
    return 0


def cmd_check_identity(args) -> int:
    consts = _constants_for(args)
    spec = read_spectrum(args.spectrum, consts)
    z = args.z if args.z is not None else max_integer(spec)
    residual = identity_residual(spec, z, args.tau0)
    result = {
        "p": spec.p,
        "z": z,
        "r_max": max_integer(spec),
        "residual": residual,
        "condition_zp1_gt_rp": bool(z + 1 > max_integer(spec)),
    }
    config = {"command": "check-identity", "spectrum": args.spectrum,
              "z": z, "tau0": args.tau0}
    _emit(_document(args, config, result), args.out)
    return 0


def _state_from_flag(text: str, spec: ClockSpectrum, povm: ClockPOVM):
    kind, _, value = text.partition(":")
    parse = {"taum": int, "energy": int, "t": float}.get(kind)
    if parse is None:
        raise InvalidArgument(f"state {text!r} must look like taum:K, energy:N, or t:F")
    try:
        number = parse(value)
    except ValueError as exc:
        raise InvalidArgument(f"bad {kind} value in state {text!r}") from exc
    if kind == "taum":
        if not 0 <= number <= povm.z:
            raise InvalidArgument(f"grid index {number} outside 0..{povm.z}")
        return time_state(spec, float(povm.tau_grid[number]))
    if kind == "energy":
        if not 0 <= number <= spec.p:
            raise InvalidArgument(f"energy index {number} outside 0..{spec.p}")
        psi = np.zeros(spec.dimension, dtype=complex)
        psi[number] = 1.0
        return psi
    return time_state(spec, number)


def _write_histogram(record, path: str) -> None:
    """The csv.writer text of rows (m, tau_m, count, count/shots), slice by slice.

    Lines end in CRLF, the csv default dialect; no number spelling needs
    quoting.  Only a few distinct counts occur, so each frequency is spelled once.
    """
    counts, taus = record.counts, record.tau_grid
    frequency = {k: repr(k / record.shots) for k in np.unique(counts).tolist()}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("m,tau_m,count,frequency\r\n")
        for start in range(0, counts.size, _SLICE):
            stop = start + _SLICE
            fh.write("".join(
                f"{m},{tau!r},{k},{frequency[k]}\r\n"
                for m, tau, k in zip(range(start, stop), taus[start:stop].tolist(),
                                     counts[start:stop].tolist())))


def cmd_measure(args) -> int:
    consts = _constants_for(args)
    spec = read_spectrum(args.spectrum, consts)
    z = args.z if args.z is not None else max_integer(spec)
    povm = ClockPOVM(spec, z, args.tau0)
    state = _state_from_flag(args.state, spec, povm)
    dist = outcome_probabilities(state, povm)
    record = sample(dist, args.shots, args.seed)
    try:
        record = with_estimate(record)
    except NoEstimate:
        pass  # uniform data, e.g. an energy eigenstate: report counts only
    result = {
        "seed": record.seed,
        "shots": record.shots,
        "counts": record.counts,
        "tau_grid": record.tau_grid,
        "estimate": record.estimate,
        "estimate_error": record.estimate_error,
    }
    # the CSV goes first, so a path that cannot be written leaves stdout empty
    if args.csv:
        _write_histogram(record, args.csv)
    config = {"command": "measure", "spectrum": args.spectrum, "z": z,
              "tau0": args.tau0, "state": args.state, "shots": args.shots,
              "seed": args.seed}
    _emit(_document(args, config, result), args.out)
    return 0


def _report_from_args(args, consts, spec: ClockSpectrum):
    z = args.z if args.z is not None else max_integer(spec)
    body = ClockBody(l_C=args.lc, m_rest=args.mrest, m=args.mass)
    return z, bound_report(body, consts, spec, z, args.theta)


def cmd_bounds(args) -> int:
    consts = _constants_for(args)
    z, report = _report_from_args(args, consts, _spectrum_from_args(args, consts))
    config = {"command": "bounds", "lc": args.lc, "mrest": args.mrest,
              "mass": args.mass, "p": args.p, "T": args.T,
              "spectrum": args.spectrum, "z": z, "theta": report.theta}
    result = {**dataclasses.asdict(report), "binding": report.binding.value}
    _emit(_document(args, config, result), args.out)
    return 0


def _parse_sweep(text: str) -> tuple[str, float, float, int]:
    pieces = text.split(":")
    if len(pieces) != 4:
        raise InvalidArgument("--sweep must look like param:min:max:steps")
    param, lo_text, hi_text, steps_text = pieces
    if param not in ("lc", "mrest", "mass", "theta", "T"):
        raise InvalidArgument(f"cannot sweep {param!r}; "
                              "choose lc, mrest, mass, theta, or T")
    try:
        lo, hi, steps = float(lo_text), float(hi_text), int(steps_text)
    except ValueError as exc:
        raise InvalidArgument(f"bad sweep range {text!r}") from exc
    if steps < 2 or not hi > lo:
        raise InvalidArgument("sweep needs max > min and steps >= 2")
    return param, lo, hi, steps


def cmd_sweep(args) -> int:
    consts = _constants_for(args)
    param, lo, hi, steps = _parse_sweep(args.sweep)
    if param == "T" and args.spectrum:
        raise InvalidArgument("sweeping T requires the --p route, not --spectrum")
    # only a T sweep changes the spectrum from step to step
    fixed = None if param == "T" else _spectrum_from_args(args, consts)
    rows = []
    for value in np.linspace(lo, hi, steps):
        step = argparse.Namespace(**{**vars(args), param: float(value)})
        spec = fixed if fixed is not None else _spectrum_from_args(step, consts)
        rows.append((float(value), _report_from_args(step, consts, spec)[1]))
    with open(args.out_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([param, "delta_tau_min", "structural_dt", "speed_limit_dt",
                         "spreading_dt", "fundamental_dt", "mass_limit", "binding"])
        writer.writerows((value, r.delta_tau_min, r.structural_dt, r.speed_limit_dt,
                          r.spreading_dt, r.fundamental_dt, r.mass_limit, r.binding.value)
                         for value, r in rows)
    config = {"command": "sweep", "sweep": args.sweep, "lc": args.lc,
              "mrest": args.mrest, "mass": args.mass, "p": args.p, "T": args.T,
              "spectrum": args.spectrum, "z": args.z, "theta": args.theta,
              "out_csv": args.out_csv}
    _emit(_document(args, config, {"rows": len(rows), "csv": args.out_csv}), args.out)
    return 0


# --- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qclock",
        description="Finite-dimensional quantum clocks: spectra, time observables, "
                    "measurements, and relativistic bounds.")
    parser.add_argument("--version", action="version", version=f"qclock {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a spectrum file")
    p_build.add_argument("--kind", choices=("equally-spaced", "rational", "rationalized"),
                         required=True)
    p_build.add_argument("--p", type=int, default=None, help="number of gaps (d = p+1)")
    p_build.add_argument("--T", type=float, default=None, help="period in s")
    p_build.add_argument("--ratios", default=None,
                         help="comma-separated C/B ratios E_n/E_1 for n = 2..p")
    p_build.add_argument("--e1", type=float, default=None, help="first gap E_1 in J")
    p_build.add_argument("--levels", default=None,
                         help="comma-separated energies starting at 0")
    p_build.add_argument("--epsilon", type=float, default=None,
                         help="rational approximation tolerance")
    p_build.add_argument("--spectrum-out", type=_path, required=True, metavar="FILE")
    p_build.add_argument("--out", type=_path, default=None,
                         help="JSON summary path (default stdout)")
    _add_units_flags(p_build)
    p_build.set_defaults(func=cmd_build)

    p_check = sub.add_parser("check-identity", help="POVM completeness residual")
    p_check.add_argument("--spectrum", type=_path, required=True, metavar="FILE")
    p_check.add_argument("--z", type=int, default=None,
                         help="z+1 time states (default r_max, i.e. z+1 = r_max+1)")
    p_check.add_argument("--tau0", type=float, default=0.0)
    p_check.add_argument("--out", type=_path, default=None)
    _add_units_flags(p_check)
    p_check.set_defaults(func=cmd_check_identity)

    p_meas = sub.add_parser("measure", help="simulate a seeded measurement run")
    p_meas.add_argument("--spectrum", type=_path, required=True, metavar="FILE")
    p_meas.add_argument("--z", type=int, default=None)
    p_meas.add_argument("--tau0", type=float, default=0.0)
    p_meas.add_argument("--state", required=True,
                        help="taum:K (grid state), energy:N, or t:F (seconds)")
    p_meas.add_argument("--shots", type=int, required=True)
    p_meas.add_argument("--seed", type=int, required=True)
    p_meas.add_argument("--out", type=_path, default=None)
    p_meas.add_argument("--csv", type=_path, default=None,
                        help="optional histogram CSV path")
    _add_units_flags(p_meas)
    p_meas.set_defaults(func=cmd_measure)

    def add_bounds_flags(sp):
        sp.add_argument("--lc", type=float, required=True, help="clock diameter in m")
        sp.add_argument("--mrest", type=float, default=0.0, help="rest mass in kg")
        sp.add_argument("--mass", type=float, default=None,
                        help="inertial mass in kg (default: mrest)")
        sp.add_argument("--p", type=int, default=None)
        sp.add_argument("--T", type=float, default=None)
        sp.add_argument("--spectrum", type=_path, default=None, metavar="FILE")
        sp.add_argument("--z", type=int, default=None)
        sp.add_argument("--theta", type=float, default=None,
                        help="operational time in s (default: T)")
        _add_units_flags(sp)

    p_bounds = sub.add_parser("bounds", help="evaluate every relativistic limit")
    add_bounds_flags(p_bounds)
    p_bounds.add_argument("--out", type=_path, default=None)
    p_bounds.set_defaults(func=cmd_bounds)

    p_sweep = sub.add_parser("sweep", help="CSV sweep of the bounds over one parameter")
    add_bounds_flags(p_sweep)
    p_sweep.add_argument("--sweep", required=True, metavar="PARAM:MIN:MAX:STEPS")
    p_sweep.add_argument("--out-csv", type=_path, required=True, metavar="FILE")
    p_sweep.add_argument("--out", type=_path, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # a spectrum, constants or output file that cannot be opened
        error = QClockError(f"cannot open {exc.filename!r}: {exc.strerror}"
                            if exc.filename else str(exc))
    except QClockError as exc:
        error = exc
    _write({"error": error.code, "message": str(error)}, sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
