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
``json.dump(document, sort_keys=True, indent=2)``, streamed from numpy windows
of clockstates._BLOCK (2^12) values so that long records never become one
string, and a document holding nan or inf is refused before any of it is
written.  No document holds a float array.  An integer array, and the rows of
the ``measure`` CSV, are spelled in numpy without a Python string per value:
each row is a line of NUL-padded four-byte cells, its digits gathered four at
a time from a table of the spellings of 0..9999 and its separators and tails
from tables of their own, and the window is written with every NUL removed.

The ``measure`` document is version 2 (``"schema": 2``).  It states the dial
instead of listing it: ``result.dial`` holds ``tau0``, ``T``, ``n_outcomes``
and the float64 expression of ``ClockPOVM.times`` in its operation order,
``tau_m = tau0 + m * (T / n_outcomes)``, so every ``tau_m`` is rebuilt to the
bit.  ``result.sampler`` is the id ``measurement.SAMPLER`` of the draw
behind the counts (numpy PCG64 from ``default_rng(seed)``, inverse CDF,
uniforms sorted in chunks of 2^20), and ``result.counts`` lists one count per
dial time.  Version 1 listed every dial time under ``result.tau_grid`` and had
no ``schema``.  The ``measure`` CSV has rows ``m,count,frequency``, the text
``csv.writer`` would write, CRLF lines included.  It does not list the dial
times: ``tau_m`` is rebuilt from ``result.dial``, the one place where the dial
is given.  Usage errors exit with status 2; domain errors exit 1 after
printing a structured message naming the violated precondition (e.g.
``schwarzschild-violation``), and so does a file that cannot be read or
written, whose message names the path.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys

import numpy as np

from . import __version__
from .bounds import BindingBound, ClockBody, _bound_columns, bound_report
from .clockstates import ClockPOVM, _blocks, identity_residual, time_state
from .errors import InvalidArgument, NoEstimate, QClockError, _finite
from .measurement import SAMPLER, outcome_probabilities, sample, with_estimate
from .spectrum import (_READ_CHARGE, ClockSpectrum, RationalRatio, _charge,
                       build_equally_spaced, build_rational, max_integer,
                       rationalized_spectrum, read_spectrum, write_spectrum)
from .units import resolve_constants


# --- deterministic JSON: sorted keys, two-space indent, repr floats ----------


def _check_finite(value) -> None:
    """Refuse nan and inf anywhere in a document, before any of it is written."""
    if isinstance(value, dict):
        for item in value.values():
            _check_finite(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _check_finite(item)
    elif isinstance(value, float) and not _finite(value):
        raise QClockError(f"non-finite result has no JSON form: {value!r}")


@functools.lru_cache(maxsize=None)
def _digit_cells() -> np.ndarray:
    """The spellings of 0..9999 as cells of four bytes (uint32), built on first use.

    Three tables of 10^4 cells: zero-padded ("0042") for a group of four digits
    that follows others; then for the leading group, its zeros NUL (two NULs,
    then "42") and 0 all NUL; then the same but with 0 spelled "0", for the
    units of a number below 10^4.
    """
    n = np.arange(10**4)
    digits = (n[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    # a digit is leading if its column comes before the first non-zero one
    significant = np.arange(4) >= 4 - np.searchsorted([1, 10, 100, 1000], n, side="right")[:, None]
    lead = np.where(significant, digits, 0).astype(np.uint8)
    unit = lead.copy()
    unit[0, 3] = ord("0")
    table = np.concatenate([digits, lead, unit]).view(np.uint32).ravel()
    table.setflags(write=False)  # one table, shared by every caller
    return table


def _cells(*texts: str) -> np.ndarray:
    """ASCII texts as rows of NUL-padded uint32 cells, all as wide as the longest."""
    width = -(-max(map(len, texts)) // 4) * 4
    data = b"".join(text.encode("ascii").ljust(width, b"\0") for text in texts)
    return np.frombuffer(data, dtype=np.uint32).reshape(len(texts), -1)


def _spell_rows(values: np.ndarray, before=None, after=None) -> bytes:
    """One row per integer: the before cells, its decimal spelling, the after cells.

    before and after are uint32 cells, one row for all values or one per value.
    A row is fixed-width, padded with NUL, and no spelled byte is NUL, so the
    bytes are the rows' with every NUL removed: what str spells, for all of int64.
    """
    table = _digit_cells()
    neg = values < 0
    signed = bool(neg.any())
    mag = values.astype(np.uint64)
    if signed:  # modulo 2^64, so -2^63 has the magnitude 2^63
        np.negative(mag, out=mag, where=neg)
    groups = -(-len(str(int(mag.max()))) // 4)
    n_before = 0 if before is None else before.shape[-1]
    n_after = 0 if after is None else after.shape[-1]
    rows = np.empty((values.size, n_before + signed + groups + n_after), dtype=np.uint32)
    if n_before:
        rows[:, :n_before] = before
    if signed:  # one "-" byte, the cell's other three NUL in either byte order
        rows[:, n_before] = np.where(neg, ord("-"), 0)
    # four digits at a time from the right; a group with nothing above it is
    # the leading one, spelled without zeros, and only the units spell a lone 0
    col, offset = n_before + signed + groups, 2 * 10**4
    while col > n_before + signed:
        col -= 1
        above = mag // 10**4
        index = (mag - above * 10**4).view(np.int64)
        index += (above == 0) * offset
        rows[:, col] = np.take(table, index)
        mag, offset = above, 10**4
    if n_after:
        rows[:, rows.shape[1] - n_after:] = after
    return rows.tobytes().translate(None, b"\0")


def _write_value(value, fh, pad: str) -> None:
    inner = pad + "  "
    if isinstance(value, dict) and value:
        sep = "{\n" + inner
        for key in sorted(value):
            fh.write(f"{sep}{json.dumps(key)}: ")
            _write_value(value[key], fh, inner)
            sep = ",\n" + inner
        fh.write(f"\n{pad}}}")
    elif isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind == "i":
        glue = _cells(",\n" + inner)[0]
        for start, stop in _blocks(value.size):
            text = _spell_rows(value[start:stop], before=glue).decode("ascii")
            fh.write("[" + text[1:] if start == 0 else text)  # no comma before the first
        fh.write(f"\n{pad}]" if value.size else "[]")
    else:
        # a JSON string never holds a raw newline, so every newline is indentation
        text = json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
        fh.write(text.replace("\n", "\n" + pad))


def _write(document: dict, fh) -> None:
    """Stream one JSON document to an open text file, refusing nan and inf.

    For dicts with str keys, the text is that of ``json.dump(document, fh,
    sort_keys=True, indent=2)`` plus a newline; a 1-D integer numpy array is
    written as a list, one window at a time.  Every value is checked before the
    first write, so a refused document leaves nothing behind.
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


def _spectrum_from_args(args, consts, T: float | None = None) -> ClockSpectrum:
    """The --spectrum file, or the equally spaced clock of --p and --T (or T)."""
    if getattr(args, "spectrum", None):
        return read_spectrum(args.spectrum, consts)
    if getattr(args, "p", None) is None:
        raise InvalidArgument("provide --spectrum FILE or --p for an equally-spaced clock")
    T = args.T if T is None else T
    if T is None:
        raise InvalidArgument("the --p route needs --T")
    return build_equally_spaced(args.p, T, consts)


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
        # reading the file back, _READ_CHARGE B per byte of at most 24 B a line (a
        # positive float's repr and a newline) and 64 B of header, costs more than
        # build's own peak of up to 171 B per level (tracemalloc, CODATA, p = 10^5)
        _charge(_READ_CHARGE * (24 * (args.p + 1) + 64),
                f"a spectrum file and summary of {args.p + 1} levels")
        spec = build_equally_spaced(args.p, args.T, consts)
    elif args.kind == "rational":
        if args.e1 is None:
            raise InvalidArgument("rational build needs --e1 (and usually --ratios)")
        ratios = args.ratios.split(",") if args.ratios else []
        spec = build_rational([RationalRatio.parse(text) for text in ratios], args.e1, consts)
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
        # the dial time tau_K, the bits of the record's dial formula, and no grid built
        return time_state(spec, float(povm.times(number, number + 1)[0]))
    if kind == "energy":
        if not 0 <= number <= spec.p:
            raise InvalidArgument(f"energy index {number} outside 0..{spec.p}")
        psi = np.zeros(spec.dimension, dtype=complex)
        psi[number] = 1.0
        return psi
    return time_state(spec, number)


def _write_histogram(record, path: str) -> None:
    """The csv.writer text of rows (m, count, count/shots), window by window.

    Lines end in CRLF, the csv default dialect; no number spelling needs
    quoting.  Only a few distinct counts occur, so the tail of a line, from the
    comma before the count on, is spelled once per count and gathered into the
    rows that _spell_rows spells.  A window finds its tails in a table indexed
    by count, made by bincount while it is no longer than the record (shots
    are not capped, so one bin may hold them all), else by a binary search.
    The dial times are not listed: the JSON record's result.dial states them.
    """
    counts = record.counts
    if counts.max() <= counts.size:
        seen = np.bincount(counts) > 0
        distinct, where = np.flatnonzero(seen), np.cumsum(seen) - 1
    else:
        distinct, where = np.unique(counts), None
    tails = _cells(*(f",{k},{k / record.shots!r}\r\n" for k in distinct.tolist()))
    with open(path, "wb") as fh:
        fh.write(b"m,count,frequency\r\n")
        for start, stop in _blocks(counts.size):
            part = counts[start:stop]
            index = np.searchsorted(distinct, part) if where is None else where[part]
            fh.write(_spell_rows(np.arange(start, stop), after=np.take(tails, index, axis=0)))


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
        # the dial is stated, not listed: the formula is the float64 expression
        # of ClockPOVM.times, in its operation order
        "dial": {"tau0": povm.tau_0, "T": spec.T, "n_outcomes": povm.n_outcomes,
                 "formula": "tau_m = tau0 + m * (T / n_outcomes)"},
        "sampler": SAMPLER,
        "estimate": record.estimate,
        "estimate_error": record.estimate_error,
    }
    # the CSV goes first, so a path that cannot be written leaves stdout empty
    if args.csv:
        _write_histogram(record, args.csv)
    config = {"command": "measure", "spectrum": args.spectrum, "z": z,
              "tau0": args.tau0, "state": args.state, "shots": args.shots,
              "seed": args.seed}
    _emit({**_document(args, config, result), "schema": 2}, args.out)
    return 0


def cmd_bounds(args) -> int:
    consts = _constants_for(args)
    spec = _spectrum_from_args(args, consts)
    z = args.z if args.z is not None else max_integer(spec)
    body = ClockBody(l_C=args.lc, m_rest=args.mrest, m=args.mass)
    report = bound_report(body, consts, spec, z, args.theta)
    config = {"command": "bounds", "lc": args.lc, "mrest": args.mrest,
              "mass": args.mass, "p": args.p, "T": args.T,
              "spectrum": args.spectrum, "z": z, "theta": report.theta}
    result = {**dataclasses.asdict(report), "binding": report.binding.value}
    _emit(_document(args, config, result), args.out)
    return 0


# the sweep CSV's columns between the swept value and the binding bound
_SWEEP_BOUNDS = ("delta_tau_min", "structural_dt", "speed_limit_dt", "spreading_dt",
                 "fundamental_dt", "mass_limit")


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
    if not _finite(hi - lo):  # np.linspace would warn on an infinite min, max or width
        raise InvalidArgument(f"sweep needs a finite min, max and max - min, got {text!r}")
    return param, lo, hi, steps


def cmd_sweep(args) -> int:
    consts = _constants_for(args)
    param, lo, hi, steps = _parse_sweep(args.sweep)
    if param == "T" and args.spectrum:
        raise InvalidArgument("sweeping T requires the --p route, not --spectrum")
    # per step, held until the CSV is written: the swept value, at most six
    # float64 columns of bounds and delta_x_opt (a T sweep holds the most) and
    # the binding as int8, 57 B.  tracemalloc reads 98 B per step at 4000
    # steps of a T sweep and 82 B of a theta sweep, with about 180 kB that do
    # not grow with the steps, most of it the CSV file's write buffer
    _charge(112 * steps, f"a sweep of {steps} steps")
    grid = np.linspace(lo, hi, steps)
    given = {**vars(args), param: grid}

    def label(i, message):
        return f"sweep step {i + 1} of {steps} ({param} = {grid[i].item()!r}): {message}"

    # only a T sweep changes the spectrum from step to step: the kernel builds each
    spectrum = ((grid, functools.partial(_spectrum_from_args, args, consts)) if param == "T"
                else _spectrum_from_args(args, consts))
    columns = _bound_columns(consts, spectrum, given["lc"], given["mrest"], given["mass"],
                             given["theta"], args.z, label=label)
    names = [binding.value for binding in BindingBound]
    with open(args.out_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([param, *_SWEEP_BOUNDS, "binding"])
        writer.writerows(zip(map(float, grid), *(map(float, columns[n]) for n in _SWEEP_BOUNDS),
                             (names[k] for k in columns["binding"])))  # a row at a time
    config = {"command": "sweep", "sweep": args.sweep, "lc": args.lc,
              "mrest": args.mrest, "mass": args.mass, "p": args.p, "T": args.T,
              "spectrum": args.spectrum, "z": args.z, "theta": args.theta,
              "out_csv": args.out_csv}
    _emit(_document(args, config, {"rows": steps, "csv": args.out_csv}), args.out)
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

    p_check = sub.add_parser("check-identity", help="POVM completeness residual")
    p_check.add_argument("--spectrum", type=_path, required=True, metavar="FILE")
    p_check.add_argument("--z", type=int, default=None,
                         help="z+1 time states (default r_max, i.e. z+1 = r_max+1)")
    p_check.add_argument("--tau0", type=float, default=0.0)
    p_check.add_argument("--out", type=_path, default=None)
    _add_units_flags(p_check)

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

    p_sweep = sub.add_parser("sweep", help="CSV sweep of the bounds over one parameter")
    add_bounds_flags(p_sweep)
    p_sweep.add_argument("--sweep", required=True, metavar="PARAM:MIN:MAX:STEPS")
    p_sweep.add_argument("--out-csv", type=_path, required=True, metavar="FILE")
    p_sweep.add_argument("--out", type=_path, default=None)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up at call time, so a replaced cmd_* is the one that runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except OSError as exc:  # a spectrum, constants or output file that cannot be opened
        error = QClockError(f"cannot open {exc.filename!r}: {exc.strerror}"
                            if exc.filename else str(exc))
    except QClockError as exc:
        error = exc
    _write({"error": error.code, "message": str(error)}, sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
