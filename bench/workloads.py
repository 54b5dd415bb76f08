"""The three benchmark workloads: seeded inputs, one op each, and its checks.

Each workload has ``setup`` (spectra and input files, built from the seed),
``inputs`` (the op's arguments, drawn from the seed and the op's index, so
every op gets fresh inputs and the same seed gives the same sequence), ``op``
(the program calls that are timed) and ``check`` (the answer's correctness,
outside the timed region).  Ops reach the program through module attributes
(``clockstates.time_state``, never a name imported here), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from qclock import cli, clockstates, measurement, spectrum, units

# E_n/E_1 for n = 2..5; the LCM construction gives r = (0,462,770,1617,7458,41874).
RATIONAL_RATIOS = ((5, 3), (7, 2), (113, 7), (997, 11))
SQRT_P = 10          # levels sqrt(n), n = 0..10; eps = 1e-2 gives r_p = 16302
SQRT_EPSILON = 1e-2
SI_E1 = 1e-30        # J; the CLI runs in SI units, so its spectra are too
RESIDUAL_TOL = 1e-12
TIME_TOL = 1e-9      # as a share of the period T

# rng streams, so that warm-up, timed, memory and traced ops never share inputs
STREAM_SETUP, STREAM_WARMUP, STREAM_TIMED, STREAM_MEMORY = range(4)


@dataclass(frozen=True)
class Size:
    """Problem sizes and pass lengths; ``FULL`` is what BENCHMARK.json runs."""

    dial_z: int
    dial_shots: int
    dense_p: int
    cli_shots: int
    cli_sweep_steps: int
    rounds: int        # set-ups and subprocess launches per run; metrics take medians
    count_ops: int     # traced ops whose per-layer counts are reported


FULL = Size(dial_z=10**5, dial_shots=10**5, dense_p=255, cli_shots=10**5,
            cli_sweep_steps=100, rounds=5, count_ops=8)
TINY = Size(dial_z=10**3, dial_shots=10**3, dense_p=15, cli_shots=10**3,
            cli_sweep_steps=5, rounds=2, count_ops=2)


def rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def rational_spectrum(e1: float, consts=None):
    ratios = [spectrum.RationalRatio(c, b) for c, b in RATIONAL_RATIOS]
    return spectrum.build_rational(ratios, e1, consts)


def write_rational_file(path: str):
    """Write the SI rational spectrum that `measure` and the cold start read."""
    spec = rational_spectrum(SI_E1, units.codata2018())
    spectrum.write_spectrum(spec, path)
    return spec


class DialExact:
    """Small p, large z: the exact phase grid, outcome_probabilities and sample."""

    name = "dial-exact"

    def __init__(self, size: Size):
        self.size = size

    def setup(self, seed: int, workdir: str):
        self.spec = rational_spectrum(rng(seed, STREAM_SETUP).uniform(0.5, 2.0))

    def inputs(self, seed: int, stream: int, index: int) -> dict:
        g = rng(seed, stream, index)
        return {"t": g.uniform(0.0, self.spec.T), "seed": int(g.integers(2**63))}

    def op(self, inp: dict):
        spec, z = self.spec, self.size.dial_z
        povm = clockstates.ClockPOVM(spec, z)
        residual = clockstates.identity_residual(spec, z)
        state = clockstates.time_state(spec, inp["t"])
        dist = measurement.outcome_probabilities(state, povm)
        record = measurement.sample(dist, self.size.dial_shots, inp["seed"])
        return residual, dist, measurement.with_estimate(record)

    def check(self, inp: dict, out) -> list[str]:
        residual, dist, record = out
        bad = []
        if not residual < RESIDUAL_TOL:
            bad.append(f"identity residual {residual!r}")
        drift = abs(float(dist.probs.sum()) - 1.0)
        if not drift < RESIDUAL_TOL:
            bad.append(f"|sum P - 1| = {drift!r}")
        if int(record.counts.sum()) != self.size.dial_shots:
            bad.append("counts do not sum to shots")
        est = record.estimate
        if not (est is not None and math.isfinite(est) and 0.0 <= est < self.spec.T):
            bad.append(f"estimate {est!r} outside [0, T)")
        return bad


class DenseEqual:
    """Large p, small z: O(p^3) frame and eigen work and the overlap scan."""

    name = "dense-equal"

    def __init__(self, size: Size):
        self.size = size

    def setup(self, seed: int, workdir: str):
        T = rng(seed, STREAM_SETUP).uniform(1.0, 10.0)
        self.spec = spectrum.build_equally_spaced(self.size.dense_p, T)

    def inputs(self, seed: int, stream: int, index: int) -> dict:
        # dial offsets below one grid step keep the eigenvalues in grid order
        step = self.spec.T / self.spec.dimension
        g = rng(seed, stream, index)
        return {"tau_0": g.uniform(0.0, step), "t_0": g.uniform(0.0, self.spec.T)}

    def op(self, inp: dict):
        spec = self.spec
        return (clockstates.identity_residual(spec, spec.p, inp["tau_0"]),
                clockstates.hermitian_time_operator(spec, inp["tau_0"]).eigenvalues(),
                clockstates.first_orthogonal_time(spec),
                clockstates.continuous_identity_residual(
                    spec, 2 * spec.dimension, inp["t_0"]))

    def check(self, inp: dict, out) -> list[str]:
        residual, eigenvalues, t_orth, continuous = out
        spec, bad = self.spec, []
        for label, value in (("identity", residual), ("continuous", continuous)):
            if not value < RESIDUAL_TOL:
                bad.append(f"{label} residual {value!r}")
        step = spec.T / spec.dimension
        if t_orth is None or not abs(t_orth - step) <= TIME_TOL * spec.T:
            bad.append(f"first orthogonal time {t_orth!r}, expected {step!r}")
        grid = inp["tau_0"] + step * np.arange(spec.dimension)
        worst = float(np.abs(np.sort(eigenvalues) - grid).max())
        if not worst <= TIME_TOL * spec.T:
            bad.append(f"time-operator eigenvalues off the dial grid by {worst!r}")
        return bad


@dataclass
class SessionResult:
    codes: list
    stdout: list


class CliSession:
    """`qclock.cli.main(argv)` in-process: argparse, JSON/CSV writers, file I/O."""

    name = "cli-session"

    def __init__(self, size: Size):
        self.size = size

    def setup(self, seed: int, workdir: str):
        self.files = {key: os.path.join(workdir, name) for key, name in (
            ("rational", "rational.spec"), ("sqrt", "sqrt.spec"),
            ("build", "build.json"), ("measure", "measure.json"),
            ("hist", "measure.csv"), ("sweep", "sweep.csv"))}
        self.T_rational = write_rational_file(self.files["rational"]).T

    def inputs(self, seed: int, stream: int, index: int) -> dict:
        g = rng(seed, stream, index)
        e1 = SI_E1 * g.uniform(0.5, 2.0)
        f = self.files
        lc = repr(g.uniform(0.005, 0.05))
        mrest = repr(g.uniform(0.01, 0.1))
        body = ["--lc", lc, "--mrest", mrest, "--spectrum", f["sqrt"], "--units", "si"]
        levels = ",".join(repr(e1 * math.sqrt(n)) for n in range(SQRT_P + 1))
        return {"argv": [
            ["build", "--kind", "rationalized", "--levels", levels,
             "--epsilon", repr(SQRT_EPSILON), "--spectrum-out", f["sqrt"],
             "--out", f["build"], "--units", "si"],
            ["check-identity", "--spectrum", f["sqrt"], "--units", "si"],
            ["measure", "--spectrum", f["rational"],
             "--state", f"t:{g.uniform(0.0, self.T_rational)!r}",
             "--shots", str(self.size.cli_shots), "--seed", str(int(g.integers(2**63))),
             "--out", f["measure"], "--csv", f["hist"], "--units", "si"],
            ["bounds", *body],
            ["sweep", "--sweep", f"mass:0.1:1:{self.size.cli_sweep_steps}", *body,
             "--out-csv", f["sweep"]],
        ]}

    def op(self, inp: dict) -> SessionResult:
        codes, stdout = [], []
        for argv in inp["argv"]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            codes.append(code)
            stdout.append(buf.getvalue())
        return SessionResult(codes, stdout)

    def check(self, inp: dict, out: SessionResult) -> list[str]:
        bad = [f"{argv[0]} exited {code}" for argv, code in zip(inp["argv"], out.codes)
               if code != 0]
        if bad:
            return bad
        docs = {}
        try:
            for argv, text in zip(inp["argv"], out.stdout):
                if text:
                    docs[argv[0]] = json.loads(text)
            for command in ("build", "measure"):   # written with --out
                with open(self.files[command], encoding="utf-8") as fh:
                    docs[command] = json.load(fh)
        except (OSError, ValueError) as exc:
            return [f"unreadable JSON document: {exc}"]
        if set(docs) != {"build", "check-identity", "measure", "bounds", "sweep"}:
            bad.append(f"documents from {sorted(docs)} only")
            return bad
        residual = docs["check-identity"]["result"]["residual"]
        if not math.isfinite(residual):
            bad.append(f"check-identity residual {residual!r}")
        result = docs["measure"]["result"]
        if sum(result["counts"]) != result["shots"] or result["shots"] != self.size.cli_shots:
            bad.append("measure counts do not sum to shots")
        with open(self.files["sweep"], newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if len(rows) != 1 + self.size.cli_sweep_steps or rows[0][0] != "mass":
            bad.append(f"sweep CSV has {len(rows)} lines, expected a header and "
                       f"{self.size.cli_sweep_steps} rows")
        return bad


WORKLOADS = {cls.name: cls for cls in (DialExact, DenseEqual, CliSession)}
