import csv
import hashlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qclock
from qclock import (ClockPOVM, QClockError, cli, clockstates, codata2018, natural_units,
                    read_spectrum)
from qclock.cli import _write, main

from oracles import (bounds_naive, dial_grid, measure_csv_v1_text, measure_v1_text,
                     sweep_csv_rows)


def dumps(document):
    buf = io.StringIO()
    _write(document, buf)
    return buf.getvalue()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_equally_spaced_roundtrip(tmp_path, capsys, nat):
    spec_path = tmp_path / "eq.spec"
    code, out, _ = run_cli(capsys, "build", "--kind", "equally-spaced",
                           "--p", "5", "--T", "2.5", "--units", "natural",
                           "--spectrum-out", str(spec_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["tool"] == "qclock"
    assert doc["result"]["r"] == [0, 1, 2, 3, 4, 5]
    back = read_spectrum(str(spec_path), nat)
    assert back.r == (0, 1, 2, 3, 4, 5)
    assert abs(back.T - 2.5) <= 1e-15 * 2.5


def test_build_rational_roundtrip(tmp_path, capsys, nat):
    spec_path = tmp_path / "rat.spec"
    code, out, _ = run_cli(capsys, "build", "--kind", "rational",
                           "--ratios", "5/3,7/2", "--e1", "0.9",
                           "--units", "natural", "--spectrum-out", str(spec_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["r"] == [0, 6, 10, 21]
    back = read_spectrum(str(spec_path), nat)
    assert back.r == (0, 6, 10, 21)
    assert abs(back.T - doc["result"]["T"]) <= 1e-15 * back.T


def test_build_rationalized_roundtrip(tmp_path, capsys, nat):
    spec_path = tmp_path / "approx.spec"
    golden = (1 + math.sqrt(5)) / 2
    code, out, _ = run_cli(capsys, "build", "--kind", "rationalized",
                           "--levels", f"0,1,{golden!r}", "--epsilon", "1e-4",
                           "--units", "natural", "--spectrum-out", str(spec_path))
    assert code == 0
    doc = json.loads(out)
    back = read_spectrum(str(spec_path), nat)
    assert list(back.r) == doc["result"]["r"]
    assert back.epsilon == 1e-4


def test_check_identity_complete(tmp_path, capsys):
    spec_path = tmp_path / "eq.spec"
    run_cli(capsys, "build", "--kind", "equally-spaced", "--p", "4", "--T", "1.0",
            "--units", "natural", "--spectrum-out", str(spec_path))
    code, out, _ = run_cli(capsys, "check-identity", "--spectrum", str(spec_path),
                           "--z", "4", "--units", "natural")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["residual"] < 1e-12
    assert doc["result"]["condition_zp1_gt_rp"] is True
    assert doc["result"]["p"] == 4
    assert doc["result"]["r_max"] == 4


def test_check_identity_incomplete_counterexample(tmp_path, capsys):
    spec_path = tmp_path / "rat.spec"
    run_cli(capsys, "build", "--kind", "rational", "--ratios", "4/1", "--e1", "1.0",
            "--units", "natural", "--spectrum-out", str(spec_path))
    code, out, _ = run_cli(capsys, "check-identity", "--spectrum", str(spec_path),
                           "--z", "2", "--units", "natural")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["residual"] > 0.1
    assert doc["result"]["condition_zp1_gt_rp"] is False


def test_measure_deterministic_bytes(tmp_path, capsys):
    spec_path = tmp_path / "eq.spec"
    run_cli(capsys, "build", "--kind", "equally-spaced", "--p", "3", "--T", "1.0",
            "--units", "natural", "--spectrum-out", str(spec_path))
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        code, _, _ = run_cli(capsys, "measure", "--spectrum", str(spec_path),
                             "--units", "natural", "--state", "t:0.3",
                             "--shots", "2000", "--seed", "11",
                             "--out", str(out))
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_measure_energy_state_uniform_no_estimate(tmp_path, capsys):
    spec_path = tmp_path / "eq.spec"
    run_cli(capsys, "build", "--kind", "equally-spaced", "--p", "3", "--T", "1.0",
            "--units", "natural", "--spectrum-out", str(spec_path))
    csv_path = tmp_path / "hist.csv"
    code, out, _ = run_cli(capsys, "measure", "--spectrum", str(spec_path),
                           "--units", "natural", "--state", "energy:0",
                           "--z", "7", "--shots", "4000", "--seed", "3",
                           "--csv", str(csv_path))
    assert code == 0
    doc = json.loads(out)
    counts = doc["result"]["counts"]
    assert len(counts) == 8
    assert sum(counts) == 4000
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "m,count,frequency"
    assert len(lines) == 9


def test_measure_grid_state_concentrates(tmp_path, capsys):
    spec_path = tmp_path / "eq.spec"
    run_cli(capsys, "build", "--kind", "equally-spaced", "--p", "3", "--T", "1.0",
            "--units", "natural", "--spectrum-out", str(spec_path))
    code, out, _ = run_cli(capsys, "measure", "--spectrum", str(spec_path),
                           "--units", "natural", "--state", "taum:2",
                           "--shots", "500", "--seed", "1")
    doc = json.loads(out)
    assert doc["result"]["counts"][2] == 500
    assert doc["result"]["estimate"] == pytest.approx(0.5, abs=1e-12)


def test_bounds_json(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--lc", "8", "--mass", "0.5",
                           "--p", "4", "--T", "100", "--units", "natural")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["delta_tau_min"] == pytest.approx(math.pi, rel=1e-12)
    assert doc["result"]["binding"] == "structural"
    assert doc["config"]["theta"] == 100


def test_bounds_schwarzschild_violation_exit_code(capsys):
    code, out, err = run_cli(capsys, "bounds", "--lc", "1e-40", "--mrest", "1e20",
                             "--mass", "1.0", "--p", "4", "--T", "100")
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "schwarzschild-violation"


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["bounds", "--no-such-flag"])
    assert err.value.code == 2


def test_sweep_csv(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(capsys, "sweep", "--lc", "8", "--mass", "0.5",
                           "--p", "4", "--T", "100", "--units", "natural",
                           "--sweep", "theta:10:100:5", "--out-csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("theta,")
    assert len(lines) == 6
    assert all(line.endswith(("structural", "speed_limit", "spreading", "fundamental"))
               for line in lines[1:])


def test_sweep_rejects_unknown_param(capsys):
    code, _, err = run_cli(capsys, "sweep", "--lc", "8", "--mass", "0.5",
                           "--p", "4", "--T", "100", "--units", "natural",
                           "--sweep", "z:1:10:5", "--out-csv", "/tmp/x.csv")
    assert code == 1
    assert json.loads(err)["error"] == "invalid-argument"


def test_json_floats_are_shortest_repr():
    text = dumps({"x": math.pi, "n": 3, "flag": True, "none": None,
                  "list": [1.5, 2.25], "whole": 100.0, "zero": -0.0})
    assert text == ('{\n  "flag": true,\n  "list": [\n    1.5,\n    2.25\n  ],\n'
                    '  "n": 3,\n  "none": null,\n  "whole": 100.0,\n'
                    '  "x": 3.141592653589793,\n  "zero": -0.0\n}\n')
    parsed = json.loads(text)
    assert parsed["x"] == math.pi  # the shortest repr round-trips exactly
    assert parsed["list"] == [1.5, 2.25]
    assert type(parsed["whole"]) is float
    assert math.copysign(1.0, parsed["zero"]) == -1.0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.integers(-2**53, 2**53).map(float),
                          st.integers())))
def test_json_numbers_round_trip_bit_for_bit(values):
    def bits(xs):
        return [(type(x), x.hex() if isinstance(x, float) else x) for x in xs]

    assert bits(json.loads(dumps({"values": values}))["values"]) == bits(values)


def test_constants_file_flag(tmp_path, capsys):
    consts_path = tmp_path / "alt.txt"
    consts_path.write_text("hbar=1.0\nc=1.0\nG=1.0\n")
    spec_path = tmp_path / "eq.spec"
    code, out, _ = run_cli(capsys, "build", "--kind", "equally-spaced",
                           "--p", "2", "--T", "6.283185307179586",
                           "--constants", str(consts_path),
                           "--spectrum-out", str(spec_path))
    assert code == 0
    # hbar = 1 from the file: E_1 = 2 pi / T = 1
    spec = read_spectrum(str(spec_path), natural_units())
    assert spec.levels[1] == pytest.approx(1.0, rel=1e-15)


def build_file(tmp_path, capsys, name, *argv):
    path = tmp_path / name
    code, _, _ = run_cli(capsys, "build", *argv, "--units", "natural",
                         "--spectrum-out", str(path))
    assert code == 0
    return str(path)


@pytest.mark.parametrize("argv", [
    ["measure", "--state", "taum:abc"],
    ["measure", "--state", "energy:x"],
    ["measure", "--state", "t:nan"],
    ["measure", "--state", "t:inf"],
    ["measure", "--state", "t"],
    ["measure", "--state", "clock:\x01"],
    ["measure", "--state", "t:0.1", "--tau0", "nan"],
    ["check-identity", "--tau0", "nan"],
    ["build", "--kind", "rationalized", "--levels", "0,1,x", "--epsilon", "1e-3"],
    ["build", "--kind", "rationalized", "--levels", "0,1,nan", "--epsilon", "1e-3"],
    ["build", "--kind", "rationalized", "--levels", "0,1,inf", "--epsilon", "1e-3"],
], ids=["taum-abc", "energy-x", "t-nan", "t-inf", "t-no-value", "control-char",
        "tau0-nan", "check-tau0-nan", "levels-x", "levels-nan",
        "levels-inf"])
@pytest.mark.parametrize("kind", ["rational", "rationalized"])
def test_bad_input_exits_1_with_json_error(tmp_path, capsys, argv, kind):
    if kind == "rational":
        spec = build_file(tmp_path, capsys, "s.spec", "--kind", "rational",
                          "--ratios", "4/1", "--e1", "1.0")
    else:
        spec = build_file(tmp_path, capsys, "s.spec", "--kind", "rationalized",
                          "--levels", f"0,1,{math.sqrt(2)!r}", "--epsilon", "1e-3")
    if argv[0] == "build":
        argv = [*argv, "--spectrum-out", str(tmp_path / "out.spec")]
    else:
        argv = [*argv, "--spectrum", spec]
    if argv[0] == "measure":
        argv += ["--shots", "10", "--seed", "1"]
    code, out, err = run_cli(capsys, *argv, "--units", "natural")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "invalid-argument"


@pytest.mark.parametrize("z", [2**62, 2**70], ids=["2^62", "2^70"])
@pytest.mark.parametrize("kind", ["rational", "rationalized"])
def test_check_identity_past_2_62_caps_only_the_frame(tmp_path, capsys, kind, z):
    # an exact residual counts residues in Python ints; a rationalized one
    # builds the frame, whose int64 residues stop at z+1 = 2^62
    if kind == "rational":
        spec = build_file(tmp_path, capsys, "s.spec", "--kind", "rational",
                          "--ratios", "4/1", "--e1", "1.0")
    else:
        spec = build_file(tmp_path, capsys, "s.spec", "--kind", "rationalized",
                          "--levels", f"0,1,{math.sqrt(2)!r}", "--epsilon", "1e-3")
    code, out, err = run_cli(capsys, "check-identity", "--spectrum", spec, "--z", str(z),
                             "--units", "natural")
    if kind == "rational":
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        assert (result["z"], result["residual"]) == (z, 0.0)
    else:
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "invalid-argument"
        assert "2^62" in json.loads(err)["message"]


@pytest.mark.parametrize("argv, path, code", [
    (["check-identity", "--spectrum", "missing.spec"], "missing.spec", "qclock-error"),
    (["build", "--kind", "equally-spaced", "--p", "3", "--T", "1",
      "--spectrum-out", "nodir/x.spec"], "nodir/x.spec", "qclock-error"),
    (["bounds", "--lc", "1", "--p", "4", "--T", "100", "--constants", "missing.txt"],
     "missing.txt", "qclock-error"),
    (["measure", "--spectrum", "eq.spec", "--state", "t:0.3", "--shots", "10",
      "--seed", "1", "--csv", "nodir/h.csv"], "nodir/h.csv", "qclock-error"),
    (["check-identity", "--spectrum", "eq.spec", "--out", "nodir/x.json"], "nodir/x.json",
     "qclock-error"),
    (["check-identity", "--spectrum", "binary"], "binary", "invalid-argument"),
    (["bounds", "--lc", "1", "--p", "4", "--T", "100", "--constants", "binary"], "binary",
     "invalid-constants"),
], ids=["missing-spectrum", "spectrum-out-dir", "missing-constants", "csv-dir", "out-dir",
        "spectrum-not-utf8", "constants-not-utf8"])
def test_file_errors_exit_1_naming_the_path(tmp_path, capsys, monkeypatch, argv, path, code):
    monkeypatch.chdir(tmp_path)
    build_file(tmp_path, capsys, "eq.spec", "--kind", "equally-spaced", "--p", "3", "--T", "1")
    # an executable's header: 0x7f, "ELF", then bytes that no UTF-8 text holds
    (tmp_path / "binary").write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(0x80, 0xe0)))
    # bounds needs SI units for its constants file; the rest run in natural units
    units = [] if argv[0] == "bounds" else ["--units", "natural"]
    exit_code, out, err = run_cli(capsys, *argv, *units)
    assert exit_code == 1
    assert out == ""
    document = json.loads(err)
    assert document["error"] == code
    assert repr(path) in document["message"]


@pytest.mark.parametrize("argv", [
    *(["measure", "--spectrum", "eq.spec", "--z", z, "--state", state,
       "--shots", "10", "--seed", "1"]
      for z in (str(2**30), str(10**21)) for state in ("t:0.3", "taum:3", "energy:1")),
    ["bounds", "--p", "1703045615905294551875584", "--lc", "357.67", "--mass", "1",
     "--T", "0.001"],
    ["build", "--kind", "equally-spaced", "--p", str(2**30), "--T", "1",
     "--spectrum-out", "big.spec"],
], ids=[*(f"measure-z-{z}-{state}" for z in ("2^30", "1e21")
          for state in ("t", "taum", "energy")), "bounds-p-huge", "build-p-2^30"])
def test_sizes_past_the_dial_cap_exit_1_naming_it(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    build_file(tmp_path, capsys, "eq.spec", "--kind", "equally-spaced", "--p", "5", "--T", "1")
    code, out, err = run_cli(capsys, *argv, "--units", "natural")
    assert code == 1
    assert out == ""
    document = json.loads(err)
    # refused by the byte budget, before the spectrum or the dial is allocated
    assert document["error"] == "capacity-error"
    assert re.fullmatch(r".* needs \d+ bytes, past the budget of 4294967296 bytes",
                        document["message"])
    assert not (tmp_path / "big.spec").exists()


def test_one_parser_serves_every_call_as_a_fresh_process_would(tmp_path, capsys,
                                                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to the terminal
    calls = [
        ["bounds", "--no-such-flag"],
        ["bounds", "--lc", "8", "--mass", "0.5", "--p", "4", "--T", "100", "--units", "natural"],
        ["build", "--kind", "equally-spaced", "--p", "3", "--T", "1.0", "--units", "natural",
         "--spectrum-out", "eq.spec"],
        ["measure", "--spectrum", "eq.spec", "--state", "t:0.3"],
        ["check-identity", "--spectrum", "eq.spec", "--units", "natural"],
    ]
    in_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        in_process.append((code, *capsys.readouterr()))
    src = str(pathlib.Path(qclock.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    fresh = [subprocess.run([sys.executable, "-m", "qclock.cli", *argv], env=env,
                            capture_output=True, text=True) for argv in calls]
    assert in_process == [(run.returncode, run.stdout, run.stderr) for run in fresh]
    assert [code for code, _, _ in in_process] == [2, 0, 0, 2, 0]


def test_main_runs_the_handler_it_finds_at_call_time(capsys, monkeypatch):
    argv = ["bounds", "--lc", "8", "--mass", "0.5", "--p", "4", "--T", "100"]
    assert run_cli(capsys, *argv)[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_bounds", lambda args: seen.append(args.lc) or 0)
    assert run_cli(capsys, *argv) == (0, "", "")
    assert seen == [8.0]


def test_non_finite_result_is_an_error_not_a_json_token(capsys):
    code, out, err = run_cli(capsys, "bounds", "--lc", "1", "--mass", "1e-320",
                             "--p", "4", "--T", "100", "--units", "natural")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "qclock-error"
    with pytest.raises(QClockError):
        _write({"x": [1.0, math.nan]}, io.StringIO())


def test_json_strings_are_escaped(tmp_path, capsys):
    text = dumps({"s": 'a"b\\c\nd\x01'})
    assert json.loads(text)["s"] == 'a"b\\c\nd\x01'
    spec = build_file(tmp_path, capsys, "eq.spec", "--kind", "equally-spaced",
                      "--p", "3", "--T", "1.0")
    code, out, _ = run_cli(capsys, "measure", "--spectrum", spec, "--units", "natural",
                           "--state", "t:0.3\n", "--shots", "100", "--seed", "2")
    assert code == 0
    assert json.loads(out)["config"]["state"] == "t:0.3\n"


def test_sweep_with_a_non_finite_bound_writes_nothing(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    code, out, err = run_cli(capsys, "sweep", "--lc", "1", "--mass", "1e-320",
                             "--p", "4", "--T", "100", "--units", "natural",
                             "--sweep", "theta:10:100:3", "--out-csv", str(csv_path))
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "qclock-error"
    assert "spreading_dt" in error["message"]
    assert not csv_path.exists()


def test_measure_with_an_overflowing_estimate_writes_nothing(tmp_path, capsys):
    spec = build_file(tmp_path, capsys, "eq.spec", "--kind", "equally-spaced",
                      "--p", "3", "--T", "1.0")
    code, out, err = run_cli(capsys, "measure", "--spectrum", spec, "--units", "natural",
                             "--state", "energy:1", "--tau0", "1.7e308",
                             "--shots", "100", "--seed", "1")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "invalid-argument"


def test_measure_csv_matches_json_record(tmp_path, capsys):
    spec = build_file(tmp_path, capsys, "rat.spec", "--kind", "rational",
                      "--ratios", "5/3,7/2", "--e1", "1.0")
    json_path, csv_path = tmp_path / "m.json", tmp_path / "m.csv"
    code, _, _ = run_cli(capsys, "measure", "--spectrum", spec, "--units", "natural",
                         "--state", "t:12.3", "--shots", "1000", "--seed", "5",
                         "--out", str(json_path), "--csv", str(csv_path))
    assert code == 0
    result = json.loads(json_path.read_text())["result"]
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == ["m", "count", "frequency"]
    assert [int(row["m"]) for row in rows] == list(range(result["dial"]["n_outcomes"]))
    assert [int(row["count"]) for row in rows] == result["counts"]
    assert [float(row["frequency"]) for row in rows] == [
        count / 1000 for count in result["counts"]]


@st.composite
def built_spectra(draw):
    """build argv for a small spectrum of each kind, in natural units or CODATA."""
    units = draw(st.sampled_from(["natural", "si"]))
    energy, period = (1.0, 1.0) if units == "natural" else (1e-30, 1e-3)
    scale = draw(st.floats(0.01, 100.0))
    kind = draw(st.sampled_from(["equally-spaced", "rational", "rationalized"]))
    if kind == "equally-spaced":
        flags = ["--p", str(draw(st.integers(1, 8))), "--T", repr(scale * period)]
    elif kind == "rational":
        flags = ["--ratios", draw(st.sampled_from(["3/2", "5/3,7/2", "5/3,7/2,113/7"])),
                 "--e1", repr(scale * energy)]
    else:
        levels = [scale * energy * math.sqrt(n) for n in range(draw(st.integers(2, 4)))]
        flags = ["--levels", ",".join(map(repr, levels)), "--epsilon", "1e-2"]
    return units, ["--kind", kind, *flags]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spectrum=built_spectra(), data=st.data())
def test_the_dial_entry_rebuilds_the_grid_to_the_bit(tmp_path, capsys, spectrum, data):
    units, build_argv = spectrum
    spec_path = str(tmp_path / "s.spec")
    code, out, _ = run_cli(capsys, "build", *build_argv, "--units", units,
                           "--spectrum-out", spec_path)
    assert code == 0
    summary = json.loads(out)["result"]
    z = data.draw(st.integers(summary["p"], 10**4))
    tau0 = data.draw(st.sampled_from([-0.0, 1e6]) | st.floats(-1e6, 1e6)) * summary["T"]
    # energy:0 is uniform on every dial, complete or not
    code, out, _ = run_cli(capsys, "measure", "--spectrum", spec_path, "--units", units,
                           "--z", str(z), f"--tau0={tau0!r}", "--state", "energy:0",
                           "--shots", "1", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 2
    assert "tau_grid" not in doc["result"]
    dial = doc["result"]["dial"]
    consts = natural_units() if units == "natural" else codata2018()
    grid = ClockPOVM(read_spectrum(spec_path, consts), z, tau0).tau_grid
    assert dial_grid(dial).tobytes() == grid.tobytes()
    # the formula in Python floats, as a reader without numpy would evaluate it
    n = dial["n_outcomes"]
    assert [(dial["tau0"] + m * (dial["T"] / n)).hex() for m in range(n)] == [
        tau.hex() for tau in grid.tolist()]


@pytest.mark.parametrize("param", ["mass", "theta"])
def test_sweep_reads_its_spectrum_once(tmp_path, capsys, monkeypatch, param):
    spec = build_file(tmp_path, capsys, "rat.spec", "--kind", "rational",
                      "--ratios", "5/3,7/2", "--e1", "1e-3")
    calls = []

    def counting_read(*args, **kwargs):
        calls.append(args)
        return read_spectrum(*args, **kwargs)

    monkeypatch.setattr(cli, "read_spectrum", counting_read)
    code, _, _ = run_cli(capsys, "sweep", "--lc", "8", "--mass", "0.5",
                         "--spectrum", spec, "--units", "natural",
                         "--sweep", f"{param}:0.1:1:20", "--out-csv",
                         str(tmp_path / "sweep.csv"))
    assert code == 0
    assert len(calls) == 1
    assert len((tmp_path / "sweep.csv").read_text().strip().splitlines()) == 21


def test_sweep_over_T_rebuilds_the_spectrum(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--lc", "8", "--mass", "0.5", "--p", "4",
                         "--T", "100", "--units", "natural",
                         "--sweep", "T:100:200:3", "--out-csv", str(csv_path))
    assert code == 0
    rows = [line.split(",") for line in csv_path.read_text().strip().splitlines()[1:]]
    # the structural bound T/(p+1) follows the swept period
    assert [float(row[2]) for row in rows] == pytest.approx([20.0, 30.0, 40.0], rel=1e-15)


# sweeps of every parameter on every spectrum route: (units, spectrum route,
# body, --sweep).  theta below 4 t_p takes the mass optimizer's floor, and
# without --mass the inertial mass follows m_rest
SWEEPS = {
    "lc": ("natural", "p", {"lc": 8.0, "mrest": 0.3}, "lc:1.3:100:40"),
    "mrest": ("natural", "p", {"lc": 8.0, "mrest": 0.3}, "mrest:0.1:1.9:40"),
    "mass": ("natural", "p", {"lc": 8.0, "mrest": 0.3, "mass": 0.5}, "mass:0.1:1:40"),
    "theta": ("natural", "p", {"lc": 8.0, "mass": 0.5}, "theta:0.01:100:60"),
    "T": ("natural", "p", {"lc": 8.0, "mass": 0.5}, "T:10:1000:30"),
    "T-theta": ("natural", "p", {"lc": 8.0, "mass": 0.5, "theta": 7.5}, "T:10:1000:30"),
    "lc-rational": ("natural", "rational", {"lc": 8.0, "mrest": 0.3}, "lc:1.3:100:40"),
    "mrest-rational": ("natural", "rational", {"lc": 8.0, "mass": 0.5}, "mrest:0:1.9:40"),
    "theta-rational": ("natural", "rational", {"lc": 8.0, "mass": 0.5}, "theta:0.01:100:60"),
    "mass-rationalized": ("natural", "rationalized", {"lc": 8.0, "mass": 0.5}, "mass:0.1:1:40"),
    "theta-rationalized": ("natural", "rationalized", {"lc": 8.0, "mass": 0.5},
                           "theta:0.01:100:60"),
    "mass-si": ("si", "rationalized", {"lc": 0.02, "mrest": 0.05}, "mass:0.1:1:100"),
    "theta-si": ("si", "rationalized", {"lc": 0.02, "mrest": 0.05}, "theta:1e-45:1e-42:30"),
    "mrest-si": ("si", "p", {"lc": 0.02, "mass": 1e-8}, "mrest:0:1e20:30"),
    "T-si": ("si", "p", {"lc": 0.02, "mass": 1e-8}, "T:1e-44:1e-3:30"),
}


@pytest.mark.parametrize("case", sorted(SWEEPS))
def test_sweep_writes_what_bound_report_gives_row_by_row(tmp_path, capsys, case):
    units, route, body, sweep = SWEEPS[case]
    consts = natural_units() if units == "natural" else codata2018()
    e1 = 1e-3 if units == "natural" else 1e-30
    spectra = {
        "p": (["--p", "4", "--T", "100" if units == "natural" else "1e-3"], None),
        "rational": (None, ["--kind", "rational", "--ratios", "5/3,7/2", "--e1", repr(e1)]),
        "rationalized": (None, ["--kind", "rationalized", "--epsilon", "1e-2", "--levels",
                                ",".join(repr(e1 * math.sqrt(n)) for n in range(6))]),
    }
    flags, build_argv = spectra[route]
    if build_argv:
        path = str(tmp_path / "s.spec")
        assert run_cli(capsys, "build", *build_argv, "--units", units,
                       "--spectrum-out", path)[0] == 0
        flags = ["--spectrum", path]
    csv_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", *flags, "--units", units, "--sweep", sweep,
                         "--out-csv", str(csv_path),
                         *(f for key, value in body.items() for f in (f"--{key}", repr(value))))
    assert code == 0
    param, lo, hi, steps = sweep.split(":")

    def report(value):
        given = {**body, param: value}
        spec = (qclock.read_spectrum(flags[1], consts) if build_argv
                else qclock.build_equally_spaced(4, given.get("T", float(flags[3])), consts))
        clock = qclock.ClockBody(l_C=given["lc"], m_rest=given.get("mrest", 0.0),
                                 m=given.get("mass"))
        r = qclock.bound_report(clock, consts, spec, spec.r[-1], given.get("theta"))
        # the bits of the formulas in Python floats, not only of bound_report
        count = spec.p + 1 if route == "p" else spec.r[-1]
        assert (r.delta_tau_min, r.structural_dt, r.speed_limit_dt, r.spreading_dt,
                r.fundamental_dt, r.mass_limit, r.binding.value) == bounds_naive(
            consts.hbar, consts.c, consts.G, clock.l_C, clock.m_rest, clock.m, r.theta,
            spec.T, spec.p, count, spec.r[-1], spec.levels)
        return r

    expected = sweep_csv_rows(param, float(lo), float(hi), int(steps), report)
    assert csv_path.read_bytes() == expected.encode()


def test_a_sweep_refused_partway_names_the_step_and_writes_nothing(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    code, out, err = run_cli(capsys, "sweep", "--lc", "8", "--mass", "0.5", "--p", "4",
                             "--T", "100", "--units", "natural", "--sweep", "mrest:0:4:5",
                             "--out-csv", str(csv_path))
    assert code == 1
    assert out == ""
    assert not csv_path.exists()
    error = json.loads(err)
    assert error["error"] == "schwarzschild-violation"
    # l_C/2 > 2 G m_rest/c^2 first fails at m_rest = 2, the third of 0, 1, 2, 3, 4
    assert error["message"] == (
        "sweep step 3 of 5 (mrest = 2.0): clock half-diameter does not exceed twice "
        "G m_rest/c^2; the confinement bound would be negative")


# refusals at the spectrum and speed-limit stages: (argv, error, message).  S is a
# rational spectrum whose top level 1.5e308 overflows the energy moments
NATURAL = ["--mass", "0.5", "--units", "natural"]
STAGE_FAULTS = {
    "speed-bounds": (["bounds", "--lc", "8", "--spectrum", "S", *NATURAL], "invalid-argument",
                     "energy moments overflow float64 (top level 1.5e+308)"),
    "body-before-speed": (["bounds", "--lc", "-8", "--spectrum", "S", *NATURAL],
                          "invalid-argument", "clock diameter must be positive, got -8.0"),
    "speed-sweep": (["sweep", "--lc", "8", "--spectrum", "S", "--sweep", "mass:0.1:1:3",
                     *NATURAL], "invalid-argument",
                    "sweep step 1 of 3 (mass = 0.1): energy moments overflow float64 "
                    "(top level 1.5e+308)"),
    "speed-T-step": (["sweep", "--lc", "8", "--p", "4", "--sweep", "T:1:1e300:5", *NATURAL],
                     "degenerate-clock", "sweep step 2 of 5 (T = 2.5e+299): zero energy spread"),
    "spectrum-no-p": (["sweep", "--lc", "8", "--sweep", "T:1:2:3", *NATURAL], "invalid-argument",
                      "sweep step 1 of 3 (T = 1.0): provide --spectrum FILE or --p for an "
                      "equally-spaced clock"),
    "spectrum-p-0": (["sweep", "--lc", "8", "--p", "0", "--sweep", "T:1:2:3", *NATURAL],
                     "invalid-argument",
                     "sweep step 1 of 3 (T = 1.0): p must be an integer >= 1, got 0"),
    # in SI units the spacing 2 pi hbar/T of the second step underflows to 0
    "spectrum-T-step": (["sweep", "--lc", "0.01", "--mrest", "0.01", "--p", "4",
                         "--sweep", "T:1:1e300:5"], "invalid-argument",
                        "sweep step 2 of 5 (T = 2.5e+299): T = 2.5e+299 puts the levels "
                        "2 pi hbar n/T, n = 0..4, outside the positive float64 range "
                        "(spacing 0.0)"),
    "spectrum-T-inf-spacing": (["bounds", "--lc", "8", "--p", "4", "--T", "1e-320", *NATURAL],
                               "invalid-argument",
                               "T = 1e-320 puts the levels 2 pi hbar n/T, n = 0..4, outside "
                               "the positive float64 range (spacing inf)"),
}


@pytest.mark.parametrize("case", sorted(STAGE_FAULTS))
def test_spectrum_and_speed_limit_refusals_name_their_row(tmp_path, capsys, case):
    argv, error, message = STAGE_FAULTS[case]
    spec = build_file(tmp_path, capsys, "s.spec", "--kind", "rational", "--e1", "1e308",
                      "--ratios", "3/2")
    argv = [spec if a == "S" else a for a in argv]
    if argv[0] == "sweep":
        argv += ["--out-csv", str(tmp_path / "s.csv")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": error, "message": message}
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("sweep", ["mass:-inf:1:5", "mass:-1e308:1e308:5", "lc:1:inf:3"])
def test_a_sweep_range_that_is_not_finite_is_refused(tmp_path, capsys, sweep):
    # np.linspace would warn first; the suite turns a RuntimeWarning into an error
    csv_path = tmp_path / "s.csv"
    code, out, err = run_cli(capsys, "sweep", "--lc", "8", "--p", "4", "--T", "100",
                             "--sweep", sweep, "--out-csv", str(csv_path), *NATURAL)
    assert code == 1
    assert out == ""
    assert json.loads(err) == {
        "error": "invalid-argument",
        "message": f"sweep needs a finite min, max and max - min, got {sweep!r}"}
    assert not csv_path.exists()


@pytest.mark.parametrize("command", ["bounds", "sweep"])
@pytest.mark.parametrize("route", ["p", "rational"])
def test_a_z_past_the_float_range_is_refused(tmp_path, capsys, command, route):
    flags = ["--p", "4", "--T", "100"]
    if route == "rational":
        flags = ["--spectrum", build_file(tmp_path, capsys, "rat.spec", "--kind", "rational",
                                          "--ratios", "5/3,7/2", "--e1", "1.0")]
    if command == "sweep":
        flags += ["--sweep", "mass:0.1:1:5", "--out-csv", str(tmp_path / "s.csv")]
    code, out, err = run_cli(capsys, command, "--lc", "8", "--mass", "0.5", *flags,
                             "--units", "natural", "--z", "1" + "0" * 400)
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "invalid-argument"
    assert "past the float64 range" in error["message"]
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("ratios, message", [
    ("6/4", "6/4 is not reduced"),
    ("5/3,7/-2", "denominator must be >= 1, got -2"),
    ("5/3, x", "ratio ' x' must look like C/B, with integers C and B"),
])
def test_a_ratio_is_refused_by_the_ratio_parser(tmp_path, capsys, ratios, message):
    # --ratios and a spectrum file read ratios with RationalRatio.parse, whose
    # own refusal reaches stderr
    code, out, err = run_cli(capsys, "build", "--kind", "rational", "--ratios", ratios,
                             "--e1", "1", "--units", "natural",
                             "--spectrum-out", str(tmp_path / "r.spec"))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "invalid-argument", "message": message}
    assert not (tmp_path / "r.spec").exists()


@pytest.mark.filterwarnings("error")
def test_measure_with_overflowing_dial_phases_writes_nothing(tmp_path, capsys):
    spec = build_file(tmp_path, capsys, "irr.spec", "--kind", "rationalized",
                      "--levels", f"0,1,{math.sqrt(2)!r}", "--epsilon", "1e-3")
    code, out, err = run_cli(capsys, "measure", "--spectrum", spec, "--units", "natural",
                             "--state", "t:0.3", "--tau0", "1.7e308",
                             "--shots", "100", "--seed", "1")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "invalid-distribution"


# SHA-256 of the version 1 measure document on stdout and of its --csv histogram
# with the tau_m column, captured while outcome_probabilities still built the
# dense dial grid and sample searched unsorted draws (the CSV: while csv.writer
# still spelled every row): a change to the dial kernel, the sampler or the
# writers must leave seeded records as they were.  A version 2 document and its
# m,count,frequency CSV are checked through their older expansions.
PINNED_MEASURE_DIGESTS = {
    "rational-default-z": (
        ["--spectrum", "rat.spec", "--state", "t:0.3"],
        "30f5d1cc2b5f27d754be858b33ca8cea93944ecc8296aa32bccd30ebe910f967",
        "911d5325a8b63ff06050ea6070e53695f7d504a40707415f847f968346146c72"),
    "rational-tau0": (
        ["--spectrum", "rat.spec", "--state", "t:0.3", "--tau0", "0.123"],
        "3525d860409d6c0137bd1c6127536ad418abcc6746965f88334e370d116ef7cd",
        "54dcb8bd9dc45dd9dd2e11bafef7c2b09d46484e94522851b730504b49341c46"),
    "equally-spaced-z-1e5": (
        ["--spectrum", "eq.spec", "--state", "t:0.3", "--z", "100000"],
        "5786f794389079a614a33a42345bdd97047af5100d04cfc09103876a9d23a774",
        "73b185a8791450f0e75d4d3d03d0a4d539efdf8be6a82ba64f31b41c5133a693"),
}


# SHA-256 of the version 2 measure document on stdout, for the same cases
PINNED_MEASURE_V2_DIGESTS = {
    "rational-default-z": "4ddf47506dc2b3a0aa648a0133f44ce0f9f11b309ef4d464785b59d6f011c0ae",
    "rational-tau0": "bd964d58658181ceb68e4c44865342153eff0acca21ea2954c1c3ae2672c9f07",
    "equally-spaced-z-1e5": "39eeef42bcaac11786dd04e020f22fd590270137564869407ab04ef59ca92e72",
}


# SHA-256 of the m,count,frequency CSV, for the same cases: the histograms above
# with their tau_m column taken out
PINNED_MEASURE_CSV_DIGESTS = {
    "rational-default-z": "40ea7f8843bbcc467b2d02ebd5ce11d344474e15b06cc0369c99a6e092b60cd7",
    "rational-tau0": "77954c418a46e3aaa0d2a1167a34e33359741ca1b076c9f3dc8d028aba9e6015",
    "equally-spaced-z-1e5": "7bb3ad981d715471f83aeaeac286fe528cdec803bc57ce8414bbd7f92311d310",
}


@pytest.mark.parametrize("case", PINNED_MEASURE_DIGESTS)
def test_seeded_measure_records_are_pinned(tmp_path, capsys, monkeypatch, case):
    # relative spectrum paths, since the path is part of the document
    monkeypatch.chdir(tmp_path)
    build_file(tmp_path, capsys, "rat.spec", "--kind", "rational",
               "--ratios", "5/3,7/2,113/7,997/11", "--e1", "1.0")
    build_file(tmp_path, capsys, "eq.spec", "--kind", "equally-spaced",
               "--p", "5", "--T", "1.0")
    argv, digest, csv_digest = PINNED_MEASURE_DIGESTS[case]
    code, out, _ = run_cli(capsys, "measure", *argv, "--units", "natural",
                           "--shots", "100000", "--seed", "11", "--csv", "h.csv")
    assert code == 0
    doc, histogram = json.loads(out), (tmp_path / "h.csv").read_bytes()
    assert hashlib.sha256(measure_v1_text(doc).encode()).hexdigest() == digest
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_MEASURE_V2_DIGESTS[case]
    assert hashlib.sha256(histogram).hexdigest() == PINNED_MEASURE_CSV_DIGESTS[case]
    v1_histogram = measure_csv_v1_text(doc, histogram.decode("utf-8"))
    assert hashlib.sha256(v1_histogram.encode()).hexdigest() == csv_digest


# --- the streamed writer against json.dump ------------------------------------

finite_floats = st.floats(allow_nan=False, allow_infinity=False)  # -0.0, subnormals
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), finite_floats, st.text()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=12)


@st.composite
def long_arrays(draw):
    """Integer arrays longer than one writer window."""
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(clockstates._BLOCK + 1, 3 * clockstates._BLOCK))
    return g.integers(-2**63, 2**63 - 1, size, dtype=np.int64, endpoint=True)


# the writer spells integer arrays; no document the CLI writes holds a float array
numeric_arrays = st.one_of(arrays(np.int64, st.integers(0, 6)), long_arrays())
documents = st.recursive(
    st.dictionaries(st.text(), st.one_of(json_values, numeric_arrays), max_size=4),
    lambda inner: st.dictionaries(st.text(), st.one_of(json_values, numeric_arrays, inner),
                                  max_size=4),
    max_leaves=8)


def to_lists(value):
    if isinstance(value, dict):
        return {key: to_lists(item) for key, item in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


@settings(max_examples=150, deadline=None)
@given(documents)
def test_writer_spells_what_json_dump_spells(document):
    expected = io.StringIO()
    json.dump(to_lists(document), expected, sort_keys=True, indent=2, allow_nan=False)
    assert dumps(document) == expected.getvalue() + "\n"


@pytest.mark.parametrize("document", [
    {"a": np.arange(5000), "z": math.nan},
    {"a": {"b": [1.0, {"c": (2.0, math.inf)}]}, "d": 1},
], ids=["nan-after-array", "nested-inf"])
def test_a_refused_document_writes_nothing(document):
    buf = io.StringIO()
    with pytest.raises(QClockError):
        _write(document, buf)
    assert buf.getvalue() == ""


def test_integer_writer_memory_is_bounded_by_the_slice():
    x = np.arange(10**6)
    with open(os.devnull, "w", encoding="utf-8") as sink:
        tracemalloc.start()
        try:
            _write({"x": x}, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # a tolist() of x alone is about 36 MB
    assert peak < 2 * 2**20


# the edges of each digit count and of int64, with both signs
INT64_EDGES = sorted({v for k in range(19) for d in (-1, 0, 1) for v in (10**k + d, -(10**k + d))}
                     | {0, 2**63 - 1, -2**63})
ascii_text = st.text(st.characters(min_codepoint=1, max_codepoint=127), min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.sampled_from([1, clockstates._BLOCK, clockstates._BLOCK + 1]))
def test_spelled_rows_are_what_str_spells(data, n):
    values = data.draw(arrays(np.int64, n, elements=st.integers(-2**63, 2**63 - 1)))
    if data.draw(st.booleans()):  # every edge, rotated, on the even rows
        shift = data.draw(st.integers(0, len(INT64_EDGES) - 1))
        values[::2] = np.resize(np.roll(INT64_EDGES, shift), values[::2].size)
    before, tails = data.draw(ascii_text), data.draw(st.lists(ascii_text, min_size=1, max_size=4))
    pick = np.arange(n) % len(tails)
    after = np.take(cli._cells(*tails), pick, axis=0)
    spelled = [str(v) for v in values.tolist()]
    assert cli._spell_rows(values) == "".join(spelled).encode()
    assert cli._spell_rows(values, before=cli._cells(before)[0], after=after) == "".join(
        before + text + tails[k] for text, k in zip(spelled, pick.tolist())).encode()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), n=st.sampled_from([2, 3, 4095, 4096, 4097, 9000]))
def test_histogram_spells_what_csv_writer_spells(tmp_path, data, n):
    # counts with repeats and empty bins, so several lines share one tail; the
    # dial's times, of any sign and size, are not written
    T = data.draw(st.floats(1e-300, 1e300))
    tau0 = data.draw(st.floats(-1e300, 1e300))
    counts = data.draw(arrays(np.int64, n, elements=st.sampled_from([0, 0, 1, 3])
                              | st.integers(0, 2**40)))
    check_histogram(tmp_path, counts, ClockPOVM(qclock.build_equally_spaced(1, T), n - 1, tau0))


# tails found in a table indexed by count, and, past the record's length, by search
@pytest.mark.parametrize("counts", [[0, 3, 1, 0, 5, 1], [0, 0, 10**12, 0, 1, 0]],
                         ids=["table", "search"])
def test_histogram_tails_by_table_and_by_search(tmp_path, counts):
    check_histogram(tmp_path, np.array(counts), ClockPOVM(qclock.build_equally_spaced(1, 1.0), 5))


def check_histogram(tmp_path, counts, povm):
    """_write_histogram of counts, topped up so their sum is the shots, is the
    text csv.writer writes."""
    shots = max(int(counts.sum()), 1)
    counts[0] += shots - counts.sum()
    record = qclock.MeasurementRecord(seed=0, shots=shots, counts=counts, povm=povm)
    path = tmp_path / "h.csv"
    cli._write_histogram(record, str(path))
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["m", "count", "frequency"])
    writer.writerows((m, k, k / shots) for m, k in enumerate(counts.tolist()))
    assert path.read_bytes() == expected.getvalue().encode()


# --- fuzzed argv ---------------------------------------------------------------

# Valid sizes stay small, so that every example runs in milliseconds.  Out of
# range, --p, --z and the step count of --sweep may also be huge: the byte
# budget refuses them before anything is allocated (measure, build, bounds,
# sweep), or they cost O(p) (check-identity).  --shots stays capped: sample's
# time grows with the shots, and time is not something the byte budget bounds.
CAP = 10**4
JUNK = ["nan", "-nan", "inf", "-inf", "Infinity", "-0", "0", "-1", "1e308", "1e400",
        "-1e400", "5e-324", "1e-320", "0x10", "1_0", "1e", "", " ", "\x00", "é", "--",
        "1/0", "0/1", "3/-2", ":", ",,"]
junk = st.one_of(st.sampled_from(JUNK), st.text(max_size=6))
wide = st.one_of(junk, st.floats().map(repr), st.integers(-10**40, 10**40).map(str))
small_ints = st.integers(1, CAP).map(str)
# what a size gets in place of a valid value: junk, a size below 1, or for
# --p, --z and the steps of --sweep a size far past the byte budget
below = st.one_of(st.sampled_from(JUNK), st.integers(-10**40, 0).map(str))
huge = st.integers(2**40, 10**40).map(str)
numbers = st.floats(1e-3, 1e3).map(repr)
seeds = st.integers(0, 2**70).map(str)
ratios = st.lists(st.tuples(st.integers(-3, 10**6), st.integers(-3, 10**6))
                  .map(lambda cb: f"{cb[0]}/{cb[1]}"), min_size=1, max_size=4).map(",".join)
levels = st.lists(st.one_of(numbers, wide), min_size=1, max_size=5).map(",".join)
states = st.one_of(
    st.tuples(st.just("t"), numbers), st.tuples(st.just("energy"), st.integers(0, 3).map(str)),
    st.tuples(st.just("taum"), st.integers(0, 30).map(str)),
    st.tuples(st.sampled_from(["t", "energy", "taum", "x"]), wide)).map(":".join)


def sweeps_of(steps):
    return st.tuples(st.sampled_from(["lc", "mrest", "mass", "theta", "T"]),
                     st.lists(numbers, min_size=2, max_size=2).map(sorted).map(":".join),
                     steps).map(":".join)


sweeps = sweeps_of(st.integers(2, 50).map(str))
CAPPED_WIDE = {"--p": below | huge, "--z": below | huge, "--shots": below,
               "--sweep": wide | sweeps_of(below | huge)}
spectra = st.sampled_from(["rat.spec", "eq.spec", "irr.spec", "missing.spec"])
BODY = {"--lc": numbers, "--mrest": numbers, "--mass": numbers, "--p": small_ints,
        "--T": numbers, "--spectrum": spectra, "--z": small_ints, "--theta": numbers}
FLAGS = {
    "build": {"--kind": st.sampled_from(["equally-spaced", "rational", "rationalized"]),
              "--p": small_ints, "--T": numbers, "--ratios": ratios, "--e1": numbers,
              "--levels": levels, "--epsilon": numbers,
              "--spectrum-out": st.sampled_from(["out.spec", "nodir/x.spec"])},
    "check-identity": {"--spectrum": spectra, "--z": small_ints, "--tau0": numbers},
    "measure": {"--spectrum": spectra, "--z": small_ints, "--tau0": numbers,
                "--state": states, "--shots": small_ints, "--seed": seeds,
                "--csv": st.sampled_from(["h.csv", "nodir/h.csv"])},
    "bounds": BODY,
    "sweep": {**BODY, "--sweep": sweeps,
              "--out-csv": st.sampled_from(["s.csv", "nodir/s.csv"])},
}
COMMON = {"--units": st.sampled_from(["si", "natural"]),
          "--constants": st.sampled_from(["good.txt", "nan.txt", "junk.txt"]),
          "--out": st.sampled_from(["out.json", "nodir/out.json"])}
# flags the parser requires, those a kind of build needs, and --units for the
# spectrum files, which are written in natural units
REQUIRED = {"build": ["--kind", "--spectrum-out", "--p", "--T", "--ratios", "--e1",
                      "--levels", "--epsilon"],
            "check-identity": ["--spectrum", "--units"],
            "measure": ["--spectrum", "--units", "--state", "--shots", "--seed"],
            "bounds": ["--lc", "--mass", "--p", "--T"],
            "sweep": ["--lc", "--mass", "--p", "--T", "--sweep", "--out-csv"]}


@st.composite
def argvs(draw):
    """A subcommand and its flags; in about one argv in two, one value is out of
    range or junk, and in about one in four, one required flag is missing."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = {**FLAGS[command], **COMMON}
    required = REQUIRED[command]
    drop = draw(st.integers(0, 4 * len(required)))
    chosen = [flag for index, flag in enumerate(required) if index != drop]
    chosen += draw(st.lists(st.sampled_from(sorted(set(flags) - set(required))), unique=True))
    chosen = draw(st.permutations(chosen))
    bad = draw(st.integers(0, 2 * len(chosen)))
    argv = [command]
    for index, flag in enumerate(chosen):
        argv += [flag, draw(CAPPED_WIDE.get(flag, wide) if index == bad else flags[flag])]
    return argv


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_fuzzed_argv_exits_cleanly(tmp_path, capsys, monkeypatch, argv):
    # every example shares the directory and its input files
    monkeypatch.chdir(tmp_path)
    if not (tmp_path / "rat.spec").exists():
        build_file(tmp_path, capsys, "rat.spec", "--kind", "rational",
                   "--ratios", "5/3,7/2", "--e1", "1.0")
        build_file(tmp_path, capsys, "eq.spec", "--kind", "equally-spaced",
                   "--p", "3", "--T", "1.0")
        build_file(tmp_path, capsys, "irr.spec", "--kind", "rationalized",
                   "--levels", f"0,1,{math.sqrt(2)!r}", "--epsilon", "1e-2")
        (tmp_path / "good.txt").write_text("hbar=1.0\nc=1.0\nG=1.0\n")
        (tmp_path / "nan.txt").write_text("hbar=nan\n")
        (tmp_path / "junk.txt").write_text("hbar\n=\x00\n")
    capsys.readouterr()  # drop what an earlier example left, e.g. a usage message
    try:
        code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return
    out, err = capsys.readouterr()
    assert code in (0, 1)
    if out:  # one JSON document, with no NaN or Infinity token
        json.loads(out, parse_constant=lambda token: pytest.fail(f"{token} on stdout"))
    if code == 1:
        assert out == ""
        assert "error" in json.loads(err)
