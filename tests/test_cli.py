import csv
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclock import QClockError, cli, read_spectrum, natural_units
from qclock.cli import _write, main


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
    assert lines[0] == "m,tau_m,count,frequency"
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
    ["check-identity", "--z", str(2**62)],
    ["build", "--kind", "rationalized", "--levels", "0,1,x", "--epsilon", "1e-3"],
    ["build", "--kind", "rationalized", "--levels", "0,1,nan", "--epsilon", "1e-3"],
    ["build", "--kind", "rationalized", "--levels", "0,1,inf", "--epsilon", "1e-3"],
], ids=["taum-abc", "energy-x", "t-nan", "t-inf", "t-no-value", "control-char",
        "tau0-nan", "check-tau0-nan", "z-beyond-2^62", "levels-x", "levels-nan",
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
        rows = list(csv.DictReader(fh))
    assert [float(row["tau_m"]).hex() for row in rows] == [
        tau.hex() for tau in result["tau_grid"]]
    assert [int(row["count"]) for row in rows] == result["counts"]
    assert [float(row["frequency"]) for row in rows] == [
        count / 1000 for count in result["counts"]]


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
