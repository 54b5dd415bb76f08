"""The byte budget: every path that grows with z, N, p, a sweep's steps or a
spectrum file's size is charged its peak before it allocates, and the exact
completeness residual is never charged."""

import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from qclock import (CapacityError, ClockPOVM, ClockSpectrum, SpectrumKind,
                    build_equally_spaced, cli, continuous_identity_residual,
                    energy_shift_unitary, first_orthogonal_time, frame_operator,
                    grid_amplitudes, hermitian_time_operator, identity_residual,
                    outcome_probabilities, spectrum, time_state)

from oracles import (dial_circulant_gathered, frame_dense, frame_residual_dense,
                     hermitian_mirror_dense)

# the budget the charges are checked against; a run the budget admits may
# peak 2 MiB past it (windows of 2^12 dial times, small arrays, interpreter
# objects), and a refused one allocates less than 1 MiB
BUDGET = 64 * 2**20
SLACK = 2 * 2**20


def _two_level(r_1: int, kind: SpectrumKind) -> ClockSpectrum:
    """E = (0, 1) with r = (0, r_1): T = 2 pi r_1 in natural units."""
    epsilon = 1e-3 if kind is SpectrumKind.RATIONALIZED else None
    return ClockSpectrum([0.0, 1.0], (0, r_1), 2 * math.pi * r_1, 1.0, kind, epsilon)


def _rationalized(d: int) -> ClockSpectrum:
    """d levels just off r_n = n, so the residual takes the eigenvalue path."""
    return ClockSpectrum(np.arange(d) * (1 + 1e-7), range(d), 2 * math.pi, 1.0,
                         SpectrumKind.RATIONALIZED, 1e-3)


def _cli_measure(tmp_path, state):
    """measure on the p = 5 equally spaced clock with z+1 = n outcomes; few
    shots, since sample's chunk of draws (16 B a shot) sits beside the charge."""
    spec = tmp_path / "eq.spec"
    spectrum.write_spectrum(build_equally_spaced(5, 1.0), str(spec))

    def run(n):
        return cli.main(["measure", "--spectrum", str(spec), "--z", str(n - 1),
                         "--state", state, "--shots", "1000", "--seed", "1",
                         "--units", "natural", "--out", str(tmp_path / "m.json")])
    run(64)  # the parser and numpy's lazy imports, outside the trace
    return run


def _tau_grid(tmp_path):
    spec = build_equally_spaced(3, 1.0)
    return lambda n: ClockPOVM(spec, n - 1).tau_grid


def _grid(tmp_path):
    """four levels: the 4 x (z+1) grid and three rows' worth beside it"""
    spec = build_equally_spaced(3, 1.0)
    return lambda n: grid_amplitudes(spec, n - 1)


def _cli_build(tmp_path):
    """build of an equally spaced spectrum of n levels, its file and its summary"""
    def run(n):
        return cli.main(["build", "--kind", "equally-spaced", "--p", str(n - 1), "--T", "1.0",
                         "--units", "natural", "--spectrum-out", str(tmp_path / "eq.spec"),
                         "--out", str(tmp_path / "b.json")])
    run(64)
    return run


def _scan(kind):
    return lambda tmp_path: lambda n: first_orthogonal_time(_two_level(n - 1, kind),
                                                            samples_per_cycle=1)


# name: (the charge in bytes at size n, make(tmp_path) -> run(n)).  A size
# counts dial times, scan points or levels, and one unit is one more.
CHARGES = {
    "measure-t": (lambda n: 32 * n, lambda tmp_path: _cli_measure(tmp_path, "t:0.3")),
    "measure-taum": (lambda n: 32 * n, lambda tmp_path: _cli_measure(tmp_path, "taum:3")),
    "tau_grid": (lambda n: 8 * n, _tau_grid),
    "exact-scan": (lambda n: 24 * n, _scan(SpectrumKind.RATIONAL)),
    "rationalized-scan": (lambda n: 17 * n, _scan(SpectrumKind.RATIONALIZED)),
    "grid_amplitudes": (lambda n: 16 * 7 * n, _grid),
    "element": (lambda d: 16 * d * d, lambda tmp_path: lambda d: ClockPOVM(
        build_equally_spaced(d - 1, 1.0), d - 1).element(3)),
    # the operator's one buffer, and its spectrum, the spectrum doubled and the
    # offset phases beside it, allocated when its matrix is first read
    "dial-circulant": (lambda d: 16 * d * d + 112 * d,
                       lambda tmp_path: lambda d: hermitian_time_operator(
                           build_equally_spaced(d - 1, 1.0)).matrix),
    "frame-eigvalsh": (lambda d: 48 * d * d, lambda tmp_path: lambda d: identity_residual(
        _rationalized(d), d - 1)),
    "frame_operator": (lambda d: 48 * d * d, lambda tmp_path: lambda d: frame_operator(
        _rationalized(d), d - 1)),
    "build_equally_spaced": (lambda n: 73 * n, lambda tmp_path: lambda n: build_equally_spaced(
        n - 1, 1.0)),
    # reading its file back: 64 B per byte, of at most 24 B a level and a header
    "build-file": (lambda n: 64 * (24 * n + 64), _cli_build),
}
# the cases that run qclock.cli.main, which answers with an exit status
CLI_CASES = {"measure-t", "measure-taum", "build-file"}


def _largest(charge) -> int:
    """The largest size whose charge is within BUDGET."""
    lo, hi = 1, 2
    while charge(hi) <= BUDGET:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if charge(mid) <= BUDGET else (lo, mid)
    return lo


def _refusal(capsys) -> str:
    """The message of the capacity-error document a refused CLI run wrote."""
    document = json.loads(capsys.readouterr().err)
    assert document["error"] == "capacity-error"
    return document["message"]


def _traced(call, n):
    """call(n) under tracemalloc: what it returned or the CapacityError it
    raised, and its peak in bytes."""
    tracemalloc.start()
    try:
        try:
            outcome = call(n)
        except CapacityError as exc:
            outcome = exc
        return outcome, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(CHARGES))
def test_each_path_is_charged_its_peak(tmp_path, monkeypatch, capsys, name):
    charge, make = CHARGES[name]
    cli_run = name in CLI_CASES
    monkeypatch.setattr(spectrum, "_BYTE_BUDGET", BUDGET)
    run = make(tmp_path)
    n = _largest(charge)
    assert charge(n) <= BUDGET < charge(n + 1)
    # the largest size the budget admits peaks within the budget and its slack
    outcome, peak = _traced(run, n)
    assert outcome == 0 if cli_run else not isinstance(outcome, CapacityError)
    assert peak <= BUDGET + SLACK
    capsys.readouterr()
    # one unit more is refused before anything is allocated
    outcome, peak = _traced(run, n + 1)
    assert peak < 2**20
    if cli_run:
        assert outcome == 1
        message = _refusal(capsys)
    else:
        assert isinstance(outcome, CapacityError)
        message = str(outcome)
    assert f"needs {charge(n + 1)} bytes, past the budget of {BUDGET} bytes" in message


def test_the_dial_operators_peak_at_one_matrix():
    # p = 511: 4 MiB a matrix, where the whole-matrix expressions held three
    d = 512
    spec = build_equally_spaced(d - 1, 2.5)
    op = hermitian_time_operator(spec, 0.3)
    op.matrix  # numpy.fft's first plan, outside the trace
    traced, peak = _traced(lambda _: hermitian_time_operator(spec, 0.3).matrix, d)
    assert peak <= 16 * d * d + 2**20
    taus = op.povm.tau_grid
    assert traced.tobytes() == hermitian_mirror_dense(spec, 0.3, taus).tobytes()
    delta_e = 0.7 * spec.hbar / spec.T
    U, peak = _traced(lambda _: energy_shift_unitary(op, delta_e), d)
    assert peak <= 16 * d * d + 2**20
    phases = np.exp(-1j * delta_e * taus / spec.hbar)
    assert U.tobytes() == dial_circulant_gathered(spec, 0.3, phases).tobytes()


@pytest.mark.parametrize("d", [16, 256, 1001])
def test_the_time_operator_peaks_within_its_charge(d):
    # the matrix and its O(d) vectors, and 32 KiB of small objects; an energy shift,
    # whose phases and their FFT sit beside its matrix, shares the charge
    spec = build_equally_spaced(d - 1, 1.0)
    op = hermitian_time_operator(spec)
    op.matrix, energy_shift_unitary(op, 0.7)  # numpy.fft's first plans, outside the trace
    _, peak = _traced(lambda _: hermitian_time_operator(spec).matrix, d)
    assert peak <= CHARGES["dial-circulant"][0](d) + 32 * 2**10
    _, peak = _traced(lambda _: energy_shift_unitary(op, 0.7), d)
    assert peak <= CHARGES["dial-circulant"][0](d) + 32 * 2**10


@pytest.mark.parametrize("d", [16, 256, 1001])
def test_the_time_operator_eigenvalues_peak_within_their_charge(d):
    # the eigenvalues are the dial times, charged and built with the operator:
    # reading them allocates nothing and leaves the complex matrix unbuilt
    op = hermitian_time_operator(build_equally_spaced(d - 1, 1.0), 0.3)
    eigenvalues, peak = _traced(lambda _: op.eigenvalues(), d)
    assert peak <= 2**10
    assert "matrix" not in op.__dict__
    assert not eigenvalues.flags.writeable
    assert np.array_equal(eigenvalues, op.povm.tau_grid)


def test_a_refused_energy_shift_allocates_nothing_first(monkeypatch):
    # the shift's phases and their FFT, 48 B a level, come after its charge
    d = 4096
    op = hermitian_time_operator(build_equally_spaced(d - 1, 1.0))
    monkeypatch.setattr(spectrum, "_BYTE_BUDGET", 16 * d * d)
    outcome, peak = _traced(lambda _: energy_shift_unitary(op, 0.7), d)
    assert isinstance(outcome, CapacityError)
    assert f"needs {16 * d * d + 112 * d} bytes" in str(outcome)
    assert peak <= 4 * 2**10


@pytest.mark.parametrize("kind", ["equally-spaced", "rationalized"])
def test_the_frame_peaks_within_48_bytes_an_entry(kind):
    # z+1 = d + 2, so every off-diagonal sum is a quotient of two expm1 terms
    d = 512
    spec = build_equally_spaced(d - 1, 1.0) if kind == "equally-spaced" else _rationalized(d)
    F, peak = _traced(lambda _: frame_operator(spec, d + 1, 0.4), d)
    assert peak <= 48 * d * d
    assert F.tobytes() == frame_dense(spec, d + 2, 0.4).tobytes()
    if kind == "rationalized":
        residual, peak = _traced(lambda _: identity_residual(spec, d + 1, 0.4), d)
        assert peak <= 48 * d * d
        assert residual == frame_residual_dense(spec, d + 2, 0.4)


def test_the_budget_keeps_gathered_dial_indices_in_int64():
    # a gathered dial holds a 16 B twiddle per point, so its N is at most
    # budget/16, and the gather index (r_n mod N) m stays below N^2
    assert (spectrum._BYTE_BUDGET // 16) ** 2 < 2**63


def test_a_gathered_dial_past_the_int64_index_is_refused_whatever_the_budget(monkeypatch):
    # under a budget large enough to admit it, a z whose index (r_n mod (z+1)) m,
    # at most z^2, could reach 2^63 is refused before the twiddle table is allocated
    z = math.isqrt(2**63 - 1) + 1
    assert (z - 1) ** 2 < 2**63 <= z ** 2
    monkeypatch.setattr(spectrum, "_BYTE_BUDGET", 2**80)
    spec = build_equally_spaced(3, 1.0)
    povm = ClockPOVM(spec, z)
    for call in (lambda: outcome_probabilities(time_state(spec, 0.3), povm),
                 lambda: grid_amplitudes(spec, povm.z)):
        tracemalloc.start()
        with pytest.raises(CapacityError, match="int64 gather index"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2**20


def test_the_exact_residual_is_never_charged(tmp_path, capsys):
    spec = build_equally_spaced(300_000, 1.0)
    assert identity_residual(spec, 300_000) == 0.0
    assert continuous_identity_residual(spec, 2 * 300_001) == 0.0
    path = tmp_path / "eq.spec"
    spectrum.write_spectrum(build_equally_spaced(5000, 1.0), str(path))
    code = cli.main(["check-identity", "--spectrum", str(path), "--units", "natural"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["result"]["residual"] == 0.0


def _sweep_argv(tmp_path, steps, param="theta"):
    return ["sweep", "--lc", "8", "--mass", "0.5", "--p", "4", "--T", "100",
            "--units", "natural", "--sweep", f"{param}:10:100:{steps}",
            "--out-csv", str(tmp_path / "s.csv")]


def _check_identity_argv(tmp_path, size):
    """check-identity of an equally spaced spectrum file of size bytes, padded
    with the blank lines that a reader skips."""
    text = spectrum.dump_spectrum(build_equally_spaced(3, 1.0))
    path = tmp_path / "padded.spec"
    path.write_text(text + "\n" * (size - len(text)), encoding="utf-8")
    return ["check-identity", "--spectrum", str(path), "--units", "natural"]


# name: (bytes charged per sweep step or per byte of the spectrum file,
# argv(tmp_path, n) for n steps or bytes, made before the trace starts)
INPUT_CHARGES = {"sweep": (112, _sweep_argv), "check-identity": (64, _check_identity_argv)}


@pytest.mark.parametrize("name", sorted(INPUT_CHARGES))
def test_cli_inputs_are_charged_before_they_are_read(tmp_path, monkeypatch, capsys, name):
    unit, make_argv = INPUT_CHARGES[name]
    monkeypatch.setattr(spectrum, "_BYTE_BUDGET", BUDGET)
    n = _largest(lambda k: unit * k) + 1
    argv = make_argv(tmp_path, n)
    cli._parser()  # built once per process, outside the trace
    outcome, peak = _traced(lambda _: cli.main(argv), n)
    assert outcome == 1
    assert peak < 2**20
    message = _refusal(capsys)
    assert f"needs {unit * n} bytes, past the budget of {BUDGET} bytes" in message
    if name == "check-identity":  # one byte less is read
        assert cli.main(make_argv(tmp_path, n - 1)) == 0


def test_build_writes_no_spectrum_file_that_reading_would_refuse(tmp_path, monkeypatch, capsys):
    # a 300,001-level file of about 5.5 MB would be charged 64 B per byte when read
    monkeypatch.setattr(spectrum, "_BYTE_BUDGET", BUDGET)
    path = tmp_path / "eq.spec"
    code = cli.main(["build", "--kind", "equally-spaced", "--p", "300000", "--T", "1.0",
                     "--units", "natural", "--spectrum-out", str(path)])
    assert code == 1
    assert not path.exists()
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "capacity-error"
    # a listed spectrum is charged on its text, before its path is opened
    levels = ",".join(str(1.0 + n / 7) for n in range(200))
    argv = ["build", "--kind", "rationalized", "--levels", f"0,{levels}", "--epsilon", "1e-3",
            "--units", "natural", "--spectrum-out", str(path)]
    monkeypatch.setattr(spectrum, "_BYTE_BUDGET", 2**16)
    assert cli.main(argv) == 1
    assert not path.exists()
    out, err = capsys.readouterr()
    assert out == "" and "reading back a spectrum file of" in json.loads(err)["message"]


def test_a_written_spectrum_is_charged_as_it_will_be_read(tmp_path, monkeypatch):
    spec = build_equally_spaced(1000, 1.0)
    size = len(spectrum.dump_spectrum(spec))
    path = tmp_path / "eq.spec"
    monkeypatch.setattr(spectrum, "_BYTE_BUDGET", 64 * size - 1)
    with pytest.raises(CapacityError, match=f"needs {64 * size} bytes"):
        spectrum.write_spectrum(spec, str(path))
    assert not path.exists()
    monkeypatch.setattr(spectrum, "_BYTE_BUDGET", 64 * size)
    spectrum.write_spectrum(spec, str(path))
    assert path.stat().st_size == size
    assert spectrum.read_spectrum(str(path)).r == spec.r


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_a_spectrum_without_a_size_is_read_no_further_than_the_budget(monkeypatch, capsys):
    monkeypatch.setattr(spectrum, "_BYTE_BUDGET", BUDGET)
    code = cli.main(["check-identity", "--spectrum", "/dev/zero", "--units", "natural"])
    assert code == 1
    assert f"a spectrum file of {BUDGET // 64 + 1} or more characters" in _refusal(capsys)


def test_a_sweep_peaks_within_its_charge(tmp_path, capsys):
    # a sweep the budget admits runs for minutes under tracemalloc, so the
    # charge per step is checked on a shorter one.  A T sweep holds the most
    # columns: its speed limits and structural bounds change with the step
    for param in ("theta", "T"):
        argv = _sweep_argv(tmp_path, 4000, param)
        assert cli.main(argv) == 0
        outcome, peak = _traced(lambda _: cli.main(argv), 4000)
        assert outcome == 0
        assert peak <= INPUT_CHARGES["sweep"][0] * 4000
