import json
import math
import os
import tracemalloc

import pytest

from qclock import (ConstantsSet, InvalidConstants, cli, codata2018,
                    derive_planck_scale, load_constants_file, natural_units,
                    resolve_constants)
from qclock.units import CONSTANTS_ENV_VAR, CONSTANTS_FILE_LIMIT

from oracles import ORACLE_C, ORACLE_G, ORACLE_HBAR

# frozen from an independent sqrt(hbar*G/c^5) evaluation of the CODATA table
PINNED_T_P = 5.391e-44
PINNED_L_P = 1.616e-35


def test_natural_mode_is_all_ones(nat):
    scale = derive_planck_scale(nat)
    assert scale.l_p == 1.0
    assert scale.t_p == 1.0


def test_codata_planck_time_matches_pin(si):
    scale = derive_planck_scale(si)
    assert scale.t_p == pytest.approx(PINNED_T_P, rel=5e-4)
    assert scale.l_p == pytest.approx(PINNED_L_P, rel=5e-4)
    # and against a from-scratch recomputation
    assert scale.t_p == pytest.approx(math.sqrt(ORACLE_HBAR * ORACLE_G / ORACLE_C**5),
                                      rel=1e-14)


def test_lp_equals_c_tp(si):
    scale = derive_planck_scale(si)
    assert abs(scale.l_p - si.c * scale.t_p) / scale.l_p < 1e-14


def test_scaling_g_by_four_doubles_both(si):
    base = derive_planck_scale(si)
    scaled = derive_planck_scale(ConstantsSet(si.hbar, si.c, 4 * si.G))
    assert scaled.l_p == pytest.approx(2 * base.l_p, rel=1e-14)
    assert scaled.t_p == pytest.approx(2 * base.t_p, rel=1e-14)


@pytest.mark.parametrize("factor", [2.0, 5.0, 0.25])
def test_homogeneity_degrees(si, factor):
    base = derive_planck_scale(si)
    in_hbar = derive_planck_scale(ConstantsSet(factor * si.hbar, si.c, si.G))
    assert in_hbar.l_p == pytest.approx(factor**0.5 * base.l_p, rel=1e-14)
    assert in_hbar.t_p == pytest.approx(factor**0.5 * base.t_p, rel=1e-14)
    in_c = derive_planck_scale(ConstantsSet(si.hbar, factor * si.c, si.G))
    assert in_c.l_p == pytest.approx(factor**-1.5 * base.l_p, rel=1e-14)
    assert in_c.t_p == pytest.approx(factor**-2.5 * base.t_p, rel=1e-14)


@pytest.mark.parametrize("bad", [
    dict(hbar=0.0, c=1.0, G=1.0),
    dict(hbar=1.0, c=-1.0, G=1.0),
    dict(hbar=1.0, c=1.0, G=float("nan")),
])
def test_nonpositive_constants_rejected(bad):
    with pytest.raises(InvalidConstants):
        ConstantsSet(**bad)


def test_natural_mode_must_be_unity():
    with pytest.raises(InvalidConstants):
        ConstantsSet(1.0, 2.0, 1.0, mode="natural")


def test_constants_file_roundtrip(tmp_path):
    path = tmp_path / "consts.txt"
    path.write_text("# custom constants\nhbar = 2.0\nc=3.0\nG = 4.0\n")
    consts = load_constants_file(str(path))
    assert (consts.hbar, consts.c, consts.G) == (2.0, 3.0, 4.0)
    assert consts.mode == "SI"


def test_constants_file_partial_falls_back_to_codata(tmp_path):
    path = tmp_path / "consts.txt"
    path.write_text("G=1e-10\n")
    consts = load_constants_file(str(path))
    assert consts.G == 1e-10
    assert consts.hbar == codata2018().hbar


def test_constants_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "consts.txt"
    path.write_text("k_B=1.38e-23\n")
    with pytest.raises(InvalidConstants):
        load_constants_file(str(path))


def test_constants_file_is_read_no_further_than_its_limit(tmp_path):
    path = tmp_path / "consts.txt"
    head = "c=42.0\n"
    path.write_text(head + "#" * (CONSTANTS_FILE_LIMIT - len(head)))
    assert load_constants_file(str(path)).c == 42.0
    path.write_text(head + "#" * (CONSTANTS_FILE_LIMIT - len(head) + 1))
    with pytest.raises(InvalidConstants, match=f"at most {CONSTANTS_FILE_LIMIT} characters"):
        load_constants_file(str(path))


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_a_constants_device_without_an_end_is_refused(capsys):
    argv = ["bounds", "--lc", "8", "--mass", "0.5", "--p", "4", "--T", "100",
            "--constants", "/dev/zero"]
    cli._parser()  # built once per process, outside the trace
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "invalid-constants"
    assert peak < 2**20


def test_resolve_constants_env_var(tmp_path, monkeypatch):
    path = tmp_path / "alt.txt"
    path.write_text("c=42.0\n")
    monkeypatch.setenv(CONSTANTS_ENV_VAR, str(path))
    assert resolve_constants("SI").c == 42.0
    # natural mode ignores the file
    assert resolve_constants("natural") == natural_units()
    monkeypatch.delenv(CONSTANTS_ENV_VAR)
    assert resolve_constants("SI") == codata2018()
