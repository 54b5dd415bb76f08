import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclock import (CapacityError, ClockSpectrum, InvalidArgument,
                    RationalRatio, SpectrumKind, build_equally_spaced,
                    build_rational, codata2018, max_integer, natural_units,
                    rationalize, rationalized_spectrum, read_spectrum,
                    simplest_fraction_between, write_spectrum)
from qclock.spectrum import dump_spectrum, parse_spectrum

from oracles import brute_force_simplest, random_rational_fracs

GOLDEN = (1 + math.sqrt(5)) / 2


# --- equally spaced ----------------------------------------------------------

def test_equally_spaced_two_level(nat):
    spec = build_equally_spaced(1, 2 * math.pi, nat)
    assert np.allclose(spec.levels, [0.0, 1.0], rtol=0, atol=1e-15)
    assert spec.r == (0, 1)
    assert spec.kind is SpectrumKind.EQUALLY_SPACED


def test_equally_spaced_linear_in_n(si):
    spec = build_equally_spaced(3, 1.0, si)
    assert spec.levels[3] == pytest.approx(6 * math.pi * si.hbar, rel=1e-15)


def test_equally_spaced_defining_relation(nat):
    spec = build_equally_spaced(5, 2.0, nat)
    assert spec.r == (0, 1, 2, 3, 4, 5)
    lhs = spec.levels * spec.T / (2 * math.pi * spec.hbar)
    assert np.allclose(lhs, spec.r, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("p,T", [(0, 1.0), (-3, 1.0), (2, 0.0), (2, -1.0)])
def test_equally_spaced_rejects_bad_args(p, T):
    with pytest.raises(InvalidArgument):
        build_equally_spaced(p, T)


# --- rational ----------------------------------------------------------------

def test_rational_lcm_example_three_halves_two(nat):
    # E_2/E_1 = 3/2, E_3/E_1 = 2 -> r_1 = lcm(2, 1) = 2, r = (0, 2, 3, 4)
    spec = build_rational([RationalRatio(3, 2), RationalRatio(2, 1)], 1.0, nat)
    assert spec.r == (0, 2, 3, 4)
    assert spec.T == pytest.approx(2 * math.pi * 2 / 1.0, rel=1e-15)


def test_rational_single_integer_ratio_is_equally_spaced_case(nat):
    spec = build_rational([RationalRatio(2, 1)], 1.0, nat)
    assert spec.r == (0, 1, 2)
    step = spec.levels[1]
    assert np.allclose(spec.levels, [0, step, 2 * step], rtol=1e-15)


def test_rational_lcm_example_five_thirds_seven_halves(nat):
    spec = build_rational([RationalRatio(5, 3), RationalRatio(7, 2)], 1.0, nat)
    assert spec.r == (0, 6, 10, 21)
    assert max_integer(spec) == 21


def test_rational_two_level_trivial(nat):
    spec = build_rational([], 0.7, nat)
    assert spec.r == (0, 1)
    assert max_integer(spec) == 1
    assert spec.T == pytest.approx(2 * math.pi / 0.7, rel=1e-15)


def test_rational_consistency_relation(nat, rng):
    for _ in range(30):
        p = int(rng.integers(2, 7))
        fracs = random_rational_fracs(rng, p)
        spec = build_rational([RationalRatio.from_fraction(f) for f in fracs],
                              float(rng.uniform(0.5, 2.0)), nat)
        lhs = spec.levels * spec.T / (2 * math.pi * spec.hbar)
        assert np.allclose(lhs, spec.r, rtol=1e-12, atol=1e-12)


def test_rational_exactness_property(rng):
    # r_n * B_n == r_1 * C_n exactly in integer arithmetic
    for _ in range(50):
        p = int(rng.integers(2, 7))
        fracs = random_rational_fracs(rng, p)
        spec = build_rational([RationalRatio.from_fraction(f) for f in fracs], 1.0)
        r1 = spec.r[1]
        for rn, frac in zip(spec.r[2:], fracs):
            assert rn * frac.denominator == r1 * frac.numerator


def test_rational_rejects_nonreduced():
    with pytest.raises(InvalidArgument):
        RationalRatio(6, 4)


def test_rational_rejects_nonincreasing(nat):
    with pytest.raises(InvalidArgument):
        build_rational([RationalRatio(3, 1), RationalRatio(2, 1)], 1.0, nat)
    with pytest.raises(InvalidArgument):
        build_rational([RationalRatio(1, 2)], 1.0, nat)  # ratio <= 1


def test_rational_capacity_budget(nat):
    ratios = [RationalRatio(9, 7), RationalRatio(11, 8), RationalRatio(13, 9)]
    with pytest.raises(CapacityError):
        build_rational(ratios, 1.0, nat, max_int=100)  # lcm(7, 8, 9) = 504


def test_degenerate_levels_rejected():
    with pytest.raises(InvalidArgument):
        ClockSpectrum(np.array([0.0, 1.0, 1.0]), (0, 1, 2), 1.0, 1.0,
                      SpectrumKind.RATIONAL)


# --- rationalize -------------------------------------------------------------

@pytest.mark.parametrize("eps", [0.3, 1e-3, 1e-9])
def test_rationalize_exact_ratio(eps):
    ratios, err = rationalize([0.0, 2.0, 3.0], eps)  # E_2/E_1 = 1.5
    assert ratios == [RationalRatio(3, 2)]
    assert err == 0.0


def test_rationalize_pi_pins():
    ratios, err = rationalize([0.0, 1.0, math.pi], 2e-3)
    assert ratios == [RationalRatio(22, 7)]
    assert err == pytest.approx(abs(math.pi - 22 / 7), abs=1e-15)
    # at looser tolerance the semiconvergent 19/6 undercuts the convergent 22/7
    ratios, _ = rationalize([0.0, 1.0, math.pi], 0.05)
    assert ratios == [RationalRatio(19, 6)]


def test_rationalize_golden_ratio_denominators_are_fibonacci():
    # frozen from the brute-force scan oracle
    expected = {0.2: 2, 0.05: 3, 0.02: 5, 0.005: 13, 0.001: 34,
                2e-4: 55, 5e-5: 144, 1e-5: 233}
    fib = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377}
    for eps, den in expected.items():
        ratios, _ = rationalize([0.0, 1.0, GOLDEN], eps)
        assert ratios[0].B == den
        assert den in fib


def test_rationalize_error_nonincreasing_in_eps():
    levels = [0.0, 1.0, math.e, math.pi]
    errs = [rationalize(levels, eps)[1] for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)]
    assert all(a >= b for a, b in zip(errs, errs[1:]))
    assert all(err <= eps for err, eps in zip(errs, (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)))


def test_simplest_fraction_minimal_denominator_bruteforce(rng):
    for _ in range(60):
        x = float(rng.uniform(0.1, 10.0))
        eps = float(10 ** rng.uniform(-4, -0.7))
        got = simplest_fraction_between(Fraction(x) - Fraction(eps),
                                        Fraction(x) + Fraction(eps))
        _, q = brute_force_simplest(x, eps)
        assert got.denominator == q
        assert abs(float(got) - x) <= eps * (1 + 1e-12)


def test_rationalize_rejects_bad_input():
    with pytest.raises(InvalidArgument):
        rationalize([0.0, 1.0, 2.0], 0.0)
    with pytest.raises(InvalidArgument):
        rationalize([0.5, 1.0, 2.0], 1e-3)  # E_0 != 0
    with pytest.raises(InvalidArgument):
        rationalize([0.0, 2.0, 1.0], 1e-3)  # not increasing


def test_rationalized_spectrum_keeps_original_levels(nat):
    levels = [0.0, 1.0, math.pi]
    spec = rationalized_spectrum(levels, 2e-3, nat)
    assert spec.kind is SpectrumKind.RATIONALIZED
    assert np.array_equal(spec.levels, levels)
    assert spec.r == (0, 7, 22)
    assert spec.epsilon == 2e-3
    assert not spec.has_exact_integers


# --- max_integer -------------------------------------------------------------

def test_max_integer_equally_spaced(nat):
    assert max_integer(build_equally_spaced(7, 1.0, nat)) == 7


# --- serialization -----------------------------------------------------------

def test_roundtrip_equally_spaced(tmp_path, nat):
    spec = build_equally_spaced(5, 3.7, nat)
    path = tmp_path / "eq.spec"
    write_spectrum(spec, str(path))
    back = read_spectrum(str(path), nat)
    assert back.r == spec.r
    assert back.T == spec.T  # repr round-trips bit-exactly
    assert back.same_as(spec)


def test_roundtrip_rational(tmp_path, nat):
    spec = build_rational([RationalRatio(5, 3), RationalRatio(7, 2)], 0.9, nat)
    path = tmp_path / "rat.spec"
    write_spectrum(spec, str(path))
    back = read_spectrum(str(path), nat)
    assert back.r == spec.r
    assert abs(back.T - spec.T) <= 1e-15 * spec.T
    assert np.array_equal(back.levels, spec.levels)


def test_roundtrip_rationalized(tmp_path, nat):
    spec = rationalized_spectrum([0.0, 1.0, GOLDEN], 1e-4, nat)
    path = tmp_path / "approx.spec"
    write_spectrum(spec, str(path))
    back = read_spectrum(str(path), nat)
    assert back.r == spec.r
    assert abs(back.T - spec.T) <= 1e-15 * spec.T
    assert np.array_equal(back.levels, spec.levels)
    assert back.epsilon == spec.epsilon


@st.composite
def any_spectrum(draw):
    """An equally spaced, rational or rationalized spectrum in natural or SI units."""
    consts = draw(st.sampled_from([natural_units(), codata2018()]))
    kind = draw(st.sampled_from(list(SpectrumKind)))
    if kind is SpectrumKind.EQUALLY_SPACED:
        return build_equally_spaced(draw(st.integers(1, 64)),
                                    draw(st.floats(1e-12, 1e6)), consts)
    if kind is SpectrumKind.RATIONAL:
        fracs = random_rational_fracs(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                                      draw(st.integers(1, 6)))
        return build_rational([RationalRatio.from_fraction(f) for f in fracs],
                              draw(st.floats(1e-3, 1e3)) * consts.hbar, consts)
    # ratios E_n/E_1 at least 0.25 apart stay distinct at eps <= 0.1
    steps = draw(st.lists(st.floats(0.25, 3.0), max_size=3))
    ratios = np.cumsum([1.0, *steps])
    levels = np.concatenate([[0.0], draw(st.floats(0.1, 10.0)) * consts.hbar * ratios])
    return rationalized_spectrum(levels, draw(st.sampled_from([1e-1, 1e-2, 1e-3])),
                                 consts)


@settings(max_examples=200, deadline=None)
@given(spec=any_spectrum())
def test_spectrum_files_round_trip_bit_for_bit(spec):
    consts = natural_units() if spec.hbar == 1.0 else codata2018()
    back = parse_spectrum(dump_spectrum(spec), consts)
    assert back.same_as(spec)
    assert back.r == spec.r
    assert back.T.hex() == spec.T.hex()
    assert back.levels.tobytes() == spec.levels.tobytes()
    assert back.epsilon == spec.epsilon


def test_parse_rejects_unit_mismatch(nat, si):
    spec = build_equally_spaced(3, 1.0, nat)
    text = dump_spectrum(spec)
    with pytest.raises(InvalidArgument):
        parse_spectrum(text, si)


def test_parse_rejects_garbage():
    with pytest.raises(InvalidArgument):
        parse_spectrum("")
    with pytest.raises(InvalidArgument):
        parse_spectrum("wat 3 1.0\n1\n2\n3\n")
    with pytest.raises(InvalidArgument):
        parse_spectrum("rational 3 1.0\n1.0\n5/3\n")  # body count mismatch
