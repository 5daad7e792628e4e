"""Interval Dirac spectra: exact counting, enumeration, dimension, zeta.

Core claims:
    - the rational pi bracket is tight and the closed-form floor counts
      agree with brute-force eigenvalue scans;
    - no enumeration contains zero and all are symmetric;
    - the streamed windows give the all-at-once bucket dict's rows, and
      the guard counts rows;
    - the gasket-limit counting function has log-log slope near log2(3),
      one interval has slope near 1;
    - the accelerated half-integer mode sum hits the pi^2/2 series value.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from prefractal import spectrum
from prefractal.cli import main
from prefractal.curves import WORK_GUARD_SECONDS
from prefractal.spectrum import (
    PI_LOWER,
    PI_UPPER,
    SpectrumSpec,
    counting_function,
    dimension_fit,
    enumerate_eigenvalues,
    mode_count,
    zeta_partial,
)
from test_acceptance import _random_spec


def _brute_count(entries, cutoff):
    total = 0
    for lam, mult in entries:
        lam = float(Fraction(lam))
        k = 0
        while math.pi * (k + 0.5) / lam <= cutoff:
            total += 2 * mult
            k += 1
    return total


def _joined(blocks):
    """An enumeration's (values, multiplicities) blocks joined end to end."""
    values, mults = [], []
    for v, m in blocks:
        values += v
        mults += m
    return values, mults


def _make_random_spec(rng):
    n = rng.randint(1, 4)
    entries = []
    for _ in range(n):
        kind = rng.randrange(3)
        if kind == 0:
            lam = Fraction(1, 2 ** rng.randint(0, 6))
        elif kind == 1:
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        else:
            lam = rng.uniform(0.05, 2.0)
        entries.append((lam, rng.randint(1, 20)))
    return SpectrumSpec(entries)


class TestPiBracket:
    def test_width(self):
        assert PI_UPPER - PI_LOWER < Fraction(1, 10**40)

    def test_contains_float_pi_to_rounding(self):
        assert abs(float(PI_LOWER) - math.pi) < 1e-15
        assert abs(float(PI_UPPER) - math.pi) < 1e-15


class TestModeCount:
    def test_unit_interval_at_pi(self):
        assert mode_count(1, Fraction(math.pi)) == 2

    def test_below_first_eigenvalue(self):
        assert mode_count(1, Fraction(math.pi) / 4) == 0
        assert mode_count(Fraction(1, 8), 10) == 0

    def test_matches_brute_force(self):
        rng = random.Random(2101)
        for _ in range(200):
            lam = Fraction(rng.randint(1, 16), rng.randint(1, 16))
            cut = Fraction(rng.randint(0, 400), rng.randint(1, 4))
            assert mode_count(lam, cut) == _brute_count([(lam, 1)], float(cut))

    @pytest.mark.parametrize("m", range(41))
    def test_integer_floors_match_fraction_oracle(self, m):
        rng = random.Random(m)
        lam = Fraction(1, 2**m)
        cutoffs = ([0, 0.0] + [rng.uniform(0, 10.0 ** rng.randint(0, 15))
                               for _ in range(30)]
                   + [k * Fraction(math.pi) for k in range(1, 30)]
                   + [k * Fraction(math.pi) * 2**m for k in range(1, 30)])
        for cut in cutoffs:
            assert mode_count(lam, cut) == oracles.fraction_mode_count(lam, cut)

    def test_undecidable_bracket_refused_like_the_oracle(self):
        # c*L/pi within the bracket of 1/2: the two floors differ
        cut = (PI_LOWER + PI_UPPER) / 4
        for count in (mode_count, oracles.fraction_mode_count):
            with pytest.raises(ValueError, match="not decidable"):
                count(1, cut)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="positive"):
            mode_count(0, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            mode_count(1, -1)


class TestIntervalSpectrum:
    # one interval's signed spectrum, pi*(k+1/2)/length for k = -K..K-1
    def test_values_at_pi(self):
        enum = enumerate_eigenvalues(SpectrumSpec.single(1), Fraction(math.pi))
        vals = oracles.signed(*_joined(enum.blocks()))
        assert np.allclose(vals, [-math.pi / 2, math.pi / 2])

    def test_empty(self):
        enum = enumerate_eigenvalues(SpectrumSpec.single(1), 1)
        assert enum.total == 0 and list(enum.blocks()) == []

    def test_guard(self):
        # floor(1e9/pi + 1/2) rows, refused before any window is taken
        with pytest.raises(ValueError, match=r"enumerating 318309886 rows up to cutoff "
                                             r"1000000000 needs about \d+ MiB and .* s, above"):
            enumerate_eigenvalues(SpectrumSpec.single(1), 10**9)


class TestSpecs:
    def test_gasket_entries(self):
        # the levels are read on demand, and stop at the last one
        spec = SpectrumSpec.gasket(2)
        assert [(lam, mult) for lam, mult, _ in spec.entries_for(1e6)] == [
            (Fraction(1, 1), 3), (Fraction(1, 2), 9), (Fraction(1, 4), 27)]

    @pytest.mark.parametrize("level", [0, 7, 10**6])
    def test_gasket_levels_stop_at_the_first_without_modes(self, level, monkeypatch):
        # at cutoff 100 levels 0-5 have modes and level 6 has none: a level
        # past it is never counted, so --level 10^6 costs what --level 7 does
        seen = []

        def counted(length, cutoff):
            seen.append(length)
            return mode_count(length, cutoff)

        monkeypatch.setattr(spectrum, "mode_count", counted)
        entries = SpectrumSpec.gasket(level).entries_for(100)
        assert len(entries) == min(level + 1, 6)
        assert seen == [Fraction(1, 2**m) for m in range(min(level + 1, 7))]

    def test_limit_truncation_matches_deep_finite(self):
        # beyond the vanishing level, extra curves contribute nothing
        limit = SpectrumSpec.gasket_limit()
        deep = SpectrumSpec.gasket(25)
        for cut in (10, 100):
            assert (counting_function(limit, [cut])[0][1]
                    == counting_function(deep, [cut])[0][1])
        entries = limit.entries_for(100)
        assert all(count == mode_count(lam, 100) > 0 for lam, _, count in entries)
        assert mode_count(entries[-1][0] / 2, 100) == 0

    @pytest.mark.parametrize("argv,calls", [
        (["dimension", "--infinite", "--lambda-min", "10", "--lambda-max", "1e5",
          "--grid", "200"], 2165),
        (["spectrum", "--level", "6", "--cutoff", "2000"], 7)])
    def test_each_length_is_counted_once_per_cutoff(self, argv, calls, monkeypatch,
                                                    tmp_path):
        # one mode_count per distinct (length, cutoff) pair: the limit's
        # levels up to its first empty one at each of 200 cutoffs, and the
        # seven levels of a level-6 spec at one cutoff
        seen = []

        def counted(length, cutoff):
            seen.append((length, cutoff))
            return mode_count(length, cutoff)

        monkeypatch.setattr(spectrum, "mode_count", counted)
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert len(seen) == len(set(seen)) == calls

    @pytest.mark.parametrize("spec,last", [
        # 7 levels with modes at 100 plus one: 6.4e-5 s per cutoff
        (SpectrumSpec.gasket_limit(), 468750),
        # 3 levels plus one, 3.2e-5 s per cutoff
        (SpectrumSpec.gasket(2), 937500),
        # 600 B per cutoff over the 32 MiB base passes 1 GiB first
        (SpectrumSpec.single(), 1733645)])
    def test_fit_guard_refuses_before_the_grid(self, spec, last, monkeypatch):
        # the last grid under both guards reaches the grid's first step
        def no_grid(*args):
            raise AssertionError("built the grid")

        monkeypatch.setattr(spectrum.math, "log", no_grid)
        with pytest.raises(AssertionError, match="built the grid"):
            dimension_fit(spec, 10, 100, grid_size=last)
        with pytest.raises(ValueError, match=r"^dimension on %d cutoffs: the grid, its counts "
                                             r"and the fit needs about" % (last + 1)):
            dimension_fit(spec, 10, 100, grid_size=last + 1)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            SpectrumSpec([(0, 1)])
        with pytest.raises(ValueError, match="multiplicity"):
            SpectrumSpec([(1, 0)])
        with pytest.raises(ValueError, match="at least one"):
            SpectrumSpec([])

    def test_from_lengths_groups(self):
        spec = SpectrumSpec.from_lengths([1.0, 0.5, 1.0])
        assert (1.0, 2) in spec.entries and (0.5, 1) in spec.entries


class TestCounting:
    def test_single_interval_closed_form(self):
        table = counting_function(SpectrumSpec.single(),
                                  [Fraction(math.pi), 2 * Fraction(math.pi)])
        assert [n for _, n in table] == [2, 4]

    def test_matches_brute_force_small_specs(self):
        rng = random.Random(3344)
        for _ in range(40):
            spec = _make_random_spec(rng)
            cut = rng.randint(5, 50)
            got = counting_function(spec, [cut])[0][1]
            assert got == _brute_count(spec.entries, cut)

    def test_monotone_and_additive(self):
        a = SpectrumSpec([(1, 2)])
        b = SpectrumSpec([(Fraction(1, 2), 3)])
        both = SpectrumSpec([(1, 2), (Fraction(1, 2), 3)])
        grid = [1, 5, 9, 13, 44]
        na = [n for _, n in counting_function(a, grid)]
        nb = [n for _, n in counting_function(b, grid)]
        nab = [n for _, n in counting_function(both, grid)]
        assert all(x + y == z for x, y, z in zip(na, nb, nab))
        assert all(u <= v for u, v in zip(nab, nab[1:]))

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError, match="increasing"):
            counting_function(SpectrumSpec.single(), [2, 1])

    def test_tripling_ratio(self):
        spec = SpectrumSpec.gasket_limit()
        (_, n1), (_, n2) = counting_function(spec, [5000, 10000])
        assert 2.9 < n2 / n1 < 3.1


class TestEnumeration:
    def test_no_zero_and_symmetric_random_specs(self):
        rng = random.Random(909)
        for _ in range(100):
            spec = _make_random_spec(rng)
            cut = rng.uniform(0.5, 40.0)
            en = enumerate_eigenvalues(spec, cut)
            values, mults = _joined(en.blocks())
            # distinct ascending float magnitudes with even int weights
            assert values == sorted(set(values)) and all(v > 0 for v in values)
            assert all(type(v) is float for v in values)
            assert all(type(m) is int and m > 0 and m % 2 == 0 for m in mults)
            signed = oracles.signed(values, mults)
            assert signed == [-v for v in reversed(signed)]
            assert len(signed) == en.total
            assert en.total == counting_function(spec, [cut])[0][1]

    def test_guard(self):
        # the guard counts rows, not eigenvalues: the gasket limit at 1e5
        # (256,865,082 eigenvalues in 63,661 rows) runs, and one interval
        # is admitted up to the last row the work guard allows
        limit = enumerate_eigenvalues(SpectrumSpec.gasket_limit(), 10**5)
        assert limit.total == 256_865_082
        assert sum(len(v) for v, _ in limit.blocks()) == 63_661
        last = int(WORK_GUARD_SECONDS / spectrum._ROW_SECONDS)
        assert last >= 5_000_000
        single = SpectrumSpec.single(1)
        assert enumerate_eigenvalues(single, math.pi * last).total == 2 * last
        with pytest.raises(ValueError, match="enumerating %d rows .* above the guards"
                                             % (last + 1)):
            enumerate_eigenvalues(single, math.pi * (last + 1))

    # the windows merge equal floats of different lengths (the rational
    # ones collide) as the bucket dict did, whatever the window size: one
    # row per window, a few, or the shipped size; the specs are those of
    # this module's random tests and of acceptance criterion 07, seeds kept
    @pytest.mark.parametrize("window", [1, 7, spectrum.WINDOW_ROWS])
    def test_random_specs_match_the_bucket_oracle(self, window, monkeypatch):
        monkeypatch.setattr(spectrum, "WINDOW_ROWS", window)
        blocks = 0
        for seed, make, cut_hi in ((909, _make_random_spec, 40.0),
                                   (3344, _make_random_spec, 50.0),
                                   (20260815, _random_spec, 60.0)):
            rng = random.Random(seed)
            for _ in range(100):
                spec = make(rng)
                cut = rng.uniform(0.5, cut_hi)
                got = list(enumerate_eigenvalues(spec, cut).blocks())
                assert _joined(got) == oracles.bucket_enumeration(spec, cut)
                blocks += len(got)
        assert (blocks > 300) == (window < 10)  # 300 specs, one window each at full size

    @pytest.mark.parametrize("level", [*range(9), None], ids=lambda v: "limit"
                             if v is None else str(v))
    def test_gasket_levels_match_the_bucket_oracle(self, level, monkeypatch):
        # 37-row windows, so rows straddle many of them
        monkeypatch.setattr(spectrum, "WINDOW_ROWS", 37)
        spec = SpectrumSpec.gasket_limit() if level is None else SpectrumSpec.gasket(level)
        for cut in (1, 20, 300, 2000, 1e4):
            got = list(enumerate_eigenvalues(spec, cut).blocks())
            assert _joined(got) == oracles.bucket_enumeration(spec, cut)
            assert len(got) > 1 or cut < 300

    def test_a_long_curve_is_cut_into_windows_of_rows(self):
        # one curve of length 1000 has 318,310 rows below 1000; the window's
        # width comes from its length, so no window passes WINDOW_ROWS + 1
        spec = SpectrumSpec.single(1000)
        got = list(enumerate_eigenvalues(spec, 1000).blocks())
        assert len(got) > 4
        assert max(len(v) for v, _ in got) <= spectrum.WINDOW_ROWS + 1
        assert _joined(got) == oracles.bucket_enumeration(spec, 1000)


class TestDimensionFit:
    def test_gasket_limit_slope(self):
        fit = dimension_fit(SpectrumSpec.gasket_limit(), 10.0, 1e5)
        assert 1.53 <= fit.slope <= 1.63
        assert fit.stderr < 0.05

    def test_single_interval_slope(self):
        fit = dimension_fit(SpectrumSpec.single(), 100.0, 1e5)
        assert 0.97 <= fit.slope <= 1.03

    def test_finite_gasket_crossover(self):
        # far above pi*2^n the finite sum is linear in the cutoff
        fit = dimension_fit(SpectrumSpec.gasket(2), 2e4, 1e5, grid_size=20)
        assert 0.97 <= fit.slope <= 1.03

    def test_counts_past_int64_stay_exact(self):
        # N(1e20) of the gasket limit is about 1.7e32: the counts are the
        # exact ints, not floats cast back to int64
        fit = dimension_fit(SpectrumSpec.gasket_limit(), 50, 1e20, grid_size=3)
        want = [n for _, n in counting_function(SpectrumSpec.gasket_limit(),
                                                fit.grid.tolist())]
        assert fit.counts.tolist() == want and want[-1] > 2**63

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            dimension_fit(SpectrumSpec.single(), 10, 100, grid_size=1)
        with pytest.raises(ValueError, match="degenerate|below"):
            dimension_fit(SpectrumSpec.single(), 100, 100)
        with pytest.raises(ValueError, match="below pi"):
            dimension_fit(SpectrumSpec.single(), 1.0, 100)


class TestZeta:
    def test_series_oracle(self):
        # sum over k of (k+1/2)^-2 is pi^2/2; lam=pi makes the factor 1
        z = zeta_partial(SpectrumSpec.single(Fraction(math.pi)), 2.0)
        assert z.value == pytest.approx(math.pi**2, abs=1e-10)

    def test_partial_summation_oracle(self):
        brute = sum((k + 0.5) ** -2 for k in range(2 * 10**6))
        z = zeta_partial(SpectrumSpec.single(Fraction(math.pi)), 2.0)
        assert z.value == pytest.approx(2 * brute, abs=1e-5)

    def test_cap_monotone(self):
        spec = SpectrumSpec.gasket_limit()
        vals = [zeta_partial(spec, 1.3, max_curves=c).value
                for c in (10, 100, 1000)]
        assert vals[0] < vals[1] < vals[2]

    def test_divergence_toward_critical_exponent(self):
        # partial sums keep growing with the cap near s = log2(3), but
        # are essentially saturated well above it
        spec = SpectrumSpec.gasket_limit()
        near_growth = (zeta_partial(spec, 1.60, max_curves=10**5).value
                       - zeta_partial(spec, 1.60, max_curves=10**3).value)
        far_growth = (zeta_partial(spec, 2.50, max_curves=10**5).value
                      - zeta_partial(spec, 2.50, max_curves=10**3).value)
        assert near_growth > 100 * far_growth

    def test_rejects_s_at_most_one(self):
        with pytest.raises(ValueError, match="diverge"):
            zeta_partial(SpectrumSpec.single(), 1.0)

    def test_limit_requires_cap(self):
        with pytest.raises(ValueError, match="cap"):
            zeta_partial(SpectrumSpec.gasket_limit(), 2.0)
