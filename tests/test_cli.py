import csv
import hashlib
import io
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

import oracles
from prefractal import __version__, modes, spectrum
from prefractal.cli import _json_chunks, _parse_fraction, _parse_measure, build_parser, main
from prefractal.curves import curve_count, vertex_count
from prefractal.gasket import (
    build_gasket,
    complex_from_dict,
    complex_to_dict,
)
from prefractal.metric import gasket_metric_graph
from prefractal.spectrum import SpectrumSpec, enumerate_eigenvalues


# each command's one-line help and its options, as `--help` shows them
COMMAND_HELP = {
    "gen": "write a prefractal complex",
    "gh-table": "two-scale convergence bounds per level",
    "spectrum": "enumerate eigenvalues up to a cutoff",
    "dimension": "log-log slope of the counting function",
    "kantorovich": "transport distance between measures on V_n",
    "extent": "certified two-scale Dirac bound",
    "covariant": "projection reach under time evolution",
}
COMMAND_OPTIONS = {
    "gen": ["--geometry", "--level", "--tol", "--strict", "--out", "--format"],
    "gh-table": ["--max-level", "--m", "--samples", "--out", "--format"],
    "spectrum": ["--geometry", "--level", "--infinite", "--cutoff", "--out", "--format"],
    "dimension": ["--geometry", "--level", "--infinite", "--lambda-min", "--lambda-max",
                  "--grid", "--out", "--format"],
    "kantorovich": ["--level", "--mu", "--nu", "--out"],
    "extent": ["--n", "--m", "--alpha", "--samples", "--trials", "--seed", "--out",
               "--format"],
    "covariant": ["--n", "--epsilon", "--trials", "--seed", "--out"],
}


def _no_build(level, **kwargs):
    raise AssertionError("built the level-%d complex" % level)


def _no_counts(level):
    # build_gasket's first step after its guard is counting V_0, ..., V_level
    raise AssertionError("built the complex")


def _random_measure(rng, points) -> str:
    """index:weight list with random rational weights on `points`."""
    raw = [rng.randint(1, 9) for _ in points]
    return ",".join("%d:%d/%d" % (p, r, sum(raw)) for p, r in zip(points, raw))


def _random_kantorovich(level, k_mu, k_nu, seed) -> list:
    """kantorovich argv with seeded random measures on disjoint supports."""
    rng = random.Random(seed)
    picks = rng.sample(range(vertex_count(level)), k_mu + k_nu)
    mu = _random_measure(rng, picks[:k_mu])
    return ["kantorovich", "--level", str(level), "--mu", mu,
            "--nu", _random_measure(rng, picks[k_mu:])]


def _run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestGen:
    def test_sg_complex_counts(self, capsys):
        code, out, err = _run(capsys, "gen", "--geometry", "sg", "--level", "2")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["schemaVersion"] == 2
        assert doc["command"] == "gen"
        tris = [t for t in doc["complex"]["triangles"] if t["level"] == 2]
        assert len(tris) == 9
        assert len(doc["complex"]["curves"]) == curve_count(2)

    def test_round_trips_through_schema_parser(self, capsys):
        code, out, _ = _run(capsys, "gen", "--level", "2")
        cx = complex_from_dict(json.loads(out)["complex"])
        assert cx.max_level == 2
        assert cx.b_n == curve_count(2)
        assert sum(len(cx.curve_ends(m)) for m in range(3)) == curve_count(2)

    def test_cap_violation_names_the_cap(self, capsys):
        code, out, err = _run(capsys, "gen", "--level", "30")
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "validation"
        assert payload["exitCode"] == 2
        assert "cap" in payload["message"]

    def test_oversized_level_names_the_estimate(self, capsys):
        code, out, err = _run(capsys, "gen", "--level", "15")
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "validation"
        assert re.search(r"needs about \d+ MiB, above the guard of 1024 MiB",
                         payload["message"])

    def test_json_guard_refuses_before_building(self, capsys, monkeypatch):
        # build_gasket's one estimate covers the streamed document: level 14
        # (357 MiB measured) gets past its guard, level 15 is refused
        monkeypatch.setattr("prefractal.gasket.vertex_count", _no_counts)
        code, out, err = _run(capsys, "gen", "--level", "15", "--format", "json")
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "validation"
        assert payload["message"] == (
            "max_level 15 is past the size cap: the complex needs about 2002 MiB, "
            "above the guard of 1024 MiB")
        with pytest.raises(AssertionError, match="built the complex"):
            main(["gen", "--level", "14", "--format", "json"])

    def test_harmonic_json_guard_refuses_before_building(self, capsys, monkeypatch):
        # the harmonic length columns cost more per curve than the sg
        # complex: build_harmonic_gasket refuses level 13, which the sg
        # build admits, and harmonic level 12 (550 MiB measured) gets past it
        monkeypatch.setattr("prefractal.harmonic.build_gasket", _no_build)
        monkeypatch.setattr("prefractal.gasket.vertex_count", _no_counts)
        code, out, err = _run(capsys, "gen", "--geometry", "harmonic",
                              "--level", "13", "--format", "json")
        assert code == 2 and out == ""
        assert json.loads(err)["message"] == (
            "max_level 13 is past the size cap: the complex with its harmonic lengths "
            "needs about 2084 MiB, above the guard of 1024 MiB")
        with pytest.raises(AssertionError, match="built the complex"):
            main(["gen", "--level", "13", "--format", "json"])
        with pytest.raises(AssertionError, match="built the level-12 complex"):
            main(["gen", "--geometry", "harmonic", "--level", "12", "--format", "json"])

    @pytest.mark.parametrize("level", range(6))
    def test_harmonic_json_is_the_dumps_text(self, level, capsys):
        # the complex is written row by row and the document key by key;
        # the text is still json.dumps's, with the complex of the sg build
        code, out, _ = _run(capsys, "gen", "--geometry", "harmonic",
                            "--level", str(level))
        assert code == 0
        doc = json.loads(out)
        assert doc["complex"] == complex_to_dict(build_gasket(level))
        assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("geometry", ["sg", "harmonic"])
    def test_svg_guard_refuses_before_building(self, geometry, capsys, monkeypatch):
        # the sg polygons stream like sg JSON and share build_gasket's
        # estimate (632 MiB measured at level 14), so level 15 is the first
        # refused; the harmonic drawing adds the triples and their plane
        # images (341 MiB at level 13) and is refused from level 14
        first, what, mib = ((15, "the complex", 2002) if geometry == "sg"
                            else (14, "the complex with its harmonic drawing", 1181))
        monkeypatch.setattr("prefractal.gasket.vertex_count", _no_counts)
        code, out, err = _run(capsys, "gen", "--geometry", geometry,
                              "--level", str(first), "--format", "svg")
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["message"] == (
            "max_level %d is past the size cap: %s needs about %d MiB, "
            "above the guard of 1024 MiB" % (first, what, mib))
        with pytest.raises(AssertionError, match="built the complex"):
            main(["gen", "--geometry", geometry, "--level", str(first - 1), "--format", "svg"])

    @pytest.mark.parametrize("geometry,fmt,what", [
        ("sg", "json", "the complex"), ("sg", "svg", "the complex"),
        ("harmonic", "json", "the complex with its harmonic lengths"),
        ("harmonic", "svg", "the complex with its harmonic drawing")])
    @pytest.mark.parametrize("level", ["40", "4300", "99999999999999999999"])
    def test_huge_levels_are_estimated_without_their_curve_count(
            self, geometry, fmt, what, level, capsys, monkeypatch):
        # the estimate is taken in floats, finite up to about level 640 and
        # inf past it, so 3^level is never computed
        def no_curve_count(n):
            raise AssertionError("counted the curves of level %d" % n)

        for module in ("curves", "gasket", "harmonic"):
            monkeypatch.setattr("prefractal.%s.curve_count" % module, no_curve_count)
        code, out, err = _run(capsys, "gen", "--geometry", geometry, "--level", level,
                              "--format", fmt)
        assert code == 2 and out == ""
        assert re.fullmatch(r"max_level %s is past the size cap: %s needs about (\d+|inf) "
                            r"MiB, above the guard of 1024 MiB" % (level, what),
                            json.loads(err)["message"])
        assert ("inf MiB" in err) == (level != "40")

    @pytest.mark.parametrize("argv,code", [
        (["gen", "--geometry", "harmonic", "--level", "3", "--tol", "1e-30",
          "--strict"], 3),
        (["gen", "--level", "15"], 2),
        (["gen", "--geometry", "harmonic", "--level", "2", "--tol", "0"], 2)])
    def test_failed_gen_writes_nothing(self, argv, code, capsys, tmp_path):
        # every check runs before the first chunk, so a refused or failed
        # command leaves neither stdout text nor an --out file
        assert _run(capsys, *argv)[:2] == (code, "")
        path = tmp_path / "out.json"
        assert _run(capsys, *argv, "--out", str(path))[:2] == (code, "")
        assert not path.exists()

    def test_unopenable_out_path_exits_two(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = _run(capsys, "gen", "--level", "1", "--out", str(path))
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "validation" and payload["exitCode"] == 2
        assert str(path) in payload["message"]
        assert not path.parent.exists()

    def test_json_writer_holds_a_block_not_the_document(self, monkeypatch):
        # the level-8 document is 7.9 MB; writing it must not peak at a
        # quarter of that, so a join before the write fails here
        cx = build_gasket(8)
        monkeypatch.setattr("prefractal.gasket.build_gasket", lambda level: cx)
        written = []
        monkeypatch.setattr("sys.stdout", SimpleNamespace(
            write=lambda chunk: written.append(len(chunk))))
        tracemalloc.start()
        try:
            assert main(["gen", "--level", "8", "--format", "json"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(written) > 7_900_000 and len(written) > 100
        assert peak < sum(written) / 4, peak

    def test_harmonic_carries_quadrature_metadata(self, capsys):
        code, out, _ = _run(capsys, "gen", "--geometry", "harmonic",
                            "--level", "1", "--tol", "1e-6")
        assert code == 0
        doc = json.loads(out)
        assert doc["subdivision"] == {"adjacent": 2, "opposite": 1,
                                      "denominator": 5}
        rows = doc["lengths"]
        assert len(rows) == curve_count(1)
        assert all({"depth", "converged", "length"} <= set(r) for r in rows)
        assert doc["quadrature"] == {"tol": 1e-6, "refinementCap": 12,
                                     "unconverged": []}

    def test_strict_harmonic_flags_cap_hits(self, capsys):
        code, out, err = _run(capsys, "gen", "--geometry", "harmonic",
                              "--level", "1", "--tol", "1e-30", "--strict")
        assert code == 3 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "non-convergence"
        assert "cap" in payload["message"]

    def test_strict_harmonic_level7_converges(self, capsys, tmp_path):
        path = tmp_path / "h7.json"
        code, _, err = _run(capsys, "gen", "--geometry", "harmonic", "--level", "7",
                            "--strict", "--out", str(path))
        assert code == 0 and err == ""
        doc = json.loads(path.read_text())
        assert doc["quadrature"]["unconverged"] == []
        assert len(doc["lengths"]) == curve_count(7)
        # depth stays absolute: the curve's level plus its refinements
        assert all(r["level"] < r["depth"] <= r["level"] + 12 for r in doc["lengths"])

    def test_harmonic_svg_computes_no_lengths(self, capsys, monkeypatch):
        def no_lengths(*args, **kwargs):
            raise AssertionError("computed harmonic curve lengths")

        monkeypatch.setattr("prefractal.harmonic.harmonic_lengths", no_lengths)
        code, out, err = _run(capsys, "gen", "--geometry", "harmonic",
                              "--level", "3", "--format", "svg")
        assert code == 0 and err == ""
        assert out.startswith("<svg") and out.count("<polygon") == 27

    def test_svg_output(self, capsys):
        code, out, _ = _run(capsys, "gen", "--level", "2", "--format", "svg")
        assert code == 0
        assert out.startswith("<svg") and "<polygon" in out


class TestTables:
    def test_gh_table_rows(self, capsys):
        code, out, _ = _run(capsys, "gh-table", "--max-level", "2", "--m", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,m,bound,boundWithSlack,referenceBound,agreementDiscrepancy"
        assert len(lines) == 4
        for line in lines[1:]:
            n, m, bound, bound_slack, ref, agree = line.split(",")
            assert float(agree) == 0.0
            assert float(bound) <= float(ref)
            assert float(bound) <= float(bound_slack)

    def test_gh_table_json_and_svg(self, capsys):
        code, out, _ = _run(capsys, "gh-table", "--max-level", "1", "--m", "3",
                            "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["header"][0] == "n" and len(doc["rows"]) == 2
        code, out, _ = _run(capsys, "gh-table", "--max-level", "1", "--m", "3",
                            "--format", "svg")
        assert code == 0 and out.startswith("<svg")

    def test_gh_table_rejects_inverted_levels(self, capsys):
        code, _, err = _run(capsys, "gh-table", "--max-level", "5", "--m", "3")
        assert code == 2
        assert json.loads(err)["error"] == "validation"

    def test_gh_table_refuses_oversized_agreement(self, capsys, monkeypatch):
        # the rows hold Fractions over 2^m: the estimate of their gcds and
        # ints refuses the first m past the guard and lets the last one in
        def no_rows(n, m):
            raise AssertionError("reached the rows")

        monkeypatch.setattr("prefractal.curves.cell_certificate", no_rows)
        for max_level, m, mib, seconds in [
                # the default 7 rows: about 1.05e-7 s per bit of m, so
                # 284,575,981 is the largest m run (6.0 s and 219 MiB
                # measured at m = 1e8)
                (6, 284575981, 831, "30"),
                # every row up to m: n(m - n) bits of gcd per row (2.8 s
                # measured for --max-level 10000 --m 10000, 4.8 s estimated)
                (19403, 19403, 17, "30"),
                # past the memory guard too, at 3 B per bit of m
                (6, 10**9, 2878, "105")]:
            refused = m + 1 if mib < 1024 else m
            code, out, err = _run(capsys, "gh-table", "--max-level", str(max_level),
                                  "--m", str(refused))
            assert code == 2 and out == ""
            payload = json.loads(err)
            assert payload["error"] == "validation"
            assert payload["message"] == (
                "gh-table: %d exact rows over 2^%d needs about %d MiB and %s s, above the "
                "guards of 1024 MiB and 30 s" % (max_level + 1, refused, mib, seconds))
            if refused > m:
                with pytest.raises(AssertionError, match="reached the rows"):
                    main(["gh-table", "--max-level", str(max_level), "--m", str(m)])

    def test_gh_table_runs_past_the_old_level_cap(self, capsys):
        # m = 14 and up were refused while the rows came from the level-m
        # complex; the generic cell gives the same rows at any m
        code, out, _ = _run(capsys, "gh-table", "--max-level", "2", "--m", "100000")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [r[:2] for r in rows] == [["0", "100000"], ["1", "100000"], ["2", "100000"]]
        assert [r[2] for r in rows] == ["1.0", "0.5", "0.25"]
        assert all(r[-1] == "0.0" for r in rows)

    def test_gh_table_svg_names_a_bound_below_every_float(self, capsys):
        # 2^-1076 rounds to 0, which a log axis cannot place
        code, out, err = _run(capsys, "gh-table", "--max-level", "1100", "--m", "1100",
                              "--format", "svg")
        assert code == 2 and out == ""
        assert json.loads(err)["message"] == (
            "the bound at level 1076 underflows to 0 as a float, which the log axis "
            "of --format svg cannot show")
        code, out, _ = _run(capsys, "gh-table", "--max-level", "1075", "--m", "1100",
                            "--format", "svg")
        assert code == 0 and out.startswith("<svg")

    def test_kantorovich_guard_refuses_before_building(self, capsys, monkeypatch):
        # the estimate grows with the support union's size squared and with
        # its size times the level: 5,101 points at level 9 are refused
        # before any table is built, and level 100,000, where not even one
        # point's tables fit, by GasketSpace itself
        def no_oracle(*args, **kwargs):
            raise AssertionError("reached the oracle")

        monkeypatch.setattr("prefractal.curves.GasketSpace._tables", no_oracle)
        mu = ",".join("%d:1/5100" % p for p in range(5100))
        for argv, what, mib in ((["--level", "9", "--mu", mu, "--nu", "5100:1"],
                                 "5101 support points at level 9", 1063),
                                (["--level", "100000", "--mu", "0:1", "--nu", "1:1"],
                                 "1 support point at level 100000", 19151)):
            code, out, err = _run(capsys, "kantorovich", *argv)
            assert code == 2 and out == ""
            assert json.loads(err)["message"] == (
                "%s: the distance block and the oracle's tables needs "
                "about %d MiB, above the guard of 1024 MiB" % (what, mib))
        # 5,001 points pass, at an estimated 1023 MiB
        mu = ",".join("%d:1/5000" % p for p in range(5000))
        with pytest.raises(AssertionError, match="reached the oracle"):
            main(["kantorovich", "--level", "9", "--mu", mu, "--nu", "5000:1"])

    @pytest.mark.parametrize("level", [13, 20, 38])
    def test_kantorovich_guard_admits_levels_past_twelve(self, level, capsys):
        # the graph guard refused level 13; the oracle's tables grow with
        # the level, so 40 + 40 points run up to level 2,414
        code, out, _ = _run(capsys, *_random_kantorovich(level, 40, 40, seed=level))
        assert code == 0
        tr = json.loads(out)["transport"]
        assert tr["exact"] is True and tr["gap"] == 0.0 and len(tr["dual"]) == 80

    def test_kantorovich_at_level_eleven_builds_no_graph(self, capsys, monkeypatch):
        # the support block comes from vertex ids: no complex is built and
        # no shortest path is run, and the result is exact with gap 0
        from prefractal import metric

        def refuse(*args, **kwargs):
            raise AssertionError("ran a traversal")

        monkeypatch.setattr("prefractal.gasket.build_gasket", _no_build)
        monkeypatch.setattr(metric, "_relax", refuse)
        code, out, _ = _run(capsys, *_random_kantorovich(11, 40, 40, seed=1))
        assert code == 0
        tr = json.loads(out)["transport"]
        assert tr["exact"] is True and tr["gap"] == 0.0 and len(tr["dual"]) == 80

    @pytest.mark.parametrize("n,m", [(11, 11), (10, 12), (0, 12), (12, 12),
                                     (0, 13), (10, 13), (13, 13)])
    def test_extent_guard_admits_measured_levels(self, n, m, monkeypatch, capsys):
        # these levels built a level-m complex and its cell trace (228 MiB
        # at m = 12 and 622 MiB at m = 13 measured); now they build neither
        monkeypatch.setattr("prefractal.gasket.build_gasket", _no_build)
        code, out, _ = _run(capsys, "extent", "--n", str(n), "--m", str(m))
        assert code == 0
        assert out.splitlines()[1].startswith("%d,%d," % (n, m))

    @pytest.mark.parametrize("n,m,trials,mib", [
        # about 9.6e-5 s per trial at m = 3 (6.4 s measured for 100,000)
        (1, 3, 312499, 17),
        # 5.3e-4 s per trial at m = 39 (8.4 s measured for 20,000)
        (20, 39, 56818, 17),
        # no trials: one row, 2e-11 s per unit of n(m - n)
        (1223995, 2447990, 0, 24)])
    def test_extent_guard_refuses_past_its_budget(self, n, m, trials, mib, capsys,
                                                  monkeypatch):
        # the first trial count (or m) past the 30 s guard is refused with
        # both estimates, by certify_extent, or with no trials by the row's
        # cell_certificate; the last one under it reaches the bound chain
        def no_certificate(*args, **kwargs):
            raise AssertionError("reached the certificate")

        monkeypatch.setattr("prefractal.transport.gh_upper_bound", no_certificate)
        refused = [str(n), str(m + (trials == 0)), str(trials + (trials > 0))]
        code, out, err = _run(capsys, "extent", "--n", refused[0], "--m", refused[1],
                              "--trials", refused[2])
        assert code == 2 and out == ""
        what = ("extent at levels (%s, %s) with %s mixture trials" % tuple(refused) if trials
                else "the exact row at levels (%s, %s)" % tuple(refused[:2]))
        assert json.loads(err)["message"] == (
            "%s needs about %d MiB and 30 s, above the guards of 1024 MiB and 30 s"
            % (what, mib))
        with pytest.raises(AssertionError, match="reached the certificate"):
            main(["extent", "--n", str(n), "--m", str(m), "--trials", str(trials)])

    def test_extent_cost_grows_with_its_input(self, capsys):
        # both estimates of refused runs: seconds grow with the trials and
        # with m, and bytes with m
        def estimate(*argv):
            code, _, err = _run(capsys, "extent", *argv)
            assert code == 2
            mib, seconds = re.search(r"needs about (\d+) MiB and (\S+) s,",
                                     json.loads(err)["message"]).groups()
            return int(mib), float(seconds)

        by_trials = [estimate("--n", "1", "--m", "3", "--trials", str(10**k))
                     for k in range(6, 10)]
        by_level = [estimate("--n", "1", "--m", str(m), "--trials", "10000000")
                    for m in (3, 8, 20, 39)]
        by_bits = [estimate("--n", "0", "--m", str(m), "--trials", "0")
                   for m in (4 * 10**8, 8 * 10**8, 16 * 10**8)]
        for row in (by_trials, by_level, by_bits):
            assert [s for _, s in row] == sorted(s for _, s in row)
            assert len({s for _, s in row}) == len(row)
        assert by_bits[0][0] < by_bits[1][0] < by_bits[2][0]
        assert by_trials[0][0] == by_trials[-1][0] == 17

    def test_extent_trials_past_level_39_are_refused(self, capsys):
        # mixture atoms are drawn by index from range(|V_m|)
        code, out, err = _run(capsys, "extent", "--n", "0", "--m", "40")
        assert code == 2 and out == ""
        assert json.loads(err)["message"] == (
            "mixture trials draw their atoms from range(|V_40|), past sys.maxsize from "
            "m = 40 on; ask for no trials there")
        code, out, _ = _run(capsys, "extent", "--n", "0", "--m", "40", "--trials", "0")
        assert code == 0 and out.splitlines()[1].startswith("0,40,")

    @pytest.mark.parametrize("grid,mib", [(1733646, 1024), (10**9, 572236)])
    def test_dimension_guard_refuses_before_the_grid(self, grid, mib, capsys,
                                                     monkeypatch):
        # 1,733,646 points is the first grid past the memory guard, and
        # both are past the seconds guard, at 6.4e-5 s per cutoff for 7
        # levels with modes at 100; the grid's end points are its first
        # step after the guard
        seconds = {1733646: "111", 10**9: "6.4e+04"}[grid]

        def no_grid(*args, **kwargs):
            raise AssertionError("built the grid")
        monkeypatch.setattr("prefractal.spectrum.math.log", no_grid)
        code, out, err = _run(capsys, "dimension", "--infinite", "--lambda-min",
                              "10", "--lambda-max", "100", "--grid", str(grid))
        assert code == 2 and out == ""
        assert json.loads(err)["message"] == (
            "dimension on %d cutoffs: the grid, its counts and the fit needs "
            "about %d MiB and %s s, above the guards of 1024 MiB and 30 s"
            % (grid, mib, seconds))

    @pytest.mark.parametrize("argv,message", [
        (["covariant", "--n", "2", "--epsilon", "inf"],
         "epsilon must be positive and finite, got inf"),
        (["spectrum", "--level", "2", "--cutoff", "inf"],
         "cutoff must be finite and nonnegative, got inf"),
        (["extent", "--n", "1", "--m", "2", "--trials", "-1"],
         "mixture trials must be nonnegative, got -1"),
    ] + [(["gen", "--geometry", "harmonic", "--level", "6", "--tol", tol],
          "quadrature tol must be positive and finite, got %s" % float(tol))
         for tol in ("nan", "0", "-1", "inf")]
      + [(["gen", "--level", "2", "--tol", "nan"],
          "quadrature tol must be positive and finite, got nan"),
         (["dimension", "--infinite", "--lambda-min", "10", "--lambda-max", "inf"],
          "upper cutoff must be finite, got inf"),
         (["dimension", "--infinite", "--lambda-min", "nan", "--lambda-max", "100"],
          "lower cutoff must be finite, got nan")]
      + [(["gh-table", "--max-level", "-3", "--m", m],
          "--max-level must be nonnegative, got -3") for m in ("12", "13")]
      + [(["gh-table", "--max-level", "8", "--m", "12", "--samples", "0"],
          "need at least one sample per curve"),
         (["extent", "--n", "10", "--m", "12", "--samples", "0"],
          "need at least one sample per curve"),
         (["kantorovich", "--level", "2", "--mu", "0:1/0", "--nu", "1:1"],
          "fraction '1/0' has a zero denominator"),
         (["extent", "--n", "1", "--m", "2", "--alpha", "1/0"],
          "fraction '1/0' has a zero denominator")]
      # |V_11| = 265,722: each index is checked before the guard and the build
      + [(["kantorovich", "--level", "11", "--mu", mu, "--nu", nu],
          "%s has support index 999999999 but the space has 265722 points" % side)
         for mu, nu, side in (("999999999:1", "0:1", "mu"),
                              ("0:1", "999999999:1", "nu"))]
      # both parse to 0 and are refused before the level-12 build
      + [(["extent", "--n", "0", "--m", "12", "--alpha", alpha],
          "alpha must be positive, got 0") for alpha in ("0", "0.0")]
      # text that is no finite number is named, not passed to int() or Fraction()
      + [(["kantorovich", "--level", "2", "--mu", mu, "--nu", "1:1"],
          "%r is not a finite integer, decimal or fraction" % weight)
         for mu, weight in (("0:nan", "nan"), ("0:1e400", "1e400"), ("0:", ""))]
      + [(["kantorovich", "--level", "2", "--mu", "x:1", "--nu", "1:1"],
          "measure index 'x' is not an integer"),
         (["extent", "--n", "1", "--m", "2", "--alpha", "inf"],
          "'inf' is not a finite integer, decimal or fraction"),
         (["dimension", "--level", "-2", "--lambda-min", "10", "--lambda-max", "100"],
          "level must be nonnegative, got -2"),
         (["spectrum", "--level", "-1", "--cutoff", "10"],
          "level must be nonnegative, got -1"),
         # a decimal that is not 0 but underflows to it is refused by the parse
         (["kantorovich", "--level", "2", "--mu", "0:1e-400,1:1", "--nu", "2:1"],
          "'1e-400' is not zero but underflows to 0 as a float"),
         (["extent", "--n", "0", "--m", "12", "--alpha", "0.5e-400"],
          "'0.5e-400' is not zero but underflows to 0 as a float"),
         (["kantorovich", "--level", "-1", "--mu", "0:1", "--nu", "1:1"],
          "level must be nonnegative, got -1"),
         # 2/epsilon overflows: the time grid would be NaN phases, max drops them
         (["covariant", "--n", "2", "--epsilon", "1e-308", "--trials", "5"],
          "epsilon 1e-308 is too small: the time grid's 2/epsilon is not finite")])
    def test_bad_numeric_flags_exit_two(self, argv, message, capsys, monkeypatch):
        # each is refused before any complex is built
        monkeypatch.setattr("prefractal.gasket.build_gasket", _no_build)
        code, out, err = _run(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "validation", "exitCode": 2,
                                   "message": message}

    @pytest.mark.parametrize("n,m", [(-5, 20), (5, 3)])
    def test_extent_rejects_levels_out_of_order(self, n, m, capsys):
        code, out, err = _run(capsys, "extent", "--n", str(n), "--m", str(m))
        assert code == 2 and out == ""
        assert json.loads(err)["message"] == "need 0 <= n <= m, got n=%d m=%d" % (n, m)

    def test_gh_table_certifies_every_level_up_to_nine(self, capsys):
        # V_9 inside the level-10 graph; the hop-block check refused this
        code, out, _ = _run(capsys, "gh-table", "--max-level", "9", "--m", "10")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(10))
        assert all(float(r[-1]) == 0.0 for r in rows)

    def test_spectrum_matches_library(self, capsys):
        code, out, _ = _run(capsys, "spectrum", "--level", "1",
                            "--cutoff", "20", "--format", "csv")
        assert code == 0
        enum = enumerate_eigenvalues(SpectrumSpec.gasket(1), 20)
        lines = out.strip().splitlines()
        assert lines[0] == "value,multiplicity"
        got = [(float(a), int(b)) for a, b in
               (line.split(",") for line in lines[1:])]
        assert got == [row for block in enum.blocks() for row in zip(*block)]

    # the %-templates write what csv.writer and json.dumps wrote from the
    # whole lists, across 5-row windows and with no rows at all
    @pytest.mark.parametrize("argv", [
        ("--level", "0", "--cutoff", "1"),
        ("--level", "3", "--cutoff", "300"),
        ("--infinite", "--cutoff", "2000")])
    def test_spectrum_text_matches_the_whole_list_writers(self, argv, capsys,
                                                          monkeypatch):
        monkeypatch.setattr(spectrum, "WINDOW_ROWS", 5)
        spec = (SpectrumSpec.gasket_limit() if argv[0] == "--infinite"
                else SpectrumSpec.gasket(int(argv[1])))
        cutoff = float(argv[-1])
        values, mults = oracles.bucket_enumeration(spec, cutoff)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("value", "multiplicity"))
        writer.writerows(zip(values, mults))
        assert _run(capsys, "spectrum", *argv, "--format", "csv") == (0, buf.getvalue(), "")
        code, out, _ = _run(capsys, "spectrum", *argv)
        doc = json.loads(out)
        assert doc["values"] == values and doc["multiplicities"] == mults
        assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_spectrum_holds_one_window(self, fmt, monkeypatch):
        # 159,155 rows, more than two windows: the peak is bounded by one
        # window (about 150 B per row of it measured), not by the rows
        lines = []
        monkeypatch.setattr("sys.stdout", SimpleNamespace(
            write=lambda chunk: lines.append(chunk.count("\n"))))
        tracemalloc.start()
        try:
            assert main(["spectrum", "--level", "0", "--cutoff", "5e5",
                         "--format", fmt]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(lines) > 159_155 > 2 * spectrum.WINDOW_ROWS
        assert peak < 192 * spectrum.WINDOW_ROWS, peak

    def test_spectrum_guard_counts_rows(self, capsys):
        # refused before the first chunk, naming rows, bytes and seconds
        code, out, err = _run(capsys, "spectrum", "--infinite", "--cutoff", "1e8")
        assert code == 2 and out == ""
        assert re.fullmatch(r"enumerating 63661977 rows up to cutoff 100000000.0 needs "
                            r"about \d+ MiB and \S+ s, above the guards of 1024 MiB "
                            r"and 30 s", json.loads(err)["message"])
        # 14,291,790 and 256,865,082 eigenvalues, which the eigenvalue
        # count refused, are 63,537 and 63,661 rows
        for argv, rows in ((("--level", "8"), 63_537), (("--infinite",), 63_661)):
            code, out, _ = _run(capsys, "spectrum", *argv, "--cutoff", "1e5",
                                "--format", "csv")
            assert code == 0 and out.count("\n") == rows + 1

    def test_spectrum_needs_a_spec(self, capsys):
        code, _, err = _run(capsys, "spectrum", "--cutoff", "10")
        assert code == 2
        assert "level" in json.loads(err)["message"]

    def test_dimension_fit_slope(self, capsys):
        code, out, _ = _run(capsys, "dimension", "--infinite",
                            "--lambda-min", "10", "--lambda-max", "1e4",
                            "--grid", "25")
        assert code == 0
        fit = json.loads(out)["fit"]
        assert 1.5 < fit["slope"] < 1.66
        assert len(fit["grid"]) == 25

    def test_kantorovich_splits_mass(self, capsys):
        code, out, _ = _run(capsys, "kantorovich", "--level", "1",
                            "--mu", "0:1/2,1:1/2", "--nu", "2:1")
        assert code == 0
        tr = json.loads(out)["transport"]
        assert tr["value"] == 1.0 and tr["exact"] and tr["gap"] == 0.0
        assert sorted(tuple(row) for row in tr["plan"]) == [(0, 2, 0.5), (1, 2, 0.5)]

    def test_kantorovich_exact_past_sixty_four_points(self, capsys):
        picks = random.Random(4040).sample(range(vertex_count(5)), 80)
        code, out, _ = _run(capsys, *_random_kantorovich(5, 40, 40, seed=4040))
        assert code == 0
        tr = json.loads(out)["transport"]
        assert tr["exact"] is True and tr["gap"] == 0.0
        assert sorted(i for i, _ in tr["dual"]) == sorted(picks)

    def test_extent_table_row(self, capsys):
        code, out, _ = _run(capsys, "extent", "--n", "2", "--m", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,m,alpha,epsilon,bound,empiricalMax"
        n, m, alpha, eps, bound, emp = lines[1].split(",")
        assert (int(n), int(m)) == (2, 5)
        assert math.isclose(float(alpha), float(eps) / 4)
        assert float(emp) <= float(bound)

    def test_extent_explicit_alpha(self, capsys):
        code, out, _ = _run(capsys, "extent", "--n", "2", "--m", "4",
                            "--alpha", "1/16", "--format", "json")
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["alpha"] == 0.0625
        assert rep["empirical_max"] <= rep["bound"]

    def test_covariant_guard_refuses_past_its_budget(self, capsys, monkeypatch):
        # with the work guard set to 20 trials' estimate, 20 trials run and
        # 21 are refused with both estimates before the first trial
        def no_trial(*args, **kwargs):
            raise AssertionError("ran a trial")

        budget = 20 * modes._REACH_TRIAL_SECONDS
        monkeypatch.setattr("prefractal.curves.WORK_GUARD_SECONDS", budget)
        argv = ["covariant", "--n", "2", "--epsilon", "0.1", "--trials"]
        assert _run(capsys, *argv, "20")[0] == 0
        monkeypatch.setattr("prefractal.modes.random_mode_vector", no_trial)
        code, out, err = _run(capsys, *argv, "21")
        assert code == 2 and out == ""
        assert re.fullmatch(r"covariant with 21 trials needs about 17 MiB and \S+ s, "
                            r"above the guards of 1024 MiB and \d+ s",
                            json.loads(err)["message"])

    def test_covariant_cost_grows_with_its_trials(self, capsys):
        def seconds(trials):
            code, _, err = _run(capsys, "covariant", "--n", "2", "--epsilon", "0.1",
                                "--trials", str(trials))
            assert code == 2
            return float(re.search(r"and (\S+) s,", json.loads(err)["message"])[1])

        assert seconds(10**6) < seconds(10**7) < seconds(10**9)

    def test_covariant_past_the_drawn_levels_is_level_nine(self, capsys):
        # no drawn curve is deeper than level 8, so a huge n drops nothing,
        # as n = 9 does, with no 3^n computed
        reports = {}
        for n in ("9", "99999999999999999999"):
            code, out, _ = _run(capsys, "covariant", "--n", n, "--epsilon", "0.5",
                                "--trials", "1")
            assert code == 0
            reports[n] = json.loads(out)["report"]
        assert reports["99999999999999999999"].pop("n") == 99999999999999999999
        assert reports["9"].pop("n") == 9
        assert reports["99999999999999999999"] == reports["9"]

    def test_covariant_reach(self, capsys):
        code, out, _ = _run(capsys, "covariant", "--n", "4",
                            "--epsilon", "0.1", "--trials", "10")
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["below_epsilon"] is True
        assert rep["max_reach"] < 0.1


class TestPlumbing:
    def test_outputs_are_byte_identical(self, tmp_path, capsys):
        for k, argv in enumerate((["extent", "--n", "2", "--m", "4", "--format", "json"],
                                  ["kantorovich", "--level", "2", "--mu", "0:1",
                                   "--nu", "5:1"])):
            a = tmp_path / ("a%d.json" % k)
            b = tmp_path / ("b%d.json" % k)
            for path in (a, b):
                code = main(argv + ["--out", str(path)])
                capsys.readouterr()
                assert code == 0
            assert a.read_bytes() == b.read_bytes()

    # sha256 of outputs; any change to these bytes is a format change and
    # needs a schemaVersion bump. Schema 2 (refinementCap) changed the sg
    # and extent JSON only in that line; the SVG and CSV digests predate it.
    # The level-5 and level-7 kantorovich digests changed with the solve on
    # the support union: the same value and potentials, another optimal plan.
    GOLDEN = (
        (["gen", "--level", "5"],
         "b5c85e2cf099f47a46bdd467df04f3f6fef2cfd7ee61326cd0165309a6ac7005"),
        (["gen", "--level", "7"],
         "e729b1d12125b4ca7740d555a15139db8bad51ad0f6b66c3684faf4e9227fc86"),
        (["gen", "--level", "5", "--format", "svg"],
         "90d8229836c41bc8f2e60195220bdd109fb7b937d3fbca3d48225fa47cb906ab"),
        (["gen", "--geometry", "harmonic", "--level", "3"],
         "d250a1707d563dc2904ed33909f8d93401d903452f6c2276f5eaca9578614b63"),
        (["gen", "--geometry", "harmonic", "--level", "5", "--format", "svg"],
         "a65ea984fbc58ebc0663c20ddc0fcef3de14c0249174eca8f93cce44095b0c47"),
        (["gh-table", "--max-level", "3", "--m", "5"],
         "bf28c8b4f72e08a751ee1b6cb6bbe306a4e26e8d219323a20ca663cb6d967661"),
        (["extent", "--n", "2", "--m", "4", "--format", "json"],
         "ee7dc93ce5bf383955d92de289b054a86b3856dd6ba611a7277b22447c7a6ce1"),
        (["extent", "--n", "4", "--m", "8", "--trials", "5", "--seed", "1",
          "--format", "json"],
         "7ffa76f42eb2ee7d2ae1ecad3d24bef5b94dfae0efc5d7a51759ac45156da5af"),
        (["extent", "--n", "6", "--m", "9", "--trials", "20", "--seed", "3",
          "--format", "json"],
         "40eb9f42f6ff28f93c0a8823b097d065a15a8b2cf360ecff7665e0376f624af3"),
        (["extent", "--n", "9", "--m", "10", "--trials", "10", "--seed", "2",
          "--format", "json"],
         "97a582ce225c5e8d23d10d732f3d2f52ad417fde9a04cb458690c9850b5a70dc"),
        (["extent", "--n", "3", "--m", "7", "--alpha", "3/7", "--trials", "30",
          "--seed", "4", "--format", "json"],
         "71655291119bc9bd9a76460f2e931925c404d7727231d4b4832e22a53dc0038e"),
        (["kantorovich", "--level", "5",
          "--mu", ",".join("%d:1/16" % (22 * i) for i in range(16)),
          "--nu", ",".join("%d:%d/136" % (22 * i + 11, i + 1) for i in range(16))],
         "94d56c202c0831726173e75e86b167fdfd8239573e2884c1497847679b91a9d5"),
        (_random_kantorovich(7, 20, 25, seed=7),
         "8798d1d68d6d2c8fffe885a1115174162d00e79fd8b87221afc3a9058fd7e83c"),
        (["kantorovich", "--level", "4", "--mu", "0:0.25,7:0.5,30:0.25",
          "--nu", "2:0.1,15:0.6,40:0.3"],
         "bbfaf090d1d958a34888e6e35991ad6fb8df9de0d08b00f06624fea92e5e83ea"),
        (["covariant", "--n", "2", "--epsilon", "0.1", "--trials", "500",
          "--seed", "1"],
         "99835a41611d06101af6b16ba13559baceddceca92f935c1be4b43b46a62df68"),
        (["covariant", "--n", "4", "--epsilon", "0.01", "--trials", "100",
          "--seed", "7"],
         "2815504bc9073ce64a37ccee63f14a137e49b5d373507cae8771d4e0b33924b1"),
        (["dimension", "--infinite", "--lambda-min", "10", "--lambda-max", "1e5",
          "--grid", "200"],
         "605657d0bafdabb76ebc59d01cdd8eb5eeb4f7108d4a498330050349ca20bc44"),
        (["spectrum", "--level", "6", "--cutoff", "2000", "--format", "csv"],
         "4023462cb83b2277fc16723beabce835b5830df706cae23e53071e025c8358f4"),
    )

    @pytest.mark.parametrize("argv,digest", GOLDEN, ids=lambda v: " ".join(v)
                             if isinstance(v, list) else "")
    def test_outputs_match_golden_bytes(self, argv, digest, tmp_path, capsys):
        path = tmp_path / "out"
        assert main(argv + ["--out", str(path)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_kantorovich_goldens_have_the_whole_graph_value(self, capsys):
        # each golden query's value is min-cost flow's on the whole level graph
        for argv, _ in self.GOLDEN:
            if argv[0] == "kantorovich":
                level = int(argv[argv.index("--level") + 1])
                mu, nu = (_parse_measure(argv[argv.index(flag) + 1])
                          for flag in ("--mu", "--nu"))
                code, out, _ = _run(capsys, *argv)
                assert code == 0
                graph = gasket_metric_graph(build_gasket(level), level)
                assert (json.loads(out)["transport"]["value"]
                        == float(oracles.graph_transport(graph, mu, nu)))

    def test_covariant_never_evolves_whole_vectors(self, tmp_path, capsys,
                                                   monkeypatch):
        # the witness evolves only the projection defect, so the pinned
        # bytes come out with evolve, project and subtraction disabled
        def refuse(*args):
            raise AssertionError("whole-vector path used")
        monkeypatch.setattr("prefractal.modes.evolve", refuse)
        monkeypatch.setattr("prefractal.modes.project", refuse)
        monkeypatch.setattr("prefractal.modes.ModeVector.__sub__", refuse)
        argv, digest = next(g for g in self.GOLDEN if g[0][0] == "covariant")
        path = tmp_path / "out"
        assert main(argv + ["--out", str(path)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_json_text_matches_dumps_of_the_payload(self):
        # verbatim texts sit beside dumped values of every kind, strings
        # with newlines and empty containers included
        body = {"empty": [], "none": {}, "nested": {"b": [1.5, None], "a": "x\ny"},
                "text": "line\nbreak", "flag": True}
        texts = {"complex": [json.dumps({"z": [1, [2]], "a": {}}, sort_keys=True,
                                        indent=2).replace("\n", "\n  ")]}
        payload = {"schemaVersion": 2, "version": __version__, "command": "cmd",
                   "config": {"k": 1}, "complex": {"z": [1, [2]], "a": {}}, **body}
        assert ("".join(_json_chunks("cmd", {"k": 1}, body, texts))
                == json.dumps(payload, sort_keys=True, indent=2) + "\n")

    def test_flags_are_registered_only_where_read(self):
        for argv in (["gen", "--level", "1", "--seed", "1"],
                     ["extent", "--n", "1", "--m", "2", "--workers", "1"],
                     ["gh-table", "--workers", "1"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    @pytest.mark.parametrize("argv,message", [
        (["extent", "--n", "1", "--alpha", "1"],
         "the following arguments are required: --m"),
        # argparse takes -1:1 for a flag; --mu=-1:1 reaches the command
        (["kantorovich", "--level", "2", "--mu", "-1:1", "--nu", "1:1"],
         "argument --mu: expected one argument"),
        # another command's flag, and a command that is not one, with the
        # parser that gives arguments only to the command run
        (["kantorovich", "--trials", "3"],
         "the following arguments are required: --level, --mu, --nu"),
        (["kantorovich", "--level", "2", "--mu", "0:1", "--nu", "1:1", "--trials", "3"],
         "unrecognized arguments: --trials 3"),
        (["kantorovic", "--level", "2"],
         "argument command: invalid choice: 'kantorovic' (choose from 'gen', 'gh-table', "
         "'spectrum', 'dimension', 'kantorovich', 'extent', 'covariant')"),
    ])
    def test_argument_errors_print_the_json_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert json.loads(err) == {"error": "validation", "exitCode": 2,
                                   "message": message}

    def test_top_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        out, _ = capsys.readouterr()
        assert exc.value.code == 0
        for name, text in COMMAND_HELP.items():
            assert re.search(r"^    %s +%s$" % (re.escape(name), re.escape(text)), out,
                             re.MULTILINE), name

    @pytest.mark.parametrize("name", COMMAND_OPTIONS)
    def test_command_help_shows_its_options(self, name, capsys):
        # the parser gives only the command run its arguments; its help is
        # the one the parser with every command's arguments prints
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        out, _ = capsys.readouterr()
        assert exc.value.code == 0
        shown = set(re.findall(r"^  (--[a-z-]+|-h)", out, re.MULTILINE))
        assert shown == {"-h", *COMMAND_OPTIONS[name]}
        with pytest.raises(SystemExit):
            build_parser([]).parse_args([name, "--help"])
        assert out == capsys.readouterr()[0]

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["gen", "--help"]])
    def test_help_and_version_exit_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 0 and out and err == ""

    def test_config_echo_embeds_parameters(self, capsys):
        _, out, _ = _run(capsys, "covariant", "--n", "3", "--epsilon", "0.1",
                         "--trials", "5", "--seed", "9")
        doc = json.loads(out)
        assert doc["config"]["n"] == 3
        assert doc["config"]["seed"] == 9
        assert doc["version"]

    def test_parsers(self):
        assert _parse_fraction("1/16") == F(1, 16)
        assert _parse_fraction("0.0625") == F(1, 16)
        assert _parse_fraction("3") == 3
        m = _parse_measure("0:1/2,4:0.25,7:1/4")
        assert m.weight(0) == F(1, 2) and m.weight(4) == F(1, 4)
        with pytest.raises(ValueError, match="index:weight"):
            _parse_measure("nonsense")
