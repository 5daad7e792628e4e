"""What each CLI command loads, and the package's lazy public names.

The CLI imports a module inside the command that calls it, and the
package resolves its public names on first use, so a command loads only
the code it runs. The footprint tests run one command per fresh
interpreter and read sys.modules after `cli.main` returns.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prefractal

ROOT = Path(__file__).resolve().parents[1]

# the package's public names, by the submodule that defines each
EXPORTS = {
    "curves": ["CellCertificate", "GHBoundReport", "GasketSpace", "MEMORY_GUARD_BYTES",
               "cell_certificate", "curve_count", "gh_upper_bound", "kappa", "kappa_inverse",
               "sample_parameters", "vertex_count", "vertex_word"],
    "gasket": ["CORNERS", "CURVE_KINDS", "CURVE_SLOTS", "PrefractalComplex",
               "build_gasket", "complex_from_dict", "complex_json_chunks",
               "complex_to_dict", "dyadic_from_pair", "dyadic_to_pair", "similitude_apply"],
    "metric": ["AgreementReport", "FiniteMetricSpace", "MetricGraph",
               "certify_vertex_agreement", "gasket_metric_graph", "hausdorff",
               "hausdorff_vertex_sets"],
    "harmonic": ["CurveLengths", "HarmonicGasket", "HarmonicTable", "SubdivisionRule",
                 "build_harmonic_gasket", "derive_subdivision_rule", "embedding_point",
                 "harmonic_curve_length", "harmonic_extend"],
    "spectrum": ["DimensionFit", "EigenvalueEnumeration", "SpectrumSpec", "ZetaPartial",
                 "counting_function", "dimension_fit", "enumerate_eigenvalues",
                 "mode_count", "zeta_partial"],
    "modes": ["ModeVector", "ReachReport", "coupled_dnorm", "covariant_reach_witness",
              "dn_norm", "evolve", "inner", "mode_frequency", "project",
              "random_mode_vector", "tail_level_for"],
    "transport": ["CoupledGraph", "DiscreteMeasure", "ExtentReport", "TransportResult",
                  "certify_extent", "kantorovich", "lipschitz_seminorm", "mcshane_extend"],
}

_PROBE = """
import contextlib, io, json, sys
from prefractal import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _loaded(*argv) -> set[str]:
    """The modules a fresh interpreter holds after one successful command."""
    out = _python("-c", _PROBE, *argv)
    assert out["code"] == 0
    return set(out["modules"])


def _numpy(modules):
    return sorted(m for m in modules if m == "numpy" or m.startswith("numpy."))


class TestCommandFootprint:
    # kantorovich reads its distances from vertex ids, and gh-table and
    # extent certify from one generic cell per level, so none needs the
    # complex or a graph; and the records are named tuples, since
    # dataclasses imports inspect, ast, dis and tokenize (about 7 ms)
    @pytest.mark.parametrize("argv", [
        ("--version",),
        ("spectrum", "--level", "4", "--cutoff", "300", "--format", "csv"),
        ("spectrum", "--infinite", "--cutoff", "300", "--format", "json"),
        ("covariant", "--n", "2", "--epsilon", "0.1", "--trials", "20"),
        ("kantorovich", "--level", "3", "--mu", "0:1", "--nu", "1:1/2,2:1/2"),
        ("gh-table", "--max-level", "3", "--m", "5"),
        ("extent", "--n", "2", "--m", "5"),
    ], ids=["version", "spectrum-csv", "spectrum-json", "covariant", "kantorovich",
            "gh-table", "extent"])
    def test_array_free_commands_load_no_numpy(self, argv):
        loaded = _loaded(*argv)
        assert _numpy(loaded) == []
        assert sorted(loaded & {"prefractal.gasket", "prefractal.metric"}) == []
        assert sorted(loaded & {"dataclasses", "inspect"}) == []

    # the csv module loads inside the writer, so only a command that
    # writes CSV pays for it
    @pytest.mark.parametrize("argv,writes_csv", [
        (("spectrum", "--level", "2", "--cutoff", "50", "--format", "csv"), True),
        (("gh-table", "--max-level", "2", "--m", "3"), True),
        (("extent", "--n", "1", "--m", "2"), True),
        (("spectrum", "--level", "2", "--cutoff", "50"), False),
        (("gh-table", "--max-level", "2", "--m", "3", "--format", "json"), False),
        (("extent", "--n", "1", "--m", "2", "--format", "json"), False),
        (("kantorovich", "--level", "2", "--mu", "0:1", "--nu", "1:1"), False),
        (("gen", "--level", "2"), False),
        (("dimension", "--infinite", "--lambda-min", "10", "--lambda-max", "1000",
          "--grid", "5"), False),
    ], ids=["spectrum-csv", "gh-table-csv", "extent-csv", "spectrum-json", "gh-table-json",
            "extent-json", "kantorovich", "gen", "dimension"])
    def test_only_csv_writers_load_csv(self, argv, writes_csv):
        assert ("csv" in _loaded(*argv)) == writes_csv

    @pytest.mark.parametrize("fmt", ["json", "svg"])
    def test_plain_gen_loads_only_the_complex(self, fmt):
        loaded = _loaded("gen", "--level", "3", "--format", fmt)
        assert "prefractal.gasket" in loaded
        assert sorted(loaded & {"prefractal.metric", "prefractal.transport",
                                "prefractal.harmonic", "prefractal.modes",
                                "prefractal.spectrum"}) == []

    def test_harmonic_gen_builds_no_metric_graph(self):
        loaded = _loaded("gen", "--geometry", "harmonic", "--level", "3")
        assert "prefractal.harmonic" in loaded
        assert "prefractal.metric" not in loaded
        assert "numpy.ma" not in loaded

    # numpy imports numpy.ma lazily, and some calls (np.unique among them)
    # load it; it adds about 15 ms to a command's start-up
    @pytest.mark.parametrize("argv", [
        ("gen", "--level", "3", "--format", "json"),
        ("gen", "--level", "3", "--format", "svg"),
        ("dimension", "--infinite", "--lambda-min", "10", "--lambda-max", "1000",
         "--grid", "20"),
    ], ids=["gen-json", "gen-svg", "dimension"])
    def test_numpy_commands_load_no_masked_arrays(self, argv):
        loaded = _loaded(*argv)
        assert "numpy" in loaded
        assert "numpy.ma" not in loaded


class TestLazyExports:
    def test_public_names(self):
        names = sorted(n for names in EXPORTS.values() for n in names)
        assert len(names) == 67
        assert sorted(prefractal.__all__) == names

    def test_each_name_is_its_home_object(self):
        for module, names in EXPORTS.items():
            home = importlib.import_module("prefractal." + module)
            for name in names:
                assert getattr(prefractal, name) is getattr(home, name), name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from prefractal import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(prefractal.__all__)

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="module 'prefractal' has no "
                                                 "attribute 'no_such_name'"):
            prefractal.no_such_name

    def test_package_import_loads_no_submodule(self):
        code = "import json, sys, prefractal; print(json.dumps(sorted(sys.modules)))"
        loaded = _python("-c", code)
        assert [m for m in loaded if m.startswith("prefractal.")] == []
        assert _numpy(loaded) == []
