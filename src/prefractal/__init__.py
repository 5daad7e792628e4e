"""Prefractal gasket geometry, geodesics, harmonic embeddings, Dirac spectra,
and transport-based approximation certificates.

The public names below resolve on first use (PEP 562), each from the
submodule that defines it, so `import prefractal` loads no submodule and
a command pays only for the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "curves": ("GasketSpace", "MEMORY_GUARD_BYTES", "curve_count", "kappa",
               "kappa_inverse", "vertex_count", "vertex_word"),
    "gasket": ("CORNERS", "CURVE_KINDS", "CURVE_SLOTS", "PrefractalComplex",
               "build_gasket", "complex_from_dict", "complex_json_chunks",
               "complex_to_dict", "dyadic_from_pair", "dyadic_to_pair", "similitude_apply"),
    "metric": ("AgreementReport", "FiniteMetricSpace", "GHBoundReport", "MetricGraph",
               "certify_vertex_agreement", "gasket_cell_trace", "gasket_metric_graph",
               "gh_upper_bound", "hausdorff", "hausdorff_vertex_sets", "sample_parameters"),
    "harmonic": ("CurveLengths", "HarmonicGasket", "HarmonicTable", "SubdivisionRule",
                 "build_harmonic_gasket", "derive_subdivision_rule", "embedding_point",
                 "harmonic_curve_length", "harmonic_extend"),
    "spectrum": ("DimensionFit", "EigenvalueEnumeration", "SpectrumSpec", "ZetaPartial",
                 "counting_function", "dimension_fit", "enumerate_eigenvalues",
                 "mode_count", "zeta_partial"),
    "modes": ("ModeVector", "ReachReport", "coupled_dnorm", "covariant_reach_witness",
              "dn_norm", "evolve", "inner", "mode_frequency", "project",
              "random_mode_vector", "tail_level_for"),
    "transport": ("CoupledGraph", "DiscreteMeasure", "ExtentReport", "TransportResult",
                  "certify_extent", "kantorovich", "lipschitz_seminorm", "mcshane_extend"),
}

# public name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + _HOME[name], __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
