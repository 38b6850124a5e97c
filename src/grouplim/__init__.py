"""Fourier-analytic limit machinery for functions on abelian groups:
distances between functions on different groups, Gowers U2 norms, linear
configuration densities, set rounding, and extremal density minimization.

Importing the package is cheap: each public name, and each submodule,
is imported on first use.
"""

import importlib

__version__ = "0.1.0"

# the defining module of each public name
_EXPORTS = {
    name: module
    for module, names in {
        "errors": ("BudgetError", "GrouplimError", "PrecisionError", "UnsupportedError",
                   "ValidationError"),
        "extremal": ("OptResult", "density_gradient", "minimize_density", "project_box_mean",
                     "rho_curve"),
        "functions": ("DenseFn", "SparseFn", "constant_fn", "indicator_fn"),
        "graphon": ("Graph", "Kernel", "cayley_kernel", "hom_density", "verify_bridge"),
        "groups": ("Elem", "GroupSpec", "make_group"),
        "linconfig": ("ConfigSystem", "LinearForm", "builtin_config", "config_from_forms",
                      "cs_complexity_at_most_1", "density_brute", "density_fourier",
                      "density_monte_carlo", "graph_config"),
        "metric": ("DistBracket", "PartialIso", "check_partial_iso", "d_metric", "dhat",
                   "dprime", "exists_eps_iso", "supp_eps"),
        "rounding": ("adjust_density", "randomized_round", "round_best_of"),
        "sequences": ("Histogram", "cauchy_detect", "continuity_probe", "histogram_distance",
                      "pairwise_table", "value_histogram"),
        "spectral": ("dft", "dft_naive", "idft", "u2_direct", "u2_fourier"),
    }.items()
    for name in names
}
_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli", "intlattice"}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import a public name's module, or a submodule, on first use and keep
    the result as a package global, so later lookups are plain ones."""
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
