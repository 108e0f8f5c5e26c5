"""Numerical toolkit for pre- and post-selected quantum measurement models.

Finite-dimensional states and Hermitian observables, a Gaussian-pointer
coupling model with exact readout densities, projective and weakly coupled
measurements (including post-selected weak values), ensemble-averaged
operators with their 1/sqrt(N) residuals, an exact integer check that
averaged spin components commute up to 1/N, and a qubit-record model of how a
measurement outcome stays reconstructible after part of its environment is
collapsed. Everything is deterministic under a seeded generator; the
`tsvf-sim` command-line tool runs the bundled experiments.

Exports and submodules are imported on first use (PEP 562), so importing the
package, or running any experiment but `weakvalue`, does not import numpy.
"""

import importlib

__version__ = "0.1.0"

# Each exported name, under the submodule that defines it.
_EXPORTS = {
    "errors": ("ConfigError", "InvariantError", "NoAcceptedTrials"),
    "hilbert": ("SIGMA_Z", "HermitianOperator", "StateVector", "inner", "projector"),
    "pointer": ("ReadoutDensity", "readout_density"),
    "measurement": ("TwoState", "strong_measure", "weak_estimate", "weak_value"),
    "ensemble": (
        "EnsembleSpec", "average_operator_residual", "brute_force_average", "commute_on_state",
        "decompose", "deterministic_basis",
    ),
    "spins": ("average_spin_commutator", "brute_force_spin_commutator"),
    "twotime": (
        "RobustnessModel", "classical_threshold", "core_decay", "log_robustness_ratio",
        "robustness_ratio",
    ),
    "branches": ("brute_force_ratio", "select_by_final"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset([*_EXPORTS, "cli", "experiments"])

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
