"""Weak hyperon decays as open quantum channels.

Library and CLI for the information-theoretic treatment of spin-1/2 hyperon
weak decays: interferometric complementarity, two-outcome Kraus dynamics,
decay cascades, hyperon-antihyperon entanglement, Bell bounds and
contextuality, plus a deterministic Monte Carlo event generator with the
matching estimators.

The names below resolve on first use (PEP 562), so `import hyperon` loads
no submodule and each CLI command loads only the modules it runs.
"""

import importlib

__version__ = "0.2.1"

_EXPORTS = {
    "qcore": (
        "BlochVector",
        "DensityMatrix",
        "as_density",
        "bloch_compose",
        "bloch_expand",
        "complementarity_of",
        "gell_mann_basis",
        "maximally_mixed",
        "partial_trace",
        "pure_state",
        "tensor",
        "two_amplitude_intensity",
    ),
    "decay": (
        "DecayAmplitudes",
        "DecayParameters",
        "KrausPair",
        "amplitudes_from_params",
        "angular_pdf",
        "kraus_decompose",
        "kraus_operators",
        "params_from_alpha_phi",
        "params_from_amplitudes",
        "transition_matrix",
    ),
    "interferometer": ("InterferometerConfig", "SpinState", "asymmetric_intensity", "evolve", "fringe"),
    "cascade": ("CascadeKraus", "cascade_kraus", "cascade_pdf", "cascade_tau"),
    "pairs": ("PairModel", "SimplexPoint", "joint_pdf", "witness_estimate", "witness_value"),
    "inequalities": (
        "BellSettings",
        "InequalitySpec",
        "ProbModel",
        "contextuality_value",
        "evaluate",
        "inequality",
        "maximize",
        "mermin_peres_quantum_value",
        "prob_joint",
        "threshold",
    ),
    "mc": (
        "CascadeDecayModel",
        "EventTable",
        "PairCorrelationModel",
        "SampleConfig",
        "SingleDecayModel",
        "generate",
        "sample_cascade",
        "sample_pair",
        "sample_single",
    ),
    "params": ("ParameterRow", "ParameterTable", "load_bundled_parameters", "load_parameters"),
    "dataio": ("read_events", "write_events"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli", "errors", "sphere"})

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value  # later lookups skip this function
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_SUBMODULES})
