"""Weak hyperon decays as open quantum channels.

Library and CLI for the information-theoretic treatment of spin-1/2 hyperon
weak decays: interferometric complementarity, two-outcome Kraus dynamics,
decay cascades, hyperon-antihyperon entanglement, Bell bounds and
contextuality, plus a deterministic Monte Carlo event generator with the
matching estimators.
"""

from .qcore import (
    BlochVector,
    DensityMatrix,
    as_density,
    bloch_compose,
    bloch_expand,
    complementarity_of,
    gell_mann_basis,
    maximally_mixed,
    partial_trace,
    pure_state,
    tensor,
    two_amplitude_intensity,
)
from .decay import (
    DecayAmplitudes,
    DecayParameters,
    KrausPair,
    amplitudes_from_params,
    angular_pdf,
    kraus_decompose,
    kraus_operators,
    params_from_alpha_phi,
    params_from_amplitudes,
    transition_matrix,
)
from .interferometer import InterferometerConfig, SpinState, asymmetric_intensity, evolve, fringe
from .cascade import CascadeKraus, cascade_kraus, cascade_pdf, cascade_tau
from .pairs import PairModel, SimplexPoint, joint_pdf, witness_estimate, witness_value
from .inequalities import (
    BellSettings,
    InequalitySpec,
    ProbModel,
    contextuality_value,
    evaluate,
    inequality,
    maximize,
    mermin_peres_quantum_value,
    prob_joint,
    threshold,
)
from .mc import (
    CascadeDecayModel,
    EventTable,
    PairCorrelationModel,
    SampleConfig,
    SingleDecayModel,
    generate,
    sample_cascade,
    sample_pair,
    sample_single,
)
from .dataio import (
    ParameterRow,
    ParameterTable,
    load_bundled_parameters,
    load_parameters,
    read_events,
    write_events,
)

__version__ = "0.2.0"
