"""Weak hyperon decays as open quantum channels.

Library and CLI for the information-theoretic treatment of spin-1/2 hyperon
weak decays: interferometric complementarity, two-outcome Kraus dynamics,
decay cascades, hyperon-antihyperon entanglement, Bell bounds and
contextuality, plus a deterministic Monte Carlo event generator with the
matching estimators.

Import each name from its module, e.g. `from hyperon.mc import generate`;
`import hyperon` loads no submodule, so each CLI command loads only the
modules it runs.
"""

__version__ = "0.11.0"
