"""Parameter-table ingestion.

The parameter file is comma-separated UTF-8 text with `#` comment lines.
It stores the signed asymmetry alpha, the phase phi in units of pi and the
sign of gamma per channel, none of which are recoverable from published
magnitude tables."""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .decay import DecayParameters, params_from_alpha_phi
from .errors import ParameterFileError

PARAMETER_COLUMNS = ("parent", "quarks", "channel", "branching", "alpha", "phi_over_pi", "gamma_sign", "note")


@dataclass(frozen=True)
class ParameterRow:
    """One decay channel as stored on disk."""

    parent: str
    quarks: str
    channel: str
    branching: float
    alpha: float
    phi_over_pi: float
    gamma_sign: int
    note: str

    def params(self) -> DecayParameters:
        return params_from_alpha_phi(
            self.alpha, self.phi_over_pi * np.pi, gamma_sign=self.gamma_sign
        )


@dataclass(frozen=True)
class ParameterTable:
    rows: tuple[ParameterRow, ...]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def find(self, parent: str, channel: str | None = None) -> ParameterRow:
        """First row matching the parent (and channel, when given)."""
        for row in self.rows:
            if row.parent == parent and (channel is None or row.channel == channel):
                return row
        wanted = parent if channel is None else f"{parent} -> {channel}"
        raise KeyError(f"no parameter row for {wanted!r}")


def _parse_row(fields: list[str], line_no: int, path) -> ParameterRow:
    if len(fields) != len(PARAMETER_COLUMNS):
        raise ParameterFileError(
            f"{path}:{line_no}: expected {len(PARAMETER_COLUMNS)} fields, got {len(fields)}"
        )
    parent, quarks, channel, branching_s, alpha_s, phi_s, gsign_s, note = (
        f.strip() for f in fields
    )
    try:
        branching = float(branching_s)
        alpha = float(alpha_s)
        phi_over_pi = float(phi_s)
        gamma_sign = int(gsign_s)
    except ValueError as exc:
        raise ParameterFileError(f"{path}:{line_no}: unparseable number: {exc}") from None
    if not 0.0 <= branching <= 1.0:
        raise ParameterFileError(
            f"{path}:{line_no}: branching fraction {branching} outside [0, 1]"
        )
    row = ParameterRow(parent, quarks, channel, branching, alpha, phi_over_pi, gamma_sign, note)
    try:
        row.params()
    except ValueError as exc:
        raise ParameterFileError(f"{path}:{line_no}: {exc}") from None
    return row


def load_parameters(path) -> ParameterTable:
    """Read and validate a parameter file; errors carry the offending line, and no data rows is an error."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterFileError(f"cannot read parameter file {path}: {exc}") from None
    rows = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append(_parse_row(stripped.split(","), line_no, path))
    if not rows:
        raise ParameterFileError(f"parameter file {path} contains no data rows")
    return ParameterTable(rows=tuple(rows))


def bundled_parameters_path() -> Path:
    """Location of the parameter file shipped with the package."""
    return Path(resources.files("hyperon") / "data" / "hyperon_channels.csv")


def load_bundled_parameters() -> ParameterTable:
    return load_parameters(bundled_parameters_path())
