"""Decay parameters and parameter-table ingestion.

`DecayParameters` holds one decay's (alpha, beta, gamma).  Its conversions
are scalar `math`, so reading and reporting the table loads no numpy.

The parameter file is comma-separated UTF-8 text with `#` comment lines.
It stores the signed asymmetry alpha, the phase phi in units of pi and the
sign of gamma per channel, none of which are recoverable from published
magnitude tables."""

from __future__ import annotations

import math
from importlib import resources
from pathlib import Path

from ._record import Record
from .errors import ParameterFileError

_PARAM_TOL = 1e-12


class DecayParameters(Record):
    """Asymmetry parameters (alpha, beta, gamma) and their information-theoretic face.

    alpha = 2 Re(S* P) / (|S|^2 + |P|^2)
    beta  = 2 Im(S* P) / (|S|^2 + |P|^2) = sqrt(1 - alpha^2) sin(phi)
    gamma = (|S|^2 - |P|^2) / (|S|^2 + |P|^2) = sqrt(1 - alpha^2) cos(phi)
    visibility = sqrt(alpha^2 + beta^2), predictability = |gamma|,
    chi_sp = atan2(beta, alpha).

    Only (alpha, beta, gamma) are stored; the rest are computed from them.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        err = self.alpha * self.alpha + self.beta * self.beta + self.gamma * self.gamma - 1.0
        if not abs(err) <= _PARAM_TOL:  # written so that NaN fails
            raise ValueError(f"inconsistent decay parameters: alpha^2+beta^2+gamma^2 = 1 off by {err:.3e}")

    @property
    def phi(self) -> float:
        return math.atan2(self.beta, self.gamma)

    @property
    def chi_sp(self) -> float:
        return math.atan2(self.beta, self.alpha)

    @property
    def visibility(self) -> float:
        return math.hypot(self.alpha, self.beta)

    @property
    def predictability(self) -> float:
        return abs(self.gamma)


def chi_sp_mod_pi(params: DecayParameters) -> float:
    """S-P phase shift folded into (-pi/2, pi/2], the convention of published tables.

    Tables report |alpha| together with a principal-branch phase; the fold
    keeps tan(chi) = beta/alpha while dropping the overall amplitude sign.
    """
    chi = params.chi_sp
    if chi > math.pi / 2:
        chi -= math.pi
    elif chi <= -math.pi / 2:
        chi += math.pi
    return chi


def params_from_alpha_phi(alpha: float, phi: float, gamma_sign: int | None = None) -> DecayParameters:
    """Parameters from the measured pair (alpha, phi).

    ``gamma_sign`` (+1 or -1), when given, must agree with the sign of
    cos(phi); it is carried by parameter files as an explicit cross-check
    since gamma's sign is not recoverable from visibility/predictability
    magnitudes alone.
    """
    if not abs(alpha) <= 1.0:  # written so that NaN fails
        raise ValueError(f"|alpha| = {abs(alpha)} exceeds 1")
    if not math.isfinite(phi):
        raise ValueError(f"phi = {phi} is not finite")
    r = math.sqrt(1.0 - alpha * alpha)
    beta = r * math.sin(phi)
    gamma = r * math.cos(phi)
    if gamma_sign is not None:
        if gamma_sign not in (1, -1):
            raise ValueError("gamma_sign must be +1 or -1")
        if gamma != 0.0 and math.copysign(1, gamma) != gamma_sign:
            raise ValueError(
                f"gamma_sign {gamma_sign:+d} contradicts cos(phi) = {math.cos(phi):.6g}"
            )
    return DecayParameters(float(alpha), float(beta), float(gamma))


PARAMETER_COLUMNS = ("parent", "quarks", "channel", "branching", "alpha", "phi_over_pi", "gamma_sign", "note")


class ParameterRow(Record):
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
            self.alpha, self.phi_over_pi * math.pi, gamma_sign=self.gamma_sign
        )


class ParameterTable(Record):
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
