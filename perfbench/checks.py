"""Output checks for the benchmark workloads, and their self-test.

The checks judge results against physics, not against a stored event
stream: a PR that announces a change of the sampled bits (a new frame
kernel, say) still passes, while a wrong estimator, a truncated file or a
worker-count dependence fails.  Every check raises CheckFailed with a
message; `self_test` feeds each one a doctored input and a good one.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np

K = 0.46  # alpha * alphabar of the simulated pairs
POLARIZATION_Z = 0.5
EVENT_HEADER = b"event_id,role,channel,nx,ny,nz"

# Exact Bell data.  Each CH expression is c0 + k g at its optimal settings,
# c0 = sum(joint)/4 + sum(singles)/2, and the threshold is k* = -c0/g.
BELL_C0 = {"I2": -0.5, "I3": -1.0, "I4": -1.75}
BELL_THRESHOLD = {"I2": 1.0 / math.sqrt(2.0), "I3": 0.8, "I4": 1.75 / 1.9445436483}
THRESHOLD_TOL = 1e-3  # the acceptance suite's CHSH tolerance
MAXIMUM_TOL = 1e-5
REPORT_TOL = 1e-5
SIGMAS = 5.0


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _one_row(text: str) -> dict:
    rows = _rows(text)
    _require(len(rows) == 1, f"expected one report row, got {len(rows)}")
    return rows[0]


# ---------------------------------------------------------------------------
# pair events


def event_file(path: Path, rows: int) -> None:
    """Header line, then exactly `rows` newline-terminated records."""
    with open(path, "rb") as fh:
        header = fh.readline().rstrip(b"\r\n")
        _require(header == EVENT_HEADER, f"{path}: bad header {header[:60]!r}")
        count = 0
        last = b"\n"
        while block := fh.read(1 << 22):
            count += block.count(b"\n")
            last = block[-1:]
    _require(last == b"\n", f"{path}: last record is cut short")
    _require(count == rows, f"{path}: {count} records, expected {rows}")


def witness(value: float, stderr: float) -> None:
    """Estimate of 1/3 - k within 5 standard errors, or 0.01."""
    expected = 1.0 / 3.0 - K
    tol = max(SIGMAS * stderr, 0.01)
    _require(abs(value - expected) <= tol,
             f"witness {value:.6g} is {abs(value - expected):.3g} from {expected:.6g}")


def correlations(m: np.ndarray, n_pairs: int) -> None:
    """Each 9 mean(n1_i n2_j) within 5 standard errors of -k delta_ij.

    n1_i^2 n2_j^2 has mean 1/9 for the singlet density, so the standard
    error of element ij is 9 sqrt(1/9 - (k delta_ij / 9)^2 / n).
    """
    m = np.asarray(m, dtype=float).reshape(3, 3)
    expected = -K * np.eye(3)
    stderr = 9.0 * np.sqrt((1.0 / 9.0 - (expected / 9.0) ** 2) / n_pairs)
    worst = np.abs(m - expected) / stderr
    _require(worst.max() <= SIGMAS,
             f"correlation element {np.unravel_index(worst.argmax(), (3, 3))} "
             f"is {worst.max():.2f} standard errors off")


def witness_report(text: str, n_pairs: int) -> None:
    row = _one_row(text)
    _require(int(row["n_pairs"]) == n_pairs, f"n_pairs {row['n_pairs']}, expected {n_pairs}")
    witness(float(row["witness"]), float(row["stderr"]))


def correlations_report(text: str, n_pairs: int) -> None:
    row = _one_row(text)
    correlations([float(row[f"m_{a}{b}"]) for a in "xyz" for b in "xyz"], n_pairs)


# ---------------------------------------------------------------------------
# in-memory tables


def table_digest(table) -> str:
    """SHA-256 over every column of a dataclass table, in field order."""
    h = hashlib.sha256()
    for f in dataclasses.fields(table):
        col = np.ascontiguousarray(getattr(table, f.name))
        h.update(f.name.encode())
        h.update(str(col.dtype).encode())
        h.update(col.tobytes())
    return h.hexdigest()


def identical(digest_serial: str, digest_parallel: str, label: str) -> None:
    _require(digest_serial == digest_parallel,
             f"{label}: table differs between worker counts")


def unit_norms(n: np.ndarray, label: str) -> None:
    err = np.abs(np.sqrt(np.einsum("ij,ij->i", n, n)) - 1.0)
    _require(err.max() <= 1e-9, f"{label}: |n| - 1 reaches {err.max():.3g}")


def mean_nz(n: np.ndarray, alpha: float, label: str) -> None:
    """Mean n_z of (1 + alpha s.n)/(4 pi) with s = (0, 0, 0.5) is alpha 0.5 / 3."""
    nz = n[:, 2]
    expected = alpha * POLARIZATION_Z / 3.0
    stderr = nz.std(ddof=1) / math.sqrt(nz.size)
    _require(abs(nz.mean() - expected) <= SIGMAS * stderr,
             f"{label}: mean n_z {nz.mean():.6g}, expected {expected:.6g} +- {stderr:.2g}")


# ---------------------------------------------------------------------------
# Bell and report commands


def threshold(value: float, name: str) -> None:
    err = abs(value - BELL_THRESHOLD[name])
    _require(err <= THRESHOLD_TOL, f"{name} threshold {value:.6g} is {err:.3g} from exact")


def threshold_report(text: str, name: str) -> None:
    threshold(float(_one_row(text)["threshold"]), name)


def maximum_report(text: str, name: str, k: float) -> None:
    c0 = BELL_C0[name]
    expected = c0 * (1.0 - k / BELL_THRESHOLD[name])
    value = float(_one_row(text)["max_value"])
    _require(abs(value - expected) <= MAXIMUM_TOL,
             f"{name} maximum at k={k:g} is {value:.6g}, expected {expected:.6g}")


def table_report(text: str) -> None:
    rows = _rows(text)
    _require(len(rows) == 8, f"table has {len(rows)} rows, expected 8")
    for row in rows:
        total = float(row["visibility"]) ** 2 + float(row["predictability"]) ** 2
        _require(abs(total - 1.0) <= REPORT_TOL,
                 f"{row['parent']} {row['channel']}: V^2 + P^2 = {total:.6g}")


def context_report(text: str, alpha: float, alphabar: float) -> None:
    expected = (alpha**2 + alphabar**2) ** 2 + 2.0 * alpha**3 * alphabar**3
    value = float(_one_row(text)["value"])
    _require(abs(value - expected) <= REPORT_TOL, f"context value {value:.6g}, expected {expected:.6g}")


def complementarity_report(text: str) -> None:
    value = float(_one_row(text)["vsq_plus_psq"])
    _require(abs(value - 1.0) <= REPORT_TOL, f"V^2 + P^2 = {value:.6g}")


# ---------------------------------------------------------------------------
# self-test


@dataclasses.dataclass(frozen=True)
class _Table:
    event_id: np.ndarray
    n: np.ndarray


def _must_fail(label: str, check, *args) -> list[str]:
    try:
        check(*args)
    except CheckFailed:
        return []
    return [f"check accepted a doctored input: {label}"]


def _must_pass(label: str, check, *args) -> list[str]:
    try:
        check(*args)
    except CheckFailed as exc:
        return [f"check rejected a good input: {label}: {exc}"]
    return []


def self_test(scratch: Path) -> list[str]:
    """Run every check on a good and a doctored input; return what went wrong."""
    problems = []
    rng = np.random.default_rng(0)
    n = rng.normal(size=(1000, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)

    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        path = Path(tmp) / "events.csv"
        lines = [EVENT_HEADER.decode()] + [
            f"{i // 2},pair-{i % 2 + 1},pair(k=0.46),{x:.9g},{y:.9g},{z:.9g}"
            for i, (x, y, z) in enumerate(n[:6])
        ]
        path.write_text("\n".join(lines) + "\n")
        problems += _must_pass("event file", event_file, path, 6)
        path.write_text("\n".join(lines[:-1]) + "\n")
        problems += _must_fail("event file missing its last record", event_file, path, 6)
        path.write_text("\n".join(lines)[:-5])
        problems += _must_fail("event file cut inside a record", event_file, path, 6)

    problems += _must_pass("unit directions", unit_norms, n, "good")
    bad = n.copy()
    bad[17] *= 1.001
    problems += _must_fail("a row with |n| = 1.001", unit_norms, bad, "doctored")

    for name, exact in BELL_THRESHOLD.items():
        problems += _must_pass(f"{name} threshold", threshold, exact + 5e-4, name)
        problems += _must_fail(f"{name} threshold off by 2e-3", threshold, exact + 2e-3, name)

    serial = _Table(np.arange(500, dtype=np.uint64), n[:500])
    same = _Table(serial.event_id.copy(), serial.n.copy())
    shifted = serial.n.copy()
    shifted[250, 0] = np.nextafter(shifted[250, 0], 2.0)
    problems += _must_pass("equal tables", identical, table_digest(serial), table_digest(same), "good")
    problems += _must_fail(
        "tables that differ by worker count", identical,
        table_digest(serial), table_digest(_Table(serial.event_id, shifted)), "doctored",
    )

    problems += _must_pass("witness", witness, 1.0 / 3.0 - K + 0.004, 0.001)
    problems += _must_fail("witness of an unentangled sample", witness, 0.3, 0.001)
    problems += _must_pass("correlations", correlations, -K * np.eye(3) + 0.01, 1_000_000)
    problems += _must_fail("correlations with the wrong sign", correlations, K * np.eye(3), 1_000_000)
    return problems
