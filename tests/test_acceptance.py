"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import time

import numpy as np
import pytest

from hyperon.cascade import cascade_pdf, cascade_tau
from hyperon.cli import main as cli_main
from hyperon.dataio import load_bundled_parameters
from hyperon.decay import (
    DecayAmplitudes,
    amplitudes_from_params,
    kraus_intensity,
    params_from_amplitudes,
    transition_matrix,
)
from hyperon.inequalities import (
    I2,
    I3,
    I4,
    MERMIN_PERES_CLASSICAL_BOUND,
    PUBLISHED_EQUAL_ALPHA_THRESHOLD,
    ProbModel,
    contextuality_value,
    equal_alpha_contextuality_threshold,
    maximize,
    threshold,
)
from hyperon.interferometer import InterferometerConfig, SpinState, fringe, fringe_visibility
from hyperon.mc import PairCorrelationModel, SampleConfig, generate
from hyperon.pairs import (
    PairModel,
    SimplexPoint,
    is_separable_point,
    simplex_shrink,
    witness_estimate,
    witness_value,
)
from hyperon.params import chi_sp_mod_pi, params_from_alpha_phi
from hyperon.qcore import DensityMatrix, complementarity_of, spin_bloch, two_amplitude_intensity
from hyperon.sphere import sphere_integral

PUBLISHED_BANDS = {
    ("Lambda", "p pi-"): ((-0.043, 0.023), (0.648, 0.014), (0.762, 0.012)),
    ("Lambda", "n pi0"): ((-0.042, 0.023), (0.656, 0.040), (0.755, 0.034)),
    ("Lambdabar", "pbar pi+"): ((0.036, 0.021), (0.714, 0.079), (0.700, 0.080)),
    ("Sigma-", "n pi-"): ((-0.38, 0.16), (0.19, 0.24), (0.98, 0.05)),
    ("Sigma+", "p pi0"): ((-0.038, 0.035), (0.976, 0.016), (0.161, 0.097)),
    ("Sigma+", "n pi+"): ((0.41, 0.13), (0.24, 0.33), (0.972, 0.078)),
    ("Xi0", "Lambda pi0"): ((0.214, 0.085), (0.53, 0.11), (0.85, 0.07)),
    ("Xi-", "Lambda pi-"): ((0.0226, 0.0086), (0.459, 0.012), (0.8884, 0.0062)),
}


def _passed(number, label):
    print(f"ACCEPTANCE {number} ({label}): PASS")


def _random_amplitudes(rng):
    return DecayAmplitudes(
        complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
    )


def _random_density(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = a @ a.conj().T
    return DensityMatrix(m / m.trace())


def _random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    table = load_bundled_parameters()
    assert len(table) == 8
    for row in table:
        p = row.params()
        got = (chi_sp_mod_pi(p) / np.pi, p.visibility, p.predictability)
        for value, (center, err) in zip(got, PUBLISHED_BANDS[(row.parent, row.channel)]):
            assert abs(value - center) <= err, (
                f"{row.parent} -> {row.channel}: {value:.4f} vs {center} +- {err}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"table reproduction took {elapsed:.3f} s"
    _passed(1, "table reproduction within published bands, < 1 s")


def test_criterion_2_complementarity_duality():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        d = rng.choice([2, 3])
        t_a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        t_b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        v, p = complementarity_of(t_a, t_b)
        assert abs(v * v + p * p - 1.0) < 1e-12
    for row in load_bundled_parameters():
        p = row.params()
        assert abs(p.visibility**2 + p.predictability**2 - 1.0) < 1e-12
    _passed(2, "V^2 + P^2 = 1 to 1e-12, random pairs and all table rows")


def test_criterion_3_kraus_equivalence():
    rng = np.random.default_rng(102)
    for _ in range(1000):
        a = _random_amplitudes(rng)
        n = _random_unit(rng)
        rho = _random_density(rng)
        direct = two_amplitude_intensity(
            a.S * np.eye(2), transition_matrix(DecayAmplitudes(0, a.P), n), rho
        )
        kraus = kraus_intensity(a, n, rho)
        assert abs(direct - kraus) < 1e-10 * max(1.0, abs(direct))
    for _ in range(3):
        a = _random_amplitudes(rng)

        def integrand(nodes, a=a):
            out = np.empty((nodes.shape[0], 2, 2), dtype=complex)
            for i, n in enumerate(nodes):
                t = transition_matrix(a, n)
                out[i] = t.conj().T @ t
            return out

        avg = sphere_integral(integrand) / (4.0 * np.pi)
        assert np.max(np.abs(avg - a.norm_sq * np.eye(2))) < 1e-6
    _passed(3, "Kraus trace equivalence 1e-10 and channel completeness 1e-6")


def test_criterion_4_cascade_oracle():
    rng = np.random.default_rng(103)
    four_pi_sq = (4.0 * np.pi) ** 2
    for _ in range(1000):
        mu = params_from_amplitudes(_random_amplitudes(rng))
        nu = params_from_amplitudes(_random_amplitudes(rng))
        n_mu, n_nu = _random_unit(rng), _random_unit(rng)
        rho = _random_density(rng)
        t_mu = transition_matrix(amplitudes_from_params(mu), n_mu)
        t_nu = transition_matrix(amplitudes_from_params(nu), n_nu)
        chain = t_nu @ t_mu
        brute = np.trace(chain @ rho.matrix @ chain.conj().T).real
        assert abs(cascade_pdf(mu, nu, spin_bloch(rho), n_mu, n_nu) - brute / four_pi_sq) < 1e-10
    # exact reduction when the second decay has no analyzing power
    mu = params_from_amplitudes(_random_amplitudes(rng))
    nu = params_from_alpha_phi(0.0, 0.0)
    n_mu, n_nu = _random_unit(rng), _random_unit(rng)
    tau0, tau = cascade_tau(mu, nu, n_mu, n_nu)
    assert tau0 == 1.0
    assert np.array_equal(tau, mu.alpha * n_mu)
    _passed(4, "cascade matches operator-product oracle to 1e-10; alpha_nu = 0 exact")


def test_criterion_5_witness_at_desk_scale():
    start = time.perf_counter()
    table = generate(
        SampleConfig(seed=2024, events=1_000_000, model=PairCorrelationModel(k=0.46), workers=1)
    )
    value, stderr = witness_estimate(
        table.directions_by_role("pair-1"), table.directions_by_role("pair-2")
    )
    elapsed = time.perf_counter() - start
    assert abs(value - (1.0 / 3.0 - 0.46)) < 0.01, f"witness {value:.4f}"
    assert elapsed < 10.0, f"simulation + estimate took {elapsed:.2f} s"
    _passed(5, f"10^6-event witness {value:.4f} within 0.01 of -0.1267 in {elapsed:.1f} s")


def test_criterion_6_threshold_consistency():
    corner = SimplexPoint(-1.0, -1.0, -1.0)
    grid = np.append(np.linspace(0.0, 1.0, 300), 1.0 / 3.0)
    for k in grid:
        detected = witness_value(PairModel(alpha_L=1.0, alpha_Lbar=k)) < 0.0
        assert detected == (not is_separable_point(simplex_shrink(corner, k))), f"k = {k!r}"
        assert detected == (k > 1.0 / 3.0), f"flip point wrong at k = {k!r}"
    # the boundary value itself: witness exactly zero, point still separable
    assert witness_value(PairModel(alpha_L=1.0, alpha_Lbar=1.0 / 3.0)) == 0.0
    assert is_separable_point(simplex_shrink(corner, 1.0 / 3.0))
    _passed(6, "witness sign flips at k = 1/3, matching octahedron membership")


def test_criterion_7_chsh():
    start = time.perf_counter()
    top, _ = maximize(I2, ProbModel(1.0))
    assert abs(top - (np.sqrt(2.0) - 1.0) / 2.0) < 1e-5
    at_k, _ = maximize(I2, ProbModel(0.46))
    assert at_k < 0.0
    k_star = threshold(I2)
    assert abs(k_star - 0.7071) <= 0.001
    elapsed_i2 = time.perf_counter() - start
    assert elapsed_i2 < 30.0, f"I2 optimization took {elapsed_i2:.1f} s"
    for spec in (I3, I4):
        start = time.perf_counter()
        maximize(spec, ProbModel(1.0))
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"{spec.name} optimization took {elapsed:.1f} s"
    _passed(7, f"CHSH max, negativity at 0.46, threshold {k_star:.4f} = 0.7071 +- 0.001")


def test_criterion_8_contextuality():
    assert contextuality_value(1.0, 1.0) == 6.0
    a = np.sqrt(0.46)
    assert abs(contextuality_value(a, a) - 1.041) < 1e-3
    assert contextuality_value(a, a) < MERMIN_PERES_CLASSICAL_BOUND
    root = equal_alpha_contextuality_threshold()
    assert 0.91 < root < 0.92
    # the published equal-alpha claim is not reproducible from the formula
    discrepancy = abs(root - PUBLISHED_EQUAL_ALPHA_THRESHOLD)
    assert discrepancy > 0.03
    _passed(
        8,
        f"contextuality 6 at unity, 1.041 at 0.46; formula root {root:.3f} vs "
        f"published {PUBLISHED_EQUAL_ALPHA_THRESHOLD} (discrepancy flagged)",
    )


def test_criterion_9_interferometer():
    for theta in np.linspace(0.0, np.pi, 21):
        state = SpinState(theta, 0.7)
        assert abs(fringe_visibility(state) - abs(np.sin(theta))) < 1e-3
        for sign in (+1, -1):
            z = fringe(InterferometerConfig(), state, "z", sign)
            assert abs(z - 0.5 * (1.0 - sign * np.cos(theta))) < 1e-12
    _passed(9, "fringe amplitude = sin(theta) to 1e-3; path probabilities exact")


def test_criterion_10_determinism(tmp_path, capsys):
    model = PairCorrelationModel(k=0.46)
    one = generate(SampleConfig(seed=77, events=200_000, model=model, workers=1))
    eight = generate(SampleConfig(seed=77, events=200_000, model=model, workers=8))
    assert np.array_equal(one.n, eight.n) and np.array_equal(one.event_id, eight.event_id)
    f1, f2 = tmp_path / "w1.csv", tmp_path / "w8.csv"
    for f, workers in ((f1, "1"), (f2, "8")):
        code = cli_main(
            ["--seed", "77", "--threads", workers, "simulate", "pair", "--k", "0.46",
             "--events", "50000", "--out", str(f)]
        )
        assert code == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()
    reports = set()
    for _ in range(2):
        assert cli_main(["bell", "--inequality", "I2", "--k", "0.46"]) == 0
        reports.add(capsys.readouterr().out)
    assert len(reports) == 1
    _passed(10, "event files identical across worker counts; CLI reports byte-identical")
