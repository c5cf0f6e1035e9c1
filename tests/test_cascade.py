import numpy as np
import pytest

from hyperon.cascade import (
    CascadeKraus,
    _conditional_axes,
    cascade_kraus,
    cascade_pdf,
    cascade_tau,
    conditional_axis,
)
from hyperon.decay import (
    DecayAmplitudes,
    amplitudes_from_params,
    kraus_operators,
    params_from_amplitudes,
    transition_matrix,
)
from hyperon.params import params_from_alpha_phi
from hyperon.qcore import DensityMatrix, spin_bloch

FOUR_PI_SQ = (4.0 * np.pi) ** 2


def random_density(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = a @ a.conj().T
    return DensityMatrix(m / m.trace())


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_params(rng):
    return params_from_amplitudes(
        DecayAmplitudes(complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
    )


def brute_force_intensity(mu, nu, rho, n_mu, n_nu):
    """Direct 2x2 composition Tr(T_nu T_mu rho T_mu^dag T_nu^dag), unit-normalized amplitudes."""
    t_mu = transition_matrix(amplitudes_from_params(mu), n_mu)
    t_nu = transition_matrix(amplitudes_from_params(nu), n_nu)
    chain = t_nu @ t_mu
    return float(np.trace(chain @ rho.matrix @ chain.conj().T).real)


def xi_minus_chain():
    # first decay: alpha = 0.458, beta = 0.0326 (predictability 0.8884); second: alpha = 0.642
    mu = params_from_alpha_phi(0.458, np.arcsin(0.0326 / np.sqrt(1.0 - 0.458**2)))
    nu = params_from_alpha_phi(0.642, 0.0)
    return mu, nu


class TestCascadeTau:
    def test_second_decay_switched_off(self):
        rng = np.random.default_rng(30)
        mu = random_params(rng)
        nu = params_from_alpha_phi(0.0, 0.0)
        n_mu, n_nu = random_unit(rng), random_unit(rng)
        tau0, tau = cascade_tau(mu, nu, n_mu, n_nu)
        assert abs(tau0 - 1.0) < 1e-15
        assert np.max(np.abs(tau - mu.alpha * n_mu)) < 1e-15

    def test_first_decay_no_analyzing_power(self):
        # alpha_mu = beta_mu = 0 with gamma_mu = 1 leaves only the second decay's axis
        mu = params_from_alpha_phi(0.0, 0.0)
        nu = params_from_alpha_phi(0.642, -0.114)
        n_mu = np.array([1.0, 0.0, 0.0])
        n_nu = np.array([0.0, 0.0, 1.0])
        tau0, tau = cascade_tau(mu, nu, n_mu, n_nu)
        assert abs(tau0 - 1.0) < 1e-15
        assert np.max(np.abs(tau - nu.alpha * n_nu)) < 1e-15

    def test_xi_chain_orthogonal_momenta(self):
        mu, nu = xi_minus_chain()
        tau0, tau = cascade_tau(mu, nu, [1, 0, 0], [0, 1, 0])
        pair = cascade_kraus(mu, nu, [1, 0, 0], [0, 1, 0])
        # brute-force oracle values, frozen: fitted from the operator product form
        assert abs(np.linalg.norm(tau) - 0.732) < 1e-3
        assert abs(pair.omega_plus - 0.866) < 1e-3
        assert abs(tau0 - 1.0) < 1e-15

    def test_non_unit_vectors_rejected(self):
        mu, nu = xi_minus_chain()
        with pytest.raises(ValueError, match="unit"):
            cascade_tau(mu, nu, [1, 0, 0], [0, 2, 0])

    def test_tau_bounded_by_tau0(self):
        rng = np.random.default_rng(31)
        violations = []
        for _ in range(10_000):
            mu, nu = random_params(rng), random_params(rng)
            n_mu, n_nu = random_unit(rng), random_unit(rng)
            tau0, tau = cascade_tau(mu, nu, n_mu, n_nu)
            excess = np.linalg.norm(tau) - tau0
            if excess > 1e-12:
                violations.append((mu, nu, n_mu, n_nu, excess))
        assert not violations, f"|tau| > tau0 in {len(violations)} cases, e.g. {violations[0]}"


class TestCascadePdf:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(32)
        for _ in range(1000):
            mu, nu = random_params(rng), random_params(rng)
            n_mu, n_nu = random_unit(rng), random_unit(rng)
            rho = random_density(rng)
            pdf = cascade_pdf(mu, nu, spin_bloch(rho), n_mu, n_nu)
            brute = brute_force_intensity(mu, nu, rho, n_mu, n_nu) / FOUR_PI_SQ
            assert abs(pdf - brute) < 1e-10

    def test_unpolarized_shape(self):
        rng = np.random.default_rng(33)
        mu, nu = random_params(rng), random_params(rng)
        for _ in range(50):
            n_mu, n_nu = random_unit(rng), random_unit(rng)
            expected = (1.0 + mu.alpha * nu.alpha * np.dot(n_mu, n_nu)) / FOUR_PI_SQ
            assert abs(cascade_pdf(mu, nu, np.zeros(3), n_mu, n_nu) - expected) < 1e-14

    def test_both_asymmetries_off_uniform(self):
        mu = params_from_alpha_phi(0.0, 0.2)
        nu = params_from_alpha_phi(0.0, -0.4)
        rng = np.random.default_rng(34)
        for _ in range(20):
            val = cascade_pdf(mu, nu, 0.8 * random_unit(rng), random_unit(rng), random_unit(rng))
            assert abs(val - 1.0 / FOUR_PI_SQ) < 1e-15

    def test_conditional_times_marginal(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            mu, nu = random_params(rng), random_params(rng)
            s = rng.uniform(0, 1) * random_unit(rng)
            n_mu, n_nu = random_unit(rng), random_unit(rng)
            marginal = (1.0 + mu.alpha * np.dot(s, n_mu)) / (4.0 * np.pi)
            axis = conditional_axis(mu, nu, s, n_mu)
            conditional = (1.0 + np.dot(axis, n_nu)) / (4.0 * np.pi)
            assert abs(cascade_pdf(mu, nu, s, n_mu, n_nu) - marginal * conditional) < 1e-14

    def test_overlong_polarization_rejected(self):
        mu, nu = xi_minus_chain()
        with pytest.raises(ValueError, match="exceeds 1"):
            cascade_pdf(mu, nu, [0, 0, 1.2], [1, 0, 0], [0, 1, 0])

    def test_conditional_axis_rows_match_single_calls(self):
        rng = np.random.default_rng(36)
        mu, nu = random_params(rng), random_params(rng)
        s = 0.7 * random_unit(rng)
        rows = np.array([random_unit(rng) for _ in range(1000)])
        bulk = conditional_axis(mu, nu, s, rows)
        assert bulk.shape == (1000, 3)
        assert np.array_equal(bulk, np.array([conditional_axis(mu, nu, s, n) for n in rows]))

    def test_conditional_axes_match_expression_form(self):
        # the formula with fresh arrays, one expression per component: the bits the in-place form keeps
        rng = np.random.default_rng(37)
        mu, nu = random_params(rng), random_params(rng)
        s = 0.7 * random_unit(rng)
        n_mu = np.array([random_unit(rng) for _ in range(500)] + [[0.0, 0.0, -1.0], [-0.0, 1.0, 0.0]])
        x, y, z = n_mu.T
        dots = x * s[0] + y * s[1] + z * s[2]
        weight = 1.0 + mu.alpha * dots
        along = mu.alpha + (1.0 - mu.gamma) * dots
        s_cross_n = (s[1] * z - s[2] * y, s[2] * x - s[0] * z, s[0] * y - s[1] * x)
        want = np.stack([nu.alpha * (along * n_mu[:, i] + mu.gamma * s[i] + mu.beta * s_cross_n[i]) / weight
                         for i in range(3)], axis=1)
        pairs = np.zeros((len(n_mu), 2, 3))
        pairs[:, 0] = n_mu
        rows_first = np.empty((3, len(n_mu))).T  # each component contiguous, as the sampler passes it
        for out in (None, rows_first):
            got = _conditional_axes(mu, nu, s, pairs[:, 0], out=out)  # a strided n_mu
            assert out is None or got is out
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.all(pairs[:, 1] == 0.0)

    def test_conditional_axis_checks_inputs(self):
        mu, nu = xi_minus_chain()
        with pytest.raises(ValueError, match=r"\|s\| exceeds 1"):
            conditional_axis(mu, nu, [0, 0, 1.2], [1, 0, 0])
        with pytest.raises(ValueError, match=r"\|s\| exceeds 1"):
            conditional_axis(mu, nu, [0, 0, np.nan], [1, 0, 0])
        with pytest.raises(ValueError, match="n_mu is not unit length"):
            conditional_axis(mu, nu, [0, 0, 0.5], [[1, 0, 0], [0, 0, 1.1]])


class TestKrausStructure:
    def test_composed_channel_is_not_kraus_product(self):
        # applying the two single-decay Kraus pairs in sequence must NOT
        # reproduce the composed intensity (the intermediate state carries
        # spin-momentum correlations); exhibit a state where they disagree
        mu = params_from_amplitudes(DecayAmplitudes(1.0, 0.6j))  # beta != 0
        nu = params_from_amplitudes(DecayAmplitudes(0.8, 0.6))
        n_mu = np.array([1.0, 0.0, 0.0])
        n_nu = np.array([0.0, 1.0, 0.0])
        rho = DensityMatrix((np.eye(2) + 0.9 * np.array([[1, 0], [0, -1]])) / 2)

        k_mu = kraus_operators(amplitudes_from_params(mu), n_mu)
        k_nu = kraus_operators(amplitudes_from_params(nu), n_nu)
        after_mu = sum(k @ rho.matrix @ k.conj().T for k in k_mu)
        product_intensity = sum(
            np.trace(k @ after_mu @ k.conj().T).real for k in k_nu
        )
        composed = cascade_pdf(mu, nu, spin_bloch(rho), n_mu, n_nu) * FOUR_PI_SQ
        assert abs(product_intensity - composed) > 1e-6

    def test_kraus_record_invariants(self):
        with pytest.raises(ValueError, match="exceeds tau0"):
            CascadeKraus(
                tau0=1.0, tau=np.array([1.5, 0, 0]),
                n_mu=np.array([1.0, 0, 0]), n_nu=np.array([0, 1.0, 0]),
            )
        record = CascadeKraus(tau0=2.0, tau=np.array([1.0, 0, 0]),
                              n_mu=np.array([1.0, 0, 0]), n_nu=np.array([0, 1.0, 0]))
        assert record.omega_plus == 0.75 and record.omega_minus == 0.25

    def test_caller_directions_stay_writable(self):
        mu, nu = params_from_alpha_phi(-0.39, 0.0), params_from_alpha_phi(0.642, 0.0)
        n_mu, n_nu = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
        record = cascade_kraus(mu, nu, n_mu, n_nu)
        n_mu[0] = n_nu[1] = -1.0  # the record holds its own read-only copies
        assert record.n_mu.tolist() == [1.0, 0.0, 0.0] and record.n_nu.tolist() == [0.0, 1.0, 0.0]
        assert not (record.n_mu.flags.writeable or record.n_nu.flags.writeable)

    @pytest.mark.parametrize("tau0, tau, match", [
        (np.nan, [0.5, 0.0, 0.0], "must be positive"),
        (1.0, [0.5, np.nan, 0.0], "exceeds tau0"),
    ], ids=["nan-tau0", "nan-tau"])
    def test_kraus_record_rejects_nan(self, tau0, tau, match):
        valid = dict(tau0=1.0, tau=np.array([0.5, 0.0, 0.0]),
                     n_mu=np.array([1.0, 0, 0]), n_nu=np.array([0, 1.0, 0]))
        CascadeKraus(**valid)
        with pytest.raises(ValueError, match=match):
            CascadeKraus(**valid | dict(tau0=tau0, tau=np.array(tau)))
