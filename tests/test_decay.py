import math
import re
import sys
import warnings

import numpy as np
import pytest

from hyperon import decay, qcore
from hyperon.decay import (
    DecayAmplitudes,
    KrausPair,
    amplitudes_from_params,
    angular_pdf,
    kraus_decompose,
    kraus_intensity,
    kraus_operators,
    params_from_amplitudes,
    spin_bloch,
    transition_matrix,
)
from hyperon.params import DecayParameters, chi_sp_mod_pi, params_from_alpha_phi
from hyperon.qcore import DensityMatrix, two_amplitude_intensity
from hyperon.sphere import sphere_integral


def random_density(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = a @ a.conj().T
    return DensityMatrix(m / m.trace())


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_amplitudes(rng):
    return DecayAmplitudes(
        complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
    )


class TestParameters:
    def test_pure_s_wave(self):
        p = params_from_amplitudes(DecayAmplitudes(1.0, 0.0))
        assert p.alpha == 0.0 and p.beta == 0.0 and p.gamma == 1.0
        assert p.visibility == 0.0 and p.predictability == 1.0

    def test_symmetric_real(self):
        p = params_from_amplitudes(DecayAmplitudes(1 / np.sqrt(2), 1 / np.sqrt(2)))
        assert abs(p.alpha - 1.0) < 1e-12
        assert abs(p.beta) < 1e-12 and abs(p.gamma) < 1e-12
        assert abs(p.visibility - 1.0) < 1e-12 and p.predictability < 1e-12

    def test_lambda_reconstruction(self):
        # amplitudes solved from the published (V = 0.648, chi_SP = -0.043 pi, gamma > 0)
        vis, chi = 0.648, -0.043 * np.pi
        alpha = vis * np.cos(chi)
        beta = vis * np.sin(chi)
        gamma = np.sqrt(1.0 - vis**2)
        p = params_from_alpha_phi(alpha, np.arctan2(beta, gamma))
        assert abs(p.alpha - 0.642) < 1e-3
        assert abs(p.predictability - 0.762) < 1e-3
        amps = amplitudes_from_params(p)
        back = params_from_amplitudes(amps)
        for field in ("alpha", "beta", "gamma"):
            assert abs(getattr(back, field) - getattr(p, field)) < 1e-10

    def test_alpha_phi_published_row(self):
        p = params_from_alpha_phi(0.642, -0.114)
        assert abs(p.visibility - 0.648) < 1e-3
        assert abs(p.predictability - 0.762) < 1e-3
        assert abs(p.chi_sp - (-0.043 * np.pi)) < 1e-3 * np.pi

    def test_alpha_zero(self):
        p = params_from_alpha_phi(0.0, 0.0)
        assert p.visibility == 0.0 and p.predictability == 1.0

    def test_alpha_one_boundary(self):
        p = params_from_alpha_phi(1.0, 0.7)
        assert abs(p.visibility - 1.0) < 1e-12
        assert p.predictability == 0.0 and p.beta == 0.0 and p.gamma == 0.0

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            params_from_alpha_phi(1.2, 0.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match=r"\|alpha\| = nan exceeds 1"):
            params_from_alpha_phi(np.nan, 0.0)
        with pytest.raises(ValueError, match="inconsistent"):
            DecayParameters(alpha=np.nan, beta=0.0, gamma=0.0)

    @pytest.mark.parametrize("phi", [np.inf, -np.inf, np.nan])
    def test_nonfinite_phi_rejected(self, phi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any numpy call warns
            with pytest.raises(ValueError, match=rf"phi = {phi} is not finite"):
                params_from_alpha_phi(0.5, phi)

    def test_gamma_sign_checked(self):
        params_from_alpha_phi(0.5, 0.1, gamma_sign=+1)
        with pytest.raises(ValueError, match="gamma_sign"):
            params_from_alpha_phi(0.5, 0.1, gamma_sign=-1)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="inconsistent"):
            DecayParameters(alpha=0.5, beta=0.5, gamma=0.5)

    def test_derived_quantities_consistent(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            p = params_from_amplitudes(random_amplitudes(rng))
            r = np.sqrt(max(1.0 - p.alpha**2, 0.0))
            for err in (
                p.visibility**2 + p.predictability**2 - 1.0,
                p.alpha - p.visibility * np.cos(p.chi_sp),
                p.beta - p.visibility * np.sin(p.chi_sp),
                p.beta - r * np.sin(p.phi),
                p.gamma - r * np.cos(p.phi),
                p.predictability - abs(p.gamma),
            ):
                assert abs(err) <= 1e-12

    def test_round_trip_random(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            p = params_from_amplitudes(random_amplitudes(rng))
            back = params_from_amplitudes(amplitudes_from_params(p))
            for field in ("alpha", "beta", "gamma"):
                assert abs(getattr(back, field) - getattr(p, field)) < 1e-10

    def test_chi_fold_is_mod_pi(self):
        p = params_from_alpha_phi(-0.458, -0.011666667 * np.pi)
        folded = chi_sp_mod_pi(p)
        assert -np.pi / 2 < folded <= np.pi / 2
        assert abs(np.tan(folded) - p.beta / p.alpha) < 1e-12


class TestTransitionMatrix:
    @pytest.mark.parametrize("s, p, name", [
        (np.nan, 1.0, "S"), (np.inf, 1.0, "S"), (complex(0.0, np.nan), 1.0, "S"),
        (1.0, np.nan, "P"), (1.0, -np.inf, "P"), (0.0, complex(np.inf, 1.0), "P"),
    ])
    def test_non_finite_amplitude_rejected(self, s, p, name):
        with pytest.raises(ValueError, match=f"^amplitude {name} = .* is not finite$"):
            DecayAmplitudes(s, p)

    @pytest.mark.parametrize("s, p, names", [(1e200, 1e200, "S = 1e+200, P = 1e+200"),
                                             (1e200j, 0, "S = 1e+200j, P = 0")])
    def test_overflowing_norm_rejected(self, s, p, names):
        with pytest.raises(ValueError, match=f"^{re.escape(f'|S|^2 + |P|^2 overflows for amplitudes {names}')}$"):
            DecayAmplitudes(s, p)
        # the squared norm of the largest amplitudes that still fit
        assert params_from_amplitudes(DecayAmplitudes(1e150, 1e150)).alpha == 1.0

    @pytest.mark.parametrize("s, p, names", [(1e-170, 0, "S = 1e-170, P = 0"),
                                             (0, 1e-160j, "S = 0, P = 1e-160j")])
    def test_underflowing_norm_rejected(self, s, p, names):
        with pytest.raises(ValueError, match=f"^{re.escape(f'|S|^2 + |P|^2 underflows for amplitudes {names}')}$"):
            DecayAmplitudes(s, p)
        with pytest.raises(ValueError, match="^S and P cannot both vanish$"):
            DecayAmplitudes(0, 0.0)
        # the squared norm of the smallest amplitudes that still fit
        tiny = math.sqrt(sys.float_info.min)
        assert params_from_amplitudes(DecayAmplitudes(tiny, tiny)).alpha == 1.0

    @pytest.mark.parametrize("scale", [1e-150, 1e-154, 1e-158])
    def test_tiny_amplitudes_convert_or_name_the_underflow(self, scale):
        # never "inconsistent decay parameters": a normal |S|^2 + |P|^2 leaves alpha, beta and gamma
        # their precision (DecayParameters checks their squares sum to 1), a subnormal one is refused
        rng = np.random.default_rng(18)
        outcomes = set()
        for _ in range(200):
            s, p = (scale * complex(rng.normal(), rng.normal()) for _ in range(2))
            try:
                params_from_amplitudes(DecayAmplitudes(s, p))
                outcomes.add("converted")
            except ValueError as err:
                assert str(err) == f"|S|^2 + |P|^2 underflows for amplitudes S = {s}, P = {p}"
                outcomes.add("underflow")
        assert outcomes == {1e-150: {"converted"}, 1e-154: {"converted", "underflow"}, 1e-158: {"underflow"}}[scale]

    def test_pure_s(self):
        assert np.allclose(transition_matrix(DecayAmplitudes(1, 0), [0, 0, 1]), np.eye(2))

    def test_pure_p_along_z(self):
        t = transition_matrix(DecayAmplitudes(0, 1), [0, 0, 1])
        assert np.allclose(t, np.diag([1.0, -1.0]))

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            transition_matrix(DecayAmplitudes(1, 0), [0, 0, 2])

    def test_tdagt_expansion(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a = random_amplitudes(rng)
            n = random_unit(rng)
            t = transition_matrix(a, n)
            sigma_n = transition_matrix(DecayAmplitudes(0, 1.0), n)  # n.sigma
            expected = a.norm_sq * np.eye(2) + 2.0 * (np.conj(a.S) * a.P).real * sigma_n
            assert np.max(np.abs(t.conj().T @ t - expected)) < 1e-12 * a.norm_sq


class TestKraus:
    def test_unbiased_coin(self):
        pair = kraus_decompose(DecayAmplitudes(1.0, 1.0j), [0, 0, 1])
        assert abs(pair.omega_plus - 0.5) < 1e-12
        assert abs(pair.omega_minus - 0.5) < 1e-12

    def test_lambda_projection_weight(self):
        p = params_from_alpha_phi(0.642, -0.114)
        pair = kraus_decompose(amplitudes_from_params(p), [0, 0, 1])
        assert abs(pair.omega_plus - (1 + 0.642) / 2) < 1e-12
        assert abs(pair.omega_plus - 0.821) < 1e-3
        assert pair.axis.tolist() == [0.0, 0.0, 1.0]

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            pair = kraus_decompose(random_amplitudes(rng), random_unit(rng))
            assert pair.omega_plus + pair.omega_minus == 1.0

    def test_pair_invariants_enforced(self):
        with pytest.raises(ValueError, match="sum to 1"):
            KrausPair(0.7, 0.4, axis=np.array([1.0, 0, 0]))
        with pytest.raises(ValueError, match="nonnegative"):
            KrausPair(1.25, -0.25, axis=np.array([1.0, 0, 0]))
        with pytest.raises(ValueError, match="axis is not unit length"):
            KrausPair(0.5, 0.5, axis=np.array([0.5, 0, 0]))

    @pytest.mark.parametrize("omega_plus, omega_minus, axis, match", [
        (np.nan, 0.5, [1.0, 0.0, 0.0], "sum to 1"),
        (0.5, np.nan, [1.0, 0.0, 0.0], "sum to 1"),
        (0.5, 0.5, [np.nan, 0.0, 0.0], "unit length"),
        (0.5, 0.5, [1.0, np.nan, 0.0], "unit length"),
    ])
    def test_pair_rejects_nan(self, omega_plus, omega_minus, axis, match):
        KrausPair(0.5, 0.5, axis=np.array([1.0, 0.0, 0.0]))  # the valid base
        with pytest.raises(ValueError, match=match):
            KrausPair(omega_plus, omega_minus, axis=np.array(axis))

    def test_caller_direction_stays_writable(self):
        n = np.array([0.0, 0.0, 1.0])
        pair = kraus_decompose(DecayAmplitudes(1.0, 1.0j), n)
        n[2] = -1.0  # the record holds its own read-only copy
        assert pair.axis.tolist() == [0.0, 0.0, 1.0] and not pair.axis.flags.writeable

    def test_operators_are_hermitian_projector_multiples(self):
        rng = np.random.default_rng(13)
        a = random_amplitudes(rng)
        n = random_unit(rng)
        for k in kraus_operators(a, n):
            assert np.max(np.abs(k - k.conj().T)) < 1e-12

    def test_completeness_against_tdagt(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            a = random_amplitudes(rng)
            n = random_unit(rng)
            k_plus, k_minus = kraus_operators(a, n)
            t = transition_matrix(a, n)
            assert np.max(np.abs(k_plus @ k_plus + k_minus @ k_minus - t.conj().T @ t)) < 1e-10

    def test_trace_equivalence_random(self):
        # the module's central identity: two-amplitude intensity == Kraus-side value
        rng = np.random.default_rng(15)
        for _ in range(1000):
            a = random_amplitudes(rng)
            n = random_unit(rng)
            rho = random_density(rng)
            lhs = two_amplitude_intensity(
                a.S * np.eye(2), transition_matrix(DecayAmplitudes(0, a.P), n), rho
            )
            rhs = kraus_intensity(a, n, rho)
            closed = a.norm_sq * (
                1.0 + params_from_amplitudes(a).alpha * np.dot(n, spin_bloch(rho))
            )
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))
            assert abs(lhs - closed) < 1e-10 * max(1.0, abs(lhs))

    def test_channel_completeness_integral(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            a = random_amplitudes(rng)

            def tdagt(nodes):
                out = np.empty((nodes.shape[0], 2, 2), dtype=complex)
                for i, n in enumerate(nodes):
                    t = transition_matrix(a, n)
                    out[i] = t.conj().T @ t
                return out

            avg = sphere_integral(tdagt) / (4.0 * np.pi)
            assert np.max(np.abs(avg - a.norm_sq * np.eye(2))) < 1e-6


class TestAngularPdf:
    def test_unpolarized_uniform(self):
        p = params_from_alpha_phi(0.642, 0.0)
        val = angular_pdf(p, [0, 0, 0], [0, 1, 0])
        assert abs(val - 1.0 / (4 * np.pi)) < 1e-15

    def test_polarized_along_axis(self):
        p = params_from_alpha_phi(0.642, 0.0)
        val = angular_pdf(p, [0, 0, 1], [0, 0, 1])
        assert abs(val - 1.642 / (4 * np.pi)) < 1e-12

    def test_nonnegative_bound(self):
        p = params_from_alpha_phi(-1.0, 0.0)
        assert angular_pdf(p, [0, 0, 1], [0, 0, 1]) >= 0.0

    def test_normalization_by_quadrature(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = params_from_amplitudes(random_amplitudes(rng))
            s = rng.uniform(0, 1) * random_unit(rng)
            total = sphere_integral(
                lambda nodes: (1.0 + p.alpha * nodes @ s) / (4 * np.pi)
            )
            assert abs(total - 1.0) < 1e-8
            # spot-check the scalar function against the vectorized integrand
            n = random_unit(rng)
            assert abs(angular_pdf(p, s, n) - (1 + p.alpha * np.dot(s, n)) / (4 * np.pi)) < 1e-15

    def test_overlong_polarization_rejected(self):
        p = params_from_alpha_phi(0.5, 0.0)
        with pytest.raises(ValueError, match="exceeds 1"):
            angular_pdf(p, [0, 0, 1.5], [0, 0, 1])

    def test_nan_or_wrong_shaped_polarization_rejected(self):
        p = params_from_alpha_phi(0.5, 0.0)
        with pytest.raises(ValueError, match=r"\|s\| exceeds 1"):
            angular_pdf(p, [0, np.nan, 0], [0, 0, 1])
        with pytest.raises(ValueError, match="s must be a 3-vector"):
            angular_pdf(p, [0, 0.5], [0, 0, 1])


def test_projector_builds_spin_states():
    # each Kraus operator over its prefactor is the projector onto the spin state along +n or -n
    n = np.array([np.sin(0.7) * np.cos(1.3), np.sin(0.7) * np.sin(1.3), np.cos(0.7)])
    a = DecayAmplitudes(0.8, 0.3 + 0.2j)
    alpha = params_from_amplitudes(a).alpha
    for k, sign in zip(kraus_operators(a, n), (+1, -1)):
        proj = k / np.sqrt(a.norm_sq * (1.0 + sign * alpha))
        assert np.max(np.abs(proj @ proj - proj)) < 1e-12
        assert abs(np.trace(proj) - 1.0) < 1e-12
        assert np.max(np.abs(spin_bloch(proj) - sign * n)) < 1e-12


def test_spin_bloch_has_one_implementation():
    assert decay.spin_bloch is qcore.spin_bloch
