import numpy as np
import pytest
from scipy.linalg import expm

from hyperon.interferometer import (
    InterferometerConfig,
    SpinState,
    analyzer_direction,
    asymmetric_intensity,
    asymmetric_transition_matrices,
    beam_splitter,
    evolve,
    fringe,
    fringe_visibility,
    interferometer_unitary,
    path_predictability,
    phase_plate,
)
from hyperon.qcore import DensityMatrix, gell_mann_basis, maximally_mixed, two_amplitude_intensity

SX, SY, SZ = gell_mann_basis(2)


def exponential_unitary(chi):
    # independent construction of the device unitary via the matrix exponential
    u_bs = expm(-1j * np.pi / 4.0 * SY)
    return u_bs @ expm(-1j * chi / 2.0 * SX) @ u_bs


class TestUnitaries:
    def test_beam_splitter_matches_exponential(self):
        assert np.max(np.abs(beam_splitter() - expm(-1j * np.pi / 4.0 * SY))) < 1e-12

    def test_phase_plate_matches_exponential(self):
        for chi in (0.0, 0.3, 2.0, -1.7):
            assert np.max(np.abs(phase_plate(chi) - expm(-1j * chi / 2.0 * SX))) < 1e-12

    def test_evolve_matches_matrix_product(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            theta, phi, chi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)
            state = SpinState(theta, phi).density()
            u = exponential_unitary(chi)
            expected = u @ state.matrix @ u.conj().T
            got = evolve(InterferometerConfig(chi=chi), state)
            assert np.max(np.abs(got.matrix - expected)) < 1e-12

    def test_spin_up_z_flips(self):
        out = evolve(InterferometerConfig(chi=0.0), SpinState(0.0, 0.0).density())
        assert np.allclose(out.matrix, np.diag([0.0, 1.0]), atol=1e-12)

    def test_mixed_state_invariant(self):
        out = evolve(InterferometerConfig(chi=0.0), maximally_mixed(2))
        assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-15)

    def test_unitarity_preserves_spectrum(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m = a @ a.conj().T
            rho = DensityMatrix(m / m.trace())
            out = evolve(InterferometerConfig(chi=rng.uniform(0, 2 * np.pi)), rho)
            assert abs(np.trace(out.matrix) - 1.0) < 1e-12
            assert np.max(np.abs(np.sort(np.linalg.eigvalsh(out.matrix))
                                 - np.sort(np.linalg.eigvalsh(rho.matrix)))) < 1e-12

    def test_wrong_dimension(self):
        with pytest.raises(ValueError, match="qubits"):
            evolve(InterferometerConfig(), maximally_mixed(4))


class TestFringe:
    def test_equator_null_port(self):
        assert abs(fringe(InterferometerConfig(chi=0.0), SpinState(np.pi / 2, 0.0), "x", +1)) < 1e-12

    def test_pole_path_probabilities(self):
        cfg = InterferometerConfig()
        assert abs(fringe(cfg, SpinState(0.0, 0.0), "z", +1)) < 1e-12
        assert abs(fringe(cfg, SpinState(0.0, 0.0), "z", -1) - 1.0) < 1e-12

    def test_closed_forms_random(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            theta, phi, chi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)
            length = rng.uniform(0, 1)
            state = SpinState(theta, phi, length)
            cfg = InterferometerConfig(chi=chi)
            for sign in (+1, -1):
                x_expect = 0.5 * (1.0 - sign * length * np.sin(theta) * np.cos(phi + chi))
                z_expect = 0.5 * (1.0 - sign * length * np.cos(theta))
                assert abs(fringe(cfg, state, "x", sign) - x_expect) < 1e-12
                assert abs(fringe(cfg, state, "z", sign) - z_expect) < 1e-12

    def test_fitted_amplitude_equals_sin_theta(self):
        for theta in np.linspace(0.0, np.pi, 13):
            assert abs(fringe_visibility(SpinState(theta, 0.3)) - abs(np.sin(theta))) < 1e-9

    def test_partial_purity_scales_amplitude(self):
        assert abs(fringe_visibility(SpinState(np.pi / 3, 0.0, 0.5)) - 0.5 * np.sin(np.pi / 3)) < 1e-9

    @pytest.mark.parametrize("n_points", [-1, 0, 1, 2])
    def test_too_few_fit_points(self, n_points):
        with pytest.raises(ValueError, match="at least 3 points"):
            fringe_visibility(SpinState(0.4, 0.0), n_points=n_points)

    def test_three_fit_points_suffice(self):
        assert abs(fringe_visibility(SpinState(0.4, 0.0), n_points=3) - np.sin(0.4)) < 1e-12

    def test_z_predictability(self):
        for theta in np.linspace(0.0, np.pi, 13):
            assert abs(path_predictability(SpinState(theta, 1.0)) - abs(np.cos(theta))) < 1e-12

    def test_bad_axis(self):
        with pytest.raises(ValueError, match="axis"):
            fringe(InterferometerConfig(), SpinState(0.1, 0.2), "w", +1)


class TestAsymmetric:
    def test_single_arm_constant(self):
        cfg = InterferometerConfig(splitting=(1.0, 0.0))
        vals = {
            asymmetric_intensity(cfg, SpinState(t, p), +1)
            for t in (0.1, 1.0, 2.0)
            for p in (0.0, 2.0)
        }
        assert max(vals) - min(vals) < 1e-12

    def test_balanced_full_contrast(self):
        cfg = InterferometerConfig(splitting=(1.0, 1.0), chi_sp=0.0)
        aligned = SpinState(np.pi / 2, 0.0)  # spin along n(0, 0) = x
        total = 2.0
        assert abs(asymmetric_intensity(cfg, aligned, +1) - total * 0.0) < 1e-12
        assert abs(asymmetric_intensity(cfg, aligned, -1) - total * 2.0) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            cfg = InterferometerConfig(
                chi=rng.uniform(0, 2 * np.pi),
                splitting=(rng.uniform(0, 2), rng.uniform(0, 2)),
                chi_sp=rng.uniform(-np.pi, np.pi),
            )
            state = SpinState(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi), rng.uniform(0, 1))
            assert asymmetric_intensity(cfg, state, +1) >= 0.0

    def test_matches_two_amplitude_intensity(self):
        # published Lambda point: splitting fixed so V = 0.648, chi_SP = -0.043 pi
        vis = 0.648
        ratio_sq = ((1.0 - np.sqrt(1.0 - vis**2)) / vis) ** 2
        rng = np.random.default_rng(24)
        for chi_sp, chi in [(-0.043 * np.pi, 0.0), (0.31, 1.2), (-1.0, 4.0)]:
            cfg = InterferometerConfig(chi=chi, splitting=(1.0, ratio_sq), chi_sp=chi_sp)
            for _ in range(30):
                state = SpinState(
                    rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi), rng.uniform(0, 1)
                )
                for sign in (+1, -1):
                    t_a, t_b = asymmetric_transition_matrices(cfg, sign)
                    generic = two_amplitude_intensity(t_a, t_b, state.density())
                    closed = asymmetric_intensity(cfg, state, sign)
                    assert abs(generic - closed) < 1e-10

    def test_analyzer_direction_convention(self):
        n = analyzer_direction(-0.043 * np.pi)
        assert abs(np.linalg.norm(n) - 1.0) < 1e-15
        assert n[2] == 0.0
        assert abs(np.arctan2(n[1], n[0]) - (-0.043 * np.pi)) < 1e-15

    def test_invalid_splitting(self):
        with pytest.raises(ValueError, match="splitting"):
            InterferometerConfig(splitting=(0.0, 0.0))
