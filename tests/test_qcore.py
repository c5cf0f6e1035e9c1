import numpy as np
import pytest

from hyperon.qcore import (
    PAULI,
    DensityMatrix,
    as_density,
    bloch_compose,
    complementarity_of,
    spin_bloch,
    two_amplitude_intensity,
)


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return DensityMatrix(m / m.trace())


def random_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


class TestPauli:
    def test_orthogonality(self):
        assert PAULI.shape == (3, 2, 2)
        gram = np.einsum("aij,bji->ab", PAULI, PAULI)
        assert np.allclose(gram, 2.0 * np.eye(3), atol=1e-12)

    def test_hermitian_traceless(self):
        for g in PAULI:
            assert np.allclose(g, g.conj().T, atol=1e-15)
            assert abs(np.trace(g)) < 1e-15

    def test_d2_is_pauli(self):
        sx = [[0, 1], [1, 0]]
        sy = [[0, -1j], [1j, 0]]
        sz = [[1, 0], [0, -1]]
        assert np.array_equal(PAULI, [sx, sy, sz]) and not PAULI.flags.writeable


class TestBloch:
    def test_maximally_mixed_is_origin(self):
        b = spin_bloch(np.eye(2) / 2)
        assert np.allclose(b, 0.0, atol=1e-15)

    def test_spin_up_is_z(self):
        b = spin_bloch(np.diag([1.0, 0.0]))
        assert np.allclose(b, [0.0, 0.0, 1.0], atol=1e-15)
        assert not b.flags.writeable

    def test_round_trip_random(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            rho = random_density(rng, 2)
            back = bloch_compose(spin_bloch(rho))
            assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-12

    def test_compose_trivials(self):
        assert np.allclose(bloch_compose([0, 0, 0]).matrix, np.eye(2) / 2)
        assert np.allclose(bloch_compose([0, 0, 1]).matrix, np.diag([1.0, 0.0]))

    def test_compose_rejects_unphysical(self):
        # |b| > 1 has the eigenvalue (1 - |b|)/2 < 0, and no warning comes before the refusal
        for b, match in (([0.9, 0.9, 0.9], "semidefinite"), ([0.0, 0.0, 1.0 + 1e-9], "semidefinite"),
                         ([np.nan, 0.0, 0.0], "non-finite"), ([0.0, -np.inf, 0.0], "non-finite"),
                         ([0.0, 0.0, np.inf], "non-finite")):
            with pytest.raises(ValueError, match=match):
                bloch_compose(b)

    def test_pure_state_radius(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            ket = rng.normal(size=2) + 1j * rng.normal(size=2)
            ket /= np.linalg.norm(ket)
            b = spin_bloch(np.outer(ket, ket.conj()))
            assert abs(np.linalg.norm(b) - 1.0) < 1e-12

    @pytest.mark.parametrize("d", [1, 4])
    def test_spin_bloch_refuses_non_qubits(self, d):
        with pytest.raises(ValueError, match=f"qubits only, got dimension {d}$"):
            spin_bloch(np.eye(d) / d)


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.3], [0.1, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="semidefinite"):
            DensityMatrix(np.diag([1.5, -0.5]))


class TestTensorAndPartialTrace:
    """`np.kron` in the basis order |00>, |01>, |10>, |11> that `pairs.simplex_state` writes out."""

    def test_identity_tensor(self):
        assert np.allclose(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_z_tensor(self):
        sz = np.diag([1.0, -1.0])
        assert np.allclose(np.kron(sz, sz), np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_trace_multiplicativity(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = random_matrix(rng, 2)
            b = random_matrix(rng, 3)
            lhs = np.trace(np.kron(a, b))
            assert abs(lhs - np.trace(a) * np.trace(b)) < 1e-12 * max(1.0, abs(lhs))


class TestTwoAmplitudeIntensity:
    def test_identity_alone(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 2)
        assert abs(two_amplitude_intensity(np.eye(2), np.zeros((2, 2)), rho) - 1.0) < 1e-12

    def test_sp_on_mixed(self):
        # direct matrix evaluation oracle for T = S I + P n.sigma on I/2
        s, p = 0.3 + 0.4j, 0.5 - 0.2j
        n = np.array([0.0, 0.6, 0.8])
        t_b = p * np.tensordot(n, PAULI, axes=1)
        t = s * np.eye(2) + t_b
        expected = np.trace(t @ (np.eye(2) / 2) @ t.conj().T).real
        got = two_amplitude_intensity(s * np.eye(2), t_b, np.eye(2) / 2)
        assert abs(got - expected) < 1e-12
        assert abs(got - (abs(s) ** 2 + abs(p) ** 2)) < 1e-12

    def test_constructive_interference(self):
        assert abs(two_amplitude_intensity(np.eye(2), np.eye(2), np.eye(2) / 2) - 4.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            two_amplitude_intensity(np.eye(2), np.eye(3), np.eye(2) / 2)

    def test_real_nonnegative_property(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            d = rng.choice([2, 3, 4])
            val = two_amplitude_intensity(
                random_matrix(rng, d), random_matrix(rng, d), random_density(rng, d)
            )
            assert val >= -1e-10


class TestComplementarity:
    def test_symmetric_splitter(self):
        v, p = complementarity_of(np.eye(2), np.array([[0, 1], [1, 0]], dtype=complex))
        assert abs(v - 1.0) < 1e-12 and abs(p) < 1e-12

    def test_single_arm(self):
        v, p = complementarity_of(np.eye(2), np.zeros((2, 2)))
        assert v == 0.0 and p == 1.0

    def test_both_zero_raises(self):
        with pytest.raises(ValueError, match="vanish"):
            complementarity_of(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_published_lambda_point(self):
        # norms chosen so the visibility equals the published 0.648
        vis = 0.648
        ratio = (1.0 - np.sqrt(1.0 - vis**2)) / vis
        v, p = complementarity_of(np.eye(2), ratio * np.eye(2))
        assert abs(v - vis) < 1e-12
        assert abs(p - 0.762) < 0.012  # published band
        assert abs(v**2 + p**2 - 1.0) < 1e-12

    def test_duality_relation_random(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            d = rng.choice([2, 3])
            t_a = random_matrix(rng, d)
            t_b = random_matrix(rng, d)
            v, p = complementarity_of(t_a, t_b)
            assert abs(v * v + p * p - 1.0) < 1e-12


def test_as_density_accepts_arrays():
    rho = as_density(np.eye(2) / 2)
    assert isinstance(rho, DensityMatrix)
    assert as_density(rho) is rho
