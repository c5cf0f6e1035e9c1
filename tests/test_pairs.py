import dataclasses

import numpy as np
import pytest

from hyperon.decay import DecayAmplitudes, params_from_amplitudes, transition_matrix
from hyperon.mc import PairCorrelationModel, SampleConfig, generate
from hyperon.pairs import (
    PairModel,
    SimplexPoint,
    correlation_estimate,
    in_state_tetrahedron,
    is_ppt,
    is_separable_point,
    joint_pdf,
    simplex_shrink,
    simplex_state,
    witness_estimate,
    witness_value,
)
from hyperon.qcore import PAULI, DensityMatrix, pauli_dot
from hyperon.sphere import sphere_quadrature

FOUR_PI_SQ = (4.0 * np.pi) ** 2
SINGLET_KET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
SINGLET = np.outer(SINGLET_KET, SINGLET_KET)  # the antisymmetric Bell state the pair layer assumes


def pauli_correlation_operator(c):
    """sum_i c_i sigma_i x sigma_i, the reference for the matrices `pairs` writes out in closed form."""
    return sum(ci * np.kron(sigma, sigma) for ci, sigma in zip(c, PAULI))


def witness_operator(scale=1.0):
    """(1/3)(I x I + scale * sum_i sigma_i x sigma_i), optimal for the singlet; the reference for `witness_value`."""
    return (np.eye(4) + scale * pauli_correlation_operator([1.0, 1.0, 1.0])) / 3.0


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def pair_samples(k, n_events, seed=5):
    table = generate(SampleConfig(seed=seed, events=n_events, model=PairCorrelationModel(k=k)))
    return table.directions_by_role("pair-1"), table.directions_by_role("pair-2")


class TestJointPdf:
    def test_uncorrelated_uniform(self):
        model = PairModel(alpha_L=0.0, alpha_Lbar=0.5)
        assert abs(joint_pdf(model, [0, 0, 1], [0, 1, 0]) - 1.0 / FOUR_PI_SQ) < 1e-15

    def test_published_k_aligned(self):
        model = PairModel(alpha_L=0.642, alpha_Lbar=-0.71)
        assert abs(model.k - (-0.45582)) < 1e-5
        same = [0.0, 0.0, 1.0]
        expected = (1.0 - model.k) / FOUR_PI_SQ
        assert abs(joint_pdf(model, same, same) - expected) < 1e-12
        # magnitude point 0.46: density factor 0.54 for parallel daughters
        scaled = PairModel(alpha_L=np.sqrt(0.46), alpha_Lbar=np.sqrt(0.46))
        assert abs(joint_pdf(scaled, same, same) * FOUR_PI_SQ - 0.54) < 1e-12

    def test_closed_form_on_singlet(self):
        rng = np.random.default_rng(40)
        model = PairModel(alpha_L=0.642, alpha_Lbar=-0.71)
        for _ in range(200):
            n1, n2 = random_unit(rng), random_unit(rng)
            closed = (1.0 - model.k * np.dot(n1, n2)) / FOUR_PI_SQ
            assert abs(joint_pdf(model, n1, n2) - closed) < 1e-14

    def test_tensor_channel_consistency(self):
        # full-stack oracle: decay matrices with arbitrary phases, tensored, on the singlet
        rng = np.random.default_rng(41)
        a1 = DecayAmplitudes(0.8 + 0.1j, 0.3 - 0.5j)
        a2 = DecayAmplitudes(0.2 - 0.7j, 0.6 + 0.2j)
        model = PairModel(
            alpha_L=params_from_amplitudes(a1).alpha,
            alpha_Lbar=params_from_amplitudes(a2).alpha,
        )
        for _ in range(1000):
            n1, n2 = random_unit(rng), random_unit(rng)
            t12 = np.kron(transition_matrix(a1, n1), transition_matrix(a2, n2))
            intensity = np.trace(t12 @ SINGLET @ t12.conj().T).real
            normalized = intensity / (a1.norm_sq * a2.norm_sq * FOUR_PI_SQ)
            assert abs(joint_pdf(model, n1, n2) - normalized) < 1e-10

    def test_normalization_and_moments_by_quadrature(self):
        nodes, weights = sphere_quadrature()
        k = 0.46
        model = PairModel(alpha_L=np.sqrt(k), alpha_Lbar=np.sqrt(k))
        dots = nodes @ nodes.T
        density = (1.0 - k * dots) / FOUR_PI_SQ
        total = weights @ density @ weights
        assert abs(total - 1.0) < 1e-6
        first_moment = weights @ (dots * density) @ weights
        assert abs(first_moment - (-k / 3.0)) < 1e-8
        # componentwise E[n1_i n2_j] = -(k/9) delta_ij
        for i in range(3):
            for j in range(3):
                m = weights @ (np.outer(nodes[:, i], nodes[:, j]) * density) @ weights
                expected = -(k / 9.0) if i == j else 0.0
                assert abs(m - expected) < 1e-8

    def test_non_unit_rejected(self):
        model = PairModel(alpha_L=0.5, alpha_Lbar=0.5)
        with pytest.raises(ValueError, match="unit"):
            joint_pdf(model, [0, 0, 2.0], [0, 0, 1.0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="analyzing powers"):
            PairModel(alpha_L=np.nan, alpha_Lbar=0.5)
        with pytest.raises(ValueError, match="n2 is not unit length"):
            joint_pdf(PairModel(alpha_L=0.5, alpha_Lbar=0.5), [0, 0, 1.0], [0, np.nan, 1.0])


class TestWitness:
    def test_published_value(self):
        model = PairModel(alpha_L=np.sqrt(0.46), alpha_Lbar=np.sqrt(0.46))
        assert abs(witness_value(model) - (1.0 / 3.0 - 0.46)) < 1e-12
        assert abs(witness_value(model) - (-0.126667)) < 1e-6

    def test_boundary_and_origin(self):
        third = PairModel(alpha_L=1.0, alpha_Lbar=1.0 / 3.0)
        assert abs(witness_value(third)) < 1e-12
        assert abs(witness_value(PairModel(alpha_L=0.0, alpha_Lbar=0.7)) - 1.0 / 3.0) < 1e-12

    def test_operator_oracle(self):
        # explicit operator algebra: Tr(W_k rho_singlet) = 1/3 - k
        for k in (0.0, 0.2, 0.46, 1.0):
            val = np.trace(witness_operator(scale=k) @ SINGLET).real
            model = PairModel(alpha_L=k, alpha_Lbar=1.0)
            assert abs(val - witness_value(model)) < 1e-12

    def test_singlet_only(self):
        # witness_value is 1/3 - k on the singlet alone, so a model takes no other initial state
        assert [f.name for f in dataclasses.fields(PairModel)] == ["alpha_L", "alpha_Lbar"]
        with pytest.raises(TypeError, match="initial"):
            PairModel(1.0, 1.0, initial=DensityMatrix(np.eye(4) / 4))

    def test_witness_nonnegative_on_separable(self):
        # product states: Tr(W rho_a x rho_b) >= 0 for the unscaled witness
        rng = np.random.default_rng(42)
        w = witness_operator()
        for _ in range(200):
            sa, sb = rng.uniform(0, 1) * random_unit(rng), rng.uniform(0, 1) * random_unit(rng)
            rho = np.kron(
                (np.eye(2) + pauli_dot(sa)) / 2.0, (np.eye(2) + pauli_dot(sb)) / 2.0
            )
            assert np.trace(w @ rho).real > -1e-12


class TestEstimators:
    def test_orthogonal_pairs_give_third(self):
        n1 = np.tile([1.0, 0.0, 0.0], (200, 1))
        n2 = np.tile([0.0, 1.0, 0.0], (200, 1))
        value, _ = witness_estimate(n1, n2)
        assert abs(value - 1.0 / 3.0) < 1e-12

    def test_simulated_published_point(self):
        n1, n2 = pair_samples(0.46, 1_000_000)
        value, stderr = witness_estimate(n1, n2)
        assert abs(value - (1.0 / 3.0 - 0.46)) < 0.01
        assert stderr < 0.005

    def test_null_case(self):
        n1, n2 = pair_samples(0.0, 200_000, seed=8)
        value, stderr = witness_estimate(n1, n2)
        assert abs(value - 1.0 / 3.0) < 5.0 * stderr

    def test_too_few_events(self):
        with pytest.raises(ValueError, match="at least 100"):
            witness_estimate(np.zeros((50, 3)), np.zeros((50, 3)))

    def test_correlation_matrix_renormalized(self):
        n1, n2 = pair_samples(0.46, 1_000_000, seed=6)
        model = PairModel(alpha_L=np.sqrt(0.46), alpha_Lbar=np.sqrt(0.46))
        m = correlation_estimate(n1, n2, model=model)
        assert np.max(np.abs(np.diag(m) - (-1.0))) < 0.02
        off = m - np.diag(np.diag(m))
        assert np.max(np.abs(off)) < 0.02

    def test_correlation_matrix_raw(self):
        n1, n2 = pair_samples(0.46, 1_000_000, seed=7)
        m = correlation_estimate(n1, n2)
        assert np.max(np.abs(np.diag(m) - (-0.46))) < 0.01

    def test_correlation_null(self):
        n1, n2 = pair_samples(0.0, 200_000, seed=9)
        m = correlation_estimate(n1, n2)
        sigma = 3.0 / np.sqrt(n1.shape[0])  # 9 * sd(n1_i n2_j)/sqrt(N), sd = 1/3
        assert np.max(np.abs(m)) < 5.0 * sigma

    def test_renormalize_requires_model(self):
        n1, n2 = pair_samples(0.2, 1000, seed=10)
        zero = PairModel(alpha_L=0.0, alpha_Lbar=0.5)
        with pytest.raises(ValueError, match="renormalization"):
            correlation_estimate(n1, n2, model=zero)

    def test_renormalize_by_subnormal_k_refused(self):
        # 9 mean(n1_i n2_j) / k overflows for k = 1e-320, so no inf reaches the report
        n1, n2 = pair_samples(0.2, 1000, seed=10)
        tiny = PairModel(alpha_L=1e-320, alpha_Lbar=1.0)
        with pytest.raises(ValueError, match="renormalization by k = 9.99989e-321 overflows"):
            correlation_estimate(n1, n2, model=tiny)


class TestSimplex:
    def test_shrink(self):
        p = simplex_shrink(SimplexPoint(-1.0, -1.0, -1.0), 0.46)
        assert (p.c1, p.c2, p.c3) == (-0.46, -0.46, -0.46)
        q = SimplexPoint(0.3, -0.2, 0.9)
        assert simplex_shrink(q, 1.0) == q
        assert simplex_shrink(q, 0.0) == SimplexPoint(0.0, -0.0, 0.0)

    def test_singlet_corner_is_state(self):
        corner = SimplexPoint(-1.0, -1.0, -1.0)
        assert in_state_tetrahedron(corner)
        assert np.max(np.abs(simplex_state(corner) - SINGLET)) < 1e-12

    def test_opposite_corner_is_not(self):
        # eigenvalue oracle of the explicit 4x4 matrix
        point = SimplexPoint(1.0, 1.0, 1.0)
        assert np.linalg.eigvalsh(simplex_state(point)).min() < -1e-6
        assert not in_state_tetrahedron(point)

    def test_origin(self):
        assert in_state_tetrahedron(SimplexPoint(0.0, 0.0, 0.0))
        assert is_separable_point(SimplexPoint(0.0, 0.0, 0.0))

    def test_shrunken_corner_entangled(self):
        shrunk = simplex_shrink(SimplexPoint(-1.0, -1.0, -1.0), 0.46)
        assert in_state_tetrahedron(shrunk)
        assert not is_separable_point(shrunk)  # 3 * 0.46 = 1.38 > 1

    def test_boundary_point(self):
        shrunk = simplex_shrink(SimplexPoint(-1.0, -1.0, -1.0), 1.0 / 3.0)
        assert is_separable_point(shrunk)

    def test_outside_state_space_rejected(self):
        for c in ((1.0, 1.0, 1.0), (np.nan, 0.0, 0.0), (0.0, 0.0, np.inf)):
            with pytest.raises(ValueError, match="state space"):
                is_separable_point(SimplexPoint(*c))

    def test_closed_forms_match_operator_algebra(self):
        # the written-out matrix against the Pauli sum, and the eigenvalue verdict against eigvalsh
        rng = np.random.default_rng(43)
        for c in rng.uniform(-1.05, 1.05, size=(2000, 3)):
            point = SimplexPoint(*c)
            reference = (np.eye(4) + pauli_correlation_operator(c)) / 4.0
            assert np.max(np.abs(simplex_state(point) - reference)) < 1e-15
            assert in_state_tetrahedron(point) == (np.linalg.eigvalsh(reference).min() >= -1e-12)

    def test_witness_octahedron_agreement(self):
        # the witness sign and the octahedron membership of the shrunken
        # singlet corner flip together, exactly at k = 1/3
        corner = SimplexPoint(-1.0, -1.0, -1.0)
        for k in np.linspace(0.0, 1.0, 41):
            model = PairModel(alpha_L=1.0, alpha_Lbar=k)
            negative = witness_value(model) < 0.0
            separable = is_separable_point(simplex_shrink(corner, k))
            assert negative == (not separable), f"disagreement at k = {k}"

    def test_ppt_cross_check(self):
        corner = SimplexPoint(-1.0, -1.0, -1.0)
        for k in (0.0, 0.2, 1.0 / 3.0, 0.4, 0.6, 1.0):
            shrunk = simplex_shrink(corner, k)
            rho = DensityMatrix(simplex_state(shrunk))
            assert is_ppt(rho) == is_separable_point(shrunk)
