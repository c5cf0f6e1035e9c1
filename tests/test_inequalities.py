import math
import time

import numpy as np
import pytest

from hyperon import inequalities
from hyperon.inequalities import (
    I2,
    I3,
    I4,
    MERMIN_PERES_CLASSICAL_BOUND,
    PUBLISHED_EQUAL_ALPHA_THRESHOLD,
    BellSettings,
    InequalitySpec,
    ProbModel,
    contextuality_value,
    equal_alpha_contextuality_threshold,
    evaluate,
    inequality,
    maximize,
    prob_joint,
    threshold,
)
from hyperon.qcore import PAULI

# k* = -4 c0 / S in closed form: CHSH's 1/sqrt(2), I3's S = 5 and I4's S = 11/sqrt(2)
CLOSED_FORM_THRESHOLD = {"I2": 1.0 / np.sqrt(2.0), "I3": 0.8, "I4": 7.0 * np.sqrt(2.0) / 11.0}


def chsh_closed_form(k):
    # analytic maximum of I2 under the scaled-correlation model
    return (k * np.sqrt(2.0) - 1.0) / 2.0


def random_settings(rng, spec):
    def draw(n):
        v = rng.normal(size=(n, 3))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    return BellSettings(a=draw(spec.n_a), b=draw(spec.n_b))


class TestProbabilities:
    def test_perfect_anticorrelation(self):
        assert prob_joint(ProbModel(1.0), [0, 0, 1], [0, 0, 1]) == 0.0

    def test_uncorrelated(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            assert prob_joint(ProbModel(0.0), a, a) == 0.25

    def test_published_k_antiparallel(self):
        assert abs(prob_joint(ProbModel(0.46), [0, 0, 1], [0, 0, -1]) - 0.365) < 1e-12

    def test_in_unit_interval(self):
        rng = np.random.default_rng(51)
        for _ in range(500):
            k = rng.uniform(0, 1)
            a, b = rng.normal(size=3), rng.normal(size=3)
            p = prob_joint(ProbModel(k), a / np.linalg.norm(a), b / np.linalg.norm(b))
            assert 0.0 <= p <= 1.0

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            ProbModel(1.2)


class TestEvaluate:
    def test_coefficient_tables(self):
        assert np.array_equal(I2.joint, [[1, 1], [1, -1]])
        assert np.array_equal(I2.singles_a, [-1, 0]) and np.array_equal(I2.singles_b, [-1, 0])
        assert np.array_equal(I3.joint, [[1, 1, 1], [1, 1, -1], [1, -1, 0]])
        assert np.array_equal(I3.singles_a, [-1, 0, 0]) and np.array_equal(I3.singles_b, [-2, -1, 0])
        assert np.array_equal(
            I4.joint, [[1, 1, 1, 1], [1, 1, 1, -1], [1, 1, -1, 0], [1, -1, 0, 0]]
        )
        assert np.array_equal(I4.singles_a, [-1, 0, 0, 0])
        assert np.array_equal(I4.singles_b, [-3, -2, -1, 0])
        assert inequality("I4") is I4
        with pytest.raises(ValueError, match="unknown"):
            inequality("I5")

    def test_matches_manual_sum(self):
        rng = np.random.default_rng(52)
        model = ProbModel(0.7)
        for spec in (I2, I3, I4):
            settings = random_settings(rng, spec)
            manual = sum(
                spec.joint[i][j] * prob_joint(model, settings.a[i], settings.b[j])
                for i in range(spec.n_a)
                for j in range(spec.n_b)
            )
            manual += 0.5 * (sum(spec.singles_a) + sum(spec.singles_b))  # singles are 1/2
            assert abs(evaluate(spec, settings, model) - manual) < 1e-12

    def test_correlations_collapse_at_k_zero(self):
        # k = 0 kills every correlation term, leaving the constant part;
        # for I2 that constant is (1+1+1-1)/4 - 1/2 - 1/2 = -1/2
        rng = np.random.default_rng(53)
        for _ in range(20):
            settings = random_settings(rng, I2)
            assert abs(evaluate(I2, settings, ProbModel(0.0)) - (-0.5)) < 1e-12

    def test_count_mismatch(self):
        rng = np.random.default_rng(54)
        with pytest.raises(ValueError, match="settings"):
            evaluate(I3, random_settings(rng, I2), ProbModel(0.5))

    def test_linear_in_k(self):
        rng = np.random.default_rng(55)
        for spec in (I2, I3, I4):
            settings = random_settings(rng, spec)
            v0 = evaluate(spec, settings, ProbModel(0.0))
            v1 = evaluate(spec, settings, ProbModel(1.0))
            v_mid = evaluate(spec, settings, ProbModel(0.37))
            assert abs(v_mid - (v0 + 0.37 * (v1 - v0))) < 1e-12

    def test_chsh_planar_grid_oracle(self):
        # brute-force grid over planar angles reaches the analytic maximum
        angles = np.linspace(0.0, 2.0 * np.pi, 72, endpoint=False)
        best = -np.inf
        for tb1 in angles:
            for tb2 in angles:
                a = np.array([[1.0, 0, 0], [0, 1.0, 0]])
                b = np.array(
                    [[np.cos(tb1), np.sin(tb1), 0], [np.cos(tb2), np.sin(tb2), 0]]
                )
                best = max(best, evaluate(I2, BellSettings(a=a, b=b), ProbModel(1.0)))
        assert abs(best - chsh_closed_form(1.0)) < 1e-3  # grid resolution limited


class TestMaximize:
    def test_chsh_value(self):
        value, settings = maximize(I2, ProbModel(1.0))
        assert abs(value - chsh_closed_form(1.0)) < 1e-5
        assert abs(evaluate(I2, settings, ProbModel(1.0)) - value) < 1e-12

    def test_chsh_closed_form_grid(self):
        for k in (0.0, 0.25, 0.46, 1.0 / np.sqrt(2.0), 1.0):
            value, _ = maximize(I2, ProbModel(k))
            assert abs(value - chsh_closed_form(k)) < 1e-5

    def test_small_k_negative(self):
        value, _ = maximize(I2, ProbModel(0.2))
        assert value < 0.0

    def test_i3_violated_by_singlet(self):
        value, settings = maximize(I3, ProbModel(1.0))
        assert value > 0.0
        # certificate: no random settings beat the optimizer
        rng = np.random.default_rng(99)
        model = ProbModel(1.0)
        for _ in range(10_000):
            assert evaluate(I3, random_settings(rng, I3), model) <= value + 1e-9

    def test_chsh_certificate(self):
        value, _ = maximize(I2, ProbModel(1.0))
        rng = np.random.default_rng(98)
        model = ProbModel(1.0)
        for _ in range(10_000):
            assert evaluate(I2, random_settings(rng, I2), model) <= value + 1e-9

    def test_i4_certificate(self):
        value, _ = maximize(I4, ProbModel(1.0))
        rng = np.random.default_rng(97)
        model = ProbModel(1.0)
        for _ in range(10_000):
            assert evaluate(I4, random_settings(rng, I4), model) <= value + 1e-9

    def test_zero_at_threshold(self):
        for spec in (I2, I3, I4):
            value, _ = maximize(spec, ProbModel(threshold(spec)))
            assert abs(value) < 1e-12


class TestCertificate:
    """The see-saw's maximum S is proved by the semidefinite dual bound U >= S."""

    @pytest.mark.parametrize("spec", [I2, I3, I4], ids=lambda spec: spec.name)
    def test_interval_contains_closed_form(self, spec):
        value, bound, _, _ = inequalities._correlation_max(spec)
        assert 0.0 <= bound - value <= 1e-12 * value
        # k* = -4 c0 / S lies in [-4 c0 / U, -4 c0 / S]; the slack is the rounding of S, a few ulps
        c0 = inequalities._constant(spec)
        low, high = -4.0 * c0 / bound, -4.0 * c0 / value
        assert high - low <= 1e-9
        assert low * (1.0 - 1e-15) <= CLOSED_FORM_THRESHOLD[spec.name] <= high * (1.0 + 1e-15)

    @pytest.mark.parametrize("spec", [I2, I3, I4], ids=lambda spec: spec.name)
    def test_unswept_start_does_not_certify(self, spec):
        # the bound proves nothing at settings away from the maximum
        top = inequalities._correlation_max(spec)[0]
        rng = np.random.default_rng(60)
        for _ in range(200):
            settings = random_settings(rng, spec)
            value, bound = inequalities._certificate(spec.joint, settings.a, settings.b)
            assert bound - value > 0.1 * top

    def test_one_sweep_certifies_only_i2(self, monkeypatch):
        # C^T C = 2 I for CHSH, so its first sweep already lands on a maximum;
        # I3 and I4 are still short of theirs, and every start passes uncertified
        top = {spec.name: inequalities._correlation_max(spec)[0] for spec in (I2, I3, I4)}
        monkeypatch.setattr(inequalities, "_SEESAW_MAX_SWEEPS", 1)
        value, bound, _, _ = inequalities._correlation_max(I2)
        assert bound - value <= 1e-12 * value
        for spec in (I3, I4):
            value, bound, _, _ = inequalities._correlation_max(spec)
            assert value < top[spec.name] - 1e-3
            assert bound - value > 1e-3 * value

    def test_stalled_starts_pass_uncertified(self, monkeypatch):
        # with a certificate that never proves anything, each start sweeps until its vectors stop
        # moving and passes to the next, far short of the sweep cap; the best value still wins
        certificate = inequalities._certificate

        def never_certifies(c, a, b):
            value, _ = certificate(c, a, b)
            return value, value + 1.0

        monkeypatch.setattr(inequalities, "_certificate", never_certifies)
        t0 = time.perf_counter()
        value, bound, a, b = inequalities._correlation_max(I4)
        assert time.perf_counter() - t0 < 0.5
        assert abs(value - 11.0 / math.sqrt(2.0)) <= 1e-12 * value
        assert bound == value + 1.0
        assert certificate(I4.joint, a, b)[0] == value

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_jacobi_matches_lapack(self, n):
        # the smallest eigenvalue of symmetric matrices of the certificate's sizes, to rounding
        rng = np.random.default_rng(61 + n)
        for _ in range(50):
            m = rng.normal(size=(n, n))
            m = m + m.T
            want = np.linalg.eigvalsh(m)[0]
            got = inequalities._min_eigenvalue(m.tolist())
            assert abs(got - want) <= 1e-13 * np.abs(m).sum()

    @pytest.mark.parametrize("spec", [I2, I3, I4], ids=lambda spec: spec.name)
    def test_certified_bound_holds_the_maximum(self, spec):
        # c0 + k U/4 is above the attained maximum by no more than the certificate's slack
        # at the optimal settings, and above every value at other settings too
        rng = np.random.default_rng(62)
        for k in (0.0, 0.46, 1.0):
            model = ProbModel(k)
            value, settings = maximize(spec, model)
            bound = inequalities.certified_bound(spec, settings, model)
            assert value <= bound <= value + 1e-12 * max(1.0, abs(value))
            other = random_settings(rng, spec)
            assert evaluate(spec, other, model) <= inequalities.certified_bound(spec, other, model)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("array", ["joint", "singles_a", "singles_b"])
    def test_non_finite_coefficient_rejected(self, array, bad):
        coefficients = {"joint": np.array([[1.0, 1.0], [1.0, -1.0]]),
                        "singles_a": np.array([-1.0, 0.0]), "singles_b": np.array([-1.0, 0.0])}
        coefficients[array].flat[1] = bad
        with pytest.raises(ValueError, match=f"{array} coefficients must be finite"):
            InequalitySpec("bad", **coefficients)

    @pytest.mark.parametrize("big", [1e155, 1e308])
    @pytest.mark.parametrize("array", ["joint", "singles_a", "singles_b"])
    def test_overflowing_coefficients_rejected(self, array, big):
        # finite, but the see-saw's products would overflow (warnings are errors here)
        coefficients = {"joint": np.array([[1.0, 1.0], [1.0, -1.0]]),
                        "singles_a": np.array([-1.0, 0.0]), "singles_b": np.array([-1.0, 0.0])}
        coefficients[array].flat[0] = big
        with pytest.raises(ValueError, match="coefficients too large"):
            InequalitySpec("big", **coefficients)

    def test_large_coefficients_keep_the_threshold(self):
        # k* = -4 c0 / S does not change when every coefficient is scaled
        scaled = InequalitySpec("I2e150", joint=1e150 * np.asarray(I2.joint),
                                singles_a=1e150 * np.asarray(I2.singles_a),
                                singles_b=1e150 * np.asarray(I2.singles_b))
        value, bound, _, _ = inequalities._correlation_max(scaled)
        assert 0.0 <= bound - value <= 1e-12 * value
        assert threshold(scaled) == pytest.approx(CLOSED_FORM_THRESHOLD["I2"], rel=1e-12)


class TestThreshold:
    def test_chsh_threshold_is_inverse_sqrt2(self):
        k_star = threshold(I2)
        assert 0.7064 <= k_star <= 0.7078

    def test_exact_values(self):
        assert abs(threshold(I2) - 1.0 / np.sqrt(2.0)) < 1e-12
        assert abs(threshold(I3) - 0.8) < 1e-12
        # c0 + k g at the optimum: c0 is the k = 0 value, g the slope
        c0 = evaluate(I4, random_settings(np.random.default_rng(57), I4), ProbModel(0.0))
        top, _ = maximize(I4, ProbModel(1.0))
        assert abs(threshold(I4) - (-c0 / (top - c0))) < 1e-12
        # the see-saw attains S = 11/sqrt(2) for I4, so k* = 7 sqrt(2)/11
        assert abs(threshold(I4) - 7.0 * np.sqrt(2.0) / 11.0) < 1e-12

    def test_degenerate_spec_has_no_threshold(self):
        flat = InequalitySpec(
            "flat", joint=np.zeros((2, 2)), singles_a=[-1, 0], singles_b=[-1, 0]
        )
        with pytest.raises(ValueError, match="no violation threshold"):
            threshold(flat)

    def test_chsh_is_strongest(self):
        k2 = threshold(I2)
        for spec in (I3, I4):
            assert threshold(spec) >= k2 - 1e-3


class TestContextuality:
    def test_ideal_measurements(self):
        assert contextuality_value(1.0, 1.0) == 6.0
        assert 6.0 > MERMIN_PERES_CLASSICAL_BOUND

    def test_published_point(self):
        a = np.sqrt(0.46)
        val = contextuality_value(a, a)
        assert abs(val - ((2 * 0.46) ** 2 + 2 * 0.46**3)) < 1e-12
        assert abs(val - 1.041) < 1e-3
        assert val < MERMIN_PERES_CLASSICAL_BOUND

    def test_symmetric(self):
        rng = np.random.default_rng(56)
        for _ in range(100):
            x, y = rng.uniform(-1, 1, size=2)
            assert contextuality_value(x, y) == contextuality_value(y, x)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="analyzing"):
            contextuality_value(1.5, 0.2)
        with pytest.raises(ValueError, match="analyzing"):
            contextuality_value(0.2, np.nan)

    def test_nan_setting_rejected(self):
        with pytest.raises(ValueError, match="non-unit"):
            BellSettings(a=[[0.0, 0.0, 1.0], [np.nan, 0.0, 0.0]], b=[[0.0, 0.0, 1.0]])

    def test_equal_alpha_root(self):
        root = equal_alpha_contextuality_threshold()
        # root of x^3 + 2 x^2 - 2 = 0 in x = alpha^2
        x = root**2
        assert abs(x**3 + 2 * x**2 - 2.0) < 1e-10
        assert 0.91 < root < 0.92
        # the formula's own root is inconsistent with the published 0.88 claim
        assert abs(root - PUBLISHED_EQUAL_ALPHA_THRESHOLD) > 0.03

    def test_equal_alpha_root_exact(self):
        x = equal_alpha_contextuality_threshold() ** 2
        assert abs(x**3 + 2 * x**2 - 2.0) < 1e-14


MAGIC_SQUARE = (
    (("x", None), (None, "x"), ("x", "x")),
    ((None, "y"), ("y", None), ("y", "y")),
    (("x", "y"), ("y", "x"), ("z", "z")),
)
AXIS = {"x": 0, "y": 1, "z": 2}
SINGLET_KET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)


def mermin_peres_quantum_value(scaling):
    """Row/column product expectations of the magic square on the singlet.

    The operator-algebra reference for `contextuality_value(s, s)`. Builds the 3x3 square of two-qubit observables, multiplies the three
    observables of each of the six contexts, takes expectations on the
    singlet and returns the standard sum (rows and first two columns with
    plus sign, last column with minus).  At scaling 1 the products are all
    proportional to the identity and the value is 6, independent of state.
    """
    if not 0.0 <= scaling <= 1.0:
        raise ValueError("scaling must lie in [0, 1]")
    identity = PAULI[0] @ PAULI[0]  # sigma_x^2, exactly

    def observable(labels):
        """Two-qubit observable with each non-identity factor scaled."""
        left, right = (identity if label is None else scaling * PAULI[AXIS[label]] for label in labels)
        return np.kron(left, right)

    square = [[observable(labels) for labels in row] for row in MAGIC_SQUARE]
    rho = np.outer(SINGLET_KET, SINGLET_KET)

    def expect(product):
        return float((product @ rho).trace().real)

    value = 0.0
    for i in range(3):
        value += expect(square[i][0] @ square[i][1] @ square[i][2])
    for j in range(2):
        value += expect(square[0][j] @ square[1][j] @ square[2][j])
    value -= expect(square[0][2] @ square[1][2] @ square[2][2])
    return value


class TestMerminPeres:
    def test_ideal_value(self):
        assert abs(mermin_peres_quantum_value(1.0) - 6.0) < 1e-12

    def test_zero_scaling(self):
        assert mermin_peres_quantum_value(0.0) == 0.0

    def test_matches_scaled_formula(self):
        # operator-algebra value equals the closed form at equal alphas
        for s in np.linspace(0.0, 1.0, 11):
            assert abs(mermin_peres_quantum_value(s) - contextuality_value(s, s)) < 1e-12

    def test_scaling_out_of_range(self):
        with pytest.raises(ValueError, match="scaling"):
            mermin_peres_quantum_value(1.2)
