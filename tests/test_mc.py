import numpy as np
import pytest
from scipy import stats

from hyperon import mc
from hyperon.cascade import cascade_tau
from hyperon.decay import DecayAmplitudes, params_from_alpha_phi, params_from_amplitudes
from hyperon.mc import (
    DRAWS_PER_EVENT,
    CascadeDecayModel,
    PairCorrelationModel,
    SampleConfig,
    SingleDecayModel,
    _STREAM_CONSTANT,
    _frames,
    _pool_size,
    directions_from_linear_density,
    generate,
    sample_cascade,
    sample_pair,
    sample_single,
)
from hyperon.sphere import sphere_quadrature

LAMBDA = params_from_alpha_phi(0.642, -0.036111111 * np.pi)


def stream_at(seed, event_index=0):
    bitgen = np.random.Philox(key=np.array([seed, _STREAM_CONSTANT], dtype=np.uint64))
    bitgen.advance(event_index)
    return np.random.Generator(bitgen)


def azimuth_chi2_pvalue(angles, bins=36):
    counts, _ = np.histogram(angles, bins=bins, range=(-np.pi, np.pi))
    return stats.chisquare(counts).pvalue


class TestKernels:
    def test_cosine_inverse_cdf(self):
        # empirical CDF of the sampled cosine matches the analytic CDF
        rng = np.random.default_rng(60)
        for a in (-0.9, -0.3, 0.0, 0.42, 1.0):
            u = rng.random(50_000)
            axis = np.tile([0.0, 0.0, 1.0], (u.size, 1)) * abs(a)
            if a < 0:
                axis = -axis
            n = directions_from_linear_density(axis, u, rng.random(u.size))
            c = n[:, 2] * np.sign(a) if a != 0 else n[:, 2]
            cdf = lambda x, a=abs(a): (x + 1.0) / 2.0 + a * (x**2 - 1.0) / 4.0
            d = stats.kstest(c, cdf).pvalue
            assert d > 0.01

    def test_zero_axis_is_uniform(self):
        rng = np.random.default_rng(61)
        n = directions_from_linear_density(np.zeros((100_000, 3)), rng.random(100_000), rng.random(100_000))
        assert np.max(np.abs(n.mean(axis=0))) < 5.0 / np.sqrt(n.shape[0])

    @pytest.mark.parametrize("v", [[0.0, 0.0, 0.0], [0.3, -0.2, 0.5], [0.0, 0.6, -0.8]])
    def test_one_vector_matches_one_row_per_draw(self, v):
        rng = np.random.default_rng(62)
        u_cos, u_phi = rng.random(1000), rng.random(1000)
        rows = np.tile(v, (1000, 1))
        assert np.array_equal(
            directions_from_linear_density(np.array(v), u_cos, u_phi),
            directions_from_linear_density(rows, u_cos, u_phi),
        )

    def test_frames_orthonormal(self):
        rng = np.random.default_rng(63)
        axes = rng.normal(size=(1_000_000, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        t = np.sqrt(1e-9 * (2.0 - 1e-9))  # the rows below within 1e-9 of -z have unit length
        edges = [[0, 0, 1], [0, 0, -1], [1, 0, 0], [1, 0, -0.0], [0, -1, -0.0],
                 [t, 0, -(1 - 1e-9)], [0, t, -(1 - 1e-9)]]
        axes = np.vstack([axes, edges])
        e1, e2 = (np.stack(e, axis=1) for e in _frames(*axes.T))
        dot = lambda p, q: np.einsum("ij,ij->i", p, q)
        for err in (dot(e1, e1) - 1, dot(e2, e2) - 1, dot(e1, e2), dot(e1, axes), dot(e2, axes)):
            assert np.max(np.abs(err)) <= 1e-15

    def test_signed_zero_axis_is_plus_z(self):
        u_cos, u_phi = np.array([0.3, 0.7]), np.array([0.2, 0.9])
        plus = directions_from_linear_density(np.zeros(3), u_cos, u_phi)
        for v in ([0.0, 0.0, -0.0], [-0.0, -0.0, -0.0]):
            n = directions_from_linear_density(np.array(v), u_cos, u_phi)
            assert np.array_equal(n, plus) and np.array_equal(np.signbit(n), np.signbit(plus))

    def test_overlong_axis_rejected(self):
        with pytest.raises(ValueError, match="longer than 1"):
            directions_from_linear_density(np.array([[0.0, 0.0, 1.5]]), np.array([0.5]), np.array([0.5]))


class TestSingleSampler:
    def test_isotropic_when_unpolarized(self):
        params = params_from_alpha_phi(0.9, 0.1)
        table = generate(
            SampleConfig(seed=3, events=100_000, model=SingleDecayModel(params=params))
        )
        assert np.max(np.abs(table.n.mean(axis=0))) < 5.0 / np.sqrt(len(table))

    def test_longitudinal_moment(self):
        model = SingleDecayModel(params=LAMBDA, polarization=[0.0, 0.0, 1.0])
        table = generate(SampleConfig(seed=4, events=1_000_000, model=model))
        assert abs(table.n[:, 2].mean() - 0.642 / 3.0) < 0.003

    def test_scalar_sampler_matches_generate(self):
        model = SingleDecayModel(params=LAMBDA, polarization=[0.0, 0.3, 0.5])
        table = generate(SampleConfig(seed=12, events=16, model=model))
        for i in range(16):
            assert np.array_equal(sample_single(LAMBDA, [0.0, 0.3, 0.5], stream_at(12, i)), table.n[i])

    def test_first_samples_repeat(self):
        first = [sample_single(LAMBDA, [0, 0, 1], stream_at(12, i)) for i in range(10)]
        again = [sample_single(LAMBDA, [0, 0, 1], stream_at(12, i)) for i in range(10)]
        assert np.array_equal(np.array(first), np.array(again))

    def test_azimuth_uniformity(self):
        model = SingleDecayModel(params=LAMBDA, polarization=[0.0, 0.0, 1.0])
        table = generate(SampleConfig(seed=5, events=100_000, model=model))
        assert azimuth_chi2_pvalue(np.arctan2(table.n[:, 1], table.n[:, 0])) > 0.01


class TestPairSampler:
    def test_dot_moment_published_k(self):
        table = generate(SampleConfig(seed=6, events=1_000_000, model=PairCorrelationModel(k=0.46)))
        n1 = table.directions_by_role("pair-1")
        n2 = table.directions_by_role("pair-2")
        dots = np.einsum("ij,ij->i", n1, n2)
        assert abs(dots.mean() - (-0.46 / 3.0)) < 0.002

    def test_uncorrelated(self):
        table = generate(SampleConfig(seed=7, events=200_000, model=PairCorrelationModel(k=0.0)))
        n1 = table.directions_by_role("pair-1")
        n2 = table.directions_by_role("pair-2")
        dots = np.einsum("ij,ij->i", n1, n2)
        assert abs(dots.mean()) < 5.0 * dots.std() / np.sqrt(dots.size)

    def test_relative_cosine_cdf(self):
        k = 1.0
        table = generate(SampleConfig(seed=8, events=100_000, model=PairCorrelationModel(k=k)))
        dots = np.einsum(
            "ij,ij->i", table.directions_by_role("pair-1"), table.directions_by_role("pair-2")
        )
        cdf = lambda c: (c + 1.0) / 2.0 - k * (c**2 - 1.0) / 4.0
        assert stats.kstest(dots, cdf).pvalue > 0.01

    def test_azimuth_uniformity(self):
        table = generate(SampleConfig(seed=15, events=100_000, model=PairCorrelationModel(k=0.46)))
        n1 = table.directions_by_role("pair-1")
        assert azimuth_chi2_pvalue(np.arctan2(n1[:, 1], n1[:, 0])) > 0.01

    def test_scalar_sampler_matches_generate(self):
        model = PairCorrelationModel(k=0.46)
        table = generate(SampleConfig(seed=10, events=16, model=model))
        for i in range(16):
            n1, n2 = sample_pair(0.46, stream_at(10, i))
            assert np.array_equal(n1, table.n[2 * i])
            assert np.array_equal(n2, table.n[2 * i + 1])


def cascade_moment_by_quadrature(mu, nu, s):
    """E[n_mu . n_nu] of the joint density via the product quadrature."""
    nodes, weights = sphere_quadrature(48, 48)
    total = 0.0
    moment = 0.0
    for i, n_mu in enumerate(nodes):
        tau0 = 1.0 + mu.alpha * nu.alpha * (nodes @ n_mu)
        tau_s = (
            (mu.alpha + nu.alpha * (1.0 - mu.gamma) * (nodes @ n_mu)) * (n_mu @ s)
            + nu.alpha * mu.gamma * (nodes @ s)
            + nu.alpha * mu.beta * (np.cross(n_mu, nodes) @ s)
        )
        density = tau0 + tau_s
        total += weights[i] * (weights @ density)
        moment += weights[i] * (weights @ ((nodes @ n_mu) * density))
    return moment / total


class TestCascadeSampler:
    def test_second_direction_uniform_when_off(self):
        mu = params_from_alpha_phi(0.6, 0.2)
        nu = params_from_alpha_phi(0.0, 0.0)
        model = CascadeDecayModel(mu=mu, nu=nu, polarization=[0, 0, 0.8])
        table = generate(SampleConfig(seed=11, events=200_000, model=model))
        n_mu = table.directions_by_role("cascade-mu")
        n_nu = table.directions_by_role("cascade-nu")
        assert np.max(np.abs(n_nu.mean(axis=0))) < 5.0 / np.sqrt(n_nu.shape[0])
        dots = np.einsum("ij,ij->i", n_mu, n_nu)
        assert abs(dots.mean()) < 5.0 * dots.std() / np.sqrt(dots.size)

    def test_unpolarized_moment_matches_quadrature(self):
        mu = params_from_amplitudes(DecayAmplitudes(1.0, 0.4 + 0.3j))
        nu = params_from_amplitudes(DecayAmplitudes(0.5, 0.8j))
        model = CascadeDecayModel(mu=mu, nu=nu)
        table = generate(SampleConfig(seed=12, events=400_000, model=model))
        dots = np.einsum(
            "ij,ij->i",
            table.directions_by_role("cascade-mu"),
            table.directions_by_role("cascade-nu"),
        )
        expected = cascade_moment_by_quadrature(mu, nu, np.zeros(3))
        assert abs(dots.mean() - expected) < 5.0 * dots.std() / np.sqrt(dots.size)

    def test_xi_chain_moments(self):
        mu = params_from_alpha_phi(-0.458, -0.011666667 * np.pi)
        nu = LAMBDA
        s = np.array([0.3, -0.2, 0.6])
        model = CascadeDecayModel(mu=mu, nu=nu, polarization=s)
        table = generate(SampleConfig(seed=13, events=1_000_000, model=model))
        n_mu = table.directions_by_role("cascade-mu")
        n_nu = table.directions_by_role("cascade-nu")
        dots = np.einsum("ij,ij->i", n_mu, n_nu)
        expected = cascade_moment_by_quadrature(mu, nu, s)
        assert abs(dots.mean() - expected) < 5.0 * dots.std() / np.sqrt(dots.size)
        # first-direction marginal moment: E[n_mu . s-hat] = alpha |s| / 3
        s_hat = s / np.linalg.norm(s)
        proj = n_mu @ s_hat
        assert abs(proj.mean() - mu.alpha * np.linalg.norm(s) / 3.0) < 5.0 * proj.std() / np.sqrt(proj.size)

    def test_scalar_sampler_matches_generate(self):
        mu = params_from_alpha_phi(-0.458, -0.011666667 * np.pi)
        model = CascadeDecayModel(mu=mu, nu=LAMBDA, polarization=[0.1, 0.2, 0.3])
        table = generate(SampleConfig(seed=14, events=8, model=model))
        for i in range(8):
            n_mu, n_nu = sample_cascade(mu, LAMBDA, [0.1, 0.2, 0.3], stream_at(14, i))
            assert np.array_equal(n_mu, table.n[2 * i])
            assert np.array_equal(n_nu, table.n[2 * i + 1])

    def test_one_row_matches_longer_chunks(self):
        # every kernel step is elementwise; one event must get the bits it
        # gets inside a longer chunk, from the scalar sampler and generate
        mu = params_from_alpha_phi(-0.458, -0.011666667 * np.pi)
        s = [0.31, -0.27, 0.55]
        model = CascadeDecayModel(mu=mu, nu=LAMBDA, polarization=s)
        table = generate(SampleConfig(seed=14, events=300, model=model))
        for i in range(300):
            assert np.array_equal(np.array(sample_cascade(mu, LAMBDA, s, stream_at(14, i))),
                                  table.n[2 * i:2 * i + 2])
        for seed in range(100):
            one = generate(SampleConfig(seed=seed, events=1, model=model))
            two = generate(SampleConfig(seed=seed, events=2, model=model))
            assert np.array_equal(one.n, two.n[:2])


class TestGenerate:
    def test_worker_count_invariance(self):
        model = PairCorrelationModel(k=0.46)
        one = generate(SampleConfig(seed=1, events=150_000, model=model, workers=1))
        eight = generate(SampleConfig(seed=1, events=150_000, model=model, workers=8))
        assert np.array_equal(one.n, eight.n)
        assert np.array_equal(one.event_id, eight.event_id)
        assert np.array_equal(one.role, eight.role)

    @pytest.mark.parametrize("model", [
        SingleDecayModel(params=LAMBDA, polarization=[0.0, 0.3, 0.5]),
        PairCorrelationModel(k=0.46),
        CascadeDecayModel(mu=params_from_alpha_phi(-0.458, -0.011666667 * np.pi), nu=LAMBDA,
                          polarization=[0.31, -0.27, 0.55]),
    ], ids=["single", "pair", "cascade"])
    def test_chunk_size_invariance(self, monkeypatch, model):
        config = SampleConfig(seed=16, events=20_000, model=model, workers=1)
        default = generate(config)
        monkeypatch.setattr(mc, "_CHUNK", 1_000)
        assert np.array_equal(generate(config).n, default.n)

    def test_seed_changes_stream(self):
        model = SingleDecayModel(params=LAMBDA)
        a = generate(SampleConfig(seed=1, events=100, model=model))
        b = generate(SampleConfig(seed=2, events=100, model=model))
        assert not np.array_equal(a.n, b.n)

    def test_ids_in_order(self):
        model = PairCorrelationModel(k=0.2)
        table = generate(SampleConfig(seed=2, events=1000, model=model))
        assert np.array_equal(table.event_id, np.repeat(np.arange(1000), 2))
        assert list(table.role[:4]) == ["pair-1", "pair-2", "pair-1", "pair-2"]

    def test_zero_events_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            SampleConfig(seed=1, events=0, model=PairCorrelationModel(k=0.2))

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="worker count"):
            SampleConfig(seed=1, events=10, model=PairCorrelationModel(k=0.2), workers=-1)

    def test_pool_size_bounded(self):
        # never more threads than CPUs or chunks, however many are asked for
        assert _pool_size(10**9, 2, 10**6) == 2
        assert _pool_size(10**9, 64, 3) == 3
        assert _pool_size(None, 4, 10**6) == 4
        assert _pool_size(0, 4, 10**6) == 4
        assert _pool_size(1, 64, 10**6) == 1
        assert _pool_size(None, None, 10**6) == 1
        assert _pool_size(8, 8, 1) == 1

    def test_overlong_polarization_rejected_everywhere(self):
        s = [0.0, 0.6, 0.81]
        with pytest.raises(ValueError, match=r"\|polarization\| exceeds 1"):
            SingleDecayModel(params=LAMBDA, polarization=s)
        with pytest.raises(ValueError, match=r"\|polarization\| exceeds 1"):
            CascadeDecayModel(mu=LAMBDA, nu=LAMBDA, polarization=s)
        with pytest.raises(ValueError, match=r"\|s\| exceeds 1"):
            sample_single(LAMBDA, s, stream_at(1))
        with pytest.raises(ValueError, match=r"\|s\| exceeds 1"):
            sample_cascade(LAMBDA, LAMBDA, s, stream_at(1))

    def test_polarization_is_a_read_only_copy(self):
        s = np.array([0.0, 0.0, 0.5])
        model = SingleDecayModel(params=LAMBDA, polarization=s)
        s[2] = 0.9
        assert model.polarization[2] == 0.5 and not model.polarization.flags.writeable
        assert s.flags.writeable

    def test_draw_budget(self):
        assert DRAWS_PER_EVENT == 4

    @pytest.mark.parametrize("s", [[0.1, 0.2], [[0.0, 0.0, 0.5]], 0.5])
    def test_wrong_shaped_polarization_rejected(self, s):
        with pytest.raises(ValueError, match=r"polarization must be a 3-vector"):
            SingleDecayModel(params=LAMBDA, polarization=s)
        with pytest.raises(ValueError, match=r"polarization must be a 3-vector"):
            CascadeDecayModel(mu=LAMBDA, nu=LAMBDA, polarization=s)
        with pytest.raises(ValueError, match=r"s must be a 3-vector"):
            sample_single(LAMBDA, s, stream_at(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_inputs_rejected(self, bad):
        with pytest.raises(ValueError, match=r"\|polarization\| exceeds 1"):
            SingleDecayModel(params=LAMBDA, polarization=[bad, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"\|s\| exceeds 1"):
            sample_cascade(LAMBDA, LAMBDA, [0.0, bad, 0.0], stream_at(1))
        with pytest.raises(ValueError, match=r"\|k\| exceeds 1"):
            PairCorrelationModel(k=bad)
        with pytest.raises(ValueError, match=r"\|k\| exceeds 1"):
            sample_pair(bad, stream_at(1))
        with pytest.raises(ValueError, match="longer than 1"):
            directions_from_linear_density(np.array([bad, 0.0, 0.0]), np.array([0.5]), np.array([0.5]))
