import hashlib

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


def reference_directions(vectors, u_cos, u_phi):
    """The direction kernel as one expression per step, with fresh arrays: the bits to match."""
    x, y, z = np.atleast_2d(np.asarray(vectors, dtype=float)).T
    a = np.sqrt((x * x + y * y) + z * z)
    if not np.all(a <= 1.0 + 1e-9):
        raise ValueError(f"direction density axis longer than 1: max |v| = {a.max():.6g}")
    a = np.minimum(a, 1.0)
    zero = a == 0.0
    scale = np.where(zero, 1.0, a)
    axis = tuple(np.where(zero, plus_z, c / scale) for c, plus_z in ((x, 0.0), (y, 0.0), (z, 1.0)))
    cos = (4.0 * u_cos + a - 2.0) / (1.0 + np.sqrt((1.0 - a) ** 2 + 4.0 * a * u_cos))
    sin = np.sqrt(np.maximum(1.0 - cos**2, 0.0))
    psi = 2.0 * np.pi * u_phi
    cos_psi, sin_psi = np.cos(psi), np.sin(psi)
    sign = np.copysign(1.0, axis[2])
    h = -1.0 / (sign + axis[2])
    b = axis[0] * axis[1] * h
    e1 = (1.0 + sign * axis[0] * axis[0] * h, sign * b, -sign * axis[0])
    e2 = (b, sign + axis[1] * axis[1] * h, -axis[1])
    return np.stack([cos * axis[i] + sin * (cos_psi * e1[i] + sin_psi * e2[i]) for i in range(3)], axis=1)


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


EDGE_AXES = [
    [0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [0.0, -0.0, 0.0], [-0.0, -0.0, -0.0],  # signed zeros: +z
    [1e-200, 0.0, -1e-200],  # |v| underflows to 0: +z as well
    [0.0, 0.0, -1.0], [0.0, 0.0, -0.5], [0.0, -0.0, -0.3], [1e-9, 0.0, -1.0 + 1e-12],  # about -z
    [0.0, 0.0, 1.0], [0.6, 0.0, -0.8], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0],  # |v| = 1
    [0.0, 0.0, 1.0 + 5e-10], [-(1.0 + 5e-10), 0.0, 0.0],  # clamped to 1
    [0.3, -0.2, 0.5], [-0.1, 0.7, 0.05],
]


class TestKernelInPlace:
    def uniforms(self, count, seed=64):
        u = np.random.default_rng(seed).random((count, 4))
        return u[:, 0], u[:, 1]  # strided columns, as the models pass them

    def test_rows_match_reference(self):
        rng = np.random.default_rng(65)
        rows = rng.normal(size=(5000, 3))
        rows *= rng.random((5000, 1)) / np.linalg.norm(rows, axis=1, keepdims=True)
        rows = np.vstack([rows, np.repeat(EDGE_AXES, 50, axis=0)])
        u_cos, u_phi = self.uniforms(len(rows))
        assert same_bits(directions_from_linear_density(rows, u_cos, u_phi),
                         reference_directions(rows, u_cos, u_phi))

    @pytest.mark.parametrize("v", EDGE_AXES)
    def test_constant_axis_matches_reference(self, v):
        u_cos, u_phi = self.uniforms(777)
        got = directions_from_linear_density(np.array(v), u_cos, u_phi)
        assert same_bits(got, reference_directions(np.array(v), u_cos, u_phi))
        assert same_bits(got, directions_from_linear_density(np.tile(v, (777, 1)), u_cos, u_phi))

    def test_strided_out_is_filled_and_returned(self):
        rows = np.random.default_rng(66).normal(size=(300, 3))
        rows /= 2.0 * np.linalg.norm(rows, axis=1, keepdims=True)
        u_cos, u_phi = self.uniforms(300)
        for vectors in (rows, rows[0]):
            n = np.full((300, 2, 3), 7.0)
            second = n[:, 1]
            assert directions_from_linear_density(vectors, u_cos, u_phi, out=second) is second
            assert same_bits(second, reference_directions(vectors, u_cos, u_phi))
            assert np.all(n[:, 0] == 7.0)
            assert same_bits(directions_from_linear_density(vectors, u_cos, u_phi), n[:, 1])

    def test_out_none_returns_new_rows(self):
        u_cos, u_phi = self.uniforms(10)
        n = directions_from_linear_density(np.zeros(3), u_cos, u_phi)
        assert n.shape == (10, 3) and n.flags.c_contiguous

    @pytest.mark.parametrize("vectors", [np.zeros((0, 3)), np.array([0.0, 0.0, 0.5])],
                             ids=["rows", "constant"])
    def test_zero_rows(self, vectors):
        empty = np.empty(0)
        got = directions_from_linear_density(vectors, empty, empty)
        assert got.shape == (0, 3)
        assert same_bits(got, reference_directions(vectors, empty, empty))

    @pytest.mark.parametrize("bad", [
        [0.0, 0.0, 1.5], [0.0, np.nan, 0.0], [np.inf, 0.0, 0.0], [0.0, 0.0, 1.0 + 2e-9],
    ])
    @pytest.mark.parametrize("shape", ["constant", "rows", "no draws"])
    def test_rejections_match_reference(self, bad, shape):
        count = 0 if shape == "no draws" else 4
        vectors = np.array(bad) if shape != "rows" else np.array([[0.0, 0.0, 0.5]] * 3 + [bad])
        u = np.full(count, 0.5)
        with pytest.raises(ValueError) as want:
            reference_directions(vectors, u, u)
        with pytest.raises(ValueError) as got:
            directions_from_linear_density(vectors, u, u)
        assert str(got.value) == str(want.value)


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

    # sha256 over event_id, role_code, channel_code and n of 3,123 events of seed 16 sampled in
    # 1,000-event chunks, as the element-wise expression kernel gave them
    DIGESTS = {
        "single": "df6a3e6b9f87f8c901e773fe37d76ff3c6bb9db5d8cca5b6053fc7be0fe96ee3",
        "pair": "7727f3c24286339f0003b28a56e55b2da9d51bd19656eaf43edfaed4232a1fc3",
        "pair-k0": "dee0be29a01b3bc349c2c83d253decc7698bf56e824683fd48a5b775566a9a0f",
        "cascade": "1aa092e54f2d57f9fb8a42a383c8abe524afb7873c95d9cca377e74350c59cfb",
    }
    MODELS = {
        "single": SingleDecayModel(params=LAMBDA, polarization=[0.0, 0.3, 0.5]),
        "pair": PairCorrelationModel(k=0.46),
        "pair-k0": PairCorrelationModel(k=0.0),  # signed-zero axes for the second direction
        "cascade": CascadeDecayModel(mu=params_from_alpha_phi(-0.458, -0.011666667 * np.pi), nu=LAMBDA,
                                     polarization=[0.31, -0.27, 0.55]),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_stream_pinned(self, monkeypatch, name, workers):
        monkeypatch.setattr(mc, "_CHUNK", 1_000)  # three whole chunks and a remainder of 123
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
        table = generate(SampleConfig(seed=16, events=3_123, model=self.MODELS[name], workers=workers))
        h = hashlib.sha256()
        for col in (table.event_id, table.role_code, table.channel_code, table.n):
            h.update(np.ascontiguousarray(col).tobytes())
        assert h.hexdigest() == self.DIGESTS[name]

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
