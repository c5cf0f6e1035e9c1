import hashlib

import numpy as np
import pytest
from scipy import stats

from hyperon import mc
from hyperon.cascade import cascade_tau
from hyperon.decay import DecayAmplitudes, params_from_amplitudes
from hyperon.mc import (
    CascadeDecayModel,
    PairCorrelationModel,
    SampleConfig,
    SingleDecayModel,
    _pool_size,
    directions_from_linear_density,
    generate,
)
from hyperon.params import params_from_alpha_phi
from hyperon.sphere import sphere_quadrature

LAMBDA = params_from_alpha_phi(0.642, -0.036111111 * np.pi)


def stream_at(seed, event=0, draws=3):
    """The event stream of `seed` from event `event` on, `draws` doubles per event (3 per decay)."""
    bitgen = np.random.PCG64(seed)
    bitgen.advance(draws * event)
    return np.random.Generator(bitgen)


def kernel_at(model, seed, event):
    """The model's kernel on the doubles of event `event` of the stream of `seed`: that event's rows."""
    draws = 3 * len(model.roles)
    return model.kernel(stream_at(seed, event, draws).random(draws)[None])[0]


def assert_events_are_kernel_runs(model, seed, events):
    """Event i of `generate` is the model's kernel run on PCG64(seed) advanced to event i."""
    table = generate(SampleConfig(seed=seed, events=events, model=model))
    rows = len(model.roles)
    for i in range(events):
        assert np.array_equal(kernel_at(model, seed, i), table.n[rows * i:rows * (i + 1)])


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
            n = directions_from_linear_density(axis, u, rng.random(u.size), rng.random(u.size))
            c = n[:, 2] * np.sign(a) if a != 0 else n[:, 2]
            cdf = lambda x, a=abs(a): (x + 1.0) / 2.0 + a * (x**2 - 1.0) / 4.0
            d = stats.kstest(c, cdf).pvalue
            assert d > 0.01

    def test_zero_axis_is_uniform(self):
        rng = np.random.default_rng(61)
        u = rng.random((3, 100_000))
        n = directions_from_linear_density(np.zeros((100_000, 3)), *u)
        assert np.max(np.abs(n.mean(axis=0))) < 5.0 / np.sqrt(n.shape[0])

    @pytest.mark.parametrize("v", [[0.0, 0.0, 0.0], [0.3, -0.2, 0.5], [0.0, 0.6, -0.8]])
    def test_one_vector_matches_one_row_per_draw(self, v):
        u = np.random.default_rng(62).random((3, 1000))
        rows = np.tile(v, (1000, 1))
        assert np.array_equal(
            directions_from_linear_density(np.array(v), *u),
            directions_from_linear_density(rows, *u),
        )

    def test_unit_length(self):
        # an event file needs |n| within 1e-9 of 1; the kernel's own rounding is a few ulp
        u = np.random.default_rng(63).random((3, 1_000_000))
        n = directions_from_linear_density(np.array([0.3, -0.2, 0.5]), *u)
        assert np.max(np.abs(np.linalg.norm(n, axis=1) - 1.0)) <= 1e-15

    def test_azimuth_from_one_cosine(self):
        # sin phi is taken from cos phi: on a dense u_phi grid, with phi -> 0 (u_phi -> 1/2) and
        # phi -> -pi, pi (u_phi -> 0, 1), n stays unit to 1e-15 and within 2e-8 of the direction
        # built with np.cos and np.sin; the worst case, about 1.1e-8, is where cos phi rounds to +-1
        offsets = np.logspace(-17, -1, 4000)
        u_phi = np.concatenate([np.linspace(0.0, 1.0, 1_000_000, endpoint=False), [0.5], offsets,
                                0.5 - offsets, 0.5 + offsets, 1.0 - offsets[offsets > 1e-16]])
        u_cos = np.random.default_rng(67).random(u_phi.size)
        n = directions_from_linear_density(np.zeros(3), u_cos, u_phi, np.full(u_phi.size, 0.25))  # all kept
        assert np.max(np.abs(np.linalg.norm(n, axis=1) - 1.0)) <= 1e-15
        cos = 2.0 * u_cos - 1.0
        sin = np.sqrt(1.0 - cos * cos)
        phi = 2.0 * np.pi * u_phi - np.pi
        assert np.all((phi >= -np.pi) & (phi < np.pi))
        trig = np.stack([np.cos(phi) * sin, np.sin(phi) * sin, cos], axis=1)
        assert np.max(np.abs(n - trig)) <= 2e-8

    def test_overlong_axis_rejected(self):
        u = np.array([0.5])
        with pytest.raises(ValueError, match="longer than 1"):
            directions_from_linear_density(np.array([[0.0, 0.0, 1.5]]), u, u, u)


def reference_directions(vectors, u_cos, u_phi, u_keep):
    """The direction kernel as one expression per step, with fresh arrays: the bits to match."""
    x, y, z = np.atleast_2d(np.asarray(vectors, dtype=float)).T
    a = np.sqrt((x * x + y * y) + z * z)
    if not np.all(a <= 1.0 + 1e-9):
        raise ValueError(f"direction density axis longer than 1: max |v| = {a.max():.6g}")
    cos = 2.0 * u_cos - 1.0
    sin = np.sqrt(1.0 - cos * cos)
    psi = 2.0 * np.pi * u_phi - np.pi
    cos_psi = np.cos(psi)
    n = (cos_psi * sin, np.copysign(np.sqrt(1.0 - cos_psi * cos_psi), psi) * sin, cos)
    sign = np.copysign(1.0, ((x * n[0] + y * n[1]) + z * n[2]) - (2.0 * u_keep - 1.0))
    return np.stack([c * sign for c in n], axis=1)


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


EDGE_AXES = [
    [0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [0.0, -0.0, 0.0], [-0.0, -0.0, -0.0],  # signed zeros
    [1e-200, 0.0, -1e-200],  # |v| underflows to 0
    [0.0, 0.0, -1.0], [0.0, 0.0, -0.5], [0.0, -0.0, -0.3], [1e-9, 0.0, -1.0 + 1e-12],  # about -z
    [0.0, 0.0, 1.0], [0.6, 0.0, -0.8], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0],  # |v| = 1
    [0.0, 0.0, 1.0 + 5e-10], [-(1.0 + 5e-10), 0.0, 0.0],  # within the 1e-9 tolerance of 1
    [0.3, -0.2, 0.5], [-0.1, 0.7, 0.05],
]


class TestKernelInPlace:
    def uniforms(self, count, seed=64):
        u = np.random.default_rng(seed).random((count, 4))
        return u[:, 0], u[:, 1], u[:, 2]  # strided columns, as the models pass them

    def test_rows_match_reference(self):
        rng = np.random.default_rng(65)
        rows = rng.normal(size=(5000, 3))
        rows *= rng.random((5000, 1)) / np.linalg.norm(rows, axis=1, keepdims=True)
        rows = np.vstack([rows, np.repeat(EDGE_AXES, 50, axis=0)])
        u = self.uniforms(len(rows))
        assert same_bits(directions_from_linear_density(rows, *u), reference_directions(rows, *u))

    @pytest.mark.parametrize("v", EDGE_AXES)
    def test_constant_axis_matches_reference(self, v):
        u = self.uniforms(777)
        got = directions_from_linear_density(np.array(v), *u)
        assert same_bits(got, reference_directions(np.array(v), *u))
        assert same_bits(got, directions_from_linear_density(np.tile(v, (777, 1)), *u))

    def test_keep_threshold_tie(self):
        # v = 0 and u_keep = 1/2 make v.n - (2 u_keep - 1) a zero, whose sign decides:
        # n in the first octant is kept for v = +0 and negated for v = -0
        u = (np.array([0.75]), np.array([0.6]), np.array([0.5]))  # azimuth 0.2 pi
        kept = directions_from_linear_density(np.zeros(3), *u)
        negated = directions_from_linear_density(np.full(3, -0.0), *u)
        assert np.all(kept > 0) and same_bits(negated, -kept)

    def test_strided_out_is_filled_and_returned(self):
        rows = np.random.default_rng(66).normal(size=(300, 3))
        rows /= 2.0 * np.linalg.norm(rows, axis=1, keepdims=True)
        u = self.uniforms(300)
        for vectors in (rows, rows[0]):
            n = np.full((300, 2, 3), 7.0)
            second = n[:, 1]
            assert directions_from_linear_density(vectors, *u, out=second) is second
            assert same_bits(second, reference_directions(vectors, *u))
            assert np.all(n[:, 0] == 7.0)
            assert same_bits(directions_from_linear_density(vectors, *u), n[:, 1])

    def test_out_none_returns_new_rows(self):
        n = directions_from_linear_density(np.zeros(3), *self.uniforms(10))
        assert n.shape == (10, 3) and n.flags.c_contiguous

    @pytest.mark.parametrize("vectors", [np.zeros((0, 3)), np.array([0.0, 0.0, 0.5])],
                             ids=["rows", "constant"])
    def test_zero_rows(self, vectors):
        empty = np.empty(0)
        got = directions_from_linear_density(vectors, empty, empty, empty)
        assert got.shape == (0, 3)
        assert same_bits(got, reference_directions(vectors, empty, empty, empty))

    @pytest.mark.parametrize("bad", [
        [0.0, 0.0, 1.5], [0.0, np.nan, 0.0], [np.inf, 0.0, 0.0], [0.0, 0.0, 1.0 + 2e-9],
    ])
    @pytest.mark.parametrize("shape", ["constant", "rows", "no draws"])
    def test_rejections_match_reference(self, bad, shape):
        count = 0 if shape == "no draws" else 4
        vectors = np.array(bad) if shape != "rows" else np.array([[0.0, 0.0, 0.5]] * 3 + [bad])
        u = np.full(count, 0.5)
        with pytest.raises(ValueError) as want:
            reference_directions(vectors, u, u, u)
        with pytest.raises(ValueError) as got:
            directions_from_linear_density(vectors, u, u, u)
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

    def test_cosine_to_polarization_cdf(self):
        # the cosine c of n to s has the density (1 + alpha |s| c)/2 on [-1, 1]
        s = np.array([0.3, -0.2, 0.6])
        model = SingleDecayModel(params=LAMBDA, polarization=s)
        table = generate(SampleConfig(seed=19, events=200_000, model=model))
        a = LAMBDA.alpha * np.linalg.norm(s)
        cdf = lambda c: (c + 1.0) / 2.0 + a * (c**2 - 1.0) / 4.0
        assert stats.kstest(table.n @ (s / np.linalg.norm(s)), cdf).pvalue > 0.01

    def test_scalar_sampler_matches_generate(self):
        assert_events_are_kernel_runs(SingleDecayModel(params=LAMBDA, polarization=[0.0, 0.3, 0.5]), 12, 16)

    def test_first_samples_repeat(self):
        model = SingleDecayModel(params=LAMBDA, polarization=[0, 0, 1])
        first = [kernel_at(model, 12, i) for i in range(10)]
        again = [kernel_at(model, 12, i) for i in range(10)]
        assert np.array_equal(np.array(first), np.array(again))

    def test_azimuth_uniformity(self):
        # seed 6 since 0.6.0: seed 5 of the PCG64 stream reads p = 0.0006, one of the 1% of
        # seeds below 0.01 (the statistic over 6,000 seeds and 2e8 events of seed 5: CHANGES.md)
        model = SingleDecayModel(params=LAMBDA, polarization=[0.0, 0.0, 1.0])
        table = generate(SampleConfig(seed=6, events=100_000, model=model))
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

    # k = 0.46 at seed 19 since 0.6.0: seed 18 of the PCG64 stream reads p = 0.004, one of the
    # 1% of seeds below 0.01 (the statistic over 6,000 seeds and 2e8 events of seed 18: CHANGES.md)
    @pytest.mark.parametrize("k, seed", [(0.46, 19), (-0.9, 18)], ids=["0.46", "-0.9"])
    def test_dot_cdf(self, k, seed):
        # x = n1.n2 has the density (1 - k x)/2 on [-1, 1]
        table = generate(SampleConfig(seed=seed, events=200_000, model=PairCorrelationModel(k=k)))
        dots = np.einsum(
            "ij,ij->i", table.directions_by_role("pair-1"), table.directions_by_role("pair-2")
        )
        cdf = lambda x: (x + 1.0) / 2.0 - k * (x**2 - 1.0) / 4.0
        assert stats.kstest(dots, cdf).pvalue > 0.01

    def test_azimuth_uniformity(self):
        table = generate(SampleConfig(seed=15, events=100_000, model=PairCorrelationModel(k=0.46)))
        n1 = table.directions_by_role("pair-1")
        assert azimuth_chi2_pvalue(np.arctan2(n1[:, 1], n1[:, 0])) > 0.01

    def test_scalar_sampler_matches_generate(self):
        assert_events_are_kernel_runs(PairCorrelationModel(k=0.46), 10, 16)


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
        assert_events_are_kernel_runs(model, 14, 8)

    def test_one_row_matches_longer_chunks(self):
        # every kernel step is elementwise; one event must get the bits it
        # gets inside a longer chunk, from the kernel on one row and generate
        mu = params_from_alpha_phi(-0.458, -0.011666667 * np.pi)
        model = CascadeDecayModel(mu=mu, nu=LAMBDA, polarization=[0.31, -0.27, 0.55])
        assert_events_are_kernel_runs(model, 14, 300)
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
    # 1,000-event chunks from one PCG64 stream, azimuth on [-pi, pi) (0.6.0).  The Philox
    # blocks and two-trig azimuth of 0.3.0-0.5.x gave
    # single d732e2bec4979f31ea7c13c4555eb96eb9bf8952333e33cdc29d43b10744b6b4,
    # pair c3f9bb45fa01efbc98afecea4179b05c0b02c51c83004a95903fa28b00c2b7e4,
    # pair-k0 991553f5f810c5ef0214d8648a49c55c0cdc32b58f8a8a84bf8d282386aa6602 and
    # cascade 5af13c14d51ce4aa719fbc0593447fd6501e65486a068bf9c5706726c7c982c3.
    # The inverse-CDF kernel of 0.2.x gave
    # single df6a3e6b9f87f8c901e773fe37d76ff3c6bb9db5d8cca5b6053fc7be0fe96ee3,
    # pair 7727f3c24286339f0003b28a56e55b2da9d51bd19656eaf43edfaed4232a1fc3,
    # pair-k0 dee0be29a01b3bc349c2c83d253decc7698bf56e824683fd48a5b775566a9a0f and
    # cascade 1aa092e54f2d57f9fb8a42a383c8abe524afb7873c95d9cca377e74350c59cfb
    DIGESTS = {
        "single": "b9396d46864954994f2d6f2e970df6103b46392243435e8162eb5c5f8c4172f5",
        "pair": "987b7e9c648ad9bc04af8f654cd3b309722caa0053e039f870e39b70eebf3e1f",
        "pair-k0": "77676a3dd7d46526f9fd84729d509977e1e9905f03fa32acb8d8a40ba5b22242",
        "cascade": "77ac35f47cfe6d1f3d8c86cdb37d93a6fcf166ee8fe9e246519b3e93f5cbea9c",
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

    def test_polarization_is_a_read_only_copy(self):
        s = np.array([0.0, 0.0, 0.5])
        model = SingleDecayModel(params=LAMBDA, polarization=s)
        s[2] = 0.9
        assert model.polarization[2] == 0.5 and not model.polarization.flags.writeable
        assert s.flags.writeable

    def test_draw_budget(self, monkeypatch):
        # three uniforms per decay and no padding: 3 draws for a single decay, 6 otherwise
        draws = []
        uniforms = mc._event_uniforms
        monkeypatch.setattr(mc, "_event_uniforms",
                            lambda seed, start, count, d: draws.append(d) or uniforms(seed, start, count, d))
        for name in ("single", "pair", "cascade"):
            generate(SampleConfig(seed=1, events=10, model=self.MODELS[name]))
        assert draws == [3, 6, 6]

    @pytest.mark.parametrize("s", [[0.1, 0.2], [[0.0, 0.0, 0.5]], 0.5])
    def test_wrong_shaped_polarization_rejected(self, s):
        with pytest.raises(ValueError, match=r"polarization must be a 3-vector"):
            SingleDecayModel(params=LAMBDA, polarization=s)
        with pytest.raises(ValueError, match=r"polarization must be a 3-vector"):
            CascadeDecayModel(mu=LAMBDA, nu=LAMBDA, polarization=s)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_inputs_rejected(self, bad):
        with pytest.raises(ValueError, match=r"\|polarization\| exceeds 1"):
            SingleDecayModel(params=LAMBDA, polarization=[bad, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"\|polarization\| exceeds 1"):
            CascadeDecayModel(mu=LAMBDA, nu=LAMBDA, polarization=[0.0, bad, 0.0])
        with pytest.raises(ValueError, match=r"\|k\| exceeds 1"):
            PairCorrelationModel(k=bad)
        u = np.array([0.5])
        with pytest.raises(ValueError, match="longer than 1"):
            directions_from_linear_density(np.array([bad, 0.0, 0.0]), u, u, u)
