import numpy as np
import pytest
from conftest import fd_gradient, fd_laplacian, rel_err

from rfpde import basis as bas


def tanh_set(weights, biases, **kw):
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    return bas.BasisSet(weights=weights,
                        biases=np.asarray(biases, dtype=float),
                        center=np.zeros(weights.shape[1]), **kw)


class TestGenerators:
    def test_uniform_range_containment(self):
        b = bas.generate_uniform(5, 1.0, 2, seed=7)
        assert b.n_neurons == 5 and b.size == 6
        assert np.all(np.abs(b.weights) <= 1.0)
        assert np.all(np.abs(b.biases) <= 1.0)

    def test_uniform_determinism(self):
        a = bas.generate_uniform(50, 2.0, 3, seed=11)
        b = bas.generate_uniform(50, 2.0, 3, seed=11)
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.biases.tobytes() == b.biases.tobytes()

    def test_uniform_monte_carlo_mean(self):
        # U[-1,1] has sigma = 1/sqrt(3); 3-sigma band for the mean of 10^4 draws
        b = bas.generate_uniform(10000, 1.0, 1, seed=3)
        assert abs(b.weights.mean()) <= 3.0 * (1.0 / np.sqrt(3.0)) / 100.0

    def test_streams_are_independent(self):
        a = bas.generate_uniform(10, 1.0, 2, seed=5, stream=0)
        b = bas.generate_uniform(10, 1.0, 2, seed=5, stream=1)
        assert a.weights.tobytes() != b.weights.tobytes()

    def test_transferable_weight_norms(self):
        gamma = 2.5
        b = bas.generate_transferable(200, gamma, 2, seed=1)
        np.testing.assert_allclose(np.linalg.norm(b.weights, axis=1), gamma,
                                   atol=1e-12)
        ratios = b.biases / gamma
        assert np.all((ratios >= 0.0) & (ratios <= 1.0))

    def test_transferable_directions_balanced(self):
        # each half-plane through the origin gets a binomial(M, 1/2) share
        b = bas.generate_transferable(20000, 1.0, 2, seed=9)
        dirs = b.weights
        rng = np.random.default_rng(4)
        for _ in range(5):
            normal = rng.standard_normal(2)
            count = int(np.sum(dirs @ normal > 0))
            assert abs(count - 10000) <= 3.0 * np.sqrt(20000 * 0.25)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            bas.generate_uniform(0, 1.0, 2, seed=1)
        with pytest.raises(ValueError):
            bas.generate_transferable(3, -1.0, 2, seed=1)


class TestEvaluate:
    def test_tanh_at_origin(self):
        b = tanh_set([[1.0, 0.0]], [0.0])
        bundle = b.evaluate(np.zeros(2))
        np.testing.assert_allclose(bundle.values, [1.0, 0.0], atol=0)
        np.testing.assert_allclose(bundle.gradients[1], [1.0, 0.0], atol=0)
        np.testing.assert_allclose(bundle.laplacians, [0.0, 0.0], atol=0)

    def test_constant_entry(self):
        b = bas.generate_transferable(7, 2.0, 3, seed=2)
        bundle = b.evaluate(np.array([0.1, -0.2, 0.3]))
        assert bundle.values[0] == 1.0
        assert np.all(bundle.gradients[0] == 0.0)
        assert bundle.laplacians[0] == 0.0

    def test_values_bounded_by_one(self, rng):
        b = bas.generate_uniform(40, 3.0, 2, seed=8)
        pts = rng.uniform(-1, 1, size=(200, 2))
        vals = b.values(pts)
        assert np.all(np.abs(vals[:, 1:]) < 1.0)

    def test_non_finite_input_rejected(self):
        b = bas.generate_uniform(3, 1.0, 2, seed=1)
        with pytest.raises(ValueError):
            b.evaluate(np.array([np.nan, 0.0]))

    def test_batch_matches_pointwise_bitwise(self, rng):
        b = bas.rescale(bas.generate_transferable(30, 2.0, 2, seed=5),
                        np.array([0.3, -0.1]), 4)
        pts = rng.uniform(-1, 1, size=(64, 2))
        vals = b.values(pts)
        grads = b.gradients(pts)
        laps = b.laplacians(pts)
        for i in (0, 17, 63):
            bundle = b.evaluate(pts[i])
            assert bundle.values.tobytes() == vals[i].tobytes()
            assert bundle.gradients.tobytes() == grads[i].tobytes()
            assert bundle.laplacians.tobytes() == laps[i].tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_derivatives_match_finite_differences(self, dim, rng):
        for trial in range(5):
            if trial % 2:
                b = bas.generate_uniform(10, 1.5, dim, seed=100 + trial)
            else:
                b = bas.generate_transferable(10, 2.0, dim, seed=100 + trial)
            if trial == 4:
                b = bas.rescale(b, rng.uniform(-0.3, 0.3, size=dim), 3)
            pts = rng.uniform(-1, 1, size=(100, dim))
            for x in pts[:20]:
                bundle = b.evaluate(x)
                grad_fd = fd_gradient(lambda y: b.values(y[None, :])[0], x)
                assert rel_err(grad_fd, bundle.gradients) <= 1e-8
                lap_fd = fd_laplacian(lambda y: b.values(y[None, :])[0], x)
                assert rel_err(lap_fd, bundle.laplacians) <= 1e-6

    def test_normal_derivatives_match_gradients(self, rng):
        b = bas.generate_transferable(25, 2.0, 2, seed=6)
        pts = rng.uniform(-1, 1, size=(40, 2))
        normals = rng.standard_normal((40, 2))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        nd = b.normal_derivatives(pts, normals)
        grads = b.gradients(pts)
        expected = np.einsum("nmd,nd->nm", grads, normals)
        np.testing.assert_allclose(nd, expected, atol=1e-14)


class TestRescale:
    def test_identity_rescale(self, rng):
        b = bas.generate_transferable(20, 2.0, 2, seed=4)
        same = bas.rescale(b, np.zeros(2), 1)
        pts = rng.uniform(-1, 1, size=(30, 2))
        assert same.values(pts).tobytes() == b.values(pts).tobytes()
        assert same.laplacians(pts).tobytes() == b.laplacians(pts).tobytes()

    def test_zero_bias_vanishes_at_center(self):
        b = tanh_set([[0.7, -0.4], [1.2, 0.3]], [0.0, 0.0])
        center = np.array([0.25, -0.5])
        scaled = bas.rescale(b, center, 5)
        vals = scaled.values(center[None, :])[0]
        np.testing.assert_allclose(vals[1:], 0.0, atol=0)

    def test_matches_scaled_form(self, rng):
        b = tanh_set([[0.8, -0.2]], [0.3])
        center = np.array([0.5, 0.5])
        scaled = bas.rescale(b, center, 4)
        delta = rng.uniform(-0.1, 0.1, size=2)
        got = scaled.values((center + delta)[None, :])[0, 1]
        expected = np.tanh(4.0 * (b.weights[0] @ delta) + 0.3)
        assert got == pytest.approx(expected, rel=1e-15)

    def test_scale_below_one_rejected(self):
        b = bas.generate_uniform(3, 1.0, 2, seed=1)
        with pytest.raises(ValueError):
            bas.rescale(b, np.zeros(2), 0.5)


def test_manifest_roundtrip():
    import json
    b = bas.rescale(bas.generate_transferable(12, 1.5, 3, seed=42, stream=2),
                    np.array([0.1, 0.2, 0.3]), 6)
    back = bas.BasisSet.from_manifest(json.loads(json.dumps(b.to_manifest())))
    assert back.weights.tobytes() == b.weights.tobytes()
    assert back.biases.tobytes() == b.biases.tobytes()
    assert back.center.tobytes() == b.center.tobytes()
    assert back.scale == b.scale and back.input_scale == b.input_scale
    assert back.gamma == b.gamma and back.seed == b.seed
    assert back.strategy == b.strategy and back.stream == b.stream
