import numpy as np
import pytest
from conftest import fd_gradient, fd_laplacian, pointwise_basis, rel_err

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


def axis_derivatives(b, pts):
    """Gradients (n, M+1, d) from the normal derivatives along each axis."""
    n, d = pts.shape
    return np.stack([b.normal_derivatives(pts, np.tile(np.eye(d)[j], (n, 1)))
                     for j in range(d)], axis=2)


class TestEvaluate:
    def test_tanh_at_origin(self):
        b = tanh_set([[1.0, 0.0]], [0.0])
        origin = np.zeros((1, 2))
        np.testing.assert_allclose(b.values(origin)[0], [1.0, 0.0], atol=0)
        np.testing.assert_allclose(axis_derivatives(b, origin)[0, 1], [1.0, 0.0],
                                   atol=0)
        np.testing.assert_allclose(b.laplacians(origin)[0], [0.0, 0.0], atol=0)

    def test_constant_entry(self):
        b = bas.generate_transferable(7, 2.0, 3, seed=2)
        x = np.array([[0.1, -0.2, 0.3]])
        assert b.values(x)[0, 0] == 1.0
        assert np.all(axis_derivatives(b, x)[0, 0] == 0.0)
        assert b.laplacians(x)[0, 0] == 0.0

    def test_values_bounded_by_one(self, rng):
        b = bas.generate_uniform(40, 3.0, 2, seed=8)
        pts = rng.uniform(-1, 1, size=(200, 2))
        vals = b.values(pts)
        assert np.all(np.abs(vals[:, 1:]) < 1.0)

    def test_non_finite_input_rejected(self):
        b = bas.generate_uniform(3, 1.0, 2, seed=1)
        with pytest.raises(ValueError):
            b.values(np.array([[np.nan, 0.0]]))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_batch_matches_pointwise_bitwise(self, dim, rng):
        # a point's row does not depend on the batch it is evaluated in, nor
        # on the chunk of the batch it falls in
        for m in (30, 1000):
            b = bas.rescale(bas.generate_transferable(m, 2.0, dim, seed=5),
                            np.array([0.3, -0.1, 0.2][:dim]), 4)
            n = 2 * bas.chunk_rows(m) + 3
            pts = rng.uniform(-1, 1, size=(n, dim))
            normals = rng.standard_normal((n, dim))
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            vals = b.values(pts)
            laps = b.laplacians(pts)
            nds = b.normal_derivatives(pts, normals)
            for i in (0, 17, n // 2, n - 1):
                one = slice(i, i + 1)
                assert b.values(pts[one]).tobytes() == vals[i].tobytes()
                assert b.laplacians(pts[one]).tobytes() == laps[i].tobytes()
                assert b.normal_derivatives(pts[one], normals[one]).tobytes() \
                    == nds[i].tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_batch_matches_pointwise_oracle(self, dim, rng):
        b = bas.rescale(bas.generate_transferable(20, 2.0, dim, seed=40 + dim),
                        rng.uniform(-0.3, 0.3, size=dim), 3)
        pts = rng.uniform(-1, 1, size=(30, dim))
        normals = rng.standard_normal((30, dim))
        vals = b.values(pts)
        laps = b.laplacians(pts)
        nds = b.normal_derivatives(pts, normals)
        # the two paths round the preactivation z (|z| < 16 here, one ulp is
        # 3.6e-15) differently; the Laplacian's factor a^2 |w|^2 = 36 times
        # |d/dz tanh''| < 1.6 bounds the difference by about 2e-13
        for i, x in enumerate(pts):
            values, gradients, laplacians = pointwise_basis(b, x)
            assert rel_err(vals[i], values) <= 1e-12
            assert rel_err(laps[i], laplacians) <= 1e-12
            assert rel_err(nds[i], gradients @ normals[i]) <= 1e-12

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
            grads = axis_derivatives(b, pts[:20])
            laps = b.laplacians(pts[:20])
            for i, x in enumerate(pts[:20]):
                grad_fd = fd_gradient(lambda y: b.values(y[None, :])[0], x)
                assert rel_err(grad_fd, grads[i]) <= 1e-8
                lap_fd = fd_laplacian(lambda y: b.values(y[None, :])[0], x)
                assert rel_err(lap_fd, laps[i]) <= 1e-6

    def test_normal_derivatives_match_gradients(self, rng):
        b = bas.generate_transferable(25, 2.0, 2, seed=6)
        pts = rng.uniform(-1, 1, size=(40, 2))
        normals = rng.standard_normal((40, 2))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        nd = b.normal_derivatives(pts, normals)
        expected = np.array([pointwise_basis(b, x)[1] @ n
                             for x, n in zip(pts, normals)])
        np.testing.assert_allclose(nd, expected, atol=1e-14)


def evaluations(b, pts, normals):
    """(name, call(out=...)) for every evaluation method of ``b`` at ``pts``."""
    return [("values", lambda **kw: b.values(pts, **kw)),
            ("laplacians", lambda **kw: b.laplacians(pts, **kw)),
            ("normal_derivatives", lambda **kw: b.normal_derivatives(pts, normals, **kw))]


class TestEvaluateInto:
    """``out=``: rows written in place, in chunks, into a slice of a host matrix."""

    M = 1000

    @pytest.mark.parametrize("dim", [2, 3])
    def test_rows_match_fresh_call_for_every_chunking(self, dim, rng):
        b = bas.rescale(bas.generate_transferable(self.M, 2.0, dim, seed=dim),
                        rng.uniform(-0.3, 0.3, size=dim), 3)
        step = bas.chunk_rows(self.M)
        for n in (0, 1, step - 1, step, step + 1, 3 * step + 5):
            pts = rng.uniform(-1, 1, size=(n, dim))
            normals = rng.standard_normal((n, dim))
            host = rng.standard_normal((n + 7, b.size))
            for name, call in evaluations(b, pts, normals):
                before = host.copy()
                fresh = call()
                call(out=host[4:4 + n])
                assert host[4:4 + n].tobytes() == fresh.tobytes(), (name, n)
                assert host[:4].tobytes() == before[:4].tobytes(), (name, n)
                assert host[4 + n:].tobytes() == before[4 + n:].tobytes(), (name, n)

    def test_returns_out(self, rng):
        b = bas.generate_transferable(5, 2.0, 2, seed=1)
        pts = rng.uniform(-1, 1, size=(4, 2))
        out = np.empty((4, b.size))
        for _, call in evaluations(b, pts, pts):
            assert call(out=out) is out

    @pytest.mark.parametrize("bad", ["shape", "dtype", "read-only", "list"])
    def test_unfit_out_rejected(self, bad, rng):
        b = bas.generate_transferable(5, 2.0, 2, seed=1)
        pts = rng.uniform(-1, 1, size=(4, 2))
        out = {"shape": np.empty((4, b.size - 1)),
               "dtype": np.empty((4, b.size), dtype=np.float32),
               "read-only": np.empty((4, b.size)),
               "list": [[0.0] * b.size] * 4}[bad]
        if bad == "read-only":
            out.flags.writeable = False
        for name, call in evaluations(b, pts, pts):
            with pytest.raises(ValueError):
                call(out=out)


def broadcast_oracle(b, pts, normals):
    """Values, Laplacians and normal derivatives of ``b``, each of shape
    (n, M+1), by the broadcast products ``np.multiply(a[:, j, None],
    w[None, :, j])`` summed over the axes left to right, and the same
    elementwise steps, in the same order, as ``BasisSet``: the bits the
    evaluation must keep, however its axis products are formed."""
    def axis_dot(a):
        out = np.multiply(a[:, 0, None], b.weights[None, :, 0])
        for j in range(1, b.dim):
            out += np.multiply(a[:, j, None], b.weights[None, :, j])
        return out

    psi = axis_dot(pts - b.center)
    psi *= b.scale
    psi += b.biases
    t = np.tanh(psi)
    slope = np.subtract(1.0, t * t)
    coef = b.scale * b.scale * np.sum(b.weights * b.weights, axis=1)
    n = len(pts)
    values = np.column_stack([np.ones(n), t])
    laplacians = np.column_stack([np.zeros(n), slope * (t * -2.0 * coef)])
    normal = np.column_stack([np.zeros(n), axis_dot(normals) * (slope * b.scale)])
    return {"values": values, "laplacians": laplacians,
            "normal_derivatives": normal}


class TestBroadcastOracle:
    """The evaluation keeps the bits of broadcast axis products."""

    @pytest.mark.parametrize("scale", [1, 6])
    @pytest.mark.parametrize("kind", ["transferable", "uniform"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_bits_equal_broadcast_products(self, dim, kind, scale, rng):
        m = 200
        make = {"transferable": lambda: bas.generate_transferable(m, 2.0, dim, seed=7),
                "uniform": lambda: bas.generate_uniform(m, 1.5, dim, seed=7)}[kind]
        center = rng.uniform(-0.3, 0.3, size=dim)
        b = bas.rescale(make(), center, scale)
        step = bas.chunk_rows(m)
        # three chunks and a bit, with the centre itself (a zero offset on
        # every axis) at the first row, on both sides of the first chunk
        # boundary and at the last row; axis-aligned unit normals (zero
        # components) among them, as on the faces of a box
        n = 3 * step + 2
        pts = rng.uniform(-1, 1, size=(n, dim))
        pts[[0, step - 1, step, n - 1]] = center
        normals = rng.standard_normal((n, dim))
        normals[step - 2:step + 2] = -np.eye(dim)[np.arange(4) % dim]
        expected = broadcast_oracle(b, pts, normals)
        tall = rng.standard_normal((n + 5, b.size))
        wide = rng.standard_normal((n + 5, b.size + 3))
        for name, call in evaluations(b, pts, normals):
            want = expected[name].tobytes()
            assert call().tobytes() == want, name
            assert call(out=tall[2:2 + n]).tobytes() == want, name
            assert tall[2:2 + n].tobytes() == want, name
            call(out=wide[2:2 + n, 1:1 + b.size])
            assert np.ascontiguousarray(wide[2:2 + n, 1:1 + b.size]).tobytes() \
                == want, name

    def test_only_an_all_zero_dot_loses_its_sign(self):
        # The one difference from broadcast products: an axis product that is
        # -0.0 enters the sum as +0.0. It shows only where every axis product
        # is zero and nothing nonzero is added, as in the normal derivative
        # along a zero vector, or a preactivation at the centre with a bias of
        # -0.0. Unit normals and the generators' biases (never -0.0) do not
        # reach it; the numbers compare equal either way.
        b = tanh_set([[-0.5, -1.0], [-0.25, -2.0]], [-0.0, 0.3])
        at_centre = np.zeros((1, 2))
        zero_normal = np.zeros((1, 2))
        expected = broadcast_oracle(b, at_centre, zero_normal)
        for name, call in evaluations(b, at_centre, zero_normal):
            got = call()
            assert np.array_equal(got, expected[name]), name
            differ = np.signbit(got) != np.signbit(expected[name])
            assert np.any(differ) and np.all(got[differ] == 0.0), name


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
