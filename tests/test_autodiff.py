import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intentcf import autodiff as ad
from intentcf import nn
from intentcf.autodiff import Tensor
from intentcf.errors import ParameterError, ShapeError, TrainingError

from gradcheck import finite_difference_gradients, max_relative_error


def fd_check(loss_fn, params, h=1e-5, tol=1e-7):
    analytic = ad.gradients(loss_fn(), params)
    numeric = finite_difference_gradients(lambda: loss_fn().item(), params, h=h)
    err = max_relative_error(analytic, numeric)
    assert err < tol, f"max relative gradient error {err}"


class TestPrimitives:
    def test_square_scalar(self):
        w = ad.parameter(3.0, "w")
        loss = ad.mul(w, w)
        ad.backward(loss)
        assert w.grad == pytest.approx(6.0, abs=1e-12)

    def test_softmax_cross_entropy_closed_form(self):
        rng = np.random.default_rng(0)
        logits = ad.parameter(rng.standard_normal(5), "logits")
        onehot = np.zeros(5)
        onehot[2] = 1.0
        p = ad.softmax(logits)
        loss = ad.mul(ad.tsum(ad.mul(Tensor(onehot), ad.log(p))), -1.0)
        grads = ad.gradients(loss, [logits])
        expected = p.data - onehot
        np.testing.assert_allclose(grads["logits"], expected, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = ad.parameter(np.ones(3), "x")
        with pytest.raises(ParameterError):
            ad.backward(ad.mul(x, 2.0))

    def test_matmul_shape_error_names_shapes(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.ones((4, 2)))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            ad.matmul(a, b)

    def test_composite_graph_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        w = ad.parameter(rng.standard_normal((4, 3)), "w")
        b = ad.parameter(rng.standard_normal(3), "b")
        x = Tensor(rng.standard_normal((5, 4)))

        def loss_fn():
            h = ad.tanh(ad.add(ad.matmul(x, w), b))
            p = ad.softmax(h, axis=-1)
            return ad.tsum(ad.mul(ad.log(ad.clip_min(p, 1e-10)), Tensor(rng0)))

        rng0 = np.random.default_rng(8).standard_normal((5, 3))
        fd_check(loss_fn, [w, b])

    def test_gather_and_norm_gradients(self):
        rng = np.random.default_rng(3)
        w = ad.parameter(rng.standard_normal((6, 4)), "w")
        idx = np.array([0, 2, 2, 5])
        coef = np.random.default_rng(4).standard_normal((4, 4))

        def loss_fn():
            g = ad.gather_rows(w, idx)
            n = ad.l2norm_rows(g)
            return ad.tsum(ad.mul(n, Tensor(coef)))

        fd_check(loss_fn, [w])

    def test_take_along_last_gradients(self):
        rng = np.random.default_rng(5)
        w = ad.parameter(rng.standard_normal((3, 5)), "w")
        idx = np.array([[0, 4], [1, 1], [2, 3]])

        def loss_fn():
            t = ad.take_along_last(w, idx)
            return ad.tsum(ad.mul(t, t))

        fd_check(loss_fn, [w])

    def test_broadcast_add_gradients(self):
        b = ad.parameter(np.arange(3.0), "b")
        x = Tensor(np.ones((4, 3)))

        def loss_fn():
            return ad.tsum(ad.mul(ad.add(x, b), ad.add(x, b)))

        fd_check(loss_fn, [b])

    def test_no_grad_blocks_recording(self):
        w = ad.parameter(2.0, "w")
        with ad.no_grad():
            y = ad.mul(w, w)
        assert not y.requires_grad


class TestMlpForward:
    def test_identity_network(self):
        params = nn.MlpParams(
            [ad.parameter(np.eye(2), "w0")], [ad.parameter(np.zeros(2), "b0")], activation="linear"
        )
        out = nn.mlp_forward(params, np.array([1.0, 2.0]))
        np.testing.assert_allclose(out.data, [1.0, 2.0])

    def test_single_affine_layer(self):
        params = nn.MlpParams([ad.parameter([[2.0]], "w0")], [ad.parameter([1.0], "b0")])
        out = nn.mlp_forward(params, np.array([3.0]))
        np.testing.assert_allclose(out.data, [7.0])

    def test_two_layer_matches_hand_evaluation(self):
        rng = np.random.default_rng(11)
        params = nn.init_mlp([3, 4, 2], rng, "f")
        x = np.array([0.5, -1.0, 2.0])
        out = nn.mlp_forward(params, x)
        w0, b0 = params.weights[0].data, params.biases[0].data
        w1, b1 = params.weights[1].data, params.biases[1].data
        expected = np.tanh(x @ w0 + b0) @ w1 + b1
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        params = nn.init_mlp([3, 4, 2], np.random.default_rng(0), "f")
        with pytest.raises(ShapeError, match=r"\(2,\).*\(3,\)"):
            nn.mlp_forward(params, np.zeros(2))

    def test_layer_chain_validated(self):
        with pytest.raises(ShapeError):
            nn.MlpParams(
                [ad.parameter(np.zeros((3, 4)), "w0"), ad.parameter(np.zeros((5, 2)), "w1")],
                [ad.parameter(np.zeros(4), "b0"), ad.parameter(np.zeros(2), "b1")],
            )


class TestSoftmaxTemp:
    def test_symmetric(self):
        out = nn.softmax_temp(np.array([0.0, 0.0]), 0.4)
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-12)

    def test_closed_form_tau_1(self):
        out = nn.softmax_temp(np.array([1.0, 0.0]), 1.0)
        e = np.e
        np.testing.assert_allclose(out.data, [e / (e + 1), 1 / (e + 1)], atol=1e-12)
        np.testing.assert_allclose(out.data, [0.73106, 0.26894], atol=5e-6)

    def test_closed_form_tau_half(self):
        out = nn.softmax_temp(np.array([1.0, 0.0]), 0.5)
        e2 = np.exp(2.0)
        np.testing.assert_allclose(out.data, [e2 / (e2 + 1), 1 / (e2 + 1)], atol=1e-12)
        np.testing.assert_allclose(out.data, [0.88080, 0.11920], atol=5e-6)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ParameterError):
            nn.softmax_temp(np.zeros(2), 0.0)

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=8),
        st.floats(0.05, 5.0),
        st.floats(-10, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_sums_to_one_and_shift_invariant(self, logits, tau, shift):
        x = np.array(logits)
        a = nn.softmax_temp(x, tau).data
        b = nn.softmax_temp(x + shift, tau).data
        assert abs(a.sum() - 1.0) <= 1e-12
        assert np.all(a >= 0)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_smaller_tau_sharpens(self):
        hot = nn.softmax_temp(np.array([1.0, 0.0, -1.0]), 0.2).data
        mild = nn.softmax_temp(np.array([1.0, 0.0, -1.0]), 1.0).data
        assert hot.max() > mild.max()


class TestL2Normalize:
    def test_345_triangle(self):
        np.testing.assert_allclose(ad.l2norm_rows(np.array([3.0, 4.0])).data, [0.6, 0.8], atol=1e-15)

    def test_zero_vector_passthrough(self):
        np.testing.assert_allclose(ad.l2norm_rows(np.zeros(3)).data, np.zeros(3))

    def test_symmetry(self):
        np.testing.assert_allclose(ad.l2norm_rows(np.ones(4)).data, 0.5 * np.ones(4), atol=1e-15)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_on_nonzero(self, vals):
        v = np.array(vals)
        if np.linalg.norm(v) < 1e-6:
            return
        once = ad.l2norm_rows(v).data
        twice = ad.l2norm_rows(once).data
        np.testing.assert_allclose(once, twice, atol=1e-12)
        assert abs(np.linalg.norm(once) - 1.0) <= 1e-12


class TestReparameterize:
    def test_zero_noise_returns_mu_exactly(self):
        out = nn.gaussian_reparameterize(np.array([1.0, 2.0]), np.array([1.0, 1.0]), np.zeros(2))
        assert np.array_equal(out.data, np.array([1.0, 2.0]))

    def test_arithmetic(self):
        assert nn.gaussian_reparameterize(np.array([0.0]), np.array([2.0]), np.array([1.5])).data[0] == 3.0
        assert nn.gaussian_reparameterize(np.array([1.0]), np.array([0.5]), np.array([-2.0])).data[0] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            nn.gaussian_reparameterize(np.zeros(2), np.ones(3), np.zeros(2))


class TestAdam:
    def test_zero_gradients_leave_parameters(self):
        p = ad.parameter(np.array([1.0, -2.0]), "p")
        opt = nn.Adam(lr=0.1)
        before = p.data.copy()
        for _ in range(3):
            opt.step([p], {"p": np.zeros(2)})
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_is_bias_corrected_lr(self):
        p = ad.parameter(1.0, "p")
        opt = nn.Adam(lr=0.1)
        opt.step([p], {"p": np.array(1.0)})
        assert p.data == pytest.approx(0.9, abs=1e-6)

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(123)
            p = ad.parameter(rng.standard_normal(4), "p")
            opt = nn.Adam(lr=0.01)
            for t in range(10):
                g = np.sin(p.data + t)
                opt.step([p], {"p": g})
            return p.data

        a, b = run(), run()
        assert np.array_equal(a, b)

    def test_nan_gradient_names_parameter(self):
        p = ad.parameter(1.0, "layer.w")
        opt = nn.Adam()
        with pytest.raises(TrainingError, match="layer.w"):
            opt.step([p], {"layer.w": np.array(np.nan)})

    def test_mis_shaped_later_gradient_moves_nothing(self):
        a, b = ad.parameter(np.ones(2), "a"), ad.parameter(np.ones(3), "b")
        opt = nn.Adam(lr=0.1)
        with pytest.raises(ShapeError, match="'b'"):
            opt.step([a, b], {"a": np.ones(2), "b": np.ones(2)})
        np.testing.assert_array_equal(a.data, np.ones(2))
        assert opt.t == 0 and not opt.m and not opt.v

    @pytest.mark.parametrize("bad, error", [
        (np.ones(3), ShapeError),
        (np.full((4, 3), np.inf), TrainingError),
        (nn.RowGrad(np.array([1, 4]), np.ones((2, 3))), ShapeError),  # row out of range
        (nn.RowGrad(np.array([-1, 1]), np.ones((2, 3))), ShapeError),
        (nn.RowGrad(np.array([2, 2]), np.ones((2, 3))), ShapeError),  # repeated row
        (nn.RowGrad(np.array([3, 1]), np.ones((2, 3))), ShapeError),  # decreasing rows
        (nn.RowGrad(np.array([3, 1], dtype=np.uint64), np.ones((2, 3))), ShapeError),
        (nn.RowGrad(np.array([0.0, 1.0]), np.ones((2, 3))), ShapeError),  # rows not integers
        (nn.RowGrad(np.array([0, 1]), np.ones((2, 2))), ShapeError),
        (nn.RowGrad(np.array([0, 1]), np.ones((3, 2)), axis=1), ShapeError),
        (nn.RowGrad(np.array([0, 1]), np.ones((4, 2)), axis=2), ShapeError),
        (nn.RowGrad(np.array([0, 1]), np.array([[1.0, 1.0, 1.0], [np.nan, 1.0, 1.0]])), TrainingError),
    ])
    def test_bad_gradient_is_found_before_anything_moves(self, bad, error):
        a, w = ad.parameter(np.ones(2), "a"), ad.parameter(np.ones((4, 3)), "w")
        opt = nn.Adam(lr=0.1)
        opt.step([a, w], {"a": np.ones(2), "w": np.ones((4, 3))})
        before = [x.copy() for x in (a.data, w.data, *opt.m.values(), *opt.v.values())]
        with pytest.raises(error, match="'w'"):
            opt.step([a, w], {"a": np.ones(2), "w": bad})
        assert opt.t == 1
        for x, y in zip(before, (a.data, w.data, *opt.m.values(), *opt.v.values())):
            np.testing.assert_array_equal(x, y)

    @given(st.integers(1, 9), st.integers(1, 5), st.sampled_from([0, 1]), st.integers(1, 4), st.integers(0, 2**31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_row_gradient_step_is_dense_adam_on_the_zero_filled_gradient(self, n, width, axis, warm, seed):
        # bit for bit, -0.0 entries included: zeros plus the values turn
        # -0.0 into +0.0, as a gradient scattered into zeros did
        rng = np.random.default_rng(seed)
        shape = (n, width) if axis == 0 else (width, n)
        sparse = ad.parameter(rng.standard_normal(shape), "w")
        dense = ad.parameter(sparse.data, "w")
        opts = nn.Adam(lr=0.01), nn.Adam(lr=0.01)
        for _ in range(warm):
            g = rng.standard_normal(shape)
            for p, opt in zip((sparse, dense), opts):
                opt.step([p], {"w": g})
        p0, m0, v0 = sparse.data.copy(), opts[0].m["w"].copy(), opts[0].v["w"].copy()
        rows = np.flatnonzero(rng.random(n) < 0.5)
        values = np.moveaxis(rng.standard_normal((rows.size, width)), 0, axis)
        values[rng.random(values.shape) < 0.2] = -0.0
        full = np.zeros(shape)
        np.moveaxis(full, axis, 0)[rows] += np.moveaxis(values, axis, 0)
        opts[0].step([sparse], {"w": nn.RowGrad(rows, values, axis)})
        opts[1].step([dense], {"w": full})

        opt, t = opts[0], warm + 1
        m = opt.beta1 * m0 + (1.0 - opt.beta1) * full
        v = opt.beta2 * v0 + (1.0 - opt.beta2) * (full * full)
        p = p0 - opt.lr * (m / (1.0 - opt.beta1**t)) / (np.sqrt(v / (1.0 - opt.beta2**t)) + opt.eps)
        assert opts[0].t == opts[1].t == t
        for want, got in ((p, sparse.data), (m, opt.m["w"]), (v, opt.v["w"]),
                          (p, dense.data), (m, opts[1].m["w"]), (v, opts[1].v["w"])):
            assert got.tobytes() == want.tobytes()


class TestDiagGaussianKl:
    def test_zero_when_equal(self):
        mu = Tensor(np.array([0.3, -1.0]))
        logvar = Tensor(np.log(np.array([0.5, 2.0])))
        kl = nn.diag_gaussian_kl(mu, logvar, np.array([0.3, -1.0]), np.array([0.5, 2.0]))
        assert kl.item() == pytest.approx(0.0, abs=1e-12)

    def test_scalar_case(self):
        kl = nn.diag_gaussian_kl(Tensor(np.array([1.0])), Tensor(np.array([0.0])), 0.0, 1.0)
        assert kl.item() == pytest.approx(0.5, abs=1e-12)
