import contextlib
import math
import os
import pickle
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from conftest import BYTE_EDITS, assert_no_child_left, force_workers, mutate_bytes
from streetcrop import neuralnet as nn
from streetcrop.errors import DataValidationError
from streetcrop.neuralnet import (
    Conv2D,
    Dense,
    Dropout,
    MaxPool,
    NetworkSpec,
    ReLU,
    SerializationError,
    ShapeMismatchError,
    Softmax,
    TrainConfig,
    TrainingDivergedError,
)


def dense_spec(n_in=3, units=2, k=2):
    return NetworkSpec((Dense(units), Softmax()), (n_in,), units if units == k else k)


def small_conv_spec(k=3):
    return NetworkSpec(
        (Conv2D(4, 3, 3), ReLU(), MaxPool(2), Dense(k), Softmax()), (2, 6, 6), k
    )


class TestBuild:
    def test_parameter_counting(self):
        spec = NetworkSpec((Dense(2), Softmax()), (3,), 2)
        net = nn.build_network(spec, seed=0)
        params = net.parameters()
        assert [p.shape for p in params] == [(2, 3), (2,)]

    def test_same_seed_same_weights(self):
        spec = small_conv_spec()
        a = nn.build_network(spec, seed=11)
        b = nn.build_network(spec, seed=11)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa, pb)

    def test_different_seed_different_weights(self):
        spec = small_conv_spec()
        a = nn.build_network(spec, seed=1)
        b = nn.build_network(spec, seed=2)
        assert any((pa != pb).any() for pa, pb in zip(a.parameters(), b.parameters()))

    def test_kernel_larger_than_input(self):
        spec = NetworkSpec((Conv2D(4, 7, 7), ReLU(), Dense(2), Softmax()), (1, 5, 5), 2)
        with pytest.raises(ShapeMismatchError):
            nn.build_network(spec, seed=0)

    def test_pool_larger_than_input(self):
        spec = NetworkSpec((MaxPool(8), Dense(2), Softmax()), (1, 5, 5), 2)
        with pytest.raises(ShapeMismatchError):
            nn.build_network(spec, seed=0)

    def test_softmax_size_must_match_classes(self):
        spec = NetworkSpec((Dense(4), Softmax()), (3,), 2)
        with pytest.raises(ShapeMismatchError):
            nn.build_network(spec, seed=0)


class TestForward:
    def test_probabilities_sum_to_one(self):
        net = nn.build_network(small_conv_spec(), seed=3)
        probs = net.forward_batch(np.random.default_rng(0).normal(size=(5, 2, 6, 6)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert (probs >= 0).all()

    def test_dropout_rate_zero_train_equals_infer(self):
        spec = NetworkSpec((Dense(4), ReLU(), Dropout(0.0), Dense(2), Softmax()), (3,), 2)
        net = nn.build_network(spec, seed=1)
        x = np.array([[0.5, -0.2, 1.0]])
        np.testing.assert_array_equal(
            net.forward_batch(x, train=True, rng=np.random.default_rng(0)),
            net.forward_batch(x),
        )

    def test_zero_weights_give_uniform(self):
        net = nn.build_network(NetworkSpec((Dense(7), Softmax()), (4,), 7), seed=0)
        for p in net.parameters():
            p[...] = 0.0
        probs = net.forward_batch(np.ones((1, 4)))
        np.testing.assert_allclose(probs, 1.0 / 7, atol=1e-12)

    def test_shape_mismatch(self):
        net = nn.build_network(dense_spec(), seed=0)
        with pytest.raises(ShapeMismatchError):
            net.forward_batch(np.zeros((1, 5)))

    def test_bad_mode(self):
        # a train-mode forward draws dropout masks, so it needs an rng
        spec = NetworkSpec((Dense(4), Dropout(0.5), Dense(2), Softmax()), (3,), 2)
        net = nn.build_network(spec, seed=0)
        with pytest.raises(DataValidationError):
            net.forward_batch(np.zeros((1, 3)), train=True)


class TestLoss:
    def test_perfect_prediction_loss_zero(self):
        net = nn.build_network(NetworkSpec((Dense(2), Softmax()), (2,), 2), seed=0)
        w, b = net.parameters()
        w[...] = 0.0
        b[...] = [60.0, -60.0]  # softmax saturates at p ~ 1
        loss, _ = nn.loss_and_gradients(net, (np.zeros((1, 2)), np.array([0])))
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_uniform_prediction_is_log_k(self):
        net = nn.build_network(NetworkSpec((Dense(7), Softmax()), (3,), 7), seed=0)
        for p in net.parameters():
            p[...] = 0.0
        loss, _ = nn.loss_and_gradients(net, (np.ones((4, 3)), np.array([0, 1, 2, 3])))
        assert loss == pytest.approx(math.log(7), abs=1e-12)

    def test_label_out_of_range(self):
        net = nn.build_network(dense_spec(), seed=0)
        with pytest.raises(DataValidationError):
            nn.loss_and_gradients(net, (np.zeros((1, 3)), np.array([5])))


class TestGradients:
    def test_dense_softmax_matches_finite_differences(self):
        net = nn.build_network(NetworkSpec((Dense(3), Softmax()), (4,), 3), seed=0)
        x = np.random.default_rng(1).normal(size=4)
        assert nn.gradient_check(net, (x, 1), eps=1e-5) < 1e-4

    def test_conv_relu_pool_dense_matches_finite_differences(self):
        net = nn.build_network(small_conv_spec(), seed=2)
        x = np.random.default_rng(2).normal(size=(2, 6, 6))
        assert nn.gradient_check(net, (x, 0), eps=1e-5) < 1e-4

    def test_same_padding_conv(self):
        spec = NetworkSpec(
            (Conv2D(3, 3, 3, same_padding=True), ReLU(), Dense(3), Softmax()), (1, 7, 4), 3
        )
        net = nn.build_network(spec, seed=4)
        x = np.random.default_rng(4).normal(size=(1, 7, 4))
        assert nn.gradient_check(net, (x, 2), eps=1e-5) < 1e-4

    def test_dropout_disabled_during_check_is_deterministic(self):
        spec = NetworkSpec((Dense(8), ReLU(), Dropout(0.5), Dense(2), Softmax()), (3,), 2)
        net = nn.build_network(spec, seed=6)
        x = np.random.default_rng(6).normal(size=3)
        a = nn.gradient_check(net, (x, 0), eps=1e-5)
        b = nn.gradient_check(net, (x, 0), eps=1e-5)
        assert a == b
        assert a < 1e-4
        assert [ls.rate for ls in net.spec.layers if isinstance(ls, Dropout)] == [0.5]

    def test_check_leaves_its_argument_alone(self):
        spec = NetworkSpec(
            (Conv2D(2, 3, 3), ReLU(), MaxPool(2), Dropout(0.4), Dense(3), Softmax()), (1, 6, 6), 3
        )
        net = nn.build_network(spec, seed=2)
        layers = list(net.layers)
        weights = [p.copy() for p in net.parameters()]
        nn.gradient_check(net, (np.random.default_rng(2).normal(size=(1, 6, 6)), 1), eps=1e-5)
        assert net.spec == spec
        assert net.layers == layers
        assert [layer.spec for layer in net.layers] == list(spec.layers)
        for before, after in zip(weights, net.parameters()):
            np.testing.assert_array_equal(before, after)

    def test_eps_bounds(self):
        net = nn.build_network(dense_spec(), seed=0)
        with pytest.raises(DataValidationError):
            nn.gradient_check(net, (np.zeros(3), 0), eps=1e-2)


class TestMaxPoolRouting:
    def brute_force_pool_backward(self, x, dout, size):
        """Route each window's gradient to its first argmax, by loops."""
        c, h, w = x.shape
        oh, ow = h // size, w // size
        dx = np.zeros_like(x)
        for ci in range(c):
            for i in range(oh):
                for j in range(ow):
                    window = x[ci, i * size : (i + 1) * size, j * size : (j + 1) * size]
                    flat = window.reshape(-1)
                    k = int(np.argmax(flat))
                    dx[ci, i * size + k // size, j * size + k % size] += dout[ci, i, j]
        return dx

    def test_gradient_goes_only_to_argmax(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            x = rng.normal(size=(1, 2, 4, 4))
            layer = nn._MaxPoolLayer(MaxPool(2), (2, 4, 4))
            layer.forward(x, True, None, None)
            dout = rng.normal(size=(1, 2, 2, 2))
            dx, _ = layer.backward(dout)
            expected = self.brute_force_pool_backward(x[0], dout[0], 2)
            np.testing.assert_allclose(dx[0], expected, atol=1e-12)

    def test_ties_route_to_first_position(self):
        x = np.full((1, 1, 2, 2), 3.0)
        layer = nn._MaxPoolLayer(MaxPool(2), (1, 2, 2))
        layer.forward(x, True, None, None)
        dx, _ = layer.backward(np.ones((1, 1, 1, 1)))
        np.testing.assert_array_equal(dx[0, 0], [[1.0, 0.0], [0.0, 0.0]])


def batch_last_view(x):
    """An (n, ...) view of a batch-last copy of ``x``, as a network passes it."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 0, -1)), -1, 0)


def loop_conv(x, w, b, pads, dout):
    """Forward output and (dw, db, dx) of a stride-1 convolution, by direct loops."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    pt, pb, pl, pr = pads
    xp = np.zeros((n, c, h + pt + pb, wd + pl + pr))
    xp[:, :, pt : pt + h, pl : pl + wd] = x
    oh = xp.shape[2] - kh + 1
    ow = xp.shape[3] - kw + 1
    out = np.zeros((n, f, oh, ow))
    dw = np.zeros_like(w)
    dxp = np.zeros_like(xp)
    for ni in range(n):
        for fi in range(f):
            for i in range(oh):
                for j in range(ow):
                    rows = slice(i, i + kh)
                    cols = slice(j, j + kw)
                    out[ni, fi, i, j] = (xp[ni, :, rows, cols] * w[fi]).sum() + b[fi]
                    dw[fi] += dout[ni, fi, i, j] * xp[ni, :, rows, cols]
                    dxp[ni, :, rows, cols] += dout[ni, fi, i, j] * w[fi]
    db = dout.sum(axis=(0, 2, 3))
    return out, (dw, db, dxp[:, :, pt : pt + h, pl : pl + wd])


class TestConvOracle:
    # id -> (spec, input shape, (top, bottom, left, right) padding); the ids
    # are pinned so that removing a case renames none of the others
    CASES = {
        "spec0-in_shape0-pads0": (Conv2D(3, 3, 3), (2, 6, 5), (0, 0, 0, 0)),
        "spec2-in_shape2-pads2": (Conv2D(3, 3, 3, same_padding=True), (2, 5, 4), (1, 1, 1, 1)),
        "spec3-in_shape3-pads3": (Conv2D(3, 2, 4, same_padding=True), (2, 5, 4), (0, 1, 1, 2)),
        # one column wide, as the pixel net at one feature: six of nine taps see only padding
        "one-column": (Conv2D(3, 3, 3, same_padding=True), (2, 5, 1), (1, 1, 1, 1)),
        # two and three columns wide, as the pixel net at two and three features
        "two-column": (Conv2D(3, 3, 3, same_padding=True), (2, 5, 2), (1, 1, 1, 1)),
        "three-column": (Conv2D(3, 3, 3, same_padding=True), (2, 5, 3), (1, 1, 1, 1)),
    }

    @pytest.mark.parametrize("spec,in_shape,pads", list(CASES.values()), ids=list(CASES))
    @pytest.mark.parametrize("layout", ["c_order", "batch_last"])
    def test_matches_direct_loops(self, spec, in_shape, pads, layout):
        rng = np.random.default_rng(31)
        layer = nn._ConvLayer(spec, in_shape)
        layer.w = rng.normal(size=layer.w_shape)
        layer.b = rng.normal(size=layer.w_shape[0])
        x = rng.normal(size=(5,) + in_shape)
        dout = rng.normal(size=(5,) + layer.out_shape)
        expected_out, expected_grads = loop_conv(x, layer.w, layer.b, pads, dout)
        if layout == "batch_last":
            x, dout = batch_last_view(x), batch_last_view(dout)
        out = layer.forward(x, True, None, None)
        dx, (dw, db) = layer.backward(dout)
        np.testing.assert_allclose(out, expected_out, rtol=0, atol=1e-12)
        for got, want in zip((dw, db, dx), expected_grads):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("spec,in_shape,pads", list(CASES.values()), ids=list(CASES))
    def test_rebuilt_columns_match_direct_loops(self, spec, in_shape, pads, monkeypatch):
        """With no columns small enough to keep, the conv saves its input
        and its weight gradient rebuilds the columns from it."""
        monkeypatch.setattr(nn, "SAVED_COLUMNS_MAX_BYTES", 0)
        rng = np.random.default_rng(32)
        layer = nn._ConvLayer(spec, in_shape)
        layer.w = rng.normal(size=layer.w_shape)
        layer.b = rng.normal(size=layer.w_shape[0])
        x = rng.normal(size=(5,) + in_shape)
        dout = rng.normal(size=(5,) + layer.out_shape)
        _, expected_grads = loop_conv(x, layer.w, layer.b, pads, dout)
        layer.forward(x, True, None, None)
        assert layer._cache.shape == in_shape + (5,)
        dx, (dw, db) = layer.backward(dout)
        for got, want in zip((dw, db, dx), expected_grads):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


    @pytest.mark.parametrize("spec,in_shape,pads", list(CASES.values()), ids=list(CASES))
    def test_inference_matches_direct_loops(self, spec, in_shape, pads):
        """An inference forward of a same conv multiplies only the kernel
        columns that see input; ``infer``, a network's call, does so into
        buffers it keeps, here grown by a batch and then reused by a smaller
        one."""
        rng = np.random.default_rng(33)
        layer = nn._ConvLayer(spec, in_shape)
        layer.w = rng.normal(size=layer.w_shape)
        layer.b = rng.normal(size=layer.w_shape[0])
        assert bool(layer._runs) == spec.same_padding
        for n in (5, 7, 2):
            x = rng.normal(size=(n,) + in_shape)
            expected, _ = loop_conv(x, layer.w, layer.b, pads, np.zeros((n,) + layer.out_shape))
            for out in (layer.forward(x, False, None, None), layer.infer(x)):
                np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)
            assert layer._cache is None

    @pytest.mark.parametrize("spec,in_shape,pads", list(CASES.values()), ids=list(CASES))
    def test_columns_write_every_cell(self, spec, in_shape, pads):
        """Columns filled over NaN are the padded input's im2col byte for
        byte: every padding cell is written zero, every other one the input
        under its tap. So are the columns of each inference run, and the
        kernel columns a run leaves out see only padding there."""
        rng = np.random.default_rng(34)
        layer = nn._ConvLayer(spec, in_shape)
        c, kh, kw = layer.w_shape[1:]
        _, oh, ow = layer.out_shape
        pt, pb, pl, pr = pads
        x = rng.normal(size=(3,) + in_shape)
        xp = np.zeros((c, in_shape[1] + pt + pb, in_shape[2] + pl + pr, 3))
        xp[:, pt : pt + in_shape[1], pl : pl + in_shape[2]] = np.moveaxis(x, 0, -1)
        want = np.empty((c, kh, kw, oh, ow, 3))
        for i in range(kh):
            for j in range(kw):
                want[:, i, j] = xp[:, i : i + oh, j : j + ow]
        xb = nn._batch_last(x)
        cols = np.full(want.shape, np.nan)
        layer._fill(cols, xb, layer._taps, layer._pads)
        assert cols.tobytes() == want.tobytes()
        assert layer._columns(xb).tobytes() == want.tobytes()
        for o0, o1, j0, j1, taps, run_pads in layer._runs:
            cols = np.full((c, kh, j1 - j0, oh, o1 - o0, 3), np.nan)
            layer._fill(cols, xb, taps, run_pads)
            assert cols.tobytes() == want[:, :, j0:j1, :, o0:o1].tobytes()
            assert not np.delete(want[..., o0:o1, :], np.s_[j0:j1], axis=2).any()


class TestInference:
    def mixed_net(self):
        spec = NetworkSpec(
            (
                Conv2D(3, 3, 3, same_padding=True), ReLU(), MaxPool(2),
                Dropout(0.3), Dense(5), ReLU(), Dense(3), Softmax(),
            ),
            (2, 6, 6),
            3,
        )
        return nn.build_network(spec, seed=12)

    def test_predict_batch_independent_of_batch_size(self):
        net = self.mixed_net()
        x = np.random.default_rng(13).normal(size=(40, 2, 6, 6))
        labels, confs = nn.predict_batch(net, x, batch_size=256)
        for size in (1, 7):
            other_labels, other_confs = nn.predict_batch(net, x, batch_size=size)
            np.testing.assert_array_equal(other_labels, labels)
            np.testing.assert_allclose(other_confs, confs, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "spec,batch,n",
        [
            (nn.default_image_spec((3, 32, 32), 7), 43, 260),
            (nn.default_pixel_spec(10, 2, 3), 364, 1100),
        ],
        ids=["image", "pixel"],
    )
    def test_default_nets_predict_alike_at_any_batch(self, spec, batch, n):
        """The derived batch leaves every label as it was; a probability
        may move in its last bits with BLAS's tiling of a ragged batch."""
        net = nn.build_network(spec, seed=3)
        assert net.inference_batch == batch
        x = np.random.default_rng(4).random((n,) + spec.input_shape)
        labels, confs = nn.predict_batch(net, x, batch_size=len(x))
        for size in (1, 7, batch, 256, 1024):
            other_labels, other_confs = nn.predict_batch(net, x, batch_size=size)
            np.testing.assert_array_equal(other_labels, labels)
            np.testing.assert_allclose(other_confs, confs, rtol=0, atol=1e-15)
        default_labels, default_confs = nn.predict_batch(net, x)
        np.testing.assert_array_equal(default_labels, labels)
        np.testing.assert_allclose(default_confs, confs, rtol=0, atol=1e-15)

    def test_inference_forward_leaves_no_cache(self):
        net = self.mixed_net()
        x = np.random.default_rng(14).normal(size=(4, 2, 6, 6))
        nn.loss_and_gradients(net, (x, np.array([0, 1, 2, 0])), rng=np.random.default_rng(0))
        net.forward_batch(x)
        for layer in net.layers:
            for attr in ("_cache", "_mask", "_probs"):
                assert getattr(layer, attr, None) is None, (type(layer).__name__, attr)
        with pytest.raises(RuntimeError):
            net.layers[0].backward(np.ones((4, 3, 6, 6)))


class TestPixelInference:
    """A network's inference pass multiplies a same conv's input-seeing
    kernel columns only, into buffers each conv keeps, and rectifies conv
    and dense outputs in place."""

    @staticmethod
    def im2col_forward(net, x):
        """Probabilities from each layer's ``forward`` in run order; a
        ``stats`` list keeps every conv on its single im2col GEMM."""
        out = x
        for layer in net._run:
            out = layer.forward(out, False, None, [])
        return out

    @pytest.mark.parametrize("features", [1, 2, 3])
    def test_default_net_predicts_as_im2col(self, features):
        spec = nn.default_pixel_spec(10, features, 5)
        net = nn.build_network(spec, seed=5)
        assert all(layer._runs for layer in net.layers if isinstance(layer, nn._ConvLayer))
        x = np.random.default_rng(6).random((364,) + spec.input_shape)
        for batch in (1, 7, 97, 182, 364):
            starts = range(0, len(x), batch)
            probs = np.concatenate([net.forward_batch(x[s : s + batch]) for s in starts])
            want = np.concatenate([self.im2col_forward(net, x[s : s + batch]) for s in starts])
            np.testing.assert_array_equal(probs.argmax(axis=1), want.argmax(axis=1))
            np.testing.assert_allclose(probs, want, rtol=0, atol=1e-15)

    def test_predictions_follow_weights_trained_in_place(self):
        """``train`` updates the weights in place, so a conv must read each
        run's weights from them on every call, not keep slices of the first.
        At two features every run's weight slice is a copy, not a view."""
        spec = nn.default_pixel_spec(10, 2, 3)
        net = nn.build_network(spec, seed=7)
        rng = np.random.default_rng(8)
        x, y = rng.random((60,) + spec.input_shape), rng.integers(3, size=60)
        before = nn.predict_batch(net, x)[1]
        weights = net.parameters()
        nn.train(net, (x, y), (x[:20], y[:20]), TrainConfig(epochs=2, batch_size=16, seed=9))
        assert all(a is b for a, b in zip(weights, net.parameters()))
        labels, confs = nn.predict_batch(net, x)
        want = self.im2col_forward(net, x)
        assert np.abs(confs - before).max() > 1e-3
        np.testing.assert_array_equal(labels, want.argmax(axis=1))
        np.testing.assert_allclose(confs, want.max(axis=1), rtol=0, atol=1e-15)

    def test_inference_peaks_below_the_columns_it_replaces(self):
        """A cold pass at the default batch, which allocates every buffer,
        peaks at about 5.1 MB of traced allocations (0.25 MB warm); conv2's
        im2col columns alone take 8.4 MB, and the im2col pass peaked at 10.3."""
        spec = nn.default_pixel_spec(10, 2, 7)
        net = nn.build_network(spec, seed=10)
        assert net.inference_batch == 364
        x = np.random.default_rng(11).random((364,) + spec.input_shape)
        conv2 = net.layers[2]
        columns = 8 * 364 * math.prod(conv2.w_shape[1:] + conv2.out_shape[1:])
        tracemalloc.start()
        try:
            net.forward_batch(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < columns, f"traced peak {peak / 1e6:.1f} MB"

    def test_direct_forward_callers_keep_their_arrays(self):
        """``gradient_check`` and the bench engine keep each layer's inference
        output as the next layer's input; network passes, which reuse the
        convs' buffers and rectify in place, leave those arrays alone."""
        spec = nn.default_pixel_spec(10, 2, 5)
        net = nn.build_network(spec, seed=12)
        rng = np.random.default_rng(13)
        x = rng.random((9,) + spec.input_shape)
        inputs = [x]
        for layer in net.layers[:-1]:
            inputs.append(layer.forward(inputs[-1], False, None, None))
        saved = [a.tobytes() for a in inputs]
        net.forward_batch(rng.random((9,) + spec.input_shape))
        assert [a.tobytes() for a in inputs] == saved
        for layer, h in zip(net.layers, inputs):
            layer.forward(rng.random(h.shape), False, None, None)
        assert [a.tobytes() for a in inputs] == saved

    def test_kink_margin_takes_the_im2col_path(self, monkeypatch):
        net = nn.build_network(nn.default_pixel_spec(10, 2, 5), seed=14)
        x = np.random.default_rng(15).random(net.spec.input_shape)
        margin = net.kink_margin(x)

        def refuse(self, x, out):
            raise AssertionError("inference path taken")

        monkeypatch.setattr(nn._ConvLayer, "_forward_runs", refuse)
        assert net.kink_margin(x) == margin
        with pytest.raises(AssertionError, match="inference path"):
            net.forward_batch(x[None])

    def test_a_pickle_leaves_the_buffers_behind(self):
        net = nn.build_network(nn.default_pixel_spec(10, 2, 5), seed=16)
        x = np.random.default_rng(17).random((40,) + net.spec.input_shape)
        probs = net.forward_batch(x)
        copy = pickle.loads(pickle.dumps(net))
        convs = [layer for layer in copy.layers if isinstance(layer, nn._ConvLayer)]
        assert all(conv._cols_buf is None and conv._out_buf is None for conv in convs)
        assert copy.forward_batch(x).tobytes() == probs.tobytes()


@contextlib.contextmanager
def deadline(seconds):
    """Raise ``TimeoutError`` in the block once it has run ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestFanOut:
    """``_fan_out`` with the workers forced to a count, not read from the host."""

    def test_calling_thread_takes_every_wth_item(self, monkeypatch):
        force_workers(monkeypatch, 3)
        owners = nn._fan_out(lambda k: os.getpid(), 10)
        assert_no_child_left()
        assert [k for k, pid in enumerate(owners) if pid == os.getpid()] == [0, 3, 6, 9]
        assert owners[1] == owners[4] == owners[7] != owners[2] == owners[5] == owners[8]
        assert os.getpid() not in (owners[1], owners[2])

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_values_come_back_in_item_order(self, monkeypatch, workers):
        force_workers(monkeypatch, workers)
        values = nn._fan_out(lambda k: (k, np.full(k, k / 3)), 7)
        assert_no_child_left()
        assert [k for k, _ in values] == list(range(7))
        for k, array in values:
            np.testing.assert_array_equal(array, np.full(k, k / 3))
        assert nn._fan_out(lambda k: k, 0) == []

    def test_one_worker_runs_inline_without_a_pool(self, monkeypatch):
        force_workers(monkeypatch, 1)

        def no_fork():
            raise AssertionError("a process was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        seen = []
        assert nn._fan_out(lambda k: seen.append(k) or -k, 5) == [0, -1, -2, -3, -4]
        assert seen == [0, 1, 2, 3, 4]

    def test_a_platform_without_fork_runs_inline(self, monkeypatch):
        force_workers(monkeypatch, 3)
        monkeypatch.delattr(os, "fork")
        assert nn._fan_out(lambda k: os.getpid(), 4) == [os.getpid()] * 4

    @pytest.mark.parametrize("cpus,n,expected", [(4, 0, 1), (4, 2, 2), (2, 9, 2), (1, 9, 1)])
    def test_workers_are_capped_at_the_items(self, monkeypatch, cpus, n, expected):
        force_workers(monkeypatch, cpus)
        assert nn._workers(n) == expected

    @pytest.mark.parametrize(
        "env,expected",
        [
            ({}, 1),
            ({"OPENBLAS_NUM_THREADS": "1"}, 4),
            ({"OPENBLAS_NUM_THREADS": "2"}, 2),
            ({"OPENBLAS_NUM_THREADS": "3"}, 1),
            ({"OPENBLAS_NUM_THREADS": "0"}, 1),
            ({"OPENBLAS_NUM_THREADS": "abc"}, 1),
            ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "2"}, 2),
            ({"OPENBLAS_NUM_THREADS": "abc", "OMP_NUM_THREADS": "1"}, 4),
            ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 1),
        ],
        ids=["unset", "1", "2", "3", "0", "abc", "0-goto2", "abc-omp1", "4-omp1"],
    )
    def test_workers_leave_the_blas_threads_their_cpus(self, monkeypatch, env, expected):
        """Four usable CPUs; BLAS threads as OpenBLAS reads them, every CPU when unset."""
        monkeypatch.setattr(nn, "_usable_cpus", lambda: 4)
        for name in nn._BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert nn._workers(9) == expected

    @pytest.mark.parametrize("failing,lowest", [((5, 6, 7), 5), ((6, 7), 6)], ids=["child", "caller"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_lowest_failing_item_raises_and_every_child_is_reaped(
        self, monkeypatch, workers, failing, lowest
    ):
        """At two or three workers, item 5 is a child's and item 6 the caller's."""
        force_workers(monkeypatch, workers)

        def work(k):
            if k in failing:
                raise nn.TrainingDivergedError(f"item {k}")
            return k

        with deadline(30):
            with pytest.raises(nn.TrainingDivergedError) as raised:
                nn._fan_out(work, 9)
            assert_no_child_left()
            assert type(raised.value) is nn.TrainingDivergedError
            assert str(raised.value) == f"item {lowest}"
            assert nn._fan_out(lambda k: k, 9) == list(range(9))
            assert_no_child_left()

    @pytest.mark.parametrize(
        "die,status",
        [(lambda: os._exit(1), 256), (lambda: os.kill(os.getpid(), signal.SIGKILL), 9)],
        ids=["exit-1", "sigkill"],
    )
    def test_a_dead_child_raises_child_process_error(self, monkeypatch, die, status):
        force_workers(monkeypatch, 3)
        parent = os.getpid()

        def work(k):
            if k == 4 and os.getpid() != parent:
                die()
            return k

        with deadline(30):
            with pytest.raises(
                ChildProcessError, match=f"items 1, 4, 7 ended with wait status {status}$"
            ):
                nn._fan_out(work, 9)
        assert_no_child_left()

    def test_stress_more_workers_than_cores(self, monkeypatch):
        """Eight workers, five times over: every item's value comes back once, in order."""
        force_workers(monkeypatch, 8)
        with deadline(60):
            for _ in range(5):
                assert nn._fan_out(lambda k: k * k, 2000) == [k * k for k in range(2000)]
                assert_no_child_left()


class TestDropout:
    def test_zeroed_fraction_close_to_rate(self):
        rate = 0.3
        layer = nn._DropoutLayer(Dropout(rate), (10000,))
        rng = np.random.default_rng(123)
        out = layer.forward(np.ones((1, 10000)), True, rng, None)
        zeroed = float((out == 0).mean())
        assert abs(zeroed - rate) < 0.05

    def test_inverted_scaling_preserves_expectation(self):
        layer = nn._DropoutLayer(Dropout(0.5), (100000,))
        rng = np.random.default_rng(7)
        out = layer.forward(np.ones((1, 100000)), True, rng, None)
        assert out.mean() == pytest.approx(1.0, abs=0.02)

    def test_infer_mode_is_identity(self):
        layer = nn._DropoutLayer(Dropout(0.9), (4,))
        x = np.arange(4.0)[None]
        np.testing.assert_array_equal(layer.forward(x, False, None, None), x)


def toy_separable(n=40, seed=0):
    """Two linearly separable blobs in 2-d."""
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.vstack(
        [rng.normal([-2, -2], 0.4, size=(half, 2)), rng.normal([2, 2], 0.4, size=(half, 2))]
    )
    y = np.array([0] * half + [1] * half)
    return x, y


class TestTrain:
    def test_separable_toy_reaches_full_train_accuracy(self):
        x, y = toy_separable()
        spec = NetworkSpec((Dense(8), ReLU(), Dense(2), Softmax()), (2,), 2)
        net = nn.build_network(spec, seed=0)
        net, history = nn.train(net, (x, y), (x, y), TrainConfig(epochs=50, seed=0))
        assert len(history) == 50
        assert nn.accuracy(net, x, y) == 1.0

    def test_zero_epochs_rejected(self):
        with pytest.raises(DataValidationError):
            TrainConfig(epochs=0)

    def test_same_seed_identical_final_weights(self):
        x, y = toy_separable()
        spec = NetworkSpec((Dense(4), ReLU(), Dense(2), Softmax()), (2,), 2)
        nets = []
        for _ in range(2):
            net = nn.build_network(spec, seed=3)
            nn.train(net, (x, y), (x, y), TrainConfig(epochs=5, seed=3))
            nets.append(net)
        for pa, pb in zip(nets[0].parameters(), nets[1].parameters()):
            np.testing.assert_array_equal(pa, pb)

    def test_empty_set_rejected(self):
        net = nn.build_network(dense_spec(), seed=0)
        with pytest.raises(DataValidationError):
            nn.train(net, (np.zeros((0, 3)), np.zeros(0, dtype=int)),
                     (np.zeros((1, 3)), np.array([0])), TrainConfig())

    def test_divergence_raises(self):
        # the rate must push weights past float64 range: saturated softmax
        # plus probability clamping keeps merely-huge weights finite
        x, y = toy_separable()
        spec = NetworkSpec((Dense(4), ReLU(), Dense(2), Softmax()), (2,), 2)
        net = nn.build_network(spec, seed=0)
        with pytest.raises(TrainingDivergedError):
            nn.train(net, (x, y), (x, y), TrainConfig(epochs=10, learning_rate=1e200, seed=0))

    def test_loss_non_increasing_on_memorization_task(self):
        # 10-sample memorization, plain gradient descent at lr 0.01
        rng = np.random.default_rng(5)
        x = rng.normal(size=(10, 3))
        y = np.arange(10) % 2
        spec = NetworkSpec((Dense(2), Softmax()), (3,), 2)
        net = nn.build_network(spec, seed=5)
        cfg = TrainConfig(epochs=1, learning_rate=0.01, momentum=0.0, batch_size=10, seed=5)
        losses = []
        for _ in range(60):
            loss, _ = nn.loss_and_gradients(net, (x, y))
            losses.append(loss)
            nn.train(net, (x, y), (x, y), cfg)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


class TestPredict:
    def crafted_net(self, probs):
        k = len(probs)
        net = nn.build_network(NetworkSpec((Dense(k), Softmax()), (1,), k), seed=0)
        w, b = net.parameters()
        w[...] = 0.0
        b[...] = np.log(probs)
        return net

    def test_argmax_with_confidence(self):
        net = self.crafted_net([0.1, 0.7, 0.2])
        labels, confs = nn.predict_batch(net, np.zeros((1, 1)))
        assert labels.tolist() == [1]
        assert confs[0] == pytest.approx(0.7, abs=1e-9)

    def test_exact_tie_takes_lowest_index(self):
        net = self.crafted_net([0.5, 0.5])
        labels, confs = nn.predict_batch(net, np.zeros((1, 1)))
        assert labels.tolist() == [0]
        assert confs[0] == pytest.approx(0.5, abs=1e-12)

    def test_confidence_equals_max_probability(self):
        net = nn.build_network(small_conv_spec(), seed=8)
        x = np.random.default_rng(8).normal(size=(4, 2, 6, 6))
        labels, confs = nn.predict_batch(net, x)
        probs = net.forward_batch(x)
        np.testing.assert_array_equal(confs, probs.max(axis=1))
        np.testing.assert_array_equal(labels, probs.argmax(axis=1))


class TestSerialization:
    def test_round_trip_bit_identical_predictions(self, tmp_path):
        net = nn.build_network(small_conv_spec(), seed=9)
        path = tmp_path / "model.rtnn"
        nn.serialize_model(net, path)
        loaded = nn.deserialize_model(path)
        x = np.random.default_rng(10).normal(size=(3, 2, 6, 6))
        np.testing.assert_array_equal(net.forward_batch(x), loaded.forward_batch(x))

    def test_dropout_and_padding_survive(self, tmp_path):
        spec = NetworkSpec(
            (Conv2D(3, 3, 3, same_padding=True), ReLU(), Dropout(0.3), Dense(2), Softmax()),
            (1, 4, 4),
            2,
        )
        net = nn.build_network(spec, seed=0)
        nn.serialize_model(net, tmp_path / "m.rtnn")
        loaded = nn.deserialize_model(tmp_path / "m.rtnn")
        assert loaded.spec == spec

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rtnn"
        path.write_bytes(b"NOPE!\njunk")
        with pytest.raises(SerializationError):
            nn.deserialize_model(path)

    def test_truncated_payload(self, tmp_path):
        net = nn.build_network(dense_spec(), seed=0)
        path = tmp_path / "model.rtnn"
        nn.serialize_model(net, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(SerializationError):
            nn.deserialize_model(path)

    def test_weight_count_off_by_one(self, tmp_path):
        net = nn.build_network(dense_spec(), seed=0)
        path = tmp_path / "model.rtnn"
        nn.serialize_model(net, path)
        data = path.read_bytes()
        count = sum(p.size for p in net.parameters())
        data = data.replace(
            f"weights {count}".encode(), f"weights {count + 1}".encode()
        )
        path.write_bytes(data)
        with pytest.raises(SerializationError):
            nn.deserialize_model(path)


    @pytest.mark.parametrize(
        "old,new",
        [
            ("input 3", "input abc"),
            ("classes 2", "classes x"),
            ("weights 8", "weights zz"),
            ("input 3", "input 0_3"),
            ("classes 2", "classes  2"),
            ("weights 8", "weights \u0668"),
            ("weights 8", "input 3\nclasses 2\nweights 8"),
        ],
    )
    def test_malformed_header_value(self, tmp_path, old, new):
        path = tmp_path / "model.rtnn"
        nn.serialize_model(nn.build_network(dense_spec(), seed=0), path)
        data = path.read_bytes()
        assert data.count(old.encode()) == 1
        path.write_bytes(data.replace(old.encode(), new.encode()))
        with pytest.raises(SerializationError):
            nn.deserialize_model(path)

    @pytest.mark.parametrize("stride", ["2", "0", "x"])
    def test_conv_stride_other_than_one_rejected(self, tmp_path, stride):
        path = tmp_path / "model.rtnn"
        nn.serialize_model(nn.build_network(small_conv_spec(), seed=0), path)
        data = path.read_bytes()
        line = b"layer conv2d 4 3 3 1 0\n"
        assert data.count(line) == 1
        path.write_bytes(data.replace(line, line.replace(b" 1 0", f" {stride} 0".encode())))
        with pytest.raises(SerializationError, match="stride"):
            nn.deserialize_model(path)

    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(BYTE_EDITS)
    def test_mutated_header_raises_only_data_errors(self, tmp_path, edits):
        path = tmp_path / "model.rtnn"
        nn.serialize_model(nn.build_network(small_conv_spec(), seed=0), path)
        data = path.read_bytes()
        end = data.index(b"\n", data.index(b"\nweights ") + 1) + 1
        path.write_bytes(mutate_bytes(data[:end], edits) + data[end:])
        try:
            nn.deserialize_model(path)
        except DataValidationError:
            pass


class TestDefaultSpecs:
    def test_image_spec_builds_on_32px_input(self):
        spec = nn.default_image_spec((3, 32, 32), 7)
        net = nn.build_network(spec, seed=0)
        probs = net.forward_batch(np.zeros((1, 3, 32, 32)))
        assert probs.shape == (1, 7)

    def test_pixel_spec_builds_for_small_stacks(self):
        spec = nn.default_pixel_spec(10, 4, 3)
        net = nn.build_network(spec, seed=0)
        probs = net.forward_batch(np.zeros((1, 1, 10, 4)))
        assert probs.shape == (1, 3)

    def test_defaults_train_at_the_config_dropout_rate(self):
        specs = (nn.default_image_spec((3, 32, 32), 7), nn.default_pixel_spec(10, 4, 3))
        rates = [ls.rate for spec in specs for ls in spec.layers if isinstance(ls, Dropout)]
        assert rates == [TrainConfig().dropout_rate] * 2

    def test_clone_with_dropout(self):
        spec = nn.default_pixel_spec(10, 4, 3)
        clone = nn.clone_spec_with_dropout(spec, 0.5)
        rates = [ls.rate for ls in clone.layers if isinstance(ls, Dropout)]
        assert rates == [0.5]


def image_specs():
    """The default image net and criterion 4's reduced image composition."""
    from test_acceptance import _mini_image_composition

    return {"default": nn.default_image_spec((3, 32, 32), 7), "reduced": _mini_image_composition()}


def awkward_batch(spec, n, seed):
    """A batch whose sample 0 is all zeros and sample 1 zero in its top half,
    so conv1 gives exactly its bias there."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n,) + spec.input_shape)
    x[0] = 0.0
    x[1, :, : spec.input_shape[1] // 2] = 0.0
    return x


class TestRunOrder:
    """The batch passes run a ReLU right before a MaxPool after it; the
    results are the bytes of the layers run in spec order."""

    @staticmethod
    def spec_order_pass(net, x, dout, rng):
        out = x
        for layer in net.layers:
            out = layer.forward(out, True, rng, None)
        grads = []
        for layer in net.layers[::-1]:
            dout, layer_grads = layer.backward(dout)
            grads = layer_grads + grads
        return out, grads

    @pytest.mark.parametrize("which", ["default", "reduced"])
    @pytest.mark.parametrize("n", [32, 7])
    def test_batch_passes_match_spec_order(self, which, n):
        spec = image_specs()[which]
        net = nn.build_network(spec, seed=4)
        # conv1's filter 0 gives only negatives, and filter 1 exact zeros
        # beside negatives, on the zeroed parts of the batch
        conv1 = net.layers[0]
        conv1.b = np.random.default_rng(5).normal(size=conv1.b.shape)
        conv1.b[:2] = (-50.0, 0.0)
        x = awkward_batch(spec, n, seed=6)
        dout = np.random.default_rng(7).normal(size=(n, spec.n_classes))
        dout[::2, 0] = 0.0
        assert [type(layer.spec) for layer in net._run[:3]] == [Conv2D, MaxPool, ReLU]
        want_probs, want_grads = self.spec_order_pass(net, x, dout, np.random.default_rng(8))
        probs = net.forward_batch(x, train=True, rng=np.random.default_rng(8))
        grads = net.backward_batch(dout)
        assert probs.tobytes() == want_probs.tobytes()
        assert len(grads) == len(want_grads) == len(net.parameters())
        for got, want in zip(grads, want_grads):
            assert got.tobytes() == want.tobytes()
        inference = net.forward_batch(x)
        by_hand = x
        for layer in net.layers:
            by_hand = layer.forward(by_hand, False, None, None)
        assert inference.tobytes() == by_hand.tobytes()

    @pytest.mark.parametrize("which", ["default", "reduced"])
    def test_two_epochs_train_the_same_weights(self, which):
        spec = image_specs()[which]
        rng = np.random.default_rng(9)
        x = awkward_batch(spec, 48, seed=10)
        y = rng.integers(spec.n_classes, size=48)
        nets = [nn.build_network(spec, seed=11) for _ in range(2)]
        nets[1]._run = list(nets[1].layers)  # spec order
        for net in nets:
            nn.train(net, (x, y), (x[:8], y[:8]), TrainConfig(epochs=2, batch_size=16, seed=12))
        for a, b in zip(nets[0].parameters(), nets[1].parameters()):
            assert a.tobytes() == b.tobytes()


DEFAULT_NETS = {
    "image": nn.default_image_spec((3, 32, 32), 7),
    "pixel": nn.default_pixel_spec(10, 4, 7),
}


class TestLayerContracts:
    """What callers of single layers rely on: ``net.layers[i]`` is spec
    layer ``i``, and ``backward`` may run again after one forward."""

    @pytest.mark.parametrize("which", list(DEFAULT_NETS))
    def test_backward_repeats_after_one_train_forward(self, which):
        spec = DEFAULT_NETS[which]
        net = nn.build_network(spec, seed=0)
        assert [layer.spec for layer in net.layers] == list(spec.layers)
        rng = np.random.default_rng(1)
        h = rng.normal(size=(32,) + spec.input_shape)
        for layer in net.layers:
            y = layer.forward(h, True, rng, None)
            dout = rng.normal(size=y.shape)
            first_dx, first_grads = layer.backward(dout)
            second_dx, second_grads = layer.backward(dout)
            assert first_dx.tobytes() == second_dx.tobytes()
            assert len(first_grads) == len(second_grads)
            for a, b in zip(first_grads, second_grads):
                assert a.tobytes() == b.tobytes()
            h = layer.forward(h, False, None, None)

    @pytest.mark.parametrize("which", list(DEFAULT_NETS))
    def test_weight_layers_drop_their_saved_input(self, which):
        spec = DEFAULT_NETS[which]
        net = nn.build_network(spec, seed=0)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(8,) + spec.input_shape)
        nn.loss_and_gradients(net, (x, rng.integers(spec.n_classes, size=8)), rng=rng)
        weighted = [layer for layer in net.layers if layer.params()]
        assert weighted and all(layer._cache is None for layer in weighted)
        with pytest.raises(RuntimeError):
            weighted[0].backward(np.ones((8,) + weighted[0].out_shape))

    @pytest.mark.parametrize("which", list(DEFAULT_NETS))
    def test_header_keeps_spec_order(self, which, tmp_path):
        spec = DEFAULT_NETS[which]
        net = nn.build_network(spec, seed=0)
        nn.serialize_model(net, tmp_path / "m.rtnn")
        lines = (tmp_path / "m.rtnn").read_bytes().split(b"\nweights ")[0].split(b"\n")
        kinds = [line.split(b" ")[1].decode() for line in lines if line.startswith(b"layer ")]
        assert kinds == [nn._LAYER_KINDS[type(ls)][0] for ls in spec.layers]
        loaded = nn.deserialize_model(tmp_path / "m.rtnn")
        assert loaded.spec == spec
        assert [layer.spec for layer in loaded.layers] == list(spec.layers)
        x = np.random.default_rng(3).normal(size=(5,) + spec.input_shape)
        assert loaded.forward_batch(x).tobytes() == net.forward_batch(x).tobytes()

    def test_image_step_memory_guard(self):
        """A warm image-net step at batch 32 peaks at about 12.0 MB of traced
        allocations (16.2 MB while each conv saved its im2col columns);
        keeping every weight layer's saved input to the end of backward
        raised that to about 24 MB."""
        net = nn.build_network(nn.default_image_spec((3, 32, 32), 7), seed=0)
        rng = np.random.default_rng(4)
        batch = (rng.normal(size=(32, 3, 32, 32)), rng.integers(7, size=32))
        nn.loss_and_gradients(net, batch, rng=rng)
        tracemalloc.start()
        try:
            nn.loss_and_gradients(net, batch, rng=rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 18e6, f"traced peak {peak / 1e6:.1f} MB"

    def test_image_step_keeps_large_convs_input_not_their_columns(self):
        """conv1 and conv2 of the image net save their batch-last input, as
        their im2col columns (6.2 MB each at batch 32, 9 times that input)
        pass ``SAVED_COLUMNS_MAX_BYTES``; their weight gradients build the
        columns again. One step then peaks about 12.0 MB above its start;
        keeping every conv's columns from forward to backward read 16.2 MB."""
        net = nn.build_network(nn.default_image_spec((3, 32, 32), 7), seed=0)
        rng = np.random.default_rng(5)
        batch = (rng.normal(size=(32, 3, 32, 32)), rng.integers(7, size=32))
        nn.loss_and_gradients(net, batch, rng=rng)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            nn.loss_and_gradients(net, batch, rng=rng)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 14e6, f"traced peak {peak / 1e6:.1f} MB above the start"
        net.forward_batch(batch[0], train=True, rng=rng)
        convs = [layer for layer in net.layers if isinstance(layer, nn._ConvLayer)]
        inputs = [8 * 32 * math.prod(conv.in_shape) for conv in convs]
        columns = [8 * 32 * math.prod(conv.w_shape[1:] + conv.out_shape[1:]) for conv in convs]
        assert min(columns[:2]) > nn.SAVED_COLUMNS_MAX_BYTES >= columns[2]
        assert [conv._cache.nbytes for conv in convs] == inputs[:2] + columns[2:]
        for conv in convs:
            dout = rng.normal(size=(32,) + conv.out_shape)
            first_dx, first_grads = conv.backward(dout)
            second_dx, second_grads = conv.backward(dout)
            assert first_dx.tobytes() == second_dx.tobytes()
            for a, b in zip(first_grads, second_grads):
                assert a.tobytes() == b.tobytes()
