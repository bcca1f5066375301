"""Micro-measurements of the CNN engine, outside any workload.

- forward and backward milliseconds at batch 32 for every conv, pool and
  dense layer of the default image net (3x32x32, 7 classes) and the
  default pixel net (1x10x4, 7 classes), called through
  ``Network.layers[i]``;
- conv FLOPs and bytes moved per training step, computed from the layer
  shapes (exact counts, not measured);
- ``gradient_check`` seconds and loss evaluations on the reduced-width
  image and pixel compositions of acceptance criterion 4.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from streetcrop import neuralnet as nn

BATCH = 32
REPEATS = 7
F64 = 8  # bytes per float64


def _nets():
    return {
        "image": nn.build_network(nn.default_image_spec((3, 32, 32), 7), seed=0),
        "pixel": nn.build_network(nn.default_pixel_spec(10, 4, 7), seed=0),
    }


def _layer_names(net):
    """conv1, pool1, dense1, ... for the layers worth timing, by index.

    ``build_network`` makes one runtime layer per spec layer, so the spec
    names the kind of ``net.layers[i]``.
    """
    kinds = {nn.Conv2D: "conv", nn.MaxPool: "pool", nn.Dense: "dense"}
    counts: dict[str, int] = {}
    out = []
    for i, ls in enumerate(net.spec.layers):
        kind = kinds.get(type(ls))
        if kind is not None:
            counts[kind] = counts.get(kind, 0) + 1
            out.append((i, f"{kind}{counts[kind]}"))
    return out


def _median_ms(fn):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def conv_cost(ls, in_shape, out_shape, batch=BATCH):
    """(flops, bytes) of one forward plus backward of a conv layer.

    Forward is one multiply-add per weight per output cell; backward
    computes the weight gradient and the input gradient, one each of the
    same size. Bytes count every float64 array read or written once:
    input, weights and output forward; output gradient, input, weights,
    input gradient and weight gradient backward.
    """
    c, h, w = in_shape
    f, oh, ow = out_shape
    kh, kw = ls.kernel_h, ls.kernel_w
    fwd_flops = 2 * batch * f * c * kh * kw * oh * ow
    x = batch * c * h * w
    wts = f * c * kh * kw + f
    out = batch * f * oh * ow
    fwd_bytes = F64 * (x + wts + out)
    bwd_bytes = F64 * (out + x + wts + x + wts)
    return 3 * fwd_flops, fwd_bytes + bwd_bytes


def layer_timings() -> dict[str, float]:
    """Per-layer fwd/bwd ms plus computed conv cost per step, by net."""
    rng = np.random.default_rng(0)
    out: dict[str, float] = {}
    for kind, net in _nets().items():
        x = rng.normal(size=(BATCH,) + tuple(net.spec.input_shape))
        inputs = []
        h = x
        for layer in net.layers:
            inputs.append(h)
            h = layer.forward(h, False, None, None)
        flops = nbytes = 0
        for i, name in _layer_names(net):
            layer = net.layers[i]
            xin = inputs[i]
            y = layer.forward(xin, True, rng, None)
            dout = rng.normal(size=y.shape)
            out[f"engine.{kind}.{name}.fwd_ms"] = _median_ms(
                lambda: layer.forward(xin, True, rng, None)
            )
            out[f"engine.{kind}.{name}.bwd_ms"] = _median_ms(lambda: layer.backward(dout))
            if isinstance(net.spec.layers[i], nn.Conv2D):
                fl, nb = conv_cost(net.spec.layers[i], xin.shape[1:], y.shape[1:])
                flops += fl
                nbytes += nb
        labels = rng.integers(net.spec.n_classes, size=BATCH)
        out[f"engine.{kind}.step_ms"] = _median_ms(
            lambda: nn.loss_and_gradients(net, (x, labels), rng=rng)
        )
        out[f"engine.{kind}.conv_gflop_per_step_computed"] = flops / 1e9
        out[f"engine.{kind}.conv_mb_per_step_computed"] = nbytes / 1e6
    return out


def mini_specs(k=3):
    """The reduced-width compositions acceptance criterion 4 checks."""
    image = nn.NetworkSpec(
        (
            nn.Conv2D(4, 3, 3), nn.ReLU(), nn.MaxPool(2),
            nn.Conv2D(6, 3, 3), nn.ReLU(), nn.MaxPool(2),
            nn.Conv2D(8, 3, 3), nn.ReLU(), nn.MaxPool(2),
            nn.Dropout(0.2), nn.Dense(16), nn.ReLU(), nn.Dense(k), nn.Softmax(),
        ),
        (3, 24, 24),
        k,
    )
    pixel = nn.NetworkSpec(
        (
            nn.Conv2D(6, 3, 3, same_padding=True), nn.ReLU(),
            nn.Conv2D(6, 3, 3, same_padding=True), nn.ReLU(),
            nn.Dropout(0.2), nn.Dense(16), nn.ReLU(), nn.Dense(k), nn.Softmax(),
        ),
        (1, 10, 4),
        k,
    )
    return {"image": image, "pixel": pixel}


def gradient_checks(seed=0) -> tuple[dict[str, float], bool]:
    """Seconds and loss evaluations of one criterion-4 check per spec.

    Loss evaluations are counted as calls of ``loss_and_gradients``.
    Returns the metrics and whether every check met criterion 4's 1e-4.
    """
    out: dict[str, float] = {}
    ok = True
    original = nn.loss_and_gradients
    for kind, spec in mini_specs().items():
        calls = 0

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        net = nn.build_network(spec, seed=seed)
        rng = np.random.default_rng(100 + seed)
        x = rng.normal(size=spec.input_shape)
        label = int(rng.integers(spec.n_classes))
        nn.loss_and_gradients = counting
        try:
            start = time.perf_counter()
            err = nn.gradient_check(net, (x, label), eps=1e-5)
            out[f"engine.gradcheck.{kind}_s"] = time.perf_counter() - start
        finally:
            nn.loss_and_gradients = original
        out[f"engine.gradcheck.{kind}_loss_evals"] = calls
        ok = ok and err < 1e-4
    return out, ok
