"""Minimal CNN engine used by both the image and pixel classifiers.

Tensors are plain float64 numpy arrays, shaped ``(channels, height,
width)`` for spatial data or ``(n,)`` flat. The layer set is fixed:
Conv2D (stride 1, valid or same padding), ReLU, MaxPool, Dropout
(inverted scaling), Dense and a final Softmax. Each kind is declared once,
in ``_LAYER_KINDS``: its spec dataclass, the token of its model-header
line (``layer <token>`` then the dataclass fields in order) and its
runtime class, built as ``(spec, in_shape)``. A Dropout rate is set one
way: :func:`clone_spec_with_dropout`, which both classifiers apply with
``TrainConfig.dropout_rate``. Training is SGD with momentum over seeded
shuffled mini-batches, so a (spec, seed, data) triple always reproduces
the same weights on one platform.

Inside a network the activations sit batch-last in memory, ``(c, h, w,
n)`` for spatial layers and ``(units, n)`` for dense ones: a conv is one
2-D GEMM over an im2col column matrix each way, MaxPool is a maximum over
strided slices. A same-padded conv pads nothing: each kernel tap copies
only its in-bounds span into the columns, and only the padding is zeroed.
Every layer still takes and returns arrays shaped ``(n,
...)``; a network hands them free transposed views, and a C-ordered input
is copied once. Only a train-mode forward stores what ``backward`` needs,
so ``backward`` needs a train-mode forward first; a layer's ``backward``
keeps that state and may run again. A conv saves its im2col columns when
they fit in ``SAVED_COLUMNS_MAX_BYTES`` (4 MiB), else its batch-last
input, ``k_h * k_w`` times smaller, from which its weight gradient
rebuilds them. A network's batch passes run the layers in spec
order, except that a ReLU right before a MaxPool runs after it: the bytes
out are the same, and the ReLU touches only the pooled elements.
``Network.backward_batch`` takes each weight layer's weight gradient,
then drops what that layer saved for it (a conv's columns or input, a
dense layer's flattened input) before it builds the input gradient.
Against the previous batch-first engine, probabilities, gradients and
trained weights agree to about 1e-15 relative, because BLAS sums in
another order.

An inference forward (``train`` false, no ``stats``) of a same conv whose
output columns see only padding under some kernel columns, as both pixel
net convs do at one to three features, multiplies only the kernel columns
that see input: the output columns that see input under the same kernel
columns form a run, and each run is one GEMM per output row over those
columns, its weights sliced from ``w`` on every call. A training forward
keeps the full columns, as a weight gradient over fewer rows is not
bit-identical. A network's own inference pass has such a conv write its
columns and output into buffers the layer keeps (:meth:`_Layer.infer`),
and rectifies each conv and dense output in place; a direct
``layer.forward`` call gets new arrays and changes none it was given.

Inference runs in batches sized from the network, not from the input:
``Network.inference_batch`` is ``INFERENCE_BUDGET_BYTES`` (8 MiB) over
one sample's bytes in the largest array a train-mode forward builds, the
im2col columns of the widest conv. That is 43 images for the default
image net and 364 pixels for the default pixel net on ten scenes of two
features; an inference pass of the pixel net builds less than those
columns. A probability may move in its last bits with the batch size,
because BLAS takes another path for a ragged edge tile of a GEMM, and
with the inference path, so only a tie to within those bits could change
a label.

Independent items run on ``W`` forked worker processes
(:func:`_fan_out`): a forward-selection step's candidates, a dropout
sweep's rates, the map's row blocks and the image classifier's chunks.
Workers and BLAS threads share the CPUs the process may use, so ``W`` is
those CPUs over BLAS's threads (:func:`_workers`); with BLAS unpinned
that is 1 and everything runs inline. Inference workers share the one
budget, each predicting in batches of ``inference_batch // W``, so
outputs depend on ``W`` only in those last bits.

Everything runs in double precision; gradient correctness is checked
against central finite differences (:func:`gradient_check`).
"""

from __future__ import annotations

import io
import itertools
import math
import os
import pickle
import re
import traceback
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Union

import numpy as np

from .errors import DataValidationError, parse_float, parse_int, read_input

MODEL_MAGIC = b"RTNN1"

#: Probabilities are clamped here before the log in the loss.
PROB_FLOOR = 1e-12

#: Bytes of the largest buffer one inference batch may build: the default
#: batch of :func:`predict_batch` is this over one sample's share of it.
INFERENCE_BUDGET_BYTES = 8 * 2**20

#: A conv's train-mode forward keeps im2col columns up to this size for its
#: weight gradient; larger ones are rebuilt there from the saved input. A
#: rebuild costs a pixel-net step 5-10% (its conv2 columns take 0.37 MB per
#: feature at batch 32), while the image net's conv1 and conv2 columns
#: (6.2 MB each at batch 32) would otherwise stay alive from forward to
#: backward.
SAVED_COLUMNS_MAX_BYTES = 4 * 2**20


class ShapeMismatchError(DataValidationError):
    """Input or layer shapes are incompatible."""


class TrainingDivergedError(DataValidationError):
    """Loss became non-finite during training."""


class SerializationError(DataValidationError):
    """Model file is corrupt or inconsistent."""


# --------------------------------------------------------------------------
# Layer specifications
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Conv2D:
    filters: int
    kernel_h: int
    kernel_w: int
    same_padding: bool = False

    def __post_init__(self):
        if self.filters < 1 or self.kernel_h < 1 or self.kernel_w < 1:
            raise DataValidationError(f"bad Conv2D spec: {self}")


@dataclass(frozen=True)
class ReLU:
    pass


@dataclass(frozen=True)
class MaxPool:
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise DataValidationError(f"bad MaxPool size: {self.size}")


@dataclass(frozen=True)
class Dropout:
    rate: float

    def __post_init__(self):
        if not (0.0 <= self.rate < 1.0):
            raise DataValidationError(f"dropout rate {self.rate} outside [0, 1)")


@dataclass(frozen=True)
class Dense:
    units: int

    def __post_init__(self):
        if self.units < 1:
            raise DataValidationError(f"bad Dense units: {self.units}")


@dataclass(frozen=True)
class Softmax:
    pass


LayerSpec = Union[Conv2D, ReLU, MaxPool, Dropout, Dense, Softmax]


@dataclass(frozen=True)
class NetworkSpec:
    layers: tuple[LayerSpec, ...]
    input_shape: tuple[int, ...]
    n_classes: int

    def __post_init__(self):
        if len(self.input_shape) not in (1, 3) or any(d < 1 for d in self.input_shape):
            raise DataValidationError(f"bad input shape {self.input_shape}")
        if self.n_classes < 2:
            raise DataValidationError("need at least two classes")
        if not self.layers or not isinstance(self.layers[-1], Softmax):
            raise DataValidationError("final layer must be Softmax")


@dataclass(frozen=True)
class TrainConfig:
    """How :func:`train` runs. Each error names the ``net.*`` config key
    that sets the field at fault."""

    epochs: int = 20
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 32
    #: The one dropout default: every network the classifiers train uses it.
    dropout_rate: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise DataValidationError("net.epochs must be >= 1")
        if self.learning_rate <= 0:
            raise DataValidationError("net.learning_rate must be > 0")
        if not (0.0 <= self.momentum < 1.0):
            raise DataValidationError("net.momentum must be in [0, 1)")
        if self.batch_size < 1:
            raise DataValidationError("net.batch_size must be >= 1")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise DataValidationError("net.dropout_rate must be in [0, 1)")


# --------------------------------------------------------------------------
# Layer implementations over batch-last activations (see the module
# docstring); with the batch last, im2col copies run over ``ow * n``-long
# rows. ``stats`` (when given) collects the smallest margin to a gradient
# discontinuity, used by the gradient checker to steer clear of kinks.
# --------------------------------------------------------------------------


def _batch_last_view(x):
    """The ``(..., n)`` view of an ``(n, ...)`` array."""
    return x.transpose(*range(1, x.ndim), 0)


def _batch_last(x):
    """C-contiguous ``(..., n)`` array of an ``(n, ...)`` one; free for a view."""
    return np.ascontiguousarray(_batch_last_view(x))


def _batch_first(a):
    """The ``(n, ...)`` view of a batch-last array."""
    return a.transpose(a.ndim - 1, *range(a.ndim - 1))


def _saved(cache):
    if cache is None:
        raise RuntimeError("backward needs a train-mode forward first")
    return cache


class _Layer:
    """Every kind is built as ``(spec, in_shape)``; the output shape
    defaults to the input's. ``_cache`` holds what ``backward`` needs."""

    def __init__(self, spec, in_shape, out_shape=None):
        self.spec = spec
        self.in_shape = in_shape
        self.out_shape = in_shape if out_shape is None else out_shape
        self._cache = None

    def params(self):
        return []

    def sample_floats(self) -> int:
        """Floats per sample of the largest array ``forward`` builds."""
        return math.prod(self.out_shape)

    def infer(self, x):
        """The inference output in a network's own pass. That pass holds no
        output past its next batch, so a layer may give it in a buffer its
        next ``infer`` overwrites; by default it is ``forward``'s new array."""
        return self.forward(x, False, None, None)


class _ParamLayer(_Layer):
    """A layer with weights ``w`` of shape ``w_shape`` and one bias per row.
    A kind supplies ``param_grads`` and ``input_grad``; ``backward`` is both.

    Construction only checks shapes; :func:`build_network`,
    :func:`deserialize_model` or :func:`gradient_check` sets ``w`` and ``b``.
    """

    def __init__(self, spec, in_shape, out_shape, w_shape):
        super().__init__(spec, in_shape, out_shape)
        self.w_shape = w_shape
        self.w = self.b = None

    def params(self):
        return [self.w, self.b]

    def backward(self, dout):
        dout = _batch_first(_batch_last(dout))  # one copy serves both gradients
        grads = self.param_grads(dout)
        return self.input_grad(dout), grads


def _outside(lo, hi, size):
    """The slices of ``[0, size)`` outside ``[lo, hi)``: all of it when that is empty."""
    if lo >= hi:
        return [slice(0, size)]
    return [win for win, edge in ((slice(0, lo), lo > 0), (slice(hi, size), hi < size)) if edge]


class _ConvLayer(_ParamLayer):
    def __init__(self, spec: Conv2D, in_shape):
        if len(in_shape) != 3:
            raise ShapeMismatchError(f"Conv2D needs a 3-d input, got {in_shape}")
        c, h, w = in_shape
        if spec.same_padding:
            oh, ow = h, w
            pt, pl = (spec.kernel_h - 1) // 2, (spec.kernel_w - 1) // 2
        else:
            if spec.kernel_h > h or spec.kernel_w > w:
                raise ShapeMismatchError(
                    f"{spec.kernel_h}x{spec.kernel_w} kernel exceeds {h}x{w} input"
                )
            oh = h - spec.kernel_h + 1
            ow = w - spec.kernel_w + 1
            pt = pl = 0
        if oh < 1 or ow < 1:
            raise ShapeMismatchError(f"conv output collapsed to {oh}x{ow}")
        w_shape = (spec.filters, c, spec.kernel_h, spec.kernel_w)
        super().__init__(spec, in_shape, (spec.filters, oh, ow), w_shape)
        self._pt, self._pl = pt, pl
        self._taps, self._pads = self._plan(0, ow, 0, spec.kernel_w)
        # output column o sees input under kernel columns [pl - o, w + pl - o);
        # where some column sees only padding under some kernel column, an
        # inference forward runs one GEMM per run of output columns that see
        # input under the same kernel columns
        live = [(max(0, pl - o), min(spec.kernel_w, w + pl - o)) for o in range(ow)]
        self._runs = []
        self._run_floats = 0  # per sample, in the largest run's columns
        if any(j1 - j0 < spec.kernel_w for j0, j1 in live):
            for (j0, j1), run in itertools.groupby(range(ow), key=live.__getitem__):
                o0, *rest = run
                o1 = o0 + 1 + len(rest)
                self._runs.append((o0, o1, j0, j1, *self._plan(o0, o1, j0, j1)))
                floats = c * spec.kernel_h * (j1 - j0) * oh * (o1 - o0)
                self._run_floats = max(self._run_floats, floats)
        self._cols_buf = self._out_buf = None

    def _plan(self, o0, o1, j0, j1):
        """``(taps, pads)`` that build the im2col columns of output columns
        ``[o0, o1)`` over kernel columns ``[j0, j1)``, shaped ``(c, k_h, j1 -
        j0, oh, o1 - o0, n)``. ``taps`` holds, per kernel tap that sees
        input, the output window whose input under that tap lies inside the
        unpadded input, and that input window. Outside that window a tap
        sees padding, in the output rows its kernel row sees outside the
        input or the output columns its kernel column does; ``pads`` holds
        those rows per kernel row and those columns per kernel column."""
        _, h, w = self.in_shape
        _, oh, _ = self.out_shape
        pt, pl = self._pt, self._pl
        # per kernel row, the output rows that see input under it; per kernel
        # column, the run's columns that do, and the input column under run column 0
        rows = [(max(0, pt - i), min(oh, h + pt - i)) for i in range(self.w_shape[2])]
        cols = [(max(o0, pl - j) - o0, min(o1, w + pl - j) - o0, o0 + j - pl)
                for j in range(j0, j1)]
        taps, pads = [], []
        for i, (r0, r1) in enumerate(rows):
            pads += [(slice(None), i, slice(None), win) for win in _outside(r0, r1, oh)]
            for jj, (c0, c1, at) in enumerate(cols):
                if r0 < r1 and c0 < c1:
                    out_win = (slice(None), i, jj, slice(r0, r1), slice(c0, c1))
                    in_win = (slice(None), slice(r0 + i - pt, r1 + i - pt),
                              slice(c0 + at, c1 + at))
                    taps.append((out_win, in_win))
        for jj, (c0, c1, _) in enumerate(cols):
            pads += [(slice(None), slice(None), jj, slice(None), win)
                     for win in _outside(c0, c1, o1 - o0)]
        return taps, pads

    def sample_floats(self) -> int:
        # the im2col columns: one row per weight of a filter, one column per output pixel
        return max(super().sample_floats(), math.prod(self.w_shape[1:] + self.out_shape[1:]))

    @staticmethod
    def _fill(cols, xb, taps, pads):
        """Write the im2col columns of batch-last ``xb`` into ``cols``: zeros
        in the padding, each tap's in-bounds input everywhere else."""
        for win in pads:
            cols[win] = 0.0
        for out_win, in_win in taps:
            cols[out_win] = xb[in_win]

    def _columns(self, xb):
        """The im2col matrix of a batch-last input: one row per weight of a
        filter, one column per output pixel and sample."""
        _, oh, ow = self.out_shape
        n = xb.shape[-1]
        cols = np.empty(self.w_shape[1:] + (oh, ow, n))
        self._fill(cols, xb, self._taps, self._pads)
        return cols.reshape(-1, oh * ow * n)

    def _scratch(self, name, floats):
        """The first ``floats`` of this layer's buffer ``name``, grown to fit."""
        buf = getattr(self, name)
        if buf is None or buf.size < floats:
            buf = np.empty(floats)
            setattr(self, name, buf)
        return buf[:floats]

    def __getstate__(self):
        # the scratch buffers hold nothing between calls, so a pickle leaves them out
        return {**self.__dict__, "_cols_buf": None, "_out_buf": None}

    def _forward_runs(self, x, out):
        """The inference output for ``x``, written to the ``f * oh * ow * n``
        floats of ``out``: per run of output columns, one GEMM over the kernel
        columns that see input there. The run's weights are sliced from ``w``
        on every call, as training updates ``w`` in place. Its columns go to
        a buffer kept from call to call, laid out by output row, so that the
        GEMM of each row writes that row's span of ``out``."""
        xb = _batch_last_view(x)
        f, oh, ow = self.out_shape
        n = xb.shape[-1]
        c, kh = self.w_shape[1:3]
        out = out.reshape(f, oh, ow * n)
        buf = self._scratch("_cols_buf", self._run_floats * n)
        for o0, o1, j0, j1, taps, pads in self._runs:
            k = c * kh * (j1 - j0)
            cols = buf[: oh * k * (o1 - o0) * n]
            self._fill(cols.reshape(oh, c, kh, j1 - j0, o1 - o0, n).transpose(1, 2, 3, 0, 4, 5),
                       xb, taps, pads)
            np.matmul(self.w[:, :, :, j0:j1].reshape(f, k), cols.reshape(oh, k, -1),
                      out=out.transpose(1, 0, 2)[:, :, o0 * n : o1 * n])
        out += self.b[:, None, None]
        return _batch_first(out.reshape(f, oh, ow, n))

    def infer(self, x):
        if not self._runs:
            return super().infer(x)
        self._cache = None
        out = self._scratch("_out_buf", math.prod(self.out_shape) * x.shape[0])
        return self._forward_runs(x, out)

    def forward(self, x, train, rng, stats):
        self._cache = None
        if self._runs and not train and stats is None:
            return self._forward_runs(x, np.empty(math.prod(self.out_shape) * x.shape[0]))
        xb = _batch_last(x)
        n = xb.shape[-1]
        f, oh, ow = self.out_shape
        cols = self._columns(xb)
        out = self.w.reshape(f, -1) @ cols
        out += self.b[:, None]
        if train:
            self._cache = cols if cols.nbytes <= SAVED_COLUMNS_MAX_BYTES else xb
        return _batch_first(out.reshape(f, oh, ow, n))

    def param_grads(self, dout):
        saved = _saved(self._cache)  # the 2-d columns, or the 4-d input to rebuild them from
        cols = saved if saved.ndim == 2 else self._columns(saved)
        dm = _batch_last(dout).reshape(self.w_shape[0], -1)
        return [(dm @ cols.T).reshape(self.w_shape), dm.sum(axis=1)]

    def input_grad(self, dout):
        """The input gradient alone: it reads the weights, not the saved state."""
        dob = _batch_last(dout)
        n = dob.shape[-1]
        dcols = self.w.reshape(self.w_shape[0], -1).T @ dob.reshape(self.w_shape[0], -1)
        dc = dcols.reshape(self.w_shape[1:] + self.out_shape[1:] + (n,))
        dx = np.zeros(self.in_shape + (n,))
        for out_win, in_win in self._taps:
            dx[in_win] += dc[out_win]
        return _batch_first(dx)


class _ReLULayer(_Layer):
    def forward(self, x, train, rng, stats):
        if stats is not None:
            stats.append(float(np.abs(x).min()))
        mask = x > 0
        self._cache = mask if train else None
        return x * mask

    def backward(self, dout):
        return dout * _saved(self._cache), []

    def rectify(self, x):
        """An inference forward that overwrites ``x``, for an ``x`` no caller holds."""
        self._cache = None
        return np.maximum(x, 0.0, out=x)


class _MaxPoolLayer(_Layer):
    def __init__(self, spec: MaxPool, in_shape):
        if len(in_shape) != 3:
            raise ShapeMismatchError("MaxPool needs a (channels, h, w) input")
        c, h, w = in_shape
        oh, ow = h // spec.size, w // spec.size
        if oh < 1 or ow < 1:
            raise ShapeMismatchError(f"pool size {spec.size} exceeds {h}x{w} input")
        super().__init__(spec, in_shape, (c, oh, ow))

    def _offsets(self, xb):
        """One strided view of a batch-last array per window offset, row-major."""
        _, oh, ow = self.out_shape
        s = self.spec.size
        return [xb[:, i : oh * s : s, j : ow * s : s] for i in range(s) for j in range(s)]

    def forward(self, x, train, rng, stats):
        views = self._offsets(_batch_last_view(x))
        out = views[0]
        for view in views[1:]:
            out = np.maximum(out, view)
        if stats is not None and len(views) > 1:
            top2 = np.sort(np.stack(views, axis=-1), axis=-1)[..., -2:]
            stats.append(float((top2[..., 1] - top2[..., 0]).min()))
        self._cache = None
        if train:
            # each window's gradient goes to its first maximum, as argmax picks
            routed = np.zeros(out.shape, dtype=bool)
            self._cache = []
            for view in views:
                first = (view == out) & ~routed
                routed |= first
                self._cache.append(first)
        return _batch_first(out)

    def backward(self, dout):
        firsts = _saved(self._cache)
        dob = _batch_last_view(dout)
        dx = np.zeros(self.in_shape + (dout.shape[0],))
        for view, first in zip(self._offsets(dx), firsts):
            np.multiply(dob, first, out=view)
        return _batch_first(dx), []


class _DropoutLayer(_Layer):
    def forward(self, x, train, rng, stats):
        self._cache = None
        rate = self.spec.rate
        if not train or rate == 0.0:
            return x
        if rng is None:
            raise DataValidationError("train-mode forward through Dropout needs an rng")
        # drawn in (n, ...) order so the stream does not depend on the layout
        keep = rng.random(x.shape) >= rate
        self._cache = np.empty_like(x)
        np.divide(keep, 1.0 - rate, out=self._cache)
        return x * self._cache

    def backward(self, dout):
        # no mask: an inference or rate-0 forward passed its input through
        if self._cache is None:
            return dout, []
        return dout * self._cache, []


class _DenseLayer(_ParamLayer):
    def __init__(self, spec: Dense, in_shape):
        super().__init__(spec, in_shape, (spec.units,), (spec.units, math.prod(in_shape)))

    def forward(self, x, train, rng, stats):
        flat = _batch_last(x).reshape(self.w_shape[1], -1)
        out = self.w @ flat
        out += self.b[:, None]
        self._cache = flat if train else None
        return _batch_first(out)

    def param_grads(self, dout):
        flat = _saved(self._cache)
        dob = _batch_last(dout)
        return [dob @ flat.T, dob.sum(axis=1)]

    def input_grad(self, dout):
        """The input gradient alone: it reads the weights, not the saved input."""
        dob = _batch_last(dout)
        return _batch_first((self.w.T @ dob).reshape(self.in_shape + (dob.shape[1],)))


class _SoftmaxLayer(_Layer):
    def forward(self, x, train, rng, stats):
        shifted = x - x.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        probs = e / e.sum(axis=1, keepdims=True)
        self._cache = probs if train else None
        return probs

    def backward(self, dout):
        p = _saved(self._cache)
        inner = (dout * p).sum(axis=1, keepdims=True)
        return p * (dout - inner), []


#: The one declaration of each layer kind: its spec class, the token of its
#: model-header line and its runtime class.
_LAYER_KINDS = {
    Conv2D: ("conv2d", _ConvLayer),
    ReLU: ("relu", _ReLULayer),
    MaxPool: ("maxpool", _MaxPoolLayer),
    Dropout: ("dropout", _DropoutLayer),
    Dense: ("dense", _DenseLayer),
    Softmax: ("softmax", _SoftmaxLayer),
}


# --------------------------------------------------------------------------
# Network
# --------------------------------------------------------------------------


class Network:
    """A built network: runtime layers, one per spec layer in spec order,
    plus the spec that produced them. The batch passes run the layers in
    ``_run``, where a ReLU right before a MaxPool comes after it: ReLU is
    monotone, so the pooled values are the same, and a window's gradient
    still goes to its first maximum when that is positive, else is zero."""

    def __init__(self, spec: NetworkSpec, layers):
        self.spec = spec
        self.layers = layers
        self._run = list(layers)
        for i in range(len(self._run) - 1):
            if isinstance(self._run[i], _ReLULayer) and isinstance(self._run[i + 1], _MaxPoolLayer):
                self._run[i], self._run[i + 1] = self._run[i + 1], self._run[i]
        # a ReLU right after a weight layer rectifies that layer's fresh output in place
        self._in_place = [
            isinstance(layer, _ReLULayer) and k > 0 and isinstance(self._run[k - 1], _ParamLayer)
            for k, layer in enumerate(self._run)
        ]

    def parameters(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    @property
    def inference_batch(self) -> int:
        """Samples per inference batch: ``INFERENCE_BUDGET_BYTES`` over the
        bytes one sample takes in the largest array a train-mode forward
        builds. An inference pass builds no larger one: a conv that
        multiplies only its input-seeing kernel columns keeps buffers no
        larger than the columns and output it would otherwise build."""
        largest = 8 * max(layer.sample_floats() for layer in self.layers)
        return max(1, INFERENCE_BUDGET_BYTES // largest)

    def _input(self, x):
        if x.shape[1:] != self.spec.input_shape:
            raise ShapeMismatchError(
                f"input shape {x.shape[1:]} != expected {self.spec.input_shape}"
            )
        return np.asarray(x, dtype=np.float64)

    def forward_batch(self, x, train=False, rng=None):
        """Class probabilities ``(n, n_classes)`` for inputs ``(n, *input_shape)``.

        Dropout fires only when ``train`` (inverted scaling, so inference
        needs no rescale) and then draws its masks from ``rng``. An
        inference pass rectifies a conv or dense output in place.
        """
        out = self._input(x)
        for layer, in_place in zip(self._run, self._in_place):
            if train:
                out = layer.forward(out, True, rng, None)
            elif in_place:
                out = layer.rectify(out)
            else:
                out = layer.infer(out)
        return out

    def backward_batch(self, dout):
        """Every parameter's gradient, in :meth:`parameters` order, after a
        train-mode forward; a weight layer's saved input goes once its
        weight gradient is taken, before its input gradient is built."""
        grads = []
        for k in range(len(self._run) - 1, -1, -1):
            layer = self._run[k]
            if isinstance(layer, _ParamLayer):
                grads = layer.param_grads(dout) + grads
                layer._cache = None
                if k:
                    dout = layer.input_grad(dout)
            elif k:  # nothing reads the network's input gradient
                dout, _ = layer.backward(dout)
        return grads

    def kink_margin(self, x) -> float:
        """Smallest distance to a ReLU zero or MaxPool argmax tie for ``x``,
        with the layers run in spec order, as :func:`gradient_check` probes them."""
        stats: list[float] = []
        out = self._input(x[None])
        for layer in self.layers:
            out = layer.forward(out, False, None, stats)
        return min(stats) if stats else np.inf


def _runtime_layers(spec: NetworkSpec) -> list:
    """Shape-checked runtime layers for ``spec``, weights not yet set."""
    shape = spec.input_shape
    layers = []
    for ls in spec.layers:
        if type(ls) not in _LAYER_KINDS:
            raise DataValidationError(f"unknown layer spec {ls!r}")
        _, runtime_class = _LAYER_KINDS[type(ls)]
        layers.append(runtime_class(ls, shape))
        shape = layers[-1].out_shape
    if shape != (spec.n_classes,):
        raise ShapeMismatchError(f"softmax input {shape} does not match {spec.n_classes} classes")
    return layers


def build_network(spec: NetworkSpec, seed: int) -> Network:
    """Instantiate a network with fan-in-scaled uniform weights.

    The same (spec, seed) pair always yields identical weights.
    """
    rng = np.random.default_rng(seed)
    layers = _runtime_layers(spec)
    for layer in layers:
        if isinstance(layer, _ParamLayer):
            limit = np.sqrt(6.0 / math.prod(layer.w_shape[1:]))
            layer.w = rng.uniform(-limit, limit, size=layer.w_shape)
            layer.b = np.zeros(layer.w_shape[0])
    return Network(spec, layers)


def _cross_entropy(probs, labels):
    """(mean clamped cross-entropy, label probabilities, clamped label probabilities)."""
    p_label = probs[np.arange(labels.shape[0]), labels]
    clamped = np.maximum(p_label, PROB_FLOOR)
    return float(-np.mean(np.log(clamped))), p_label, clamped


def loss_and_gradients(net: Network, batch, rng=None):
    """Mean cross-entropy over a batch plus gradients for every parameter.

    ``batch`` is ``(x, labels)`` with ``x`` of shape (n, *input_shape)
    and integer labels in ``[0, n_classes)``. Probabilities are clamped
    at ``PROB_FLOOR`` before the log.
    """
    x, labels = batch
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    n = x.shape[0]
    if n == 0:
        raise DataValidationError("batch must be nonempty")
    if labels.shape != (n,):
        raise ShapeMismatchError("labels must be one integer per sample")
    if labels.min() < 0 or labels.max() >= net.spec.n_classes:
        raise DataValidationError("label outside [0, n_classes)")
    probs = net.forward_batch(x, train=True, rng=rng)
    loss, p_label, clamped = _cross_entropy(probs, labels)
    dprobs = np.zeros_like(probs)
    dprobs[np.arange(n), labels] = np.where(p_label > PROB_FLOOR, -1.0 / (n * clamped), 0.0)
    grads = net.backward_batch(dprobs)
    return loss, grads


def predict_batch(net: Network, x: np.ndarray, batch_size: int | None = None):
    """(labels, confidences) arrays: the argmax of the inference-mode
    probabilities and its probability; exact ties take the lowest class.

    ``x`` is taken as :func:`train` takes its sets. It goes through the
    network ``batch_size`` samples at a time, by default
    ``net.inference_batch``, so its largest array stays within
    ``INFERENCE_BUDGET_BYTES`` whatever ``len(x)``.
    """
    if batch_size is None:
        batch_size = net.inference_batch
    labels = np.empty(len(x), dtype=np.int64)
    confs = np.empty(len(x))
    for start in range(0, len(x), batch_size):
        probs = net.forward_batch(x[start : start + batch_size])
        labels[start : start + probs.shape[0]] = probs.argmax(axis=1)
        confs[start : start + probs.shape[0]] = probs.max(axis=1)
    return labels, confs


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: The variables OpenBLAS takes its thread count from, in the order it reads them.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_threads() -> int:
    """Threads BLAS runs a GEMM on, read as OpenBLAS reads them: the first of
    :data:`_BLAS_THREAD_VARS` whose value starts with a positive integer (as
    C's ``atoi`` reads it); with none, BLAS uses every usable CPU."""
    for name in _BLAS_THREAD_VARS:
        lead = re.match(r"\s*\+?([0-9]+)", os.environ.get(name, ""))
        if lead and int(lead[1]) > 0:
            return int(lead[1])
    return _usable_cpus()


def _workers(n: int) -> int:
    """Processes :func:`_fan_out` runs ``n`` items on: as many as the usable
    CPUs hold beside each one's BLAS threads, at least 1 and at most ``n``."""
    return max(1, min(n, _usable_cpus() // _blas_threads()))


def _worker_batch(net: Network, n: int) -> int:
    """One worker's share of ``net.inference_batch`` when :func:`_fan_out`
    spreads ``n`` items: the workers' batches together stay in budget."""
    return max(1, net.inference_batch // _workers(n))


def _run_items(work, first: int, n: int, step: int):
    """``(values, failure)``: ``work(k)`` for ``k = first, first + step, ...``
    below ``n`` up to the first error, which ``failure`` holds as ``(k, exc)``."""
    values = []
    for k in range(first, n, step):
        try:
            values.append(work(k))
        except Exception as exc:
            return values, (k, exc)
    return values, None


def _fan_out(work, n: int) -> list:
    """``[work(k) for k in range(n)]``, spread over ``W = _workers(n)`` processes.

    The calling process runs ``k = 0, W, 2W, ...`` and ``W - 1`` children,
    forked for this call, run the rest; each runs its items in ascending
    order up to its first error, and a child sends its values back pickled
    over a pipe. So ``work`` reads whatever the caller holds, but only what
    it returns comes back. The error of the lowest failing ``k`` is raised
    with its type and message. A child that ends without reporting (killed
    by a signal, or ``os._exit``) counts as failing at its first item, with
    a :class:`ChildProcessError` naming its items and wait status. Every
    child is reaped before this returns or raises. With ``W = 1``, or where
    ``os.fork`` does not exist, the items run inline and nothing is forked.
    Inference callers share ``INFERENCE_BUDGET_BYTES`` by predicting in
    batches of :func:`_worker_batch`.

    A fork copies only the calling thread. The package starts no thread,
    and OpenBLAS shuts its thread pool down before a fork
    (``pthread_atfork``), so a child holds no lock another thread took.
    """
    w = _workers(n) if hasattr(os, "fork") else 1
    if w == 1:
        return [work(k) for k in range(n)]
    children = []  # (first item, pid, read end of its pipe)
    reports, statuses = {}, {}
    try:
        for first in range(1, w):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:  # the child reports, then exits without unwinding into the caller
                status = 1
                try:
                    for fd in [read_end] + [r for _, _, r in children]:
                        os.close(fd)
                    with open(write_end, "wb") as pipe:
                        pickle.dump(_run_items(work, first, n, w), pipe)
                    status = 0
                except BaseException:
                    traceback.print_exc()
                finally:
                    os._exit(status)
            os.close(write_end)
            children.append((first, pid, read_end))
        reports[0] = _run_items(work, 0, n, w)
        for first, _, read_end in children:  # to EOF: the child closes its end when done
            reports[first] = b"".join(iter(lambda: os.read(read_end, 1 << 20), b""))
    finally:
        for first, pid, read_end in children:
            os.close(read_end)  # a child still writing gets EPIPE and exits
            statuses[first] = os.waitpid(pid, 0)[1]
    outcomes = [reports[0]]
    for first, _, _ in children:
        if statuses[first] == 0:
            outcomes.append(pickle.loads(reports[first]))
        else:
            items = ", ".join(map(str, range(first, n, w)))
            outcomes.append(([], (first, ChildProcessError(
                f"worker for items {items} ended with wait status {statuses[first]}"
            ))))
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    values = [None] * n
    for first, (done, _) in enumerate(outcomes):
        values[first::w] = done
    return values


def accuracy(net: Network, x: np.ndarray, labels: np.ndarray) -> float:
    pred, _ = predict_batch(net, x)
    return float(np.mean(pred == np.asarray(labels)))


def train(net: Network, train_set, val_set, cfg: TrainConfig):
    """SGD with momentum over seeded shuffled mini-batches.

    Each set is ``(x, labels)``. ``x`` holds the samples as anything with
    ``len`` that an index array or a slice indexes into a numeric
    ``(batch, *input_shape)`` array, as numpy does: a float64 array, or an
    :class:`~streetcrop.imageclassifier.ImageSet`, whose 8-bit images
    become doubles one batch at a time. ``x`` is only ever indexed, never
    converted whole.

    Returns ``(net, history)`` where ``history`` holds the validation
    accuracy after each epoch (length = ``cfg.epochs``). Raises
    :class:`TrainingDivergedError` the moment the loss stops being
    finite. Dropout layers keep the rates of ``net.spec``; the
    classifiers build that spec from ``cfg.dropout_rate``.
    """
    x_train, y_train = train_set
    x_val, y_val = val_set
    y_train = np.asarray(y_train)
    if len(x_train) == 0 or len(x_val) == 0:
        raise DataValidationError("training and validation sets must be nonempty")
    rng = np.random.default_rng(cfg.seed)
    params = net.parameters()
    velocity = [np.zeros_like(p) for p in params]
    history = []
    n = len(x_train)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            take = order[start : start + cfg.batch_size]
            loss, grads = loss_and_gradients(net, (x_train[take], y_train[take]), rng=rng)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch offset {start}"
                )
            for p, v, g in zip(params, velocity, grads):
                v *= cfg.momentum
                v -= cfg.learning_rate * g
                p += v
        history.append(accuracy(net, x_val, y_val))
    return net, history


# --------------------------------------------------------------------------
# Gradient checking
# --------------------------------------------------------------------------


def gradient_check(net: Network, sample, eps: float = 1e-5) -> float:
    """Max relative error between backprop and central finite differences.

    ``sample`` is ``(x, label)``. The check runs on a copy of ``net``
    whose Dropout rates are 0, so the result is deterministic; the copy
    shares ``net``'s weight arrays, and every probe puts back the value
    it moved. The input is first perturbed (deterministically) until no
    ReLU pre-activation or MaxPool window sits within ``10 * eps`` of a
    gradient discontinuity, where finite differences would be meaningless.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise DataValidationError(f"eps {eps} outside [1e-7, 1e-3]")
    spec = clone_spec_with_dropout(net.spec, 0.0)
    layers = _runtime_layers(spec)
    for layer, theirs in zip(layers, net.layers):
        if isinstance(layer, _ParamLayer):
            layer.w, layer.b = theirs.w, theirs.b
    net = Network(spec, layers)
    x, label = sample
    x = np.array(x, dtype=np.float64)
    for attempt in range(16):
        if net.kink_margin(x) > 10.0 * eps:
            break
        jitter = np.random.default_rng(1000 + attempt).uniform(-1, 1, size=x.shape)
        x = x + 64.0 * eps * jitter
    labels = np.array([label])
    _, grads = loss_and_gradients(net, (x[None], labels))
    # a probe of layer k's parameters changes no activation before layer
    # k, so each probe runs an inference forward from layer k's input
    inputs = [x[None]]
    for layer in net.layers[:-1]:
        inputs.append(layer.forward(inputs[-1], False, None, None))

    def probe_loss(k):
        out = inputs[k]
        for layer in net.layers[k:]:
            out = layer.forward(out, False, None, None)
        return _cross_entropy(out, labels)[0]

    worst = 0.0
    probed = [(k, p) for k, layer in enumerate(net.layers) for p in layer.params()]
    for (k, p), g in zip(probed, grads):
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + eps
            up = probe_loss(k)
            flat_p[i] = orig - eps
            down = probe_loss(k)
            flat_p[i] = orig
            numeric = (up - down) / (2.0 * eps)
            analytic = flat_g[i]
            err = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
            worst = max(worst, err)
    return worst


# --------------------------------------------------------------------------
# Serialization: magic, text spec block, little-endian float64 weights.
# --------------------------------------------------------------------------


def _parse_flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"flag {text!r} is not 0 or 1")
    return text == "1"


# a spec field's declared type -> (writer, reader) of its header token
_FIELD_CODECS = {
    "int": (str, parse_int),
    "float": (repr, parse_float),
    "bool": (lambda v: str(int(v)), _parse_flag),
}
# the conv line carries a stride before its padding flag; it is always 1
_CONV_STRIDE_AT = 3


def _spec_lines(spec: NetworkSpec):
    lines = [
        "input " + " ".join(str(d) for d in spec.input_shape),
        f"classes {spec.n_classes}",
    ]
    for ls in spec.layers:
        tokens = [_FIELD_CODECS[f.type][0](getattr(ls, f.name)) for f in fields(ls)]
        if isinstance(ls, Conv2D):
            tokens.insert(_CONV_STRIDE_AT, "1")
        lines.append(" ".join(["layer", _LAYER_KINDS[type(ls)][0], *tokens]))
    return lines


_SPEC_BY_TOKEN = {token: cls for cls, (token, _) in _LAYER_KINDS.items()}


def _parse_layer(kind: str, tokens: list[str]) -> LayerSpec:
    """The spec of a ``layer <kind> <tokens>`` header line; ``ValueError`` if malformed."""
    cls = _SPEC_BY_TOKEN.get(kind)
    if cls is None:
        raise ValueError(f"unknown layer kind {kind!r}")
    if cls is Conv2D and len(tokens) > _CONV_STRIDE_AT:
        stride = tokens.pop(_CONV_STRIDE_AT)
        if stride != "1":
            raise ValueError(f"stride {stride!r} is not 1")
    declared = fields(cls)
    if len(tokens) != len(declared):
        raise ValueError(f"{kind} takes {len(declared)} fields, got {len(tokens)}")
    return cls(*(_FIELD_CODECS[f.type][1](t) for f, t in zip(declared, tokens)))


def serialize_model(net: Network, path: str | Path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    weights = net.parameters()
    count = sum(p.size for p in weights)
    header = MODEL_MAGIC + b"\n" + "\n".join(_spec_lines(net.spec)).encode("ascii")
    header += f"\nweights {count}\n".encode("ascii")
    payload = b"".join(np.ascontiguousarray(p, dtype="<f8").tobytes() for p in weights)
    path.write_bytes(header + payload)


def deserialize_model(path: str | Path) -> Network:
    buf = io.BytesIO(read_input(path, "model file"))
    if buf.readline().rstrip(b"\n") != MODEL_MAGIC:
        raise SerializationError(f"{path}: bad magic, not a model file")
    header: dict[str, object] = {}  # the input and classes lines, once each
    layers: list[LayerSpec] = []
    while True:
        raw = buf.readline()
        if not raw:
            raise SerializationError(f"{path}: truncated header")
        line = raw.rstrip(b"\n").decode("ascii", errors="replace")
        key, *tokens = line.split(" ")
        try:
            if key in header:
                raise ValueError(f"a second {key} line")
            if key == "input":
                header[key] = tuple(parse_int(t) for t in tokens)
            elif key == "classes" and len(tokens) == 1:
                header[key] = parse_int(tokens[0])
            elif key == "layer" and tokens:
                layers.append(_parse_layer(tokens[0], tokens[1:]))
            elif key == "weights" and len(tokens) == 1:
                count = parse_int(tokens[0])
                break
            else:
                raise ValueError("not an input, classes, layer or weights line")
        except (ValueError, DataValidationError) as exc:
            raise SerializationError(f"{path}: bad header line {line!r}: {exc}") from exc
    if len(header) < 2:
        raise SerializationError(f"{path}: header missing input/classes lines")
    try:
        spec = NetworkSpec(tuple(layers), header["input"], header["classes"])
        runtime = _runtime_layers(spec)
    except DataValidationError as exc:
        raise SerializationError(f"{path}: inconsistent spec: {exc}") from exc
    # sizes come from the spec alone, so a corrupt header allocates nothing
    weighted = [layer for layer in runtime if isinstance(layer, _ParamLayer)]
    sizes = [(math.prod(layer.w_shape), layer.w_shape[0]) for layer in weighted]
    expected = sum(nw + nb for nw, nb in sizes)
    if count != expected:
        raise SerializationError(f"{path}: header says {count} weights, spec needs {expected}")
    payload = buf.read()
    if len(payload) != 8 * expected:
        raise SerializationError(
            f"{path}: payload is {len(payload)} bytes, expected {8 * expected}"
        )
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    offset = 0
    for layer, (nw, nb) in zip(weighted, sizes):
        layer.w = values[offset : offset + nw].reshape(layer.w_shape)
        layer.b = values[offset + nw : offset + nw + nb]
        offset += nw + nb
    return Network(spec, runtime)


# --------------------------------------------------------------------------
# Default architectures. Filter counts and kernel sizes are this
# package's declared defaults; both classifiers accept any NetworkSpec and
# set its Dropout rates with clone_spec_with_dropout, the one way to set one.
# --------------------------------------------------------------------------


def default_image_spec(input_shape: tuple[int, int, int], n_classes: int) -> NetworkSpec:
    """Three conv/pool blocks then a dense head, for street images."""
    return NetworkSpec(
        layers=(
            Conv2D(16, 3, 3),
            ReLU(),
            MaxPool(2),
            Conv2D(32, 3, 3),
            ReLU(),
            MaxPool(2),
            Conv2D(64, 3, 3),
            ReLU(),
            MaxPool(2),
            Dropout(TrainConfig.dropout_rate),
            Dense(128),
            ReLU(),
            Dense(n_classes),
            Softmax(),
        ),
        input_shape=input_shape,
        n_classes=n_classes,
    )


def default_pixel_spec(n_scenes: int, n_features: int, n_classes: int) -> NetworkSpec:
    """Two same-padded conv layers over a (1, T, F) temporal stack."""
    return NetworkSpec(
        layers=(
            Conv2D(16, 3, 3, same_padding=True),
            ReLU(),
            Conv2D(16, 3, 3, same_padding=True),
            ReLU(),
            Dropout(TrainConfig.dropout_rate),
            Dense(64),
            ReLU(),
            Dense(n_classes),
            Softmax(),
        ),
        input_shape=(1, n_scenes, n_features),
        n_classes=n_classes,
    )


def clone_spec_with_dropout(spec: NetworkSpec, rate: float) -> NetworkSpec:
    """Same architecture with every Dropout layer set to ``rate``."""
    new_layers = tuple(
        replace(ls, rate=rate) if isinstance(ls, Dropout) else ls for ls in spec.layers
    )
    return replace(spec, layers=new_layers)


__all__ = [
    "Conv2D",
    "ReLU",
    "MaxPool",
    "Dropout",
    "Dense",
    "Softmax",
    "LayerSpec",
    "NetworkSpec",
    "TrainConfig",
    "Network",
    "ShapeMismatchError",
    "TrainingDivergedError",
    "SerializationError",
    "build_network",
    "loss_and_gradients",
    "predict_batch",
    "accuracy",
    "train",
    "gradient_check",
    "serialize_model",
    "deserialize_model",
    "default_image_spec",
    "default_pixel_spec",
    "clone_spec_with_dropout",
]
