"""From-scratch 1D convolutional network for four-way text classification.

Every tensor operation, every gradient, and the RMSProp update rule are
written directly against numpy so the arithmetic is fully inspectable and
each backward pass can be validated with central finite differences. The
layer stack is fixed and written down once, in LAYERS: the config's
shapes, the parameter list, the forward pass and the backward pass all
walk that table.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, fields
from functools import cached_property
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .corpus import CATEGORY_CODES

__all__ = [
    "LAYERS",
    "LOSS_CLAMP",
    "PARAM_NAMES",
    "ForwardCache",
    "Layer",
    "Model",
    "ModelConfig",
    "NonFiniteGradient",
    "RmsPropState",
    "conv1d_backward",
    "conv1d_forward",
    "cross_entropy",
    "dense_backward",
    "dense_forward",
    "embedding_forward",
    "gradient_check",
    "init_model",
    "maxpool1d",
    "maxpool1d_backward",
    "model_backward",
    "rmsprop_step",
    "softmax",
]

LOSS_CLAMP = 1e-12


class Layer(NamedTuple):
    """A row of LAYERS: width names the ModelConfig field that sets the last
    output dimension (None keeps the input's); params are weight, then bias."""

    name: str
    kind: str
    width: str | None = None
    params: tuple[str, ...] = ()


# The network in forward order. Kinds: embed, conv_relu, pool, flatten,
# dense_relu and dense_softmax. A row's name is also the ForwardCache
# attribute that holds the layer's output.
LAYERS = (
    Layer("embedded", "embed", "embed_dim", ("embedding",)),
    Layer("conv1", "conv_relu", "conv1_filters", ("conv1_kernel", "conv1_bias")),
    Layer("pool1", "pool"),
    Layer("conv2", "conv_relu", "conv2_filters", ("conv2_kernel", "conv2_bias")),
    Layer("pool2", "pool"),
    Layer("flat", "flatten"),
    Layer("dense1", "dense_relu", "dense_hidden", ("dense1_weight", "dense1_bias")),
    Layer("probs", "dense_softmax", "classes", ("dense2_weight", "dense2_bias")),
)

# Also the tensor order of weights.bin and of init_model's random draws.
PARAM_NAMES = tuple(name for layer in LAYERS for name in layer.params)

_DTYPES = {"float32": np.float32, "float64": np.float64}


def check_field_types(config) -> None:
    """Check each field against its annotation: int, float (or int), str or str | None; no bool."""
    kinds = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a number"),
             "str": (str, "a string"), "str | None": ((str, type(None)), "a string or null")}
    for f in fields(config):
        value = getattr(config, f.name)
        kind, name = kinds[f.type]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"{f.name} must be {name}, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of the fixed convolutional stack in LAYERS.

    Spatial sizes shrink deterministically: each convolution is unpadded
    (length T becomes T - kernel + 1) and each pooling stage halves the
    length, dropping a trailing odd element. Every intermediate length
    must remain poolable, which for the default kernel size 3 requires a
    sequence length of at least 10.
    """

    vocab_size: int
    L: int
    embed_dim: int = 128
    conv1_filters: int = 64
    conv2_filters: int = 32
    kernel: int = 3
    pool: int = 2
    pool_stride: int = 2
    dense_hidden: int = 16
    classes: int = 4
    precision: str = "float64"

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.classes != len(CATEGORY_CODES):
            raise ValueError(f"classes must be {len(CATEGORY_CODES)}, got {self.classes}")
        if self.precision not in _DTYPES:
            raise ValueError(
                f"precision must be one of {sorted(_DTYPES)}, got {self.precision!r}"
            )
        if self.vocab_size < 2:
            raise ValueError(
                "vocab_size must be at least 2 (padding and OOV indices), "
                f"got {self.vocab_size}"
            )
        for name in (layer.width for layer in LAYERS if layer.width):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.kernel < 1:
            raise ValueError(f"kernel must be positive, got {self.kernel}")
        if self.pool != 2 or self.pool_stride != 2:
            raise ValueError("only pooling with window 2 and stride 2 is supported")
        min_length = 3 * self.kernel + 1
        if self.L < min_length:
            raise ValueError(
                f"sequence length {self.L} is too short for kernel {self.kernel}: "
                f"the layer stack needs L >= {min_length}"
            )
        if self.L > sys.maxsize:
            raise ValueError(f"sequence length {self.L} is too long: the largest index is {sys.maxsize}")

    @property
    def dtype(self) -> type:
        return _DTYPES[self.precision]

    @cached_property
    def _shapes(self) -> tuple[tuple[tuple[int, ...], ...], dict[str, tuple[int, ...]]]:
        """Walk LAYERS once: per-sample output shapes and parameter shapes."""
        shape: tuple[int, ...] = (self.L,)
        chain, params = [], {}
        for layer in LAYERS:
            width = getattr(self, layer.width) if layer.width else shape[-1]
            weight = ()
            if layer.kind == "embed":
                weight, shape = (self.vocab_size, width), (self.L, width)
            elif layer.kind == "conv_relu":
                weight = (self.kernel, shape[-1], width)
                shape = (shape[0] - self.kernel + 1, width)
            elif layer.kind == "pool":
                shape = (shape[0] // self.pool_stride, width)
            elif layer.kind == "flatten":
                shape = (math.prod(shape),)
            else:
                weight, shape = (shape[0], width), (width,)
            chain.append(shape)
            params.update(zip(layer.params, (weight, (width,))))
        return tuple(chain), params

    def shape_chain(self) -> tuple[tuple[int, ...], ...]:
        """Per-sample output shape of each layer in LAYERS."""
        return self._shapes[0]

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Parameter tensor shapes keyed by canonical name, in PARAM_NAMES order."""
        return dict(self._shapes[1])


def embedding_forward(ids, embedding: np.ndarray) -> np.ndarray:
    """Gather embedding rows: output position i holds row ids[i].

    Index 0 (padding) is an ordinary trainable row. Works on a single
    sequence or on any leading batch shape.
    """
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= embedding.shape[0]):
        raise ValueError(
            f"sequence ids must lie in [0, {embedding.shape[0]}), "
            f"got range [{ids.min()}, {ids.max()}]"
        )
    return embedding[ids]


def conv1d_forward(x, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Unpadded 1D convolution over the time axis.

    x has shape (..., T, C), kernel (k, C, F), bias (F,); the result has
    shape (..., T - k + 1, F) with
    out[t, f] = bias[f] + sum_{o, c} x[t + o, c] * kernel[o, c, f].
    """
    x = np.asarray(x)
    k, c_in, filters = kernel.shape
    if x.shape[-1] != c_in:
        raise ValueError(f"input has {x.shape[-1]} channels, kernel expects {c_in}")
    steps = x.shape[-2]
    if steps < k:
        raise ValueError(f"conv1d needs at least {k} timesteps, got {steps}")
    t_out = steps - k + 1
    out = np.zeros(
        (*x.shape[:-2], t_out, filters), dtype=np.result_type(x.dtype, kernel.dtype)
    )
    for offset in range(k):
        out += x[..., offset : offset + t_out, :] @ kernel[offset]
    out += bias
    return out


def conv1d_backward(
    x: np.ndarray, kernel: np.ndarray, dout: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of conv1d_forward with respect to input, kernel, and bias."""
    k, c_in, filters = kernel.shape
    t_out = dout.shape[-2]
    dbias = dout.sum(axis=tuple(range(dout.ndim - 1)))
    dout_flat = dout.reshape(-1, filters)
    dkernel = np.empty_like(kernel)
    dx = np.zeros_like(x)
    for offset in range(k):
        window = x[..., offset : offset + t_out, :]
        dkernel[offset] = window.reshape(-1, c_in).T @ dout_flat
        dx[..., offset : offset + t_out, :] += (dout_flat @ kernel[offset].T).reshape(window.shape)
    return dx, dkernel, dbias


def _later_wins(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The pools' winner rule, as numpy's argmax picks: the later slot wins only if it is
    larger or it alone is NaN. Ties go to the earlier slot, and the first NaN wins."""
    return ~(first >= second) & (first == first)


def maxpool1d(x, winners: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Max pooling with window 2 and stride 2 over the time axis.

    A trailing odd timestep is dropped. Returns the pooled tensor of
    shape (..., T // 2, C) and the absolute time index of each window's
    winner under the winner rule (_later_wins).

    With winners=False, which Model.forward uses, it returns np.maximum of
    the two slots and None. That is the winner rule's value, bit for bit,
    only on relu output: where a pair is +0.0 then -0.0, np.maximum may
    return -0.0, and a relu output holds no -0.0.
    """
    x = np.asarray(x)
    steps = x.shape[-2]
    if steps < 2:
        raise ValueError(f"maxpool1d needs at least 2 timesteps, got {steps}")
    t_out = steps // 2
    first = x[..., 0 : 2 * t_out : 2, :]
    second = x[..., 1 : 2 * t_out : 2, :]
    if not winners:
        return np.maximum(first, second), None
    later = _later_wins(first, second)
    return np.where(later, second, first), later + 2 * np.arange(t_out).reshape(-1, 1)


def maxpool1d_backward(dout: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Route each pooled gradient to its window's winner in x, the pool's input, under
    the winner rule (_later_wins); the other slot and a dropped timestep get +0.0."""
    t_out = dout.shape[-2]
    later = _later_wins(x[..., 0 : 2 * t_out : 2, :], x[..., 1 : 2 * t_out : 2, :])
    dx = np.zeros(x.shape, dtype=dout.dtype)
    bits = np.dtype(f"u{dout.itemsize}")  # A bit pattern times 1 or 0: itself, or +0.0.
    np.multiply(dout.view(bits), ~later, out=dx[..., 0 : 2 * t_out : 2, :].view(bits))
    np.multiply(dout.view(bits), later, out=dx[..., 1 : 2 * t_out : 2, :].view(bits))
    return dx


def dense_forward(x, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map x @ weight + bias for x of shape (..., n)."""
    x = np.asarray(x)
    if x.shape[-1] != weight.shape[0]:
        raise ValueError(
            f"input has {x.shape[-1]} features, weight expects {weight.shape[0]}"
        )
    if bias.shape != (weight.shape[1],):
        raise ValueError(f"bias shape {bias.shape} does not match {weight.shape[1]} outputs")
    return x @ weight + bias


def dense_backward(
    x: np.ndarray, weight: np.ndarray, dout: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of dense_forward with respect to input, weight, and bias."""
    dweight = x.reshape(-1, x.shape[-1]).T @ dout.reshape(-1, dout.shape[-1])
    dbias = dout.sum(axis=tuple(range(dout.ndim - 1)))
    dx = dout @ weight.T
    return dx, dweight, dbias


def softmax(z) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    z = np.asarray(z)
    shifted = z - z.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def check_codes(labels, classes: int, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """labels as an integer array of category codes 1..classes, of shape if given."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu" or shape not in (None, labels.shape):
        raise ValueError(f"labels must be integer category codes of shape {shape}, "
                         f"got {labels.dtype} of shape {labels.shape}")
    if labels.size and (labels.min() < 1 or labels.max() > classes):
        raise ValueError(f"labels must lie in [1, {classes}], got range "
                         f"[{labels.min()}, {labels.max()}]")
    return labels


def cross_entropy(probs, labels) -> np.ndarray:
    """Per-example loss -log(p_true) in float64, with p clamped to at least 1e-12.

    probs has shape (..., classes) and labels holds the category codes
    1..classes, shape (...); the result has the labels' shape (a plain
    scalar for a single example).
    """
    probs = np.asarray(probs)
    labels = check_codes(labels, probs.shape[-1], probs.shape[:-1])
    p_true = np.take_along_axis(probs, labels[..., None] - 1, axis=-1)[..., 0]
    return -np.log(np.maximum(p_true.astype(np.float64), LOSS_CLAMP))


class ForwardCache(SimpleNamespace):
    """What Model.forward records for one backward pass: the model, its
    version and the ids, and each layer's output under its LAYERS name
    (cache.conv1). model_backward finds each pool's winners again in the
    pool's input, the conv output before it.

    For the embedding it holds the batch's distinct ids, their rows and
    each position's index into them; cache.embedded is placed as
    rows[inverse] only when first read. model_backward never reads it: it
    works on the distinct rows.
    """

    @cached_property
    def embedded(self) -> np.ndarray:
        return self.rows[self.inverse]


@dataclass
class Model:
    """The convolutional classifier: a config plus named parameter tensors."""

    config: ModelConfig
    params: dict[str, np.ndarray]
    _version: int = field(default=0, init=False, repr=False)

    def forward(self, ids) -> tuple[np.ndarray, ForwardCache]:
        """Run the layer stack on a batch of padded id sequences.

        ids has shape (batch, L); a single (L,) sequence is promoted to a
        batch of one. Returns softmax probabilities of shape (batch,
        classes) and the cache consumed by model_backward; inference takes
        forward(ids)[0], so the cache goes when the call returns. Each pool
        is maxpool1d's winners=False mode, exact on its relu input.

        conv1 projects each distinct id's embedding row once instead of
        every position's, to the same bits as the per-position convolution
        (_conv1d_of_rows says when). cache.embedded reads as the (batch, L,
        embed_dim) embedded batch.
        """
        cfg = self.config
        ids = np.asarray(ids)
        if ids.ndim == 1:
            ids = ids[None, :]
        if ids.ndim != 2 or ids.shape[1] != cfg.L or not len(ids):
            raise ValueError(f"expected ids of shape (batch, {cfg.L}) with batch >= 1, "
                             f"got {ids.shape}")
        params, x, outputs = self.params, ids, {}
        for layer, shape in zip(LAYERS, cfg.shape_chain()):
            weights = [params[name] for name in layer.params]
            if layer.kind == "embed":
                # conv1 projects each distinct id's row once, so x stays the ids;
                # cache.embedded places the rows at their positions when first read.
                distinct = _distinct(ids)
                rows = embedding_forward(distinct, *weights)
                lookup = np.empty(len(weights[0]), dtype=np.intp)
                lookup[distinct] = np.arange(distinct.size)
                inverse = lookup[ids]
                outputs.update(distinct=distinct, rows=rows, inverse=inverse)
                continue
            elif layer.kind == "conv_relu":
                if x is ids:
                    x = _conv1d_of_rows(rows, inverse, *weights)
                else:
                    x = conv1d_forward(x, *weights)
            elif layer.kind == "pool":
                x, _ = maxpool1d(x, winners=False)
            elif layer.kind == "flatten":
                x = x.reshape(x.shape[0], -1)
            elif layer.kind == "dense_relu":
                x = dense_forward(x, *weights)
            else:
                x = softmax(dense_forward(x, *weights))
            if layer.kind.endswith("_relu"):
                # relu in place, so a pre-activation never lives beside its output.
                # It also turns -0.0 into +0.0, which the pools' winners=False mode needs.
                np.maximum(x, 0, out=x)
            assert x.shape[1:] == shape, (layer.name, x.shape)
            outputs[layer.name] = x
        return x, ForwardCache(model=self, version=self._version, ids=ids, **outputs)


def _distinct(ids: np.ndarray) -> np.ndarray:
    """The distinct values of ids, ascending."""
    flat = np.sort(ids, axis=None)
    first = np.empty(flat.size, dtype=bool)
    first[:1] = True
    np.not_equal(flat[1:], flat[:-1], out=first[1:])
    return flat[first]


def _conv1d_of_rows(rows: np.ndarray, inverse: np.ndarray, kernel: np.ndarray,
                    bias: np.ndarray) -> np.ndarray:
    """conv1d_forward(rows[inverse], kernel, bias), projecting each row once.

    One conv1d_forward call projects every row through all k taps at
    once: its kernel holds the taps side by side as one tap of k * F
    filters, and its zero start and zero bias make each projection
    0 + row @ kernel[o]. Output position t then adds tap o's projection
    of the row at t + o, for o = 1 .. k-1 in order, and the bias last.
    That is conv1d_forward's own sum, term by term, as long as BLAS
    rounds a row of a product the same whatever the number of rows.
    """
    k, c_in, filters = kernel.shape
    if len(rows) == 1:
        # BLAS takes a one-row product as a matrix-vector product, which may round differently.
        rows = np.concatenate([rows, rows])
    wide = kernel.transpose(1, 0, 2).reshape(1, c_in, k * filters)
    taps = conv1d_forward(rows[None], wide, np.zeros(k * filters, wide.dtype))[0]
    # Row u * k + o of flat is row u through tap o.
    flat, first = taps.reshape(-1, filters), inverse * k
    t_out = inverse.shape[-1] - k + 1
    out = np.take(flat, first[..., :t_out], axis=0)
    for offset in range(1, k):
        out += np.take(flat, first[..., offset : offset + t_out] + offset, axis=0)
    out += bias
    return out


def _conv1d_of_rows_backward(rows: np.ndarray, inverse: np.ndarray, kernel: np.ndarray,
                             dout: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """conv1d_backward(rows[inverse], kernel, dout), with the input gradient
    summed per row: (drows, dkernel, dbias).

    Position t's tap o reads the row at t + o, so the rows' share of dout
    is, per tap, the sum of dout over the positions that read each row
    (summed in float64, in position order). One conv1d_backward call on the
    rows then takes those sums through the taps laid side by side, as
    _conv1d_of_rows lays them, for each row's gradient and every tap's
    kernel gradient at once.
    """
    k, c_in, filters = kernel.shape
    t_out = dout.shape[-2]
    dout_flat = dout.reshape(-1)
    table = np.empty((len(rows), k * filters), dtype=kernel.dtype)
    for offset in range(k):
        slots = inverse[:, offset : offset + t_out, None] * filters + np.arange(filters)
        sums = np.bincount(slots.reshape(-1), dout_flat, minlength=table.shape[0] * filters)
        table[:, offset * filters : (offset + 1) * filters] = sums.reshape(-1, filters)
    wide = kernel.transpose(1, 0, 2).reshape(1, c_in, k * filters)
    drows, dwide, _ = conv1d_backward(rows[None], wide, table[None])
    dkernel = dwide.reshape(c_in, k, filters).transpose(1, 0, 2)
    return drows[0], np.ascontiguousarray(dkernel), dout.sum(axis=(0, 1))


def model_backward(cache: ForwardCache, labels) -> dict[str, np.ndarray]:
    """Backpropagate the batch-mean cross-entropy loss through the stack.

    labels holds one category code 1..classes per example. Returns one
    gradient tensor per parameter, shapes mirroring Model.params,
    averaged over the batch dimension of the cached forward pass. The
    cache must come from the current parameters.

    conv1 and the embedding get their gradients through the batch's
    distinct rows, as the forward pass computed conv1
    (_conv1d_of_rows_backward): the batch is never embedded position by
    position, and ids absent from the batch get an exactly zero row.
    """
    if cache is None:
        raise ValueError("model_backward requires the cache from a forward pass")
    model = cache.model
    if cache.version != model._version:
        raise ValueError("stale cache: parameters changed since this forward pass")
    probs = cache.probs
    labels = check_codes(labels, probs.shape[-1], probs.shape[:-1])

    # Softmax and cross-entropy together: the mean loss's gradient at the logits is (p - y) / batch.
    dout = probs.copy()
    dout[np.arange(labels.size), labels - 1] -= 1
    dout /= probs.shape[0]
    grads: dict[str, np.ndarray] = {}
    # The embed layer's output is the distinct rows; cache.embedded stays unplaced.
    outputs = [cache.ids, cache.rows, *(getattr(cache, layer.name) for layer in LAYERS[1:])]
    for layer, x, out in reversed(list(zip(LAYERS, outputs, outputs[1:]))):
        weight = model.params[layer.params[0]] if layer.params else None
        # A relu output is positive exactly where its input was.
        if layer.kind in ("conv_relu", "dense_relu"):
            dout = dout * (out > 0)
        dparams = ()
        if layer.kind == "embed":
            dembedding = np.zeros_like(weight)
            dembedding[cache.distinct] = dout
            dparams = (dembedding,)
        elif layer.kind == "conv_relu" and x is cache.rows:
            dout, *dparams = _conv1d_of_rows_backward(x, cache.inverse, weight, dout)
        elif layer.kind == "conv_relu":
            dout, *dparams = conv1d_backward(x, weight, dout)
        elif layer.kind == "pool":
            dout = maxpool1d_backward(dout, x)
        elif layer.kind == "flatten":
            dout = dout.reshape(x.shape)
        else:
            dout, *dparams = dense_backward(x, weight, dout)
        grads.update(zip(layer.params, dparams))
    return {name: grads[name] for name in PARAM_NAMES}


def init_model(config: ModelConfig, seed: int) -> Model:
    """Create a Model with deterministic random initialization.

    The embedding is uniform on (-0.05, 0.05) and every bias starts at
    zero. Every other tensor is Glorot-uniform with limit
    sqrt(6 / (fan_in + fan_out)), where a weight of shape (..., n, m)
    has fan_in = prod(shape[:-1]) and fan_out = prod(shape[:-2]) * m: a
    convolution's fan_in is kernel * in_channels and its fan_out is
    kernel * filters. Tensors are drawn in PARAM_NAMES order, so the
    same (config, seed) always yields bitwise-identical parameters.
    """
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in config.param_shapes().items():
        if name == "embedding":
            values = rng.uniform(-0.05, 0.05, shape)
        elif name.endswith("_bias"):
            values = np.zeros(shape)
        else:
            fan_in = math.prod(shape[:-1])
            fan_out = math.prod(shape[:-2]) * shape[-1]
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            values = rng.uniform(-limit, limit, shape)
        params[name] = values.astype(config.dtype, copy=False)
    return Model(config=config, params=params)


@dataclass
class RmsPropState:
    """RMSProp hyperparameters plus one squared-gradient accumulator per
    parameter. scratch holds, per dtype, room for two arrays the size of
    the largest parameter: rmsprop_step computes every update there, so
    that a step allocates no array."""

    lr: float = 0.001
    rho: float = 0.9
    epsilon: float = 1e-7
    accumulators: dict[str, np.ndarray] = field(default_factory=dict)
    scratch: dict[np.dtype, np.ndarray] = field(default_factory=dict, init=False, repr=False)


class NonFiniteGradient(ValueError):
    """rmsprop_step's refusal of a gradient tensor that holds NaN or inf."""


def rmsprop_step(model: Model, grads: dict[str, np.ndarray], state: RmsPropState) -> None:
    """Apply one in-place RMSProp update to model.params.

    Per element: a <- rho * a + (1 - rho) * g^2, then
    theta <- theta - lr * g / (sqrt(a) + epsilon), with a missing a
    starting at zero. Caches of earlier forward passes go stale.
    """
    params = model.params
    if set(grads) != set(params):
        raise ValueError("gradient keys do not match parameter keys")
    for name, param in params.items():
        grad = grads[name]
        if grad.shape != param.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match {name} shape {param.shape}"
            )
        if not np.all(np.isfinite(grad)):
            raise NonFiniteGradient(f"non-finite gradient for {name}")
    for name, param in params.items():
        grad = grads[name]
        acc = state.accumulators.get(name)
        if acc is None:
            acc = state.accumulators[name] = np.zeros_like(param)
        scratch = state.scratch.get(param.dtype)
        if scratch is None or scratch.size < 2 * param.size:
            largest = max(other.size for other in params.values())
            scratch = state.scratch[param.dtype] = np.empty(2 * largest, param.dtype)
        square, step = scratch[: 2 * param.size].reshape(2, *param.shape)
        # In the order of rho * a + ((1 - rho) * g) * g and (lr * g) / (sqrt(a) + epsilon).
        np.multiply(1.0 - state.rho, grad, out=square)
        square *= grad
        acc *= state.rho
        acc += square
        np.sqrt(acc, out=step)
        step += state.epsilon
        np.multiply(state.lr, grad, out=square)
        np.divide(square, step, out=step)
        param -= step
    model._version += 1


def gradient_check(model: Model, ids, labels) -> dict[str, float]:
    """Worst relative error between analytic and numeric gradients.

    labels holds one category code 1..classes per example. For every
    coordinate of every parameter tensor, compares the analytic
    batch-mean loss gradient against central finite differences with
    step 1e-5 * max(1, |theta|). The relative error uses
    |a - n| / max(|a|, |n|, 1e-6). Requires a float64 model.
    """
    if model.config.precision != "float64":
        raise ValueError("gradient_check requires a float64 model")
    _, cache = model.forward(ids)
    analytic = model_backward(cache, labels)

    def loss() -> float:
        return float(np.mean(cross_entropy(model.forward(ids)[0], labels)))

    errors: dict[str, float] = {}
    for name, theta in model.params.items():
        grad = analytic[name]
        numeric = np.zeros_like(theta)
        flat_theta = theta.reshape(-1)
        flat_numeric = numeric.reshape(-1)
        for i in range(flat_theta.size):
            original = flat_theta[i]
            step = 1e-5 * max(1.0, abs(original))
            flat_theta[i] = original + step
            plus = loss()
            flat_theta[i] = original - step
            minus = loss()
            flat_theta[i] = original
            flat_numeric[i] = (plus - minus) / (2.0 * step)
        scale = np.maximum(np.maximum(np.abs(grad), np.abs(numeric)), 1e-6)
        errors[name] = float((np.abs(grad - numeric) / scale).max())
    return errors
