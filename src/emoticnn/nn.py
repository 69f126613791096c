"""From-scratch 1D convolutional network for four-way text classification.

Every tensor operation, every gradient, and the RMSProp update rule are
written directly against numpy so the arithmetic is fully inspectable and
each backward pass can be validated with central finite differences. The
layer stack is fixed: embedding -> conv -> relu -> maxpool -> conv -> relu
-> maxpool -> flatten -> dense -> relu -> dense -> softmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LOSS_CLAMP",
    "PARAM_NAMES",
    "ForwardCache",
    "Model",
    "ModelConfig",
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
    "relu",
    "rmsprop_step",
    "softmax",
]

LOSS_CLAMP = 1e-12

PARAM_NAMES = (
    "embedding",
    "conv1_kernel",
    "conv1_bias",
    "conv2_kernel",
    "conv2_bias",
    "dense1_weight",
    "dense1_bias",
    "dense2_weight",
    "dense2_bias",
)

_DTYPES = {"float32": np.float32, "float64": np.float64}


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of the fixed convolutional stack.

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
        if self.precision not in _DTYPES:
            raise ValueError(
                f"precision must be one of {sorted(_DTYPES)}, got {self.precision!r}"
            )
        if self.vocab_size < 2:
            raise ValueError(
                "vocab_size must be at least 2 (padding and OOV indices), "
                f"got {self.vocab_size}"
            )
        for name in ("embed_dim", "conv1_filters", "conv2_filters", "dense_hidden", "classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.kernel < 1:
            raise ValueError(f"kernel must be positive, got {self.kernel}")
        if self.pool != 2 or self.pool_stride != 2:
            raise ValueError("only pooling with window 2 and stride 2 is supported")
        min_length = 3 * self.kernel + 1
        if self.L < min_length or self.pool2_len < 1:
            raise ValueError(
                f"sequence length {self.L} is too short for kernel {self.kernel}: "
                f"the layer stack needs L >= {min_length}"
            )

    @property
    def dtype(self) -> type:
        return _DTYPES[self.precision]

    @property
    def conv1_len(self) -> int:
        return self.L - self.kernel + 1

    @property
    def pool1_len(self) -> int:
        return self.conv1_len // self.pool_stride

    @property
    def conv2_len(self) -> int:
        return self.pool1_len - self.kernel + 1

    @property
    def pool2_len(self) -> int:
        return self.conv2_len // self.pool_stride

    @property
    def flatten_dim(self) -> int:
        return self.pool2_len * self.conv2_filters

    def shape_chain(self) -> tuple[tuple[int, ...], ...]:
        """Per-sample activation shapes from embedding output to softmax."""
        return (
            (self.L, self.embed_dim),
            (self.conv1_len, self.conv1_filters),
            (self.pool1_len, self.conv1_filters),
            (self.conv2_len, self.conv2_filters),
            (self.pool2_len, self.conv2_filters),
            (self.flatten_dim,),
            (self.dense_hidden,),
            (self.classes,),
        )

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Parameter tensor shapes keyed by canonical name, in PARAM_NAMES order."""
        return {
            "embedding": (self.vocab_size, self.embed_dim),
            "conv1_kernel": (self.kernel, self.embed_dim, self.conv1_filters),
            "conv1_bias": (self.conv1_filters,),
            "conv2_kernel": (self.kernel, self.conv1_filters, self.conv2_filters),
            "conv2_bias": (self.conv2_filters,),
            "dense1_weight": (self.flatten_dim, self.dense_hidden),
            "dense1_bias": (self.dense_hidden,),
            "dense2_weight": (self.dense_hidden, self.classes),
            "dense2_bias": (self.classes,),
        }


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


def relu(x) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(np.asarray(x), 0)


def maxpool1d(x) -> tuple[np.ndarray, np.ndarray]:
    """Max pooling with window 2 and stride 2 over the time axis.

    A trailing odd timestep is dropped. Returns the pooled tensor of
    shape (..., T // 2, C) and the absolute time index of each winning
    element, which the backward pass uses to route gradients. The winner
    is chosen as numpy's argmax would: ties go to the earlier position
    and the first NaN wins, so a NaN always propagates.
    """
    x = np.asarray(x)
    steps = x.shape[-2]
    if steps < 2:
        raise ValueError(f"maxpool1d needs at least 2 timesteps, got {steps}")
    t_out = steps // 2
    first = x[..., 0 : 2 * t_out : 2, :]
    second = x[..., 1 : 2 * t_out : 2, :]
    # The later slot wins if it is larger, or if it alone is NaN.
    later = ~(first >= second) & (first == first)
    pooled = np.where(later, second, first)
    winners = later + 2 * np.arange(t_out).reshape(-1, 1)
    return pooled, winners


def maxpool1d_backward(
    dout: np.ndarray, winners: np.ndarray, input_shape: tuple[int, ...]
) -> np.ndarray:
    """Route pooled gradients back to the winning input positions."""
    dx = np.zeros(input_shape, dtype=dout.dtype)
    np.put_along_axis(dx, winners, dout, axis=-2)
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


def _validate_one_hot(onehot: np.ndarray) -> None:
    if not np.all((onehot == 0) | (onehot == 1)) or not np.all(onehot.sum(axis=-1) == 1):
        raise ValueError("labels must be one-hot rows")


def cross_entropy(probs, onehot) -> np.ndarray:
    """Per-example loss -log(p_true), with p clamped to at least 1e-12.

    probs and onehot share the shape (..., classes); the result drops the
    class axis (a plain scalar for a single example).
    """
    probs = np.asarray(probs)
    onehot = np.asarray(onehot)
    if probs.shape != onehot.shape:
        raise ValueError(f"probs shape {probs.shape} != labels shape {onehot.shape}")
    _validate_one_hot(onehot)
    p_true = (probs * onehot).sum(axis=-1)
    return -np.log(np.maximum(p_true, LOSS_CLAMP))


@dataclass
class ForwardCache:
    """Activations recorded by Model.forward for one backward pass."""

    model: "Model"
    version: int
    ids: np.ndarray
    embedded: np.ndarray
    conv1: np.ndarray
    relu1: np.ndarray
    pool1: np.ndarray
    pool1_winners: np.ndarray
    conv2: np.ndarray
    relu2: np.ndarray
    pool2: np.ndarray
    pool2_winners: np.ndarray
    flat: np.ndarray
    dense1: np.ndarray
    relu_dense: np.ndarray
    logits: np.ndarray
    probs: np.ndarray


@dataclass
class Model:
    """The convolutional classifier: a config plus named parameter tensors."""

    config: ModelConfig
    params: dict[str, np.ndarray]
    _version: int = 0

    def mark_updated(self) -> None:
        """Record an in-place parameter update, invalidating existing caches."""
        self._version += 1

    def forward(self, ids) -> tuple[np.ndarray, ForwardCache]:
        """Run the layer stack on a batch of padded id sequences.

        ids has shape (batch, L); a single (L,) sequence is promoted to a
        batch of one. Returns softmax probabilities of shape (batch,
        classes) and the cache consumed by model_backward.
        """
        cfg = self.config
        ids = np.asarray(ids)
        if ids.ndim == 1:
            ids = ids[None, :]
        if ids.ndim != 2 or ids.shape[1] != cfg.L:
            raise ValueError(f"expected ids of shape (batch, {cfg.L}), got {ids.shape}")
        p = self.params

        embedded = embedding_forward(ids, p["embedding"])
        conv1 = conv1d_forward(embedded, p["conv1_kernel"], p["conv1_bias"])
        relu1 = relu(conv1)
        pool1, pool1_winners = maxpool1d(relu1)
        conv2 = conv1d_forward(pool1, p["conv2_kernel"], p["conv2_bias"])
        relu2 = relu(conv2)
        pool2, pool2_winners = maxpool1d(relu2)
        flat = pool2.reshape(ids.shape[0], cfg.flatten_dim)
        dense1 = dense_forward(flat, p["dense1_weight"], p["dense1_bias"])
        relu_dense = relu(dense1)
        logits = dense_forward(relu_dense, p["dense2_weight"], p["dense2_bias"])
        probs = softmax(logits)

        chain = cfg.shape_chain()
        assert embedded.shape[1:] == chain[0], embedded.shape
        assert conv1.shape[1:] == chain[1], conv1.shape
        assert pool1.shape[1:] == chain[2], pool1.shape
        assert conv2.shape[1:] == chain[3], conv2.shape
        assert pool2.shape[1:] == chain[4], pool2.shape
        assert flat.shape[1:] == chain[5], flat.shape
        assert dense1.shape[1:] == chain[6], dense1.shape
        assert probs.shape[1:] == chain[7], probs.shape

        return probs, ForwardCache(
            model=self,
            version=self._version,
            ids=ids,
            embedded=embedded,
            conv1=conv1,
            relu1=relu1,
            pool1=pool1,
            pool1_winners=pool1_winners,
            conv2=conv2,
            relu2=relu2,
            pool2=pool2,
            pool2_winners=pool2_winners,
            flat=flat,
            dense1=dense1,
            relu_dense=relu_dense,
            logits=logits,
            probs=probs,
        )


def model_backward(cache: ForwardCache, onehot) -> dict[str, np.ndarray]:
    """Backpropagate the batch-mean cross-entropy loss through the stack.

    Returns one gradient tensor per parameter, shapes mirroring
    Model.params, averaged over the batch dimension of the cached
    forward pass. The cache must come from the current parameters.
    """
    if cache is None:
        raise ValueError("model_backward requires the cache from a forward pass")
    model = cache.model
    if cache.version != model._version:
        raise ValueError("stale cache: parameters changed since this forward pass")
    p = model.params
    probs = cache.probs
    onehot = np.asarray(onehot, dtype=probs.dtype)
    if onehot.shape != probs.shape:
        raise ValueError(f"labels shape {onehot.shape} != probs shape {probs.shape}")
    _validate_one_hot(onehot)

    batch = probs.shape[0]
    dlogits = (probs - onehot) / batch
    drelu_dense, dw2, db2 = dense_backward(cache.relu_dense, p["dense2_weight"], dlogits)
    ddense1 = drelu_dense * (cache.dense1 > 0)
    dflat, dw1, db1 = dense_backward(cache.flat, p["dense1_weight"], ddense1)
    dpool2 = dflat.reshape(cache.pool2.shape)
    drelu2 = maxpool1d_backward(dpool2, cache.pool2_winners, cache.relu2.shape)
    dconv2 = drelu2 * (cache.conv2 > 0)
    dpool1, dk2, dbc2 = conv1d_backward(cache.pool1, p["conv2_kernel"], dconv2)
    drelu1 = maxpool1d_backward(dpool1, cache.pool1_winners, cache.relu1.shape)
    dconv1 = drelu1 * (cache.conv1 > 0)
    dembedded, dk1, dbc1 = conv1d_backward(cache.embedded, p["conv1_kernel"], dconv1)
    # Add each position's gradient into its id's row, in position order, in float64.
    vocab, dim = p["embedding"].shape
    slots = (cache.ids.reshape(-1, 1) * dim + np.arange(dim)).reshape(-1)
    dembedding = np.bincount(slots, dembedded.reshape(-1), minlength=vocab * dim)
    dembedding = dembedding.reshape(vocab, dim).astype(p["embedding"].dtype, copy=False)

    return {
        "embedding": dembedding,
        "conv1_kernel": dk1,
        "conv1_bias": dbc1,
        "conv2_kernel": dk2,
        "conv2_bias": dbc2,
        "dense1_weight": dw1,
        "dense1_bias": db1,
        "dense2_weight": dw2,
        "dense2_bias": db2,
    }


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
    """RMSProp hyperparameters plus one squared-gradient accumulator per parameter."""

    lr: float = 0.001
    rho: float = 0.9
    epsilon: float = 1e-7
    accumulators: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray], **hyperparameters) -> "RmsPropState":
        """Zeroed accumulators for params; lr, rho and epsilon pass through."""
        accumulators = {name: np.zeros_like(value) for name, value in params.items()}
        return cls(accumulators=accumulators, **hyperparameters)


def rmsprop_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: RmsPropState,
) -> tuple[dict[str, np.ndarray], RmsPropState]:
    """Apply one in-place RMSProp update.

    Per element: a <- rho * a + (1 - rho) * g^2, then
    theta <- theta - lr * g / (sqrt(a) + epsilon). Returns the mutated
    (params, state) pair for convenience.
    """
    if set(grads) != set(params):
        raise ValueError("gradient keys do not match parameter keys")
    for name, param in params.items():
        grad = grads[name]
        if grad.shape != param.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match {name} shape {param.shape}"
            )
        if not np.all(np.isfinite(grad)):
            raise ValueError(f"non-finite gradient for {name}")
    for name, param in params.items():
        grad = grads[name]
        acc = state.accumulators.setdefault(name, np.zeros_like(param))
        acc *= state.rho
        acc += (1.0 - state.rho) * grad * grad
        param -= state.lr * grad / (np.sqrt(acc) + state.epsilon)
    return params, state


def gradient_check(
    model: Model, ids, onehot, step_scale: float = 1e-5
) -> dict[str, float]:
    """Worst relative error between analytic and numeric gradients.

    For every coordinate of every parameter tensor, compares the
    analytic batch-mean loss gradient against central finite differences
    with step step_scale * max(1, |theta|). The relative error uses
    |a - n| / max(|a|, |n|, 1e-6). Requires a float64 model.
    """
    if model.config.precision != "float64":
        raise ValueError("gradient_check requires a float64 model")
    onehot = np.atleast_2d(np.asarray(onehot, dtype=float))
    _, cache = model.forward(ids)
    analytic = model_backward(cache, onehot)

    def loss() -> float:
        probs, _ = model.forward(ids)
        return float(np.mean(cross_entropy(probs, onehot)))

    errors: dict[str, float] = {}
    for name, theta in model.params.items():
        grad = analytic[name]
        numeric = np.zeros_like(theta)
        flat_theta = theta.reshape(-1)
        flat_numeric = numeric.reshape(-1)
        for i in range(flat_theta.size):
            original = flat_theta[i]
            step = step_scale * max(1.0, abs(original))
            flat_theta[i] = original + step
            plus = loss()
            flat_theta[i] = original - step
            minus = loss()
            flat_theta[i] = original
            flat_numeric[i] = (plus - minus) / (2.0 * step)
        scale = np.maximum(np.maximum(np.abs(grad), np.abs(numeric)), 1e-6)
        errors[name] = float((np.abs(grad - numeric) / scale).max())
    return errors
