"""Tensor primitives, the layer stack, gradients, and the optimizer.

Oracles come first: naive loop implementations and hand-evaluated
examples pin the semantics before anything touches the full model.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from naive_oracles import (
    argmax_maxpool1d,
    einsum_conv1d_backward,
    einsum_conv1d_forward,
    gemm_model_forward,
    naive_conv1d,
    naive_maxpool1d,
    naive_rmsprop,
    one_hot_cross_entropy,
    one_hot_logit_gradient,
    per_position_model_backward,
    put_along_axis_maxpool1d_backward,
)

from emoticnn import nn, train
from emoticnn.nn import (
    LOSS_CLAMP,
    PARAM_NAMES,
    Model,
    ModelConfig,
    RmsPropState,
    conv1d_backward,
    conv1d_forward,
    cross_entropy,
    dense_backward,
    dense_forward,
    embedding_forward,
    gradient_check,
    init_model,
    maxpool1d,
    maxpool1d_backward,
    model_backward,
    rmsprop_step,
    softmax,
)

TINY = ModelConfig(vocab_size=10, L=10)


def tiny_model(seed: int = 1) -> Model:
    return init_model(TINY, seed)


def tiny_batch(rng: np.random.Generator, batch: int = 2):
    ids = rng.integers(0, TINY.vocab_size, size=(batch, TINY.L))
    labels = rng.integers(1, 5, size=batch)
    return ids, labels


def param_model(params: dict[str, np.ndarray]) -> Model:
    """A Model holding just these parameters, for optimizer examples."""
    return Model(config=TINY, params=params)


# ------------------------------------------------- naive-oracle checks


def test_conv1d_matches_naive_oracle_over_random_cases():
    rng = np.random.default_rng(7)
    for _ in range(120):
        steps = int(rng.integers(3, 17))
        channels = int(rng.integers(1, 9))
        filters = int(rng.integers(1, 9))
        x = rng.normal(size=(steps, channels))
        kernel = rng.normal(size=(3, channels, filters))
        bias = rng.normal(size=filters)
        fast = conv1d_forward(x, kernel, bias)
        assert np.max(np.abs(fast - naive_conv1d(x, kernel, bias))) <= 1e-12


def test_maxpool1d_matches_naive_oracle_over_random_cases():
    rng = np.random.default_rng(8)
    for _ in range(120):
        steps = int(rng.integers(2, 17))
        channels = int(rng.integers(1, 9))
        x = rng.normal(size=(steps, channels))
        pooled, winners = maxpool1d(x)
        naive_pooled, naive_winners = naive_maxpool1d(x)
        assert np.max(np.abs(pooled - naive_pooled)) <= 1e-12
        assert np.array_equal(winners, naive_winners)


def assert_within(fast, oracle, tol=1e-12):
    """Agreement to tol, relative to the oracle's largest magnitude (at least 1)."""
    assert fast.shape == oracle.shape and fast.dtype == oracle.dtype
    scale = max(1.0, float(np.abs(oracle).max(initial=0.0)))
    assert float(np.abs(fast - oracle).max(initial=0.0)) <= tol * scale


# A conv case: leading batch shape (() is a bare (T, C) input), steps,
# channels, filters, kernel width and the seed of the values.
conv_cases = st.tuples(
    st.sampled_from([(), (1,), (3,), (2, 2), (256,)]),
    st.integers(3, 12),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=150, deadline=None)
@given(conv_cases)
def test_conv1d_matches_einsum_oracle(case):
    batch, steps, channels, filters, k, seed = case
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(*batch, steps, channels))
    kernel = rng.normal(size=(k, channels, filters))
    bias = rng.normal(size=filters)
    dout = rng.normal(size=(*batch, steps - k + 1, filters))

    assert_within(conv1d_forward(x, kernel, bias), einsum_conv1d_forward(x, kernel, bias))
    for fast, oracle in zip(conv1d_backward(x, kernel, dout), einsum_conv1d_backward(x, kernel, dout)):
        assert_within(fast, oracle)


# Values that stress the winner rule: NaN, both infinities, both zeros
# and repeated values (ties), mixed with arbitrary floats.
pool_values = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0]) | st.floats()
pool_inputs = st.tuples(
    st.sampled_from([(), (1,), (3,), (2, 2)]), st.integers(2, 9), st.integers(1, 4)
).flatmap(lambda dims: arrays(np.float64, (*dims[0], dims[1], dims[2]), elements=pool_values))


def assert_same_floats(a, b):
    """Bitwise-level agreement: equal values, NaN where NaN, and the sign of zero."""
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=300, deadline=None)
@given(pool_inputs)
def test_maxpool1d_matches_argmax_oracle(x):
    pooled, winners = maxpool1d(x)
    oracle_pooled, oracle_winners = argmax_maxpool1d(x)
    assert_same_floats(pooled, oracle_pooled)
    assert winners.dtype == oracle_winners.dtype
    assert np.array_equal(winners, oracle_winners)
    if x.ndim == 2:
        naive_pooled, naive_winners = naive_maxpool1d(x)
        assert_same_floats(pooled, naive_pooled)
        assert np.array_equal(winners, naive_winners)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@settings(max_examples=300, deadline=None)
@given(x=pool_inputs, data=st.data())
def test_maxpool1d_backward_matches_put_along_axis_oracle(dtype, x, data):
    """The backward finds the winners in the pool's input by the rule that
    maxpool1d's winners obey, and copies each gradient's bits, NaN and -0.0
    included; every other slot is +0.0."""
    pooled_shape = (*x.shape[:-2], x.shape[-2] // 2, x.shape[-1])
    dout = data.draw(arrays(np.float64, pooled_shape, elements=pool_values))
    with np.errstate(over="ignore"):
        x, dout = x.astype(dtype), dout.astype(dtype)
    oracle = put_along_axis_maxpool1d_backward(dout, maxpool1d(x)[1], x.shape)
    assert_same_floats(maxpool1d_backward(dout, x), oracle)


@pytest.mark.parametrize(
    "pair, value, winner",
    [
        ((np.nan, 1.0), np.nan, 0),
        ((1.0, np.nan), np.nan, 1),
        ((np.nan, np.nan), np.nan, 0),
        ((-np.inf, np.nan), np.nan, 1),
        ((np.inf, np.nan), np.nan, 1),
        ((-np.inf, np.inf), np.inf, 1),
        ((np.inf, np.inf), np.inf, 0),
        ((-0.0, 0.0), -0.0, 0),
        ((0.0, -0.0), 0.0, 0),
        ((2.0, 2.0), 2.0, 0),
    ],
)
def test_maxpool1d_winner_rule(pair, value, winner):
    pooled, winners = maxpool1d(np.array(pair).reshape(2, 1))
    assert_same_floats(pooled, np.array([[value]]))
    assert winners.tolist() == [[winner]]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda batch: arrays(np.int64, (batch, TINY.L), elements=st.integers(0, TINY.vocab_size - 1))
    ),
    st.integers(0, 2**32 - 1),
)
def test_embedding_gradient_matches_add_at_oracle(ids, seed):
    """The embedding gradient through the distinct rows is the per-position
    np.add.at scatter's up to summation order; absent ids get exactly zero."""
    # Force the extreme ids and a repeat into every case.
    last = TINY.vocab_size - 1
    ids = ids.copy()
    ids.flat[:3] = (0, last, last)
    rng = np.random.default_rng(seed)
    labels = rng.integers(1, 5, size=ids.shape[0])
    model = init_model(TINY, seed % 1000)
    grad = model_backward(model.forward(ids)[1], labels)["embedding"]
    oracle = per_position_model_backward(gemm_model_forward(model, ids)[1], labels)["embedding"]
    assert grad.dtype == np.float64
    assert np.abs(grad - oracle).max() <= 1e-12 * np.abs(oracle).max()
    assert not grad[np.setdiff1d(np.arange(TINY.vocab_size), ids)].any()


# --------------------------------------------------------- convolution


def test_conv1d_hand_example():
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    kernel = np.array([[[1.0]], [[0.0]], [[-1.0]]])
    out = conv1d_forward(x, kernel, np.zeros(1))
    assert np.array_equal(out, [[-2.0], [-2.0]])


def test_conv1d_zero_kernel_broadcasts_bias():
    x = np.random.default_rng(0).normal(size=(6, 2))
    out = conv1d_forward(x, np.zeros((3, 2, 4)), np.full(4, 5.0))
    assert np.array_equal(out, np.full((4, 4), 5.0))


def test_conv1d_zero_input_broadcasts_bias():
    kernel = np.random.default_rng(0).normal(size=(3, 2, 4))
    bias = np.arange(4.0)
    out = conv1d_forward(np.zeros((5, 2)), kernel, bias)
    assert np.allclose(out, np.tile(bias, (3, 1)))


def test_conv1d_rejects_short_input():
    with pytest.raises(ValueError, match="at least 3 timesteps"):
        conv1d_forward(np.zeros((2, 2)), np.zeros((3, 2, 1)), np.zeros(1))


def test_conv1d_rejects_channel_mismatch():
    with pytest.raises(ValueError, match="channels"):
        conv1d_forward(np.zeros((5, 3)), np.zeros((3, 2, 1)), np.zeros(1))


def test_conv1d_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 2))
    kernel = rng.normal(size=(3, 2, 4))
    bias = rng.normal(size=4)
    dout = rng.normal(size=(4, 4))

    dx, dkernel, dbias = conv1d_backward(x, kernel, dout)

    def objective():
        return float((conv1d_forward(x, kernel, bias) * dout).sum())

    step = 1e-6
    for array, grad in ((x, dx), (kernel, dkernel), (bias, dbias)):
        flat = array.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            plus = objective()
            flat[i] = orig - step
            minus = objective()
            flat[i] = orig
            assert abs((plus - minus) / (2 * step) - grad.reshape(-1)[i]) < 1e-6


# ----------------------------------------------------------- pooling


def test_maxpool_hand_example():
    pooled, winners = maxpool1d(np.array([[1.0], [3.0], [2.0], [5.0]]))
    assert np.array_equal(pooled, [[3.0], [5.0]])
    assert np.array_equal(winners, [[1], [3]])


def test_maxpool_drops_trailing_odd_element():
    pooled, _ = maxpool1d(np.array([[1.0], [2.0], [3.0], [4.0], [99.0]]))
    assert pooled.shape == (2, 1)
    assert np.array_equal(pooled, [[2.0], [4.0]])


def test_maxpool_tie_goes_to_earlier_index():
    x = np.array([[7.0], [7.0]])
    pooled, winners = maxpool1d(x)
    assert np.array_equal(pooled, [[7.0]])
    assert np.array_equal(winners, [[0]])
    dx = maxpool1d_backward(np.array([[1.0]]), x)
    assert np.array_equal(dx, [[1.0], [0.0]])


def test_maxpool_backward_routes_only_to_winners():
    x = np.array([[1.0, 9.0], [5.0, 2.0], [0.0, 1.0], [3.0, 4.0]])
    dout = np.array([[10.0, 20.0], [30.0, 40.0]])
    dx = maxpool1d_backward(dout, x)
    assert np.array_equal(dx, [[0.0, 20.0], [10.0, 0.0], [0.0, 0.0], [30.0, 40.0]])


def test_maxpool_rejects_single_timestep():
    with pytest.raises(ValueError, match="at least 2 timesteps"):
        maxpool1d(np.zeros((1, 3)))


# ------------------------------------------------------------- dense


def test_dense_unit_vector_picks_a_row():
    out = dense_forward(np.array([1.0, 0.0]), np.array([[2.0, 3.0], [4.0, 5.0]]), np.zeros(2))
    assert np.array_equal(out, [2.0, 3.0])


def test_dense_zero_input_gives_bias():
    bias = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(dense_forward(np.zeros(4), np.zeros((4, 3)), bias), bias)


def test_dense_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="features"):
        dense_forward(np.zeros(3), np.zeros((4, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="bias"):
        dense_forward(np.zeros(4), np.zeros((4, 2)), np.zeros(3))


def test_dense_backward_matches_finite_differences():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 5))
    weight = rng.normal(size=(5, 2))
    bias = rng.normal(size=2)
    dout = rng.normal(size=(3, 2))
    dx, dweight, dbias = dense_backward(x, weight, dout)

    def objective():
        return float((dense_forward(x, weight, bias) * dout).sum())

    step = 1e-6
    for array, grad in ((x, dx), (weight, dweight), (bias, dbias)):
        flat = array.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            plus = objective()
            flat[i] = orig - step
            minus = objective()
            flat[i] = orig
            assert abs((plus - minus) / (2 * step) - grad.reshape(-1)[i]) < 1e-6


# ------------------------------------------------- softmax and loss


def test_softmax_uniform_on_zeros():
    assert np.allclose(softmax(np.zeros(4)), 0.25)


def test_softmax_shift_invariance():
    z = np.array([0.3, -1.2, 2.0, 0.7])
    assert np.allclose(softmax(z), softmax(z + 123.0))


def test_softmax_survives_huge_logits():
    p = softmax(np.array([1000.0, 0.0, 0.0, 0.0]))
    assert np.all(np.isfinite(p))
    assert np.allclose(p, [1.0, 0.0, 0.0, 0.0])


@settings(max_examples=200)
@given(st.lists(st.floats(-100, 100), min_size=4, max_size=4))
def test_softmax_outputs_positive_and_sum_to_one(logits):
    p = softmax(np.array(logits))
    assert np.all(p > 0) and np.all(p < 1.0 + 1e-12)
    assert abs(p.sum() - 1.0) <= 1e-9


def test_cross_entropy_perfect_prediction_is_near_zero():
    loss = cross_entropy(np.array([1.0, 0.0, 0.0, 0.0]), 1)
    assert 0.0 <= float(loss) < 1e-11


def test_cross_entropy_uniform_is_ln4():
    loss = cross_entropy(np.full(4, 0.25), 2)
    assert abs(float(loss) - np.log(4.0)) < 1e-12


def test_cross_entropy_clamps_zero_probability():
    loss = cross_entropy(np.array([0.0, 1.0, 0.0, 0.0]), 1)
    assert abs(float(loss) + np.log(LOSS_CLAMP)) < 1e-9


# Labels that both the loss and the backward pass must refuse, for a
# batch of three examples: codes outside 1..4 (0 would silently pick
# class 4 through labels - 1 == -1), float codes, and a wrong shape.
BAD_LABELS = {
    "code 0": np.array([1, 0, 2]),
    "code 5": np.array([1, 5, 2]),
    "float codes": np.array([1.0, 2.0, 3.0]),
    "one-hot rows": np.eye(4, dtype=np.int64)[[0, 1, 2]],
    "too few": np.array([1, 2]),
}


@pytest.mark.parametrize("labels", BAD_LABELS.values(), ids=BAD_LABELS.keys())
def test_cross_entropy_rejects_bad_labels(labels):
    probs = np.full((3, 4), 0.25)
    with pytest.raises(ValueError, match="labels"):
        cross_entropy(probs, labels)


@pytest.mark.parametrize("labels", BAD_LABELS.values(), ids=BAD_LABELS.keys())
def test_model_backward_rejects_bad_labels(labels):
    _, cache = tiny_model().forward(np.zeros((3, 10), dtype=int))
    with pytest.raises(ValueError, match="labels"):
        model_backward(cache, labels)


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_codes_match_one_hot_oracles_bit_for_bit(precision):
    model = init_model(ModelConfig(vocab_size=10, L=10, precision=precision), 4)
    rng = np.random.default_rng(5)
    ids, labels = tiny_batch(rng, batch=7)
    onehot = np.eye(4)[labels - 1]
    probs, cache = model.forward(ids)
    loss = cross_entropy(probs, labels)
    assert loss.dtype == np.float64
    assert np.array_equal(loss, one_hot_cross_entropy(probs, onehot))
    grads = model_backward(cache, labels)
    # dL/db2 is the logits gradient summed over the batch (bias feeds logits 1:1).
    expected = one_hot_logit_gradient(probs, onehot).sum(axis=0)
    assert grads["dense2_bias"].dtype == probs.dtype
    assert np.array_equal(grads["dense2_bias"], expected)


def test_combined_logits_gradient_is_p_minus_y():
    model = tiny_model()
    ids = np.arange(10).reshape(1, 10)
    probs, cache = model.forward(ids)
    onehot = np.array([[0.0, 1.0, 0.0, 0.0]])
    grads = model_backward(cache, np.array([2]))
    # dL/db2 equals the logits gradient directly (bias feeds logits 1:1).
    assert np.allclose(grads["dense2_bias"], (probs - onehot)[0])


def test_uniform_probs_logit_gradient_example():
    p = np.full(4, 0.25)
    y = np.array([0.0, 1.0, 0.0, 0.0])
    assert np.allclose(p - y, [0.25, -0.75, 0.25, 0.25])


# --------------------------------------------------------- embedding


def test_embedding_gather_semantics():
    table = np.arange(12.0).reshape(3, 4)
    out = embedding_forward([2, 2], table)
    assert np.array_equal(out[0], out[1])
    assert np.array_equal(out[0], table[2])


def test_embedding_rejects_out_of_range_ids():
    table = np.zeros((3, 4))
    with pytest.raises(ValueError, match="ids"):
        embedding_forward([3], table)
    with pytest.raises(ValueError, match="ids"):
        embedding_forward([-1], table)


def test_embedding_row_zero_is_ordinary():
    table = np.random.default_rng(0).normal(size=(3, 4))
    assert np.array_equal(embedding_forward([0, 0], table), np.stack([table[0], table[0]]))


def test_unreferenced_embedding_rows_get_zero_gradient():
    model = tiny_model()
    ids = np.full((1, TINY.L), 2)  # touch only row 2
    _, cache = model.forward(ids)
    grads = model_backward(cache, np.array([1]))
    touched = grads["embedding"][2]
    untouched = np.delete(grads["embedding"], 2, axis=0)
    assert np.any(touched != 0)
    assert np.array_equal(untouched, np.zeros_like(untouched))


# ------------------------------------------------------ model backward


def test_model_backward_shapes_mirror_params():
    model = tiny_model()
    rng = np.random.default_rng(0)
    ids, labels = tiny_batch(rng, batch=3)
    _, cache = model.forward(ids)
    grads = model_backward(cache, labels)
    assert set(grads) == set(PARAM_NAMES)
    for name in PARAM_NAMES:
        assert grads[name].shape == model.params[name].shape


def test_model_backward_rejects_missing_cache():
    with pytest.raises(ValueError, match="cache"):
        model_backward(None, np.array([1]))


def test_model_backward_rejects_cache_from_before_an_optimizer_step():
    model = tiny_model()
    ids, labels = np.arange(10).reshape(1, 10), np.array([1])
    _, cache = model.forward(ids)
    rmsprop_step(model, model_backward(cache, labels), RmsPropState())
    with pytest.raises(ValueError, match="stale"):
        model_backward(cache, labels)


def test_forward_after_an_optimizer_step_backpropagates():
    model = tiny_model()
    ids, labels = np.arange(10).reshape(1, 10), np.array([1])
    _, cache = model.forward(ids)
    rmsprop_step(model, model_backward(cache, labels), RmsPropState())
    _, fresh = model.forward(ids)
    grads = model_backward(fresh, labels)
    assert set(grads) == set(PARAM_NAMES)
    assert all(np.isfinite(grad).all() for grad in grads.values())


def test_dead_relu_blocks_gradient_upstream():
    model = tiny_model()
    model.params["conv1_bias"] -= 1e6  # force conv1 output fully negative
    ids = np.arange(10).reshape(1, 10)
    _, cache = model.forward(ids)
    grads = model_backward(cache, np.array([1]))
    assert np.array_equal(grads["conv1_kernel"], np.zeros_like(grads["conv1_kernel"]))
    assert np.array_equal(grads["conv1_bias"], np.zeros_like(grads["conv1_bias"]))
    assert np.array_equal(grads["embedding"], np.zeros_like(grads["embedding"]))
    assert np.any(grads["dense2_bias"] != 0)


def test_sampled_coordinates_match_finite_differences():
    model = tiny_model(seed=6)
    rng = np.random.default_rng(11)
    ids, labels = tiny_batch(rng, batch=2)
    _, cache = model.forward(ids)
    analytic = model_backward(cache, labels)

    def loss():
        probs, _ = model.forward(ids)
        return float(np.mean(cross_entropy(probs, labels)))

    for name in PARAM_NAMES:
        theta = model.params[name].reshape(-1)
        grad = analytic[name].reshape(-1)
        picks = rng.choice(theta.size, size=min(10, theta.size), replace=False)
        for i in picks:
            orig = theta[i]
            step = 1e-5 * max(1.0, abs(orig))
            theta[i] = orig + step
            plus = loss()
            theta[i] = orig - step
            minus = loss()
            theta[i] = orig
            numeric = (plus - minus) / (2 * step)
            scale = max(abs(grad[i]), abs(numeric), 1e-6)
            assert abs(grad[i] - numeric) / scale < 1e-4, name


def test_gradient_check_requires_float64():
    model = init_model(ModelConfig(vocab_size=10, L=10, precision="float32"), 0)
    with pytest.raises(ValueError, match="float64"):
        gradient_check(model, np.zeros((1, 10), dtype=int), [1])


NOT_CODES = {
    "code 5": [5],
    "fractional": [1.5],
    "one-hot row": np.eye(4, dtype=int)[:1],
}


@pytest.mark.parametrize("labels", NOT_CODES.values(), ids=NOT_CODES.keys())
def test_gradient_check_rejects_labels_that_are_not_codes(labels):
    with pytest.raises(ValueError, match="labels must"):
        gradient_check(tiny_model(), np.zeros((1, 10), dtype=int), labels)


# ------------------------------------------------------------- init


def test_init_is_deterministic():
    a, b = init_model(TINY, 42), init_model(TINY, 42)
    for name in PARAM_NAMES:
        assert np.array_equal(a.params[name], b.params[name])


def test_different_seeds_differ():
    a, b = init_model(TINY, 1), init_model(TINY, 2)
    assert not np.array_equal(a.params["embedding"], b.params["embedding"])


def test_all_biases_start_at_zero():
    model = init_model(TINY, 3)
    for name in ("conv1_bias", "conv2_bias", "dense1_bias", "dense2_bias"):
        assert np.array_equal(model.params[name], np.zeros_like(model.params[name]))


def test_embedding_init_range():
    emb = init_model(TINY, 4).params["embedding"]
    assert np.all(emb > -0.05) and np.all(emb < 0.05)


def test_glorot_limits_respected():
    model = init_model(TINY, 5)
    limits = {
        "conv1_kernel": np.sqrt(6.0 / (3 * 128 + 3 * 64)),
        "conv2_kernel": np.sqrt(6.0 / (3 * 64 + 3 * 32)),
        # At L=10, flat holds pool2's 1 step x 32 filters.
        "dense1_weight": np.sqrt(6.0 / (1 * 32 + 16)),
        "dense2_weight": np.sqrt(6.0 / (16 + 4)),
    }
    for name, limit in limits.items():
        weights = model.params[name]
        assert np.all(np.abs(weights) < limit)
        assert np.max(np.abs(weights)) > 0.5 * limit  # actually spans the range


def test_parameter_counts_for_length_64():
    config = ModelConfig(vocab_size=100, L=64)
    model = init_model(config, 0)
    count = lambda *names: sum(model.params[n].size for n in names)
    assert count("conv1_kernel", "conv1_bias") == 24_640
    assert count("conv2_kernel", "conv2_bias") == 6_176
    assert count("dense1_weight", "dense1_bias") == 7_184
    assert count("dense2_weight", "dense2_bias") == 68


# ----------------------------------------------------------- rmsprop


def test_rmsprop_hand_example():
    params = {"w": np.zeros(1)}
    state = RmsPropState()
    rmsprop_step(param_model(params), {"w": np.array([3.0])}, state)
    assert abs(state.accumulators["w"][0] - 0.9) < 1e-12
    assert abs(params["w"][0] + 0.003 / (np.sqrt(0.9) + 1e-7)) < 1e-12


def test_rmsprop_zero_gradient_decays_accumulator_only():
    params = {"w": np.array([1.5])}
    state = RmsPropState(accumulators={"w": np.array([4.0])})
    rmsprop_step(param_model(params), {"w": np.zeros(1)}, state)
    assert params["w"][0] == 1.5
    assert abs(state.accumulators["w"][0] - 3.6) < 1e-12


def test_rmsprop_two_constant_steps_closed_form():
    g = 3.0
    model = param_model({"w": np.zeros(1)})
    state = RmsPropState()
    rmsprop_step(model, {"w": np.array([g])}, state)
    rmsprop_step(model, {"w": np.array([g])}, state)
    rho = state.rho
    assert abs(state.accumulators["w"][0] - (1 - rho**2) * g * g) < 1e-12


def test_rmsprop_matches_naive_oracle_elementwise():
    rng = np.random.default_rng(12)
    params = {"w": rng.normal(size=7)}
    grads = {"w": rng.normal(size=7)}
    acc0 = rng.uniform(0.1, 2.0, size=7)
    state = RmsPropState(accumulators={"w": acc0.copy()})
    expected = [
        naive_rmsprop(t, g, a, state.lr, state.rho, state.epsilon)
        for t, g, a in zip(params["w"].copy(), grads["w"], acc0)
    ]
    rmsprop_step(param_model(params), grads, state)
    for i, (theta, acc) in enumerate(expected):
        assert abs(params["w"][i] - theta) < 1e-15
        assert abs(state.accumulators["w"][i] - acc) < 1e-15


def test_rmsprop_step_allocates_nothing_parameter_sized_after_the_first():
    """The first step makes the accumulators and the scratch room; later
    steps compute in those and allocate no array of a parameter's size."""
    rng = np.random.default_rng(3)
    params = {name: rng.normal(size=size) for name, size in [("a", 4096), ("b", 6000), ("c", 9000)]}
    model, state = param_model(params), RmsPropState()
    grads = {name: rng.normal(size=param.shape) for name, param in params.items()}
    rmsprop_step(model, grads, state)
    tracemalloc.start()
    try:
        rmsprop_step(model, grads, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < min(param.nbytes for param in params.values()), peak


def test_rmsprop_rejects_non_finite_gradient():
    model = param_model({"w": np.zeros(2)})
    with pytest.raises(ValueError, match="non-finite"):
        rmsprop_step(model, {"w": np.array([1.0, np.nan])}, RmsPropState())


def test_rmsprop_rejects_mismatched_keys_and_shapes():
    model = param_model({"w": np.zeros(2)})
    state = RmsPropState()
    with pytest.raises(ValueError, match="keys"):
        rmsprop_step(model, {"v": np.zeros(2)}, state)
    with pytest.raises(ValueError, match="shape"):
        rmsprop_step(model, {"w": np.zeros(3)}, state)


def test_fifty_steps_reduce_loss_on_fixed_example():
    model = tiny_model(seed=9)
    ids = np.random.default_rng(1).integers(0, 10, size=(1, 10))
    labels = np.array([3])
    state = RmsPropState()
    probs, cache = model.forward(ids)
    initial = float(cross_entropy(probs, labels)[0])
    for _ in range(50):
        probs, cache = model.forward(ids)
        rmsprop_step(model, model_backward(cache, labels), state)
    final = float(cross_entropy(model.forward(ids)[0], labels)[0])
    assert final < initial


# ------------------------------------------------------ configuration


@pytest.mark.parametrize("length", [8, 9])
def test_config_rejects_too_short_lengths(length):
    with pytest.raises(ValueError, match="too short"):
        ModelConfig(vocab_size=10, L=length)


@pytest.mark.parametrize(
    "length,chain",
    [
        (10, [(10, 128), (8, 64), (4, 64), (2, 32), (1, 32), (32,), (16,), (4,)]),
        (16, [(16, 128), (14, 64), (7, 64), (5, 32), (2, 32), (64,), (16,), (4,)]),
        (64, [(64, 128), (62, 64), (31, 64), (29, 32), (14, 32), (448,), (16,), (4,)]),
    ],
)
def test_config_shape_chain(length, chain):
    assert list(ModelConfig(vocab_size=10, L=length).shape_chain()) == chain


def test_config_rejects_tiny_vocab():
    with pytest.raises(ValueError, match="vocab_size"):
        ModelConfig(vocab_size=1, L=10)


def test_config_rejects_unknown_precision():
    with pytest.raises(ValueError, match="precision"):
        ModelConfig(vocab_size=10, L=10, precision="float16")


def test_config_rejects_other_pooling():
    with pytest.raises(ValueError, match="pooling"):
        ModelConfig(vocab_size=10, L=10, pool=3, pool_stride=3)


@pytest.mark.parametrize("classes", [3, 5])
def test_config_rejects_other_than_one_class_per_category(classes):
    with pytest.raises(ValueError, match=f"classes must be 4, got {classes}"):
        ModelConfig(vocab_size=10, L=10, classes=classes)


# ------------------------------------------------------------ forward


@pytest.mark.parametrize("length", [10, 16, 64])
def test_forward_cache_follows_shape_chain(length):
    config = ModelConfig(vocab_size=12, L=length)
    model = init_model(config, 0)
    ids = np.random.default_rng(0).integers(0, 12, size=(3, length))
    probs, cache = model.forward(ids)
    chain = config.shape_chain()
    assert cache.embedded.shape == (3, *chain[0])
    assert cache.conv1.shape == (3, *chain[1])
    assert cache.pool1.shape == (3, *chain[2])
    assert cache.conv2.shape == (3, *chain[3])
    assert cache.pool2.shape == (3, *chain[4])
    assert cache.flat.shape == (3, *chain[5])
    assert cache.dense1.shape == (3, *chain[6])
    assert probs.shape == (3, *chain[7])
    assert np.allclose(probs.sum(axis=1), 1.0)


def test_forward_rejects_wrong_length():
    model = tiny_model()
    with pytest.raises(ValueError, match="shape"):
        model.forward(np.zeros((1, 11), dtype=int))


def test_forward_rejects_an_empty_batch_naming_its_shape():
    model = tiny_model()
    with pytest.raises(ValueError, match=r"batch >= 1, got \(0, 10\)"):
        model.forward(np.zeros((0, 10), dtype=int))


def test_forward_promotes_single_sequence():
    model = tiny_model()
    probs, _ = model.forward(np.zeros(10, dtype=int))
    assert probs.shape == (1, 4)


def _fold_case_ids(rng, batch, length, vocab, pattern):
    ids = rng.integers(0, vocab, size=(batch, length))
    if pattern == "padding rows":
        ids[::2] = 0
    elif pattern == "one id":
        ids[:] = rng.integers(0, vocab)
    return ids


@pytest.mark.parametrize("precision", ["float64", "float32"])
@pytest.mark.parametrize("kernel", [1, 2, 3, 5])
@pytest.mark.parametrize("shortest", [True, False], ids=["min_L", "L64"])
@settings(max_examples=6, deadline=None)
@given(
    batch=st.sampled_from([1, 3, 257]),
    vocab=st.sampled_from([2, 9, 300]),
    pattern=st.sampled_from(["random", "padding rows", "one id"]),
    seed=st.integers(0, 2**16),
)
@example(batch=257, vocab=2, pattern="padding rows", seed=0)
@example(batch=257, vocab=300, pattern="one id", seed=1)
@example(batch=3, vocab=300, pattern="random", seed=2)
@example(batch=1, vocab=9, pattern="one id", seed=3)
def test_forward_matches_gemm_oracle_bit_for_bit(
    precision, kernel, shortest, batch, vocab, pattern, seed
):
    """Model.forward, which projects each distinct id's row once, is the
    oracle's per-tap GEMM pass over every position, bit for bit (a lone
    distinct id projects as two rows)."""
    length = 3 * kernel + 1 if shortest else 64
    config = ModelConfig(vocab_size=vocab, L=length, kernel=kernel, precision=precision)
    model = init_model(config, seed)
    ids = _fold_case_ids(np.random.default_rng(seed), batch, length, vocab, pattern)
    probs, cache = model.forward(ids)
    oracle_probs, oracle = gemm_model_forward(model, ids)
    assert_same_floats(cache.embedded, oracle.embedded)
    assert_same_floats(cache.conv1, oracle.conv1)
    assert_same_floats(probs, oracle_probs)


@pytest.mark.parametrize("rows", [2, 20], ids=["per_tap", "folded"])
@pytest.mark.parametrize("bad", [-1, 12, 10**12], ids=["negative", "vocab_size", "huge"])
def test_forward_rejects_out_of_range_ids_as_the_oracle_does(bad, rows):
    model = init_model(ModelConfig(vocab_size=12, L=10), 0)
    ids = np.arange(10 * rows).reshape(rows, 10) % 12
    ids[1, 3] = bad
    with pytest.raises(ValueError) as fold:
        model.forward(ids)
    with pytest.raises(ValueError) as oracle:
        gemm_model_forward(model, ids)
    assert str(fold.value) == str(oracle.value)
    assert "sequence ids must lie in [0, 12)" in str(fold.value)


def _traced_peak(forward, model, ids) -> int:
    tracemalloc.start()
    try:
        forward(model, ids)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_peak_memory_is_no_higher_than_the_oracles():
    """B=256, L=64: gathering distinct rows and relu in place must not
    hold more at once than embedding every position did."""
    config = ModelConfig(vocab_size=107, L=64)
    model = init_model(config, 0)
    ids = np.random.default_rng(0).integers(0, 107, size=(256, 64))
    fold = _traced_peak(Model.forward, model, ids)
    oracle = _traced_peak(gemm_model_forward, model, ids)
    assert fold <= oracle, (fold, oracle)


def test_predict_codes_frees_each_chunks_cache_before_the_next_forward():
    """L=64, three chunks: predict_codes holds at most one 256-row forward
    and its cache at once, plus its output arrays. A loop that kept the last
    chunk's cache while the next forward ran would hold two."""
    model = init_model(ModelConfig(vocab_size=107, L=64), 0)
    ids = np.random.default_rng(0).integers(0, 107, size=(2 * train._EVAL_BATCH + 1, 64))
    forward = _traced_peak(Model.forward, model, ids[: train._EVAL_BATCH])
    predict = _traced_peak(train.predict_codes, model, ids)
    # The predictions, and one chunk's float64 probabilities.
    outputs = ids.shape[0] * 8 + train._EVAL_BATCH * model.config.classes * 8
    assert predict <= forward + outputs, (predict, forward)


def test_forward_propagates_a_nan_row_to_the_posts_that_read_it():
    """np.maximum pools a NaN through, as the winner rule does (the first
    NaN wins), so exactly the posts that read the NaN row go NaN."""
    model = init_model(ModelConfig(vocab_size=12, L=18), 0)
    model.params["embedding"][5] = np.nan
    ids = np.random.default_rng(0).integers(0, 12, size=(8, 18))
    ids[ids == 5] = 6
    # Only conv1's first position reads position 0, so pool1's first pair is NaN, then finite.
    ids[1::2, 0] = 5
    with np.errstate(invalid="ignore"):
        probs, _ = model.forward(ids)
        oracle, _ = gemm_model_forward(model, ids)
    assert_same_floats(probs, oracle)
    assert np.isnan(probs).any(axis=1).tolist() == [False, True] * 4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("size", [1, 7, 64, 1000])
def test_relu_in_place_leaves_no_negative_zero(dtype, size):
    """The pools' winners=False mode is exact only on input without -0.0;
    numpy's scalar loop (short arrays) and its SIMD loop must both clear it."""
    x = np.random.default_rng(size).normal(size=size).astype(dtype)
    x[::2] = -0.0
    np.maximum(x, 0, out=x)
    assert not np.signbit(x).any()


@settings(max_examples=300, deadline=None)
@given(pool_inputs)
def test_maxpool1d_without_winners_is_the_winner_rule_on_relu_output(x):
    relu = np.maximum(x, 0)
    pooled, winners = maxpool1d(relu, winners=False)
    assert winners is None
    assert_same_floats(pooled, maxpool1d(relu)[0])


def test_forward_caches_the_distinct_rows_of_every_batch():
    """Every batch, a single post included, caches its distinct ids and
    their rows, and places cache.embedded from them only when it is read."""
    model = init_model(ModelConfig(vocab_size=200, L=10), 0)
    table = model.params["embedding"]
    rng = np.random.default_rng(0)
    for ids in [
        np.arange(140).reshape(14, 10) % 4,
        np.arange(130).reshape(13, 10) % 4,
        rng.integers(0, 200, size=(16, 10)),
    ]:
        _, cache = model.forward(ids)
        assert np.array_equal(cache.distinct, np.unique(ids))
        assert np.array_equal(cache.rows, table[cache.distinct])
        assert "embedded" not in vars(cache)
        assert np.array_equal(cache.embedded, table[ids])
    request = init_model(ModelConfig(vocab_size=200, L=64), 0)
    ids = rng.integers(0, 15, size=(1, 64))
    _, cache = request.forward(ids)
    assert np.array_equal(cache.distinct, np.unique(ids))
    assert np.array_equal(cache.embedded, request.params["embedding"][ids])


@pytest.mark.parametrize("precision", ["float64", "float32"])
@pytest.mark.parametrize("kernel", [1, 2, 3, 5])
@settings(max_examples=6, deadline=None)
@given(
    batch=st.sampled_from([1, 3, 257]),
    vocab=st.sampled_from([2, 9, 300]),
    pattern=st.sampled_from(["random", "padding rows", "one id"]),
    seed=st.integers(0, 2**16),
)
@example(batch=257, vocab=300, pattern="one id", seed=1)
@example(batch=257, vocab=300, pattern="random", seed=2)
@example(batch=3, vocab=9, pattern="random", seed=3)
@example(batch=1, vocab=9, pattern="one id", seed=4)
def test_backward_through_distinct_rows_matches_the_per_position_backward(
    precision, kernel, batch, vocab, pattern, seed
):
    """model_backward, which goes through the batch's distinct rows, gives
    the per-position oracle's gradients: bit for bit down to conv1's bias,
    and conv1's kernel and the embedding up to summation order (a lone
    distinct id keeps one row in the cache). It never embeds the batch,
    and ids absent from the batch get exactly zero."""
    config = ModelConfig(vocab_size=vocab, L=3 * kernel + 1, kernel=kernel, precision=precision)
    model = init_model(config, seed)
    rng = np.random.default_rng(seed)
    ids = _fold_case_ids(rng, batch, config.L, vocab, pattern)
    labels = rng.integers(1, 5, size=batch)
    _, cache = model.forward(ids)
    grads = model_backward(cache, labels)
    oracle = per_position_model_backward(gemm_model_forward(model, ids)[1], labels)

    assert "embedded" not in vars(cache)
    # Both sides round in the model's dtype, in different orders; float32 differs by ~1e-6.
    tolerance = {"float64": 1e-12, "float32": 1e-4}[precision]
    for name in PARAM_NAMES:
        assert grads[name].dtype == model.params[name].dtype
        if name in ("embedding", "conv1_kernel"):
            scale = np.abs(oracle[name]).max()
            assert np.abs(grads[name] - oracle[name]).max() <= tolerance * scale, name
        else:
            assert np.array_equal(grads[name], oracle[name]), name
    absent = np.setdiff1d(np.arange(vocab), ids)
    assert not grads["embedding"][absent].any()


def test_gradient_check_passes_on_a_batch_that_folds():
    """The two gradients that go through the distinct rows match central
    differences. (The others are the per-position pass's, bit for bit; with
    14 examples a dense1 pre-activation here lies within one finite
    difference step of its relu kink, which breaks the numeric side.)"""
    narrow = ModelConfig(
        vocab_size=10, L=10, embed_dim=8, conv1_filters=6, conv2_filters=4, dense_hidden=5
    )
    model = init_model(narrow, seed=1)
    rng = np.random.default_rng(5)
    ids = rng.integers(0, 10, size=(14, 10))
    errors = gradient_check(model, ids, rng.integers(1, 5, size=14))
    assert errors["embedding"] < 1e-4 and errors["conv1_kernel"] < 1e-4, errors


def test_backward_peak_memory_is_no_higher_than_the_per_position_backward():
    """B=256, L=64: summing the gradient per distinct row must not hold more
    at once than the per-position conv1 backward and embedding scatter did."""
    config = ModelConfig(vocab_size=107, L=64)
    model = init_model(config, 0)
    ids = np.random.default_rng(0).integers(0, 107, size=(256, 64))
    labels = np.arange(256) % 4 + 1
    runs = {"fold": (model_backward, model.forward(ids)[1]),
            "oracle": (per_position_model_backward, gemm_model_forward(model, ids)[1])}
    peaks = {}
    for name, (backward, cache) in runs.items():
        tracemalloc.start()
        try:
            backward(cache, labels)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["fold"] <= peaks["oracle"], peaks


def test_float32_pipeline_runs_and_keeps_dtype():
    config = ModelConfig(vocab_size=10, L=10, precision="float32")
    model = init_model(config, 0)
    assert all(p.dtype == np.float32 for p in model.params.values())
    ids = np.arange(10).reshape(1, 10)
    probs, cache = model.forward(ids)
    assert probs.dtype == np.float32
    grads = model_backward(cache, np.array([1]))
    rmsprop_step(model, grads, RmsPropState())
    assert all(p.dtype == np.float32 for p in model.params.values())
