# coding: utf-8
"""A walk through the network, layer by layer, plus a gradient check.

Run from the repository root:  python3 demos/02_network_anatomy.py
"""

import numpy as np

from emoticnn import (
    LAYERS,
    ModelConfig,
    cross_entropy,
    gradient_check,
    init_model,
    model_backward,
)

# ------------------------------------------------------------------
# 1. The architecture is fixed and written down once, as the table
#    LAYERS: one row per layer, in forward order, with its kind and
#    its parameters. Only the vocabulary size and the sequence length
#    L vary. The config walks the table for the dimension chain. A
#    kind ending in _relu applies relu to that layer's output, so relu
#    follows each pool, not each convolution: relu and max commute, and
#    after the pool relu touches half the values or fewer.
# ------------------------------------------------------------------

config = ModelConfig(vocab_size=40, L=16)
print("dimension chain for L=16:")
for layer, shape in zip(LAYERS, config.shape_chain()):
    print(f"   {layer.name:<8} {layer.kind:<13} {shape}")

# Valid convolutions and floor pooling put a hard floor on L: the
# stack needs at least 10 timesteps to leave one pooled step alive.
try:
    ModelConfig(vocab_size=40, L=9)
except ValueError as exc:
    print("\nL=9 is rejected:", exc)

# ------------------------------------------------------------------
# 2. A forward pass returns probabilities plus a cache of every
#    layer's output, which the backward pass consumes. cache.conv1 and
#    cache.conv2 hold pre-activations; the backward pass finds each
#    pool's winners in them.
# ------------------------------------------------------------------

model = init_model(config, seed=0)
rng = np.random.default_rng(0)
ids = rng.integers(0, config.vocab_size, size=(2, config.L))
probs, cache = model.forward(ids)
print("\nprobabilities:")
print(np.round(probs, 4))
print("rows sum to", probs.sum(axis=1))

# ------------------------------------------------------------------
# 3. Loss and gradients. Cross-entropy over the category codes 1-4,
#    one per example; the backward pass yields one gradient tensor per
#    parameter tensor.
# ------------------------------------------------------------------

labels = np.array([1, 3])
loss = cross_entropy(probs, labels)
print("\nper-example loss:", np.round(loss, 4))

grads = model_backward(cache, labels)
print("gradient tensors:", ", ".join(f"{k}{list(v.shape)}" for k, v in grads.items()))

# ------------------------------------------------------------------
# 4. The gradient check. Every analytic gradient coordinate is
#    compared against a central finite difference. That costs two
#    forward passes per parameter, so the demo narrows every layer
#    (355 parameters); the acceptance suite sweeps the full-width
#    tiny model. Like the loss, the check takes category codes.
# ------------------------------------------------------------------

narrow = ModelConfig(
    vocab_size=10, L=10, embed_dim=8, conv1_filters=6, conv2_filters=4, dense_hidden=5
)
tiny = init_model(narrow, seed=1)
print("\nparameters in the narrow model:", sum(p.size for p in tiny.params.values()))
tiny_ids = rng.integers(0, 10, size=(1, 10))
tiny_labels = np.array([2])
errors = gradient_check(tiny, tiny_ids, tiny_labels)
for name, err in errors.items():
    print(f"   {name:<13} max relative error {err:.2e}")
print("worst:", f"{max(errors.values()):.2e}")
