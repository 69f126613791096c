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
#    L vary. The config walks the table for the dimension chain.
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
#    layer's output, which the backward pass consumes.
# ------------------------------------------------------------------

model = init_model(config, seed=0)
rng = np.random.default_rng(0)
ids = rng.integers(0, config.vocab_size, size=(2, config.L))
probs, cache = model.forward(ids)
print("\nprobabilities:")
print(np.round(probs, 4))
print("rows sum to", probs.sum(axis=1))

# ------------------------------------------------------------------
# 3. Loss and gradients. Cross-entropy over one-hot labels; the
#    backward pass yields one gradient tensor per parameter tensor.
# ------------------------------------------------------------------

onehot = np.eye(4)[[0, 2]]
loss = cross_entropy(probs, onehot)
print("\nper-example loss:", np.round(loss, 4))

grads = model_backward(cache, onehot)
print("gradient tensors:", ", ".join(f"{k}{list(v.shape)}" for k, v in grads.items()))

# ------------------------------------------------------------------
# 4. The gradient check. Every analytic gradient coordinate is
#    compared against a central finite difference on a tiny model.
#    This is slow by design (two forward passes per parameter) and
#    is the backbone of the acceptance suite.
# ------------------------------------------------------------------

tiny = init_model(ModelConfig(vocab_size=10, L=10), seed=1)
tiny_ids = rng.integers(0, 10, size=(1, 10))
tiny_onehot = np.eye(4)[[1]]
print("\nrunning the full finite-difference sweep (about ten seconds)...")
errors = gradient_check(tiny, tiny_ids, tiny_onehot)
for name, err in errors.items():
    print(f"   {name:<13} max relative error {err:.2e}")
print("worst:", f"{max(errors.values()):.2e}")
