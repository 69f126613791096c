"""Independent reference implementations used to cross-check the fast paths.

Everything here is written with explicit Python loops and no shared code
with the package, so agreement is meaningful evidence of correctness.
"""

from __future__ import annotations

import numpy as np


def naive_conv1d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Triple-loop unpadded 1D convolution for a single (T, C) input."""
    steps, channels = x.shape
    k, _, filters = kernel.shape
    t_out = steps - k + 1
    out = np.zeros((t_out, filters), dtype=np.float64)
    for t in range(t_out):
        for f in range(filters):
            acc = bias[f]
            for o in range(k):
                for c in range(channels):
                    acc += x[t + o, c] * kernel[o, c, f]
            out[t, f] = acc
    return out


def naive_maxpool1d(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Loop-based window-2 stride-2 max pooling for a single (T, C) input."""
    steps, channels = x.shape
    t_out = steps // 2
    out = np.zeros((t_out, channels), dtype=np.float64)
    winners = np.zeros((t_out, channels), dtype=np.int64)
    for t in range(t_out):
        for c in range(channels):
            first, second = x[2 * t, c], x[2 * t + 1, c]
            if second > first:
                out[t, c] = second
                winners[t, c] = 2 * t + 1
            else:
                out[t, c] = first
                winners[t, c] = 2 * t
    return out, winners


def naive_rmsprop(theta, grad, acc, lr, rho, epsilon):
    """Scalar RMSProp update returning (new_theta, new_acc)."""
    acc = rho * acc + (1.0 - rho) * grad * grad
    return theta - lr * grad / (acc**0.5 + epsilon), acc


def naive_fit_vocabulary(texts, size_cap=None) -> dict[str, int]:
    """Word-to-index map ranked by descending count, first-seen order breaking ties.

    Indices start at 2, after the padding and out-of-vocabulary slots; a
    size_cap keeps the top (size_cap - 2) words.
    """
    counts: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    position = 0
    for text in texts:
        for token in text.split():
            counts[token] = counts.get(token, 0) + 1
            if token not in first_seen:
                first_seen[token] = position
                position += 1

    ranked = sorted(counts, key=lambda w: (-counts[w], first_seen[w]))
    if size_cap is not None:
        ranked = ranked[: size_cap - 2]
    return {word: index for index, word in enumerate(ranked, start=2)}
