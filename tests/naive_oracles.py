"""Independent reference implementations used to cross-check the fast paths.

Everything here shares no code with the package, so agreement is
meaningful evidence of correctness. The ``naive_`` oracles are explicit
Python loops; the others are the package's earlier numpy kernels (einsum
convolution, argmax pooling, put_along_axis pool routing, np.add.at
scatter, one-hot loss and logit gradient), its earlier forward and
backward passes (which do call the package's layer functions) and its
earlier text stages (cleaning by regex substitutions, with whitespace
collapsed by regex or by str.split; an emoticon scan that walks every
grapheme cluster in Python; and one that makes a regex match per token),
kept to pin the fast paths that replaced them.
"""

from __future__ import annotations

import numpy as np
import regex

from emoticnn import nn

_GRAPHEME_RE = regex.compile(r"\X")
_WS_RE = regex.compile(r"\s+")
_BASIC_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789' ")
_URL_RE = regex.compile(r"(?<!\S)https?://\S+")
_MENTION_RE = regex.compile(r"(?<!\S)@\S+")
_PUNCT_RE = regex.compile(r"(?!(?<=[^\W_])'(?=[^\W_]))[!-/:-@\[-`{-~]")
_UNEXTENDED = r"(?![\p{GCB=Extend}\p{GCB=ZWJ}\p{GCB=SpacingMark}])"


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
    """Loop-based window-2 stride-2 max pooling for a single (T, C) input.

    The winner is chosen as numpy's argmax chooses: the later element
    wins only if it is larger or is the first NaN of the pair.
    """
    steps, channels = x.shape
    t_out = steps // 2
    out = np.zeros((t_out, channels), dtype=np.float64)
    winners = np.zeros((t_out, channels), dtype=np.int64)
    for t in range(t_out):
        for c in range(channels):
            first, second = x[2 * t, c], x[2 * t + 1, c]
            if not np.isnan(first) and (np.isnan(second) or second > first):
                out[t, c] = second
                winners[t, c] = 2 * t + 1
            else:
                out[t, c] = first
                winners[t, c] = 2 * t
    return out, winners


def einsum_conv1d_forward(x, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Unpadded 1D convolution of (..., T, C) by (k, C, F), one einsum per tap."""
    x = np.asarray(x)
    k, _, filters = kernel.shape
    t_out = x.shape[-2] - k + 1
    out = np.zeros(
        (*x.shape[:-2], t_out, filters), dtype=np.result_type(x.dtype, kernel.dtype)
    )
    for offset in range(k):
        out += np.einsum("...tc,cf->...tf", x[..., offset : offset + t_out, :], kernel[offset])
    out += bias
    return out


def einsum_conv1d_backward(x, kernel, dout):
    """(dx, dkernel, dbias) of einsum_conv1d_forward, one einsum per tap."""
    k, c_in, filters = kernel.shape
    t_out = dout.shape[-2]
    batched_dout = dout.reshape(-1, t_out, filters)
    dbias = np.einsum("btf->f", batched_dout)
    dkernel = np.empty_like(kernel)
    dx = np.zeros_like(x)
    for offset in range(k):
        window = x[..., offset : offset + t_out, :].reshape(-1, t_out, c_in)
        dkernel[offset] = np.einsum("btc,btf->cf", window, batched_dout)
        dx[..., offset : offset + t_out, :] += np.einsum("...tf,cf->...tc", dout, kernel[offset])
    return dx, dkernel, dbias


def gemm_model_forward(model, ids):
    """Model.forward as it was before conv1 projected distinct rows: embed
    every position, then one GEMM per conv1 tap over the whole batch, and
    pool by the winner rule, then relu.

    The cache also records the distinct ids, their rows and each
    position's index into them, found here by np.unique, so that
    model_backward can run on it as on Model.forward's cache."""
    cfg = model.config
    ids = np.asarray(ids)
    if ids.ndim == 1:
        ids = ids[None, :]
    if ids.ndim != 2 or ids.shape[1] != cfg.L:
        raise ValueError(f"expected ids of shape (batch, {cfg.L}), got {ids.shape}")
    params, x, outputs = model.params, ids, {}
    for layer, shape in zip(nn.LAYERS, cfg.shape_chain()):
        weights = [params[name] for name in layer.params]
        if layer.kind == "embed":
            x = nn.embedding_forward(x, *weights)
            distinct, inverse = np.unique(ids, return_inverse=True)
            outputs.update(distinct=distinct, rows=weights[0][distinct],
                           inverse=inverse.reshape(ids.shape))
        elif layer.kind == "conv":
            x = nn.conv1d_forward(x, *weights)
        elif layer.kind == "pool_relu":
            x = np.maximum(nn.maxpool1d(x)[0], 0)
        elif layer.kind == "flatten":
            x = x.reshape(x.shape[0], -1)
        elif layer.kind == "dense_relu":
            x = np.maximum(nn.dense_forward(x, *weights), 0)
        else:
            x = nn.softmax(nn.dense_forward(x, *weights))
        assert x.shape[1:] == shape, (layer.name, x.shape)
        outputs[layer.name] = x
    return x, nn.ForwardCache(model=model, version=model._version, ids=ids, **outputs)


def per_position_model_backward(cache, labels):
    """model_backward as it was before conv1's backward went through the
    distinct rows: conv1d_backward over every position of cache.embedded,
    then each position's embedding gradient added at its id in float64
    (add_at_embedding_grad), rounded once to the model's dtype."""
    model, probs = cache.model, cache.probs
    labels = np.asarray(labels)
    dout = probs.copy()
    dout[np.arange(labels.size), labels - 1] -= 1
    dout /= probs.shape[0]
    grads = {}
    outputs = [cache.ids, *(getattr(cache, layer.name) for layer in nn.LAYERS)]
    for layer, x, out in reversed(list(zip(nn.LAYERS, outputs, outputs[1:]))):
        weight = model.params[layer.params[0]] if layer.params else None
        if layer.kind.endswith("_relu"):
            dout = dout * (out > 0)
        dparams = ()
        if layer.kind == "embed":
            dembedding = add_at_embedding_grad(x, dout.astype(np.float64), weight.shape[0])
            dparams = (dembedding.astype(weight.dtype, copy=False),)
        elif layer.kind == "conv":
            dout, *dparams = nn.conv1d_backward(x, weight, dout)
        elif layer.kind == "pool_relu":
            dout = put_along_axis_maxpool1d_backward(dout, nn.maxpool1d(x)[1], x.shape)
        elif layer.kind == "flatten":
            dout = dout.reshape(x.shape)
        else:
            dout, *dparams = nn.dense_backward(x, weight, dout)
        grads.update(zip(layer.params, dparams))
    return {name: grads[name] for name in nn.PARAM_NAMES}


def put_along_axis_maxpool1d_backward(dout, winners, input_shape):
    """Pooled gradients put at the winners' time indices (maxpool1d's second
    value) of a zero input gradient."""
    dx = np.zeros(input_shape, dtype=dout.dtype)
    np.put_along_axis(dx, winners, dout, axis=-2)
    return dx


def argmax_maxpool1d(x) -> tuple[np.ndarray, np.ndarray]:
    """Window-2 stride-2 max pooling of (..., T, C) by argmax over paired slots."""
    x = np.asarray(x)
    t_out = x.shape[-2] // 2
    windows = x[..., : 2 * t_out, :].reshape(*x.shape[:-2], t_out, 2, x.shape[-1])
    within = windows.argmax(axis=-2)
    pooled = np.take_along_axis(windows, within[..., None, :], axis=-2).squeeze(-2)
    winners = within + 2 * np.arange(t_out).reshape(-1, 1)
    return pooled, winners


def add_at_embedding_grad(ids, dembedded, vocab_size):
    """Embedding-table gradient: each position's row of dembedded added at its id."""
    dim = dembedded.shape[-1]
    grad = np.zeros((vocab_size, dim), dtype=dembedded.dtype)
    np.add.at(grad, np.asarray(ids).reshape(-1), dembedded.reshape(-1, dim))
    return grad


def add_at_confusion_counts(preds, labels, classes=4):
    """Confusion counts by scattering a 1 at (label - 1, prediction - 1) per post."""
    counts = np.zeros((classes, classes), dtype=np.int64)
    np.add.at(counts, (np.asarray(labels) - 1, np.asarray(preds) - 1), 1)
    return counts


def one_hot_cross_entropy(probs, onehot):
    """-log(p_true) as the sum of probs times one-hot rows, clamped at 1e-12."""
    return -np.log(np.maximum((probs * onehot).sum(axis=-1), 1e-12))


def one_hot_logit_gradient(probs, onehot):
    """The batch-mean loss's gradient at the logits, (p - y) / batch, y in probs' dtype."""
    return (probs - np.asarray(onehot, dtype=probs.dtype)) / probs.shape[0]


def naive_rmsprop(theta, grad, acc, lr, rho, epsilon):
    """Scalar RMSProp update returning (new_theta, new_acc)."""
    acc = rho * acc + (1.0 - rho) * grad * grad
    return theta - lr * grad / (acc**0.5 + epsilon), acc


def naive_fit_vocabulary(texts) -> dict[str, int]:
    """Word-to-index map ranked by descending count, first-seen order breaking ties.

    Indices start at 2, after the padding and out-of-vocabulary slots.
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
    return {word: index for index, word in enumerate(ranked, start=2)}


def cluster_walk_scan(text: str, entries: dict[str, str], replace: bool) -> str:
    """Emoticon replacement (or deletion) by a walk over every grapheme cluster.

    entries maps each key to its already normalised phrase, as an
    EmoticonLexicon does. At each cluster the longest key, counted
    in clusters, wins; a cluster no key covers survives only if it is one
    of the characters cleaning keeps.
    """
    table = {tuple(_GRAPHEME_RE.findall(emoji)): phrase for emoji, phrase in entries.items()}
    max_len = max((len(key) for key in table), default=0)
    clusters = _GRAPHEME_RE.findall(text)
    parts: list[str] = []
    i = 0
    n = len(clusters)
    while i < n:
        matched = False
        for width in range(min(max_len, n - i), 0, -1):
            phrase = table.get(tuple(clusters[i : i + width]))
            if phrase is not None:
                if replace:
                    parts.append(f" {phrase} ")
                else:
                    parts.append(" ")
                i += width
                matched = True
                break
        if not matched:
            cluster = clusters[i]
            if all(ch in _BASIC_CHARS for ch in cluster):
                parts.append(cluster)
            else:
                parts.append(" ")
            i += 1
    return _WS_RE.sub(" ", "".join(parts)).strip()


def regex_whitespace_clean(raw: str) -> str:
    """Microblog cleaning that collapses whitespace as regex's \\s+ sees it.

    Unlike str.split, \\s does not match U+001C-U+001F, so those
    characters survive here, inside words, instead of becoming spaces.
    """
    text = raw.lower()
    text = _URL_RE.sub(" ", text)
    text = _MENTION_RE.sub(" ", text)
    text = _PUNCT_RE.sub(" ", text)
    return _WS_RE.sub(" ", text).strip()


def match_per_token_scan(text: str, entries: dict[str, str], replace: bool) -> str:
    """Emoticon replacement (or deletion) by one regex match per token.

    A token is a run of the characters cleaning keeps, none of which
    begins a key and which no mark extends, or else one grapheme cluster.
    A run survives whole. At a cluster the longest key, counted in
    clusters, wins, and the scan resumes where that key ends, which may
    be inside a run; a cluster no key covers survives only if it is one
    of the characters cleaning keeps. entries maps each key to its
    already normalised phrase, as an EmoticonLexicon does.
    """
    max_len = max((len(_GRAPHEME_RE.findall(emoji)) for emoji in entries), default=0)
    run_chars = _BASIC_CHARS.difference(emoji[:1] for emoji in entries)
    runs = "".join(map(regex.escape, sorted(run_chars)))
    token_at = regex.compile(rf"([{runs}]+){_UNEXTENDED}|\X" if runs else r"\X").match
    parts: list[str] = []
    pos = 0
    end = len(text)
    while pos < end:
        start = pos
        token = token_at(text, pos)
        pos = token.end()
        if token.lastindex:
            parts.append(token[1])
            continue
        ends = [pos]
        while len(ends) < max_len and ends[-1] < end:
            ends.append(_GRAPHEME_RE.match(text, ends[-1]).end())
        for stop in reversed(ends):
            phrase = entries.get(text[start:stop])
            if phrase is not None:
                parts.append(f" {phrase} " if replace else " ")
                pos = stop
                break
        else:
            parts.append(token[0] if token[0] in _BASIC_CHARS else " ")
    return " ".join(filter(None, "".join(parts).split(" ")))


def punct_regex_clean(raw: str) -> str:
    """Microblog cleaning by three regex substitutions: URL and mention
    tokens, then every ASCII punctuation character but an apostrophe
    between letters or digits, each become a space; str.split then
    collapses whitespace."""
    text = raw.lower()
    text = _URL_RE.sub(" ", text)
    text = _MENTION_RE.sub(" ", text)
    text = _PUNCT_RE.sub(" ", text)
    return " ".join(text.split())
