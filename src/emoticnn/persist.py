"""Model persistence: a JSON manifest beside a raw little-endian weight blob.

``model.json`` holds everything needed to rebuild the pipeline — model
and training configuration, the vocabulary in index order, the emoticon
lexicon, and a byte-layout table for ``weights.bin``. The blob is plain
IEEE-754 little-endian data, parameters concatenated in canonical order,
so a round trip restores weights bit-exactly. Loading validates the
format version, the layout table (ascending, contiguous, covering the
blob exactly), the declared shapes, and weight finiteness before
returning anything.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .corpus import CorpusError, EmoticonLexicon, read_json
from .encode import Vocabulary
from .nn import PARAM_NAMES, Model, ModelConfig
from .train import TrainConfig

__all__ = [
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "WEIGHTS_NAME",
    "PersistError",
    "load_model",
    "save_model",
]

FORMAT_VERSION = 1
MANIFEST_NAME = "model.json"
WEIGHTS_NAME = "weights.bin"


class PersistError(ValueError):
    """Raised when saved model files are missing, malformed, or inconsistent."""


def _blob_dtype(config: ModelConfig) -> np.dtype:
    """The model's float type, stored little-endian on every platform."""
    return np.dtype(config.dtype).newbyteorder("<")


def save_model(
    model: Model,
    vocab: Vocabulary,
    lexicon: EmoticonLexicon,
    train_cfg: TrainConfig,
    model_dir,
) -> None:
    """Write ``model.json`` and ``weights.bin`` into model_dir."""
    out = Path(model_dir)
    out.mkdir(parents=True, exist_ok=True)
    blob_dtype = _blob_dtype(model.config)

    blob = bytearray()
    layout = []
    for name in PARAM_NAMES:
        array = model.params[name]
        if not np.all(np.isfinite(array)):
            raise PersistError(f"non-finite parameter in {name}")
        layout.append({"name": name, "shape": list(array.shape), "offset": len(blob)})
        blob += np.ascontiguousarray(array).astype(blob_dtype).tobytes()

    manifest = {
        "format_version": FORMAT_VERSION,
        "model_config": asdict(model.config),
        "train_config": asdict(train_cfg),
        "vocabulary": vocab.words(),
        "lexicon": lexicon.to_rows(),
        "weights": {
            "file": WEIGHTS_NAME,
            "layout": layout,
            "total_bytes": len(blob),
        },
    }
    manifest_text = json.dumps(manifest, ensure_ascii=False, indent=2) + "\n"
    (out / MANIFEST_NAME).write_text(manifest_text, encoding="utf-8")
    (out / WEIGHTS_NAME).write_bytes(blob)


def load_model(model_dir) -> tuple[Model, Vocabulary, EmoticonLexicon, TrainConfig]:
    """Load and validate a saved model directory."""
    manifest_path = Path(model_dir) / MANIFEST_NAME
    weights_path = Path(model_dir) / WEIGHTS_NAME
    for path in (manifest_path, weights_path):
        if not path.is_file():
            raise PersistError(f"missing {path}")

    try:
        data = read_json(manifest_path)
    except CorpusError as exc:
        raise PersistError(f"unreadable manifest: {exc}") from exc
    if not isinstance(data, dict):
        raise PersistError("manifest must be a JSON object")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise PersistError(f"unknown format_version: {version!r}")

    try:
        model_cfg = ModelConfig(**data["model_config"])
        train_cfg = TrainConfig(**data["train_config"])
        words = [str(word) for word in data["vocabulary"]]
        lexicon = EmoticonLexicon({str(emoji): str(phrase) for emoji, phrase in data["lexicon"]})
        weights_meta = data["weights"]
        layout = list(weights_meta["layout"])
        declared_total = int(weights_meta["total_bytes"])
        entries = [
            (str(e["name"]), tuple(int(d) for d in e["shape"]), int(e["offset"]))
            for e in layout
        ]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PersistError(f"invalid manifest: {exc}") from exc

    vocab = Vocabulary.from_words(words)
    if vocab.size != model_cfg.vocab_size:
        raise PersistError(
            f"vocabulary holds {vocab.size} indices but the model config "
            f"expects {model_cfg.vocab_size}"
        )

    if [name for name, _, _ in entries] != list(PARAM_NAMES):
        raise PersistError("layout parameter names are wrong or out of order")
    expected_shapes = model_cfg.param_shapes()
    blob_dtype = _blob_dtype(model_cfg)
    width = blob_dtype.itemsize
    running_offset = 0
    for name, shape, offset in entries:
        if shape != expected_shapes[name]:
            raise PersistError(
                f"{name} has shape {shape} in the manifest, expected {expected_shapes[name]}"
            )
        if offset != running_offset:
            raise PersistError(
                f"offset table corrupt at {name}: offset {offset}, expected {running_offset}"
            )
        running_offset = offset + int(np.prod(shape)) * width
    if running_offset != declared_total:
        raise PersistError(
            f"offset table covers {running_offset} bytes but the manifest "
            f"declares {declared_total}"
        )

    blob = weights_path.read_bytes()
    if len(blob) != running_offset:
        raise PersistError(
            f"blob size mismatch: weights.bin has {len(blob)} bytes, "
            f"the manifest expects {running_offset}"
        )

    params: dict[str, np.ndarray] = {}
    for name, shape, offset in entries:
        count = int(np.prod(shape))
        array = (
            np.frombuffer(blob, dtype=blob_dtype, count=count, offset=offset)
            .reshape(shape)
            .astype(model_cfg.dtype)
        )
        if not np.all(np.isfinite(array)):
            raise PersistError(f"non-finite parameter in {name}")
        params[name] = array

    return Model(config=model_cfg, params=params), vocab, lexicon, train_cfg
