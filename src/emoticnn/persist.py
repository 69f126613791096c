"""Model persistence: a JSON manifest beside a raw little-endian weight blob.

``model.json`` holds everything needed to rebuild the pipeline — model
and training configuration, the vocabulary in index order, the emoticon
lexicon, and a byte-layout table for ``weights.bin``. The blob is plain
IEEE-754 little-endian data, parameters concatenated in canonical order,
so a round trip restores weights bit-exactly. The layout table follows
from the model config alone: saving writes it, and loading requires the
manifest's to equal it and checks the format version, the blob size and
weight finiteness before returning anything.
"""

from __future__ import annotations

import json
import math
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


def _weights_table(config: ModelConfig) -> dict:
    """The manifest's weights object: each tensor's shape and byte offset in weights.bin."""
    width = _blob_dtype(config).itemsize
    shapes = config.param_shapes()
    layout, offset = [], 0
    for name in PARAM_NAMES:
        layout.append({"name": name, "shape": list(shapes[name]), "offset": offset})
        offset += math.prod(shapes[name]) * width
    return {"file": WEIGHTS_NAME, "layout": layout, "total_bytes": offset}


def _require_equal(where: str, found, implied) -> None:
    """Raise PersistError naming the first place where found differs from implied."""
    if isinstance(implied, dict) and isinstance(found, dict) and found.keys() == implied.keys():
        for key, value in implied.items():
            _require_equal(f"{where}.{key}", found[key], value)
    elif isinstance(implied, list) and isinstance(found, list) and len(found) == len(implied):
        for index, value in enumerate(implied):
            _require_equal(f"{where}[{index}]", found[index], value)
    elif isinstance(implied, dict | list) or isinstance(found, bool) or found != implied:
        raise PersistError(f"invalid manifest: {where} is {found!r}, the model config implies {implied!r}")


def _list_of(where: str, found, item: str, is_item) -> list:
    """found, if it is a list whose every entry is_item; else ValueError naming the first that is not."""
    if not isinstance(found, list):
        raise ValueError(f"{where} must be a list")
    for index, entry in enumerate(found):
        if not is_item(entry):
            raise ValueError(f"{where}[{index}] must be {item}, got {entry!r}")
    return found


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
    for name in PARAM_NAMES:
        array = model.params[name]
        if not np.all(np.isfinite(array)):
            raise PersistError(f"non-finite parameter in {name}")
        blob += np.ascontiguousarray(array).astype(blob_dtype).tobytes()

    manifest = {
        "format_version": FORMAT_VERSION,
        "model_config": asdict(model.config),
        "train_config": asdict(train_cfg),
        "vocabulary": vocab.words(),
        "lexicon": [list(row) for row in lexicon.items()],
        "weights": _weights_table(model.config),
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
        words = _list_of("vocabulary", data["vocabulary"], "a string", lambda word: isinstance(word, str))
        rows = _list_of("lexicon", data["lexicon"], "an [emoji, phrase] pair of strings",
                        lambda row: isinstance(row, list) and len(row) == 2
                        and all(isinstance(part, str) for part in row))
        lexicon = EmoticonLexicon(dict(rows))
        found_weights = data["weights"]
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistError(f"invalid manifest: {exc}") from exc

    positions: dict[str, int] = {}
    for index, word in enumerate(words):
        first = positions.setdefault(word, index)
        if first != index:
            raise PersistError(f"invalid manifest: vocabulary[{first}] and "
                               f"vocabulary[{index}] are both {word!r}")
    vocab = Vocabulary.from_words(words)
    if vocab.size != model_cfg.vocab_size:
        raise PersistError(
            f"vocabulary holds {vocab.size} indices but the model config "
            f"expects {model_cfg.vocab_size}"
        )
    weights = _weights_table(model_cfg)
    _require_equal("weights", found_weights, weights)

    blob = weights_path.read_bytes()
    if len(blob) != weights["total_bytes"]:
        raise PersistError(
            f"blob size mismatch: weights.bin has {len(blob)} bytes, "
            f"the manifest expects {weights['total_bytes']}"
        )

    params: dict[str, np.ndarray] = {}
    for entry in weights["layout"]:
        array = np.frombuffer(blob, _blob_dtype(model_cfg), math.prod(entry["shape"]), entry["offset"])
        if not np.all(np.isfinite(array)):
            raise PersistError(f"non-finite parameter in {entry['name']}")
        params[entry["name"]] = array.reshape(entry["shape"]).astype(model_cfg.dtype)

    return Model(config=model_cfg, params=params), vocab, lexicon, train_cfg
