"""Saving and loading model directories, including corruption handling."""

from __future__ import annotations

import json
import re
import struct

import numpy as np
import pytest

from emoticnn.corpus import EmoticonLexicon
from emoticnn.encode import Vocabulary
from emoticnn.nn import PARAM_NAMES, ModelConfig, init_model
from emoticnn.persist import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    WEIGHTS_NAME,
    PersistError,
    load_model,
    save_model,
)
from emoticnn.train import TrainConfig

WORDS = [f"word{i}" for i in range(10)]


def saved_dir(tmp_path, precision: str = "float64", seed: int = 5):
    vocab = Vocabulary.from_words(WORDS)
    config = ModelConfig(vocab_size=vocab.size, L=10, precision=precision)
    model = init_model(config, seed)
    lexicon = EmoticonLexicon.default()
    train_cfg = TrainConfig(batch_size=16, epochs=7, seed=seed)
    target = tmp_path / "model"
    save_model(model, vocab, lexicon, train_cfg, target)
    return target, model, vocab, lexicon, train_cfg


def edit_manifest(model_dir, mutate):
    path = model_dir / MANIFEST_NAME
    data = json.loads(path.read_text(encoding="utf-8"))
    mutate(data)
    path.write_text(json.dumps(data), encoding="utf-8")


# --------------------------------------------------------- round trip


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_round_trip_is_bitwise_exact(tmp_path, precision):
    target, model, vocab, lexicon, train_cfg = saved_dir(tmp_path, precision)
    loaded, loaded_vocab, loaded_lexicon, loaded_cfg = load_model(target)
    assert loaded.config == model.config
    for name in PARAM_NAMES:
        original = model.params[name]
        restored = loaded.params[name]
        assert restored.dtype == original.dtype
        assert restored.shape == original.shape
        assert np.array_equal(
            restored.view(np.uint8), original.view(np.uint8)
        ), name
    assert loaded_vocab.word_index == vocab.word_index
    assert dict(loaded_lexicon.items()) == dict(lexicon.items())
    assert loaded_cfg == train_cfg


def test_loaded_parameters_are_writable(tmp_path):
    target, *_ = saved_dir(tmp_path)
    loaded, *_ = load_model(target)
    for array in loaded.params.values():
        assert array.flags.writeable
    loaded.params["dense2_bias"] += 1.0  # must not raise


def test_loaded_model_forward_matches_original(tmp_path):
    target, model, *_ = saved_dir(tmp_path)
    loaded, *_ = load_model(target)
    ids = np.random.default_rng(0).integers(0, model.config.vocab_size, size=(3, 10))
    assert np.array_equal(model.forward(ids)[0], loaded.forward(ids)[0])


def test_save_creates_missing_directories(tmp_path):
    vocab = Vocabulary.from_words(WORDS)
    model = init_model(ModelConfig(vocab_size=vocab.size, L=10), 0)
    nested = tmp_path / "a" / "b" / "model"
    save_model(model, vocab, EmoticonLexicon.default(), TrainConfig(), nested)
    assert (nested / MANIFEST_NAME).is_file()
    assert (nested / WEIGHTS_NAME).is_file()


# ----------------------------------------------------------- manifest


def test_manifest_structure(tmp_path):
    target, model, vocab, lexicon, _ = saved_dir(tmp_path)
    data = json.loads((target / MANIFEST_NAME).read_text(encoding="utf-8"))
    assert data["format_version"] == FORMAT_VERSION
    assert data["model_config"]["vocab_size"] == vocab.size
    assert data["model_config"]["L"] == 10
    assert data["vocabulary"] == WORDS  # index order, reserved slots implicit
    assert data["lexicon"] == lexicon.to_rows()
    weights = data["weights"]
    assert weights["file"] == WEIGHTS_NAME
    assert [entry["name"] for entry in weights["layout"]] == list(PARAM_NAMES)
    # The order is part of the weights.bin format, so it is pinned here, not derived.
    assert PARAM_NAMES == (
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
    assert weights["total_bytes"] == (target / WEIGHTS_NAME).stat().st_size
    offsets = [entry["offset"] for entry in weights["layout"]]
    assert offsets == sorted(offsets)
    assert offsets[0] == 0


def test_blob_stores_params_in_declared_order(tmp_path):
    target, model, *_ = saved_dir(tmp_path)
    data = json.loads((target / MANIFEST_NAME).read_text(encoding="utf-8"))
    blob = (target / WEIGHTS_NAME).read_bytes()
    first = data["weights"]["layout"][0]
    count = int(np.prod(first["shape"]))
    stored = np.frombuffer(blob, dtype="<f8", count=count, offset=first["offset"])
    assert np.array_equal(stored.reshape(first["shape"]), model.params[first["name"]])


def test_save_refuses_non_finite_parameters(tmp_path):
    vocab = Vocabulary.from_words(WORDS)
    model = init_model(ModelConfig(vocab_size=vocab.size, L=10), 0)
    model.params["conv1_bias"][0] = np.nan
    with pytest.raises(PersistError, match="non-finite parameter in conv1_bias"):
        save_model(model, vocab, EmoticonLexicon.default(), TrainConfig(), tmp_path / "m")


# -------------------------------------------------------- corruptions


def test_missing_manifest_rejected(tmp_path):
    target, *_ = saved_dir(tmp_path)
    (target / MANIFEST_NAME).unlink()
    with pytest.raises(PersistError, match="missing"):
        load_model(target)


def test_missing_weights_rejected(tmp_path):
    target, *_ = saved_dir(tmp_path)
    (target / WEIGHTS_NAME).unlink()
    with pytest.raises(PersistError, match="missing"):
        load_model(target)


def test_invalid_json_rejected(tmp_path):
    target, *_ = saved_dir(tmp_path)
    (target / MANIFEST_NAME).write_text("{not json", encoding="utf-8")
    with pytest.raises(PersistError, match="unreadable manifest"):
        load_model(target)


def test_non_object_manifest_rejected(tmp_path):
    target, *_ = saved_dir(tmp_path)
    (target / MANIFEST_NAME).write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(PersistError, match="JSON object"):
        load_model(target)


def test_unknown_format_version_rejected(tmp_path):
    target, *_ = saved_dir(tmp_path)
    edit_manifest(target, lambda d: d.update(format_version=99))
    with pytest.raises(PersistError, match="unknown format_version: 99"):
        load_model(target)


def test_missing_manifest_key_rejected(tmp_path):
    target, *_ = saved_dir(tmp_path)
    edit_manifest(target, lambda d: d.pop("vocabulary"))
    with pytest.raises(PersistError, match="invalid manifest"):
        load_model(target)


def test_vocab_size_mismatch_rejected(tmp_path):
    target, *_ = saved_dir(tmp_path)
    edit_manifest(target, lambda d: d["vocabulary"].append("extra"))
    with pytest.raises(PersistError, match="vocabulary holds 13"):
        load_model(target)


def total_bytes(model_dir) -> int:
    return (model_dir / WEIGHTS_NAME).stat().st_size


def test_reordered_layout_rejected(tmp_path):
    target, *_ = saved_dir(tmp_path)

    def swap(d):
        layout = d["weights"]["layout"]
        layout[0]["name"], layout[1]["name"] = layout[1]["name"], layout[0]["name"]

    edit_manifest(target, swap)
    message = ("invalid manifest: weights.layout[0].name is 'conv1_kernel', "
               "the model config implies 'embedding'")
    with pytest.raises(PersistError, match=re.escape(message)):
        load_model(target)


def test_tampered_shape_rejected(tmp_path):
    target, *_ = saved_dir(tmp_path)

    def grow(d):
        d["weights"]["layout"][0]["shape"][0] += 1

    edit_manifest(target, grow)
    message = "invalid manifest: weights.layout[0].shape[0] is 13, the model config implies 12"
    with pytest.raises(PersistError, match=re.escape(message)):
        load_model(target)


def test_tampered_offset_rejected(tmp_path):
    target, *_ = saved_dir(tmp_path)

    def shift(d):
        d["weights"]["layout"][1]["offset"] += 8

    edit_manifest(target, shift)
    embedding_bytes = 12 * 128 * 8
    message = (f"invalid manifest: weights.layout[1].offset is {embedding_bytes + 8}, "
               f"the model config implies {embedding_bytes}")
    with pytest.raises(PersistError, match=re.escape(message)):
        load_model(target)


def test_total_bytes_mismatch_rejected(tmp_path):
    target, *_ = saved_dir(tmp_path)
    edit_manifest(target, lambda d: d["weights"].update(total_bytes=1))
    message = (f"invalid manifest: weights.total_bytes is 1, "
               f"the model config implies {total_bytes(target)}")
    with pytest.raises(PersistError, match=re.escape(message)):
        load_model(target)


def test_infinite_byte_count_rejected(tmp_path):
    target, *_ = saved_dir(tmp_path)
    # json writes the float as Infinity and reads it back as inf.
    edit_manifest(target, lambda d: d["weights"].update(total_bytes=float("inf")))
    message = (f"invalid manifest: weights.total_bytes is inf, "
               f"the model config implies {total_bytes(target)}")
    with pytest.raises(PersistError, match=re.escape(message)):
        load_model(target)


@pytest.mark.parametrize(
    "where, mutate",
    [
        ("weights.layout[0].shape[0]", lambda w: w["layout"][0]["shape"].__setitem__(0, 12.5)),
        ("weights.layout[1].offset", lambda w: w["layout"][1].update(offset=w["layout"][1]["offset"] + 0.5)),
        ("weights.total_bytes", lambda w: w.update(total_bytes=w["total_bytes"] + 0.5)),
        ("weights.layout[0].offset", lambda w: w["layout"][0].update(offset=False)),
        ("weights.file", lambda w: w.update(file="other.bin")),
        ("weights is", lambda w: w.update(extra=1)),
        ("weights.layout is", lambda w: w["layout"].pop()),
        ("weights.layout[2] is", lambda w: w["layout"][2].pop("offset")),
    ],
)
def test_weights_table_that_differs_from_the_config_rejected(tmp_path, where, mutate):
    """Fractional layout numbers, a bool, another blob name, an extra key and
    a missing entry all differ from the table the model config implies."""
    target, *_ = saved_dir(tmp_path)
    edit_manifest(target, lambda d: mutate(d["weights"]))
    with pytest.raises(PersistError, match=re.escape(f"invalid manifest: {where}")):
        load_model(target)


def test_weights_table_numbers_that_equal_the_config_load(tmp_path):
    target, model, *_ = saved_dir(tmp_path)

    def as_floats(d):
        d["weights"]["layout"][0]["shape"] = [12.0, 128.0]
        d["weights"]["total_bytes"] = float(d["weights"]["total_bytes"])

    edit_manifest(target, as_floats)
    loaded, *_ = load_model(target)
    assert loaded.params["embedding"].shape == (12, 128)
    assert np.array_equal(loaded.params["embedding"], model.params["embedding"])


def test_truncated_blob_rejected(tmp_path):
    target, *_ = saved_dir(tmp_path)
    blob = (target / WEIGHTS_NAME).read_bytes()
    (target / WEIGHTS_NAME).write_bytes(blob[:-8])
    with pytest.raises(PersistError, match="blob size mismatch"):
        load_model(target)


def test_padded_blob_rejected(tmp_path):
    target, *_ = saved_dir(tmp_path)
    with open(target / WEIGHTS_NAME, "ab") as handle:
        handle.write(b"\x00" * 8)
    with pytest.raises(PersistError, match="blob size mismatch"):
        load_model(target)


def test_nan_in_blob_rejected(tmp_path):
    target, *_ = saved_dir(tmp_path)
    data = json.loads((target / MANIFEST_NAME).read_text(encoding="utf-8"))
    offset = next(
        entry["offset"]
        for entry in data["weights"]["layout"]
        if entry["name"] == "dense1_weight"
    )
    blob = bytearray((target / WEIGHTS_NAME).read_bytes())
    blob[offset : offset + 8] = struct.pack("<d", float("nan"))
    (target / WEIGHTS_NAME).write_bytes(bytes(blob))
    with pytest.raises(PersistError, match="non-finite parameter in dense1_weight"):
        load_model(target)


def test_bad_model_config_value_rejected(tmp_path):
    target, *_ = saved_dir(tmp_path)
    edit_manifest(target, lambda d: d["model_config"].update(L=4))
    with pytest.raises(PersistError, match="invalid manifest"):
        load_model(target)


@pytest.mark.parametrize(
    "key, value",
    [("L", 10.0), ("vocab_size", 12.0), ("embed_dim", 128.0), ("kernel", 3.0),
     ("dense_hidden", True), ("L", "10")],
)
def test_size_that_is_not_an_integer_rejected(tmp_path, key, value):
    target, *_ = saved_dir(tmp_path)
    edit_manifest(target, lambda d: d["model_config"].update({key: value}))
    message = f"invalid manifest: {key} must be an integer, got {value!r}"
    with pytest.raises(PersistError, match=message):
        load_model(target)


@pytest.mark.parametrize("key, value", [("batch_size", 8.5), ("epochs", 2.0), ("seed", True)])
def test_train_config_value_that_is_not_an_integer_rejected(tmp_path, key, value):
    target, *_ = saved_dir(tmp_path)
    edit_manifest(target, lambda d: d["train_config"].update({key: value}))
    message = f"invalid manifest: {key} must be an integer, got {value!r}"
    with pytest.raises(PersistError, match=re.escape(message)):
        load_model(target)


def test_model_config_with_other_than_four_classes_rejected(tmp_path):
    target, *_ = saved_dir(tmp_path)
    edit_manifest(target, lambda d: d["model_config"].update(classes=3))
    with pytest.raises(PersistError, match="invalid manifest: classes must be 4, got 3"):
        load_model(target)


def set_vocabulary_word(value):
    return lambda d: d["vocabulary"].__setitem__(0, value)


def set_lexicon_row(value):
    return lambda d: d["lexicon"].__setitem__(1, value)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (set_vocabulary_word(None), "vocabulary[0] must be a string, got None"),
        (set_vocabulary_word(7), "vocabulary[0] must be a string, got 7"),
        (set_lexicon_row("ab"), "lexicon[1] must be an [emoji, phrase] pair of strings, got 'ab'"),
        (set_lexicon_row(["a", "b", "c"]),
         "lexicon[1] must be an [emoji, phrase] pair of strings, got ['a', 'b', 'c']"),
        (set_lexicon_row(["a", 1]), "lexicon[1] must be an [emoji, phrase] pair of strings, got ['a', 1]"),
        (lambda d: d.update(vocabulary="word0"), "vocabulary must be a list"),
    ],
    ids=["null word", "numeric word", "one-string row", "three-item row", "numeric phrase",
         "string vocabulary"],
)
def test_vocabulary_and_lexicon_entries_must_be_strings(tmp_path, mutate, message):
    target, *_ = saved_dir(tmp_path)
    edit_manifest(target, mutate)
    with pytest.raises(PersistError, match=re.escape(f"invalid manifest: {message}")):
        load_model(target)
