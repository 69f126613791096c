"""The CLI's failure contract under mutated inputs.

Each example damages one input file (a dataset CSV, a lexicon, a
--config file, model.json or weights.bin) and runs cli.main in-process
on it. Every run must exit 0, or exit 1 with an `error:` line. An
exception escaping cli.main is the traceback a user would see.

Training runs are kept small and bounded: the epochs, the padded
length and the batch size are always set by flag. A mutated config file
still has all its values checked, but can change only the other settings.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emoticnn.cli import main as cli_main

BOUNDS = ["--epochs", "1", "--max-len", "10", "--batch-size", "8"]
LEXICON = "😊\tsmiling face\n😭\tcrying face\n:)\tsmile\n"
CONFIG = {"epochs": 1, "batch_size": 8, "seed": 1, "max_len": 10, "lr": 0.001,
          "rho": 0.9, "mode": "emoticon", "precision": "float32"}
POST = "so happy today 😊 :) (yes)*"

# Bytes worth splicing in: a stray quote, comma, tab or newline, bytes
# that are not UTF-8, a byte-order mark, a NUL, a long number, and lexicon
# lines whose keys the matcher must take literally (regex metacharacters,
# a lone combining mark, a bare zero-width joiner).
SPLICES = [
    b'"', b",", b"\t", b"\n", b"\r", b"\xff", b"\xc3", b"\xef\xbb\xbf", b"\x00",
    b"99999999999999999999", b"-1", b"1e400", b"NaN",
    *(f"\n{key}\tliteral key\n".encode() for key in ("(", "*", ".+", "[", "\\", "\u0301", "\u200d")),
]


def type_swaps(value):
    """Replacement values of other JSON types: float, string, null, bool,
    infinity, integer, list and object."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return [
        float(value) if number else 1.5,
        str(value),
        None,
        bool(value) if number else True,
        1e400,
        int(value) if number and math.isfinite(value) else 7,
        [value],
        {"value": value},
    ]


def leaf_paths(node, path=()):
    """Paths to every value below node, containers included."""
    children = ()
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    for key, child in children:
        yield path + (key,)
        yield from leaf_paths(child, path + (key,))


@st.composite
def spliced(draw, blob: bytes) -> bytes:
    """blob with a span cut out and bytes put in its place, or cut short."""
    at = draw(st.integers(0, len(blob)))
    if draw(st.integers(0, 9)) == 0:
        return blob[:at]
    cut = draw(st.integers(0, 12))
    insert = draw(st.sampled_from(SPLICES) | st.binary(max_size=6))
    return blob[:at] + insert + blob[at + cut :]


@st.composite
def swapped(draw, blob: bytes) -> bytes:
    """The JSON object blob with one value, at any depth, replaced by a
    value of another type."""
    doc = json.loads(blob)
    section = draw(st.sampled_from(sorted(doc)))
    path = (section,) + draw(st.sampled_from([()] + list(leaf_paths(doc[section]))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(st.sampled_from(type_swaps(parent[path[-1]])))
    return json.dumps(doc, ensure_ascii=False).encode()


# The commands that read each input file; a model directory holds the last two.
READERS = {
    "data.csv": ("eval", "train"),
    "lexicon.txt": ("train",),
    "config.json": ("train",),
    "model.json": ("eval", "predict"),
    "weights.bin": ("eval", "predict"),
}
MODEL_FILES = ("model.json", "weights.bin")


def argv(command: str, root: Path) -> list[str]:
    model, data = str(root / "model"), str(root / "data.csv")
    if command == "train":
        return ["train", "--data", data, "--out", str(root / "run"), "--lexicon",
                str(root / "lexicon.txt"), "--config", str(root / "config.json"), *BOUNDS]
    if command == "eval":
        return ["eval", "--model", model, "--data", data, "--out", str(root / "eval")]
    return ["predict", "--model", model, "--text", POST]


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """Valid bytes of every input file, the model trained from them included."""
    root = tmp_path_factory.mktemp("contract")
    (root / "lexicon.txt").write_text(LEXICON, encoding="utf-8")
    (root / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        synth = ["synth", "--n", "24", "--seed", "2", "--out", str(root / "data.csv")]
        assert cli_main(synth) == 0
        assert cli_main(argv("train", root)) == 0, out.getvalue()
    return {name: (root / "run" / name if name in MODEL_FILES else root / name).read_bytes()
            for name in READERS}


def run_commands(files: dict[str, bytes], name: str, mutated: bytes) -> None:
    """Write the files, name's mutated, and run every command that reads it."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "model").mkdir()
        for file, blob in files.items():
            path = root / "model" / file if file in MODEL_FILES else root / file
            path.write_bytes(mutated if file == name else blob)
        for command in READERS[name]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(argv(command, root))
            errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
            assert code == 0 or (code == 1 and errors), (command, code, err.getvalue())


@pytest.mark.parametrize("name, sections", [
    ("model.json", ("model_config", "train_config")),
    ("config.json", (None,)),
])
def test_every_type_swap_of_a_setting_exits_0_or_1_with_an_error_line(originals, name, sections):
    """Each setting of model.json's configs and of the --config file, swapped
    in turn for a float, a string, null, a bool and the other types."""
    doc = json.loads(originals[name])
    for section in sections:
        table = doc[section] if section else doc
        for key, value in list(table.items()):
            for swap in type_swaps(value):
                table[key] = swap
                run_commands(originals, name, json.dumps(doc).encode())
            table[key] = value


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mutated_inputs_exit_0_or_1_with_an_error_line(originals, data):
    name = data.draw(st.sampled_from(sorted(originals)))
    run_commands(originals, name, data.draw(spliced(originals[name])))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_json_type_swaps_exit_0_or_1_with_an_error_line(originals, data):
    name = data.draw(st.sampled_from(["config.json", "model.json"]))
    run_commands(originals, name, data.draw(swapped(originals[name])))
