"""End-to-end command-line behaviour: flags, files, exit codes."""

from __future__ import annotations

import contextlib
import csv
import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from naive_oracles import gemm_model_forward

from emoticnn import nn, train
from emoticnn.cli import main as cli_main
from emoticnn.corpus import MODE_EMOTICON_TEXT, MODE_TEXT_ONLY, load_dataset
from emoticnn.persist import load_model

TRAIN_OUTPUTS = ("model.json", "weights.bin", "history.csv", "confusion.csv", "train.csv", "test.csv")


def read_csv(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


@contextlib.contextmanager
def no_runtime_warnings():
    """Fail if the block emits a RuntimeWarning, such as numpy's overflow warnings.

    A diverging run is reported by the CLI's own error or warning line;
    numpy's warnings would only print the package's source path before it.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


def quick_train_args(data, out, **overrides):
    settings = {"epochs": 2, "seed": 1, "max-len": 14, "batch-size": 16}
    settings.update(overrides)
    argv = ["train", "--data", str(data), "--out", str(out)]
    for key, value in settings.items():
        argv += [f"--{key}", str(value)]
    return argv


# -------------------------------------------------------------- synth


def test_synth_writes_balanced_deterministic_csv(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["synth", "--n", "200", "--seed", "9", "--out", str(a)]) == 0
    assert f"wrote 200 tweets to {a}" in capsys.readouterr().out
    assert cli_main(["synth", "--n", "200", "--seed", "9", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    tweets = load_dataset(a)
    assert len(tweets) == 200
    labels = [t.label for t in tweets]
    assert all(labels.count(code) == 50 for code in (1, 2, 3, 4))


def test_synth_rejects_tiny_counts(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["synth", "--n", "2", "--out", str(tmp_path / "x.csv")])
    assert excinfo.value.code == 2


def test_synth_text_signal_has_no_emoji(tmp_path):
    path = tmp_path / "plain.csv"
    assert cli_main(["synth", "--n", "40", "--seed", "0", "--out", str(path), "--text-signal"]) == 0
    for tweet in load_dataset(path):
        assert all(ord(ch) < 0x2000 for ch in tweet.text), tweet.text


# -------------------------------------------------------------- train


def test_train_writes_all_artifacts(trained_run):
    for name in TRAIN_OUTPUTS:
        assert (trained_run / name).is_file(), name


def test_train_prints_final_accuracy(synth_csv, tmp_path, capsys):
    out = tmp_path / "run"
    assert cli_main(quick_train_args(synth_csv, out)) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("final test accuracy: ")
    printed = float(stdout.split(": ")[1])
    history = read_csv(out / "history.csv")
    assert printed == pytest.approx(float(history[-1]["test_acc"]), abs=5e-7)


def test_train_history_layout(trained_run):
    history = read_csv(trained_run / "history.csv")
    assert list(history[0]) == ["epoch", "train_loss", "train_acc", "test_acc"]
    assert len(history) == 12
    assert [int(row["epoch"]) for row in history] == list(range(1, 13))
    for row in history:
        float(row["train_loss"]), float(row["train_acc"]), float(row["test_acc"])


@pytest.mark.parametrize(
    ("name", "header"),
    [
        ("history.csv", b"epoch,train_loss,train_acc,test_acc\n"),
        ("confusion.csv", b"actual,Sad,Happy,Love,Angry,total\n"),
        ("train.csv", b"text,label\n"),
        ("test.csv", b"text,label\n"),
    ],
)
def test_train_csv_header_bytes(trained_run, name, header):
    # The history header comes from EpochRecord's field names, so renaming
    # a field would change the artifact; this pins the published layout.
    data = (trained_run / name).read_bytes()
    assert data.startswith(header)
    assert b"\r" not in data and data.endswith(b"\n")


def test_train_is_byte_reproducible(synth_csv, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(quick_train_args(synth_csv, out_a)) == 0
    assert cli_main(quick_train_args(synth_csv, out_b)) == 0
    for name in TRAIN_OUTPUTS:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_train_confusion_rows_sum_to_split_sizes(trained_run):
    rows = read_csv(trained_run / "confusion.csv")
    assert list(rows[0]) == ["actual", "Sad", "Happy", "Love", "Angry", "total"]
    assert [row["actual"] for row in rows] == ["Sad", "Happy", "Love", "Angry"]
    for row in rows:
        counts = [int(row[name]) for name in ("Sad", "Happy", "Love", "Angry")]
        assert sum(counts) == int(row["total"])
    grand_total = sum(int(row["total"]) for row in rows)
    assert grand_total == len(load_dataset(trained_run / "test.csv"))
    assert grand_total == 100  # 400 tweets at a 0.75 split


def test_train_split_csvs_partition_the_input(synth_csv, trained_run):
    train_rows = load_dataset(trained_run / "train.csv")
    test_rows = load_dataset(trained_run / "test.csv")
    assert len(train_rows) == 300 and len(test_rows) == 100
    combined = sorted((t.text, t.label) for t in train_rows + test_rows)
    original = sorted((t.text, t.label) for t in load_dataset(synth_csv))
    assert combined == original


def test_train_saved_model_records_mode(synth_csv, tmp_path):
    out = tmp_path / "textonly"
    assert cli_main(quick_train_args(synth_csv, out, mode="text-only")) == 0
    *_, train_cfg = load_model(out)
    assert train_cfg.mode == MODE_TEXT_ONLY


def test_train_requires_data_flag(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["train", "--out", str(tmp_path / "x")])
    assert excinfo.value.code == 2


def test_train_missing_data_file_fails_cleanly(tmp_path, capsys):
    rc = cli_main(quick_train_args(tmp_path / "nope.csv", tmp_path / "out"))
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["train", "eval"])
def test_unreadable_csv_fails_cleanly(trained_run, tmp_path, capsys, command):
    data = tmp_path / "huge_field.csv"
    data.write_text(f"text,label\nok,1\n{'x' * 140_000},2\n", encoding="utf-8")
    if command == "train":
        argv = quick_train_args(data, tmp_path / "out")
    else:
        argv = ["eval", "--model", str(trained_run), "--data", str(data), "--out", str(tmp_path)]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err.startswith("error: unreadable CSV at row 3: ")


def test_train_rejects_too_short_max_len(synth_csv, tmp_path, capsys):
    rc = cli_main(quick_train_args(synth_csv, tmp_path / "out", **{"max-len": 8}))
    assert rc == 1
    assert "too short" in capsys.readouterr().err


# Each input file with one byte that is not UTF-8, on the line noted.
NON_UTF8_INPUTS = {
    "--data": (b"text,label\nfine,1\n\"two\nlines \xff\",2\n", 4),
    "--lexicon": ("\U0001F60A\tsmile\n".encode() + b"bad \xff\tphrase\n", 2),
    "--config": (b'{"epochs": 2,\n "seed": "\xff"}', 2),
}


@pytest.mark.parametrize("flag", sorted(NON_UTF8_INPUTS))
def test_non_utf8_input_names_its_file_and_line(synth_csv, tmp_path, capsys, flag):
    content, line = NON_UTF8_INPUTS[flag]
    bad = tmp_path / f"bad{flag}"
    bad.write_bytes(content)
    argv = quick_train_args(synth_csv, tmp_path / "out")
    if flag == "--data":
        argv[argv.index("--data") + 1] = str(bad)
    else:
        argv += [flag, str(bad)]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}, line {line}: not valid UTF-8 (invalid start byte at byte ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_byte_order_mark_is_named_in_the_header_error(tmp_path, capsys):
    data = tmp_path / "exported.csv"
    data.write_bytes(b"\xef\xbb\xbftext,label\nhello there,1\n")
    assert cli_main(quick_train_args(data, tmp_path / "out")) == 1
    assert capsys.readouterr().err == (
        "error: bad header ['\\ufefftext', 'label']: the file starts with a UTF-8 "
        "byte-order mark; expected 'text,label'\n"
    )


def test_split_without_training_posts_says_so(tmp_path, capsys):
    data = tmp_path / "one.csv"
    data.write_text("text,label\nhello there,2\n", encoding="utf-8")
    assert cli_main(quick_train_args(data, tmp_path / "out")) == 1
    assert capsys.readouterr().err == (
        "error: the train/test split of 1 post(s) left the training part empty\n"
    )
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------- config


def test_config_file_supplies_settings(synth_csv, tmp_path, capsys):
    config = tmp_path / "settings.json"
    config.write_text(json.dumps({"epochs": 3, "max_len": 14, "batch_size": 16, "seed": 1}))
    out = tmp_path / "run"
    rc = cli_main(["train", "--data", str(synth_csv), "--out", str(out), "--config", str(config)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert len(read_csv(out / "history.csv")) == 3


def test_explicit_flag_overrides_config_with_warning(synth_csv, tmp_path, capsys):
    config = tmp_path / "settings.json"
    config.write_text(json.dumps({"epochs": 5, "max_len": 14, "batch_size": 16}))
    out = tmp_path / "run"
    rc = cli_main(
        ["train", "--data", str(synth_csv), "--out", str(out),
         "--config", str(config), "--epochs", "2"]
    )
    assert rc == 0
    assert "warning: --epochs overrides 'epochs' from the config file" in capsys.readouterr().err
    assert len(read_csv(out / "history.csv")) == 2


def test_config_only_keys_reach_the_optimizer(synth_csv, tmp_path, capsys):
    # A preposterous learning rate must flow through and blow up training.
    config = tmp_path / "settings.json"
    config.write_text(json.dumps({"lr": 1e100, "epochs": 2, "max_len": 14, "batch_size": 16}))
    with no_runtime_warnings():
        rc = cli_main(
            ["train", "--data", str(synth_csv), "--out", str(tmp_path / "run"),
             "--config", str(config)]
        )
    assert rc == 1
    assert "training diverged" in capsys.readouterr().err


def test_non_finite_config_value_fails_before_writing(synth_csv, tmp_path, capsys):
    # JSON config files can carry Infinity and NaN, which json.load accepts.
    config = tmp_path / "settings.json"
    config.write_text('{"epsilon": Infinity, "epochs": 1, "max_len": 14}')
    out = tmp_path / "run"
    rc = cli_main(["train", "--data", str(synth_csv), "--out", str(out), "--config", str(config)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: config file {config}: optimizer hyperparameters out of range: "
        "lr=0.001, rho=0.9, epsilon=inf\n"
    )
    assert not (out / "model.json").exists()


def test_config_precision_float32_round_trips(synth_csv, tmp_path):
    config = tmp_path / "settings.json"
    config.write_text(json.dumps({"precision": "float32", "epochs": 2, "max_len": 14, "batch_size": 16}))
    out = tmp_path / "run"
    rc = cli_main(["train", "--data", str(synth_csv), "--out", str(out), "--config", str(config)])
    assert rc == 0
    model, *_ = load_model(out)
    assert model.config.precision == "float32"


def test_unknown_config_key_fails(synth_csv, tmp_path, capsys):
    config = tmp_path / "settings.json"
    config.write_text(json.dumps({"learning_rate": 0.1}))
    rc = cli_main(
        ["train", "--data", str(synth_csv), "--out", str(tmp_path / "run"),
         "--config", str(config)]
    )
    assert rc == 1
    assert "unknown keys: learning_rate" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("settings", "message"),
    [
        ({"epochs": "3"}, "epochs must be an integer, got '3'"),
        ({"epochs": 2.5}, "epochs must be an integer, got 2.5"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"max_len": "x"}, "max_len must be an integer, got 'x'"),
        ({"lr": "0.1"}, "lr must be a number, got '0.1'"),
        ({"batch_size": None}, "batch_size must be an integer, got None"),
        ({"lexicon": True}, "lexicon must be a string or null, got True"),
        ({"lexicon": 0}, "lexicon must be a string or null, got 0"),
    ],
    # The ids quote the key, as the messages did before they named the file.
    ids=lambda value: None if isinstance(value, dict) else "'{}' {}".format(*value.split(" ", 1)),
)
def test_config_value_of_wrong_type_fails(synth_csv, tmp_path, capsys, settings, message):
    config = tmp_path / "settings.json"
    config.write_text(json.dumps(settings))
    out = tmp_path / "run"
    rc = cli_main(["train", "--data", str(synth_csv), "--out", str(out), "--config", str(config)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: config file {config}: {message}\n"
    assert not out.exists()


def test_config_range_error_names_the_file(synth_csv, tmp_path, capsys):
    config = tmp_path / "settings.json"
    config.write_text(json.dumps({"batch_size": 0}))
    out = tmp_path / "run"
    rc = cli_main(["train", "--data", str(synth_csv), "--out", str(out), "--config", str(config)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: config file {config}: batch_size must be at least 1, got 0\n"
    )
    assert not out.exists()


def test_out_of_range_config_value_fails_even_when_a_flag_overrides_it(synth_csv, tmp_path, capsys):
    config = tmp_path / "settings.json"
    config.write_text(json.dumps({"epochs": 0, "max_len": 14}))
    out = tmp_path / "run"
    argv = ["train", "--data", str(synth_csv), "--out", str(out), "--config", str(config),
            "--epochs", "3"]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: config file {config}: epochs must be at least 1, got 0\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    ("flags", "message"),
    [
        (["--epochs", "0"], "epochs must be at least 1, got 0"),
        (["--max-len", "8"], "sequence length 8 is too short for kernel 3: "
                             "the layer stack needs L >= 10"),
    ],
)
def test_settings_error_is_reported_before_the_dataset_is_read(tmp_path, capsys, flags, message):
    argv = ["train", "--data", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "run"), *flags]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("where", ["flag", "config"])
def test_max_len_too_large_for_an_index_fails_cleanly(synth_csv, tmp_path, capsys, where):
    # A value that still fits an index reaches pad (the next test).
    out = tmp_path / "run"
    argv = ["train", "--data", str(synth_csv), "--out", str(out), "--epochs", "1"]
    if where == "flag":
        length = 10**20
        argv += ["--max-len", str(length)]
    else:
        length = 10**400 - 1
        config = tmp_path / "settings.json"
        config.write_text(f'{{"max_len": {length}}}')
        argv += ["--config", str(config)]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [captured.err.rstrip("\n")]
    assert captured.err.startswith("error: ")
    assert f"sequence length {length} is too long" in captured.err
    assert not out.exists()


def test_max_len_too_large_to_allocate_fails_with_one_error_line(tmp_path):
    """L = 10**12 fits an index, but pad cannot allocate its padding. The
    child runs under a 4 GB address-space limit, so that the allocation fails
    at once however the machine overcommits memory."""
    data = tmp_path / "data.csv"
    assert cli_main(["synth", "--n", "40", "--seed", "2", "--out", str(data)]) == 0
    child = ("import resource, sys; from emoticnn.cli import main; "
             "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30)); "
             "sys.exit(main(sys.argv[1:]))")
    result = subprocess.run(
        [sys.executable, "-c", child, "train", "--data", str(data), "--out", "o",
         "--epochs", "1", "--max-len", "1000000000000"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "error: out of memory\n"
    assert not (tmp_path / "o").exists()


def test_non_object_config_fails(synth_csv, tmp_path, capsys):
    config = tmp_path / "settings.json"
    config.write_text("[1, 2, 3]")
    rc = cli_main(
        ["train", "--data", str(synth_csv), "--out", str(tmp_path / "run"),
         "--config", str(config)]
    )
    assert rc == 1
    assert "JSON object" in capsys.readouterr().err


def test_config_json_syntax_error_names_its_file(synth_csv, tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text('{"epochs": 2,\n}\n', encoding="utf-8")
    argv = quick_train_args(synth_csv, tmp_path / "out") + ["--config", str(config)]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {config}, line 2, column 1: not valid JSON "
        "(Expecting property name enclosed in double quotes)\n"
    )
    assert not (tmp_path / "out").exists()


# --------------------------------------------------------------- eval


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_manifest_word_or_lexicon_row_that_is_not_a_string_fails(trained_run, tmp_path, capsys, command):
    broken = tmp_path / "broken"
    shutil.copytree(trained_run, broken)
    manifest = broken / "model.json"
    data = json.loads(manifest.read_text(encoding="utf-8"))
    data["lexicon"].append("ab")
    data["vocabulary"][0] = None
    manifest.write_text(json.dumps(data), encoding="utf-8")
    if command == "eval":
        argv = ["eval", "--model", str(broken), "--data", str(trained_run / "test.csv"),
                "--out", str(tmp_path / "out")]
    else:
        argv = ["predict", "--model", str(broken), "--text", "a banana day 😊"]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid manifest: vocabulary[0] must be a string, got None\n"
    assert not (tmp_path / "out").exists()


def test_eval_reproduces_training_accuracy(trained_run, tmp_path, capsys):
    rc = cli_main(
        ["eval", "--model", str(trained_run), "--data", str(trained_run / "test.csv"),
         "--out", str(tmp_path)]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    printed = float(stdout.splitlines()[0].split(": ")[1])
    last = float(read_csv(trained_run / "history.csv")[-1]["test_acc"])
    assert printed == pytest.approx(last, abs=5e-7)
    assert (tmp_path / "confusion.csv").read_bytes() == (trained_run / "confusion.csv").read_bytes()


def test_eval_prints_labelled_table(trained_run, tmp_path, capsys):
    rc = cli_main(
        ["eval", "--model", str(trained_run), "--data", str(trained_run / "test.csv"),
         "--out", str(tmp_path)]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["Sad", "Happy", "Love", "Angry"]
    for name, line in zip(("Sad", "Happy", "Love", "Angry"), lines[2:6]):
        fields = line.split()
        assert fields[0] == name
        assert len(fields) == 5 and all(f.isdigit() for f in fields[1:])


def test_eval_rejects_corrupted_weights(trained_run, tmp_path, capsys):
    broken = tmp_path / "broken"
    shutil.copytree(trained_run, broken)
    blob = (broken / "weights.bin").read_bytes()
    (broken / "weights.bin").write_bytes(blob[:-4])
    rc = cli_main(["eval", "--model", str(broken), "--data", str(trained_run / "test.csv")])
    assert rc == 1
    assert "blob size mismatch" in capsys.readouterr().err


def test_eval_on_a_header_only_dataset_fails_with_one_error_line(trained_run, tmp_path, capsys):
    data = tmp_path / "empty.csv"
    data.write_bytes(b"text,label\n")
    rc = cli_main(["eval", "--model", str(trained_run), "--data", str(data), "--out", str(tmp_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: cannot evaluate on an empty dataset\n")
    assert not (tmp_path / "confusion.csv").exists()


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_non_utf8_manifest_names_its_file_and_line(trained_run, tmp_path, capsys, command):
    broken = tmp_path / "broken"
    shutil.copytree(trained_run, broken)
    manifest = broken / "model.json"
    text = manifest.read_bytes()
    manifest.write_bytes(text + b"\xff")
    line = text.count(b"\n") + 1
    if command == "eval":
        argv = ["eval", "--model", str(broken), "--data", str(trained_run / "test.csv"),
                "--out", str(tmp_path / "out")]
    else:
        argv = ["predict", "--model", str(broken), "--text", "hello"]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err_lines = captured.err.splitlines()
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: ")
    assert f"{manifest}, line {line}: not valid UTF-8 (invalid start byte at byte " in err_lines[0]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_truncated_manifest_names_its_file_line_and_column(trained_run, tmp_path, capsys, command):
    broken = tmp_path / "broken"
    shutil.copytree(trained_run, broken)
    manifest = broken / "model.json"
    manifest.write_bytes(manifest.read_bytes()[:100])
    with pytest.raises(json.JSONDecodeError) as excinfo:
        json.loads(manifest.read_text(encoding="utf-8"))
    where = f"line {excinfo.value.lineno}, column {excinfo.value.colno}"
    if command == "eval":
        argv = ["eval", "--model", str(broken), "--data", str(trained_run / "test.csv"),
                "--out", str(tmp_path / "out")]
    else:
        argv = ["predict", "--model", str(broken), "--text", "hello"]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: unreadable manifest: {manifest}, {where}: "
        f"not valid JSON ({excinfo.value.msg})\n"
    )


def three_class_model(trained_run, target):
    """A copy of trained_run cut to 3 classes, its weights table consistent with that."""
    shutil.copytree(trained_run, target)
    manifest = json.loads((target / "model.json").read_text(encoding="utf-8"))
    model, *_ = load_model(trained_run)
    weights = manifest["weights"]
    *_, dense2_weight, dense2_bias = weights["layout"]
    blob = (target / "weights.bin").read_bytes()[: dense2_weight["offset"]]
    blob += (model.params["dense2_weight"][:, :3].astype("<f8").tobytes()
             + model.params["dense2_bias"][:3].astype("<f8").tobytes())
    manifest["model_config"]["classes"] = 3
    dense2_weight["shape"][1] = dense2_bias["shape"][0] = 3
    dense2_bias["offset"] = dense2_weight["offset"] + dense2_weight["shape"][0] * 3 * 8
    weights["total_bytes"] = len(blob)
    (target / "model.json").write_text(json.dumps(manifest), encoding="utf-8")
    (target / "weights.bin").write_bytes(blob)


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_model_with_other_than_four_classes_fails_cleanly(trained_run, tmp_path, capsys, command):
    broken = tmp_path / "three"
    three_class_model(trained_run, broken)
    if command == "eval":
        argv = ["eval", "--model", str(broken), "--data", str(trained_run / "test.csv"),
                "--out", str(tmp_path / "out")]
    else:
        argv = ["predict", "--model", str(broken), "--text", "hello"]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid manifest: classes must be 4, got 3\n"


def test_eval_missing_model_dir_fails(trained_run, tmp_path, capsys):
    rc = cli_main(
        ["eval", "--model", str(tmp_path / "ghost"), "--data", str(trained_run / "test.csv")]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: missing")


# ------------------------------------------------------------ predict


def test_predict_labels_an_obvious_post(trained_run, capsys):
    rc = cli_main(["predict", "--model", str(trained_run), "--text", "good morning 😊"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "prediction: Happy"
    assert len(lines) == 5


def test_predict_probabilities_sum_to_one(trained_run, capsys):
    rc = cli_main(["predict", "--model", str(trained_run), "--text", "what a day 😭"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    names = [line.split()[0] for line in lines[1:]]
    assert names == ["Sad", "Happy", "Love", "Angry"]
    probs = [float(line.split()[1]) for line in lines[1:]]
    assert abs(sum(probs) - 1.0) < 1e-6
    assert all(0.0 <= p <= 1.0 for p in probs)


def test_predict_accepts_empty_text(trained_run, capsys):
    rc = cli_main(["predict", "--model", str(trained_run), "--text", ""])
    assert rc == 0
    assert capsys.readouterr().out.startswith("prediction: ")


# ------------------------------------------------------------- ablate


@pytest.fixture(scope="module")
def ablation_run(tmp_path_factory):
    data = tmp_path_factory.mktemp("ablate") / "data.csv"
    assert cli_main(["synth", "--n", "160", "--seed", "4", "--out", str(data)]) == 0
    out = tmp_path_factory.mktemp("ablate") / "out"
    rc = cli_main(
        ["ablate", "--data", str(data), "--out", str(out),
         "--epochs", "2", "--seed", "1", "--max-len", "14", "--batch-size", "16"]
    )
    assert rc == 0
    return out


def test_ablate_has_no_mode_flag(synth_csv, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["ablate", "--data", str(synth_csv), "--out", str(tmp_path / "out"),
                  "--mode", "text-only"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --mode text-only" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


TRAIN_HELP = """\
usage: emoticnn train [-h] --data DATA --out OUT [--mode {emoticon,text-only}]
                      [--batch-size BATCH_SIZE] [--epochs EPOCHS]
                      [--seed SEED] [--max-len MAX_LEN] [--lexicon LEXICON]
                      [--config CONFIG]

options:
  -h, --help            show this help message and exit
  --data DATA           dataset CSV with a text,label header
  --out OUT             output directory
  --mode {emoticon,text-only}
                        emoticon: replace emoji with phrases; text-only:
                        delete them (default: emoticon)
  --batch-size BATCH_SIZE
                        minibatch size (default: 32)
  --epochs EPOCHS       training epochs (default: 200)
  --seed SEED           seed for split/init/shuffling (default: 0)
  --max-len MAX_LEN     padded sequence length (default: 64)
  --lexicon LEXICON     emoticon lexicon file (emoji<TAB>phrase per line)
  --config CONFIG       JSON settings file; explicit flags win
"""


def test_train_help_lists_every_flag_with_its_default(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["train", "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out == TRAIN_HELP


def test_ablate_writes_summary_and_histories(ablation_run):
    data = (ablation_run / "ablation.csv").read_bytes()
    assert data.startswith(b"mode,final_test_acc,best_test_acc,best_epoch,status\n")
    assert b"\r" not in data
    rows = read_csv(ablation_run / "ablation.csv")
    assert list(rows[0]) == ["mode", "final_test_acc", "best_test_acc", "best_epoch", "status"]
    assert [row["mode"] for row in rows] == [MODE_EMOTICON_TEXT, MODE_TEXT_ONLY]
    for row in rows:
        assert row["status"] == "ok"
        assert 0.0 <= float(row["final_test_acc"]) <= 1.0
        assert float(row["best_test_acc"]) >= float(row["final_test_acc"])
        assert int(row["best_epoch"]) in (1, 2)
        history = read_csv(ablation_run / f"history_{row['mode']}.csv")
        assert len(history) == 2
        assert float(row["final_test_acc"]) == float(history[-1]["test_acc"])
        best = max(float(r["test_acc"]) for r in history)
        assert float(row["best_test_acc"]) == best


def test_ablate_reports_diverged_modes_as_failed(synth_csv, tmp_path, capsys):
    config = tmp_path / "settings.json"
    config.write_text(json.dumps({"lr": 1e100, "epochs": 2, "max_len": 14, "batch_size": 16}))
    out = tmp_path / "out"
    with no_runtime_warnings():
        rc = cli_main(["ablate", "--data", str(synth_csv), "--out", str(out), "--config", str(config)])
    assert rc == 1
    captured = capsys.readouterr()
    for mode in (MODE_EMOTICON_TEXT, MODE_TEXT_ONLY):
        assert f"warning: {mode} run diverged: non-finite loss in epoch" in captured.err
    assert (out / "ablation.csv").read_bytes() == (
        b"mode,final_test_acc,best_test_acc,best_epoch,status\n"
        b"emoticon_text,,,,failed\n"
        b"text_only,,,,failed\n"
    )
    assert captured.out.splitlines()[1].split() == [MODE_EMOTICON_TEXT, "failed"]


def _nan_gradients(monkeypatch):
    """Make every training step's dense1 weight gradient NaN."""
    real_backward = train.model_backward

    def backward(cache, labels):
        grads = real_backward(cache, labels)
        grads["dense1_weight"][0, 0] = np.nan
        return grads

    monkeypatch.setattr(train, "model_backward", backward)


def test_a_non_finite_gradient_ends_train_with_one_error_line(synth_csv, tmp_path, capsys,
                                                                monkeypatch):
    _nan_gradients(monkeypatch)
    out = tmp_path / "out"
    assert cli_main(quick_train_args(synth_csv, out)) == 1
    assert capsys.readouterr().err == (
        "error: training diverged: non-finite gradient for dense1_weight in epoch 1, batch 1\n"
    )
    assert not out.exists()


def test_ablate_reports_a_non_finite_gradient_as_a_failed_mode(synth_csv, tmp_path, capsys,
                                                               monkeypatch):
    _nan_gradients(monkeypatch)
    out = tmp_path / "out"
    argv = ["ablate", "--data", str(synth_csv), "--out", str(out), "--epochs", "1", "--max-len", "14"]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"warning: {mode} run diverged: non-finite gradient for dense1_weight in epoch 1, batch 1"
        for mode in (MODE_EMOTICON_TEXT, MODE_TEXT_ONLY)
    ]
    assert (out / "ablation.csv").read_bytes() == (
        b"mode,final_test_acc,best_test_acc,best_epoch,status\n"
        b"emoticon_text,,,,failed\n"
        b"text_only,,,,failed\n"
    )


def test_ablate_trains_both_modes_to_loadable_models(ablation_run):
    for mode in (MODE_EMOTICON_TEXT, MODE_TEXT_ONLY):
        model, vocab, _, train_cfg = load_model(ablation_run / mode)
        assert train_cfg.mode == mode
        assert model.config.vocab_size == vocab.size


def test_ablate_vocabularies_differ_only_by_lexicon_phrases(ablation_run):
    _, emo_vocab, lexicon, _ = load_model(ablation_run / MODE_EMOTICON_TEXT)
    _, text_vocab, _, _ = load_model(ablation_run / MODE_TEXT_ONLY)
    emo_words = set(emo_vocab.words())
    text_words = set(text_vocab.words())
    phrase_words = {word for _, phrase in lexicon.items() for word in phrase.split()}
    assert emo_words - text_words <= phrase_words
    assert text_words - emo_words == set()


# ------------------------------------------------------ determinism


def test_artifacts_do_not_depend_on_blas_threads(tmp_path):
    data = tmp_path / "data.csv"
    assert cli_main(["synth", "--n", "40", "--seed", "2", "--out", str(data)]) == 0
    for threads in ("1", "2"):
        result = subprocess.run(
            [sys.executable, "-m", "emoticnn.cli", "train", "--data", str(data),
             "--out", f"run{threads}", "--epochs", "3", "--max-len", "12"],
            capture_output=True, text=True, timeout=120, cwd=tmp_path,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
        )
        assert result.returncode == 0, result.stderr
    for name in ("model.json", "weights.bin", "history.csv"):
        assert (tmp_path / "run1" / name).read_bytes() == (tmp_path / "run2" / name).read_bytes(), name


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_train_artifacts_match_the_gemm_forward_byte_for_byte(synth_csv, tmp_path, monkeypatch,
                                                              precision):
    """conv1 from distinct rows relies on BLAS rounding a row of A @ B the
    same whatever A's row count; a whole run pins it against the oracle."""
    config = tmp_path / "settings.json"
    config.write_text(json.dumps({"precision": precision}))
    argv = [*quick_train_args(synth_csv, tmp_path / "fold"), "--config", str(config)]
    assert cli_main(argv) == 0
    monkeypatch.setattr(nn.Model, "forward", gemm_model_forward)
    argv = [*quick_train_args(synth_csv, tmp_path / "gemm"), "--config", str(config)]
    assert cli_main(argv) == 0
    for name in ("weights.bin", "model.json", "history.csv", "confusion.csv"):
        assert (tmp_path / "fold" / name).read_bytes() == (tmp_path / "gemm" / name).read_bytes(), name


# ----------------------------------------------------- installed script


def test_installed_console_script_smoke(tmp_path):
    exe = shutil.which("emoticnn")
    assert exe, "console script not on PATH"
    out = tmp_path / "smoke.csv"
    result = subprocess.run(
        [exe, "synth", "--n", "8", "--seed", "0", "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0
    assert "wrote 8 tweets" in result.stdout
    assert len(load_dataset(out)) == 8


def test_module_entry_point_smoke(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "emoticnn.cli", "synth", "--n", "5", "--out", "x.csv"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert result.returncode == 0
    assert (tmp_path / "x.csv").is_file()


def test_usage_error_exit_code_via_subprocess(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "emoticnn.cli", "synth", "--n", "3", "--out", "x.csv"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert result.returncode == 2
    assert "at least 4" in result.stderr
