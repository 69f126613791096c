"""Command-line interface: train, eval, predict, ablate, and synth.

Every command is a single deterministic process run: identical flags,
inputs, and seed produce byte-identical output files. Exit codes are 0
on success, 1 for runtime failures (I/O, validation, divergence), and 2
for usage errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

from .corpus import (
    CATEGORY_CODES,
    CATEGORY_NAMES,
    MODE_EMOTICON_TEXT,
    MODE_TEXT_ONLY,
    CorpusError,
    EmoticonLexicon,
    Tweet,
    generate_synthetic,
    load_dataset,
    preprocess,
    read_json,
    save_dataset,
    write_csv,
)
from .encode import encode, fit_vocabulary, pad
from .nn import ModelConfig, init_model
from .persist import load_model, save_model
from .train import (
    EpochRecord,
    History,
    TrainConfig,
    TrainingDiverged,
    encode_dataset,
    encode_texts,
    evaluate,
    split_dataset,
    train_model,
)

__all__ = ["build_parser", "main"]

_MODE_FLAGS = {"emoticon": MODE_EMOTICON_TEXT, "text-only": MODE_TEXT_ONLY}


@dataclass(frozen=True)
class RunSettings(TrainConfig):
    """Every run setting: TrainConfig's fields, then the pipeline's. A --config
    file may set any of them but split_ratio; a flag of the same name wins."""

    max_len: int = 64
    lexicon: str | None = None
    precision: str = ModelConfig.precision

    def __post_init__(self) -> None:
        super().__post_init__()
        # max_len and precision must suit the model, whatever its vocabulary.
        ModelConfig(vocab_size=2, L=self.max_len, precision=self.precision)


def _synth_count(value: str) -> int:
    count = int(value)
    if count < 4:
        raise argparse.ArgumentTypeError(f"need at least 4 tweets, got {count}")
    return count


def _add_train_flags(parser: argparse.ArgumentParser, with_mode: bool) -> None:
    parser.add_argument("--data", required=True, help="dataset CSV with a text,label header")
    parser.add_argument("--out", required=True, help="output directory")
    if with_mode:
        default_mode = next(flag for flag, mode in _MODE_FLAGS.items() if mode == RunSettings.mode)
        parser.add_argument(
            "--mode",
            choices=sorted(_MODE_FLAGS),
            default=None,
            help=f"emoticon: replace emoji with phrases; text-only: delete them (default: {default_mode})",
        )
    for key, text in (
        ("batch_size", "minibatch size"),
        ("epochs", "training epochs"),
        ("seed", "seed for split/init/shuffling"),
        ("max_len", "padded sequence length"),
    ):
        parser.add_argument("--" + key.replace("_", "-"), type=int, default=None,
                            help=f"{text} (default: {getattr(RunSettings, key)})")
    parser.add_argument("--lexicon", default=None, help="emoticon lexicon file (emoji<TAB>phrase per line)")
    parser.add_argument("--config", default=None, help="JSON settings file; explicit flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emoticnn",
        description="Four-way emotion classification of microblog posts "
        "with emoticon normalization and a from-scratch 1D CNN.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write reports")
    _add_train_flags(p_train, with_mode=True)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    p_eval.add_argument("--model", required=True, help="directory with model.json and weights.bin")
    p_eval.add_argument("--data", required=True, help="dataset CSV with a text,label header")
    p_eval.add_argument("--out", default=".", help="directory for confusion.csv (default: .)")
    p_eval.set_defaults(func=cmd_eval)

    p_predict = sub.add_parser("predict", help="classify a single text")
    p_predict.add_argument("--model", required=True, help="directory with model.json and weights.bin")
    p_predict.add_argument("--text", required=True, help="raw post text (may be empty)")
    p_predict.set_defaults(func=cmd_predict)

    p_ablate = sub.add_parser(
        "ablate", help="train emoticon and text-only modes with identical settings"
    )
    _add_train_flags(p_ablate, with_mode=False)
    p_ablate.set_defaults(func=cmd_ablate)

    p_synth = sub.add_parser("synth", help="generate a synthetic labeled dataset CSV")
    p_synth.add_argument("--n", required=True, type=_synth_count, help="number of tweets (>= 4)")
    p_synth.add_argument("--seed", type=int, default=0, help="generator seed (default: 0)")
    p_synth.add_argument("--out", required=True, help="output CSV path")
    p_synth.add_argument(
        "--text-signal",
        action="store_true",
        help="carry the label in the words instead of the emoticons",
    )
    p_synth.set_defaults(func=cmd_synth)

    return parser


def _load_config_file(path: str) -> dict:
    data = read_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - {f.name for f in fields(RunSettings) if f.name != "split_ratio"})
    if unknown:
        raise ValueError(f"config file {path} has unknown keys: {', '.join(unknown)}")
    return data


def _resolve_settings(args: argparse.Namespace) -> RunSettings:
    """The defaults, then the --config file, then the explicit flags."""
    config = _load_config_file(args.config) if args.config else {}
    if isinstance(config.get("mode"), str):
        config["mode"] = _MODE_FLAGS.get(config["mode"], config["mode"])
    try:
        settings = RunSettings(**config)
    except ValueError as exc:
        raise ValueError(f"config file {args.config}: {exc}") from None
    flags = {}
    for f in fields(RunSettings):
        if (value := getattr(args, f.name, None)) is None:
            continue
        if f.name in config:
            flag = "--" + f.name.replace("_", "-")
            print(f"warning: {flag} overrides {f.name!r} from the config file", file=sys.stderr)
        flags[f.name] = _MODE_FLAGS[value] if f.name == "mode" else value
    return replace(settings, **flags)


def _train_config(settings: RunSettings) -> TrainConfig:
    return TrainConfig(**{f.name: getattr(settings, f.name) for f in fields(TrainConfig)})


def _write_history(history: History, path: Path) -> None:
    write_csv(path, [f.name for f in fields(EpochRecord)], map(astuple, history))


def _write_confusion(matrix, path: Path) -> None:
    names = [CATEGORY_NAMES[code] for code in CATEGORY_CODES]
    rows = (
        [name, *(int(n) for n in row), total]
        for name, row, total in zip(names, matrix.counts, matrix.row_totals())
    )
    write_csv(path, ["actual", *names, "total"], rows)


def _print_confusion(matrix) -> None:
    names = [CATEGORY_NAMES[code] for code in CATEGORY_CODES]
    width = 7
    print("".rjust(width) + "".join(name.rjust(width) for name in names))
    for code in CATEGORY_CODES:
        row = matrix.counts[code - 1]
        print(CATEGORY_NAMES[code].rjust(width) + "".join(str(int(n)).rjust(width) for n in row))


def _run_training(tweets: list[Tweet], settings: RunSettings, out_dir: Path) -> tuple[float, History]:
    """The full train pipeline for settings.mode; writes all artifacts to out_dir."""
    lexicon = EmoticonLexicon.from_file(settings.lexicon) if settings.lexicon else EmoticonLexicon.default()
    train_cfg = _train_config(settings)

    train_tweets, test_tweets = split_dataset(tweets, train_cfg.split_ratio, train_cfg.seed)
    if not train_tweets:
        raise CorpusError(
            f"the train/test split of {len(tweets)} post(s) left the training part empty"
        )
    train_texts = [preprocess(t.text, lexicon, train_cfg.mode) for t in train_tweets]
    vocab = fit_vocabulary(train_texts)
    model_cfg = ModelConfig(vocab_size=vocab.size, L=settings.max_len, precision=settings.precision)
    train_arrays = encode_texts(train_texts, [t.label for t in train_tweets], vocab, model_cfg.L)
    test_arrays = encode_dataset(test_tweets, vocab, lexicon, train_cfg.mode, model_cfg.L)

    model = init_model(model_cfg, train_cfg.seed)
    model, history = train_model(model, train_arrays, test_arrays, train_cfg)
    accuracy, matrix = evaluate(model, test_arrays)

    out_dir.mkdir(parents=True, exist_ok=True)
    save_model(model, vocab, lexicon, train_cfg, out_dir)
    _write_history(history, out_dir / "history.csv")
    _write_confusion(matrix, out_dir / "confusion.csv")
    save_dataset(train_tweets, out_dir / "train.csv")
    save_dataset(test_tweets, out_dir / "test.csv")
    return accuracy, history


def cmd_train(args: argparse.Namespace) -> int:
    settings = _resolve_settings(args)
    tweets = load_dataset(args.data)
    accuracy, _ = _run_training(tweets, settings, Path(args.out))
    print(f"final test accuracy: {accuracy:.6f}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    model, vocab, lexicon, train_cfg = load_model(args.model)
    tweets = load_dataset(args.data)
    arrays = encode_dataset(tweets, vocab, lexicon, train_cfg.mode, model.config.L)
    accuracy, matrix = evaluate(model, arrays)
    print(f"accuracy: {accuracy:.6f}")
    _print_confusion(matrix)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_confusion(matrix, out_dir / "confusion.csv")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model, vocab, lexicon, train_cfg = load_model(args.model)
    processed = preprocess(args.text, lexicon, train_cfg.mode)
    ids = pad(encode(processed, vocab), model.config.L)
    probs = model.forward(ids)[0][0]
    predicted = int(probs.argmax()) + 1
    print(f"prediction: {CATEGORY_NAMES[predicted]}")
    for code in CATEGORY_CODES:
        print(f"  {CATEGORY_NAMES[code]:<6} {probs[code - 1]:.8f}")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    settings = _resolve_settings(args)
    tweets = load_dataset(args.data)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    header = ["mode", "final_test_acc", "best_test_acc", "best_epoch", "status"]
    rows = []
    for mode in (MODE_EMOTICON_TEXT, MODE_TEXT_ONLY):
        try:
            _, history = _run_training(tweets, replace(settings, mode=mode), out_dir / mode)
        except TrainingDiverged as exc:
            print(f"warning: {mode} run diverged: {exc}", file=sys.stderr)
            rows.append([mode, "", "", "", "failed"])
            continue
        _write_history(history, out_dir / f"history_{mode}.csv")
        best = max(history, key=lambda record: record.test_acc)
        rows.append([mode, history[-1].test_acc, best.test_acc, best.epoch, "ok"])

    write_csv(out_dir / "ablation.csv", header, rows)
    for row in (header, *rows):
        print("  ".join(str(cell).ljust(15) for cell in row))
    return 0 if all(row[-1] == "ok" for row in rows) else 1


def cmd_synth(args: argparse.Namespace) -> int:
    tweets = generate_synthetic(args.n, args.seed, not args.text_signal)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(tweets, out_path)
    print(f"wrote {len(tweets)} tweets to {out_path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrainingDiverged as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        # CorpusError and PersistError are ValueErrors; a MemoryError may carry no message.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
