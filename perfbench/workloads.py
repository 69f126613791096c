"""The three workloads of the emoticnn benchmark and the inputs they use.

Every input is generated by the benchmark: the posts measured follow the
workload seed, the model that `score` and `predict` serve a fixed seed
(see SERVE_SEED). The program sees only the generated CSV files,
argument lists and post texts. Each workload
is a closed loop with one client: the next operation starts when the
previous one has returned.

A workload object is used in this order: ``setup`` (repeated, each time
into a fresh directory; the last one is served), ``op`` once per
operation, ``finish`` for the output checks that need the program, and
``properties`` for the input report.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import io
import random
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import regex

from emoticnn import cli, corpus, persist, train

# The package re-exports the function encode() under the submodule's name.
encoding = importlib.import_module("emoticnn.encode")

# The criterion-5 shape of the acceptance gate: 2000 emoticon-informative
# posts, a 75/25 split, L=18, batch 32, float64. Criterion 5 trains 16
# epochs; 12 keep two commands per run affordable. By then test accuracy
# is 1.0 and the last-epoch loss (about 3e-9) varies by a few percent
# across seeds, where at 8 epochs it still varies by a third.
TRAIN_POSTS = 2000
TRAIN_EPOCHS = 12
TRAIN_LEN = 18
TRAIN_SPLIT = 0.75
TEST_ACC_FLOOR = 0.95

# The model served by `score` and `predict` is trained in set-up, through
# the CLI, on short synthetic posts; `predict` uses the CLI default
# --max-len. Its seed is fixed, so every run serves the same model and
# the accuracy of runs with different seeds differs only by the posts
# served, which do follow the workload seed. (A model trained this
# briefly lands anywhere between about 0.65 and 0.85 request accuracy at
# L=64 depending on its seed, which would swamp any change under test.)
SERVE_SEED = 0
SERVE_TRAIN_POSTS = 600
SERVE_EPOCHS = 3
SCORE_LEN = 18
PREDICT_LEN = 64

SCORE_POSTS = 2000
PREDICT_PROPERTY_SAMPLE = 2000
AGREEMENT_SAMPLE = 64
# One request in four is a long post. Short and long requests take
# about 0.8 and 1.05 ms on a 2-vCPU Xeon virtual machine, so with half
# of each latency_p50_ms would fall between the two modes and jump with
# the mix; at one in four it is the short posts' median (fixed per-call
# cost) and latency_p99_ms the long posts' tail (corpus cost).
LONG_REQUEST_SHARE = 0.25
WARMUP_REQUESTS = 50
PROB_SUM_TOLERANCE = 1e-9

ARTIFACTS = ("model.json", "weights.bin", "history.csv", "confusion.csv", "train.csv", "test.csv")
HASHED_ARTIFACTS = ("weights.bin", "model.json", "history.csv")
CATEGORY_NAMES = ("Sad", "Happy", "Love", "Angry")


class CheckFailed(Exception):
    """An output of the program is not what the workload expects."""


# --------------------------------------------------------------------
# Input generation
# --------------------------------------------------------------------

# Lexicon emoji by category code; the label of a long post is carried by
# its trailing emoji, as in the synthetic posts the model is trained on.
_LABEL_EMOJI = {
    1: ["\U0001F62D", "\U0001F61E", "\U0001F613"],
    2: ["\U0001F60A", "\U0001F604", "\U0001F601"],
    3: ["\U0001F60D", "\U0001F618", "\U0001F617", "\U0001F61A"],
    4: ["\U0001F621", "\U0001F620", "\U0001F62C", "\U0001F60F", "\U0001F5E8️"],
}
_FILLER = [
    "just got off the train", "making pasta for dinner tonight",
    "the meeting ran long again", "new episode drops at midnight",
    "my phone is at 2 percent", "it's been raining since the morning",
    "back at the gym after a week off", "queue at the coffee shop is endless",
    "finally submitted the report", "traffic on the bridge for an hour",
    "planning the weekend trip", "left my umbrella at home again",
    "the playlist is on repeat", "trying that new ramen place",
    "rewatching the old seasons", "laptop update took forever",
    "market was packed this afternoon", "can't believe it's already friday",
    "the neighbours are drilling again", "who else is watching the final",
]
# Emoji outside the lexicon: one code point each ...
_UNKNOWN_EMOJI = ["\U0001F680", "\U0001F355", "\U0001F389", "\U0001F436", "☕",
                  "\U0001F525", "\U0001F4AF", "\U0001F648", "\U0001F914", "\U0001F327"]
# ... and clusters of several: ZWJ sequences, skin tones, flags, VS16 forms.
_MULTI_CODEPOINT = [
    "\U0001F469‍\U0001F4BB", "\U0001F468‍\U0001F469‍\U0001F467",
    "\U0001F3F3️‍\U0001F308", "\U0001F9D1\U0001F3FD‍\U0001F373",
    "\U0001F44D\U0001F3FD", "\U0001F44B\U0001F3FB", "\U0001F4AA\U0001F3FF",
    "\U0001F1EB\U0001F1F7", "\U0001F1EF\U0001F1F5", "\U0001F1E7\U0001F1F7",
    "❤️", "☀️", "✌️", "☺️",
]
_ASCII_EMOTICONS = [":)", ":(", "<3", ":-D", ";)", ":P", "xD", ":/"]
_HASHTAGS = ["monday", "mood", "tbt", "nofilter", "weekend", "fail", "goals", "coffee"]

_EMOJI_RE = regex.compile(r"[\p{Extended_Pictographic}\p{Regional_Indicator}]")
_CLUSTER_RE = regex.compile(r"\X")


def long_post(rng: random.Random, label: int) -> str:
    """One post of about 200 characters, ending in 1-2 label emoji."""
    target = rng.randint(170, 220)
    pieces: list[str] = []
    length = 0
    while length < target:
        kind = rng.random()
        if kind < 0.40:
            piece = rng.choice(_FILLER)
        elif kind < 0.50:
            piece = rng.choice(_UNKNOWN_EMOJI)
        elif kind < 0.64:
            piece = rng.choice(_MULTI_CODEPOINT)
        elif kind < 0.72:
            piece = rng.choice(_ASCII_EMOTICONS)
        elif kind < 0.79:
            piece = f"https://t.co/{rng.getrandbits(40):010x}"
        elif kind < 0.86:
            piece = f"@user{rng.randrange(1000)}"
        elif kind < 0.94:
            piece = "#" + rng.choice(_HASHTAGS)
        else:
            piece = rng.choice(_LABEL_EMOJI[label])
        pieces.append(piece)
        length += len(piece) + 1
    pieces.extend(rng.choice(_LABEL_EMOJI[label]) for _ in range(rng.choice((1, 2))))
    return " ".join(pieces)


def short_post(rng: random.Random, label: int) -> str:
    """A post shaped like the synthetic training posts: filler, then 1-2 label emoji."""
    emoji = [rng.choice(_LABEL_EMOJI[label]) for _ in range(rng.choice((1, 2)))]
    return " ".join([rng.choice(_FILLER), *emoji])


def long_posts(n: int, seed: str) -> list[corpus.Tweet]:
    """n long posts with labels rotating 1, 2, 3, 4."""
    rng = random.Random(f"long-posts-{seed}")
    return [corpus.Tweet(long_post(rng, i % 4 + 1), i % 4 + 1) for i in range(n)]


def request(seed: int, index: int) -> corpus.Tweet:
    """Request number index of a predict run: a short post, or a long one
    with probability LONG_REQUEST_SHARE."""
    rng = random.Random(f"request-{seed}-{index}")
    label = index % 4 + 1
    make = long_post if rng.random() < LONG_REQUEST_SHARE else short_post
    return corpus.Tweet(make(rng, label), label)


def write_csv(tweets, path: Path) -> None:
    """Write posts as a ``text,label`` dataset CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["text", "label"])
        writer.writerows([t.text, t.label] for t in tweets)


def post_properties(texts, vocab, lexicon, mode: str, length: int) -> dict[str, float]:
    """Shares of the input that the corpus and encode layers react to."""
    chars = clusters = multi = produced = kept = oov = 0
    for text in texts:
        emoji = [c for c in _CLUSTER_RE.findall(text) if _EMOJI_RE.search(c)]
        chars += len(text)
        clusters += len(emoji)
        multi += any(len(c) > 1 for c in emoji)
        ids = encoding.encode(corpus.preprocess(text, lexicon, mode), vocab)
        produced += len(ids)
        kept += min(len(ids), length)
        oov += ids.count(encoding.OOV_INDEX)
    n = len(texts)
    return {
        "posts": n,
        "mean_chars_per_post": chars / n,
        "mean_emoji_clusters_per_post": clusters / n,
        "multi_codepoint_emoji_post_share": multi / n,
        "tokens_kept_ratio": kept / produced,
        "oov_share": oov / produced,
    }


# --------------------------------------------------------------------
# Helpers around the program
# --------------------------------------------------------------------

def run_cli(argv: list[str]) -> tuple[float, str]:
    """Run one in-process CLI command; returns its wall time and stdout."""
    out = io.StringIO()
    with redirect_stdout(out):
        started = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - started
    if code != 0:
        raise CheckFailed(f"`emoticnn {argv[0]}` exited with {code}")
    return elapsed, out.getvalue()


def train_argv(data: Path, out: Path, seed: int, epochs: int, length: int) -> list[str]:
    return ["train", "--data", str(data), "--out", str(out), "--mode", "emoticon",
            "--epochs", str(epochs), "--max-len", str(length), "--seed", str(seed),
            "--batch-size", "32"]


def digest(directory: Path, names=HASHED_ARTIFACTS) -> str:
    sha = hashlib.sha256()
    for name in names:
        sha.update(hashlib.sha256((directory / name).read_bytes()).digest())
    return sha.hexdigest()


def read_history(directory: Path) -> list[dict[str, str]]:
    with open(directory / "history.csv", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def read_confusion(path: Path) -> np.ndarray:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["actual", *CATEGORY_NAMES, "total"]:
        raise CheckFailed(f"{path.name}: bad header {rows[0]}")
    counts = np.array([[int(n) for n in row[1:5]] for row in rows[1:]], dtype=np.int64)
    totals = [int(row[5]) for row in rows[1:]]
    if counts.shape != (4, 4) or list(counts.sum(axis=1)) != totals:
        raise CheckFailed(f"{path.name}: rows do not add up to their totals")
    return counts


def serve_model(work: Path, length: int) -> Path:
    """Train, in-process through the CLI, the model a serving workload uses."""
    data = work / "serve_train.csv"
    write_csv(corpus.generate_synthetic(SERVE_TRAIN_POSTS, SERVE_SEED, True), data)
    model_dir = work / "model"
    run_cli(train_argv(data, model_dir, SERVE_SEED, SERVE_EPOCHS, length))
    return model_dir


# --------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------

class Train:
    """`emoticnn train` on the criterion-5 shape, once per operation."""

    name = "train"
    block = 1
    window = 1
    min_ops = 2  # so the determinism check always compares a pair

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.runs: list[tuple[int, Path]] = []

    def setup(self, target: Path) -> str:
        target.mkdir(parents=True)
        self.tweets = corpus.generate_synthetic(TRAIN_POSTS, self.seed, True)
        self.data = target / "data.csv"
        write_csv(self.tweets, self.data)
        return digest(target, ("data.csv",))

    def op(self, index: int) -> tuple[float, int, int]:
        out = self.work / f"train{index}"
        elapsed, _ = run_cli(train_argv(self.data, out, self.seed, TRAIN_EPOCHS, TRAIN_LEN))
        self.runs.append((index, out))
        samples = TRAIN_EPOCHS * int(TRAIN_SPLIT * TRAIN_POSTS)
        return elapsed, samples, TRAIN_POSTS

    def _check(self, out: Path) -> tuple[float, float]:
        missing = [name for name in ARTIFACTS if not (out / name).is_file()]
        if missing:
            raise CheckFailed(f"missing artifacts: {', '.join(missing)}")
        history = read_history(out)
        if [int(row["epoch"]) for row in history] != list(range(1, TRAIN_EPOCHS + 1)):
            raise CheckFailed("history.csv does not hold one row per epoch")
        test_acc = float(history[-1]["test_acc"])
        if test_acc < TEST_ACC_FLOOR:
            raise CheckFailed(f"final test accuracy {test_acc} < {TEST_ACC_FLOOR}")
        model, vocab, lexicon, cfg = persist.load_model(out)
        arrays = train.encode_dataset(
            corpus.load_dataset(out / "test.csv"), vocab, lexicon, cfg.mode, model.config.L)
        _, matrix = train.evaluate(model, arrays)
        if not np.array_equal(matrix.counts, read_confusion(out / "confusion.csv")):
            raise CheckFailed("the reloaded model does not reproduce confusion.csv")
        return float(history[-1]["train_loss"]), test_acc

    def finish(self) -> tuple[dict[str, float], set[int], list[str]]:
        failed: set[int] = set()
        problems: list[str] = []
        quality = []
        first = None
        for index, out in self.runs:
            try:
                quality.append(self._check(out))
                hashes = digest(out)
            except Exception as exc:  # any failed check fails this command only
                failed.add(index)
                problems.append(f"train op {index}: {exc}")
                continue
            first = first or hashes
            if hashes != first:
                failed.add(index)
                problems.append(f"train op {index}: artifacts differ from the first run's")
        if not quality:
            return {}, failed, problems
        return {"final_loss": quality[0][0], "accuracy": quality[0][1]}, failed, problems

    def properties(self) -> dict[str, float]:
        _, vocab, lexicon, cfg = persist.load_model(self.runs[0][1])
        return post_properties([t.text for t in self.tweets], vocab, lexicon, cfg.mode, TRAIN_LEN)


class Score:
    """`emoticnn eval` of a set-up model over a CSV of long posts.

    Every eval gets a CSV of its own, so nothing one command computes
    can be reused by the next, as with separate processes.
    """

    name = "score"
    block = 1
    window = 1
    min_ops = 2

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.hits = 0
        self.scored = 0
        self.texts: list[str] = []

    def setup(self, target: Path) -> str:
        target.mkdir(parents=True)
        self.model_dir = serve_model(target, SCORE_LEN)
        return digest(self.model_dir)

    def op(self, index: int) -> tuple[float, int, int]:
        out = self.work / f"eval{index}"
        out.mkdir()
        tweets = long_posts(SCORE_POSTS, f"{self.seed}-{index}")
        write_csv(tweets, out / "score.csv")
        if not self.texts:
            self.texts = [t.text for t in tweets]
        elapsed, printed = run_cli(["eval", "--model", str(self.model_dir),
                                    "--data", str(out / "score.csv"), "--out", str(out)])
        counts = read_confusion(out / "confusion.csv")
        if counts.sum() != SCORE_POSTS:
            raise CheckFailed(f"confusion total {counts.sum()} != {SCORE_POSTS} posts")
        if f"accuracy: {np.trace(counts) / SCORE_POSTS:.6f}" not in printed:
            raise CheckFailed("printed accuracy does not match confusion.csv")
        self.hits += int(np.trace(counts))
        self.scored += SCORE_POSTS
        return elapsed, SCORE_POSTS, SCORE_POSTS

    def finish(self) -> tuple[dict[str, float], set[int], list[str]]:
        quality = {"final_loss": float(read_history(self.model_dir)[-1]["train_loss"])}
        if self.scored:
            quality["accuracy"] = self.hits / self.scored
        return quality, set(), []

    def properties(self) -> dict[str, float]:
        _, vocab, lexicon, cfg = persist.load_model(self.model_dir)
        return post_properties(self.texts, vocab, lexicon, cfg.mode, SCORE_LEN)


class Predict:
    """A library serving loop: one new post per request, batch size 1."""

    name = "predict"
    block = 200  # requests between switches of tracing in a traced run
    window = 1000  # requests per timing window (see run.py)
    min_ops = 1

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.hits = 0
        self.served = 0
        self.texts: list[str] = []

    def setup(self, target: Path) -> str:
        target.mkdir(parents=True)
        self.model_dir = serve_model(target, PREDICT_LEN)
        self.model, self.vocab, self.lexicon, cfg = persist.load_model(self.model_dir)
        self.mode = cfg.mode
        # A serving process answers its first requests before anyone
        # measures it; these warm the regex and numpy caches.
        for index in range(-WARMUP_REQUESTS, 0):
            self._probs(request(self.seed, index).text)
        return digest(self.model_dir)

    def _probs(self, text: str) -> tuple[list[int], np.ndarray]:
        processed = corpus.preprocess(text, self.lexicon, self.mode)
        ids = encoding.pad(encoding.encode(processed, self.vocab), self.model.config.L)
        return ids, self.model.forward(ids)[0][0]

    def op(self, index: int) -> tuple[float, int, int]:
        tweet = request(self.seed, index)
        started = time.perf_counter()
        _, probs = self._probs(tweet.text)
        predicted = int(probs.argmax()) + 1
        elapsed = time.perf_counter() - started
        if not np.all(np.isfinite(probs)) or abs(float(probs.sum()) - 1.0) > PROB_SUM_TOLERANCE:
            raise CheckFailed(f"probabilities {probs} are not a distribution")
        if len(self.texts) < PREDICT_PROPERTY_SAMPLE:
            self.texts.append(tweet.text)
        self.served += 1
        self.hits += predicted == tweet.label
        return elapsed, 1, 1

    def finish(self) -> tuple[dict[str, float], set[int], list[str]]:
        problems = []
        rows, single = [], []
        for index in range(AGREEMENT_SAMPLE):
            ids, probs = self._probs(request(self.seed, index).text)
            rows.append(ids)
            single.append(int(probs.argmax()) + 1)
        batched = train.predict_codes(self.model, np.asarray(rows, dtype=np.int64))
        if list(batched) != single:
            problems.append("batch-1 predictions disagree with predict_codes")
        quality = {"final_loss": float(read_history(self.model_dir)[-1]["train_loss"])}
        if self.served:
            quality["accuracy"] = self.hits / self.served
        return quality, set(), problems

    def properties(self) -> dict[str, float]:
        return post_properties(self.texts, self.vocab, self.lexicon, self.mode, PREDICT_LEN)


WORKLOADS = {cls.name: cls for cls in (Train, Score, Predict)}
