"""Microblog corpus handling: loading, cleaning, and emoticon normalization.

A tweet goes through two text stages before encoding:

1. ``clean`` strips the usual microblog noise (mentions, URLs, '#',
   punctuation, case) while leaving emoji untouched.
2. ``replace_emoticons`` swaps each known emoji for its word phrase
   ("😊" -> "smiling face"); ``strip_emoticons`` deletes them instead.

Emoji are matched as extended grapheme clusters with longest-match
scanning, so multi-codepoint emoji (variation selectors, ZWJ sequences,
skin tones) behave as single units. The scan is one compiled ``regex``
pass that takes each run of the characters cleaning keeps
(``[a-z0-9' ]``) whole; only the other clusters, and the characters
that begin a lexicon key, reach the Python loop that looks keys up.

Because the original tweet collection is not public, this module also
provides a deterministic synthetic dataset generator whose labels are
carried either by the trailing emoticon or by keywords in the body.
"""

from __future__ import annotations

import csv
import io
import json
import random
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import regex

# Canonical category codes and names (1-based).
CATEGORY_CODES = (1, 2, 3, 4)
CATEGORY_NAMES = {1: "Sad", 2: "Happy", 3: "Love", 4: "Angry"}

# Characters allowed to survive cleaning (besides whitespace handling).
_BASIC_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789' ")

_GRAPHEME_RE = regex.compile(r"\X")
# Asserts that the next character does not join the one before it into a
# cluster. After a basic character only these classes do (UAX #29 rules
# GB9 and GB9a), so a run of basic characters ends at a cluster boundary.
_UNEXTENDED = r"(?![\p{GCB=Extend}\p{GCB=ZWJ}\p{GCB=SpacingMark}])"
_URL_RE = regex.compile(r"(?<!\S)https?://\S+")
_MENTION_RE = regex.compile(r"(?<!\S)@\S+")
_WS_RE = regex.compile(r"\s+")
# Apostrophes are kept only between letters/digits ("can't"); everything
# else in the ASCII punctuation range becomes a space. [^\W_] rather than
# \w so that '_' (removed as punctuation) never anchors an apostrophe.
_PUNCT_RE = regex.compile(r"(?!(?<=[^\W_])'(?=[^\W_]))[!-/:-@\[-`{-~]")

# Default emoticon table: 16 printed rows, of which 😊 appears twice
# ("Grinning face" then "Smiling face"); building the dict in row order
# keeps the later phrase. Phrases are stored lowercase, verbatim.
_DEFAULT_LEXICON_ROWS = [
    ("\U0001F60A", "Grinning face"),
    ("\U0001F604", "Grinning face with smiling eyes"),
    ("\U0001F601", "Beaming face with smiling eyes"),
    ("\U0001F60A", "Smiling face"),
    ("\U0001F62D", "Loudly crying face"),
    ("\U0001F61E", "Crying face"),
    ("\U0001F613", "Pleading face"),
    ("\U0001F620", "Frowning face"),
    ("\U0001F621", "Angry face"),
    ("\U0001F62C", "Pouting face"),
    ("\U0001F60F", "Face with steam from nose"),
    ("\U0001F5E8️", "Face with symbols on the mouth"),
    ("\U0001F60D", "Smiling face with heart-eyes"),
    ("\U0001F618", "Smiling face with hearts"),
    ("\U0001F617", "Face blowing a kiss"),
    ("\U0001F61A", "Kissing face with closed eyes"),
]


class CorpusError(ValueError):
    """Raised for malformed dataset or lexicon inputs."""


@dataclass(frozen=True)
class Tweet:
    """One labeled microblog post."""

    text: str
    label: int

    def __post_init__(self):
        if self.label not in CATEGORY_CODES:
            raise CorpusError(f"label out of range: {self.label}")


def read_utf8(path) -> str:
    """The whole text of the file at path, decoded as UTF-8.

    Bytes that are not UTF-8 raise CorpusError naming the file and the
    1-based line that holds them.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise CorpusError(
            f"{path}, line {line}: not valid UTF-8 ({exc.reason} at byte {exc.start})"
        ) from None


def read_json(path):
    """The JSON value in the UTF-8 file at path; CorpusError names a syntax error's place."""
    try:
        return json.loads(read_utf8(path))
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{path}, line {exc.lineno}, column {exc.colno}: "
                          f"not valid JSON ({exc.msg})") from None


class EmoticonLexicon(Mapping):
    """Read-only ordered map from emoji grapheme clusters to lowercase word phrases.

    Keys may span several grapheme clusters; scanning uses longest match
    first so a longer key always beats any of its prefixes. The phrases and
    the scanner compiled from their keys are set once, in __init__.
    """

    def __init__(self, entries: dict[str, str]):
        self._entries = {
            emoji: _WS_RE.sub(" ", phrase).strip().lower() for emoji, phrase in entries.items()
        }
        self._max_key_clusters = max(
            (len(_GRAPHEME_RE.findall(emoji)) for emoji in self._entries), default=0
        )
        # The scan takes a run of basic characters whole. Characters that
        # begin a key are left out of runs, so each place a key can start
        # is the start of a token.
        run_chars = _BASIC_CHARS.difference(emoji[:1] for emoji in self._entries)
        runs = "".join(map(regex.escape, sorted(run_chars)))
        self._tokens = regex.compile(rf"([{runs}]+){_UNEXTENDED}|\X" if runs else r"\X")

    def __getitem__(self, emoji: str) -> str:
        return self._entries[emoji]

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    @classmethod
    def default(cls) -> "EmoticonLexicon":
        return cls(dict(_DEFAULT_LEXICON_ROWS))

    @classmethod
    def from_file(cls, path) -> "EmoticonLexicon":
        """Parse a lexicon file: one ``<emoji><TAB><phrase>`` entry per line.

        Blank lines are ignored; duplicate emoji keep the last phrase.
        """
        table: dict[str, str] = {}
        lines = io.StringIO(read_utf8(path), newline=None)
        for lineno, line in enumerate(lines, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise CorpusError(
                    f"lexicon line {lineno}: expected <emoji><TAB><phrase>"
                )
            emoji, phrase = line.split("\t", 1)
            emoji = emoji.strip()
            if not emoji or not phrase.strip():
                raise CorpusError(f"lexicon line {lineno}: empty field")
            table[emoji] = phrase
        return cls(table)


def clean(raw: str) -> str:
    """Normalize raw microblog text, keeping emoji intact.

    Lowercases, drops @-mention and URL tokens whole, turns '#' and all
    other ASCII punctuation into spaces (apostrophes inside words
    survive), and collapses whitespace, as ``str.split`` sees it, into
    single spaces. Idempotent.
    """
    text = raw.lower()
    text = _URL_RE.sub(" ", text)
    text = _MENTION_RE.sub(" ", text)
    text = _PUNCT_RE.sub(" ", text)
    return " ".join(text.split())


def _scan(text: str, lexicon: EmoticonLexicon, replace: bool) -> str:
    phrases = lexicon._entries
    max_len = lexicon._max_key_clusters
    token_at = lexicon._tokens.match
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
        # A key may start at this cluster. A key matches where the text
        # spells it out and a cluster ends right after it, so try the
        # longest run of clusters a key can span first.
        ends = [pos]
        while len(ends) < max_len and ends[-1] < end:
            ends.append(_GRAPHEME_RE.match(text, ends[-1]).end())
        for stop in reversed(ends):
            phrase = phrases.get(text[start:stop])
            if phrase is not None:
                parts.append(f" {phrase} " if replace else " ")
                pos = stop
                break
        else:
            parts.append(token[0] if token[0] in _BASIC_CHARS else " ")
    # Outside phrases the only whitespace left is U+0020, and phrases are
    # collapsed and stripped already, so splitting on " " alone does what
    # a \s+ collapse would; U+001C-U+001F inside a phrase stay put.
    return " ".join(filter(None, "".join(parts).split(" ")))


def replace_emoticons(text: str, lexicon: EmoticonLexicon) -> str:
    """Replace known emoji with their phrases; delete unknown emoji.

    Scans left to right over grapheme clusters, longest lexicon key
    first. Repeated emoticons yield repeated phrases in order. Expects
    already-cleaned input.
    """
    return _scan(text, lexicon, replace=True)


def strip_emoticons(text: str, lexicon: EmoticonLexicon) -> str:
    """Delete every emoji cluster, lexicon-known or not."""
    return _scan(text, lexicon, replace=False)


MODE_EMOTICON_TEXT = "emoticon_text"
MODE_TEXT_ONLY = "text_only"


def preprocess(text: str, lexicon: EmoticonLexicon, mode: str) -> str:
    """Full text normalization for one tweet: clean, then handle emoji."""
    cleaned = clean(text)
    if mode == MODE_EMOTICON_TEXT:
        return replace_emoticons(cleaned, lexicon)
    if mode == MODE_TEXT_ONLY:
        return strip_emoticons(cleaned, lexicon)
    raise ValueError(f"unknown mode: {mode!r}")


# --------------------------------------------------------------------
# Dataset CSV I/O
# --------------------------------------------------------------------

_CSV_HEADER = ["text", "label"]


def _numbered_rows(fh):
    """Yield (1-based row number, fields), turning csv.Error into CorpusError."""
    rownum = 0
    try:
        for rownum, row in enumerate(csv.reader(fh), start=1):
            yield rownum, row
    except csv.Error as exc:
        raise CorpusError(f"unreadable CSV at row {rownum + 1}: {exc}") from None


def load_dataset(path) -> list[Tweet]:
    """Read a UTF-8 ``text,label`` CSV into Tweets, preserving row order.

    Raises CorpusError with the offending 1-based row number for a bad
    header, a row the CSV reader rejects, a malformed row, or a label
    outside 1-4, and with the line number for bytes that are not UTF-8.
    A leading byte-order mark is not skipped: it makes the header bad.
    """
    tweets: list[Tweet] = []
    content = read_utf8(path)
    rows = _numbered_rows(io.StringIO(content, newline=""))
    _, header = next(rows, (1, None))
    if header is None:
        raise CorpusError("empty file: missing 'text,label' header")
    if header != _CSV_HEADER:
        bom = "the file starts with a UTF-8 byte-order mark; " if content.startswith("\ufeff") else ""
        raise CorpusError(f"bad header {header!r}: {bom}expected 'text,label'")
    for rownum, row in rows:
        if len(row) != 2:
            raise CorpusError(f"malformed row at row {rownum}: {row!r}")
        text, label_field = row
        try:
            label = int(label_field)
        except ValueError:
            raise CorpusError(
                f"malformed row at row {rownum}: label {label_field!r} "
                "is not an integer"
            ) from None
        if label not in CATEGORY_CODES:
            raise CorpusError(f"label out of range at row {rownum}")
        tweets.append(Tweet(text=text, label=label))
    return tweets


def write_csv(path, header, rows) -> None:
    """Write a header row, then rows, as UTF-8 CSV with standard quoting.

    Every CSV artifact is written here, so all of them share one dialect:
    no byte-order mark and a bare "\\n" after every row.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def save_dataset(tweets, path) -> None:
    """Write Tweets as a ``text,label`` CSV."""
    write_csv(path, _CSV_HEADER, ([tweet.text, tweet.label] for tweet in tweets))


# --------------------------------------------------------------------
# Synthetic data
# --------------------------------------------------------------------

# Emoticon families by category, grouped by phrase semantics.
EMOTICON_FAMILIES = {
    1: ["\U0001F62D", "\U0001F61E", "\U0001F613"],
    2: ["\U0001F60A", "\U0001F604", "\U0001F601"],
    3: ["\U0001F60D", "\U0001F618", "\U0001F617", "\U0001F61A"],
    4: ["\U0001F621", "\U0001F620", "\U0001F62C", "\U0001F60F", "\U0001F5E8️"],
}

# Bodies with no emotional content; under the emoticon-informative
# regime these are shared by all four categories.
_NEUTRAL_BODIES = [
    "just got off the train",
    "making pasta for dinner tonight",
    "the meeting ran long again",
    "new episode drops at midnight",
    "my phone is at 2 percent",
    "it's been raining since the morning",
    "back at the gym after a week off",
    "the wifi keeps dropping #monday",
    "queue at the coffee shop is endless",
    "finally submitted the report",
    "watching the match with @sam tonight",
    "traffic on the bridge for an hour",
    "planning the weekend trip",
    "left my umbrella at home again",
    "the playlist is on repeat",
    "trying that new ramen place",
    "package says delivered but nothing here",
    "rewatching the old seasons",
    "laptop update took forever",
    "market was packed this afternoon",
]

# Keyword bodies used when the text itself must reveal the category.
_KEYWORD_BODIES = {
    1: [
        "feeling so sad and empty today",
        "i just want to cry",
        "everything hurts and i'm heartbroken",
        "missing them so much it aches",
        "such a lonely gloomy evening",
        "tears again can't help it",
    ],
    2: [
        "what a wonderful cheerful day",
        "so happy and excited right now",
        "laughing so much today",
        "great news made my whole week",
        "feeling joyful and grateful",
        "best day ever honestly",
    ],
    3: [
        "i love you more than anything",
        "my heart is so full of love",
        "so in love with this person",
        "sending hugs and kisses my darling",
        "you are my sweetheart forever",
        "adore you to the moon and back",
    ],
    4: [
        "i am so angry right now",
        "this whole thing makes me furious",
        "absolutely fed up and mad",
        "stop lying to me i'm raging",
        "so annoyed i could scream",
        "the rage is real today",
    ],
}


def generate_synthetic(n: int, seed: int, emoticon_informative: bool) -> list[Tweet]:
    """Produce a deterministic labeled dataset of n tweets.

    Categories rotate 1,2,3,4,... so counts stay balanced. When
    ``emoticon_informative`` is set, bodies come from a neutral shared
    pool and one or two category-revealing emoticons are appended, so
    only the emoticon carries the label; otherwise the body itself uses
    category keywords and no emoji are added.
    """
    if n < 4:
        raise ValueError(f"need at least 4 tweets, got {n}")
    rng = random.Random(seed)
    tweets = []
    for i in range(n):
        label = CATEGORY_CODES[i % 4]
        if emoticon_informative:
            body = rng.choice(_NEUTRAL_BODIES)
            emoticons = [
                rng.choice(EMOTICON_FAMILIES[label])
                for _ in range(rng.choice((1, 2)))
            ]
            text = body + " " + " ".join(emoticons)
        else:
            body = rng.choice(_KEYWORD_BODIES[label])
            if rng.random() < 0.5:
                text = rng.choice(_NEUTRAL_BODIES) + " " + body
            else:
                text = body
        tweets.append(Tweet(text=text, label=label))
    return tweets
