"""Cleaning, emoticon normalization, dataset I/O, and the synthetic generator."""

from __future__ import annotations

import collections
import string
from collections.abc import Mapping, MutableMapping

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from naive_oracles import (cluster_walk_scan, match_per_token_scan, punct_regex_clean,
                           regex_whitespace_clean)

from emoticnn.corpus import (
    CATEGORY_CODES,
    CATEGORY_NAMES,
    EMOTICON_FAMILIES,
    MODE_EMOTICON_TEXT,
    MODE_TEXT_ONLY,
    CorpusError,
    EmoticonLexicon,
    Tweet,
    clean,
    generate_synthetic,
    load_dataset,
    preprocess,
    replace_emoticons,
    save_dataset,
    strip_emoticons,
    write_csv,
)

SMILING = "\U0001F60A"
CRYING_LOUDLY = "\U0001F62D"
HEART_EYES = "\U0001F60D"
SPEECH = "\U0001F5E8️"  # base codepoint plus variation selector
FAMILY_ZWJ = "\U0001F468‍\U0001F469‍\U0001F467"  # man+woman+girl


# ---------------------------------------------------------------- clean


def test_clean_lowercases_and_strips_noise():
    raw = "Feeling GREAT!! @bob check https://x.co/a #happy"
    assert clean(raw) == "feeling great check happy"


def test_clean_keeps_inner_apostrophes():
    assert clean("Can't won't 'quoted'") == "can't won't quoted"


def test_clean_drops_mention_and_url_tokens_whole():
    assert clean("see http://a.b/c?d=1 and @user_name!") == "see and"


def test_clean_turns_hash_sign_into_space():
    assert clean("#mood#swings") == "mood swings"


def test_clean_preserves_emoji():
    assert clean(f"WOW {SMILING}{FAMILY_ZWJ}!") == f"wow {SMILING}{FAMILY_ZWJ}"


def test_clean_collapses_whitespace():
    assert clean("  a\t\tb \n c  ") == "a b c"


def test_clean_turns_information_separators_into_spaces():
    # str.split counts U+001C-U+001F as whitespace; regex's \s does not.
    assert clean("a\x1cb\x1dc\x1ed\x1fe") == "a b c d e"
    assert regex_whitespace_clean("a\x1cb") == "a\x1cb"


@settings(max_examples=200)
@given(st.text(max_size=80))
def test_clean_is_idempotent(text):
    once = clean(text)
    assert clean(once) == once


@settings(max_examples=200)
@given(st.text(alphabet=st.characters(codec="utf-8"), max_size=60))
def test_clean_removes_ascii_punctuation_except_apostrophe(text):
    cleaned = clean(text)
    banned = set("!\"#$%&()*+,-./:;<=>?@[\\]^_`{|}~")
    assert not banned & set(cleaned)


# Apostrophes beside letters, digits, '_', a non-ASCII letter and emoji;
# every printable ASCII character; a lone surrogate; the information
# separators U+001C-U+001F; and URL and mention tokens.
_CLEAN_PIECES = [
    *string.printable, "'", "a'b", "1'2", "_'_", "a'_", "'\u00e9", "\u00e9'", "\u00c9'S",
    f"{SMILING}'", f"'{SMILING}", "\ud800", "\x1c", "\x1d", "\x1e", "\x1f",
    "http://x.co/a", "https://t.co/b", "HTTP://Y", "http", "@user", "a@b", " @ ", "@",
]


@settings(max_examples=600)
@given(st.lists(st.sampled_from(_CLEAN_PIECES), max_size=30).map("".join) | st.text(max_size=60))
@example("can't 'quoted' l'\u00e9t\u00e9 _'x x'_ 3'4 \ud800'a @me http://a.b/'c")
def test_clean_matches_the_punctuation_regex_oracle(text):
    assert clean(text) == punct_regex_clean(text)


# ------------------------------------------------------------- lexicon


def test_default_lexicon_has_15_unique_entries():
    lexicon = EmoticonLexicon.default()
    assert len(lexicon) == 15


def test_duplicate_emoji_keeps_last_phrase():
    assert EmoticonLexicon.default()[SMILING] == "smiling face"


def test_phrases_are_lowercased():
    lexicon = EmoticonLexicon.default()
    for _, phrase in lexicon.items():
        assert phrase == phrase.lower()


def test_lexicon_from_file_keeps_row_order(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text(f"{SMILING}\tHappy Face\n\n{HEART_EYES}\tIn Love\n", encoding="utf-8")
    lexicon = EmoticonLexicon.from_file(path)
    assert lexicon[SMILING] == "happy face"
    assert list(lexicon.items()) == [(SMILING, "happy face"), (HEART_EYES, "in love")]


def test_lexicon_is_a_read_only_mapping(tmp_path):
    """Its phrases and the scanner compiled from their keys have one owner,
    so no caller can add a key that the scan then never replaces."""
    path = tmp_path / "lex.tsv"
    path.write_text(f"{SMILING}\tSmile\n", encoding="utf-8")
    for lexicon in (EmoticonLexicon.default(), EmoticonLexicon.from_file(path)):
        assert isinstance(lexicon, Mapping)
        assert not isinstance(lexicon, MutableMapping)
        assert [name for name in vars(lexicon) if not name.startswith("_")] == []
        with pytest.raises(TypeError):
            lexicon["xd"] = "laughing"
    assert EmoticonLexicon.from_file(path) == EmoticonLexicon({SMILING: "smile"})


def test_lexicon_from_file_last_entry_wins(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text(f"{SMILING}\tfirst\n{SMILING}\tsecond\n", encoding="utf-8")
    assert EmoticonLexicon.from_file(path)[SMILING] == "second"


def test_lexicon_from_file_rejects_missing_tab(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("no tab here\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="line 1"):
        EmoticonLexicon.from_file(path)


def test_lexicon_from_file_accepts_any_line_ending(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_bytes(f"{SMILING}\tHappy\r\n{HEART_EYES}\tIn Love\r".encode())
    assert list(EmoticonLexicon.from_file(path).items()) == [(SMILING, "happy"), (HEART_EYES, "in love")]


def test_lexicon_from_file_names_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_bytes(f"{SMILING}\tHappy\n".encode() + b"\xc3\tbroken\n")
    with pytest.raises(CorpusError, match=r"lex\.tsv, line 2: not valid UTF-8"):
        EmoticonLexicon.from_file(path)


def test_lexicon_from_file_rejects_empty_phrase(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text(f"{SMILING}\t \n", encoding="utf-8")
    with pytest.raises(CorpusError, match="empty field"):
        EmoticonLexicon.from_file(path)


# ------------------------------------------------- emoticon replacement


def test_replace_maps_every_entry_to_its_phrase():
    lexicon = EmoticonLexicon.default()
    for emoji, phrase in lexicon.items():
        assert replace_emoticons(emoji, lexicon) == phrase


def test_replace_inside_text_inserts_spaces():
    lexicon = EmoticonLexicon.default()
    assert replace_emoticons(f"so fun{SMILING}today", lexicon) == "so fun smiling face today"


def test_repeated_emoji_repeat_the_phrase():
    lexicon = EmoticonLexicon.default()
    assert (
        replace_emoticons(f"yay {SMILING}{SMILING}", lexicon)
        == "yay smiling face smiling face"
    )


def test_unknown_emoji_are_deleted():
    lexicon = EmoticonLexicon.default()
    assert replace_emoticons(f"a {FAMILY_ZWJ} b", lexicon) == "a b"


def test_variation_selector_key_matches():
    lexicon = EmoticonLexicon.default()
    assert replace_emoticons(SPEECH, lexicon) == "face with symbols on the mouth"
    # The bare base character is a different cluster and stays unknown.
    assert replace_emoticons("\U0001F5E8", lexicon) == ""


def test_longest_key_wins():
    lexicon = EmoticonLexicon({SMILING: "one", SMILING * 2: "two"})
    assert replace_emoticons(SMILING * 3, lexicon) == "two one"


def test_strip_removes_known_and_unknown_emoji():
    lexicon = EmoticonLexicon.default()
    assert strip_emoticons(f"a {SMILING} b {FAMILY_ZWJ} c", lexicon) == "a b c"


# Pieces of text that stress the scan: letters that begin or end keys,
# combining marks (U+0301 Extend, U+200D ZWJ, U+0903 SpacingMark) that
# join the letter before them, a Prepend mark (U+0600) that joins the
# letter after it, regional-indicator pairs, VS16, CR/LF and the
# information separators U+001C-U+001F.
_PIECES = [
    "a", "b", "e", "l", "o", "3", " ", "'", "<", ":", ")", "A", "#", "_", "\t",
    "\r", "\n", "\r\n", "\x1c", "\x1d", "\x1e", "\x1f", "\u0301", "\u200d",
    "\u0903", "\u0600", "\U0001F1EB", "\U0001F1F7", "\ufe0f", SMILING, "\U0001F468",
]
_TEXTS = st.lists(st.sampled_from(_PIECES), max_size=40).map("".join)
# Keys of several clusters, keys of basic characters only ("lol", "a b"),
# mixed keys ("<3") and keys whose last cluster absorbs a following mark.
_KEYS = st.one_of(
    st.sampled_from(["lol", "a b", "<3", "lo", "e", SMILING * 2, SPEECH, "\U0001F468\u200d"]),
    st.lists(st.sampled_from(_PIECES), min_size=1, max_size=4).map("".join),
)
_LEXICONS = st.one_of(
    st.just(EmoticonLexicon.default()),
    st.dictionaries(
        _KEYS, st.sampled_from(["laugh", "Two  Words", " heart ", "x\x1cy"]), max_size=6
    ).map(EmoticonLexicon),
)


@settings(max_examples=400)
@given(_TEXTS, _LEXICONS)
@example("lol\u0301 lol lolol", EmoticonLexicon({"lol": "laugh"}))
@example("a b a\u0903 b", EmoticonLexicon({"a b": "ab"}))
@example("love <3 you <3\u200d", EmoticonLexicon({"<3": "heart", "<": "lt"}))
@example("lo\u0301 \u0600lo", EmoticonLexicon({"lo": "low", "l": "el"}))
@example(f"{SMILING * 3}\U0001F1EB\U0001F1F7\U0001F1EB", EmoticonLexicon({SMILING * 2: "two"}))
def test_replace_and_strip_match_the_cluster_walk(text, lexicon):
    for candidate in (text, clean(text)):
        assert replace_emoticons(candidate, lexicon) == cluster_walk_scan(
            candidate, dict(lexicon), replace=True
        )
        assert strip_emoticons(candidate, lexicon) == cluster_walk_scan(
            candidate, dict(lexicon), replace=False
        )


# Keys of two clusters (two smiling faces), of a basic first character
# ("xd"), of basic later characters ("<3", which can end inside a run of
# basic characters), a flag and a VS16 form; text of the pieces that
# begin or extend them, with combining marks, ZWJ, skin tones, Prepend
# (U+0600) and SpacingMark (U+0903) characters.
_SCAN_LEXICONS = [
    EmoticonLexicon({SMILING * 2: "two smiles", "xd": "laughing", "<3": "heart",
                     "\U0001F1EB\U0001F1F7": "flag", SPEECH: "speech"}),
    EmoticonLexicon({"xd": "laughing", "<3": "heart"}),
    EmoticonLexicon({SMILING * 2: "two smiles", SMILING: "smile"}),
]
_SCAN_PIECES = [
    "x", "d", "<", "3", "a", " ", "xd", "<3", "xd3", "<3d", SMILING, "\U0001F1EB", "\U0001F1F7",
    "\U0001F5E8", "\ufe0f", "\u0301", "\u200d", "\U0001F3FD", "\u0600", "\u0903", "\U0001F468",
]


@settings(max_examples=600)
@given(st.tuples(st.lists(st.sampled_from(_SCAN_PIECES), max_size=30).map("".join),
                 st.sampled_from(_SCAN_LEXICONS))
       | st.tuples(_TEXTS, _LEXICONS))
@example(("<3dd xdxd\u0301 <3\u0903 \u0600xd", _SCAN_LEXICONS[0]))
def test_replace_and_strip_match_the_match_per_token_scan(case):
    text, lexicon = case
    for candidate in (text, clean(text)):
        for replace, scan in ((True, replace_emoticons), (False, strip_emoticons)):
            assert scan(candidate, lexicon) == match_per_token_scan(candidate, dict(lexicon), replace)


@settings(max_examples=300)
@given(st.lists(st.sampled_from([*_PIECES, "@u", "https://t.co/x", "x\x1c@u"]), max_size=40).map("".join))
@example("a\x1cb \x1d\x1e\x1f c\x1f" + SMILING)
def test_preprocess_output_unchanged_by_split_whitespace(text):
    """Separators that clean now turns into spaces were deleted by the scan before."""
    lexicon = EmoticonLexicon.default()
    before = regex_whitespace_clean(text)
    assert preprocess(text, lexicon, MODE_EMOTICON_TEXT) == cluster_walk_scan(
        before, dict(lexicon), replace=True
    )
    assert preprocess(text, lexicon, MODE_TEXT_ONLY) == cluster_walk_scan(
        before, dict(lexicon), replace=False
    )


def test_preprocess_dispatches_on_mode():
    lexicon = EmoticonLexicon.default()
    raw = f"Great DAY {SMILING}"
    assert preprocess(raw, lexicon, MODE_EMOTICON_TEXT) == "great day smiling face"
    assert preprocess(raw, lexicon, MODE_TEXT_ONLY) == "great day"
    with pytest.raises(ValueError, match="unknown mode"):
        preprocess(raw, lexicon, "both")


# ------------------------------------------------------------ CSV I/O


def test_dataset_round_trip(tmp_path):
    tweets = [Tweet("hello, world", 2), Tweet(f'she said "hi" {SMILING}', 3)]
    path = tmp_path / "data.csv"
    save_dataset(tweets, path)
    assert load_dataset(path) == tweets


def test_write_csv_bytes(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["a", "b"], [["x,y", 'say "hi"'], ["two\nlines", 2.5], [SMILING, ""], ["a\rb", 1]])
    assert path.read_bytes() == (
        'a,b\n"x,y","say ""hi"""\n"two\nlines",2.5\n' + SMILING + ',\n"a\rb",1\n'
    ).encode("utf-8")


def test_load_dataset_rejects_bad_header(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("txt,lbl\nhello,1\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="bad header"):
        load_dataset(path)


def test_load_dataset_names_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("\ufefftext,label\nhello,1\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="bad header .*: the file starts with a UTF-8 byte-order mark"):
        load_dataset(path)


def test_load_dataset_rejects_empty_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(CorpusError, match="missing"):
        load_dataset(path)


def test_load_dataset_reports_malformed_row_number(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("text,label\nok,1\nbad,notanint\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="row 3"):
        load_dataset(path)


def test_load_dataset_reports_label_range_row_number(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("text,label\nok,1\nbad,5\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="label out of range at row 3"):
        load_dataset(path)


def test_load_dataset_maps_csv_errors_to_corpus_error(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(f"text,label\nok,1\n{'x' * 140_000},2\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="unreadable CSV at row 3: field larger than field limit"):
        load_dataset(path)


def test_tweet_label_validated():
    with pytest.raises(CorpusError):
        Tweet("x", 0)
    with pytest.raises(CorpusError):
        Tweet("x", 5)
    with pytest.raises(CorpusError, match="label must be an integer, got True"):
        Tweet("hi", True)
    with pytest.raises(CorpusError, match="label must be an integer, got 2.0"):
        Tweet("yo", 2.0)
    assert Tweet("x", np.int64(2)).label == 2


@pytest.mark.parametrize("text", [None, 123, b"hi", 2.5, ["hi"]])
def test_tweet_text_must_be_a_string(text):
    with pytest.raises(CorpusError, match="text must be a string"):
        Tweet(text, 1)


# st.text() draws no lone surrogate. Tweet takes one, and save_dataset
# then raises UnicodeEncodeError (CHANGES.md, FOUND).
tweet_texts = st.text() | st.none() | st.integers() | st.binary(max_size=4) | st.floats()


@settings(max_examples=200, deadline=None)
@given(tweet_texts)
@example("")
@example("x\ry")
def test_every_text_a_tweet_accepts_survives_a_dataset_round_trip(tmp_path_factory, text):
    try:
        tweet = Tweet(text, 1)
    except CorpusError:
        return
    path = tmp_path_factory.mktemp("round_trip") / "data.csv"
    save_dataset([tweet], path)
    assert load_dataset(path) == [tweet]


integer_codes = st.integers(1, 4)
numpy_codes = st.sampled_from([np.int64, np.uint8, np.int32, np.float64, np.bool_]).flatmap(
    integer_codes.map
)
tweet_labels = (st.integers(-2, 6) | st.booleans() | st.floats() | st.none() | numpy_codes
                | integer_codes.map(float) | integer_codes.map(str))


@settings(max_examples=200, deadline=None)
@given(tweet_labels)
def test_every_label_a_tweet_accepts_survives_a_dataset_round_trip(tmp_path_factory, label):
    try:
        tweet = Tweet("hi", label)
    except CorpusError:
        return
    path = tmp_path_factory.mktemp("round_trip") / "data.csv"
    save_dataset([tweet], path)
    [loaded] = load_dataset(path)
    assert loaded == tweet and type(loaded.label) is int


# ------------------------------------------------------ synthetic data


def test_generate_synthetic_rejects_tiny_n():
    with pytest.raises(ValueError):
        generate_synthetic(3, 0, True)


def test_generate_synthetic_is_deterministic():
    assert generate_synthetic(50, 9, True) == generate_synthetic(50, 9, True)
    assert generate_synthetic(50, 9, False) == generate_synthetic(50, 9, False)


def test_generate_synthetic_balances_labels():
    counts = collections.Counter(t.label for t in generate_synthetic(2000, 1, True))
    assert counts == {1: 500, 2: 500, 3: 500, 4: 500}


def test_informative_tweets_end_with_a_family_emoticon():
    for tweet in generate_synthetic(100, 2, True):
        assert any(tweet.text.endswith(e) for e in EMOTICON_FAMILIES[tweet.label])


def test_family_emoticons_belong_to_the_default_lexicon():
    lexicon = EmoticonLexicon.default()
    for emoticons in EMOTICON_FAMILIES.values():
        for emoji in emoticons:
            assert emoji in lexicon


def test_text_signal_tweets_have_no_emoji():
    for tweet in generate_synthetic(100, 2, False):
        assert all(ord(ch) < 0x2000 for ch in tweet.text)


def test_category_tables_agree():
    assert set(CATEGORY_CODES) == set(CATEGORY_NAMES)
    assert [CATEGORY_NAMES[c] for c in CATEGORY_CODES] == ["Sad", "Happy", "Love", "Angry"]
