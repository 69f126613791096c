"""Vocabulary fitting, integer encoding, and pre-padding."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from naive_oracles import naive_fit_vocabulary

from emoticnn.encode import (
    OOV_INDEX,
    PAD_INDEX,
    Vocabulary,
    encode,
    fit_vocabulary,
    pad,
)


def test_reserved_indices():
    assert PAD_INDEX == 0
    assert OOV_INDEX == 1


def test_fit_ranks_by_frequency_then_first_seen():
    vocab = fit_vocabulary(["a b a", "b c"])
    # a and b both occur twice; a appeared first, c is rarest.
    assert vocab.word_index == {"a": 2, "b": 3, "c": 4}
    assert vocab.size == 5
    assert vocab.words() == ["a", "b", "c"]


def test_fit_rejects_empty_corpus():
    with pytest.raises(ValueError, match="empty corpus"):
        fit_vocabulary([])


def test_fit_accepts_blank_texts():
    vocab = fit_vocabulary(["", "   "])
    assert vocab.word_index == {}
    assert vocab.size == 2


def test_encode_maps_known_and_unknown_words():
    vocab = fit_vocabulary(["a b a", "b c"])
    assert encode("a c a zzz", vocab) == [2, 4, 2, OOV_INDEX]
    assert encode("", vocab) == []


def test_vocabulary_from_words_round_trip():
    vocab = Vocabulary.from_words(["alpha", "beta"])
    assert vocab.word_index == {"alpha": 2, "beta": 3}
    assert Vocabulary.from_words(vocab.words()) == vocab


def test_pad_prepends_zeros():
    assert pad([4, 9, 2], 6) == [0, 0, 0, 4, 9, 2]


def test_pad_keeps_tail_on_overflow():
    assert pad([1, 2, 3, 4, 5], 3) == [3, 4, 5]


def test_pad_exact_length_is_identity():
    assert pad([7, 8], 2) == [7, 8]


def test_pad_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        pad([1], 0)


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=0, max_value=50), max_size=30),
       st.integers(min_value=1, max_value=20))
def test_pad_length_and_tail_preserved(seq, length):
    padded = pad(seq, length)
    assert len(padded) == length
    keep = min(len(seq), length)
    if keep:
        assert padded[length - keep:] == seq[len(seq) - keep:]
    assert all(x == PAD_INDEX for x in padded[: length - keep])


@settings(max_examples=100)
@given(st.lists(st.text(alphabet="abcde", min_size=1, max_size=3), min_size=1, max_size=40))
def test_vocabulary_indices_are_dense_from_two(words):
    vocab = fit_vocabulary([" ".join(words)])
    indices = sorted(vocab.word_index.values())
    assert indices == list(range(2, vocab.size))


@settings(max_examples=100)
@given(st.lists(st.text(alphabet="abcde", min_size=1, max_size=3), min_size=1, max_size=40))
def test_encode_of_fitted_corpus_never_hits_oov(words):
    text = " ".join(words)
    vocab = fit_vocabulary([text])
    assert all(i >= 2 for i in encode(text, vocab))


@settings(max_examples=200)
@given(st.lists(st.lists(st.sampled_from("abcd"), max_size=8).map(" ".join), min_size=1, max_size=8))
def test_fit_vocabulary_matches_naive_oracle(texts):
    # Four words over up to 64 tokens: tied counts are the common case.
    assert fit_vocabulary(texts).word_index == naive_fit_vocabulary(texts)
