"""Integer encoding and padding of normalized text.

Index 0 is reserved for padding and index 1 for out-of-vocabulary words;
real words start at 2, ordered by descending corpus frequency with ties
broken by first appearance. Sequences are padded with leading zeros (and
truncated from the front) so the tail of a tweet, where trailing
emoticon phrases end up, is always kept.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

PAD_INDEX = 0
OOV_INDEX = 1
_NUM_RESERVED = 2


@dataclass(frozen=True)
class Vocabulary:
    """Frequency-ranked word-to-index map with reserved indices 0 and 1."""

    word_index: dict[str, int] = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Total index count including the padding and OOV slots."""
        return len(self.word_index) + _NUM_RESERVED

    def words(self) -> list[str]:
        """Words in index order (index 2 first); the serialization form."""
        return sorted(self.word_index, key=self.word_index.__getitem__)

    @classmethod
    def from_words(cls, words) -> "Vocabulary":
        return cls(word_index={w: i + _NUM_RESERVED for i, w in enumerate(words)})


def fit_vocabulary(corpus) -> Vocabulary:
    """Build a Vocabulary from normalized texts.

    Words are counted over whitespace-split tokens and ranked by
    descending frequency, first-seen order breaking ties.
    """
    texts = list(corpus)
    if not texts:
        raise ValueError("cannot fit a vocabulary on an empty corpus")

    # A Counter keeps first-seen order, and most_common sorts stably.
    counts = Counter(token for text in texts for token in text.split())
    return Vocabulary.from_words(word for word, _ in counts.most_common())


def encode(text: str, vocab: Vocabulary) -> list[int]:
    """Map each token to its index, or to OOV_INDEX when unknown."""
    return [vocab.word_index.get(token, OOV_INDEX) for token in text.split()]


def pad(seq, length: int) -> list[int]:
    """Left-pad with zeros to exactly ``length`` entries.

    Longer sequences keep their last ``length`` tokens.
    """
    if length < 1:
        raise ValueError(f"padded length must be >= 1, got {length}")
    ids = list(seq)
    if len(ids) >= length:
        return ids[len(ids) - length :]
    return [PAD_INDEX] * (length - len(ids)) + ids
