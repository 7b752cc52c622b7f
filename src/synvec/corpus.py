"""Text ingestion: sentence/word tokenization and frequency-pruned vocabularies.

A tokenized corpus is a plain ``list[list[str]]`` of sentences; contexts for
pair generation never cross sentence boundaries, so the sentence is the unit
everything downstream works with.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import fileio
from .errors import ParseError

TokenizedCorpus = list[list[str]]
EncodedCorpus = list[list[int]]

# A sentence ends at terminal punctuation followed by whitespace (or at end
# of input). No abbreviation handling.
_SENTENCE_BOUNDARY = re.compile(r"(?<=[.!?])\s+")

# A token is a maximal run of letters, allowing internal apostrophes and
# hyphens ("don't", "mother-in-law"). Digits and underscores never qualify.
_TOKEN = re.compile(r"[^\W\d_]+(?:['’-][^\W\d_]+)*")


def tokenize(text: str) -> TokenizedCorpus:
    """Split raw text into sentences of lowercase word tokens.

    Empty sentences (e.g. stretches of punctuation) are dropped.
    """
    sentences = []
    for chunk in _SENTENCE_BOUNDARY.split(text):
        tokens = [m.group(0).lower() for m in _TOKEN.finditer(chunk)]
        if tokens:
            sentences.append(tokens)
    return sentences


def read_text_files(paths: Sequence[str | Path]) -> str:
    """Read and concatenate UTF-8 text files in the given order.

    A byte that is not UTF-8 raises a ParseError naming its file and line.
    """
    parts = []
    for path in paths:
        with fileio.open_text(path, newline="") as f:
            parts.append(f.read())
    return "\n".join(parts)


@dataclass
class Vocabulary:
    """Bidirectional word/id mapping with pre-pruning corpus counts.

    Ids run 0..len-1 in descending frequency order (ties lexicographic);
    every retained word occurred at least ``min_count`` times.
    """

    words: list[str]
    counts: np.ndarray
    min_count: int
    word2id: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        self.word2id = {w: i for i, w in enumerate(self.words)}
        if len(self.word2id) != len(self.words):
            raise ValueError("vocabulary contains duplicate words")
        if len(self.counts) != len(self.words):
            raise ValueError("counts/words length mismatch")
        low = np.flatnonzero(self.counts < 1)
        if len(low):  # synonyms whose counts are all 0 would draw from NaN weights
            raise ValueError(f"word {self.words[low[0]]!r} has count {self.counts[low[0]]}, "
                             "below 1")

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.word2id

    def id(self, word: str) -> int:
        return self.word2id[word]

    def count(self, word: str) -> int:
        return int(self.counts[self.word2id[word]])

    def check_ids(self, *columns) -> None:
        """Raise ValueError naming the first id of ``columns`` outside 0..len-1:
        numpy would wrap a negative id to another word's row."""
        for ids in map(np.asarray, columns):
            outside = ids[(ids < 0) | (ids >= len(self))]
            if len(outside):
                raise ValueError(f"word id {outside[0]} is outside the vocabulary of "
                                 f"{len(self)} words")


def build_vocabulary(corpus: TokenizedCorpus, min_count: int = 1) -> Vocabulary:
    """Count corpus tokens and retain words with frequency >= min_count."""
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    freq = Counter(token for sentence in corpus for token in sentence)
    retained = [(w, c) for w, c in freq.items() if c >= min_count]
    if not retained:
        raise ValueError(
            f"min_count={min_count} prunes the entire vocabulary "
            f"({len(freq)} distinct words)"
        )
    retained.sort(key=lambda wc: (-wc[1], wc[0]))
    words = [w for w, _ in retained]
    counts = np.array([c for _, c in retained], dtype=np.int64)
    return Vocabulary(words=words, counts=counts, min_count=min_count)


def encode(corpus: TokenizedCorpus, vocab: Vocabulary) -> EncodedCorpus:
    """Map sentences to word ids, dropping out-of-vocabulary tokens.

    Sentences emptied by OOV removal are dropped; order is preserved.
    """
    word2id = vocab.word2id
    encoded = []
    for sentence in corpus:
        ids = [word2id[t] for t in sentence if t in word2id]
        if ids:
            encoded.append(ids)
    return encoded


# --- file formats -----------------------------------------------------------


def write_vocab(path: str | Path, vocab: Vocabulary) -> None:
    """Write `<word>\\t<count>` lines in id order under a `#vocab v1` header."""
    with fileio.output(path, "w", encoding="utf-8") as f:
        f.write(fileio.header("vocab", {"min_count": vocab.min_count}))
        for word, count in zip(vocab.words, vocab.counts):
            f.write(f"{word}\t{count}\n")


def read_vocab(path: str | Path) -> Vocabulary:
    with fileio.open_text(path) as f:
        min_count = fileio.read_header(f, path, "vocab").get("min_count", "")
        if not min_count.isdecimal():
            raise ParseError(path, 1, "expected '#vocab v1 min_count=<n>' header")
        min_count = int(min_count)
        if min_count < 1:
            raise ParseError(path, 1, f"min_count must be >= 1, got {min_count}")
        lines: dict[str, int] = {}  # each word's line, in id order
        counts = []
        for lineno, (word, count_str) in fileio.records(f, path, "<word>\t<count>", "\t"):
            try:
                count = int(count_str)
            except ValueError:
                raise ParseError(path, lineno, f"count is not an integer: {count_str!r}")
            if count < min_count:
                raise ParseError(path, lineno, f"count {count} below min_count {min_count}")
            if word in lines:
                raise ParseError(path, lineno, f"duplicate word {word!r} (first on line "
                                 f"{lines[word]})")
            lines[word] = lineno
            counts.append(count)
    if not lines:
        raise ParseError(path, 1, "vocabulary file contains no words")
    return Vocabulary(words=list(lines), counts=np.array(counts, dtype=np.int64),
                      min_count=min_count)


def write_tokens(path: str | Path, corpus: TokenizedCorpus) -> None:
    """Write a tokenized corpus, one sentence per line, tokens space-separated."""
    with fileio.output(path, "w", encoding="utf-8") as f:
        for sentence in corpus:
            f.write(" ".join(sentence) + "\n")


def read_tokens(path: str | Path) -> TokenizedCorpus:
    corpus = []
    with fileio.open_text(path) as f:
        for line in f:
            tokens = line.split()
            if tokens:
                corpus.append(tokens)
    return corpus
