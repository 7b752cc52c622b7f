"""Synonym knowledge base: load, candidate tests, frequency-weighted sampling.

The lexicon is a flat TSV extracted offline from a lexical knowledge base;
the toolkit itself never links against one. Only single-token, non-reflexive
synonym records under the four open word classes are kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fileio
from .corpus import Vocabulary
from .errors import ParseError

POS_TAGS = ("noun", "verb", "adjective", "adverb")


@dataclass
class SynonymLexicon:
    """Mapping word -> set of (pos, synonym) records.

    ``dropped`` counts records discarded on load (multi-token or
    self-referential synonyms).
    """

    entries: dict[str, set[tuple[str, str]]] = field(default_factory=dict)
    dropped: int = 0

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def synonyms(self, word: str) -> set[str]:
        """Distinct synonym words of ``word`` across all POS classes."""
        return {syn for _pos, syn in self.entries.get(word, ())}


def _is_multi_token(word: str) -> bool:
    return " " in word or "_" in word


def load_lexicon(path: str | Path) -> SynonymLexicon:
    """Load a `#synlex v1` TSV of `<word>\\t<pos>\\t<synonym>` records."""
    entries: dict[str, set[tuple[str, str]]] = {}
    dropped = 0
    with fileio.open_text(path) as f:
        fileio.read_header(f, path, "synlex")
        layout = "<word>\t<pos>\t<synonym>"
        for lineno, fields in fileio.records(f, path, layout, "\t", comments=True):
            word, pos, synonym = (x.strip().lower() for x in fields)
            if pos not in POS_TAGS:
                raise ParseError(path, lineno, f"unknown POS tag {pos!r}")
            if _is_multi_token(word) or _is_multi_token(synonym) or word == synonym:
                dropped += 1
                continue
            entries.setdefault(word, set()).add((pos, synonym))
    return SynonymLexicon(entries=entries, dropped=dropped)


def write_lexicon(path: str | Path, lexicon: SynonymLexicon) -> None:
    with fileio.output(path, "w", encoding="utf-8") as f:
        f.write(fileio.header("synlex"))
        for word in sorted(lexicon.entries):
            for pos, synonym in sorted(lexicon.entries[word]):
                f.write(f"{word}\t{pos}\t{synonym}\n")


def is_candidate(word: str, lexicon: SynonymLexicon) -> bool:
    """True iff ``word`` has at least one surviving synonym record."""
    return bool(lexicon.entries.get(word))


def _synonym_cdf(word: str, lexicon: SynonymLexicon,
                 vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """The sorted in-vocabulary synonym ids of ``word`` and the cdf that
    ``Generator.choice(ids, p=w / w.sum())`` builds over their counts w: a
    uniform double u draws the id at the count of cdf entries ``<= u``.
    Both are empty when no synonym is in the vocabulary."""
    ids = np.array(sorted(vocab.word2id[s] for s in lexicon.synonyms(word)
                          if s in vocab.word2id), dtype=np.int64)
    weights = vocab.counts[ids].astype(np.float64)
    cdf = (weights / weights.sum()).cumsum()
    return ids, cdf / cdf[-1] if len(cdf) else cdf


def sample_synonym(
    word: str, lexicon: SynonymLexicon, vocab: Vocabulary, rng: np.random.Generator
) -> int | None:
    """Draw an in-vocabulary synonym id of ``word``, weighted by corpus count.

    Returns None when none of the word's synonyms are in the vocabulary. A
    word with one such synonym draws nothing from ``rng``; one with more
    draws one double.
    """
    ids, cdf = _synonym_cdf(word, lexicon, vocab)
    if len(ids) < 2:
        return int(ids[0]) if len(ids) else None
    return int(ids[np.count_nonzero(cdf <= rng.random())])


def sample_synonyms(focus: np.ndarray, lexicon: SynonymLexicon, vocab: Vocabulary,
                    rng: np.random.Generator) -> np.ndarray:
    """``sample_synonym`` of each word id in ``focus``, in order, as an int64
    array with -1 for None, leaving ``rng`` where those calls would.

    The ids and cdfs of the words in ``focus`` form one table by word id,
    padded with -1 and inf, which no draw reaches. One ``rng.random(m)``
    call covers the m entries whose word has two or more synonyms: PCG64
    yields the same doubles as m single calls.
    """
    vocab.check_ids(focus)
    tables = {w: _synonym_cdf(vocab.words[w], lexicon, vocab) for w in np.unique(focus).tolist()}
    # At least two columns, so that ids[w, 1] >= 0 marks a word that draws.
    width = max([2, *(len(word_ids) for word_ids, _ in tables.values())])
    ids = np.full((len(vocab), width), -1)
    cdf = np.full(ids.shape, np.inf)
    for w, (word_ids, word_cdf) in tables.items():
        ids[w, :len(word_ids)], cdf[w, :len(word_cdf)] = word_ids, word_cdf
    synonyms = ids[focus, 0]
    drawn = np.flatnonzero(ids[focus, 1] >= 0)
    u = rng.random(len(drawn))
    synonyms[drawn] = ids[focus[drawn], np.count_nonzero(cdf[focus[drawn]] <= u[:, None], axis=1)]
    return synonyms
