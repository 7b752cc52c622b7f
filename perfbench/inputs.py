"""Seeded input generator for the benchmark; no downloads.

Everything here is a pure function of the workload seed and the sizes
passed in. The program under test only ever sees the files written here.

The train-e2e workload gets raw text plus a `#synlex v1`
lexicon. The text mixes Zipf-distributed background sentences with planted
synonym topics in the style of `tests/toycorpus.py`: the members of one
synonym group never share a sentence and draw their context words from
disjoint pools, so only the lexicon ties them together. Adjacent background
ranks are paired as synonyms too, so that about 45% of all natural pairs
have a candidate focus word and ratio 0.25 is reachable.

The wmd-knn workload gets a `<class>/<doc>` document tree, a split
manifest and a text embedding file whose vectors cluster by class.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

POS_TAGS = ("noun", "verb", "adjective", "adverb")

# Pipeline corpus shape.
N_BACKGROUND = 2000        # Zipf background words
N_TOPICS = 40              # planted synonym groups
GROUP_SIZE = 3             # members per group
CTX_PER_MEMBER = 8         # context words private to each member

# wmd-knn corpus shape.
N_CLASSES = 4
WORDS_PER_CLASS = 150
N_COMMON = 120
DIM = 300


def word(prefix: str, index: int) -> str:
    """Letter-only word name, so every token survives the tokenizer intact."""
    letters = ""
    while True:
        index, digit = divmod(index, 26)
        letters = chr(ord("a") + digit) + letters
        if index == 0:
            return prefix + letters


# --- pipeline corpus and lexicon ---------------------------------------------


def make_corpus(seed: int, n_tokens: int) -> tuple[str, list[tuple[str, str, str]]]:
    """Raw text of exactly ``n_tokens`` word tokens, plus lexicon records.

    Returns (text, records) with records as (word, pos, synonym) triples.
    """
    rng = np.random.default_rng([seed, 1])
    background = [word("bg", i) for i in range(N_BACKGROUND)]
    zipf = 1.0 / np.arange(1, N_BACKGROUND + 1)
    zipf /= zipf.sum()
    zipf_cdf = np.cumsum(zipf)

    groups = [[word(f"syn{word('', t)}m", m) for m in range(GROUP_SIZE)]
              for t in range(N_TOPICS)]
    contexts = {member: [word(f"ctx{member}", i) for i in range(CTX_PER_MEMBER)]
                for group in groups for member in group}

    records = []
    for t, group in enumerate(groups):
        pos = POS_TAGS[t % len(POS_TAGS)]
        records += [(a, pos, b) for a in group for b in group if a != b]
    # Ranks 0-4 stand in for function words; ranks 5..204 pair up as synonyms.
    for r in range(5, 205, 2):
        a, b = background[r], background[r + 1]
        pos = POS_TAGS[(r // 2) % len(POS_TAGS)]
        records += [(a, pos, b), (b, pos, a)]
    # Records the loader or the vocabulary filter must discard.
    records += [(background[7], "noun", "no such word"),
                (background[9], "verb", word("oov", seed % 1000))]

    sentences, total = [], 0
    while total < n_tokens:
        length = int(rng.integers(6, 21))
        if rng.random() < 0.5:
            group = groups[int(rng.integers(N_TOPICS))]
            member = group[int(rng.integers(GROUP_SIZE))]
            pool = contexts[member]
            tokens = []
            for i in range(length):
                u = rng.random()
                if i % 4 == 0:
                    tokens.append(member)
                elif u < 0.5:
                    tokens.append(pool[int(rng.integers(len(pool)))])
                else:
                    tokens.append(background[int(np.searchsorted(zipf_cdf, rng.random()))])
        else:
            ranks = np.searchsorted(zipf_cdf, rng.random(length))
            tokens = [background[min(int(r), N_BACKGROUND - 1)] for r in ranks]
        tokens = tokens[:n_tokens - total]
        total += len(tokens)
        sentences.append(" ".join(tokens).capitalize() + ".")
    lines = [" ".join(sentences[i:i + 8]) for i in range(0, len(sentences), 8)]
    return "\n".join(lines) + "\n", records


def write_pipeline_inputs(directory: Path, seed: int, n_tokens: int) -> dict[str, Path]:
    """Write corpus.txt and synlex.tsv; return their paths."""
    text, records = make_corpus(seed, n_tokens)
    paths = {"text": directory / "corpus.txt", "lexicon": directory / "synlex.tsv"}
    paths["text"].write_text(text, encoding="utf-8")
    with open(paths["lexicon"], "w", encoding="utf-8") as f:
        f.write("#synlex v1\n# generated benchmark lexicon\n")
        for w, pos, syn in records:
            f.write(f"{w}\t{pos}\t{syn}\n")
    return paths


# --- wmd-knn documents and embeddings ----------------------------------------


def support_sizes(n: int, rng: np.random.Generator) -> list[int]:
    """Mixed support sizes of ``n`` documents, class by class: mostly small
    documents, a long tail of large ones.

    Document ``d`` belongs to class ``d % N_CLASSES``. Each class gets the
    fixed quantiles of the mixture over its own documents, so every class
    and every seed get the same amount of solver work; the seed only
    shuffles the order within a class.
    """
    per_class = []
    for c in range(N_CLASSES):
        count = len(range(c, n, N_CLASSES))
        sizes = []
        for i in range(count):
            u = (i + 0.5) / count
            if u < 0.65:
                sizes.append(8 + int(9 * u / 0.65))
            elif u < 0.92:
                sizes.append(17 + int(32 * (u - 0.65) / 0.27))
            else:
                sizes.append(49 + int(12 * (u - 0.92) / 0.08))
        rng.shuffle(sizes)
        per_class.append(sizes)
    return [per_class[d % N_CLASSES][d // N_CLASSES] for d in range(n)]


def write_wmd_inputs(directory: Path, seed: int, n_train: int, n_test: int) -> dict[str, Path]:
    """Write docs/<class>/<doc>, split.tsv and model.txt; return their paths.

    Class words sit around a per-class centroid, common words around the
    origin, so centroid and relaxed lower bounds separate classes well
    enough to prune but not so well that exact solves become rare.
    """
    rng = np.random.default_rng([seed, 2])
    classes = [word("class", c) for c in range(N_CLASSES)]
    class_words = [[word(f"w{word('', c)}x", i) for i in range(WORDS_PER_CLASS)]
                   for c in range(N_CLASSES)]
    common = [word("common", i) for i in range(N_COMMON)]
    vocab = common + [w for ws in class_words for w in ws]

    centroids = rng.normal(0.0, 1.0, (N_CLASSES, DIM)) / np.sqrt(DIM)
    vectors = [rng.normal(0.0, 0.9, (N_COMMON, DIM)) / np.sqrt(DIM)]
    for c in range(N_CLASSES):
        vectors.append(centroids[c] + rng.normal(0.0, 0.9, (WORDS_PER_CLASS, DIM)) / np.sqrt(DIM))
    matrix = np.concatenate(vectors)

    paths = {"docs": directory / "docs", "split": directory / "split.tsv",
             "model": directory / "model.txt"}
    with open(paths["model"], "w", encoding="utf-8") as f:
        f.write(f"{len(vocab)} {DIM}\n")
        for w, row in zip(vocab, matrix):
            f.write(w + " " + " ".join(repr(float(x)) for x in row) + "\n")

    sizes = support_sizes(n_train, rng) + support_sizes(n_test, rng)
    split_lines = []
    for d, size in enumerate(sizes):
        c = (d if d < n_train else d - n_train) % N_CLASSES
        n_common_words = int(round(0.3 * size))
        n_other = max(1, size // 8) if d % 3 == 0 else 0
        other = class_words[(c + 1 + d % (N_CLASSES - 1)) % N_CLASSES]
        chosen = (list(rng.choice(common, n_common_words, replace=False))
                  + list(rng.choice(other, n_other, replace=False))
                  + list(rng.choice(class_words[c], size - n_common_words - n_other,
                                    replace=False)))
        tokens = [w for i, w in enumerate(chosen) for _ in range(1 + i % 3)]
        rng.shuffle(tokens)
        class_dir = paths["docs"] / classes[c]
        class_dir.mkdir(parents=True, exist_ok=True)
        doc_id = f"doc{d:05d}"
        (class_dir / doc_id).write_text(" ".join(tokens) + ".\n", encoding="utf-8")
        split_lines.append(f"{classes[c]}/{doc_id}\t{'test' if d >= n_train else 'train'}\n")
    paths["split"].write_text("".join(split_lines), encoding="utf-8")
    return paths
