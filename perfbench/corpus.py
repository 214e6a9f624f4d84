"""Labelled corpus with a large Zipf-distributed vocabulary, for `score`.

Words are random lowercase strings whose frequencies follow a Zipf law,
so a batch reuses the head of the vocabulary while most of its bigrams
are new. Each class owns a set of topic words from the middle of the
frequency ranks; a sentence mixes topic words of its class into
background words.
"""
from __future__ import annotations

import numpy as np

_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))
N_CLASS = 4
VOCAB = 30000
TOPIC_SIZE = 300  # topic words per class
TOPIC_SHARE = 0.3  # chance that a token is a topic word of its class
LENGTH = (10, 20)  # tokens per sentence, both ends included
EXPONENT = 1.1  # of the Zipf law over ranks


class ZipfCorpus:
    n_class = N_CLASS

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        words: dict[str, None] = {}
        while len(words) < VOCAB:
            sizes = rng.integers(3, 10, VOCAB)
            letters = "".join(rng.choice(_LETTERS, int(sizes.sum())).tolist())
            ends = np.cumsum(sizes).tolist()
            for start, end in zip([0] + ends[:-1], ends):
                words[letters[start:end]] = None
        self.words = np.array(list(words)[:VOCAB])
        self._cdf = _zipf_cdf(VOCAB)
        self._topic_cdf = _zipf_cdf(TOPIC_SIZE)
        self._topics = np.stack(
            [rng.choice(np.arange(VOCAB // 100, VOCAB), TOPIC_SIZE, replace=False) for _ in range(N_CLASS)]
        )

    def sample(self, n: int, seed) -> list[tuple[str, int]]:
        """n (text, label) pairs; the same seed gives the same pairs."""
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, N_CLASS, n)
        lengths = rng.integers(LENGTH[0], LENGTH[1] + 1, n)
        total = int(lengths.sum())
        background = _draw(self._cdf, rng.random(total))
        topical = self._topics[np.repeat(labels, lengths), _draw(self._topic_cdf, rng.random(total))]
        ids = np.where(rng.random(total) < TOPIC_SHARE, topical, background)
        tokens = self.words[ids].tolist()
        out, pos = [], 0
        for y, k in zip(labels.tolist(), lengths.tolist()):
            out.append((" ".join(tokens[pos : pos + k]), y))
            pos += k
        return out


def _zipf_cdf(size: int) -> np.ndarray:
    weights = np.arange(1, size + 1, dtype=float) ** -EXPONENT
    return np.cumsum(weights / weights.sum())


def _draw(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)
