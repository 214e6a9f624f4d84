"""Tokenization, stopwords, and the synonym lexicon backing SR/RI.

Tokenization is whitespace-split only: augmentation operates on word
positions, and a plain split keeps join(split(s)) == s for normalized
strings regardless of language or punctuation.
"""
from __future__ import annotations

import io
from functools import lru_cache
from importlib import resources

from .errors import DataError

__all__ = [
    "tokenize",
    "detokenize",
    "is_stopword",
    "SynonymLexicon",
    "load_lexicon",
    "load_bundled_lexicon",
]


def tokenize(text: str) -> list[str]:
    """Split on runs of whitespace. Empty/blank input yields []."""
    return text.split()


def detokenize(tokens: list[str]) -> str:
    """Join tokens with single spaces. Inverse of tokenize on normalized text."""
    return " ".join(tokens)


@lru_cache(maxsize=1)
def _stopwords() -> frozenset[str]:
    text = resources.files("softaug.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(w for w in text.split() if w)


def is_stopword(word: str) -> bool:
    return word.lower() in _stopwords()


class SynonymLexicon:
    """Case-insensitive word -> synonym-list map. Lookup never fails.

    Entries map lowercase headwords to ordered, distinct, lowercase
    synonyms; a headword never lists itself.
    """

    def __init__(self, entries: dict[str, tuple[str, ...]]):
        self._entries = {head: tuple(syns) for head, syns in entries.items()}

    def synonyms(self, word: str) -> list[str]:
        """Synonyms in file order; [] for absent words."""
        return list(self._entries.get(word.lower(), ()))

    def eligible(self, tokens: list[str]) -> list[tuple[int, tuple[str, ...]]]:
        """(position, synonyms) of each token that synonym replacement and
        insertion draw from: a non-stopword with at least one synonym. The
        synonym tuples are the stored ones, not copies."""
        stop = _stopwords()
        lows = enumerate(tok.lower() for tok in tokens)
        return [(i, syns) for i, low in lows if low not in stop and (syns := self._entries.get(low))]

    def __len__(self) -> int:
        return len(self._entries)


def load_lexicon(source) -> SynonymLexicon:
    """Parse a lexicon from a path, a byte stream, or None for the bundled lexicon.

    Format: one `headword<TAB>syn1,syn2,...` entry per line; `#` comment
    lines and blank lines are ignored. Headwords are lowercased, duplicate
    headwords merge by synonym-list union, and self-synonyms are dropped.

    Raises DataError naming the line number for malformed lines, and naming
    the file for bytes that are not UTF-8.
    """
    if source is None:
        return load_bundled_lexicon()
    if isinstance(source, str) or hasattr(source, "__fspath__"):
        with open(source, "rb") as f:
            return load_lexicon(f)
    try:
        lines = source.read().decode("utf-8-sig").splitlines()
    except UnicodeDecodeError as e:
        name = getattr(source, "name", "stream")
        raise DataError(f"lexicon {name}: not UTF-8 text ({e})") from None

    entries: dict[str, list[str]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "\t" not in line:
            raise DataError(f"lexicon line {lineno}: missing tab separator")
        head, _, syn_field = line.partition("\t")
        head = head.strip().lower()
        syns = [s.strip().lower() for s in syn_field.split(",")]
        if not head or not syn_field.strip() or any(not s for s in syns):
            raise DataError(f"lexicon line {lineno}: empty headword or synonym field")
        bucket = entries.setdefault(head, [])
        for s in syns:
            if s != head and s not in bucket:
                bucket.append(s)
    return SynonymLexicon({h: tuple(s) for h, s in entries.items()})


@lru_cache(maxsize=1)
def load_bundled_lexicon() -> SynonymLexicon:
    """The ~1k-headword lexicon shipped with the package."""
    data = resources.files("softaug.data").joinpath("lexicon.tsv").read_bytes()
    return load_lexicon(io.BytesIO(data))
