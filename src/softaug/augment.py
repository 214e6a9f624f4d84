"""The four EDA suboperations, the EDA dispatcher, and AEDA insertion.

All operations are pure functions of (input tokens, parameters, rng):
the caller owns the random stream, and identical seeds give identical
outputs. The dispatcher `eda` reads its mix and magnitudes from a
`policy.AugmentationPolicy`, which checks them when it is built.
Magnitudes follow the n = max(1, round(alpha * L)) convention with
round-half-up ties.
"""
from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING

from .errors import DomainError
from .textops import SynonymLexicon, is_stopword

if TYPE_CHECKING:  # policy imports this module
    from .policy import AugmentationPolicy

__all__ = [
    "PUNCTUATION_MARKS",
    "synonym_replacement",
    "random_insertion",
    "random_swap",
    "random_deletion",
    "eda",
    "aeda",
]

PUNCTUATION_MARKS = (".", ";", "?", ":", "!", ",")


def _require_nonempty(seq: list[str]):
    if not seq:
        raise DomainError("empty sentence")


def _num_ops(alpha: float, length: int) -> int:
    # round half up so ties resolve identically everywhere
    return max(1, math.floor(alpha * length + 0.5))


def synonym_replacement(
    seq: list[str], alpha: float, lex: SynonymLexicon, rng: random.Random
) -> list[str]:
    """Replace up to n distinct eligible words with a random synonym each.

    Eligible positions are non-stopwords with at least one synonym. With
    no eligible position the input is returned unchanged. Length is
    always preserved.
    """
    _require_nonempty(seq)
    n = _num_ops(alpha, len(seq))
    eligible = [i for i, tok in enumerate(seq) if not is_stopword(tok) and lex.synonyms(tok)]
    if not eligible:
        return list(seq)
    out = list(seq)
    for i in rng.sample(eligible, min(n, len(eligible))):
        out[i] = rng.choice(lex.synonyms(seq[i]))
    return out


def random_insertion(
    seq: list[str], alpha: float, lex: SynonymLexicon, rng: random.Random
) -> list[str]:
    """Insert synonyms of random eligible words at random positions, n times.

    Source words may repeat across insertions. If no word has a synonym,
    no insertion happens and the input is returned unchanged.
    """
    _require_nonempty(seq)
    n = _num_ops(alpha, len(seq))
    sources = [tok for tok in seq if not is_stopword(tok) and lex.synonyms(tok)]
    out = list(seq)
    if not sources:
        return out
    for _ in range(n):
        word = rng.choice(sources)
        syn = rng.choice(lex.synonyms(word))
        out.insert(rng.randint(0, len(out)), syn)
    return out


def random_swap(seq: list[str], alpha: float, rng: random.Random) -> list[str]:
    """Swap two uniformly chosen distinct positions, n times."""
    _require_nonempty(seq)
    if len(seq) < 2:
        return list(seq)
    out = list(seq)
    for _ in range(_num_ops(alpha, len(seq))):
        i, j = rng.sample(range(len(out)), 2)
        out[i], out[j] = out[j], out[i]
    return out


def random_deletion(seq: list[str], alpha: float, rng: random.Random) -> list[str]:
    """Delete each token independently with probability alpha.

    If every token would be deleted, one uniformly chosen token is kept,
    so the output is never empty. Survivor order is preserved.
    """
    _require_nonempty(seq)
    out = [tok for tok in seq if rng.random() >= alpha]
    if not out:
        out = [seq[rng.randrange(len(seq))]]
    return out


def eda(
    seq: list[str], policy: AugmentationPolicy, lex: SynonymLexicon, rng: random.Random
) -> list[str]:
    """Pick one suboperation from the policy's mix (p_sr, p_ri, p_rs, p_rd)
    and apply it with its magnitude (alpha_sr .. alpha_rd).

    The pick (`random.Random.choices`) consumes exactly one rng draw, so
    a one-hot mix is equivalent to calling the suboperation after that
    single draw. The policy checked its mix and magnitudes when it was
    built, and the suboperation rejects an empty seq, so eda checks neither.
    """
    p = policy
    kind = rng.choices(("sr", "ri", "rs", "rd"), (p.p_sr, p.p_ri, p.p_rs, p.p_rd))[0]
    if kind == "sr":
        return synonym_replacement(seq, p.alpha_sr, lex, rng)
    if kind == "ri":
        return random_insertion(seq, p.alpha_ri, lex, rng)
    if kind == "rs":
        return random_swap(seq, p.alpha_rs, rng)
    return random_deletion(seq, p.alpha_rd, rng)


def aeda(seq: list[str], rng: random.Random) -> list[str]:
    """Insert k random punctuation marks, k uniform in [1, max(1, L//3)].

    Original tokens are never altered or reordered: removing the inserted
    marks recovers the input exactly.
    """
    _require_nonempty(seq)
    k = rng.randint(1, max(1, len(seq) // 3))
    out = list(seq)
    for _ in range(k):
        mark = rng.choice(PUNCTUATION_MARKS)
        out.insert(rng.randint(0, len(out)), mark)
    return out
