"""The four EDA suboperations, the EDA dispatcher, and AEDA insertion.

All operations are pure functions of (input tokens, parameters, rng):
the caller owns the random stream, and identical seeds give identical
outputs. The dispatcher reads its mix and magnitudes from a
`policy.AugmentationPolicy`, which checks them when it is built.
Magnitudes follow the n = max(1, round(alpha * L)) convention with
round-half-up ties.

A source is prepared once: `eda_copies` draws its copies from the
source's `SynonymLexicon.eligible` words and the policy's
`cumulative_mix`. `eda`, `synonym_replacement` and `random_insertion` are
its one-sentence views: they prepare, then draw.

Every uniform integer draw goes through `_below`, the rejection loop of
`random.Random.randrange` on its public `getrandbits`, and every pick
without replacement through `_sample`, CPython's `random.Random.sample`
on `_below`: each draw, output and end state of the rng equals what
`choice`, `randrange`, `randint` and `sample` would give. Only
`rng.random` is still called as it is.
`policy.apply_policy` wraps the copies in `AugmentedExample`s: slots
dataclasses whose shared soft labels are read-only arrays.
"""
from __future__ import annotations

import math
import random
from bisect import bisect
from itertools import accumulate
from typing import TYPE_CHECKING

from .errors import DomainError
from .textops import SynonymLexicon

if TYPE_CHECKING:  # policy imports this module
    from .policy import AugmentationPolicy

__all__ = [
    "PUNCTUATION_MARKS",
    "synonym_replacement",
    "random_insertion",
    "random_swap",
    "random_deletion",
    "cumulative_mix",
    "eda_copies",
    "eda",
    "aeda",
]

PUNCTUATION_MARKS = (".", ";", "?", ":", "!", ",")


def _require_nonempty(seq: list[str]):
    if not seq:
        raise DomainError("empty sentence")


def _below(rng: random.Random, n: int) -> int:
    """A uniform integer in [0, n): the value and the rng draws of
    `random.Random.randrange(n)`. Precondition: n >= 1. At n = 0 it never
    returns (getrandbits(0) is always 0), like the stdlib's private
    `_randbelow`; every call site guarantees n >= 1."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _sample(rng: random.Random, population, k: int) -> list:
    """k distinct picks from the sequence `population`: the values and the
    rng draws of `random.Random.sample(population, k)`, for 0 <= k <= n.
    Like CPython, it keeps a pool of the n unpicked items when that list is
    smaller than a set of k picks, and otherwise redraws a pick it has."""
    n = len(population)
    setsize = 21  # CPython's size of a small set minus that of an empty list
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    out = []
    if n <= setsize:
        pool = list(population)
        for last in range(n - 1, n - 1 - k, -1):
            j = _below(rng, last + 1)
            out.append(pool[j])
            pool[j] = pool[last]  # the last unpicked item fills the vacancy
        return out
    picked: set[int] = set()
    for _ in range(k):
        j = _below(rng, n)
        while j in picked:
            j = _below(rng, n)
        picked.add(j)
        out.append(population[j])
    return out


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
    return _replace(seq, lex.eligible(seq), _num_ops(alpha, len(seq)), rng)


def _replace(seq: list[str], eligible: list, n: int, rng: random.Random) -> list[str]:
    out = list(seq)
    for i, syns in _sample(rng, eligible, min(n, len(eligible))):
        out[i] = syns[_below(rng, len(syns))]
    return out


def random_insertion(
    seq: list[str], alpha: float, lex: SynonymLexicon, rng: random.Random
) -> list[str]:
    """Insert synonyms of random eligible words at random positions, n times.

    Source words may repeat across insertions. If no word has a synonym,
    no insertion happens and the input is returned unchanged.
    """
    _require_nonempty(seq)
    return _insert(seq, lex.eligible(seq), _num_ops(alpha, len(seq)), rng)


def _insert(seq: list[str], eligible: list, n: int, rng: random.Random) -> list[str]:
    out = list(seq)
    if eligible:
        for _ in range(n):
            syns = eligible[_below(rng, len(eligible))][1]
            syn = syns[_below(rng, len(syns))]  # the synonym is drawn before its position
            out.insert(_below(rng, len(out) + 1), syn)
    return out


def random_swap(seq: list[str], alpha: float, rng: random.Random) -> list[str]:
    """Swap two uniformly chosen distinct positions, n times."""
    _require_nonempty(seq)
    return _swap(seq, _num_ops(alpha, len(seq)), rng)


def _swap(seq: list[str], n: int, rng: random.Random) -> list[str]:
    # each pair is `rng.sample(range(m), 2)`: its pool branch for m <= 21,
    # where a second pick equal to the first takes the vacated m - 1, and
    # its reselection branch above
    out = list(seq)
    m = len(out)
    if m < 2:
        return out
    for _ in range(n):
        i = _below(rng, m)
        if m <= 21:
            j = _below(rng, m - 1)
            if j == i:
                j = m - 1
        else:
            j = _below(rng, m)
            while j == i:
                j = _below(rng, m)
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
        out = [seq[_below(rng, len(seq))]]
    return out


def cumulative_mix(policy: AugmentationPolicy) -> list[float]:
    """The running sums of (p_sr, p_ri, p_rs, p_rd), as `random.choices` builds them."""
    return list(accumulate((policy.p_sr, policy.p_ri, policy.p_rs, policy.p_rd)))


def eda_copies(
    seq: list[str], eligible: list, policy: AugmentationPolicy, cum: list[float], k: int, rng: random.Random
) -> list[list[str]]:
    """`k` eda copies of the non-empty `seq`, given its `lex.eligible(seq)`
    and `cumulative_mix(policy)`. Each copy picks one suboperation with one
    rng draw, the draw `random.choices` makes, and applies it with its
    magnitude (alpha_sr .. alpha_rd)."""
    n_sr, n_ri, n_rs = (_num_ops(a, len(seq)) for a in (policy.alpha_sr, policy.alpha_ri, policy.alpha_rs))
    copies = []
    for _ in range(k):
        # choices' own pick; hi = 3 keeps a product rounded up to cum[-1] on the last op
        kind = bisect(cum, rng.random() * cum[-1], 0, 3)
        if kind == 0:
            copies.append(_replace(seq, eligible, n_sr, rng))
        elif kind == 1:
            copies.append(_insert(seq, eligible, n_ri, rng))
        elif kind == 2:
            copies.append(_swap(seq, n_rs, rng))
        else:
            copies.append(random_deletion(seq, policy.alpha_rd, rng))
    return copies


def eda(
    seq: list[str], policy: AugmentationPolicy, lex: SynonymLexicon, rng: random.Random
) -> list[str]:
    """One copy of `seq` by the policy's mix (p_sr, p_ri, p_rs, p_rd) and
    magnitudes: `eda_copies` for k = 1.

    The pick consumes exactly one rng draw, so a one-hot mix is
    equivalent to calling the suboperation after that single draw. The
    policy checked its mix and magnitudes when it was built; an empty
    seq raises DomainError.
    """
    _require_nonempty(seq)
    return eda_copies(seq, lex.eligible(seq), policy, cumulative_mix(policy), 1, rng)[0]


def aeda(seq: list[str], rng: random.Random) -> list[str]:
    """Insert k random punctuation marks, k uniform in [1, max(1, L//3)].

    Original tokens are never altered or reordered: removing the inserted
    marks recovers the input exactly.
    """
    _require_nonempty(seq)
    k = 1 + _below(rng, max(1, len(seq) // 3))
    out = list(seq)
    for _ in range(k):
        mark = PUNCTUATION_MARKS[_below(rng, len(PUNCTUATION_MARKS))]
        out.insert(_below(rng, len(out) + 1), mark)
    return out
