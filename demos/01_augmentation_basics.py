"""Walk through the rule-based sentence augmentation operations.

Each operation takes a token list and a seeded random stream, so every
run of this script prints the same outputs.
"""
import random

from softaug import (
    AugmentationPolicy,
    aeda,
    detokenize,
    eda,
    load_bundled_lexicon,
    random_deletion,
    random_insertion,
    random_swap,
    synonym_replacement,
    tokenize,
)

lex = load_bundled_lexicon()
sentence = "the movie was great and the acting felt wonderful throughout"
tokens = tokenize(sentence)
print("original:          ", sentence)

# Synonym replacement: swaps eligible words (non-stopword, has synonyms)
# for a random synonym. alpha controls how many positions are touched.
rng = random.Random(0)
print("synonym replace:   ", detokenize(synonym_replacement(tokens, 0.3, lex, rng)))

# Random insertion: inserts synonyms of existing words at random spots.
rng = random.Random(0)
print("random insertion:  ", detokenize(random_insertion(tokens, 0.2, lex, rng)))

# Random swap: exchanges word positions, keeping the token multiset.
rng = random.Random(0)
print("random swap:       ", detokenize(random_swap(tokens, 0.2, rng)))

# Random deletion: drops each word with probability alpha (never all).
rng = random.Random(0)
print("random deletion:   ", detokenize(random_deletion(tokens, 0.2, rng)))

# The dispatcher picks one of the four from a policy's mix (p_sr .. p_rd)
# and applies it with that operation's magnitude (alpha_sr .. alpha_rd).
policy = AugmentationPolicy(
    p_aug=1.0, p_sr=0.25, p_ri=0.25, p_rs=0.25, p_rd=0.25,
    alpha_sr=0.3, alpha_ri=0.2, alpha_rs=0.2, alpha_rd=0.2,
    n_aug=1, eps_ori=0.0, eps_aug=0.0,
)
for seed in range(3):
    out = eda(tokens, policy, lex, random.Random(seed))
    print(f"eda (seed {seed}):      ", detokenize(out))

# AEDA only inserts punctuation marks; stripping them recovers the input.
rng = random.Random(1)
print("aeda:              ", detokenize(aeda(tokens, rng)))
