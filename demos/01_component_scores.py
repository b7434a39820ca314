#!/usr/bin/env python3
"""Walk through the two statistical scorers: pair-scoped TF-IDF cosine and
the grammatical-role-weighted Jaccard coefficient.

Run with: python demos/01_component_scores.py
"""

from simfuse import (BINARY, build_stats, cosine_sim, jaccard_score,
                     parse_annotated, parse_pair_file, tfidf_vector, tokenize)
import io

# A four-pair corpus.  TF-IDF treats each *pair* as one document, so the
# rarer a word is across pairs, the more it counts inside its pair.
corpus_tsv = """\
1\tcan i use my card\tcan't i use my card\t1
2\tmy card is locked.\tmy card stopped working\t1
3\tthe quota is locked\tincrease the quota\t0
4\thow do i repay\twhere is my bill\t0
"""

dataset = parse_pair_file(io.StringIO(corpus_tsv), BINARY)
stats = build_stats(dataset)
print(f"corpus: {stats.total_pairs} pairs, {len(stats.pair_doc_freq)} distinct terms")
print(f"  doc_freq('card') = {stats.doc_freq('card')}  (appears in 2 pairs)")
print(f"  doc_freq('quota') = {stats.doc_freq('quota')} (appears in 1 pair)")

# TF-IDF vectors live inside a pair: term frequency is normalized by the
# size of the pair's combined vocabulary, IDF by pair document frequency.
# A vector is a plain dict of term -> positive weight, in sorted term order.
pair = dataset.pairs[0]
vec_a = tfidf_vector(pair.a, pair, stats)
vec_b = tfidf_vector(pair.b, pair, stats)
print("\npair 1 TF-IDF weights (sentence A):")
for term, weight in vec_a.items():
    print(f"  {term:>6} {weight:.4f}")
print(f"TF-IDF cosine similarity: {cosine_sim(vec_a, vec_b):.4f}")

# The raw Jaccard coefficient only counts shared surfaces.
a = tokenize("can i use my card")
b = tokenize("can't i use my card")
print(f"\nplain tokens:  {a.surfaces()} vs {b.surfaces()}")
print(f"jaccard (no roles): {jaccard_score(a, b):.4f}")

# With role annotations, co-occurring words that keep the same grammatical
# role push the coefficient up -- but only once at least three words
# co-occur.  `surface|POS|ROLE` is the inline annotation format.
a = parse_annotated("card|NOUN|SUBJ is|VERB|PRED locked|VERB|COMP today|NOUN|ADV")
b = parse_annotated("card|NOUN|SUBJ is|VERB|PRED locked|VERB|COMP again|ADV|ADV")
raw = jaccard_score(a, b, clamp=False)
print(f"\nannotated overlap, same roles: raw={raw:.4f} clamped={jaccard_score(a, b):.4f}")

# Same words co-occurring under *different* roles get no boost.
b_swapped = parse_annotated("card|NOUN|OBJ is|VERB|COMP locked|VERB|PRED again|ADV|ADV")
print(f"annotated overlap, roles moved: raw={jaccard_score(a, b_swapped, clamp=False):.4f}")
