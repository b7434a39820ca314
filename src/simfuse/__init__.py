"""simfuse: sentence-pair semantic similarity from three fused scorers.

Three independent similarity signals (pair-scoped TF-IDF cosine, a
grammatical-role-weighted Jaccard coefficient, and an attention-weighted
convolutional scorer over word embeddings) are combined with per-model
weights calibrated from each scorer's standalone metric.  ``train_bundle``
trains all of it; it calibrates on the training pairs, where the paper uses
a validation split (ROADMAP aim 3).
"""

from .attention import (apply_attention, attention_weights, cosine_matrix,
                        edit_distance, marginal_sums, pair_attention,
                        position_weights, weighted_pair_matrices)
from .cnn import (CnnParams, cnn_forward, cnn_train,
                  gradient_check, init_params, load_cnn_params, save_cnn_params)
from .corpus import (BINARY, GRADED, ONE_IS_SIMILAR, ROLES, ZERO_IS_SIMILAR,
                     Dataset, LabeledPair, Sentence, parse_annotated,
                     parse_pair_file, tokenize)
from .embedding import (EmbeddingTable, embed_sentence, load_text_embeddings,
                        lookup, save_text_embeddings)
from .errors import (ConfigError, DegenerateData, DimensionError, EmptyCorpus,
                     EmptyEval, EmptySentence, FormatError, LabelKindError,
                     SimfuseError, UndefinedCorrelation)
from .fusion import (DIFFERENT, LEARNED, SIMILAR, WEIGHTED_SUM, FusionNet,
                     FusionParams, FusionWeights, calibrate_weights, classify,
                     fuse, load_fusion_params, save_fusion_params, scale_to_sts,
                     train_fusion)
from .jaccard import CoOccurrence, co_occurrence, component_weight, jaccard_score
from .metrics import (MetricReport, confusion_counts, prf_metrics,
                      rank_correlations)
from .nn import TrainConfig
from .pipeline import (ModelBundle, PairScores, component_scores, evaluate,
                       load_bundle, save_bundle, score_with_bundle, train_bundle)
from .tfidf import CorpusStats, build_stats, cosine_sim, idf, tfidf_vector

__version__ = "0.1.0"
