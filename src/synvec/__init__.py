"""synvec: skip-gram embeddings with synonym data augmentation and evaluation."""

__version__ = "0.1.0"

from .augment import AugmentationPlan, RATIO_SWEEP, generate_augmented_pairs, mix
from .corpus import Vocabulary, build_vocabulary, encode, tokenize
from .eval_extrinsic import (
    NBowDocument,
    accuracy_ci,
    knn_classify,
    nbow,
    rwmd,
    wcd,
    wmd,
)
from .eval_intrinsic import (
    PairSet,
    SimilarityDataset,
    build_pairsets,
    cosine_distance,
    pairset_stats,
    similarity_correlation,
    spearman_rho,
)
from .lexicon import SynonymLexicon, is_candidate, load_lexicon, sample_synonym, sample_synonyms
from .pairgen import PairDataset, generate_pairs, keep_probability
from .seeds import derive_seed, derived_rng
from .sgns import (
    EmbeddingModel,
    NoiseDistribution,
    TrainConfig,
    init_pretrained,
    init_random,
    noise_distribution,
    pair_loss,
    train,
    train_step,
)
