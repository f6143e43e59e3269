"""Similarity of embedding groups by penalised likelihood-ratio model comparison."""

from .baselines import (
    FrequencyTable,
    load_frequencies,
    remove_first_pc,
)
from .comparison import (
    ModelCandidateScore,
    NormalWishartPrior,
    PenaltyCurveRow,
    ScoreBreakdown,
    SimilarityScore,
    corpus_model_selection,
    default_prior,
    nw_log_evidence,
    penalty_curve,
    penalty_curve_csv,
)
from .embeddings import (
    EmbeddingStore,
    SentenceSample,
    find_pad_token,
    load_embeddings,
    lookup_sentence,
)
from .errors import (
    DegenerateCurvatureError,
    EmbeddingFormatError,
    GroupsimError,
    UnknownTokenError,
)
from .evaluation import (
    EvalOptions,
    EvalReport,
    ScoredPairSet,
    SUPPORTED_METHODS,
    evaluate,
    load_pairs,
    score_pair,
    spearman,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateCurvatureError",
    "EmbeddingFormatError",
    "EmbeddingStore",
    "EvalOptions",
    "EvalReport",
    "FrequencyTable",
    "GroupsimError",
    "ModelCandidateScore",
    "NormalWishartPrior",
    "PenaltyCurveRow",
    "ScoreBreakdown",
    "ScoredPairSet",
    "SentenceSample",
    "SimilarityScore",
    "SUPPORTED_METHODS",
    "UnknownTokenError",
    "corpus_model_selection",
    "default_prior",
    "evaluate",
    "find_pad_token",
    "load_embeddings",
    "load_frequencies",
    "load_pairs",
    "lookup_sentence",
    "nw_log_evidence",
    "penalty_curve",
    "penalty_curve_csv",
    "remove_first_pc",
    "score_pair",
    "spearman",
]
