"""Similarity of embedding groups by penalised likelihood-ratio model comparison."""

from .baselines import (
    FrequencyTable,
    load_frequencies,
    mwv_similarity,
    remove_first_pc,
    sif_embed,
)
from .comparison import (
    ModelCandidateScore,
    NormalWishartPrior,
    PenaltyCurveRow,
    ScoreBreakdown,
    SimilarityScore,
    bayes_factor_similarity,
    corpus_model_selection,
    default_prior,
    nw_log_evidence,
    penalty_curve,
    penalty_curve_csv,
    similarity_closed_gaussian,
    similarity_closed_vmf,
    similarity_ic,
)
from .embeddings import (
    EmbeddingStore,
    SentenceSample,
    find_pad_token,
    load_embeddings,
    lookup_sentence,
)
from .errors import DegenerateCurvatureError, EmbeddingFormatError, GroupsimError
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
from .gaussian import GaussianFit, fit_gaussian, gaussian_loglik, gaussian_tic_penalty
from .vmf import VmfFit, fit_vmf, vmf_loglik, vmf_tic_penalty

__version__ = "0.1.0"

__all__ = [
    "DegenerateCurvatureError",
    "EmbeddingFormatError",
    "EmbeddingStore",
    "EvalOptions",
    "EvalReport",
    "FrequencyTable",
    "GaussianFit",
    "GroupsimError",
    "ModelCandidateScore",
    "NormalWishartPrior",
    "PenaltyCurveRow",
    "ScoreBreakdown",
    "ScoredPairSet",
    "SentenceSample",
    "SimilarityScore",
    "SUPPORTED_METHODS",
    "VmfFit",
    "bayes_factor_similarity",
    "corpus_model_selection",
    "default_prior",
    "evaluate",
    "find_pad_token",
    "fit_gaussian",
    "fit_vmf",
    "gaussian_loglik",
    "gaussian_tic_penalty",
    "load_embeddings",
    "load_frequencies",
    "load_pairs",
    "lookup_sentence",
    "mwv_similarity",
    "nw_log_evidence",
    "penalty_curve",
    "penalty_curve_csv",
    "remove_first_pc",
    "score_pair",
    "sif_embed",
    "similarity_closed_gaussian",
    "similarity_closed_vmf",
    "similarity_ic",
    "spearman",
    "vmf_loglik",
    "vmf_tic_penalty",
]
