"""The public surface of ``groupsim``: the names of the paper's scores and
their inputs, and none of the batch-of-one wrappers or duplicate paths that
the scoring path replaced."""

import importlib

import groupsim

PUBLIC = [
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
    "SUPPORTED_METHODS",
    "ScoreBreakdown",
    "ScoredPairSet",
    "SentenceBlock",
    "SimilarityScore",
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

# module -> names deleted from it: each was a batch of one, a second path or a view
REMOVED = {
    "gaussian": ("GaussianFit", "fit_gaussian", "gaussian_tic_penalty"),
    "baselines": ("mwv_similarity",),
    "comparison": ("_validated_pair", "similarity_ic", "bayes_factor_similarity"),
    "embeddings": ("SentenceSample",),
    "special": ("log_vmf_normalizer", "log_multivariate_gamma"),
    "vmf": ("vmf_tic_penalty",),
}

# module -> names that stay in it for the scoring path but are not exported
INTERNAL = {
    "vmf": ("VmfFit", "fit_vmf"),
}


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC) == 30
    assert sorted(groupsim.__all__) == sorted(PUBLIC)
    assert len(set(groupsim.__all__)) == len(groupsim.__all__)


def test_every_public_name_resolves():
    for name in groupsim.__all__:
        assert getattr(groupsim, name) is not None, name


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        home = importlib.import_module(f"groupsim.{module}")
        for name in names:
            assert not hasattr(home, name), f"groupsim.{module}.{name}"
            assert not hasattr(groupsim, name), name


def test_a_block_converts_to_no_second_bag_type():
    for name in ("sample", "stack"):
        assert not hasattr(groupsim.SentenceBlock, name), name


def test_internal_names_stay_in_their_module_only():
    for module, names in INTERNAL.items():
        home = importlib.import_module(f"groupsim.{module}")
        for name in names:
            assert hasattr(home, name), f"groupsim.{module}.{name}"
            assert not hasattr(groupsim, name), name
