"""Reference similarity methods: mean-vector cosine, SIF weighting, PC removal.

These are the standard points of comparison for the model-based scores.  The
frequency-weighted mean downweights common words by ``a / (a + p(w))``; the
offline variant additionally removes the corpus's first principal direction
from every sentence vector before taking cosines.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingStore, as_matrix
from .errors import EmbeddingFormatError

logger = logging.getLogger(__name__)

DEFAULT_SIF_A = 1e-3


@dataclass(frozen=True)
class FrequencyTable:
    """Token counts with their total, for inverse-frequency weighting."""

    counts: dict[str, int]
    total: int

    def __post_init__(self) -> None:
        if self.total != sum(self.counts.values()):
            raise ValueError("total must equal the sum of counts")
        if self.total <= 0:
            raise ValueError("frequency table must be non-empty")

    def probability(self, token: str) -> float:
        return self.counts.get(token, 0) / self.total


def load_frequencies(path) -> FrequencyTable:
    """Parse a ``token count`` per line frequency file."""
    counts: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise EmbeddingFormatError(f"{path}:{lineno}: expected 'token count'")
            try:
                count = int(parts[1])
            except ValueError:
                raise EmbeddingFormatError(f"{path}:{lineno}: unparsable count") from None
            if count <= 0:
                raise EmbeddingFormatError(f"{path}:{lineno}: counts must be positive")
            counts[parts[0]] = counts.get(parts[0], 0) + count
    if not counts:
        raise EmbeddingFormatError(f"{path}: no frequency rows found")
    return FrequencyTable(counts=counts, total=sum(counts.values()))


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine undefined for a zero vector")
    return float(np.dot(u, v) / (nu * nv))


def mwv_similarity(d1, d2) -> float:
    """Cosine of the two bags' mean vectors."""
    x1 = as_matrix(d1)
    x2 = as_matrix(d2)
    if x1.shape[1] != x2.shape[1]:
        raise ValueError(f"dimension mismatch: {x1.shape[1]} vs {x2.shape[1]}")
    return cosine(x1.mean(axis=0), x2.mean(axis=0))


def sif_weights(tokens, freqs: FrequencyTable | None, a: float = DEFAULT_SIF_A) -> np.ndarray:
    """Inverse-frequency weights ``a / (a + p(w))`` of a sentence's tokens.

    A token absent from the frequency table gets probability 0, i.e. weight
    1, and so does every token without a table.
    """
    if not (math.isfinite(a) and a > 0.0):
        raise ValueError(f"smoothing parameter must be positive and finite, got {a!r}")
    if freqs is None:
        return np.ones(len(tokens))
    return np.array([a / (a + freqs.probability(t)) for t in tokens])


def sif_embed(
    tokens,
    store: EmbeddingStore,
    freqs: FrequencyTable | None,
    a: float = DEFAULT_SIF_A,
) -> np.ndarray:
    """Inverse-frequency weighted mean of the in-vocabulary token vectors.

    The weights are :func:`sif_weights`, so coverage matches the unweighted
    mean.  Raises when no token is in the vocabulary.
    """
    retained = [t for t in tokens if t in store]
    weights = sif_weights(retained, freqs, a)
    if not retained:
        raise ValueError("no in-vocabulary tokens to embed")
    rows = store.matrix[[store.vocab[t] for t in retained]].astype(np.float64)
    return weighted_mean(weights, rows)


def weighted_mean(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``sum_t weights[t] rows[t] / len(rows)``, accumulated row by row in order."""
    return (weights[:, None] * rows).sum(axis=0) / len(rows)


def first_singular_direction(
    matrix: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 1000,
    seed: int = 0,
) -> tuple[np.ndarray, bool]:
    """Leading right singular direction of an uncentered matrix by power iteration."""
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need a matrix with at least two rows")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(x.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(max_iter):
        w = x.T @ (x @ v)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            # zero matrix: any direction annihilates it
            return v, True
        w /= norm
        if float(np.linalg.norm(w - v)) <= tol:
            return w, True
        v = w
    return v, False


def remove_first_pc(
    sentence_vectors: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 1000,
    seed: int = 0,
) -> np.ndarray:
    """Project out the first principal direction of a stack of sentence vectors.

    Operates on the uncentered matrix, matching common practice for this
    preprocessing.  Non-convergence of the power iteration is logged and the
    last iterate is used.
    """
    x = np.asarray(sentence_vectors, dtype=np.float64)
    u, converged = first_singular_direction(x, tol=tol, max_iter=max_iter, seed=seed)
    if not converged:
        logger.warning("power iteration did not converge in %d steps; using last iterate", max_iter)
    return x - np.outer(x @ u, u)
