"""Reference similarity methods: mean-vector cosine, SIF weighting, PC removal.

These are the standard points of comparison for the model-based scores.  The
evaluation harness (:func:`groupsim.evaluation.embedding_scores`) builds the
sentence vectors of a whole dataset from these parts: the frequency-weighted
mean downweights common words by ``a / (a + p(w))`` (:func:`sif_weights`,
:func:`weighted_mean`); the offline variant additionally removes the corpus's
first principal direction from every sentence vector (:func:`remove_first_pc`)
before :func:`row_cosines` scores the pairs.  A zero sentence vector scores
0.0, a neutral value, wherever a cosine is taken.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmbeddingFormatError

logger = logging.getLogger(__name__)

DEFAULT_SIF_A = 1e-3
# power iteration of first_singular_direction: step-size tolerance and step limit
POWER_TOL = 1e-9
POWER_MAX_ITER = 1000


@dataclass(frozen=True)
class FrequencyTable:
    """Token counts and their total, for inverse-frequency weighting."""

    counts: dict[str, int]
    total: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "total", sum(self.counts.values()))
        if self.total <= 0:
            raise ValueError("frequency table must be non-empty")

    def probability(self, token: str) -> float:
        return self.counts.get(token, 0) / self.total


def load_frequencies(path) -> FrequencyTable:
    """Parse a ``token count`` per line frequency file, dropping a leading UTF-8 BOM."""
    counts: dict[str, int] = {}
    with open(path, "r", encoding="utf-8-sig") as handle:
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
    return FrequencyTable(counts)


def row_cosines(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cosine of each row pair; 0 (a neutral score) where either row is zero."""
    norms = np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
    dots = np.einsum("ij,ij->i", u, v)
    out = np.zeros(dots.size)
    np.divide(dots, norms, out=out, where=norms != 0.0)
    return out


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


def weighted_mean(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``sum_t weights[t] rows[t] / len(rows)``, accumulated row by row in order."""
    return (weights[:, None] * rows).sum(axis=0) / len(rows)


def first_singular_direction(matrix: np.ndarray, seed: int = 0) -> tuple[np.ndarray, bool]:
    """Leading right singular direction of an uncentered matrix by power
    iteration, and whether it converged within :data:`POWER_MAX_ITER` steps."""
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need a matrix with at least two rows")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(x.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(POWER_MAX_ITER):
        w = x.T @ (x @ v)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            # zero matrix: any direction annihilates it
            return v, True
        w /= norm
        if float(np.linalg.norm(w - v)) <= POWER_TOL:
            return w, True
        v = w
    return v, False


def remove_first_pc(sentence_vectors: np.ndarray, seed: int = 0) -> np.ndarray:
    """Project out the first principal direction of a stack of sentence vectors.

    Operates on the uncentered matrix, matching common practice for this
    preprocessing.  Non-convergence of the power iteration is logged and the
    last iterate is used.
    """
    x = np.asarray(sentence_vectors, dtype=np.float64)
    u, converged = first_singular_direction(x, seed=seed)
    if not converged:
        logger.warning("power iteration did not converge in %d steps; using last iterate",
                       POWER_MAX_ITER)
    return x - np.outer(x @ u, u)
