"""Word-embedding lexicon and sentence assembly.

Loads whitespace-separated text embeddings (``token v1 ... vd`` per line,
optional two-integer count/dimension header) into an immutable store, and
turns raw text into bags of vectors under a uniform padding rule: every
sentence receives one copy of a designated pad vector, and fully
out-of-vocabulary sentences receive two, so downstream dispersion estimates
are always defined (n >= 2).
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

import numpy as np

from .errors import EmbeddingFormatError

logger = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

PAD_TOKEN_CANDIDATES = (".", "the")


@dataclass(frozen=True)
class EmbeddingStore:
    """Immutable token -> vector map backed by a single matrix.

    ``vocab`` maps each token to its row in ``matrix``.
    """

    dim: int
    vocab: dict[str, int]
    matrix: np.ndarray
    duplicate_count: int = 0

    def __post_init__(self) -> None:
        if not self.vocab:
            raise ValueError("embedding store must contain at least one token")
        if self.matrix.shape != (len(self.vocab), self.dim):
            raise ValueError("matrix shape does not match vocab size and dimension")

    def __contains__(self, token: str) -> bool:
        return token in self.vocab

    def __len__(self) -> int:
        return len(self.vocab)

    def vector(self, token: str) -> np.ndarray:
        """Vector for a token, as float64."""
        return self.matrix[self.vocab[token]].astype(np.float64)


@dataclass(frozen=True)
class SentenceSample:
    """Ordered bag of embedding vectors for one sentence.

    ``vectors`` has shape (n, d) with n >= 2 guaranteed by padding.
    ``tokens`` keeps the retained in-vocabulary tokens (pad excluded) for
    methods that reweight per token.
    """

    vectors: np.ndarray
    token_count_before_padding: int
    tokens: tuple[str, ...] = ()
    oov_count: int = 0

    def __post_init__(self) -> None:
        if self.vectors.ndim != 2 or self.vectors.shape[0] < 2:
            raise ValueError("a sentence sample needs at least two vectors")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("sentence vectors must be finite")

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def as_matrix(data) -> np.ndarray:
    """(n, d) float64 view of a SentenceSample or array-like."""
    vectors = data.vectors if isinstance(data, SentenceSample) else np.asarray(data)
    out = np.asarray(vectors, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError("expected a 2-D array of row vectors")
    return out


def tokenize(text: str) -> list[str]:
    """Lowercase and split on maximal runs of non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


def _looks_like_header(parts: list[str]) -> bool:
    if len(parts) != 2:
        return False
    try:
        int(parts[0]), int(parts[1])
    except ValueError:
        return False
    return True


def load_embeddings(path, normalize: bool = False) -> EmbeddingStore:
    """Parse a text embedding file into an :class:`EmbeddingStore`.

    A first line of exactly two integers is treated as a count/dimension
    header.  With ``normalize`` every row is scaled to unit Euclidean norm.
    On duplicate tokens the first occurrence wins and the count is reported.
    Vectors are stored as float32 to halve memory for large lexicons;
    lookups return float64.
    """
    vocab: dict[str, int] = {}
    rows: list[np.ndarray] = []
    dim = None
    duplicates = 0
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            parts = line.split()
            if not parts:
                continue
            if lineno == 1 and _looks_like_header(parts):
                continue
            token = parts[0]
            try:
                vec = np.array(parts[1:], dtype=np.float64)
            except ValueError as exc:
                raise EmbeddingFormatError(f"{path}:{lineno}: unparsable number ({exc})") from None
            if vec.size == 0:
                raise EmbeddingFormatError(f"{path}:{lineno}: no vector components")
            if not np.all(np.isfinite(vec)):
                raise EmbeddingFormatError(f"{path}:{lineno}: non-finite component")
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: expected {dim} components, found {vec.size}"
                )
            if token in vocab:
                duplicates += 1
                continue
            if normalize:
                norm = float(np.linalg.norm(vec))
                if norm == 0.0:
                    raise EmbeddingFormatError(
                        f"{path}:{lineno}: zero vector cannot be normalized"
                    )
                vec = vec / norm
            vocab[token] = len(rows)
            rows.append(vec.astype(np.float32))
    if not rows:
        raise EmbeddingFormatError(f"{path}: no embedding rows found")
    if duplicates:
        logger.warning("%s: %d duplicate tokens ignored (first occurrence kept)", path, duplicates)
    matrix = np.vstack(rows)
    return EmbeddingStore(
        dim=int(dim),
        vocab=vocab,
        matrix=matrix,
        duplicate_count=duplicates,
    )


def find_pad_token(store: EmbeddingStore) -> str:
    """Default pad token: '.', then 'the', then the first vocabulary entry."""
    for candidate in PAD_TOKEN_CANDIDATES:
        if candidate in store:
            return candidate
    return next(iter(store.vocab))


def lookup_sentence(store: EmbeddingStore, text: str, pad_token: str) -> SentenceSample:
    """Assemble the vector bag for a sentence under the uniform padding rule.

    Tokens missing from the vocabulary are dropped (counted in ``oov_count``).
    The pad vector is appended once to every sentence; a sentence with no
    retained tokens gets it twice, so n >= 2 always holds.
    """
    if pad_token not in store:
        raise KeyError(f"pad token {pad_token!r} not in vocabulary")
    tokens = tokenize(text)
    retained = [t for t in tokens if t in store]
    pad_vec = store.vector(pad_token)
    if retained:
        idx = [store.vocab[t] for t in retained]
        body = store.matrix[idx].astype(np.float64)
        vectors = np.vstack([body, pad_vec])
    else:
        vectors = np.vstack([pad_vec, pad_vec])
    return SentenceSample(
        vectors=vectors,
        token_count_before_padding=len(retained),
        tokens=tuple(retained),
        oov_count=len(tokens) - len(retained),
    )
