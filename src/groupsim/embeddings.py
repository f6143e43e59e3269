"""Word-embedding lexicon and sentence assembly.

Loads whitespace-separated text embeddings (``token v1 ... vd`` per line,
optional two-integer count/dimension header) into an immutable store, and
turns raw text into bags of vectors under a uniform padding rule: every
sentence receives one copy of a designated pad vector, and fully
out-of-vocabulary sentences receive two, so downstream dispersion estimates
are always defined (n >= 2).  Bags keep the store's dtype (float32 from the
loader); a kernel reads one bag at a time as float64 (:func:`as_matrix`), so
no step casts a whole corpus or dataset.
"""

from __future__ import annotations

import itertools
import logging
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import EmbeddingFormatError, UnknownTokenError

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

    ``vectors`` has shape (n, d), in the store's dtype when looked up, with
    n >= 2 guaranteed by padding.  ``tokens`` keeps the retained
    in-vocabulary tokens (pad excluded) for methods that reweight per token.
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


def bag_rows(data) -> np.ndarray:
    """(n, d) rows of a SentenceSample or array-like, in their own dtype."""
    rows = np.asarray(data.vectors if isinstance(data, SentenceSample) else data)
    if rows.ndim != 2:
        raise ValueError("expected a 2-D array of row vectors")
    return rows


def as_matrix(data) -> np.ndarray:
    """(n, d) float64 rows of a SentenceSample or array-like: a view when they are float64."""
    return np.asarray(bag_rows(data), dtype=np.float64)


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


# lines per np.loadtxt call; 2,048-line chunks raised the peak RSS of a 15k x 300 load by ~3 MB
_CHUNK_LINES = 1024


def load_embeddings(path, normalize: bool = False) -> EmbeddingStore:
    """Parse a text embedding file into an :class:`EmbeddingStore`.

    A leading UTF-8 byte-order mark is dropped, and a first line of exactly
    two integers is a count/dimension header.  With ``normalize`` every row
    is scaled to unit Euclidean norm.
    On duplicate tokens the first occurrence wins and the count is reported.

    The file is read in chunks of at most 1,024 lines.  Each chunk's vectors
    are parsed by numpy's C text parser as float64 and, after any
    normalisation, cast to float32 to halve memory for large lexicons;
    sentence lookups keep float32.  A chunk the fast parse rejects (a ragged,
    token-only, non-finite, unparsable or, under ``normalize``, zero row, or
    a numeral only Python's ``float`` reads, such as ``1_000``) is re-read
    line by line, so every error names its line.
    """
    vocab: dict[str, int] = {}
    blocks: list[np.ndarray] = []
    dim = None
    duplicates = 0
    with open(path, "r", encoding="utf-8-sig") as handle:
        first_line = 1
        while lines := list(itertools.islice(handle, _CHUNK_LINES)):
            if first_line == 1 and _looks_like_header(lines[0].split()):
                lines[0] = ""  # blank lines are skipped; the numbering stays
            parsed = _parse_chunk(lines, dim, vocab, normalize)
            if parsed is None:
                parsed = _parse_lines(path, lines, first_line, dim, vocab, normalize)
            block, dropped = parsed
            if block.size:
                dim = block.shape[1]
                blocks.append(block)
            duplicates += dropped
            first_line += len(lines)
    if not blocks:
        raise EmbeddingFormatError(f"{path}: no embedding rows found")
    if duplicates:
        logger.warning("%s: %d duplicate tokens ignored (first occurrence kept)", path, duplicates)
    return EmbeddingStore(
        dim=int(dim),
        vocab=vocab,
        matrix=np.concatenate(blocks),
        duplicate_count=duplicates,
    )


def _parse_chunk(lines: list[str], dim: int | None, vocab: dict[str, int],
                 normalize: bool) -> tuple[np.ndarray, int] | None:
    """Fast path: the chunk's vectors in one ``np.loadtxt`` call.

    Returns the kept rows as float32 and the number of duplicates dropped,
    or None, with ``vocab`` untouched, when a line needs the per-line checks.
    """
    tokens, values = [], []
    for line in lines:
        parts = line.split(None, 1)
        if len(parts) == 2:
            tokens.append(parts[0])
            values.append(parts[1])
        elif parts:
            return None
    if not values:
        return np.empty((0, 0), dtype=np.float32), 0
    try:
        block = np.loadtxt(values, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    if (dim is not None and block.shape[1] != dim) or not np.isfinite(block).all():
        return None
    if normalize:
        # np.linalg.norm's own 1-D x.dot(x), so rows match the per-line path bit for bit
        norms = np.array([math.sqrt(row.dot(row)) for row in block])
        if not norms.all():
            return None
    keep = []
    for i, token in enumerate(tokens):
        if token not in vocab:
            vocab[token] = len(vocab)
            keep.append(i)
    block = block[keep] / norms[keep, None] if normalize else block[keep]
    return block.astype(np.float32), len(tokens) - len(keep)


def _parse_lines(path, lines: list[str], first_line: int, dim: int | None,
                 vocab: dict[str, int], normalize: bool) -> tuple[np.ndarray, int]:
    """Per-line parse of a chunk that starts at line ``first_line``; errors name the line."""
    rows: list[np.ndarray] = []
    duplicates = 0
    for lineno, line in enumerate(lines, start=first_line):
        parts = line.split()
        if not parts:
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
        vocab[token] = len(vocab)
        rows.append(vec.astype(np.float32))
    block = np.vstack(rows) if rows else np.empty((0, 0), dtype=np.float32)
    return block, duplicates


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
    retained tokens gets it twice, so n >= 2 always holds.  A block of one
    sentence (:func:`lookup_sentences`).
    """
    return lookup_sentences(store, [text], pad_token).sample(0)


@dataclass(frozen=True)
class SentenceBlock:
    """The bags of many sentences as row ranges of one block, in the store's dtype.

    Bag ``i`` is ``vectors[starts[i]:starts[i] + sizes[i]]``: the rows of
    ``tokens[i]``, its retained tokens in sentence order, then the pad
    vector once (twice when no token was retained).  The bags tile the block
    in order, without gaps, so ``starts`` is derived from ``sizes``.  No
    scorer modifies the block; each reads a bag at a time as float64.
    ``tokens[i]`` is a list: a dataset's worth of short tuples freed at once
    fills CPython's per-size tuple free lists, which held about 2 MB more of
    small-object arenas after a dozen benchmark passes.
    """

    vectors: np.ndarray
    sizes: np.ndarray
    tokens: tuple[list[str], ...]
    oov_counts: tuple[int, ...]
    starts: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "starts", np.cumsum(self.sizes) - self.sizes)

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def rows(self, i: int) -> np.ndarray:
        start = self.starts[i]
        return self.vectors[start:start + self.sizes[i]]

    def sample(self, i: int) -> SentenceSample:
        return SentenceSample(
            vectors=self.rows(i),
            token_count_before_padding=len(self.tokens[i]),
            tokens=tuple(self.tokens[i]),
            oov_count=self.oov_counts[i],
        )

    @classmethod
    def stack(cls, samples) -> SentenceBlock:
        """A block holding the given sentence samples, in order; they must share one width."""
        for s in samples:
            if s.dim != samples[0].dim:
                raise ValueError(f"dimension mismatch: {samples[0].dim} vs {s.dim}")
        sizes = np.array([s.n for s in samples], dtype=np.intp)
        return cls(
            vectors=np.vstack([s.vectors for s in samples]),
            sizes=sizes,
            tokens=tuple(list(s.tokens) for s in samples),
            oov_counts=tuple(s.oov_count for s in samples),
        )


def lookup_sentences(store: EmbeddingStore, texts, pad_token: str) -> SentenceBlock:
    """The padded bags of many sentences in one block (see :func:`lookup_sentence`).

    Each text is tokenised once; the rows of all bags are gathered from the
    store in one ``take``, in the store's dtype, and checked finite.  Bags
    are laid out in the order of ``texts``.
    """
    if pad_token not in store:
        raise UnknownTokenError(f"pad token {pad_token!r} not in vocabulary")
    vocab = store.vocab
    pad = vocab[pad_token]
    indices, tokens, oov_counts = [], [], []
    for text in texts:
        words = tokenize(text)
        retained = [t for t in words if t in vocab]
        tokens.append(retained)
        oov_counts.append(len(words) - len(retained))
        indices.append([vocab[t] for t in retained] + [pad] * (1 if retained else 2))
    sizes = np.array([len(rows) for rows in indices], dtype=np.intp)
    rows = np.fromiter(itertools.chain.from_iterable(indices), dtype=np.intp)
    vectors = store.matrix.take(rows, axis=0)
    if not np.isfinite(vectors).all():
        raise ValueError("sentence vectors must be finite")
    return SentenceBlock(vectors, sizes, tuple(tokens), tuple(oov_counts))
