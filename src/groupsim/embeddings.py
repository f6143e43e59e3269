"""Word-embedding lexicon and sentence assembly.

Loads whitespace-separated text embeddings (``token v1 ... vd`` per line,
optional two-integer count/dimension header) into an immutable store, and
turns tokenised text into a block of bags of vectors under a uniform padding
rule: every sentence receives one copy of a designated pad vector, and fully
out-of-vocabulary sentences receive two, so downstream dispersion estimates
are always defined (n >= 2).  A store records its non-finite rows once, when
it is made, and exposes its matrix read-only; :func:`lookup_tokens` is the
one gather, one vocabulary probe per token and one ``take``, and refuses a
block that reads a recorded row.  :func:`lookup_sentences` tokenises, then
gathers.  A bag is an (n, d) array or a row range of a
:class:`SentenceBlock`; a looked-up sentence is a block of one.  Bags keep
the store's dtype (float32 from the loader), and a kernel reads one bag or
block at a time as float64.  :func:`bag_rows` gives a bag's rows in their
own dtype, checked 2-D; the scoring entries of :mod:`groupsim.comparison`
check each bag where it enters.
"""

from __future__ import annotations

import itertools
import logging
import math
import numbers
import re
from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

from .errors import EmbeddingFormatError, UnknownTokenError

logger = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

PAD_TOKEN_CANDIDATES = (".", "the")


@dataclass(frozen=True)
class EmbeddingStore:
    """Immutable token -> vector map backed by a single matrix.

    ``vocab`` maps each token to its row in ``matrix``, every row to one
    token (checked when the store is made), and the store holds the matrix
    as a read-only view (the caller's array keeps its own flags); the array
    must not change after the store is made.  ``non_finite_rows`` records,
    once, the rows with a NaN or an infinite entry, in order; it is empty for
    every store :func:`load_embeddings` makes.
    """

    dim: int
    vocab: dict[str, int]
    matrix: np.ndarray
    duplicate_count: int = 0
    non_finite_rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.vocab:
            raise ValueError("embedding store must contain at least one token")
        if self.matrix.shape != (len(self.vocab), self.dim):
            raise ValueError("matrix shape does not match vocab size and dimension")
        _check_vocab(self.vocab)
        matrix = self.matrix.view()
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "non_finite_rows", _non_finite_rows(matrix))

    def __contains__(self, token: str) -> bool:
        return token in self.vocab

    def __len__(self) -> int:
        return len(self.vocab)


def _integral(value) -> bool:
    """Whether ``value`` is an integer (any ``numbers.Integral``) and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _integer_values(values) -> bool:
    """Whether every one of ``values`` is an integer (:func:`_integral`), with
    one test per distinct type, so a dict of any size is read at C speed."""
    return all(issubclass(kind, numbers.Integral) and kind is not bool
               for kind in set(map(type, values)))


def _check_vocab(vocab: dict[str, int]) -> None:
    """Raise unless ``vocab`` maps its n tokens onto the rows 0..n-1, each
    row once; the error names the first token that breaks the rule."""
    n = len(vocab)
    if _integer_values(vocab.values()):
        try:
            rows = np.fromiter(vocab.values(), dtype=np.intp, count=n)
        except OverflowError:  # an integer beyond any row index, named below
            rows = None
        if rows is not None and 0 <= rows.min() and rows.max() < n and np.bincount(rows).max() == 1:
            return
    seen = set()
    for token, row in vocab.items():
        if not (_integral(row) and 0 <= row < n):
            raise ValueError(f"vocab maps {token!r} to {row!r}, not a row index in [0, {n})")
        if row in seen:
            raise ValueError(f"vocab maps {token!r} to row {row}, which an earlier token has")
        seen.add(row)


def _non_finite_rows(matrix: np.ndarray) -> np.ndarray:
    """Indices of the rows with a non-finite entry.

    A finite float64 sum of every entry proves there are none, and needs no
    whole-matrix boolean temporary.  Otherwise each row's float64 sum names
    the candidates, and only those are checked entry by entry, so a row whose
    sum overflows from finite entries is not recorded.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if math.isfinite(np.add.reduce(matrix, axis=None, dtype=np.float64)):
            return np.empty(0, dtype=np.intp)
        rows = np.flatnonzero(~np.isfinite(np.add.reduce(matrix, axis=1, dtype=np.float64)))
    return rows[~np.isfinite(matrix[rows]).all(axis=1)]


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

    def bags(self) -> list[np.ndarray]:
        """Every bag's rows, views of ``vectors`` in order."""
        vectors = self.vectors
        return [vectors[start:start + size]
                for start, size in zip(self.starts.tolist(), self.sizes.tolist())]

    @property
    def token_count_before_padding(self) -> int:
        """Retained tokens over all bags."""
        return sum(map(len, self.tokens))

    @property
    def oov_count(self) -> int:
        """Out-of-vocabulary tokens dropped over all bags."""
        return sum(self.oov_counts)


def bag_rows(data) -> np.ndarray:
    """(n, d) rows of an array-like or a one-bag :class:`SentenceBlock`, in their own dtype."""
    if isinstance(data, SentenceBlock):
        if len(data) != 1:
            raise ValueError(f"expected a block of one bag, got {len(data)} bags")
        data = data.vectors
    rows = np.asarray(data)
    if rows.ndim != 2:
        raise ValueError("expected a 2-D array of row vectors")
    return rows


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

    The file is read in chunks of at most 1,024 lines, and only
    :func:`_parse_chunk` turns one into rows: a single parse of its numbers as
    float64 (numpy's C parser, or Python's ``float``, which also reads
    ``1_000``), then, after any normalisation, a cast to float32 to halve
    memory for large lexicons; sentence lookups keep float32.  A ragged,
    token-only, non-finite or unparsable line, a kept row with a value
    beyond float32's range (after any normalisation), or under ``normalize``
    a kept zero row, raises an :class:`EmbeddingFormatError` that names its
    line.
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
            block, dropped = _parse_chunk(path, lines, first_line, dim, vocab, normalize)
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


def _parse_chunk(path, lines: list[str], first_line: int, dim: int | None,
                 vocab: dict[str, int], normalize: bool) -> tuple[np.ndarray, int]:
    """The rows of a chunk that starts at line ``first_line``, and its duplicate count.

    The numbers are parsed in one ``np.loadtxt`` call or, if numpy rejects
    them, as one ``np.array`` of the split lines, which reads each with
    Python's ``float``.  The rows of tokens new to ``vocab`` (first occurrence
    wins) are kept, normalised under ``normalize``, cast to float32 and added
    to ``vocab``; a kept row whose float32 cast is not finite fails the
    chunk.  A chunk that fails a check leaves ``vocab`` untouched and raises
    its first bad line's error (:func:`_raise_bad_line`).
    """
    tokens, values = [], []
    try:
        for line in lines:
            if parts := line.split(None, 1):
                token, rest = parts  # a token-only line raises
                tokens.append(token)
                values.append(rest)
        if not values:
            return np.empty((0, 0), dtype=np.float32), 0
        try:
            block = np.loadtxt(values, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            block = np.array([v.split() for v in values], dtype=np.float64)
        if (dim is not None and block.shape[1] != dim) or not np.isfinite(block).all():
            raise ValueError("a row of another width or a non-finite number")
        kept = {}  # each new token -> its first row in the chunk
        for i, token in enumerate(tokens):
            if token not in vocab:
                kept.setdefault(token, i)
        block = block[list(kept.values())]
        if normalize:
            # np.linalg.norm's own 1-D x.dot(x), so rows match the per-line oracle bit for bit
            norms = np.array([math.sqrt(row.dot(row)) for row in block])
            if not norms.all():
                raise ValueError("a zero row")
            block /= norms[:, None]
        with np.errstate(over="ignore"):  # a value beyond float32's range raises below
            block = block.astype(np.float32)
        if not np.isfinite(block).all():
            raise ValueError("a kept row beyond float32's range")
    except ValueError:
        _raise_bad_line(path, lines, first_line, dim, vocab, normalize)
    for token in kept:
        vocab[token] = len(vocab)
    return block, len(tokens) - len(kept)


def _raise_bad_line(path, lines: list[str], first_line: int, dim: int | None,
                    vocab: dict[str, int], normalize: bool) -> NoReturn:
    """Raise the error of the first bad line of a chunk that :func:`_parse_chunk` rejected.

    Checks each line in turn as that parse checks the chunk: its numbers, its
    width and, when its token is in neither ``vocab`` nor an earlier line,
    under ``normalize`` a zero ``row.dot(row)``, then a float32 cast of the
    row, normalised under ``normalize``, that is not finite.  Builds no rows.
    """
    seen = set()
    for lineno, line in enumerate(lines, start=first_line):
        parts = line.split()
        if not parts:
            continue
        try:
            vec = np.array(parts[1:], dtype=np.float64)
        except ValueError as exc:
            raise EmbeddingFormatError(f"{path}:{lineno}: unparsable number ({exc})") from None
        if vec.size == 0:
            raise EmbeddingFormatError(f"{path}:{lineno}: no vector components")
        if not np.isfinite(vec).all():
            raise EmbeddingFormatError(f"{path}:{lineno}: non-finite component")
        dim = vec.size if dim is None else dim
        if vec.size != dim:
            raise EmbeddingFormatError(f"{path}:{lineno}: expected {dim} components, "
                                       f"found {vec.size}")
        if parts[0] not in vocab and parts[0] not in seen:  # a kept row
            if normalize:
                if vec.dot(vec) == 0.0:
                    raise EmbeddingFormatError(f"{path}:{lineno}: zero vector cannot be normalized")
                vec /= math.sqrt(vec.dot(vec))
            with np.errstate(over="ignore"):
                if not np.isfinite(vec.astype(np.float32)).all():
                    raise EmbeddingFormatError(f"{path}:{lineno}: component beyond float32's range")
        seen.add(parts[0])
    raise AssertionError(f"{path}:{first_line}: the chunk was rejected but has no bad line")


def find_pad_token(store: EmbeddingStore) -> str:
    """Default pad token: '.', then 'the', then the first vocabulary entry."""
    for candidate in PAD_TOKEN_CANDIDATES:
        if candidate in store:
            return candidate
    return next(iter(store.vocab))


def lookup_sentence(store: EmbeddingStore, text: str, pad_token: str) -> SentenceBlock:
    """The block of the one sentence ``text``: ``lookup_sentences(store, [text], pad_token)``."""
    return lookup_sentences(store, [text], pad_token)


def lookup_sentences(store: EmbeddingStore, texts, pad_token: str) -> SentenceBlock:
    """The padded bags of many sentences in one block: each text is tokenised
    once (:func:`tokenize`), then gathered by :func:`lookup_tokens`."""
    return lookup_tokens(store, [tokenize(text) for text in texts], pad_token)


def lookup_tokens(store: EmbeddingStore, token_lists, pad_token: str) -> SentenceBlock:
    """The padded bags of many tokenised sentences in one block: the one gather.

    Tokens missing from the vocabulary are dropped (counted in
    ``oov_counts``).  The pad vector is appended once to every sentence; a
    sentence with no retained tokens gets it twice, so n >= 2 always holds.
    Each token is probed in the vocabulary once, and the rows of all bags
    are gathered from the store in one ``take``, in the store's dtype.  A
    block that reads one of the store's non-finite rows raises; no row is
    scanned when the store has none.  Bags are laid out in the order of
    ``token_lists``.
    """
    if pad_token not in store:
        raise UnknownTokenError(f"pad token {pad_token!r} not in vocabulary")
    probe = store.vocab.get
    pad = store.vocab[pad_token]
    rows, sizes, tokens, oov_counts = [], [], [], []
    for words in token_lists:
        ids = list(map(probe, words))
        if None in ids:
            retained = [t for t, i in zip(words, ids) if i is not None]
            ids = [i for i in ids if i is not None]
        else:
            retained = list(words)
        tokens.append(retained)
        oov_counts.append(len(words) - len(retained))
        ids += (pad,) if retained else (pad, pad)
        rows += ids
        sizes.append(len(ids))
    rows = np.array(rows, dtype=np.intp)
    bad = store.non_finite_rows
    if bad.size and np.isin(rows, bad).any():
        raise ValueError("sentence vectors must be finite")
    return SentenceBlock(store.matrix.take(rows, axis=0), np.array(sizes, dtype=np.intp),
                         tuple(tokens), tuple(oov_counts))
