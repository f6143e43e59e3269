"""Word-embedding lexicon and sentence assembly.

Loads whitespace-separated text embeddings (``token v1 ... vd`` per line,
optional two-integer count/dimension header) into an immutable store, and
turns tokenised text into a block of bags of vectors under a uniform padding
rule: every sentence receives one copy of a designated pad vector, and fully
out-of-vocabulary sentences receive two, so downstream dispersion estimates
are always defined (n >= 2).  One parse, :func:`_parse_rows`, holds the
rules a lexicon row must meet: it makes a chunk's rows, and names a bad line
when run on one line at a time (on Linux a file of 2 MiB or more is parsed by
two processes, with the store and every error of a load in one).  A store
records its non-finite rows once, when it is made, and exposes its matrix
read-only; :func:`lookup_tokens` is the one gather, one vocabulary probe per
token and one ``take``, and refuses a block that reads a recorded row.
:func:`lookup_sentences` tokenises, then gathers.  A bag is an (n, d) array
or a row range of a :class:`SentenceBlock`; a looked-up sentence is a block
of one.  Bags keep the store's dtype (float32 from the loader), and a kernel
reads one bag or block at a time as float64.  :func:`bag_rows` gives a bag's
rows in their own dtype, checked 2-D; the scoring entries of
:mod:`groupsim.comparison` check each bag where it enters.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import logging
import math
import numbers
import os
import pickle
import re
import signal
import struct
import sys
import warnings
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
# file size from which a forked child parses the second half (Linux only; see load_embeddings)
_SPLIT_BYTES = 1 << 21
_FORKS = sys.platform == "linux" and hasattr(os, "fork")
# a line ends at "\n", "\r\n" or a "\r" that no "\n" follows, as text-mode files split lines
_LINE_END = re.compile(rb"\r\n?|\n")


def load_embeddings(path, normalize: bool = False) -> EmbeddingStore:
    """Parse a text embedding file into an :class:`EmbeddingStore`.

    A leading UTF-8 byte-order mark is dropped, and a first line of exactly
    two integers is a count/dimension header.  With ``normalize`` every row
    is scaled to unit Euclidean norm; a row whose squared norm overflows is
    divided by its largest magnitude first, so it loads as its unit vector.
    On duplicate tokens the first occurrence wins and the count is reported.

    The file is read in chunks of at most 1,024 lines, and only
    :func:`_parse_rows` turns one into rows: a single parse of its numbers as
    float64 (numpy's C parser, or Python's ``float``, which also reads
    ``1_000``), then, after any normalisation, a cast to float32 to halve
    memory for large lexicons; sentence lookups keep float32.  A chunk it
    rejects is parsed again by it one line at a time (:func:`_parse_chunk`),
    and the first bad line raises an :class:`EmbeddingFormatError` that
    names it: in the order the rules are checked, a number neither parser
    reads, a token-only line, a non-finite value, a row of another width, under
    ``normalize`` a kept zero row, or a kept row with a value beyond
    float32's range (after any normalisation).  The store's matrix is
    allocated once, when every row is parsed, and each chunk is released as
    it is copied in.

    On Linux a file of at least 2 MiB is parsed on two cores: a forked child
    parses the lines from the first line start at or after half the file
    with a vocabulary of its own, while this process parses the lines before
    it; the child sends its kept tokens, then its float32 rows, which are
    read straight into the tail of the matrix (a token the first half kept
    is dropped there and counted as a duplicate).  A child that fails for
    any reason (a bad line, another width, a zero row whose token the first
    half kept, a short read) is discarded and its lines are parsed here,
    carrying on the vocabulary, width and line numbers, so the store and
    every error are those of the one-range load.  The child is reaped before
    this returns or raises.
    """
    size = os.stat(path).st_size
    mid = size
    if size >= _SPLIT_BYTES and _FORKS:
        with open(path, "rb") as handle:
            mid = _line_start(handle, size)
    split = mid < size
    vocab: dict[str, int] = {}
    with _forked_parse(path, mid, normalize) if split else contextlib.nullcontext() as child:
        with _text_range(path, 0, mid if split else None) as handle:
            blocks, dim, duplicates, line = _parse_lines(path, handle, 1, None, vocab, normalize)
        joined = _join_child(child, blocks, dim, vocab) if child else None
    if joined:
        matrix, dim, dropped = joined
        duplicates += dropped
    else:
        if split:  # no child, or a failed one: its lines are parsed here, as in one range
            with _text_range(path, mid, None) as handle:
                more, dim, dropped, _ = _parse_lines(path, handle, line, dim, vocab, normalize)
            blocks += more
            duplicates += dropped
        if not blocks:
            raise EmbeddingFormatError(f"{path}: no embedding rows found")
        matrix = _stack(blocks, dim)
    if duplicates:
        logger.warning("%s: %d duplicate tokens ignored (first occurrence kept)", path, duplicates)
    return EmbeddingStore(dim=int(dim), vocab=vocab, matrix=matrix, duplicate_count=duplicates)


def _line_start(handle, size: int) -> int:
    """The first line start at or after ``size // 2`` of a binary file, or ``size``."""
    position = max(size // 2 - 1, 0)
    handle.seek(position)
    while window := handle.read(1 << 16):
        if match := _LINE_END.search(window):
            end = position + match.end()
            if match.end() == len(window) and window.endswith(b"\r"):  # a "\r\n" split by the window
                end += handle.read(1) == b"\n"
            return end
        position += len(window)
    return size


class _Span(io.RawIOBase):
    """The next ``size`` bytes of an unbuffered binary file, which it closes."""

    def __init__(self, raw, size: int):
        self.raw, self.left = raw, size

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self.raw.readinto(memoryview(buffer)[:self.left])
        self.left -= count
        return count

    def close(self) -> None:
        self.raw.close()
        super().close()


def _text_range(path, start: int, stop: int | None):
    """The text of the bytes [start, stop) of ``path`` (to its end when ``stop`` is None),
    read as ``open(path, encoding="utf-8-sig")`` reads it: lines split at ``\\n``, ``\\r\\n``
    and a lone ``\\r``, and a byte-order mark dropped only at the start of the file."""
    raw = open(path, "rb", buffering=0)
    raw.seek(start)
    reader = io.BufferedReader(raw if stop is None else _Span(raw, stop - start))
    return io.TextIOWrapper(reader, encoding="utf-8-sig" if start == 0 else "utf-8")


def _parse_lines(path, handle, line: int, dim: int | None, vocab: dict[str, int],
                 normalize: bool) -> tuple[list[np.ndarray], int | None, int, int]:
    """(blocks, width, duplicates, next line number) of the lines of a text
    ``handle`` numbered from ``line``, in chunks of :data:`_CHUNK_LINES`
    through :func:`_parse_chunk`; line 1 may be a header."""
    blocks, duplicates = [], 0
    while lines := list(itertools.islice(handle, _CHUNK_LINES)):
        if line == 1 and _looks_like_header(lines[0].split()):
            lines[0] = ""  # blank lines are skipped; the numbering stays
        block, dropped = _parse_chunk(path, lines, line, dim, vocab, normalize)
        if block.size:
            dim = block.shape[1]
            blocks.append(block)
        duplicates += dropped
        line += len(lines)
    return blocks, dim, duplicates, line


def _stack(blocks: list[np.ndarray], dim: int, extra: int = 0) -> np.ndarray:
    """A float32 matrix of the rows of ``blocks``, then ``extra`` rows left
    unset; each block leaves the list as it is copied, so the blocks and the
    matrix are held together one block at a time."""
    matrix = np.empty((sum(map(len, blocks)) + extra, dim), dtype=np.float32)
    row = 0
    blocks.reverse()
    while blocks:
        block = blocks.pop()
        matrix[row:row + len(block)] = block
        row += len(block)
    return matrix


@contextlib.contextmanager
def _forked_parse(path, start: int, normalize: bool):
    """A forked child that parses the lines of ``path`` from byte ``start``
    (:func:`_child_parse`); yields the read end of its pipe, or None when no
    child could be made.  The child is killed and reaped on exit, whether
    the caller returns or raises.

    Every signal is blocked across the fork and stays blocked in the child,
    so only this process decides its end.  From Python 3.12, ``os.fork`` in
    a process with other threads warns; the warning is ignored here, since
    the child only parses text, with numpy's text parser and one-row dot
    products, and writes to its pipe: it takes no lock another thread could
    hold, and logs, prints and flushes nothing before ``os._exit``.
    (OpenBLAS also stops its worker threads before a fork.)
    """
    read_end, write_end = os.pipe()
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", r".*fork\(\)", DeprecationWarning)
            pid = os.fork()
    except OSError:
        pid = None
    if pid == 0:
        _child_parse(path, start, normalize, read_end, write_end)
    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            yield pipe if pid else None
    finally:
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child_parse(path, start: int, normalize: bool, read_end: int, write_end: int) -> NoReturn:
    """In a forked child: close the pipe's ``read_end``, so a write fails
    once the parent is gone; parse the lines of ``path`` from byte ``start``
    with an empty vocabulary, write to ``write_end`` a pickled header (kept
    tokens in order, duplicate count, width) after its 8-byte length, then
    the float32 rows, and exit; a failure writes nothing more.  Line numbers
    are not kept: a failed child's lines are parsed again by the parent."""
    try:
        os.close(read_end)
        vocab: dict[str, int] = {}
        with _text_range(path, start, None) as handle:
            blocks, dim, duplicates, _ = _parse_lines(path, handle, 0, None, vocab, normalize)
        header = pickle.dumps((list(vocab), duplicates, dim))
        with open(write_end, "wb") as pipe:
            pipe.write(struct.pack("<q", len(header)) + header)
            for block in blocks:
                pipe.write(block)
    finally:
        os._exit(0)


def _join_child(pipe, blocks: list[np.ndarray], dim: int | None, vocab: dict[str, int]):
    """(matrix, width, duplicates) of this process's ``blocks`` followed by
    the child's rows on ``pipe``, read straight into the matrix; the child's
    tokens join ``vocab`` after its own, but for those ``vocab`` already
    holds, whose rows are dropped and counted as duplicates.  None, with
    ``blocks`` and ``vocab`` as they stood, when the child failed (a short
    read) or its width is not ``dim``."""
    try:
        (length,) = struct.unpack("<q", pipe.read(8))
        tokens, duplicates, width = pickle.loads(pipe.read(length))
    except (struct.error, pickle.UnpicklingError, EOFError, ValueError):
        return None
    dim = width if dim is None else dim
    if dim is None or width not in (None, dim):  # no rows at all, or two widths
        return None
    kept = [token not in vocab for token in tokens]
    count = sum(kept)
    matrix = _stack(blocks, dim, count)
    row = len(matrix) - count
    for keep, run in itertools.groupby(kept):
        rows = len(list(run))
        if keep:
            target, row = matrix[row:row + rows], row + rows
        else:
            target = np.empty((rows, dim), dtype=np.float32)
        if pipe.readinto(target) != target.nbytes:
            blocks.append(matrix[:len(matrix) - count])
            return None
    for token in itertools.compress(tokens, kept):
        vocab[token] = len(vocab)
    return matrix, dim, duplicates + len(tokens) - count


def _parse_chunk(path, lines: list[str], first_line: int, dim: int | None,
                 vocab: dict[str, int], normalize: bool) -> tuple[np.ndarray, int]:
    """The rows of a chunk that starts at line ``first_line``, and its duplicate count.

    A chunk :func:`_parse_rows` rejects is parsed again one line at a time,
    against a copy of ``vocab`` that each good line's kept token joins, and
    its first bad line raises the rule's message, named by its line.
    """
    try:
        return _parse_rows(lines, dim, vocab, normalize)
    except ValueError:
        pass
    trial = dict(vocab)
    for lineno, line in enumerate(lines, start=first_line):
        try:
            block, _ = _parse_rows([line], dim, trial, normalize)
        except ValueError as exc:
            raise EmbeddingFormatError(f"{path}:{lineno}: {exc}") from None
        if block.size:
            dim = block.shape[1]
    raise AssertionError(f"{path}:{first_line}: the chunk was rejected but has no bad line")


def _parse_rows(lines: list[str], dim: int | None, vocab: dict[str, int],
                normalize: bool) -> tuple[np.ndarray, int]:
    """The kept rows of ``lines`` as float32, and the count of the others.

    The one place the row rules live.  The numbers are parsed in one
    ``np.loadtxt`` call or, if numpy rejects them, as one ``np.array`` of the
    split lines, which reads each with Python's ``float``.  A ``ValueError``
    with the rule's message is raised for a token-only line, an unparsable
    number, a non-finite value or a width other than ``dim``.  The rows of
    tokens new to ``vocab`` (first occurrence wins) are kept, normalised
    under ``normalize`` (a zero row fails), cast to float32 (a value beyond
    its range fails) and, when no rule failed, added to ``vocab``.
    """
    tokens, values = [], []
    for line in lines:
        if parts := line.split(None, 1):
            if len(parts) == 1:
                raise ValueError("no vector components")
            tokens.append(parts[0])
            values.append(parts[1])
    if not values:
        return np.empty((0, 0), dtype=np.float32), 0
    try:
        block = np.loadtxt(values, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        try:
            block = np.array([v.split() for v in values], dtype=np.float64)
        except ValueError as exc:
            raise ValueError(f"unparsable number ({exc})") from None
    if not np.isfinite(block).all():
        raise ValueError("non-finite component")
    if dim is not None and block.shape[1] != dim:
        raise ValueError(f"expected {dim} components, found {block.shape[1]}")
    kept = {}  # each new token -> its first row in the chunk
    for i, token in enumerate(tokens):
        if token not in vocab:
            kept.setdefault(token, i)
    block = block[list(kept.values())]
    if normalize:
        norms = _row_norms(block)
        if not norms.all():
            raise ValueError("zero vector cannot be normalized")
        block /= norms[:, None]
    with np.errstate(over="ignore"):  # a value beyond float32's range raises below
        block = block.astype(np.float32)
    if not np.isfinite(block).all():
        raise ValueError("component beyond float32's range")
    for token in kept:
        vocab[token] = len(vocab)
    return block, len(tokens) - len(kept)


def _row_norms(block: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of a float64 ``block``, as
    ``math.sqrt(row.dot(row))``: np.linalg.norm's own 1-D dot, so rows match
    the per-line oracle bit for bit.  A row whose squared norm overflows is
    first divided, in place, by its largest magnitude, and its norm is the
    scaled row's."""
    with np.errstate(over="ignore"):  # an overflowing row is scaled below
        norms = np.array([math.sqrt(row.dot(row)) for row in block])
    for i in np.flatnonzero(np.isinf(norms)):
        row = block[i]
        row /= np.abs(row).max()
        norms[i] = math.sqrt(row.dot(row))
    return norms


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
