"""Seeded synthetic inputs for the benchmark, written as files only.

The program under test sees nothing but these files, in the formats its
loaders read:

* a text lexicon (``token v1 ... vd`` per line, optional ``count dim``
  header) whose vectors are GloVe-like: a shared offset, per-dimension scales
  that decay across dimensions, and topic clusters, with ``.`` present as the
  pad token;
* a Zipfian ``token count`` frequency file;
* TSV pair sets ``a<TAB>b<TAB>gold`` whose gold score is the latent token
  overlap of the two sentences plus noise, so rank correlation is meaningful;
* a corpus of long documents, one per line.

Everything is a pure function of the seed and the sizes, so the same seed
gives byte-identical files.
"""

from __future__ import annotations

import numpy as np

TOPICS = 64
COMMON_WORDS = 200  # highest-frequency ranks, shared by every topic
PAD = "."


def token_name(index: int) -> str:
    return f"w{index}"


def lexicon_chunks(rng: np.random.Generator, rows: int, dim: int, chunk: int = 2000):
    """GloVe-like rows, ``chunk`` at a time: common offset + topic centre +
    anisotropic noise, clipped to the ``[-]D.DDDDD`` range the writer uses."""
    scales = 0.45 / np.sqrt(1.0 + np.arange(dim) / 12.0)
    offset = 0.15 * rng.standard_normal(dim)
    centres = 0.35 * rng.standard_normal((TOPICS, dim)) * scales
    for start in range(0, rows, chunk):
        topic = np.arange(start, min(rows, start + chunk)) % TOPICS
        noise = rng.standard_normal((topic.size, dim)) * scales
        yield np.clip(offset + centres[topic] + noise, -9.99999, 9.99999)


def _format_rows(tokens: list[str], matrix: np.ndarray) -> bytes:
    """Vectorised ``%.5f`` text formatting, one chunk of rows at a time.

    Each value becomes `` [-]D.DDDDD``; the minus sign is kept only for
    negative values, so widths vary as in real GloVe files.
    """
    rows, dim = matrix.shape
    fixed = np.rint(np.abs(matrix) * 1e5).astype(np.int64)
    cells = np.empty((rows, dim, 9), dtype=np.uint8)
    cells[:, :, 0] = ord(" ")
    cells[:, :, 1] = ord("-")
    cells[:, :, 2] = ord("0") + fixed // 100000
    cells[:, :, 3] = ord(".")
    for j in range(5):
        cells[:, :, 8 - j] = ord("0") + (fixed // 10**j) % 10
    keep = np.ones((rows, dim, 9), dtype=bool)
    keep[:, :, 1] = (matrix < 0.0) & (fixed > 0)
    flat = cells[keep].tobytes()
    ends = np.cumsum(keep.reshape(rows, -1).sum(axis=1))
    starts = np.concatenate(([0], ends[:-1]))
    return b"".join(
        tok.encode("ascii") + flat[s:e] + b"\n" for tok, s, e in zip(tokens, starts, ends)
    )


def write_lexicon(path, seed: int, rows: int, dim: int, header: bool) -> None:
    """Write the lexicon, pad token first, in chunks so memory stays small."""
    tokens = [PAD] + [token_name(i) for i in range(1, rows)]
    start = 0
    with open(path, "wb") as handle:
        if header:
            handle.write(f"{rows} {dim}\n".encode("ascii"))
        for block in lexicon_chunks(np.random.default_rng([seed, 1]), rows, dim):
            handle.write(_format_rows(tokens[start:start + len(block)], block))
            start += len(block)


def zipf_probabilities(rows: int) -> np.ndarray:
    """Token-sampling probabilities by rank (rank 1 = ``w1``); pad excluded."""
    p = np.zeros(rows)
    p[1:] = 1.0 / np.arange(1, rows) ** 1.05
    return p / p.sum()


def write_frequencies(path, rows: int) -> None:
    """Zipfian ``token count`` file over the lexicon's word tokens."""
    counts = np.floor(5e7 / np.arange(1, rows) ** 1.05).astype(np.int64) + 1
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(f"{token_name(i)} {c}\n" for i, c in zip(range(1, rows), counts)))


class SentenceSampler:
    """Draws topical token lists over a lexicon of ``rows`` tokens.

    A sentence mixes high-frequency words (Zipfian over the whole lexicon)
    with words of one topic; about ``oov_rate`` of tokens are replaced by
    words absent from the lexicon.
    """

    def __init__(self, rng: np.random.Generator, rows: int, oov_rate: float = 0.05):
        self.rng = rng
        self.rows = rows
        self.oov_rate = oov_rate
        self.cdf = np.cumsum(zipf_probabilities(rows))
        self.oov_serial = 0

    def _common(self, k: int) -> np.ndarray:
        return np.minimum(np.searchsorted(self.cdf, self.rng.random(k)), self.rows - 1)

    def _topical(self, topic: int, k: int) -> np.ndarray:
        # tokens of a topic are those with index % TOPICS == topic, past the common ranks
        first = COMMON_WORDS + ((topic - COMMON_WORDS) % TOPICS)
        span = (self.rows - 1 - first) // TOPICS
        return first + TOPICS * self.rng.integers(0, span + 1, size=k)

    def draw(self, topic: int, length: int) -> list[str]:
        common = self.rng.random(length) < 0.4
        ids = np.where(common, self._common(length), self._topical(topic, length))
        words = [token_name(int(i)) for i in ids]
        for j in np.flatnonzero(self.rng.random(length) < self.oov_rate):
            words[j] = self.oov()
        return words

    def oov(self) -> str:
        self.oov_serial += 1
        return f"oov{self.oov_serial}"


def write_pairs(path, sampler: SentenceSampler, pairs: int, min_len: int = 6,
                max_len: int = 20, full_oov_every: int = 47) -> None:
    """TSV of sentence pairs with gold = 5 * latent overlap + noise.

    Sentence b keeps a random share of a's tokens (never all of b) and draws
    the rest from the same topic or, for low overlaps, another one.  Every
    ``full_oov_every``-th pair has a fully out-of-vocabulary side; no pair has
    two, so no two pairs are exact copies of each other.
    """
    rng = sampler.rng
    lines = []
    for i in range(pairs):
        topic = int(rng.integers(TOPICS))
        a = sampler.draw(topic, int(rng.integers(min_len, max_len + 1)))
        overlap = float(rng.random())
        len_b = int(rng.integers(min_len, max_len + 1))
        # b always gets two fresh tokens: a pair of equal bags scores a constant
        # that only rounding orders, which would make rho fragile
        keep = min(int(round(overlap * min(len_b, len(a)))), len_b - 2)
        kept = [a[j] for j in rng.permutation(len(a))[:keep]]
        other = topic if rng.random() < overlap else int(rng.integers(TOPICS))
        b = kept + sampler.draw(other, len_b - len(kept))
        b = [b[j] for j in rng.permutation(len(b))]
        if i % full_oov_every == full_oov_every - 1:
            side = [sampler.oov() for _ in range(len(a) if i % 2 else len(b))]
            if i % 2:
                a = side
            else:
                b = side
        gold = min(5.0, max(0.0, 5.0 * overlap + 0.4 * float(rng.standard_normal())))
        lines.append(f"{' '.join(a)}\t{' '.join(b)}\t{gold:.4f}\n")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(lines))


def write_corpus(path, sampler: SentenceSampler, docs: int, min_len: int = 50,
                 max_len: int = 200) -> None:
    """One long single-topic document per line."""
    rng = sampler.rng
    lines = []
    for _ in range(docs):
        words = sampler.draw(int(rng.integers(TOPICS)), int(rng.integers(min_len, max_len + 1)))
        lines.append(" ".join(words) + "\n")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(lines))
