"""The two-process embedding loader against the one-range load and the per-line oracle.

``_SPLIT_BYTES`` is patched to 0, so even a small file is split: a forked
child parses the lines from the first line start at or after half the file,
and this process the lines before it.  Every store must equal, in
vocabulary order, matrix bytes and duplicate count, the one-range load's and
:func:`helpers.load_embeddings_per_line`'s, and every error must be theirs;
no child may be left after a load.
"""

import io
import os
import warnings

import numpy as np
import pytest
from helpers import load_embeddings_per_line

from groupsim import embeddings
from groupsim.embeddings import _line_start, load_embeddings
from groupsim.errors import EmbeddingFormatError

DIM = 3


def _outcome(loader, path, normalize):
    try:
        store = loader(path, normalize=normalize)
    except EmbeddingFormatError as exc:
        return "error", str(exc)
    return list(store.vocab), store.matrix.dtype, store.matrix.tobytes(), store.duplicate_count


def _one_range(path, normalize=False):
    saved = embeddings._SPLIT_BYTES
    embeddings._SPLIT_BYTES = float("inf")
    try:
        return load_embeddings(path, normalize=normalize)
    finally:
        embeddings._SPLIT_BYTES = saved


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Split every file, and count the forks."""
    calls, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            calls.append(pid)
        return pid

    monkeypatch.setattr(embeddings, "_SPLIT_BYTES", 0)
    monkeypatch.setattr(os, "fork", counted)
    return calls


def _lines(rows=40, seed=5):
    rng = np.random.default_rng(seed)
    return [[f"w{i}"] + [repr(float(v)) for v in rng.standard_normal(DIM)] for i in range(rows)]


def _middle(fields):
    """The index of the line that holds the middle byte of ``fields`` written with "\n"."""
    ends = np.cumsum([len(" ".join(f).encode("utf-8")) + 1 for f in fields])
    return int(np.searchsorted(ends, ends[-1] // 2, side="right"))


def _write(path, fields, newline="\n", head=b""):
    path.write_bytes(head + "".join(" ".join(f) + newline for f in fields).encode("utf-8"))


def _check_same(path, normalize=False):
    expected = _outcome(load_embeddings_per_line, path, normalize)
    assert _outcome(_one_range, path, normalize) == expected
    assert _outcome(load_embeddings, path, normalize) == expected
    _no_child_left()
    return expected


def _sweep(path, fields, newline="\n", head=b"", normalize=False, pads=range(0, 260, 3)):
    """:func:`_check_same` of ``fields`` with its first token padded by each
    of ``pads`` bytes: per byte of padding the search for the split starts
    half a byte earlier in the lines that follow, so the split falls after
    the middle line, then before it and the line before that, and the search
    starts on every byte of a line end.  The outcomes, in order."""
    token = fields[0][0]
    outcomes = []
    for pad in pads:
        fields[0][0] = token + "_" * pad
        _write(path, fields, newline, head)
        outcomes.append(_check_same(path, normalize))
    return outcomes


class TestLineStart:
    @pytest.mark.parametrize("data,start", [
        (b"a 1\nb 2\nc 3\n", 8),        # size 12: from byte 5, the "\n" at 7
        (b"a 1\r\nb 2\r\nc 3\r\n", 10),  # a "\r\n" is one line end
        (b"a 1\rb 2\rc 3\r", 8),        # as is a lone "\r"
        (b"ab 1\r\n2\n", 6),            # size 8: byte 3 starts the search, "\r\n" ends at 6
        (b"ab 12\r\n", 7),              # the last line end: nothing is left to split off
        (b"abcdefgh", 8),               # no line end at all
    ])
    def test_first_line_start_at_or_after_half(self, data, start):
        assert _line_start(io.BytesIO(data), len(data)) == start

    @pytest.mark.parametrize("after,start", [(b"\n", 65536 + 65537), (b"x", 65536 + 65536)])
    def test_a_carriage_return_at_the_end_of_a_window(self, after, start):
        """The search reads 64 KiB windows from size // 2 - 1 = 65,536: a "\\r"
        that ends the first window is a line end of its own only when no
        "\\n" follows it in the next."""
        data = b"x" * 65536 + b"y" * 65535 + b"\r" + after + b"z"
        assert len(data) // 2 - 1 == 65536
        assert _line_start(io.BytesIO(data), len(data)) == start


class TestSameStore:
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_line_ends_and_non_ascii_tokens_near_the_split(self, tmp_path, forks, newline):
        """Non-ASCII tokens, and a byte-order mark that starts a token, which
        only the start of the file drops, on the lines around the middle."""
        fields = _lines()
        mid = _middle(fields)
        for i, token in zip(range(mid - 2, mid + 3), ["éa", "\ufeffж", "日本", "\ufeffﬁ", "ä"]):
            fields[i][0] = token
        path = tmp_path / "lexicon.txt"
        _sweep(path, fields, newline)
        assert len(_one_range(path)) == len(fields)
        assert len(forks) == len(range(0, 260, 3))

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_normalized_rows(self, tmp_path, forks, newline):
        _sweep(tmp_path / "lexicon.txt", _lines(), newline, normalize=True, pads=range(0, 60, 7))

    @pytest.mark.parametrize("head", [b"", b"\xef\xbb\xbf", b"40 3\n", b"\xef\xbb\xbf40 3\r\n"])
    def test_header_and_byte_order_mark(self, tmp_path, forks, head):
        path = tmp_path / "lexicon.txt"
        _write(path, _lines(), "\r\n", head)
        store = load_embeddings(path)
        assert len(store) == 40 and next(iter(store.vocab)) == "w0"
        _check_same(path)

    def test_a_header_like_line_after_line_one_is_a_bad_line(self, tmp_path, forks):
        fields = _lines()
        fields[_middle(fields)] = ["40", "3"]
        outcomes = _sweep(tmp_path / "lexicon.txt", fields, pads=range(0, 260, 9))
        assert {kind for kind, *_ in outcomes} == {"error"}

    def test_mixed_line_ends(self, tmp_path, forks):
        fields = _lines(60)
        path = tmp_path / "lexicon.txt"
        path.write_bytes("".join(" ".join(f) + ("\n", "\r\n", "\r")[i % 3]
                                 for i, f in enumerate(fields)).encode("utf-8"))
        _check_same(path)

    def test_a_token_in_both_halves_and_twice_in_the_second(self, tmp_path, forks, caplog):
        fields = _lines()
        mid = _middle(fields)
        fields[mid + 3][0] = "w1"  # kept by the first half
        fields[mid + 5][0] = fields[mid + 8][0] = "again"
        fields[-1][0] = "w1"
        path = tmp_path / "lexicon.txt"
        _write(path, fields)
        store = load_embeddings(path)
        assert store.duplicate_count == 3
        assert list(store.vocab).count("again") == 1
        assert "3 duplicate tokens ignored" in caplog.text
        _check_same(path)

    def test_every_second_half_token_kept_by_the_first(self, tmp_path, forks):
        fields = _lines()
        mid = _middle(fields)
        for i in range(mid, len(fields)):
            fields[i][0] = f"w{i - mid}"
        path = tmp_path / "lexicon.txt"
        _write(path, fields)
        assert load_embeddings(path).duplicate_count == len(fields) - mid
        _check_same(path)

    def test_a_zero_row_whose_token_the_first_half_kept_loads(self, tmp_path, forks):
        """The child checks the row as kept and fails; this process drops it."""
        fields = _lines()
        fields[_middle(fields) + 4] = ["w2"] + ["0"] * DIM
        path = tmp_path / "lexicon.txt"
        _write(path, fields)
        store = load_embeddings(path, normalize=True)
        assert store.duplicate_count == 1
        assert _check_same(path, normalize=True)[0] != "error"

    @pytest.mark.parametrize("blank", ["\n", " \t\r\n"])
    def test_a_blank_second_half(self, tmp_path, forks, blank):
        path = tmp_path / "lexicon.txt"
        _write(path, _lines(10))
        path.write_bytes(path.read_bytes() + blank.encode() * 2000)
        assert len(load_embeddings(path)) == 10
        _check_same(path)

    def test_a_blank_first_half(self, tmp_path, forks):
        path = tmp_path / "lexicon.txt"
        path.write_bytes(b"10 3\n" + b"\n" * 2000)
        _write(path, _lines(10), head=path.read_bytes())
        assert len(load_embeddings(path)) == 10
        _check_same(path)

    def test_nothing_but_blank_lines(self, tmp_path, forks):
        path = tmp_path / "lexicon.txt"
        path.write_bytes(b"\n" * 400)
        with pytest.raises(EmbeddingFormatError, match="no embedding rows found"):
            load_embeddings(path)
        _no_child_left()

    def test_values_beyond_float32_and_an_overflowing_square_norm(self, tmp_path, forks):
        fields = _lines()
        mid = _middle(fields)
        fields[mid + 2] = ["big"] + ["1e200", "2e200", "-3e200"]
        fields[mid + 4] = ["w0"] + ["1e39"] * DIM  # dropped: beyond float32 is no error
        path = tmp_path / "lexicon.txt"
        _write(path, fields)
        assert _check_same(path, normalize=True)[0] != "error"
        assert _check_same(path)[0] == "error"


class TestErrors:
    @pytest.mark.parametrize("kind,message", [
        ("ragged", "expected 3 components, found 2"),
        ("long", "expected 3 components, found 4"),
        ("unparsable", "unparsable number"),
        ("token_only", "no vector components"),
        ("nan", "non-finite component"),
        ("zero", "zero vector cannot be normalized"),
    ])
    def test_a_bad_line_near_the_split_names_its_absolute_line(self, tmp_path, forks, kind,
                                                              message):
        """In the first half, first in the second or deeper in it."""
        fields = _lines()
        line = _middle(fields)
        fields[line] = {"ragged": fields[line][:-1], "long": fields[line] + ["0.5"],
                        "unparsable": fields[line][:2] + ["1.2.3", "0"],
                        "token_only": fields[line][:1], "nan": fields[line][:3] + ["nan"],
                        "zero": [fields[line][0]] + ["0"] * DIM}[kind]
        path = tmp_path / "lexicon.txt"
        for outcome in _sweep(path, fields, head=b"40 3\n", normalize=kind == "zero",
                              pads=range(0, 260, 9)):
            assert outcome[0] == "error"
            assert outcome[1].startswith(f"{path}:{line + 2}: {message}")  # after the header

    @pytest.mark.parametrize("change,width", [(lambda row: row.pop(), 2),
                                              (lambda row: row.append("0.5"), 4)])
    def test_a_second_half_of_another_width(self, tmp_path, forks, change, width):
        """The child parses a width of its own; the error is the first line of another width."""
        fields = _lines()
        mid = _middle(fields)
        for row in fields[mid + 1:]:
            change(row)
        path = tmp_path / "lexicon.txt"
        _write(path, fields)
        assert _check_same(path)[1].startswith(f"{path}:{mid + 2}: expected 3 components, "
                                               f"found {width}")

    def test_a_bad_first_half_line_kills_the_child(self, tmp_path, forks):
        fields = _lines()
        fields[3][2] = "x"
        path = tmp_path / "lexicon.txt"
        _write(path, fields)
        with pytest.raises(EmbeddingFormatError, match=":4: unparsable number"):
            load_embeddings(path)
        assert len(forks) == 1
        _no_child_left()

    def test_an_interrupt_kills_the_child(self, tmp_path, forks, monkeypatch):
        parse = embeddings._parse_chunk

        def interrupted(path, lines, first_line, *args):
            if first_line == 1:  # this process's first chunk; the child numbers from 0
                raise KeyboardInterrupt
            return parse(path, lines, first_line, *args)

        monkeypatch.setattr(embeddings, "_parse_chunk", interrupted)
        path = tmp_path / "lexicon.txt"
        _write(path, _lines())
        with pytest.raises(KeyboardInterrupt):
            load_embeddings(path)
        _no_child_left()


class TestFailedChild:
    @pytest.fixture
    def path(self, tmp_path):
        fields = _lines(60)
        fields[45][0] = "w3"
        path = tmp_path / "lexicon.txt"
        _write(path, fields)
        return path

    def test_a_child_that_exits_at_once(self, path, forks, monkeypatch):
        monkeypatch.setattr(embeddings, "_child_parse", lambda *args: os._exit(0))
        _check_same(path)
        assert len(forks) == 1

    def test_a_child_that_sends_too_few_rows(self, path, forks, monkeypatch):
        """A short read after part of the rows went into the matrix."""
        parse = embeddings._parse_lines

        def short(path, handle, line, *args):
            blocks, dim, duplicates, end = parse(path, handle, line, *args)
            if line == 0:  # the child: one row fewer than its tokens
                blocks[-1] = blocks[-1][:-1]
            return blocks, dim, duplicates, end

        monkeypatch.setattr(embeddings, "_parse_lines", short)
        _check_same(path)
        assert len(forks) == 1

    def test_no_fork(self, path, forks, monkeypatch):
        def refused():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", refused)
        _check_same(path)


class TestWhenToSplit:
    def test_a_small_file_is_one_range(self, tmp_path, monkeypatch):
        forks = []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1))
        path = tmp_path / "lexicon.txt"
        _write(path, _lines())
        load_embeddings(path)
        assert forks == []

    def test_only_where_fork_is_linux(self, tmp_path, forks, monkeypatch):
        monkeypatch.setattr(embeddings, "_FORKS", False)
        path = tmp_path / "lexicon.txt"
        _write(path, _lines())
        _check_same(path)
        assert forks == []

    def test_the_fork_warning_is_not_shown(self, tmp_path, forks, monkeypatch):
        """Python 3.12 warns on a fork in a process with other threads."""
        fork = os.fork

        def warning_fork():
            pid = fork()
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                          "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        path = tmp_path / "lexicon.txt"
        _write(path, _lines())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _check_same(path)
