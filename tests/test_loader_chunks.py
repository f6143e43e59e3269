"""The chunked embedding loader against the line-by-line oracle.

Every lexicon here spans at least three chunks, so duplicates, blank lines,
odd numerals and corrupt rows land in later chunks and across chunk
boundaries, where the loader carries the dimension and vocabulary over.
"""

import numpy as np
import pytest
from helpers import load_embeddings_per_line
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from groupsim import embeddings
from groupsim.embeddings import _CHUNK_LINES as CHUNK
from groupsim.embeddings import load_embeddings
from groupsim.errors import EmbeddingFormatError

SPECIALS = ("blank", "dup", "zero_dup", "zero_dup_near", "big_dup", "huge", "tab",
            "underscore", "arabic")
# data-row indices at the first two chunk boundaries
BOUNDARIES = (CHUNK - 2, CHUNK - 1, CHUNK, 2 * CHUNK - 2, 2 * CHUNK - 1, 2 * CHUNK)
FORMATS = (repr, "{:.4g}".format, "{:.6e}".format)


def _rows(rng, rows, dim):
    """Field lists ``[token, v1, ..., vd]`` with a mix of number formats."""
    values = rng.standard_normal((rows, dim)) * 10.0 ** rng.integers(-3, 4, size=(rows, 1))
    formats = rng.integers(0, len(FORMATS), size=rows)
    return [
        [f"w{i}"] + [FORMATS[f](float(v)) for v in row]
        for i, (row, f) in enumerate(zip(values, formats))
    ]


def _write(path, rows, header=False, separators=None, blanks=()):
    lines = [f"{len(rows)} {len(rows[0]) - 1}\n"] if header else []
    for i, fields in enumerate(rows):
        if i in blanks:
            lines.append(" \t\n" if i % 2 else "\n")
        lines.append((separators or {}).get(i, " ").join(fields) + "\n")
    path.write_text("".join(lines), encoding="utf-8")


def _outcome(loader, path, normalize):
    try:
        store = loader(path, normalize=normalize)
    except EmbeddingFormatError as exc:
        return "error", str(exc)
    return list(store.vocab), store.matrix.dtype, store.matrix.tobytes(), store.duplicate_count


@st.composite
def lexicon_specs(draw):
    rows = draw(st.integers(2 * CHUNK + 1, 3 * CHUNK))
    position = st.one_of(st.sampled_from(BOUNDARIES), st.integers(1, rows - 1))
    return {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "rows": rows,
        "dim": draw(st.integers(1, 4)),
        "header": draw(st.booleans()),
        "normalize": draw(st.booleans()),
        "specials": draw(st.lists(st.tuples(position, st.sampled_from(SPECIALS)), max_size=12)),
    }


class TestAgainstPerLineOracle:
    @given(lexicon_specs())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_store(self, tmp_path, spec):
        rng = np.random.default_rng(spec["seed"])
        rows = _rows(rng, spec["rows"], spec["dim"])
        separators, blanks = {}, set()
        for pos, kind in spec["specials"]:
            fields = rows[pos]
            if kind == "blank":
                blanks.add(pos)
            elif kind == "dup":  # an earlier token, often from an earlier chunk
                fields[0] = f"w{rng.integers(0, pos)}"
            elif kind == "zero_dup":  # a zero row is an error only when it is kept
                fields[:] = [f"w{rng.integers(0, pos)}"] + ["0"] * spec["dim"]
            elif kind == "zero_dup_near":  # the previous row's token, mostly in the same chunk
                fields[:] = [rows[pos - 1][0]] + ["0"] * spec["dim"]
            elif kind == "big_dup":  # beyond float32's range is an error only when kept
                fields[:] = [rows[pos - 1][0]] + ["1e39"] * spec["dim"]
            elif kind == "huge":  # its squared norm overflows: loads only under normalize
                fields[1] = "-3e200"
            elif kind == "tab":
                separators[pos] = "\t"
            elif kind == "underscore":
                fields[1] = "1_000"
            else:
                fields[1] = "-١٢.٥"  # Arabic-Indic -12.5
        path = tmp_path / "lexicon.txt"
        _write(path, rows, spec["header"], separators, blanks)
        expected = _outcome(load_embeddings_per_line, path, spec["normalize"])
        assert _outcome(load_embeddings, path, spec["normalize"]) == expected

    def test_clean_chunks_take_the_fast_path(self, tmp_path, monkeypatch):
        calls = []  # the number of lines of each parse
        parse = embeddings._parse_rows
        monkeypatch.setattr(embeddings, "_parse_rows",
                            lambda *args: calls.append(len(args[0])) or parse(*args))
        rows = _rows(np.random.default_rng(3), 3 * CHUNK, 5)
        path = tmp_path / "lexicon.txt"
        _write(path, rows, header=True)
        load_embeddings(path, normalize=True)
        rows[CHUNK + 7][2] = "1_000"  # read by the chunk's parse, with Python's float
        _write(path, rows, header=True)
        store = load_embeddings(path, normalize=True)
        chunks = [CHUNK, CHUNK, CHUNK, 1]  # the header and 3 * CHUNK rows, one parse per chunk
        assert calls == 2 * chunks
        assert _outcome(load_embeddings, path, True) == _outcome(
            load_embeddings_per_line, path, True)
        assert len(store) == 3 * CHUNK
        del rows[2 * CHUNK + 3][-1]
        _write(path, rows, header=True)
        calls.clear()
        with pytest.raises(EmbeddingFormatError, match=f":{2 * CHUNK + 5}: expected 5 components"):
            load_embeddings(path, normalize=True)
        # a line-by-line pass only over the chunk with the bad line, up to that line, its fifth
        assert calls == [CHUNK, CHUNK, CHUNK] + [1] * 5


# kind -> (the values of a line of width 3 that breaks two rules, the rule that names it)
TWO_RULES = {
    "short_nan": (["nan", "0.5"], "non-finite component"),
    "short_unparsable": (["1.2.3", "0.5"],
                         "unparsable number (could not convert string to float: '1.2.3')"),
    "nan_unparsable": (["nan", "x", "1"],
                       "unparsable number (could not convert string to float: 'x')"),
    "short_zero": (["0", "0"], "expected 3 components, found 2"),
    "short_big": (["1e39", "0.5"], "expected 3 components, found 2"),
    "short_big_normalize": (["1e39", "0.5"], "expected 3 components, found 2"),
}


def _corrupt(kind, rows, pos, dim):
    fields = rows[pos]
    if kind == "short_row":
        del fields[-1]
    elif kind == "long_row":
        fields.append("0.5")
    elif kind == "narrow_tail":  # the whole rest of the file is one column short
        for later in rows[pos:]:
            del later[-1]
    elif kind == "token_only":
        del fields[1:]
    elif kind == "nan":
        fields[2] = "nan"
    elif kind == "inf":
        fields[1] = "-inf"
    elif kind == "overflow":
        fields[1] = "1e999"
    elif kind == "float32_overflow":  # finite as float64, inf as float32
        fields[2] = "-3.5e38"
    elif kind == "unparsable":
        fields[2] = "1.2.3"
    elif kind == "zero_row":
        fields[1:] = ["0.0"] * dim
    elif kind == "tiny_row":  # row.dot(row) underflows to 0, so the row is zero
        fields[1:] = ["1e-200"] * dim
    elif kind == "zero_dup_short":  # a dropped zero row, then a short row
        rows[pos - 1][:] = [rows[pos - 5][0]] + ["0"] * dim
        del fields[-1]
    elif kind in TWO_RULES:  # values that break two rules
        fields[1:] = TWO_RULES[kind][0]


class TestErrorsMatchOracle:
    @pytest.mark.parametrize("pos", [CHUNK + 3, 2 * CHUNK - 1, 2 * CHUNK + 10])
    @pytest.mark.parametrize("kind", ["short_row", "long_row", "narrow_tail", "token_only",
                                      "nan", "inf", "overflow", "float32_overflow",
                                      "unparsable", "zero_row",
                                      "tiny_row", "zero_dup_short", *TWO_RULES])
    def test_same_message_and_line(self, tmp_path, kind, pos):
        dim = 3
        rows = _rows(np.random.default_rng(11), 3 * CHUNK, dim)
        _corrupt(kind, rows, pos, dim)
        path = tmp_path / "lexicon.txt"
        _write(path, rows, header=True)
        normalize = kind in ("zero_row", "tiny_row", "zero_dup_short", "short_zero",
                             "short_big_normalize")
        with pytest.raises(EmbeddingFormatError) as oracle:
            load_embeddings_per_line(path, normalize=normalize)
        with pytest.raises(EmbeddingFormatError) as chunked:
            load_embeddings(path, normalize=normalize)
        assert str(chunked.value) == str(oracle.value)
        assert str(chunked.value).startswith(f"{path}:{pos + 2}: ")  # after the header line
        if kind in TWO_RULES:  # the rule checked first names the line
            assert str(chunked.value) == f"{path}:{pos + 2}: {TWO_RULES[kind][1]}"
