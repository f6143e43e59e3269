import codecs

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsim.embeddings import (
    EmbeddingStore,
    SentenceSample,
    find_pad_token,
    load_embeddings,
    lookup_sentence,
    lookup_sentences,
    tokenize,
)
from groupsim.errors import EmbeddingFormatError


class TestLoader:
    def test_basic_fixture(self, tmp_path):
        path = tmp_path / "small.txt"
        path.write_text("a 1 2 3 4\nb 0.5 -0.5 0.25 0e0\nc 1e-1 2e-1 -3e-1 4e-1\n")
        store = load_embeddings(path)
        assert len(store) == 3
        assert store.dim == 4
        np.testing.assert_allclose(store.vector("b"), [0.5, -0.5, 0.25, 0.0], atol=1e-7)

    def test_normalize_postcondition(self, tmp_path):
        path = tmp_path / "small.txt"
        path.write_text("a 1 2 3 4\nb 0.5 -0.5 0.25 0e0\nc 1e-1 2e-1 -3e-1 4e-1\n")
        store = load_embeddings(path, normalize=True)
        for token in ("a", "b", "c"):
            assert abs(np.linalg.norm(store.vector(token)) - 1.0) < 1e-6

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a 1 2 3 4\nb 1 2 3\n")
        with pytest.raises(EmbeddingFormatError, match="expected 4"):
            load_embeddings(path)

    def test_unparsable_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a 1 2\nb 1 oops\n")
        with pytest.raises(EmbeddingFormatError, match="unparsable"):
            load_embeddings(path)

    def test_zero_vector_under_normalize(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a 1 2\nb 0 0\n")
        load_embeddings(path)  # fine without normalization
        with pytest.raises(EmbeddingFormatError, match="zero"):
            load_embeddings(path, normalize=True)

    def test_duplicates_first_wins(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("a 1 2\na 9 9\nb 3 4\n")
        store = load_embeddings(path)
        assert store.duplicate_count == 1
        np.testing.assert_allclose(store.vector("a"), [1, 2])

    def test_header_auto_detection(self, tmp_path):
        path = tmp_path / "hdr.txt"
        path.write_text("2 3\na 1 2 3\nb 4 5 6\n")
        store = load_embeddings(path)
        assert len(store) == 2 and store.dim == 3

    def test_byte_order_mark_before_first_row_is_dropped(self, tmp_path):
        text = ". 0.1 0.2 0.3\ncat 0.5 -0.2 0.1\n"
        plain, marked = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        store, want = load_embeddings(marked), load_embeddings(plain)
        assert "." in store and store.vocab == want.vocab
        np.testing.assert_array_equal(store.matrix, want.matrix)
        assert find_pad_token(store) == "."

    def test_byte_order_mark_before_header_is_dropped(self, tmp_path):
        path = tmp_path / "hdr.txt"
        path.write_bytes(codecs.BOM_UTF8 + b"2 3\na 1 2 3\nb 4 5 6\n")
        store = load_embeddings(path)
        assert list(store.vocab) == ["a", "b"] and store.dim == 3

    def test_first_line_without_header_is_data(self, tmp_path):
        path = tmp_path / "nohdr.txt"
        path.write_text("keep 9 9 9\na 1 2 3\n")
        store = load_embeddings(path)
        assert "keep" in store and len(store) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_embeddings(tmp_path / "absent.txt")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(EmbeddingFormatError):
            load_embeddings(path)


class TestPadTokenSearch:
    def test_prefers_period(self, store):
        assert find_pad_token(store) == "."

    def test_falls_back_to_the_then_first(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("the 1 2\nzz 3 4\n")
        assert find_pad_token(load_embeddings(path)) == "the"
        path2 = tmp_path / "w.txt"
        path2.write_text("first 1 2\nsecond 3 4\n")
        assert find_pad_token(load_embeddings(path2)) == "first"


class TestLookup:
    def test_basic_padding(self, store):
        sample = lookup_sentence(store, "The cat", ".")
        assert sample.n == 3  # the, cat, pad
        assert sample.token_count_before_padding == 2
        np.testing.assert_allclose(sample.vectors[-1], store.vector("."), atol=1e-7)

    def test_all_oov_double_pad(self, store):
        sample = lookup_sentence(store, "zzz qqq", ".")
        assert sample.n == 2
        assert sample.token_count_before_padding == 0
        assert sample.oov_count == 2
        np.testing.assert_allclose(sample.vectors[0], sample.vectors[1])

    def test_duplicates_kept(self, store):
        sample = lookup_sentence(store, "cat cat cat", ".")
        assert sample.n == 4
        for row in sample.vectors[:3]:
            np.testing.assert_allclose(row, store.vector("cat"), atol=1e-7)

    def test_unknown_pad_token(self, store):
        with pytest.raises(KeyError):
            lookup_sentence(store, "the cat", "notthere")

    def test_never_below_two(self, store):
        for text in ("", "x", "the", "zz zz zz"):
            assert lookup_sentence(store, text, ".").n >= 2

    def test_deterministic(self, store):
        a = lookup_sentence(store, "The cat sat on the mat.", ".")
        b = lookup_sentence(store, "The cat sat on the mat.", ".")
        np.testing.assert_array_equal(a.vectors, b.vectors)
        assert a.tokens == b.tokens

    @given(st.text(max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_case_insensitive_retention(self, s):
        # dropping out-of-vocabulary tokens commutes with lowercasing
        assert tokenize(s) == tokenize(s.lower())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_lookups_keep_the_store_dtype(self, store, dtype):
        store = EmbeddingStore(dim=store.dim, vocab=store.vocab, matrix=store.matrix.astype(dtype))
        block = lookup_sentences(store, ["the cat", "zzz", "dog sat on the mat"], ".")
        assert block.vectors.dtype == store.matrix.dtype
        assert lookup_sentence(store, "the cat", ".").vectors.dtype == store.matrix.dtype

    def test_mixed_case_fixture(self, store):
        a = lookup_sentence(store, "THE CAT SAT", ".")
        b = lookup_sentence(store, "the cat sat", ".")
        np.testing.assert_array_equal(a.vectors, b.vectors)


class TestTokenizer:
    def test_split_on_nonalnum_runs(self):
        assert tokenize("The cat, the dog!!") == ["the", "cat", "the", "dog"]
        assert tokenize("a-b_c 3.5") == ["a", "b", "c", "3", "5"]
        assert tokenize("") == []


class TestSentenceSample:
    def test_rejects_single_vector(self):
        with pytest.raises(ValueError):
            SentenceSample(vectors=np.ones((1, 3)), token_count_before_padding=1)

    def test_rejects_non_finite(self):
        bad = np.ones((2, 3))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            SentenceSample(vectors=bad, token_count_before_padding=2)


class TestStoreInvariants:
    def test_nonempty_required(self):
        with pytest.raises(ValueError):
            EmbeddingStore(dim=2, vocab={}, matrix=np.zeros((0, 2)))

    def test_lookup_returns_float64(self, store):
        assert store.vector("cat").dtype == np.float64
