import codecs

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupsim.embeddings import (
    EmbeddingStore,
    bag_rows,
    find_pad_token,
    load_embeddings,
    lookup_sentence,
    lookup_sentences,
    lookup_tokens,
    tokenize,
)
from groupsim.errors import EmbeddingFormatError

from helpers import store_vector


class TestLoader:
    def test_basic_fixture(self, tmp_path):
        path = tmp_path / "small.txt"
        path.write_text("a 1 2 3 4\nb 0.5 -0.5 0.25 0e0\nc 1e-1 2e-1 -3e-1 4e-1\n")
        store = load_embeddings(path)
        assert len(store) == 3
        assert store.dim == 4
        np.testing.assert_allclose(store_vector(store, "b"), [0.5, -0.5, 0.25, 0.0], atol=1e-7)

    def test_normalize_postcondition(self, tmp_path):
        path = tmp_path / "small.txt"
        path.write_text("a 1 2 3 4\nb 0.5 -0.5 0.25 0e0\nc 1e-1 2e-1 -3e-1 4e-1\n")
        store = load_embeddings(path, normalize=True)
        for token in ("a", "b", "c"):
            assert abs(np.linalg.norm(store_vector(store, token)) - 1.0) < 1e-6

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

    def test_value_beyond_float32_range(self, tmp_path):
        """A kept 1e39 is finite as float64 but inf as float32: the line is
        named, with no RuntimeWarning first.  A dropped duplicate is not read,
        and under ``normalize`` the row is scaled before the cast."""
        path = tmp_path / "big.txt"
        path.write_text("a 1 2\nbig 1e39 0.5\nb 3 4\na 1e39 1e39\n")
        with pytest.raises(EmbeddingFormatError, match=r"big\.txt:2: component beyond float32"):
            load_embeddings(path)
        store = load_embeddings(path, normalize=True)
        assert store_vector(store, "big").tolist() == [1.0, np.float32(5e-40)]
        assert store.non_finite_rows.size == 0 and store.duplicate_count == 1

    def test_duplicates_first_wins(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("a 1 2\na 9 9\nb 3 4\n")
        store = load_embeddings(path)
        assert store.duplicate_count == 1
        np.testing.assert_allclose(store_vector(store, "a"), [1, 2])

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
        assert sample.sizes[0] == 3  # the, cat, pad
        assert sample.token_count_before_padding == 2
        np.testing.assert_allclose(sample.vectors[-1], store_vector(store, "."), atol=1e-7)

    def test_all_oov_double_pad(self, store):
        sample = lookup_sentence(store, "zzz qqq", ".")
        assert sample.sizes[0] == 2
        assert sample.token_count_before_padding == 0
        assert sample.oov_count == 2
        np.testing.assert_allclose(sample.vectors[0], sample.vectors[1])

    def test_duplicates_kept(self, store):
        sample = lookup_sentence(store, "cat cat cat", ".")
        assert sample.sizes[0] == 4
        for row in sample.vectors[:3]:
            np.testing.assert_allclose(row, store_vector(store, "cat"), atol=1e-7)

    def test_unknown_pad_token(self, store):
        with pytest.raises(KeyError):
            lookup_sentence(store, "the cat", "notthere")

    def test_never_below_two(self, store):
        for text in ("", "x", "the", "zz zz zz"):
            assert lookup_sentence(store, text, ".").sizes[0] >= 2

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


class TestSentenceBlock:
    TEXTS = ["the cat", "zzz qqq", "", "dog sat on the mat", "cat qqq cat"]

    @pytest.mark.parametrize("text", TEXTS)
    def test_lookup_sentence_is_a_block_of_one(self, store, text):
        one = lookup_sentence(store, text, ".")
        want = lookup_sentences(store, [text], ".")
        assert len(one) == 1
        np.testing.assert_array_equal(one.vectors, want.vectors)
        assert one.vectors.dtype == want.vectors.dtype
        np.testing.assert_array_equal(one.sizes, want.sizes)
        np.testing.assert_array_equal(one.starts, want.starts)
        assert one.tokens == want.tokens
        assert one.oov_counts == want.oov_counts

    def test_totals_are_sums_over_the_bags(self, store):
        block = lookup_sentences(store, self.TEXTS, ".")
        assert block.token_count_before_padding == sum(len(t) for t in block.tokens) == 9
        assert block.oov_count == sum(block.oov_counts) == 3
        for text in self.TEXTS:
            one = lookup_sentence(store, text, ".")
            assert one.token_count_before_padding == len(one.tokens[0])
            assert one.oov_count == one.oov_counts[0]

    @pytest.mark.parametrize("texts", [[], ["the cat", "dog"]])
    def test_bag_rows_rejects_other_block_sizes(self, store, texts):
        block = lookup_sentences(store, texts, ".")
        with pytest.raises(ValueError, match=f"got {len(texts)} bags"):
            bag_rows(block)

    def test_rejects_non_finite_rows(self, store):
        matrix = store.matrix.copy()
        matrix[store.vocab["cat"], 0] = np.nan
        bad = EmbeddingStore(dim=store.dim, vocab=store.vocab, matrix=matrix)
        with pytest.raises(ValueError, match="finite"):
            lookup_sentence(bad, "the cat", ".")
        lookup_sentence(bad, "the dog", ".")  # a bag without the bad row is fine


class TestStoreInvariants:
    def test_nonempty_required(self):
        with pytest.raises(ValueError):
            EmbeddingStore(dim=2, vocab={}, matrix=np.zeros((0, 2)))

    @pytest.mark.parametrize("vocab", [
        {".": 0, "a": -1},  # would read the last row
        {".": 0, "a": 7},  # past the last row
        {".": 0, "a": 2**70},  # past any row index
        {".": 0, "a": 1.5},
        {".": 0, "a": True},
        {".": 0, "a": "1"},
        {".": 0, "a": None},
    ], ids=["negative", "past-the-end", "huge", "float", "bool", "str", "none"])
    def test_vocab_values_must_be_row_indices(self, vocab):
        with pytest.raises(ValueError, match=f"^vocab maps 'a' to {vocab['a']!r}, not a row index "
                                             r"in \[0, 2\)$"):
            EmbeddingStore(dim=3, vocab=vocab, matrix=np.zeros((2, 3), dtype=np.float32))

    def test_vocab_rows_must_be_distinct(self):
        # row 0 would be unreachable
        with pytest.raises(ValueError, match="^vocab maps 'a' to row 1, which an earlier token has$"):
            EmbeddingStore(dim=3, vocab={".": 1, "a": 1}, matrix=np.zeros((2, 3)))

    def test_vocab_takes_any_integral_row_index(self):
        vocab = {".": np.int64(1), "a": np.int32(0), "b": 2}
        store = EmbeddingStore(dim=3, vocab=vocab, matrix=np.eye(3))
        assert store.vocab is vocab
        np.testing.assert_array_equal(lookup_sentence(store, "a b", ".").vectors, np.eye(3)[[0, 2, 1]])


def with_matrix(store, matrix):
    return EmbeddingStore(dim=matrix.shape[1], vocab=store.vocab, matrix=matrix)


class TestNonFiniteRecord:
    """A store records its non-finite rows once, when it is made; a lookup
    reads the record and refuses exactly the bags that read a bad row."""

    def test_empty_for_loaded_stores(self, store, unit_store):
        for loaded in (store, unit_store):
            assert loaded.non_finite_rows.dtype == np.intp
            assert loaded.non_finite_rows.size == 0

    def test_names_every_bad_row_in_order(self, store):
        matrix = store.matrix.copy()
        matrix[store.vocab["dog"], 3] = -np.inf
        matrix[store.vocab["cat"], 0] = np.nan
        matrix[store.vocab["mat"], 1:3] = (np.inf, -np.inf)
        want = sorted(store.vocab[t] for t in ("dog", "cat", "mat"))
        assert with_matrix(store, matrix).non_finite_rows.tolist() == want

    def test_nan_in_the_pad_row_refuses_every_bag(self, store):
        matrix = store.matrix.copy()
        matrix[store.vocab["."], 2] = np.nan
        bad = with_matrix(store, matrix)
        for text in ("the cat", "zzz qqq", "", "dog sat on the mat"):
            with pytest.raises(ValueError, match="finite"):
                lookup_sentence(bad, text, ".")
        with pytest.raises(ValueError, match="finite"):
            lookup_sentences(bad, ["the cat", "dog"], ".")
        lookup_sentence(bad, "the cat", "the")  # another pad row is fine

    def test_a_block_refuses_when_one_of_its_bags_reads_a_bad_row(self, store):
        matrix = store.matrix.copy()
        matrix[store.vocab["cat"], 1] = np.inf
        bad = with_matrix(store, matrix)
        lookup_sentences(bad, ["the dog", "zzz", "sat on the mat"], ".")
        with pytest.raises(ValueError, match="finite"):
            lookup_sentences(bad, ["the dog", "zzz", "sat on the cat"], ".")

    def test_a_clean_store_scans_no_rows(self, store, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a lookup scanned rows of a store with no bad row")

        monkeypatch.setattr(np, "isfinite", fail)
        monkeypatch.setattr(np, "isin", fail)
        block = lookup_sentences(store, ["the cat", "zzz qqq", "dog sat on the mat"], ".")
        assert block.sizes.tolist() == [3, 2, 6]

    def test_matrix_is_a_read_only_view(self, store):
        matrix = store.matrix.copy()
        made = with_matrix(store, matrix)
        assert not made.matrix.flags.writeable
        assert matrix.flags.writeable
        assert np.shares_memory(made.matrix, matrix)
        with pytest.raises(ValueError, match="read-only"):
            made.matrix[0, 0] = 1.0
        assert not store.matrix.flags.writeable

    def test_an_overflowing_sum_of_finite_rows_records_no_row(self, store):
        # every float64 row sum overflows, and so does the whole-matrix sum, with no bad entry
        matrix = np.full((len(store), 4), 1e308)
        matrix[:, 1] = 0.9e308
        matrix[store.vocab["cat"], 2] = np.nan
        made = with_matrix(store, matrix)
        assert made.non_finite_rows.tolist() == [store.vocab["cat"]]
        matrix[store.vocab["cat"], 2] = -1e308
        clean = with_matrix(store, matrix)
        assert clean.non_finite_rows.size == 0
        block = lookup_sentences(clean, ["the cat", "zzz"], ".")
        np.testing.assert_array_equal(block.bags()[0], matrix[[store.vocab["the"],
                                                                  store.vocab["cat"],
                                                                  store.vocab["."]]])


class CountingVocab(dict):
    """A vocabulary that counts its probes."""

    probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.probes += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.probes += 1
        return super().__contains__(key)


class TestLookupTokens:
    TEXTS = ["The cat, the DOG!", "zzz qqq", "", "dog sat on the mat zzz"]

    def test_lookup_sentences_is_tokenize_then_the_gather(self, store):
        want = lookup_tokens(store, [tokenize(t) for t in self.TEXTS], ".")
        got = lookup_sentences(store, self.TEXTS, ".")
        assert got.vectors.dtype == want.vectors.dtype
        assert got.vectors.tobytes() == want.vectors.tobytes()
        assert got.sizes.tolist() == want.sizes.tolist()
        assert got.tokens == want.tokens and got.oov_counts == want.oov_counts

    def test_one_vocab_probe_per_token(self, store):
        vocab = CountingVocab(store.vocab)
        counted = EmbeddingStore(dim=store.dim, vocab=vocab, matrix=store.matrix)
        token_lists = [tokenize(t) for t in self.TEXTS]
        vocab.probes = 0
        lookup_tokens(counted, token_lists, ".")
        # the pad token's membership test and its row, then one probe per token
        assert vocab.probes == 2 + sum(map(len, token_lists))

    def test_token_lists_are_left_as_they_are(self, store):
        token_lists = [tokenize(t) for t in self.TEXTS]
        before = [list(words) for words in token_lists]
        block = lookup_tokens(store, token_lists, ".")
        assert token_lists == before
        assert all(kept is not words for kept, words in zip(block.tokens, token_lists))
