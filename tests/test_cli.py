import codecs
import json

import pytest

from groupsim.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from groupsim.comparison import (
    DIAG,
    SPHERICAL,
    VMF,
    NormalWishartPrior,
    corpus_model_selection,
    pair_scores,
)
from groupsim.embeddings import find_pad_token, load_embeddings, lookup_sentence

PAIRS = "the cat\tthe dog\t3.0\ncat sat\tdog sat\t4.0\nthe mat\tcat dog\t1.0\n"


@pytest.fixture
def pairs_file(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text(PAIRS)
    return path


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("the cat sat on the mat\ndog sat\nzzz qqq\nthe dog on the mat\n")
    return path


class TestScore:
    def test_basic_score(self, embedding_file, capsys):
        code = main([
            "score", "--embeddings", str(embedding_file), "--method", "diag_aic",
            "the cat", "the dog",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("diag_aic\t")
        float(out.split("\t")[1])  # parses

    def test_identical_sentences_aic_value(self, embedding_file, capsys):
        # log-likelihood terms cancel, leaving twice the parameter count
        code = main([
            "score", "--embeddings", str(embedding_file), "--method", "diag_aic",
            "the cat", "the cat",
        ])
        assert code == EXIT_OK
        value = float(capsys.readouterr().out.split("\t")[1])
        assert value == pytest.approx(2 * 2 * 4)  # 2k with k = 2d, d = 4

    def test_verbose_breakdown(self, embedding_file, capsys):
        code = main([
            "score", "--embeddings", str(embedding_file), "--method", "diag_tic",
            "--verbose", "the cat", "dog sat",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        for key in ("loglik_joint", "penalty_joint", "alpha"):
            assert key in out

    def test_oov_sentence_warns_and_scores(self, embedding_file, capsys):
        code = main([
            "score", "--embeddings", str(embedding_file), "--method", "diag_aic",
            "zzz qqq", "the cat",
        ])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "no in-vocabulary" in captured.err

    @pytest.mark.parametrize("a,b,warns", [("the cat", "zzz qqq", True),
                                           ("the cat", "the dog", False)])
    def test_warns_only_when_a_sentence_keeps_no_token(self, embedding_file, capsys, a, b, warns):
        assert main(["score", "--embeddings", str(embedding_file), a, b]) == EXIT_OK
        assert ("no in-vocabulary" in capsys.readouterr().err) == warns

    def test_invalid_method_usage_error(self, embedding_file, capsys):
        code = main([
            "score", "--embeddings", str(embedding_file), "--method", "bogus",
            "a", "b",
        ])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("flag", [["--prior-nu0", "0.5"], ["--prior-kappa0", "-1"]])
    def test_bad_prior_flag_usage_error(self, embedding_file, flag, capsys):
        code = main([
            "score", "--embeddings", str(embedding_file), "--method", "bayes_factor",
            *flag, "the cat", "the dog",
        ])
        assert code == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--prior-nu0", "0.5"], ["--prior-kappa0", "-1"]])
    def test_prior_flags_ignored_by_other_methods(self, embedding_file, flag, capsys):
        argv = ["score", "--embeddings", str(embedding_file), "--method", "diag_aic",
                "the cat", "dog sat"]
        assert main(argv) == EXIT_OK
        plain = capsys.readouterr().out
        assert main(argv[:-2] + flag + argv[-2:]) == EXIT_OK
        assert capsys.readouterr().out == plain

    def test_missing_embeddings_flag(self, capsys):
        assert main(["score", "a", "b"]) == EXIT_USAGE

    def test_unreadable_embeddings_runtime_error(self, tmp_path, capsys):
        code = main([
            "score", "--embeddings", str(tmp_path / "absent.txt"), "a", "b",
        ])
        assert code == EXIT_RUNTIME

    def test_ic_flag_is_unknown(self, embedding_file, capsys):
        code = main([
            "score", "--embeddings", str(embedding_file), "--method", "diag",
            "--ic", "tic", "the cat", "the dog",
        ])
        assert code == EXIT_USAGE

    def test_vmf_method_normalizes_rows(self, embedding_file, capsys):
        code = main([
            "score", "--embeddings", str(embedding_file), "--method", "vmf_tic",
            "the cat", "dog sat",
        ])
        assert code == EXIT_OK

    def test_prior_flags_set_the_bayes_factor_prior(self, embedding_file, store, capsys):
        d = store.dim
        code = main([
            "score", "--embeddings", str(embedding_file), "--method", "bayes_factor",
            "--prior-kappa0", "0.5", "--prior-nu0", str(d + 4), "the cat", "dog sat",
        ])
        assert code == EXIT_OK
        pad = find_pad_token(store)
        a, b = (lookup_sentence(store, text, pad).vectors for text in ("the cat", "dog sat"))
        prior = NormalWishartPrior(d, 0.5, d + 4)
        expected = pair_scores("bayes", None, [a], [b], prior=prior)[0].value
        assert capsys.readouterr().out == f"bayes_factor\t{expected!r}\n"
        assert expected != pair_scores("bayes", None, [a], [b])[0].value

    def test_refine_kappa_flag_is_unknown(self, embedding_file, capsys):
        code = main([
            "score", "--embeddings", str(embedding_file), "--method", "vmf_tic",
            "--refine-kappa", "the cat", "the dog",
        ])
        assert code == EXIT_USAGE


class TestEval:
    def test_writes_report(self, embedding_file, pairs_file, tmp_path, capsys):
        out_path = tmp_path / "report.jsonl"
        code = main([
            "eval", "--embeddings", str(embedding_file), "--method", "mwv",
            "--out", str(out_path), str(pairs_file),
        ])
        assert code == EXIT_OK
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 2
        assert json.loads(lines[0])["dataset"] == "pairs.tsv"
        table = capsys.readouterr().out
        assert "weighted average" in table

    def test_deterministic_output_bytes(self, embedding_file, pairs_file, tmp_path, capsys):
        out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
        for out in (out1, out2):
            assert main([
                "eval", "--embeddings", str(embedding_file), "--method", "diag_aic",
                "--seed", "3", "--out", str(out), str(pairs_file),
            ]) == EXIT_OK
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_method_all_enumerates(self, embedding_file, pairs_file, tmp_path, capsys):
        out_path = tmp_path / "all.jsonl"
        code = main([
            "eval", "--embeddings", str(embedding_file), "--method", "all",
            "--normalize", "--out", str(out_path), str(pairs_file),
        ])
        assert code == EXIT_OK
        methods = {json.loads(line)["method"] for line in out_path.read_text().splitlines()}
        from groupsim.evaluation import SUPPORTED_METHODS

        assert methods == set(SUPPORTED_METHODS)

    def test_single_pair_dataset_reported_undefined(self, embedding_file, pairs_file, tmp_path,
                                                    capsys):
        one = tmp_path / "one.tsv"
        one.write_text("the cat\tthe dog\t3.0\n")
        out_path = tmp_path / "report.jsonl"
        code = main([
            "eval", "--embeddings", str(embedding_file), "--method", "diag_aic",
            "--out", str(out_path), str(pairs_file), str(one),
        ])
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert [row.get("dataset") for row in rows] == ["pairs.tsv", "one.tsv", None]
        assert rows[1]["spearman"] is None and rows[1]["count"] == 1
        assert rows[2]["weighted_average"] == rows[0]["spearman"]
        table = capsys.readouterr().out
        assert any(line.startswith("one.tsv") and line.endswith("undef")
                   for line in table.splitlines())

    def test_workers_flag_is_unknown(self, embedding_file, pairs_file, capsys):
        code = main(["eval", "--embeddings", str(embedding_file), "--workers", "2",
                     str(pairs_file)])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_sif_a_not_finite_usage_error(self, embedding_file, pairs_file, value, capsys):
        code = main(["eval", "--embeddings", str(embedding_file), "--method", "sif",
                     "--sif-a", value, str(pairs_file)])
        assert code == EXIT_USAGE
        assert "sif-a must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("method, code", [("diag_aic", EXIT_OK), ("bayes_factor", EXIT_USAGE),
                                              ("all", EXIT_USAGE)])
    def test_bad_prior_read_only_by_bayes_factor(self, embedding_file, pairs_file, method, code,
                                                 capsys):
        assert main([
            "eval", "--embeddings", str(embedding_file), "--method", method,
            "--prior-nu0", "0.5", str(pairs_file),
        ]) == code

    def test_unreadable_dataset(self, embedding_file, tmp_path, capsys):
        code = main([
            "eval", "--embeddings", str(embedding_file), str(tmp_path / "nope.tsv"),
        ])
        assert code == EXIT_RUNTIME


class TestModelsel:
    def test_ranked_table(self, embedding_file, corpus_file, tmp_path, capsys):
        out_path = tmp_path / "sel.jsonl"
        code = main([
            "modelsel", "--embeddings", str(embedding_file), "--out", str(out_path),
            str(corpus_file),
        ])
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert len(rows) == 2
        assert rows[0]["mean_ic"] <= rows[1]["mean_ic"]
        assert {r["model"] for r in rows} == {"diag", "spherical"}

    def test_normalize_adds_vmf_candidates(self, embedding_file, corpus_file, tmp_path, capsys):
        out_path = tmp_path / "sel.jsonl"
        code = main([
            "modelsel", "--embeddings", str(embedding_file), "--normalize",
            "--out", str(out_path), str(corpus_file),
        ])
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert {r["model"] for r in rows} == {"diag", "spherical", "vmf"}

    @pytest.mark.parametrize("normalize", [False, True])
    def test_equals_per_document_lookups(self, embedding_file, corpus_file, tmp_path,
                                         normalize, capsys):
        # the corpus is gathered as one block; its bags must rank exactly as
        # bags looked up one document at a time (the fixture has an all-OOV line)
        out_path = tmp_path / "sel.jsonl"
        code = main(["modelsel", "--embeddings", str(embedding_file), "--out", str(out_path),
                     *(["--normalize"] if normalize else []), str(corpus_file)])
        assert code == EXIT_OK
        store = load_embeddings(embedding_file, normalize=normalize)
        pad = find_pad_token(store)
        corpus = [lookup_sentence(store, line, pad)
                  for line in corpus_file.read_text().splitlines() if line.strip()]
        assert any(s.token_count_before_padding == 0 for s in corpus)
        candidates = [(DIAG, "aic"), (SPHERICAL, "aic")]
        if normalize:
            candidates += [(VMF, "tic"), (VMF, "aic")]
        expected = [{"model": r.model, "ic": r.ic, "mean_ic": r.mean_ic}
                    for r in corpus_model_selection(corpus, candidates, on_degenerate="aic")]
        assert [json.loads(line) for line in out_path.read_text().splitlines()] == expected

    def test_byte_order_mark_before_corpus_is_dropped(self, embedding_file, corpus_file,
                                                      tmp_path, capsys):
        # a blank first line is skipped; with a mark kept, "\ufeff" would be a sentence
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(b"\n" + corpus_file.read_bytes())
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        outputs = []
        for corpus in (plain, marked):
            out_path = tmp_path / f"{corpus.stem}.jsonl"
            code = main(["modelsel", "--embeddings", str(embedding_file), "--normalize",
                         "--out", str(out_path), str(corpus)])
            assert code == EXIT_OK
            outputs.append((capsys.readouterr().out, out_path.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_oov_lines_still_ranked(self, embedding_file, tmp_path, capsys):
        corpus = tmp_path / "oov.txt"
        corpus.write_text("zzz qqq\nxxxx\n")
        code = main(["modelsel", "--embeddings", str(embedding_file), str(corpus)])
        assert code == EXIT_OK

    def test_empty_corpus(self, embedding_file, tmp_path, capsys):
        corpus = tmp_path / "empty.txt"
        corpus.write_text("\n\n")
        code = main(["modelsel", "--embeddings", str(embedding_file), str(corpus)])
        assert code == EXIT_USAGE

    def test_unknown_method_usage_error(self, embedding_file, corpus_file, capsys):
        # modelsel ranks a fixed candidate list and takes no --method at all
        code = main([
            "modelsel", "--embeddings", str(embedding_file), "--method", "bogus",
            str(corpus_file),
        ])
        assert code == EXIT_USAGE
        assert "unrecognized arguments: --method" in capsys.readouterr().err


class TestPenaltyCurve:
    def test_csv_to_stdout(self, capsys):
        code = main([
            "penalty-curve", "--model", "diag", "--dim", "4", "--sizes", "5,10",
            "--trials", "3", "--seed", "9",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "n,mean_penalty,std_penalty"
        assert len(lines) == 3

    def test_seeded_byte_determinism(self, tmp_path, capsys):
        f1, f2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        for f in (f1, f2):
            assert main([
                "penalty-curve", "--model", "vmf", "--dim", "5", "--sizes", "6,12",
                "--trials", "3", "--seed", "11", "--out", str(f),
            ]) == EXIT_OK
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("flags", [
        ["--trials", "0"],
        ["--sizes", "5,x"],
        ["--model", "vmf", "--dim", "1"],
        ["--sizes", ","],
    ], ids=["zero-trials", "non-integer-size", "vmf-dim-1", "no-sizes"])
    def test_bad_arguments_usage_error(self, flags, capsys):
        code = main(["penalty-curve", "--sizes", "5", *flags])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:")


# the (command, flag) pairs a command does not read, so does not take
NOT_TAKEN = [
    ("score", "--out"),
    ("eval", "--verbose"),
    *(("modelsel", flag) for flag in ("--method", "--sif-a", "--freq-file", "--prior-kappa0",
                                      "--prior-nu0", "--seed", "--verbose")),
    *(("penalty-curve", flag) for flag in ("--embeddings", "--normalize", "--pad-token",
                                           "--method", "--sif-a", "--freq-file",
                                           "--prior-kappa0", "--prior-nu0", "--verbose")),
]


class TestCommonFlags:
    @pytest.mark.parametrize("command,flag", NOT_TAKEN)
    def test_flag_not_read_is_not_taken(self, command, flag, embedding_file, pairs_file,
                                        corpus_file, tmp_path, capsys):
        store = ["--embeddings", str(embedding_file)]
        argv = {
            "score": [*store, "the cat", "the dog"],
            "eval": [*store, str(pairs_file)],
            "modelsel": [*store, str(corpus_file)],
            "penalty-curve": ["--sizes", "5", "--trials", "1"],
        }[command]
        value = [] if flag in ("--verbose", "--normalize") else [str(tmp_path / "x")]
        assert main([command, flag, *value, *argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag}" in captured.err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["score", "eval", "modelsel"])
    def test_pad_token_not_in_vocabulary_usage_error(self, command, embedding_file,
                                                     pairs_file, corpus_file, capsys):
        operands = {
            "score": ["the cat", "the dog"],
            "eval": [str(pairs_file)],
            "modelsel": [str(corpus_file)],
        }[command]
        code = main([command, "--embeddings", str(embedding_file), "--pad-token", "zzz",
                     *operands])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "usage error: pad token 'zzz' not in vocabulary\n"

    @pytest.mark.parametrize("command", ["eval", "penalty-curve"])
    def test_negative_seed_usage_error(self, command, embedding_file, pairs_file, capsys):
        argv = {
            "eval": ["eval", "--embeddings", str(embedding_file), "--method", "sif_pca",
                     str(pairs_file)],
            "penalty-curve": ["penalty-curve", "--sizes", "5"],
        }[command]
        assert main([*argv, "--seed", "-1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error: seed must be a non-negative integer, got -1" in captured.err


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, embedding_file, pairs_file,
                                                tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "embeddings": str(embedding_file),
            "method": "mwv",
            "seed": 2,
        }))
        code = main(["eval", "--config", str(config), "--method", "diag_aic",
                     str(pairs_file)])
        assert code == EXIT_OK
        assert "diag_aic" in capsys.readouterr().out

    def test_unknown_config_key(self, pairs_file, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"mystery": 1}))
        code = main(["eval", "--config", str(config), str(pairs_file)])
        assert code == EXIT_USAGE

    def test_workers_key_is_unknown(self, embedding_file, pairs_file, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"embeddings": str(embedding_file), "workers": 2}))
        code = main(["eval", "--config", str(config), str(pairs_file)])
        assert code == EXIT_USAGE
        assert "unknown config keys: ['workers']" in capsys.readouterr().err

    def test_refine_kappa_key_is_unknown(self, embedding_file, pairs_file, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"embeddings": str(embedding_file), "refine_kappa": True}))
        code = main(["eval", "--config", str(config), str(pairs_file)])
        assert code == EXIT_USAGE
        assert "unknown config keys: ['refine_kappa']" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("sif_a", "0.5"),
        ("sif_a", True),
        ("prior_kappa0", None),
        ("seed", "x"),
        ("seed", 1.5),
        ("seed", False),
        ("normalize", "yes"),
        ("method", 3),
        ("method", None),
        ("pad_token", 0),
    ])
    def test_config_value_type_checked(self, key, value, embedding_file, pairs_file,
                                       tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"embeddings": str(embedding_file), key: value}))
        code = main(["eval", "--config", str(config), str(pairs_file)])
        assert code == EXIT_USAGE
        assert f"usage error: config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["5", "[1, 2]", '"x"', "null"])
    def test_config_not_an_object(self, text, pairs_file, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(text)
        code = main(["eval", "--config", str(config), str(pairs_file)])
        assert code == EXIT_USAGE
        assert "config file must hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b"{mystery: 1}", b'{"seed": 1', b"", b'{"a": "\xff"}'])
    def test_config_not_parsable_names_the_file(self, content, pairs_file, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_bytes(content)
        code = main(["eval", "--config", str(config), str(pairs_file)])
        assert code == EXIT_USAGE
        assert f"usage error: config file {config} is not valid JSON: " in capsys.readouterr().err

    def test_byte_order_mark_before_config_is_dropped(self, embedding_file, pairs_file,
                                                      tmp_path, capsys):
        text = json.dumps({"embeddings": str(embedding_file), "method": "mwv"})
        outputs = []
        for name, prefix in (("plain", b""), ("marked", codecs.BOM_UTF8)):
            config = tmp_path / f"{name}.json"
            config.write_bytes(prefix + text.encode())
            code = main(["eval", "--config", str(config), str(pairs_file)])
            assert code == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert "method: mwv" in outputs[0]
        assert outputs[0] == outputs[1]

    def test_missing_config_file_is_a_runtime_error(self, pairs_file, tmp_path, capsys):
        config = tmp_path / "absent.json"
        code = main(["eval", "--config", str(config), str(pairs_file)])
        assert code == EXIT_RUNTIME
        assert str(config) in capsys.readouterr().err

    def test_config_sif_a_nan(self, embedding_file, pairs_file, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(f'{{"embeddings": {json.dumps(str(embedding_file))}, '
                          '"method": "sif", "sif_a": NaN}')
        code = main(["eval", "--config", str(config), str(pairs_file)])
        assert code == EXIT_USAGE
        assert "sif-a must be positive and finite" in capsys.readouterr().err

    def test_config_values_of_the_field_types_accepted(self, embedding_file, pairs_file,
                                                       tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "embeddings": str(embedding_file), "sif_a": 1, "prior_nu0": None,
            "normalize": False, "seed": 3, "pad_token": None, "method": "mwv",
        }))
        assert main(["eval", "--config", str(config), str(pairs_file)]) == EXIT_OK

    @pytest.mark.parametrize("command,key", [("modelsel", "method"),
                                             ("penalty-curve", "embeddings"),
                                             ("score", "out"), ("eval", "verbose"),
                                             ("eval", "config"), ("eval", "datasets")])
    def test_key_of_a_flag_not_taken(self, command, key, embedding_file, corpus_file,
                                     tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({key: "x"}))
        operands = {"score": ["a", "b"], "eval": ["p.tsv"], "modelsel": [str(corpus_file)],
                    "penalty-curve": []}[command]
        assert main([command, "--config", str(config), *operands]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"usage error: unknown config keys: [{key!r}]" in captured.err

    def test_penalty_curve_flags_win_over_config(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"seed": 5, "dim": 7, "sizes": "5,8", "trials": 2}))
        assert main(["penalty-curve", "--config", str(config), "--seed", "9",
                     "--dim", "4"]) == EXIT_OK
        from_both = capsys.readouterr().out
        assert main(["penalty-curve", "--sizes", "5,8", "--trials", "2", "--seed", "9",
                     "--dim", "4"]) == EXIT_OK
        assert capsys.readouterr().out == from_both
        assert main(["penalty-curve", "--config", str(config)]) == EXIT_OK
        from_config = capsys.readouterr().out
        assert main(["penalty-curve", "--sizes", "5,8", "--trials", "2", "--seed", "5",
                     "--dim", "7"]) == EXIT_OK
        assert capsys.readouterr().out == from_config != from_both

    def test_score_takes_verbose_from_config(self, embedding_file, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"embeddings": str(embedding_file),
                                      "method": "diag_tic", "verbose": True}))
        assert main(["score", "--config", str(config), "the cat", "dog sat"]) == EXIT_OK
        out = capsys.readouterr().out
        for key in ("loglik_joint", "penalty_joint", "alpha"):
            assert key in out

    def test_usage_exit_code_from_argparse(self, capsys):
        assert main(["unknown-subcommand"]) == EXIT_USAGE
