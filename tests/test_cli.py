import json

import pytest

from groupsim.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main

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
        code = main([
            "modelsel", "--embeddings", str(embedding_file), "--method", "bogus",
            str(corpus_file),
        ])
        assert code == EXIT_USAGE
        assert "bogus" in capsys.readouterr().err


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
    ], ids=["zero-trials", "non-integer-size", "vmf-dim-1"])
    def test_bad_arguments_usage_error(self, flags, capsys):
        code = main(["penalty-curve", "--sizes", "5", *flags])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:")


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

    @pytest.mark.parametrize("key,value", [
        ("sif_a", "0.5"),
        ("sif_a", True),
        ("prior_kappa0", None),
        ("seed", "x"),
        ("seed", 1.5),
        ("seed", False),
        ("normalize", "yes"),
        ("refine_kappa", 1),
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

    def test_usage_exit_code_from_argparse(self, capsys):
        assert main(["unknown-subcommand"]) == EXIT_USAGE
