import json
import subprocess
import sys

import pytest

from conftest import DEFAULT_RULES, FIXTURES, LISTS_DIR
from sisa.cli import main

LEXICON = FIXTURES / "lexicon.tsv"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_muy_grande_line(self, capsys):
        code, out, _ = run(
            capsys,
            "classify",
            "--lexicon", LEXICON,
            "--rules", DEFAULT_RULES,
            "--lists", LISTS_DIR,
            "--input", FIXTURES / "muy_grande.conllu",
        )
        assert code == 0
        assert out == "muy_grande\t2.3375\tpositive\n"

    def test_without_rules_is_lexicon_sum(self, capsys):
        code, out, _ = run(
            capsys,
            "classify",
            "--lexicon", LEXICON,
            "--input", FIXTURES / "no_es_bonito.conllu",
        )
        assert code == 0
        assert out == "no_es_bonito\t3.5\tpositive\n"

    def test_sentence_granularity(self, capsys):
        code, out, _ = run(
            capsys,
            "classify",
            "--lexicon", LEXICON,
            "--rules", DEFAULT_RULES,
            "--lists", LISTS_DIR,
            "--input", FIXTURES / "roundtrip.conllu",
            "--granularity", "sentence",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[0] == "roundtrip:1\t1.87\tpositive"
        assert lines[1] == "roundtrip:2\t-4\tnegative"  # "no funciona": backoff shift
        assert lines[2] == "roundtrip:3\t1\tpositive"

    def test_missing_input_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            "classify",
            "--lexicon", LEXICON,
            "--input", FIXTURES / "nope.conllu",
        )
        assert code == 2
        assert "missing file" in err

    def test_unparseable_input_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.conllu"
        bad.write_text("this is not conllu\n", encoding="utf-8")
        code, _, err = run(capsys, "classify", "--lexicon", LEXICON, "--input", bad)
        assert code == 3

    def test_two_lexica_exit_4(self, capsys):
        code, out, err = run(
            capsys,
            "classify",
            "--lexicon", LEXICON,
            "--lexicon", FIXTURES / "nope.tsv",
            "--rules", DEFAULT_RULES,
            "--lists", LISTS_DIR,
            "--input", FIXTURES / "muy_grande.conllu",
        )
        assert (code, out) == (4, "")
        assert err == "sisa: classify takes one --lexicon input, got 2\n"

    def test_non_ascii_head_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "arabic_indic.conllu"
        bad.write_text(
            "1\tmuy\tmuy\tADV\t_\t_\t\u0662\tadvmod\t_\t_\n"
            "2\tgrande\tgrande\tADJ\t_\t_\t0\troot\t_\t_\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "classify", "--lexicon", LEXICON, "--input", bad)
        assert (code, out) == (3, "")
        assert err == "sisa: ConlluParseError: line 1: non-integer head '\u0662'\n"

    def test_stdin_input(self, capsys, monkeypatch, fixtures):
        import io

        text = (fixtures / "no_es_bonito.conllu").read_text(encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(
            capsys,
            "classify",
            "--lexicon", LEXICON,
            "--rules", DEFAULT_RULES,
            "--lists", LISTS_DIR,
            "--input", "-",
        )
        assert code == 0
        assert out == "-\t-0.5\tnegative\n"

    def test_deterministic_output(self, capsys):
        args = (
            "classify",
            "--lexicon", LEXICON,
            "--rules", DEFAULT_RULES,
            "--lists", LISTS_DIR,
            "--input", FIXTURES / "bueno_pero_caro.conllu",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestTrace:
    def test_negation_trace(self, capsys, fixtures):
        code, out, _ = run(
            capsys,
            "trace",
            "--lexicon", LEXICON,
            "--rules", DEFAULT_RULES,
            "--lists", LISTS_DIR,
            "--input", fixtures / "no_es_bonito.conllu",
        )
        assert code == 0
        golden = (fixtures / "golden" / "no_es_bonito.trace").read_text(encoding="utf-8")
        assert out == "# no_es_bonito sentence 1\n" + golden
        assert "apply\tnegation\ttrigger\t1\tscope\ttarget\tbefore\t3.5\tafter\t-0.5" in out

    def test_no_trigger_trace_has_no_operations(self, capsys, fixtures, tmp_path):
        source = tmp_path / "plain.conllu"
        source.write_text("1\tbonito\tbonito\tADJ\t_\t_\t0\troot\t_\t_\n\n", encoding="utf-8")
        code, out, _ = run(
            capsys,
            "trace",
            "--lexicon", LEXICON,
            "--rules", DEFAULT_RULES,
            "--lists", LISTS_DIR,
            "--input", source,
        )
        assert code == 0
        assert "trigger" not in out
        assert "apply" not in out

    def test_backoff_marked(self, capsys, fixtures):
        code, out, _ = run(
            capsys,
            "trace",
            "--lexicon", LEXICON,
            "--rules", DEFAULT_RULES,
            "--lists", LISTS_DIR,
            "--input", fixtures / "no_es_eso.conllu",
        )
        assert code == 0
        assert "scope\tall\tbefore\t0\tafter\t-4\tbackoff" in out

    def test_two_lexica_exit_4(self, capsys, fixtures):
        code, out, err = run(
            capsys,
            "trace",
            "--lexicon", LEXICON,
            "--lexicon", LEXICON,
            "--input", fixtures / "no_es_bonito.conllu",
        )
        assert (code, out) == (4, "")
        assert err == "sisa: trace takes one --lexicon input, got 2\n"


class TestMergeLexicon:
    def test_known_merge_value(self, capsys, fixtures):
        code, out, err = run(
            capsys,
            "merge-lexicon",
            "--lexicon", fixtures / "senticon_ca.tsv",
            "--lexicon", fixtures / "sfu_ca.tsv",
            "--scale", "senticon_raw",
            "--scale", "sfu",
        )
        assert code == 0
        assert "abandonat\tADJ\t-2.4375\n" in out
        assert "# ADJ\t1" in err

    def test_single_input_normalizes(self, capsys, fixtures):
        code, out, _ = run(capsys, "merge-lexicon", "--lexicon", fixtures / "sfu_ca.tsv")
        assert code == 0
        assert "abandonat\tADJ\t-3\n" in out

    def test_undeclared_senticon_raw_exits_4(self, capsys, fixtures):
        code, _, err = run(
            capsys,
            "merge-lexicon",
            "--lexicon", fixtures / "sfu_ca.tsv",
            "--lexicon", fixtures / "senticon_ca.tsv",
        )
        assert code == 4
        assert "senticon_raw" in err

    def test_scale_count_mismatch_exits_4(self, capsys, fixtures):
        code, _, _ = run(
            capsys,
            "merge-lexicon",
            "--lexicon", fixtures / "sfu_ca.tsv",
            "--lexicon", fixtures / "senticon_ca.tsv",
            "--lexicon", fixtures / "lexicon.tsv",
            "--scale", "sfu",
            "--scale", "senticon_raw",
        )
        assert code == 4

    def test_output_file(self, capsys, fixtures, tmp_path):
        target = tmp_path / "merged.tsv"
        code, out, _ = run(
            capsys,
            "merge-lexicon",
            "--lexicon", fixtures / "sfu_ca.tsv",
            "--output", target,
        )
        assert code == 0
        assert out == ""
        assert "abandonat\tADJ\t-3\n" in target.read_text(encoding="utf-8")


class TestScaleSenticon:
    def test_rescale(self, capsys, fixtures):
        code, out, _ = run(capsys, "scale-senticon", "--input", fixtures / "senticon_ca.tsv")
        assert code == 0
        assert "abandonat\tADJ\t-1.875\n" in out
        assert "# scale: sfu" in out

    def test_out_of_range_exits_3(self, capsys, fixtures):
        code, _, _ = run(capsys, "scale-senticon", "--input", fixtures / "sfu_ca.tsv")
        assert code == 3


class TestEvaluate:
    def test_single_config(self, capsys, fixtures):
        code, out, _ = run(
            capsys,
            "evaluate",
            "--corpus", fixtures / "corpus" / "manifest.tsv",
            "--lexicon", LEXICON,
        )
        assert code == 0
        assert out == "SL-O\t2\t4\t0.5000\n"

    def test_full_matrix_with_report(self, capsys, fixtures, tmp_path):
        report_path = tmp_path / "summary.json"
        code, out, _ = run(
            capsys,
            "evaluate",
            "--corpus", fixtures / "corpus" / "manifest.tsv",
            "--lexicon", LEXICON,
            "--lexicon", fixtures / "corpus" / "lexicon_ml.tsv",
            "--rules", DEFAULT_RULES,
            "--lists", LISTS_DIR,
            "--report", report_path,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "SL-O\t2\t4\t0.5000"
        assert lines[1] == "SL+O\t4\t4\t1.0000"
        assert any(line.startswith("ML-O\t") for line in lines)
        assert any(line.startswith("impact\to_effect_sl\t50") for line in lines)
        summary = json.loads(report_path.read_text(encoding="utf-8"))
        assert summary["impact"]["o_effect_sl"] == 50.0
        assert len(summary["reports"]) == 4

    def test_verbose_items(self, capsys, fixtures):
        code, out, _ = run(
            capsys,
            "evaluate",
            "--corpus", fixtures / "corpus" / "manifest.tsv",
            "--lexicon", LEXICON,
            "--verbose",
        )
        assert code == 0
        assert sum(1 for line in out.splitlines() if line.startswith("item\t")) == 4

    def test_too_many_lexica_exits_4(self, capsys, fixtures):
        code, _, _ = run(
            capsys,
            "evaluate",
            "--corpus", fixtures / "corpus" / "manifest.tsv",
            "--lexicon", LEXICON,
            "--lexicon", LEXICON,
            "--lexicon", LEXICON,
        )
        assert code == 4
        # The count is checked before any file is read.
        code, _, err = run(
            capsys,
            "evaluate",
            "--corpus", fixtures / "corpus" / "manifest.tsv",
            "--lexicon", LEXICON,
            "--lexicon", LEXICON,
            "--lexicon", LEXICON,
            "--rules", FIXTURES / "nope.rules",
        )
        assert code == 4
        assert "at most two --lexicon" in err


class TestByteOrderMark:
    """A UTF-8 byte order mark at the start of a CoNLL-U input is ignored."""

    ENGINE = ("--lexicon", LEXICON, "--rules", DEFAULT_RULES, "--lists", LISTS_DIR)

    def test_classify_file(self, capsys, tmp_path):
        plain = FIXTURES / "no_es_bonito.conllu"
        marked = tmp_path / plain.name
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        want = run(capsys, "classify", *self.ENGINE, "--input", plain)
        assert want[0] == 0
        assert run(capsys, "classify", *self.ENGINE, "--input", marked) == want

    def test_classify_stdin(self, capsys, monkeypatch):
        import io

        text = (FIXTURES / "no_es_bonito.conllu").read_text(encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        want = run(capsys, "classify", *self.ENGINE, "--input", "-")
        monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeff" + text))
        assert run(capsys, "classify", *self.ENGINE, "--input", "-") == want

    def test_evaluate_corpus(self, capsys, tmp_path):
        corpus = FIXTURES / "corpus"
        marked = tmp_path / "corpus"
        marked.mkdir()
        for path in corpus.iterdir():
            data = path.read_bytes()
            if path.suffix == ".conllu":
                data = b"\xef\xbb\xbf" + data
            (marked / path.name).write_bytes(data)
        argv = ("--lexicon", corpus / "lexicon_ml.tsv", "--rules", DEFAULT_RULES, "--lists", LISTS_DIR)
        want = run(capsys, "evaluate", "--corpus", corpus / "manifest.tsv", "--lexicon", LEXICON, *argv)
        assert want[0] == 0
        got = run(capsys, "evaluate", "--corpus", marked / "manifest.tsv", "--lexicon", LEXICON, *argv)
        assert got == want


class TestArgparseBehavior:
    def test_unknown_flag_exits_4(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["classify", "--lexicon", str(LEXICON), "--frobnicate"])
        assert err.value.code == 4
        capsys.readouterr()

    def test_console_script_runs(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "sisa.cli",
                "classify",
                "--lexicon", str(LEXICON),
                "--rules", str(DEFAULT_RULES),
                "--lists", str(LISTS_DIR),
                "--input", str(FIXTURES / "muy_grande.conllu"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "muy_grande\t2.3375\tpositive\n"
