import contextlib
import io
import json
import math
import subprocess
import sys
import tracemalloc

import pytest

from conftest import DEFAULT_RULES, FIXTURES, LISTS_DIR, REPO
from sisa import (
    classify_document,
    load_lexicon,
    load_rules,
    load_wordlists,
    parse_document,
    read_document,
)
from sisa.cli import main
from sisa.util import format_so
from test_conllu import NO_ES_BONITO, PARSE_ERRORS

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

    def test_closed_stdout_exits_1_quietly(self, fixtures, tmp_path):
        # Far more trace text than a pipe holds, read no further than its
        # first line, as `sisa trace ... | head -n 1` does.
        source = tmp_path / "many.conllu"
        source.write_text(
            (fixtures / "no_es_bonito.conllu").read_text(encoding="utf-8") * 3000, encoding="utf-8"
        )
        argv = ["trace", "--lexicon", LEXICON, "--rules", DEFAULT_RULES, "--lists", LISTS_DIR]
        proc = subprocess.Popen(
            [sys.executable, "-m", "sisa.cli", *map(str, argv), "--input", str(source)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), first, err) == (1, b"# many sentence 1\n", b"")

    def test_two_word_lists_with_one_name_exit_4(self, capsys, tmp_path):
        for name in ("boosters.tsv", "boosters.txt"):
            (tmp_path / name).write_text("muy\t0.25\n", encoding="utf-8")
        code, out, err = run(
            capsys,
            "trace",
            "--lexicon", LEXICON,
            "--lists", tmp_path,
            "--input", FIXTURES / "muy_grande.conllu",
        )
        assert (code, out) == (4, "")
        assert err == (
            f"sisa: word lists {tmp_path / 'boosters.tsv'} and {tmp_path / 'boosters.txt'} "
            "share the name 'boosters'\n"
        )

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


    @pytest.mark.parametrize(
        "golden, inputs",
        [
            ("merge_lexicon_ca.tsv", [("senticon_ca.tsv", "senticon_raw"), ("sfu_ca.tsv", "sfu")]),
            (
                "merge_lexicon_all.tsv",
                [
                    ("senticon_ca.tsv", "senticon_raw"),
                    ("sfu_ca.tsv", "sfu"),
                    ("lexicon.tsv", "sfu"),
                    ("corpus/lexicon_ml.tsv", "sfu"),
                ],
            ),
        ],
    )
    def test_golden_output(self, capsys, fixtures, golden, inputs):
        argv = ["merge-lexicon"]
        argv += [arg for name, _ in inputs for arg in ("--lexicon", fixtures / name)]
        argv += [arg for _, scale in inputs for arg in ("--scale", scale)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.encode("utf-8") == (fixtures / "golden" / golden).read_bytes()


class TestScaleSenticon:
    def test_golden_output(self, capsys, fixtures):
        code, out, _ = run(capsys, "scale-senticon", "--input", fixtures / "senticon_ca.tsv")
        assert code == 0
        assert out.encode("utf-8") == (fixtures / "golden" / "scale_senticon_ca.tsv").read_bytes()

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

    def test_golden_output(self, capsys, monkeypatch, tmp_path):
        # The README's command, run from the repository root.
        monkeypatch.chdir(REPO)
        assert_readme_evaluate_golden(capsys, tmp_path / "summary.json")


# The README's evaluate command, relative to the repository root.
README_EVALUATE = (
    "evaluate",
    "--corpus", "tests/fixtures/corpus/manifest.tsv",
    "--lexicon", "tests/fixtures/lexicon.tsv",
    "--lexicon", "tests/fixtures/corpus/lexicon_ml.tsv",
    "--rules", "rules/sisa_default.rules",
    "--lists", "lists",
)
def assert_readme_evaluate_golden(capsys, report):
    code, out, _ = run(capsys, *README_EVALUATE, "--report", report, "--verbose")
    assert code == 0
    golden = FIXTURES / "golden"
    assert out.encode("utf-8") == (golden / "evaluate_corpus.txt").read_bytes()
    assert report.read_bytes() == (golden / "evaluate_corpus.json").read_bytes()


class TestInputLoading:
    """Every scoring command loads the word lists, then the rules, then each
    lexicon, so the same broken inputs fail the same way."""

    @pytest.mark.parametrize("command", ["classify", "trace", "evaluate"])
    def test_rules_fail_before_a_missing_lexicon(self, capsys, tmp_path, command):
        rules = tmp_path / "no_tau.rules"
        rules.write_text("[operation]\nname = neg\nscope = target\n", encoding="utf-8")
        data = (
            ("--corpus", FIXTURES / "corpus" / "manifest.tsv")
            if command == "evaluate"
            else ("--input", FIXTURES / "muy_grande.conllu")
        )
        code, out, err = run(
            capsys, command, "--lexicon", tmp_path / "missing.tsv", "--rules", rules, *data
        )
        assert (code, out) == (3, "")
        assert err == "sisa: RuleConfigError: rule 'neg': missing required key 'tau'\n"

    @pytest.mark.parametrize(
        "text, error",
        [
            (
                "[operation]\nname = neg\ntrigger.pos = ADV\ntau = shift(4)\nscope = target\nscope = all\n",
                "{rules}:6: duplicate key 'scope' in [operation] block",
            ),
            (
                "[operation]\nname = neg\ntrigger.pos = ADV\ntau = shift(4)\nscope = target,b( )\n",
                "rule 'neg': branch scope 'b( )' names no deprel",
            ),
        ],
        ids=["duplicate-key", "empty-branch"],
    )
    def test_broken_rule_exits_3(self, capsys, tmp_path, text, error):
        rules = tmp_path / "broken.rules"
        rules.write_text(text, encoding="utf-8")
        argv = ("classify", "--lexicon", LEXICON, "--rules", rules)
        code, out, err = run(capsys, *argv, "--input", FIXTURES / "muy_grande.conllu")
        assert (code, out) == (3, "")
        assert err == f"sisa: RuleConfigError: {error.format(rules=rules)}\n"

    def test_library_and_classify_agree_on_the_header_scale(self, capsys, tmp_path):
        lexicon = tmp_path / "raw.tsv"
        lexicon.write_text("# scale: senticon_raw\ngrande\tADJ\t0.5\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "classify", "--lexicon", lexicon, "--input", FIXTURES / "muy_grande.conllu"
        )
        assert (code, out) == (0, "muy_grande\t3\tpositive\n")
        assert load_lexicon(lexicon).lookup("grande", "grande", "ADJ") == 3.0

    def test_scale_header_value_is_case_insensitive(self, capsys, tmp_path):
        lexicon = tmp_path / "upper.tsv"
        lexicon.write_text("# Scale: SFU\ngrande\tADJ\t1.87\n", encoding="utf-8")
        code, out, err = run(
            capsys, "classify", "--lexicon", lexicon, "--input", FIXTURES / "muy_grande.conllu"
        )
        assert (code, out, err) == (0, "muy_grande\t1.87\tpositive\n", "")

    @pytest.mark.parametrize("command", ["classify", "trace", "evaluate", "merge-lexicon"])
    def test_unknown_scale_header_exits_3(self, capsys, tmp_path, command):
        lexicon = tmp_path / "volts.tsv"
        lexicon.write_text("# comment\n# scale: volts\ngrande\tADJ\t1\n", encoding="utf-8")
        data = {
            "evaluate": ("--corpus", FIXTURES / "corpus" / "manifest.tsv"),
            "merge-lexicon": (),
        }.get(command, ("--input", FIXTURES / "muy_grande.conllu"))
        code, out, err = run(capsys, command, "--lexicon", lexicon, *data)
        assert (code, out) == (3, "")
        assert err == (
            f"sisa: LexiconParseError: {lexicon}:2: unknown lexicon scale 'volts'; "
            "expected one of sfu, senticon_raw\n"
        )


class TestByteOrderMark:
    """A UTF-8 byte order mark at the start of an input file is ignored."""

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

    def test_readme_evaluate_with_every_input_marked_and_crlf(self, capsys, monkeypatch, tmp_path):
        copy = tmp_path / "copy"
        inputs = ("tests/fixtures/lexicon.tsv", "tests/fixtures/corpus/*", "lists/*", "rules/*")
        for pattern in inputs:
            for path in REPO.glob(pattern):
                target = copy / path.relative_to(REPO)
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(b"\xef\xbb\xbf" + path.read_bytes().replace(b"\n", b"\r\n"))
        monkeypatch.chdir(copy)
        assert_readme_evaluate_golden(capsys, tmp_path / "summary.json")


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


ENGINE = ("--lexicon", LEXICON, "--rules", DEFAULT_RULES, "--lists", LISTS_DIR)


def bytes_stdin(data: bytes):
    """A stand-in for POSIX stdin: a text layer over bytes, lines split at "\\n"."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n")


class TestStreamedInput:
    """classify and trace read their input one sentence at a time."""

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize(
        "text, error, message, where", PARSE_ERRORS.values(), ids=PARSE_ERRORS.keys()
    )
    def test_parse_error_exits_3(
        self, capsys, monkeypatch, tmp_path, source, text, error, message, where
    ):
        path = tmp_path / "bad.conllu"
        path.write_text(text, encoding="utf-8")
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", bytes_stdin(path.read_bytes()))
            path = "-"
        code, out, err = run(capsys, "classify", *ENGINE, "--input", path)
        assert (code, out) == (3, "")
        assert err == f"sisa: {error.__name__}: {message}\n"

    def test_lone_carriage_return_is_the_same_from_file_stdin_and_text(
        self, capsys, monkeypatch, tmp_path
    ):
        text = (
            "1\tmuy\tmuy\tADV\t_\t_\t2\tadvmod\t_\t_\r\n"
            "2\tgran\rde\tgrande\tADJ\t_\t_\t0\troot\t_\t_\r\n"
        )
        path = tmp_path / "f.conllu"
        path.write_bytes(text.encode("utf-8"))
        want = (0, "f\t2.3375\tpositive\n", "")
        assert run(capsys, "classify", *ENGINE, "--input", path) == want
        stdin_want = (0, "-\t2.3375\tpositive\n", "")
        for stdin in (io.StringIO(text), bytes_stdin(text.encode("utf-8"))):
            monkeypatch.setattr(sys, "stdin", stdin)
            assert run(capsys, "classify", *ENGINE, "--input", "-") == stdin_want
        assert parse_document(text).sentences[0].token(2).form == "gran\rde"

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_invalid_utf8_exits_3(self, capsys, monkeypatch, tmp_path, source):
        data = (FIXTURES / "no_es_bonito.conllu").read_bytes()
        data = data.replace(b"bonito\tADJ", b"bon\xffito\tADJ")
        path = tmp_path / "latin.conllu"
        path.write_bytes(data)
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", bytes_stdin(data))
            path = "-"
        code, out, err = run(capsys, "classify", *ENGINE, "--input", path)
        assert (code, out) == (3, "")
        assert err == "sisa: ConlluParseError: line 3: not valid UTF-8: invalid start byte 0xff\n"

    def test_invalid_utf8_item_is_errored_in_evaluate(self, capsys, tmp_path, caplog):
        corpus = FIXTURES / "corpus"
        for path in corpus.iterdir():
            (tmp_path / path.name).write_bytes(path.read_bytes())
        (tmp_path / "malo.conllu").write_bytes(b"1\tmal\xffo\tmalo\tADJ\t_\t_\t0\troot\t_\t_\n")
        report = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "evaluate", "--corpus", tmp_path / "manifest.tsv", *ENGINE, "--report", report
        )
        assert code == 0
        assert out == "SL-O\t1\t3\t0.3333\nSL+O\t3\t3\t1.0000\n"
        summary = json.loads(report.read_text(encoding="utf-8"))
        assert [r["errored"] for r in summary["reports"]] == [1, 1]
        skipped = [r.getMessage() for r in caplog.records if r.getMessage().startswith("skipping")]
        assert skipped == [
            f"skipping {tmp_path / 'malo.conllu'}: line 1: not valid UTF-8: invalid start byte 0xff"
        ]

    @pytest.mark.parametrize(
        "flag, name, error",
        [
            ("--lexicon", "lexicon.tsv", "LexiconParseError"),
            ("--lists", "boosters.tsv", "WordListParseError"),
            ("--rules", "sisa.rules", "RuleConfigError"),
        ],
    )
    def test_invalid_utf8_in_other_inputs_exits_3(self, capsys, tmp_path, flag, name, error):
        path = tmp_path / name
        path.write_bytes(b"# first line\nbuen\xffo\tADJ\t2\n")
        lexicon = () if flag == "--lexicon" else ("--lexicon", LEXICON)
        value = tmp_path if flag == "--lists" else path
        code, out, err = run(
            capsys, "classify", *lexicon, flag, value, "--input", FIXTURES / "muy_grande.conllu"
        )
        assert (code, out) == (3, "")
        assert err == f"sisa: {error}: {path}:2: not valid UTF-8: invalid start byte 0xff\n"

    @pytest.mark.parametrize(
        "command, position", [("classify", 0), ("evaluate", 0), ("evaluate", 1)]
    )
    def test_invalid_utf8_after_the_lexicon_header_exits_3(
        self, capsys, tmp_path, command, position
    ):
        # The scale header is read on its own; the bad byte on line 4 is
        # reported by the lexicon loader, with the same message and line.
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"# scale: sfu\n\nbueno\tADJ\t2\nmal\xffo\tADJ\t-2\n")
        lexica = [LEXICON] * position + [bad]
        flags = [arg for path in lexica for arg in ("--lexicon", path)]
        if command == "classify":
            flags += ["--input", FIXTURES / "muy_grande.conllu"]
        else:
            flags += ["--corpus", FIXTURES / "corpus" / "manifest.tsv"]
        code, out, err = run(capsys, command, *flags)
        assert (code, out) == (3, "")
        assert err == f"sisa: LexiconParseError: {bad}:4: not valid UTF-8: invalid start byte 0xff\n"

    def test_invalid_utf8_in_manifest_exits_3(self, capsys, tmp_path):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_bytes(b"a.conllu\tpositive\nb\xff.conllu\tnegative\n")
        code, out, err = run(capsys, "evaluate", "--corpus", manifest, "--lexicon", LEXICON)
        assert (code, out) == (3, "")
        reason = "not valid UTF-8: invalid start byte 0xff"
        assert err == f"sisa: ManifestError: {manifest}:2: {reason}\n"

    def test_nul_byte_in_manifest_path_exits_3(self, capsys, tmp_path):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_bytes(b"a.conllu\tpositive\na\x00b.conllu\tnegative\n")
        code, out, err = run(capsys, "evaluate", "--corpus", manifest, "--lexicon", LEXICON)
        assert (code, out) == (3, "")
        reason = "NUL byte in item path 'a\\x00b.conllu'"
        assert err == f"sisa: ManifestError: {manifest}:2: {reason}\n"

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_head_too_long_for_int_exits_3(self, capsys, monkeypatch, tmp_path, source):
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        data = f"1\tbueno\tbueno\tADJ\t_\t_\t{digits}\troot\t_\t_\n".encode("utf-8")
        path = tmp_path / "long.conllu"
        path.write_bytes(data)
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", bytes_stdin(data))
            path = "-"
        code, out, err = run(capsys, "classify", *ENGINE, "--input", path)
        assert (code, out) == (3, "")
        assert err == f"sisa: ConlluParseError: line 1: head too long ({len(digits)} characters)\n"

    def test_id_too_long_for_int_is_errored_in_evaluate(self, capsys, tmp_path, caplog):
        corpus = FIXTURES / "corpus"
        for path in corpus.iterdir():
            (tmp_path / path.name).write_bytes(path.read_bytes())
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        line = f"{digits}\tmalo\tmalo\tADJ\t_\t_\t0\troot\t_\t_\n"
        (tmp_path / "malo.conllu").write_text(line, encoding="utf-8")
        code, out, _ = run(capsys, "evaluate", "--corpus", tmp_path / "manifest.tsv", *ENGINE)
        assert code == 0
        assert out == "SL-O\t1\t3\t0.3333\nSL+O\t3\t3\t1.0000\n"
        skipped = [r.getMessage() for r in caplog.records if r.getMessage().startswith("skipping")]
        assert skipped == [
            f"skipping {tmp_path / 'malo.conllu'}: line 1: token id too long ({len(digits)} characters)"
        ]

    FIRST_TWO = (
        "1\tmuy\tmuy\tADV\t_\t_\t2\tadvmod\t_\t_\n2\tgrande\tgrande\tADJ\t_\t_\t0\troot\t_\t_\n\n"
        "1\tbien\tbien\tADV\t_\t_\t0\troot\t_\t_\n"
    )
    BAD_THIRD = FIRST_TWO + (
        "\n1\ta\ta\tX\t_\t_\t2\tdep\t_\t_\n2\tb\tb\tX\t_\t_\t1\tdep\t_\t_\n\n"
        "1\tbien\tbien\tADV\t_\t_\t0\troot\t_\t_\n"
    )
    NO_ROOT = "sisa: TreeStructureError: sentence 3: expected exactly one root, found 0\n"

    def test_sentence_lines_before_a_bad_sentence_are_printed(self, capsys, tmp_path):
        path = tmp_path / "third.conllu"
        path.write_text(self.BAD_THIRD, encoding="utf-8")
        code, out, err = run(
            capsys, "classify", *ENGINE, "--granularity", "sentence", "--input", path
        )
        assert (code, err) == (3, self.NO_ROOT)
        assert out == "third:1\t2.3375\tpositive\nthird:2\t1\tpositive\n"

    def test_trace_blocks_before_a_bad_sentence_are_printed(self, capsys, tmp_path):
        path = tmp_path / "third.conllu"
        path.write_text(self.BAD_THIRD, encoding="utf-8")
        code, out, err = run(capsys, "trace", *ENGINE, "--input", path)
        assert (code, err) == (3, self.NO_ROOT)
        good = tmp_path / "good.conllu"
        good.write_text(self.FIRST_TWO, encoding="utf-8")
        assert run(capsys, "trace", *ENGINE, "--input", good) == (0, out.replace("third", "good"), "")
        assert out.count("# third sentence") == 2

    def test_document_granularity_prints_nothing_before_a_bad_sentence(self, capsys, tmp_path):
        path = tmp_path / "third.conllu"
        path.write_text(self.BAD_THIRD, encoding="utf-8")
        assert run(capsys, "classify", *ENGINE, "--input", path) == (3, "", self.NO_ROOT)

    @pytest.mark.parametrize("agg, want", [("sum", "2.8375"), ("mean", "0.945833333333")])
    def test_document_score_is_classify_document(self, capsys, tmp_path, agg, want):
        path = tmp_path / "two.conllu"
        path.write_text(self.FIRST_TWO + "\n" + NO_ES_BONITO, encoding="utf-8")
        doc = read_document(path)
        lexicon = load_lexicon(LEXICON)
        lists = load_wordlists(LISTS_DIR)
        result = classify_document(doc, lexicon, load_rules(DEFAULT_RULES, lists), lists, agg=agg)
        code, out, _ = run(capsys, "classify", *ENGINE, "--agg", agg, "--input", path)
        assert code == 0
        assert out == f"two\t{format_so(result.so)}\t{result.label}\n" == f"two\t{want}\tpositive\n"

    def test_empty_input_is_a_usage_error_for_documents(self, capsys, tmp_path):
        path = tmp_path / "empty.conllu"
        path.write_text("# only a comment\n\n", encoding="utf-8")
        code, out, err = run(capsys, "classify", *ENGINE, "--input", path)
        assert (code, out, err) == (4, "", "sisa: document 'empty' has no sentences\n")
        argv = ("classify", *ENGINE, "--granularity", "sentence", "--input", path)
        assert run(capsys, *argv) == (0, "", "")


def huge_weighting_rules(tmp_path, beta):
    """An intensification of "muy" by (1 + beta): near the float maximum it
    overflows a sentence (1e308) or a two-sentence document sum (9e307)."""
    path = tmp_path / f"huge_{beta}.rules"
    path.write_text(
        "[operation]\nname = intensification\ntrigger.forms = muy\ntrigger.pos = ADV\n"
        f"trigger.deprel = advmod\ntau = weighting({beta})\ndelta = 1\npriority = 3\n"
        "scope = target\n",
        encoding="utf-8",
    )
    return path


class TestNonFiniteScores:
    """A score past the float range is a typed error (exit 3), never a label."""

    @pytest.fixture()
    def two(self, tmp_path):
        path = tmp_path / "two.conllu"
        sentence = (FIXTURES / "muy_grande.conllu").read_text(encoding="utf-8")
        path.write_text(sentence + "\n" + sentence, encoding="utf-8")
        return path

    def classify(self, capsys, tmp_path, beta, path, *flags):
        rules = huge_weighting_rules(tmp_path, beta)
        argv = ("classify", "--lexicon", LEXICON, "--rules", rules, "--input", path, *flags)
        return run(capsys, *argv)

    def test_document_sum_overflow_exits_3(self, capsys, tmp_path, two):
        assert self.classify(capsys, tmp_path, "9e307", two) == (
            3, "", "sisa: NonFiniteScoreError: document 'two' score is not finite\n"
        )
        # Each sentence on its own is finite.
        code, out, _ = self.classify(capsys, tmp_path, "9e307", two, "--granularity", "sentence")
        assert (code, out) == (0, "two:1\t1.683e+308\tpositive\ntwo:2\t1.683e+308\tpositive\n")

    @pytest.mark.parametrize("granularity", ["doc", "sentence"])
    def test_infinite_sentence_exits_3(self, capsys, tmp_path, two, granularity):
        assert self.classify(capsys, tmp_path, "1e308", two, "--granularity", granularity) == (
            3, "", "sisa: NonFiniteScoreError: sentence score inf is not finite\n"
        )

    def test_trace_prints_nothing_for_an_infinite_sentence(self, capsys, tmp_path, two):
        rules = huge_weighting_rules(tmp_path, "1e308")
        argv = ("trace", "--lexicon", LEXICON, "--rules", rules, "--input", two)
        assert run(capsys, *argv) == (
            3, "", "sisa: NonFiniteScoreError: sentence score inf is not finite\n"
        )

    def test_document_mean_back_in_range(self, capsys, tmp_path, two):
        # The sum overflows, the mean of the two sentences does not.
        code, out, _ = self.classify(capsys, tmp_path, "9e307", two, "--agg", "mean")
        assert (code, out) == (0, "two\t1.683e+308\tpositive\n")

    @pytest.mark.parametrize(
        "beta, ml, bad",
        [
            ("9e307", False, {"twice"}),
            ("1e308", False, {"twice", "pos_clean"}),
            # "grande" scores 2 in the merged lexicon: 9e307 overflows its
            # sentence under ML+O and pos_clean fails there only.
            ("9e307", True, {"twice", "pos_clean"}),
            ("1e308", True, {"twice", "pos_clean"}),
        ],
    )
    def test_evaluate_errors_the_bad_items_under_every_config(
        self, capsys, tmp_path, caplog, two, beta, ml, bad
    ):
        corpus = FIXTURES / "corpus"
        for path in corpus.iterdir():
            (tmp_path / path.name).write_bytes(path.read_bytes())
        two.rename(tmp_path / "twice.conllu")
        with open(tmp_path / "manifest.tsv", "a", encoding="utf-8") as manifest:
            manifest.write("twice.conllu\tpositive\n")
        lexica = ("--lexicon", LEXICON) + (("--lexicon", corpus / "lexicon_ml.tsv") if ml else ())
        report = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "evaluate",
            "--corpus", tmp_path / "manifest.tsv",
            *lexica,
            "--rules", huge_weighting_rules(tmp_path, beta),
            "--report", report,
        )
        assert code == 0
        summary = json.loads(report.read_text(encoding="utf-8"))
        assert len(summary["reports"]) == (4 if ml else 2)
        for config in summary["reports"]:
            assert (config["errored"], config["total"]) == (len(bad), 5 - len(bad))
            for item in config["items"]:
                stem = item["path"].rsplit("/", 1)[-1].removesuffix(".conllu")
                if stem in bad:
                    assert item["predicted"] is None and "not finite" in item["error"]
                else:
                    assert item["predicted"] is not None and math.isfinite(item["so"])
        impact = [line.split("\t")[1] for line in out.splitlines() if line.startswith("impact\t")]
        assert impact == (
            ["o_effect_sl", "o_effect_ml", "ml_effect_no_ops", "ml_effect_ops"] if ml else []
        )
        assert (summary["impact"] is not None) == ml
        skipped = [r.getMessage() for r in caplog.records if "not finite" in r.getMessage()]
        assert sorted(m.split()[1].rsplit("/", 1)[-1] for m in skipped) == sorted(
            f"{stem}.conllu:" for stem in bad
        )


class _Discard:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("command", [("classify", "--granularity", "sentence"), ("trace",)])
def test_memory_is_bounded_by_one_sentence(command, tmp_path):
    sentence = (FIXTURES / "bueno_pero_caro.conllu").read_text(encoding="utf-8").strip("\n") + "\n\n"

    def peak(sentences):
        path = tmp_path / f"{sentences}.conllu"
        path.write_text(sentence * sentences, encoding="utf-8")
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(_Discard()):
                assert main([*command, *map(str, ENGINE), "--input", str(path)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2000)  # the first run imports and fills the interpreter's caches
    small, large = peak(20), peak(2000)
    # Reading the whole 2000-sentence file first adds about 4 MB. What is
    # left is CPython's bounded reuse of freed small tuples.
    assert large - small < 512 * 1024, (small, large)
