
from math import fsum
from random import Random

import pytest

import sisa.evaluate as evaluation
from conftest import DEFAULT_RULES, bom_copy
from reference import reference_so
from sisa import ManifestError, UsageError, load_lexicon, load_rules
from sisa.evaluate import (
    CorpusManifest,
    EvaluationReport,
    RunConfig,
    compare_configs,
    evaluate,
    evaluate_configs,
    load_manifest,
    render_impact,
    render_report,
)
from treegen import random_document, serialize_document, vocab_lexicon, vocab_lists


@pytest.fixture()
def corpus_dir(fixtures):
    return fixtures / "corpus"


@pytest.fixture()
def manifest(corpus_dir):
    return load_manifest(corpus_dir / "manifest.tsv")


@pytest.fixture()
def ml_lexicon(corpus_dir):
    return load_lexicon(corpus_dir / "lexicon_ml.tsv")


def report_row(config_id, correct, total, name="bench"):
    """A bare report carrying only the numbers compare_configs consumes."""
    return EvaluationReport(
        config_id=config_id,
        manifest_name=name,
        correct=correct,
        total=total,
        accuracy=correct / total,
        errored=0,
        items=(),
    )


def four_reports(sl_no, sl_ops, ml_no, ml_ops, total=10000, name="bench"):
    return [
        report_row("SL-O", sl_no, total, name),
        report_row("SL+O", sl_ops, total, name),
        report_row("ML-O", ml_no, total, name),
        report_row("ML+O", ml_ops, total, name),
    ]


class TestManifest:
    def test_load(self, manifest, corpus_dir):
        assert manifest.name == "manifest"
        assert len(manifest.items) == 4
        path, gold = manifest.items[0]
        assert path == corpus_dir / "pos_clean.conllu"
        assert gold == "positive"

    def test_bad_label_rejected(self, tmp_path):
        bad = tmp_path / "m.tsv"
        bad.write_text("a.conllu\tneutral\n", encoding="utf-8")
        with pytest.raises(ManifestError):
            load_manifest(bad)

    def test_bad_field_count_rejected(self, tmp_path):
        bad = tmp_path / "m.tsv"
        bad.write_text("a.conllu\n", encoding="utf-8")
        with pytest.raises(ManifestError):
            load_manifest(bad)

    def test_nul_byte_in_path_rejected(self, tmp_path):
        bad = tmp_path / "m.tsv"
        bad.write_text("a.conllu\tpositive\na\0b.conllu\tnegative\n", encoding="utf-8")
        with pytest.raises(ManifestError) as info:
            load_manifest(bad)
        assert str(info.value) == f"{bad}:2: NUL byte in item path 'a\\x00b.conllu'"
        assert info.value.line_no == 2

    def test_byte_order_mark_ignored(self, manifest, corpus_dir, tmp_path):
        marked = load_manifest(bom_copy(corpus_dir / "manifest.tsv", tmp_path))
        assert marked.name == manifest.name
        assert [(path.relative_to(tmp_path), gold) for path, gold in marked.items] == [
            (path.relative_to(corpus_dir), gold) for path, gold in manifest.items
        ]


class TestEvaluate:
    def test_counting(self, manifest, fixture_lexicon, default_rules, wordlists):
        no_ops = evaluate(manifest, RunConfig("SL-O", fixture_lexicon))
        assert (no_ops.correct, no_ops.total) == (2, 4)
        assert no_ops.accuracy == 0.5
        with_ops = evaluate(
            manifest, RunConfig("SL+O", fixture_lexicon, tuple(default_rules)), wordlists
        )
        assert (with_ops.correct, with_ops.total) == (4, 4)
        assert with_ops.accuracy == 1.0

    def test_rules_are_noop_without_triggers(self, corpus_dir, fixture_lexicon, default_rules, wordlists):
        manifest = CorpusManifest(
            "quiet",
            ((corpus_dir / "pos_clean.conllu", "positive"), (corpus_dir / "malo.conllu", "negative")),
        )
        # pos_clean contains 'muy'; restrict to items without triggers.
        manifest = CorpusManifest("quiet", (manifest.items[1],))
        bare = evaluate(manifest, RunConfig("SL-O", fixture_lexicon))
        ruled = evaluate(manifest, RunConfig("SL+O", fixture_lexicon, tuple(default_rules)), wordlists)
        assert [i.so for i in bare.items] == [i.so for i in ruled.items]
        assert bare.accuracy == ruled.accuracy

    def test_unreadable_item_excluded(self, corpus_dir, fixture_lexicon, tmp_path):
        manifest = CorpusManifest(
            "partial",
            (
                (corpus_dir / "malo.conllu", "negative"),
                (tmp_path / "missing.conllu", "positive"),
            ),
        )
        report = evaluate(manifest, RunConfig("SL-O", fixture_lexicon))
        assert report.total == 1
        assert report.errored == 1
        assert report.accuracy == 1.0
        assert report.items[1].error is not None

    def test_malformed_item_excluded(self, fixture_lexicon, tmp_path):
        good = tmp_path / "good.conllu"
        good.write_text("1\tmalo\tmalo\tADJ\t_\t_\t0\troot\t_\t_\n\n", encoding="utf-8")
        bad = tmp_path / "bad.conllu"
        bad.write_text("not conllu at all\n", encoding="utf-8")
        manifest = CorpusManifest("mixed", ((good, "negative"), (bad, "positive")))
        report = evaluate(manifest, RunConfig("SL-O", fixture_lexicon))
        assert (report.total, report.errored, report.correct) == (1, 1, 1)

    def test_all_unreadable_is_usage_error(self, fixture_lexicon, tmp_path):
        manifest = CorpusManifest("none", ((tmp_path / "nope.conllu", "positive"),))
        with pytest.raises(UsageError):
            evaluate(manifest, RunConfig("SL-O", fixture_lexicon))

    def test_str_item_paths(self, manifest, fixture_lexicon):
        as_text = CorpusManifest(manifest.name, tuple((str(p), gold) for p, gold in manifest.items))
        cfg = RunConfig("SL-O", fixture_lexicon)
        assert evaluate(as_text, cfg) == evaluate(manifest, cfg)

    def test_deterministic(self, manifest, fixture_lexicon, default_rules, wordlists):
        cfg = RunConfig("SL+O", fixture_lexicon, tuple(default_rules))
        assert evaluate(manifest, cfg, wordlists) == evaluate(manifest, cfg, wordlists)

    def test_bad_config_id(self, fixture_lexicon):
        with pytest.raises(UsageError):
            RunConfig("XX-O", fixture_lexicon)

    def test_four_config_matrix(self, manifest, fixture_lexicon, ml_lexicon, default_rules, wordlists):
        rules = tuple(default_rules)
        reports = [
            evaluate(manifest, RunConfig("SL-O", fixture_lexicon)),
            evaluate(manifest, RunConfig("SL+O", fixture_lexicon, rules), wordlists),
            evaluate(manifest, RunConfig("ML-O", ml_lexicon)),
            evaluate(manifest, RunConfig("ML+O", ml_lexicon, rules), wordlists),
        ]
        impact = compare_configs(reports)
        by_id = {r.config_id: r for r in reports}
        assert impact.o_effect_sl == pytest.approx(
            100 * (by_id["SL+O"].accuracy - by_id["SL-O"].accuracy)
        )

    def test_matrix_parses_each_item_once(
        self,
        manifest,
        fixture_lexicon,
        ml_lexicon,
        default_rules,
        wordlists,
        tmp_path,
        monkeypatch,
        caplog,
    ):
        rules = tuple(default_rules)
        configs = [
            RunConfig("SL-O", fixture_lexicon),
            RunConfig("SL+O", fixture_lexicon, rules),
            RunConfig("ML-O", ml_lexicon),
            RunConfig("ML+O", ml_lexicon, rules),
        ]
        bad = tmp_path / "bad.conllu"
        bad.write_text("not conllu at all\n", encoding="utf-8")
        manifest = CorpusManifest(
            manifest.name,
            manifest.items + ((bad, "positive"), (tmp_path / "missing.conllu", "negative")),
        )
        one_by_one = [evaluate(manifest, cfg, wordlists) for cfg in configs]
        parsed = []

        def counting_parse(*args, **kwargs):
            parsed.append(kwargs.get("source_id"))
            return original(*args, **kwargs)

        original = evaluation.parse_document
        monkeypatch.setattr(evaluation, "parse_document", counting_parse)
        caplog.clear()
        assert evaluate_configs(manifest, configs, wordlists) == one_by_one
        assert len(parsed) == len(manifest.items) - 1  # the missing file is never parsed
        assert [report.errored for report in one_by_one] == [2, 2, 2, 2]
        # One warning per unreadable item, not one per configuration.
        assert len([r for r in caplog.records if r.getMessage().startswith("skipping")]) == 2

    @pytest.mark.parametrize(
        "option, message",
        [
            ({"agg": "median"}, "unknown aggregation 'median'"),
            ({"tie": "bogus"}, "unknown tie rule 'bogus'"),
        ],
    )
    def test_unknown_agg_or_tie_is_refused_before_any_item_is_read(
        self, option, message, manifest, fixture_lexicon, wordlists, monkeypatch, caplog
    ):
        read = []
        monkeypatch.setattr(evaluation, "read_utf8", lambda *args: read.append(args))
        caplog.clear()
        with pytest.raises(UsageError, match=message):
            evaluate_configs(manifest, [RunConfig("SL-O", fixture_lexicon)], wordlists, **option)
        assert read == []
        assert not [r for r in caplog.records if r.getMessage().startswith("skipping")]


class TestCompareConfigs:
    def test_es_row(self):
        impact = compare_configs(four_reports(6000, 7575, 6375, 7650))
        assert impact.o_effect_sl == 15.75
        assert impact.o_effect_ml == 12.75
        assert impact.ml_effect_no_ops == 3.75
        assert impact.ml_effect_ops == 0.75

    def test_ca_row(self):
        impact = compare_configs(four_reports(5400, 5750, 5825, 7300))
        assert impact.o_effect_sl == 3.50
        assert impact.o_effect_ml == 14.75
        assert impact.ml_effect_no_ops == 4.25
        assert impact.ml_effect_ops == 15.5

    def test_equal_accuracies_give_zero_deltas(self):
        impact = compare_configs(four_reports(6000, 6000, 6000, 6000))
        assert (
            impact.o_effect_sl,
            impact.o_effect_ml,
            impact.ml_effect_no_ops,
            impact.ml_effect_ops,
        ) == (0.0, 0.0, 0.0, 0.0)

    def test_missing_config_rejected(self):
        reports = four_reports(6000, 7575, 6375, 7650)[:3]
        with pytest.raises(UsageError):
            compare_configs(reports)

    def test_duplicate_config_rejected(self):
        reports = four_reports(6000, 7575, 6375, 7650)
        reports[1] = report_row("SL-O", 7575, 10000)
        with pytest.raises(UsageError):
            compare_configs(reports)

    def test_mismatched_manifest_rejected(self):
        reports = four_reports(6000, 7575, 6375, 7650)
        reports[3] = report_row("ML+O", 7650, 10000, name="other")
        with pytest.raises(UsageError):
            compare_configs(reports)

    def test_mismatched_totals_rejected(self):
        reports = four_reports(6000, 7575, 6375, 7650)
        reports[3] = report_row("ML+O", 765, 1000)
        with pytest.raises(UsageError):
            compare_configs(reports)


class TestRendering:
    def test_report_line(self):
        text = render_report(report_row("SL-O", 6000, 10000))
        assert text == "SL-O\t6000\t10000\t0.6000\n"

    def test_impact_lines(self):
        impact = compare_configs(four_reports(6295, 6920, 6563, 7232))
        text = render_impact(impact)
        assert "impact\to_effect_ml\t6.69\n" in text
        assert "impact\tml_effect_no_ops\t2.68\n" in text
        assert "impact\tml_effect_ops\t3.12\n" in text


class TestOracleThroughTheMatrix:
    def test_four_configurations_match_the_reference(self, tmp_path):
        """Every item score of every configuration, each with its rules
        compiled once for the manifest, equals the brute-force reference
        summed over the item's sentences."""
        lists = vocab_lists()
        defs = tuple(load_rules(DEFAULT_RULES, lists))
        single = vocab_lexicon()
        merged = vocab_lexicon()
        merged.add("malo", "ADJ", 3.0)  # neutralized
        merged.add("muy", "*", 0.5)
        merged.add("pero", "*", -1.0)
        rng = Random(2017)
        documents = [random_document(rng, max_sentences=4, max_nodes=9) for _ in range(60)]
        lines = []
        for index, doc in enumerate(documents):
            (tmp_path / f"d{index}.conllu").write_text(serialize_document(doc), encoding="utf-8")
            lines.append(f"d{index}.conllu\t{'positive' if index % 2 else 'negative'}\n")
        (tmp_path / "manifest.tsv").write_text("".join(lines), encoding="utf-8")
        configs = [
            RunConfig("SL-O", single),
            RunConfig("SL+O", single, defs),
            RunConfig("ML-O", merged),
            RunConfig("ML+O", merged, defs),
        ]
        reports = evaluate_configs(load_manifest(tmp_path / "manifest.tsv"), configs, lists)
        for report, cfg in zip(reports, configs):
            assert report.errored == 0
            for item, doc in zip(report.items, documents):
                want = fsum(reference_so(tree, cfg.lexicon, cfg.rules, lists) for tree in doc.sentences)
                assert item.so == pytest.approx(want, rel=1e-12, abs=1e-12), (cfg.config_id, item.path)
                if abs(want) > 1e-9:
                    assert item.predicted == ("positive" if want > 0 else "negative")
