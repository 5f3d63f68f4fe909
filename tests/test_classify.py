import itertools
import math

import pytest

from sisa import (
    Document,
    NonFiniteScoreError,
    UsageError,
    classify_document,
    classify_sentence,
    parse_document,
    read_document,
)
from sisa.classify import document_so

INF = float("inf")
NAN = float("nan")


def doc_of(*texts, source="d"):
    trees = tuple(parse_document(t).sentences[0] for t in texts)
    return Document(trees, source)


MUY_GRANDE = "1\tmuy\tmuy\tADV\t_\t_\t2\tadvmod\t_\t_\n2\tgrande\tgrande\tADJ\t_\t_\t0\troot\t_\t_\n"
NO_ES_BONITO = (
    "1\tno\tno\tADV\t_\t_\t3\tadvmod\t_\t_\n"
    "2\tes\tser\tAUX\t_\t_\t3\tcop\t_\t_\n"
    "3\tbonito\tbonito\tADJ\t_\t_\t0\troot\t_\t_\n"
)
NEUTRAL = "1\teso\teso\tPRON\t_\t_\t0\troot\t_\t_\n"


class TestSentence:
    def test_muy_grande_positive(self, fixture_lexicon, default_rules, wordlists):
        tree = parse_document(MUY_GRANDE).sentences[0]
        result = classify_sentence(tree, fixture_lexicon, default_rules, wordlists)
        assert result.so == pytest.approx(2.3375, abs=1e-12)
        assert result.label == "positive"

    def test_no_es_bonito_negative(self, fixture_lexicon, default_rules, wordlists):
        tree = parse_document(NO_ES_BONITO).sentences[0]
        result = classify_sentence(tree, fixture_lexicon, default_rules, wordlists)
        assert result.so == pytest.approx(-0.5, abs=1e-12)
        assert result.label == "negative"

    def test_all_neutral_tie_is_positive(self, fixture_lexicon, default_rules, wordlists):
        tree = parse_document(NEUTRAL).sentences[0]
        result = classify_sentence(tree, fixture_lexicon, default_rules, wordlists)
        assert result.so == 0.0
        assert result.label == "positive"

    def test_tie_flag_flips_zero(self, fixture_lexicon):
        tree = parse_document(NEUTRAL).sentences[0]
        assert classify_sentence(tree, fixture_lexicon, [], tie="neg").label == "negative"
        assert classify_sentence(tree, fixture_lexicon, [], tie="pos").label == "positive"

    def test_unknown_tie_is_refused_for_any_score(self, fixture_lexicon, default_rules, wordlists):
        for text in (MUY_GRANDE, NO_ES_BONITO, NEUTRAL):
            tree = parse_document(text).sentences[0]
            with pytest.raises(UsageError, match="unknown tie rule 'bogus'"):
                classify_sentence(tree, fixture_lexicon, default_rules, wordlists, tie="bogus")
            with pytest.raises(UsageError, match="unknown tie rule 'bogus'"):
                classify_document(
                    doc_of(text), fixture_lexicon, default_rules, wordlists, tie="bogus"
                )

    def test_trace_attached_on_request(self, fixture_lexicon, default_rules, wordlists):
        tree = parse_document(MUY_GRANDE).sentences[0]
        result = classify_sentence(
            tree, fixture_lexicon, default_rules, wordlists, with_trace=True
        )
        assert result.traces is not None and len(result.traces) == 1
        assert result.traces[0].sentence_so == result.so


class TestDocument:
    def test_sum_of_sentences(self, fixture_lexicon, default_rules, wordlists):
        doc = doc_of(MUY_GRANDE, NO_ES_BONITO)
        result = classify_document(doc, fixture_lexicon, default_rules, wordlists)
        assert result.so == pytest.approx(2.3375 - 0.5, abs=1e-12)
        assert result.label == "positive"

    def test_negative_majority(self, fixture_lexicon):
        doc = doc_of(
            "1\tmalo\tmalo\tADJ\t_\t_\t0\troot\t_\t_\n",
            "1\tcaro\tcaro\tADJ\t_\t_\t0\troot\t_\t_\n",
            "1\tbueno\tbueno\tADJ\t_\t_\t0\troot\t_\t_\n",
        )
        result = classify_document(doc, fixture_lexicon, [])
        assert result.so == -3.0
        assert result.label == "negative"

    def test_single_sentence_equals_sentence_level(
        self, fixture_lexicon, default_rules, wordlists
    ):
        doc = doc_of(NO_ES_BONITO)
        by_doc = classify_document(doc, fixture_lexicon, default_rules, wordlists)
        by_sent = classify_sentence(
            doc.sentences[0], fixture_lexicon, default_rules, wordlists
        )
        assert by_doc.so == by_sent.so
        assert by_doc.label == by_sent.label

    def test_mean_aggregation(self, fixture_lexicon):
        doc = doc_of(
            "1\tbueno\tbueno\tADJ\t_\t_\t0\troot\t_\t_\n",
            "1\tmaravilla\tmaravilla\tNOUN\t_\t_\t0\troot\t_\t_\n",
        )
        assert classify_document(doc, fixture_lexicon, [], agg="mean").so == 3.0
        assert classify_document(doc, fixture_lexicon, [], agg="sum").so == 6.0

    def test_empty_document_rejected(self, fixture_lexicon):
        with pytest.raises(UsageError):
            classify_document(Document((), "empty"), fixture_lexicon, [])

    def test_unknown_agg_rejected(self, fixture_lexicon):
        with pytest.raises(UsageError):
            classify_document(doc_of(NEUTRAL), fixture_lexicon, [], agg="median")

    def test_sentence_permutation_invariant(self, fixtures, fixture_lexicon):
        doc = read_document(fixtures / "roundtrip.conllu")
        flipped = Document(tuple(reversed(doc.sentences)), doc.source_id)
        assert (
            classify_document(doc, fixture_lexicon, []).so
            == classify_document(flipped, fixture_lexicon, []).so
        )


class TestDocumentSoRange:
    """Document aggregation near the float maximum: only a result past the
    range is an error, whatever the order of the sentences."""

    @pytest.mark.parametrize(
        "scores", list(itertools.permutations([1e308, 1e308, -1e308]))
    )
    def test_overflowing_partial_sum_with_finite_total(self, scores):
        assert document_so(scores, "d") == 1e308

    def test_exact_total_is_correctly_rounded(self):
        # fsum's partials overflow; the tiny score must survive the cancellation.
        assert document_so([1e308, 1e308, 5e-324, -1e308, -1e308], "d") == 5e-324

    def test_mean_of_scores_whose_sum_overflows(self):
        assert math.isinf(1.683e308 * 2)
        assert document_so([1.683e308, 1.683e308], "d", "mean") == 1.683e308
        # Halving these is exact, so the sum of the halves is the rounded mean.
        assert document_so([1.7e308, 1.6e308], "d", "mean") == 1.7e308 / 2 + 1.6e308 / 2

    def test_sum_past_the_range_raises(self):
        with pytest.raises(NonFiniteScoreError):
            document_so([1.683e308, 1.683e308], "d")

    @pytest.mark.parametrize("agg", ["sum", "mean"])
    @pytest.mark.parametrize(
        "scores",
        [[1e308, 1e308, INF], [INF, -INF], [NAN], [1e308, 1e308, NAN]],
    )
    def test_non_finite_score_raises(self, scores, agg):
        with pytest.raises(NonFiniteScoreError):
            document_so(scores, "d", agg)
