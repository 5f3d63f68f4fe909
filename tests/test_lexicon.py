import math

import pytest

from conftest import FIXTURES, LISTS_DIR, bom_copy
from sisa import (
    LexiconParseError,
    LexiconRangeError,
    UsageError,
    WordListParseError,
    load_lexicon,
    load_wordlists,
)
from sisa.lexicon import (
    SentimentLexicon,
    dump_lexicon,
    load_wordlist,
    merge_lexica,
    scale_senticon,
    sniff_scale,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestScaleSenticon:
    def test_abandonat_value(self):
        # Inverse check: (1.875 - 1) / 4 = 0.21875.
        assert scale_senticon(-0.21875) == -1.875

    def test_endpoint_maps_to_maximum(self):
        assert scale_senticon(1.0) == 5.0
        assert scale_senticon(-1.0) == -5.0

    def test_midpoint(self):
        assert scale_senticon(0.5) == 3.0

    def test_zero_rejected(self):
        with pytest.raises(UsageError):
            scale_senticon(0.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(UsageError):
            scale_senticon(1.5)

    def test_monotone_and_sign_preserving(self):
        values = [i / 100 for i in range(1, 101)]
        scaled = [scale_senticon(v) for v in values]
        assert all(b > a for a, b in zip(scaled, scaled[1:]))
        assert all(scale_senticon(-v) == -scale_senticon(v) for v in values)
        assert all(1 < s <= 5 for s in scaled)


class TestLoadLexicon:
    def test_sfu_line(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "l.tsv", "abandonat\tADJ\t-3\n"))
        assert lex.scores[("abandonat", "ADJ")] == -3

    def test_senticon_raw_rescaled_at_load(self, tmp_path):
        lex = load_lexicon(
            write(tmp_path, "l.tsv", "abandonat\tADJ\t-0.21875\n"), scale="senticon_raw"
        )
        assert lex.scores[("abandonat", "ADJ")] == -1.875

    def test_duplicates_merge_by_averaging(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "l.tsv", "raro\tADJ\t2\nraro\tADJ\t4\n"))
        assert lex.scores[("raro", "ADJ")] == 3
        assert lex.provenance[("raro", "ADJ")] == (6.0, 2)

    def test_non_numeric_score_is_parse_error(self, tmp_path):
        with pytest.raises(LexiconParseError) as err:
            load_lexicon(write(tmp_path, "l.tsv", "# ok\nraro\tADJ\tabc\n"))
        assert err.value.line_no == 2

    def test_sfu_range_error(self, tmp_path):
        with pytest.raises(LexiconRangeError):
            load_lexicon(write(tmp_path, "l.tsv", "raro\tADJ\t6\n"))

    def test_nan_score_rejected(self, tmp_path):
        with pytest.raises(LexiconParseError):
            load_lexicon(write(tmp_path, "l.tsv", "raro\tADJ\tnan\n"))

    def test_senticon_range_error(self, tmp_path):
        with pytest.raises(LexiconRangeError):
            load_lexicon(write(tmp_path, "l.tsv", "raro\tADJ\t1.5\n"), scale="senticon_raw")

    def test_entries_lowercased(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "l.tsv", "Grande\tADJ\t1.87\n"))
        assert ("grande", "ADJ") in lex

    def test_zero_scores_not_stored(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "l.tsv", "meh\tADJ\t0\nraro\tADJ\t1\n"))
        assert ("meh", "ADJ") not in lex
        assert len(lex) == 1

    def test_unknown_pos_rejected(self, tmp_path):
        with pytest.raises(LexiconParseError):
            load_lexicon(write(tmp_path, "l.tsv", "raro\tXPOS\t1\n"))

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(LexiconParseError):
            load_lexicon(write(tmp_path, "l.tsv", "raro\tADJ\n"))

    def test_unknown_scale(self, tmp_path):
        with pytest.raises(UsageError):
            load_lexicon(write(tmp_path, "l.tsv", "raro\tADJ\t1\n"), scale="volts")

    def test_header_decides_the_scale_unless_one_is_given(self, tmp_path):
        path = write(tmp_path, "l.tsv", "# scale: senticon_raw\nraro\tADJ\t0.5\n")
        assert load_lexicon(path).scores[("raro", "ADJ")] == 3.0
        assert load_lexicon(path, "sfu").scores[("raro", "ADJ")] == 0.5
        with pytest.raises(LexiconParseError, match="v.tsv:1: unknown lexicon scale 'volts'"):
            load_lexicon(write(tmp_path, "v.tsv", "# scale: volts\nraro\tADJ\t1\n"))
        upper = write(tmp_path, "u.tsv", "# Scale: SENTICON_RAW\nraro\tADJ\t0.5\n")
        assert load_lexicon(upper).scores == {("raro", "ADJ"): 3.0}


class TestMerge:
    def test_abandonat_cross_lexicon_merge(self, tmp_path):
        senticon = load_lexicon(
            write(tmp_path, "a.tsv", "abandonat\tADJ\t-0.21875\n"), scale="senticon_raw"
        )
        sfu = load_lexicon(write(tmp_path, "b.tsv", "abandonat\tADJ\t-3\n"))
        merged = merge_lexica([senticon, sfu], name="ca")
        assert merged.scores[("abandonat", "ADJ")] == -2.4375

    def test_espantoso_mean_of_three(self, tmp_path):
        sources = [
            load_lexicon(write(tmp_path, f"{i}.tsv", f"espantoso\tADJ\t{v}\n"))
            for i, v in enumerate(("-4.1075", "-3.125", "5"))
        ]
        merged = merge_lexica(sources, name="combined")
        expected = math.fsum([-4.1075, -3.125, 5.0]) / 3
        assert merged.scores[("espantoso", "ADJ")] == pytest.approx(expected, abs=1e-12)

    def test_single_source_identity(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "l.tsv", "raro\tADJ\t2\nfeo\tADJ\t-1\n"))
        merged = merge_lexica([lex], name="same")
        assert merged.scores == lex.scores

    def test_count_weighting(self, tmp_path):
        # Two contributions of 2 against one of 5: mean is 3, not 3.5.
        doubled = load_lexicon(write(tmp_path, "a.tsv", "raro\tADJ\t2\nraro\tADJ\t2\n"))
        single = load_lexicon(write(tmp_path, "b.tsv", "raro\tADJ\t5\n"))
        merged = merge_lexica([doubled, single], name="m")
        assert merged.scores[("raro", "ADJ")] == 3
        assert merged.provenance[("raro", "ADJ")][1] == 3

    def test_exact_cancellation_is_retained_neutralized(self, tmp_path):
        pos = load_lexicon(write(tmp_path, "a.tsv", "vessar\tADJ\t2\n"))
        neg = load_lexicon(write(tmp_path, "b.tsv", "vessar\tADJ\t-2\n"))
        merged = merge_lexica([pos, neg], name="m")
        assert ("vessar", "ADJ") in merged
        assert merged.scores[("vessar", "ADJ")] == 0.0
        assert merged.lookup("vessar", "vessar", "ADJ") == 0.0

    def test_empty_source_list_rejected(self):
        with pytest.raises(UsageError):
            merge_lexica([], name="m")

    def test_size_bounds(self, tmp_path):
        a = load_lexicon(write(tmp_path, "a.tsv", "uno\tADJ\t1\ndos\tADJ\t2\n"))
        b = load_lexicon(write(tmp_path, "b.tsv", "dos\tADJ\t4\ntres\tADJ\t3\n"))
        merged = merge_lexica([a, b], name="m")
        assert max(len(a), len(b)) <= len(merged) <= len(a) + len(b)
        assert len(merged) == 3


class TestAdd:
    def test_entry_is_lowercased_like_a_loaded_line(self, tmp_path):
        lex = SentimentLexicon(name="mem")
        lex.add("Bueno", "ADJ", 2.0)
        lex.add("BUENO", "ADJ", 1.0)
        assert lex.lookup("Bueno", "bueno", "ADJ") == 1.5
        assert list(lex.scores) == [("bueno", "ADJ")]
        loaded = load_lexicon(write(tmp_path, "l.tsv", "Bueno\tADJ\t2.0\nBUENO\tADJ\t1.0\n"))
        assert lex.scores == loaded.scores and lex.provenance == loaded.provenance

    @pytest.mark.parametrize("pos", ["adj", "CONJ", "", "ADJ "])
    def test_unknown_pos_tag_is_a_usage_error(self, pos):
        lex = SentimentLexicon(name="mem")
        with pytest.raises(UsageError, match="PoS tag"):
            lex.add("bueno", pos, 1.0)
        assert len(lex) == 0
        assert lex.sizes() == {"ADJ": 0, "NOUN": 0, "ADV": 0, "VERB": 0, "*": 0}


class TestLookup:
    def test_form_hit(self, fixture_lexicon):
        assert fixture_lexicon.lookup("Grande", "grande", "ADJ") == 1.87

    def test_absent_word_is_zero(self, fixture_lexicon):
        assert fixture_lexicon.lookup("zzz", "zzz", "ADJ") == 0.0

    def test_lemma_fallback(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "l.tsv", "bonito\tADJ\t3.5\n"))
        assert lex.lookup("bonitas", "bonito", "ADJ") == 3.5

    def test_wildcard_pos_fallback(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "l.tsv", "genial\t*\t4\n"))
        assert lex.lookup("genial", "genial", "INTJ") == 4

    def test_pos_specific_beats_wildcard(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "l.tsv", "raro\tADJ\t-2\nraro\t*\t1\n"))
        assert lex.lookup("raro", "raro", "ADJ") == -2
        assert lex.lookup("raro", "raro", "NOUN") == 1

    def test_neutralized_hit_stops_fallback(self, tmp_path):
        pos = load_lexicon(write(tmp_path, "a.tsv", "raro\tADJ\t2\nraro\t*\t1\n"))
        neg = load_lexicon(write(tmp_path, "b.tsv", "raro\tADJ\t-2\n"))
        merged = merge_lexica([pos, neg], name="m")
        # (raro, ADJ) neutralized: the hit wins and contributes 0; the
        # wildcard entry is not consulted.
        assert merged.lookup("raro", "raro", "ADJ") == 0.0
        assert merged.lookup("raro", "raro", "NOUN") == 1

    PRECEDENCE = """casa\tNOUN\t1
casas\t*\t2
bonito\tADJ\t3
bonito\t*\t0.5
bonita\t*\t-1
raro\t*\t4
"""
    # (form, lemma, upos, score): the first present key of (form, upos),
    # (lemma, upos), (form, *), (lemma, *), all lowercased, wins.
    PRECEDENCE_TABLE = [
        ("casa", "casa", "NOUN", 1.0),  # lemma = form
        ("Casa", "casa", "NOUN", 1.0),  # case variant of the form
        ("CASA", "CASA", "NOUN", 1.0),  # lemma = form, both upper case
        ("casa", "casa", "VERB", 0.0),  # no wildcard entry
        ("casas", "casa", "NOUN", 1.0),  # lemma != form: (lemma, upos)
        ("casas", "casa", "VERB", 2.0),  # (form, *)
        ("bonita", "bonito", "ADJ", 3.0),  # (lemma, upos) beats (form, *)
        ("bonita", "bonito", "NOUN", -1.0),  # (form, *) beats (lemma, *)
        ("bonitos", "Bonito", "NOUN", 0.5),  # (lemma, *)
        ("bonito", "bonita", "ADJ", 3.0),  # (form, upos) beats everything
        ("raro", "raro", "ADJ", 0.0),  # neutralized hit stops the fallback
        ("rara", "raro", "ADJ", 0.0),  # neutralized lemma hit
        ("RARO", "Raro", "NOUN", 4.0),  # equal once lowercased
        ("rara", "raro", "NOUN", 4.0),  # (lemma, *) past a miss on (form, *)
        ("zzz", "raro", "ADJ", 0.0),  # neutralized lemma hit, absent form
    ]

    @pytest.fixture()
    def precedence_lexicon(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "p.tsv", self.PRECEDENCE))
        lex.add("raro", "ADJ", 2.0)
        lex.add("raro", "ADJ", -2.0)
        return lex

    @pytest.mark.parametrize("form, lemma, upos, score", PRECEDENCE_TABLE)
    def test_precedence_table(self, precedence_lexicon, form, lemma, upos, score):
        assert precedence_lexicon.lookup(form, lemma, upos) == score

    def test_every_key_order_against_the_four_probes(self, precedence_lexicon):
        words = ["casa", "Casas", "bonito", "BONITA", "raro", "Rara", "zzz"]
        for form in words:
            for lemma in words:
                for upos in ("NOUN", "ADJ", "VERB"):
                    want = 0.0
                    for key in (
                        (form.lower(), upos),
                        (lemma.lower(), upos),
                        (form.lower(), "*"),
                        (lemma.lower(), "*"),
                    ):
                        if key in precedence_lexicon:
                            want = precedence_lexicon.scores[key]
                            break
                    assert precedence_lexicon.lookup(form, lemma, upos) == want

    def test_zero_scores_come_back_as_positive_zero(self):
        lex = SentimentLexicon(name="z")
        lex.add("nulo", "ADJ", -0.0)
        lex.add("raro", "ADJ", 2.0)
        lex.add("raro", "ADJ", -2.0)
        lex.add("doble", "ADJ", 1.0)
        lex.add("doble", "ADJ", 2.0)
        for word in ("nulo", "raro"):
            score = lex.lookup(word, word, "ADJ")
            assert score == 0.0 and math.copysign(1.0, score) == 1.0
        assert lex.lookup("doble", "doble", "ADJ") == 1.5


class TestDumpAndSniff:
    def test_dump_reload_preserves_effective_scores(self, tmp_path, fixture_lexicon):
        path = write(tmp_path, "out.tsv", dump_lexicon(fixture_lexicon))
        again = load_lexicon(path)
        assert again.scores == {
            k: pytest.approx(so, rel=1e-11) for k, so in fixture_lexicon.scores.items()
        }

    def test_sniff_scale_header(self, tmp_path):
        path = write(tmp_path, "l.tsv", "# scale: senticon_raw\nraro\tADJ\t0.5\n")
        assert sniff_scale(path) == "senticon_raw"
        assert sniff_scale(write(tmp_path, "m.tsv", "raro\tADJ\t1\n")) is None

    def test_sniff_scale_stops_at_the_first_entry(self, tmp_path):
        path = tmp_path / "l.tsv"
        path.write_bytes(b"# comment\n\n# scale: sfu\nraro\tADJ\t1\nmal\xffo\tADJ\t-1\n")
        assert sniff_scale(path) == "sfu"
        path.write_bytes(b"\n# comment\nraro\tADJ\t1\n# scale: sfu\nmal\xffo\tADJ\t-1\n")
        assert sniff_scale(path) is None
        with pytest.raises(LexiconParseError, match=":5: not valid UTF-8") as info:
            load_lexicon(path)
        assert info.value.line_no == 5

    def test_sniff_scale_reports_bad_utf8_in_the_header(self, tmp_path):
        path = tmp_path / "l.tsv"
        path.write_bytes(b"# first\n# scale: s\xc3\nraro\tADJ\t1\n")
        with pytest.raises(LexiconParseError) as sniffed:
            sniff_scale(path)
        with pytest.raises(LexiconParseError) as loaded:
            load_lexicon(path)
        assert str(sniffed.value) == str(loaded.value)
        assert sniffed.value.line_no == 2


class TestByteOrderMark:
    """One leading UTF-8 byte order mark is ignored, as in CoNLL-U input."""

    @pytest.mark.parametrize(
        "name", ["lexicon.tsv", "senticon_ca.tsv", "sfu_ca.tsv", "corpus/lexicon_ml.tsv"]
    )
    def test_lexicon_and_its_scale_header(self, tmp_path, name):
        plain = FIXTURES / name
        marked = bom_copy(plain, tmp_path)
        assert sniff_scale(marked) == sniff_scale(plain)
        assert load_lexicon(marked) == load_lexicon(plain)

    def test_word_lists(self, tmp_path):
        for path in LISTS_DIR.iterdir():
            bom_copy(path, tmp_path)
        assert load_wordlists(tmp_path) == load_wordlists(LISTS_DIR)


class TestWordList:
    def test_booster_value(self, tmp_path):
        wl = load_wordlist(write(tmp_path, "boosters.tsv", "muy\t0.25\n"))
        assert wl.value("muy") == 0.25

    def test_plain_entry(self, tmp_path):
        wl = load_wordlist(write(tmp_path, "negators.txt", "no\n"))
        assert "no" in wl
        assert wl.value("no") is None

    def test_duplicate_last_wins_with_warning(self, tmp_path, caplog):
        with caplog.at_level("WARNING", logger="sisa.lexicon"):
            wl = load_wordlist(write(tmp_path, "b.tsv", "muy\t0.25\nmuy\t0.5\n"))
        assert wl.value("muy") == 0.5
        assert any("duplicate" in record.message for record in caplog.records)

    def test_non_numeric_value_rejected(self, tmp_path):
        with pytest.raises(WordListParseError):
            load_wordlist(write(tmp_path, "b.tsv", "muy\tmucho\n"))

    def test_non_finite_value_rejected(self, tmp_path):
        with pytest.raises(WordListParseError):
            load_wordlist(write(tmp_path, "b.tsv", "muy\tinf\n"))

    def test_entries_lowercased(self, tmp_path):
        wl = load_wordlist(write(tmp_path, "n.txt", "NO\n"))
        assert "no" in wl

    def test_load_wordlists_by_stem(self, tmp_path):
        write(tmp_path, "negators.txt", "no\n")
        write(tmp_path, "boosters.tsv", "muy\t0.25\n")
        write(tmp_path, "README.md", "ignored\n")
        lists = load_wordlists(tmp_path)
        assert set(lists) == {"negators", "boosters"}

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_wordlists(tmp_path / "nope")
