import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

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
    POS_TAGS,
    SentimentLexicon,
    dump_lexicon,
    load_wordlist,
    merge_lexica,
    scale_senticon,
    sniff_scale,
)
from sisa.util import format_so, read_records


ENTRY_RULE = "an entry is not empty and has no tab, \\n, \\r, leading '#' or whitespace at an end"
UNHOLDABLE = ["", "#hash", "a\tb", "a\nb", "a\rb", " x", "x ", "x\x1c", "\xa0x", "\t"]
UNHOLDABLE_IDS = [
    "empty", "hash", "tab", "newline", "return", "lead", "trail", "x1c", "nbsp", "only-tab"
]


def keys(lexicon):
    """Every (entry, pos) key of a lexicon, table by table in POS_TAGS order."""
    return [(entry, pos) for pos, table in lexicon.scores.items() for entry in table]


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
        for so_raw in (1.5, -1.5, math.inf, -math.inf, math.nan):
            with pytest.raises(UsageError):
                scale_senticon(so_raw)

    def test_monotone_and_sign_preserving(self):
        values = [i / 100 for i in range(1, 101)]
        scaled = [scale_senticon(v) for v in values]
        assert all(b > a for a, b in zip(scaled, scaled[1:]))
        assert all(scale_senticon(-v) == -scale_senticon(v) for v in values)
        assert all(1 < s <= 5 for s in scaled)


class TestLoadLexicon:
    def test_sfu_line(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "l.tsv", "abandonat\tADJ\t-3\n"))
        assert lex.scores["ADJ"]["abandonat"] == -3

    def test_senticon_raw_rescaled_at_load(self, tmp_path):
        lex = load_lexicon(
            write(tmp_path, "l.tsv", "abandonat\tADJ\t-0.21875\n"), scale="senticon_raw"
        )
        assert lex.scores["ADJ"]["abandonat"] == -1.875

    def test_duplicates_merge_by_averaging(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "l.tsv", "raro\tADJ\t2\nraro\tADJ\t4\n"))
        assert lex.scores["ADJ"]["raro"] == 3
        assert lex.provenance[("raro", "ADJ")] == (6.0, 2)

    def test_non_numeric_score_is_parse_error(self, tmp_path):
        with pytest.raises(LexiconParseError) as err:
            load_lexicon(write(tmp_path, "l.tsv", "# ok\nraro\tADJ\tabc\n"))
        assert err.value.line_no == 2

    # float() takes "0_5" as 5.0, "٢" and "２" as 2.0, and " 1" as 1.0.
    @pytest.mark.parametrize("so_text", ["0_5", "٢", "２", " 1"])
    @pytest.mark.parametrize("scale", ["sfu", "senticon_raw"])
    def test_scores_are_ascii_without_underscores(self, tmp_path, so_text, scale):
        path = write(tmp_path, "l.tsv", f"raro\tADJ\t1\nmal\tADJ\t{so_text}\n")
        with pytest.raises(LexiconParseError) as err:
            load_lexicon(path, scale)
        assert str(err.value) == f"{path}:2: non-numeric score {so_text!r}"

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
        assert load_lexicon(path).scores["ADJ"]["raro"] == 3.0
        assert load_lexicon(path, "sfu").scores["ADJ"]["raro"] == 0.5
        with pytest.raises(LexiconParseError, match="v.tsv:1: unknown lexicon scale 'volts'"):
            load_lexicon(write(tmp_path, "v.tsv", "# scale: volts\nraro\tADJ\t1\n"))
        upper = write(tmp_path, "u.tsv", "# Scale: SENTICON_RAW\nraro\tADJ\t0.5\n")
        assert load_lexicon(upper).scores == {
            "ADJ": {"raro": 3.0},
            "NOUN": {},
            "ADV": {},
            "VERB": {},
            "*": {},
        }


class TestMerge:
    def test_abandonat_cross_lexicon_merge(self, tmp_path):
        senticon = load_lexicon(
            write(tmp_path, "a.tsv", "abandonat\tADJ\t-0.21875\n"), scale="senticon_raw"
        )
        sfu = load_lexicon(write(tmp_path, "b.tsv", "abandonat\tADJ\t-3\n"))
        merged = merge_lexica([senticon, sfu], name="ca")
        assert merged.scores["ADJ"]["abandonat"] == -2.4375

    def test_espantoso_mean_of_three(self, tmp_path):
        sources = [
            load_lexicon(write(tmp_path, f"{i}.tsv", f"espantoso\tADJ\t{v}\n"))
            for i, v in enumerate(("-4.1075", "-3.125", "5"))
        ]
        merged = merge_lexica(sources, name="combined")
        expected = math.fsum([-4.1075, -3.125, 5.0]) / 3
        assert merged.scores["ADJ"]["espantoso"] == pytest.approx(expected, abs=1e-12)

    def test_single_source_identity(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "l.tsv", "raro\tADJ\t2\nfeo\tADJ\t-1\n"))
        merged = merge_lexica([lex], name="same")
        assert merged.scores == lex.scores

    def test_count_weighting(self, tmp_path):
        # Two contributions of 2 against one of 5: mean is 3, not 3.5.
        doubled = load_lexicon(write(tmp_path, "a.tsv", "raro\tADJ\t2\nraro\tADJ\t2\n"))
        single = load_lexicon(write(tmp_path, "b.tsv", "raro\tADJ\t5\n"))
        merged = merge_lexica([doubled, single], name="m")
        assert merged.scores["ADJ"]["raro"] == 3
        assert merged.provenance[("raro", "ADJ")][1] == 3

    def test_exact_cancellation_is_retained_neutralized(self, tmp_path):
        pos = load_lexicon(write(tmp_path, "a.tsv", "vessar\tADJ\t2\n"))
        neg = load_lexicon(write(tmp_path, "b.tsv", "vessar\tADJ\t-2\n"))
        merged = merge_lexica([pos, neg], name="m")
        assert ("vessar", "ADJ") in merged
        assert merged.scores["ADJ"]["vessar"] == 0.0
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
        assert keys(lex) == [("bueno", "ADJ")]
        loaded = load_lexicon(write(tmp_path, "l.tsv", "Bueno\tADJ\t2.0\nBUENO\tADJ\t1.0\n"))
        assert lex.scores == loaded.scores and lex.provenance == loaded.provenance

    @pytest.mark.parametrize("pos", ["adj", "CONJ", "", "ADJ "])
    def test_unknown_pos_tag_is_a_usage_error(self, pos):
        lex = SentimentLexicon(name="mem")
        with pytest.raises(UsageError, match="PoS tag"):
            lex.add("bueno", pos, 1.0)
        assert len(lex) == 0
        assert lex.sizes() == {"ADJ": 0, "NOUN": 0, "ADV": 0, "VERB": 0, "*": 0}

    # Dumped, some would not load back: "#hash\tADJ\t1" reads as a comment,
    # " x" as "x", and a tab or "\n" splits the line. Whitespace at the other
    # end and "\r" are refused with them: a load refuses them too.
    @pytest.mark.parametrize("entry", UNHOLDABLE, ids=UNHOLDABLE_IDS)
    def test_an_entry_no_lexicon_line_holds_is_a_usage_error(self, entry):
        lex = SentimentLexicon(name="mem")
        with pytest.raises(UsageError) as err:
            lex.add(entry, "ADJ", 1.0)
        assert str(err.value) == f"entry {entry.lower()!r} refused: {ENTRY_RULE}"
        assert len(lex) == 0

    @pytest.mark.parametrize("entry", UNHOLDABLE, ids=UNHOLDABLE_IDS)
    def test_a_load_refuses_each_such_entry_a_line_carries(self, tmp_path, entry):
        # A line carries the entry when the record reader yields it as the
        # first field; otherwise the line is a comment, is split or stripped,
        # or opens an empty field, and a load holds no such key either.
        path = write(tmp_path, "l.tsv", f"ok\tADJ\t1\n{entry}\tADJ\t2\n")
        carried = entry in ("a\rb", "x ", "x\x1c")
        try:
            fields = [columns[0] for _, columns in read_records(path, LexiconParseError)]
        except LexiconParseError:  # an empty first field
            fields = []
        assert (fields == ["ok", entry]) == carried
        try:
            loaded = load_lexicon(path)
        except LexiconParseError as err:
            assert err.line_no == 2
            refusal = f"{path}:2: entry {entry.lower()!r} refused: {ENTRY_RULE}"
            assert (str(err) == refusal) == carried
        else:
            assert not carried and (entry.lower(), "ADJ") not in loaded

    @pytest.mark.parametrize("so", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_score_is_a_usage_error(self, so):
        lex = SentimentLexicon(name="mem")
        with pytest.raises(UsageError) as err:
            lex.add("raro", "ADJ", so)
        assert str(err.value) == f"score {so!r} of 'raro' outside [-5, 5]"
        assert len(lex) == 0

    @pytest.mark.parametrize("so", [7.0, -5.000001, 1e308])
    def test_a_score_past_five_is_a_usage_error(self, so):
        # Dumped, it would not load back: a loaded sfu score lies in [-5, 5].
        lex = SentimentLexicon(name="mem")
        with pytest.raises(UsageError) as err:
            lex.add("grande", "ADJ", so)
        assert str(err.value) == f"score {so!r} of 'grande' outside [-5, 5]"
        assert len(lex) == 0
        for bound in (5.0, -5.0):
            lex.add("grande", "ADJ", bound)
        assert lex.scores["ADJ"] == {"grande": 0.0}

    def test_a_zero_contribution_is_dropped_as_a_zero_line_is(self, tmp_path):
        lex = SentimentLexicon(name="mem")
        for entry, so in [("nulo", 0.0), ("nulo", -0.0), ("raro", 2.0), ("raro", 0.0)]:
            lex.add(entry, "ADJ", so)
        text = "nulo\tADJ\t0\nnulo\tADJ\t-0\nraro\tADJ\t2\nraro\tADJ\t0\n"
        loaded = load_lexicon(write(tmp_path, "l.tsv", text))
        assert lex.scores == loaded.scores and lex.provenance == loaded.provenance
        assert keys(lex) == [("raro", "ADJ")] and lex.provenance == {}

    def test_a_line_is_refused_the_entry_add_refuses(self, tmp_path):
        # Trailing whitespace or an inner \r: no lowercased form or lemma
        # equals the key, so a load once kept a key no token matched.
        lines = [("x \tADJ\t1\n", 1, "x "), ("ok\tADJ\t1\na\rb\tNOUN\t1\n", 2, "a\rb")]
        for text, line_no, entry in lines:
            path = write(tmp_path, "l.tsv", text)
            with pytest.raises(LexiconParseError) as err:
                load_lexicon(path)
            assert str(err.value) == f"{path}:{line_no}: entry {entry!r} refused: {ENTRY_RULE}"
            assert err.value.line_no == line_no


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
        # A UPOS with no table (DET) probes (form, *), then (lemma, *).
        ("bonito", "bonito", "DET", 0.5),  # (bonito, ADJ) is not probed
        ("bonita", "bonito", "DET", -1.0),  # (form, *) beats (lemma, *)
        ("bonitas", "bonito", "DET", 0.5),  # (lemma, *)
        ("casa", "casa", "DET", 0.0),  # no wildcard entry
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
                for upos in ("NOUN", "ADJ", "VERB", "DET"):
                    want = 0.0
                    for entry, pos in (
                        (form.lower(), upos),
                        (lemma.lower(), upos),
                        (form.lower(), "*"),
                        (lemma.lower(), "*"),
                    ):
                        if (entry, pos) in precedence_lexicon:
                            want = precedence_lexicon.scores[pos][entry]
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
            pos: pytest.approx(table, rel=1e-11) for pos, table in fixture_lexicon.scores.items()
        }

    def test_dump_sorts_by_entry_then_pos(self):
        # Sorted as text, the line of "a\x01b" would come first: "\x01" sorts
        # below the tab that ends "a".
        lex = SentimentLexicon(name="order")
        for entry, pos, so in [("ab", "ADJ", 1.0), ("a\x01b", "ADJ", 2.0), ("a", "ADJ", 3.0)]:
            lex.add(entry, pos, so)
        lex.add("a", "*", 4.0)
        assert dump_lexicon(lex) == (
            "# scale: sfu\na\t*\t4\na\tADJ\t3\na\x01b\tADJ\t2\nab\tADJ\t1\n"
        )

    def test_each_distinct_score_is_formatted_once(self, monkeypatch):
        # 2.0 under three tags and from both sources; 0.0 from a key neutralized
        # within a source and from one neutralized by the merge; -3.0 once; a
        # 0.0 contribution, which is dropped.
        a = SentimentLexicon(name="a")
        for entry, pos, so in [("bueno", "ADJ", 2.0), ("bueno", "*", 2.0), ("x", "ADJ", 1.0)]:
            a.add(entry, pos, so)
        b = SentimentLexicon(name="b")
        for entry, pos, so in [
            ("bueno", "ADJ", 2.0), ("bien", "ADV", 2.0), ("x", "ADJ", -1.0), ("malo", "ADJ", -3.0),
            ("nada", "NOUN", 4.0), ("nada", "NOUN", -4.0), ("cero", "VERB", 0.0),
        ]:
            b.add(entry, pos, so)
        merged = merge_lexica([a, b], name="m")
        calls = []

        def counting(so):
            calls.append(so)
            return format_so(so)

        monkeypatch.setattr("sisa.lexicon.format_so", counting)
        assert dump_lexicon(merged) == (
            "# scale: sfu\nbien\tADV\t2\nbueno\t*\t2\nbueno\tADJ\t2\n"
            "malo\tADJ\t-3\nnada\tNOUN\t0\nx\tADJ\t0\n"
        )
        assert sorted(calls) == [-3.0, 0.0, 2.0]

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(
            st.text(alphabet="ab\x01\x02\x05\x08", min_size=1, max_size=4),
            st.sets(st.sampled_from(POS_TAGS), min_size=1),
            min_size=1,
            max_size=12,
        )
    )
    def test_dump_lines_come_in_sorted_entry_and_pos_order(self, tags_of):
        # Characters below the tab sort an entry's line before a shorter
        # entry's, were the lines sorted as text.
        lex = SentimentLexicon(name="order")
        for entry, tags in tags_of.items():
            for pos in tags:
                lex.add(entry, pos, 1.0)
        lines = dump_lexicon(lex).splitlines()[1:]
        assert [tuple(line.split("\t")[:2]) for line in lines] == sorted(
            (entry, pos) for entry, tags in tags_of.items() for pos in tags
        )

    def test_a_neutralized_key_does_not_load_back(self, tmp_path):
        # The dump writes it as 0, a load drops a 0 line, and the lookup that
        # stopped at the key falls through to the "*" key.
        merged = merge_lexica(
            [
                load_lexicon(write(tmp_path, "a.tsv", "x\tADJ\t2\nx\t*\t3\n")),
                load_lexicon(write(tmp_path, "b.tsv", "x\tADJ\t-2\n")),
            ],
            name="m",
        )
        assert merged.lookup("x", "x", "ADJ") == 0.0
        dumped = dump_lexicon(merged)
        assert dumped == "# scale: sfu\nx\t*\t3\nx\tADJ\t0\n"
        again = load_lexicon(write(tmp_path, "m.tsv", dumped))
        assert keys(again) == [("x", "*")]
        assert again.lookup("x", "x", "ADJ") == 3.0

    def test_sniff_scale_header(self, tmp_path):
        path = write(tmp_path, "l.tsv", "# scale: senticon_raw\nraro\tADJ\t0.5\n")
        assert sniff_scale(path) == "senticon_raw"
        assert sniff_scale(write(tmp_path, "m.tsv", "raro\tADJ\t1\n")) is None

    def test_sniff_scale_of_a_file_of_comments_is_none(self, tmp_path):
        assert sniff_scale(write(tmp_path, "c.tsv", "# a lexicon\n\n# with no entry\n")) is None

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


class TestCompactTable:
    """A loaded table shares its tag and score objects and never holds its file."""

    @staticmethod
    def tags_are_shared(lexicon):
        tags = [*lexicon.scores, *(pos for _, pos in lexicon.provenance)]
        return all(any(pos is tag for tag in POS_TAGS) for pos in tags)

    def test_every_tag_is_a_pos_tags_object(self, tmp_path):
        text = "".join(f"w{i}\t{pos}\t{i + 1}\n" for i, pos in enumerate(POS_TAGS))
        loaded = load_lexicon(write(tmp_path, "l.tsv", text + "w0\tADJ\t2\n"))
        built = SentimentLexicon(name="mem")
        for pos in POS_TAGS:
            built.add("otro", "".join(pos), 1.0)  # built anew, as a caller's string is
            built.add("otro", "".join(pos), 2.0)
        merged = merge_lexica([loaded, built], name="m")
        for lexicon in (loaded, built, merged):
            assert [pos for pos, table in lexicon.scores.items() if table] == list(POS_TAGS)
            assert self.tags_are_shared(lexicon)

    @pytest.mark.parametrize("scale", ["sfu", "senticon_raw"])
    def test_one_float_per_distinct_score_text(self, tmp_path, scale):
        texts = ["0.5", "-0.25", "0.50", "1", "0"]
        text = "".join(f"w{i}\tNOUN\t{texts[i % len(texts)]}\n" for i in range(500))
        lexicon = load_lexicon(write(tmp_path, "l.tsv", text), scale)
        assert len(lexicon) == 400
        floats = {id(so): so for so in lexicon.scores["NOUN"].values()}
        assert len(floats) == 4  # "0.5" and "0.50" are two texts; "0" lines are dropped
        assert lexicon.scores["NOUN"]["w0"] == lexicon.scores["NOUN"]["w2"]

    def test_a_load_holds_the_table_not_the_file(self, tmp_path):
        path = write(
            tmp_path,
            "big.tsv",
            "".join(
                f"palabra{i}\t{POS_TAGS[i % 5]}\t{(i % 900 - 450) / 100 or 1}\n"
                for i in range(20_000)
            ),
        )
        assert path.stat().st_size > 400_000
        load_lexicon(path)  # the first load fills the interpreter's caches
        tracemalloc.start()
        try:
            lexicon = load_lexicon(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(lexicon) == 20_000
        # Holding the file's text and its list of lines added about 1.4 MiB.
        assert peak - held < 256 * 1024, (held, peak)
        # About 87 B on CPython 3.11: the entry string and its slot in its
        # tag's table. An (entry, pos) tuple per key cost 56 B more.
        assert held / len(lexicon) < 100, held

    def test_invalid_utf8_past_the_first_chunk(self, tmp_path):
        # Long enough that a text file decodes the bad byte in a later chunk.
        before = b"".join(b"palabra%d\tADJ\t1.5\n" % i for i in range(1_000))
        assert len(before) > 8192
        path = tmp_path / "l.tsv"
        path.write_bytes(before + b"mal\xffo\tADJ\t-1\n" + before)
        with pytest.raises(LexiconParseError) as err:
            load_lexicon(path)
        assert str(err.value) == f"{path}:1001: not valid UTF-8: invalid start byte 0xff"
        assert err.value.line_no == 1001

    def test_invalid_utf8_at_the_end_of_the_file(self, tmp_path):
        path = tmp_path / "l.tsv"
        path.write_bytes(b"# scale: sfu\nraro\tADJ\t1\nmal\tADJ\t-1\n\xc3")
        with pytest.raises(LexiconParseError) as err:
            load_lexicon(path)
        assert str(err.value) == f"{path}:4: not valid UTF-8: unexpected end of data 0xc3"
        assert err.value.line_no == 4

    @pytest.mark.parametrize("name", ["lexicon.tsv", "senticon_ca.tsv", "corpus/lexicon_ml.tsv"])
    def test_a_bom_and_crlf_copy_loads_the_same_table(self, tmp_path, name):
        plain = FIXTURES / name
        marked = tmp_path / plain.name
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes().replace(b"\n", b"\r\n"))
        loaded, expected = load_lexicon(marked), load_lexicon(plain)
        assert loaded == expected
        assert keys(loaded) == keys(expected)
        assert self.tags_are_shared(loaded)


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
        assert wl == {"muy": 0.25}

    def test_plain_entry(self, tmp_path):
        wl = load_wordlist(write(tmp_path, "negators.txt", "no\n"))
        assert wl == {"no": None}

    def test_duplicate_last_wins_with_warning(self, tmp_path, caplog):
        with caplog.at_level("WARNING", logger="sisa.lexicon"):
            wl = load_wordlist(write(tmp_path, "b.tsv", "muy\t0.25\nmuy\t0.5\n"))
        assert wl == {"muy": 0.5}
        assert any("duplicate" in record.message for record in caplog.records)

    def test_non_numeric_value_rejected(self, tmp_path):
        with pytest.raises(WordListParseError):
            load_wordlist(write(tmp_path, "b.tsv", "muy\tmucho\n"))

    def test_three_fields_rejected(self, tmp_path):
        path = write(tmp_path, "b.tsv", "muy\t0.25\nmuy\t0.5\tADV\n")
        with pytest.raises(WordListParseError) as err:
            load_wordlist(path)
        assert str(err.value) == f"{path}:2: expected at most 2 tab-separated fields, got 3"

    # float() takes "0_5" as 5.0, "٢" and "２" as 2.0, and " 0.3" as 0.3.
    @pytest.mark.parametrize("value", ["0_5", "٢", "２", " 0.3"])
    def test_values_are_ascii_without_underscores(self, tmp_path, value):
        path = write(tmp_path, "b.tsv", f"muy\t0.25\npoco\t{value}\n")
        with pytest.raises(WordListParseError) as err:
            load_wordlist(path)
        assert str(err.value) == f"{path}:2: non-numeric value {value!r}"

    def test_non_finite_value_rejected(self, tmp_path):
        with pytest.raises(WordListParseError):
            load_wordlist(write(tmp_path, "b.tsv", "muy\tinf\n"))

    @pytest.mark.parametrize("entry", ["muy ", "muy\x1c", "m\ruy"], ids=repr)
    def test_an_entry_add_refuses_is_refused(self, tmp_path, entry):
        # Kept, "muy " was a booster that never fired and never gave a value.
        path = write(tmp_path, "b.tsv", f"poco\t0.1\n{entry}\t0.3\n")
        with pytest.raises(WordListParseError) as err:
            load_wordlist(path)
        assert str(err.value) == f"{path}:2: entry {entry!r} refused: {ENTRY_RULE}"
        assert err.value.line_no == 2

    def test_entries_lowercased(self, tmp_path):
        wl = load_wordlist(write(tmp_path, "n.txt", "NO\n"))
        assert "no" in wl

    def test_a_load_holds_the_list_not_the_file(self, tmp_path):
        path = write(
            tmp_path,
            "big.tsv",
            "".join(f"palabra{i}\t{(i % 900 - 450) / 100}\n" for i in range(20_000)),
        )
        assert path.stat().st_size > 300_000
        load_wordlist(path)  # the first load fills the interpreter's caches
        tracemalloc.start()
        try:
            wordlist = load_wordlist(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(wordlist) == 20_000
        # Holding the file's text and its list of lines added about 1.4 MiB.
        assert peak - held < 256 * 1024, (held, peak)

    def test_load_wordlists_by_stem(self, tmp_path):
        write(tmp_path, "negators.txt", "no\n")
        write(tmp_path, "boosters.tsv", "muy\t0.25\n")
        write(tmp_path, "README.md", "ignored\n")
        lists = load_wordlists(tmp_path)
        assert set(lists) == {"negators", "boosters"}

    def test_two_lists_with_one_name_rejected(self, tmp_path):
        tsv = write(tmp_path, "boosters.tsv", "muy\t0.25\n")
        txt = write(tmp_path, "boosters.txt", "muy\t0.9\n")
        with pytest.raises(UsageError) as err:
            load_wordlists(tmp_path)
        assert str(err.value) == f"word lists {tsv} and {txt} share the name 'boosters'"

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_wordlists(tmp_path / "nope")
