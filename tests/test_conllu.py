from pathlib import Path

import pytest

from sisa import (
    ConlluParseError,
    DepTree,
    Document,
    Token,
    TreeStructureError,
    parse_document,
    serialize_document,
)

NO_ES_BONITO = (
    "1\tno\tno\tADV\t_\t_\t3\tadvmod\t_\t_\n"
    "2\tes\tser\tAUX\t_\t_\t3\tcop\t_\t_\n"
    "3\tbonito\tbonito\tADJ\t_\t_\t0\troot\t_\t_\n"
)


def test_parse_three_token_sentence():
    doc = parse_document(NO_ES_BONITO)
    assert len(doc.sentences) == 1
    tree = doc.sentences[0]
    assert tree.root_id == 3
    assert tree.children(3) == (1, 2)
    assert [t.form for t in tree.tokens] == ["no", "es", "bonito"]
    assert tree.token(1).upos == "ADV"
    assert tree.token(1).deprel == "advmod"
    assert tree.token(2).lemma == "ser"


def test_leading_byte_order_mark_ignored():
    assert parse_document("\ufeff" + NO_ES_BONITO) == parse_document(NO_ES_BONITO)
    with pytest.raises(ConlluParseError):
        parse_document("\ufeff\ufeff" + NO_ES_BONITO)


def test_range_lines_are_dropped():
    text = (
        "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tde\tde\tADP\t_\t_\t3\tcase\t_\t_\n"
        "2\tel\tel\tDET\t_\t_\t3\tdet\t_\t_\n"
        "3\tmar\tmar\tNOUN\t_\t_\t0\troot\t_\t_\n"
    )
    tree = parse_document(text).sentences[0]
    assert [t.id for t in tree.tokens] == [1, 2, 3]
    assert [t.form for t in tree.tokens] == ["de", "el", "mar"]


def test_empty_node_lines_are_dropped():
    text = (
        "1\tbien\tbien\tADV\t_\t_\t0\troot\t_\t_\n"
        "1.1\tnada\tnada\tPRON\t_\t_\t_\t_\t_\t_\n"
    )
    tree = parse_document(text).sentences[0]
    assert len(tree) == 1


def test_self_loop_is_structural_error():
    text = (
        "1\tbien\tbien\tADV\t_\t_\t2\tadvmod\t_\t_\n"
        "2\tva\tir\tVERB\t_\t_\t2\troot\t_\t_\n"
    )
    with pytest.raises(TreeStructureError) as err:
        parse_document(text)
    assert err.value.sentence_index == 1


def test_head_cycle_is_structural_error():
    text = (
        "1\ta\ta\tX\t_\t_\t2\tdep\t_\t_\n"
        "2\tb\tb\tX\t_\t_\t1\tdep\t_\t_\n"
        "3\tc\tc\tX\t_\t_\t0\troot\t_\t_\n"
    )
    with pytest.raises(TreeStructureError):
        parse_document(text)


def test_multiple_roots_is_structural_error():
    text = (
        "1\ta\ta\tX\t_\t_\t0\troot\t_\t_\n"
        "2\tb\tb\tX\t_\t_\t0\troot\t_\t_\n"
    )
    with pytest.raises(TreeStructureError):
        parse_document(text)


def test_second_sentence_index_reported():
    text = NO_ES_BONITO + "\n" + "1\tx\tx\tX\t_\t_\t1\troot\t_\t_\n"
    with pytest.raises(TreeStructureError) as err:
        parse_document(text)
    assert err.value.sentence_index == 2


def test_wrong_column_count_reports_line_number():
    text = NO_ES_BONITO + "\n" + "1\tsolo\tsolo\n"
    with pytest.raises(ConlluParseError) as err:
        parse_document(text)
    assert err.value.line_no == 5


def test_non_integer_id_and_head():
    with pytest.raises(ConlluParseError):
        parse_document("x\ta\ta\tX\t_\t_\t0\troot\t_\t_\n")
    with pytest.raises(ConlluParseError):
        parse_document("1\ta\ta\tX\t_\t_\ty\troot\t_\t_\n")


def test_out_of_sequence_id():
    text = (
        "1\ta\ta\tX\t_\t_\t0\troot\t_\t_\n"
        "3\tb\tb\tX\t_\t_\t1\tdep\t_\t_\n"
    )
    with pytest.raises(ConlluParseError) as err:
        parse_document(text)
    assert err.value.line_no == 2


def test_underscore_lemma_falls_back_to_lowercased_form():
    text = "1\tGrande\t_\tADJ\t_\t_\t0\troot\t_\t_\n"
    tree = parse_document(text).sentences[0]
    assert tree.token(1).lemma == "grande"


def test_comments_ignored_and_crlf_tolerated():
    text = "# sent_id = 1\r\n" + NO_ES_BONITO.replace("\n", "\r\n")
    doc = parse_document(text)
    assert len(doc.sentences) == 1
    assert doc.sentences[0].token(3).form == "bonito"


def test_token_count_matches_word_lines():
    text = (
        "# comment\n"
        "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tde\tde\tADP\t_\t_\t3\tcase\t_\t_\n"
        "2\tel\tel\tDET\t_\t_\t3\tdet\t_\t_\n"
        "3\tmar\tmar\tNOUN\t_\t_\t0\troot\t_\t_\n"
        "3.1\tnulo\tnulo\tX\t_\t_\t_\t_\t_\t_\n"
    )
    word_lines = [
        line
        for line in text.splitlines()
        if line and not line.startswith("#") and line.split("\t")[0].isdigit()
    ]
    assert len(parse_document(text).sentences[0]) == len(word_lines)


def test_roundtrip_fixture_byte_identical(fixtures):
    raw = (fixtures / "roundtrip.conllu").read_text(encoding="utf-8")
    assert serialize_document(parse_document(raw)) == raw


def test_roundtrip_drops_comments_only(fixtures):
    raw = (fixtures / "roundtrip.conllu").read_text(encoding="utf-8")
    commented = "# text = Esta casa es grande\n" + raw
    assert serialize_document(parse_document(commented)) == raw


def test_serialize_empty_document():
    assert serialize_document(Document(())) == ""


def test_serialize_single_token_sentence():
    tree = DepTree((Token(1, "bien", "bien", "ADV", 0, "root"),))
    text = serialize_document(Document((tree,)))
    assert text == "1\tbien\tbien\tADV\t_\t_\t0\troot\t_\t_\n\n"
    assert parse_document(text).sentences[0] == tree


def test_parse_serialize_parse_is_identity(fixtures):
    for name in ("muy_grande", "no_es_bonito", "bueno_pero_caro", "roundtrip"):
        raw = (fixtures / f"{name}.conllu").read_text(encoding="utf-8")
        doc = parse_document(raw, source_id=name)
        again = parse_document(serialize_document(doc), source_id=name)
        assert again.sentences == doc.sentences


def test_token_invariants():
    with pytest.raises(ValueError):
        Token(0, "a", "a", "X", 1, "dep")
    with pytest.raises(ValueError):
        Token(1, "a", "a", "X", -1, "dep")
    with pytest.raises(ValueError):
        Token(1, "a", "a", "X", 1, "dep")
    with pytest.raises(ValueError):
        Token(1, "", "a", "X", 0, "root")
    with pytest.raises(ValueError):
        Token(1, "a", "a", "", 0, "root")


def test_bare_deprel_strips_subtype():
    tok = Token(1, "muy", "muy", "ADV", 2, "advmod:emph")
    assert tok.bare_deprel == "advmod"


def test_head_outside_sentence_is_structural_error():
    with pytest.raises(TreeStructureError):
        DepTree((Token(1, "a", "a", "X", 7, "dep"),))


def test_no_trailing_newline_accepted():
    doc = parse_document(NO_ES_BONITO.rstrip("\n"))
    assert len(doc.sentences) == 1
