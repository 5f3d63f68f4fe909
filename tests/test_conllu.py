import io
import sys
from dataclasses import fields
from random import Random

import pytest

from sisa import (
    ConlluParseError,
    DepTree,
    Document,
    Token,
    TreeStructureError,
    compute_so,
    iter_sentences,
    parse_document,
    read_document,
)
from sisa.lexicon import SentimentLexicon
from treegen import (
    build_tree,
    head_vectors,
    random_document,
    random_tree,
    serialize_document,
    shaped_tree,
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


def _line(token_id, head, form="a", upos="X", deprel="dep"):
    return f"{token_id}\t{form}\t{form}\t{upos}\t_\t_\t{head}\t{deprel}\t_\t_\n"


_ROOT = _line(1, 0, deprel="root")

# name: (text, exception type, str(exception), line_no or sentence_index)
PARSE_ERRORS = {
    "column count": (
        _ROOT + "\n1\tsolo\tsolo\n",
        ConlluParseError, "line 3: expected 10 tab-separated columns, got 3", 3,
    ),
    "id x": (_line("x", 0), ConlluParseError, "line 1: non-integer token id 'x'", 1),
    "id 1-x": (_line("1-x", 0), ConlluParseError, "line 1: non-integer token id '1-x'", 1),
    # A digit that int() rejects is reported like any other non-integer id.
    "id superscript two": (
        _line("²", 0), ConlluParseError, "line 1: non-integer token id '²'", 1,
    ),
    # IDs are ASCII digits; str.isdecimal alone accepts any Unicode digit.
    "id arabic-indic one": (
        _line("\u0661", 0), ConlluParseError, "line 1: non-integer token id '\u0661'", 1,
    ),
    "id fullwidth one": (
        _line("\uff11", 0), ConlluParseError, "line 1: non-integer token id '\uff11'", 1,
    ),
    "id arabic-indic range": (
        _line("\u0661-\u0662", 0),
        ConlluParseError, "line 1: non-integer token id '\u0661-\u0662'", 1,
    ),
    "out of sequence": (
        _ROOT + _line(3, 1), ConlluParseError, "line 2: token id 3 out of sequence (expected 2)", 2,
    ),
    "head y": (_line(1, "y"), ConlluParseError, "line 1: non-integer head 'y'", 1),
    "negative head": (_line(1, -1), ConlluParseError, "line 1: negative head -1", 1),
    # HEAD is ASCII digits too; int() would take each of these as head 1.
    "head +1": (_ROOT + _line(2, "+1"), ConlluParseError, "line 2: non-integer head '+1'", 2),
    "head space 1": (_ROOT + _line(2, " 1"), ConlluParseError, "line 2: non-integer head ' 1'", 2),
    "head 0_1": (_ROOT + _line(2, "0_1"), ConlluParseError, "line 2: non-integer head '0_1'", 2),
    "head arabic-indic one": (
        _ROOT + _line(2, "\u0661"), ConlluParseError, "line 2: non-integer head '\u0661'", 2,
    ),
    "head -0": (_line(1, "-0"), ConlluParseError, "line 1: non-integer head '-0'", 1),
    "negative arabic-indic head": (
        _line(1, "-\u0661"), ConlluParseError, "line 1: non-integer head '-\u0661'", 1,
    ),
    "own head": (
        _ROOT + "\n" + _ROOT + _line(2, 2),
        TreeStructureError, "sentence 2: token 2 is its own head", 2,
    ),
    "empty FORM": (_ROOT + _line(2, 1, form=""), ConlluParseError, "line 2: empty FORM column", 2),
    "empty UPOS": (_ROOT + _line(2, 1, upos=""), ConlluParseError, "line 2: empty UPOS column", 2),
    "zero roots": (
        _line(1, 2) + _line(2, 1),
        TreeStructureError, "sentence 1: expected exactly one root, found 0", 1,
    ),
    "two roots": (
        _ROOT + "\n" + _ROOT + _line(2, 0),
        TreeStructureError, "sentence 2: expected exactly one root, found 2", 2,
    ),
    "nonexistent head": (
        _ROOT + _line(2, 7),
        TreeStructureError, "sentence 1: token 2 points at nonexistent head 7", 1,
    ),
    "cycle": (
        _line(1, 2) + _line(2, 1) + _line(3, 0),
        TreeStructureError, "sentence 1: head relation contains a cycle", 1,
    ),
    # The root count is checked before the heads, whatever the token order.
    "two roots and a bad head": (
        _line(1, 9) + _line(2, 0) + _line(3, 0),
        TreeStructureError, "sentence 1: expected exactly one root, found 2", 1,
    ),
}


@pytest.mark.parametrize(
    "text, error, message, where", PARSE_ERRORS.values(), ids=PARSE_ERRORS.keys()
)
def test_parse_error_is_pinned(text, error, message, where):
    assert_parse_error(lambda: parse_document(text), error, message, where)


def assert_parse_error(parse, error, message, where):
    with pytest.raises(error) as err:
        parse()
    assert type(err.value) is error
    assert str(err.value) == message
    if error is ConlluParseError:
        assert err.value.line_no == where
    else:
        assert err.value.sentence_index == where


def _stream_file(path):
    with open(path, encoding="utf-8", newline="\n") as lines:
        return Document(tuple(iter_sentences(lines)), path.stem)


def _write(data, tmp_path):
    path = tmp_path / "in.conllu"
    path.write_bytes(data)
    return path


def _stream_stdin(data):
    # POSIX stdin: a text layer over bytes that splits lines at "\n" only.
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n")
    return Document(tuple(iter_sentences(stdin)))


# name: read(bytes, tmp_path) -> Document
STREAM_READERS = {
    "file streamed": lambda data, tmp_path: _stream_file(_write(data, tmp_path)),
    "file read whole": lambda data, tmp_path: read_document(_write(data, tmp_path)),
    "stdin": lambda data, tmp_path: _stream_stdin(data),
}
READERS = {"text": lambda data, tmp_path: parse_document(data.decode("utf-8")), **STREAM_READERS}


@pytest.mark.parametrize("read", STREAM_READERS.values(), ids=STREAM_READERS.keys())
@pytest.mark.parametrize(
    "text, error, message, where", PARSE_ERRORS.values(), ids=PARSE_ERRORS.keys()
)
def test_parse_error_is_the_same_from_files_and_stdin(read, text, error, message, where, tmp_path):
    assert_parse_error(lambda: read(text.encode("utf-8"), tmp_path), error, message, where)


@pytest.mark.parametrize("read", READERS.values(), ids=READERS.keys())
def test_lone_carriage_return_stays_in_its_field(read, tmp_path):
    data = b"# c\r\n1\tgran\rde\tgrande\tADJ\t_\t_\t0\troot\t_\t_\r\r\n\r\n"
    (tree,) = read(data, tmp_path).sentences
    assert tree.tokens == (Token(1, "gran\rde", "grande", "ADJ", 0, "root"),)


INVALID_UTF8 = {
    "invalid start byte": (b"\xff", "not valid UTF-8: invalid start byte 0xff"),
    "invalid continuation": (b"\xc3(", "not valid UTF-8: invalid continuation byte 0xc3"),
    "encoded surrogate": (b"\xed\xa0\x80", "not valid UTF-8: invalid continuation byte 0xed"),
}


@pytest.mark.parametrize("read", STREAM_READERS.values(), ids=STREAM_READERS.keys())
@pytest.mark.parametrize("bad, reason", INVALID_UTF8.values(), ids=INVALID_UTF8.keys())
def test_invalid_utf8_reports_its_line(read, bad, reason, tmp_path):
    # Long enough that a text file decodes the bad byte in a later chunk.
    before = NO_ES_BONITO.encode("utf-8") + b"\n"
    data = before * 600 + b"1\tb" + bad + b"\tb\tX\t_\t_\t0\troot\t_\t_\n" + before
    message = f"line {600 * 4 + 1}: {reason}"
    assert_parse_error(lambda: read(data, tmp_path), ConlluParseError, message, 600 * 4 + 1)


@pytest.mark.parametrize("read", STREAM_READERS.values(), ids=STREAM_READERS.keys())
def test_invalid_utf8_at_the_end_of_the_input(read, tmp_path):
    data = NO_ES_BONITO.encode("utf-8") + b"\xc3"
    message = "line 4: not valid UTF-8: unexpected end of data 0xc3"
    assert_parse_error(lambda: read(data, tmp_path), ConlluParseError, message, 4)


# More ASCII digits than int() converts (sys.get_int_max_str_digits).
_LONG_DIGITS = "1" * (sys.get_int_max_str_digits() + 1)
TOO_LONG = {
    "id": (_line(_LONG_DIGITS, 1), f"token id too long ({len(_LONG_DIGITS)} characters)"),
    "head": (_line(2, _LONG_DIGITS), f"head too long ({len(_LONG_DIGITS)} characters)"),
    "negative head": (
        _line(2, "-" + _LONG_DIGITS), f"head too long ({len(_LONG_DIGITS) + 1} characters)",
    ),
}


@pytest.mark.parametrize("read", READERS.values(), ids=READERS.keys())
@pytest.mark.parametrize("line, message", TOO_LONG.values(), ids=TOO_LONG.keys())
def test_id_or_head_too_long_for_int_is_a_parse_error(read, line, message, tmp_path):
    data = (_ROOT + line).encode("utf-8")
    assert_parse_error(lambda: read(data, tmp_path), ConlluParseError, f"line 2: {message}", 2)


def test_sentences_before_a_bad_one_are_yielded_first():
    text = NO_ES_BONITO + "\n" + NO_ES_BONITO + "\n" + _line(1, 2) + _line(2, 1)
    trees = iter_sentences(text.split("\n"))
    assert next(trees) == next(trees) == parse_document(NO_ES_BONITO).sentences[0]
    with pytest.raises(TreeStructureError) as err:
        next(trees)
    assert err.value.sentence_index == 3


@pytest.mark.parametrize(
    "tokens, message",
    [
        (
            (Token(1, "a", "a", "X", 0, "root"), Token(3, "b", "b", "X", 1, "dep")),
            "token ids are not sequential: expected 2, got 3",
        ),
        ((), "sentence has no tokens"),
        (
            (Token(1, "a", "a", "X", 0, "root"), Token(2, "b", "b", "X", 7, "dep")),
            "token 2 points at nonexistent head 7",
        ),
    ],
)
def test_direct_tree_error_is_pinned(tokens, message):
    with pytest.raises(TreeStructureError) as err:
        DepTree(tokens)
    assert str(err.value) == message
    assert err.value.sentence_index is None


@pytest.mark.parametrize(
    "fields, message",
    [
        ((0, "a", "a", "X", 1, "dep"), "token id must be >= 1, got 0"),
        ((1, "a", "a", "X", -1, "dep"), "token head must be >= 0, got -1"),
        ((1, "a", "a", "X", 1, "dep"), "token 1 is its own head"),
        ((1, "", "a", "X", 0, "root"), "token 1 has an empty form"),
        ((1, "a", "a", "", 0, "root"), "token 1 has an empty UPOS tag"),
    ],
)
def test_token_rejects_invalid_field(fields, message):
    with pytest.raises(ValueError) as err:
        Token(*fields)
    assert str(err.value) == message
    valid = Token(2, "b", "b", "X", 0, "root")
    with pytest.raises(ValueError) as err:
        valid._replace(**dict(zip(Token._fields, fields)))
    assert str(err.value) == message


def test_tree_makes_plain_tuples_tokens():
    rows = ((1, "no", "no", "ADV", 3, "advmod"), (2, "es", "ser", "AUX", 3, "cop"))
    parsed = parse_document(NO_ES_BONITO).sentences[0]
    tree = DepTree(rows + (parsed.token(3),))
    assert tree == parsed
    assert [type(token) for token in tree.tokens] == [Token] * 3
    assert tree.token(3) is parsed.token(3)
    assert tree.token(2).bare_deprel == "cop"
    lexicon = SentimentLexicon("bonito")
    lexicon.add("bonito", "ADJ", 3.5)
    trace = compute_so(tree, lexicon, ())
    assert trace.render() == compute_so(parsed, lexicon, ()).render()
    assert [node.form for node in trace.nodes] == ["no", "es", "bonito"]
    with pytest.raises(ValueError, match="token 1 has an empty UPOS tag"):
        DepTree(((1, "eso", "eso", "", 0, "root"),))


def test_parsed_token_is_a_plain_value():
    parsed = parse_document(NO_ES_BONITO).sentences[0].token(2)
    built = Token(id=2, form="es", lemma="ser", upos="AUX", head=3, deprel="cop")
    assert type(parsed) is Token
    assert parsed == built and hash(parsed) == hash(built)
    assert parsed == (2, "es", "ser", "AUX", 3, "cop")
    token_id, form, lemma, upos, head, deprel = parsed
    assert (token_id, form, head) == (2, "es", 3)
    with pytest.raises(AttributeError):
        parsed.form = "son"
    with pytest.raises(AttributeError):
        parsed.extra = 1


def test_tree_lookups_reject_ids_outside_the_sentence():
    tree = parse_document(NO_ES_BONITO).sentences[0]
    for lookup in (tree.token, tree.children):
        for token_id in (0, len(tree) + 1, -1):
            with pytest.raises(KeyError):
                lookup(token_id)
    assert tree.token(len(tree)).form == "bonito"
    assert tree.children(1) == ()


@pytest.mark.parametrize("line_end", ["\n", "\r\n"])
def test_random_documents_roundtrip(line_end):
    rng = Random(17)
    for _ in range(300):
        doc = random_document(rng, max_sentences=4, max_nodes=9)
        text = serialize_document(doc).replace("\n", line_end)
        again = parse_document(text, source_id=doc.source_id)
        assert again == doc
        for tree in again.sentences:
            assert all(type(tok) is Token for tok in tree.tokens)
            for tok in tree.tokens:
                kids = tuple(t.id for t in tree.tokens if t.head == tok.id)
                assert tree.children(tok.id) == kids
                if tok.head == 0:
                    assert tree.root_id == tok.id


LAYOUTS = {
    "LF": lambda text: text,
    "CRLF": lambda text: text.replace("\n", "\r\n"),
    "BOM": lambda text: "\ufeff" + text,
    "no final newline": lambda text: text.rstrip("\n"),
    "extra blank lines": lambda text: "\n \r\n" + text.replace("\n\n", "\n\n\t\n\r\n\n"),
}


@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
def test_iter_sentences_equals_parse_document(layout):
    rng = Random(23)
    for _ in range(300):
        doc = random_document(rng, max_sentences=4, max_nodes=9)
        text = layout(serialize_document(doc))
        parsed = parse_document(text, source_id=doc.source_id)
        assert parsed == doc
        streamed = tuple(iter_sentences(io.StringIO(text)))
        assert streamed == parsed.sentences
        assert tuple(iter_sentences(text.split("\n"))) == parsed.sentences


def _recursive_postorder(tree, node_id):
    """Each dependent's subtree, left to right, then the node itself."""
    order = []
    for child in tree.children(node_id):
        order += _recursive_postorder(tree, child)
    return order + [node_id]


def _stack_walk_postorder(tree):
    """The walk compute_so made before trees stored their postorder."""
    order = []
    stack = [tree.root_id]
    while stack:
        node_id = stack.pop()
        order.append(node_id)
        stack.extend(tree.children(node_id))
    return tuple(reversed(order))


def _generated_trees():
    rng = Random(41)
    yield from (random_tree(rng, max_nodes=12) for _ in range(300))
    for n in (1, 2, 7, 300):
        for shape in ("star", "chain"):
            yield shaped_tree(rng, n, shape)
    for heads in head_vectors(4):
        yield build_tree(heads, [4] * 4)


def test_postorder_visits_each_subtree_left_to_right_then_its_head():
    for tree in _generated_trees():
        order = tree.postorder
        assert type(order) is tuple
        assert sorted(order) == list(range(1, len(tree) + 1))
        position = {node_id: k for k, node_id in enumerate(order)}
        for tok in tree.tokens:
            if tok.head:
                assert position[tok.id] < position[tok.head]
        assert list(order) == _recursive_postorder(tree, tree.root_id)
        assert order == _stack_walk_postorder(tree)


def test_postorder_is_not_part_of_tree_equality_or_repr():
    stored = {f.name: f for f in fields(DepTree)}["postorder"]
    assert (stored.init, stored.compare, stored.repr) == (False, False, False)
    tree = parse_document(NO_ES_BONITO).sentences[0]
    assert tree.postorder == (1, 2, 3)
    twin = DepTree(tree.tokens)
    object.__setattr__(twin, "postorder", ())
    assert twin == tree and hash(twin) == hash(tree)
    assert repr(twin) == repr(tree)
