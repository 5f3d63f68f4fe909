"""Differential tests of the CoNLL-U reader against ``tests/reference_conllu.py``.

Through every way a document is read (text, a streamed file, a whole file,
stdin), ``sisa`` must give the trees the reference gives, or fail with the
same error type, message and ``line_no`` or ``sentence_index``.
"""

from random import Random

import pytest

from reference_conllu import reference_sentences
from sisa import SisaError
from test_conllu import LAYOUTS, PARSE_ERRORS, READERS
from treegen import random_document, serialize_document

FIXTURE_FILES = ("*.conllu", "corpus/*.conllu")


def _outcome(parse, *args):
    """What ``parse(*args)`` returns, or the error it raises."""
    try:
        return parse(*args)
    except SisaError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None), getattr(exc, "sentence_index", None)


def _trees(read, data, tmp_path):
    return [(t.tokens, t.root_id, t.dependents) for t in read(data, tmp_path).sentences]


def assert_same_as_reference(text, tmp_path):
    want = _outcome(lambda: list(reference_sentences(text.split("\n"))))
    for name, read in READERS.items():
        assert _outcome(_trees, read, text.encode("utf-8"), tmp_path) == want, name


def _line(token_id, head, form="a", lemma="a", upos="X", deprel="dep", misc="_"):
    return f"{token_id}\t{form}\t{lemma}\t{upos}\t_\t_\t{head}\t{deprel}\t_\t{misc}\n"


def chain(n):
    """Each token heads the next; the last is the root."""
    return "".join(_line(i, 0 if i == n else i + 1) for i in range(1, n + 1))


def star(n, root):
    """Every token on one root, most of them heads that lie ahead."""
    return "".join(_line(i, 0 if i == root else root) for i in range(1, n + 1))


def _fixture_texts(fixtures):
    return [
        path.read_bytes().decode("utf-8")
        for pattern in FIXTURE_FILES
        for path in sorted(fixtures.glob(pattern))
    ]


def test_every_fixture(fixtures, tmp_path):
    texts = _fixture_texts(fixtures)
    assert len(texts) >= 12
    for text in texts:
        assert_same_as_reference(text, tmp_path)


@pytest.mark.parametrize("text", [t for t, *_ in PARSE_ERRORS.values()], ids=PARSE_ERRORS.keys())
def test_every_pinned_error(text, tmp_path):
    assert_same_as_reference(text, tmp_path)


@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
def test_generated_documents(layout, tmp_path):
    rng = Random(29)
    for _ in range(40):
        doc = random_document(rng, max_sentences=4, max_nodes=12)
        assert_same_as_reference(layout(serialize_document(doc)), tmp_path)


ROOT = _line(1, 0, deprel="root")

# name: CoNLL-U text
ADVERSARIAL = {
    "id 01": _line("01", 0),
    "id 007": ROOT + _line(2, 1) + _line(3, 1) + _line(4, 1) + _line(5, 1) + _line(6, 1) + _line("007", 1),
    "id 00": _line("00", 0),
    "head 01": ROOT + _line(2, "01"),
    "head 007": "".join(_line(i, "007" if i < 7 else 0 if i == 7 else 7) for i in range(1, 9)),
    "head 00": _line(1, "00"),
    "head 00 twice": _line(1, "00") + _line(2, "0"),
    "canonical head past the sentence": ROOT + _line(2, 200),
    "canonical own head": ROOT + _line(2, 2),
    "5000-token chain": chain(5000),
    "star rooted past every small table": star(1200, 1100),
    "long sentence then short ones": star(700, 650) + "\n" + ROOT + _line(2, "01") + "\n" + chain(3),
    "id past the table, written 0300": chain(300).replace("\n300\t", "\n0300\t"),
    "head past the table, written 0300": chain(299).replace("\t300\t", "\t0300\t"),
    "ten-column comment": "#\t1\ta\tX\t_\t_\t0\troot\t_\t_\n" + ROOT,
    "ten-column comment in a sentence": ROOT + "# 2\ta\ta\tX\t_\t_\t1\tdep\t_\t_\n" + _line(2, 1),
    "nine-tab blank line": ROOT + "\t" * 9 + "\n" + ROOT,
    "nine-tab blank line with CR": ROOT + "\t" * 9 + "\r\n" + ROOT,
    "spaces and nine tabs": ROOT + " \t \t\t\t\t\t\t\t\t \n" + ROOT,
    "lone CR in FORM": _line(1, 0, form="gran\rde"),
    "CR-only FORM": _line(1, 0, form="\r"),
    "lone CR in DEPREL": ROOT + _line(2, 1, deprel="dep\r"),
    "CR in ID": _line("1\r", 0),
    "CR in HEAD": ROOT + _line(2, "1\r"),
    "CRs at the end of MISC": _line(1, 0, misc="_\r\r") + "\r\n",
    "tab at the end of MISC": _line(1, 0, misc="_\t"),
    "CR-only line between sentences": ROOT + "\r\n" + ROOT,
    "CRs only between sentences": ROOT + "\r\r\r\n" + ROOT,
    "comment ending in CR": "# text\r\n" + ROOT,
    "nine columns ending in CR": "1\ta\ta\tX\t_\t_\t0\troot\t_\r\n",
    "eleven columns ending in CR": ROOT.replace("\n", "\t_\r\n"),
    "empty LEMMA": _line(1, 0, form="Gran", lemma=""),
    "underscore LEMMA": _line(1, 0, form="Gran", lemma="_"),
    "empty FORM": _line(1, 0, form=""),
    "empty UPOS": _line(1, 0, upos=""),
    "arabic-indic id": _line("\u0661", 0),
    "fullwidth id": _line("\uff11", 0),
    "arabic-indic head": ROOT + _line(2, "\u0661"),
    "fullwidth head": ROOT + _line(2, "\uff11"),
    "superscript head": ROOT + _line(2, "\u00b9"),
    "range and empty node": ROOT + "1-2\ta\t_\t_\t_\t_\t_\t_\t_\t_\n" + _line(2, 1) + "2.1\ta\t_\t_\t_\t_\t_\t_\t_\t_\n",
    "byte order mark on a word line": "\ufeff" + ROOT,
    "byte order mark twice": "\ufeff\ufeff" + ROOT,
}


@pytest.mark.parametrize("text", ADVERSARIAL.values(), ids=ADVERSARIAL.keys())
def test_adversarial_document(text, tmp_path):
    assert_same_as_reference(text, tmp_path)


# Values that canonical ids and heads are not, or are only just.
FIELD_VALUES = (
    "0", "00", "01", "007", "1", "9", "10", "255", "256", "0256", "+1", "-1", "-0", " 1", "1 ",
    "", "_", "\r", "a\r", "\u0661", "\uff11", "#", "1-2", "1.1",
)


def test_random_field_mutations(tmp_path):
    rng = Random(31)
    for _ in range(400):
        doc = random_document(rng, max_sentences=3, max_nodes=10)
        lines = serialize_document(doc).split("\n")
        index = rng.choice([i for i, line in enumerate(lines) if line])
        columns = lines[index].split("\t")
        columns[rng.choice((0, 1, 2, 3, 6, 7, 9))] = rng.choice(FIELD_VALUES)
        lines[index] = "\t".join(columns)
        assert_same_as_reference("\n".join(lines), tmp_path)
