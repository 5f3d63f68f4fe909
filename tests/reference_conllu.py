"""Reference CoNLL-U reader: the full per-line checks and the tree checks
written out plainly, to test ``sisa.conllu`` against.

Every line takes the same ladder of checks, in the order whose first failure
``iter_sentences`` must report. A sentence is returned as the plain
``(tokens, root_id, dependents)`` of the tree it gives, so a test can compare
both the tokens and the structure the tree was built with.
"""

from __future__ import annotations

from itertools import chain

from sisa.conllu import Token
from sisa.errors import ConlluParseError, TreeStructureError
from sisa.util import utf8_error

_N_COLUMNS = 10


def _is_number(text):
    return text.isdecimal() and text.isascii()


def _is_number_pair(text, separator):
    left, sep, right = text.partition(separator)
    return bool(sep) and _is_number(left) and _is_number(right)


def _tree(tokens, sentence_index):
    """(tokens, root_id, dependents) of a valid tree; TreeStructureError if not."""
    size = len(tokens)
    children = [[] for _ in range(size + 1)]
    bad_head = None
    for expected, tok in enumerate(tokens, 1):
        if 0 <= tok.head <= size:
            children[tok.head].append(expected)
        elif bad_head is None:
            bad_head = tok
    roots = children[0]
    if len(roots) != 1:
        raise TreeStructureError(f"expected exactly one root, found {len(roots)}", sentence_index)
    if bad_head is not None:
        raise TreeStructureError(
            f"token {bad_head.id} points at nonexistent head {bad_head.head}", sentence_index
        )
    seen = 0
    stack = [roots[0]]
    while stack:
        seen += 1
        stack.extend(children[stack.pop()])
    if seen != size:
        raise TreeStructureError("head relation contains a cycle", sentence_index)
    return tuple(tokens), roots[0], tuple(map(tuple, children))


def reference_sentences(lines):
    """Yield ``(tokens, root_id, dependents)`` per sentence of CoNLL-U lines,
    raising what ``sisa.conllu.iter_sentences`` raises, where it raises it."""
    pending = []
    sentence_index = 1
    line_no = 0
    lines = iter(lines)
    try:
        first = next(lines, "")
        for line_no, raw in enumerate(chain((first.removeprefix("\ufeff"),), lines), 1):
            line = raw.rstrip("\r\n")
            if not line.strip():
                if pending:
                    yield _tree(pending, sentence_index)
                    pending = []
                    sentence_index += 1
                continue
            if line.startswith("#"):
                continue
            columns = line.split("\t")
            if len(columns) != _N_COLUMNS:
                raise ConlluParseError(
                    f"expected {_N_COLUMNS} tab-separated columns, got {len(columns)}", line_no
                )
            id_text = columns[0]
            if id_text.isdecimal() and id_text.isascii():
                token_id = int(id_text)
            elif _is_number_pair(id_text, "-") or _is_number_pair(id_text, "."):
                continue
            else:
                raise ConlluParseError(f"non-integer token id {id_text!r}", line_no)
            if token_id != len(pending) + 1:
                raise ConlluParseError(
                    f"token id {token_id} out of sequence (expected {len(pending) + 1})", line_no
                )
            head_text = columns[6]
            if head_text.isdecimal() and head_text.isascii():
                head = int(head_text)
            elif head_text[:1] == "-" and _is_number(head_text[1:]) and int(head_text):
                raise ConlluParseError(f"negative head {int(head_text)}", line_no)
            else:
                raise ConlluParseError(f"non-integer head {head_text!r}", line_no)
            if head == token_id:
                raise TreeStructureError(f"token {token_id} is its own head", sentence_index)
            form = columns[1]
            if not form:
                raise ConlluParseError("empty FORM column", line_no)
            upos = columns[3]
            if not upos:
                raise ConlluParseError("empty UPOS column", line_no)
            lemma = columns[2]
            if not lemma or lemma == "_":
                lemma = form.lower()
            pending.append(Token(token_id, form, lemma, upos, head, columns[7]))
    except UnicodeDecodeError as exc:
        raise ConlluParseError(
            utf8_error(exc), line_no + 1 + exc.object.count(b"\n", 0, exc.start)
        ) from None
    if pending:
        yield _tree(pending, sentence_index)
