"""Reading CoNLL-U dependency trees.

Only the columns the scoring engine consumes are modeled: FORM, LEMMA, UPOS,
HEAD and DEPREL. The remaining columns (XPOS, FEATS, DEPS, MISC) are read
past and not kept. Multiword-token ranges ("1-2") and empty nodes ("5.1") are
dropped before tree building; the engine operates on basic trees only.

Most lines are word lines whose id is the next id written plainly ("7", not
"07"). :func:`iter_sentences` splits each line once and sends such a line
straight to the word-line checks (head, FORM, UPOS), which read a head of
0-63 from a small table before any digit test. Every other line (blank,
comment, range, empty node, malformed, or an id written otherwise) first
takes the full checks that tell the kinds of line apart; a word line among
them then takes the same word-line checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import ConlluParseError, TreeStructureError
from .util import utf8_error, utf8_error_line

_N_COLUMNS = 10
# Plain decimal text -> value of the ids and heads of most sentences.
_NUMBERS = {str(number): number for number in range(64)}


class _TokenFields(NamedTuple):
    id: int
    form: str
    lemma: str
    upos: str
    head: int
    deprel: str


class Token(_TokenFields):
    """One word line of a sentence: an immutable named tuple.

    ``id`` is the 1-based surface position; ``head`` is the id of the
    governing token, 0 for the root. ``deprel`` may carry a treebank subtype
    suffix ("advmod:emph"); rule matching uses :attr:`bare_deprel`. A token
    equals the plain tuple of its six fields and unpacks like one.
    """

    __slots__ = ()

    def __new__(cls, id: int, form: str, lemma: str, upos: str, head: int, deprel: str) -> Token:
        if id < 1:
            raise ValueError(f"token id must be >= 1, got {id}")
        if head < 0:
            raise ValueError(f"token head must be >= 0, got {head}")
        if head == id:
            raise ValueError(f"token {id} is its own head")
        if not form:
            raise ValueError(f"token {id} has an empty form")
        if not upos:
            raise ValueError(f"token {id} has an empty UPOS tag")
        if not deprel:
            raise ValueError(f"token {id} has an empty deprel")
        return tuple.__new__(cls, (id, form, lemma, upos, head, deprel))

    @classmethod
    def _make(cls, iterable) -> Token:
        # The inherited _make (and so _replace) would skip the checks.
        return cls(*iterable)

    @property
    def bare_deprel(self) -> str:
        """Dependency relation with any ":subtype" suffix removed."""
        return self.deprel.split(":", 1)[0]


@dataclass(frozen=True)
class DepTree:
    """A single-rooted, acyclic dependency tree over an ordered token list.

    ``dependents[i]`` holds the ids of token i's dependents in surface order,
    and ``dependents[0]`` is ``(root_id,)``. ``postorder`` lists every id
    once, each dependent before its head and siblings left to right. Walks
    over every node index these directly; :meth:`children` is the checked
    lookup of one node. An entry of ``tokens`` that is not a :class:`Token`,
    such as a plain tuple, is made one, so its fields are checked.
    """

    tokens: tuple[Token, ...]
    root_id: int = field(init=False, compare=False, repr=False)
    dependents: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    postorder: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        tokens = tuple(self.tokens)
        if not tokens:
            raise TreeStructureError("sentence has no tokens")
        size = len(tokens)
        children: list[list[int]] = [[] for _ in range(size + 1)]
        # Tokens are visited in id order, so every child list is filled in
        # surface order. A bad head is reported only after the root count,
        # which takes precedence.
        bad_head = None
        made = None
        for expected, token in enumerate(tokens, 1):
            if not isinstance(token, Token):
                if made is None:
                    made = list(tokens)
                made[expected - 1] = token = Token(*token)
            token_id, _, _, _, head, _ = token
            if token_id != expected:
                raise TreeStructureError(
                    f"token ids are not sequential: expected {expected}, got {token_id}"
                )
            if 0 <= head <= size:
                children[head].append(expected)
            elif bad_head is None:
                bad_head = token_id, head
        roots = children[0]
        if len(roots) != 1:
            raise TreeStructureError(f"expected exactly one root, found {len(roots)}")
        if bad_head is not None:
            token_id, head = bad_head
            raise TreeStructureError(f"token {token_id} points at nonexistent head {head}")
        object.__setattr__(self, "tokens", tokens if made is None else tuple(made))
        # Reachability from the root doubles as the cycle check: every token
        # has exactly one head, so n reachable nodes means no cycles. The
        # walk is a right-to-left preorder; reversed, the postorder.
        order = []
        stack = [roots[0]]
        while stack:
            node_id = stack.pop()
            order.append(node_id)
            stack.extend(children[node_id])
        if len(order) != size:
            raise TreeStructureError("head relation contains a cycle")
        order.reverse()
        object.__setattr__(self, "root_id", roots[0])
        object.__setattr__(self, "dependents", tuple(map(tuple, children)))
        object.__setattr__(self, "postorder", tuple(order))

    def token(self, token_id: int) -> Token:
        if 0 < token_id <= len(self.tokens):
            return self.tokens[token_id - 1]
        raise KeyError(token_id)

    def children(self, token_id: int) -> tuple[int, ...]:
        """Dependents of a node, ordered by surface position."""
        if 0 < token_id < len(self.dependents):
            return self.dependents[token_id]
        raise KeyError(token_id)

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class Document:
    """An ordered sequence of parsed sentences from one source."""

    sentences: tuple[DepTree, ...]
    source_id: str = "-"

    def __post_init__(self) -> None:
        object.__setattr__(self, "sentences", tuple(self.sentences))


def _is_number(text: str) -> bool:
    """ASCII digits only: str.isdecimal alone also accepts "٢" and "２"."""
    return text.isdecimal() and text.isascii()


def _is_number_pair(text: str, separator: str) -> bool:
    """A multiword range ("1-2", separator "-") or an empty node ("1.1", ".")."""
    left, sep, right = text.partition(separator)
    return bool(sep) and _is_number(left) and _is_number(right)


def _sentence(tokens: list[Token], sentence_index: int) -> DepTree:
    try:
        return DepTree(tuple(tokens))
    except TreeStructureError as exc:
        raise TreeStructureError(str(exc), sentence_index) from None


def iter_sentences(lines: Iterable[str]) -> Iterator[DepTree]:
    """Parse CoNLL-U lines, yielding one validated :class:`DepTree` per
    sentence as soon as the sentence ends.

    ``lines`` is any iterable of lines, such as ``text.split("\\n")`` or a
    text file opened with ``encoding="utf-8", newline="\\n"``; only the
    sentence being read is held. A line ends at ``\\n`` only, and its
    trailing ``\\r`` characters are dropped, so a lone ``\\r`` stays in its
    field. One leading UTF-8 byte order mark is ignored. Blank lines separate
    sentences, ``#`` lines are comments, multiword-token ranges and empty
    nodes are skipped. Raises :class:`ConlluParseError` for malformed lines
    and for bytes a file cannot decode as UTF-8 (with the 1-based line
    number), and :class:`TreeStructureError` for sentences that are not valid
    trees (with the 1-based sentence index). The sentences before the
    failing one have been yielded by then.
    """
    pending: list[Token] = []
    sentence_index = 1
    line_no = 0
    new_token = tuple.__new__
    numbers = _NUMBERS
    lines = iter(lines)
    try:
        first = next(lines, "")
        for line_no, raw in enumerate(chain((first.removeprefix("\ufeff"),), lines), 1):
            # Trailing "\r" and "\n" change neither the column count nor any
            # column but MISC, which is dropped, so the line is not stripped.
            columns = raw.split("\t")
            token_id = len(pending) + 1
            id_text = columns[0]
            if len(columns) != _N_COLUMNS or (
                numbers.get(id_text) != token_id and id_text != str(token_id)
            ):
                # Not a word line with the next id written plainly.
                if not raw.strip():
                    if pending:
                        yield _sentence(pending, sentence_index)
                        pending.clear()
                        sentence_index += 1
                    continue
                if raw.startswith("#"):
                    continue
                if len(columns) != _N_COLUMNS:
                    raise ConlluParseError(
                        f"expected {_N_COLUMNS} tab-separated columns, got {len(columns)}", line_no
                    )
                if _is_number(id_text):
                    try:
                        value = int(id_text)
                    except ValueError:  # more digits than int() converts
                        raise ConlluParseError(
                            f"token id too long ({len(id_text)} characters)", line_no
                        ) from None
                    if value != token_id:
                        raise ConlluParseError(
                            f"token id {value} out of sequence (expected {token_id})", line_no
                        )
                elif _is_number_pair(id_text, "-") or _is_number_pair(id_text, "."):
                    continue
                else:
                    raise ConlluParseError(f"non-integer token id {id_text!r}", line_no)
            head_text = columns[6]
            head = numbers.get(head_text)
            if head is None:
                try:
                    if head_text.isdecimal() and head_text.isascii():
                        head = int(head_text)
                    elif head_text[:1] == "-" and _is_number(head_text[1:]) and int(head_text):
                        raise ConlluParseError(f"negative head {int(head_text)}", line_no)
                    else:
                        raise ConlluParseError(f"non-integer head {head_text!r}", line_no)
                except ValueError:  # more digits than int() converts
                    raise ConlluParseError(
                        f"head too long ({len(head_text)} characters)", line_no
                    ) from None
            if head == token_id:
                raise TreeStructureError(
                    f"token {token_id} is its own head", sentence_index
                )
            form = columns[1]
            if not form:
                raise ConlluParseError("empty FORM column", line_no)
            upos = columns[3]
            if not upos:
                raise ConlluParseError("empty UPOS column", line_no)
            deprel = columns[7]
            if not deprel:
                raise ConlluParseError("empty DEPREL column", line_no)
            lemma = columns[2]
            if not lemma or lemma == "_":
                lemma = form.lower()
            # The checks above cover Token's own (the id is in sequence, so
            # >= 1), so its validating constructor is skipped.
            pending.append(new_token(Token, (token_id, form, lemma, upos, head, deprel)))
    except UnicodeDecodeError as exc:
        raise ConlluParseError(utf8_error(exc), utf8_error_line(exc, line_no)) from None
    if pending:
        yield _sentence(pending, sentence_index)


def parse_document(text: str | Iterable[str], source_id: str = "-") -> Document:
    """Parse CoNLL-U text or its lines into a :class:`Document`; see :func:`iter_sentences`."""
    lines = text.split("\n") if isinstance(text, str) else text
    return Document(tuple(iter_sentences(lines)), source_id)


def read_document(path: str | Path) -> Document:
    """Read and parse a CoNLL-U file line by line; the file stem becomes the source id."""
    path = Path(path)
    with open(path, encoding="utf-8", newline="\n") as file:
        return parse_document(file, source_id=path.stem)
