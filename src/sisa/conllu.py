"""Reading and writing CoNLL-U dependency trees.

Only the columns the scoring engine consumes are modeled: FORM, LEMMA, UPOS,
HEAD and DEPREL. The remaining columns (XPOS, FEATS, DEPS, MISC) are emitted
as "_" on output and ignored on input, so a tree-only file round-trips
byte-identically modulo comments. Multiword-token ranges ("1-2") and empty
nodes ("5.1") are dropped before tree building; the engine operates on basic
trees only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConlluParseError, TreeStructureError

_N_COLUMNS = 10


@dataclass(frozen=True, slots=True)
class Token:
    """One word line of a sentence.

    ``id`` is the 1-based surface position; ``head`` is the id of the
    governing token, 0 for the root. ``deprel`` may carry a treebank subtype
    suffix ("advmod:emph"); rule matching uses :attr:`bare_deprel`.
    """

    id: int
    form: str
    lemma: str
    upos: str
    head: int
    deprel: str

    def __post_init__(self) -> None:
        if self.id < 1:
            raise ValueError(f"token id must be >= 1, got {self.id}")
        if self.head < 0:
            raise ValueError(f"token head must be >= 0, got {self.head}")
        if self.head == self.id:
            raise ValueError(f"token {self.id} is its own head")
        if not self.form:
            raise ValueError(f"token {self.id} has an empty form")
        if not self.upos:
            raise ValueError(f"token {self.id} has an empty UPOS tag")

    @property
    def bare_deprel(self) -> str:
        """Dependency relation with any ":subtype" suffix removed."""
        return self.deprel.split(":", 1)[0]


@dataclass(frozen=True)
class DepTree:
    """A single-rooted, acyclic dependency tree over an ordered token list."""

    tokens: tuple[Token, ...]
    root_id: int = field(init=False, compare=False, repr=False)
    _children: dict[int, tuple[int, ...]] = field(init=False, compare=False, repr=False)
    _by_id: dict[int, Token] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        tokens = tuple(self.tokens)
        object.__setattr__(self, "tokens", tokens)
        if not tokens:
            raise TreeStructureError("sentence has no tokens")
        by_id: dict[int, Token] = {}
        for expected, tok in enumerate(tokens, 1):
            if tok.id != expected:
                raise TreeStructureError(
                    f"token ids are not sequential: expected {expected}, got {tok.id}"
                )
            by_id[tok.id] = tok
        roots = [tok.id for tok in tokens if tok.head == 0]
        if len(roots) != 1:
            raise TreeStructureError(f"expected exactly one root, found {len(roots)}")
        children: dict[int, list[int]] = {tok.id: [] for tok in tokens}
        for tok in tokens:
            if tok.head:
                if tok.head not in by_id:
                    raise TreeStructureError(
                        f"token {tok.id} points at nonexistent head {tok.head}"
                    )
                children[tok.head].append(tok.id)
        # Reachability from the root doubles as the cycle check: every token
        # has exactly one head, so n reachable nodes means no cycles.
        seen = 0
        stack = [roots[0]]
        while stack:
            seen += 1
            stack.extend(children[stack.pop()])
        if seen != len(tokens):
            raise TreeStructureError("head relation contains a cycle")
        object.__setattr__(self, "root_id", roots[0])
        object.__setattr__(
            self, "_children", {nid: tuple(sorted(kids)) for nid, kids in children.items()}
        )
        object.__setattr__(self, "_by_id", by_id)

    def token(self, token_id: int) -> Token:
        return self._by_id[token_id]

    def children(self, token_id: int) -> tuple[int, ...]:
        """Dependents of a node, ordered by surface position."""
        return self._children[token_id]

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class Document:
    """An ordered sequence of parsed sentences from one source."""

    sentences: tuple[DepTree, ...]
    source_id: str = "-"

    def __post_init__(self) -> None:
        object.__setattr__(self, "sentences", tuple(self.sentences))


def _is_range_id(text: str) -> bool:
    left, sep, right = text.partition("-")
    return bool(sep) and left.isdigit() and right.isdigit()


def _is_empty_node_id(text: str) -> bool:
    left, sep, right = text.partition(".")
    return bool(sep) and left.isdigit() and right.isdigit()


def parse_document(text: str, source_id: str = "-") -> Document:
    """Parse CoNLL-U text into a :class:`Document`.

    One leading UTF-8 byte order mark is ignored. Blank lines separate
    sentences, ``#`` lines are comments, multiword-token ranges and empty
    nodes are skipped. Raises :class:`ConlluParseError` for
    malformed lines (with the 1-based line number) and
    :class:`TreeStructureError` for sentences that are not valid trees (with
    the 1-based sentence index).
    """
    trees: list[DepTree] = []
    pending: list[Token] = []
    sentence_index = 1
    text = text.removeprefix("\ufeff")

    def flush() -> None:
        nonlocal sentence_index
        if not pending:
            return
        try:
            trees.append(DepTree(tuple(pending)))
        except TreeStructureError as exc:
            raise TreeStructureError(str(exc), sentence_index) from None
        pending.clear()
        sentence_index += 1

    for line_no, raw in enumerate(text.split("\n"), 1):
        line = raw.rstrip("\r")
        if not line.strip():
            flush()
            continue
        if line.startswith("#"):
            continue
        columns = line.split("\t")
        if len(columns) != _N_COLUMNS:
            raise ConlluParseError(
                f"expected {_N_COLUMNS} tab-separated columns, got {len(columns)}", line_no
            )
        id_text = columns[0]
        if _is_range_id(id_text) or _is_empty_node_id(id_text):
            continue
        if not id_text.isdigit():
            raise ConlluParseError(f"non-integer token id {id_text!r}", line_no)
        token_id = int(id_text)
        if token_id != len(pending) + 1:
            raise ConlluParseError(
                f"token id {token_id} out of sequence (expected {len(pending) + 1})", line_no
            )
        head_text = columns[6]
        try:
            head = int(head_text)
        except ValueError:
            raise ConlluParseError(f"non-integer head {head_text!r}", line_no) from None
        if head < 0:
            raise ConlluParseError(f"negative head {head}", line_no)
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
        lemma = columns[2]
        if not lemma or lemma == "_":
            lemma = form.lower()
        pending.append(
            Token(id=token_id, form=form, lemma=lemma, upos=upos, head=head, deprel=columns[7])
        )
    flush()
    return Document(tuple(trees), source_id)


def serialize_document(doc: Document) -> str:
    """Emit a document as CoNLL-U text, one blank line after each sentence."""
    chunks: list[str] = []
    for tree in doc.sentences:
        for tok in tree.tokens:
            chunks.append(
                f"{tok.id}\t{tok.form}\t{tok.lemma}\t{tok.upos}\t_\t_\t{tok.head}\t{tok.deprel}\t_\t_\n"
            )
        chunks.append("\n")
    return "".join(chunks)


def read_document(path: str | Path) -> Document:
    """Read and parse a CoNLL-U file; the file stem becomes the source id."""
    path = Path(path)
    return parse_document(path.read_text(encoding="utf-8"), source_id=path.stem)
