"""Deterministic and random generators of small dependency trees, and the
CoNLL-U text of a generated document.

The fixture vocabulary holds six words: the four rule triggers plus one
positive and one negative adjective, each with a fixed UPOS and the deprel it
carries when it is not the root.
"""

from __future__ import annotations

from itertools import product
from random import Random

from sisa import DepTree, Document, Token
from sisa.lexicon import SentimentLexicon, WordList

#: (form, upos, deprel-when-child)
VOCAB = (
    ("muy", "ADV", "advmod"),
    ("no", "ADV", "advmod"),
    ("pero", "CONJ", "cc"),
    ("si", "SCONJ", "mark"),
    ("bueno", "ADJ", "nsubj"),
    ("malo", "ADJ", "amod"),
)


def vocab_lexicon() -> SentimentLexicon:
    lex = SentimentLexicon(name="vocab")
    lex.add("bueno", "ADJ", 2.0)
    lex.add("malo", "ADJ", -3.0)
    return lex


def vocab_lists() -> dict[str, WordList]:
    return {
        "boosters": WordList("boosters", {"muy": 0.25}),
        "negators": WordList("negators", {"no": None}),
        "adversatives": WordList("adversatives", {"pero": None}),
        "irrealis": WordList("irrealis", {"si": None}),
    }


def head_vectors(n: int):
    """Every head assignment that forms a single-rooted tree on n nodes."""
    for heads in product(*(tuple(h for h in range(n + 1) if h != i) for i in range(1, n + 1))):
        if heads.count(0) != 1:
            continue
        ok = True
        for start in range(1, n + 1):
            node, steps = start, 0
            while node != 0:
                node = heads[node - 1]
                steps += 1
                if steps > n:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield heads


def build_tree(heads, words) -> DepTree:
    """Assemble a tree from a head vector and per-position vocabulary picks."""
    tokens = []
    for position, (head, word_index) in enumerate(zip(heads, words), 1):
        form, upos, deprel = VOCAB[word_index]
        tokens.append(
            Token(
                id=position,
                form=form,
                lemma=form,
                upos=upos,
                head=head,
                deprel="root" if head == 0 else deprel,
            )
        )
    return DepTree(tuple(tokens))


def random_tree(rng: Random, max_nodes: int = 8) -> DepTree:
    """A uniform-ish random tree over the fixture vocabulary.

    Nodes are attached in a random insertion order, each to some previously
    inserted node, which can produce every rooted tree shape.
    """
    n = rng.randint(1, max_nodes)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    heads = [0] * n
    for k in range(1, n):
        heads[order[k] - 1] = order[rng.randrange(k)]
    words = [rng.randrange(len(VOCAB)) for _ in range(n)]
    return build_tree(heads, words)


def serialize_document(doc: Document) -> str:
    """A document as CoNLL-U text, its unmodeled columns as "_" and one
    blank line after each sentence: what ``parse_document`` reads back as
    the same document."""
    chunks: list[str] = []
    for tree in doc.sentences:
        for tok in tree.tokens:
            chunks.append(
                f"{tok.id}\t{tok.form}\t{tok.lemma}\t{tok.upos}\t_\t_\t{tok.head}\t{tok.deprel}\t_\t_\n"
            )
        chunks.append("\n")
    return "".join(chunks)


def random_document(rng: Random, max_sentences: int = 4, max_nodes: int = 6) -> Document:
    count = rng.randint(1, max_sentences)
    return Document(
        tuple(random_tree(rng, max_nodes) for _ in range(count)),
        source_id=f"doc{rng.randrange(10_000)}",
    )


def shaped_tree(rng: Random, n: int, shape: str) -> DepTree:
    """A star (every token on one root) or a chain (each token heads the
    next) of ``n`` tokens over the fixture vocabulary."""
    root = rng.randint(1, n) if shape == "star" else n
    heads = []
    for position in range(1, n + 1):
        if shape == "star":
            heads.append(0 if position == root else root)
        else:
            heads.append(0 if position == n else position + 1)
    return build_tree(heads, [rng.randrange(len(VOCAB)) for _ in range(n)])
