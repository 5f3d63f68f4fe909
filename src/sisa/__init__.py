"""sisa: lexicon- and syntax-rule-based polarity classification.

Scores dependency-parsed sentences by propagating compositional operations
(negation shifts, booster weightings, adversative and irrealis damping)
through the tree, and ships the lexicon merging toolchain plus an evaluation
harness for labeled corpora.

The package exports what the README's "Library use" section documents: the
loaders, the scorers, the parsed-input types and the error classes. Engine
state and trace records live in :mod:`sisa.engine`, rule types in
:mod:`sisa.operations`, the lexicon toolchain in :mod:`sisa.lexicon` and the
evaluation harness in :mod:`sisa.evaluate`.
"""

from .classify import classify_document, classify_sentence
from .conllu import DepTree, Document, Token, iter_sentences, parse_document, read_document
from .engine import compute_so
from .errors import (
    ConlluParseError,
    LexiconParseError,
    LexiconRangeError,
    ManifestError,
    NonFiniteScoreError,
    RuleConfigError,
    SisaError,
    TreeStructureError,
    UsageError,
    WordListParseError,
)
from .lexicon import load_lexicon, load_wordlists
from .operations import load_rules

__version__ = "0.1.0"

__all__ = [
    "ConlluParseError",
    "DepTree",
    "Document",
    "LexiconParseError",
    "LexiconRangeError",
    "ManifestError",
    "NonFiniteScoreError",
    "RuleConfigError",
    "SisaError",
    "Token",
    "TreeStructureError",
    "UsageError",
    "WordListParseError",
    "classify_document",
    "classify_sentence",
    "compute_so",
    "iter_sentences",
    "load_lexicon",
    "load_rules",
    "load_wordlists",
    "parse_document",
    "read_document",
]
