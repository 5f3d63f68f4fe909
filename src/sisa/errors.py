"""Exception types shared across the package."""

from __future__ import annotations


class SisaError(Exception):
    """Base class for every error this package raises deliberately."""


class ConlluParseError(SisaError):
    """A CoNLL-U line could not be parsed. Carries the 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class TreeStructureError(SisaError):
    """A sentence is not a valid single-rooted dependency tree."""

    def __init__(self, message: str, sentence_index: int | None = None):
        if sentence_index is not None:
            message = f"sentence {sentence_index}: {message}"
        super().__init__(message)
        self.sentence_index = sentence_index


class _FileLineError(SisaError):
    """An input file line is at fault; the message starts ``path:line:``."""

    def __init__(self, message: str, path: str, line_no: int):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class LexiconParseError(_FileLineError):
    """A sentiment lexicon line is malformed."""


class LexiconRangeError(_FileLineError):
    """A sentiment score lies outside the declared scale."""


class WordListParseError(_FileLineError):
    """A trigger word list line is malformed."""


class RuleConfigError(SisaError):
    """The rule configuration file is invalid."""


class ManifestError(_FileLineError):
    """A corpus manifest line is malformed."""


class NonFiniteScoreError(SisaError):
    """A sentence or document score overflowed to infinity or NaN."""


class UsageError(SisaError):
    """An operation was invoked with arguments that make no sense together."""


class ScaleMismatchError(UsageError):
    """Lexica on different value scales were combined without rescaling."""


#: Errors that mean "the input could not be understood or scored" (CLI exit 3).
PARSE_ERRORS = (
    ConlluParseError,
    TreeStructureError,
    LexiconParseError,
    LexiconRangeError,
    WordListParseError,
    RuleConfigError,
    ManifestError,
    NonFiniteScoreError,
)
