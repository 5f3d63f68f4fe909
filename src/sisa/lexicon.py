"""Sentiment lexica and trigger word lists.

A lexicon is a flat table from (entry, pos) keys to signed scores whose
magnitude lives on a 1-to-5 scale for subjective words. Raw scores with
magnitude at most 1 (the "senticon_raw" scale) are rescaled onto that range
at load time. Keys averaged from more than one contribution also keep their
(sum, count) provenance, so that merging stays count-weighted and
order-independent.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .errors import (
    LexiconParseError,
    LexiconRangeError,
    UsageError,
    WordListParseError,
)
from .util import format_so, read_utf8, utf8_error

logger = logging.getLogger(__name__)

SFU = "sfu"
SENTICON_RAW = "senticon_raw"
SCALES = (SFU, SENTICON_RAW)

POS_TAGS = ("ADJ", "NOUN", "ADV", "VERB", "*")


def scale_senticon(so_raw: float) -> float:
    """Map a raw score with magnitude in (0, 1] onto the 1-to-5 scale.

    Sign-preserving affine map of the magnitude: m -> 1 + 4m, so the maximum
    raw magnitude 1.0 lands exactly on 5.0. Zero is rejected because
    zero-polarity entries are never stored.
    """
    if so_raw == 0:
        raise UsageError("zero-polarity scores are not stored and cannot be rescaled")
    if abs(so_raw) > 1:
        raise UsageError(f"raw score {so_raw} outside [-1, 1]")
    return math.copysign(1.0 + 4.0 * abs(so_raw), so_raw)


@dataclass
class SentimentLexicon:
    """Mapping from (lowercased entry, pos) to scores.

    ``scores`` holds each key's effective score: the mean of every
    contribution, computed once, with -0.0 folded to 0.0. A key whose
    contributions cancelled out stays in the table at 0.0 (neutralized), so
    that it still stops the lookup fallback. ``provenance`` keeps the
    ``(sum, count)`` of the keys whose count is not 1, the only ones whose
    sum differs from their score; :func:`merge_lexica` weights by it.
    """

    name: str
    scores: dict[tuple[str, str], float] = field(default_factory=dict)
    provenance: dict[tuple[str, str], tuple[float, int]] = field(default_factory=dict)

    def add(self, entry: str, pos: str, so: float) -> None:
        """Fold one contribution into the lexicon.

        The entry is lowercased, as :func:`load_lexicon` does; a PoS tag
        outside ``POS_TAGS`` is a :class:`UsageError`.
        """
        if pos not in POS_TAGS:
            raise UsageError(f"unknown PoS tag {pos!r}; a lexicon key takes one of {POS_TAGS}")
        key = (entry.lower(), pos)
        old = self.scores.get(key)
        count = 1
        if old is not None:
            so_sum, old_count = self.provenance.get(key, (old, 1))
            so = so_sum + so
            count = old_count + 1
            self.provenance[key] = (so, count)
        self.scores[key] = so / count or 0.0

    def lookup(self, form: str, lemma: str, upos: str) -> float:
        """Score for a token, 0.0 when absent.

        Keys are tried in order: (form, upos), (lemma, upos), (form, "*"),
        (lemma, "*"), everything lowercased. The first present key wins;
        a neutralized entry counts as a hit and contributes 0. The lemma
        keys are probed only when the lemma differs from the form.
        """
        scores = self.scores
        form = form.lower()
        so = scores.get((form, upos))
        if so is None:
            lemma = lemma.lower()
            if lemma != form:
                so = scores.get((lemma, upos))
            if so is None:
                so = scores.get((form, "*"))
                if so is None and lemma != form:
                    so = scores.get((lemma, "*"))
                if so is None:
                    return 0.0
        return so

    def sizes(self) -> dict[str, int]:
        """Entry counts per PoS tag, in the fixed tag order."""
        counts = {pos: 0 for pos in POS_TAGS}
        for _, pos in self.scores:
            counts[pos] = counts.get(pos, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.scores)

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self.scores


def load_lexicon(path: str | Path, scale: str | None = None) -> SentimentLexicon:
    """Load a ``entry<TAB>pos<TAB>so`` lexicon file.

    ``scale`` declares the scale of the file's scores; without it, the
    file's ``# scale:`` header decides (:func:`sniff_scale`), and a file
    without one is on the sfu scale. senticon_raw scores must have magnitude
    at most 1 and are rescaled before storage, so the returned lexicon is
    always on the sfu scale. Duplicate (entry, pos) lines are merged by
    averaging, summed in file order; zero-valued lines are dropped.
    """
    path = Path(path)
    if scale is None:
        scale = sniff_scale(path) or SFU
    if scale not in SCALES:
        raise UsageError(f"unknown lexicon scale {scale!r}")
    lexicon = SentimentLexicon(name=path.stem)
    scores = lexicon.scores
    rescale = scale == SENTICON_RAW
    limit = 1.0 if rescale else 5.0
    lines = read_utf8(
        path, lambda message, line_no: LexiconParseError(message, str(path), line_no)
    ).removeprefix("\ufeff").split("\n")
    for line_no, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        columns = line.split("\t")
        if len(columns) != 3:
            raise LexiconParseError(
                f"expected 3 tab-separated fields, got {len(columns)}", str(path), line_no
            )
        entry, pos, so_text = columns
        if pos not in POS_TAGS:
            raise LexiconParseError(f"unknown PoS tag {pos!r}", str(path), line_no)
        try:
            so = float(so_text)
        except ValueError:
            raise LexiconParseError(f"non-numeric score {so_text!r}", str(path), line_no) from None
        if not abs(so) <= limit:  # also true for NaN
            if not math.isfinite(so):
                raise LexiconParseError(f"non-finite score {so_text!r}", str(path), line_no)
            raise LexiconRangeError(
                f"score {so} outside [-{limit:g}, {limit:g}] for scale {scale}", str(path), line_no
            )
        if not so:
            continue
        if rescale:
            so = scale_senticon(so)
        key = (entry.lower(), pos)
        if key in scores:
            lexicon.add(key[0], pos, so)
        else:
            scores[key] = so
    return lexicon


def sniff_scale(path: str | Path) -> str | None:
    """Return the scale declared in a leading ``# scale: ...`` comment, if any.

    Key and value are both read case-insensitively; a value outside
    ``SCALES`` is a :class:`LexiconParseError` at the header line. Reads only
    the blank and comment lines before the first entry; a byte that is not
    UTF-8 after them is :func:`load_lexicon`'s to report.
    """
    path = Path(path)
    with open(path, "rb") as lines:
        for line_no, raw in enumerate(lines, 1):
            try:
                # utf-8-sig drops the byte order mark that may open line 1.
                line = raw.decode("utf-8-sig" if line_no == 1 else "utf-8").strip()
            except UnicodeDecodeError as exc:
                raise LexiconParseError(utf8_error(exc), str(path), line_no) from None
            if not line:
                continue
            if not line.startswith("#"):
                return None
            body = line.lstrip("#").strip()
            if body.lower().startswith("scale:"):
                value = body.split(":", 1)[1].strip()
                scale = value.lower()
                if scale not in SCALES:
                    raise LexiconParseError(
                        f"unknown lexicon scale {value!r}; expected one of {', '.join(SCALES)}",
                        str(path),
                        line_no,
                    )
                return scale
    return None


def merge_lexica(sources: Sequence[SentimentLexicon], name: str) -> SentimentLexicon:
    """Average lexica entry-wise, weighting by contribution counts.

    A key found in one source keeps its score and provenance. For a key
    shared by several sources the merged (sum, count) pair is the
    component-wise total over them, the sums added with :func:`math.fsum` so
    that source order cannot change the result. Keys whose contributions
    cancel to exactly 0 are retained as neutralized entries so that merge
    statistics stay auditable.
    """
    if not sources:
        raise UsageError("merge requires at least one source lexicon")
    merged = SentimentLexicon(name=name)
    scores = merged.scores
    provenance = merged.provenance
    shared: set[tuple[str, str]] = set()
    for lex in sources:
        shared.update(scores.keys() & lex.scores.keys())
        scores.update(lex.scores)
        provenance.update(lex.provenance)
    for key in shared:
        parts = [
            lex.provenance.get(key) or (lex.scores[key], 1) for lex in sources if key in lex.scores
        ]
        so_sum = math.fsum(part[0] for part in parts)
        count = sum(part[1] for part in parts)
        provenance[key] = (so_sum, count)
        scores[key] = so_sum / count or 0.0
    return merged


def dump_lexicon(lexicon: SentimentLexicon) -> str:
    """Serialize a lexicon in the file schema, sorted by (entry, pos).

    Only the effective score survives; provenance counts are not part of the
    schema, so chain merges should be done in one call to keep the weighting.
    """
    scores = lexicon.scores
    lines = [f"{key[0]}\t{key[1]}\t{format_so(scores[key])}\n" for key in sorted(scores)]
    return f"# scale: {SFU}\n" + "".join(lines)


@dataclass
class WordList:
    """A set of trigger words, optionally carrying per-word booster values."""

    name: str
    words: dict[str, float | None] = field(default_factory=dict)

    def __contains__(self, word: str) -> bool:
        return word in self.words

    def __len__(self) -> int:
        return len(self.words)

    def value(self, word: str) -> float | None:
        return self.words.get(word)


def load_wordlist(path: str | Path) -> WordList:
    """Load a word list file: one ``entry`` or ``entry<TAB>value`` per line."""
    path = Path(path)
    wordlist = WordList(name=path.stem)
    lines = read_utf8(
        path, lambda message, line_no: WordListParseError(message, str(path), line_no)
    ).removeprefix("\ufeff").split("\n")
    for line_no, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        columns = line.split("\t")
        if len(columns) > 2:
            raise WordListParseError(
                f"expected at most 2 tab-separated fields, got {len(columns)}",
                str(path),
                line_no,
            )
        entry = columns[0].lower()
        value: float | None = None
        if len(columns) == 2:
            try:
                value = float(columns[1])
            except ValueError:
                raise WordListParseError(
                    f"non-numeric value {columns[1]!r}", str(path), line_no
                ) from None
            if not math.isfinite(value):
                raise WordListParseError(
                    f"non-finite value {columns[1]!r}", str(path), line_no
                )
        if entry in wordlist.words:
            logger.warning("%s:%d: duplicate entry %r, keeping the last value", path, line_no, entry)
        wordlist.words[entry] = value
    return wordlist


def load_wordlists(directory: str | Path) -> dict[str, WordList]:
    """Load every ``*.txt``/``*.tsv`` file in a directory, keyed by file stem."""
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"word list directory not found: {directory}")
    lists: dict[str, WordList] = {}
    for path in sorted(directory.glob("*")):
        if path.suffix in (".txt", ".tsv") and path.is_file():
            lists[path.stem] = load_wordlist(path)
    return lists
