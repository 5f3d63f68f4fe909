"""Sentiment lexica and trigger word lists.

A lexicon holds one table per PoS tag, from entry to signed score, whose
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
from operator import itemgetter
from pathlib import Path
from typing import Sequence

from .errors import (
    LexiconParseError,
    LexiconRangeError,
    UsageError,
    WordListParseError,
)
from .util import format_so, parse_number, read_records, utf8_error

logger = logging.getLogger(__name__)

SFU = "sfu"
SENTICON_RAW = "senticon_raw"
SCALES = (SFU, SENTICON_RAW)
_SFU_LIMIT = 5.0  # the bound of an sfu score, loaded or added
_ENTRY_RULE = "an entry is not empty and has no tab, \\n, \\r, leading '#' or whitespace at an end"

POS_TAGS = ("ADJ", "NOUN", "ADV", "VERB", "*")
# Each tag to itself: a provenance key stores the one string object of its tag.
_TAGS = {tag: tag for tag in POS_TAGS}
# The table of a UPOS that no lexicon key carries (DET, PROPN, ...).
_NO_TABLE: dict[str, float] = {}


def _tables() -> dict[str, dict[str, float]]:
    return {tag: {} for tag in POS_TAGS}


def _ragged(entry: str) -> bool:
    """Whether a first field that :func:`read_records` yields, never empty, breaks
    ``_ENTRY_RULE``: it ends in whitespace (as ``str.isspace`` sees it) or holds
    ``\\r``. It never breaks the rest of the rule, which ``add`` checks as ``unread``."""
    return entry[-1].isspace() or "\r" in entry


def scale_senticon(so_raw: float) -> float:
    """Map a raw score with magnitude in (0, 1] onto the 1-to-5 scale.

    Sign-preserving affine map of the magnitude: m -> 1 + 4m, so the maximum
    raw magnitude 1.0 lands exactly on 5.0. Zero is rejected because
    zero-polarity entries are never stored.
    """
    if so_raw == 0:
        raise UsageError("zero-polarity scores are not stored and cannot be rescaled")
    if not abs(so_raw) <= 1:  # also true for NaN
        raise UsageError(f"raw score {so_raw} outside [-1, 1]")
    return math.copysign(1.0 + 4.0 * abs(so_raw), so_raw)


@dataclass
class SentimentLexicon:
    """Mapping from (lowercased entry, pos) to scores.

    ``scores`` holds one table per tag of ``POS_TAGS``, keyed by that tag's
    string object, from lowercased entry to the effective score of
    ``(entry, pos)``, read as ``scores[pos][entry]``: the mean of every
    contribution, computed once, with -0.0 folded to 0.0. A key whose
    contributions cancelled out stays in the table at 0.0 (neutralized), so
    that it still stops the lookup fallback. ``provenance`` keeps the
    ``(sum, count)`` of the keys whose count is not 1, the only ones whose
    sum differs from their score; :func:`merge_lexica` weights by it.
    """

    name: str
    scores: dict[str, dict[str, float]] = field(default_factory=_tables)
    provenance: dict[tuple[str, str], tuple[float, int]] = field(default_factory=dict)

    def add(self, entry: str, pos: str, so: float) -> None:
        """Fold one contribution into the mean of ``(entry, pos)``.

        The entry is lowercased, as :func:`load_lexicon` does, and a
        contribution of exactly 0 is dropped, as a ``0`` line is. What a
        lexicon line cannot hold is a :class:`UsageError`: a PoS tag outside
        ``POS_TAGS``, an entry that breaks ``_ENTRY_RULE`` and a score outside
        [-5, 5], NaN included.
        """
        tag = _TAGS.get(pos)
        if tag is None:
            raise UsageError(f"unknown PoS tag {pos!r}; a lexicon key takes one of {POS_TAGS}")
        entry = entry.lower()
        unread = entry[:1] in ("", "#") or entry[0].isspace() or "\t" in entry or "\n" in entry
        if unread or _ragged(entry):
            raise UsageError(f"entry {entry!r} refused: {_ENTRY_RULE}")
        if not abs(so) <= _SFU_LIMIT:  # also true for NaN
            raise UsageError(f"score {so!r} of {entry!r} outside [-{_SFU_LIMIT:g}, {_SFU_LIMIT:g}]")
        if not so:
            return
        table = self.scores[tag]
        if entry in table:
            key = (entry, tag)
            so_sum, count = self.provenance.get(key, (table[entry], 1))
            self.provenance[key] = (so_sum + so, count + 1)
            so = (so_sum + so) / (count + 1) or 0.0
        table[entry] = so

    def lookup(self, form: str, lemma: str, upos: str) -> float:
        """Score for a token, 0.0 when absent.

        Keys are tried in order: (form, upos), (lemma, upos), (form, "*"),
        (lemma, "*"), everything lowercased. The first present key wins;
        a neutralized entry counts as a hit and contributes 0. The lemma
        keys are probed only when the lemma differs from the form, and a
        UPOS with no table goes straight to the "*" keys.
        """
        scores = self.scores
        lowered = form.lower()
        table = scores.get(upos, _NO_TABLE)
        so = table.get(lowered)
        if so is None:
            # A lemma spelled as its form lowercases as the form does.
            lemma = lowered if lemma == form else lemma.lower()
            if lemma != lowered:
                so = table.get(lemma)
            if so is None:
                table = scores["*"]
                so = table.get(lowered)
                if so is None and lemma != lowered:
                    so = table.get(lemma)
                if so is None:
                    return 0.0
        return so

    def sizes(self) -> dict[str, int]:
        """Entry counts per PoS tag, in the fixed tag order."""
        return {pos: len(table) for pos, table in self.scores.items()}

    def __len__(self) -> int:
        return sum(map(len, self.scores.values()))

    def __contains__(self, key: tuple[str, str]) -> bool:
        entry, pos = key
        return entry in self.scores.get(pos, _NO_TABLE)


def load_lexicon(path: str | Path, scale: str | None = None) -> SentimentLexicon:
    """Load a ``entry<TAB>pos<TAB>so`` lexicon file.

    ``scale`` declares the scale of the file's scores; without it, the
    file's ``# scale:`` header decides (:func:`sniff_scale`), and a file
    without one is on the sfu scale. senticon_raw scores must have magnitude
    at most 1 and are rescaled before storage, so the returned lexicon is
    always on the sfu scale. An entry obeys ``_ENTRY_RULE``, and a repeated
    key is folded by :meth:`SentimentLexicon.add`; zero lines are dropped.

    The file is read line by line, so a load holds the table, not the file;
    faults are reported in file order. The keys whose lines carry one score
    text share one float, each text parsed, checked and rescaled once.
    """
    path = Path(path)
    if scale is None:
        scale = sniff_scale(path) or SFU
    if scale not in SCALES:
        raise UsageError(f"unknown lexicon scale {scale!r}")
    lexicon = SentimentLexicon(name=path.stem)
    tables = lexicon.scores
    parsed: dict[str, float] = {}  # score text -> checked, rescaled score
    for line_no, columns in read_records(path, LexiconParseError):
        if len(columns) != 3:
            raise LexiconParseError(
                f"expected 3 tab-separated fields, got {len(columns)}", str(path), line_no
            )
        entry, pos, so_text = columns
        table = tables.get(pos)
        if table is None:
            raise LexiconParseError(f"unknown PoS tag {pos!r}", str(path), line_no)
        entry = entry.lower()
        # A word of letters only keeps the rule; skipping the call keeps loads fast.
        if not entry.isalpha() and _ragged(entry):
            raise LexiconParseError(f"entry {entry!r} refused: {_ENTRY_RULE}", str(path), line_no)
        so = parsed.get(so_text)
        if so is None:
            so = _parse_score(so_text, scale, str(path), line_no)
            parsed[so_text] = so
        if not so:
            continue
        if entry in table:
            lexicon.add(entry, pos, so)
        else:
            table[entry] = so
    return lexicon


def _parse_score(so_text: str, scale: str, path: str, line_no: int) -> float:
    """A score text as stored: checked against the scale's range and
    rescaled on the senticon_raw scale; a zero stays zero."""
    rescale = scale == SENTICON_RAW
    limit = 1.0 if rescale else _SFU_LIMIT
    try:
        so = parse_number(so_text)
    except ValueError:
        raise LexiconParseError(f"non-numeric score {so_text!r}", path, line_no) from None
    if not abs(so) <= limit:  # also true for NaN
        if not math.isfinite(so):
            raise LexiconParseError(f"non-finite score {so_text!r}", path, line_no)
        raise LexiconRangeError(
            f"score {so} outside [-{limit:g}, {limit:g}] for scale {scale}", path, line_no
        )
    return scale_senticon(so) if so and rescale else so


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

    The merged tables keep the order in which keys were first seen;
    :func:`dump_lexicon` writes them by entry, then tag, as ``str`` compares
    (``a``, ``a\\x01b``, ``ab``). The cost is one table update per source
    and tag, and one pass over the sources per shared key, its sums added by
    one :func:`math.fsum`.
    """
    if not sources:
        raise UsageError("merge requires at least one source lexicon")
    merged = SentimentLexicon(name=name)
    provenance = merged.provenance
    for lex in sources:
        provenance.update(lex.provenance)
    for pos, table in merged.scores.items():
        parts = [(lex.scores[pos], lex.provenance) for lex in sources]
        shared: set[str] = set()
        for source, _ in parts:
            shared.update(table.keys() & source.keys())
            table.update(source)
        for entry in shared:
            key = (entry, pos)
            sums = []
            count = 0
            for source, source_provenance in parts:
                so = source.get(entry)
                if so is not None:
                    part_sum, part_count = source_provenance.get(key, (so, 1))
                    sums.append(part_sum)
                    count += part_count
            so_sum = math.fsum(sums)
            provenance[key] = (so_sum, count)
            table[entry] = so_sum / count or 0.0
    return merged


def dump_lexicon(lexicon: SentimentLexicon) -> str:
    """Serialize a lexicon in the file schema, sorted by (entry, pos).

    Only the effective score survives, to twelve significant digits; provenance
    counts are not part of the schema, so chain merges should be done in one
    call to keep the weighting. A neutralized key is written as ``0``, and a
    load drops a ``0`` line, so it does not load back: a lookup it stopped
    falls through to the later keys.

    Lines order as ``str`` compares entry, then tag (``a``, ``a\\x01b``,
    ``ab``): the rows are built tag by tag in sorted tag order and sorted
    once, stably, on the entry string. The cost is one sort of the n entry
    strings and one :func:`format_so` call per distinct score.
    """
    scores = lexicon.scores
    rows = [(entry, pos, so) for pos in sorted(scores) for entry, so in scores[pos].items()]
    rows.sort(key=itemgetter(0))
    texts: dict[float, str] = {}
    lines = []
    for entry, pos, so in rows:
        text = texts.get(so)
        if text is None:
            text = texts[so] = format_so(so)
        lines.append(f"{entry}\t{pos}\t{text}\n")
    return f"# scale: {SFU}\n" + "".join(lines)


# A trigger word list: each lowercased word to its booster value, ``None`` for
# a word without one.
WordList = dict[str, float | None]


def load_wordlist(path: str | Path) -> WordList:
    """Load a word list file: one ``entry`` or ``entry<TAB>value`` per line."""
    path = Path(path)
    wordlist: WordList = {}
    for line_no, columns in read_records(path, WordListParseError):
        if len(columns) > 2:
            raise WordListParseError(
                f"expected at most 2 tab-separated fields, got {len(columns)}", str(path), line_no
            )
        entry = columns[0].lower()
        if _ragged(entry):
            raise WordListParseError(f"entry {entry!r} refused: {_ENTRY_RULE}", str(path), line_no)
        value: float | None = None
        if len(columns) == 2:
            try:
                value = parse_number(columns[1])
            except ValueError:
                raise WordListParseError(
                    f"non-numeric value {columns[1]!r}", str(path), line_no
                ) from None
            if not math.isfinite(value):
                raise WordListParseError(f"non-finite value {columns[1]!r}", str(path), line_no)
        if entry in wordlist:
            logger.warning("%s:%d: duplicate entry %r, keeping the last value", path, line_no, entry)
        wordlist[entry] = value
    return wordlist


def load_wordlists(directory: str | Path) -> dict[str, WordList]:
    """Load every ``*.txt``/``*.tsv`` file in a directory, keyed by file stem.

    Two files with one stem (``boosters.tsv`` and ``boosters.txt``) are a
    :class:`UsageError` naming both."""
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"word list directory not found: {directory}")
    paths: dict[str, Path] = {}
    for path in sorted(directory.glob("*")):
        if path.suffix in (".txt", ".tsv") and path.is_file():
            if path.stem in paths:
                raise UsageError(
                    f"word lists {paths[path.stem]} and {path} share the name {path.stem!r}"
                )
            paths[path.stem] = path
    return {stem: load_wordlist(path) for stem, path in paths.items()}
