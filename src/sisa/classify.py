"""Sentence- and document-level polarity classification."""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, isfinite, nan
from typing import Iterable, Mapping, Sequence

from .conllu import DepTree, Document
from .engine import CompiledRules, SoTrace, compile_rules, compute_so
from .errors import NonFiniteScoreError, UsageError
from .lexicon import SentimentLexicon, WordList
from .operations import OperationDefinition

POSITIVE = "positive"
NEGATIVE = "negative"

SENTENCE = "sentence"
DOCUMENT = "document"

AGGREGATIONS = ("sum", "mean")
TIE_RULES = ("pos", "neg")


@dataclass(frozen=True)
class PolarityResult:
    """A score with its binary label; traces are attached on request."""

    so: float
    label: str
    granularity: str
    traces: tuple[SoTrace, ...] | None = None


def check_agg(agg: str) -> None:
    """Refuse an aggregation outside :data:`AGGREGATIONS` as a usage error."""
    if agg not in AGGREGATIONS:
        raise UsageError(f"unknown aggregation {agg!r}")


def check_tie(tie: str) -> None:
    """Refuse a tie rule outside :data:`TIE_RULES` as a usage error."""
    if tie not in TIE_RULES:
        raise UsageError(f"unknown tie rule {tie!r}")


def polarity_label(so: float, tie: str) -> str:
    """Label a score by its sign; ``tie`` ("pos" or "neg") labels an exact 0.
    An unknown ``tie`` is a usage error whatever the score."""
    check_tie(tie)
    if so > 0:
        return POSITIVE
    if so < 0:
        return NEGATIVE
    return POSITIVE if tie == "pos" else NEGATIVE


def document_so(scores: Iterable[float], source_id: str, agg: str = "sum") -> float:
    """Aggregate sentence scores, read once in order, into a document score.

    The default aggregation is an unweighted sum, correctly rounded from the
    exact sum of the scores, so sentence order cannot change the result;
    ``agg="mean"`` divides it by the sentence count. A document without
    sentences is a usage error, checked before ``agg``; a result past the
    float range raises :class:`NonFiniteScoreError`.
    """
    scores = list(scores)
    if not scores:
        raise UsageError(f"document {source_id!r} has no sentences")
    check_agg(agg)
    try:
        so = fsum(scores)
        if agg == "mean":
            so /= len(scores)
    except OverflowError:
        # fsum gives up when a partial sum leaves the float range, even where
        # the total (or the mean) is back inside it. The exact rational sum
        # has no partial sums; the float() of a Fraction rounds correctly.
        # Imported here: only this rare path needs it.
        from fractions import Fraction

        try:
            exact = sum(map(Fraction, scores), Fraction())
            so = float(exact / len(scores) if agg == "mean" else exact)
        except (OverflowError, ValueError):  # the result, or a score, is not finite
            so = nan
    except ValueError:  # inf + -inf
        so = nan
    if not isfinite(so):
        raise NonFiniteScoreError(f"document {source_id!r} score is not finite")
    return so


def classify_sentence(
    tree: DepTree,
    lex: SentimentLexicon,
    defs: Sequence[OperationDefinition] | CompiledRules,
    lists: Mapping[str, WordList] | None = None,
    *,
    tie: str = "pos",
    with_trace: bool = False,
) -> PolarityResult:
    """Score one sentence and label it by sign (ties default to positive)."""
    trace = compute_so(tree, lex, defs, lists, record=with_trace)
    return PolarityResult(
        so=trace.sentence_so,
        label=polarity_label(trace.sentence_so, tie),
        granularity=SENTENCE,
        traces=(trace,) if with_trace else None,
    )


def classify_document(
    doc: Document,
    lex: SentimentLexicon,
    defs: Sequence[OperationDefinition] | CompiledRules,
    lists: Mapping[str, WordList] | None = None,
    *,
    agg: str = "sum",
    tie: str = "pos",
    with_trace: bool = False,
) -> PolarityResult:
    """Aggregate sentence scores into a document score and label it; see
    :func:`document_so`. The rules are compiled once for all sentences."""
    rules = compile_rules(defs)
    traces = [compute_so(tree, lex, rules, lists, record=with_trace) for tree in doc.sentences]
    so = document_so((trace.sentence_so for trace in traces), doc.source_id, agg)
    return PolarityResult(
        so=so,
        label=polarity_label(so, tie),
        granularity=DOCUMENT,
        traces=tuple(traces) if with_trace else None,
    )
