"""Sentence- and document-level polarity classification."""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum
from typing import Iterable, Iterator, Mapping, Sequence

from .conllu import DepTree, Document
from .engine import CompiledRules, SoTrace, compile_rules, compute_so
from .errors import UsageError
from .lexicon import SentimentLexicon, WordList
from .operations import OperationDefinition

POSITIVE = "positive"
NEGATIVE = "negative"

SENTENCE = "sentence"
DOCUMENT = "document"


@dataclass(frozen=True)
class PolarityResult:
    """A score with its binary label; traces are attached on request."""

    so: float
    label: str
    granularity: str
    traces: tuple[SoTrace, ...] | None = None


def polarity_label(so: float, tie: str) -> str:
    """Label a score by its sign; ``tie`` ("pos" or "neg") labels an exact 0."""
    if so > 0:
        return POSITIVE
    if so < 0:
        return NEGATIVE
    if tie == "pos":
        return POSITIVE
    if tie == "neg":
        return NEGATIVE
    raise UsageError(f"unknown tie rule {tie!r}")


def document_so(scores: Iterable[float], source_id: str, agg: str = "sum") -> float:
    """Aggregate sentence scores, read once in order, into a document score.

    The default aggregation is an unweighted sum (via fsum, so sentence order
    cannot change the result); ``agg="mean"`` divides by the sentence count.
    A document without sentences is a usage error, checked before ``agg``.
    """
    count = 0

    def counted() -> Iterator[float]:
        nonlocal count
        for so in scores:
            count += 1
            yield so

    so = fsum(counted())
    if not count:
        raise UsageError(f"document {source_id!r} has no sentences")
    if agg == "mean":
        so /= count
    elif agg != "sum":
        raise UsageError(f"unknown aggregation {agg!r}")
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
