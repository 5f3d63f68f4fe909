"""Sentence- and document-level polarity classification."""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum
from typing import Mapping, Sequence

from .conllu import DepTree, Document
from .engine import SoTrace, compute_so
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


def _label(so: float, tie: str) -> str:
    if so > 0:
        return POSITIVE
    if so < 0:
        return NEGATIVE
    if tie == "pos":
        return POSITIVE
    if tie == "neg":
        return NEGATIVE
    raise UsageError(f"unknown tie rule {tie!r}")


def classify_sentence(
    tree: DepTree,
    lex: SentimentLexicon,
    defs: Sequence[OperationDefinition],
    lists: Mapping[str, WordList] | None = None,
    *,
    tie: str = "pos",
    with_trace: bool = False,
) -> PolarityResult:
    """Score one sentence and label it by sign (ties default to positive)."""
    trace = compute_so(tree, lex, defs, lists, record=with_trace)
    return PolarityResult(
        so=trace.sentence_so,
        label=_label(trace.sentence_so, tie),
        granularity=SENTENCE,
        traces=(trace,) if with_trace else None,
    )


def classify_document(
    doc: Document,
    lex: SentimentLexicon,
    defs: Sequence[OperationDefinition],
    lists: Mapping[str, WordList] | None = None,
    *,
    agg: str = "sum",
    tie: str = "pos",
    with_trace: bool = False,
) -> PolarityResult:
    """Aggregate sentence scores into a document score and label it.

    The default aggregation is an unweighted sum (via fsum, so sentence order
    cannot change the result); ``agg="mean"`` divides by the sentence count.
    """
    if not doc.sentences:
        raise UsageError(f"document {doc.source_id!r} has no sentences")
    if agg not in ("sum", "mean"):
        raise UsageError(f"unknown aggregation {agg!r}")
    traces = [compute_so(tree, lex, defs, lists, record=with_trace) for tree in doc.sentences]
    so = fsum(trace.sentence_so for trace in traces)
    if agg == "mean":
        so /= len(traces)
    return PolarityResult(
        so=so,
        label=_label(so, tie),
        granularity=DOCUMENT,
        traces=tuple(traces) if with_trace else None,
    )
