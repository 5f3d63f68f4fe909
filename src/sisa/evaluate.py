"""Corpus evaluation across lexicon and rule configurations.

A manifest pairs CoNLL-U files with gold polarity labels. Each run
configuration names one of the four standard setups (single vs merged
lexicon, with vs without operations); accuracy reports for all four can be
folded into an impact table of pairwise percentage-point differences.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .classify import check_agg, check_tie, classify_document
from .conllu import parse_document
from .engine import compile_rules
from .errors import ConlluParseError, ManifestError, SisaError, UsageError
from .lexicon import SentimentLexicon, WordList
from .operations import OperationDefinition
from .util import format_so, read_utf8

logger = logging.getLogger(__name__)

CONFIG_IDS = ("SL-O", "SL+O", "ML-O", "ML+O")
GOLD_LABELS = ("positive", "negative")


@dataclass(frozen=True)
class CorpusManifest:
    """Ordered (file path, gold label) pairs under one corpus name."""

    name: str
    items: tuple[tuple[Path, str], ...]


def load_manifest(path: str | Path) -> CorpusManifest:
    """Load a ``relative/path.conllu<TAB>label`` manifest.

    Relative paths resolve against the manifest's own directory; a path
    with a NUL byte, which no file system accepts, is a :class:`ManifestError`.
    """
    path = Path(path)
    base = path.parent
    items: list[tuple[Path, str]] = []
    lines = read_utf8(
        path, lambda message, line_no: ManifestError(message, str(path), line_no)
    ).removeprefix("\ufeff").split("\n")
    for line_no, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        columns = line.split("\t")
        if len(columns) != 2:
            raise ManifestError(
                f"expected 2 tab-separated fields, got {len(columns)}", str(path), line_no
            )
        item_path, label = columns
        if label not in GOLD_LABELS:
            raise ManifestError(f"unknown gold label {label!r}", str(path), line_no)
        if "\0" in item_path:
            raise ManifestError(f"NUL byte in item path {item_path!r}", str(path), line_no)
        resolved = Path(item_path)
        if not resolved.is_absolute():
            resolved = base / resolved
        items.append((resolved, label))
    return CorpusManifest(name=path.stem, items=tuple(items))


@dataclass(frozen=True)
class RunConfig:
    """One evaluation setup: which lexicon, which rules (empty = none)."""

    config_id: str
    lexicon: SentimentLexicon
    rules: tuple[OperationDefinition, ...] = ()

    def __post_init__(self) -> None:
        if self.config_id not in CONFIG_IDS:
            raise UsageError(f"unknown config id {self.config_id!r}")
        object.__setattr__(self, "rules", tuple(self.rules))


@dataclass(frozen=True)
class ItemResult:
    """Outcome for one manifest item; ``error`` is set when it was skipped."""

    path: str
    gold: str
    predicted: str | None
    so: float | None
    error: str | None = None


@dataclass(frozen=True)
class EvaluationReport:
    """Accuracy of one configuration over one manifest."""

    config_id: str
    manifest_name: str
    correct: int
    total: int
    accuracy: float
    errored: int
    items: tuple[ItemResult, ...]


def evaluate(
    manifest: CorpusManifest,
    cfg: RunConfig,
    lists: Mapping[str, WordList] | None = None,
    *,
    agg: str = "sum",
    tie: str = "pos",
) -> EvaluationReport:
    """Classify every manifest item under one configuration and count label
    agreement; see :func:`evaluate_configs`."""
    return evaluate_configs(manifest, (cfg,), lists, agg=agg, tie=tie)[0]


def evaluate_configs(
    manifest: CorpusManifest,
    configs: Sequence[RunConfig],
    lists: Mapping[str, WordList] | None = None,
    *,
    agg: str = "sum",
    tie: str = "pos",
) -> list[EvaluationReport]:
    """Classify every manifest item under each configuration and count label
    agreement, one report per configuration in the given order.

    Each item is read and parsed once and scored under every configuration
    before the next item is read, so one document is held at a time. Each
    configuration's rules are compiled once for the whole manifest. An item
    that cannot be read or parsed, or that fails to score under any one
    configuration (a :class:`NonFiniteScoreError`, say), is logged once and
    recorded as errored under every configuration, so all reports count the
    same items and stay comparable in :func:`compare_configs`. Errored items
    are excluded from the accuracy denominator; a manifest with no readable
    items at all is a usage error, as is an unknown ``agg`` or ``tie``,
    refused before the first item is read.
    """
    check_agg(agg)
    check_tie(tie)
    results: list[list[ItemResult]] = [[] for _ in configs]
    rules = [compile_rules(cfg.rules) for cfg in configs]
    for item_path, gold in manifest.items:
        path, name = Path(item_path), str(item_path)
        try:
            doc = parse_document(read_utf8(path, ConlluParseError), source_id=path.stem)
            scored = [
                classify_document(doc, cfg.lexicon, cfg_rules, lists, agg=agg, tie=tie)
                for cfg, cfg_rules in zip(configs, rules)
            ]
        except (OSError, SisaError) as exc:
            logger.warning("skipping %s: %s", name, exc)
            for items in results:
                items.append(ItemResult(name, gold, None, None, error=str(exc)))
            continue
        for items, result in zip(results, scored):
            items.append(ItemResult(name, gold, result.label, result.so))
    return [_report(manifest, cfg, items) for cfg, items in zip(configs, results)]


def _report(manifest: CorpusManifest, cfg: RunConfig, items: list[ItemResult]) -> EvaluationReport:
    errored = sum(1 for item in items if item.error is not None)
    total = len(items) - errored
    if total == 0:
        raise UsageError(f"manifest {manifest.name!r} has no readable items")
    correct = sum(1 for item in items if item.predicted == item.gold)
    return EvaluationReport(
        config_id=cfg.config_id,
        manifest_name=manifest.name,
        correct=correct,
        total=total,
        accuracy=correct / total,
        errored=errored,
        items=tuple(items),
    )


@dataclass(frozen=True)
class ImpactTable:
    """Pairwise percentage-point differences between the four configurations:
    the operation effect per lexicon, and the merged-lexicon effect with and
    without operations."""

    o_effect_sl: float
    o_effect_ml: float
    ml_effect_no_ops: float
    ml_effect_ops: float


def _delta_points(a: EvaluationReport, b: EvaluationReport) -> float:
    # Integer cross-multiplication keeps the difference exact up to one
    # correctly-rounded division, so decimal-exact accuracies produce
    # decimal-exact deltas (65.63% - 62.95% is 2.68, not 2.6799999...).
    return (a.correct * b.total - b.correct * a.total) * 100 / (a.total * b.total)


def compare_configs(reports: Iterable[EvaluationReport]) -> ImpactTable:
    """Derive the impact table from the four configuration reports."""
    reports = list(reports)
    by_id = {report.config_id: report for report in reports}
    if len(reports) != 4 or sorted(by_id) != sorted(CONFIG_IDS):
        raise UsageError(
            f"need exactly one report per config {CONFIG_IDS}, got "
            f"{[r.config_id for r in reports]}"
        )
    names = {report.manifest_name for report in reports}
    totals = {report.total for report in reports}
    if len(names) != 1 or len(totals) != 1:
        raise UsageError("reports cover mismatched manifests")
    sl_no, sl_ops = by_id["SL-O"], by_id["SL+O"]
    ml_no, ml_ops = by_id["ML-O"], by_id["ML+O"]
    return ImpactTable(
        o_effect_sl=_delta_points(sl_ops, sl_no),
        o_effect_ml=_delta_points(ml_ops, ml_no),
        ml_effect_no_ops=_delta_points(ml_no, sl_no),
        ml_effect_ops=_delta_points(ml_ops, sl_ops),
    )


def render_report(report: EvaluationReport, verbose: bool = False) -> str:
    """Tab-separated report line(s): config, correct, total, accuracy."""
    lines = [
        f"{report.config_id}\t{report.correct}\t{report.total}\t{report.accuracy:.4f}"
    ]
    if verbose:
        for item in report.items:
            predicted = item.predicted if item.predicted is not None else "error"
            so = format_so(item.so) if item.so is not None else "-"
            lines.append(f"item\t{report.config_id}\t{item.path}\t{item.gold}\t{predicted}\t{so}")
    return "\n".join(lines) + "\n"


def render_impact(impact: ImpactTable) -> str:
    """Tab-separated impact lines, one per pairwise difference."""
    return "".join(
        f"impact\t{key}\t{format_so(value)}\n" for key, value in asdict(impact).items()
    )


def summary_dict(
    reports: Sequence[EvaluationReport], impact: ImpactTable | None
) -> dict:
    """JSON-ready structured summary of an evaluation run."""
    return {
        "manifest": reports[0].manifest_name if reports else None,
        "reports": [
            {
                "config_id": report.config_id,
                "correct": report.correct,
                "total": report.total,
                "accuracy": report.accuracy,
                "errored": report.errored,
                "items": [
                    {
                        "path": item.path,
                        "gold": item.gold,
                        "predicted": item.predicted,
                        "so": item.so,
                        "error": item.error,
                    }
                    for item in report.items
                ],
            }
            for report in reports
        ],
        "impact": None if impact is None else asdict(impact),
    }
