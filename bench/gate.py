"""Correctness gate: every output of a run is checked, outside the timed
regions, against the independent oracle in ``tests/reference.py``.

Two kinds of failure are kept apart. Known defects of the program (a UTF-8
BOM file that does not parse, a non-finite score) are counted as failed items
and reported as they stand; they do not fail the gate. Anything else (a score
the oracle disagrees with, a wrong label, a wrong evaluate count, CLI output
that differs from the library result) fails the gate.
"""

from __future__ import annotations

import importlib
import json
import math
from dataclasses import dataclass, field
from math import fsum

import sisa.conllu
import sisa.engine
import sisa.errors
from reference import reference_so
from sisa.util import format_so

# The package re-exports the function evaluate under the submodule's name.
evaluation = importlib.import_module("sisa.evaluate")

REL_TOL = 1e-9
ABS_TOL = 1e-12

BOM = "bom"
NONFINITE = "nonfinite"


def sign_label(so: float) -> str:
    """The label the default tie rule gives a score."""
    return "negative" if so < 0 else "positive"


@dataclass
class Expected:
    """What the library must return for one item under each configuration."""

    tokens: int = 0
    scores: dict[str, float] = field(default_factory=dict)  # config id -> document score
    oracle_labels: dict[str, str] = field(default_factory=dict)
    rendered: list[str] = field(default_factory=list)  # SL+O sentence traces, in order


@dataclass
class Gate:
    """Failed items (known defects and wrong outputs) and the gate's verdict."""

    failed: dict[str, str] = field(default_factory=dict)  # item name -> reason
    errors: list[str] = field(default_factory=list)  # wrong outputs; fail the gate

    @property
    def correct(self) -> bool:
        return not self.errors

    def known(self, item: str, kind: str) -> None:
        self.failed.setdefault(item, kind)

    def wrong(self, item: str, message: str) -> None:
        self.failed[item] = "wrong"
        if len(self.errors) < 20:
            self.errors.append(f"{item}: {message}")
        elif len(self.errors) == 20:
            self.errors.append("... further errors not shown")

    def close(self, item: str, what: str, got: float, want: float) -> None:
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            self.wrong(item, f"{what}: got {got!r}, oracle {want!r}")


def parse_item(item, from_file: bool):
    """Parse an item the way the workload reads it: documents from their
    file, sentences from their text."""
    if from_file:
        return sisa.conllu.read_document(item.path)
    return sisa.conllu.parse_document(item.text, source_id=item.name)


def oracle_pass(
    gate: Gate, items, configs, lists, from_file: bool, observe=None, keep_render: bool = False
) -> dict[str, Expected]:
    """Score every sentence of every item under every configuration with the
    library and with the oracle; record the expected document results.

    ``configs`` maps config id -> (lexicon, rules). Items that fail to parse
    get no entry; a BOM file failing to parse is the known defect.
    ``observe(tree, trace)`` sees every SL+O sentence trace.
    """
    expected: dict[str, Expected] = {}
    for item in items:
        try:
            doc = parse_item(item, from_file)
        except sisa.errors.SisaError as exc:
            if item.bom and isinstance(exc, sisa.errors.ConlluParseError):
                gate.known(item.name, BOM)
            else:
                gate.wrong(item.name, f"parse failed: {exc}")
            continue
        want = Expected(tokens=sum(len(tree) for tree in doc.sentences))
        for config_id, (lexicon, rules) in configs.items():
            sentence_scores = []
            oracle_scores = []
            for tree in doc.sentences:
                trace = sisa.engine.compute_so(tree, lexicon, rules, lists)
                so = trace.sentence_so
                sentence_scores.append(so)
                if config_id == "SL+O":
                    if observe is not None:
                        observe(tree, trace)
                    if keep_render:
                        want.rendered.append(trace.render())
                if not math.isfinite(so):
                    gate.known(item.name, NONFINITE)
                    continue
                oracle = reference_so(tree, lexicon, rules, lists)
                oracle_scores.append(oracle)
                gate.close(item.name, f"{config_id} sentence {len(sentence_scores)}", so, oracle)
            want.scores[config_id] = fsum(sentence_scores)
            want.oracle_labels[config_id] = sign_label(fsum(oracle_scores))
        expected[item.name] = want
    return expected


def check_result(gate: Gate, item: str, config_id: str, so: float, label: str, expected: dict[str, Expected]) -> None:
    """A document score must be the fsum of its checked sentence scores, and
    its label the sign of that score."""
    want = expected.get(item)
    if want is None:
        gate.wrong(item, f"{config_id}: scored although the oracle pass could not parse it")
        return
    if gate.failed.get(item) == NONFINITE:
        return
    if so != want.scores[config_id]:
        gate.wrong(item, f"{config_id}: document score {so!r} is not the fsum {want.scores[config_id]!r}")
    elif label != sign_label(so):
        gate.wrong(item, f"{config_id}: label {label} disagrees with score {so!r}")


def check_report(gate: Gate, report, items, expected: dict[str, Expected]) -> None:
    """An evaluate report against the oracle: per-item results, the errored
    count, and the correct count recomputed from the oracle's labels."""
    by_path = {str(item.path): item for item in items}
    correct = errored = 0
    for result in report.items:
        item = by_path[result.path]
        if item.name not in expected:
            errored += 1
            if result.error is None:
                gate.wrong(item.name, f"{report.config_id}: scored although unparseable")
            continue
        if result.error is not None:
            gate.wrong(item.name, f"{report.config_id}: errored: {result.error}")
            continue
        check_result(gate, item.name, report.config_id, result.so, result.predicted, expected)
        if expected[item.name].oracle_labels[report.config_id] == item.gold:
            correct += 1
    if (report.correct, report.errored) != (correct, errored):
        gate.wrong(
            f"evaluate {report.config_id}",
            f"correct/errored {report.correct}/{report.errored}, oracle {correct}/{errored}",
        )


def expected_evaluate_output(reports) -> tuple[str, dict]:
    """The stdout and ``--report`` JSON of ``sisa evaluate`` for the library's
    own reports."""
    text = "".join(evaluation.render_report(report) for report in reports)
    impact = evaluation.compare_configs(reports) if len(reports) == 4 else None
    if impact is not None:
        text += evaluation.render_impact(impact)
    return text, json.loads(json.dumps(evaluation.summary_dict(reports, impact)))


def check_evaluate_cli(gate: Gate, stdout: str, report_text: str | None, reports, items) -> None:
    want_text, want_json = expected_evaluate_output(reports)
    if stdout != want_text:
        for item in items:
            gate.wrong(item.name, "sisa evaluate stdout differs from the library result")
        return
    try:
        got_json = json.loads(report_text or "")
    except ValueError:
        got_json = None
    if got_json is None or got_json.get("impact") != want_json["impact"]:
        gate.wrong("sisa evaluate --report", "report JSON missing or its impact table differs")
        return
    names = {str(item.path): item.name for item in items}
    for got, want in zip(got_json.get("reports", []), want_json["reports"]):
        for got_item, want_item in zip(got.get("items", []), want["items"]):
            if got_item != want_item:
                gate.wrong(names.get(want_item["path"], want_item["path"]), f"--report item {got_item}")
        if len(got.get("items", [])) != len(want["items"]) or got.get("correct") != want["correct"]:
            gate.wrong("sisa evaluate --report", f"{want['config_id']}: counts or items differ")
    if len(got_json.get("reports", [])) != len(want_json["reports"]):
        gate.wrong("sisa evaluate --report", "wrong number of configuration reports")


def expected_classify_lines(items, expected: dict[str, Expected], stem: str) -> list[str | None]:
    """``sisa classify --granularity sentence`` lines: one per item sentence
    (None for an item the oracle pass could not parse)."""
    lines: list[str | None] = []
    for index, item in enumerate(items, 1):
        want = expected.get(item.name)
        so = want.scores["SL+O"] if want else None
        lines.append(None if so is None else f"{stem}:{index}\t{format_so(so)}\t{sign_label(so)}")
    return lines


def check_lines(gate: Gate, what: str, got: list[str], want: list[str | None], items) -> None:
    """Compare CLI output unit by unit; a missing or differing unit fails its item."""
    for index, item in enumerate(items):
        if index >= len(got) or got[index] != want[index]:
            gate.wrong(item.name, f"{what} output differs from the library result")
    if len(got) > len(want):
        gate.wrong(what, f"{len(got) - len(want)} unexpected trailing output units")


def expected_trace_blocks(items, expected: dict[str, Expected], stem: str) -> list[str | None]:
    """``sisa trace`` output per sentence, without the blank separator line
    (None for an item the oracle pass could not parse)."""
    return [
        f"# {stem} sentence {index}\n" + expected[item.name].rendered[0] if item.name in expected else None
        for index, item in enumerate(items, 1)
    ]


def split_trace_output(stdout: str) -> list[str]:
    blocks = stdout.split("\n\n")
    return [block if block.endswith("\n") else block + "\n" for block in blocks if block]
