"""Workloads, timed passes, probes and reporting for ``bench/run.py``.

Load model: a closed loop with one client. Each item is sent after the
previous one finished; CLI children run one at a time. Every module is timed
from outside, through its public functions; the traced run attaches spans and
counters with :class:`tracing.Tracer` and never edits ``src/``. End-to-end
timings are taken in reference seconds (see ``gauge.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import importlib
import json
import logging
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from math import fsum
from pathlib import Path
from random import Random

import sisa.classify
import sisa.cli
import sisa.conllu
import sisa.engine
import sisa.lexicon
import sisa.operations

# The package re-exports the function evaluate under the submodule's name.
evaluation = importlib.import_module("sisa.evaluate")

import gate as checks
import gen
from gauge import LONG_BURST, REFERENCE_S, Gauge
from tracing import Tracer

perf = time.perf_counter

REPO = gen.REPO
SRC = REPO / "src"
WORK_ROOT = REPO / ".bench_work"
SPANS_DIR = REPO / ".bench_spans"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"
CATALOGUE = json.loads((Path(__file__).resolve().parent / "metrics.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in CATALOGUE["end_to_end"] + CATALOGUE["per_layer"]}

CONFIG_IDS = ("SL-O", "SL+O", "ML-O", "ML+O")
IMPORT_REPS = 5
MIN_ROUNDS = 2
SETUPS_PER_ROUND = 3
PROBE_BUDGET_S = 1.0
SCALING_LADDER = (250, 500, 1000, 2000)
EVALUATE_PROBE_PARTS = 2  # part manifests the evaluate probe covers off reviews


def best_timed(fn, budget: float = PROBE_BUDGET_S, max_reps: int = 5) -> float:
    """Best wall time of ``fn()``: at least one call, more while the budget
    lasts, at most ``max_reps``."""
    times = []
    spent = 0.0
    while not times or (spent < budget and len(times) < max_reps):
        start = perf()
        fn()
        times.append(perf() - start)
        spent += times[-1]
    return min(times)


def settle() -> None:
    """Collect garbage and freeze what survives, so that objects the
    benchmark itself holds (oracle results, lexica, spans) do not make the
    collector slower during timed regions than it is in a fresh process."""
    gc.collect()
    gc.freeze()


def pin_to_one_cpu() -> None:
    """Keep this process, and the CLI children it starts, on one CPU: the
    gauge reads the speed of the CPU it runs on, and the CPUs of a shared
    host change speed independently of each other."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- set-up --------------------------------------------------------------


@dataclass
class Env:
    """Everything loaded before the first item can be scored."""

    lists: dict
    rules: tuple
    sl: object
    ml: object = None
    manifest: object = None
    stages: dict[str, float] = field(default_factory=dict)

    def configs(self, ids) -> dict[str, tuple]:
        table = {
            "SL-O": (self.sl, ()),
            "SL+O": (self.sl, self.rules),
            "ML-O": (self.ml, ()),
            "ML+O": (self.ml, self.rules),
        }
        return {config_id: table[config_id] for config_id in ids}

    def run_configs(self) -> list:
        return [
            evaluation.RunConfig(config_id, lexicon, rules)
            for config_id, (lexicon, rules) in self.configs(CONFIG_IDS).items()
        ]


def _load_lexicon(path: Path):
    return sisa.lexicon.load_lexicon(path, sisa.lexicon.sniff_scale(path) or sisa.lexicon.SFU)


def build_ml_lexicon(corpus: gen.Corpus, sl) -> None:
    """The lexicon toolchain: rescale the raw source, merge it with the
    single-language lexicon, and write the merged lexicon file."""
    raw = sisa.lexicon.load_lexicon(corpus.lexicon_raw, sisa.lexicon.SENTICON_RAW)
    merged = sisa.lexicon.merge_lexica([sl, raw], name="ml")
    corpus.lexicon_ml.write_text(sisa.lexicon.dump_lexicon(merged), encoding="utf-8")


def load_env(corpus: gen.Corpus, with_ml: bool) -> Env:
    start = perf()
    lists = sisa.lexicon.load_wordlists(gen.LISTS_DIR)
    sl = _load_lexicon(corpus.lexicon_sl)
    loaded = perf()
    rules = tuple(sisa.operations.load_rules(gen.RULES_PATH, lists))
    ruled = perf()
    env = Env(lists, rules, sl)
    env.stages = {"lexicon.load_s": loaded - start, "operations.load_s": ruled - loaded}
    if with_ml:
        merge_start = perf()
        build_ml_lexicon(corpus, sl)
        ml_start = perf()
        env.ml = _load_lexicon(corpus.lexicon_ml)
        env.manifest = evaluation.load_manifest(corpus.manifest)
        env.stages["lexicon.merge_s"] = ml_start - merge_start
        env.stages["lexicon.load_s"] += perf() - ml_start
    return env


# -- workloads -----------------------------------------------------------


@dataclass
class Samples:
    """Timings of repeated passes in reference seconds (see ``gauge.py``),
    kept per unit of work so that each unit's median over the passes can be
    taken.

    A timing waits in ``pending`` until the gauge is probed, at most
    ``gauge.PROBE_EVERY_S`` of work later, and is then scaled by the speed
    read on either side of it.
    """

    gauge: Gauge
    latency: dict[str, list[float]] = field(default_factory=dict)  # item -> seconds (inf: failed)
    busy: dict[str, list[float]] = field(default_factory=dict)  # unit -> seconds spent scoring
    tokens: dict[str, int] = field(default_factory=dict)  # unit -> tokens it scores
    pending: list[tuple[dict, str, float]] = field(default_factory=list)

    def item(self, name: str, seconds: float) -> None:
        self._add(self.latency, name, seconds)

    def scored(self, unit: str, seconds: float, tokens: int) -> None:
        self.tokens[unit] = tokens
        self._add(self.busy, unit, seconds)

    def _add(self, table: dict, key: str, seconds: float) -> None:
        self.pending.append((table, key, seconds))
        if self.gauge.due():
            self.flush()

    def flush(self) -> None:
        factor = self.gauge.scale()
        for table, key, seconds in self.pending:
            table.setdefault(key, []).append(seconds * factor)
        self.pending.clear()

    def tok_per_s(self) -> float:
        return sum(self.tokens.values()) / sum(statistics.median(times) for times in self.busy.values())

    def latencies(self) -> list[float]:
        return [statistics.median(times) for times in self.latency.values()]


@dataclass
class Context:
    """State shared by the passes of one run: the gate and what it expects."""

    corpus: gen.Corpus
    gate: checks.Gate
    expected: dict
    env: Env
    tracer: Tracer | None = None
    reports: list = field(default_factory=list)  # the latest evaluate reports

    def span(self, name: str, request: str | None = None):
        return self.tracer.span(name, request) if self.tracer else contextlib.nullcontext()

    def item_failed(self, item, exc: BaseException) -> None:
        """An exception on an item: the known BOM defect, or a wrong output."""
        if self.gate.failed.get(item.name) != checks.BOM:
            self.gate.wrong(item.name, f"{type(exc).__name__}: {exc}")


class Workload:
    """One workload: its set-up, the pass its timings come from, its CLI."""

    name = ""
    from_file = False  # items are read from their files, not parsed from text
    builds_ml = False  # the ML lexicon is part of set-up
    keep_render = False

    def __init__(self, corpus: gen.Corpus):
        self.corpus = corpus

    def before_timing(self, ctx: Context) -> None:
        """Work the output checks need, done once before the measured phase."""

    def run_pass(self, ctx: Context, samples: Samples) -> None:
        """Score every item once, adding its timings to ``samples``."""
        raise NotImplementedError

    def cli_argv(self) -> list[str]:
        raise NotImplementedError

    def check_cli(self, ctx: Context, stdout: str) -> None:
        raise NotImplementedError

    def engine_flags(self, lexica: list[Path]) -> list[str]:
        flags = []
        for path in lexica:
            flags += ["--lexicon", str(path)]
        return flags + ["--rules", str(gen.RULES_PATH), "--lists", str(gen.LISTS_DIR)]


class Reviews(Workload):
    """Many short labeled documents: the 4-config evaluate, then a
    per-document read + classify pass."""

    name = "reviews"
    from_file = True
    builds_ml = True

    def __init__(self, corpus):
        super().__init__(corpus)
        self.names = {str(item.path): item.name for item in corpus.items}

    def before_timing(self, ctx):
        ctx.reports = [evaluation.evaluate(ctx.env.manifest, cfg, ctx.env.lists) for cfg in ctx.env.run_configs()]
        for report in ctx.reports:
            checks.check_report(ctx.gate, report, self.corpus.items, ctx.expected)

    def run_pass(self, ctx, samples):
        # The 4-config evaluate, one part manifest at a time: each part is
        # read afresh and timed as one unit, so that its median time over the
        # rounds can be taken.
        env = ctx.env
        configs = env.run_configs()
        reports = []
        with ctx.span("evaluate.matrix", "matrix"):
            for chunk in self.corpus.chunks:
                start = perf()
                manifest = evaluation.load_manifest(chunk)
                part = [evaluation.evaluate(manifest, cfg, env.lists) for cfg in configs]
                samples.scored(chunk.name, perf() - start, sum(map(self._scored_tokens(ctx), part)))
                reports += part
        for report in reports:
            checks.check_report(ctx.gate, report, self.corpus.items, ctx.expected)
        for item in self.corpus.items:
            start = perf()
            try:
                with ctx.span("item", item.name):
                    doc = sisa.conllu.read_document(item.path)
                    result = sisa.classify.classify_document(doc, env.sl, env.rules, env.lists)
            except Exception as exc:  # every failure is counted, none stops the run
                samples.item(item.name, math.inf)
                ctx.item_failed(item, exc)
                continue
            samples.item(item.name, perf() - start)
            checks.check_result(ctx.gate, item.name, "SL+O", result.so, result.label, ctx.expected)

    def _scored_tokens(self, ctx):
        def tokens(report) -> int:
            names = (self.names[result.path] for result in report.items if result.error is None)
            return sum(ctx.expected[name].tokens for name in names if name in ctx.expected)

        return tokens

    def cli_argv(self):
        return [
            "evaluate", "--corpus", str(self.corpus.manifest),
            *self.engine_flags([self.corpus.lexicon_sl, self.corpus.lexicon_ml]),
            "--report", str(self.corpus.root / "report.json"),
        ]

    def check_cli(self, ctx, stdout):
        report = self.corpus.root / "report.json"
        report_text = report.read_text(encoding="utf-8") if report.exists() else None
        report.unlink(missing_ok=True)
        checks.check_evaluate_cli(ctx.gate, stdout, report_text, ctx.reports, self.corpus.items)


class _Sentences(Workload):
    """One sentence per item, parsed from its text."""

    with_trace = False

    def run_pass(self, ctx, samples):
        env = ctx.env
        for item in self.corpus.items:
            rendered = None
            start = perf()
            try:
                with ctx.span("item", item.name):
                    doc = sisa.conllu.parse_document(item.text, source_id=item.name)
                    parsed = perf()
                    result = sisa.classify.classify_document(
                        doc, env.sl, env.rules, env.lists, with_trace=self.with_trace
                    )
                    if self.with_trace:
                        rendered = result.traces[0].render()
                    done = perf()
            except Exception as exc:  # every failure is counted, none stops the run
                samples.item(item.name, math.inf)
                ctx.item_failed(item, exc)
                continue
            samples.item(item.name, done - start)
            want = ctx.expected.get(item.name)
            samples.scored(item.name, done - parsed, want.tokens if want else 0)
            checks.check_result(ctx.gate, item.name, "SL+O", result.so, result.label, ctx.expected)
            if rendered is not None and want is not None and rendered != want.rendered[0]:
                ctx.gate.wrong(item.name, "rendered trace differs from the oracle pass")


class Fanout(_Sentences):
    """Long star and chain sentences: propagation and scope resolution."""

    name = "fanout"

    def cli_argv(self):
        return [
            "classify", "--granularity", "sentence", "--input", str(self.corpus.cli_input),
            *self.engine_flags([self.corpus.lexicon_sl]),
        ]

    def check_cli(self, ctx, stdout):
        want = checks.expected_classify_lines(self.corpus.items, ctx.expected, self.corpus.cli_input.stem)
        checks.check_lines(ctx.gate, "sisa classify", stdout.splitlines(), want, self.corpus.items)


class TraceWorkload(_Sentences):
    """Realistic sentences in one big file, scored with the full trace."""

    name = "trace"
    with_trace = True
    keep_render = True

    def cli_argv(self):
        return ["trace", "--input", str(self.corpus.cli_input), *self.engine_flags([self.corpus.lexicon_sl])]

    def check_cli(self, ctx, stdout):
        want = checks.expected_trace_blocks(self.corpus.items, ctx.expected, self.corpus.cli_input.stem)
        checks.check_lines(ctx.gate, "sisa trace", checks.split_trace_output(stdout), want, self.corpus.items)


WORKLOADS = {cls.name: cls for cls in (Reviews, Fanout, TraceWorkload)}


# -- traffic -------------------------------------------------------------


@dataclass
class Traffic:
    """Measured properties of the generated inputs (not assumed ones)."""

    items: int = 0
    sentences: int = 0
    tokens: int = 0
    max_depth: int = 0
    max_fanout: int = 0
    bom: int = 0
    crlf: int = 0
    scored_tokens: int = 0  # tokens of SL+O traces seen by the oracle pass
    lexicon_hits: int = 0
    fired: dict[str, int] = field(default_factory=dict)
    applied: int = 0
    backoff_all: int = 0
    discarded: int = 0
    forced: int = 0

    def add_item(self, item) -> None:
        doc = sisa.conllu.parse_document(item.text, source_id=item.name)
        self.items += 1
        self.bom += item.bom
        self.crlf += item.crlf
        for tree in doc.sentences:
            self.sentences += 1
            self.tokens += len(tree)
            depth = {tree.root_id: 1}
            stack = [tree.root_id]
            while stack:
                node = stack.pop()
                kids = tree.children(node)
                self.max_fanout = max(self.max_fanout, len(kids))
                for kid in kids:
                    depth[kid] = depth[node] + 1
                    stack.append(kid)
            self.max_depth = max(self.max_depth, max(depth.values()))

    def observe(self, tree, trace) -> None:
        self.scored_tokens += len(tree)
        for node in trace.nodes:
            self.lexicon_hits += node.lexical_so != 0
            for trigger in node.triggers:
                self.fired[trigger.rule] = self.fired.get(trigger.rule, 0) + 1
            for app in node.applications:
                if app.discarded:
                    self.discarded += 1
                else:
                    self.applied += 1
                self.backoff_all += app.backoff
                self.forced += app.forced

    def lines(self) -> list[str]:
        per_rule = ", ".join(
            f"{rule} {count / max(1, self.scored_tokens):.4f}" for rule, count in sorted(self.fired.items())
        )
        return [
            f"items {self.items}, sentences {self.sentences}, tokens {self.tokens}",
            f"trigger rate per token: {per_rule or 'none'}",
            f"lexicon hit share {self.lexicon_hits / max(1, self.scored_tokens):.4f}",
            f"max depth {self.max_depth}, max fan-out {self.max_fanout}",
            f"CRLF share {self.crlf / self.items:.4f}, BOM share {self.bom / self.items:.4f}",
        ]


# -- tracing -------------------------------------------------------------


def _source_of_parse(args, kwargs):
    return kwargs.get("source_id", args[1] if len(args) > 1 else None)


def _source_of_doc(args, kwargs):
    doc = args[0] if args else kwargs.get("doc")
    return getattr(doc, "source_id", None)


def _config_of(args, kwargs):
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    return getattr(cfg, "config_id", None)


def instrument(tracer: Tracer) -> None:
    """Attach spans and counters to the public entry points of each layer."""
    tracer.wrap_span("sisa.conllu:read_document", "conllu.read")
    tracer.wrap_span("sisa.conllu:parse_document", "conllu.parse", _source_of_parse)
    tracer.wrap_span("sisa.classify:classify_document", "classify.document", _source_of_doc)
    tracer.wrap_span("sisa.engine:compute_so", "engine.compute_so")
    tracer.wrap_span("sisa.engine:SoTrace.render", "engine.render")
    tracer.wrap_span("sisa.evaluate:evaluate", "evaluate.config", _config_of)
    tracer.wrap_counter("sisa.lexicon:SentimentLexicon.lookup", "lexicon.lookup")


LAYER_SPANS = {
    "conllu.parse_s": ("conllu.parse", "total_s"),
    "conllu.parse_calls": ("conllu.parse", "count"),
    "engine.score_s": ("engine.compute_so", "total_s"),
    "engine.calls": ("engine.compute_so", "count"),
    "classify.doc_s": ("classify.document", "total_s"),
    "classify.self_s": ("classify.document", "self_s"),
}


def pass_layers(stats: dict, counters: dict) -> dict[str, float]:
    """Per-layer values of one traced pass; a layer whose entry point was
    absent gets no value."""
    values = {name: stats[span][key] for name, (span, key) in LAYER_SPANS.items() if span in stats}
    if "engine.compute_so" in stats:
        values["engine.item_ms_max"] = stats["engine.compute_so"]["max_s"] * 1e3
    if "lexicon.lookup" in counters:
        values["lexicon.lookup_calls"] = counters["lexicon.lookup"].calls
        values["lexicon.lookup_s"] = counters["lexicon.lookup"].seconds
    if "evaluate.config" in stats:
        values["evaluate.matrix_s"] = stats["evaluate.matrix"]["total_s"]
        values["evaluate.self_s"] = stats["evaluate.config"]["self_s"]
    return values


# -- CLI children --------------------------------------------------------


@dataclass
class Child:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    scaled_s: float | None = None  # wall time in reference seconds, when a gauge was given


def run_child(argv: list[str], workdir: Path, gauge: Gauge | None = None) -> Child:
    """Run a fresh interpreter on ``argv`` through ``launch.py``, its stdout
    drained into a file, and read its wall time and peak RSS from the
    launcher's report. With a gauge, the speed is probed while the child
    runs, on the CPU it runs on."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    report = workdir / "child.json"
    report.unlink(missing_ok=True)
    out_path = workdir / "child.stdout"
    factor = None
    with open(out_path, "wb") as stdout, open(workdir / "child.stderr", "wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER), str(report), sys.executable, *argv],
            stdout=stdout, stderr=stderr, env=env, cwd=REPO,
        )
        if gauge is not None:
            factor = gauge.while_running(proc)
        proc.wait()
    if not report.exists():
        raise RuntimeError(f"the launcher wrote no report (exit {proc.returncode})")
    result = json.loads(report.read_text(encoding="utf-8"))
    out = out_path.read_bytes().decode("utf-8", errors="replace")
    out_path.unlink()
    scaled = None if factor is None else result["wall_s"] * factor
    return Child(result["wall_s"], result["peak_rss_mb"], result["returncode"], out, scaled)


def run_cli(workload: Workload, ctx: Context, workdir: Path, gauge: Gauge) -> Child:
    """One run of the workload's CLI child, timed in reference seconds, its
    output checked."""
    child = run_child(["-m", "sisa.cli", *workload.cli_argv()], workdir, gauge)
    if child.returncode != 0:
        stderr = (workdir / "child.stderr").read_text(encoding="utf-8", errors="replace")
        for item in workload.corpus.items:
            ctx.gate.wrong(item.name, f"sisa exited {child.returncode}: {stderr.strip()[-200:]}")
    else:
        workload.check_cli(ctx, child.stdout)
    return child


def cli_in_process(workload: Workload) -> float:
    """Wall time of the same CLI work run through ``sisa.cli.main`` in this
    process, stdout captured in memory."""
    start = perf()
    with contextlib.redirect_stdout(io.StringIO()):
        code = sisa.cli.main(workload.cli_argv())
    elapsed = perf() - start
    if code != 0:
        raise RuntimeError(f"in-process sisa exited {code}")
    return elapsed


def import_time(workdir: Path) -> float:
    code = "import time; t = time.perf_counter(); import sisa.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPS):
        child = run_child(["-c", code], workdir)
        if child.returncode != 0:
            raise RuntimeError("import sisa.cli failed in a fresh interpreter")
        times.append(float(child.stdout))
    return min(times)


# -- probes (traced run only) ---------------------------------------------


def _parsed_trees(corpus: gen.Corpus):
    return [
        tree
        for item in corpus.items
        for tree in sisa.conllu.parse_document(item.text, source_id=item.name).sentences
    ]


def scaling_exponents(env: Env, seed: int) -> dict[str, float]:
    """Log-log slope of compute_so time against size, for stars and chains
    on a fixed size ladder drawn from the fanout generator."""
    slopes = {}
    for shape in ("star", "chain"):
        xs, ys = [], []
        for n in SCALING_LADDER:
            text = gen.fanout_sentence(Random(f"{seed}:probe:{shape}:{n}"), n, shape)
            tree = sisa.conllu.parse_document(text).sentences[0]
            elapsed = best_timed(lambda: sisa.engine.compute_so(tree, env.sl, env.rules, env.lists), 0.5, 3)
            xs.append(math.log(n))
            ys.append(math.log(elapsed))
        mean_x, mean_y = fsum(xs) / len(xs), fsum(ys) / len(ys)
        slopes[f"engine.{shape}_exp"] = fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / fsum(
            (x - mean_x) ** 2 for x in xs
        )
    return slopes


def probe_layers(workload: Workload, ctx: Context, seed: int, workdir: Path) -> dict[str, float]:
    env = ctx.env
    corpus = workload.corpus
    values: dict[str, float] = {}
    texts = [item.text for item in corpus.items]
    trees = _parsed_trees(corpus)
    tokens = sum(len(tree) for tree in trees)
    parse_s = best_timed(lambda: [sisa.conllu.parse_document(text) for text in texts])
    values["conllu.tok_per_s"] = tokens / parse_s
    token_rows = [tree.tokens for tree in trees]
    values["conllu.tree_s"] = best_timed(lambda: [sisa.conllu.DepTree(row) for row in token_rows])
    traces: list = []

    def score_with_rules():
        traces[:] = [sisa.engine.compute_so(t, env.sl, env.rules, env.lists) for t in trees]

    with_rules = best_timed(score_with_rules)
    without = best_timed(lambda: [sisa.engine.compute_so(t, env.sl, (), env.lists) for t in trees])
    values["operations.rules_cost_s"] = with_rules - without
    values["engine.render_s"] = best_timed(lambda: [trace.render() for trace in traces])
    values["engine.render_bytes"] = sum(len(trace.render().encode("utf-8")) for trace in traces)
    del traces
    values.update(scaling_exponents(env, seed))
    if not workload.builds_ml:
        # The evaluate layer, as one traced 4-config matrix over the first
        # EVALUATE_PROBE_PARTS part manifests of this workload's items. The
        # benchmark's result line must carry every per-layer metric on every
        # workload, so the layers this workload does not use are probed.
        probed = corpus.items[: EVALUATE_PROBE_PARTS * gen.MANIFEST_CHUNK]
        expected = checks.oracle_pass(ctx.gate, probed, env.configs(CONFIG_IDS), env.lists, workload.from_file)
        tracer = ctx.tracer
        mark = tracer.mark()
        instrument(tracer)
        try:
            with tracer.span("evaluate.matrix", "matrix"):
                reports = [
                    evaluation.evaluate(evaluation.load_manifest(chunk), cfg, env.lists)
                    for chunk in corpus.chunks[:EVALUATE_PROBE_PARTS]
                    for cfg in env.run_configs()
                ]
        finally:
            tracer.restore()
        layers = pass_layers(*tracer.since(mark))
        values.update({key: value for key, value in layers.items() if key.startswith("evaluate.")})
        for report in reports:
            checks.check_report(ctx.gate, report, probed, expected)
        values["evaluate.errored"] = sum(report.errored for report in reports)
    else:
        values["evaluate.errored"] = sum(report.errored for report in ctx.reports)
    values["cli.import_s"] = import_time(workdir)
    return values


# -- one run -------------------------------------------------------------


@dataclass
class RunResult:
    workload: str
    traced: bool
    gate: checks.Gate
    attempted: int
    metrics: dict[str, float]
    notes: list[str]
    absent: list[str]


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> RunResult:
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    try:
        return _run(name, seed, seconds, traced, workdir)
    finally:
        if cpus is not None:
            os.sched_setaffinity(0, cpus)
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def _timed_setup(corpus: gen.Corpus, workload: Workload, gauge: Gauge) -> tuple[float, dict[str, float]]:
    """One set-up: its time in reference seconds and its stages in wall
    seconds. The environment it loads is dropped, so that set-ups do not
    pile up on the heap."""
    gauge.scale(LONG_BURST)
    start = perf()
    env = load_env(corpus, with_ml=workload.builds_ml)
    elapsed = perf() - start
    return elapsed * gauge.scale(LONG_BURST), env.stages


def _run(name, seed, seconds, traced, workdir) -> RunResult:
    corpus = gen.generate(name, seed, workdir / "corpus")
    workload = WORKLOADS[name](corpus)
    notes: list[str] = []

    env = load_env(corpus, with_ml=workload.builds_ml)
    if traced and not workload.builds_ml:
        # The lexicon toolchain, timed here as a probe: it is not part of
        # this workload's set-up, but the evaluate probe needs its output.
        merge_s = best_timed(lambda: build_ml_lexicon(corpus, env.sl))
        env.ml = _load_lexicon(corpus.lexicon_ml)

    # Oracle pass and traffic, outside every timed region.
    gate = checks.Gate()
    traffic = Traffic()
    for item in corpus.items:
        traffic.add_item(item)
    ids = CONFIG_IDS if workload.builds_ml else ("SL+O",)
    expected = checks.oracle_pass(
        gate, corpus.items, env.configs(ids), env.lists, workload.from_file, traffic.observe, workload.keep_render
    )
    ctx = Context(corpus, gate, expected, env)
    workload.before_timing(ctx)
    notes += [f"traffic: {line}" for line in traffic.lines()]

    # The measured phase: rounds of a few set-ups, one pass over every item and
    # one CLI child, while another round still fits in the time. Each timed
    # unit is scaled by the gauge to reference seconds, and each metric is a
    # median over the rounds. Traced runs add an in-process CLI run and a
    # traced pass to each round and spend half the time here, the rest on
    # the probes.
    settle()
    pin_to_one_cpu()
    gauge = Gauge()
    samples = Samples(gauge)
    traced_samples = Samples(gauge)
    layer_samples: list[dict[str, float]] = []
    setups: list[float] = []
    stage_times: dict[str, list[float]] = {}
    children: list[Child] = []
    in_process: list[float] = []
    tracer = Tracer()
    deadline = perf() + (seconds / 2 if traced else seconds)
    rounds = 0
    round_s = 0.0
    while rounds < MIN_ROUNDS or perf() + round_s < deadline:
        round_start = perf()
        for _ in range(SETUPS_PER_ROUND):
            elapsed, stages = _timed_setup(corpus, workload, gauge)
            setups.append(elapsed)
            for key, value in stages.items():
                stage_times.setdefault(key, []).append(value)
        ctx.tracer = None
        gauge.scale()
        workload.run_pass(ctx, samples)
        samples.flush()
        child = run_cli(workload, ctx, workdir, gauge)
        child.stdout = ""  # checked; not kept, so the heap stays the size it was
        children.append(child)
        if traced:
            in_process.append(cli_in_process(workload))
            ctx.tracer = tracer
            mark = tracer.mark()
            instrument(tracer)
            try:
                gauge.scale()
                workload.run_pass(ctx, traced_samples)
                traced_samples.flush()
            finally:
                tracer.restore()
            layer_samples.append(pass_layers(*tracer.since(mark)))
        rounds += 1
        round_s = perf() - round_start
    ctx.tracer = tracer
    setup_s = statistics.median(setups)
    stages = {key: min(values) for key, values in stage_times.items()}
    if traced and not workload.builds_ml:
        stages["lexicon.merge_s"] = merge_s

    metrics: dict[str, float] = {}
    if not traced:
        latencies = samples.latencies()
        p50, p90 = nearest_rank(latencies, 0.5), nearest_rank(latencies, 0.9)
        if p90 == math.inf:
            raise RuntimeError("more than a tenth of the items failed; latency percentiles are undefined")
        metrics.update(
            setup_s=setup_s,
            tok_per_s=samples.tok_per_s(),
            item_ms_p50=p50 * 1e3,
            item_ms_p90=p90 * 1e3,
            cli_s=statistics.median(child.scaled_s for child in children),
            peak_rss_mb=statistics.median(child.peak_rss_mb for child in children),
        )
        notes.append(
            f"samples: {len(latencies)} items, each timed {rounds} times and its median taken "
            f"({sum(1 for v in latencies if v > p90)} beyond p90, {latencies.count(math.inf)} failed); "
            f"median of {len(setups)} set-ups and of {len(children)} CLI runs"
        )
        notes.append(
            "CLI runs, wall s: " + " ".join(f"{child.wall_s:.3f}" for child in children)
            + "; reference s: " + " ".join(f"{child.scaled_s:.3f}" for child in children)
        )
    else:
        for key in layer_samples[0]:
            metrics[key] = min(sample[key] for sample in layer_samples)
        metrics.update(stages)
        settle()
        metrics.update(probe_layers(workload, ctx, corpus.seed, workdir))
        metrics["cli.overhead_s"] = min(child.wall_s for child in children) - min(in_process)
        metrics["lexicon.hit_frac"] = traffic.lexicon_hits / max(1, traffic.scored_tokens)
        metrics["operations.fired"] = sum(traffic.fired.values())
        metrics["operations.applied"] = traffic.applied
        metrics["operations.backoff_all"] = traffic.backoff_all
        metrics["operations.discarded"] = traffic.discarded
        metrics["operations.forced"] = traffic.forced
        metrics["operations.applied_frac"] = traffic.applied / max(1, sum(traffic.fired.values()))
        metrics["trace_overhead_frac"] = 1 - traced_samples.tok_per_s() / samples.tok_per_s()
        notes.append(
            f"samples: {rounds} untraced and {rounds} traced passes, {len(tracer.spans)} spans; "
            f"untraced {samples.tok_per_s():.1f} tok/s, traced {traced_samples.tok_per_s():.1f} tok/s"
        )
        spans_path = SPANS_DIR / f"{name}.jsonl"
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(spans_path)
        notes.append(f"spans and counters written to {spans_path.relative_to(REPO)}")
    notes.append(f"speed: reference loop median {gauge.median_probe() * 1e3:.3f} ms, {REFERENCE_S * 1e3:g} ms at reference speed")
    return RunResult(name, traced, gate, len(corpus.items), metrics, notes, sorted(set(tracer.absent)))


# -- reporting -----------------------------------------------------------


def metric_names(traced: bool) -> list[str]:
    return [m["name"] for m in CATALOGUE["per_layer" if traced else "end_to_end"]]


def report(result: RunResult) -> dict:
    mode = "traced" if result.traced else "untraced"
    print(f"== {result.workload} ({mode}) ==")
    for note in result.notes:
        print(f"  {note}")
    metrics = {}
    for name in metric_names(result.traced):
        value = result.metrics.get(name)
        if value is None:
            # Left out of the JSON: a missing layer has no value, not 0.
            print(f"  {name:28s} absent")
            continue
        print(f"  {name:28s} {value:.6g} {UNITS[name]}")
        metrics[name] = {"value": value, "unit": UNITS[name]}
    if result.absent:
        print(f"  absent entry points: {', '.join(result.absent)}")
    failed = len(result.gate.failed)
    kinds = sorted(set(result.gate.failed.values()))
    print(f"  failed_frac {failed / result.attempted:.4f} ratio ({failed}/{result.attempted} items{': ' if kinds else ''}{', '.join(kinds)})")
    for error in result.gate.errors:
        print(f"  GATE: {error}")
    return metrics


def cli_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), help="0: end-to-end run, 1: traced run; default both")
    parser.add_argument("--self-test", action="store_true", help="check the generator and the gate, then exit")
    args = parser.parse_args(argv)
    logging.getLogger("sisa").addHandler(logging.NullHandler())
    if args.self_test:
        from selftest import self_test

        return self_test()

    print(f"environment: Python {sys.version.split()[0]}, nproc {os.cpu_count()}, seed {args.seed}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    correct = True
    attempted = failed = 0
    metrics = {}
    for name in names:
        for traced in modes:
            result = run_workload(name, args.seed, args.seconds, traced)
            values = report(result)
            correct &= result.gate.correct
            attempted += result.attempted
            failed += len(result.gate.failed)
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + key: value for key, value in values.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1
