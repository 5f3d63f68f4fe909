"""Self-test of the benchmark itself (``python3 bench/run.py --self-test``).

Checks that one seed generates identical bytes twice, that the correctness
gate accepts the program's real outputs and rejects an injected wrong score
and truncated CLI output, that an absent metric is left out of the result,
and that ``BENCHMARK.json`` agrees with ``bench/metrics.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import gate as checks
import gen
import harness
from tracing import Tracer


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _oracle(corpus, env) -> tuple[checks.Gate, dict]:
    gate = checks.Gate()
    workload = harness.WORKLOADS[corpus.workload](corpus)
    expected = checks.oracle_pass(
        gate, corpus.items, env.configs(("SL+O",)), env.lists, workload.from_file, keep_render=workload.keep_render
    )
    return gate, expected


def _check_determinism(work: Path, problems: list[str]) -> None:
    for name in gen.WORKLOADS:
        first = _tree_bytes(gen.generate(name, 7, work / "a" / name).root)
        second = _tree_bytes(gen.generate(name, 7, work / "b" / name).root)
        other = _tree_bytes(gen.generate(name, 8, work / "c" / name).root)
        if first != second:
            problems.append(f"{name}: seed 7 generated different bytes twice")
        if first == other:
            problems.append(f"{name}: seeds 7 and 8 generated the same bytes")


def _check_wrong_score(work: Path, problems: list[str]) -> None:
    corpus = gen.generate("trace", 7, work / "score")
    env = harness.load_env(corpus, with_ml=False)
    gate, expected = _oracle(corpus, env)
    if not gate.correct:
        problems.append(f"gate rejects the program's own scores: {gate.errors[:3]}")

    # One sentence score off by one part in a million must be caught by the
    # oracle comparison ...
    calls = []

    def corrupt(original):
        def wrapper(*args, **kwargs):
            trace = original(*args, **kwargs)
            calls.append(1)
            if len(calls) == 100:
                trace.sentence_so = trace.sentence_so * (1 + 1e-6) + 1e-6
            return trace

        return wrapper

    tracer = Tracer()
    tracer.attach("sisa.engine:compute_so", corrupt)
    try:
        corrupted, _ = _oracle(corpus, env)
    finally:
        tracer.restore()
    if corrupted.correct or len(corrupted.failed) != 1:
        problems.append(f"gate missed an injected wrong sentence score ({len(corrupted.failed)} items failed)")

    # ... and a document score that is not the fsum of its sentences must be
    # caught by the per-result check.
    item = corpus.items[0]
    so = expected[item.name].scores["SL+O"]
    gate = checks.Gate()
    checks.check_result(gate, item.name, "SL+O", so + 0.25, checks.sign_label(so + 0.25), expected)
    if gate.correct:
        problems.append("gate missed an injected wrong document score")


def _check_truncated_cli(work: Path, problems: list[str]) -> None:
    for name in ("trace", "reviews"):
        corpus = gen.generate(name, 7, work / f"cli-{name}")
        workload = harness.WORKLOADS[name](corpus)
        env = harness.load_env(corpus, with_ml=workload.builds_ml)
        if name == "reviews":
            gate = checks.Gate()
            expected = checks.oracle_pass(gate, corpus.items, env.configs(harness.CONFIG_IDS), env.lists, True)
        else:
            gate, expected = _oracle(corpus, env)
        ctx = harness.Context(corpus, gate, expected, env)
        if name == "reviews":
            ctx.reports = [harness.evaluation.evaluate(env.manifest, cfg, env.lists) for cfg in env.run_configs()]
        child = harness.run_child(["-m", "sisa.cli", *workload.cli_argv()], work)
        report = corpus.root / "report.json"
        report_text = report.read_text(encoding="utf-8") if report.exists() else ""
        for label, stdout in (("complete", child.stdout), ("truncated", child.stdout[: len(child.stdout) * 9 // 10])):
            ctx.gate = checks.Gate(failed=dict(gate.failed))
            report.write_text(report_text, encoding="utf-8")
            workload.check_cli(ctx, stdout)
            if ctx.gate.correct != (label == "complete"):
                verdict = "rejected" if label == "complete" else "accepted"
                problems.append(f"{name}: gate {verdict} {label} CLI output ({ctx.gate.errors[:2]})")


def _check_absent(work: Path, problems: list[str]) -> None:
    """A per-layer metric whose entry point is gone is left out of the
    result, never reported as 0."""
    names = harness.metric_names(traced=True)
    result = harness.RunResult("trace", True, checks.Gate(), 1, {name: 1.0 for name in names[1:]}, [], [])
    with contextlib.redirect_stdout(io.StringIO()):
        metrics = harness.report(result)
    if names[0] in metrics or set(metrics) != set(names[1:]):
        problems.append(f"an absent metric was reported: {metrics.get(names[0])}")


def _check_catalogue(problems: list[str]) -> None:
    path = gen.REPO / "BENCHMARK.json"
    if not path.exists():
        return
    declared = json.loads(path.read_text(encoding="utf-8"))
    for kind in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"], m["better"]) for m in harness.CATALOGUE[kind]]
        got = [(m["name"], m["unit"], m["better"]) for m in declared[kind]]
        if got != want:
            problems.append(f"BENCHMARK.json {kind} differs from bench/metrics.json")
    if [w["name"] for w in declared["workloads"]] != list(harness.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the harness's")


def self_test() -> int:
    problems: list[str] = []
    harness.WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=harness.WORK_ROOT))
    try:
        for check in (_check_determinism, _check_wrong_score, _check_truncated_cli, _check_absent):
            before = len(problems)
            check(work, problems)
            print(f"{check.__name__[1:]}: {'ok' if len(problems) == before else 'FAILED'}")
        _check_catalogue(problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            harness.WORK_ROOT.rmdir()
        except OSError:
            pass
    for problem in problems:
        print(f"SELF-TEST: {problem}")
    print("self-test", "passed" if not problems else "failed")
    return 1 if problems else 0
