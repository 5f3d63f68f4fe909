"""Command-line interface.

Results go to stdout as tab-separated lines, diagnostics to stderr. Exit
codes: 0 success, 2 missing file, 3 unparseable input or a score that is not
finite, 4 usage error (including scale mismatches). ``classify`` and
``trace`` read their input one sentence at a time, so per-sentence output
before a malformed sentence has already been written when they exit 3.
"""

from __future__ import annotations

import argparse
import io
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO

from .classify import AGGREGATIONS, TIE_RULES, classify_sentence, document_so, polarity_label
from .conllu import iter_sentences
from .engine import compile_rules, compute_so
from .errors import PARSE_ERRORS, ScaleMismatchError, UsageError
from .evaluate import (
    RunConfig,
    compare_configs,
    evaluate_configs,
    load_manifest,
    render_impact,
    render_report,
    summary_dict,
)
from .lexicon import (
    SENTICON_RAW,
    SFU,
    POS_TAGS,
    dump_lexicon,
    load_lexicon,
    load_wordlists,
    merge_lexica,
    sniff_scale,
)
from .operations import load_rules
from .util import format_so

EXIT_OK = 0
EXIT_MISSING = 2
EXIT_PARSE = 3
EXIT_USAGE = 4


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped onto exit code 4."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@contextmanager
def _input_lines(path_text: str) -> Iterator[tuple[TextIO, str]]:
    """Open --input (a path or '-' for stdin) as UTF-8 lines that end at
    '\\n' only; yields (lines, source_id)."""
    if path_text != "-":
        path = Path(path_text)
        with open(path, encoding="utf-8", newline="\n") as lines:
            yield lines, path.stem
        return
    buffer = getattr(sys.stdin, "buffer", None)
    if buffer is None:  # a text stream with no bytes beneath, such as io.StringIO
        yield sys.stdin, "-"
        return
    lines = io.TextIOWrapper(buffer, encoding="utf-8", newline="\n")
    try:
        yield lines, "-"
    finally:
        lines.detach()  # leaves sys.stdin open


def _load_inputs(args) -> tuple:
    """Load the word lists, then the rules, then every --lexicon, in that
    order, so that the first broken input decides the exit code of every
    scoring command; returns (lists, rule definitions, lexica)."""
    lists = load_wordlists(args.lists) if args.lists else {}
    rules = tuple(load_rules(args.rules, lists)) if args.rules else ()
    return lists, rules, [load_lexicon(path) for path in args.lexicon]


def _load_environment(args) -> tuple:
    """The one lexicon, the rules compiled once for the whole run, and the
    word lists of ``classify`` and ``trace``."""
    if len(args.lexicon) > 1:
        raise UsageError(f"{args.subcommand} takes one --lexicon input, got {len(args.lexicon)}")
    lists, rules, (lexicon,) = _load_inputs(args)
    return lexicon, compile_rules(rules), lists


def _cmd_classify(args) -> int:
    lexicon, defs, lists = _load_environment(args)
    with _input_lines(args.input) as (lines, source_id):
        trees = iter_sentences(lines)
        if args.granularity == "sentence":
            for index, tree in enumerate(trees, 1):
                result = classify_sentence(tree, lexicon, defs, lists, tie=args.tie)
                print(f"{source_id}:{index}\t{format_so(result.so)}\t{result.label}")
        else:
            scores = (
                compute_so(tree, lexicon, defs, lists, record=False).sentence_so for tree in trees
            )
            so = document_so(scores, source_id, args.agg)
            print(f"{source_id}\t{format_so(so)}\t{polarity_label(so, args.tie)}")
    return EXIT_OK


def _cmd_trace(args) -> int:
    lexicon, defs, lists = _load_environment(args)
    with _input_lines(args.input) as (lines, source_id):
        for index, tree in enumerate(iter_sentences(lines), 1):
            trace = compute_so(tree, lexicon, defs, lists)
            if index > 1:
                print()
            print(f"# {source_id} sentence {index}")
            print(trace.render(), end="")
    return EXIT_OK


def _effective_scales(paths: list[str], scales: list[str] | None) -> list[str]:
    """Pair each input lexicon with its scale.

    Explicit --scale values win (one for all inputs, or one per input).
    Without --scale, a file whose header declares senticon_raw is refused:
    rescaling must be asked for, not silently applied.
    """
    if scales:
        if len(scales) == 1:
            return scales * len(paths)
        if len(scales) != len(paths):
            raise UsageError(
                f"got {len(scales)} --scale values for {len(paths)} --lexicon inputs"
            )
        return list(scales)
    effective = []
    for path in paths:
        declared = sniff_scale(path) or SFU
        if declared != SFU:
            raise ScaleMismatchError(
                f"{path} declares scale {declared!r}; pass --scale to confirm rescaling"
            )
        effective.append(SFU)
    return effective


def _write_output(text: str, output: str | None) -> None:
    if output and output != "-":
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_merge_lexicon(args) -> int:
    scales = _effective_scales(args.lexicon, args.scale)
    lexica = [load_lexicon(path, scale) for path, scale in zip(args.lexicon, scales)]
    merged = merge_lexica(lexica, name="merged")
    _write_output(dump_lexicon(merged), args.output)
    sizes = merged.sizes()
    for pos in POS_TAGS:
        print(f"# {pos}\t{sizes[pos]}", file=sys.stderr)
    print(f"# total\t{len(merged)}", file=sys.stderr)
    return EXIT_OK


def _cmd_scale_senticon(args) -> int:
    lexicon = load_lexicon(args.input, SENTICON_RAW)
    _write_output(dump_lexicon(lexicon), args.output)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    if len(args.lexicon) > 2:
        raise UsageError("evaluate takes at most two --lexicon inputs (single, multilingual)")
    lists, rules, lexica = _load_inputs(args)
    manifest = load_manifest(args.corpus)

    configs = []
    for lexicon, (without_ops, with_ops) in zip(lexica, (("SL-O", "SL+O"), ("ML-O", "ML+O"))):
        configs.append(RunConfig(without_ops, lexicon))
        if rules:
            configs.append(RunConfig(with_ops, lexicon, rules))

    reports = evaluate_configs(manifest, configs, lists, agg=args.agg, tie=args.tie)
    for report in reports:
        sys.stdout.write(render_report(report, verbose=args.verbose))
    impact = compare_configs(reports) if len(reports) == 4 else None
    if impact is not None:
        sys.stdout.write(render_impact(impact))
    if args.report:
        import json  # only --report needs it

        Path(args.report).write_text(
            json.dumps(summary_dict(reports, impact), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return EXIT_OK


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lexicon", action="append", required=True, metavar="PATH",
        help="sentiment lexicon file (entry<TAB>pos<TAB>so)",
    )
    parser.add_argument("--rules", metavar="PATH", help="rule configuration file")
    parser.add_argument(
        "--lists", metavar="DIR",
        help="directory of word lists (boosters.tsv, negators.txt, ...)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sisa", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    classify = sub.add_parser("classify", parents=[], help="label a parsed document")
    _add_engine_flags(classify)
    classify.add_argument("--input", required=True, metavar="PATH", help="CoNLL-U file or -")
    classify.add_argument("--granularity", choices=("doc", "sentence"), default="doc")
    classify.add_argument("--agg", choices=AGGREGATIONS, default="sum")
    classify.add_argument("--tie", choices=TIE_RULES, default="pos")
    classify.set_defaults(func=_cmd_classify)

    trace = sub.add_parser("trace", help="print the full scoring trace of one document")
    _add_engine_flags(trace)
    trace.add_argument("--input", required=True, metavar="PATH", help="CoNLL-U file or -")
    trace.set_defaults(func=_cmd_trace)

    merge = sub.add_parser("merge-lexicon", help="average several lexica into one")
    merge.add_argument("--lexicon", action="append", required=True, metavar="PATH")
    merge.add_argument(
        "--scale", action="append", choices=(SFU, SENTICON_RAW),
        help="scale of the inputs: give once for all, or once per --lexicon",
    )
    merge.add_argument("--output", metavar="PATH", help="write here instead of stdout")
    merge.set_defaults(func=_cmd_merge_lexicon)

    scale = sub.add_parser("scale-senticon", help="rescale a raw lexicon onto the 1-5 scale")
    scale.add_argument("--input", required=True, metavar="PATH")
    scale.add_argument("--output", metavar="PATH", help="write here instead of stdout")
    scale.set_defaults(func=_cmd_scale_senticon)

    ev = sub.add_parser("evaluate", help="run configurations over a labeled corpus")
    _add_engine_flags(ev)
    ev.add_argument("--corpus", required=True, metavar="MANIFEST")
    ev.add_argument("--agg", choices=AGGREGATIONS, default="sum")
    ev.add_argument("--tie", choices=TIE_RULES, default="pos")
    ev.add_argument("--report", metavar="PATH", help="write a JSON summary here")
    ev.add_argument("--verbose", action="store_true", help="emit per-item lines")
    ev.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PARSE_ERRORS as exc:
        print(f"sisa: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UsageError as exc:
        print(f"sisa: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"sisa: missing file: {exc}", file=sys.stderr)
        return EXIT_MISSING


if __name__ == "__main__":
    sys.exit(main())
