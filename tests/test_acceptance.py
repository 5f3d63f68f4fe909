"""Acceptance suite: one test per release criterion, each timed against its
budget. Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail
line per criterion (the PASS prints below also show with ``-s``).
"""

import time
from itertools import product
from random import Random

import pytest

from conftest import DEFAULT_RULES, FIXTURES, LISTS_DIR
from property_checks import (
    check_conllu_round_trip,
    check_document_permutation,
    check_empty_rules_is_lexicon_sum,
    check_merge_bounds,
    check_merge_order_independent,
    check_rendering_deterministic,
    check_shift_odd,
    check_weighting_linear,
)
from reference import reference_so
from sisa import Document, compute_so, load_lexicon, load_rules, load_wordlists, read_document
from sisa.evaluate import EvaluationReport, compare_configs
from sisa.lexicon import SentimentLexicon, merge_lexica, scale_senticon
from sisa.operations import apply_shift, apply_weighting
from treegen import (
    VOCAB,
    build_tree,
    head_vectors,
    random_document,
    random_tree,
    vocab_lexicon,
    vocab_lists,
)


class Budget:
    def __init__(self, criterion, label, seconds):
        self.criterion = criterion
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )
            print(f"ACCEPTANCE {self.criterion} ({self.label}): PASS ({elapsed:.2f}s)")
        else:
            print(f"ACCEPTANCE {self.criterion} ({self.label}): FAIL")
        return False


def test_criterion_1_reference_arithmetic():
    with Budget(1, "reference arithmetic", 1.0):
        assert apply_weighting(0.25, 1.87) == pytest.approx(2.3375, abs=1e-12)
        assert apply_shift(4, 3.5) == pytest.approx(-0.5, abs=1e-12)

        senticon = SentimentLexicon(name="ml")
        senticon.add("abandonat", "ADJ", scale_senticon(-0.21875))
        sfu = SentimentLexicon(name="sfu")
        sfu.add("abandonat", "ADJ", -3.0)
        merged = merge_lexica([senticon, sfu], name="ca")
        assert merged.scores["ADJ"]["abandonat"] == pytest.approx(-2.4375, abs=1e-12)


def _report(config_id, correct, total=10000, name="bench"):
    return EvaluationReport(
        config_id=config_id,
        manifest_name=name,
        correct=correct,
        total=total,
        accuracy=correct / total,
        errored=0,
        items=(),
    )


#: language -> ((SL-O, SL+O, ML-O, ML+O) correct counts out of 10000,
#:              exact expected impact cells O(SL), O(ML), ML(-O), ML(+O))
IMPACT_ROWS = {
    "es": ((6000, 7575, 6375, 7650), (15.75, 12.75, 3.75, 0.75)),
    "ca": ((5400, 5750, 5825, 7300), (3.50, 14.75, 4.25, 15.5)),
    "gl": ((6075, 7300, 6000, 7000), (12.25, 10.00, -0.75, -3.00)),
    "eu": ((6295, 6920, 6563, 7232), (6.25, 6.69, 2.68, 3.12)),
    "pt": ((6050, 6735, 5729, 6501), (6.85, 7.72, -3.21, -2.34)),
}


def test_criterion_2_impact_table_reproduction():
    with Budget(2, "impact-table reproduction", 1.0):
        for language, (counts, expected) in IMPACT_ROWS.items():
            sl_no, sl_ops, ml_no, ml_ops = counts
            impact = compare_configs(
                [
                    _report("SL-O", sl_no, name=language),
                    _report("SL+O", sl_ops, name=language),
                    _report("ML-O", ml_no, name=language),
                    _report("ML+O", ml_ops, name=language),
                ]
            )
            cells = (
                impact.o_effect_sl,
                impact.o_effect_ml,
                impact.ml_effect_no_ops,
                impact.ml_effect_ops,
            )
            assert cells == expected, f"{language}: {cells} != {expected}"


def test_criterion_3_scale_mapping():
    with Budget(3, "scale mapping", 1.0):
        assert scale_senticon(-0.21875) == -1.875
        assert scale_senticon(1.0) == 5.0
        assert scale_senticon(-1.0) == -5.0


def test_criterion_4_end_to_end_fixtures():
    with Budget(4, "end-to-end fixtures", 1.0):
        lists = load_wordlists(LISTS_DIR)
        lexicon = load_lexicon(FIXTURES / "lexicon.tsv")
        defs = load_rules(DEFAULT_RULES, lists)
        expected = {
            "muy_grande": 2.3375,
            "no_es_bonito": -0.5,
            "bueno_pero_caro": -0.5,  # hand trace: 0 + 2*(1-0.25) + 0 + (-2)
        }
        for name, so in expected.items():
            tree = read_document(FIXTURES / f"{name}.conllu").sentences[0]
            trace = compute_so(tree, lexicon, defs, lists)
            assert trace.sentence_so == pytest.approx(so, abs=1e-12), name
            golden = (FIXTURES / "golden" / f"{name}.trace").read_text(encoding="utf-8")
            assert trace.render() == golden, f"{name}: trace differs from golden bytes"


N5_SAMPLES_PER_STRUCTURE = 256


def test_criterion_5_oracle_equivalence():
    """Engine agrees with the brute-force reference on every rooted tree
    structure of 1-5 nodes over the six-word vocabulary: all word assignments
    up to 4 nodes, a fixed seeded sample per 5-node structure (the full 4.9M
    five-node product is out of reach in the time budget)."""
    with Budget(5, "oracle equivalence", 60.0):
        lex = vocab_lexicon()
        lists = vocab_lists()
        defs = load_rules(DEFAULT_RULES, lists)
        checked = 0

        def check(heads, words):
            nonlocal checked
            tree = build_tree(heads, words)
            engine = compute_so(tree, lex, defs, lists).sentence_so
            oracle = reference_so(tree, lex, defs, lists)
            assert abs(engine - oracle) <= 1e-9, (heads, words, engine, oracle)
            checked += 1

        for n in (1, 2, 3, 4):
            for heads in head_vectors(n):
                for words in product(range(len(VOCAB)), repeat=n):
                    check(heads, list(words))

        rng = Random(20260808)
        for heads in head_vectors(5):
            for _ in range(N5_SAMPLES_PER_STRUCTURE):
                check(heads, [rng.randrange(len(VOCAB)) for _ in range(5)])

        assert checked == 6 + 72 + 1944 + 82944 + 625 * N5_SAMPLES_PER_STRUCTURE


CASES = 1000


def _suite_weighting_linearity(rng):
    for _ in range(CASES):
        beta = rng.uniform(-10, 10)
        scale = rng.uniform(-10, 10)
        so = rng.uniform(-10, 10)
        check_weighting_linear(beta, scale, so)


def _suite_shift_oddness(rng):
    for _ in range(CASES):
        alpha = rng.uniform(0, 10)
        so = rng.uniform(1e-6, 50) * rng.choice((-1, 1))
        check_shift_odd(alpha, so)


def _suite_empty_rules_is_sum(rng, lex, lists):
    for _ in range(CASES):
        check_empty_rules_is_lexicon_sum(random_tree(rng, max_nodes=10), lex, lists)


def _random_sources(rng):
    pool = ["uno", "dos", "tres", "cuatro", "cinco"]
    contributions = {}
    sources = []
    for s in range(rng.randint(1, 4)):
        lex = SentimentLexicon(name=f"s{s}")
        for _ in range(rng.randint(1, 6)):
            key = (rng.choice(pool), rng.choice(("ADJ", "NOUN", "*")))
            value = rng.uniform(0.1, 5) * rng.choice((-1, 1))
            lex.add(key[0], key[1], value)
            contributions.setdefault(key, []).append(value)
        sources.append(lex)
    return sources, contributions


def _suite_merge_order_independence(rng):
    for _ in range(CASES):
        sources, contributions = _random_sources(rng)
        shuffled = list(sources)
        rng.shuffle(shuffled)
        check_merge_order_independent(sources, shuffled, contributions)


def _suite_merge_size_bounds(rng):
    for _ in range(CASES):
        sources, _ = _random_sources(rng)
        check_merge_bounds(sources)


def _suite_conllu_round_trip(rng):
    for _ in range(CASES):
        check_conllu_round_trip(random_document(rng, max_sentences=3, max_nodes=7))


def _suite_document_permutation(rng, lex, lists):
    for _ in range(CASES):
        doc = random_document(rng, max_sentences=5, max_nodes=6)
        shuffled = list(doc.sentences)
        rng.shuffle(shuffled)
        check_document_permutation(doc, Document(tuple(shuffled), doc.source_id), lex, lists)


def _suite_determinism(rng, lex, defs, lists):
    for _ in range(CASES):
        check_rendering_deterministic(random_tree(rng, max_nodes=6), lex, defs, lists)


def test_criterion_6_property_suites():
    with Budget(6, "property suites (8 x >=1000 cases)", 60.0):
        lex = vocab_lexicon()
        lists = vocab_lists()
        defs = load_rules(DEFAULT_RULES, lists)
        _suite_weighting_linearity(Random(101))
        _suite_shift_oddness(Random(102))
        _suite_empty_rules_is_sum(Random(103), lex, lists)
        _suite_merge_order_independence(Random(104))
        _suite_merge_size_bounds(Random(105))
        _suite_conllu_round_trip(Random(106))
        _suite_document_permutation(Random(107), lex, lists)
        _suite_determinism(Random(108), lex, defs, lists)


def test_criterion_7_priority_order_observable():
    with Budget(7, "priority ordering", 1.0):
        lists = load_wordlists(LISTS_DIR)
        lexicon = load_lexicon(FIXTURES / "lexicon.tsv")
        defs = load_rules(DEFAULT_RULES, lists)
        tree = read_document(FIXTURES / "no_muy_bueno.conllu").sentences[0]
        base = lexicon.lookup("bueno", "bueno", "ADJ")
        trace = compute_so(tree, lexicon, defs, lists)
        # Intensification (priority 3) before negation (priority 2):
        # shift(weighting(s)), never weighting(shift(s)).
        assert trace.sentence_so == apply_shift(4.0, apply_weighting(0.25, base))
        assert trace.sentence_so == -1.5
        assert trace.sentence_so != apply_weighting(0.25, apply_shift(4.0, base))
        applied = [
            app.rule
            for node in trace.nodes
            for app in node.applications
            if not app.discarded
        ]
        assert applied == ["intensification", "negation"]
