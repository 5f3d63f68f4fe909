"""Property tests (hypothesis); the 1000-case seeded suites live in the
acceptance module, these favor shrinking and odd corners during development.
Both drivers assert each shared property through ``property_checks``."""

import math
from pathlib import Path
from random import Random
from tempfile import TemporaryDirectory

from hypothesis import example, given, settings, strategies as st

from conftest import DEFAULT_RULES
from property_checks import (
    check_conllu_round_trip,
    check_document_permutation,
    check_empty_rules_is_lexicon_sum,
    check_merge_bounds,
    check_merge_order_independent,
    check_rendering_deterministic,
    check_shift_odd,
    check_weighting_linear,
    source_scores,
)
from sisa import (
    Document,
    NonFiniteScoreError,
    UsageError,
    classify_document,
    compute_so,
    load_lexicon,
    load_rules,
)
from sisa.lexicon import POS_TAGS, SentimentLexicon, dump_lexicon, merge_lexica
from sisa.operations import apply_weighting
from sisa.util import format_so
from treegen import random_document, random_tree, shaped_tree, vocab_lexicon, vocab_lists

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
nonzero = finite.filter(lambda x: x != 0)

LEX = vocab_lexicon()
LISTS = vocab_lists()


@settings(deadline=None)
@given(beta=finite, scale=finite, so=finite)
def test_weighting_is_linear_in_so(beta, scale, so):
    check_weighting_linear(beta, scale, so)


@settings(deadline=None)
@given(alpha=st.floats(min_value=0, max_value=50, allow_nan=False), so=nonzero)
def test_shift_is_odd_away_from_zero(alpha, so):
    check_shift_odd(alpha, so)


@st.composite
def seeded_trees(draw, max_nodes=8):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_tree(Random(seed), max_nodes=max_nodes)


@st.composite
def seeded_documents(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_document(Random(seed))


@settings(deadline=None)
@given(tree=seeded_trees())
def test_empty_rules_is_lexicon_sum(tree):
    check_empty_rules_is_lexicon_sum(tree, LEX, LISTS)


@settings(deadline=None)
@given(doc=seeded_documents(), seed=st.integers(min_value=0, max_value=2**16))
def test_document_so_is_sentence_permutation_invariant(doc, seed):
    shuffled = list(doc.sentences)
    Random(seed).shuffle(shuffled)
    check_document_permutation(doc, Document(tuple(shuffled), doc.source_id), LEX, LISTS)


@settings(deadline=None)
@given(doc=seeded_documents())
def test_conllu_round_trip(doc):
    check_conllu_round_trip(doc)


entries = st.lists(
    st.tuples(
        st.sampled_from(["uno", "dos", "tres", "cuatro"]),
        st.sampled_from(["ADJ", "NOUN", "*"]),
        st.floats(min_value=-5, max_value=5, allow_nan=False).filter(lambda x: x != 0),
    ),
    min_size=1,
    max_size=8,
)


@st.composite
def lexica(draw, name="src"):
    lex = SentimentLexicon(name=name)
    for entry, pos, so in draw(entries):
        lex.add(entry, pos, so)
    return lex


@settings(deadline=None)
@given(sources=st.lists(lexica(), min_size=1, max_size=4), seed=st.integers(0, 2**16))
def test_merge_is_source_order_independent(sources, seed):
    shuffled = list(sources)
    Random(seed).shuffle(shuffled)
    check_merge_order_independent(sources, shuffled, source_scores(sources))


@settings(deadline=None)
@given(sources=st.lists(lexica(), min_size=1, max_size=4))
def test_merged_scores_bounded_and_sizes_bounded(sources):
    check_merge_bounds(sources)


# Characters a lexicon line reads specially (field and line breaks, the
# whitespace str.strip drops, a comment's "#") and a pair that lowercase alike.
line_entries = st.text(alphabet="aA#é \t\n\r\x0b\x1c\x85\xa0\u2028İ", max_size=3)


def holdable(entry):
    """Whether a lexicon line's first field can hold the lowercased entry."""
    entry = entry.lower()
    return bool(entry) and entry == entry.strip() and entry[0] != "#" and not (
        {"\t", "\n", "\r"} & set(entry)
    )


@st.composite
def built_lexica(draw):
    """A lexicon built with ``add``; each contribution may come with its
    negation, so that some keys cancel out. A score past [-5, 5], infinite
    or NaN is refused as an entry no line holds is."""
    lex = SentimentLexicon(name="built")
    contributions = st.tuples(
        line_entries,
        st.sampled_from(POS_TAGS),
        st.floats(min_value=-5, max_value=5) | st.floats(),
        st.booleans(),
    )
    for entry, pos, so, cancel in draw(st.lists(contributions, max_size=6)):
        for value in (so, -so) if cancel else (so,):
            try:
                lex.add(entry, pos, value)
            except UsageError:
                assert not (holdable(entry) and abs(value) <= 5)
            else:
                assert holdable(entry) and abs(value) <= 5
    return lex


@settings(deadline=None)
@given(sources=st.lists(built_lexica(), min_size=1, max_size=3))
def test_a_dumped_lexicon_loads_back_as_the_lexicon_that_wrote_it(sources):
    """Every key and score comes back as the dump wrote it, except the
    neutralized keys: the dump writes them as 0, and a load drops a 0 line."""
    lex = merge_lexica(sources, name="merged")
    with TemporaryDirectory() as tmp:
        path = Path(tmp) / "dump.tsv"
        path.write_text(dump_lexicon(lex), encoding="utf-8")
        again = load_lexicon(path)
    for pos, table in lex.scores.items():
        kept = {entry: so for entry, so in table.items() if so}
        assert again.scores[pos].keys() == kept.keys()
        for entry, so in kept.items():
            # The dump writes twelve significant digits (format_so).
            assert again.scores[pos][entry].hex() == float(format_so(so)).hex()


@settings(deadline=None)
@given(tree=seeded_trees(max_nodes=6))
def test_engine_rendering_is_deterministic(tree):
    check_rendering_deterministic(tree, LEX, load_rules(DEFAULT_RULES, LISTS), LISTS)


@settings(deadline=None)
@given(beta=finite)
def test_weighting_of_zero_is_zero(beta):
    assert apply_weighting(beta, 0.0) == 0.0


@settings(deadline=None)
@given(tree=seeded_trees(max_nodes=6))
def test_zero_lexicon_keeps_zero_unless_shift_fires(tree):
    empty = SentimentLexicon(name="empty")
    defs = load_rules(DEFAULT_RULES, LISTS)
    trace = compute_so(tree, empty, defs, LISTS)
    applied = [
        app
        for node in trace.nodes
        for app in node.applications
        if app.rule == "negation" and not app.discarded
    ]
    if not applied:
        assert trace.sentence_so == 0.0
    else:
        # A shift landing on an accumulated 0 can only arrive via the `all`
        # backoff and moves it by exactly alpha; anything else it touches was
        # made nonzero by a deeper shift.
        for app in applied:
            if app.before == 0.0:
                assert app.scope == "all" and app.backoff
                assert app.after == -4.0


@settings(deadline=None, max_examples=6)
@given(
    shape=st.sampled_from(("star", "chain")),
    n=st.sampled_from((1, 500, 4000, 16000, 32000)),
    seed=st.integers(0, 2**16),
)
@example(shape="chain", n=32000, seed=1)  # NaN at the root
@example(shape="star", n=32000, seed=1)  # -inf at the root
def test_long_shapes_score_finite_or_raise_the_typed_error(shape, n, seed):
    """A score is finite or a NonFiniteScoreError, for a sentence and for a
    document of that sentence twice."""
    tree = shaped_tree(Random(seed), n, shape)
    rules = load_rules(DEFAULT_RULES, LISTS)
    for score in (
        lambda: compute_so(tree, LEX, rules, LISTS, record=False).sentence_so,
        lambda: classify_document(Document((tree, tree)), LEX, rules, LISTS).so,
    ):
        try:
            so = score()
        except NonFiniteScoreError:
            continue
        assert math.isfinite(so)
