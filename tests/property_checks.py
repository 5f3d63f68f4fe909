"""The eight randomized properties, one check function each.

Two drivers feed them: the seeded 1,000-case loops of acceptance criterion 6
(``test_acceptance.py``) and the hypothesis tests (``test_properties.py``).
A check asserts everything either driver used to assert on its own.
"""

import math

import pytest

from sisa import classify_document, compute_so, parse_document
from sisa.lexicon import merge_lexica
from sisa.operations import apply_shift, apply_weighting
from treegen import serialize_document


def check_weighting_linear(beta, scale, so):
    assert apply_weighting(beta, scale * so) == pytest.approx(
        scale * apply_weighting(beta, so), rel=1e-12, abs=1e-12
    )


def check_shift_odd(alpha, so):
    """``so`` must be nonzero: at 0 the shift takes the nonnegative branch."""
    assert apply_shift(alpha, -so) == -apply_shift(alpha, so)


def check_empty_rules_is_lexicon_sum(tree, lex, lists):
    total = compute_so(tree, lex, [], lists).sentence_so
    expected = math.fsum(lex.lookup(t.form, t.lemma, t.upos) for t in tree.tokens)
    assert total == pytest.approx(expected, abs=1e-9)


def source_scores(sources):
    """Each key's effective score in every source that has it."""
    scores = {}
    for source in sources:
        for pos, table in source.scores.items():
            for entry, so in table.items():
                scores.setdefault((entry, pos), []).append(so)
    return scores


def _check_within(merged, contributions):
    for pos, table in merged.scores.items():
        for entry, so in table.items():
            values = contributions[entry, pos]
            assert min(values) - 1e-12 <= so <= max(values) + 1e-12


def check_merge_order_independent(sources, shuffled, contributions):
    """Merging ``shuffled`` (a permutation of ``sources``) gives the same
    scores, and each merged score lies within its ``contributions``."""
    merged = merge_lexica(sources, name="m")
    permuted = merge_lexica(shuffled, name="m")
    assert merged.scores == permuted.scores
    _check_within(merged, contributions)


def check_merge_bounds(sources):
    """The merged size lies between the largest source and the sum of all
    sources, and each merged score within the sources' own scores."""
    merged = merge_lexica(sources, name="m")
    assert max(len(s) for s in sources) <= len(merged) <= sum(len(s) for s in sources)
    _check_within(merged, source_scores(sources))


def check_conllu_round_trip(doc):
    text = serialize_document(doc)
    again = parse_document(text, source_id=doc.source_id)
    assert again.sentences == doc.sentences
    assert serialize_document(again) == text


def check_document_permutation(doc, permuted, lex, lists):
    """``permuted`` holds ``doc``'s sentences in another order."""
    first = classify_document(doc, lex, [], lists)
    second = classify_document(permuted, lex, [], lists)
    assert first.so == second.so
    assert first.label == second.label


def check_rendering_deterministic(tree, lex, defs, lists):
    assert (
        compute_so(tree, lex, defs, lists).render()
        == compute_so(tree, lex, defs, lists).render()
    )
