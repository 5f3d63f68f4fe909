"""Engine-vs-reference agreement on targeted and small exhaustive cases.

The exhaustive sweep over all trees up to five nodes lives in the acceptance
suite; this module keeps a fast subset for everyday runs plus hand-picked
shapes that exercise each scope kind.
"""

from dataclasses import replace
from itertools import product
from random import Random

import pytest

from reference import reference_so
from sisa import compute_so, read_document
from treegen import (
    VOCAB,
    build_tree,
    head_vectors,
    random_tree,
    shaped_tree,
    vocab_lexicon,
    vocab_lists,
)

LEX = vocab_lexicon()
LISTS = vocab_lists()


@pytest.fixture(scope="module")
def rules():
    from conftest import DEFAULT_RULES

    from sisa import load_rules

    return load_rules(DEFAULT_RULES, LISTS)


def agree(tree, defs):
    """Oracle agreement, and the same float with and without the trace;
    returns the recorded trace."""
    recorded = compute_so(tree, LEX, defs, LISTS)
    quiet = compute_so(tree, LEX, defs, LISTS, record=False)
    assert quiet.sentence_so.hex() == recorded.sentence_so.hex()
    reference = reference_so(tree, LEX, defs, LISTS)
    assert recorded.sentence_so == pytest.approx(reference, abs=1e-9), (
        [(t.form, t.head, t.deprel) for t in tree.tokens],
        recorded.sentence_so,
        reference,
    )
    return recorded


def test_exhaustive_up_to_three_nodes(rules):
    for n in (1, 2, 3):
        for heads in head_vectors(n):
            for words in product(range(len(VOCAB)), repeat=n):
                agree(build_tree(heads, list(words)), rules)


def test_fixture_sentences(rules, fixtures, fixture_lexicon, wordlists, default_rules):
    for name in ("muy_grande", "no_es_bonito", "bueno_pero_caro", "no_es_eso", "no_muy_bueno"):
        tree = read_document(fixtures / f"{name}.conllu").sentences[0]
        engine = compute_so(tree, fixture_lexicon, default_rules, wordlists).sentence_so
        reference = reference_so(tree, fixture_lexicon, default_rules, wordlists)
        assert engine == pytest.approx(reference, abs=1e-12)


def test_random_trees_up_to_eight_nodes(rules):
    rng = Random(98173)
    for _ in range(400):
        agree(random_tree(rng, max_nodes=8), rules)


def test_hand_picked_shapes(rules):
    word = {form: i for i, (form, _, _) in enumerate(VOCAB)}
    cases = [
        # negation under intensification at one level
        ([3, 3, 0], [word["no"], word["muy"], word["bueno"]]),
        # adversative with subjective branches on both sides
        ([4, 4, 4, 0], [word["bueno"], word["pero"], word["malo"], word["si"]]),
        # irrealis chain: si -> bueno -> malo
        ([2, 3, 0], [word["si"], word["bueno"], word["malo"]]),
        # trigger at the root (forced application)
        ([0, 1, 1], [word["no"], word["bueno"], word["malo"]]),
        # deep chain exercising climb-through
        ([2, 3, 4, 5, 0], [word["no"], word["muy"], word["bueno"], word["malo"], word["bueno"]]),
    ]
    for heads, words in cases:
        agree(build_tree(heads, words), rules)


# -- operations that pass through levels --------------------------------------
#
# The default rules all climb one link, so every operation applies at its
# trigger's head. The rule sets below keep their triggers, transformations and
# scopes but change how far they climb: 0 applies at the trigger, 2 and 3 pass
# through one or two levels where nothing of theirs applies (and, in a shallow
# tree, are forced at the root), and the mixed set gives each rule its own
# countdown so that normal and forced batches meet at one root.


def with_deltas(rules, deltas):
    return tuple(replace(rule, delta=delta) for rule, delta in zip(rules, deltas))


DELTAS = {"delta0": (0, 0, 0, 0), "delta2": (2, 2, 2, 2), "delta3": (3, 3, 3, 3), "mixed": (0, 2, 3, 1)}


def batches_meet_at_root(tree, trace):
    """Whether the root dequeued a normal and a forced operation in one step."""
    forced = {app.forced for app in trace.nodes[tree.root_id - 1].applications}
    return forced == {False, True}


@pytest.mark.parametrize("name", sorted(DELTAS))
def test_passing_operations_on_random_trees(rules, name):
    defs = with_deltas(rules, DELTAS[name])
    assert [rule.delta for rule in defs] == list(DELTAS[name])
    rng = Random(5150)
    met = 0
    for _ in range(300):
        tree = random_tree(rng, max_nodes=10)
        met += batches_meet_at_root(tree, agree(tree, defs))
    # Countdowns of 2 or more reach past shallow trees' roots.
    assert met > 0 or name == "delta0"


@pytest.mark.parametrize("shape", ["star", "chain"])
@pytest.mark.parametrize("name", sorted(DELTAS))
def test_passing_operations_on_wide_and_deep_trees(rules, name, shape):
    defs = with_deltas(rules, DELTAS[name])
    rng = Random(f"{name}:{shape}")
    for _ in range(2):
        agree(shaped_tree(rng, 300, shape), defs)


def test_normal_and_forced_batches_meet_at_the_root(rules):
    # no -> bueno -> malo(root) <- muy: with every countdown at 2, the
    # negation reaches the root at 0 and applies there normally; the
    # intensification arrives with 1 left and is forced after it.
    word = {form: i for i, (form, _, _) in enumerate(VOCAB)}
    tree = build_tree([2, 3, 0, 3], [word["no"], word["bueno"], word["malo"], word["muy"]])
    trace = agree(tree, with_deltas(rules, DELTAS["delta2"]))
    assert not trace.nodes[1].applications
    root = trace.nodes[2].applications
    assert [(app.rule, app.trigger_id, app.forced) for app in root] == [
        ("negation", 1, False),
        ("intensification", 4, True),
    ]
