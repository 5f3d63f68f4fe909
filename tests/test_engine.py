import math
from dataclasses import astuple, replace
from random import Random

import pytest

from conftest import DEFAULT_RULES
from reference import reference_so
from sisa import DepTree, Token, compute_so, engine, load_rules, read_document
from sisa.engine import compile_rules
from sisa.lexicon import SentimentLexicon, WordList
from sisa.operations import (
    ALL,
    BRANCH,
    SHIFT,
    SUBJL,
    SUBJR,
    TARGET,
    WEIGHTING,
    OperationDefinition,
    ScopeSpec,
    Transformation,
    TriggerPredicate,
    parse_rules,
)
from treegen import VOCAB, build_tree, random_tree, vocab_lexicon, vocab_lists


def tree_from(fixtures, name):
    return read_document(fixtures / f"{name}.conllu").sentences[0]


def run_level(head_so, branches, operations):
    """Events of one batch that ``engine._apply_batch`` dequeues at a
    hand-built level, and the level total it returns.

    ``branches`` are ``(child_id, deprel, so)`` in surface order, and
    ``operations`` are ``(scopes, beta, origin_id)``: one weighting by beta
    each, dequeued in the order given. A weighting(0) moves the level's scope
    cursors as any operation does but changes no score; a weighting(-1)
    zeroes what it selects."""
    size = max((child_id for child_id, _, _ in branches), default=0) + 1
    subtree = [0.0] * size
    tokens = [(i, "w", "w", "X", 0, "dep") for i in range(1, size)]
    for child_id, deprel, so in branches:
        subtree[child_id] = so
        tokens[child_id - 1] = (child_id, "w", "w", "X", 0, deprel)
    plans = []
    batch = []
    for index, (scopes, beta, origin_id) in enumerate(operations):
        definition = OperationDefinition(
            "probe",
            TriggerPredicate(pos=frozenset({"X"})),
            Transformation(WEIGHTING, beta),
            delta=0,
            priority=0,
            scopes=tuple(scopes),
        )
        plans.append(compile_rules([definition]).plans[0])
        batch.append((False, 0, index + 1, index, origin_id, beta))
    kids = tuple(child_id for child_id, _, _ in branches)
    events = []
    total = engine._apply_batch(batch, plans, head_so, kids, subtree, tokens, events)
    return events, total


def scope_texts(head_so, branches, operations):
    """The scope text each operation of the batch records, such as
    "target", "subjl:1" or "none"."""
    events, _ = run_level(head_so, branches, operations)
    return [event[2] for event in events]


def probe(head_so, branches, scopes, origin_id):
    """Scope text of a one-operation weighting(0) batch."""
    (text,) = scope_texts(head_so, branches, [(scopes, 0.0, origin_id)])
    return text


class TestResolveScope:
    def test_target_matches_nonzero_head(self, default_rules):
        negation = {d.name: d for d in default_rules}["negation"]
        branches = [(1, "advmod", 0.0), (2, "cop", 0.0)]
        assert probe(3.5, branches, negation.scopes, origin_id=1) == "target"

    def test_subjl_picks_leftmost_nonzero_left_of_origin(self, default_rules):
        adversative = {d.name: d for d in default_rules}["adversative"]
        branches = [(1, "xcomp", 2.0), (2, "cc", 0.0), (4, "conj", -2.0)]
        assert probe(0.0, branches, adversative.scopes, origin_id=2) == "subjl:1"

    def test_no_match_without_all(self):
        scopes = (ScopeSpec(TARGET), ScopeSpec(BRANCH, "cop"))
        assert probe(0.0, [(1, "cop", 0.0)], scopes, origin_id=1) == "none"

    def test_branch_requires_nonzero_so(self):
        scopes = (ScopeSpec(BRANCH, "cop"),)
        branches = [(1, "cop", 0.0), (2, "cop", 1.5)]
        assert probe(3.5, branches, scopes, origin_id=9) == "b(cop):2"

    def test_subjr_picks_leftmost_right_of_origin(self):
        scopes = (ScopeSpec(SUBJR),)
        branches = [(1, "nsubj", 2.0), (2, "advmod", 0.0), (4, "obj", -1.0), (5, "obl", 3.0)]
        assert probe(3.5, branches, scopes, origin_id=2) == "subjr:4"

    def test_all_is_unconditional(self):
        scopes = (ScopeSpec(TARGET), ScopeSpec(ALL))
        assert probe(0.0, [], scopes, origin_id=1) == "all"

    def test_order_respected(self):
        scopes = (ScopeSpec(BRANCH, "cop"), ScopeSpec(TARGET))
        assert probe(1.0, [(1, "cop", 2.0)], scopes, origin_id=1) == "b(cop):1"


class TestComputeSo:
    def test_muy_grande(self, fixtures, fixture_lexicon, default_rules, wordlists):
        trace = compute_so(tree_from(fixtures, "muy_grande"), fixture_lexicon, default_rules, wordlists)
        assert trace.sentence_so == pytest.approx(2.3375, abs=1e-12)

    def test_no_es_bonito(self, fixtures, fixture_lexicon, default_rules, wordlists):
        trace = compute_so(tree_from(fixtures, "no_es_bonito"), fixture_lexicon, default_rules, wordlists)
        assert trace.sentence_so == pytest.approx(-0.5, abs=1e-12)

    def test_bueno_pero_caro(self, fixtures, fixture_lexicon, default_rules, wordlists):
        trace = compute_so(tree_from(fixtures, "bueno_pero_caro"), fixture_lexicon, default_rules, wordlists)
        # subjl: weighting(-0.25) on the 'bueno' branch, then sum with 'caro'.
        assert trace.sentence_so == pytest.approx(1.5 - 2.0, abs=1e-12)

    def test_no_trigger_sentence_is_lexicon_sum(self, fixtures, fixture_lexicon, default_rules, wordlists):
        tree = tree_from(fixtures, "roundtrip")  # "Esta casa es grande"
        trace = compute_so(tree, fixture_lexicon, default_rules, wordlists)
        assert trace.sentence_so == pytest.approx(1.87, abs=1e-12)

    def test_empty_rules_is_bag_of_lexicon(self, fixtures, fixture_lexicon):
        tree = tree_from(fixtures, "no_es_bonito")
        trace = compute_so(tree, fixture_lexicon, [])
        assert trace.sentence_so == 3.5
        assert all(not node.triggers and not node.applications for node in trace.nodes)

    def test_priority_intensify_then_negate(self, fixtures, fixture_lexicon, default_rules, wordlists):
        trace = compute_so(tree_from(fixtures, "no_muy_bueno"), fixture_lexicon, default_rules, wordlists)
        expected = (2.0 * 1.25) - 4.0
        assert trace.sentence_so == pytest.approx(expected, abs=1e-12)
        applied = [a.rule for a in trace.nodes[2].applications]
        assert applied == ["intensification", "negation"]

    def test_negation_backoff_to_all(self, fixtures, fixture_lexicon, default_rules, wordlists):
        trace = compute_so(tree_from(fixtures, "no_es_eso"), fixture_lexicon, default_rules, wordlists)
        assert trace.sentence_so == -4.0
        (app,) = trace.nodes[2].applications
        assert app.scope == "all"
        assert app.backoff

    def test_sentence_so_equals_root_subtree(self, fixtures, fixture_lexicon, default_rules, wordlists):
        tree = tree_from(fixtures, "bueno_pero_caro")
        trace = compute_so(tree, fixture_lexicon, default_rules, wordlists)
        root_record = next(n for n in trace.nodes if n.token_id == tree.root_id)
        assert trace.sentence_so == root_record.subtree_so


class TestGoldenTraces:
    @pytest.mark.parametrize(
        "name",
        [
            "muy_grande",
            "no_es_bonito",
            "bueno_pero_caro",
            "no_es_eso",
            "no_muy_bueno",
            # 'pero' tagged CCONJ, the UD v2 name of CONJ, in the v1 tree
            "bueno_pero_caro_cconj",
            # The UD v2 tree: 'pero' hangs from 'caro', the conjunct after
            # it. The adversative rule finds no branch on its left and is
            # discarded, so the sentence scores 0 instead of -0.5. A fix to
            # the rule shows up as a change to this golden.
            "bueno_pero_caro_v2_tree",
            # 40 tokens of the six-word fixture vocabulary on one root, and
            # in one chain: large batches, their order and their float bits.
            "star_fanout",
            "chain_fanout",
        ],
    )
    def test_trace_matches_golden_bytes(
        self, name, fixtures, fixture_lexicon, default_rules, wordlists
    ):
        trace = compute_so(tree_from(fixtures, name), fixture_lexicon, default_rules, wordlists)
        golden = (fixtures / "golden" / f"{name}.trace").read_text(encoding="utf-8")
        assert trace.render() == golden


def chain_tree(forms_upos_deprels):
    """Build 1 <- 2 <- ... <- n? No: explicit (form, upos, head, deprel) tuples."""
    tokens = tuple(
        Token(i + 1, form, form, upos, head, deprel)
        for i, (form, upos, head, deprel) in enumerate(forms_upos_deprels)
    )
    return DepTree(tokens)


class TestDepthAndForcing:
    @pytest.fixture()
    def lists(self):
        return {"negators": WordList("negators", {"no": None})}

    def deep_negation_rule(self, lists, delta):
        text = f"""
[operation]
name = deepneg
trigger.forms = @negators
trigger.deprel = neg,advmod
tau = shift(4)
delta = {delta}
priority = 2
scope = target,all
"""
        return parse_rules(text, lists)

    def test_delta_two_passes_through_intermediate_level(self, lists, fixture_lexicon):
        # no -> bueno -> malo(root): delta=2 climbs past 'bueno' untouched.
        tree = chain_tree(
            [
                ("no", "ADV", 2, "advmod"),
                ("bueno", "ADJ", 3, "amod"),
                ("malo", "ADJ", 0, "root"),
            ]
        )
        defs = self.deep_negation_rule(lists, delta=2)
        trace = compute_so(tree, fixture_lexicon, defs, lists)
        assert not trace.nodes[1].applications
        # shift_4 applied to malo's lexical -3 -> +1; bueno's 2 untouched.
        assert trace.sentence_so == pytest.approx(1.0 + 2.0, abs=1e-12)

    def test_shallow_tree_force_applies_at_root(self, lists, fixture_lexicon):
        # delta=2 but the trigger sits one level below the root.
        tree = chain_tree(
            [
                ("no", "ADV", 2, "advmod"),
                ("bonito", "ADJ", 0, "root"),
            ]
        )
        defs = self.deep_negation_rule(lists, delta=2)
        trace = compute_so(tree, fixture_lexicon, defs, lists)
        (app,) = trace.nodes[1].applications
        assert app.forced
        assert trace.sentence_so == pytest.approx(-0.5, abs=1e-12)

    def test_discarded_when_no_scope_matches(self, lists, fixture_lexicon):
        text = """
[operation]
name = pickyneg
trigger.forms = @negators
trigger.deprel = neg,advmod
tau = shift(4)
delta = 1
priority = 2
scope = b(cop)
"""
        defs = parse_rules(text, lists)
        tree = chain_tree(
            [
                ("no", "ADV", 2, "advmod"),
                ("bonito", "ADJ", 0, "root"),
            ]
        )
        trace = compute_so(tree, fixture_lexicon, defs, lists)
        (app,) = trace.nodes[1].applications
        assert app.discarded
        assert trace.sentence_so == 3.5

    def test_missing_booster_warns_and_noops(self, fixture_lexicon):
        lists = {"boosters": WordList("boosters", {"muy": 0.25})}
        text = """
[operation]
name = intensify
trigger.forms = bastante
trigger.deprel = advmod
tau = weighting(@boosters)
delta = 1
priority = 3
scope = target
"""
        defs = parse_rules(text, lists)
        tree = chain_tree(
            [
                ("bastante", "ADV", 2, "advmod"),
                ("bonito", "ADJ", 0, "root"),
            ]
        )
        trace = compute_so(tree, fixture_lexicon, defs, lists)
        assert trace.sentence_so == 3.5
        assert trace.warnings and "bastante" in trace.warnings[0]
        assert trace.nodes[0].triggers[0].missing_booster

    def test_deep_chain_does_not_blow_recursion(self, fixture_lexicon):
        n = 5000
        tokens = [Token(1, "bonito", "bonito", "ADJ", 0, "root")]
        tokens += [Token(i, "x", "x", "X", i - 1, "dep") for i in range(2, n + 1)]
        tree = DepTree(tuple(tokens))
        trace = compute_so(tree, fixture_lexicon, [])
        assert trace.sentence_so == 3.5

    def test_determinism_byte_identical(self, fixtures, fixture_lexicon, default_rules, wordlists):
        tree = tree_from(fixtures, "no_muy_bueno")
        first = compute_so(tree, fixture_lexicon, default_rules, wordlists).render()
        second = compute_so(tree, fixture_lexicon, default_rules, wordlists).render()
        assert first == second


class TestDequeueOrder:
    """Ties in priority and trigger fall back to definition order, and forced
    operations come after the rest whatever their priority."""

    RULES = """
[operation]
name = zeta
trigger.forms = muy
trigger.deprel = advmod
tau = weighting(0.5)
delta = 1
priority = 1
scope = target

[operation]
name = alpha
trigger.forms = muy
trigger.deprel = advmod
tau = weighting(1)
delta = 1
priority = 1
scope = target

[operation]
name = deep
trigger.forms = no
trigger.deprel = advmod
tau = shift(4)
delta = 2
priority = 9
scope = target

[operation]
name = late
trigger.forms = no
trigger.deprel = advmod
tau = weighting(-0.5)
delta = 1
priority = 0
scope = target
"""

    def test_equal_priority_rules_and_forced_batch_at_root(self, fixture_lexicon):
        # no -> bueno(root) <- muy: 'muy' fires zeta and alpha, both priority
        # 1; 'no' fires late (priority 0) and deep, whose two links the root
        # cuts short, so it is forced there.
        tree = chain_tree(
            [
                ("no", "ADV", 3, "advmod"),
                ("muy", "ADV", 3, "advmod"),
                ("bueno", "ADJ", 0, "root"),
            ]
        )
        defs = parse_rules(self.RULES, {})
        trace = compute_so(tree, fixture_lexicon, defs)
        assert [astuple(app) for app in trace.nodes[2].applications] == [
            ("zeta", 2, "target", 2.0, 3.0, False, False, False),
            ("alpha", 2, "target", 3.0, 6.0, False, False, False),
            ("late", 1, "target", 6.0, 3.0, False, False, False),
            ("deep", 1, "target", 3.0, -1.0, True, False, False),
        ]
        assert trace.sentence_so == -1.0 == reference_so(tree, fixture_lexicon, defs)
        assert compute_so(tree, fixture_lexicon, defs, record=False).sentence_so == -1.0


class TestScopeCursors:
    """Scope lookups after an earlier operation of the same batch zeroed the
    branch they would have picked. Each zeroing is a weighting(-1), whose
    own scope text shows the branch it zeroed."""

    def test_branch_moves_to_next_live_with_deprel(self):
        cop = (ScopeSpec(BRANCH, "cop"),)
        branches = [(1, "cop", 2.0), (2, "obj", 1.0), (4, "cop", 1.5)]
        probe, zero = (cop, 0.0, 3), (cop, -1.0, 3)
        assert scope_texts(0.0, branches, [probe, zero, probe, zero, probe]) == [
            "b(cop):1",
            "b(cop):1",
            "b(cop):4",
            "b(cop):4",
            "none",
        ]

    def test_subjl_moves_to_next_live_left_of_origin(self):
        subjl = (ScopeSpec(SUBJL),)
        branches = [(1, "nsubj", 2.0), (2, "obj", 3.0), (5, "obl", 1.0)]
        probe, zero = (subjl, 0.0, 4), (subjl, -1.0, 4)
        # After both zeroings the next live branch (5) lies right of origin 4.
        assert scope_texts(0.0, branches, [probe, zero, probe, zero, probe, (subjl, 0.0, 6)]) == [
            "subjl:1",
            "subjl:1",
            "subjl:2",
            "subjl:2",
            "none",
            "subjl:5",
        ]

    def test_subjr_moves_to_next_live_right_of_origin(self):
        subjr = (ScopeSpec(SUBJR),)
        branches = [
            (1, "nsubj", 2.0),
            (2, "advmod", 1.0),
            (4, "obj", 0.0),
            (5, "obl", 3.0),
            (6, "obl", -1.0),
        ]
        operations = [
            (subjr, 0.0, 1),
            (subjr, -1.0, 1),
            # Skips the branch that was 0 from the start and the one just zeroed.
            (subjr, 0.0, 1),
            (subjr, 0.0, 0),
            (subjr, -1.0, 4),
            (subjr, 0.0, 1),
            (subjr, 0.0, 5),
            (subjr, 0.0, 6),
        ]
        assert scope_texts(0.0, branches, operations) == [
            "subjr:2",
            "subjr:2",
            "subjr:5",
            "subjr:1",
            "subjr:5",
            "subjr:6",
            "subjr:6",
            "none",
        ]

    def test_nan_branch_counts_as_live(self):
        nan = float("nan")
        branches = [(1, "nsubj", nan), (2, "nsubj", 1.0)]
        operations = [
            ((ScopeSpec(BRANCH, "nsubj"),), 0.0, 3),
            ((ScopeSpec(SUBJL),), 0.0, 3),
            ((ScopeSpec(SUBJR),), 0.0, 0),
        ]
        assert scope_texts(0.0, branches, operations) == ["b(nsubj):1", "subjl:1", "subjr:1"]

    def test_total_follows_branch_changes(self):
        obj = (ScopeSpec(BRANCH, "obj"),)
        _, total = run_level(1.0, [(1, "obj", 2.0)], [((ScopeSpec(TARGET),), 0.0, 1)])
        assert total == 3.0
        # 2 -> 0.5; all sees 1 + 0.5 and doubles it; 0.5 -> 1 after that.
        operations = [(obj, -0.75, 1), ((ScopeSpec(ALL),), 1.0, 1), (obj, 1.0, 1)]
        events, total = run_level(1.0, [(1, "obj", 2.0)], operations)
        assert [event[2:5] for event in events] == [
            ("b(obj):1", 2.0, 0.5),
            ("all", 1.5, 3.0),
            ("b(obj):1", 0.5, 1.0),
        ]
        assert total == 1.0 + 1.0 + 1.5

    def test_branch_change_after_all_backoff(self):
        # malo <- pero, no -> muy(root): negation backs off to all (-3 -> 1),
        # then the adversative damps the malo branch (-3 -> -2.25), so the
        # level total is 0 + -2.25 + 4.
        lists = vocab_lists()
        defs = load_rules(DEFAULT_RULES, lists)
        word = {form: i for i, (form, _, _) in enumerate(VOCAB)}
        tree = build_tree([4, 4, 4, 0], [word["malo"], word["pero"], word["no"], word["muy"]])
        trace = compute_so(tree, vocab_lexicon(), defs, lists)
        assert [app.scope for app in trace.nodes[3].applications] == ["all", "subjl:1"]
        assert trace.sentence_so == 1.75 == reference_so(tree, vocab_lexicon(), defs, lists)


def star_heads(rng, n):
    root = rng.randint(1, n)
    return [0 if i == root else root for i in range(1, n + 1)]


def chain_heads(n):
    return [i + 1 if i < n else 0 for i in range(1, n + 1)]


class TestWideAndDeep:
    """Oracle equivalence on trees far wider and deeper than the exhaustive
    sweeps reach, over the trigger-dense fixture vocabulary."""

    @pytest.fixture(scope="class")
    def vocab(self):
        lists = vocab_lists()
        return vocab_lexicon(), lists, load_rules(DEFAULT_RULES, lists)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    @pytest.mark.parametrize("shape", ["star", "chain"])
    def test_matches_reference(self, vocab, shape, seed):
        lex, lists, defs = vocab
        rng = Random(seed)
        for n in (200, 400, 600):
            heads = star_heads(rng, n) if shape == "star" else chain_heads(n)
            tree = build_tree(heads, [rng.randrange(len(VOCAB)) for _ in range(n)])
            engine = compute_so(tree, lex, defs, lists).sentence_so
            reference = reference_so(tree, lex, defs, lists)
            assert math.isfinite(engine)
            assert engine == pytest.approx(reference, rel=1e-9, abs=1e-9), (shape, seed, n)


class TestRecordingSwitch:
    """Recording off changes nothing but the missing node records."""

    def same_outcome(self, tree, lex, defs, lists):
        on = compute_so(tree, lex, defs, lists)
        off = compute_so(tree, lex, defs, lists, record=False)
        assert repr(off.sentence_so) == repr(on.sentence_so)
        assert off.warnings == on.warnings
        assert off.nodes == []
        assert len(on.nodes) == len(tree)

    @pytest.mark.parametrize(
        "name",
        ["muy_grande", "no_es_bonito", "bueno_pero_caro", "no_es_eso", "no_muy_bueno", "roundtrip"],
    )
    def test_fixtures(self, name, fixtures, fixture_lexicon, default_rules, wordlists):
        for tree in read_document(fixtures / f"{name}.conllu").sentences:
            self.same_outcome(tree, fixture_lexicon, default_rules, wordlists)

    def test_random_trees_with_and_without_booster_values(self):
        lex = vocab_lexicon()
        lists = vocab_lists()
        defs = load_rules(DEFAULT_RULES, lists)
        # 'muy' still triggers intensification, but has no weighting amount.
        valueless = dict(lists, boosters=WordList("boosters", {"muy": None}))
        rng = Random(4242)
        for _ in range(300):
            tree = random_tree(rng, max_nodes=12)
            self.same_outcome(tree, lex, defs, lists)
            self.same_outcome(tree, lex, defs, valueless)
        wide = build_tree(star_heads(rng, 300), [0] * 300)
        self.same_outcome(wide, lex, defs, valueless)
        assert compute_so(wide, lex, defs, valueless, record=False).warnings


def fixture_trees(fixtures):
    """Every sentence of every CoNLL-U fixture, corpus items included."""
    paths = sorted(fixtures.glob("*.conllu")) + sorted((fixtures / "corpus").glob("*.conllu"))
    return [tree for path in paths for tree in read_document(path).sentences]


def neutralized_lexicon():
    """A vocabulary lexicon with a neutralized entry, a wildcard entry and
    scores whose float sums depend on the order they are added in."""
    lex = SentimentLexicon(name="neutralized")
    lex.add("bueno", "ADJ", 0.1)
    lex.add("malo", "ADJ", -0.7)
    lex.add("muy", "ADV", 0.2)
    lex.add("pero", "*", 1.5)
    lex.add("pero", "*", -1.5)
    lex.add("si", "*", 0.3)
    return lex


def count_compiles(monkeypatch):
    """The rule sets ``engine.compile_rules`` is called with from now on."""
    calls = []
    compile_rules = engine.compile_rules

    def counting(defs):
        calls.append(defs)
        return compile_rules(defs)

    monkeypatch.setattr(engine, "compile_rules", counting)
    return calls


def copies(defs):
    """Equal definitions that are new objects, so compute_so compiles them."""
    return [replace(definition) for definition in defs]


class TestCompiledRules:
    """A rule set is compiled once, on its first use, and the table it keeps
    scores like a rule set compiled for one call; a pass without a trace
    scores like the recorded pass."""

    def same(self, monkeypatch, trees, lex, defs, lists):
        fresh = [compute_so(tree, lex, copies(defs), lists) for tree in trees]
        calls = count_compiles(monkeypatch)
        for tree, plain in zip(trees, fresh):
            once = compute_so(tree, lex, defs, lists)
            assert once.render() == plain.render()
            assert once.sentence_so.hex() == plain.sentence_so.hex()
            assert once.warnings == plain.warnings
            quiet = compute_so(tree, lex, defs, lists, record=False)
            assert quiet.sentence_so.hex() == plain.sentence_so.hex()
        assert len(calls) == 1

    def test_reused_across_random_trees(self, monkeypatch):
        lex = neutralized_lexicon()
        lists = vocab_lists()
        defs = load_rules(DEFAULT_RULES, lists)
        rng = Random(606)
        trees = [random_tree(rng, max_nodes=10) for _ in range(400)]
        trees.append(build_tree(star_heads(rng, 300), [rng.randrange(len(VOCAB)) for _ in range(300)]))
        trees.append(build_tree(chain_heads(300), [1, 0] * 150))
        self.same(monkeypatch, trees, lex, defs, lists)

    def test_reused_across_fixtures(
        self, monkeypatch, fixtures, fixture_lexicon, default_rules, wordlists
    ):
        trees = fixture_trees(fixtures)
        assert len(trees) >= 10
        self.same(monkeypatch, trees, fixture_lexicon, default_rules, wordlists)

    def test_compiled_table_follows_definition_order(self, default_rules):
        compiled = compile_rules(default_rules)
        assert [rule[0] for rule in compiled.triggers] == default_rules
        assert [rule[4] for rule in compiled.triggers] == list(range(len(default_rules)))
        assert [plan[0] for plan in compiled.plans] == [d.name for d in default_rules]
        assert not compiled.unindexed

    def test_one_rule_set_compiles_once(self, monkeypatch, fixtures, fixture_lexicon, wordlists):
        rules = tuple(load_rules(DEFAULT_RULES, wordlists))
        calls = count_compiles(monkeypatch)
        tree = tree_from(fixtures, "no_es_bonito")
        for _ in range(50):
            assert compute_so(tree, fixture_lexicon, rules, wordlists).sentence_so == -0.5
        # A list holding the same definitions in the same order is the same rule set.
        compute_so(tree, fixture_lexicon, list(rules), wordlists, record=False)
        assert calls == [rules]

    def test_no_rules_between_calls_keep_the_table(
        self, monkeypatch, fixtures, fixture_lexicon, wordlists
    ):
        rules = tuple(load_rules(DEFAULT_RULES, wordlists))
        calls = count_compiles(monkeypatch)
        tree = tree_from(fixtures, "no_es_bonito")
        for _ in range(20):
            assert compute_so(tree, fixture_lexicon, (), wordlists).sentence_so == 3.5
            assert compute_so(tree, fixture_lexicon, rules, wordlists).sentence_so == -0.5
        assert calls == [rules]

    def test_the_slot_holds_one_rule_set(self, monkeypatch, fixtures, fixture_lexicon, wordlists):
        first = tuple(load_rules(DEFAULT_RULES, wordlists))
        second = tuple(copies(first))
        calls = count_compiles(monkeypatch)
        tree = tree_from(fixtures, "no_es_bonito")
        for rules in (first, second, first, first):
            compute_so(tree, fixture_lexicon, rules, wordlists)
        assert [rules is first for rules in calls] == [True, False, True]

    def test_rules_changed_in_place_are_compiled_again(
        self, monkeypatch, fixtures, fixture_lexicon, wordlists
    ):
        rules = load_rules(DEFAULT_RULES, wordlists)
        (negation,) = [rule for rule in rules if rule.name == "negation"]
        rules.remove(negation)
        tree = tree_from(fixtures, "no_es_bonito")
        calls = count_compiles(monkeypatch)
        assert compute_so(tree, fixture_lexicon, rules, wordlists).sentence_so == 3.5
        # The same list object gains a rule, which must fire.
        rules.append(negation)
        trace = compute_so(tree, fixture_lexicon, rules, wordlists)
        assert trace.sentence_so == -0.5
        assert [t.rule for node in trace.nodes for t in node.triggers] == ["negation"]
        # A rule replaced by another at the same position must apply as the new one.
        rules[-1] = replace(negation, transform=Transformation(SHIFT, 1.0))
        assert compute_so(tree, fixture_lexicon, rules, wordlists).sentence_so == 2.5
        assert len(calls) == 3

    @pytest.mark.parametrize("rules", [(), []], ids=["tuple", "list"])
    def test_without_rules_the_quiet_pass_is_bit_equal_to_the_recorded_pass(self, rules):
        lex = neutralized_lexicon()
        rng = Random(77)
        trees = [random_tree(rng, max_nodes=12) for _ in range(300)]
        trees.append(build_tree(star_heads(rng, 400), [rng.randrange(len(VOCAB)) for _ in range(400)]))
        trees.append(build_tree(chain_heads(400), [rng.randrange(len(VOCAB)) for _ in range(400)]))
        for tree in trees:
            recorded = compute_so(tree, lex, rules)
            free = compute_so(tree, lex, rules, record=False)
            assert free.sentence_so.hex() == recorded.sentence_so.hex()
            assert free.nodes == [] and free.warnings == []
            assert free.sentence_so == reference_so(tree, lex, ())

    UNINDEXED = """
[operation]
name = adjectives
trigger.forms = *
trigger.pos = ADJ
trigger.deprel = amod
tau = weighting(0.5)
delta = 1
priority = 1
scope = target,all

[operation]
name = literal
trigger.forms = NO,Nunca
trigger.deprel = advmod
tau = shift(1)
delta = 1
priority = 2
scope = target,subjr,all
"""

    def test_unindexed_rule_runs_on_every_node(self):
        lists = vocab_lists()
        defs = parse_rules(self.UNINDEXED, lists)
        compiled = compile_rules(defs)
        assert compiled.unindexed
        assert compiled.words == {"no", "nunca"}
        assert not compile_rules(defs[1:]).unindexed
        lex = neutralized_lexicon()
        rng = Random(31)
        fired = set()
        for _ in range(300):
            tree = random_tree(rng, max_nodes=9)
            trace = compute_so(tree, lex, defs, lists)
            fired.update(t.rule for node in trace.nodes for t in node.triggers)
            assert trace.sentence_so == pytest.approx(
                reference_so(tree, lex, defs, lists), rel=1e-12, abs=1e-12
            )
        # 'malo' is the vocabulary's only amod adjective; 'no' its only
        # literal trigger, matched after lowercasing the rule's forms.
        assert fired == {"adjectives", "literal"}

    def test_trigger_word_matches_by_lemma_and_case(self):
        lists = vocab_lists()
        defs = parse_rules(self.UNINDEXED, lists)[1:]
        lex = vocab_lexicon()
        for form, lemma in (("NO", "no"), ("Nunca", "nunca"), ("jamás", "NUNCA"), ("nop", "nop")):
            tree = DepTree(
                (
                    Token(1, form, lemma, "ADV", 2, "advmod:neg"),
                    Token(2, "bueno", "bueno", "ADJ", 0, "root"),
                )
            )
            trace = compute_so(tree, lex, defs, lists)
            fires = [t.rule for t in trace.nodes[0].triggers]
            assert fires == ([] if form == "nop" else ["literal"])
            assert trace.sentence_so == reference_so(tree, lex, defs, lists)


class TestRenderLines:
    """Byte-exact render lines that no golden trace holds: forced applies and
    discards, an apply that is both forced and backed off, a trigger with no
    booster value and the warning it raises."""

    LISTS = {
        "negators": WordList("negators", {"no": None}),
        "boosters": WordList("boosters", {"muy": 0.25, "bastante": None}),
    }
    RULES = """
[operation]
name = deepneg
trigger.forms = @negators
trigger.deprel = advmod
tau = shift(4)
delta = 2
priority = 2
scope = target,all

[operation]
name = pickyneg
trigger.forms = @negators
trigger.deprel = advmod
tau = shift(4)
delta = 2
priority = 1
scope = b(cop)

[operation]
name = intensify
trigger.forms = @boosters
trigger.deprel = advmod
tau = weighting(@boosters)
delta = 1
priority = 3
scope = target,b(amod)
"""
    CASES = {
        "forced_target_and_missing_booster": (
            [
                ("bastante", "ADV", 3, "advmod"),
                ("no", "ADV", 3, "advmod"),
                ("bonito", "ADJ", 0, "root"),
            ],
            "node\t1\tbastante\tlexical\t0\n"
            "\ttrigger\tintensify\tdelta\t1\tbeta\t0\tmissing-booster\n"
            "\tsubtree\t0\n"
            "node\t2\tno\tlexical\t0\n"
            "\ttrigger\tdeepneg\tdelta\t2\n"
            "\ttrigger\tpickyneg\tdelta\t2\n"
            "\tsubtree\t0\n"
            "node\t3\tbonito\tlexical\t3.5\n"
            "\tapply\tintensify\ttrigger\t1\tscope\ttarget\tbefore\t3.5\tafter\t3.5\n"
            "\tapply\tdeepneg\ttrigger\t2\tscope\ttarget\tbefore\t3.5\tafter\t-0.5\tforced\n"
            "\tdiscard\tpickyneg\ttrigger\t2\tforced\n"
            "\tsubtree\t-0.5\n"
            "warn\trule intensify: no booster value for trigger 'bastante' (token 1); using 0\n"
            "sentence\t-0.5\n",
        ),
        "forced_backoff_and_booster_value": (
            [
                ("no", "ADV", 2, "advmod"),
                ("eso", "PRON", 0, "root"),
                ("malo", "ADJ", 2, "amod"),
                ("muy", "ADV", 3, "advmod"),
            ],
            "node\t1\tno\tlexical\t0\n"
            "\ttrigger\tdeepneg\tdelta\t2\n"
            "\ttrigger\tpickyneg\tdelta\t2\n"
            "\tsubtree\t0\n"
            "node\t2\teso\tlexical\t0\n"
            "\tapply\tdeepneg\ttrigger\t1\tscope\tall\tbefore\t-3.75\tafter\t0.25\tforced\tbackoff\n"
            "\tdiscard\tpickyneg\ttrigger\t1\tforced\n"
            "\tsubtree\t0.25\n"
            "node\t3\tmalo\tlexical\t-3\n"
            "\tapply\tintensify\ttrigger\t4\tscope\ttarget\tbefore\t-3\tafter\t-3.75\n"
            "\tsubtree\t-3.75\n"
            "node\t4\tmuy\tlexical\t0\n"
            "\ttrigger\tintensify\tdelta\t1\tbeta\t0.25\n"
            "\tsubtree\t0\n"
            "sentence\t0.25\n",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_render_matches_golden_text(self, case, fixture_lexicon):
        rows, golden = self.CASES[case]
        tree = chain_tree(rows)
        defs = parse_rules(self.RULES, self.LISTS)
        assert compute_so(tree, fixture_lexicon, defs, self.LISTS).render() == golden


def oracle_render(nodes, warnings, sentence_so):
    """The trace text as rendered from :class:`NodeTrace` records, with the
    score formatter written out in full: an independent reader of the same
    records as ``SoTrace.render``."""

    def fmt(value):
        value = float(value)
        if value == 0:
            value = 0.0
        return format(value, ".12g")

    lines = []
    for node in nodes:
        lines.append(f"node\t{node.token_id}\t{node.form}\tlexical\t{fmt(node.lexical_so)}")
        for trig in node.triggers:
            line = f"\ttrigger\t{trig.rule}\tdelta\t{trig.delta}"
            if trig.beta is not None:
                line += f"\tbeta\t{fmt(trig.beta)}"
            if trig.missing_booster:
                line += "\tmissing-booster"
            lines.append(line)
        for app in node.applications:
            if app.discarded:
                line = f"\tdiscard\t{app.rule}\ttrigger\t{app.trigger_id}"
                if app.forced:
                    line += "\tforced"
                lines.append(line)
                continue
            line = (
                f"\tapply\t{app.rule}\ttrigger\t{app.trigger_id}\tscope\t{app.scope}"
                f"\tbefore\t{fmt(app.before)}\tafter\t{fmt(app.after)}"
            )
            if app.forced:
                line += "\tforced"
            if app.backoff:
                line += "\tbackoff"
            lines.append(line)
        lines.append(f"\tsubtree\t{fmt(node.subtree_so)}")
    for warning in warnings:
        lines.append(f"warn\t{warning}")
    lines.append(f"sentence\t{fmt(sentence_so)}")
    return "\n".join(lines) + "\n"


class TestFlatRecords:
    """A recorded trace is read two ways, by ``render`` straight from its
    flat records and through the :class:`NodeTrace` records of ``nodes``;
    both must tell the same story."""

    # One climb per rule, in the default rule order; 1 is the default.
    DELTAS = ((0, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3), (0, 2, 3, 1))

    def test_render_agrees_with_the_node_records(self):
        lex = neutralized_lexicon()
        lists = vocab_lists()
        # 'muy' still triggers intensification, but has no weighting amount.
        valueless = dict(lists, boosters=WordList("boosters", {"muy": None}))
        rules = load_rules(DEFAULT_RULES, lists)
        rng = Random(1106)
        seen = {"forced": 0, "discarded": 0, "backoff": 0, "missing": 0}
        for deltas in self.DELTAS:
            defs = [replace(rule, delta=d) for rule, d in zip(rules, deltas)]
            trees = [random_tree(rng, max_nodes=10) for _ in range(150)]
            trees.append(build_tree(star_heads(rng, 60), [rng.randrange(len(VOCAB)) for _ in range(60)]))
            for tree in trees:
                for word_lists in (lists, valueless):
                    trace = compute_so(tree, lex, defs, word_lists)
                    quiet = compute_so(tree, lex, defs, word_lists, record=False)
                    assert quiet.sentence_so.hex() == trace.sentence_so.hex()
                    assert quiet.warnings == trace.warnings
                    assert quiet.nodes == []
                    nodes = trace.nodes
                    assert trace.nodes is nodes and trace.nodes == nodes
                    assert [node.token_id for node in nodes] == list(range(1, len(tree) + 1))
                    assert nodes[tree.root_id - 1].subtree_so == trace.sentence_so
                    assert trace.render() == oracle_render(nodes, trace.warnings, trace.sentence_so)
                    for node in nodes:
                        seen["missing"] += sum(t.missing_booster for t in node.triggers)
                        for app in node.applications:
                            seen["forced"] += app.forced
                            seen["discarded"] += app.discarded
                            seen["backoff"] += app.backoff
        assert all(seen.values()), seen

    def test_render_goldens_agree_with_the_node_records(self, fixture_lexicon):
        case = TestRenderLines
        defs = parse_rules(case.RULES, case.LISTS)
        for rows, golden in case.CASES.values():
            trace = compute_so(chain_tree(rows), fixture_lexicon, defs, case.LISTS)
            assert oracle_render(trace.nodes, trace.warnings, trace.sentence_so) == golden

    def test_records_are_built_only_when_nodes_is_read(
        self, monkeypatch, fixtures, fixture_lexicon, default_rules, wordlists
    ):
        tree = tree_from(fixtures, "bueno_pero_caro")
        golden = (fixtures / "golden" / "bueno_pero_caro.trace").read_text(encoding="utf-8")

        def refuse(*args, **kwargs):
            raise AssertionError("record object built before .nodes was read")

        with monkeypatch.context() as patch:
            for name in ("NodeTrace", "TriggerRecord", "ApplyRecord"):
                patch.setattr(engine, name, refuse)
            trace = compute_so(tree, fixture_lexicon, default_rules, wordlists)
            assert trace.render() == golden
        assert [app.scope for app in trace.nodes[0].applications] == ["subjl:2"]
        assert trace.render() == golden
