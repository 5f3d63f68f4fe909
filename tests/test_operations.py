import pytest

from conftest import DEFAULT_RULES, bom_copy
from sisa import DepTree, RuleConfigError, Token, compute_so, load_rules
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
    apply_shift,
    apply_weighting,
    parse_rules,
)


class TestTransforms:
    def test_weighting_muy_grande(self):
        assert apply_weighting(0.25, 1.87) == pytest.approx(2.3375, abs=1e-12)

    def test_weighting_damping(self):
        assert apply_weighting(-0.25, 4.0) == 3.0

    def test_weighting_of_zero_is_zero(self):
        for beta in (-2.0, -1.0, 0.0, 0.25, 7.5):
            assert apply_weighting(beta, 0.0) == 0.0

    def test_shift_nice(self):
        assert apply_shift(4, 3.5) == -0.5

    def test_shift_negative_branch(self):
        assert apply_shift(4, -2.0) == 2.0

    def test_shift_at_zero_takes_nonnegative_branch(self):
        assert apply_shift(4, 0.0) == -4.0


class TestMatches:
    """Trigger matching as the engine does it: the token under test hangs off
    a root, and the rules that fired on it are read from the trace."""

    @pytest.fixture()
    def fired(self, wordlists):
        def fired(definition, form="no", lemma=None, upos="ADV", deprel="advmod"):
            token = Token(1, form, lemma if lemma is not None else form, upos, 2, deprel)
            root = Token(2, "bonito", "bonito", "ADJ", 0, "root")
            trace = compute_so(
                DepTree((token, root)), SentimentLexicon("empty"), [definition], wordlists
            )
            return [trigger.rule for trigger in trace.nodes[0].triggers] == [definition.name]

        return fired

    @pytest.fixture()
    def negation(self, default_rules):
        return {d.name: d for d in default_rules}["negation"]

    @pytest.fixture()
    def intensification(self, default_rules):
        return {d.name: d for d in default_rules}["intensification"]

    def test_negation_matches_advmod_no(self, fired, negation):
        assert fired(negation, "no", upos="ADV", deprel="advmod")

    def test_negation_rejects_wrong_deprel(self, fired, negation):
        assert not fired(negation, "no", deprel="nsubj")

    def test_intensification_matches_muy(self, fired, intensification):
        assert fired(intensification, "muy", upos="ADV", deprel="advmod")

    def test_intensification_rejects_wrong_pos(self, fired, intensification):
        assert not fired(intensification, "muy", upos="NOUN", deprel="advmod")

    def test_form_is_case_insensitive(self, fired, negation):
        assert fired(negation, "No")
        assert fired(negation, "No", lemma="decir")

    def test_lemma_fallback(self, fired, negation):
        assert fired(negation, "NO-", lemma="no")

    def test_subtyped_deprel_matches_bare_prefix(self, fired, negation):
        assert fired(negation, "no", deprel="advmod:neg")

    def test_literal_form_set(self, fired):
        pred = TriggerPredicate(forms=frozenset({"jamas"}), deprel=frozenset({"advmod"}))
        literal = OperationDefinition(
            "literal", pred, Transformation(SHIFT, 4.0), 1, 0, (ScopeSpec(ALL),)
        )
        assert fired(literal, "Jamas")
        assert not fired(literal, "nada")

    def test_all_wildcards_rejected(self):
        with pytest.raises(RuleConfigError):
            TriggerPredicate()


class TestDefaultRules:
    def test_four_definitions_in_order(self, default_rules):
        assert [d.name for d in default_rules] == [
            "intensification",
            "adversative",
            "negation",
            "irrealis",
        ]

    def test_parameters(self, default_rules):
        by_name = {d.name: d for d in default_rules}

        intens = by_name["intensification"]
        assert (intens.delta, intens.priority) == (1, 3)
        assert intens.transform.kind == WEIGHTING
        assert intens.transform.booster_source == "boosters"
        assert intens.trigger.pos == frozenset({"ADV", "ADJ"})
        assert intens.trigger.deprel == frozenset({"advmod", "amod", "nmod"})
        assert [str(s) for s in intens.scopes] == ["target", "b(advmod)", "b(amod)"]

        adv = by_name["adversative"]
        assert (adv.delta, adv.priority) == (1, 1)
        assert adv.transform == Transformation(WEIGHTING, -0.25)
        assert adv.trigger.pos == frozenset({"CONJ", "CCONJ", "SCONJ"})
        assert adv.trigger.deprel == frozenset({"cc", "advmod", "mark"})
        assert [s.kind for s in adv.scopes] == [SUBJL]

        neg = by_name["negation"]
        assert (neg.delta, neg.priority) == (1, 2)
        assert neg.transform == Transformation(SHIFT, 4.0)
        assert neg.trigger.pos is None
        assert neg.trigger.deprel == frozenset({"neg", "advmod"})
        assert [str(s) for s in neg.scopes] == [
            "target",
            "b(root)",
            "b(cop)",
            "b(nsubj)",
            "subjr",
            "all",
        ]

        irr = by_name["irrealis"]
        assert (irr.delta, irr.priority) == (1, 3)
        assert irr.transform == Transformation(WEIGHTING, -1.0)
        assert irr.trigger.deprel == frozenset({"mark", "advmod", "cc"})
        assert [s.kind for s in irr.scopes] == [TARGET, SUBJR]

    def test_empty_rules_text(self):
        assert parse_rules("", {}) == []
        assert parse_rules("# only a comment\n", {}) == []

    def test_byte_order_mark_ignored(self, tmp_path, wordlists):
        marked = bom_copy(DEFAULT_RULES, tmp_path)
        assert load_rules(marked, wordlists) == load_rules(DEFAULT_RULES, wordlists)


RULE_TEMPLATE = """
[operation]
name = demo
trigger.forms = @negators
trigger.pos = *
trigger.deprel = neg,advmod
tau = {tau}
delta = 1
priority = 2
scope = {scope}
"""


class TestRuleParsing:
    @pytest.fixture()
    def lists(self):
        return {"negators": WordList("negators", {"no": None})}

    def test_inline_comments_stripped(self, lists):
        text = RULE_TEMPLATE.format(tau="shift(4)  # like the default", scope="target,all")
        (defn,) = parse_rules(text, lists)
        assert defn.transform == Transformation(SHIFT, 4.0)

    def test_unknown_scope_keyword(self, lists):
        text = RULE_TEMPLATE.format(tau="shift(4)", scope="b(")
        with pytest.raises(RuleConfigError) as err:
            parse_rules(text, lists)
        assert "demo" in str(err.value)

    def test_unknown_tau_kind(self, lists):
        text = RULE_TEMPLATE.format(tau="boost(4)", scope="target")
        with pytest.raises(RuleConfigError):
            parse_rules(text, lists)

    def test_non_finite_tau_amount(self, lists):
        text = RULE_TEMPLATE.format(tau="shift(inf)", scope="target")
        with pytest.raises(RuleConfigError):
            parse_rules(text, lists)

    def test_missing_word_list(self):
        text = RULE_TEMPLATE.format(tau="shift(4)", scope="target")
        with pytest.raises(RuleConfigError) as err:
            parse_rules(text, {})
        assert "@negators" in str(err.value)

    def test_booster_reference_in_tau(self, lists):
        lists = dict(lists, boosters=WordList("boosters", {"muy": 0.25}))
        text = RULE_TEMPLATE.format(tau="weighting(@boosters)", scope="target")
        (defn,) = parse_rules(text, lists)
        assert defn.transform.booster_source == "boosters"

    def test_shift_with_booster_rejected(self, lists):
        lists = dict(lists, boosters=WordList("boosters", {"muy": 0.25}))
        text = RULE_TEMPLATE.format(tau="shift(@boosters)", scope="target")
        with pytest.raises(RuleConfigError):
            parse_rules(text, lists)

    def test_unknown_key_rejected(self, lists):
        text = RULE_TEMPLATE.format(tau="shift(4)", scope="target") + "speed = 9\n"
        with pytest.raises(RuleConfigError):
            parse_rules(text, lists)

    def test_key_outside_block_rejected(self, lists):
        with pytest.raises(RuleConfigError):
            parse_rules("name = orphan\n", lists)

    def test_unknown_section_rejected(self, lists):
        with pytest.raises(RuleConfigError):
            parse_rules("[rules]\n", lists)

    def test_negative_delta_rejected(self, lists):
        text = RULE_TEMPLATE.format(tau="shift(4)", scope="target").replace(
            "delta = 1", "delta = -1"
        )
        with pytest.raises(RuleConfigError):
            parse_rules(text, lists)

    def test_empty_scope_rejected(self, lists):
        text = RULE_TEMPLATE.format(tau="shift(4)", scope=" ")
        with pytest.raises(RuleConfigError):
            parse_rules(text, lists)

    @pytest.mark.parametrize("scope", ["b( )", "target,b()", "target, b(\t)"])
    def test_branch_scope_without_deprel_rejected(self, lists, scope):
        text = RULE_TEMPLATE.format(tau="shift(4)", scope=scope)
        with pytest.raises(RuleConfigError) as err:
            parse_rules(text, lists)
        assert "'demo'" in str(err.value)

    def test_duplicate_key_rejected(self, lists):
        # The second scope used to win silently.
        text = RULE_TEMPLATE.format(tau="shift(4)", scope="target") + "scope = all\n"
        with pytest.raises(RuleConfigError) as err:
            parse_rules(text, lists, source="dup.rules")
        assert str(err.value) == "dup.rules:11: duplicate key 'scope' in [operation] block"

    def test_same_key_in_two_blocks_accepted(self, lists):
        text = RULE_TEMPLATE.format(tau="shift(4)", scope="target") * 2
        assert len(parse_rules(text, lists)) == 2


class TestScopeSpec:
    def test_branch_requires_deprel(self):
        with pytest.raises(RuleConfigError):
            ScopeSpec(BRANCH)
        with pytest.raises(RuleConfigError):
            ScopeSpec(ALL, deprel="cop")

    def test_str_forms(self):
        assert str(ScopeSpec(BRANCH, "cop")) == "b(cop)"
        assert str(ScopeSpec(SUBJR)) == "subjr"
