import math

import pytest

from conftest import DEFAULT_RULES, bom_copy
from sisa import DepTree, RuleConfigError, Token, compute_so, load_rules
from sisa.lexicon import SentimentLexicon
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

    def test_parse_rules_ignores_a_byte_order_mark(self, wordlists):
        text = DEFAULT_RULES.read_text(encoding="utf-8")
        assert parse_rules("\ufeff" + text, wordlists) == parse_rules(text, wordlists)

    def test_lines_parse_as_the_text_does(self, wordlists):
        text = DEFAULT_RULES.read_text(encoding="utf-8")
        with open(DEFAULT_RULES, encoding="utf-8", newline="\n") as lines:
            assert parse_rules(lines, wordlists) == parse_rules(text, wordlists)


class TestRulesFileFaults:
    """A rules file is read line by line, so its first fault in file order is
    the one reported, a bad byte with its own line."""

    # Comment lines push what follows past the decoder's first 8 KiB chunk.
    PADDING = b"# padding\n" * 2_000

    def write(self, tmp_path, data):
        assert len(self.PADDING) > 8192
        path = tmp_path / "r.rules"
        path.write_bytes(data)
        return path

    def test_a_malformed_line_before_a_bad_byte_is_reported(self, tmp_path):
        # A reader that decoded the whole file first reported line 2003.
        path = self.write(tmp_path, b"[operation]\nbogus line\n" + self.PADDING + b"\xff\n")
        with pytest.raises(RuleConfigError) as err:
            load_rules(path, {})
        assert str(err.value) == f"{path}:2: expected 'key = value', got 'bogus line'"

    @pytest.mark.parametrize(
        "bad, reason",
        [
            (b"name = mal\xffo\n", "invalid start byte 0xff"),
            (b"name = mal\xc3", "unexpected end of data 0xc3"),
        ],
        ids=["invalid start byte", "unexpected end of data"],
    )
    def test_a_bad_byte_past_the_first_chunk_names_its_line(self, tmp_path, wordlists, bad, reason):
        rules = DEFAULT_RULES.read_bytes()
        path = self.write(tmp_path, rules + self.PADDING + b"[operation]\n" + bad)
        line_no = rules.count(b"\n") + 2_000 + 2
        with pytest.raises(RuleConfigError) as err:
            load_rules(path, wordlists)
        assert str(err.value) == f"{path}:{line_no}: not valid UTF-8: {reason}"

    def test_a_block_fault_is_reported_before_a_later_blocks_line_fault(self):
        # Each block is built when the next header closes it; a reader that
        # built the blocks after reading every line reported line 10.
        text = (
            "[operation]\nname = a\ntrigger.pos = ADV\nscope = target\n\n"
            "[operation]\nname = b\ntrigger.pos = ADV\ntau = shift(4)\ntau = shift(4)\n"
            "scope = target\n"
        )
        with pytest.raises(RuleConfigError) as err:
            parse_rules(text, {}, source="r.rules")
        assert str(err.value) == "r.rules:1: rule 'a': missing required key 'tau'"

    @pytest.mark.parametrize("header", [b"", b"[operation]\n"], ids=["open", "closed"])
    def test_a_block_is_checked_when_a_header_or_the_end_closes_it(self, tmp_path, header):
        # Without a header after it, the block is still open when the bad byte
        # among the comments that trail it is read.
        data = b"[operation]\nname = a\nscope = target\n" + header + self.PADDING + b"\xff\n"
        path = self.write(tmp_path, data)
        with pytest.raises(RuleConfigError) as err:
            load_rules(path, {})
        if header:
            assert str(err.value) == f"{path}:1: rule 'a': missing required key 'tau'"
        else:
            assert str(err.value) == f"{path}:2004: not valid UTF-8: invalid start byte 0xff"


NO_RELATION = "names no relation; a UD deprel is ASCII letters"

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
        return {"negators": {"no": None}}

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
        lists = dict(lists, boosters={"muy": 0.25})
        text = RULE_TEMPLATE.format(tau="weighting(@boosters)", scope="target")
        (defn,) = parse_rules(text, lists)
        assert defn.transform.booster_source == "boosters"

    def test_shift_with_booster_rejected(self, lists):
        lists = dict(lists, boosters={"muy": 0.25})
        text = RULE_TEMPLATE.format(tau="shift(@boosters)", scope="target")
        with pytest.raises(RuleConfigError):
            parse_rules(text, lists)

    def test_unknown_key_rejected(self, lists):
        # Refused at its own line, as a repeated key is, not at the header.
        text = RULE_TEMPLATE.format(tau="shift(4)", scope="target") + "speed = 9\n"
        with pytest.raises(RuleConfigError) as err:
            parse_rules(text, lists, source="r.rules")
        assert str(err.value) == "r.rules:11: unknown key 'speed' in [operation] block"

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

    @pytest.mark.parametrize("value", ["", ","])
    @pytest.mark.parametrize("key", ["trigger.forms", "trigger.pos", "trigger.deprel"])
    def test_trigger_set_naming_nothing_rejected(self, lists, key, value):
        # Such a rule used to parse and never fire.
        template = RULE_TEMPLATE.format(tau="shift(4)", scope="target")
        text = "".join(line for line in template.splitlines(True) if not line.startswith(key))
        with pytest.raises(RuleConfigError) as err:
            parse_rules(text + f"{key} = {value}\n", lists)
        assert str(err.value) == f"<rules>:2: rule 'demo': {key} names nothing; use * for any"
        # "*" and a missing key stay wildcards.
        for wildcard in ("", f"{key} = *\n"):
            (defn,) = parse_rules(text + wildcard, lists)
            assert getattr(defn.trigger, key.removeprefix("trigger.")) is None

    @pytest.mark.parametrize(
        "deprel, scope",
        [
            ("neg,advmod:emph", "target"),
            ("advmod:emph,advmod:neg", "target"),
            ("neg,advmod", "target,b(advmod:emph)"),
            ("neg,advmod", "b( advmod:emph ),all"),
        ],
    )
    def test_subtyped_deprel_rejected(self, lists, deprel, scope):
        # Rules match the bare deprel, so such a trigger never fired and
        # such a branch scope always discarded.
        text = RULE_TEMPLATE.format(tau="shift(4)", scope=scope).replace(
            "trigger.deprel = neg,advmod", f"trigger.deprel = {deprel}"
        )
        with pytest.raises(RuleConfigError) as err:
            parse_rules(text, lists)
        assert str(err.value) == (
            "<rules>:2: rule 'demo': "
            "deprel 'advmod:emph' has a :subtype; rules match the bare deprel"
        )

    def test_trigger_constraining_nothing_names_the_rule(self, lists):
        text = "".join(
            line
            for line in RULE_TEMPLATE.format(tau="shift(4)", scope="target").splitlines(True)
            if not line.startswith("trigger.")
        )
        with pytest.raises(RuleConfigError) as err:
            parse_rules(text, lists)
        assert str(err.value) == (
            "<rules>:2: rule 'demo': trigger predicate must constrain at least one field"
        )

    def test_duplicate_key_rejected(self, lists):
        # The second scope used to win silently.
        text = RULE_TEMPLATE.format(tau="shift(4)", scope="target") + "scope = all\n"
        with pytest.raises(RuleConfigError) as err:
            parse_rules(text, lists, source="dup.rules")
        assert str(err.value) == "dup.rules:11: duplicate key 'scope' in [operation] block"

    def test_same_key_in_two_blocks_accepted(self, lists):
        text = RULE_TEMPLATE.format(tau="shift(4)", scope="target")
        text += text.replace("name = demo", "name = other")
        assert len(parse_rules(text, lists)) == 2

    def test_duplicate_rule_name_rejected(self, lists):
        # Both blocks loaded, so trace lines and "rule 'demo': ..." errors were ambiguous.
        text = RULE_TEMPLATE.format(tau="shift(4)", scope="target") * 2
        with pytest.raises(RuleConfigError) as err:
            parse_rules(text, lists, source="dup.rules")
        assert str(err.value) == "dup.rules:13: duplicate rule name 'demo'"

    def test_non_numeric_tau_amount(self, lists):
        text = RULE_TEMPLATE.format(tau="shift(abc)", scope="target")
        with pytest.raises(RuleConfigError) as err:
            parse_rules(text, lists)
        assert str(err.value) == "<rules>:2: rule 'demo': non-numeric transformation amount 'abc'"

    def test_block_without_a_name_rejected(self, lists):
        # The fault names the line of the nameless block's [operation] header.
        text = RULE_TEMPLATE.format(tau="shift(4)", scope="target")
        text += text.replace("name = demo\n", "")
        with pytest.raises(RuleConfigError) as err:
            parse_rules(text, lists, source="r.rules")
        assert str(err.value) == "r.rules:12: [operation] block without a name"

    @pytest.mark.parametrize("line, value", [("delta = 1", "1.5"), ("priority = 2", "x")])
    def test_non_integer_delta_or_priority_rejected(self, lists, line, value):
        key = line.split(" = ")[0]
        text = RULE_TEMPLATE.format(tau="shift(4)", scope="target").replace(
            line, f"{key} = {value}"
        )
        with pytest.raises(RuleConfigError) as err:
            parse_rules(text, lists)
        assert str(err.value) == (
            f"<rules>:2: rule 'demo': invalid literal for int() with base 10: {value!r}"
        )

    # float() and int() take each of these as 5, 10 or 3.
    @pytest.mark.parametrize(
        "line, value, message",
        [
            ("tau = shift(4)", "tau = shift(0_5)", "non-numeric transformation amount '0_5'"),
            ("tau = shift(4)", "tau = shift(３)", "non-numeric transformation amount '３'"),
            ("delta = 1", "delta = 1_0", "invalid literal for int() with base 10: '1_0'"),
            ("priority = 2", "priority = ٣", "invalid literal for int() with base 10: '٣'"),
        ],
        ids=["tau 0_5", "tau fullwidth 3", "delta 1_0", "priority arabic-indic 3"],
    )
    def test_numbers_are_ascii_without_underscores(self, lists, line, value, message):
        text = RULE_TEMPLATE.format(tau="shift(4)", scope="target").replace(line, value)
        with pytest.raises(RuleConfigError) as err:
            parse_rules(text, lists)
        assert str(err.value) == f"<rules>:2: rule 'demo': {message}"

    def test_line_without_equals_rejected(self, lists):
        text = RULE_TEMPLATE.format(tau="shift(4)", scope="target") + "speed 9\n"
        with pytest.raises(RuleConfigError) as err:
            parse_rules(text, lists, source="eq.rules")
        assert str(err.value) == "eq.rules:11: expected 'key = value', got 'speed 9'"


class TestRuleTypesRefuseWhatRuleFilesRefuse:
    """Each rule fault is refused by the type that holds the value, so a rule
    built in code fails as the same rule read from a file does."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: TriggerPredicate(pos=frozenset()), "trigger.pos names nothing; use * for any"),
            (
                lambda: TriggerPredicate(forms=frozenset(), pos=frozenset({"ADV"})),
                "trigger.forms names nothing; use * for any",
            ),
            (
                lambda: TriggerPredicate(deprel=frozenset({"advmod:emph"})),
                "deprel 'advmod:emph' has a :subtype; rules match the bare deprel",
            ),
            (
                lambda: ScopeSpec(BRANCH, "advmod:emph"),
                "deprel 'advmod:emph' has a :subtype; rules match the bare deprel",
            ),
            (lambda: Transformation(SHIFT, math.inf), "non-finite transformation amount inf"),
            (lambda: Transformation(WEIGHTING, math.nan), "non-finite transformation amount nan"),
            (
                lambda: Transformation(SHIFT, booster_source="boosters"),
                "booster-driven amounts are only legal for weighting",
            ),
            (lambda: ScopeSpec(BRANCH, ""), f"deprel '' {NO_RELATION}"),
            (
                lambda: TriggerPredicate(deprel=frozenset({"neg", ""})),
                f"deprel '' {NO_RELATION}",
            ),
            (lambda: ScopeSpec(BRANCH, "x)"), f"deprel 'x)' {NO_RELATION}"),
            (
                lambda: TriggerPredicate(deprel=frozenset({"a b"})),
                f"deprel 'a b' {NO_RELATION}",
            ),
            (
                lambda: TriggerPredicate(forms=frozenset({"no", ""})),
                "trigger.forms '' names no word",
            ),
            (lambda: Transformation("scale", 2.0), "unknown transformation kind 'scale'"),
            (
                lambda: Transformation(SHIFT),
                "transformation needs a numeric amount or a booster source",
            ),
            (
                lambda: Transformation(WEIGHTING, 0.5, "boosters"),
                "transformation needs a numeric amount or a booster source",
            ),
            (lambda: ScopeSpec("left"), "unknown scope kind 'left'"),
        ],
        ids=[
            "empty-pos",
            "empty-forms",
            "subtyped-trigger-deprel",
            "subtyped-branch",
            "infinite-shift",
            "nan-weighting",
            "shift-by-booster",
            "empty-branch-deprel",
            "empty-trigger-deprel",
            "branch-deprel-past-its-paren",
            "trigger-deprel-with-a-space",
            "empty-form",
            "unknown-transformation-kind",
            "no-amount",
            "amount-and-booster",
            "unknown-scope-kind",
        ],
    )
    def test_built_in_code(self, build, message):
        with pytest.raises(RuleConfigError) as err:
            build()
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "tau, message",
        [
            ("shift(inf)", "non-finite transformation amount inf"),
            ("weighting(1e999)", "non-finite transformation amount inf"),
            ("weighting(nan)", "non-finite transformation amount nan"),
            ("shift(@boosters)", "booster-driven amounts are only legal for weighting"),
        ],
        ids=["inf", "overflow", "nan", "shift-by-booster"],
    )
    def test_read_from_a_file(self, tau, message):
        lists = {"boosters": {"muy": 0.25}}
        text = RULE_TEMPLATE.format(tau=tau, scope="target").replace("@negators", "@boosters")
        with pytest.raises(RuleConfigError) as err:
            parse_rules(text, lists)
        assert str(err.value) == f"<rules>:2: rule 'demo': {message}"

    @pytest.mark.parametrize(
        "tau, scope, message",
        [
            ("scale(2)", "target", "unknown transformation kind 'scale'"),
            ("shift(4)", "target,left", "unknown scope kind 'left'"),
            ("shift(4)", "branch", "branch scopes take a deprel, other scopes do not"),
            ("shift(4)", "b( )", f"deprel '' {NO_RELATION}"),
            ("shift(4)", "b(x))", f"deprel 'x)' {NO_RELATION}"),
        ],
        ids=["transformation-kind", "scope-kind", "bare-branch", "empty-branch", "past-paren"],
    )
    def test_a_kind_read_from_a_file(self, tau, scope, message):
        # The parser checks no kind: a rule type refuses it.
        lists = {"negators": {"no": None}}
        with pytest.raises(RuleConfigError) as err:
            parse_rules(RULE_TEMPLATE.format(tau=tau, scope=scope), lists)
        assert str(err.value) == f"<rules>:2: rule 'demo': {message}"

    def test_a_trigger_deprel_no_ud_deprel_spells_read_from_a_file(self):
        text = RULE_TEMPLATE.format(tau="shift(4)", scope="target").replace(
            "trigger.deprel = neg,advmod", "trigger.deprel = neg,a b"
        )
        with pytest.raises(RuleConfigError) as err:
            parse_rules(text, {"negators": {"no": None}})
        assert str(err.value) == f"<rules>:2: rule 'demo': deprel 'a b' {NO_RELATION}"

    def test_an_empty_word_list_is_still_a_form_set(self):
        # Only a literal set naming nothing is refused; a word list file may be empty.
        empty = {}
        assert TriggerPredicate(forms=empty).forms is empty

    def test_a_rule_triggers_on_the_loaded_list_itself(self, wordlists, default_rules):
        forms = {d.name: d.trigger.forms for d in default_rules}
        assert forms["negation"] is wordlists["negators"]
        assert forms["intensification"] is wordlists["boosters"]
        assert forms["adversative"] is wordlists["adversatives"]
        assert forms["irrealis"] is wordlists["irrealis"]

    def test_a_rule_file_drops_empty_items(self):
        text = RULE_TEMPLATE.format(tau="shift(4)", scope="b(neg), , target").replace(
            "trigger.forms = @negators", "trigger.forms = no, ,nunca,"
        ).replace("trigger.deprel = neg,advmod", "trigger.deprel = ,neg,,advmod")
        (rule,) = parse_rules(text, {})
        assert rule.trigger.forms == {"no", "nunca"}
        assert rule.trigger.deprel == {"neg", "advmod"}
        assert rule.scopes == (ScopeSpec(BRANCH, "neg"), ScopeSpec(TARGET))

    def test_an_empty_trigger_word_list_warns_once(self, caplog):
        text = RULE_TEMPLATE.format(tau="shift(4)", scope="target")
        with caplog.at_level("WARNING", logger="sisa.operations"):
            (rule,) = parse_rules(text, {"negators": {}})
        assert rule.trigger.forms == {}
        assert [record.getMessage() for record in caplog.records] == [
            "rule 'demo': trigger word list 'negators' is empty, so the rule never fires"
        ]
        caplog.clear()
        with caplog.at_level("WARNING", logger="sisa.operations"):
            parse_rules(text, {"negators": {"no": None}})
        assert caplog.records == []

    def test_an_empty_trigger_word_list_built_in_code_does_not_warn(self, caplog):
        # Only the parser knows the name a rule gives its list.
        trigger = TriggerPredicate(forms={})
        with caplog.at_level("WARNING", logger="sisa.operations"):
            OperationDefinition(
                "demo", trigger, Transformation(SHIFT, 4.0), 1, 2, (ScopeSpec(TARGET),)
            )
        assert caplog.records == []

    @pytest.mark.parametrize("tag", ["adv", "ADVERB"])
    def test_pos_outside_ud_upos_rejected(self, tag):
        # The engine compares the tag with the token's UPOS as written, so
        # such a rule never fired.
        message = f"trigger.pos {tag!r} is not a UD UPOS tag"
        with pytest.raises(RuleConfigError) as err:
            TriggerPredicate(pos=frozenset({"ADJ", tag}))
        assert str(err.value) == message
        text = RULE_TEMPLATE.format(tau="shift(4)", scope="target").replace(
            "trigger.pos = *", f"trigger.pos = ADJ, {tag}"
        )
        with pytest.raises(RuleConfigError) as err:
            parse_rules(text, {"negators": {"no": None}})
        assert str(err.value) == f"<rules>:2: rule 'demo': {message}"

    def test_every_ud_upos_tag_accepted(self):
        tags = "ADJ ADP ADV AUX CCONJ DET INTJ NOUN NUM PART PRON PROPN PUNCT SCONJ SYM VERB X"
        assert len(tags.split()) == 17
        for tag in tags.split() + ["CONJ"]:
            assert TriggerPredicate(pos=frozenset({tag})).pos == {tag}


class TestScopeSpec:
    def test_branch_requires_deprel(self):
        with pytest.raises(RuleConfigError):
            ScopeSpec(BRANCH)
        with pytest.raises(RuleConfigError):
            ScopeSpec(ALL, deprel="cop")

    def test_str_forms(self):
        assert str(ScopeSpec(BRANCH, "cop")) == "b(cop)"
        assert str(ScopeSpec(SUBJR)) == "subjr"
