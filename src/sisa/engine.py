"""Queue-and-propagate scoring of dependency trees.

The tree is evaluated bottom-up. A rule matching a node instantiates an
operation that climbs ``delta`` head links and is applied at the level it
reaches, transforming either the level head's lexical score, one child
branch's accumulated score, or the whole accumulated level. An operation
that reaches the root before it has climbed ``delta`` links is force-applied
there rather than dropped.

A sentence is scored in two phases:

- The lexicon-free phase (:func:`_queue`), run once per rule set, matches
  each node's rules and climbs each firing to the level it applies at, where
  it is queued once. Which rules fire, where an operation applies, its
  origin, whether it is forced and its amount depend on the tree, the rules
  and the word lists alone, so every lexicon applies the same queues.
- The per-lexicon phase looks up every token's lexical score
  (:func:`_lexical`), then totals the levels in post-order
  (:func:`_totals`), each level with a queue applying it as one batch
  (:func:`_apply_batch`).

:func:`compute_so` runs both phases for one configuration, a lexicon and a
rule set, and records the trace when asked. :func:`score_configs` scores
sentences under several configurations at once, as ``sisa evaluate`` does:
the four standard configurations (two lexica, each with and without the
rules) cost one rule pass and two lookups per token, not two and four. A
rule set is compiled into a trigger table (:class:`CompiledRules`) on its
first use.

A sentence costs time linear in its tokens plus its operations, up to the
binary searches that place a subj origin among a level's branches, with two
exceptions that rule files the parser accepts can reach: a climb takes one
step per head link, so a firing costs min(``delta``, depth), and an ``all``
scope sums its level again after each branch change, so a batch that
alternates branch and ``all`` operations at a level of k branches costs
O(k^2).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from math import isfinite
from operator import is_
from typing import Callable, Iterable, Mapping, Sequence

from .conllu import DepTree
from .errors import NonFiniteScoreError
from .lexicon import SentimentLexicon, WordList
from .operations import (
    ALL,
    BRANCH,
    SUBJL,
    TARGET,
    WEIGHTING,
    OperationDefinition,
    apply_shift,
    apply_weighting,
)
from .util import format_so

@dataclass
class TriggerRecord:
    """A rule firing at a node."""

    rule: str
    delta: int
    beta: float | None = None
    missing_booster: bool = False


@dataclass
class ApplyRecord:
    """One operation dequeued at a level: what it selected and what changed."""

    rule: str
    trigger_id: int
    scope: str
    before: float | None
    after: float | None
    forced: bool = False
    discarded: bool = False
    backoff: bool = False


@dataclass
class NodeTrace:
    """Per-node record: lexical score, rule firings, applications at this
    level, and the final accumulated subtree score."""

    token_id: int
    form: str
    lexical_so: float
    triggers: list[TriggerRecord] = field(default_factory=list)
    applications: list[ApplyRecord] = field(default_factory=list)
    subtree_so: float = 0.0


class SoTrace:
    """Account of one sentence evaluation: the score, the warnings and, when
    recorded, what happened at each node.

    A recorded trace carries ``record = (tokens, lexical, subtree, events)``:
    the sentence's tokens, the lexical and the subtree score of every node
    (lists indexed by token id) and, per node, its events in order, or None
    for a node without any. A trigger is a ``(rule, delta, beta, missing)``
    tuple, an operation dequeued at the node a ``(rule, trigger_id, scope,
    before, after, forced, discarded, backoff)`` tuple: the fields of
    :class:`TriggerRecord` and :class:`ApplyRecord`.
    """

    __slots__ = ("sentence_so", "warnings", "_record", "_nodes")

    def __init__(self, sentence_so: float, warnings: list[str], record: tuple | None = None) -> None:
        self.sentence_so = sentence_so
        self.warnings = warnings
        self._record = record
        self._nodes: list[NodeTrace] | None = None

    @property
    def nodes(self) -> list[NodeTrace]:
        """One record per node in token order, built on first read; empty
        when nothing was recorded."""
        if self._nodes is None:
            self._nodes = []
            if self._record is not None:
                tokens, lexical, subtree, events = self._record
                for node_id, token in enumerate(tokens, 1):
                    node = NodeTrace(
                        node_id, token.form, lexical[node_id], subtree_so=subtree[node_id]
                    )
                    for event in events[node_id] or ():
                        if len(event) == 4:
                            node.triggers.append(TriggerRecord(*event))
                        else:
                            node.applications.append(ApplyRecord(*event))
                    self._nodes.append(node)
        return self._nodes

    def render(self) -> str:
        """Byte-stable plain-text rendering (used for golden files and the
        trace subcommand)."""
        fmt = format_so
        lines: list[str] = []
        append = lines.append
        if self._record is not None:
            tokens, lexical, subtree, events = self._record
            for node_id, token in enumerate(tokens, 1):
                node_events = events[node_id]
                if node_events is None:
                    append(
                        f"node\t{node_id}\t{token.form}\tlexical\t{fmt(lexical[node_id])}"
                        f"\n\tsubtree\t{fmt(subtree[node_id])}"
                    )
                    continue
                append(f"node\t{node_id}\t{token.form}\tlexical\t{fmt(lexical[node_id])}")
                for event in node_events:
                    if len(event) == 4:
                        rule, delta, beta, missing = event
                        line = f"\ttrigger\t{rule}\tdelta\t{delta}"
                        if beta is not None:
                            line += f"\tbeta\t{fmt(beta)}"
                        if missing:
                            line += "\tmissing-booster"
                    else:
                        rule, trigger_id, scope, before, after, forced, discarded, backoff = event
                        if discarded:
                            line = f"\tdiscard\t{rule}\ttrigger\t{trigger_id}"
                        else:
                            line = (
                                f"\tapply\t{rule}\ttrigger\t{trigger_id}\tscope\t{scope}"
                                f"\tbefore\t{fmt(before)}\tafter\t{fmt(after)}"
                            )
                        if forced:
                            line += "\tforced"
                        if backoff:
                            line += "\tbackoff"
                    append(line)
                append(f"\tsubtree\t{fmt(subtree[node_id])}")
        for warning in self.warnings:
            append(f"warn\t{warning}")
        append(f"sentence\t{fmt(self.sentence_so)}")
        return "\n".join(lines) + "\n"


def _booster_value(
    source: str, form: str, lemma: str, lists: Mapping[str, WordList]
) -> tuple[float, bool]:
    """Snapshot the booster value for a trigger from its lowercased form,
    then its lowercased lemma.

    Returns (value, missing); absent words fall back to 0 (a no-op weighting)
    so a misconfigured list degrades loudly in the trace, not with a crash.
    """
    wordlist = lists.get(source)
    if wordlist is None:
        return 0.0, True
    value = wordlist.get(form)
    if value is None:
        value = wordlist.get(lemma)
    if value is None:
        return 0.0, True
    return value, False


def _apply_batch(
    batch: list[tuple],
    plans: Sequence[tuple],
    head: float,
    kids: tuple[int, ...],
    score: Callable[[int], float],
    tokens: Sequence[tuple],
    events: list[tuple] | None,
) -> float:
    """Dequeue the operations queued at one level and return its total.

    ``batch`` holds ``(forced, -priority, trigger_id, rule_index, origin_id,
    amount)`` tuples and is dequeued in their sort order: forced operations
    after the rest, then higher priority first, then leftmost trigger, then
    definition order. ``(trigger_id, rule_index)`` is unique at a level, so
    no sort compares further. ``plans[rule_index]`` is the rule's plan. The
    level is the head score ``head`` and one branch per child id in ``kids``
    (surface order), scored ``score(child_id)``, with the bare deprel of
    ``tokens[child_id - 1]``.

    Each operation tries its scopes in order and transforms what the first
    match selects: target the head score, if it is nonzero; b(x) the
    leftmost nonzero branch with deprel x; subjl/subjr the leftmost nonzero
    branch strictly left/right of the operation's origin; all, which always
    matches, the whole level, through an adjustment added to its total. A
    NaN score counts as nonzero. An operation that no scope matches is
    discarded. Transformed constituents stay visible to later operations.
    Each application or discard is appended to ``events``, as a
    :class:`SoTrace` event tuple, when a list is given.

    The branch scores are copied into a list only once a b(x) or subj scope
    has a branch to test. The level's branches are summed with ``sum`` over
    that list, or over ``score`` before any copy, again whenever the sum is
    needed after a branch change, never kept as a running total, so the
    total has the bits of an untouched level's sum: from Python 3.12 on,
    ``sum`` compensates float rounding and a running total would not. A
    branch changes only when a scope selects it, and scopes select only
    nonzero branches, so a branch can drop to 0 but never come back; the
    lookups rely on that and skip a branch for good once they have seen it
    at 0.
    """
    batch.sort()
    adjustment = 0.0
    scores = None
    branch_sum = None
    # Skip table over branch indexes: every index in [i, skip[i]) is a zero
    # branch; skip[i] == i means branch i was live when last seen.
    skip = None
    # Branch indexes per bare deprel, rightmost first, so the leftmost is
    # popped last; at a level with one branch, ``lone`` is its bare deprel.
    by_deprel = None
    lone = None
    for forced, _, trigger_id, rule_index, origin_id, amount in batch:
        name, transform, scopes = plans[rule_index]
        for kind, deprel, text in scopes:
            if kind == TARGET:
                before = head
                if before == 0:
                    continue
                head = after = transform(amount, before)
                scope = kind
            elif kind == ALL:
                if branch_sum is None:
                    branch_sum = sum(scores if scores is not None else map(score, kids))
                before = head + branch_sum + adjustment
                after = transform(amount, before)
                adjustment += after - before
                scope = kind
            else:
                if kind == BRANCH:
                    if len(kids) == 1:
                        # One branch: its bare deprel is tested directly.
                        if lone is None:
                            lone = tokens[kids[0] - 1][5].split(":", 1)[0]
                        if lone != deprel:
                            continue
                        if scores is None:
                            scores = [score(kids[0])]
                        if scores[0] == 0:
                            continue
                        index = 0
                    else:
                        if by_deprel is None:
                            by_deprel = {}
                            for index in range(len(kids) - 1, -1, -1):
                                bare = tokens[kids[index] - 1][5].split(":", 1)[0]
                                by_deprel.setdefault(bare, []).append(index)
                        candidates = by_deprel.get(deprel)
                        if not candidates:
                            continue
                        if scores is None:
                            scores = list(map(score, kids))
                        while candidates and scores[candidates[-1]] == 0:
                            candidates.pop()
                        if not candidates:
                            continue
                        index = candidates[-1]
                else:
                    # The branches in [index, end) lie strictly left (subjl)
                    # or right (subjr) of the origin.
                    if kind == SUBJL:
                        index, end = 0, bisect_left(kids, origin_id)
                    else:
                        index, end = bisect_right(kids, origin_id), len(kids)
                    if index == end:
                        continue
                    if scores is None:
                        scores = list(map(score, kids))
                    if skip is None:
                        skip = list(range(len(kids)))
                    path = []
                    while index < end:
                        step = skip[index]
                        if step == index:
                            if scores[index] != 0:
                                break
                            step = index + 1
                        path.append(index)
                        index = step
                    for seen in path:
                        skip[seen] = index
                    # A skip can jump past a subjl end.
                    if index >= end:
                        continue
                before = scores[index]
                scores[index] = after = transform(amount, before)
                branch_sum = None
                scope = None if events is None else f"{text}:{kids[index]}"
            if events is not None:
                events.append((name, trigger_id, scope, before, after, forced, False, kind == ALL))
            break
        else:
            if events is not None:
                events.append((name, trigger_id, "none", None, None, forced, True, False))
    if branch_sum is None:
        branch_sum = sum(scores if scores is not None else map(score, kids))
    return head + branch_sum + adjustment


@dataclass(frozen=True)
class CompiledRules:
    """A rule set prepared for scoring many sentences.

    A rule is a ``(rule_index, name, pos, deprels, delta, -priority, amount,
    booster_source)`` tuple. ``table`` maps each trigger word to the rules it
    can fire, in definition order, with the rules that have no form
    constraint merged in; ``always`` holds those unconstrained rules alone,
    the ones a word in no rule's list can fire. ``plans[rule_index]`` is the
    rule's name, its transformation function (:func:`apply_weighting` or
    :func:`apply_shift`) and its scopes as ``(kind, deprel, text)`` tuples,
    ``text`` being the scope as a trace writes it.
    """

    table: Mapping[str, tuple[tuple, ...]]
    always: tuple[tuple, ...]
    plans: tuple[tuple, ...]


def compile_rules(defs: Sequence[OperationDefinition]) -> CompiledRules:
    """Compile rule definitions into the table :func:`compute_so` scores
    with; trigger words are read now, booster amounts at each firing (see
    :func:`_booster_value`)."""
    by_word: dict[str, list[tuple]] = {}
    always: list[tuple] = []
    plans = []
    for index, definition in enumerate(defs):
        trigger = definition.trigger
        transform = definition.transform
        rule = (
            index,
            definition.name,
            trigger.pos,
            trigger.deprel,
            definition.delta,
            -definition.priority,
            transform.param,
            transform.booster_source,
        )
        forms = trigger.forms
        if forms is None:
            always.append(rule)
            for fired in by_word.values():
                fired.append(rule)
        else:
            for word in forms:
                by_word.setdefault(word, always.copy()).append(rule)
        apply = apply_weighting if transform.kind == WEIGHTING else apply_shift
        scopes = tuple((spec.kind, spec.deprel, str(spec)) for spec in definition.scopes)
        plans.append((definition.name, apply, scopes))
    table = {word: tuple(fired) for word, fired in by_word.items()}
    return CompiledRules(table, tuple(always), tuple(plans))


_NO_RULES = compile_rules(())
# The slot of :func:`_compiled`: the last non-empty rule set compiled, as a
# tuple, and its table. It is replaced whole, so threads that race on it at
# worst compile twice.
_last: tuple[tuple[OperationDefinition, ...], CompiledRules] = ((), _NO_RULES)


def _compiled(defs: Sequence[OperationDefinition]) -> CompiledRules:
    """The table of ``defs``, compiled only when they are not the objects,
    in order, of the rule set compiled last.

    Keeping one slot (``_last``) lets scoring many sentences one call at a
    time compile once. An empty rule set shares one empty table and leaves
    the slot as it is; other non-empty definitions, or the kept list
    gaining, losing or replacing a rule in place, compile again.
    """
    global _last
    key, rules = _last
    if defs is key:  # the tuple compiled last, which cannot have changed
        return rules
    if not defs:
        return _NO_RULES
    if len(key) != len(defs) or not all(map(is_, key, defs)):
        key = tuple(defs)
        rules = compile_rules(key)
        _last = key, rules
    return rules


def check_finite(sentence_so: float) -> float:
    """Return a sentence score, or raise :class:`NonFiniteScoreError` if it
    is infinite or NaN."""
    if not isfinite(sentence_so):
        raise NonFiniteScoreError(f"sentence score {sentence_so} is not finite")
    return sentence_so


def _queue(
    tree: DepTree,
    rules: CompiledRules,
    lists: Mapping[str, WordList],
    events: list[list[tuple] | None] | None,
    warnings: list[str],
) -> list[list[tuple] | None]:
    """The lexicon-free phase of one rule set: match each node's rules and
    queue each firing at the level its climb reaches.

    A node tests only the rules its lowercased form or lemma can fire, in
    definition order, against its PoS and bare deprel. The lowercased words
    and the bare deprel are computed here once per rule set; the lexicon
    lowercases its own probes again, once per lexicon. A firing's level, origin and ``forced`` flag are fixed by its
    climb, so no node handles an operation that only passes through.
    Returns the queues by node id, as :func:`_apply_batch` takes them. The
    warnings of missing booster values are appended to ``warnings``, and a
    trigger event to ``events[node_id]`` when ``events`` is given.
    """
    tokens = tree.tokens
    root_id = tree.root_id
    table = rules.table
    always = rules.always
    queues: list[list[tuple] | None] = [None] * (len(tokens) + 1)
    late: dict[int, list[str]] | None = None  # the warnings by node id
    # Token order, which reads each token without indexing: only the
    # warnings depend on the order, and they are put in post-order below.
    for node_id, surface, lemma, upos, _, deprel in tokens:
        form = surface.lower()
        lemma = form if lemma == surface else lemma.lower()
        fired = table.get(form, always)
        if lemma != form:
            by_lemma = table.get(lemma, always)
            if fired is always:
                fired = by_lemma
            elif by_lemma is not always:
                # Both words fire rules: merge them by rule index, which is
                # unique, so no sort compares further.
                fired = sorted({rule[0]: rule for rule in (*fired, *by_lemma)}.values())
        if not fired:
            continue
        # Token.bare_deprel, inlined.
        deprel = deprel.split(":", 1)[0]
        for index, name, pos, deprels, delta, rank, amount, source in fired:
            if pos is not None and upos not in pos:
                continue
            if deprels is not None and deprel not in deprels:
                continue
            if source is not None:
                amount, missing = _booster_value(source, form, lemma, lists)
                if missing:
                    if late is None:
                        late = {}
                    late.setdefault(node_id, []).append(
                        f"rule {name}: no booster value for trigger "
                        f"{surface!r} (token {node_id}); using 0"
                    )
            if events is not None:
                node_events = events[node_id]
                if node_events is None:
                    node_events = events[node_id] = []
                if source is None:
                    node_events.append((name, delta, None, False))
                else:
                    node_events.append((name, delta, amount, missing))
            target = origin = node_id
            climb = delta
            while climb and target != root_id:
                origin = target
                target = tokens[target - 1][4]
                climb -= 1
            queue = queues[target]
            if queue is None:
                queue = queues[target] = []
            queue.append((climb > 0, rank, node_id, index, origin, amount))
    if late is not None:
        for node_id in tree.postorder:
            warnings += late.get(node_id, ())
    return queues


def _lexical(tokens: Sequence[tuple], lex: SentimentLexicon) -> list[float]:
    """The lexical score of every token, by token id (index 0 holds 0.0)."""
    lookup = lex.lookup
    lexical = [lookup(form, lemma, upos) for _, form, lemma, upos, _, _ in tokens]
    lexical.insert(0, 0.0)
    return lexical


def _totals(
    tree: DepTree,
    subtree: list[float],
    queues: list[list[tuple] | None] | None,
    plans: Sequence[tuple],
    events: list[list[tuple] | None] | None,
) -> None:
    """The per-lexicon phase, in place: turn ``subtree``, the lexical score
    of every node by token id, into the subtree scores, applying the queues
    of one rule set (None: nothing is queued). An application or discard is
    appended to ``events[node_id]`` when ``events`` is given. A leaf keeps
    its lexical score: lookup never returns -0.0, so lexical + 0 + 0.0 is
    lexical.
    """
    if queues is None:
        queues = [None] * len(subtree)
    score = subtree.__getitem__
    children = tree.dependents
    tokens = tree.tokens
    for node_id in tree.postorder:
        kids = children[node_id]
        batch = queues[node_id]
        if batch:
            node_events = None
            if events is not None:
                node_events = events[node_id]
                if node_events is None:
                    node_events = events[node_id] = []
            subtree[node_id] = _apply_batch(
                batch, plans, subtree[node_id], kids, score, tokens, node_events
            )
        elif kids:
            # Nothing applies here: the total of an untouched level, with
            # the branch scores summed the same way and a zero adjustment.
            subtree[node_id] = subtree[node_id] + sum(map(score, kids)) + 0.0


def score_configs(
    trees: Iterable[DepTree],
    configs: Sequence[tuple[SentimentLexicon, Sequence[OperationDefinition]]],
    lists: Mapping[str, WordList] | None = None,
) -> list[list[float]]:
    """Score sentences under each ``(lexicon, defs)`` configuration: one list
    of sentence scores per configuration, in order.

    A sentence is looked up once per lexicon object and runs the
    lexicon-free phase once per rule-set table :func:`_compiled` returns.
    Each score equals the ``sentence_so`` of :func:`compute_so` with
    ``record=False``, bit for bit, but a non-finite score is returned, not
    raised: :func:`check_finite` refuses it. Booster warnings are dropped.
    ``trees`` is read once, so it may be a generator.
    """
    lists = lists or {}
    configs = [(lex, _compiled(defs)) for lex, defs in configs]
    # The last configuration to use a lexicon totals its lookups in place;
    # an earlier one totals a copy.
    last = {id(lex): index for index, (lex, _) in enumerate(configs)}
    columns: list[list[float]] = [[] for _ in configs]
    for tree in trees:
        lexicals: dict[int, list[float]] = {}
        queued: dict[int, list] = {}
        for index, (lex, rules) in enumerate(configs):
            subtree = lexicals.get(id(lex))
            if subtree is None:
                subtree = lexicals[id(lex)] = _lexical(tree.tokens, lex)
            if last[id(lex)] != index:
                subtree = subtree.copy()
            queues = None
            if rules.plans:
                queues = queued.get(id(rules))
                if queues is None:
                    queues = queued[id(rules)] = _queue(tree, rules, lists, None, [])
            _totals(tree, subtree, queues, rules.plans, None)
            columns[index].append(subtree[tree.root_id])
    return columns


def compute_so(
    tree: DepTree,
    lex: SentimentLexicon,
    defs: Sequence[OperationDefinition],
    lists: Mapping[str, WordList] | None = None,
    *,
    record: bool = True,
) -> SoTrace:
    """Score one sentence with both phases; with ``record`` (the default),
    trace every node.

    Warnings come in post-order. With ``record=False`` the returned trace
    has no nodes; its score and warnings are the same. ``defs`` is compiled
    on its first use (see :func:`_compiled`), and its trigger words are read
    then; a booster rule reads its amount from ``lists`` each time it fires.
    A sentence score that overflows to infinity or NaN raises
    :class:`NonFiniteScoreError`.
    """
    rules = _compiled(defs)
    tokens = tree.tokens
    events = [None] * (len(tokens) + 1) if record else None
    warnings: list[str] = []
    queues = None
    if rules.plans:
        queues = _queue(tree, rules, lists or {}, events, warnings)
    lexical = _lexical(tokens, lex)
    subtree = lexical.copy() if record else lexical
    _totals(tree, subtree, queues, rules.plans, events)
    sentence_so = check_finite(subtree[tree.root_id])
    return SoTrace(sentence_so, warnings, (tokens, lexical, subtree, events) if record else None)
