"""Queue-and-propagate scoring of dependency trees.

The tree is evaluated bottom-up. A rule matching a node instantiates an
operation that climbs ``delta`` head links and is applied at the level it
reaches, transforming either the level head's lexical score, one child
branch's accumulated score, or the whole accumulated level. An operation
that reaches the root before it has climbed ``delta`` links is force-applied
there rather than dropped.

A sentence costs time linear in its tokens plus its operations, for every
tree shape, up to the binary search that places a subjr origin among a
level's branches: each node's features (lowercased form and lemma, bare
deprel) are computed once, and the scope lookups walk per-level cursors
that only move right instead of rescanning the branches of a wide level for
every operation. The full trace of every trigger, application and discard is
recorded only when asked for; without it the returned :class:`SoTrace`
carries the sentence score and the warnings alone. A recorded trace is kept
flat: the lexical and subtree score of every node, indexed by token id, and
plain tuples for the events of the nodes that have any. :meth:`SoTrace.render`
reads those directly; :attr:`SoTrace.nodes` builds :class:`NodeTrace`
records from them only when it is first read.

A scorer does only the work its rules need:

- :func:`compute_so` compiles a rule set into a trigger table on its first
  use and keeps the last non-empty one it compiled: a call with the same
  definitions, the same objects in the same order, reuses the table, and an
  empty rule set shares one empty table without replacing the kept one. The
  table holds each rule's constraints, the union of all trigger words, and
  whether some rule has no form constraint. A node runs the rule loop only
  when its lowercased form or lemma is in that union (or such an
  unconstrained rule exists), and only then is its deprel stripped of its
  subtype. Without rules (the -O configurations) no node tests the index at
  all.
- The table also holds each rule's plan: its name, its transformation
  function and its scopes as ``(kind, deprel, text)`` tuples, so applying an
  operation reads no attribute chain.
- An operation is resolved once, when it triggers: its climb fixes the
  level it applies at, the node it enters that level through (its origin)
  and whether the root cut the climb short (it is forced). It is queued once,
  at that level, so no node handles an operation that only passes through.
  The queue entry is a ``(forced, -priority, trigger_id, rule_index,
  origin_id, amount)`` tuple, so a batch sorts natively into dequeue order;
  ``rule_index`` breaks ties in definition order, and ``(trigger_id,
  rule_index)`` is unique at a level, so no sort compares further.
- A node whose queue is not empty applies it as one batch over a flat
  level: its ``dependents`` tuple and a list of branch scores, copied from
  the subtree scores on the first branch or all scope. Bare deprels are read
  on the first b(x) scope, the scope cursors are plain index lists, and a
  subjr origin is placed with a binary search of the child ids. Every other
  node sums its branches as an untouched level would.
- Finding an operation's scope and applying it are one step: the batch
  walks each operation's scope list once and transforms what the first
  match selects (the head score, one branch or the whole level).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import isfinite
from operator import is_
from typing import Mapping, Sequence

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

    def __eq__(self, other: object) -> bool:
        """Equal score, warnings and node records."""
        if not isinstance(other, SoTrace):
            return NotImplemented
        return (self.sentence_so, self.warnings, self.nodes) == (
            other.sentence_so,
            other.warnings,
            other.nodes,
        )

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
    value = wordlist.value(form)
    if value is None:
        value = wordlist.value(lemma)
    if value is None:
        return 0.0, True
    return value, False


def _apply_batch(
    batch: list[tuple],
    plans: Sequence[tuple],
    head: float,
    kids: tuple[int, ...],
    subtree: Sequence[float],
    tokens: Sequence[tuple],
    events: list[tuple] | None,
) -> float:
    """Dequeue the operations queued at one level and return its total.

    ``batch`` holds ``(forced, -priority, trigger_id, rule_index, origin_id,
    amount)`` tuples and is dequeued in their sort order: forced operations
    after the rest, then higher priority first, then leftmost trigger, then
    definition order. ``plans[rule_index]`` is the rule's plan. The level is
    the head score ``head`` and one branch per child id in ``kids`` (surface
    order), scored ``subtree[child_id]``, with the bare deprel of
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

    The branch scores are copied into a list on the first branch or all
    scope. Their sum is taken with ``sum`` over that list, again whenever it
    is needed after a branch change, never kept as a running total, so the
    total has the bits of an untouched level's sum. A branch changes only
    when a scope selects it, and scopes select only nonzero branches, so a
    branch can drop to 0 but never come back; the lookups rely on that and
    skip a branch for good once they have seen it at 0.
    """
    batch.sort()
    adjustment = 0.0
    scores = None
    branch_sum = None
    # Skip table over branch indexes: every index in [i, skip[i]) is a zero
    # branch; skip[i] == i means branch i was live when last seen.
    skip = None
    # Branch indexes per bare deprel, rightmost first, so the leftmost is
    # popped last.
    by_deprel = None
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
                    if scores is None:
                        scores = [subtree[c] for c in kids]
                    branch_sum = sum(scores)
                before = head + branch_sum + adjustment
                after = transform(amount, before)
                adjustment += after - before
                scope = kind
            else:
                if scores is None:
                    scores = [subtree[c] for c in kids]
                if kind == BRANCH:
                    if by_deprel is None:
                        by_deprel = {}
                        for index in range(len(kids) - 1, -1, -1):
                            bare = tokens[kids[index] - 1][5].split(":", 1)[0]
                            by_deprel.setdefault(bare, []).append(index)
                    candidates = by_deprel.get(deprel)
                    while candidates and scores[candidates[-1]] == 0:
                        candidates.pop()
                    if not candidates:
                        continue
                    index = candidates[-1]
                else:
                    if skip is None:
                        skip = list(range(len(kids) + 1))
                    end = len(kids)
                    index = 0 if kind == SUBJL else bisect_right(kids, origin_id)
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
                    if index == end or (kind == SUBJL and kids[index] >= origin_id):
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
        branch_sum = sum(scores if scores is not None else [subtree[c] for c in kids])
    return head + branch_sum + adjustment


@dataclass(frozen=True)
class CompiledRules:
    """A rule set prepared for scoring many sentences.

    ``triggers`` holds one ``(definition, forms, pos, deprels, rule_index,
    delta, -priority, amount, booster_source)`` tuple per rule, in
    definition order, a word list's dict standing in for the list so that
    membership tests skip a method call. ``plans[rule_index]`` is the
    rule's name, its transformation function (:func:`apply_weighting` or
    :func:`apply_shift`) and its scopes as ``(kind, deprel, text)`` tuples,
    ``text`` being the scope as a trace writes it. ``words`` is the union of
    every rule's trigger words and ``unindexed`` tells whether some rule has
    no form constraint: a node whose lowercased form and lemma are both
    outside ``words`` can fire only such a rule.
    """

    triggers: tuple[tuple, ...]
    plans: tuple[tuple, ...]
    words: frozenset[str]
    unindexed: bool


def compile_rules(defs: Sequence[OperationDefinition]) -> CompiledRules:
    """Compile rule definitions into the table :func:`compute_so` scores
    with; word lists are read now."""
    triggers = []
    plans = []
    words: set[str] = set()
    unindexed = False
    for index, definition in enumerate(defs):
        trigger = definition.trigger
        transform = definition.transform
        forms = trigger.forms.words if isinstance(trigger.forms, WordList) else trigger.forms
        if forms is None:
            unindexed = True
        else:
            words.update(forms)
        triggers.append(
            (
                definition,
                forms,
                trigger.pos,
                trigger.deprel,
                index,
                definition.delta,
                -definition.priority,
                transform.param,
                transform.booster_source,
            )
        )
        apply = apply_weighting if transform.kind == WEIGHTING else apply_shift
        scopes = tuple((spec.kind, spec.deprel, str(spec)) for spec in definition.scopes)
        plans.append((definition.name, apply, scopes))
    return CompiledRules(tuple(triggers), tuple(plans), frozenset(words), unindexed)


_NO_RULES = compile_rules(())
# The last non-empty rule set compute_so compiled, as a tuple, and its table.
# It is replaced whole, so threads that race on it at worst compile twice.
_last: tuple[tuple[OperationDefinition, ...], CompiledRules] = ((), _NO_RULES)


def _compiled(defs: Sequence[OperationDefinition]) -> CompiledRules:
    """The table of ``defs``, compiled only when they are not the objects,
    in order, of the rule set compiled last."""
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


def compute_so(
    tree: DepTree,
    lex: SentimentLexicon,
    defs: Sequence[OperationDefinition],
    lists: Mapping[str, WordList] | None = None,
    *,
    record: bool = True,
) -> SoTrace:
    """Score one sentence; with ``record`` (the default), trace every node.

    Post-order over the tree: children are evaluated first; rules matching
    the node are instantiated in definition order, each queued at the level
    ``delta`` head links up, or forced at the root if that comes first; the
    node's queue is then applied (forced operations last, higher priority
    first, leftmost trigger on ties, then definition order); the level total
    is the possibly-transformed head score plus all branch scores. With
    ``record=False`` the returned trace has no nodes; its score and warnings
    are the same. ``defs`` is compiled on its first use, and its word
    lists are read then; it is compiled again only when a call with other
    non-empty definitions came between, or when it gained, lost or replaced
    a rule in place. A sentence score that overflows to infinity or NaN
    raises :class:`NonFiniteScoreError`.
    """
    rules = _compiled(defs)
    lists = lists or {}
    tokens = tree.tokens
    children = tree.dependents
    root_id = tree.root_id
    lookup = lex.lookup
    triggers = rules.triggers
    plans = rules.plans
    words = rules.words
    unindexed = rules.unindexed
    size = len(tokens) + 1
    subtree: list[float] = [0.0] * size
    # queues[h] holds the operations that apply at h, as _apply_batch takes them.
    queues: list[list[tuple] | None] = [None] * size
    warnings: list[str] = []
    if record:
        # Flat records by node id; a node's event list exists only once it
        # has an event.
        lexicals: list[float] = [0.0] * size
        events: list[list[tuple] | None] = [None] * size

    for node_id in tree.postorder:
        _, surface, lemma, upos, _, deprel = tokens[node_id - 1]
        lexical = lookup(surface, lemma, upos)
        if record:
            lexicals[node_id] = lexical

        if triggers:
            form = surface.lower()
            lemma = form if lemma == surface else lemma.lower()
            if unindexed or form in words or lemma in words:
                # Token.bare_deprel, inlined.
                deprel = deprel.split(":", 1)[0]
                for definition, forms, pos, deprels, index, delta, rank, amount, source in triggers:
                    if forms is not None and form not in forms and lemma not in forms:
                        continue
                    if pos is not None and upos not in pos:
                        continue
                    if deprels is not None and deprel not in deprels:
                        continue
                    if source is not None:
                        amount, missing = _booster_value(source, form, lemma, lists)
                        if missing:
                            warnings.append(
                                f"rule {definition.name}: no booster value for trigger "
                                f"{surface!r} (token {node_id}); using 0"
                            )
                    if record:
                        node_events = events[node_id]
                        if node_events is None:
                            node_events = events[node_id] = []
                        if source is None:
                            node_events.append((definition.name, delta, None, False))
                        else:
                            node_events.append((definition.name, delta, amount, missing))
                    # Climb up to delta head links; a climb the root cuts
                    # short is forced there.
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

        kids = children[node_id]
        batch = queues[node_id]
        if batch:
            node_events = None
            if record:
                node_events = events[node_id]
                if node_events is None:
                    node_events = events[node_id] = []
            subtree_so = _apply_batch(batch, plans, lexical, kids, subtree, tokens, node_events)
        elif kids:
            # Nothing applies here: the total of an untouched level, with
            # the branch scores summed the same way and a zero adjustment.
            subtree_so = lexical + sum([subtree[c] for c in kids]) + 0.0
        else:
            # A leaf: lookup never returns -0.0, so lexical + 0 + 0.0 is lexical.
            subtree_so = lexical
        subtree[node_id] = subtree_so

    sentence_so = subtree[root_id]
    if not isfinite(sentence_so):
        raise NonFiniteScoreError(f"sentence score {sentence_so} is not finite")
    return SoTrace(sentence_so, warnings, (tokens, lexicals, subtree, events) if record else None)
