"""Compositional operation definitions and the rule configuration format.

An operation bundles a trigger predicate over (word form, PoS tag, dependency
relation), a score transformation, the number of tree levels to climb before
applying, a priority for same-level ordering, and an ordered fallback list of
scopes naming what the transformation acts on.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .errors import RuleConfigError
from .lexicon import WordList
from .util import read_utf8

WEIGHTING = "weighting"
SHIFT = "shift"

TARGET = "target"
BRANCH = "branch"
SUBJL = "subjl"
SUBJR = "subjr"
ALL = "all"


def apply_weighting(beta: float, so: float) -> float:
    """Scale a score by (1 + beta); beta = 0.25 turns 1.87 into 2.3375."""
    return so * (1.0 + beta)


def apply_shift(alpha: float, so: float) -> float:
    """Move a score by alpha toward (and possibly past) the opposite sign."""
    return so - alpha if so >= 0 else so + alpha


@dataclass(frozen=True)
class Transformation:
    """Score transformation: a fixed weighting/shift amount, or a weighting
    whose amount is read per trigger word from a booster word list."""

    kind: str
    param: float | None = None
    booster_source: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in (WEIGHTING, SHIFT):
            raise RuleConfigError(f"unknown transformation kind {self.kind!r}")
        if self.booster_source is not None and self.kind != WEIGHTING:
            raise RuleConfigError("booster-driven amounts are only legal for weighting")
        if (self.param is None) == (self.booster_source is None):
            raise RuleConfigError("transformation needs a numeric amount or a booster source")


@dataclass(frozen=True)
class TriggerPredicate:
    """Conjunction of constraints on form (or lemma), UPOS and deprel.

    ``None`` means wildcard; at least one constraint must be concrete. Form
    sets may be shared :class:`WordList` objects or literal frozensets.
    :func:`sisa.engine.compute_so` tests the predicate against each node: the
    lowercased form or lemma must be in the form set, the UPOS in the PoS
    set, and the deprel without its ``:subtype`` suffix in the deprel set.
    """

    forms: WordList | frozenset[str] | None = None
    pos: frozenset[str] | None = None
    deprel: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if self.forms is None and self.pos is None and self.deprel is None:
            raise RuleConfigError("trigger predicate must constrain at least one field")


@dataclass(frozen=True)
class ScopeSpec:
    """One scope selector: the target node itself, the first branch with a
    given deprel, the first subjective branch left/right of the trigger's
    origin, or the whole accumulated level."""

    kind: str
    deprel: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in (TARGET, BRANCH, SUBJL, SUBJR, ALL):
            raise RuleConfigError(f"unknown scope kind {self.kind!r}")
        if (self.kind == BRANCH) != (self.deprel is not None):
            raise RuleConfigError("branch scopes take a deprel, other scopes do not")

    def __str__(self) -> str:
        return f"b({self.deprel})" if self.kind == BRANCH else self.kind


@dataclass(frozen=True)
class OperationDefinition:
    """A named compositional operation.

    ``delta`` is how many head links the triggered instance climbs before it
    is applied; higher ``priority`` applies first when several operations are
    dequeued at the same level.
    """

    name: str
    trigger: TriggerPredicate
    transform: Transformation
    delta: int
    priority: int
    scopes: tuple[ScopeSpec, ...]

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise RuleConfigError(f"rule {self.name!r}: delta must be >= 0")
        if not self.scopes:
            raise RuleConfigError(f"rule {self.name!r}: scope list must not be empty")


_TAU_RE = re.compile(r"^(weighting|shift)\((.+)\)$")
_BRANCH_RE = re.compile(r"^b\((.+)\)$")

_KNOWN_KEYS = {
    "name",
    "trigger.forms",
    "trigger.pos",
    "trigger.deprel",
    "tau",
    "delta",
    "priority",
    "scope",
}


def _parse_scope(text: str, rule: str) -> ScopeSpec:
    text = text.strip()
    if text in (TARGET, SUBJL, SUBJR, ALL):
        return ScopeSpec(text)
    branch = _BRANCH_RE.match(text)
    if branch:
        deprel = branch.group(1).strip()
        if not deprel:
            raise RuleConfigError(f"rule {rule!r}: branch scope {text!r} names no deprel")
        return ScopeSpec(BRANCH, deprel)
    raise RuleConfigError(f"rule {rule!r}: unknown scope keyword {text!r}")


def _parse_set(value: str) -> frozenset[str] | None:
    if value == "*":
        return None
    return frozenset(item.strip() for item in value.split(",") if item.strip())


def _list_name(reference: str, rule: str, lists: Mapping[str, WordList]) -> str:
    """The name of the word list an ``@name`` reference points to."""
    name = reference[1:]
    if name not in lists:
        raise RuleConfigError(f"rule {rule!r}: missing word list @{name}")
    return name


def _parse_forms(
    value: str, rule: str, lists: Mapping[str, WordList]
) -> WordList | frozenset[str] | None:
    if value == "*":
        return None
    if value.startswith("@"):
        return lists[_list_name(value, rule, lists)]
    return frozenset(item.strip().lower() for item in value.split(",") if item.strip())


def _parse_tau(value: str, rule: str, lists: Mapping[str, WordList]) -> Transformation:
    match = _TAU_RE.match(value)
    if not match:
        raise RuleConfigError(f"rule {rule!r}: cannot parse transformation {value!r}")
    kind, arg = match.group(1), match.group(2).strip()
    if arg.startswith("@"):
        if kind != WEIGHTING:
            raise RuleConfigError(f"rule {rule!r}: shift requires a numeric amount")
        return Transformation(kind=WEIGHTING, booster_source=_list_name(arg, rule, lists))
    try:
        param = float(arg)
    except ValueError:
        raise RuleConfigError(
            f"rule {rule!r}: non-numeric transformation amount {arg!r}"
        ) from None
    if not math.isfinite(param):
        raise RuleConfigError(f"rule {rule!r}: non-finite transformation amount {arg!r}")
    return Transformation(kind=kind, param=param)


def _build_definition(block: dict[str, str], lists: Mapping[str, WordList]) -> OperationDefinition:
    unknown = set(block) - _KNOWN_KEYS
    if unknown:
        raise RuleConfigError(f"unknown keys in [operation] block: {', '.join(sorted(unknown))}")
    name = block.get("name")
    if not name:
        raise RuleConfigError("[operation] block without a name")
    for key in ("tau", "scope"):
        if key not in block:
            raise RuleConfigError(f"rule {name!r}: missing required key {key!r}")
    trigger = TriggerPredicate(
        forms=_parse_forms(block.get("trigger.forms", "*"), name, lists),
        pos=_parse_set(block.get("trigger.pos", "*")),
        deprel=_parse_set(block.get("trigger.deprel", "*")),
    )
    try:
        delta = int(block.get("delta", "0"))
        priority = int(block.get("priority", "0"))
    except ValueError as exc:
        raise RuleConfigError(f"rule {name!r}: {exc}") from None
    scopes = tuple(
        _parse_scope(item, name) for item in block["scope"].split(",") if item.strip()
    )
    return OperationDefinition(
        name=name,
        trigger=trigger,
        transform=_parse_tau(block["tau"], name, lists),
        delta=delta,
        priority=priority,
        scopes=scopes,
    )


def parse_rules(
    text: str, lists: Mapping[str, WordList], source: str = "<rules>"
) -> list[OperationDefinition]:
    """Parse rule configuration text into definitions, in file order."""
    blocks: list[dict[str, str]] = []
    block: dict[str, str] | None = None
    for line_no, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[operation]":
            block = {}
            blocks.append(block)
            continue
        if line.startswith("["):
            raise RuleConfigError(f"{source}:{line_no}: unknown section {line!r}")
        key, sep, value = line.partition("=")
        if not sep:
            raise RuleConfigError(f"{source}:{line_no}: expected 'key = value', got {line!r}")
        if block is None:
            raise RuleConfigError(f"{source}:{line_no}: key outside an [operation] block")
        key = key.strip()
        if key in block:
            raise RuleConfigError(f"{source}:{line_no}: duplicate key {key!r} in [operation] block")
        block[key] = value.strip()
    return [_build_definition(b, lists) for b in blocks]


def load_rules(path: str | Path, lists: Mapping[str, WordList]) -> list[OperationDefinition]:
    """Load a rule configuration file; ``@name`` references resolve in ``lists``."""
    path = Path(path)
    text = read_utf8(path, lambda message, line_no: RuleConfigError(f"{path}:{line_no}: {message}"))
    return parse_rules(text.removeprefix("\ufeff"), lists, source=str(path))
