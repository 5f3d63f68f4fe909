"""Compositional operation definitions and the rule configuration format.

An operation bundles a trigger predicate over (word form, PoS tag, dependency
relation), a score transformation, the number of tree levels to climb before
applying, a priority for same-level ordering, and an ordered fallback list of
scopes naming what the transformation acts on.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping

from .errors import RuleConfigError
from .lexicon import WordList
from .util import parse_number, utf8_error, utf8_error_line

logger = logging.getLogger(__name__)

WEIGHTING = "weighting"
SHIFT = "shift"

TARGET = "target"
BRANCH = "branch"
SUBJL = "subjl"
SUBJR = "subjr"
ALL = "all"


# Universal Dependencies v2's 17 UPOS tags, plus v1's CONJ.
_UPOS = frozenset(
    "ADJ ADP ADV AUX CCONJ CONJ DET INTJ NOUN NUM PART PRON PROPN PUNCT SCONJ SYM VERB X".split()
)


def _check_bare(deprel: str) -> None:
    if ":" in deprel:
        raise RuleConfigError(f"deprel {deprel!r} has a :subtype; rules match the bare deprel")
    if not (deprel.isascii() and deprel.isalpha()):
        raise RuleConfigError(f"deprel {deprel!r} names no relation; a UD deprel is ASCII letters")


def apply_weighting(beta: float, so: float) -> float:
    """Scale a score by (1 + beta); beta = 0.25 turns 1.87 into 2.3375."""
    return so * (1.0 + beta)


def apply_shift(alpha: float, so: float) -> float:
    """Move a score by alpha toward (and possibly past) the opposite sign."""
    return so - alpha if so >= 0 else so + alpha


@dataclass(frozen=True)
class Transformation:
    """Score transformation: a fixed weighting/shift amount, or a weighting
    whose amount is read per trigger word from a booster word list. Refuses
    an unknown kind, a booster source on a shift, neither or both of an
    amount and a booster source, and an infinite or NaN amount."""

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
        if self.param is not None and not math.isfinite(self.param):
            raise RuleConfigError(f"non-finite transformation amount {self.param!r}")


@dataclass(frozen=True)
class TriggerPredicate:
    """Conjunction of constraints on form (or lemma), UPOS and deprel.

    ``None`` means wildcard. Refuses a predicate of wildcards only, and
    what would make a rule that never fires: a literal set naming nothing, an
    empty word (a FORM is never empty), a PoS tag outside UD's UPOS tags, a
    deprel that has a ``:subtype`` or is not ASCII letters. A form set is a
    shared word list (a dict, which may be empty) or a literal frozenset.
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
        for key, value in (("forms", self.forms), ("pos", self.pos), ("deprel", self.deprel)):
            if value is not None and not value and not isinstance(value, dict):
                raise RuleConfigError(f"trigger.{key} names nothing; use * for any")
        if self.forms is not None and "" in self.forms:
            raise RuleConfigError("trigger.forms '' names no word")
        for tag in sorted(self.pos or ()):
            if tag not in _UPOS:
                raise RuleConfigError(f"trigger.pos {tag!r} is not a UD UPOS tag")
        for deprel in sorted(self.deprel or ()):
            _check_bare(deprel)


@dataclass(frozen=True)
class ScopeSpec:
    """One scope selector: the target node itself, the first branch with a
    given deprel, the first subjective branch left/right of the trigger's
    origin, or the whole accumulated level. Refuses an unknown kind, a branch
    without a deprel, or with one that has a ``:subtype`` or is not ASCII
    letters, and a deprel on any other kind."""

    kind: str
    deprel: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in (TARGET, BRANCH, SUBJL, SUBJR, ALL):
            raise RuleConfigError(f"unknown scope kind {self.kind!r}")
        if (self.kind == BRANCH) != (self.deprel is not None):
            raise RuleConfigError("branch scopes take a deprel, other scopes do not")
        if self.deprel is not None:
            _check_bare(self.deprel)

    def __str__(self) -> str:
        return f"b({self.deprel})" if self.kind == BRANCH else self.kind


@dataclass(frozen=True)
class OperationDefinition:
    """A named compositional operation.

    ``delta`` is how many head links the triggered instance climbs before it
    is applied; higher ``priority`` applies first when several operations are
    dequeued at the same level. A trigger word list that is empty is
    accepted, as an empty word-list file is; reading a rules file warns of
    such a rule, which never fires.
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


_TAU_RE = re.compile(r"^(\w+)\((.+)\)$")
_BRANCH_RE = re.compile(r"^b\((.*)\)$")

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


def _items(value: str) -> list[str]:
    """The comma-separated items of a value, stripped, empty ones dropped."""
    return [item for item in map(str.strip, value.split(",")) if item]


def _parse_scope(text: str) -> ScopeSpec:
    branch = _BRANCH_RE.match(text)
    return ScopeSpec(BRANCH, branch.group(1).strip()) if branch else ScopeSpec(text)


def _parse_set(value: str) -> frozenset[str] | None:
    return None if value == "*" else frozenset(_items(value))


def _list_name(reference: str, lists: Mapping[str, WordList]) -> str:
    """The name of the word list an ``@name`` reference points to."""
    name = reference[1:]
    if name not in lists:
        raise RuleConfigError(f"missing word list @{name}")
    return name


def _parse_forms(value: str, lists: Mapping[str, WordList]) -> WordList | frozenset[str] | None:
    if value.startswith("@"):
        return lists[_list_name(value, lists)]
    return _parse_set(value.lower())


def _parse_tau(value: str, lists: Mapping[str, WordList]) -> Transformation:
    match = _TAU_RE.match(value)
    if not match:
        raise RuleConfigError(f"cannot parse transformation {value!r}")
    kind, arg = match.group(1), match.group(2).strip()
    if arg.startswith("@"):
        return Transformation(kind, booster_source=_list_name(arg, lists))
    try:
        param = parse_number(arg)
    except ValueError:
        raise RuleConfigError(f"non-numeric transformation amount {arg!r}") from None
    return Transformation(kind, param)


def _build_definition(block: dict[str, str], lists: Mapping[str, WordList]) -> OperationDefinition:
    name = block.get("name")
    if not name:
        raise RuleConfigError("[operation] block without a name")
    try:
        for key in ("tau", "scope"):
            if key not in block:
                raise RuleConfigError(f"missing required key {key!r}")
        forms = block.get("trigger.forms", "*")
        trigger = TriggerPredicate(
            _parse_forms(forms, lists),
            _parse_set(block.get("trigger.pos", "*")),
            _parse_set(block.get("trigger.deprel", "*")),
        )
        delta = parse_number(block.get("delta", "0"), int)
        priority = parse_number(block.get("priority", "0"), int)
        scopes = tuple(map(_parse_scope, _items(block["scope"])))
        transform = _parse_tau(block["tau"], lists)
    except (RuleConfigError, ValueError) as exc:
        raise RuleConfigError(f"rule {name!r}: {exc}") from None
    definition = OperationDefinition(name, trigger, transform, delta, priority, scopes)
    if forms.startswith("@") and not trigger.forms:
        logger.warning(
            "rule %r: trigger word list %r is empty, so the rule never fires", name, forms[1:]
        )
    return definition


def parse_rules(
    text: str | Iterable[str], lists: Mapping[str, WordList], source: str = "<rules>"
) -> list[OperationDefinition]:
    """Parse rule configuration text or its lines into definitions, in file order.

    One pass: a fault of a line (a bad byte included) is reported with that
    line, and a fault of a block's keys with the line of its ``[operation]``
    header, once the next header or the end of the input closes the block.
    One leading byte order mark is ignored."""

    def fault(message: object, line_no: int) -> RuleConfigError:
        return RuleConfigError(f"{source}:{line_no}: {message}")

    def close() -> None:
        if block is not None:
            try:
                definitions.append(_build_definition(block, lists))
            except RuleConfigError as exc:
                raise fault(exc, header) from None

    lines = iter(text.split("\n") if isinstance(text, str) else text)
    definitions: list[OperationDefinition] = []
    block: dict[str, str] | None = None
    names: set[str] = set()
    header = line_no = 0
    try:
        first = next(lines, "").removeprefix("\ufeff")
        for line_no, raw in enumerate(chain((first,), lines), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line == "[operation]":
                close()
                block, header = {}, line_no
                continue
            if line.startswith("["):
                raise fault(f"unknown section {line!r}", line_no)
            key, sep, value = line.partition("=")
            if not sep:
                raise fault(f"expected 'key = value', got {line!r}", line_no)
            if block is None:
                raise fault("key outside an [operation] block", line_no)
            key, value = key.strip(), value.strip()
            if key not in _KNOWN_KEYS:
                raise fault(f"unknown key {key!r} in [operation] block", line_no)
            if key in block:
                raise fault(f"duplicate key {key!r} in [operation] block", line_no)
            if key == "name" and value:
                if value in names:
                    raise fault(f"duplicate rule name {value!r}", line_no)
                names.add(value)
            block[key] = value
    except UnicodeDecodeError as exc:
        raise fault(utf8_error(exc), utf8_error_line(exc, line_no)) from None
    close()
    return definitions


def load_rules(path: str | Path, lists: Mapping[str, WordList]) -> list[OperationDefinition]:
    """Load a rule configuration file line by line; ``@name`` references resolve in ``lists``."""
    path = Path(path)
    with open(path, encoding="utf-8", newline="\n") as file:
        return parse_rules(file, lists, source=str(path))
