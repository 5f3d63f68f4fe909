"""Independent brute-force reference for sentence scoring.

Instead of queueing and propagating countdown instances through the tree,
this reference materializes every (trigger, target level, origin) tuple up
front by walking ancestor paths, then sweeps the nodes bottom-up applying
the same ordering contract: at each level, countdown-expired instances in
descending priority (leftmost trigger on ties), with root leftovers forced
after the normal batch. Matching, scope resolution and the transformations
are reimplemented here from their definitions, not imported from the engine.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class _Job:
    definition: object
    trigger_id: int
    target_id: int
    origin_id: int
    forced: bool
    beta: float


def _matches(defn, token) -> bool:
    trigger = defn.trigger
    if trigger.forms is not None:
        if token.form.lower() not in trigger.forms and token.lemma.lower() not in trigger.forms:
            return False
    if trigger.pos is not None and token.upos not in trigger.pos:
        return False
    bare = token.deprel.split(":", 1)[0]
    if trigger.deprel is not None and bare not in trigger.deprel:
        return False
    return True


def _beta_for(defn, token, lists) -> float:
    source = defn.transform.booster_source
    if source is None:
        return 0.0
    wordlist = lists.get(source)
    if wordlist is None:
        return 0.0
    value = wordlist.get(token.form.lower())
    if value is None:
        value = wordlist.get(token.lemma.lower())
    return 0.0 if value is None else value


def _transform(job: _Job, so: float) -> float:
    transform = job.definition.transform
    if transform.kind == "weighting":
        beta = transform.param if transform.param is not None else job.beta
        return so * (1.0 + beta)
    return so - transform.param if so >= 0 else so + transform.param


def _ancestors(tree, token_id):
    path = []
    head = tree.token(token_id).head
    while head:
        path.append(head)
        head = tree.token(head).head
    return path


def _materialize_jobs(tree, defs, lists):
    jobs = []
    for token in tree.tokens:
        for defn in defs:
            if not _matches(defn, token):
                continue
            path = _ancestors(tree, token.id)
            take = min(defn.delta, len(path))
            target = path[take - 1] if take else token.id
            origin = path[take - 2] if take >= 2 else token.id
            jobs.append(
                _Job(
                    definition=defn,
                    trigger_id=token.id,
                    target_id=target,
                    origin_id=origin,
                    forced=take < defn.delta,
                    beta=_beta_for(defn, token, lists),
                )
            )
    return jobs


class _Level:
    def __init__(self, head_so, branches):
        self.head_so = head_so
        self.branches = branches  # list of [child_id, bare_deprel, so]
        self.adjustment = 0.0

    def total(self):
        return self.head_so + sum(so for _, _, so in self.branches) + self.adjustment


def _apply_jobs(jobs, level: _Level, origin_of):
    jobs = sorted(jobs, key=lambda j: (-j.definition.priority, j.trigger_id))
    for job in jobs:
        applied = False
        for spec in job.definition.scopes:
            if spec.kind == "target":
                if level.head_so != 0:
                    level.head_so = _transform(job, level.head_so)
                    applied = True
            elif spec.kind == "branch":
                for branch in level.branches:
                    if branch[1] == spec.deprel and branch[2] != 0:
                        branch[2] = _transform(job, branch[2])
                        applied = True
                        break
            elif spec.kind == "subjl":
                for branch in level.branches:
                    if branch[0] < origin_of(job) and branch[2] != 0:
                        branch[2] = _transform(job, branch[2])
                        applied = True
                        break
            elif spec.kind == "subjr":
                for branch in level.branches:
                    if branch[0] > origin_of(job) and branch[2] != 0:
                        branch[2] = _transform(job, branch[2])
                        applied = True
                        break
            elif spec.kind == "all":
                before = level.total()
                level.adjustment += _transform(job, before) - before
                applied = True
            if applied:
                break
        # unmatched scope lists discard the job silently


def reference_so(tree, lex, defs, lists=None) -> float:
    """Sentence score computed the slow, explicit way."""
    lists = lists or {}
    jobs = _materialize_jobs(tree, defs, lists)
    by_target: dict[int, list[_Job]] = {}
    for job in jobs:
        by_target.setdefault(job.target_id, []).append(job)

    subtree_so: dict[int, float] = {}

    def postorder(node_id):
        order = []
        stack = [node_id]
        while stack:
            current = stack.pop()
            order.append(current)
            stack.extend(tree.children(current))
        return reversed(order)

    for node_id in postorder(tree.root_id):
        token = tree.token(node_id)
        branches = [
            [child_id, tree.token(child_id).deprel.split(":", 1)[0], subtree_so[child_id]]
            for child_id in tree.children(node_id)
        ]
        level = _Level(lex.lookup(token.form, token.lemma, token.upos), branches)
        here = by_target.get(node_id, [])
        _apply_jobs([j for j in here if not j.forced], level, lambda j: j.origin_id)
        if node_id == tree.root_id:
            _apply_jobs([j for j in here if j.forced], level, lambda j: j.origin_id)
        subtree_so[node_id] = level.total()

    return subtree_so[tree.root_id]
