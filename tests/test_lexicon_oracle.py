"""An independent lexicon oracle: scores straight from lexicon file lines.

``tests/reference.py`` scores trees through the package's own lexicon
object, so it cannot catch a fault in loading, merging or looking up. The
oracle here rebuilds every score from the file lines by brute force:

- within one file, the lines of a key are summed left to right;
- across merged sources, the per-source sums are added with ``math.fsum``
  and the counts with ``+``;
- a senticon_raw score ``s`` becomes ``copysign(1 + 4|s|, s)``;
- a key's score is its sum over its count, and a lookup tries (form, upos),
  (lemma, upos), (form, *), (lemma, *), lowercased, first present key wins.

It is compared with ``load_lexicon``, ``merge_lexica``, ``lookup`` (with
``float.hex``) and ``dump_lexicon`` (byte for byte) on seeded generated
lexica that contain duplicates, neutralized keys, ``*`` entries and both
scales.
"""

from __future__ import annotations

import math
from random import Random

import pytest

from sisa import load_lexicon
from sisa.lexicon import dump_lexicon, merge_lexica

Table = dict[tuple[str, str], tuple[float, int]]  # key -> (sum, count)

TAGS = ("ADJ", "NOUN", "ADV", "VERB", "*")
PROBE_UPOS = ("ADJ", "NOUN", "ADV", "VERB", "INTJ")
WORDS = ("bo", "Mal", "raro", "ÉXITO", "éxito", "casa", "casas", "feo", "Feo", "gran")


def oracle_table(text: str, raw: bool) -> Table:
    table: Table = {}
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        entry, pos, value = line.split("\t")
        so = float(value)
        if so == 0:
            continue
        if raw:
            so = math.copysign(1 + 4 * abs(so), so)
        key = (entry.lower(), pos)
        so_sum, count = table.get(key, (0.0, 0))
        table[key] = (so_sum + so if count else so, count + 1)
    return table


def oracle_merge(tables: list[Table]) -> Table:
    merged: Table = {}
    for key in {key for table in tables for key in table}:
        parts = [table[key] for table in tables if key in table]
        merged[key] = (math.fsum(s for s, _ in parts), sum(c for _, c in parts))
    return merged


def oracle_score(table: Table, key) -> float:
    so_sum, count = table[key]
    return so_sum / count + 0.0  # + 0.0 turns -0.0 into 0.0


def oracle_lookup(table: Table, form: str, lemma: str, upos: str) -> float:
    form, lemma = form.lower(), lemma.lower()
    for key in ((form, upos), (lemma, upos), (form, "*"), (lemma, "*")):
        if key in table:
            return oracle_score(table, key)
    return 0.0


def oracle_dump(table: Table) -> str:
    lines = ["# scale: sfu\n"]
    for key in sorted(table):
        lines.append(f"{key[0]}\t{key[1]}\t{format(oracle_score(table, key), '.12g')}\n")
    return "".join(lines)


def generated_source(rng: Random, raw: bool) -> str:
    """Lexicon text with duplicate lines, exact cancellations, zero lines,
    ``*`` entries, mixed case, comments and blank lines."""
    limit = 1 if raw else 5
    lines = ["# scale: senticon_raw\n" if raw else "# scale: sfu\n"]
    for _ in range(rng.randint(5, 40)):
        word, pos = rng.choice(WORDS), rng.choice(TAGS)
        roll = rng.random()
        if roll < 0.1:
            lines.append(rng.choice(("\n", "# a comment\n", "  \n")))
            continue
        if roll < 0.15:
            value = 0.0
        elif roll < 0.25:
            value = float(limit * rng.choice((-1, 1)))
        else:
            value = round(rng.uniform(-limit, limit), rng.choice((1, 3, 7)))
        lines.append(f"{word}\t{pos}\t{value!r}\n")
        if roll > 0.85:  # the same key cancelled later in the file
            lines.append(f"{word.upper()}\t{pos}\t{-value!r}\n")
    return "".join(lines)


def probes():
    """Every (form, lemma) pair of the vocabulary and a missing word, and each
    word in another case, under every probe UPOS."""
    words = WORDS + ("zz",)
    pairs = [(form, lemma) for form in words for lemma in words]
    pairs += [(word.upper(), word.title()) for word in words]
    for form, lemma in pairs:
        for upos in PROBE_UPOS:
            yield form, lemma, upos


def assert_matches(lexicon, table: Table) -> None:
    assert set(lexicon.scores) == set(table)
    for form, lemma, upos in probes():
        got = lexicon.lookup(form, lemma, upos)
        want = oracle_lookup(table, form, lemma, upos)
        assert got.hex() == want.hex(), (form, lemma, upos)
    assert dump_lexicon(lexicon) == oracle_dump(table)


@pytest.mark.parametrize("seed", range(40))
def test_lexica_match_the_oracle(tmp_path, seed):
    rng = Random(seed)
    sources, tables = [], []
    for index in range(rng.randint(1, 4)):
        raw = rng.random() < 0.4
        text = generated_source(rng, raw)
        path = tmp_path / f"s{index}.tsv"
        path.write_text(text, encoding="utf-8")
        lexicon = load_lexicon(path, "senticon_raw" if raw else "sfu")
        table = oracle_table(text, raw)
        assert_matches(lexicon, table)
        sources.append(lexicon)
        tables.append(table)

    merged = merge_lexica(sources, name="m")
    merged_table = oracle_merge(tables)
    assert_matches(merged, merged_table)

    # A merged lexicon merged again keeps its (sum, count) weighting.
    again = merge_lexica([merged, sources[0]], name="again")
    assert_matches(again, oracle_merge([merged_table, tables[0]]))

    # The dump reloads to the effective scores, one line per key.
    path = tmp_path / "dumped.tsv"
    path.write_text(dump_lexicon(merged), encoding="utf-8")
    assert_matches(load_lexicon(path), oracle_table(path.read_text(encoding="utf-8"), raw=False))


def test_generated_lexica_cover_every_case(tmp_path):
    """The seeds above hold duplicates, neutralized keys, zero lines,
    ``*`` entries and both scales."""
    seen = set()
    for seed in range(40):
        rng = Random(seed)
        for _ in range(rng.randint(1, 4)):
            raw = rng.random() < 0.4
            text = generated_source(rng, raw)
            table = oracle_table(text, raw)
            seen.add("raw" if raw else "sfu")
            seen.update("duplicate" for _, count in table.values() if count > 1)
            seen.update("neutralized" for so_sum, _ in table.values() if so_sum == 0)
            seen.update("wildcard" for _, pos in table if pos == "*")
            seen.update("zero" for line in text.split("\n") if line.endswith("\t0.0"))
    assert seen == {"raw", "sfu", "duplicate", "neutralized", "wildcard", "zero"}
