"""Seeded, stdlib-only generator of the benchmark's input corpora.

Every workload is a pure function of its seed: the same seed writes the same
bytes. Random streams are derived from string seeds ("<seed>:<purpose>"),
which ``random.Random`` hashes with SHA-512, so the output does not depend on
``PYTHONHASHSEED`` or on the order in which workloads are generated.

The shipped ``lists/`` and ``rules/`` are read, never written. The trigger
words come from those lists; the fan-out vocabulary is the six-word fixture
vocabulary of ``tests/treegen.py``.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LISTS_DIR = REPO / "lists"
RULES_PATH = REPO / "rules" / "sisa_default.rules"

WORKLOADS = ("reviews", "fanout", "trace")

# Size of each workload. Chosen so that one pass of the workload's scoring
# path takes about a second on a 2-core container, which gives several
# passes per measured run, and so that the stratified size ladders below
# cover their whole range in every seed.
LEXICON_ENTRIES = 20_000
RAW_ENTRIES = 12_000
NEUTRAL_WORDS = 10_000
REVIEW_DOCS = 160
FANOUT_ITEMS = 100  # half star, half chain
FANOUT_MIN_TOKENS = 200
FANOUT_MAX_TOKENS = 2000
TRACE_SENTENCES = 1200

# Items per part manifest; every part must keep a readable item, so this
# stays above the number of BOM files a corpus holds.
MANIFEST_CHUNK = 10

# The traffic constants below (file shares, trigger rates, function-word
# rate, Zipf shape, gold-label noise) are assumptions, not measurements of a
# real corpus: no annotated Spanish review corpus ships with this repository.
# They were set so that the measured traffic each run prints (trigger rate
# per rule, lexicon hit share) lies in a plausible range for review text. A
# corpus study that measures these rates should replace them.

# Seeded shares of awkward-but-valid files in the reviews corpus.
BOM_SHARE = 0.03
CRLF_SHARE = 0.05

# Per-token trigger rates on reviews, by list name.
TRIGGER_RATES = {"negators": 0.025, "boosters": 0.03, "adversatives": 0.012, "irrealis": 0.008}

FUNCTION_WORDS = (
    # (form, upos, deprel, attaches to)
    ("el", "DET", "det", "NOUN"),
    ("la", "DET", "det", "NOUN"),
    ("los", "DET", "det", "NOUN"),
    ("una", "DET", "det", "NOUN"),
    ("de", "ADP", "case", "NOUN"),
    ("en", "ADP", "case", "NOUN"),
    ("con", "ADP", "case", "NOUN"),
    ("para", "ADP", "case", "NOUN"),
    ("es", "AUX", "cop", "ADJ"),
    ("ha", "AUX", "aux", "VERB"),
    ("que", "PRON", "nsubj", "VERB"),
    ("se", "PRON", "expl", "VERB"),
    ("y", "CCONJ", "cc", "ANY"),
    (",", "PUNCT", "punct", "ANY"),
)
FUNCTION_RATE = 0.38

# Share of review documents whose gold label disagrees with the sign of
# their summed lexicon scores, so that accuracy stays below 1.
GOLD_NOISE = 0.15

# Zipf-Mandelbrot ranks over the content vocabulary; scored words are spread
# over a wider rank range than neutral ones, which puts the share of tokens
# with a lexicon score near a quarter.
ZIPF_EXPONENT = 1.05
ZIPF_OFFSET = 20
SCORED_RANK_SPREAD = 3.0

SYLLABLES = tuple(
    c + v for c in ("b", "c", "d", "f", "g", "l", "m", "n", "p", "r", "s", "t", "v", "z", "ch", "ll")
    for v in ("a", "e", "i", "o", "u")
)
CONTENT_POS = (("ADJ", 0.34), ("NOUN", 0.36), ("VERB", 0.2), ("ADV", 0.1))


def read_wordlists(directory: Path = LISTS_DIR) -> dict[str, list[str]]:
    """Words of each shipped list, in file order, keyed by file stem."""
    lists: dict[str, list[str]] = {}
    for path in sorted(directory.glob("*")):
        if path.suffix not in (".txt", ".tsv"):
            continue
        words = []
        for raw in path.read_text(encoding="utf-8").splitlines():
            line = raw.strip()
            if line and not line.startswith("#"):
                words.append(line.split("\t")[0].lower())
        lists[path.stem] = words
    return lists


@dataclass
class Item:
    """One unit of work: a document file (reviews) or a sentence (others)."""

    name: str
    text: str
    gold: str
    path: Path | None = None
    bom: bool = False
    crlf: bool = False


@dataclass
class Corpus:
    workload: str
    seed: int
    root: Path
    items: list[Item]
    lexicon_sl: Path
    lexicon_raw: Path
    lexicon_ml: Path
    manifest: Path
    chunks: list[Path]  # the manifest cut into consecutive parts of MANIFEST_CHUNK items
    cli_input: Path | None = None


class _Words:
    """The synthetic vocabulary: lexicon entries, neutral words, Zipf ranks."""

    def __init__(self, seed: int, reserved: set[str]):
        rng = random.Random(f"{seed}:words")
        names: list[str] = []
        seen = set(reserved)
        while len(names) < LEXICON_ENTRIES + NEUTRAL_WORDS:
            word = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 4)))
            if word not in seen:
                seen.add(word)
                names.append(word)
        pos_tags = [tag for tag, _ in CONTENT_POS]
        pos_weights = [w for _, w in CONTENT_POS]
        self.pos = {word: rng.choices(pos_tags, pos_weights)[0] for word in names}
        self.lexicon: dict[tuple[str, str], float] = {}
        for word in names[:LEXICON_ENTRIES]:
            magnitude = round(rng.uniform(0.5, 5.0), 2)
            self.lexicon[(word, self.pos[word])] = magnitude if rng.random() < 0.55 else -magnitude
        # Zipf over a shuffled mix of scored and neutral words, with the
        # neutral ones pushed towards the frequent ranks, as in real text.
        keys = {word: rng.random() * (SCORED_RANK_SPREAD if index < LEXICON_ENTRIES else 1.0) for index, word in enumerate(names)}
        self.ranked = sorted(names, key=keys.__getitem__)
        total = 0.0
        self.cumulative = []
        for rank in range(1, len(self.ranked) + 1):
            total += 1.0 / (rank + ZIPF_OFFSET) ** ZIPF_EXPONENT
            self.cumulative.append(total)
        self.names = names

    def draw(self, rng: random.Random) -> str:
        index = bisect.bisect_left(self.cumulative, rng.random() * self.cumulative[-1])
        return self.ranked[min(index, len(self.ranked) - 1)]


def _format_score(value: float) -> str:
    return format(value, ".12g")


def _write_lexica(corpus_root: Path, words: _Words, seed: int) -> tuple[Path, Path]:
    """The single-language lexicon (sfu scale) and a raw-scale second source.

    The fixture vocabulary's two scored words are added with the scores
    ``tests/treegen.py`` gives them, so fan-out trees score as they do there.
    """
    rng = random.Random(f"{seed}:raw")
    sl_lines = ["# scale: sfu\n", "bueno\tADJ\t2\n", "malo\tADJ\t-3\n"]
    for (word, pos), so in words.lexicon.items():
        sl_lines.append(f"{word}\t{pos}\t{_format_score(so)}\n")
    raw_lines = ["# scale: senticon_raw\n"]
    overlap = words.names[: RAW_ENTRIES // 2]
    fresh = words.names[LEXICON_ENTRIES : LEXICON_ENTRIES + RAW_ENTRIES - len(overlap)]
    for word in overlap + fresh:
        value = round(rng.uniform(0.05, 1.0), 3)
        raw_lines.append(f"{word}\t{words.pos[word]}\t{_format_score(value if rng.random() < 0.5 else -value)}\n")
    sl = corpus_root / "lexicon_sl.tsv"
    raw = corpus_root / "lexicon_raw.tsv"
    sl.write_bytes("".join(sl_lines).encode("utf-8"))
    raw.write_bytes("".join(raw_lines).encode("utf-8"))
    return sl, raw


def _conllu_line(tid: int, form: str, lemma: str, upos: str, head: int, deprel: str) -> str:
    return f"{tid}\t{form}\t{lemma}\t{upos}\t_\t_\t{head}\t{deprel}\t_\t_\n"


def _review_sentence(rng: random.Random, words: _Words, triggers: dict[str, list[str]]) -> tuple[list[str], float]:
    """One realistic sentence: CoNLL-U lines and the sum of its lexicon scores.

    Content words form the tree skeleton: each attaches to an earlier-placed
    content word, preferring near neighbours, so depth stays moderate.
    Function words and triggers are leaves attached to the nearest content
    word of the kind they modify.
    """
    length = rng.randint(12, 40)
    slots: list[tuple[str, str, str]] = []  # (form, upos, role)
    for _ in range(length):
        roll = rng.random()
        acc = 0.0
        role = "content"
        for name, rate in TRIGGER_RATES.items():
            acc += rate
            if roll < acc:
                role = name
                break
        else:
            if roll < acc + FUNCTION_RATE:
                role = "function"
        if role == "content":
            word = words.draw(rng)
            slots.append((word, words.pos[word], role))
        elif role == "function":
            fw = rng.choice(FUNCTION_WORDS)
            slots.append((fw[0], fw[1], "function"))
        else:
            upos = {"negators": "ADV", "boosters": "ADV", "adversatives": "CONJ", "irrealis": "SCONJ"}[role]
            slots.append((rng.choice(triggers[role]), upos, role))
    content = [i for i, slot in enumerate(slots) if slot[2] == "content" and slot[1] != "ADV"]
    if not content:
        word = next(w for w in words.ranked if words.pos[w] == "VERB")
        slots[0] = (word, "VERB", "content")
        content = [0]
    heads = [0] * length
    deprels = [""] * length
    order = content[:]
    rng.shuffle(order)
    root = next((i for i in order if slots[i][1] in ("VERB", "ADJ")), order[0])
    order.remove(root)
    placed = [root]
    deprels[root] = "root"
    for i in order:
        weights = [1.0 / (1 + abs(i - j)) for j in placed]
        head = rng.choices(placed, weights)[0]
        placed.append(i)
        heads[i] = head + 1
        upos, head_upos = slots[i][1], slots[head][1]
        if upos == "ADJ":
            deprels[i] = "amod" if head_upos == "NOUN" else "xcomp"
        elif upos == "NOUN":
            if head_upos == "NOUN":
                deprels[i] = "nmod"
            else:
                deprels[i] = "nsubj" if i < head else "obj"
        else:
            deprels[i] = "conj" if head_upos == "VERB" else "advcl"
    placed_set = sorted(placed)

    def nearest(i: int, wanted: tuple[str, ...]) -> int:
        best = None
        for j in placed_set:
            if wanted and slots[j][1] not in wanted:
                continue
            if best is None or abs(i - j) < abs(i - best):
                best = j
        return best if best is not None else root

    for i, (form, upos, role) in enumerate(slots):
        if i == root or i in content:
            continue
        if role == "content":  # adverbs
            heads[i] = nearest(i, ("VERB", "ADJ")) + 1
            deprels[i] = "advmod"
        elif role == "function":
            fw = next(f for f in FUNCTION_WORDS if f[0] == form)
            wanted = () if fw[3] == "ANY" else (fw[3],)
            heads[i] = nearest(i, wanted) + 1
            deprels[i] = fw[2]
        elif role == "boosters":
            heads[i] = nearest(i, ("ADJ", "VERB")) + 1
            deprels[i] = "advmod:emph" if rng.random() < 0.15 else "advmod"
        elif role == "negators":
            heads[i] = nearest(i, ("VERB", "ADJ")) + 1
            deprels[i] = "advmod"
        elif role == "adversatives":
            heads[i] = nearest(i, ("VERB", "ADJ", "NOUN")) + 1
            deprels[i] = "cc"
        else:
            heads[i] = nearest(i, ("VERB",)) + 1
            deprels[i] = "mark"
    lines = []
    lexical = 0.0
    for i, (form, upos, role) in enumerate(slots):
        surface = form.capitalize() if i == 0 else form
        lemma = "_" if role == "content" and rng.random() < 0.1 else form.lower()
        lines.append(_conllu_line(i + 1, surface, lemma, upos, heads[i], deprels[i]))
        lexical += words.lexicon.get((form, upos), 0.0)
    return lines, lexical


def _reserved_words(lists: dict[str, list[str]]) -> set[str]:
    from treegen import VOCAB

    reserved = {form for form, _, _ in VOCAB}
    reserved.update(fw[0] for fw in FUNCTION_WORDS)
    for words in lists.values():
        reserved.update(words)
    return reserved


def fanout_sizes(count: int) -> list[int]:
    """``count`` sizes spread log-uniformly over [FANOUT_MIN_TOKENS,
    FANOUT_MAX_TOKENS]: the midpoints of ``count`` equal slices in log space.

    The ladder is the same for every seed (the seed picks the words and the
    root position), because star cost grows faster than linearly and a
    seeded size would make the largest stars, and with them the tail
    latency, differ from seed to seed.
    """
    lo, hi = math.log(FANOUT_MIN_TOKENS), math.log(FANOUT_MAX_TOKENS)
    step = (hi - lo) / count
    return [int(round(math.exp(lo + (k + 0.5) * step))) for k in range(count)]


def fanout_sentence(rng: random.Random, n: int, shape: str) -> str:
    """A star (every token on the root) or a chain (each token heads the
    next) over the fixture vocabulary, as CoNLL-U text."""
    from treegen import VOCAB

    lines = []
    root = rng.randint(1, n) if shape == "star" else n
    for tid in range(1, n + 1):
        form, upos, deprel = VOCAB[rng.randrange(len(VOCAB))]
        if shape == "star":
            head = 0 if tid == root else root
        else:
            head = 0 if tid == n else tid + 1
        lines.append(_conllu_line(tid, form, form, upos, head, "root" if head == 0 else deprel))
    return "".join(lines) + "\n"


def _write_manifest(path: Path, items: list[Item]) -> Path:
    lines = (f"{item.path.relative_to(path.parent).as_posix()}\t{item.gold}\n" for item in items)
    path.write_bytes("".join(lines).encode("utf-8"))
    return path


def _write_item_files(corpus_root: Path, items: list[Item]) -> None:
    docs = corpus_root / "docs"
    docs.mkdir(exist_ok=True)
    for item in items:
        item.path = docs / f"{item.name}.conllu"
        data = item.text
        if item.crlf:
            data = data.replace("\n", "\r\n")
        raw = data.encode("utf-8")
        if item.bom:
            raw = b"\xef\xbb\xbf" + raw
        item.path.write_bytes(raw)


def generate(workload: str, seed: int, out_dir: Path) -> Corpus:
    """Write one workload's inputs under ``out_dir`` and describe them."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    corpus_root = Path(out_dir)
    corpus_root.mkdir(parents=True, exist_ok=True)
    lists = read_wordlists()
    words = _Words(seed, _reserved_words(lists))
    lexicon_sl, lexicon_raw = _write_lexica(corpus_root, words, seed)
    rng = random.Random(f"{seed}:{workload}")
    items: list[Item] = []
    cli_input = None
    if workload == "reviews":
        counts = [1 + k % 8 for k in range(REVIEW_DOCS)]
        rng.shuffle(counts)
        for index, n_sentences in enumerate(counts):
            lines: list[str] = []
            lexical = 0.0
            for s in range(n_sentences):
                sentence, score = _review_sentence(rng, words, lists)
                lines.append(f"# sent_id = d{index:04d}-{s + 1}\n")
                lines.extend(sentence)
                lines.append("\n")
                lexical += score
            gold = "positive" if lexical >= 0 else "negative"
            if rng.random() < GOLD_NOISE:
                gold = "negative" if gold == "positive" else "positive"
            items.append(Item(f"d{index:04d}", "".join(lines), gold))
        for item in rng.sample(items, max(1, round(BOM_SHARE * len(items)))):
            item.bom = True
        for item in rng.sample(items, max(1, round(CRLF_SHARE * len(items)))):
            item.crlf = True
        _write_item_files(corpus_root, items)
    elif workload == "fanout":
        half = FANOUT_ITEMS // 2
        shaped = [(shape, n) for shape in ("star", "chain") for n in fanout_sizes(half)]
        rng.shuffle(shaped)
        for index, (shape, n) in enumerate(shaped):
            text = fanout_sentence(rng, n, shape)
            items.append(Item(f"{shape}{index:03d}", text, rng.choice(("positive", "negative"))))
        _write_item_files(corpus_root, items)
    else:
        for index in range(TRACE_SENTENCES):
            sentence, score = _review_sentence(rng, words, lists)
            text = "".join(sentence) + "\n"
            items.append(Item(f"s{index:05d}", text, "positive" if score >= 0 else "negative"))
        _write_item_files(corpus_root, items)
    if workload != "reviews":
        cli_input = corpus_root / f"{workload}.conllu"
        cli_input.write_bytes("".join(item.text for item in items).encode("utf-8"))
    manifest = _write_manifest(corpus_root / "manifest.tsv", items)
    chunks = [
        _write_manifest(corpus_root / f"manifest-{start // MANIFEST_CHUNK:03d}.tsv", items[start : start + MANIFEST_CHUNK])
        for start in range(0, len(items), MANIFEST_CHUNK)
    ]
    return Corpus(
        workload=workload,
        seed=seed,
        root=corpus_root,
        items=items,
        lexicon_sl=lexicon_sl,
        lexicon_raw=lexicon_raw,
        lexicon_ml=corpus_root / "lexicon_ml.tsv",
        manifest=manifest,
        chunks=chunks,
        cli_input=cli_input,
    )
