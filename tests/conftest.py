from pathlib import Path

import pytest

from sisa import load_lexicon, load_rules, load_wordlists

FIXTURES = Path(__file__).parent / "fixtures"
REPO = Path(__file__).resolve().parent.parent
DEFAULT_RULES = REPO / "rules" / "sisa_default.rules"
LISTS_DIR = REPO / "lists"


def bom_copy(path: Path, directory: Path) -> Path:
    """Copy ``path`` into ``directory`` behind a UTF-8 byte order mark."""
    copy = directory / path.name
    copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return copy


@pytest.fixture(scope="session")
def fixtures() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def wordlists():
    return load_wordlists(LISTS_DIR)


@pytest.fixture(scope="session")
def fixture_lexicon():
    return load_lexicon(FIXTURES / "lexicon.tsv")


@pytest.fixture(scope="session")
def default_rules(wordlists):
    return load_rules(DEFAULT_RULES, wordlists)
