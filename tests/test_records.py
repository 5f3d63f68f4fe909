"""Lexica, word lists and manifests are read by one streamed record reader."""

import pytest

from conftest import FIXTURES, LISTS_DIR
from sisa import LexiconParseError, ManifestError, WordListParseError, load_lexicon
from sisa.evaluate import load_manifest
from sisa.lexicon import load_wordlist
from sisa.util import read_records

# name: (loader, error type, a good line, a line with one field too many or few, its message)
LOADERS = {
    "lexicon": (
        load_lexicon, LexiconParseError, b"palabra\tNOUN\t1\n", b"bueno\tADJ\n",
        "expected 3 tab-separated fields, got 2",
    ),
    "word list": (
        load_wordlist, WordListParseError, b"palabra\t0.5\n", b"muy\t0.25\tADV\n",
        "expected at most 2 tab-separated fields, got 3",
    ),
    "manifest": (
        load_manifest, ManifestError, b"a.conllu\tpositive\n", b"b.conllu\tnegative\tx\n",
        "expected 2 tab-separated fields, got 3",
    ),
}


def crlf_copy(path, directory):
    """Copy ``path`` into ``directory`` behind a byte order mark, its lines ended by CRLF."""
    copy = directory / path.name
    copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes().replace(b"\n", b"\r\n"))
    return copy


def test_records_are_numbered_stripped_and_split(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_bytes(b"\xef\xbb\xbf# note\r\n\r\n a\tb \r\n\t#x\n  \nc\n# d\te")
    assert list(read_records(path, ManifestError)) == [(3, ["a", "b"]), (6, ["c"])]


@pytest.mark.parametrize(
    "loader, error, good, bad, message", LOADERS.values(), ids=LOADERS.keys()
)
def test_the_first_fault_in_file_order_is_reported(tmp_path, loader, error, good, bad, message):
    # The bad byte lies in a later 8 KiB chunk than line 2; a loader that
    # decoded the whole file first would report it instead.
    data = good + bad + good * 1_000 + b"mal\xffo\n"
    assert data.index(b"\xff") > 8192
    path = tmp_path / "f.tsv"
    path.write_bytes(data)
    with pytest.raises(error) as err:
        loader(path)
    assert str(err.value) == f"{path}:2: {message}"
    assert err.value.line_no == 2


def test_an_indent_without_a_tab_is_dropped(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_bytes(b"  e\tf \t\n\x0bg\n\t\n \t# note\n")
    assert list(read_records(path, ManifestError)) == [(1, ["e", "f"]), (2, ["g"])]


@pytest.mark.parametrize("line", [b"\tb\n", b" \tc\t\n", b"\x0b\t\td\n"], ids=repr)
def test_a_tab_in_the_indent_opens_an_empty_first_field(tmp_path, line):
    path = tmp_path / "r.tsv"
    path.write_bytes(b"a\tb\n" + line)
    with pytest.raises(ManifestError) as err:
        list(read_records(path, ManifestError, "item path"))
    assert str(err.value) == f"{path}:2: empty item path"


# name: (loader, error type, a good line, a line that opens with a tab, its message)
EMPTY_FIRST_FIELD = {
    "lexicon": (load_lexicon, LexiconParseError, b"bueno\tADJ\t2\n", b"\tADJ\t2\n", "empty entry"),
    "word list": (load_wordlist, WordListParseError, b"muy\t0.25\n", b"\t0.5\n", "empty entry"),
    "manifest": (
        load_manifest, ManifestError, b"a.conllu\tpositive\n", b"\tnegative\n", "empty item path",
    ),
}


@pytest.mark.parametrize(
    "loader, error, good, bad, message", EMPTY_FIRST_FIELD.values(), ids=EMPTY_FIRST_FIELD.keys()
)
def test_an_empty_first_field_is_refused(tmp_path, loader, error, good, bad, message):
    # Stripped whole, the line lost its tab: a word list read "\t0.5" as the word "0.5".
    path = tmp_path / "f.tsv"
    path.write_bytes(good + bad)
    with pytest.raises(error) as err:
        loader(path)
    assert str(err.value) == f"{path}:2: {message}"
    assert err.value.line_no == 2


def test_a_bom_and_crlf_copy_of_the_boosters_loads_the_same_list(tmp_path):
    plain = LISTS_DIR / "boosters.tsv"
    loaded, expected = load_wordlist(crlf_copy(plain, tmp_path)), load_wordlist(plain)
    assert loaded == expected
    assert list(loaded.items()) == list(expected.items())


def test_a_bom_and_crlf_copy_of_a_manifest_loads_the_same_items(tmp_path):
    plain = FIXTURES / "corpus" / "manifest.tsv"
    loaded, expected = load_manifest(crlf_copy(plain, tmp_path)), load_manifest(plain)
    assert loaded.name == expected.name
    assert [(path.relative_to(tmp_path), gold) for path, gold in loaded.items] == [
        (path.relative_to(plain.parent), gold) for path, gold in expected.items
    ]
