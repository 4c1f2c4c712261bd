"""Tests for the shared JSON-lines reader."""

import pytest

from holorag.errors import CorpusParseError
from holorag.jsonl import json_objects


def test_numbers_nonblank_lines_from_first_line():
    lines = [b'{"a": 1}\n', b"  \t\r\n", b'\xef\xbb\xbf{"b": "\xc3\xa9"}\r\n', b'{"c": 3}']
    assert list(json_objects(lines, first_line=2)) == [(2, {"a": 1}), (4, {"b": "é"}), (5, {"c": 3})]


@pytest.mark.parametrize(
    "line, message",
    [
        (b"\xff\n", "not UTF-8"),
        (b'{"a": "\xed\xa0\x80"}\n', "not UTF-8"),  # an encoded lone surrogate
        (b'{"a": 1}\r{"b": 2}\n', "invalid JSON"),  # a bare \r does not end a line
        (b"nope\n", "invalid JSON"),
        (b'"text"\n', "expected a JSON object"),
    ],
    ids=["bad-byte", "surrogate", "bare-cr", "not-json", "not-object"],
)
def test_bad_line_names_its_number(line, message):
    with pytest.raises(CorpusParseError, match=f"line 2: {message}") as info:
        list(json_objects([b'{"ok": true}\n', line]))
    assert info.value.line_number == 2
