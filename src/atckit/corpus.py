"""Shared corpus data model: utterance records, tokenization, line readers.

A corpus file is UTF-8 newline-delimited JSON, one utterance per line:

    {"id": "u17", "text": "skytravel eight four juliett descend",
     "role": "atco", "callsigns": ["TVS84J"]}

``role`` and ``callsigns`` are optional. ``text`` is normalized on ingest:
lowercased, split on whitespace as ``str.split()`` reads it (Unicode
whitespace such as U+00A0 and ``\x1c`` included), punctuation stripped
from token edges. Empty transcripts are representable and never dropped.

Every JSONL input goes through ``iter_jsonl``, every line-oriented lexicon
file (telephony, phones, role keywords) through ``iter_lexicon_lines``.
Every text input file is opened by ``open_input``: only ``\\n`` ends a line,
so a lone ``\\r`` stays inside its line, and a CRLF file reads as its LF twin.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import IO, Any, Callable, Iterator


class CorpusFormatError(ValueError):
    """Raised when a line of an input file (corpus record or lexicon entry) is malformed."""


class RoleLabel(Enum):
    """Speaker role of one utterance: ground controller or pilot."""

    # per-record code reads a member's string as _value_: the value property costs a Python call per read
    ATCO = "atco"
    PILOT = "pilot"


_ROLES = {role._value_: role for role in RoleLabel}  # a dict lookup skips EnumType.__call__


def parse_role(value: object) -> RoleLabel:
    try:
        return _ROLES[value]
    except (KeyError, TypeError):  # TypeError: an unhashable JSON value, such as a list
        raise CorpusFormatError(f"unknown role {value!r} (want 'atco' or 'pilot')") from None


def tokenize(text: str) -> tuple[str, ...]:
    """Lowercase, split on whitespace, strip punctuation from token edges.

    Pure-punctuation tokens vanish; internal punctuation survives, so
    "x-ray" stays one token while "juliett," loses its comma.
    """
    out = []
    for raw in text.lower().split():
        tok = raw.strip(string.punctuation)
        if tok:
            out.append(tok)
    return tuple(out)


@dataclass
class Utterance:
    """One transcript record.

    ``context_callsigns`` holds the raw ICAO strings expected on frequency
    around this utterance (from surveillance metadata). Entries are kept
    verbatim on ingest; malformed ones are flagged and counted where they
    are used.
    """

    id: str
    tokens: tuple[str, ...]
    gold_role: RoleLabel | None = None
    context_callsigns: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        self.tokens = tuple(self.tokens)
        if self.context_callsigns is not None:
            self.context_callsigns = tuple(self.context_callsigns)

    @classmethod
    def from_json(cls, obj: dict) -> "Utterance":
        if "id" not in obj:
            raise CorpusFormatError("utterance record is missing 'id'")
        text = obj.get("text", "")
        if not isinstance(text, str):
            raise CorpusFormatError("'text' must be a string")
        callsigns = obj.get("callsigns")
        if callsigns is not None and not (
            isinstance(callsigns, list) and all(map(isinstance, callsigns, repeat(str)))
        ):
            raise CorpusFormatError("'callsigns' must be an array of strings")
        return cls(
            id=str(obj["id"]),
            tokens=tokenize(text),
            gold_role=None if obj.get("role") is None else parse_role(obj["role"]),
            context_callsigns=callsigns,
        )

    def to_json(self) -> dict:
        obj: dict = {"id": self.id, "text": " ".join(self.tokens)}
        if self.gold_role is not None:
            obj["role"] = self.gold_role._value_
        if self.context_callsigns is not None:
            obj["callsigns"] = list(self.context_callsigns)
        return obj


def iter_jsonl(
    stream: IO[str], source: str = "<stream>", convert: Callable[[dict], Any] = lambda obj: obj
) -> Iterator[Any]:
    """Yield ``convert(record)`` for each JSON object on a non-blank line.

    Invalid JSON, a non-object line and a CorpusFormatError from ``convert``
    all end in a CorpusFormatError naming ``source:lineno``.
    """
    for lineno, line in enumerate(stream, 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # syntax, oversized integers, deep nesting
            raise CorpusFormatError(f"{source}:{lineno}: invalid JSON ({getattr(exc, 'msg', exc)})") from None
        try:
            if not isinstance(obj, dict):
                raise CorpusFormatError("expected a JSON object")
            record = convert(obj)
        except CorpusFormatError as exc:
            raise CorpusFormatError(f"{source}:{lineno}: {exc}") from None
        yield record


def iter_lexicon_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield ``(lineno, stripped line)`` for each line left non-blank once its
    ``#`` comment is cut. Only a newline ends a line, as in ``iter_jsonl``."""
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def open_input(path: str | Path) -> IO[str]:
    """Open a UTF-8 text input for reading, with only ``\\n`` ending a line.

    A CRLF line keeps its ``\\r``; ``str.strip`` and ``tokenize`` drop it.
    """
    return open(path, "r", encoding="utf-8", newline="\n")


def read_corpus(path: str | Path) -> Iterator[Utterance]:
    """Stream utterances from a JSONL corpus file."""
    with open_input(path) as stream:
        yield from iter_jsonl(stream, str(path), Utterance.from_json)
