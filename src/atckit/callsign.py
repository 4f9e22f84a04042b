"""ICAO callsign parsing and spoken-variant expansion.

A flight identifier in ICAO format is a three-letter airline designator,
one to four digits, and up to two trailing letters ("TVS84J"). Over the
radio several spoken forms coexist for the same identifier:

* the airline's telephony designator plus digits and suffix
  ("skytravel eight four juliett"),
* the airline code spelt with the phonetic alphabet
  ("tango victor sierra eight four juliett"),
* a shortened form that drops the airline part ("eight four juliett").

``expand_callsign`` produces that ensemble so transcripts can be searched
for any of them. All output tokens are lowercase.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Mapping

from .corpus import CorpusFormatError, iter_lexicon_lines

CALLSIGN_RE = re.compile(r"([A-Z]{3})([0-9]{1,4})([A-Z]{0,2})")
_CODE_RE = re.compile(r"[A-Z]{3}")

NATO_ALPHABET = {
    "a": "alfa",
    "b": "bravo",
    "c": "charlie",
    "d": "delta",
    "e": "echo",
    "f": "foxtrot",
    "g": "golf",
    "h": "hotel",
    "i": "india",
    "j": "juliett",
    "k": "kilo",
    "l": "lima",
    "m": "mike",
    "n": "november",
    "o": "oscar",
    "p": "papa",
    "q": "quebec",
    "r": "romeo",
    "s": "sierra",
    "t": "tango",
    "u": "uniform",
    "v": "victor",
    "w": "whiskey",
    "x": "x-ray",
    "y": "yankee",
    "z": "zulu",
}

DIGIT_WORDS = {
    "0": "zero",
    "1": "one",
    "2": "two",
    "3": "three",
    "4": "four",
    "5": "five",
    "6": "six",
    "7": "seven",
    "8": "eight",
    "9": "nine",
}

# Radio alternates; off by default since plain digit words dominate real
# transcripts.
ICAO_DIGIT_ALTERNATES = {"3": "tree", "5": "fife", "9": "niner"}


class MalformedCallsign(ValueError):
    """Raised when a raw string is not a well-formed ICAO callsign."""


class VariantKind(Enum):
    FULL_TELEPHONY = "full_telephony"
    LETTER_SPELLED = "letter_spelled"
    SHORTENED = "shortened"


@dataclass(frozen=True)
class Callsign:
    """Structured ICAO callsign: airline code, flight number, letter suffix."""

    airline_code: str
    number_part: str
    suffix: str = ""

    def __post_init__(self) -> None:
        if not _CODE_RE.fullmatch(self.airline_code):
            raise MalformedCallsign(f"airline code {self.airline_code!r} must be three uppercase letters")
        if not self.number_part or not self.number_part.isascii() or not self.number_part.isdigit():
            raise MalformedCallsign(f"number part {self.number_part!r} must be a non-empty digit string")
        if not re.fullmatch(r"[A-Z]*", self.suffix):
            raise MalformedCallsign(f"suffix {self.suffix!r} may contain only uppercase letters")

    @property
    def raw(self) -> str:
        return self.airline_code + self.number_part + self.suffix


@dataclass(frozen=True)
class SpokenVariant:
    """One spoken form of a callsign: a token sequence plus its style."""

    tokens: tuple[str, ...]
    kind: VariantKind

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class TelephonyLexicon:
    """Map from three-letter ICAO airline code to its spoken designator."""

    entries: Mapping[str, tuple[str, ...]]

    def get(self, code: str) -> tuple[str, ...] | None:
        return self.entries.get(code)

    def __contains__(self, code: str) -> bool:
        return code in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def designator_words(self) -> frozenset[str]:
        """All tokens appearing in any designator."""
        return frozenset(tok for toks in self.entries.values() for tok in toks)


def parse_callsign(raw: str) -> Callsign:
    """Decompose an ICAO callsign into code, number, and suffix.

    The split is unambiguous: longest-prefix three letters, maximal digit
    run, remaining letters. Concatenating the parts reproduces the input.
    """
    match = CALLSIGN_RE.fullmatch(raw)
    if match is None:
        raise MalformedCallsign(f"{raw!r} does not match ICAO callsign shape AAA<digits><letters>")
    code, number, suffix = match.groups()
    return Callsign(airline_code=code, number_part=number, suffix=suffix)


def spoken_digit(d: str, icao_alternates: bool = False) -> str:
    """Spoken form of one digit; ``icao_alternates`` switches 3/5/9 to tree/fife/niner."""
    if d not in DIGIT_WORDS:
        raise ValueError(f"{d!r} is not a digit")
    if icao_alternates and d in ICAO_DIGIT_ALTERNATES:
        return ICAO_DIGIT_ALTERNATES[d]
    return DIGIT_WORDS[d]


def nato_letter(c: str) -> str:
    """Phonetic-alphabet word for one letter, lowercase; case-insensitive input."""
    word = NATO_ALPHABET.get(c.lower())
    if word is None:
        raise ValueError(f"{c!r} is not a letter A-Z")
    return word


def spoken_tail(number: str, suffix: str, icao_digits: bool = False) -> tuple[str, ...]:
    """The shortened form's words: the spoken digits, then the suffix letters.

    Every other spoken variant ends with these words.
    """
    return tuple(spoken_digit(d, icao_digits) for d in number) + tuple(nato_letter(c) for c in suffix)


def spoken_heads(code: str, lexicon: TelephonyLexicon) -> tuple[tuple[VariantKind, tuple[str, ...]], ...]:
    """The words that may stand before the tail, each with the variant kind
    it makes: the telephony designator when the lexicon knows the code,
    then the spelled code."""
    spelled = (VariantKind.LETTER_SPELLED, tuple(nato_letter(c) for c in code))
    designator = lexicon.get(code)
    return ((VariantKind.FULL_TELEPHONY, tuple(designator)), spelled) if designator else (spelled,)


def expand_callsign(
    cs: Callsign,
    lexicon: TelephonyLexicon,
    icao_digits: bool = False,
) -> tuple[SpokenVariant, ...]:
    """Expand one callsign into its ensemble of spoken variants, in
    ``VariantKind`` order.

    Always yields the letter-spelled and shortened forms; the full
    telephony form is included only when the lexicon knows the airline
    code. Unknown codes are not an error.
    """
    tail = spoken_tail(cs.number_part, cs.suffix, icao_digits)
    heads = spoken_heads(cs.airline_code, lexicon)
    return tuple(SpokenVariant(head + tail, kind) for kind, head in heads) + (
        SpokenVariant(tail, VariantKind.SHORTENED),
    )


def spoken_alphabet(lexicon: TelephonyLexicon) -> frozenset[str]:
    """Closed token universe variants draw from: designators, phonetic words, digits."""
    return (
        lexicon.designator_words()
        | frozenset(NATO_ALPHABET.values())
        | frozenset(DIGIT_WORDS.values())
        | frozenset(ICAO_DIGIT_ALTERNATES.values())
    )


def load_telephony_lexicon(path: str | Path) -> TelephonyLexicon:
    """Load a lexicon from TSV: ``ICAO_CODE<TAB>spoken designator`` per line.

    ``#`` starts a comment (full-line or trailing); blank lines are
    ignored. Designators are lowercased and may span several words.
    """
    return _parse_telephony(Path(path).read_text(encoding="utf-8"), source=str(path))


def _parse_telephony(text: str, source: str = "<string>") -> TelephonyLexicon:
    entries: dict[str, tuple[str, ...]] = {}
    for lineno, line in iter_lexicon_lines(text):
        parts = line.split("\t")
        if len(parts) != 2:
            raise CorpusFormatError(f"{source}:{lineno}: expected 'CODE<TAB>designator', got {line!r}")
        code, tokens = parts[0].strip(), tuple(parts[1].lower().split())
        if not _CODE_RE.fullmatch(code):
            raise CorpusFormatError(f"{source}:{lineno}: bad airline code {code!r}")
        if not tokens:
            raise CorpusFormatError(f"{source}:{lineno}: empty designator for {code}")
        entries[code] = tokens
    return TelephonyLexicon(entries=entries)


@lru_cache(maxsize=1)
def default_telephony_lexicon() -> TelephonyLexicon:
    """The lexicon shipped with the package (swap via --telephony at the CLI)."""
    text = resources.files("atckit").joinpath("data/telephony.tsv").read_text(encoding="utf-8")
    return _parse_telephony(text, source="atckit/data/telephony.tsv")
