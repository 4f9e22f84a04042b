"""Locate spoken callsign variants inside transcripts and filter corpora.

Matching is exact token-sequence equality: a variant matches at position
``i`` iff ``tokens[i:i+len(variant)]`` equals the variant's tokens. No
edit-distance fuzziness and no sub-token boundaries. Corpus filtering
keeps an utterance iff at least one variant of one of its own context
callsigns occurs in it.

``filter_corpus`` and ``classify_corpus`` share one match path,
``ContextMatcher``. It spells each utterance as a string with one
character per token (``callsign.written_chars``): a digit word becomes
its digit, a phonetic-alphabet word its uppercase letter, any other token
a space. The mapping is one-to-one, so a callsign's shortened tail (its
spoken digits and suffix letters) starts at token ``i`` exactly when its
written ``number + suffix`` occurs at character ``i``; ``str.find`` finds
every occurrence, overlapping ones included. The tail is a suffix of every
spoken variant, so a telephony or spelled match is a tail match with the
words of ``callsign.spoken_heads`` right before it, compared as tokens.
Variants are sliced from the utterance's tokens at a hit. The code is
exactly three letters, so a well-formed entry's tail is ``raw[3:]``: only
the entries whose ``raw[3:]`` occurs in the written string are parsed.
The matcher lives for one run and keeps two memos, each emptied before it
would pass ``MEMO_SIZE`` entries: a dict of each screened entry's callsign
and heads (``None`` when malformed), and a set of entries known to be
well-formed, for the per-occurrence malformed count ``stats`` takes. A
context inside the set holds no malformed entry; any other is checked by
one regex pass over its entries joined with newlines, and counted entry by
entry only when that pass fails.

``find_matches`` searches explicit variant entries. Over
``expand_context_callsigns`` it is the full expansion ``ContextMatcher``
is tested against.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field
from typing import Iterable, Iterator

from .callsign import (
    CALLSIGN_RE,
    Callsign,
    MalformedCallsign,
    SpokenVariant,
    TelephonyLexicon,
    VariantKind,
    expand_callsign,
    parse_callsign,
    spoken_heads,
    written_chars,
)
from .corpus import Utterance

VariantEntry = tuple[Callsign, SpokenVariant]

MEMO_SIZE = 1024  # entries per ContextMatcher memo; a sector has a few hundred callsigns at most
_UNSEEN = object()
# a context every entry of which is well-formed, each entry followed by a newline
_CONTEXT_RE = re.compile("(?:" + CALLSIGN_RE.pattern + "\n)*")


@dataclass(frozen=True)
class CallsignMatch:
    """One exact occurrence of a spoken variant inside an utterance."""

    callsign: Callsign
    variant: SpokenVariant
    start_index: int
    end_index: int  # exclusive


@dataclass
class FilterStats:
    """Counters accumulated over one filtering run; all commutative.

    ``dropped`` is ``no_context + no_match``; ``matches_by_kind`` counts the
    kept utterances' matches per variant kind.
    """

    total: int = 0
    kept: int = 0
    no_context: int = 0
    no_match: int = 0
    malformed_callsigns: int = 0
    tokens_total: int = 0
    tokens_kept: int = 0
    matches_by_kind: dict[str, int] = field(default_factory=lambda: {k.value: 0 for k in VariantKind})

    @property
    def dropped(self) -> int:
        return self.no_context + self.no_match

    def to_json(self) -> dict:
        return {**asdict(self), "dropped": self.dropped}


def _match_order(m: CallsignMatch) -> tuple:
    # by start, longer first, then a stable tie-break over the match's content; one
    # utterance's matches with the same start and end hold the same tokens
    return m.start_index, m.start_index - m.end_index, m.callsign.raw, m.variant.kind._value_


def find_matches(utt: Utterance, variants: Iterable[VariantEntry]) -> list[CallsignMatch]:
    """All exact contiguous occurrences of any variant in the utterance.

    Overlapping matches are all reported. Output is sorted by start
    position, longer variants first, with a stable tie-break so identical
    inputs always produce identical output.
    """
    by_first: dict[str, list[VariantEntry]] = {}
    for entry in variants:
        by_first.setdefault(entry[1].tokens[0], []).append(entry)
    tokens = utt.tokens
    matches = []
    for start, tok in enumerate(tokens):
        for cs, var in by_first.get(tok, ()):
            end = start + len(var.tokens)
            if end <= len(tokens) and tokens[start:end] == var.tokens:
                matches.append(CallsignMatch(cs, var, start, end))
    matches.sort(key=_match_order)
    return matches


def expand_context_callsigns(
    raw_callsigns: Iterable[str],
    lexicon: TelephonyLexicon,
    stats: FilterStats | None = None,
    icao_digits: bool = False,
) -> list[VariantEntry]:
    """Expand an utterance's context callsign list into variant entries.

    The full expansion ``ContextMatcher`` is checked against. Malformed
    entries are skipped (and counted into ``stats`` when given); they are
    never fatal.
    """
    out: list[VariantEntry] = []
    for raw in raw_callsigns:
        try:
            cs = parse_callsign(raw)
        except MalformedCallsign:
            if stats is not None:
                stats.malformed_callsigns += 1
            continue
        out.extend((cs, var) for var in expand_callsign(cs, lexicon, icao_digits))
    return out


class ContextMatcher:
    """Finds an utterance's own context callsigns in it; one instance per run.

    Calling it on an utterance returns the same matches, in the same order,
    as ``find_matches`` over ``expand_context_callsigns`` of its context:
    an entry repeated in the context repeats its matches, and malformed
    entries are skipped (counted into ``stats`` when given, once per
    occurrence).
    """

    def __init__(self, lexicon: TelephonyLexicon, icao_digits: bool = False) -> None:
        self.lexicon = lexicon
        self.chars = written_chars(icao_digits)
        # entries known to be well-formed; read only when counting malformed entries
        self.well_formed: set[str] = set()
        # raw entry -> (callsign, spoken_heads), or None when malformed; from its first screen pass on
        self.hits: dict[str, tuple[Callsign, tuple[tuple[VariantKind, tuple[str, ...]], ...]] | None] = {}

    def __call__(self, utt: Utterance, stats: FilterStats | None = None) -> list[CallsignMatch]:
        tokens = utt.tokens
        chars = self.chars
        written = "".join([chars.get(tok, " ") for tok in tokens])
        context = utt.context_callsigns or ()
        if stats is not None and not self.well_formed.issuperset(context):
            joined = "\n".join(context) + "\n"
            # the count keeps an entry that holds a newline from passing as several
            if joined.count("\n") == len(context) and _CONTEXT_RE.fullmatch(joined):
                if len(self.well_formed) + len(context) > MEMO_SIZE:
                    self.well_formed.clear()
                self.well_formed.update(context[:MEMO_SIZE])
            else:
                stats.malformed_callsigns += sum(found is None for found in map(CALLSIGN_RE.fullmatch, context))
        matches: list[CallsignMatch] = []
        # a well-formed entry's tail (number + suffix) is all but its three-letter code
        for raw in [raw for raw in context if raw[3:] in written]:
            hit = self.hits.get(raw, _UNSEEN)
            if hit is _UNSEEN:
                found = CALLSIGN_RE.fullmatch(raw)
                hit = found and (Callsign._from_match(found), spoken_heads(found[1], self.lexicon))
                if len(self.hits) >= MEMO_SIZE:
                    self.hits.clear()
                self.hits[raw] = hit
            if hit is None:
                continue
            cs, heads = hit
            tail = raw[3:]
            start = written.find(tail)
            while start >= 0:
                end = start + len(tail)
                matches.append(CallsignMatch(cs, SpokenVariant(tokens[start:end], VariantKind.SHORTENED), start, end))
                for kind, head in heads:
                    at = start - len(head)
                    if at >= 0 and tokens[at:start] == head:
                        matches.append(CallsignMatch(cs, SpokenVariant(tokens[at:end], kind), at, end))
                start = written.find(tail, start + 1)
        matches.sort(key=_match_order)
        return matches


def filter_corpus(
    corpus: Iterable[Utterance],
    lexicon: TelephonyLexicon,
    icao_digits: bool = False,
) -> tuple[Iterator[tuple[Utterance, list[CallsignMatch]]], FilterStats]:
    """Keep utterances in which a variant of one of their context callsigns occurs.

    Returns a lazy stream of (utterance, matches) pairs plus a stats object
    that fills in as the stream is consumed; read the stats only after
    exhausting the stream. Utterances without context callsigns are counted
    and dropped. The corpus is processed one record at a time, so inputs
    larger than memory are fine.
    """
    stats = FilterStats()

    def kept() -> Iterator[tuple[Utterance, list[CallsignMatch]]]:
        match = ContextMatcher(lexicon, icao_digits)
        for utt in corpus:
            stats.total += 1
            stats.tokens_total += len(utt.tokens)
            if not utt.context_callsigns:
                stats.no_context += 1
                continue
            matches = match(utt, stats)
            if matches:
                stats.kept += 1
                stats.tokens_kept += len(utt.tokens)
                for m in matches:
                    stats.matches_by_kind[m.variant.kind._value_] += 1
                yield utt, matches
            else:
                stats.no_match += 1

    return kept(), stats
