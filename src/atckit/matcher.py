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
The matcher lives for one run and keeps two plain dicts, each emptied
before it would pass ``MEMO_SIZE`` entries: each screened entry's callsign
and heads (``None`` when malformed), and whether each entry is malformed,
for the per-occurrence count ``stats`` takes.

``find_matches`` searches explicit variant entries. Over
``expand_context_callsigns`` it is the full expansion ``ContextMatcher``
is tested against.
"""

from __future__ import annotations

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

    ``dropped == no_context + no_match``; ``matches_by_kind`` counts the
    kept utterances' matches per variant kind.
    """

    total: int = 0
    kept: int = 0
    dropped: int = 0
    no_context: int = 0
    no_match: int = 0
    malformed_callsigns: int = 0
    tokens_total: int = 0
    tokens_kept: int = 0
    matches_by_kind: dict[str, int] = field(default_factory=lambda: {k.value: 0 for k in VariantKind})

    def to_json(self) -> dict:
        return asdict(self)


def _match_order(m: CallsignMatch) -> tuple:
    # by start, longer first, then a stable tie-break over the match's content
    return m.start_index, m.start_index - m.end_index, m.callsign.raw, m.variant.kind.value, m.variant.tokens


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


def _remember(memo: dict, key: str, value):
    """Store ``value`` under ``key``, first emptying a memo that is full."""
    if len(memo) >= MEMO_SIZE:
        memo.clear()
    memo[key] = value
    return value


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
        # raw entry -> whether it is malformed; read only when counting malformed entries
        self.malformed: dict[str, bool] = {}
        # raw entry -> (callsign, spoken_heads), or None when malformed; from its first screen pass on
        self.hits: dict[str, tuple[Callsign, tuple[tuple[VariantKind, tuple[str, ...]], ...]] | None] = {}

    def __call__(self, utt: Utterance, stats: FilterStats | None = None) -> list[CallsignMatch]:
        tokens = utt.tokens
        chars = self.chars
        written = "".join([chars.get(tok, " ") for tok in tokens])
        context = utt.context_callsigns or ()
        if stats is not None:
            try:
                stats.malformed_callsigns += sum(map(self.malformed.__getitem__, context))
            except KeyError:  # an entry the memo does not hold
                flags = [found is None for found in map(CALLSIGN_RE.fullmatch, context)]
                if len(self.malformed) + len(context) > MEMO_SIZE:
                    self.malformed.clear()
                self.malformed.update(zip(context[:MEMO_SIZE], flags))
                stats.malformed_callsigns += sum(flags)
        matches: list[CallsignMatch] = []
        # a well-formed entry's tail (number + suffix) is all but its three-letter code
        for raw in [raw for raw in context if raw[3:] in written]:
            hit = self.hits.get(raw, _UNSEEN)
            if hit is _UNSEEN:
                found = CALLSIGN_RE.fullmatch(raw)
                parsed = found and (Callsign(*found.groups()), spoken_heads(found[1], self.lexicon))
                hit = _remember(self.hits, raw, parsed)
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
                stats.dropped += 1
                continue
            matches = match(utt, stats)
            if matches:
                stats.kept += 1
                stats.tokens_kept += len(utt.tokens)
                for m in matches:
                    stats.matches_by_kind[m.variant.kind.value] += 1
                yield utt, matches
            else:
                stats.no_match += 1
                stats.dropped += 1

    return kept(), stats
