"""Locate spoken callsign variants inside transcripts and filter corpora.

Matching is exact token-sequence equality: a variant matches at position
``i`` iff ``tokens[i:i+len(variant)]`` equals the variant's tokens. No
edit-distance fuzziness and no sub-token boundaries. Corpus filtering
keeps an utterance iff at least one variant of one of its own context
callsigns occurs in it.

``filter_corpus`` and ``classify_corpus`` share one match path,
``ContextMatcher``, anchored on the shortened tail (the spoken digits and
suffix letters). The tail is a suffix of every spoken variant, so each
telephony or spelled match is a tail match with the designator or the
spelled code immediately to its left. Per utterance the matcher indexes
the tokens once and reads each context entry with ``CALLSIGN_RE``. Only
where the tail's first word (the spoken first digit, honouring
``icao_digits``) occurs does it build the tail, compare it in full and
check leftward; match objects are built only at a hit. The spoken words
come from ``callsign.spoken_tail`` and ``callsign.spoken_heads``, the
same helpers ``expand_callsign`` builds from. Its memos (parsed
entries, shortened variants, and each callsign's objects from its first
tail match on) belong to one matcher, which lives for one run, and each
holds at most ``MEMO_SIZE`` entries.

``find_matches`` searches explicit variant entries. Over
``expand_context_callsigns`` it is the full expansion the tail-anchored
path is tested against.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator

from .callsign import (
    CALLSIGN_RE,
    Callsign,
    MalformedCallsign,
    SpokenVariant,
    TelephonyLexicon,
    VariantKind,
    expand_callsign,
    parse_callsign,
    spoken_digit,
    spoken_heads,
    spoken_tail,
)
from .corpus import Utterance

VariantEntry = tuple[Callsign, SpokenVariant]

MEMO_SIZE = 1024  # entries per ContextMatcher memo; a sector has a few hundred callsigns at most


@dataclass(frozen=True)
class CallsignMatch:
    """One exact occurrence of a spoken variant inside an utterance."""

    callsign: Callsign
    variant: SpokenVariant
    start_index: int
    end_index: int  # exclusive

    def __len__(self) -> int:
        return self.end_index - self.start_index


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


def _parse(icao_digits: bool, raw: str) -> tuple[str, str, str, str] | None:
    """(the tail's first word, code, number, suffix), or None for a malformed entry."""
    parts = CALLSIGN_RE.fullmatch(raw)
    if parts is None:
        return None
    code, number, suffix = parts.groups()
    return spoken_digit(number[0], icao_digits), code, number, suffix


def _shortened(icao_digits: bool, number: str, suffix: str) -> SpokenVariant:
    return SpokenVariant(spoken_tail(number, suffix, icao_digits), VariantKind.SHORTENED)


def _hit(
    lexicon: TelephonyLexicon, shortened: Callable[[str, str], SpokenVariant], code: str, number: str, suffix: str
) -> tuple[Callsign, tuple[tuple[tuple[str, ...], SpokenVariant], ...]]:
    """The callsign, and each word sequence that may stand left of its tail
    with the variant it makes; built at the callsign's first tail match."""
    tail = shortened(number, suffix).tokens
    heads = tuple((head, SpokenVariant(head + tail, kind)) for kind, head in spoken_heads(code, lexicon))
    return Callsign(code, number, suffix), heads


class ContextMatcher:
    """Finds an utterance's own context callsigns in it; one instance per run.

    Calling it on an utterance returns the same matches, in the same order,
    as ``find_matches`` over ``expand_context_callsigns`` of its context:
    an entry repeated in the context repeats its matches, and malformed
    entries are skipped (counted into ``stats`` when given, once per
    occurrence).
    """

    def __init__(self, lexicon: TelephonyLexicon, icao_digits: bool = False) -> None:
        # the memos hold partials, not bound methods: no reference cycle keeps
        # a finished run's memos alive until the next garbage collection
        self.parse = lru_cache(maxsize=MEMO_SIZE)(partial(_parse, icao_digits))
        self.shortened = lru_cache(maxsize=MEMO_SIZE)(partial(_shortened, icao_digits))
        self.hit = lru_cache(maxsize=MEMO_SIZE)(partial(_hit, lexicon, self.shortened))

    def __call__(self, utt: Utterance, stats: FilterStats | None = None) -> list[CallsignMatch]:
        tokens = utt.tokens
        at: dict[str, list[int]] = {}
        for i, tok in enumerate(tokens):
            at.setdefault(tok, []).append(i)
        matches: list[CallsignMatch] = []
        for raw in utt.context_callsigns or ():
            entry = self.parse(raw)
            if entry is None:
                if stats is not None:
                    stats.malformed_callsigns += 1
                continue
            starts = at.get(entry[0])
            if starts:
                self._extend(matches, tokens, starts, *entry[1:])
        matches.sort(key=_match_order)
        return matches

    def _extend(self, matches, tokens, starts, code, number, suffix) -> None:
        """Append the matches of one callsign whose tail may start at ``starts``."""
        shortened = self.shortened(number, suffix)
        tail = shortened.tokens
        for start in starts:
            end = start + len(tail)
            if tokens[start:end] != tail:
                continue
            cs, heads = self.hit(code, number, suffix)
            matches.append(CallsignMatch(cs, shortened, start, end))
            for head, variant in heads:
                at = start - len(head)
                if at >= 0 and tokens[at:start] == head:
                    matches.append(CallsignMatch(cs, variant, at, end))


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
