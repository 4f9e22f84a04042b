"""Grammar-based speaker-role assignment for ATC transcripts.

Standard radiotelephony phraseology reserves certain words for each side
of the exchange ("wilco" is a pilot's word, "approved" a controller's),
and controllers address the aircraft, so its callsign tends to open their
transmissions. Both cues combine into a small deterministic decision
procedure over a transcript's tokens; every utterance receives a label
and a trace saying which rule fired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

from .callsign import TelephonyLexicon
from .corpus import CorpusFormatError, RoleLabel, Utterance, iter_lexicon_lines
from .matcher import CallsignMatch, VariantEntry, expand_context_callsigns, find_matches

# A callsign opening the utterance marks the controller; greetings often
# precede it, so "opening" means starting within the first four tokens.
EARLY_WINDOW_TOKENS = 4

RULE_ORDERS = ("keywords-first", "callsign-first")


class FiredRule(Enum):
    ATCO_KEYWORD = "atco_keyword"
    PILOT_KEYWORD = "pilot_keyword"
    CALLSIGN_EARLY = "callsign_early"
    CALLSIGN_LATE_OR_ABSENT = "callsign_late_or_absent"


@dataclass(frozen=True)
class ClassificationTrace:
    """Why an utterance got its label.

    ``evidence`` is the matched keyword (str) or the CallsignMatch; it is
    present exactly when some positive cue fired. The fallback branch has
    no evidence and is flagged low confidence.
    """

    fired_rule: FiredRule
    evidence: str | CallsignMatch | None = None
    low_confidence: bool = False

    def __post_init__(self) -> None:
        has_evidence = self.evidence is not None
        needs_evidence = self.fired_rule is not FiredRule.CALLSIGN_LATE_OR_ABSENT
        if has_evidence != needs_evidence:
            raise ValueError(f"rule {self.fired_rule.value} with evidence={self.evidence!r}")

    def to_json(self) -> dict:
        obj: dict = {"rule": self.fired_rule.value, "low_confidence": self.low_confidence}
        if isinstance(self.evidence, str):
            obj["evidence"] = {"keyword": self.evidence}
        elif isinstance(self.evidence, CallsignMatch):
            obj["evidence"] = {
                "callsign": self.evidence.callsign.raw,
                "variant_kind": self.evidence.variant.kind.value,
                "tokens": list(self.evidence.variant.tokens),
                "start": self.evidence.start_index,
                "end": self.evidence.end_index,
            }
        return obj


@dataclass(frozen=True)
class RoleLexicon:
    """Role-indicative keyword lists; whole-token matches only."""

    atco_words: frozenset[str]
    pilot_words: frozenset[str]

    def __post_init__(self) -> None:
        overlap = self.atco_words & self.pilot_words
        if overlap:
            raise CorpusFormatError(f"words listed for both roles: {sorted(overlap)}")


def _earliest(tokens: tuple[str, ...], words: frozenset[str]) -> tuple[int, str] | None:
    for i, tok in enumerate(tokens):
        if tok in words:
            return i, tok
    return None


def _keyword_decision(
    tokens: tuple[str, ...], lexicon: RoleLexicon
) -> tuple[RoleLabel, ClassificationTrace] | None:
    atco_hit = _earliest(tokens, lexicon.atco_words)
    pilot_hit = _earliest(tokens, lexicon.pilot_words)
    if atco_hit is None and pilot_hit is None:
        return None
    if pilot_hit is None or (atco_hit is not None and atco_hit[0] < pilot_hit[0]):
        return RoleLabel.ATCO, ClassificationTrace(FiredRule.ATCO_KEYWORD, atco_hit[1])
    return RoleLabel.PILOT, ClassificationTrace(FiredRule.PILOT_KEYWORD, pilot_hit[1])


def _callsign_decision(
    utt: Utterance, variants: Iterable[VariantEntry]
) -> tuple[RoleLabel, ClassificationTrace] | None:
    matches = find_matches(utt, variants)
    if matches and matches[0].start_index < EARLY_WINDOW_TOKENS:
        return RoleLabel.ATCO, ClassificationTrace(FiredRule.CALLSIGN_EARLY, matches[0])
    return None


def classify(
    utt: Utterance,
    lexicon: RoleLexicon,
    variants: Iterable[VariantEntry],
    rule_order: str = "keywords-first",
) -> tuple[RoleLabel, ClassificationTrace]:
    """Assign a role to one utterance.

    Keywords-first decision procedure, in order:

    1. only controller-list words present: ATCO;
    2. only pilot-list words present: PILOT;
    3. words from both lists present: the earliest-positioned one wins;
    4. otherwise, a callsign variant starting within the first four
       tokens: ATCO;
    5. otherwise PILOT (no positive evidence; flagged low confidence).

    ``rule_order="callsign-first"`` tries step 4 before steps 1-3. Total
    and deterministic: every utterance, including an empty one, gets
    exactly one (label, trace) pair.
    """
    if rule_order not in RULE_ORDERS:
        raise ValueError(f"rule_order must be one of {RULE_ORDERS}, got {rule_order!r}")
    variants = list(variants)
    if rule_order == "callsign-first":
        decision = _callsign_decision(utt, variants) or _keyword_decision(utt.tokens, lexicon)
    else:
        decision = _keyword_decision(utt.tokens, lexicon) or _callsign_decision(utt, variants)
    if decision is not None:
        return decision
    return RoleLabel.PILOT, ClassificationTrace(
        FiredRule.CALLSIGN_LATE_OR_ABSENT, None, low_confidence=True
    )


def classify_corpus(
    corpus: Iterable[Utterance],
    lexicon: RoleLexicon,
    telephony: TelephonyLexicon,
    rule_order: str = "keywords-first",
    icao_digits: bool = False,
) -> Iterator[tuple[Utterance, RoleLabel, ClassificationTrace]]:
    """Classify a stream of utterances, expanding each one's own context callsigns.

    Malformed context entries are skipped, never fatal. Output order is
    input order.
    """
    cache: dict = {}
    for utt in corpus:
        variants = expand_context_callsigns(
            utt.context_callsigns or (), telephony, cache=cache, icao_digits=icao_digits
        )
        label, trace = classify(utt, lexicon, variants, rule_order)
        yield utt, label, trace


@dataclass
class SplitResult:
    """Materialized two-way split of a corpus plus per-utterance traces."""

    atco: list[Utterance] = field(default_factory=list)
    pilot: list[Utterance] = field(default_factory=list)
    traces: list[tuple[str, RoleLabel, ClassificationTrace]] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.traces)


def split_corpus(
    corpus: Iterable[Utterance],
    lexicon: RoleLexicon,
    telephony: TelephonyLexicon,
    rule_order: str = "keywords-first",
    icao_digits: bool = False,
) -> SplitResult:
    """Partition a corpus into controller and pilot halves.

    Every input utterance lands in exactly one half, and every decision is
    recorded in ``traces`` in input order.
    """
    result = SplitResult()
    for utt, label, trace in classify_corpus(corpus, lexicon, telephony, rule_order, icao_digits):
        (result.atco if label is RoleLabel.ATCO else result.pilot).append(utt)
        result.traces.append((utt.id, label, trace))
    return result


def load_role_lexicon(path: str | Path) -> RoleLexicon:
    """Load keyword lists from a sectioned text file.

    Format: ``[atco]`` and ``[pilot]`` section headers, one lowercase word
    per line, ``#`` starts a comment (full-line or trailing).
    """
    return _parse_role_lexicon(Path(path).read_text(encoding="utf-8"), source=str(path))


def _parse_role_lexicon(text: str, source: str = "<string>") -> RoleLexicon:
    sections: dict[str, set[str]] = {"atco": set(), "pilot": set()}
    current: str | None = None
    for lineno, line in iter_lexicon_lines(text):
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in sections:
                raise CorpusFormatError(f"{source}:{lineno}: unknown section {current!r}")
        elif current is None:
            raise CorpusFormatError(f"{source}:{lineno}: word before any [atco]/[pilot] section")
        elif len(line.split()) != 1:
            raise CorpusFormatError(f"{source}:{lineno}: one word per line, got {line!r}")
        else:
            sections[current].add(line.lower())
    return RoleLexicon(
        atco_words=frozenset(sections["atco"]), pilot_words=frozenset(sections["pilot"])
    )


@lru_cache(maxsize=1)
def default_role_lexicon() -> RoleLexicon:
    """The keyword lists shipped with the package (swap via --lexicon at the CLI)."""
    text = resources.files("atckit").joinpath("data/role_words.txt").read_text(encoding="utf-8")
    return _parse_role_lexicon(text, source="atckit/data/role_words.txt")
