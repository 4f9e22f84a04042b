"""Text-side toolkit for air-traffic-control speech corpora.

Callsign expansion, transcript matching and filtering, grammar-based
speaker-role classification, scoring, and a desk-scale multitask MMI
objective with verified gradients.
"""

from .callsign import (
    Callsign,
    MalformedCallsign,
    SpokenVariant,
    TelephonyLexicon,
    VariantKind,
    default_telephony_lexicon,
    expand_callsign,
    load_telephony_lexicon,
    nato_letter,
    parse_callsign,
    spoken_digit,
)
from .classifier import (
    ClassificationTrace,
    FiredRule,
    RoleLexicon,
    classify,
    classify_corpus,
    default_role_lexicon,
    load_role_lexicon,
)
from .corpus import (
    CorpusFormatError,
    RoleLabel,
    Utterance,
    read_corpus,
    tokenize,
)
from .evaluation import (
    ConfusionMatrix,
    EmptyReference,
    Rates,
    WerBreakdown,
    accumulate,
    rates,
    wer,
    wer_corpus,
)
from .matcher import CallsignMatch, ContextMatcher, FilterStats, filter_corpus, find_matches

__version__ = "0.1.0"
