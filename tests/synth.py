"""Synthetic-data generators and independent oracles shared by the tests.

The oracles here deliberately re-derive results by the dumbest possible
means (exhaustive scans, plain DP distance, path enumeration, finite
differences) and never call the code paths they are used to check.
"""

from __future__ import annotations

import math
import random
import string
from collections import defaultdict

import numpy as np

from atckit.callsign import MalformedCallsign, expand_callsign, parse_callsign, spoken_alphabet
from atckit.corpus import RoleLabel, Utterance

# Filler words must not collide with any spoken-variant token or any role
# keyword, otherwise a generated utterance could trigger an unplanned rule.
_FILLER_CANDIDATES = (
    "morning good afternoon evening hello goodbye thanks again behind gate "
    "apron flight level descend proceeding direct heading altitude knots "
    "degrees station frequency decimal point minute mile later ready copied "
    "roger position visual final short left right upwind downwind expedite"
).split()

_CODE_LETTERS = string.ascii_uppercase


def safe_fillers(role_lexicon, telephony) -> tuple[str, ...]:
    forbidden = (
        set(spoken_alphabet(telephony)) | set(role_lexicon.atco_words) | set(role_lexicon.pilot_words)
    )
    fillers = tuple(w for w in _FILLER_CANDIDATES if w not in forbidden)
    assert len(fillers) >= 20, "filler vocabulary collapsed; adjust the candidate list"
    return fillers


def random_callsign_raw(rng: random.Random, telephony=None) -> str:
    """Random well-formed raw callsign; half the codes come from the lexicon."""
    if telephony is not None and telephony.entries and rng.random() < 0.5:
        code = rng.choice(sorted(telephony.entries))
    else:
        code = "".join(rng.choice(_CODE_LETTERS) for _ in range(3))
    number = "".join(rng.choice(string.digits) for _ in range(rng.randint(1, 4)))
    suffix = "".join(rng.choice(_CODE_LETTERS) for _ in range(rng.randint(0, 2)))
    return code + number + suffix


def variant_pool(rng: random.Random, telephony, n_callsigns: int, max_variants: int = 50):
    """Expanded (callsign, variant) entries for a handful of random callsigns."""
    entries = []
    for _ in range(n_callsigns):
        cs = parse_callsign(random_callsign_raw(rng, telephony))
        entries.extend((cs, v) for v in expand_callsign(cs, telephony))
    rng.shuffle(entries)
    return entries[:max_variants]


def brute_force_matches(tokens, variants):
    """Every (start, end, raw, kind, tokens) by scanning all pairs outright."""
    tokens = tuple(tokens)
    found = []
    for cs, var in variants:
        width = len(var.tokens)
        for start in range(len(tokens) - width + 1):
            if tokens[start : start + width] == var.tokens:
                found.append((start, start + width, cs.raw, var.kind.value, var.tokens))
    return sorted(found)


def canon_matches(matches):
    """CallsignMatch list in the same canonical form as brute_force_matches."""
    return sorted(
        (m.start_index, m.end_index, m.callsign.raw, m.variant.kind.value, m.variant.tokens)
        for m in matches
    )


_MALFORMED = ("84TVS", "", "TVS84j", "TV84", "TVS12345", "TVS84JJJ", " TVS84J")


def full_expansion(context, telephony, icao_digits):
    """(callsign, variant) entries of every well-formed context entry, repeats kept."""
    entries = []
    for raw in context:
        try:
            cs = parse_callsign(raw)
        except MalformedCallsign:
            continue
        entries.extend((cs, v) for v in sorted(expand_callsign(cs, telephony, icao_digits), key=lambda v: v.text))
    return entries


def near_miss_utterances(rng, telephony, n):
    """C2-style utterances whose words come from their own context's variants.

    Both digit styles feed the vocabulary, so partial tails, tails of one
    style in the other and designators without their tail are common.
    Contexts repeat entries and hold malformed ones; about one utterance in
    four gets one whole variant planted, often at position 0.
    """
    fillers = ("gate", "apron", "morning", "hello")
    for i in range(n):
        context = [random_callsign_raw(rng, telephony) for _ in range(rng.randint(1, 6))]
        variants = [v for icao in (False, True) for _, v in full_expansion(context, telephony, icao)]
        if rng.random() < 0.3:
            context += rng.choices(context, k=rng.randint(1, 2))
        if rng.random() < 0.2:
            context.insert(rng.randint(0, len(context)), rng.choice(_MALFORMED))
        vocab = list(fillers) + [t for v in variants for t in v.tokens]
        tokens = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        if rng.random() < 0.25:
            at = 0 if rng.random() < 0.3 else rng.randint(0, len(tokens))
            tokens[at:at] = rng.choice(variants).tokens
        yield Utterance(f"u{i}", tuple(tokens), context_callsigns=tuple(context))


def make_planted_corpus(rng: random.Random, n: int, n_planted: int, telephony, fillers):
    """Corpus with variants planted in exactly ``n_planted`` utterances.

    Every non-planted utterance uses filler tokens only, so it cannot match;
    a few of them get no context or a malformed context entry for coverage.
    Returns (utterances, ids expected to be kept).
    """
    planted = set(rng.sample(range(n), n_planted))
    utterances = []
    kept_ids = set()
    for i in range(n):
        uid = f"u{i:05d}"
        context = [random_callsign_raw(rng, telephony) for _ in range(rng.randint(1, 3))]
        tokens = [rng.choice(fillers) for _ in range(rng.randint(0, 8))]
        if i in planted:
            target = parse_callsign(rng.choice(context))
            variant = rng.choice(sorted(expand_callsign(target, telephony), key=lambda v: v.text))
            at = rng.randint(0, len(tokens))
            tokens[at:at] = list(variant.tokens)
            kept_ids.add(uid)
        else:
            roll = rng.random()
            if roll < 0.05:
                context = None
            elif roll < 0.10:
                context.append("84TVS")  # malformed: digits precede letters
        utterances.append(
            Utterance(id=uid, tokens=tuple(tokens), context_callsigns=context)
        )
    return utterances, kept_ids


# --------------------------------------------------------------- classifier


def classify_oracle(tokens, atco_words, pilot_words, match_starts):
    """Straight-line restatement of the decision procedure (keywords first)."""
    atco_at = min((i for i, t in enumerate(tokens) if t in atco_words), default=None)
    pilot_at = min((i for i, t in enumerate(tokens) if t in pilot_words), default=None)
    if atco_at is not None and (pilot_at is None or atco_at < pilot_at):
        return RoleLabel.ATCO, "atco_keyword"
    if pilot_at is not None:
        return RoleLabel.PILOT, "pilot_keyword"
    if any(start <= 3 for start in match_starts):
        return RoleLabel.ATCO, "callsign_early"
    return RoleLabel.PILOT, "callsign_late_or_absent"


def branch_cases(rng: random.Random, n_per_branch: int, role_lexicon, telephony):
    """Utterances built to trigger exactly one decision branch each.

    Yields dicts with the utterance plus the expected label, rule, and
    keyword evidence (None for callsign-driven branches).
    """
    fillers = safe_fillers(role_lexicon, telephony)
    atco_words = sorted(role_lexicon.atco_words)
    pilot_words = sorted(role_lexicon.pilot_words)
    cases = []
    seq = 0

    def fill(k):
        return [rng.choice(fillers) for _ in range(k)]

    def planted_variant(context_raw):
        cs = parse_callsign(context_raw)
        return rng.choice(sorted(expand_callsign(cs, telephony), key=lambda v: v.text))

    for branch in ("atco_keyword", "pilot_keyword", "conflict", "early", "late_or_absent"):
        for _ in range(n_per_branch):
            seq += 1
            uid = f"b{seq:05d}"
            context = None
            if branch in ("atco_keyword", "pilot_keyword"):
                word = rng.choice(atco_words if branch == "atco_keyword" else pilot_words)
                tokens = fill(rng.randint(0, 4)) + [word] + fill(rng.randint(0, 4))
                if rng.random() < 0.5:  # a callsign anywhere must not override keywords
                    context = [random_callsign_raw(rng, telephony)]
                    variant = planted_variant(context[0])
                    at = rng.randint(0, len(tokens))
                    tokens[at:at] = list(variant.tokens)
                expected = (
                    RoleLabel.ATCO if branch == "atco_keyword" else RoleLabel.PILOT,
                    branch,
                    word,
                )
            elif branch == "conflict":
                first_is_atco = rng.random() < 0.5
                first = rng.choice(atco_words if first_is_atco else pilot_words)
                second = rng.choice(pilot_words if first_is_atco else atco_words)
                tokens = (
                    fill(rng.randint(0, 3))
                    + [first]
                    + fill(rng.randint(0, 3))
                    + [second]
                    + fill(rng.randint(0, 2))
                )
                expected = (
                    RoleLabel.ATCO if first_is_atco else RoleLabel.PILOT,
                    "atco_keyword" if first_is_atco else "pilot_keyword",
                    first,
                )
            elif branch == "early":
                context = [random_callsign_raw(rng, telephony)]
                variant = planted_variant(context[0])
                tokens = fill(rng.randint(0, 3)) + list(variant.tokens) + fill(rng.randint(0, 3))
                expected = (RoleLabel.ATCO, "callsign_early", None)
            else:
                kind = rng.random()
                if kind < 0.34:
                    tokens = fill(rng.randint(0, 6))
                elif kind < 0.67:
                    context = [random_callsign_raw(rng, telephony)]
                    tokens = fill(rng.randint(0, 6))
                else:
                    context = [random_callsign_raw(rng, telephony)]
                    variant = planted_variant(context[0])
                    tokens = fill(rng.randint(4, 7)) + list(variant.tokens) + fill(rng.randint(0, 2))
                expected = (RoleLabel.PILOT, "callsign_late_or_absent", None)
            cases.append(
                {
                    "utterance": Utterance(id=uid, tokens=tuple(tokens), context_callsigns=context),
                    "label": expected[0],
                    "rule": expected[1],
                    "keyword": expected[2],
                }
            )
    return cases


# --------------------------------------------------------------------- WER


def edit_distance(a, b) -> int:
    """Plain Levenshtein distance over word sequences, no backtrace."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


# --------------------------------------------------------------------- MMI


def enumerate_logprob_oracle(graph, em_logprobs, symbols) -> float:
    """Log-likelihood by explicit enumeration of every accepting path."""
    finals = dict(graph.finals)
    arcs_from = defaultdict(list)
    for arc in graph.arcs:
        arcs_from[arc.src].append(arc)
    scores = []

    def walk(state, t, acc):
        if t == len(symbols):
            if state in finals:
                scores.append(acc + finals[state])
            return
        for arc in arcs_from[state]:
            walk(arc.dst, t + 1, acc + arc.weight + float(em_logprobs[arc.phone, symbols[t]]))

    walk(graph.start, 0, 0.0)
    if not scores:
        return -math.inf
    peak = max(scores)
    return peak + math.log(sum(math.exp(s - peak) for s in scores))


def fd_gradient_oracle(objective, em, step=1e-5):
    """Central differences of ``objective(em)`` over shared and bias logits."""
    out = {"shared": np.zeros_like(em.shared), "bias": {}}

    def fill(param, target):
        for idx in np.ndindex(param.shape):
            original = param[idx]
            param[idx] = original + step
            plus = objective(em)
            param[idx] = original - step
            minus = objective(em)
            param[idx] = original
            target[idx] = (plus - minus) / (2.0 * step)

    fill(em.shared, out["shared"])
    for tid in em.bias:
        out["bias"][tid] = np.zeros_like(em.bias[tid])
        fill(em.bias[tid], out["bias"][tid])
    return out


def relative_gradient_error(analytic, numeric) -> float:
    """Norm-wise relative disagreement between gradient pytrees."""
    a = np.concatenate(
        [analytic.shared.ravel()] + [analytic.bias[t].ravel() for t in sorted(analytic.bias)]
    )
    n = np.concatenate(
        [numeric["shared"].ravel()] + [numeric["bias"][t].ravel() for t in sorted(numeric["bias"])]
    )
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(n)), 1e-300)
    return float(np.linalg.norm(a - n)) / denom
