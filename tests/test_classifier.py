import random

import pytest

from atckit.callsign import expand_callsign, parse_callsign
from atckit.classifier import (
    RULE_ORDERS,
    ClassificationTrace,
    FiredRule,
    RoleLexicon,
    _parse_role_lexicon,
    classify,
    classify_corpus,
)
from atckit.corpus import CorpusFormatError, RoleLabel, Utterance, tokenize
from atckit.matcher import CallsignMatch, ContextMatcher, expand_context_callsigns, find_matches

from synth import (
    branch_cases,
    brute_force_matches,
    classify_oracle,
    near_miss_utterances,
    safe_fillers,
    variant_pool,
)


def tvs_variants(telephony):
    cs = parse_callsign("TVS84J")
    return [(cs, v) for v in expand_callsign(cs, telephony)]


def over(entries):
    """A matcher over explicit (callsign, variant) entries."""
    return lambda utt: find_matches(utt, entries)


class TestClassifyExamples:
    def test_early_callsign_is_atco(self, role_lexicon, telephony):
        utt = Utterance("u", tokenize("skytravel eight four juliett descend flight level eight zero"))
        label, trace = classify(utt, role_lexicon, over(tvs_variants(telephony)))
        assert label is RoleLabel.ATCO
        assert trace.fired_rule is FiredRule.CALLSIGN_EARLY
        assert isinstance(trace.evidence, CallsignMatch)
        assert trace.evidence.start_index == 0

    def test_pilot_keyword_beats_early_callsign(self, role_lexicon, telephony):
        utt = Utterance("u", tokenize("wilco skytravel eight four juliett"))
        label, trace = classify(utt, role_lexicon, over(tvs_variants(telephony)))
        assert label is RoleLabel.PILOT
        assert trace.fired_rule is FiredRule.PILOT_KEYWORD
        assert trace.evidence == "wilco"

    def test_atco_keyword_fires_anywhere(self, role_lexicon, telephony):
        utt = Utterance("u", tokenize("good morning skytravel eight four juliett wind two one zero"))
        label, trace = classify(utt, role_lexicon, over(tvs_variants(telephony)))
        assert label is RoleLabel.ATCO
        assert trace.fired_rule is FiredRule.ATCO_KEYWORD
        assert trace.evidence == "wind"

    def test_no_evidence_falls_back_to_pilot(self, role_lexicon):
        utt = Utterance("u", tokenize("proceeding direct"))
        label, trace = classify(utt, role_lexicon, over([]))
        assert label is RoleLabel.PILOT
        assert trace.fired_rule is FiredRule.CALLSIGN_LATE_OR_ABSENT
        assert trace.evidence is None
        assert trace.low_confidence


class TestDecisionProcedure:
    def test_conflict_resolved_by_earliest_keyword(self, role_lexicon):
        atco_first = Utterance("u", tokenize("wind check then wilco"))
        label, trace = classify(atco_first, role_lexicon, over([]))
        assert (label, trace.evidence) == (RoleLabel.ATCO, "wind")
        pilot_first = Utterance("u", tokenize("wilco and wind check"))
        label, trace = classify(pilot_first, role_lexicon, over([]))
        assert (label, trace.evidence) == (RoleLabel.PILOT, "wilco")

    def test_early_window_boundary(self, role_lexicon, telephony):
        variants = tvs_variants(telephony)
        at_three = Utterance("u", ("good", "morning", "morning", "eight", "four", "juliett"))
        label, trace = classify(at_three, role_lexicon, over(variants))
        assert (label, trace.fired_rule) == (RoleLabel.ATCO, FiredRule.CALLSIGN_EARLY)
        at_four = Utterance("u", ("good", "morning", "morning", "morning", "eight", "four", "juliett"))
        label, trace = classify(at_four, role_lexicon, over(variants))
        assert (label, trace.fired_rule) == (RoleLabel.PILOT, FiredRule.CALLSIGN_LATE_OR_ABSENT)

    def test_empty_utterance_is_total(self, role_lexicon):
        label, trace = classify(Utterance("u", ()), role_lexicon, over([]))
        assert label is RoleLabel.PILOT
        assert trace.fired_rule is FiredRule.CALLSIGN_LATE_OR_ABSENT

    def test_deterministic(self, role_lexicon, telephony):
        utt = Utterance("u", tokenize("good morning skytravel eight four juliett"))
        results = {classify(utt, role_lexicon, over(tvs_variants(telephony))) for _ in range(5)}
        assert len(results) == 1

    def test_keyword_dominance_over_callsign_position(self, role_lexicon, telephony):
        rng = random.Random(41)
        fillers = safe_fillers(role_lexicon, telephony)
        variants = tvs_variants(telephony)
        words = sorted(role_lexicon.atco_words) + sorted(role_lexicon.pilot_words)
        for word in words:
            expected = RoleLabel.ATCO if word in role_lexicon.atco_words else RoleLabel.PILOT
            tokens = [rng.choice(fillers) for _ in range(rng.randint(0, 3))] + [word]
            if rng.random() < 0.5:  # callsign right at the front must not matter
                tokens = list(tvs_variants(telephony)[0][1].tokens) + tokens
            label, _ = classify(Utterance("u", tuple(tokens)), role_lexicon, over(variants))
            assert label is expected

    def test_rule_order_flag_flips_precedence(self, role_lexicon, telephony):
        utt = Utterance("u", tokenize("wilco skytravel eight four juliett"))
        variants = tvs_variants(telephony)
        keywords_first, _ = classify(utt, role_lexicon, over(variants), rule_order="keywords-first")
        callsign_first, trace = classify(utt, role_lexicon, over(variants), rule_order="callsign-first")
        assert keywords_first is RoleLabel.PILOT
        assert callsign_first is RoleLabel.ATCO
        assert trace.fired_rule is FiredRule.CALLSIGN_EARLY

    def test_unknown_rule_order_rejected(self, role_lexicon):
        with pytest.raises(ValueError):
            classify(Utterance("u", ()), role_lexicon, over([]), rule_order="chaos")

    def test_agrees_with_straight_line_oracle(self, role_lexicon, telephony):
        rng = random.Random(42)
        fillers = safe_fillers(role_lexicon, telephony)
        variants = variant_pool(rng, telephony, 4)
        vocab = (
            list(fillers)
            + sorted(role_lexicon.atco_words)
            + sorted(role_lexicon.pilot_words)
            + [t for _, v in variants for t in v.tokens]
        )
        for _ in range(500):
            utt = Utterance("u", tuple(rng.choice(vocab) for _ in range(rng.randint(0, 15))))
            starts = [m[0] for m in brute_force_matches(utt.tokens, variants)]
            want_label, want_rule = classify_oracle(
                utt.tokens, role_lexicon.atco_words, role_lexicon.pilot_words, starts
            )
            label, trace = classify(utt, role_lexicon, over(variants))
            assert (label, trace.fired_rule.value) == (want_label, want_rule)


class TestContextMatching:
    def test_callsign_rule_matches_only_when_reached(self, role_lexicon, telephony):
        calls = []

        def match(utt):
            calls.append(utt.id)
            return ContextMatcher(telephony)(utt)

        keyword = Utterance("kw", tokenize("wilco skytravel eight four juliett"), context_callsigns=("TVS84J",))
        plain = Utterance("cs", tokenize("skytravel eight four juliett"), context_callsigns=("TVS84J",))
        assert classify(keyword, role_lexicon, match)[0] is RoleLabel.PILOT
        assert classify(plain, role_lexicon, match)[0] is RoleLabel.ATCO
        assert calls == ["cs"]
        assert classify(keyword, role_lexicon, match, rule_order="callsign-first")[0] is RoleLabel.ATCO
        assert calls == ["cs", "kw"]

    @pytest.mark.parametrize("icao_digits", [False, True], ids=["plain", "icao"])
    @pytest.mark.parametrize("rule_order", RULE_ORDERS)
    def test_corpus_run_equals_expanded_variants(self, role_lexicon, telephony, rule_order, icao_digits):
        rng = random.Random(44)
        corpus = [c["utterance"] for c in branch_cases(rng, 40, role_lexicon, telephony)]
        corpus += list(near_miss_utterances(rng, telephony, 400))
        got = list(classify_corpus(corpus, role_lexicon, telephony, rule_order, icao_digits))
        for utt, label, trace in got:
            variants = expand_context_callsigns(utt.context_callsigns or (), telephony, icao_digits=icao_digits)
            assert (label, trace) == classify(utt, role_lexicon, over(variants), rule_order)


class TestBranchSuite:
    def test_generated_branches_classify_exactly(self, role_lexicon, telephony):
        rng = random.Random(43)
        cases = branch_cases(rng, 30, role_lexicon, telephony)
        tagged = list(
            classify_corpus((c["utterance"] for c in cases), role_lexicon, telephony)
        )
        assert len(tagged) == len(cases)
        for case, (utt, label, trace) in zip(cases, tagged):
            assert utt.id == case["utterance"].id
            assert label is case["label"]
            assert trace.fired_rule.value == case["rule"]
            if case["keyword"] is not None:
                assert trace.evidence == case["keyword"]


class TestSplitCorpus:
    """classify_corpus is the partition: one label per utterance, in input order."""

    def test_partition_counts(self, role_lexicon, telephony):
        corpus = [
            Utterance(f"a{i}", tokenize("wind check here")) for i in range(6)
        ] + [Utterance(f"p{i}", tokenize("wilco")) for i in range(4)]
        labels = [label for _, label, _ in classify_corpus(iter(corpus), role_lexicon, telephony)]
        assert labels == [RoleLabel.ATCO] * 6 + [RoleLabel.PILOT] * 4

    def test_every_utterance_lands_in_exactly_one_half(self, role_lexicon, telephony):
        rng = random.Random(44)
        cases = branch_cases(rng, 8, role_lexicon, telephony)
        corpus = [c["utterance"] for c in cases]
        tagged = list(classify_corpus(iter(corpus), role_lexicon, telephony))
        assert [utt.id for utt, _, _ in tagged] == [u.id for u in corpus]
        assert all(label in (RoleLabel.ATCO, RoleLabel.PILOT) for _, label, _ in tagged)

    def test_malformed_context_entries_skipped(self, role_lexicon, telephony):
        utt = Utterance("u", tokenize("eight four juliett"), context_callsigns=("84TVS", "TVS84J"))
        tagged = list(classify_corpus([utt], role_lexicon, telephony))
        _, label, trace = tagged[0]
        assert label is RoleLabel.ATCO
        assert trace.fired_rule is FiredRule.CALLSIGN_EARLY


class TestRoleLexicon:
    def test_shipped_lexicon_contains_core_words(self, role_lexicon):
        assert {"identified", "approved", "wind"} <= role_lexicon.atco_words
        assert {"wilco", "maintaining", "we", "our"} <= role_lexicon.pilot_words

    def test_shipped_lexicon_sizes(self, role_lexicon):
        assert len(role_lexicon.atco_words) == 25
        assert len(role_lexicon.pilot_words) == 9

    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            RoleLexicon(frozenset({"wind"}), frozenset({"wind", "wilco"}))

    def test_parse_sections_and_comments(self):
        lex = _parse_role_lexicon("[atco]\nwind # note\n# full comment\n[pilot]\nwilco\n")
        assert lex.atco_words == frozenset({"wind"})
        assert lex.pilot_words == frozenset({"wilco"})

    @pytest.mark.parametrize(
        "text",
        ["wind\n", "[tower]\nwind\n", "[atco]\ntwo words\n"],
    )
    def test_parse_rejects_bad_files(self, text):
        with pytest.raises(ValueError):
            _parse_role_lexicon(text)

    def test_errors_name_source_and_line(self):
        with pytest.raises(CorpusFormatError, match=r"^roles\.txt:3: one word per line"):
            _parse_role_lexicon("[atco]\n\ntwo words  # note\n", source="roles.txt")

    def test_overlap_is_a_format_error(self):
        with pytest.raises(CorpusFormatError, match="both roles"):
            _parse_role_lexicon("[atco]\nwind\n[pilot]\nwind\n")

    def test_keyword_matching_is_whole_token(self, role_lexicon):
        # "we" is a pilot word; "weather" must not trigger it
        label, trace = classify(Utterance("u", ("weather",)), role_lexicon, over([]))
        assert trace.fired_rule is FiredRule.CALLSIGN_LATE_OR_ABSENT
        assert label is RoleLabel.PILOT


def test_trace_requires_evidence_exactly_when_a_cue_fired():
    with pytest.raises(ValueError):
        ClassificationTrace(FiredRule.ATCO_KEYWORD, None)
    with pytest.raises(ValueError):
        ClassificationTrace(FiredRule.CALLSIGN_LATE_OR_ABSENT, "wind")


def test_trace_serialization_shapes(role_lexicon, telephony):
    utt = Utterance("u", tokenize("skytravel eight four juliett"))
    _, trace = classify(utt, role_lexicon, over(tvs_variants(telephony)))
    obj = trace.to_json()
    assert obj["rule"] == "callsign_early"
    assert obj["evidence"]["callsign"] == "TVS84J"
    assert obj["evidence"]["start"] == 0
    keyword_trace = ClassificationTrace(FiredRule.ATCO_KEYWORD, "wind")
    assert keyword_trace.to_json()["evidence"] == {"keyword": "wind"}
    fallback = ClassificationTrace(FiredRule.CALLSIGN_LATE_OR_ABSENT, None, low_confidence=True)
    assert "evidence" not in fallback.to_json()
