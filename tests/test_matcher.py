import itertools
import json
import random
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atckit.callsign import (
    CALLSIGN_RE,
    VariantKind,
    expand_callsign,
    parse_callsign,
)
from atckit.corpus import (
    CorpusFormatError,
    RoleLabel,
    Utterance,
    parse_role,
    read_corpus,
    tokenize,
)
from atckit.matcher import (
    MEMO_SIZE,
    ContextMatcher,
    FilterStats,
    expand_context_callsigns,
    filter_corpus,
    find_matches,
)

from synth import (
    brute_force_matches,
    canon_matches,
    full_expansion,
    make_planted_corpus,
    near_miss_utterances,
    random_callsign_raw,
    safe_fillers,
    variant_pool,
    write_corpus,
)


# context entries: well-formed raws from a small pool (so entries repeat) and
# from the pattern, near misses, entries holding a newline or a carriage
# return, and non-ASCII digits and letters
_CONTEXT_ENTRY = st.one_of(
    st.sampled_from(["TVS84J", "DLH12", "QQQ1", "BAW9XY"]),
    st.from_regex(CALLSIGN_RE, fullmatch=True),
    st.sampled_from(["84TVS", "TVS84JJJ", "TV84J", "TVS12345", "tvs84j", ""]),
    st.sampled_from(["TVS84J\nTVS84J", "TVS84J\n", "\nDLH12", "TVS84J\r", "TVS\r84J", "\r\n"]),
    st.sampled_from(["ABC\u0661", "\u00c5BC1", "\uff21\uff22\uff23\uff11", "TVS\uff18\uff14"]),
)
_SPOKEN = ["skytravel", "lufthansa", "tango", "victor", "sierra", "delta", "lima", "hotel", "quebec",
           "eight", "four", "one", "two", "nine", "juliett", "x-ray", "yankee", "descend"]


def tvs_variants(telephony):
    cs = parse_callsign("TVS84J")
    return [(cs, v) for v in expand_callsign(cs, telephony)]


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("Skytravel Eight  FOUR") == ("skytravel", "eight", "four")

    def test_edge_punctuation_stripped(self):
        assert tokenize("juliett, (descend) now.") == ("juliett", "descend", "now")

    def test_internal_punctuation_kept(self):
        assert tokenize("x-ray here") == ("x-ray", "here")

    def test_pure_punctuation_dropped(self):
        assert tokenize("... --- !") == ()

    def test_empty(self):
        assert tokenize("") == ()


class TestFindMatches:
    def test_full_and_embedded_shortened_match(self, telephony):
        utt = Utterance("u1", ("skytravel", "eight", "four", "juliett", "descend"))
        matches = find_matches(utt, tvs_variants(telephony))
        spans = [(m.start_index, m.end_index, m.variant.kind.value) for m in matches]
        assert spans == [(0, 4, "full_telephony"), (1, 4, "shortened")]

    def test_empty_transcript(self, telephony):
        assert find_matches(Utterance("u1", ()), tvs_variants(telephony)) == []

    def test_no_overlap_with_spoken_alphabet(self, telephony):
        utt = Utterance("u1", ("good", "morning"))
        assert find_matches(utt, tvs_variants(telephony)) == []

    def test_matched_span_equals_variant_tokens(self, telephony):
        rng = random.Random(31)
        fillers = ["gate", "apron", "morning"]
        variants = variant_pool(rng, telephony, 6)
        vocab = fillers + [t for _, v in variants for t in v.tokens]
        for _ in range(200):
            utt = Utterance("u", tuple(rng.choice(vocab) for _ in range(rng.randint(0, 12))))
            for m in find_matches(utt, variants):
                assert utt.tokens[m.start_index : m.end_index] == m.variant.tokens
                assert m.end_index - m.start_index == len(m.variant.tokens)

    def test_equals_brute_force_scan(self, telephony):
        rng = random.Random(32)
        for _ in range(300):
            variants = variant_pool(rng, telephony, rng.randint(1, 10))
            vocab = ["gate", "apron"] + [t for _, v in variants for t in v.tokens]
            utt = Utterance("u", tuple(rng.choice(vocab) for _ in range(rng.randint(0, 12))))
            got = canon_matches(find_matches(utt, variants))
            assert got == brute_force_matches(utt.tokens, variants)

    def test_sorted_by_start_then_longest(self, telephony):
        rng = random.Random(33)
        for _ in range(100):
            variants = variant_pool(rng, telephony, 5)
            vocab = [t for _, v in variants for t in v.tokens]
            utt = Utterance("u", tuple(rng.choice(vocab) for _ in range(12)))
            matches = find_matches(utt, variants)
            keys = [(m.start_index, m.start_index - m.end_index) for m in matches]
            assert keys == sorted(keys)


class TestContextMatcher:
    """The tail-anchored path against the full expansion it replaces."""

    @staticmethod
    def check(utt, telephony, icao_digits, match=None):
        match = match or ContextMatcher(telephony, icao_digits)
        got_stats, want_stats = FilterStats(), FilterStats()
        got = match(utt, got_stats)
        reference = expand_context_callsigns(utt.context_callsigns, telephony, want_stats, icao_digits)
        assert got == find_matches(utt, reference)  # same objects, order and repeats
        assert canon_matches(got) == brute_force_matches(
            utt.tokens, full_expansion(utt.context_callsigns, telephony, icao_digits)
        )
        assert got_stats.malformed_callsigns == want_stats.malformed_callsigns
        return got

    @pytest.mark.parametrize("icao_digits", [False, True], ids=["plain", "icao"])
    def test_equals_brute_force_over_full_expansion(self, telephony, icao_digits):
        rng = random.Random(36)
        match = ContextMatcher(telephony, icao_digits)
        found = 0
        for utt in near_miss_utterances(rng, telephony, 2000):
            found += len(self.check(utt, telephony, icao_digits, match))
        assert found > 400  # the generator plants enough hits to mean something

    @pytest.mark.parametrize("icao_digits", [False, True], ids=["plain", "icao"])
    def test_designator_equal_to_spelled_code(self, icao_digits):
        lexicon = {"TVS": ("tango", "victor", "sierra"), "DLH": ("lufthansa",)}
        utt = Utterance("u", tokenize("tango victor sierra eight four juliett"), context_callsigns=("TVS84J",))
        kinds = [(m.start_index, m.variant.kind) for m in self.check(utt, lexicon, False)]
        assert kinds == [
            (0, VariantKind.FULL_TELEPHONY),
            (0, VariantKind.LETTER_SPELLED),
            (3, VariantKind.SHORTENED),
        ]
        rng = random.Random(37)
        for utt in near_miss_utterances(rng, lexicon, 500):
            self.check(utt, lexicon, icao_digits)

    def test_overlapping_occurrences(self, telephony):
        utt = Utterance("u", tokenize("one one one one one"), context_callsigns=("QQQ111", "QQQ11"))
        spans = [(m.callsign.raw, m.start_index, m.end_index) for m in self.check(utt, telephony, False)]
        assert sorted(spans) == sorted(
            [("QQQ111", s, s + 3) for s in range(3)] + [("QQQ11", s, s + 2) for s in range(4)]
        )

    def test_tail_at_both_ends_and_unknown_code(self, telephony):
        utt = Utterance(
            "u", tokenize("four two tango victor sierra four two"), context_callsigns=("TVS42", "QQQ42")
        )
        got = self.check(utt, telephony, False)
        assert [(m.callsign.raw, m.start_index, m.variant.kind.value) for m in got] == [
            ("QQQ42", 0, "shortened"),
            ("TVS42", 0, "shortened"),
            ("TVS42", 2, "letter_spelled"),
            ("QQQ42", 5, "shortened"),
            ("TVS42", 5, "shortened"),
        ]

    def test_repeated_and_malformed_entries(self, telephony):
        context = ("TVS84J", "84TVS", "TVS84J", "", "TVS84J")
        utt = Utterance("u", tokenize("skytravel eight four juliett"), context_callsigns=context)
        stats = FilterStats()
        got = ContextMatcher(telephony)(utt, stats)
        assert [(m.variant.kind.value, m.start_index) for m in got] == [("full_telephony", 0)] * 3 + [
            ("shortened", 1)
        ] * 3
        assert stats.malformed_callsigns == 2
        self.check(utt, telephony, False)

    @pytest.mark.parametrize("icao_digits", [False, True], ids=["plain", "icao"])
    def test_written_characters_do_not_match(self, telephony, icao_digits):
        def found(utt, lexicon=telephony):
            return [(m.callsign.raw, m.start_index, m.variant.kind.value) for m in self.check(utt, lexicon, icao_digits)]

        # tokens that are the characters the matcher spells with, not words
        tokens = ("tvs84j", "8", "4", "j", "eight", "four", "j", "8", "four", "juliett", "TVS", "84J", "J")
        assert found(Utterance("u", tokens, context_callsigns=("TVS84J", "TVS8", "TVS4J"))) == [
            ("TVS8", 4, "shortened"),
            ("TVS4J", 8, "shortened"),
        ]
        # each digit style's words, and only those, spell its 3, 5 and 9
        utt = Utterance("u", tokenize("tree niner three nine five tree fife"), context_callsigns=("TVS39", "TVS35"))
        assert found(utt) == ([("TVS39", 0, "shortened"), ("TVS35", 5, "shortened")] if icao_digits else [
            ("TVS39", 2, "shortened")
        ])
        utt = Utterance("u", tokenize("lufthansa seven x-ray seven x ray seven xray"), context_callsigns=("DLH7X",))
        assert found(utt) == [("DLH7X", 0, "full_telephony"), ("DLH7X", 1, "shortened")]
        # designators spoken with digit and letter words
        lexicon = {"OTW": ("one", "two"), "ABX": ("alfa", "bravo")}
        utt = Utterance(
            "u", tokenize("one two two four alfa bravo four"), context_callsigns=("OTW24", "ABX4", "OTW4")
        )
        assert found(utt, lexicon) == [
            ("OTW24", 0, "full_telephony"),
            ("OTW24", 2, "shortened"),
            ("ABX4", 3, "shortened"),
            ("OTW4", 3, "shortened"),
            ("ABX4", 4, "full_telephony"),
            ("ABX4", 6, "shortened"),
            ("OTW4", 6, "shortened"),
        ]

    @pytest.mark.parametrize(
        "text, context",
        [
            ("eight four juliett juliett juliett", ("TVS84JJJ", "TVS84J")),
            ("one two three four five", ("TVS12345", "TVS1234")),
            ("sierra eight four juliett", (" TVS84J", "TVS84J")),  # tail slice "S84J"
            ("eight four juliett", ("TV84J", "TVS84J")),  # tail slice "4J"
            ("eight four juliett", ("", "TVS84J", "")),  # empty tail slice, in every string
            ("eight four juliett", ("TVS84J\nTVS84J", "TVS84J")),
        ],
        ids=["long_suffix", "long_number", "leading_space", "short_code", "empty", "embedded_newline"],
    )
    def test_malformed_entries_that_pass_the_tail_screen(self, telephony, text, context):
        # each context holds a malformed entry whose slice past the code occurs in the utterance
        utt = Utterance("u", tokenize(text), context_callsigns=context)
        match = ContextMatcher(telephony)
        for _ in range(2):  # the second call reads the memos the first one filled
            assert self.check(utt, telephony, False, match)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        context=st.lists(_CONTEXT_ENTRY, max_size=8),
        tokens=st.lists(st.sampled_from(_SPOKEN), max_size=12),
    )
    def test_malformed_count_on_drawn_contexts(self, telephony, context, tokens):
        utt = Utterance("u", tuple(tokens), context_callsigns=tuple(context))
        want = find_matches(utt, expand_context_callsigns(context, telephony))
        malformed = sum(CALLSIGN_RE.fullmatch(raw) is None for raw in context)
        match = ContextMatcher(telephony)
        for _ in range(2):  # the first call takes the regex pass, the second the well-formed set
            stats = FilterStats()
            assert match(utt, stats) == want
            assert stats.malformed_callsigns == malformed

    def test_memos_stay_bounded(self, telephony):
        def memos():
            return match.well_formed, match.hits

        rng = random.Random(38)
        match = ContextMatcher(telephony)
        stats = FilterStats()
        seen = set()
        while len(seen) < 20000:
            raw = random_callsign_raw(rng)
            if raw in seen:
                continue
            seen.add(raw)
            variants = expand_callsign(parse_callsign(raw), telephony)
            shortened = next(v for v in variants if v.kind is VariantKind.SHORTENED)
            assert match(Utterance("u", shortened.tokens, context_callsigns=(raw,)), stats)
            assert all(len(memo) <= MEMO_SIZE for memo in memos())
        assert all(memos()) and stats.malformed_callsigns == 0
        # one context longer than a memo, every entry of it matching
        codes = ["".join(code) for code in itertools.product(string.ascii_uppercase, repeat=3)]
        utt = Utterance("u", ("one",), context_callsigns=tuple(code + "1" for code in codes[:1500]))
        assert len(self.check(utt, telephony, False, match)) == 1500
        assert all(0 < len(memo) <= MEMO_SIZE for memo in memos())


class TestFilterCorpus:
    def test_keeps_only_matching_utterances(self, telephony):
        corpus = [
            Utterance("a", tokenize("skytravel eight four juliett"), context_callsigns=("TVS84J",)),
            Utterance("b", tokenize("good morning"), context_callsigns=("TVS84J",)),
            Utterance("c", tokenize("nothing here"), context_callsigns=("DLH9",)),
        ]
        kept, stats = filter_corpus(iter(corpus), telephony)
        kept = list(kept)
        assert [utt.id for utt, _ in kept] == ["a"]
        assert kept[0][1][0].callsign.raw == "TVS84J"
        assert (stats.total, stats.kept, stats.dropped) == (3, 1, 2)

    def test_malformed_context_counted_not_fatal(self, telephony):
        corpus = [Utterance("a", tokenize("eight four"), context_callsigns=("84TVS",))]
        kept, stats = filter_corpus(iter(corpus), telephony)
        assert list(kept) == []
        assert stats.malformed_callsigns == 1
        assert (stats.kept, stats.dropped) == (0, 1)

    def test_missing_context_counted_and_dropped(self, telephony):
        corpus = [
            Utterance("a", tokenize("eight four")),
            Utterance("b", tokenize("eight four"), context_callsigns=()),
        ]
        kept, stats = filter_corpus(iter(corpus), telephony)
        assert list(kept) == []
        assert stats.no_context == 2
        assert stats.dropped == 2

    def test_empty_transcripts_are_processed_not_skipped(self, telephony):
        corpus = [Utterance("a", (), context_callsigns=("TVS84J",))]
        kept, stats = filter_corpus(iter(corpus), telephony)
        assert list(kept) == []
        assert stats.total == 1

    def test_planted_corpus_recovers_ground_truth(self, telephony, role_lexicon):
        rng = random.Random(34)
        fillers = safe_fillers(role_lexicon, telephony)
        corpus, expected_ids = make_planted_corpus(rng, 200, 40, telephony, fillers)
        kept, stats = filter_corpus(iter(corpus), telephony)
        assert {utt.id for utt, _ in kept} == expected_ids
        assert stats.kept == 40
        assert stats.kept + stats.dropped == stats.total == 200

    def test_stats_partition_on_fuzzed_corpora(self, telephony, role_lexicon):
        rng = random.Random(35)
        fillers = safe_fillers(role_lexicon, telephony)
        for _ in range(20):
            n = rng.randint(0, 40)
            corpus, _ = make_planted_corpus(rng, n, rng.randint(0, n) if n else 0, telephony, fillers)
            kept, stats = filter_corpus(iter(corpus), telephony)
            n_kept = sum(1 for _ in kept)
            assert stats.kept == n_kept
            assert stats.kept + stats.dropped == stats.total == n
            assert stats.tokens_kept <= stats.tokens_total


class TestCorpusJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        original = [
            Utterance("u1", tokenize("Skytravel eight, four Juliett"), RoleLabel.ATCO, ("TVS84J",)),
            Utterance("u2", ()),
        ]
        write_corpus(original, path)
        back = list(read_corpus(path))
        assert back == original

    def test_fields_serialized_as_documented(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_corpus([Utterance("u1", ("eight",), RoleLabel.PILOT, ("TVS84J",))], path)
        obj = json.loads(path.read_text().strip())
        assert obj == {"id": "u1", "text": "eight", "role": "pilot", "callsigns": ["TVS84J"]}

    @pytest.mark.parametrize("value", ["controller", "ATCO", "", 1, 1.5, True, ["atco"], {"role": "atco"}], ids=repr)
    def test_unknown_role_is_a_format_error(self, value):
        with pytest.raises(CorpusFormatError) as err:
            parse_role(value)
        assert str(err.value) == f"unknown role {value!r} (want 'atco' or 'pilot')"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "hello"}\n\n{"id": "b", "text": ""}\n')
        assert [u.id for u in read_corpus(path)] == ["a", "b"]

    @pytest.mark.parametrize("bad", [5, None, ["TVS84J"], {"raw": "TVS84J"}, b"TVS84J"], ids=repr)
    def test_non_string_callsign_last_in_a_long_list_is_refused(self, bad):
        record = {"id": "a", "callsigns": [f"TVS{n}" for n in range(5000)] + [bad]}
        with pytest.raises(CorpusFormatError, match="^'callsigns' must be an array of strings$"):
            Utterance.from_json(record)
        assert Utterance.from_json({**record, "callsigns": record["callsigns"][:-1]}).context_callsigns[-1] == "TVS4999"

    @pytest.mark.parametrize(
        "line",
        ['not json', '[1, 2]', '{"text": "missing id"}', '{"id": "a", "role": "tower"}',
         '{"id": "a", "text": 5}', '{"id": "a", "text": null}',
         '{"id": "a", "callsigns": [5]}', '{"id": "a", "callsigns": [null]}'],
    )
    def test_bad_records_raise_with_location(self, tmp_path, line):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "ok"}\n' + line + "\n")
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}:2: "):
            list(read_corpus(path))
