import random

import pytest

from atckit.callsign import (
    DIGIT_WORDS,
    MalformedCallsign,
    NATO_ALPHABET,
    Callsign,
    SpokenVariant,
    VariantKind,
    _parse_telephony,
    default_telephony_lexicon,
    expand_callsign,
    load_telephony_lexicon,
    nato_letter,
    parse_callsign,
    spoken_digit,
    spoken_heads,
    spoken_tail,
    written_chars,
)

from atckit.corpus import CorpusFormatError

from synth import random_callsign_raw, spoken_alphabet


def variant_texts(variants):
    return {v.kind: v.text for v in variants}


class TestParse:
    def test_with_suffix(self):
        assert parse_callsign("TVS84J") == Callsign("TVS", "84", "J")

    def test_two_letter_suffix(self):
        assert parse_callsign("LUF189AF") == Callsign("LUF", "189", "AF")

    def test_minimal(self):
        assert parse_callsign("TVS8") == Callsign("TVS", "8", "")

    @pytest.mark.parametrize(
        "raw",
        ["84TVS", "", "TVS", "TV84", "TVSJ", "TVS12345", "TVS84JKL", "tvs84j", "TVS8 4"],
    )
    def test_malformed(self, raw):
        with pytest.raises(MalformedCallsign):
            parse_callsign(raw)

    def test_round_trip_random(self):
        rng = random.Random(4711)
        for _ in range(500):
            raw = random_callsign_raw(rng)
            cs = parse_callsign(raw)
            assert cs.airline_code + cs.number_part + cs.suffix == raw
            assert cs.raw == raw

    def test_bad_fields_rejected_directly(self):
        with pytest.raises(MalformedCallsign):
            Callsign("TV", "84", "J")
        with pytest.raises(MalformedCallsign):
            Callsign("TVS", "", "J")
        with pytest.raises(MalformedCallsign):
            Callsign("TVS", "84", "j")
        # the fields must be CALLSIGN_RE's split of their concatenation
        for fields in [("TVS", "12345"), ("TVS", "84", "JKL"), ("TVS1", "2"), ("TVS", "\u0663")]:
            with pytest.raises(MalformedCallsign):
                Callsign(*fields)

    def test_parsed_callsign_equals_the_checked_constructor(self):
        rng = random.Random(4712)
        for _ in range(200):
            cs = parse_callsign(random_callsign_raw(rng))
            checked = Callsign(cs.airline_code, cs.number_part, cs.suffix)
            assert cs == checked and hash(cs) == hash(checked) and repr(cs) == repr(checked)


class TestSpokenTables:
    @pytest.mark.parametrize("d,word", [("8", "eight"), ("0", "zero"), ("9", "nine")])
    def test_default_digits(self, d, word):
        assert spoken_digit(d) == word

    @pytest.mark.parametrize("d,word", [("3", "tree"), ("5", "fife"), ("9", "niner")])
    def test_icao_alternates(self, d, word):
        assert spoken_digit(d, icao_alternates=True) == word

    def test_alternates_leave_other_digits_alone(self):
        assert spoken_digit("8", icao_alternates=True) == "eight"

    def test_non_digit_rejected(self):
        with pytest.raises(ValueError):
            spoken_digit("x")

    @pytest.mark.parametrize("c,word", [("J", "juliett"), ("A", "alfa"), ("Z", "zulu")])
    def test_nato_letters(self, c, word):
        assert nato_letter(c) == word
        assert nato_letter(c.lower()) == word

    def test_non_letter_rejected(self):
        with pytest.raises(ValueError):
            nato_letter("4")


class TestExpand:
    def test_known_code_yields_three_variants(self, telephony):
        variants = expand_callsign(parse_callsign("TVS84J"), telephony)
        assert variant_texts(variants) == {
            VariantKind.FULL_TELEPHONY: "skytravel eight four juliett",
            VariantKind.LETTER_SPELLED: "tango victor sierra eight four juliett",
            VariantKind.SHORTENED: "eight four juliett",
        }

    def test_variants_come_in_kind_order(self, telephony):
        known = expand_callsign(parse_callsign("TVS84J"), telephony)
        assert [v.kind for v in known] == list(VariantKind)
        unknown = expand_callsign(parse_callsign("XXX1"), telephony)
        assert [v.kind for v in unknown] == [VariantKind.LETTER_SPELLED, VariantKind.SHORTENED]

    def test_two_letter_suffix_expansion(self, telephony):
        texts = {v.text for v in expand_callsign(parse_callsign("LUF189AF"), telephony)}
        assert "lufthansa one eight nine alfa foxtrot" in texts
        assert "one eight nine alfa foxtrot" in texts

    def test_unknown_code_omits_telephony_variant(self, telephony):
        assert "XXX" not in telephony
        variants = expand_callsign(parse_callsign("XXX1"), telephony)
        assert variant_texts(variants) == {
            VariantKind.LETTER_SPELLED: "x-ray x-ray x-ray one",
            VariantKind.SHORTENED: "one",
        }

    def test_icao_digit_variants(self, telephony):
        texts = {v.text for v in expand_callsign(parse_callsign("TVS359"), telephony, icao_digits=True)}
        assert "skytravel tree fife niner" in texts

    def test_tokens_stay_in_closed_alphabet(self, telephony):
        rng = random.Random(99)
        alphabet = spoken_alphabet(telephony)
        for _ in range(300):
            cs = parse_callsign(random_callsign_raw(rng, telephony))
            for variant in expand_callsign(cs, telephony):
                assert set(variant.tokens) <= alphabet

    def test_shortened_is_suffix_of_the_others(self, telephony):
        rng = random.Random(100)
        for _ in range(300):
            cs = parse_callsign(random_callsign_raw(rng, telephony))
            by_kind = {v.kind: v for v in expand_callsign(cs, telephony)}
            short = by_kind[VariantKind.SHORTENED].tokens
            for kind, variant in by_kind.items():
                assert variant.tokens[len(variant.tokens) - len(short):] == short

    def test_variant_presence_rule(self, telephony):
        rng = random.Random(101)
        for _ in range(300):
            cs = parse_callsign(random_callsign_raw(rng, telephony))
            kinds = {v.kind for v in expand_callsign(cs, telephony)}
            assert VariantKind.LETTER_SPELLED in kinds
            assert VariantKind.SHORTENED in kinds
            assert (VariantKind.FULL_TELEPHONY in kinds) == (cs.airline_code in telephony)


class TestTelephonyLexicon:
    def test_shipped_lexicon_entries(self, telephony):
        assert telephony.get("TVS") == ("skytravel",)
        assert telephony.get("LUF") == ("lufthansa",)
        assert telephony.get("NAX") == ("nor", "shuttle")

    def test_shipped_lexicon_is_read_only(self):
        with pytest.raises(TypeError):
            default_telephony_lexicon()["TVS"] = ("spoofed",)
        assert default_telephony_lexicon()["TVS"] == ("skytravel",)

    def test_parse_skips_comments_and_blanks(self):
        lex = _parse_telephony("# header\n\nABC\tsome airline\n")
        assert lex.get("ABC") == ("some", "airline")

    def test_parse_lowercases_designators(self):
        lex = _parse_telephony("ABC\tSome Airline\n")
        assert lex.get("ABC") == ("some", "airline")

    @pytest.mark.parametrize("line", ["AB\tshort", "ABCD\tlong", "ABC", "ABC\t", "ABC\ta\tb"])
    def test_parse_rejects_bad_rows(self, line):
        with pytest.raises(ValueError):
            _parse_telephony(line + "\n")

    def test_trailing_hash_starts_a_comment(self):
        lex = _parse_telephony("ABC\tsome airline  # since 2019\n")
        assert lex.get("ABC") == ("some", "airline")

    def test_errors_name_source_and_line(self):
        with pytest.raises(CorpusFormatError, match=r"^tel\.tsv:3: bad airline code"):
            _parse_telephony("# header\nABC\tsome airline\nAB1\tother\n", source="tel.tsv")

    def test_only_newlines_end_lines(self):
        text = "# header\x0cstill the header\nABC\tsome\x1cairline\u2028inc\n"
        assert _parse_telephony(text).get("ABC") == ("some", "airline", "inc")
        with pytest.raises(CorpusFormatError, match=r"^tel\.tsv:3: bad airline code"):
            _parse_telephony(text + "AB1\tother\n", source="tel.tsv")


@pytest.mark.parametrize("code", ["TVS", "tvs", "TvS", "", "\u212aLM"])  # U+212A KELVIN SIGN lowers to "k"
def test_spoken_heads_spell_a_code_as_nato_letter_does(code):
    assert spoken_heads(code, {}) == ((VariantKind.LETTER_SPELLED, tuple(map(nato_letter, code))),)


@pytest.mark.parametrize("code", ["TV4", "TV ", "\u00c5BC", "AB\uff23"])
def test_spoken_heads_reject_a_non_letter(telephony, code):
    with pytest.raises(ValueError, match="is not a letter A-Z"):
        spoken_heads(code, telephony)


def test_lexicon_file_line_holds_a_lone_carriage_return(tmp_path):
    path = tmp_path / "tel.tsv"
    path.write_bytes(b"ABC\tsome\rairline\r\nDEF\tother\n")
    assert dict(load_telephony_lexicon(path)) == {"ABC": ("some", "airline"), "DEF": ("other",)}


def test_spoken_variant_text_joins_tokens():
    v = SpokenVariant(("eight", "four"), VariantKind.SHORTENED)
    assert v.text == "eight four"


@pytest.mark.parametrize("icao_digits", [False, True], ids=["plain", "icao"])
def test_written_chars_spell_the_tail(icao_digits):
    chars = written_chars(icao_digits)
    assert len(chars) == 36
    assert "".join(chars[word] for word in spoken_tail("3590", "XJ", icao_digits)) == "3590XJ"


def test_digit_and_nato_tables_cover_their_domains():
    assert set(DIGIT_WORDS) == set("0123456789")
    assert set(NATO_ALPHABET) == set("abcdefghijklmnopqrstuvwxyz")
