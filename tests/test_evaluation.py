import random

import pytest

from atckit import evaluation
from atckit.corpus import RoleLabel
from atckit.evaluation import (
    ConfusionMatrix,
    EmptyReference,
    WerBreakdown,
    accumulate,
    rates,
    wer,
    wer_corpus,
)

from synth import edit_distance, wer_split_oracle

A, P = RoleLabel.ATCO, RoleLabel.PILOT


# pairs whose first or last words recur inside them, one side a prefix or a
# suffix of the other, and middles left empty once the shared ends are paired
SHARED_END_PAIRS = [
    (["a", "a", "b"], ["a", "b"]),
    (["a", "b", "a"], ["a"]),
    (["a", "b"], ["b", "a", "b"]),
    (["a", "b", "a", "b"], ["a", "b"]),
    (["a", "b", "c"], ["a", "b", "c"]),
    (["a"], ["a"]),
    (["a", "b", "c"], ["a", "b"]),
    (["a", "b", "c"], ["b", "c"]),
    (["a", "x", "b"], ["a", "b"]),
    (["a", "x", "y", "b"], ["a", "z", "b"]),
    (["a", "b", "b", "a"], ["a", "b", "a"]),
]


def asr_style_pair(rng, vocab):
    """A reference and a hypothesis made from it at 8 % substitution, 5 %
    deletion and 5 % insertion per word, the rates of the benchmark's pairs."""
    ref = [rng.choice(vocab) for _ in range(rng.randint(1, 20))]
    hyp = []
    for word in ref:
        roll = rng.random()
        if roll < 0.08:
            hyp.append(rng.choice(vocab))
        elif roll >= 0.13:
            hyp.append(word)
        if rng.random() < 0.05:
            hyp.append(rng.choice(vocab))
    return ref, hyp


def pairs_from_counts(tp, fn, fp, tn):
    """(predicted, actual) pairs realizing the given cell counts."""
    return [(A, A)] * tp + [(P, A)] * fn + [(A, P)] * fp + [(P, P)] * tn


class TestConfusionMatrix:
    def test_direct_counting(self):
        cm = accumulate([(A, A), (P, A), (P, P)])
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 1, 0, 1)

    def test_empty_stream(self):
        cm = accumulate([])
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (0, 0, 0, 0)

    def test_reconstructed_reference_counts(self):
        cm = accumulate(pairs_from_counts(856, 204, 188, 1092))
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (856, 204, 188, 1092)
        assert cm.actual_atco == 1060
        assert cm.actual_pilot == 1280

    def test_matches_brute_force_frequencies(self):
        rng = random.Random(51)
        labels = [A, P]
        stream = [(rng.choice(labels), rng.choice(labels)) for _ in range(1000)]
        cm = accumulate(stream)
        assert cm.tp == sum(1 for p, a in stream if p is A and a is A)
        assert cm.fn == sum(1 for p, a in stream if p is P and a is A)
        assert cm.fp == sum(1 for p, a in stream if p is A and a is P)
        assert cm.tn == sum(1 for p, a in stream if p is P and a is P)
        assert cm.total == 1000

    def test_shards_merge_commutatively(self):
        rng = random.Random(52)
        labels = [A, P]
        stream = [(rng.choice(labels), rng.choice(labels)) for _ in range(300)]
        whole = accumulate(stream)
        left, right = accumulate(stream[:100]), accumulate(stream[100:])
        assert left + right == whole
        assert right + left == whole


class TestRates:
    def test_first_reference_matrix(self):
        r = rates(ConfusionMatrix(tp=856, fn=204, fp=188, tn=1092))
        assert r.tpr == pytest.approx(856 / 1060)
        assert r.tnr == pytest.approx(1092 / 1280)
        assert round(r.tpr * 100, 2) == 80.75
        assert round(r.tnr * 100, 2) == 85.31
        assert round(r.tpr * 100) == 81
        assert round(r.tnr * 100) == 85

    def test_second_reference_matrix(self):
        r = rates(ConfusionMatrix(tp=660, fn=115, fp=179, tn=708))
        assert round(r.tpr * 100) == 85
        assert round(r.tnr * 100) == 80

    def test_perfect_classifier(self):
        r = rates(ConfusionMatrix(tp=1, fn=0, fp=0, tn=1))
        assert (r.tpr, r.tnr, r.accuracy) == (1.0, 1.0, 1.0)

    def test_degenerate_class_reported_absent_not_nan(self):
        r = rates(ConfusionMatrix(tp=0, fn=0, fp=3, tn=7))
        assert r.tpr is None
        assert r.tnr == 0.7
        assert r.to_json() == {"tnr": 0.7, "accuracy": 0.7}
        empty = rates(ConfusionMatrix())
        assert (empty.tpr, empty.tnr, empty.accuracy) == (None, None, None)
        assert empty.to_json() == {}

    def test_accuracy_pools_both_classes(self):
        r = rates(ConfusionMatrix(tp=4, fn=1, fp=2, tn=3))
        assert r.accuracy == 0.7


class TestWer:
    def test_identity(self):
        out = wer(["turn", "left"], ["turn", "left"])
        assert (out.substitutions, out.deletions, out.insertions) == (0, 0, 0)
        assert out.wer == 0.0

    def test_single_deletion(self):
        ref = ["turn", "left", "heading", "two", "five", "zero"]
        out = wer(ref, ref[:-1])
        assert (out.substitutions, out.deletions, out.insertions) == (0, 1, 0)
        assert out.wer == pytest.approx(1 / 6)

    def test_wer_can_exceed_one(self):
        out = wer(["climb"], ["descend", "now"])
        assert (out.substitutions, out.insertions) == (1, 1)
        assert out.wer == 2.0

    def test_empty_against_empty_is_zero(self):
        out = wer([], [])
        assert out.total_edits == 0
        assert out.wer == 0.0

    def test_empty_reference_with_hypothesis_raises(self):
        with pytest.raises(EmptyReference):
            wer([], ["descend"])

    def test_tie_break_prefers_substitution(self):
        # two words replaced by one unrelated word: one substitution, one deletion
        out = wer(["alpha", "bravo"], ["charlie"])
        assert out.total_edits == 2
        assert (out.substitutions, out.deletions, out.insertions) == (1, 1, 0)

    def test_breakdown_invariants_on_random_pairs(self):
        rng = random.Random(53)
        vocab = ["a", "b", "c", "d"]
        pairs = [(["a"], []), (["a"], ["a"]), (["a"], ["b"]), (["a"], ["b", "a", "c"]), (["a", "b"], [])]
        for _ in range(300):
            ref = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
            hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
            pairs.append((ref, hyp))
        for ref, hyp in pairs:
            out = wer(ref, hyp)
            assert out.total_edits == edit_distance(ref, hyp)
            assert (out.substitutions, out.deletions, out.insertions) == wer_split_oracle(ref, hyp)
            assert out.substitutions + out.deletions <= out.ref_words
            assert out.ref_words + out.insertions - out.deletions == len(hyp)

    def test_shared_ends_keep_the_total_and_the_split(self):
        # wer pairs the shared opening and closing words before its table;
        # every split must still be the oracle's, both ways round
        rng = random.Random(57)
        pairs = SHARED_END_PAIRS + [asr_style_pair(rng, ["a", "b", "c", "d", "e", "f"]) for _ in range(300)]
        for ref, hyp in pairs:
            out = wer(ref, hyp)
            assert out.total_edits == edit_distance(ref, hyp)
            split = (out.substitutions, out.deletions, out.insertions)
            assert split == wer_split_oracle(ref, hyp)
            if hyp:  # swapped, deletions and insertions trade places
                rev = wer(hyp, ref)
                assert (rev.substitutions, rev.insertions, rev.deletions) == split

    def test_edit_symmetry_swaps_deletions_and_insertions(self):
        rng = random.Random(54)
        vocab = ["a", "b", "c"]
        for _ in range(200):
            x = [rng.choice(vocab) for _ in range(rng.randint(1, 10))]
            y = [rng.choice(vocab) for _ in range(rng.randint(1, 10))]
            fwd, rev = wer(x, y), wer(y, x)
            assert fwd.total_edits == rev.total_edits
            assert fwd.substitutions == rev.substitutions
            assert (fwd.deletions, fwd.insertions) == (rev.insertions, rev.deletions)

    def test_triangle_inequality_on_edits(self):
        rng = random.Random(55)
        vocab = ["a", "b", "c"]
        for _ in range(200):
            seqs = [
                [rng.choice(vocab) for _ in range(rng.randint(1, 8))] for _ in range(3)
            ]
            ab = wer(seqs[0], seqs[1]).total_edits
            bc = wer(seqs[1], seqs[2]).total_edits
            ac = wer(seqs[0], seqs[2]).total_edits
            assert ac <= ab + bc


class TestWerCorpus:
    def test_identical_pairs_score_zero(self):
        pairs = [(["a", "b"], ["a", "b"]), (["c"], ["c"])]
        assert wer_corpus(pairs).wer == 0.0

    def test_pools_before_dividing(self):
        pairs = [
            (["turn", "left", "heading", "two", "five", "zero"], ["turn", "left", "heading", "two", "five"]),
            (["climb"], ["descend", "now"]),
        ]
        out = wer_corpus(pairs)
        assert out.total_edits == 3
        assert out.ref_words == 7
        assert out.wer == pytest.approx(3 / 7)

    def test_single_pair_equals_wer(self):
        ref, hyp = ["a", "b", "c"], ["a", "c"]
        assert wer_corpus([(ref, hyp)]) == wer(ref, hyp)

    def test_empty_empty_pairs_contribute_zero(self):
        out = wer_corpus([([], []), (["a"], ["a"])])
        assert out.ref_words == 1
        assert out.wer == 0.0

    def test_empty_reference_pair_raises(self):
        with pytest.raises(EmptyReference):
            wer_corpus([(["a"], ["a"]), ([], ["b"])])

    def test_calls_wer_once_per_pair(self, monkeypatch):
        # through the module attribute, so a wrapper on evaluation.wer sees
        # every pair: the benchmark's tracer counts its calls and cells there
        real, calls = evaluation.wer, []
        monkeypatch.setattr(evaluation, "wer", lambda ref, hyp: calls.append((ref, hyp)) or real(ref, hyp))
        pairs = [(["a", "b"], ["a", "b"]), ([], []), (["a", "b", "c"], ["c"])]
        assert wer_corpus(pairs) == real(*pairs[0]) + real(*pairs[1]) + real(*pairs[2])
        assert calls == pairs

    def test_breakdowns_merge_like_shards(self):
        rng = random.Random(56)
        vocab = ["a", "b", "c"]
        pairs = [
            (
                [rng.choice(vocab) for _ in range(rng.randint(1, 8))],
                [rng.choice(vocab) for _ in range(rng.randint(0, 8))],
            )
            for _ in range(50)
        ]
        whole = wer_corpus(pairs)
        merged = wer_corpus(pairs[:20]) + wer_corpus(pairs[20:])
        assert whole == merged


def test_breakdown_wer_property_guards_division():
    assert WerBreakdown(ref_words=0).wer == 0.0
    assert WerBreakdown(insertions=2, ref_words=0).wer == float("inf")
