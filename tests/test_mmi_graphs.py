import math

import pytest

from atckit.mmi import (
    HmmGraph,
    OovWord,
    build_denominator,
    build_numerator,
    phone_bigram_counts,
)

# an inf - inf in the -inf arithmetic of the MMI recursions warns before it spreads NaN
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

LEX = {"ab": (0, 1), "ba": (1, 0)}
INF = math.inf


def rows(graph):
    """The graph's arcs as (src, dst, phone, weight) tuples, in arc order."""
    return graph.arcs.tolist()


class TestNumerator:
    def test_single_word_chain(self):
        g = build_numerator(["ab"], LEX)
        assert g.n_states == 3
        assert g.finals.tolist() == [-INF, -INF, 0.0]
        forward = {(s, d): p for s, d, p, _ in rows(g) if s != d}
        loops = {s: p for s, d, p, _ in rows(g) if s == d}
        assert forward == {(0, 1): 0, (1, 2): 1}
        assert loops == {1: 0, 2: 1}
        assert all(w == 0.0 for *_, w in rows(g))

    def test_empty_transcript_accepts_only_empty(self):
        g = build_numerator([], LEX)
        assert g.n_states == 1
        assert len(g.arcs) == 0
        assert g.finals.tolist() == [0.0]

    def test_two_word_concatenation(self):
        g = build_numerator(["ab", "ba"], LEX)
        chain = [p for s, d, p, _ in sorted(rows(g)) if s != d]
        assert chain == [0, 1, 1, 0]
        assert g.n_states == 5

    def test_oov_word(self):
        with pytest.raises(OovWord):
            build_numerator(["zz"], LEX)


class TestDenominator:
    def test_uniform_counts_give_uniform_bigrams(self):
        counts = {(p, q): 5 for p in (0, 1) for q in (0, 1)}
        g = build_denominator([0, 1], counts)
        for *_, weight in rows(g):
            assert weight == pytest.approx(math.log(0.5))

    def test_add_one_smoothing(self):
        g = build_denominator([0, 1], {(0, 1): 3, (0, 0): 1})
        w = {(s, d): weight for s, d, _, weight in rows(g)}
        # state 1 is "just emitted phone 0", state 2 is phone 1
        assert w[(1, 2)] == pytest.approx(math.log(4 / 6))
        assert w[(1, 1)] == pytest.approx(math.log(2 / 6))
        # unseen history row falls back to uniform
        assert w[(2, 1)] == pytest.approx(math.log(1 / 2))

    def test_every_phone_state_is_final_and_start_is_not(self):
        g = build_denominator([0, 1, 2], {})
        assert g.finals.tolist() == [-INF, 0.0, 0.0, 0.0]

    def test_empty_phone_set_rejected(self):
        with pytest.raises(ValueError):
            build_denominator([], {})

    def test_repeated_phone_rejected(self):
        with pytest.raises(ValueError):
            build_denominator([0, 1, 0], {})


class TestArcOrder:
    # the forward sums and the occupancy bincount add arcs in this order,
    # so training output is byte-identical only while it holds
    def test_numerator_forward_arc_then_its_self_loop(self):
        assert rows(build_numerator(["ab", "ba"], LEX)) == [
            (0, 1, 0, 0.0), (1, 1, 0, 0.0),
            (1, 2, 1, 0.0), (2, 2, 1, 0.0),
            (2, 3, 1, 0.0), (3, 3, 1, 0.0),
            (3, 4, 0, 0.0), (4, 4, 0, 0.0),
        ]

    def test_denominator_entry_arcs_then_bigram_rows(self):
        # phone labels 5 and 7 live in states 1 and 2; weights are exact math.log values
        assert rows(build_denominator([5, 7], {(5, 7): 3, (7, 7): 1})) == [
            (0, 1, 5, -math.log(2)), (0, 2, 7, -math.log(2)),
            (1, 1, 5, math.log(1 / 5)), (1, 2, 7, math.log(4 / 5)),
            (2, 1, 5, math.log(1 / 3)), (2, 2, 7, math.log(2 / 3)),
        ]


class TestGraphValidation:
    def test_requires_path_to_final(self):
        with pytest.raises(ValueError):
            HmmGraph([], [-INF, 0.0])

    def test_requires_finite_weights(self):
        with pytest.raises(ValueError):
            HmmGraph([(0, 1, 0, -INF)], [-INF, 0.0])

    def test_requires_states_in_range(self):
        with pytest.raises(ValueError):
            HmmGraph([(0, 3, 0, 0.0)], [0.0])

    def test_start_may_be_final(self):
        g = HmmGraph([], [0.0])
        assert g.n_states == 1

    def test_accepts_the_base_case(self):
        # every rejected case below differs from this graph in one place
        g = HmmGraph([(0, 1, 0, 0.0)], [-INF, 0.0])
        assert len(g.arcs) == 1

    @pytest.mark.parametrize(
        "arcs, finals, message",
        [
            pytest.param([(0, 1, 0, 0.0)], [math.nan, 0.0], "NaN or", id="nan_final"),
            pytest.param([(0, 1, 0, 0.0)], [INF, 0.0], "NaN or", id="plus_inf_final"),
            pytest.param([(0, 1, 0, 0.0)], [[-INF, 0.0]], "one weight per state", id="finals_not_one_dim"),
            pytest.param([], [], "one weight per state", id="no_states"),
            pytest.param([(0, 1, 0, 0.0)], [-INF, -INF], "no final", id="no_final_state"),
            pytest.param([(0, 1, -1, 0.0)], [-INF, 0.0], "negative phone", id="negative_phone"),
            pytest.param([(0, 2, 0, 0.0)], [-INF, 0.0], "out of range", id="dst_out_of_range"),
            pytest.param([(1, 0, 0, 0.0)], [-INF, 0.0], "no path", id="unreachable_final"),
            pytest.param([[0, 1, 0, 0.0]], [-INF, 0.0], "one .* record per arc", id="arc_as_a_list"),
            pytest.param(
                [(0, 1, 0, 0.0), (1, 0, 0, 0.0), (2, 3, 0, 0.0)], [-INF, -INF, -INF, 0.0], "no path",
                id="unreachable_final_past_a_cycle",
            ),
        ],
    )
    def test_rejects(self, arcs, finals, message):
        with pytest.raises(ValueError, match=message):
            HmmGraph(arcs, finals)

    def test_reaches_final_whatever_the_arc_order(self):
        # a chain 0 -> 1 -> 2 -> 3 listed backwards, with a cycle on the way
        arcs = [(2, 3, 0, 0.0), (1, 1, 0, 0.0), (1, 2, 0, 0.0), (1, 0, 0, 0.0), (0, 1, 0, 0.0)]
        g = HmmGraph(arcs, [-INF, -INF, -INF, 0.0])
        assert len(g.arcs) == 5


def test_phone_bigram_counts():
    counts = phone_bigram_counts([(0, 1, 1), (1, 0)])
    assert counts == {(0, 1): 1, (1, 1): 1, (1, 0): 1}
    assert phone_bigram_counts([(0,)]) == {}
