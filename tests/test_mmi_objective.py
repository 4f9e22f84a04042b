import dataclasses
import math
import random

import numpy as np
import pytest

from atckit.mmi import (
    EmissionModel,
    HmmGraph,
    MmiTask,
    NoPath,
    TrainingUtterance,
    build_denominator,
    build_numerator,
    emission_occupancy,
    forward_logprob,
    log_softmax,
    mmi_gradient,
    mmi_objective,
    multitask_objective,
    objective,
    phone_bigram_counts,
)
from atckit.mmi.check import random_graph, random_instance
from atckit.mmi.objective import _backward_betas, _forward, _forward_backward, _state_form, _sweep

from synth import enumerate_logprob_oracle, fd_gradient_oracle, relative_gradient_error

# an inf - inf in the -inf arithmetic of the MMI recursions warns before it spreads NaN
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

LEX = {"ab": (0, 1), "ba": (1, 0)}


def uniform_model(n_phones, n_symbols, task_ids=(0,)):
    return EmissionModel.zeros(n_phones, n_symbols, task_ids)


def simple_task(task_id=0, alpha=1.0, lexicon=LEX, n_phones=2):
    den = build_denominator(range(n_phones), {})
    return MmiTask(
        task_id=task_id,
        phones=tuple(f"p{i}" for i in range(n_phones)),
        lexicon=lexicon,
        den_graph=den,
        alpha=alpha,
    )


class TestForward:
    def test_single_selfloop_state_uniform_emissions(self):
        g = build_numerator(["a"], {"a": (0,)})
        em = uniform_model(1, 2)
        assert forward_logprob(g, em, 0, (0, 1, 0)) == pytest.approx(3 * math.log(0.5), abs=1e-12)

    def test_chain_longer_than_sequence_has_no_path(self):
        g = build_numerator(["ab", "ba"], LEX)
        em = uniform_model(2, 2)
        with pytest.raises(NoPath):
            forward_logprob(g, em, 0, (0, 1, 0))

    def test_empty_sequence_scores_final_weight_at_start(self):
        g = build_numerator([], LEX)
        em = uniform_model(2, 2)
        assert forward_logprob(g, em, 0, ()) == 0.0
        with pytest.raises(NoPath):
            forward_logprob(build_numerator(["ab"], LEX), em, 0, ())

    def test_matches_path_enumeration_on_small_graphs(self):
        rng = random.Random(61)
        for _ in range(200):
            n_states = rng.randint(1, 4)
            n_phones = rng.randint(1, 3)
            n_symbols = rng.randint(2, 4)
            graph = random_graph(rng, n_states, n_phones)
            em = EmissionModel(
                shared=np.array(
                    [[rng.uniform(-1, 1) for _ in range(n_symbols)] for _ in range(n_phones)]
                ),
                bias={0: np.zeros((n_phones, n_symbols))},
            )
            symbols = tuple(rng.randrange(n_symbols) for _ in range(rng.randint(0, 5)))
            expected = enumerate_logprob_oracle(graph, em.log_probs(0), symbols)
            if expected == -math.inf:
                with pytest.raises(NoPath):
                    forward_logprob(graph, em, 0, symbols)
            else:
                got = forward_logprob(graph, em, 0, symbols)
                assert got == pytest.approx(expected, abs=1e-10)

    def test_denominator_accepts_any_nonempty_sequence(self):
        rng = random.Random(62)
        den = build_denominator([0, 1, 2], {(0, 1): 2})
        em = uniform_model(3, 3)
        for _ in range(30):
            symbols = tuple(rng.randrange(3) for _ in range(rng.randint(1, 6)))
            assert math.isfinite(forward_logprob(den, em, 0, symbols))


class TestOccupancy:
    def test_occupancy_sums_to_sequence_length(self):
        rng = random.Random(63)
        for _ in range(50):
            tasks, batches, em = random_instance(rng, n_tasks=1)
            task = tasks[0]
            utt = batches[task.task_id][0]
            occ, _ = emission_occupancy(task.den_graph, em.log_probs(task.task_id), utt.symbols)
            assert occ.sum() == pytest.approx(len(utt.symbols), abs=1e-9)
            assert (occ >= -1e-12).all()

    def test_matches_per_frame_add_at_loop(self):
        # reference: the per-frame np.add.at loop, which adds in the same (frame, arc) order
        rng = random.Random(64)
        for _ in range(30):
            tasks, batches, em = random_instance(rng, n_tasks=1)
            task = tasks[0]
            lp = em.log_probs(task.task_id)
            for utt in batches[task.task_id]:
                for graph in (task.den_graph, task.numerator_graph(utt.words)):
                    occ, total = emission_occupancy(graph, lp, utt.symbols)
                    arcs = graph.arcs
                    src, dst, phone, weight = arcs["src"], arcs["dst"], arcs["phone"], arcs["weight"]
                    alphas, _ = _forward(graph, lp, utt.symbols)
                    betas = _backward_betas(graph, lp, utt.symbols)
                    expected = np.zeros(lp.shape)
                    for t, sym in enumerate(utt.symbols, start=1):
                        log_post = alphas[t - 1, src] + weight + lp[phone, sym] + betas[t, dst] - total
                        np.add.at(expected[:, sym], phone, np.exp(log_post))
                    np.testing.assert_array_equal(occ, expected)

    def test_zero_frames(self):
        arcs = [(0, 1, 0, -0.5), (1, 0, 1, -0.2)]  # (src, dst, phone, weight)
        lp = uniform_model(2, 3).log_probs(0)
        start_final = HmmGraph(arcs, [-0.3, -math.inf])
        occ, total = emission_occupancy(start_final, lp, ())
        assert total == -0.3
        assert occ.shape == lp.shape and not occ.any()
        start_not_final = HmmGraph(arcs, [-math.inf, -0.3])
        with pytest.raises(NoPath):
            emission_occupancy(start_not_final, lp, ())


class TestObjective:
    def test_identical_graphs_give_zero(self):
        task = simple_task()
        utt = TrainingUtterance(0, (0, 1, 1), ("ab",))
        num = task.numerator_graph(utt.words)
        matched = MmiTask(0, task.phones, task.lexicon, num, alpha=1.0)
        assert mmi_objective([utt], matched, uniform_model(2, 2)) == 0.0

    def test_numerator_paths_subset_of_denominator_is_nonpositive(self):
        # denominator: the same chain plus an extra escape arc, all weights log 1
        num = build_numerator(["ab"], LEX)
        arcs = num.arcs.tolist() + [(0, 2, 1, 0.0)]
        den = HmmGraph(arcs, num.finals)
        task = MmiTask(0, ("p0", "p1"), LEX, den, alpha=1.0)
        em = uniform_model(2, 2)
        for symbols in [(0, 1), (0, 1, 0), (1, 1, 0, 0)]:
            value = mmi_objective([TrainingUtterance(0, symbols, ("ab",))], task, em)
            assert value <= 0.0

    def test_batch_additivity(self):
        task = simple_task()
        em = uniform_model(2, 3)
        u1 = TrainingUtterance(0, (0, 1, 2), ("ab",))
        u2 = TrainingUtterance(0, (2, 2), ("ba",))
        together = mmi_objective([u1, u2], task, em)
        assert together == mmi_objective([u1], task, em) + mmi_objective([u2], task, em)

    def test_wrong_task_batch_rejected(self):
        task = simple_task(task_id=1)
        with pytest.raises(ValueError):
            mmi_objective([TrainingUtterance(2, (0,), ("ab",))], task, uniform_model(2, 2))

    def test_unreachable_numerator_contributes_minus_inf(self):
        task = simple_task()
        em = uniform_model(2, 2)
        short = TrainingUtterance(0, (0,), ("ab", "ba"))  # needs 4 frames
        assert mmi_objective([short], task, em) == -math.inf


class TestMultitask:
    def test_weighted_sum(self):
        rng = random.Random(64)
        tasks, batches, em = random_instance(rng, n_tasks=2)
        per_task = [mmi_objective(batches[t.task_id], t, em) for t in tasks]
        expected = sum(t.alpha * f for t, f in zip(tasks, per_task))
        assert multitask_objective(batches, tasks, em) == pytest.approx(expected, rel=1e-15)

    def test_arithmetic_example(self, monkeypatch):
        # two tasks at weight 0.5 with per-task objectives -2 and -4 sum to -3
        rng = random.Random(65)
        tasks, batches, em = random_instance(rng, n_tasks=2)
        tasks = [dataclasses.replace(t, alpha=0.5) for t in tasks]
        # the pass yields each task's objective, then the tables and occupancy
        monkeypatch.setattr(objective, "_plan_pass", lambda plan, em, occupancy: ([-2.0, -4.0], None, None))
        assert multitask_objective(batches, tasks, em) == pytest.approx(-3.0)

    def test_single_task_weight_one_reduces_bitwise(self):
        rng = random.Random(66)
        for _ in range(20):
            tasks, batches, em = random_instance(rng, n_tasks=1)
            task = MmiTask(
                tasks[0].task_id, tasks[0].phones, tasks[0].lexicon,
                tasks[0].den_graph, alpha=1.0,
            )
            assert multitask_objective(batches, [task], em) == mmi_objective(
                batches[task.task_id], task, em
            )

    def test_linear_in_task_weights(self):
        rng = random.Random(67)
        tasks, batches, em = random_instance(rng, n_tasks=2)
        for c in (0.5, 2.0, 3.0):
            scaled = [
                MmiTask(t.task_id, t.phones, t.lexicon, t.den_graph, alpha=c * t.alpha)
                for t in tasks
            ]
            assert multitask_objective(batches, scaled, em) == pytest.approx(
                c * multitask_objective(batches, tasks, em), rel=1e-12
            )

    def test_duplicate_task_ids_rejected(self):
        rng = random.Random(68)
        tasks, batches, em = random_instance(rng, n_tasks=1)
        with pytest.raises(ValueError):
            multitask_objective(batches, [tasks[0], tasks[0]], em)
        with pytest.raises(ValueError):
            multitask_objective(batches, [], em)


class TestGradient:
    def test_identical_graphs_give_exactly_zero_gradient(self):
        task = simple_task()
        utt = TrainingUtterance(0, (0, 1, 1), ("ab",))
        matched = MmiTask(
            0, task.phones, task.lexicon, task.numerator_graph(utt.words),
            alpha=1.0,
        )
        grad, _ = mmi_gradient({0: [utt]}, [matched], uniform_model(2, 2))
        assert grad.max_abs() == 0.0

    def test_matches_finite_differences(self):
        rng = random.Random(69)
        for k in range(25):
            tasks, batches, em = random_instance(rng, n_tasks=1 + k % 2)
            analytic, _ = mmi_gradient(batches, tasks, em)
            numeric = fd_gradient_oracle(
                lambda m: multitask_objective(batches, tasks, m), em, step=1e-5
            )
            assert relative_gradient_error(analytic, numeric) <= 1e-5

    def test_single_task_shared_equals_bias_gradient(self):
        rng = random.Random(70)
        tasks, batches, em = random_instance(rng, n_tasks=1)
        grad, _ = mmi_gradient(batches, tasks, em)
        np.testing.assert_array_equal(grad.shared, grad.bias[tasks[0].task_id])

    def test_bias_gradient_isolated_to_its_task(self):
        rng = random.Random(71)
        tasks, batches, em = random_instance(rng, n_tasks=2)
        t1, t2 = tasks
        before_t2 = mmi_objective(batches[t2.task_id], t2, em)
        em.bias[t1.task_id] += 0.37  # perturb task 1 only
        after_t2 = mmi_objective(batches[t2.task_id], t2, em)
        assert after_t2 == before_t2

    def test_gradient_pass_objective_is_the_forward_objective(self, caplog):
        rng = random.Random(74)
        for _ in range(20):
            tasks, batches, em = random_instance(rng, n_tasks=2)
            grad, objective = mmi_gradient(batches, tasks, em)
            assert objective == multitask_objective(batches, tasks, em)
            # an utterance too short for its numerator: -inf objective, no gradient
            task = tasks[0]
            too_short = TrainingUtterance(task.task_id, (0,), tuple(sorted(task.lexicon)) * 2)
            padded = {**batches, task.task_id: [too_short] + batches[task.task_id]}
            caplog.clear()
            assert multitask_objective(padded, tasks, em) == -math.inf
            assert not caplog.records
            padded_grad, padded_objective = mmi_gradient(padded, tasks, em)
            assert padded_objective == -math.inf
            assert len(caplog.records) == 1
            np.testing.assert_array_equal(padded_grad.shared, grad.shared)
            for tid in grad.bias:
                np.testing.assert_array_equal(padded_grad.bias[tid], grad.bias[tid])

    def test_unreachable_numerators_share_one_warning(self, caplog):
        rng = random.Random(77)
        tasks, batches, em = random_instance(rng, n_tasks=2)
        grad, _ = mmi_gradient(batches, tasks, em)
        padded = {
            t.task_id: [TrainingUtterance(t.task_id, (0,), tuple(sorted(t.lexicon)) * 2)] + batches[t.task_id]
            for t in tasks
        }
        caplog.clear()
        padded_grad, padded_objective = mmi_gradient(padded, tasks, em)
        assert padded_objective == -math.inf
        (record,) = caplog.records
        transcript = " ".join(sorted(tasks[0].lexicon) * 2)
        assert record.getMessage().startswith("2 transcripts need more frames")
        assert record.getMessage().endswith(f": {transcript}; {transcript}")
        np.testing.assert_array_equal(padded_grad.shared, grad.shared)

    def test_rejected_numerator_adds_no_second_pass(self, monkeypatch):
        # a rejected numerator is a row with posterior 0 in the pass: one
        # numerator and one denominator forward-backward over every task
        rng = random.Random(76)
        tasks, batches, em = random_instance(rng, n_tasks=2)
        task = tasks[0]
        too_short = TrainingUtterance(task.task_id, (0,), tuple(sorted(task.lexicon)) * 2)
        padded = {**batches, task.task_id: [too_short] + batches[task.task_id]}
        forward_backward = objective._forward_backward
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return forward_backward(*args, **kwargs)

        monkeypatch.setattr(objective, "_forward_backward", counting)
        _, value = mmi_gradient(padded, tasks, em)
        assert value == -math.inf
        assert len(calls) == 2

    def test_gradient_accumulation_is_deterministic(self):
        rng = random.Random(72)
        tasks, batches, em = random_instance(rng, n_tasks=2)
        g1, _ = mmi_gradient(batches, tasks, em)
        g2, _ = mmi_gradient(batches, tasks, em)
        np.testing.assert_array_equal(g1.shared, g2.shared)
        for tid in g1.bias:
            np.testing.assert_array_equal(g1.bias[tid], g2.bias[tid])


def assert_gradient_matches_generic(den, batch, rng):
    """mmi_gradient on a two-phone task with denominator ``den`` against
    emission_occupancy, under a random model drawn from ``rng``."""
    task = MmiTask(0, ("p0", "p1"), LEX, den, alpha=1.0)
    em = EmissionModel(
        shared=np.array([[rng.uniform(-2, 2) for _ in range(3)] for _ in range(2)]),
        bias={0: np.array([[rng.uniform(-1, 1) for _ in range(3)] for _ in range(2)])},
    )
    grad, objective = mmi_gradient({0: batch}, [task], em)
    lp = em.log_probs(0)
    expected, diff = 0.0, np.zeros(lp.shape)
    for utt in batch:
        occ_den, den_total = emission_occupancy(den, lp, utt.symbols)
        occ_num, num_total = emission_occupancy(task.numerator_graph(utt.words), lp, utt.symbols)
        expected += num_total - den_total
        diff += occ_num - occ_den
    g = diff - np.exp(lp) * diff.sum(axis=1, keepdims=True)
    assert objective == pytest.approx(expected, rel=1e-12)
    assert mmi_objective(batch, task, em) == objective
    for got in (grad.shared, grad.bias[0]):
        np.testing.assert_allclose(got, g, rtol=0, atol=1e-12 * np.abs(g).max())


class TestBatchedPass:
    @pytest.mark.parametrize("n_tasks, n_phones", [(2, 20), (3, 16)])
    def test_shared_graph_rows_do_not_depend_on_other_rows(self, n_tasks, n_phones):
        # denominators of 17 and 21 states: a row's total is the same bits
        # whichever other rows share its pass. Taking the shared product with
        # the rows as rows fails this, per task or side by side
        rng = random.Random(78)
        dens = [
            build_denominator(range(n_phones), {(rng.randrange(n_phones), rng.randrange(n_phones)): 3 for _ in range(60)})
            for _ in range(n_tasks)
        ]
        seqs = [tuple(rng.randrange(5) for _ in range(rng.randint(2, 9))) for _ in range(40)]
        owner = sorted(rng.randrange(n_tasks) for _ in seqs)
        lp = np.stack([log_softmax(np.array([[rng.uniform(-2, 2) for _ in range(5)] for _ in range(n_phones)]))
                       for _ in dens])
        tables = list(range(n_tasks))
        totals, _ = _forward_backward(_sweep(dens, seqs, tables, owner), lp, occupancy=False)
        for keep in ([2, 13, 31], [17, 38], [1, 8, 12, 17, 28, 31, 39]):
            sweep = _sweep(dens, [seqs[i] for i in keep], tables, [owner[i] for i in keep])
            np.testing.assert_array_equal(_forward_backward(sweep, lp, occupancy=False)[0], totals[keep])

    def test_underflowing_linear_sum_is_recomputed(self):
        # chain over phones 0, 1, 2 on three frames of symbol 0: the second
        # and third frames each cost e^-1000, so a max-shifted linear sum
        # feeding the last state would underflow to 0 while the exact total
        # is -2000; the numerator chain steps in log space and keeps it
        logits = np.array([[0.0, -1000.0], [-1000.0, 0.0], [-1000.0, 0.0]])
        em = EmissionModel(shared=logits, bias={0: np.zeros((3, 2))})
        np.testing.assert_array_equal(em.log_probs(0), logits)
        task = MmiTask(
            0, ("p0", "p1", "p2"), {"w": (0, 1, 2)}, build_denominator(range(3), {}),
            alpha=1.0,
        )
        utt = TrainingUtterance(0, (0, 0, 0), ("w",))
        num = forward_logprob(task.numerator_graph(utt.words), em, 0, utt.symbols)
        assert num == pytest.approx(-2000.0, rel=1e-15)
        expected = num - forward_logprob(task.den_graph, em, 0, utt.symbols)
        value = mmi_objective([utt], task, em)
        assert math.isfinite(value)
        assert value == pytest.approx(expected, rel=1e-12)
        _, objective = mmi_gradient({0: [utt]}, [task], em)
        assert objective == value

    def test_state_entered_by_two_phones_matches_generic(self):
        # state 1 is entered by phone 0 (from 0 and its self-loop) and by
        # phone 1 (from 2); state 2 by phone 1 (from 0 and 1) and by phone 0
        # (its self-loop); the batched pass splits each in two
        arcs = [(0, 1, 0, -0.3), (0, 2, 1, -1.2), (1, 2, 1, -0.7), (2, 1, 1, -0.4), (1, 1, 0, -0.9), (2, 2, 0, -0.2)]
        den = HmmGraph(arcs, [-math.inf, 0.0, -0.5])
        assert _state_form([den])[0].shape == (1, 5, 5)
        batch = [
            TrainingUtterance(0, (0, 1, 2), ("ab",)),
            TrainingUtterance(0, (2, 0, 0, 1, 1), ("ba",)),
            TrainingUtterance(0, (1, 0), ("ab",)),
        ]
        assert_gradient_matches_generic(den, batch, random.Random(75))

    def test_arcs_back_into_the_start_match_generic(self):
        # arcs enter the final start state 0 with phone 1 (from 1 and its
        # self-loop) and with phone 0 (from 2), so two split states copy the
        # start: they leave by its arcs and keep its final weight; state 2
        # is entered by phone 1 (from 1 and its self-loop) and phone 0 (from 0)
        arcs = [(0, 1, 0, -0.3), (1, 0, 1, -0.6), (0, 0, 1, -1.4), (1, 2, 1, -0.8)]
        arcs += [(0, 2, 0, -1.1), (2, 0, 0, -0.5), (2, 2, 1, -0.2)]
        den = HmmGraph(arcs, [-0.7, -math.inf, 0.0])
        weights, phone, finals = _state_form([den])
        assert weights.shape == (1, 6, 6)
        assert phone.tolist() == [[0, 0, 1, 0, 0, 1]]
        assert finals.tolist() == [[-0.7, -0.7, -0.7, -math.inf, 0.0, 0.0]]
        batch = [
            TrainingUtterance(0, (0, 1, 2, 1), ("ab",)),
            TrainingUtterance(0, (2, 0, 0, 1, 1, 2), ("ba", "ab")),
            TrainingUtterance(0, (1, 0), ("ba",)),
        ]
        assert_gradient_matches_generic(den, batch, random.Random(76))

    def test_denominator_state_form_layout(self):
        # a builder denominator keeps its state count: split state 1+j copies
        # state 1+j, entered only by phone j
        n = 5
        den = build_denominator(range(n), phone_bigram_counts([[0, 1, 2, 1, 0], [3, 3, 4, 1], [2, 0]]))
        weights, phone, finals = _state_form([den])
        assert weights.shape == (1, n + 1, n + 1)
        assert (weights[:, :, 0] == -math.inf).all()
        assert (weights[0, 0, 1:] == -math.log(n)).all()
        np.testing.assert_array_equal(weights[0, 1:, 1:], den.arcs["weight"][n:].reshape(n, n))
        assert phone.tolist() == [[0, *range(n)]]
        assert finals.tolist() == [[-math.inf] + [0.0] * n]

    def test_arc_weights_beyond_exp_range_match_generic(self):
        # exp(800) overflows and exp(-800) underflows; the batched pass
        # shifts each graph's weights by their max, and the guard recovers
        # the arcs whose shifted weight underflows
        arcs = [(0, 1, 0, 800.0), (1, 1, 1, 790.0), (1, 2, 0, -800.0), (2, 2, 1, 795.0), (0, 2, 1, 0.0)]
        graph = HmmGraph(arcs, [-math.inf, 0.0, -2.0])
        lp = EmissionModel(shared=np.array([[0.3, -0.4], [-1.1, 0.6]]), bias={0: np.zeros((2, 2))}).log_probs(0)
        seqs = [(0,), (0, 1, 1), (1, 0, 1, 0)]
        totals, occ = _forward_backward(_sweep([graph], seqs, [0], [0] * len(seqs)), lp[None], occupancy=True)
        expected = np.zeros((1, *lp.shape))
        for total, seq in zip(totals, seqs):
            ref_occ, ref_total = emission_occupancy(graph, lp, seq)
            assert total == pytest.approx(ref_total, rel=1e-12)
            expected += ref_occ
        np.testing.assert_allclose(occ, expected, rtol=0, atol=1e-12 * expected.max())


class TestChainNumerators:
    @staticmethod
    def random_plan(rng, n_phones=4, n_symbols=3):
        lexicon = {f"w{i}": tuple(rng.randrange(n_phones) for _ in range(rng.randint(1, 3))) for i in range(5)}
        task = simple_task(lexicon=lexicon, n_phones=n_phones)
        batch = []
        for k in range(8):
            words = tuple(rng.choice(sorted(lexicon)) for _ in range(0 if k == 0 else rng.randint(1, 3)))
            need = max(1, sum(len(lexicon[w]) for w in words))
            symbols = tuple(rng.randrange(n_symbols) for _ in range(need + rng.randint(0, 4)))
            batch.append(TrainingUtterance(0, symbols, words))
        rng.shuffle(batch)
        return task, batch

    def test_plan_chains_equal_the_generic_state_form(self):
        # the plan builds its numerators from the phones alone; they are the
        # state form of build_numerator's graphs, with weights on two diagonals only
        rng = random.Random(79)
        for _ in range(20):
            task, batch = self.random_plan(rng)
            plan = objective.compile_plan({0: batch}, [task])
            weights, phone, finals = _state_form([build_numerator(u.words, task.lexicon) for u in batch])
            _, _, _, _, plan_phone, plan_finals, _, fwd, _ = plan.num
            stay, advance = fwd.keywords["stay"], fwd.keywords["advance"]
            np.testing.assert_array_equal(plan_phone, phone)
            np.testing.assert_array_equal(plan_finals, finals)
            np.testing.assert_array_equal(stay, np.diagonal(weights, axis1=1, axis2=2))
            np.testing.assert_array_equal(advance[:, :-1], np.diagonal(weights, 1, axis1=1, axis2=2))
            assert (advance[:, -1] == -np.inf).all()
            q = weights.shape[1]
            off = ~(np.eye(q, dtype=bool) | np.eye(q, k=1, dtype=bool))
            assert (weights[:, off] == -np.inf).all()

    def test_row_is_bitwise_the_same_alone_and_in_a_batch(self):
        # the chain step is elementwise, so neither the other rows nor the
        # padding to their states and frames change a row's bits
        rng = random.Random(80)
        for _ in range(10):
            task, batch = self.random_plan(rng)
            em = EmissionModel(
                shared=np.array([[rng.uniform(-3, 3) for _ in range(3)] for _ in range(4)]),
                bias={0: np.array([[rng.uniform(-1, 1) for _ in range(3)] for _ in range(4)])},
            )
            lp = em.log_probs(0)[None]
            plan = objective.compile_plan({0: batch}, [task])
            for i, utt in enumerate(batch):
                alone = objective.compile_plan({0: [utt]}, [task])
                total, occ = _forward_backward(alone.num, lp, occupancy=True)
                mask = np.arange(len(batch)) == i
                totals, batch_occ = _forward_backward(plan.num, lp, occupancy=True, counted=mask)
                assert totals[i] == total[0]
                np.testing.assert_array_equal(batch_occ, occ)


def test_emission_rows_normalized_to_machine_precision():
    rng = random.Random(73)
    for _ in range(20):
        tasks, batches, em = random_instance(rng, n_tasks=2)
        for t in tasks:
            row_sums = np.exp(em.log_probs(t.task_id)).sum(axis=1)
            assert np.abs(row_sums - 1.0).max() <= 1e-12
