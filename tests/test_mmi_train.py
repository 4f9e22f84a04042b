import dataclasses
import inspect

import numpy as np
import pytest

from atckit.corpus import CorpusFormatError
from atckit.mmi.objective import Objective
from atckit.mmi import (
    DivergenceDetected,
    EmissionModel,
    MmiTask,
    OovWord,
    TrainingUtterance,
    build_tasks,
    compile_plan,
    divergence,
    load_phone_lexicon,
    load_training_corpus,
    mmi_gradient,
    mmi_objective,
    pool_corpus,
    toy_train,
)

# an inf - inf in the -inf arithmetic of the MMI recursions warns before it spreads NaN
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

WORD_PHONES = {"ab": ("a", "b"), "ba": ("b", "a")}


def two_task_corpus():
    """Same transcripts, swapped phone-symbol association per task.

    Task 1 pairs phone a with symbol 0 and b with 1; task 2 swaps them, so
    the (phone, symbol) co-occurrence sets are disjoint and a single
    emission table cannot serve both tasks well.
    """
    return {
        1: [
            TrainingUtterance(1, (0, 0, 1, 1), ("ab",)),
            TrainingUtterance(1, (1, 1, 0, 0), ("ba",)),
            TrainingUtterance(1, (0, 0, 1, 1, 1, 0), ("ab", "ba")),
            TrainingUtterance(1, (0, 1, 1, 0, 0), ("ab",)),
        ],
        2: [
            TrainingUtterance(2, (1, 1, 0, 0), ("ab",)),
            TrainingUtterance(2, (0, 0, 1, 1), ("ba",)),
            TrainingUtterance(2, (1, 1, 0, 0, 0, 1), ("ab", "ba")),
        ],
    }


def per_task_objective(effective_logits, task, batch):
    """Objective of a trained model on one task, bias folded into shared."""
    em = EmissionModel(
        shared=effective_logits.copy(),
        bias={task.task_id: np.zeros_like(effective_logits)},
    )
    return mmi_objective(batch, task, em)


class TestToyTrain:
    def test_zero_learning_rate_changes_nothing(self):
        corpus = two_task_corpus()
        tasks = build_tasks(corpus, WORD_PHONES)
        result = toy_train(tasks, corpus, n_symbols=2, steps=5, learning_rate=0.0)
        assert result.objective_trace == [result.objective_trace[0]] * 6
        assert (result.model.shared == 0).all()

    def test_trace_length_and_monotonicity_at_small_rate(self):
        corpus = two_task_corpus()
        tasks = build_tasks(corpus, WORD_PHONES)
        result = toy_train(tasks, corpus, n_symbols=2, steps=50, learning_rate=0.05)
        trace = result.objective_trace
        assert len(trace) == 51
        assert all(b >= a for a, b in zip(trace, trace[1:]))

    def test_single_task_matches_direct_ascent(self):
        corpus = {1: two_task_corpus()[1]}
        task = build_tasks(corpus, WORD_PHONES, alpha=1.0)[0]
        steps, learning_rate = 10, 0.1
        result = toy_train([task], corpus, n_symbols=2, steps=steps, learning_rate=learning_rate)
        # direct loop over the per-task objective only
        em = EmissionModel.zeros(2, 2, [1])
        trace = [mmi_objective(corpus[1], task, em)]
        plan = compile_plan(corpus, [task])
        for _ in range(steps):
            grad, _ = mmi_gradient(plan, em)
            em.shared += learning_rate * grad.shared
            em.bias[1] += learning_rate * grad.bias[1]
            trace.append(mmi_objective(corpus[1], task, em))
        assert result.objective_trace == trace
        np.testing.assert_array_equal(result.model.shared, em.shared)
        np.testing.assert_array_equal(result.model.bias[1], em.bias[1])

    def test_one_pass_per_step_and_one_closing_evaluation(self, monkeypatch):
        import atckit.mmi.train as train

        calls = {"mmi_gradient": 0, "multitask_objective": 0}

        def counting(name):
            fn = getattr(train, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(train, name, counting(name))
        corpus = two_task_corpus()
        toy_train(build_tasks(corpus, WORD_PHONES), corpus, n_symbols=2, steps=5, learning_rate=0.1)
        assert calls == {"mmi_gradient": 5, "multitask_objective": 1}

    def test_numerators_built_once_per_run(self, monkeypatch):
        # the plan builds each numerator chain from one words -> phones
        # lookup, with no graph, once per run
        import atckit.mmi.model as model
        import atckit.mmi.objective as objective

        built, looked_up = [], []
        build_numerator, transcript_phones = model.build_numerator, objective.transcript_phones
        monkeypatch.setattr(model, "build_numerator", lambda *args: built.append(args) or build_numerator(*args))
        monkeypatch.setattr(
            objective, "transcript_phones", lambda *args: looked_up.append(args) or transcript_phones(*args)
        )
        corpus = two_task_corpus()
        tasks = build_tasks(corpus, WORD_PHONES)
        toy_train(tasks, corpus, n_symbols=2, steps=3, learning_rate=0.1)
        assert built == []
        assert [words for words, _ in looked_up] == [utt.words for tid in sorted(corpus) for utt in corpus[tid]]

    def test_non_finite_objective_is_divergence(self):
        corpus = {1: [TrainingUtterance(1, (0,), ("ab",))]}  # two phones cannot fit one frame
        tasks = build_tasks(corpus, WORD_PHONES)
        with pytest.raises(DivergenceDetected, match="-inf after 0 steps") as excinfo:
            toy_train(tasks, corpus, n_symbols=2, steps=3, learning_rate=0.1)
        # no update has been applied yet, so the learning rate cannot be the cause
        assert str(excinfo.value).endswith(": 1 transcript needs more frames than its utterance has: ab")

    def test_divergence_guard_trips_on_descent(self):
        corpus = two_task_corpus()
        tasks = build_tasks(corpus, WORD_PHONES)
        with pytest.raises(DivergenceDetected):
            toy_train(tasks, corpus, n_symbols=2, steps=40, learning_rate=-0.2)

    @staticmethod
    def run_made_traces(monkeypatch, traces):
        """toy_train over one single-task model per trace, its passes replaced
        by ones that return the traces' values in turn and a zero gradient."""
        import atckit.mmi.train as train

        corpus = two_task_corpus()
        tasks = build_tasks(corpus, WORD_PHONES, alpha=1.0)[: len(traces)]
        points = iter(zip(*traces))

        def objective(plan, em):
            return Objective(plan.tasks, next(points))

        monkeypatch.setattr(train, "multitask_objective", objective)
        monkeypatch.setattr(train, "mmi_gradient", lambda plan, em: (EmissionModel.zeros(2, 2, em.bias), objective(plan, em)))
        return toy_train([[task] for task in tasks], corpus, n_symbols=2, steps=len(traces[0]) - 1, learning_rate=0.1)

    # falls and rises in turn, so it never falls twice in a row, but ends
    # each of its 10 steps below where it started
    OSCILLATING = [10.0, 9.0, 9.5, 8.0, 8.7, 7.0, 7.9, 6.0, 7.2, 5.0, 6.4]
    # falls often, and below its start at first, but never for 10 steps in a row
    RISING = [10.0, 9.0, 9.5, 8.9, 9.8, 9.6, 9.9, 9.7, 10.5, 10.1, 11.0, 10.6, 11.5, 11.1, 12.0]

    def test_oscillating_descent_is_divergence(self, monkeypatch):
        assert divergence(self.OSCILLATING[:-1]) is None
        with pytest.raises(DivergenceDetected) as excinfo:
            self.run_made_traces(monkeypatch, [self.OSCILLATING])
        assert str(excinfo.value) == (
            "objective stayed below its initial value 10.000000 for 10 consecutive steps (last 6.400000); "
            "lower the learning rate"
        )

    def test_noisy_rise_is_not_divergence(self, monkeypatch):
        assert all(divergence(self.RISING[:n]) is None for n in range(1, len(self.RISING) + 1))
        (result,) = self.run_made_traces(monkeypatch, [self.RISING])
        assert result.objective_trace == self.RISING

    def test_divergence_is_judged_per_model(self, monkeypatch):
        # the healthy model does not hide the diverging one, which the message names
        rising = self.RISING[: len(self.OSCILLATING)]
        with pytest.raises(DivergenceDetected, match=r"^tasks \[2\]: objective stayed below its initial value"):
            self.run_made_traces(monkeypatch, [rising, self.OSCILLATING])

    def test_missing_task_data_rejected(self):
        corpus = two_task_corpus()
        tasks = build_tasks(corpus, WORD_PHONES)
        with pytest.raises(ValueError):
            toy_train(tasks, {1: corpus[1]}, n_symbols=2, steps=1, learning_rate=0.1)

    def test_emissions_stay_normalized_across_updates(self):
        corpus = two_task_corpus()
        tasks = build_tasks(corpus, WORD_PHONES)
        result = toy_train(tasks, corpus, n_symbols=2, steps=25, learning_rate=0.1)
        for task in tasks:
            row_sums = np.exp(result.model.log_probs(task.task_id)).sum(axis=1)
            assert np.abs(row_sums - 1.0).max() <= 1e-12


class TestModeComparison:
    def test_multitask_improves_and_pooled_trails_single(self):
        corpus = two_task_corpus()
        config = dict(steps=120, learning_rate=0.1)

        multitask = toy_train(build_tasks(corpus, WORD_PHONES, alpha=0.5), corpus, n_symbols=2, **config)
        assert multitask.final_objective > multitask.initial_objective

        singles = {}
        for task in build_tasks(corpus, WORD_PHONES, alpha=1.0):
            singles[task.task_id] = toy_train(
                [task], {task.task_id: corpus[task.task_id]}, n_symbols=2, **config
            )

        pooled_corpus = pool_corpus(corpus)
        pooled = toy_train(build_tasks(pooled_corpus, WORD_PHONES, alpha=1.0), pooled_corpus, n_symbols=2, **config)
        pooled_logits = pooled.model.effective_logits(0)

        for task in build_tasks(corpus, WORD_PHONES, alpha=1.0):
            batch = corpus[task.task_id]
            f_pooled = per_task_objective(pooled_logits, task, batch)
            single_model = singles[task.task_id].model
            f_single = per_task_objective(
                single_model.effective_logits(task.task_id), task, batch
            )
            assert f_pooled <= f_single


class TestFileFormats:
    def test_phone_lexicon_round_trip(self, tmp_path):
        path = tmp_path / "lexicon.tsv"
        path.write_text("# comment\nab\ta b\nba\tb a\n", encoding="utf-8")
        assert load_phone_lexicon(path) == {"ab": ("a", "b"), "ba": ("b", "a")}

    def test_phone_lexicon_rejects_bad_rows(self, tmp_path):
        path = tmp_path / "lexicon.tsv"
        path.write_text("ab a b\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_phone_lexicon(path)

    def test_corpus_loader_groups_by_task(self, tmp_path):
        path = tmp_path / "train.jsonl"
        path.write_text(
            '{"task": 1, "symbols": [0, 1], "words": ["ab"]}\n'
            '{"task": 2, "symbols": [1, 0], "words": ["ba"]}\n'
            '{"task": 1, "symbols": [0, 0, 1], "words": ["ab"]}\n',
            encoding="utf-8",
        )
        corpus = load_training_corpus(path, n_symbols=2)
        assert sorted(corpus) == [1, 2]
        assert len(corpus[1]) == 2
        assert corpus[2][0].symbols == (1, 0)

    def test_corpus_loader_rejects_bad_records(self, tmp_path):
        path = tmp_path / "train.jsonl"
        path.write_text('{"task": 1, "symbols": [], "words": []}\n', encoding="utf-8")
        with pytest.raises(ValueError):
            load_training_corpus(path, n_symbols=2)

    def test_corpus_loader_errors_name_file_and_line(self, tmp_path):
        path = tmp_path / "train.jsonl"
        path.write_text('{"task": 1, "symbols": [0], "words": ["ab"]}\n\n{"task": 1,\n', encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=rf"^{path}:3: invalid JSON"):
            load_training_corpus(path, n_symbols=2)

    def test_corpus_loader_checks_symbol_range(self, tmp_path):
        path = tmp_path / "train.jsonl"
        path.write_text('{"task": 1, "symbols": [0, 2], "words": ["ab"]}\n', encoding="utf-8")
        assert load_training_corpus(path, n_symbols=3)[1][0].symbols == (0, 2)
        with pytest.raises(CorpusFormatError, match=rf"^{path}:1: symbol ids must lie in \[0, 2\)"):
            load_training_corpus(path, n_symbols=2)

    def test_phone_lexicon_without_entries_rejected(self, tmp_path):
        path = tmp_path / "lexicon.tsv"
        path.write_text("# nothing here\n\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="phone inventory is empty"):
            load_phone_lexicon(path)

    def test_build_tasks_rejects_oov_transcripts(self):
        corpus = {1: [TrainingUtterance(1, (0,), ("zz",))]}
        with pytest.raises(OovWord):
            build_tasks(corpus, WORD_PHONES)

    def test_task_weight_default_is_one_constant(self):
        field_default = next(f.default for f in dataclasses.fields(MmiTask) if f.name == "alpha")
        assert field_default is inspect.signature(build_tasks).parameters["alpha"].default

    def test_pool_corpus_relabels_everything(self):
        corpus = two_task_corpus()
        pooled = pool_corpus(corpus)
        assert sorted(pooled) == [0]
        assert len(pooled[0]) == 7
        assert all(utt.task_id == 0 for utt in pooled[0])
