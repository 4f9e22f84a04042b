"""Toy gradient-ascent trainer and task/corpus construction helpers.

Training file formats:

* lexicon TSV: ``word<TAB>phone phone ...`` per line, ``#`` comments;
* corpus JSONL: one object per line with ``task`` (int), ``symbols``
  (non-empty array of non-negative ints), ``words`` (array of strings).

The trainer runs full-batch gradient ascent on the weighted multitask
objective. Three configurations matter: one model per task ("single"),
one model over all data merged into one task ("pooled"), and shared
parameters with per-task biases and weights ("multitask").
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ..corpus import CorpusFormatError, iter_jsonl, iter_lexicon_lines, open_input
from ..mmi_base import DivergenceDetected
from .graphs import build_denominator, phone_bigram_counts, transcript_phones
from .model import DEFAULT_TASK_WEIGHT, EmissionModel, MmiTask, TrainingUtterance
from .objective import compile_plan, mmi_gradient, multitask_objective, short_transcripts

POOLED_TASK_ID = 0  # the one task pool_corpus merges every utterance into
DIVERGENCE_PATIENCE = 10  # consecutive steps of falls, or below the initial objective, that abort training


@dataclass
class TrainResult:
    model: EmissionModel
    # trace[0] is the objective at initialization, trace[k] after k updates
    objective_trace: list[float] = field(default_factory=list)
    # grad_max_abs[k] is the largest |entry| of the gradient applied in update k + 1
    grad_max_abs: list[float] = field(default_factory=list)

    @property
    def initial_objective(self) -> float:
        return self.objective_trace[0]

    @property
    def final_objective(self) -> float:
        return self.objective_trace[-1]


def toy_train(
    tasks: Sequence[MmiTask] | Sequence[Sequence[MmiTask]],
    corpus: Mapping[int, Sequence[TrainingUtterance]],
    *,
    n_symbols: int,
    steps: int,
    learning_rate: float,
) -> TrainResult | list[TrainResult]:
    """Plain full-batch gradient ascent on the weighted multitask objective.

    ``tasks`` are one model's tasks, which share its shared matrix, or a
    sequence of several models' tasks: those train side by side, each with
    its own parameters, and the result is then one TrainResult per model.
    One plan is compiled over every task, and each step takes every model's
    trace point and gradient from one mmi_gradient pass; only the point
    after the last update comes from multitask_objective. With a small
    enough learning rate on fixed batches a trace is non-decreasing. A
    model whose objective is not finite, or whose trace shows
    ``divergence``, aborts the run with DivergenceDetected. A non-finite
    gradient is applied and makes the next objective non-finite, so numpy's
    overflow and invalid-value warnings on the way would only repeat that
    error and are silenced.
    """
    several = not isinstance(tasks[0], MmiTask)
    groups = [list(group) for group in tasks] if several else [list(tasks)]
    flat = [task for group in groups for task in group]
    for task in flat:
        if not corpus.get(task.task_id):
            raise ValueError(f"task {task.task_id} has no training utterances")
    models = [EmissionModel.zeros(len(flat[0].phones), n_symbols, [t.task_id for t in group]) for group in groups]
    plan = compile_plan(corpus, flat)
    results = [TrainResult(model) for model in models]
    # an error names the failing model's tasks when there are several models
    labels = [f"tasks {[t.task_id for t in group]}: " if len(groups) > 1 else "" for group in groups]
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps + 1):
            if step:
                for model, grad in zip(models, grads):
                    model.shared += learning_rate * grad.shared
                    for tid in model.bias:
                        model.bias[tid] += learning_rate * grad.bias[tid]
            # every task's logits as one model's, for the one pass over the plan
            joint = EmissionModel(np.zeros_like(models[0].shared),
                                  {tid: model.effective_logits(tid) for model in models for tid in model.bias})
            if step < steps:
                grad, objective = mmi_gradient(plan, joint)
                # a model's shared matrix takes its own tasks' gradients, summed in task order as mmi_gradient does
                grads = [EmissionModel(sum((grad.bias[tid] for tid in model.bias), np.zeros_like(grad.shared)),
                                       {tid: grad.bias[tid] for tid in model.bias}) for model in models]
                for result, model_grad in zip(results, grads):
                    result.grad_max_abs.append(model_grad.max_abs())
            else:
                objective = multitask_objective(plan, joint)
            per_task = iter(objective.per_task)
            for group, result, where in zip(groups, results, labels):
                value = sum(task.alpha * next(per_task) for task in group)
                if not math.isfinite(value):
                    # before the first update only the data can be at fault, after it only the update
                    cause = "the learning rate is too large" if step else short_transcripts(plan)
                    raise DivergenceDetected(f"{where}objective is {value} after {step} steps: {cause}")
                result.objective_trace.append(value)
                if reason := divergence(result.objective_trace):
                    raise DivergenceDetected(f"{where}{reason}; lower the learning rate")
    return results if several else results[0]


def divergence(trace: Sequence[float]) -> str | None:
    """Why a run with this objective trace has diverged, or None: each of its
    last DIVERGENCE_PATIENCE steps fell, or each ended below the initial
    objective. A learning rate too large can make the objective oscillate
    as it falls, so the falls need not come in a row."""
    last = trace[-DIVERGENCE_PATIENCE - 1 :]
    if len(last) > DIVERGENCE_PATIENCE:
        if all(b < a for a, b in zip(last, last[1:])):
            return f"objective fell for {DIVERGENCE_PATIENCE} consecutive steps (last {trace[-1]:.6f})"
        if all(f < trace[0] for f in last[1:]):
            return (f"objective stayed below its initial value {trace[0]:.6f} for "
                    f"{DIVERGENCE_PATIENCE} consecutive steps (last {trace[-1]:.6f})")
    return None


def load_phone_lexicon(path: str | Path) -> dict[str, tuple[str, ...]]:
    """Word-to-phones map from TSV: ``word<TAB>phone phone ...`` per line, each word once."""
    lexicon: dict[str, tuple[str, ...]] = {}
    with open_input(path) as stream:
        text = stream.read()
    for lineno, line in iter_lexicon_lines(text):
        parts = line.split("\t")
        if len(parts) != 2:
            raise CorpusFormatError(f"{path}:{lineno}: expected 'word<TAB>phones', got {line!r}")
        word, phones = parts[0].strip(), tuple(parts[1].split())
        if not word or not phones:
            raise CorpusFormatError(f"{path}:{lineno}: empty word or phone list")
        if word in lexicon:
            raise CorpusFormatError(f"{path}:{lineno}: repeated word {word!r}")
        lexicon[word] = phones
    if not lexicon:
        raise CorpusFormatError(f"{path}: no entries, so the phone inventory is empty")
    return lexicon


def load_training_corpus(path: str | Path, n_symbols: int) -> dict[int, list[TrainingUtterance]]:
    """Per-task training utterances from a JSONL corpus file; symbol ids must
    lie in ``[0, n_symbols)``."""

    def record(obj: dict) -> TrainingUtterance:
        task, symbols, words = obj.get("task"), obj.get("symbols"), obj.get("words")
        if type(task) is not int:  # JSON integers decode to exactly int; bool is not one
            raise CorpusFormatError("'task' must be an integer")
        # set(map(type, ...)) and min/max run at C speed; bool is a type of its own, so it is refused
        if not isinstance(symbols, list) or not symbols or set(map(type, symbols)) != {int}:
            raise CorpusFormatError("'symbols' must be a non-empty array of integers")
        if min(symbols) < 0 or max(symbols) >= n_symbols:
            raise CorpusFormatError(f"symbol ids must lie in [0, {n_symbols}), got {symbols}")
        if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
            raise CorpusFormatError("'words' must be an array of strings")
        return TrainingUtterance(task_id=task, symbols=tuple(symbols), words=tuple(words))

    corpus: dict[int, list[TrainingUtterance]] = {}
    with open_input(path) as stream:
        for utt in iter_jsonl(stream, str(path), record):
            corpus.setdefault(utt.task_id, []).append(utt)
    return corpus


def build_tasks(
    corpus: Mapping[int, Sequence[TrainingUtterance]],
    word_phones: Mapping[str, Sequence[str]],
    alpha: float = DEFAULT_TASK_WEIGHT,
) -> list[MmiTask]:
    """One task per corpus key over a shared phone inventory.

    Phone ids index the sorted distinct phones of the lexicon. Each task's
    denominator LM is estimated from its own transcripts' phone sequences
    with add-one smoothing over the full inventory, so it accepts anything
    the lexicon can produce.
    """
    phones = tuple(sorted({p for seq in word_phones.values() for p in seq}))
    index = {p: i for i, p in enumerate(phones)}
    lexicon = {word: tuple(index[p] for p in seq) for word, seq in word_phones.items()}
    tasks = []
    for task_id in sorted(corpus):
        phone_seqs = [transcript_phones(utt.words, lexicon) for utt in corpus[task_id]]
        den = build_denominator(range(len(phones)), phone_bigram_counts(phone_seqs))
        tasks.append(MmiTask(task_id=task_id, phones=phones, lexicon=lexicon, den_graph=den, alpha=alpha))
    return tasks


def pool_corpus(corpus: Mapping[int, Sequence[TrainingUtterance]]) -> dict[int, list[TrainingUtterance]]:
    """Relabel every utterance into task ``POOLED_TASK_ID``, preserving task order."""
    merged = [
        dataclasses.replace(utt, task_id=POOLED_TASK_ID)
        for task_id in sorted(corpus)
        for utt in corpus[task_id]
    ]
    return {POOLED_TASK_ID: merged}
