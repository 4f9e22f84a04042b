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
DIVERGENCE_PATIENCE = 10  # consecutive objective decreases that abort training


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
    tasks: Sequence[MmiTask],
    corpus: Mapping[int, Sequence[TrainingUtterance]],
    *,
    n_symbols: int,
    steps: int,
    learning_rate: float,
) -> TrainResult:
    """Plain full-batch gradient ascent on the weighted multitask objective.

    The trace holds the objective at initialization and after every
    update; with a small enough learning rate on fixed batches it is
    non-decreasing. The result also keeps each applied gradient's largest
    absolute entry. The run compiles its batches once; each step takes its
    trace point and gradient from one mmi_gradient pass, and only the point
    after the last update comes from multitask_objective. DIVERGENCE_PATIENCE
    consecutive decreases, or any objective that is not finite, abort with
    DivergenceDetected. A non-finite gradient is applied and makes the next
    objective non-finite, so numpy's overflow and invalid-value warnings on
    the way would only repeat that error and are silenced.
    """
    tasks = list(tasks)
    for task in tasks:
        if not corpus.get(task.task_id):
            raise ValueError(f"task {task.task_id} has no training utterances")
    model = EmissionModel.zeros(len(tasks[0].phones), n_symbols, [t.task_id for t in tasks])
    plan = compile_plan(corpus, tasks)
    trace: list[float] = []
    grad_max_abs: list[float] = []
    drops = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps + 1):
            if step:
                model.shared += learning_rate * grad.shared
                for tid in model.bias:
                    model.bias[tid] += learning_rate * grad.bias[tid]
            if step < steps:
                grad, objective = mmi_gradient(plan, model)
                grad_max_abs.append(grad.max_abs())
            else:
                objective = multitask_objective(plan, model)
            if not math.isfinite(objective):
                # before the first update only the data can be at fault, after it only the update
                cause = "the learning rate is too large" if step else short_transcripts(plan)
                raise DivergenceDetected(f"objective is {objective} after {step} steps: {cause}")
            drops = drops + 1 if trace and objective < trace[-1] else 0
            trace.append(objective)
            if drops >= DIVERGENCE_PATIENCE:
                raise DivergenceDetected(
                    f"objective fell for {drops} consecutive steps "
                    f"(last {trace[-1]:.6f}); lower the learning rate"
                )
    return TrainResult(model=model, objective_trace=trace, grad_max_abs=grad_max_abs)


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
        if not isinstance(symbols, list) or not symbols or not all(type(s) is int for s in symbols):
            raise CorpusFormatError("'symbols' must be a non-empty array of integers")
        if not all(0 <= s < n_symbols for s in symbols):
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
