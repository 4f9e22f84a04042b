"""Forward scoring, occupancies, and the multitask discriminative objective.

Per utterance the objective is the log ratio of the numerator-graph
likelihood (times a word-LM term) to the denominator-graph likelihood;
per task it sums over that task's utterances; the multitask objective is
the task-weighted sum. Gradients come from forward-backward arc
posteriors: the derivative with respect to an emission log-probability is
numerator occupancy minus denominator occupancy, pushed through the
log-softmax to reach the logits. mmi_gradient returns the objective from
the same pass; multitask_objective is the forward-only evaluation.

All recursions run in natural-log space with max-shifted accumulation, so
underflow cannot occur for any finite parameters.
"""

from __future__ import annotations

import logging
from typing import Mapping, Sequence

import numpy as np

from .graphs import ARC_DTYPE, HmmGraph
from .model import EmissionModel, MmiTask, TrainingUtterance

logger = logging.getLogger(__name__)


class NoPath(ArithmeticError):
    """Raised when a graph accepts no path of the requested length."""


def _forward(graph: HmmGraph, em_logprobs: np.ndarray, symbols: Sequence[int]) -> tuple[np.ndarray, float]:
    """alpha[t, s], the log-sum over length-t paths from start ending in state
    s, plus the sequence log-likelihood; raises NoPath when that is -inf."""
    src, dst, phone, weight = (graph.arcs[f] for f in ARC_DTYPE.names)
    alphas = np.full((len(symbols) + 1, graph.n_states), -np.inf)
    alphas[0, graph.start] = 0.0
    for t, sym in enumerate(symbols, start=1):
        scores = alphas[t - 1, src] + weight + em_logprobs[phone, sym]
        np.logaddexp.at(alphas[t], dst, scores)
    total = float(np.logaddexp.reduce(alphas[len(symbols)] + graph.finals))
    if total == -np.inf:
        raise NoPath(f"no accepting path of length {len(symbols)}")
    return alphas, total


def _backward_betas(graph: HmmGraph, em_logprobs: np.ndarray, symbols: Sequence[int]) -> np.ndarray:
    """beta[t, s]: log-sum over suffix paths from state s consuming symbols t..T-1."""
    src, dst, phone, weight = (graph.arcs[f] for f in ARC_DTYPE.names)
    betas = np.full((len(symbols) + 1, graph.n_states), -np.inf)
    betas[len(symbols)] = graph.finals
    for t in range(len(symbols) - 1, -1, -1):
        scores = weight + em_logprobs[phone, symbols[t]] + betas[t + 1, dst]
        np.logaddexp.at(betas[t], src, scores)
    return betas


def forward_logprob(
    graph: HmmGraph, em: EmissionModel, task_id: int, symbols: Sequence[int]
) -> float:
    """Log-likelihood of an observation sequence under one graph.

    Sums, over every accepting path whose length equals the sequence
    length, the product of arc weights, emission probabilities, and the
    final weight. Raises NoPath when no such path exists (for example a
    numerator chain longer than the sequence).
    """
    return _forward(graph, em.log_probs(task_id), symbols)[1]


def emission_occupancy(
    graph: HmmGraph, em_logprobs: np.ndarray, symbols: Sequence[int]
) -> tuple[np.ndarray, float]:
    """Expected emission counts gamma[p, s] plus the sequence log-likelihood.

    gamma[p, s] is the expected number of frames at which an arc labelled
    phone p emits symbol s, under the posterior over accepting paths;
    summing gamma over everything gives the sequence length.
    """
    src, dst, phone, weight = (graph.arcs[f] for f in ARC_DTYPE.names)
    alphas, total = _forward(graph, em_logprobs, symbols)
    betas = _backward_betas(graph, em_logprobs, symbols)
    syms = np.asarray(symbols, dtype=np.intp)[:, None]
    # [frames x arcs] posteriors; bincount adds them in (frame, arc) order
    log_post = alphas[:-1, src] + weight + em_logprobs[phone, syms] + betas[1:, dst] - total
    n_phones, n_symbols = em_logprobs.shape
    index = (phone * n_symbols + syms).ravel()
    occ = np.bincount(index, weights=np.exp(log_post).ravel(), minlength=n_phones * n_symbols)
    return occ.reshape(n_phones, n_symbols), total


def _utterance_logratio(utt: TrainingUtterance, task: MmiTask, em_logprobs: np.ndarray) -> float:
    den = _forward(task.den_graph, em_logprobs, utt.symbols)[1]
    try:
        num = _forward(task.numerator_graph(utt.words), em_logprobs, utt.symbols)[1]
    except NoPath:
        return -np.inf
    return num + task.lm_logprob(utt.words) - den


def _check_batch(batch: Sequence[TrainingUtterance], task: MmiTask) -> None:
    for utt in batch:
        if utt.task_id != task.task_id:
            raise ValueError(f"utterance of task {utt.task_id} in batch for task {task.task_id}")


def mmi_objective(
    batch: Sequence[TrainingUtterance], task: MmiTask, em: EmissionModel
) -> float:
    """Per-task objective: sum over the batch of log num/den likelihood ratios.

    An utterance whose numerator needs more frames than it has contributes
    -inf without a log line; mmi_gradient is the pass that warns about it.
    """
    _check_batch(batch, task)
    em_logprobs = em.log_probs(task.task_id)
    return sum(_utterance_logratio(utt, task, em_logprobs) for utt in batch)


def _check_tasks(tasks: Sequence[MmiTask]) -> None:
    if not tasks:
        raise ValueError("need at least one task")
    ids = [t.task_id for t in tasks]
    if len(set(ids)) != len(ids):
        raise ValueError(f"task ids must be distinct, got {ids}")


def multitask_objective(
    batches: Mapping[int, Sequence[TrainingUtterance]],
    tasks: Sequence[MmiTask],
    em: EmissionModel,
) -> float:
    """Weighted sum of per-task objectives; reduces to the single objective at T=1, weight 1."""
    _check_tasks(tasks)
    return sum(task.alpha * mmi_objective(batches.get(task.task_id, ()), task, em) for task in tasks)


def mmi_gradient(
    batches: Mapping[int, Sequence[TrainingUtterance]],
    tasks: Sequence[MmiTask],
    em: EmissionModel,
) -> tuple[EmissionModel, float]:
    """Gradient of the multitask objective with respect to all logits, plus the objective.

    Per utterance the derivative with respect to task t's emission
    log-probabilities is numerator occupancy minus denominator occupancy;
    mapping through the log-softmax Jacobian gives the logit gradient

        g[p, s] = d[p, s] - softmax[p, s] * sum_s' d[p, s']

    with d the occupancy difference. The shared matrix collects every
    task's weighted contribution; each bias matrix collects only its own
    task's. Accumulation order is fixed (tasks in the given order,
    utterances in batch order), so repeated runs are bit-identical.

    The objective sums the same forward totals in multitask_objective's
    order, so the two agree bit for bit. An unreachable numerator adds -inf
    to it and nothing to the gradient, with one warning.
    """
    _check_tasks(tasks)
    grad = EmissionModel.zeros(*em.shared.shape, em.bias)
    objective = 0
    for task in tasks:
        batch = batches.get(task.task_id, ())
        _check_batch(batch, task)
        em_logprobs = em.log_probs(task.task_id)
        probs = np.exp(em_logprobs)
        task_objective = 0
        for utt in batch:
            occ_den, den = emission_occupancy(task.den_graph, em_logprobs, utt.symbols)
            try:
                occ_num, num = emission_occupancy(
                    task.numerator_graph(utt.words), em_logprobs, utt.symbols
                )
            except NoPath:
                logger.warning(
                    "task %d transcript %s: numerator needs more than %d frames; "
                    "contributing -inf and no gradient",
                    task.task_id,
                    " ".join(utt.words) or "<empty>",
                    len(utt.symbols),
                )
                task_objective += -np.inf
                continue
            task_objective += num + task.lm_logprob(utt.words) - den
            diff = occ_num - occ_den
            g = diff - probs * diff.sum(axis=1, keepdims=True)
            grad.shared += task.alpha * g
            grad.bias[task.task_id] += task.alpha * g
        objective += task.alpha * task_objective
    return grad, objective
