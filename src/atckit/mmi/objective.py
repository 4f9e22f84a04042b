"""Forward scoring, occupancies, and the multitask discriminative objective.

Per utterance the objective is the log ratio of the numerator-graph
likelihood to the denominator-graph likelihood; per task it sums over that
task's utterances; the multitask objective is the task-weighted sum.

Training runs one batched forward-backward per task and graph kind. Each
pass rewrites its graphs in a state-emitting form: every state is split by
the phone on the arcs entering it, so the emission term factors out of the
recursion,

    alpha_t = E[phone, x_t] + logmatmul(alpha_{t-1}, W),

with W the [Q, Q] log transition matrix. The task's denominator is one W
shared by the whole batch; its numerators are padded into a [B, Q, Q]
stack. Both go through the same routine, so identical graphs give
identical numbers. Only the alphas are kept for every frame: the backward
sweep adds each frame's state posteriors to the occupancy, last frame
first, and the log-softmax Jacobian is applied once per task to the summed
numerator-minus-denominator occupancy. The numerators run first, and a
row whose numerator rejects its utterance counts nothing in the
denominator's occupancy, so each task takes one pass per graph kind.
mmi_gradient returns the objective from the same pass; multitask_objective
is the forward-only evaluation.

All recursions run in natural-log space with max-shifted accumulation, and
underflow cannot turn a reachable state into -inf for any finite
parameters. The batched log-matmul sums each max-shifted row in the linear
domain, where terms below about 1e-308 lose precision or vanish, so a state
fed only by such terms would read -inf; an entry whose shifted sum falls
below _TINY while some finite predecessor feeds it is therefore recomputed
exactly in log space. The arc-generic _forward,
_backward_betas, forward_logprob and emission_occupancy are the references
the batched pass is checked against.
"""

from __future__ import annotations

import logging
from typing import Mapping, Sequence

import numpy as np

from ..mmi_base import NoPath
from .graphs import ARC_DTYPE, HmmGraph
from .model import EmissionModel, MmiTask, TrainingUtterance

logger = logging.getLogger(__name__)

# Below this a shifted linear-domain sum may have lost terms to underflow
# (doubles go subnormal at 2.2e-308), so the entry is recomputed in log space.
_TINY = 1e-280
_LOWEST = np.finfo(np.float64).min


def _forward(graph: HmmGraph, em_logprobs: np.ndarray, symbols: Sequence[int]) -> tuple[np.ndarray, float]:
    """alpha[t, s], the log-sum over length-t paths from state 0 ending in
    state s, plus the sequence log-likelihood; raises NoPath when that is -inf."""
    src, dst, phone, weight = (graph.arcs[f] for f in ARC_DTYPE.names)
    alphas = np.full((len(symbols) + 1, graph.n_states), -np.inf)
    alphas[0, 0] = 0.0
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


def _state_form(graphs: Sequence[HmmGraph]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The graphs as state-emitting acceptors, padded to one size Q.

    Split state (s, p) copies arc-emitting state s for the arcs that enter
    it labelled p, and leaves by every arc that leaves s; local state 0 is
    the start, which no arc enters and which emits nothing. The split is
    exact for any graph, and a builder graph keeps its state count, since
    its arcs into a state all carry one phone. Returns W [G, Q, Q] (log
    weights, parallel arcs combined by logaddexp, -inf for no arc),
    phone [G, Q] and finals [G, Q], one row per graph.
    """
    sizes = np.array([g.n_states for g in graphs])
    offset = np.cumsum(sizes) - sizes  # global id of each graph's state 0
    arcs = np.concatenate([g.arcs for g in graphs])
    owner = np.repeat(np.arange(len(graphs)), [len(g.arcs) for g in graphs])
    src, dst = arcs["src"] + offset[owner], arcs["dst"] + offset[owner]
    span = int(arcs["phone"].max(initial=0)) + 1
    # one split state per distinct (global destination, phone); sorted by
    # destination, each graph's split states are contiguous
    keys, col = np.unique(dst * span + arcs["phone"], return_inverse=True)
    origin = keys // span  # the global state each split state copies
    kgraph = np.searchsorted(offset, origin, side="right") - 1
    per_graph = np.bincount(kgraph, minlength=len(graphs))
    local = np.arange(len(keys)) - np.repeat(np.cumsum(per_graph) - per_graph, per_graph) + 1
    # transitions: from each split state every arc leaving its origin (arcs
    # sorted by source, each origin's run concatenated), from each start
    # every arc leaving it
    order = np.argsort(src, kind="stable")
    first = np.searchsorted(src[order], np.arange(sizes.sum() + 1))
    counts = first[origin + 1] - first[origin]
    from_split = order[np.repeat(first[origin] - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())]
    from_start = np.flatnonzero(src == offset[owner])
    via = np.concatenate([from_split, from_start])
    rows = np.concatenate([local[np.repeat(np.arange(len(keys)), counts)], np.zeros(len(from_start), np.intp)])
    q = 1 + int(per_graph.max(initial=0))
    weights = np.full((len(graphs), q, q), -np.inf)
    np.logaddexp.at(weights, (owner[via], rows, local[col[via]]), arcs["weight"][via])
    phone = np.zeros((len(graphs), q), dtype=np.intp)
    phone[kgraph, local] = keys % span
    all_finals = np.concatenate([g.finals for g in graphs])
    finals = np.full((len(graphs), q), -np.inf)
    finals[:, 0] = all_finals[offset]
    finals[kgraph, local] = all_finals[origin]
    return weights, phone, finals


def _stepper(weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """What _log_matmul needs of weights [G, Q, Q]: the weights, exp of them,
    the arc mask, and the underflow floor per column (_TINY where an arc
    enters it, -1 where none does, so a column no arc enters is never
    recomputed)."""
    arcs = weights > -np.inf
    return weights, np.exp(weights), arcs, np.where(arcs.any(axis=1), _TINY, -1.0)


def _log_matmul(x: np.ndarray, step: tuple[np.ndarray, ...]) -> np.ndarray:
    """log(exp(x) @ exp(weights)) row by row, for x [B, Q] and a _stepper of
    weights [G, Q, Q] with G one (shared by every row) or B.

    Each row is shifted by its max and summed in the linear domain, so its
    largest term is exp(weight) <= 1. An entry whose shifted sum is below
    the floor may have lost its terms to underflow; when some finite x feeds
    it through an arc (one boolean matmul) it is recomputed in log space.
    Callers silence the divide warning of log(0).
    """
    weights, linear, arcs, floor = step
    top = np.maximum(x.max(axis=1, keepdims=True), _LOWEST)  # an all -inf row stays -inf
    sums = np.matmul(np.exp(x - top)[:, None, :], linear)[:, 0]
    out = np.log(sums) + top
    low = sums < floor
    if low.any():
        low &= np.matmul((x > -np.inf)[:, None, :], arcs)[:, 0]
        if low.any():
            b, q = np.nonzero(low)
            out[b, q] = np.logaddexp.reduce(x[b] + weights[b % len(weights), :, q], axis=1)
    return out


def _forward_backward(
    graphs: Sequence[HmmGraph],
    em_logprobs: np.ndarray,
    symbol_seqs: Sequence[Sequence[int]],
    occupancy: bool,
    counted: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Batched sequence log-likelihoods [B] and, with ``occupancy``, the
    emission counts gamma [n_phones, n_symbols] summed over the batch, or
    over the rows the boolean mask ``counted`` marks.

    ``graphs`` is one graph shared by every sequence or one graph per
    sequence. A sequence no path accepts gets total -inf and adds nothing to
    gamma, nor does a row left out of ``counted``. Sequences are padded at
    the end with symbol 0, and the padded frames' alphas are set to -inf
    before the backward sweep, so they add nothing either. Only the alphas are kept for every frame; the backward
    sweep adds each frame's state posteriors to gamma with one bincount.
    """
    weights, phone, finals = _state_form(graphs)
    # each graph's weights drop by their max, so exp cannot overflow; the
    # emissions add it back, since every step takes one weight and one emission
    lift = weights.max(axis=(1, 2))
    lift[lift == -np.inf] = 0.0
    weights -= lift[:, None, None]
    n_graphs, q = weights.shape[:2]
    batch = len(symbol_seqs)
    rows = np.arange(batch) % n_graphs  # the graph each sequence runs on
    lengths = np.array([len(s) for s in symbol_seqs], dtype=np.intp)
    frames = int(lengths.max(initial=0))
    sym = np.zeros((batch, frames), dtype=np.intp)
    sym[np.arange(frames) < lengths[:, None]] = [s for seq in symbol_seqs for s in seq]
    # emit[x * G + g, q] = E[phone[g, q], x] + lift[g], so frame t reads emit[at[:, t]]
    emit = (em_logprobs.T[:, phone] + lift[:, None]).reshape(-1, q)
    at = sym * n_graphs + rows[:, None]

    alphas = np.full((frames + 1, batch, q), -np.inf)
    alphas[0, :, 0] = 0.0
    step = _stepper(weights)
    with np.errstate(divide="ignore"):
        for t in range(1, frames + 1):
            alphas[t] = emit[at[:, t - 1]] + _log_matmul(alphas[t - 1], step)
    totals = np.logaddexp.reduce(alphas[lengths, np.arange(batch)] + finals[rows], axis=1)
    if not occupancy:
        return totals, None

    alphas[np.arange(frames + 1)[:, None] > lengths] = -np.inf
    n_phones, n_symbols = em_logprobs.shape
    gamma = np.zeros(n_phones * n_symbols)
    bins = phone[rows] * n_symbols
    keep = totals > -np.inf
    if counted is not None:
        keep &= counted
    shift = np.where(keep, totals, np.inf)[:, None]  # a rejected or uncounted sequence gets posterior 0
    ending: dict[int, list[int]] = {}
    for b, n in enumerate(lengths.tolist()):
        ending.setdefault(n, []).append(b)
    # a row not yet at its last frame carries finite filler, which its -inf
    # alphas mask, until its betas restart from the finals
    betas = np.where((lengths == frames)[:, None], finals[rows], 0.0)
    step = _stepper(weights.transpose(0, 2, 1).copy())
    with np.errstate(divide="ignore"):
        for t in range(frames, 0, -1):
            post = np.exp(alphas[t] + betas - shift)
            gamma += np.bincount((bins + sym[:, t - 1, None]).ravel(), weights=post.ravel(), minlength=len(gamma))
            betas = _log_matmul(emit[at[:, t - 1]] + betas, step)
            if t - 1 in ending:
                b = ending[t - 1]
                betas[b] = finals[rows[b]]
    return totals, gamma.reshape(n_phones, n_symbols)


def _check_batch(batch: Sequence[TrainingUtterance], task: MmiTask) -> None:
    for utt in batch:
        if utt.task_id != task.task_id:
            raise ValueError(f"utterance of task {utt.task_id} in batch for task {task.task_id}")


def _task_pass(
    batch: Sequence[TrainingUtterance], task: MmiTask, em_logprobs: np.ndarray, occupancy: bool
) -> tuple[list[float], list[bool], np.ndarray | None]:
    """Per-utterance log ratios in batch order, whether each numerator
    accepts its utterance, and with ``occupancy`` the summed numerator minus
    denominator occupancy.

    Raises NoPath when the denominator rejects an utterance. An utterance
    too short for its numerator gets ratio -inf and adds no occupancy: the
    numerators run first, and the denominator pass counts only the rows
    they accept.
    """
    if not batch:
        return [], [], np.zeros(em_logprobs.shape) if occupancy else None
    symbols = [utt.symbols for utt in batch]
    nums = [task.numerator_graph(utt.words) for utt in batch]
    num, num_occ = _forward_backward(nums, em_logprobs, symbols, occupancy)
    accepted = num != -np.inf  # a NaN total, from diverged parameters, is not a rejection
    den, den_occ = _forward_backward([task.den_graph], em_logprobs, symbols, occupancy, accepted)
    if (den == -np.inf).any():
        i = int(np.argmax(den == -np.inf))
        raise NoPath(f"denominator accepts no path of length {len(symbols[i])}")
    ratios = (num - den).tolist()
    return ratios, accepted.tolist(), (num_occ - den_occ if occupancy else None)


def mmi_objective(
    batch: Sequence[TrainingUtterance], task: MmiTask, em: EmissionModel
) -> float:
    """Per-task objective: sum over the batch of log num/den likelihood ratios.

    An utterance whose numerator needs more frames than it has contributes
    -inf without a log line; mmi_gradient is the pass that warns about it.
    """
    _check_batch(batch, task)
    return sum(_task_pass(batch, task, em.log_probs(task.task_id), occupancy=False)[0])


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

    The derivative with respect to task t's emission log-probabilities is
    numerator occupancy minus denominator occupancy, summed over the task's
    batch. The batched pass sums each graph kind's occupancy frame by frame
    (last frame first), then takes the difference d once per task; the
    log-softmax Jacobian is linear in d, so it is applied once per task:

        g[p, s] = d[p, s] - softmax[p, s] * sum_s' d[p, s']

    The shared matrix collects every task's weighted contribution; each bias
    matrix collects only its own task's. The order is fixed (tasks in the
    given order, frames and batch rows in a fixed order within a task), so
    repeated runs are bit-identical.

    The objective sums the same forward totals in multitask_objective's
    order, so the two agree bit for bit. An unreachable numerator adds -inf
    to it and nothing to the gradient, with one warning; its row stays in
    the task's one pass with posterior 0.
    """
    _check_tasks(tasks)
    grad = EmissionModel.zeros(*em.shared.shape, em.bias)
    objective = 0
    for task in tasks:
        batch = batches.get(task.task_id, ())
        _check_batch(batch, task)
        em_logprobs = em.log_probs(task.task_id)
        ratios, accepted, diff = _task_pass(batch, task, em_logprobs, occupancy=True)
        for utt, ok in zip(batch, accepted):
            if not ok:
                logger.warning(
                    "task %d transcript %s: numerator needs more than %d frames; "
                    "contributing -inf and no gradient",
                    task.task_id,
                    " ".join(utt.words) or "<empty>",
                    len(utt.symbols),
                )
        objective += task.alpha * sum(ratios)
        g = diff - np.exp(em_logprobs) * diff.sum(axis=1, keepdims=True)
        grad.shared += task.alpha * g
        grad.bias[task.task_id] += task.alpha * g
    return grad, objective
