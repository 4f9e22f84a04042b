"""Forward scoring, occupancies, and the multitask discriminative objective.

Per utterance the objective is the log ratio of the numerator-graph
likelihood to the denominator-graph likelihood; per task it sums over that
task's utterances; the multitask objective is the task-weighted sum.

Training compiles its batches once (compile_plan), then runs one batched
forward-backward per graph kind and pass over the rows of every task. The
graphs are state-emitting (no arc enters the start, and all the arcs into a
state carry the phone it emits), so the emission term factors out,

    alpha_t = E[task, phone, x_t] + logmatmul(alpha_{t-1}, W),

with W the [Q, Q] log transition matrix. Each task's denominator is one W
its rows share. A numerator is a chain built from the transcript's phones:
W holds only stay (q -> q) and advance (q -> q + 1), so each frame is an
exact elementwise logaddexp of alpha + stay and shifted alpha + advance.
Only the alphas are kept for every frame: the backward sweep adds each
frame's state posteriors to the occupancy, binned by (task, phone,
symbol). The numerators run first, and a row whose numerator rejects its
utterance counts nothing in the denominator's occupancy. mmi_gradient
returns the objective from the same pass; multitask_objective is the
forward-only one.

All recursions run in natural-log space, and underflow cannot turn a
reachable state into -inf for any finite parameters. The log-matmul sums
each max-shifted row in the linear domain, where terms below about 1e-308
vanish, so an entry whose shifted sum falls below _TINY while some finite
predecessor feeds it is recomputed exactly in log space. The arc-generic
_forward, _backward_betas, forward_logprob and emission_occupancy are the
references it is checked against.
"""

from __future__ import annotations

import logging
from functools import partial
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from ..mmi_base import NoPath
from .graphs import ARC_DTYPE, HmmGraph, transcript_phones
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
    """The graphs as they are, padded to one size Q: W [G, Q, Q] (log
    weights, parallel arcs combined by logaddexp in arc order, -inf for no
    arc), phone [G, Q] and finals [G, Q], one row per graph. Raises
    ValueError naming the first graph that is not state-emitting: one with
    an arc into the start state 0, or with two phones into one state, as
    no builder graph has."""
    q = max((g.n_states for g in graphs), default=1)
    weights = np.full((len(graphs), q, q), -np.inf)
    phone = np.zeros((len(graphs), q), dtype=np.intp)
    finals = np.full((len(graphs), q), -np.inf)
    for i, g in enumerate(graphs):
        src, dst, label, weight = (g.arcs[f] for f in ARC_DTYPE.names)
        if (dst == 0).any():
            raise ValueError(f"graph {i} is not state-emitting: an arc enters the start state 0")
        phone[i, dst] = label
        clash = dst[phone[i, dst] != label]
        if clash.size:
            raise ValueError(f"graph {i} is not state-emitting: more than one phone enters state {clash[0]}")
        np.logaddexp.at(weights[i], (src, dst), weight)
        finals[i, : g.n_states] = g.finals
    return weights, phone, finals


def _stepper(weights: np.ndarray, graph: np.ndarray) -> tuple:
    """What _log_matmul needs of weights [G, Q, Q] for rows on graph[b]: the
    weights, their exp, the arc mask, the underflow floor per row (_TINY
    where an arc enters a column, else -1), each row's graph, and where each
    row's result lies in the one product a frame takes, with the graphs'
    columns stacked as rows and the rows as columns. With the rows as rows, a
    row's rounding would depend on the others (OpenBLAS sends a one-row
    product to gemv; gemm's summation order varies with the row count)."""
    arcs = weights > -np.inf
    floor = np.where(arcs.any(axis=1), _TINY, -1.0)
    n, q = weights.shape[:2]
    side = lambda a: np.ascontiguousarray(a.transpose(0, 2, 1).reshape(n * q, q))  # noqa: E731
    pick = (graph[:, None] * q + np.arange(q)) * len(graph) + np.arange(len(graph))[:, None]
    return weights, side(np.exp(weights)), side(arcs), floor[graph], graph, pick


def _log_matmul(x: np.ndarray, step: tuple) -> np.ndarray:
    """log(exp(x[b]) @ exp(weights[graph[b]])) row by row, for x [B, Q] and a
    _stepper of weights [G, Q, Q].

    Each row is shifted by its max and summed in the linear domain, so its
    largest term is exp(weight) <= 1. An entry whose shifted sum is below
    the floor may have lost its terms to underflow; when some finite x feeds
    it through an arc (one boolean matmul) it is recomputed in log space.
    Callers silence the divide warning of log(0).
    """
    weights, linear, arcs, floor, graph, pick = step
    top = np.maximum(x.max(axis=1, keepdims=True), _LOWEST)  # an all -inf row stays -inf
    sums = np.take(linear @ np.exp(x - top).T, pick)
    out = np.log(sums) + top
    low = sums < floor
    if low.any():
        low &= np.take(arcs @ (x > -np.inf).T, pick)
        if low.any():
            b, q = np.nonzero(low)
            out[b, q] = np.logaddexp.reduce(x[b] + weights[graph[b], :, q], axis=1)
    return out


def _chain_step(x: np.ndarray, stay: np.ndarray, advance: np.ndarray, back: bool) -> np.ndarray:
    """One frame of chains with log weights stay (q -> q) and advance (q -> q + 1),
    [B, Q] each, for x [B, Q]: state q gathers from q and q - 1, or with ``back``
    from q and q + 1. Elementwise, so no row depends on the others."""
    out = x + stay
    if back:
        np.logaddexp(out[:, :-1], x[:, 1:] + advance[:, :-1], out=out[:, :-1])
    else:
        np.logaddexp(out[:, 1:], x[:, :-1] + advance[:, :-1], out=out[:, 1:])
    return out


def _pad(symbol_seqs: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The sequences as one zero-padded [B, frames] array, and their lengths."""
    lengths = np.array([len(s) for s in symbol_seqs], dtype=np.intp)
    sym = np.zeros((len(lengths), int(lengths.max(initial=0))), dtype=np.intp)
    sym[np.arange(sym.shape[1]) < lengths[:, None]] = [s for seq in symbol_seqs for s in seq]
    return sym, lengths


def _sweep(graphs: Sequence[HmmGraph], symbol_seqs: Sequence[Sequence[int]], table, graph) -> tuple:
    """The graphs in state form over the sequences, for _forward_backward:
    row b runs on shared graph[b]; graph g reads emission table table[g].
    Returns the padded symbols, the lengths, each row's graph, each graph's
    table, phone, finals, lift and the forward and backward steps."""
    weights, phone, finals = _state_form(graphs)
    # each graph's weights drop by their max, so exp cannot overflow; the
    # emissions add it back, since every step takes one weight and one emission
    lift = weights.max(axis=(1, 2))
    lift[lift == -np.inf] = 0.0
    weights -= lift[:, None, None]
    rows = np.asarray(graph, dtype=np.intp)
    fwd, bwd = (partial(_log_matmul, step=_stepper(w, rows)) for w in (weights, weights.transpose(0, 2, 1).copy()))
    return *_pad(symbol_seqs), rows, np.asarray(table, dtype=np.intp), phone, finals, lift, fwd, bwd


def _chain_sweep(phone_seqs: Sequence[Sequence[int]], symbol_seqs: Sequence[Sequence[int]], table) -> tuple:
    """Row b's numerator, the chain over phone_seqs[b] on table table[b], as
    _sweep reads build_numerator's graph (state q > 0 emits phone q - 1), but
    stepped by _chain_step on its two diagonals, stay and advance [B, Q]: 0 or -inf."""
    k = np.array([len(p) for p in phone_seqs], dtype=np.intp)[:, None]
    state = np.arange(1 + int(k.max(initial=0)))
    emitting = (state >= 1) & (state <= k)
    phone = np.zeros(emitting.shape, dtype=np.intp)
    phone[emitting] = [p for seq in phone_seqs for p in seq]
    stay, advance = np.where(emitting, 0.0, -np.inf), np.where(state < k, 0.0, -np.inf)
    fwd, bwd = (partial(_chain_step, stay=stay, advance=advance, back=back) for back in (False, True))
    finals, rows = np.where(state == k, 0.0, -np.inf), np.arange(len(k))
    return *_pad(symbol_seqs), rows, np.asarray(table, dtype=np.intp), phone, finals, np.zeros(len(k)), fwd, bwd


def _forward_backward(
    sweep: tuple, em_logprobs: np.ndarray, occupancy: bool, counted: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Log-likelihoods [B] of a _sweep's or _chain_sweep's rows and, with
    ``occupancy``, the emission counts gamma [T, n_phones, n_symbols] over
    every row, or over the rows the boolean mask ``counted`` marks;
    ``em_logprobs`` stacks the T emission tables. A row no path accepts gets
    total -inf and adds nothing to gamma; nor do the padded frames, whose
    alphas are set to -inf before the backward sweep.
    """
    sym, lengths, graph, table, phone, finals, lift, fwd, bwd = sweep
    n_graphs, q = phone.shape
    batch, frames = sym.shape
    # emit[x * G + g, q] = E[table[g], phone[g, q], x] + lift[g], so frame t reads emit[at[:, t]]
    emit = (em_logprobs[table[:, None], phone].transpose(2, 0, 1) + lift[:, None]).reshape(-1, q)
    at = sym * n_graphs + graph[:, None]

    alphas = np.full((frames + 1, batch, q), -np.inf)
    alphas[0, :, 0] = 0.0
    with np.errstate(divide="ignore"):
        for t in range(1, frames + 1):
            alphas[t] = emit[at[:, t - 1]] + fwd(alphas[t - 1])
    finals = finals[graph]
    totals = np.logaddexp.reduce(alphas[lengths, np.arange(batch)] + finals, axis=1)
    if not occupancy:
        return totals, None

    alphas[np.arange(frames + 1)[:, None] > lengths] = -np.inf
    gamma = np.zeros(em_logprobs.size)
    bins = (table[graph, None] * em_logprobs.shape[1] + phone[graph]) * em_logprobs.shape[2]
    keep = totals > -np.inf
    if counted is not None:
        keep &= counted
    shift = np.where(keep, totals, np.inf)[:, None]  # a rejected or uncounted row gets posterior 0
    # a row not yet at its last frame carries finite filler, which its -inf
    # alphas mask, until its betas restart from the finals
    betas = np.where((lengths == frames)[:, None], finals, 0.0)
    with np.errstate(divide="ignore"):
        for t in range(frames, 0, -1):
            post = np.exp(alphas[t] + betas - shift)
            gamma += np.bincount((bins + sym[:, t - 1, None]).ravel(), weights=post.ravel(), minlength=len(gamma))
            betas = bwd(emit[at[:, t - 1]] + betas)
            betas = np.where((lengths == t - 1)[:, None], finals, betas)
    return totals, gamma.reshape(em_logprobs.shape)


class Plan(NamedTuple):
    """Batches compiled for repeated passes; see compile_plan."""

    tasks: tuple[MmiTask, ...]
    rows: tuple[TrainingUtterance, ...]  # every task's batch, task by task
    num: tuple  # _chain_sweep of each row's numerator, on its task's emissions
    den: tuple  # _sweep of each task's denominator, shared by its rows


def compile_plan(batches: Mapping[int, Sequence[TrainingUtterance]], tasks: Sequence[MmiTask]) -> Plan:
    """What every pass over ``batches`` needs but the emissions: each
    numerator as a chain over its transcript's phones, each denominator in
    state form, the padded symbols. A trainer builds it once per run and
    passes it to every mmi_gradient and multitask_objective call."""
    ids = [t.task_id for t in tasks]
    if not tasks or len(set(ids)) != len(ids):
        raise ValueError(f"need at least one task, with distinct ids, got {ids}")
    rows = tuple(utt for task in tasks for utt in batches.get(task.task_id, ()))
    owner = [k for k, task in enumerate(tasks) for _ in batches.get(task.task_id, ())]
    for utt, k in zip(rows, owner):
        if utt.task_id != ids[k]:
            raise ValueError(f"utterance of task {utt.task_id} in batch for task {ids[k]}")
    symbols = [utt.symbols for utt in rows]
    phones = [transcript_phones(utt.words, tasks[k].lexicon) for k, utt in zip(owner, rows)]
    den = _sweep([task.den_graph for task in tasks], symbols, np.arange(len(tasks)), owner)
    return Plan(tuple(tasks), rows, _chain_sweep(phones, symbols, owner), den)


def _plan_pass(plan: Plan, em: EmissionModel, occupancy: bool) -> tuple:
    """Each task's objective (its rows' log ratios summed in order), the
    stacked emission tables, and with ``occupancy`` the numerator minus
    denominator occupancy [T, P, S]. Raises NoPath when a denominator
    rejects an utterance."""
    em_logprobs = np.stack([em.log_probs(task.task_id) for task in plan.tasks])
    num, num_occ = _forward_backward(plan.num, em_logprobs, occupancy)
    accepted = num != -np.inf  # a NaN total, from diverged parameters, is not a rejection
    den, den_occ = _forward_backward(plan.den, em_logprobs, occupancy, accepted)
    if (den == -np.inf).any():
        i = int(np.argmax(den == -np.inf))
        raise NoPath(f"denominator accepts no path of length {len(plan.rows[i].symbols)}")
    owner = plan.den[2]  # a denominator row runs on its task's graph
    objectives = np.bincount(owner, weights=num - den, minlength=len(plan.tasks)).tolist()
    return objectives, em_logprobs, (num_occ - den_occ if occupancy else None)


def short_transcripts(plan: Plan, consequence: str = "") -> str:
    """How many rows' numerators cannot fit their utterances, ``consequence``
    and the first three transcripts too long to fit; '' when all fit. A chain
    of k phones, whose one final state is k, fits T >= 1 frames when
    1 <= k <= T, so an empty transcript fits none."""
    k = plan.num[5].argmax(axis=1)
    long = [" ".join(plan.rows[i].words) for i in np.flatnonzero(k > plan.num[1])]
    empty = int(np.count_nonzero(k == 0))
    heads = []
    if len(long) == 1:
        heads.append("1 transcript needs more frames than its utterance has")
    elif long:
        heads.append(f"{len(long)} transcripts need more frames than their utterances have")
    if empty == 1:
        heads.append("1 transcript is empty and fits no frame")
    elif empty:
        heads.append(f"{empty} transcripts are empty and fit no frame")
    names = ": " + "; ".join(long[:3]) + ("; ..." if len(long) > 3 else "") if long else ""
    return ", and ".join(heads) + consequence + names if heads else ""


def mmi_objective(
    batch: Sequence[TrainingUtterance], task: MmiTask, em: EmissionModel
) -> float:
    """Per-task objective: sum over the batch of log num/den likelihood ratios.

    An utterance whose numerator needs more frames than it has contributes
    -inf without a log line; mmi_gradient is the pass that warns about it.
    """
    return _plan_pass(compile_plan({task.task_id: batch}, [task]), em, occupancy=False)[0][0]


def multitask_objective(
    batches: Mapping[int, Sequence[TrainingUtterance]],
    tasks: Sequence[MmiTask],
    em: EmissionModel,
    plan: Plan | None = None,
) -> float:
    """Weighted sum of per-task objectives; reduces to the single objective at T=1, weight 1.
    ``plan``, if given, is compile_plan(batches, tasks), built once for many passes."""
    plan = plan or compile_plan(batches, tasks)
    return sum(task.alpha * f for task, f in zip(plan.tasks, _plan_pass(plan, em, occupancy=False)[0]))


def mmi_gradient(
    batches: Mapping[int, Sequence[TrainingUtterance]],
    tasks: Sequence[MmiTask],
    em: EmissionModel,
    plan: Plan | None = None,
) -> tuple[EmissionModel, float]:
    """Gradient of the multitask objective with respect to all logits, plus the objective.

    The derivative with respect to task t's emission log-probabilities is
    its numerator minus denominator occupancy d; the log-softmax Jacobian is
    linear in d, so it is applied once per task:

        g[p, s] = d[p, s] - softmax[p, s] * sum_s' d[p, s']

    The shared matrix collects every task's weighted contribution; each bias
    matrix only its own task's. The order is fixed, so repeated runs are
    bit-identical, and the objective is multitask_objective's to the bit.
    An unreachable numerator adds -inf to it and nothing to the gradient,
    and one warning names such rows. ``plan`` is as in multitask_objective.
    """
    plan = plan or compile_plan(batches, tasks)
    objectives, em_logprobs, diff = _plan_pass(plan, em, occupancy=True)
    if note := short_transcripts(plan, ", which adds -inf to the objective and nothing to the gradient"):
        logger.warning("%s", note)
    grad = EmissionModel.zeros(*em.shared.shape, em.bias)
    for task, d, lp in zip(plan.tasks, diff, em_logprobs):
        g = d - np.exp(lp) * d.sum(axis=1, keepdims=True)
        grad.shared += task.alpha * g
        grad.bias[task.task_id] += task.alpha * g
    return grad, sum(task.alpha * f for task, f in zip(plan.tasks, objectives))
