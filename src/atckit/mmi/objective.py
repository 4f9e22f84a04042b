"""Forward scoring, occupancies, and the multitask discriminative objective.

Per utterance the objective is the log ratio of the numerator-graph
likelihood to the denominator-graph likelihood; per task it sums over that
task's utterances; the multitask objective is the task-weighted sum.

mmi_gradient and multitask_objective take a Plan, the batches as
compile_plan compiles them once, and run one batched forward-backward per
graph kind over the rows of every task. The graphs are state-emitting (no
arc enters the start, and all the arcs into a state carry the phone it
emits), so the emission term factors out of each frame's step over W, the
[Q, Q] log transition matrix. Each row's numerator is a chain over its
transcript's phones, whose W holds only stay (q -> q) and advance
(q -> q + 1), both log 1; each task's denominator is one W its rows
share. Both run as the scaled forward-backward of Rabiner (1989, V-A)
in probability space, states as rows and batch rows as columns:

    alpha_hat_t = (A^T alpha_hat_{t-1} * e_t) / c_t,    c_t its column sums,

with A = exp(W - lift), lift the graph's largest log weight (0 for a chain),
and e_t = exp(E[task, phone, x_t] - m[task, x_t]), m the largest emission of
symbol x_t over the task's phones. Only the step by A differs: a stacked
product for the denominators, two 0/1 diagonals for the chains. The total
is sum_t (log c_t + m + lift) + log sum alpha_hat_T exp(finals); the
backward pass runs beta_hat_{t-1} = A (e_t * beta_hat_t) / c_t from
exp(finals) over that last sum, and the state posteriors are
alpha_hat * beta_hat, with no exp per frame. beta_hat is set to 0 wherever
alpha_hat is 0: a state the forward pass has not reached adds nothing to a
posterior, and its beta_hat would otherwise grow by about e_q / c_t a frame,
up to inf. A product takes the [Q, B] alphas or betas in column-major
order: in every other layout tried, a row's rounding depended on the others
(gemm's blocking varies with the column count).

Underflow never turns a reachable state into -inf: a row in which an arc
from a positive alpha_hat feeds a state whose unnormalized alpha_hat falls
below _TINY gets its total and occupancy from the arc-generic _forward and
emission_occupancy over its graph, in log space; one whose beta_hat does so,
at a state its alpha_hat reaches, gets its occupancy only, so the total
depends on the forward pass alone. One phone's factor e_t is 1, so a
denominator frame's cannot all underflow; a chain's, over its transcript's
phones only, can. A chain state is checked only where its exact alpha_hat
(or posterior) is positive, which k and T fix. Zeroing beta_hat is exact
for the other rows: there a positive alpha_hat, an arc and a positive
emission factor give the next state a positive alpha_hat, or the forward
check flags the row.

Only the alphas are kept for every frame: the backward sweep overwrites
each frame's with its state posteriors, which one bincount adds to the
occupancy, binned by (task, phone, symbol). The numerators run first, and
a row whose numerator rejects its utterance counts nothing in the
denominator's occupancy. mmi_gradient(plan, em) returns the objective from
the same pass; multitask_objective(plan, em) is the forward-only one, and
mmi_objective compiles its one batch itself. forward_logprob and
emission_occupancy, over the same arc-generic recursions, are the
references the batched passes are checked against.
"""

from __future__ import annotations

import logging
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from ..mmi_base import NoPath
from .graphs import ARC_DTYPE, HmmGraph, chain_graph, transcript_phones
from .model import EmissionModel, MmiTask, TrainingUtterance

logger = logging.getLogger(__name__)

# Below this a scaled probability may have lost terms to underflow (doubles
# go subnormal at 2.2e-308), so its row is recomputed in log space.
_TINY = 1e-280


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


def _pad(symbol_seqs: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The sequences as one zero-padded [B, frames] array, and their lengths."""
    lengths = np.array([len(s) for s in symbol_seqs], dtype=np.intp)
    sym = np.zeros((len(lengths), int(lengths.max(initial=0))), dtype=np.intp)
    sym[np.arange(sym.shape[1]) < lengths[:, None]] = [s for seq in symbol_seqs for s in seq]
    return sym, lengths


class Chains(NamedTuple):
    """Numerator chains over padded rows, for _forward_backward; see _chain_sweep.
    Row b runs on chain b, which reads emission table table[b]."""

    sym: np.ndarray  # [B, frames] symbols, zero-padded
    lengths: np.ndarray  # [B] frames per row
    graph: np.ndarray  # [B] arange(B): each row's chain
    table: np.ndarray  # [B] each chain's emission table
    phone: np.ndarray  # [B, Q] each state's phone
    finals: np.ndarray  # [B, Q] log final weights
    stay: np.ndarray  # [Q, B] linear weight of q -> q: 1 or 0
    advance: np.ndarray  # [Q, B] linear weight of q -> q + 1: 1 or 0
    floor: np.ndarray  # [2, frames, Q, B] as Sweep.floor, but only where the exact value is positive

    lift = 0.0  # every weight is log 1

    def step(self, x: np.ndarray, back: bool) -> np.ndarray:
        """x [Q, B] one frame along each row's chain: state q gathers from q and
        q - 1, or with ``back`` from q and q + 1, elementwise."""
        out = x * self.stay
        if back:
            out[:-1] += x[1:] * self.advance[:-1]
        else:
            out[1:] += x[:-1] * self.advance[:-1]
        return out

    def fed(self, x: np.ndarray, back: bool) -> np.ndarray:
        """Where an arc from a positive x gathers into a state: every weight is 1."""
        return self.step(x, back) > 0

    def row_graph(self, b: int) -> HmmGraph:
        """Row b's chain as a graph, for its log-space recompute."""
        return chain_graph(self.phone[b, self.stay[:, b] > 0])

    def twice(self) -> Chains:
        """A lone row beside a copy of itself with no frames."""
        padded = self.sym.repeat(2, axis=0), np.append(self.lengths, 0)
        return _chain_sweep([self.phone[0, self.stay[:, 0] > 0]] * 2, padded, self.table.repeat(2))


class Sweep(NamedTuple):
    """Shared state-emitting graphs over padded rows, for _forward_backward; see _sweep."""

    graphs: tuple[HmmGraph, ...]  # for the rows recomputed in log space
    sym: np.ndarray  # [B, frames] symbols, zero-padded
    lengths: np.ndarray  # [B] frames per row
    graph: np.ndarray  # [B] each row's graph
    table: np.ndarray  # [G] arange(G): graph g reads emission table g
    phone: np.ndarray  # [G, Q] each state's phone
    finals: np.ndarray  # [G, Q] log final weights
    lift: np.ndarray  # [G] each graph's largest log weight, 0 when it has no arc
    # [0] forward and [1] backward: row g * Q + q gathers into state q of
    # graph g, from its predecessors or from its successors
    linear: np.ndarray  # [2, G * Q, Q] exp(W - lift)
    arcs: np.ndarray  # [2, G * Q, Q] where W has an arc, whatever its exp
    floor: np.ndarray  # [2, 1, Q, B] _TINY where an arc gathers into state q of row b's graph, else -1
    pick: np.ndarray  # [Q, B] where row b's state q lies in a flattened [G * Q, B] product

    def step(self, x: np.ndarray, back: bool) -> np.ndarray:
        """x [Q, B] one frame through each row's graph, by the stacked product;
        see the module notes on its layout."""
        return (self.linear[int(back)] @ np.asfortranarray(x)).take(self.pick)

    def fed(self, x: np.ndarray, back: bool) -> np.ndarray:
        """Where an arc from a positive x gathers into a state, whatever its exp."""
        return (self.arcs[int(back)] @ (x > 0)).take(self.pick)

    def row_graph(self, b: int) -> HmmGraph:
        """Row b's shared graph, for its log-space recompute."""
        return self.graphs[self.graph[b]]

    def twice(self) -> Sweep:
        """A lone row beside a copy of itself with no frames."""
        return _sweep(self.graphs, (self.sym.repeat(2, axis=0), np.append(self.lengths, 0)), self.graph.repeat(2))


def _binned(post: np.ndarray, base: np.ndarray, sym: np.ndarray, shape: tuple) -> np.ndarray:
    """Each frame's posteriors post[t] summed into an occupancy of ``shape``
    at the flat bins base + sym[t], a few frames per bincount, so that no
    index array as large as ``post`` is made."""
    gamma = np.zeros(int(np.prod(shape)))
    for t in range(0, len(post), 8):
        gamma += np.bincount((base + sym[t : t + 8]).ravel(), weights=post[t : t + 8].ravel(), minlength=len(gamma))
    return gamma.reshape(shape)


def _sweep(graphs: Sequence[HmmGraph], padded: tuple[np.ndarray, np.ndarray], graph) -> Sweep:
    """The graphs in state form over _pad's (sym, lengths), for _forward_backward:
    row b runs on shared graph[b], which reads emission table graph[b]. The
    stacked linear weights are built here, once for every pass."""
    weights, phone, finals = _state_form(graphs)
    # each graph's weights drop by their max, so exp cannot overflow; the
    # pass adds it back, since every frame takes one weight
    lift = weights.max(axis=(1, 2))
    lift[lift == -np.inf] = 0.0
    weights -= lift[:, None, None]
    rows = np.asarray(graph, dtype=np.intp)
    q = phone.shape[1]
    sides = np.stack([weights.transpose(0, 2, 1), weights])  # as Sweep.linear, [2, G, Q, Q]
    arcs = sides > -np.inf
    floor = np.where(arcs.any(axis=3), _TINY, -1.0)[:, rows].transpose(0, 2, 1).copy()[:, None]  # every frame alike
    pick = (rows * q + np.arange(q)[:, None]) * len(rows) + np.arange(len(rows))
    return Sweep(tuple(graphs), *padded, rows, np.arange(len(graphs)), phone, finals, lift,
                 np.exp(sides).reshape(2, -1, q), arcs.reshape(2, -1, q), floor, pick)


def _chain_sweep(phone_seqs: Sequence[Sequence[int]], padded: tuple[np.ndarray, np.ndarray], table) -> Chains:
    """Row b's numerator over _pad's (sym, lengths), the chain over phone_seqs[b]
    on table table[b], as _sweep reads chain_graph's graph (state q > 0
    emits phone q - 1), but kept as its two diagonals, stay and advance."""
    k = np.array([len(p) for p in phone_seqs], dtype=np.intp)[:, None]
    state = np.arange(1 + int(k.max(initial=0)))
    emitting = (state >= 1) & (state <= k)
    phone = np.zeros(emitting.shape, dtype=np.intp)
    phone[emitting] = [p for seq in phone_seqs for p in seq]
    finals = np.where(state == k, 0.0, -np.inf)
    stay, advance = (np.ascontiguousarray(m.T, dtype=float) for m in (emitting, state < k))
    # the exact alpha_t is positive for 1 <= q <= min(t, k), and beta_{t-1}
    # where t - q <= T - k + 1; a state outside that support is never flagged
    t, q, kt, last = np.arange(1, padded[0].shape[1] + 1)[:, None], state, k.T, padded[1]
    live = (q[:, None] <= kt) & (t <= last)[:, None]  # [frames, Q, B]: a state of the chain at a frame of the row
    back = ((q >= (t > 1)) & (q <= t - 1))[:, :, None] & ((t - q)[:, :, None] <= last - kt + 1) & (kt >= 1)
    floor = np.where(np.stack([((q >= 1) & (q <= t))[:, :, None] & live, back & live]), _TINY, -1.0)
    return Chains(*padded, np.arange(len(k)), np.asarray(table, dtype=np.intp), phone, finals, stay, advance, floor)


def _forward_backward(
    sweep: Chains | Sweep, em_logprobs: np.ndarray, occupancy: bool, counted: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Log-likelihoods [B] of a _chain_sweep's or _sweep's rows and, with
    ``occupancy``, the emission counts gamma [T, n_phones, n_symbols] over
    every row, or over the rows the boolean mask ``counted`` marks;
    ``em_logprobs`` stacks the T emission tables. A row no path accepts
    gets total -inf and adds nothing to gamma; nor do the padded frames.
    Scaled in probability space; see the module notes.
    """
    if len(sweep.lengths) == 1:
        # a lone row would take numpy's one-column paths (a gemv product, a pairwise
        # column sum), which round otherwise than a batch's: run it beside a copy of
        # no frames, which no flag or count reaches, and drop the copy's total
        alone = np.array([True if counted is None else counted[0], False])
        totals, gamma = _forward_backward(sweep.twice(), em_logprobs, occupancy, alone)
        return totals[:1], gamma
    sym, lengths, graph, table = sweep.sym, sweep.lengths, sweep.graph, sweep.table
    q = sweep.phone.shape[1]
    batch, frames = sym.shape
    floor_in, floor_out = np.broadcast_to(sweep.floor, (2, frames, q, batch))
    top = em_logprobs.max(axis=1)  # [T, symbols]: each symbol's largest emission over the phones
    top[~(top > -np.inf)] = 0.0  # a symbol no phone emits, or NaN parameters, stay unshifted
    # emit[q, x * G + g] = exp(E[table[g], phone[g, q], x] - top[table[g], x]), so frame t reads its columns at[t]
    emit = np.exp(em_logprobs - top[:, None])[table[:, None], sweep.phone].transpose(1, 2, 0).reshape(q, -1)
    at = (sym * len(table) + graph[:, None]).T
    shift = (top[table].T + sweep.lift).take(at)  # [frames, B]: what each frame's step dropped
    active = np.arange(frames)[:, None] < lengths  # [frames, B]

    alphas = np.zeros((frames + 1, q, batch))
    alphas[0, 0] = 1.0
    scale = np.zeros((frames, batch))  # c_t; 0 once a row has no path left
    redo = np.zeros(batch, dtype=bool)
    for t in range(1, frames + 1):
        a = sweep.step(alphas[t - 1], False) * emit.take(at[t - 1], axis=1)
        low = a < floor_in[t - 1]
        if np.count_nonzero(low):  # cheaper than low.any() on small blocks
            low &= sweep.fed(alphas[t - 1], False)
            redo |= low.any(axis=0) & active[t - 1]
        # a sum below _TINY has been flagged (or is 0 and the row rejected), so the floor changes no kept row
        np.divide(a, np.maximum(np.add.reduce(a, axis=0, out=scale[t - 1]), _TINY), out=alphas[t])
    end = alphas[lengths, :, np.arange(batch)]  # [B, Q]: alpha_hat at each row's last frame
    finals = sweep.finals[graph]
    # the finals drop by their max over the states a row reaches, so exp cannot overflow
    top_final = np.where(end > 0, finals, -np.inf).max(axis=1)
    top_final[~(top_final > -np.inf)] = 0.0
    final = np.exp(finals - top_final[:, None], out=np.zeros_like(end), where=end > 0)
    z = (end * final).sum(axis=1)
    with np.errstate(divide="ignore"):
        totals = np.where(active, np.log(scale) + shift, 0.0).sum(axis=0) + top_final + np.log(z)
    row_table = table[graph]

    def exact(b: int) -> tuple[np.ndarray | None, float]:
        """Row b's total and, with ``occupancy``, its occupancy, by the
        arc-generic recursions in log space."""
        args = (sweep.row_graph(b), em_logprobs[row_table[b]], sym[b, : lengths[b]])
        try:
            return emission_occupancy(*args) if occupancy else (None, _forward(*args)[1])
        except NoPath:
            return None, -np.inf

    redone = {b: exact(b) for b in np.flatnonzero(redo)}  # the backward pass reuses their occupancy
    for b, (_, total) in redone.items():
        totals[b] = total
    if not occupancy:
        return totals, None

    counted = (totals > -np.inf) & (True if counted is None else counted)
    # beta_hat at each row's last frame: its shifted finals over their alpha_hat-weighted sum
    final = np.divide(final, z[:, None], out=np.zeros_like(final), where=(counted & ~redo)[:, None])
    divisor = np.maximum(scale, _TINY)
    beta = np.zeros((q, batch))  # 0 for a row not yet at its last frame, so its posteriors are 0
    for t in range(frames, 0, -1):
        np.copyto(beta, final.T, where=lengths == t)
        b = sweep.step(emit.take(at[t - 1], axis=1) * beta, True)
        low = b < floor_out[t - 1]
        low &= active[t - 1]
        if np.count_nonzero(low):
            low &= sweep.fed(beta, True) & (alphas[t - 1] > 0)
            redo |= low.any(axis=0) & counted
        # beta_hat stays 0 where alpha_hat is: a state the forward pass has
        # not reached would otherwise gain about e_q / c_t a frame, up to inf
        np.copyto(b, 0.0, where=alphas[t - 1] == 0)
        alphas[t] *= beta  # the frame's posteriors replace its alphas
        np.divide(b, divisor[t - 1], out=beta)
    post = alphas[1:]
    post[:, :, redo] = 0.0
    n_phones, n_symbols = em_logprobs.shape[1:]
    base = (row_table * n_phones + sweep.phone[graph].T) * n_symbols  # [Q, B]
    gamma = _binned(post, base, np.ascontiguousarray(sym.T)[:, None], em_logprobs.shape)
    for b in np.flatnonzero(redo & counted):
        gamma[row_table[b]] += (redone.get(b) or exact(b))[0]
    return totals, gamma


class Plan(NamedTuple):
    """Batches compiled for repeated passes; see compile_plan."""

    tasks: tuple[MmiTask, ...]
    rows: tuple[TrainingUtterance, ...]  # every task's batch, task by task
    num: Chains  # each row's numerator, on its task's emissions
    den: Sweep  # each task's denominator, shared by its rows


def compile_plan(batches: Mapping[int, Sequence[TrainingUtterance]], tasks: Sequence[MmiTask]) -> Plan:
    """What every pass over ``batches`` needs but the emissions: each
    numerator as a chain over its transcript's phones, each denominator in
    state form with its linear weights, the padded symbols. It is the only
    input of mmi_gradient and multitask_objective besides the model, so a
    trainer compiles it once per run and passes it to every step."""
    ids = [t.task_id for t in tasks]
    if not tasks or len(set(ids)) != len(ids):
        raise ValueError(f"need at least one task, with distinct ids, got {ids}")
    rows = tuple(utt for task in tasks for utt in batches.get(task.task_id, ()))
    owner = [k for k, task in enumerate(tasks) for _ in batches.get(task.task_id, ())]
    for utt, k in zip(rows, owner):
        if utt.task_id != ids[k]:
            raise ValueError(f"utterance of task {utt.task_id} in batch for task {ids[k]}")
    padded = _pad([utt.symbols for utt in rows])
    phones = [transcript_phones(utt.words, tasks[k].lexicon) for k, utt in zip(owner, rows)]
    den = _sweep([task.den_graph for task in tasks], padded, owner)
    return Plan(tuple(tasks), rows, _chain_sweep(phones, padded, owner), den)


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
    # a denominator row runs on its task's graph
    objectives = np.bincount(plan.den.graph, weights=num - den, minlength=len(plan.tasks)).tolist()
    return objectives, em_logprobs, (num_occ - den_occ if occupancy else None)


def short_transcripts(plan: Plan, consequence: str = "") -> str:
    """How many rows' numerators cannot fit their utterances, ``consequence``
    and the first three transcripts too long to fit; '' when all fit. A chain
    of k phones, whose one final state is k, fits T >= 1 frames when
    1 <= k <= T, so an empty transcript fits none."""
    k = plan.num.finals.argmax(axis=1)
    long = [" ".join(plan.rows[i].words) for i in np.flatnonzero(k > plan.num.lengths)]
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


def multitask_objective(plan: Plan, em: EmissionModel) -> float:
    """Weighted sum of the plan's per-task objectives; reduces to the single objective at T=1, weight 1."""
    return sum(task.alpha * f for task, f in zip(plan.tasks, _plan_pass(plan, em, occupancy=False)[0]))


def mmi_gradient(plan: Plan, em: EmissionModel) -> tuple[EmissionModel, float]:
    """Gradient of the multitask objective with respect to all logits, plus the objective.

    The derivative with respect to task t's emission log-probabilities is
    its numerator minus denominator occupancy d; the log-softmax Jacobian is
    linear in d, so it is applied once per task:

        g[p, s] = d[p, s] - softmax[p, s] * sum_s' d[p, s']

    The shared matrix collects every task's weighted contribution; each bias
    matrix only its own task's. The order is fixed, so repeated runs are
    bit-identical, and the objective is multitask_objective's to the bit.
    An unreachable numerator adds -inf to it and nothing to the gradient,
    and one warning names such rows.
    """
    objectives, em_logprobs, diff = _plan_pass(plan, em, occupancy=True)
    if note := short_transcripts(plan, ", which adds -inf to the objective and nothing to the gradient"):
        logger.warning("%s", note)
    grad = EmissionModel.zeros(*em.shared.shape, em.bias)
    for task, d, lp in zip(plan.tasks, diff, em_logprobs):
        g = d - np.exp(lp) * d.sum(axis=1, keepdims=True)
        grad.shared += task.alpha * g
        grad.bias[task.task_id] += task.alpha * g
    return grad, sum(task.alpha * f for task, f in zip(plan.tasks, objectives))
