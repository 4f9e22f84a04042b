"""Self-contained numerical verification of the objective machinery.

Everything the dynamic programs compute is re-derived here by slower,
independent means: likelihoods by enumerating every path outright, and
gradients by central finite differences of the objective. The CLI's
``mmi-check`` subcommand runs this suite on randomized small instances and
fails loudly on any disagreement, so a broken recursion cannot hide.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .graphs import HmmGraph, build_denominator, phone_bigram_counts
from .model import EmissionModel, MmiTask, TrainingUtterance, log_softmax
from .objective import (
    NoPath,
    _forward_backward,
    _sweep,
    compile_plan,
    emission_occupancy,
    forward_logprob,
    mmi_gradient,
    mmi_objective,
    multitask_objective,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def enumerate_logprob(
    graph: HmmGraph, em: EmissionModel, task_id: int, symbols: Sequence[int]
) -> float:
    """Likelihood by explicit enumeration of every accepting path.

    Exponential in the sequence length; intended for tiny graphs only.
    Returns -inf when no path accepts, mirroring NoPath.
    """
    em_logprobs = em.log_probs(task_id)
    finals = graph.finals.tolist()
    arcs_from: dict[int, list[tuple[int, int, int, float]]] = {}
    for arc in graph.arcs.tolist():
        arcs_from.setdefault(arc[0], []).append(arc)
    scores: list[float] = []

    def walk(state: int, t: int, acc: float) -> None:
        if t == len(symbols):
            if finals[state] > -math.inf:
                scores.append(acc + finals[state])
            return
        for _, dst, phone, weight in arcs_from.get(state, ()):
            walk(dst, t + 1, acc + weight + float(em_logprobs[phone, symbols[t]]))

    walk(0, 0, 0.0)
    if not scores:
        return -math.inf
    peak = max(scores)
    return peak + math.log(sum(math.exp(s - peak) for s in scores))


def finite_difference_gradient(
    objective: Callable[[EmissionModel], float], em: EmissionModel, step: float = 1e-5
) -> EmissionModel:
    """Central-difference gradient of an objective over every parameter."""
    grad = EmissionModel.zeros(*em.shared.shape, em.bias)

    def fill(param: np.ndarray, out: np.ndarray) -> None:
        for idx in np.ndindex(param.shape):
            original = param[idx]
            param[idx] = original + step
            plus = objective(em)
            param[idx] = original - step
            minus = objective(em)
            param[idx] = original
            out[idx] = (plus - minus) / (2.0 * step)

    fill(em.shared, grad.shared)
    for tid in em.bias:
        fill(em.bias[tid], grad.bias[tid])
    return grad


def gradient_relative_error(analytic: EmissionModel, numeric: EmissionModel) -> float:
    """Norm-wise relative disagreement between two gradients.

    Per-coordinate relative error is meaningless near zero crossings, so
    the comparison stacks every parameter into one vector and takes
    ||a - n|| / max(||a||, ||n||).
    """
    a = np.concatenate([analytic.shared.ravel()] + [analytic.bias[t].ravel() for t in sorted(analytic.bias)])
    n = np.concatenate([numeric.shared.ravel()] + [numeric.bias[t].ravel() for t in sorted(numeric.bias)])
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(n)), 1e-300)
    return float(np.linalg.norm(a - n)) / denom


def random_instance(rng: random.Random, n_tasks: int = 1) -> tuple[
    list[MmiTask], dict[int, list[TrainingUtterance]], EmissionModel
]:
    """A small random multitask problem with valid graphs and parameters."""
    n_phones = rng.randint(2, 3)
    n_symbols = rng.randint(2, 4)
    words = {}
    for w in range(rng.randint(1, 3)):
        words[f"w{w}"] = tuple(rng.randrange(n_phones) for _ in range(rng.randint(1, 2)))
    tasks = []
    batches: dict[int, list[TrainingUtterance]] = {}
    for tid in range(1, n_tasks + 1):
        utts = []
        for _ in range(rng.randint(1, 2)):
            transcript = tuple(rng.choice(sorted(words)) for _ in range(rng.randint(1, 2)))
            n_state_phones = sum(len(words[w]) for w in transcript)
            n_frames = rng.randint(max(1, n_state_phones), max(1, n_state_phones) + 2)
            symbols = tuple(rng.randrange(n_symbols) for _ in range(n_frames))
            utts.append(TrainingUtterance(task_id=tid, symbols=symbols, words=transcript))
        counts = phone_bigram_counts(
            [[p for w in u.words for p in words[w]] for u in utts]
        )
        tasks.append(
            MmiTask(
                task_id=tid,
                phones=tuple(f"p{i}" for i in range(n_phones)),
                lexicon=words,
                den_graph=build_denominator(range(n_phones), counts),
                alpha=rng.choice([0.5, 1.0, 2.0]),
            )
        )
        batches[tid] = utts
    em = EmissionModel(
        shared=np.array(
            [[rng.uniform(-1.0, 1.0) for _ in range(n_symbols)] for _ in range(n_phones)]
        ),
        bias={
            t.task_id: np.array(
                [[rng.uniform(-0.5, 0.5) for _ in range(n_symbols)] for _ in range(n_phones)]
            )
            for t in tasks
        },
    )
    return tasks, batches, em


def random_graph(rng: random.Random, n_states: int, n_phones: int) -> HmmGraph:
    """Random acceptor with a guaranteed start-to-final backbone."""
    # (src, dst, phone, weight) tuples, drawn in that order
    arcs = [(i, i + 1, rng.randrange(n_phones), rng.uniform(-1.5, 0.0)) for i in range(n_states - 1)]
    for _ in range(rng.randint(0, 2 * n_states)):
        arcs.append(
            (rng.randrange(n_states), rng.randrange(n_states), rng.randrange(n_phones), rng.uniform(-1.5, 0.0))
        )
    finals = np.full(n_states, -np.inf)
    finals[n_states - 1] = rng.uniform(-1.0, 0.0)
    if n_states > 1 and rng.random() < 0.4:
        finals[rng.randrange(n_states)] = rng.uniform(-1.0, 0.0)
    return HmmGraph(arcs, finals)


def check_forward_enumeration(
    rng: random.Random, instances: int, tolerance: float = 1e-10
) -> CheckResult:
    """Forward recursion equals explicit path enumeration on small graphs."""
    worst = 0.0
    for _ in range(instances):
        n_states = rng.randint(1, 4)
        n_phones = rng.randint(1, 3)
        n_symbols = rng.randint(2, 4)
        graph = random_graph(rng, n_states, n_phones)
        em = EmissionModel(
            shared=np.array(
                [[rng.uniform(-1.0, 1.0) for _ in range(n_symbols)] for _ in range(n_phones)]
            ),
            bias={0: np.zeros((n_phones, n_symbols))},
        )
        symbols = tuple(rng.randrange(n_symbols) for _ in range(rng.randint(0, 5)))
        expected = enumerate_logprob(graph, em, 0, symbols)
        if expected == -math.inf:
            try:
                forward_logprob(graph, em, 0, symbols)
            except NoPath:
                continue
            return CheckResult(
                "forward_vs_enumeration", False, "forward accepted a sequence with no path"
            )
        got = forward_logprob(graph, em, 0, symbols)
        worst = max(worst, abs(got - expected))
        if abs(got - expected) > tolerance:
            return CheckResult(
                "forward_vs_enumeration",
                False,
                f"forward {got!r} vs enumeration {expected!r}",
            )
    return CheckResult(
        "forward_vs_enumeration", True, f"{instances} instances, max |diff| {worst:.3e}"
    )


def check_gradient_fd(
    rng: random.Random, instances: int, step: float = 1e-5, tolerance: float = 1e-5
) -> CheckResult:
    """Analytic gradient matches central finite differences, single and
    multitask, and the gradient pass's objective equals the forward-only one exactly."""
    worst = 0.0
    for k in range(instances):
        tasks, batches, em = random_instance(rng, n_tasks=1 + k % 2)
        analytic, objective = mmi_gradient(batches, tasks, em)
        if objective != multitask_objective(batches, tasks, em):
            detail = f"gradient pass objective {objective!r} != multitask_objective"
            return CheckResult("gradient_vs_finite_differences", False, detail)
        numeric = finite_difference_gradient(
            lambda m: multitask_objective(batches, tasks, m), em, step=step
        )
        err = gradient_relative_error(analytic, numeric)
        worst = max(worst, err)
        if err > tolerance:
            return CheckResult(
                "gradient_vs_finite_differences", False, f"relative error {err:.3e}"
            )
    return CheckResult(
        "gradient_vs_finite_differences",
        True,
        f"{instances} instances, worst relative error {worst:.3e}",
    )


def check_matched_graphs_zero(rng: random.Random, instances: int, tolerance: float = 1e-10) -> CheckResult:
    """Identical numerator and denominator give objective and gradient 0, to rounding."""
    top_objective = top_grad = 0.0
    for _ in range(instances):
        tasks, batches, em = random_instance(rng, n_tasks=1)
        task = tasks[0]
        utt = batches[task.task_id][0]
        num = task.numerator_graph(utt.words)
        matched = dataclasses.replace(task, den_graph=num, alpha=1.0)
        batch = {task.task_id: [utt]}
        objective = mmi_objective([utt], matched, em)
        grad, _ = mmi_gradient(batch, [matched], em)
        if abs(objective) > tolerance or grad.max_abs() > tolerance:
            return CheckResult(
                "matched_graphs_zero",
                False,
                f"objective {objective!r}, max |grad| {grad.max_abs():.3e}",
            )
        top_objective, top_grad = max(top_objective, abs(objective)), max(top_grad, grad.max_abs())
    detail = f"{instances} instances, worst |objective| {top_objective:.3e}, max |grad| {top_grad:.3e}"
    return CheckResult("matched_graphs_zero", True, detail)


def check_single_task_reduction(rng: random.Random, instances: int) -> CheckResult:
    """At T=1 with weight 1 the multitask objective is bit-identical to the task objective."""
    for _ in range(instances):
        tasks, batches, em = random_instance(rng, n_tasks=1)
        task = dataclasses.replace(tasks[0], alpha=1.0)
        combined = multitask_objective(batches, [task], em)
        single = mmi_objective(batches[task.task_id], task, em)
        if combined != single:
            return CheckResult(
                "single_task_reduction", False, f"{combined!r} != {single!r}"
            )
    return CheckResult("single_task_reduction", True, f"{instances} instances, bit-identical")


def _batched_cases(rng: random.Random, instances: int) -> Iterator[tuple]:
    """check_batched_vs_generic's batches, each as (sweep, emission tables,
    each row's graph, each row's table, each row's symbols): a fixed graph
    that draws nothing from rng, then four batches per instance."""
    # every path to the one final state takes the -800 arc, so each total is
    # -inf unless the denominators' underflow guard recomputes in log space
    guard = HmmGraph([(0, 1, 0, 0.0), (1, 1, 0, 0.0), (1, 2, 1, -800.0), (2, 2, 1, 0.0)], [-math.inf, -math.inf, 0.0])
    guard_seqs = [(0, 1), (0, 1, 1), (1, 0, 1, 0)]
    guard_lp = log_softmax(np.array([[0.3, -0.4], [-1.1, 0.6]]))[None]
    yield _sweep([guard], guard_seqs, [0], [0] * 3), guard_lp, [guard] * 3, [0] * 3, guard_seqs
    for _ in range(instances):
        n_phones, n_symbols = rng.randint(1, 3), rng.randint(2, 4)
        logits = np.array([[rng.uniform(-3.0, 3.0) for _ in range(n_symbols)] for _ in range(n_phones)])
        drawn = [random_graph(rng, rng.randint(1, 4), n_phones) for _ in range(3)]
        graphs = [HmmGraph([(s, d, d % n_phones, w) for s, d, _, w in g.arcs.tolist() if d], g.finals) for g in drawn]
        seqs = [tuple(rng.randrange(n_symbols) for _ in range(rng.randint(0, 5))) for _ in graphs]
        tasks, batches, em = random_instance(rng, n_tasks=2)
        batches[2].append(TrainingUtterance(2, (0,), tuple(sorted(tasks[1].lexicon)) * 2))  # too short
        batches[1].append(TrainingUtterance(1, (0, 1), ()))  # a one-state chain, which fits no frame
        plan = compile_plan(batches, tasks)
        owner = [u.task_id - 1 for u in plan.rows]  # random_instance numbers its tasks from 1
        plan_seqs = [u.symbols for u in plan.rows]
        lp, plan_lp = log_softmax(logits)[None], np.stack([em.log_probs(t.task_id) for t in tasks])
        yield _sweep(graphs, seqs, [0] * 3, range(3)), lp, graphs, [0] * 3, seqs
        yield _sweep(graphs[:1], seqs, [0], [0] * 3), lp, graphs[:1] * 3, [0] * 3, seqs
        yield plan.den, plan_lp, [tasks[k].den_graph for k in owner], owner, plan_seqs
        yield plan.num, plan_lp, [tasks[k].numerator_graph(u.words) for k, u in zip(owner, plan.rows)], owner, plan_seqs


def check_batched_vs_generic(rng: random.Random, instances: int, tolerance: float = 1e-12) -> CheckResult:
    """The batched forward-backward that training runs agrees with the
    arc-generic forward and occupancy, sequence by sequence.

    A fixed guard graph comes first: its one final state is entered only
    through a -800 arc, so it fails without the denominators' underflow
    guard. Each instance then runs four batches: random state-emitting
    graphs, one per sequence and one shared, each random_graph's draw
    without its arcs into state 0 and with every arc relabelled by its
    destination's phone (dst % n_phones); and both sweeps of a two-task
    plan, with one utterance too short for its numerator and one with an
    empty transcript. Totals are compared relative to max(1, |total|), the
    summed occupancy relative to max(1, its largest entry); a sequence the
    generic forward rejects must get total -inf.
    """
    worst = 0.0
    for sweep, tables, row_graphs, row_tables, symbols in _batched_cases(rng, instances):
        totals, occupancy = _forward_backward(sweep, tables, occupancy=True)
        expected = np.zeros(tables.shape)
        for i, seq in enumerate(symbols):
            try:
                occ, total = emission_occupancy(row_graphs[i], tables[row_tables[i]], seq)
            except NoPath:
                if totals[i] != -np.inf:
                    return CheckResult(
                        "batched_vs_generic", False, f"batched total {float(totals[i])!r} where no path accepts"
                    )
                continue
            expected[row_tables[i]] += occ
            err = abs(totals[i] - total) / max(1.0, abs(total))
            worst = max(worst, err)
            if not err <= tolerance:
                return CheckResult(
                    "batched_vs_generic", False, f"batched total {float(totals[i])!r} vs generic {total!r}"
                )
        err = float(np.abs(occupancy - expected).max()) / max(1.0, float(expected.max()))
        worst = max(worst, err)
        if not err <= tolerance:
            return CheckResult("batched_vs_generic", False, f"occupancy relative error {err:.3e}")
    return CheckResult(
        "batched_vs_generic", True, f"guard graph and {instances} instances, worst relative error {worst:.3e}"
    )


ENUM_INSTANCES = 80
FD_INSTANCES = 30
ZERO_INSTANCES = 10  # each for the matched-graphs and the single-task check
BATCHED_INSTANCES = 40


def run_verification(seed: int = 12345) -> list[CheckResult]:
    """Run the full suite; every CheckResult reports one named check."""
    rng = random.Random(seed)
    return [
        check_forward_enumeration(rng, ENUM_INSTANCES),
        check_gradient_fd(rng, FD_INSTANCES),
        check_matched_graphs_zero(rng, ZERO_INSTANCES),
        check_single_task_reduction(rng, ZERO_INSTANCES),
        check_batched_vs_generic(rng, BATCHED_INSTANCES),
    ]
