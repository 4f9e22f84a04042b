"""Acceptance gate: one test per shipped criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the pass/fail lines;
each test also asserts, so the plain exit status is authoritative.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from atckit.classifier import classify_corpus
from atckit.cli import main
from atckit.corpus import RoleLabel, Utterance
from atckit.evaluation import ConfusionMatrix, accumulate, rates, wer
from atckit.matcher import filter_corpus, find_matches
from atckit.mmi import (
    EmissionModel,
    MmiTask,
    NoPath,
    TrainingUtterance,
    build_tasks,
    forward_logprob,
    mmi_gradient,
    mmi_objective,
    multitask_objective,
    pool_corpus,
    toy_train,
)
from atckit.mmi.check import random_graph, random_instance

from synth import (
    branch_cases,
    brute_force_matches,
    canon_matches,
    edit_distance,
    enumerate_logprob_oracle,
    fd_gradient_oracle,
    make_planted_corpus,
    relative_gradient_error,
    safe_fillers,
    variant_pool,
    write_corpus,
)

# an inf - inf in the -inf arithmetic of the MMI recursions warns before it spreads NaN
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out.splitlines()[0])


def test_c1_callsign_expansion_fidelity(capsys):
    started = time.monotonic()
    code, manifest = run_cli(capsys, ["expand", "--callsign", "TVS84J"])
    tvs_ok = code == 0 and [v["text"] for v in manifest["result"]["variants"]] == [
        "skytravel eight four juliett",
        "tango victor sierra eight four juliett",
        "eight four juliett",
    ]
    code, manifest = run_cli(capsys, ["expand", "--callsign", "LUF189AF"])
    luf_texts = {v["text"] for v in manifest["result"]["variants"]}
    luf_ok = code == 0 and {
        "lufthansa one eight nine alfa foxtrot",
        "one eight nine alfa foxtrot",
    } <= luf_texts
    elapsed = time.monotonic() - started
    report(
        "C1 callsign expansion fidelity",
        tvs_ok and luf_ok and elapsed < 1.0,
        f"{elapsed:.2f}s",
    )


def test_c2_matcher_oracle_equivalence(telephony):
    rng = random.Random(20260808)
    started = time.monotonic()
    fillers = ("gate", "apron", "morning", "hello", "behind", "station")
    discrepancies = 0
    total = 0
    for _ in range(50):  # 50 variant sets x 200 utterances = 10,000
        variants = variant_pool(rng, telephony, rng.randint(2, 16), max_variants=50)
        assert len(variants) <= 50
        vocab = list(fillers) + [t for _, v in variants for t in v.tokens]
        plantable = [v for _, v in variants if len(v.tokens) <= 6]
        for _ in range(200):
            tokens = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
            if plantable and rng.random() < 0.25:
                planted = rng.choice(plantable)
                at = rng.randint(0, max(0, min(len(tokens), 12 - len(planted.tokens))))
                tokens[at:at] = list(planted.tokens)
                tokens = tokens[:12]
            utt = Utterance("u", tuple(tokens))
            total += 1
            if canon_matches(find_matches(utt, variants)) != brute_force_matches(
                utt.tokens, variants
            ):
                discrepancies += 1
    elapsed = time.monotonic() - started
    report(
        "C2 matcher equals brute-force oracle",
        total == 10000 and discrepancies == 0 and elapsed < 30.0,
        f"{total} utterances, {discrepancies} discrepancies, {elapsed:.1f}s",
    )


def test_c3_classifier_rule_conformance(role_lexicon, telephony):
    rng = random.Random(20260809)
    cases = branch_cases(rng, 120, role_lexicon, telephony)  # 5 branches x 120 = 600
    tagged = list(classify_corpus((c["utterance"] for c in cases), role_lexicon, telephony))
    wrong = 0
    for case, (utt, label, trace) in zip(cases, tagged):
        ok = label is case["label"] and trace.fired_rule.value == case["rule"]
        if case["keyword"] is not None:
            ok = ok and trace.evidence == case["keyword"]
        wrong += not ok
    report(
        "C3 classifier branch conformance",
        len(cases) >= 500 and wrong == 0,
        f"{len(cases)} generated utterances, {wrong} misrouted",
    )


def test_c4_metric_reproduction():
    first = rates(ConfusionMatrix(tp=856, fn=204, fp=188, tn=1092))
    second = rates(ConfusionMatrix(tp=660, fn=115, fp=179, tn=708))
    ok = (
        round(first.tpr * 100, 2) == 80.75
        and round(first.tnr * 100, 2) == 85.31
        and round(first.tpr * 100) == 81
        and round(first.tnr * 100) == 85
        and round(second.tpr * 100) == 85
        and round(second.tnr * 100) == 80
    )
    report(
        "C4 confusion-rate reproduction",
        ok,
        f"{first.tpr * 100:.2f}/{first.tnr * 100:.2f} and {second.tpr * 100:.2f}/{second.tnr * 100:.2f}",
    )


def test_c5_wer_oracle_equivalence():
    rng = random.Random(20260810)
    vocab = ["turn", "left", "right", "heading", "two", "five", "zero", "contact"]
    mismatches = 0
    identity_failures = 0
    for i in range(10000):
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 15))]
        if i % 10 == 0:
            hyp = list(ref)
        else:
            hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 15))]
        out = wer(ref, hyp)
        if out.total_edits != edit_distance(ref, hyp):
            mismatches += 1
        if hyp == ref and out.wer != 0.0:
            identity_failures += 1
    report(
        "C5 WER equals DP oracle",
        mismatches == 0 and identity_failures == 0,
        f"10000 pairs, {mismatches} edit mismatches, {identity_failures} identity failures",
    )


def test_c6_mmi_numerical_suite():
    started = time.monotonic()
    rng = random.Random(20260811)

    # (a) forward equals enumeration on every size up to 4 states x 5 frames
    worst_forward = 0.0
    forward_ok = True
    for n_states in range(1, 5):
        for n_frames in range(0, 6):
            for _ in range(6):
                n_phones = rng.randint(1, 3)
                n_symbols = rng.randint(2, 4)
                graph = random_graph(rng, n_states, n_phones)
                em = EmissionModel(
                    shared=np.array(
                        [[rng.uniform(-1, 1) for _ in range(n_symbols)] for _ in range(n_phones)]
                    ),
                    bias={0: np.zeros((n_phones, n_symbols))},
                )
                symbols = tuple(rng.randrange(n_symbols) for _ in range(n_frames))
                expected = enumerate_logprob_oracle(graph, em.log_probs(0), symbols)
                if expected == -math.inf:
                    with pytest.raises(NoPath):
                        forward_logprob(graph, em, 0, symbols)
                    continue
                diff = abs(forward_logprob(graph, em, 0, symbols) - expected)
                worst_forward = max(worst_forward, diff)
                forward_ok = forward_ok and diff <= 1e-10

    # (b) analytic gradient vs central finite differences, 100 instances
    worst_grad = 0.0
    grad_ok = True
    for k in range(100):
        tasks, batches, em = random_instance(rng, n_tasks=1 + k % 2)
        analytic, _ = mmi_gradient(batches, tasks, em)
        numeric = fd_gradient_oracle(
            lambda m: multitask_objective(batches, tasks, m), em, step=1e-5
        )
        err = relative_gradient_error(analytic, numeric)
        worst_grad = max(worst_grad, err)
        grad_ok = grad_ok and err <= 1e-5

    # (c) matched numerator and denominator: objective and gradient at zero
    zero_ok = True
    for _ in range(10):
        tasks, batches, em = random_instance(rng, n_tasks=1)
        task = tasks[0]
        utt = batches[task.task_id][0]
        matched = MmiTask(
            task.task_id, task.phones, task.lexicon,
            task.numerator_graph(utt.words), alpha=1.0,
        )
        objective = mmi_objective([utt], matched, em)
        grad, _ = mmi_gradient({task.task_id: [utt]}, [matched], em)
        zero_ok = zero_ok and abs(objective) <= 1e-10 and grad.max_abs() <= 1e-10

    # (d) T=1, weight 1: multitask equals the single objective bit-for-bit
    reduction_ok = True
    for _ in range(10):
        tasks, batches, em = random_instance(rng, n_tasks=1)
        task = MmiTask(
            tasks[0].task_id, tasks[0].phones, tasks[0].lexicon,
            tasks[0].den_graph, alpha=1.0,
        )
        reduction_ok = reduction_ok and multitask_objective(
            batches, [task], em
        ) == mmi_objective(batches[task.task_id], task, em)

    elapsed = time.monotonic() - started
    report(
        "C6 MMI numerical suite",
        forward_ok and grad_ok and zero_ok and reduction_ok and elapsed < 120.0,
        f"forward max diff {worst_forward:.1e}, grad max rel err {worst_grad:.1e}, {elapsed:.1f}s",
    )


def test_c7_multitask_demonstration():
    word_phones = {"ab": ("a", "b"), "ba": ("b", "a")}
    corpus = {
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
    config = dict(steps=200, learning_rate=0.1)

    multitask = toy_train(build_tasks(corpus, word_phones, alpha=0.5), corpus, n_symbols=2, **config)
    strict_improvement = multitask.final_objective > multitask.initial_objective

    singles = {}
    for task in build_tasks(corpus, word_phones, alpha=1.0):
        singles[task.task_id] = toy_train(
            [task], {task.task_id: corpus[task.task_id]}, n_symbols=2, **config
        )
    pooled_corpus = pool_corpus(corpus)
    pooled = toy_train(
        build_tasks(pooled_corpus, word_phones, alpha=1.0), pooled_corpus, n_symbols=2, **config
    )
    pooled_logits = pooled.model.effective_logits(0)

    pooled_never_wins = True
    gaps = []
    for task in build_tasks(corpus, word_phones, alpha=1.0):
        batch = corpus[task.task_id]
        em_pooled = EmissionModel(
            shared=pooled_logits.copy(), bias={task.task_id: np.zeros_like(pooled_logits)}
        )
        f_pooled = mmi_objective(batch, task, em_pooled)
        single_logits = singles[task.task_id].model.effective_logits(task.task_id)
        em_single = EmissionModel(
            shared=single_logits.copy(), bias={task.task_id: np.zeros_like(single_logits)}
        )
        f_single = mmi_objective(batch, task, em_single)
        pooled_never_wins = pooled_never_wins and f_pooled <= f_single
        gaps.append(f_single - f_pooled)
    report(
        "C7 multitask demonstration",
        strict_improvement and pooled_never_wins,
        f"objective {multitask.initial_objective:.2f} -> {multitask.final_objective:.2f}, "
        f"single-minus-pooled gaps {gaps[0]:.2f}/{gaps[1]:.2f}",
    )


def test_c8_pipeline_partition_and_round_trip(tmp_path, capsys, telephony, role_lexicon):
    rng = random.Random(20260812)
    fillers = safe_fillers(role_lexicon, telephony)

    partition_ok = True
    for _ in range(30):
        n = rng.randint(0, 80)
        n_planted = rng.randint(0, n) if n else 0
        corpus, _ = make_planted_corpus(rng, n, n_planted, telephony, fillers)
        kept, stats = filter_corpus(iter(corpus), telephony)
        n_kept = sum(1 for _ in kept)
        partition_ok = partition_ok and (
            stats.kept == n_kept and stats.kept + stats.dropped == stats.total == n
        )

    # larger planted corpus recovers its ground truth exactly
    corpus, kept_ids = make_planted_corpus(rng, 1000, 175, telephony, fillers)
    kept, stats = filter_corpus(iter(corpus), telephony)
    recovered = {utt.id for utt, _ in kept}
    planted_ok = recovered == kept_ids and stats.kept == 175

    # classify -> serialize -> evaluate equals the in-process matrix exactly;
    # flipping some gold labels populates every confusion cell
    cases = branch_cases(rng, 25, role_lexicon, telephony)
    flip = {RoleLabel.ATCO: RoleLabel.PILOT, RoleLabel.PILOT: RoleLabel.ATCO}
    labeled = [
        Utterance(
            c["utterance"].id,
            c["utterance"].tokens,
            gold_role=flip[c["label"]] if rng.random() < 0.3 else c["label"],
            context_callsigns=c["utterance"].context_callsigns,
        )
        for c in cases
    ]
    in_process = accumulate(
        (label, utt.gold_role)
        for utt, label, _ in classify_corpus(iter(labeled), role_lexicon, telephony)
    )
    src = tmp_path / "corpus.jsonl"
    write_corpus(labeled, src)
    prefix = str(tmp_path / "round")
    code1, _ = run_cli(capsys, ["classify", "--corpus", str(src), "--out-prefix", prefix])
    code2, manifest = run_cli(
        capsys, ["evaluate", "--gold", str(src), "--pred", prefix + ".traces.jsonl"]
    )
    round_trip_ok = code1 == 0 and code2 == 0 and manifest["result"]["matrix"] == in_process.to_json()

    report(
        "C8 pipeline partition and round trip",
        partition_ok and planted_ok and round_trip_ok,
        f"planted kept {stats.kept}/1000, matrix {in_process.to_json()}",
    )
