"""Spans recorded from outside the program, and the arithmetic on them.

For a traced round the worker replaces module-level names that atckit
looks up at call time with wrappers. Each wrapper records one span (name,
start, end, parent) per call and a few counts at the same boundary. Spans
stay in memory in flat arrays and are written once, when the worker
finishes. Nothing under ``src/`` changes.

A span's self time is its duration minus the durations of its direct
children; everything runs in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    """In-memory span store with a call stack for parent links."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.round = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[int, Counter] = {}
        self.current_round = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.round.append(self.current_round)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts.setdefault(self.current_round, Counter())[key] += n

    def save(self, prefix: str) -> None:
        """Write the spans to ``prefix.npz`` and the counts to ``prefix.counts.json``."""
        with open(prefix + ".counts.json", "w", encoding="utf-8") as stream:
            json.dump({str(r): dict(c) for r, c in self.counts.items()}, stream)
        np.savez(
            prefix + ".npz",
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            round=np.frombuffer(self.round, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def traced(tracer: Tracer, name: str, fn, on_result=None, on_error=None):
    """Wrap a function so every call records one span, then its counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.close(idx)
            if on_error is not None:
                on_error(tracer, args, exc)
            raise
        tracer.close(idx)
        if on_result is not None:
            on_result(tracer, args, result)
        return result

    return wrapper


def traced_iter(tracer: Tracer, name: str, fn, on_item=None):
    """Wrap a generator function so every ``next`` records one span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = iter(fn(*args, **kwargs))
        while True:
            idx = tracer.open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.close(idx)
            if on_item is not None:
                on_item(tracer, item)
            yield item

    return wrapper


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every traced name in place; returns what ``uninstall`` restores."""
    from atckit import classifier, cli, corpus, evaluation, matcher
    from atckit.mmi import model, objective, train

    def count_tokens(t, args, result):
        t.count("corpus.tokens", len(result))

    def count_record(t, item):
        t.count("corpus.records")

    def count_entries(prefix):
        def hook(t, args, result):
            t.count(prefix + ".entries", len(args[0]))

        return hook

    def count_matches(prefix):
        def hook(t, args, result):
            t.count(prefix + ".variants_in", len(args[1]))
            t.count(prefix + ".matches_out", len(result))

        return hook

    def count_rule(t, args, result):
        t.count("classifier.rule." + result[1].fired_rule.value)

    def count_cells(t, args, result):
        t.count("evaluation.wer.cells", len(args[0]) * len(args[1]))

    def count_arc_frames(recursions, graph_at, symbols_at):
        def hook(t, args, result):
            t.count("mmi.objective.arc_frames", recursions * len(args[graph_at].arcs) * len(args[symbols_at]))

        def error(t, args, exc):
            # the forward recursion ran before NoPath was detected
            t.count("mmi.objective.arc_frames", len(args[graph_at].arcs) * len(args[symbols_at]))
            if isinstance(exc, objective.NoPath):
                t.count("mmi.objective.nopath")

        return hook, error

    fwd_hook, fwd_error = count_arc_frames(1, 0, 3)
    occ_hook, occ_error = count_arc_frames(2, 0, 2)
    plan = [
        (corpus, "tokenize", "corpus.tokenize", dict(on_result=count_tokens)),
        (cli, "tokenize", "corpus.tokenize", dict(on_result=count_tokens)),
        (cli, "read_corpus", "corpus.read_corpus", dict(on_item=count_record)),
        (matcher, "parse_callsign", "callsign.parse_callsign", {}),
        (matcher, "expand_callsign", "callsign.expand_callsign", {}),
        (matcher, "expand_context_callsigns", "matcher.expand_context_callsigns",
         dict(on_result=count_entries("matcher.expand_context_callsigns"))),
        (matcher, "find_matches", "matcher.find_matches", dict(on_result=count_matches("matcher.find_matches"))),
        (classifier, "expand_context_callsigns", "classifier.expand_context_callsigns",
         dict(on_result=count_entries("classifier.expand_context_callsigns"))),
        (classifier, "find_matches", "classifier.find_matches",
         dict(on_result=count_matches("classifier.find_matches"))),
        (classifier, "classify", "classifier.classify", dict(on_result=count_rule)),
        (evaluation, "wer", "evaluation.wer", dict(on_result=count_cells)),
        (cli, "accumulate", "evaluation.accumulate", {}),
        (model, "log_softmax", "mmi.model.log_softmax", {}),
        (model.MmiTask, "numerator_graph", "mmi.model.numerator_graph", {}),
        (model, "build_numerator", "mmi.graphs.build_numerator", {}),
        (train, "build_denominator", "mmi.graphs.build_denominator", {}),
        (objective, "forward_logprob", "mmi.objective.forward_logprob",
         dict(on_result=fwd_hook, on_error=fwd_error)),
        (objective, "emission_occupancy", "mmi.objective.emission_occupancy",
         dict(on_result=occ_hook, on_error=occ_error)),
        (train, "mmi_gradient", "mmi.objective.mmi_gradient", {}),
        (train, "multitask_objective", "mmi.objective.multitask_objective", {}),
        (cli, "toy_train", "mmi.train.toy_train", {}),
    ]
    undo = []
    for owner, attr, name, hooks in plan:
        original = getattr(owner, attr)
        if "on_item" in hooks:
            wrapper = traced_iter(tracer, name, original, **hooks)
        else:
            wrapper = traced(tracer, name, original, **hooks)
        undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# ------------------------------------------------------------ span arithmetic


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children."""
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - child


class SpanTable:
    """Spans of one round, indexed by name, with durations and self times."""

    def __init__(self, names, name, parent, start, end):
        self.names = list(names)
        self.name = np.asarray(name)
        self.parent = np.asarray(parent)
        self.start = np.asarray(start)
        self.end = np.asarray(end)
        self.dur = self.end - self.start
        self.self_time = self_times(self.start, self.end, self.parent)

    @classmethod
    def load(cls, path, round_: int) -> "SpanTable":
        data = np.load(path)
        keep = data["round"] == round_
        # parent links index the whole file; renumber them into this round
        index = np.full(len(keep), -1, dtype=np.int64)
        index[keep] = np.arange(int(keep.sum()))
        parent = data["parent"][keep]
        parent = np.where(parent >= 0, index[np.maximum(parent, 0)], -1)
        return cls(data["names"], data["name"][keep], parent, data["start"][keep], data["end"][keep])

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(name)

    def total(self, name: str) -> float:
        return float(self.dur[self.mask(name)].sum())

    def self_total(self, name: str) -> float:
        return float(self.self_time[self.mask(name)].sum())

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def _under(self, name: str, parent_name: str) -> np.ndarray:
        idx = np.flatnonzero(self.mask(name) & (self.parent >= 0))
        return idx[self.mask(parent_name)[self.parent[idx]]]

    def calls_under(self, name: str, parent_name: str) -> int:
        return len(self._under(name, parent_name))

    def total_under(self, name: str, parent_name: str) -> float:
        return float(self.dur[self._under(name, parent_name)].sum())

    def steps(self, loop: str, step: str, check: str) -> list[float]:
        """Durations of training steps: each ``step`` child through the next ``check`` child."""
        out = []
        for idx in np.flatnonzero(self.mask(loop)):
            kids = np.flatnonzero(self.parent == idx)
            kids = kids[np.argsort(self.start[kids])]
            names = [self.names[self.name[k]] for k in kids]
            for a, b, na, nb in zip(kids, kids[1:], names, names[1:]):
                if na == step and nb == check:
                    out.append(float(self.end[b] - self.start[a]))
        return out
