"""HMM-style acceptors for the discriminative objective, in the log domain.

A graph is two arrays. ``arcs`` holds one (src, dst, phone, weight) record
per arc, with ``ARC_DTYPE`` as its dtype and the weight a natural log.
``finals`` holds one final log weight per state, -inf where the state is
not final, so its length is the state count. State 0 is the start. The
builders write both arrays directly and the recursions in ``objective``
index their fields, so no Python object exists per arc.

Each arc consumes exactly one observation frame and scores it with the
emission distribution of its phone label, so a path of length T accepts an
observation sequence of length T. Two graph shapes matter here:

* the numerator: a linear chain over the transcript's phone sequence with
  one self-loop per emitting state, accepting every monotonic alignment of
  at least one frame per phone;
* the denominator: a phone loop weighted by an add-one-smoothed bigram
  phone LM, accepting every non-empty phone sequence.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..mmi_base import OovWord

ARC_DTYPE = np.dtype([("src", np.int64), ("dst", np.int64), ("phone", np.int64), ("weight", np.float64)])


@dataclass(frozen=True, eq=False)
class HmmGraph:
    """Arc-emitting acceptor: states 0..n_states-1, start state 0, weighted finals.

    ``arcs`` takes anything ``np.asarray`` turns into ``ARC_DTYPE`` records,
    such as a list of (src, dst, phone, weight) tuples; ``finals`` takes one
    log weight per state. Both are stored as arrays.
    """

    arcs: np.ndarray  # ARC_DTYPE records
    finals: np.ndarray  # [n_states] final log weight, -inf for a non-final state

    def __post_init__(self) -> None:
        object.__setattr__(self, "arcs", np.asarray(self.arcs, dtype=ARC_DTYPE))
        object.__setattr__(self, "finals", np.asarray(self.finals, dtype=np.float64))
        arcs, finals = self.arcs, self.finals
        if arcs.ndim != 1:  # lists, unlike tuples, become one record per number
            raise ValueError("arcs must be one (src, dst, phone, weight) record per arc")
        if finals.ndim != 1 or not finals.size:
            raise ValueError(f"finals must be one weight per state, at least one, got shape {finals.shape}")
        n = self.n_states
        top = finals.max()
        if not top < np.inf:  # max is NaN when any weight is
            raise ValueError("a final weight is NaN or +inf")
        if top == -np.inf:
            raise ValueError("graph has no final states")
        src, dst = arcs["src"], arcs["dst"]
        for bad, what in (
            ((np.minimum(src, dst) < 0) | (np.maximum(src, dst) >= n), "has a state out of range"),
            (arcs["phone"] < 0, "has a negative phone label"),
            (~np.isfinite(arcs["weight"]), "weight is not finite"),
        ):
            if bad.any():
                i = int(bad.argmax())
                raise ValueError(f"arc {i} {arcs[i]} {what}")
        if not self._reaches_final():
            raise ValueError("no path from start to any final state")

    @property
    def n_states(self) -> int:
        return len(self.finals)

    def _reaches_final(self) -> bool:
        """Depth-first search from state 0; each arc is followed at most once."""
        order = np.argsort(self.arcs["src"], kind="stable")
        # arcs leaving state s are targets[first[s]:first[s + 1]]
        first = np.searchsorted(self.arcs["src"][order], np.arange(self.n_states + 1)).tolist()
        targets = self.arcs["dst"][order].tolist()
        final = np.isfinite(self.finals).tolist()
        seen = {0}
        stack = [0]
        while stack:
            state = stack.pop()
            if final[state]:
                return True
            for nxt in targets[first[state]:first[state + 1]]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False


def transcript_phones(words: Sequence[str], lexicon: Mapping[str, Sequence[int]]) -> list[int]:
    """The lexicon phones of ``words``, concatenated; raises OovWord for a word the lexicon lacks."""
    for word in words:
        if word not in lexicon:
            raise OovWord(f"word {word!r} not in lexicon")
    return [p for word in words for p in lexicon[word]]


def build_numerator(words: Sequence[str], lexicon: Mapping[str, Sequence[int]]) -> HmmGraph:
    """Linear alignment graph for one transcript: chain_graph over the
    lexicon phone sequences of ``words``, concatenated."""
    return chain_graph(transcript_phones(words, lexicon))


def chain_graph(phones: Sequence[int]) -> HmmGraph:
    """The chain over ``phones``: every emitting state carries a self-loop,
    so any observation length at least the phone count is accepted. All arc
    and final weights are log 1. No phones yield the single-state graph
    accepting only the empty sequence. Arc 2i is the forward arc i -> i+1
    and arc 2i+1 the self-loop on i+1, both emitting phones[i].
    """
    k = np.arange(2 * len(phones))
    arcs = np.zeros(len(k), dtype=ARC_DTYPE)
    arcs["src"] = (k + 1) // 2
    arcs["dst"] = k // 2 + 1
    arcs["phone"] = np.repeat(phones, 2)
    finals = np.full(len(phones) + 1, -np.inf)
    finals[-1] = 0.0
    return HmmGraph(arcs, finals)


def build_denominator(
    phones: Sequence[int], bigram_counts: Mapping[tuple[int, int], float]
) -> HmmGraph:
    """Phone-loop graph weighted by an add-one-smoothed bigram phone LM.

    State 0 is the entry point with uniform initial weights; state 1+i
    means "just emitted phones[i]". Every phone state is final with weight
    log 1, so every non-empty phone sequence is accepted (and the empty
    one is not). The arcs are the n entry arcs, then the bigram arcs row by
    row: from state 1+i to each state 1+j, emitting phones[j].
    """
    phones = list(phones)
    if not phones:
        raise ValueError("phone set is empty")
    n = len(phones)
    if len(set(phones)) != n:
        raise ValueError("phone set has a repeated phone")
    states = np.arange(1, n + 1)
    weights = [-math.log(n)] * n
    for p in phones:
        row_total = sum(bigram_counts.get((p, q), 0) for q in phones)
        weights.extend(math.log((bigram_counts.get((p, q), 0) + 1) / (row_total + n)) for q in phones)
    arcs = np.zeros(n + n * n, dtype=ARC_DTYPE)
    arcs["src"][n:] = np.repeat(states, n)
    arcs["dst"] = np.tile(states, n + 1)
    arcs["phone"] = np.tile(phones, n + 1)
    arcs["weight"] = weights
    finals = np.zeros(n + 1)
    finals[0] = -np.inf
    return HmmGraph(arcs, finals)


def phone_bigram_counts(sequences: Iterable[Sequence[int]]) -> Counter:
    """Adjacent-pair counts over phone sequences, for the denominator LM."""
    counts: Counter = Counter()
    for seq in sequences:
        for a, b in zip(seq, seq[1:]):
            counts[(a, b)] += 1
    return counts
