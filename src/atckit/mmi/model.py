"""Emission parameters and task descriptors for the discriminative objective.

Emissions are categorical per phone: the log-probability of symbol s under
phone p for task t is the log-softmax over symbols of
``shared[p] + bias[t][p]``. The shared matrix is common to all tasks, the
bias matrices are task-specific, which is the whole multitask story at
this scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..mmi_base import DEFAULT_TASK_WEIGHT
from .graphs import HmmGraph, build_numerator


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax with max-shift, stable for any finite input."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


@dataclass
class EmissionModel:
    """Shared plus per-task emission logits, [n_phones, n_symbols] each.

    A gradient with respect to those logits has the same layout, so it is
    an EmissionModel too.
    """

    shared: np.ndarray
    bias: dict[int, np.ndarray]

    @classmethod
    def zeros(cls, n_phones: int, n_symbols: int, task_ids: Sequence[int]) -> "EmissionModel":
        return cls(
            shared=np.zeros((n_phones, n_symbols)),
            bias={tid: np.zeros((n_phones, n_symbols)) for tid in task_ids},
        )

    def effective_logits(self, task_id: int) -> np.ndarray:
        return self.shared + self.bias[task_id]

    def log_probs(self, task_id: int) -> np.ndarray:
        """Emission log-probabilities for one task; rows are normalized."""
        return log_softmax(self.effective_logits(task_id))

    def max_abs(self) -> float:
        """Largest |entry| over the shared and every bias matrix."""
        parts = [np.abs(self.shared).max(initial=0.0)]
        parts.extend(np.abs(b).max(initial=0.0) for b in self.bias.values())
        return float(np.max(parts))  # a NaN anywhere propagates


@dataclass(frozen=True)
class MmiTask:
    """One training task: lexicon, denominator graph, weight.

    There is no word-LM term: a score that does not depend on the emissions
    would shift the objective and add nothing to its gradient.
    """

    task_id: int
    phones: tuple[str, ...]
    lexicon: Mapping[str, tuple[int, ...]]  # word -> phone-id sequence
    den_graph: HmmGraph
    alpha: float = DEFAULT_TASK_WEIGHT

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError(f"task weight must be non-negative, got {self.alpha}")

    def numerator_graph(self, words: tuple[str, ...]) -> HmmGraph:
        """Alignment graph for one transcript, built anew on every call."""
        return build_numerator(words, self.lexicon)


@dataclass(frozen=True)
class TrainingUtterance:
    """One observation sequence with its transcript and owning task."""

    task_id: int
    symbols: tuple[int, ...]
    words: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(self.symbols))
        object.__setattr__(self, "words", tuple(self.words))
        if not self.symbols:
            raise ValueError("observation sequence must be non-empty")
