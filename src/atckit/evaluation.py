"""Scoring: role-classification confusion matrix and word error rate.

The confusion matrix treats ATCO as the positive class. WER is the
word-level minimal edit distance (substitutions, deletions, insertions at
unit cost) divided by the reference length; corpus WER pools the error
counts before dividing, it is not a mean of per-utterance rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .corpus import RoleLabel


class EmptyReference(ValueError):
    """Raised when WER is requested for an empty reference with a non-empty hypothesis."""


@dataclass
class ConfusionMatrix:
    """2x2 counts over (predicted, actual) roles; ATCO is positive.

    tp: actual ATCO predicted ATCO;   fn: actual ATCO predicted PILOT;
    fp: actual PILOT predicted ATCO;  tn: actual PILOT predicted PILOT.
    """

    tp: int = 0
    fn: int = 0
    fp: int = 0
    tn: int = 0

    def __post_init__(self) -> None:
        if min(self.tp, self.fn, self.fp, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    def add(self, predicted: RoleLabel, actual: RoleLabel) -> None:
        if actual is RoleLabel.ATCO:
            if predicted is RoleLabel.ATCO:
                self.tp += 1
            else:
                self.fn += 1
        else:
            if predicted is RoleLabel.ATCO:
                self.fp += 1
            else:
                self.tn += 1

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(
            self.tp + other.tp, self.fn + other.fn, self.fp + other.fp, self.tn + other.tn
        )

    @property
    def actual_atco(self) -> int:
        return self.tp + self.fn

    @property
    def actual_pilot(self) -> int:
        return self.fp + self.tn

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn

    def to_json(self) -> dict:
        return {"tp": self.tp, "fn": self.fn, "fp": self.fp, "tn": self.tn}

    def pretty_table(self, r: "Rates | None" = None) -> str:
        """Aligned text table of the matrix and, when given, 2-dp rates."""
        rows = [
            f"{'':>16} {'actual_atco':>12} {'actual_pilot':>13}",
            f"{'predicted_atco':>16} {self.tp:>12} {self.fp:>13}",
            f"{'predicted_pilot':>16} {self.fn:>12} {self.tn:>13}",
        ]
        if r is not None:
            parts = []
            for name, value in (("tpr", r.tpr), ("tnr", r.tnr), ("accuracy", r.accuracy)):
                parts.append(f"{name} {'n/a' if value is None else format(round(value, 2), '.2f')}")
            rows.append("  ".join(parts))
        return "\n".join(rows)


@dataclass(frozen=True)
class Rates:
    """Classification rates; a rate is None when its class has no actual instances."""

    tpr: float | None
    tnr: float | None
    accuracy: float | None

    def to_json(self) -> dict:
        return {k: v for k, v in (("tpr", self.tpr), ("tnr", self.tnr), ("accuracy", self.accuracy)) if v is not None}


def accumulate(pairs: Iterable[tuple[RoleLabel, RoleLabel]]) -> ConfusionMatrix:
    """Count a stream of (predicted, actual) pairs into a confusion matrix."""
    cm = ConfusionMatrix()
    for predicted, actual in pairs:
        cm.add(predicted, actual)
    return cm


def rates(cm: ConfusionMatrix) -> Rates:
    """TPR, TNR, and accuracy of a matrix.

    A class with zero actual instances makes its rate undefined; undefined
    rates come back as None (absent from JSON), never NaN.
    """
    tpr = cm.tp / cm.actual_atco if cm.actual_atco > 0 else None
    tnr = cm.tn / cm.actual_pilot if cm.actual_pilot > 0 else None
    accuracy = (cm.tp + cm.tn) / cm.total if cm.total > 0 else None
    return Rates(tpr=tpr, tnr=tnr, accuracy=accuracy)


@dataclass
class WerBreakdown:
    """Edit counts from one minimal word-level alignment."""

    substitutions: int = 0
    deletions: int = 0
    insertions: int = 0
    ref_words: int = 0

    @property
    def total_edits(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def wer(self) -> float:
        if self.ref_words > 0:
            return self.total_edits / self.ref_words
        return 0.0 if self.total_edits == 0 else float("inf")

    def __add__(self, other: "WerBreakdown") -> "WerBreakdown":
        return WerBreakdown(
            self.substitutions + other.substitutions,
            self.deletions + other.deletions,
            self.insertions + other.insertions,
            self.ref_words + other.ref_words,
        )

    def to_json(self) -> dict:
        return {
            "substitutions": self.substitutions,
            "deletions": self.deletions,
            "insertions": self.insertions,
            "ref_words": self.ref_words,
            "wer": self.wer,
        }


def wer(ref: Sequence[str], hyp: Sequence[str]) -> WerBreakdown:
    """Word error rate of one hypothesis against one reference.

    Both sequences must already be normalized by the caller. The total is
    the standard unit-cost edit distance. Among equal-cost alignments the
    one with the most substitutions is reported (substitution preferred
    over a deletion-insertion pair), that is, the one with the most aligned
    word pairs. That choice pins the S/D/I split deterministically, never
    changes the total, and keeps the split symmetric: swapping the arguments
    swaps deletions with insertions and leaves substitutions alone.

    The words both sequences open with, and then those they close with,
    are counted as aligned pairs first, and the Wagner-Fischer table covers
    only the middles left between them. Under the cost (edits, -pairs),
    pairing two equal first words is never worse than deleting or inserting
    one of them, and the same holds at the end, so neither the total nor
    the split changes. The table keeps one integer per cell,
    ``edits * k - pairs`` with ``k`` one more than the shorter middle's
    length: a cell has fewer than ``k`` aligned pairs, so the smallest
    integer has the fewest edits and, among those, the most pairs.
    """
    n, m = len(ref), len(hyp)
    if n == 0:
        if m > 0:
            raise EmptyReference(f"empty reference against {m} hypothesis words")
        return WerBreakdown()
    lo, top = 0, min(n, m)
    while lo < top and ref[lo] == hyp[lo]:
        lo += 1
    hi, top = 0, top - lo
    while hi < top and ref[n - 1 - hi] == hyp[m - 1 - hi]:
        hi += 1
    mid_ref, mid_hyp = ref[lo : n - hi], hyp[lo : m - hi]
    k = min(len(mid_ref), len(mid_hyp)) + 1
    prev = list(range(0, (len(mid_hyp) + 1) * k, k))
    for i, ref_word in enumerate(mid_ref, 1):
        left = i * k
        cur = [left]
        for hyp_word, corner, up in zip(mid_hyp, prev, prev[1:]):
            pair = corner - 1 if ref_word == hyp_word else corner + k - 1
            gap = (up if up < left else left) + k
            left = gap if gap < pair else pair
            cur.append(left)
        prev = cur
    total = -(-prev[-1] // k)  # ceil, as 0 <= pairs < k
    diag = total * k - prev[-1] + lo + hi
    # with the diagonal count fixed, the split is determined algebraically
    return WerBreakdown(
        substitutions=total + 2 * diag - n - m,
        deletions=n - diag,
        insertions=m - diag,
        ref_words=n,
    )


def wer_corpus(pairs: Iterable[tuple[Sequence[str], Sequence[str]]]) -> WerBreakdown:
    """Corpus-level WER: pool S, D, I, and reference words before dividing.

    Pairs with empty reference and empty hypothesis contribute zero; an
    empty reference against a non-empty hypothesis raises, same as
    ``wer``.
    """
    pooled = WerBreakdown()
    for ref, hyp in pairs:
        pooled += wer(ref, hyp)
    return pooled
