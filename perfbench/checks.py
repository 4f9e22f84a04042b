"""Output checks for every subcommand the benchmark runs.

A manifest must be exactly one strict-JSON line (``evaluate`` may follow
it with its text table) without an ``error`` key. The outputs are then
compared with straight-line oracles from ``tests/synth.py``: the planted
id set for ``filter``, ``classify_oracle`` plus ``brute_force_matches``
for ``classify``, a recount for ``evaluate``, plain-DP ``edit_distance``
for ``wer``, and finite, non-decreasing traces for ``mmi-train``.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from pathlib import Path

from atckit.callsign import MalformedCallsign, default_telephony_lexicon, expand_callsign, parse_callsign
from atckit.classifier import default_role_lexicon
from atckit.corpus import RoleLabel

from synth import brute_force_matches, classify_oracle, edit_distance


class CheckFailed(Exception):
    """An operation's output disagrees with its oracle or breaks the CLI contract."""


def strict_json(text: str):
    """``json.loads`` that rejects NaN, Infinity and -Infinity."""

    def reject(token: str):
        raise CheckFailed(f"non-finite number {token} in manifest")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"manifest is not JSON ({exc.msg})") from None


EVALUATE_TABLE_LINES = 4


def parse_manifest(out: str, subcommand: str) -> dict:
    """The single manifest line of one CLI run, validated."""
    lines = out.splitlines()
    extra = EVALUATE_TABLE_LINES if subcommand == "evaluate" else 0
    if len(lines) != 1 + extra:
        raise CheckFailed(f"{subcommand}: expected {1 + extra} output lines, got {len(lines)}")
    manifest = strict_json(lines[0])
    if not isinstance(manifest, dict) or manifest.get("subcommand") != subcommand:
        raise CheckFailed(f"{subcommand}: manifest is not this subcommand's object")
    if "error" in manifest:
        raise CheckFailed(f"{subcommand}: {manifest['error']}: {manifest.get('message')}")
    return manifest


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as stream:
        return [strict_json(line) for line in stream if line.strip()]


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Oracle:
    """Expected outputs of one workload's inputs, derived without the code under test."""

    def __init__(self, inputs) -> None:
        self.inputs = inputs
        self.telephony = default_telephony_lexicon()
        self.roles = default_role_lexicon()
        self._variants: dict[str, list] = {}
        self._roles: dict[tuple, tuple[RoleLabel, str]] = {}

    def _context_variants(self, raws) -> list:
        out = []
        for raw in raws or ():
            entry = self._variants.get(raw)
            if entry is None:
                try:
                    cs = parse_callsign(raw)
                except MalformedCallsign:
                    entry = []
                else:
                    entry = [(cs, v) for v in expand_callsign(cs, self.telephony)]
                self._variants[raw] = entry
            out.extend(entry)
        return out

    def expected_role(self, record: dict) -> tuple[RoleLabel, str]:
        """The oracle's label and rule; a pure function of text and context, so memoized."""
        key = (record["text"], tuple(record.get("callsigns") or ()))
        if key not in self._roles:
            self._roles[key] = self._role(record)
        return self._roles[key]

    def _role(self, record: dict) -> tuple[RoleLabel, str]:
        tokens = record["text"].split()
        starts = [m[0] for m in brute_force_matches(tokens, self._context_variants(record.get("callsigns")))]
        atco, pilot = self.roles.atco_words, self.roles.pilot_words
        if self.inputs.rule_order == "callsign-first":
            # classify_oracle's keyword branches after the same early-callsign test
            if any(start <= 3 for start in starts):
                return RoleLabel.ATCO, "callsign_early"
            return classify_oracle(tokens, atco, pilot, [])
        return classify_oracle(tokens, atco, pilot, starts)

    def check_filter(self, manifest: dict, kept_path: Path) -> None:
        ids = [r["id"] for r in read_jsonl(kept_path)]
        _expect(ids == self.inputs.kept_ids, f"filter kept {len(ids)} ids, planted {len(self.inputs.kept_ids)}")
        stats = manifest["result"]["stats"]
        _expect(
            stats["total"] == self.inputs.utterances and stats["kept"] == len(ids),
            f"filter stats {stats} disagree with the input",
        )

    def check_classify(self, manifest: dict, kept_path: Path, prefix: str) -> None:
        kept = read_jsonl(kept_path)
        traces = read_jsonl(Path(prefix + ".traces.jsonl"))
        _expect([t["id"] for t in traces] == [r["id"] for r in kept], "classify traces are not in input order")
        halves = {"atco": [], "pilot": []}
        for record, trace in zip(kept, traces):
            label, rule = self.expected_role(record)
            _expect(
                (trace["role"], trace["rule"]) == (label.value, rule),
                f"classify {record['id']}: got {trace['role']}/{trace['rule']}, oracle {label.value}/{rule}",
            )
            halves[trace["role"]].append(record["id"])
        for role, ids in halves.items():
            written = [r["id"] for r in read_jsonl(Path(f"{prefix}.{role}.jsonl"))]
            _expect(written == ids, f"classify {role} file disagrees with its traces")
        counts = manifest["result"]["counts"]
        _expect(
            counts == {"atco": len(halves["atco"]), "pilot": len(halves["pilot"]), "total": len(traces)},
            f"classify counts {counts} disagree with the files",
        )

    def check_evaluate(self, manifest: dict, kept_path: Path, traces_path: Path) -> None:
        gold = {r["id"]: r["role"] for r in read_jsonl(kept_path)}
        cells = {"tp": 0, "fn": 0, "fp": 0, "tn": 0}
        for trace in read_jsonl(traces_path):
            actual, predicted = gold[trace["id"]], trace["role"]
            key = ("t" if actual == predicted else "f") + ("p" if predicted == "atco" else "n")
            cells[key] += 1
        _expect(manifest["result"]["matrix"] == cells, f"evaluate matrix {manifest['result']['matrix']}, recount {cells}")

    @cached_property
    def wer_totals(self) -> tuple[int, int, int]:
        """(edits, reference words, pairs) of the wer inputs by plain-DP edit distance."""
        refs = self.inputs.ref.read_text(encoding="utf-8").splitlines()
        hyps = self.inputs.hyp.read_text(encoding="utf-8").splitlines()
        edits = sum(edit_distance(r.split(), h.split()) for r, h in zip(refs, hyps))
        return edits, sum(len(r.split()) for r in refs), len(refs)

    def check_wer(self, manifest: dict) -> None:
        result = manifest["result"]
        got = (result["substitutions"] + result["deletions"] + result["insertions"],
               result["ref_words"], result["utterances"])
        _expect(got == self.wer_totals, f"wer (edits, ref words, pairs) {got}, oracle {self.wer_totals}")

    @staticmethod
    def check_mmi_train(manifest: dict, mode: str, steps: int, tasks: int) -> None:
        runs = manifest["result"]["runs"]
        _expect(len(runs) == (tasks if mode == "single" else 1), f"mmi-train {mode}: {len(runs)} runs")
        for run in runs:
            trace = run["trace"]
            _expect(len(trace) == steps + 1, f"mmi-train {mode}: trace of {len(trace)} values")
            _expect(all(math.isfinite(v) for v in trace), f"mmi-train {mode}: non-finite objective")
            _expect(
                all(b >= a for a, b in zip(trace, trace[1:])),
                f"mmi-train {mode}: objective fell ({trace})",
            )

    @staticmethod
    def check_mmi_check(manifest: dict) -> None:
        _expect(manifest["result"]["all_passed"] is True, "mmi-check did not pass")
