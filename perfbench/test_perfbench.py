"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src", ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402


@pytest.fixture
def small_shapes(monkeypatch):
    for shape in gen.SHAPES.values():
        monkeypatch.setitem(shape, "utterances", 300)
        monkeypatch.setitem(shape, "wer_pairs", 100)


def _files(inputs) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in (inputs.corpus, inputs.ref, inputs.hyp, inputs.train, inputs.phones)}


@pytest.mark.parametrize("workload", sorted(gen.SHAPES))
def test_generator_is_deterministic_per_seed(tmp_path, small_shapes, workload):
    first = gen.generate(workload, 7, tmp_path / "a")
    again = gen.generate(workload, 7, tmp_path / "b")
    other = gen.generate(workload, 8, tmp_path / "c")
    assert _files(first) == _files(again)
    assert first.kept_ids == again.kept_ids
    differing = [name for name, data in _files(first).items() if _files(other)[name] != data]
    assert {"corpus.jsonl", "ref.txt", "train.jsonl"} <= set(differing)


def test_generator_keeps_no_context_and_malformed_entries(tmp_path, small_shapes):
    inputs = gen.generate("sector_cold", 3, tmp_path)
    records = [json.loads(line) for line in inputs.corpus.read_text().splitlines()]
    assert any("callsigns" not in r for r in records)
    assert any(c[0].isdigit() for r in records for c in r.get("callsigns", ()))


def test_self_time_of_a_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8]
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 8.0])
    parent = np.array([-1, 0, 0, 2])
    assert spans.self_times(start, end, parent).tolist() == [3.0, 3.0, 2.0, 2.0]
    table = spans.SpanTable(["root", "a", "b", "c"], [0, 1, 2, 3], parent, start, end)
    assert table.self_total("root") == 3.0
    assert table.total("c") == 2.0
    assert table.calls_under("c", "b") == 1 and table.calls_under("c", "root") == 0


def test_training_steps_pair_each_gradient_with_the_next_objective():
    names = ["toy", "objective", "gradient"]
    # toy [0, 10]: objective [0, 1], gradient [1, 3], objective [3, 4], gradient [4, 7], objective [7, 9]
    name = [0, 1, 2, 1, 2, 1]
    parent = [-1, 0, 0, 0, 0, 0]
    start = [0.0, 0.0, 1.0, 3.0, 4.0, 7.0]
    end = [10.0, 1.0, 3.0, 4.0, 7.0, 9.0]
    table = spans.SpanTable(names, name, parent, start, end)
    assert table.steps("toy", "gradient", "objective") == [3.0, 5.0]


def test_wrappers_record_nested_spans_and_counts(tmp_path):
    tracer = spans.Tracer()

    def leaf(x):
        return [x] * x

    def items(n):
        yield from range(n)

    traced_leaf = spans.traced(tracer, "leaf", leaf, on_result=lambda t, a, r: t.count("leaf.out", len(r)))
    traced_items = spans.traced_iter(tracer, "items", items, on_item=lambda t, item: t.count("items"))
    outer = spans.traced(tracer, "outer", lambda: [traced_leaf(i) for i in traced_items(3)])
    outer()
    tracer.save(str(tmp_path / "spans"))
    table = spans.SpanTable.load(tmp_path / "spans.npz", 0)
    assert table.calls("outer") == 1
    assert table.calls("items") == 4  # three items plus the exhausted call
    assert table.calls_under("leaf", "outer") == 3
    assert tracer.counts[0] == {"leaf.out": 0 + 1 + 2, "items": 3}


@pytest.mark.parametrize("token", ["-Infinity", "Infinity", "NaN"])
def test_strict_manifest_parser_rejects_non_finite_numbers(token):
    with pytest.raises(checks.CheckFailed):
        checks.strict_json('{"subcommand": "mmi-train", "result": {"final": %s}}' % token)
    with pytest.raises(checks.CheckFailed):
        checks.parse_manifest('{"subcommand": "mmi-train", "x": %s}\n' % token, "mmi-train")


def test_manifest_must_be_one_line_without_error():
    good = '{"subcommand": "wer", "result": {}}'
    assert checks.parse_manifest(good + "\n", "wer") == {"subcommand": "wer", "result": {}}
    with pytest.raises(checks.CheckFailed):
        checks.parse_manifest(good + "\nextra\n", "wer")
    with pytest.raises(checks.CheckFailed):
        checks.parse_manifest('{"subcommand": "wer", "error": "EmptyReference"}', "wer")

