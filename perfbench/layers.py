"""Per-layer metrics of one traced round, from its spans and counts.

Layers are atckit's modules. Times are busy seconds in the round (``.s``
includes callees, ``.self_s`` excludes traced children); counts are exact
and repeat from round to round and run to run for the same seed.
"""

from __future__ import annotations

from spans import SpanTable

# The base of every ratio, printed with its value.
RATIO_BASES = {
    "matcher.context_cache_hit_ratio": "context entries passed to matcher.expand_context_callsigns",
    "matcher.keep_ratio": "utterances read by filter",
    "classifier.expansion_use_ratio": "utterances expanded by classify",
    "mmi.model.numerator_cache_hit_ratio": "numerator_graph lookups",
    "mmi.train.objective_share": "toy_train time",
    "trace.overhead_ratio": "median untraced round time; trace.overhead_s is traced minus untraced",
}


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


def round_metrics(table: SpanTable, counts: dict, keep: tuple[int, int], bytes_written: int) -> dict:
    """Every per-layer metric except the tracing overhead, for one round.

    ``keep`` is (kept, total) from the filter manifest of the same round.
    """

    def c(key: str) -> int:
        return int(counts.get(key, 0))

    entries = c("matcher.expand_context_callsigns.entries")
    misses = table.calls_under("callsign.parse_callsign", "matcher.expand_context_callsigns")
    num_lookups = table.calls("mmi.model.numerator_graph")
    toy = table.total("mmi.train.toy_train")
    objective_in_toy = table.total_under("mmi.objective.multitask_objective", "mmi.train.toy_train")
    m = {
        "corpus.read_corpus.self_s": table.self_total("corpus.read_corpus"),
        "corpus.tokenize.s": table.total("corpus.tokenize"),
        "corpus.tokenize.calls": table.calls("corpus.tokenize"),
        "corpus.records": c("corpus.records"),
        "corpus.tokens": c("corpus.tokens"),
        "callsign.parse_callsign.s": table.total("callsign.parse_callsign"),
        "callsign.parse_callsign.calls": table.calls("callsign.parse_callsign"),
        "callsign.expand_callsign.s": table.total("callsign.expand_callsign"),
        "callsign.expand_callsign.calls": table.calls("callsign.expand_callsign"),
        "matcher.expand_context_callsigns.self_s": table.self_total("matcher.expand_context_callsigns"),
        "matcher.expand_context_callsigns.calls": table.calls("matcher.expand_context_callsigns"),
        "matcher.expand_context_callsigns.entries": entries,
        "matcher.context_cache_hit_ratio": _ratio(entries - misses, entries),
        "matcher.find_matches.s": table.total("matcher.find_matches"),
        "matcher.find_matches.calls": table.calls("matcher.find_matches"),
        "matcher.find_matches.variants_in": c("matcher.find_matches.variants_in"),
        "matcher.find_matches.matches_out": c("matcher.find_matches.matches_out"),
        "matcher.keep_ratio": _ratio(*keep),
        "classifier.classify.self_s": table.self_total("classifier.classify"),
        "classifier.classify.calls": table.calls("classifier.classify"),
        "classifier.find_matches.calls": table.calls("classifier.find_matches"),
        "classifier.expansion_use_ratio": _ratio(
            table.calls("classifier.find_matches"), table.calls("classifier.expand_context_callsigns")
        ),
        "evaluation.wer.s": table.total("evaluation.wer"),
        "evaluation.wer.calls": table.calls("evaluation.wer"),
        "evaluation.wer.cells": c("evaluation.wer.cells"),
        "evaluation.accumulate.s": table.total("evaluation.accumulate"),
        "cli.bytes_written": bytes_written,
        "mmi.model.log_softmax.s": table.total("mmi.model.log_softmax"),
        "mmi.model.log_softmax.calls": table.calls("mmi.model.log_softmax"),
        "mmi.graphs.build.s": table.total("mmi.graphs.build_numerator") + table.total("mmi.graphs.build_denominator"),
        "mmi.model.numerator_cache_hit_ratio": _ratio(
            num_lookups - table.calls("mmi.graphs.build_numerator"), num_lookups
        ),
        "mmi.objective.forward_logprob.s": table.total("mmi.objective.forward_logprob"),
        "mmi.objective.forward_logprob.calls": table.calls("mmi.objective.forward_logprob"),
        "mmi.objective.emission_occupancy.s": table.total("mmi.objective.emission_occupancy"),
        "mmi.objective.emission_occupancy.calls": table.calls("mmi.objective.emission_occupancy"),
        "mmi.objective.mmi_gradient.self_s": table.self_total("mmi.objective.mmi_gradient"),
        "mmi.objective.arc_frames": c("mmi.objective.arc_frames"),
        "mmi.objective.nopath": c("mmi.objective.nopath"),
        "mmi.train.objective_share": _ratio(objective_in_toy, toy),
    }
    for rule in ("atco_keyword", "pilot_keyword", "callsign_early", "callsign_late_or_absent"):
        m["classifier.rule." + rule] = c("classifier.rule." + rule)
    for stage in ("filter", "classify", "evaluate", "wer"):
        m[f"cli.{stage}.self_s"] = table.self_total("cli." + stage)
    return m


def step_times(table: SpanTable) -> list[float]:
    """Seconds per toy_train step: a gradient plus the objective re-evaluation after it."""
    return table.steps("mmi.train.toy_train", "mmi.objective.mmi_gradient", "mmi.objective.multitask_objective")
