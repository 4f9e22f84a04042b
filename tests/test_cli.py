import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import atckit
from atckit import classifier, cli
from atckit.cli import main
from atckit.callsign import VariantKind, expand_callsign, parse_callsign
from atckit.classifier import RULE_ORDERS, FiredRule, classify_corpus
from atckit.corpus import Utterance, read_corpus, tokenize
from atckit.evaluation import accumulate
from atckit.matcher import FilterStats, expand_context_callsigns, find_matches
from atckit.mmi import objective
from atckit.mmi.check import random_instance

from synth import branch_cases, make_planted_corpus, random_callsign_raw, safe_fillers, write_corpus

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_manifest(out):
    """The first stdout line, parsed as strict JSON (no NaN or Infinity)."""
    return json.loads(out.splitlines()[0], parse_constant=_reject_constant)


def perfbench_spans():
    """perfbench/spans.py, the benchmark's tracer, loaded as a module."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def run_fresh(args):
    """``python args...`` in a new interpreter with the package on its path."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=300)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, strict_manifest(out), out


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestExpand:
    def test_known_callsign_lists_exactly_three_variants(self, capsys):
        code, manifest, _ = run_cli(capsys, ["expand", "--callsign", "TVS84J"])
        assert code == 0
        texts = [v["text"] for v in manifest["result"]["variants"]]
        assert texts == [
            "skytravel eight four juliett",
            "tango victor sierra eight four juliett",
            "eight four juliett",
        ]

    def test_two_letter_suffix(self, capsys):
        code, manifest, _ = run_cli(capsys, ["expand", "--callsign", "LUF189AF"])
        assert code == 0
        texts = {v["text"] for v in manifest["result"]["variants"]}
        assert "lufthansa one eight nine alfa foxtrot" in texts
        assert "one eight nine alfa foxtrot" in texts

    def test_malformed_callsign_is_a_data_error(self, capsys):
        code, manifest, _ = run_cli(capsys, ["expand", "--callsign", "84TVS"])
        assert code == 1
        assert manifest["error"] == "MalformedCallsign"

    def test_repeated_telephony_code_is_a_data_error(self, tmp_path, capsys):
        telephony = tmp_path / "telephony.tsv"
        write_lines(telephony, ["TVS\tskytravel", "TVS\tczech"])
        code, manifest, _ = run_cli(capsys, ["expand", "--callsign", "TVS84J", "--telephony", str(telephony)])
        assert code == 1
        assert manifest["error"] == "CorpusFormatError"
        assert manifest["message"].startswith(f"{telephony}:2: repeated airline code")

    def test_pretty_appends_readable_lines(self, capsys):
        code, _, out = run_cli(capsys, ["expand", "--callsign", "TVS8", "--pretty"])
        assert code == 0
        assert "shortened: eight" in out

    def test_rerun_manifest_identical(self, capsys):
        _, _, first = run_cli(capsys, ["expand", "--callsign", "TVS84J"])
        _, _, second = run_cli(capsys, ["expand", "--callsign", "TVS84J"])
        assert first == second


class TestFilter:
    def test_end_to_end(self, tmp_path, capsys, telephony, role_lexicon):
        rng = random.Random(81)
        fillers = safe_fillers(role_lexicon, telephony)
        corpus, kept_ids = make_planted_corpus(rng, 60, 12, telephony, fillers)
        src = tmp_path / "corpus.jsonl"
        out = tmp_path / "kept.jsonl"
        write_corpus(corpus, src)
        code, manifest, _ = run_cli(capsys, ["filter", "--corpus", str(src), "--out", str(out)])
        assert code == 0
        stats = manifest["result"]["stats"]
        assert stats["kept"] == 12
        assert stats["kept"] + stats["dropped"] == stats["total"] == 60
        kept_records = [json.loads(line) for line in out.read_text().splitlines()]
        assert {r["id"] for r in kept_records} == kept_ids
        assert all(r["matches"] for r in kept_records)

    def test_missing_file_is_a_data_error(self, tmp_path, capsys):
        code, manifest, _ = run_cli(
            capsys,
            ["filter", "--corpus", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path / "o")],
        )
        assert code == 1
        assert manifest["error"] == "FileNotFoundError"

    def test_directory_corpus_is_a_data_error(self, tmp_path, capsys):
        code, manifest, _ = run_cli(
            capsys, ["filter", "--corpus", str(tmp_path), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert manifest["error"] == "IsADirectoryError"

    @pytest.mark.parametrize("text", ["5", "null", "[\"a\"]"])
    def test_non_string_text_is_a_data_error(self, tmp_path, capsys, text):
        src = tmp_path / "corpus.jsonl"
        write_lines(src, ['{"id": "ok", "text": "fine"}', '{"id": "a", "text": %s}' % text])
        code, manifest, _ = run_cli(
            capsys, ["filter", "--corpus", str(src), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert manifest["error"] == "CorpusFormatError"
        assert f"{src}:2:" in manifest["message"]

    def test_lone_carriage_return_inside_a_record(self, tmp_path, capsys):
        src, out = tmp_path / "corpus.jsonl", tmp_path / "kept.jsonl"
        src.write_bytes(b'{"id": "a",\r"text": "tango victor sierra eight four", "callsigns": ["TVS84"]}\n')
        code, manifest, _ = run_cli(capsys, ["filter", "--corpus", str(src), "--out", str(out)])
        assert code == 0
        assert manifest["result"]["stats"]["kept"] == 1
        assert [json.loads(line)["id"] for line in out.read_text().splitlines()] == ["a"]


class TestClassify:
    def test_empty_corpus_gives_zero_counts(self, tmp_path, capsys):
        src = tmp_path / "empty.jsonl"
        src.write_text("", encoding="utf-8")
        prefix = str(tmp_path / "out")
        code, manifest, _ = run_cli(
            capsys, ["classify", "--corpus", str(src), "--out-prefix", prefix]
        )
        assert code == 0
        assert manifest["result"]["counts"] == {"atco": 0, "pilot": 0, "total": 0}
        assert Path(prefix + ".atco.jsonl").read_text() == ""
        assert Path(prefix + ".traces.jsonl").read_text() == ""

    def test_partition_and_traces(self, tmp_path, capsys, telephony, role_lexicon):
        rng = random.Random(82)
        cases = branch_cases(rng, 6, role_lexicon, telephony)
        src = tmp_path / "corpus.jsonl"
        write_corpus([c["utterance"] for c in cases], src)
        prefix = str(tmp_path / "out")
        code, manifest, _ = run_cli(
            capsys, ["classify", "--corpus", str(src), "--out-prefix", prefix]
        )
        assert code == 0
        counts = manifest["result"]["counts"]
        n_atco = len(Path(prefix + ".atco.jsonl").read_text().splitlines())
        n_pilot = len(Path(prefix + ".pilot.jsonl").read_text().splitlines())
        traces = [json.loads(l) for l in Path(prefix + ".traces.jsonl").read_text().splitlines()]
        assert counts["atco"] == n_atco
        assert counts["pilot"] == n_pilot
        assert counts["total"] == len(cases) == len(traces)
        assert all(t["rule"] for t in traces)

    def test_rule_order_flag_accepted(self, tmp_path, capsys):
        src = tmp_path / "corpus.jsonl"
        write_corpus(
            [Utterance("u1", tokenize("wilco skytravel eight four juliett"), context_callsigns=("TVS84J",))],
            src,
        )
        prefix = str(tmp_path / "out")
        code, manifest, _ = run_cli(
            capsys,
            ["classify", "--corpus", str(src), "--out-prefix", prefix, "--rule-order", "callsign-first"],
        )
        assert code == 0
        assert manifest["result"]["counts"]["atco"] == 1

    def test_error_mid_stream_publishes_nothing(self, tmp_path, capsys):
        src = tmp_path / "corpus.jsonl"
        write_lines(src, ['{"id": "u1", "text": "wilco"}', '{"id": "u2", "text": "roger"}', "{broken"])
        prefix = tmp_path / "out"
        old = {name: tmp_path / f"out.{name}.jsonl" for name in ("atco", "pilot", "traces")}
        for path in old.values():
            path.write_text("previous run\n", encoding="utf-8")
        code, manifest, _ = run_cli(
            capsys, ["classify", "--corpus", str(src), "--out-prefix", str(prefix)]
        )
        assert code == 1
        assert f"{src}:3:" in manifest["message"]
        assert all(path.read_text() == "previous run\n" for path in old.values())
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["corpus.jsonl"] + [p.name for p in old.values()]
        )

    def test_done_marker_only_after_the_last_rename(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "corpus.jsonl"
        write_lines(src, ['{"id": "u1", "text": "wilco"}', '{"id": "u2", "text": "roger"}'])
        argv = ["classify", "--corpus", str(src), "--out-prefix", str(tmp_path / "out")]
        done = tmp_path / "out.done"
        code, manifest, _ = run_cli(capsys, argv)
        assert code == 0
        assert manifest["outputs"]["done"] == str(done)
        assert done.read_text() == ""
        # a crash between the renames leaves a mixed set, and no marker vouches for it
        renames = []
        real_replace = os.replace

        def replace(tmp, path):
            renames.append(path)
            if len(renames) == 2:
                raise OSError("disk gone")
            real_replace(tmp, path)

        monkeypatch.setattr(os, "replace", replace)
        code, manifest, _ = run_cli(capsys, argv)
        assert code == 1 and manifest["error"] == "OSError"
        assert len(renames) == 2
        assert not done.exists()


def pin_corpus(telephony, role_lexicon):
    """Seeded corpus for the output pins: planted and branch utterances plus
    near misses built from fresh callsigns' variants in both digit styles,
    with repeated, malformed and missing context entries."""
    rng = random.Random(4404)
    fillers = safe_fillers(role_lexicon, telephony)
    corpus, _ = make_planted_corpus(rng, 150, 60, telephony, fillers)
    corpus += [case["utterance"] for case in branch_cases(rng, 12, role_lexicon, telephony)]
    keywords = sorted(role_lexicon.atco_words)[:3] + sorted(role_lexicon.pilot_words)[:3]
    for i in range(150):
        context = [random_callsign_raw(rng, telephony) for _ in range(rng.randint(1, 4))]
        variants = [
            v.tokens
            for raw in context
            for icao in (False, True)
            for v in sorted(expand_callsign(parse_callsign(raw), telephony, icao), key=lambda v: v.text)
        ]
        vocab = [t for tokens in variants for t in tokens] + list(fillers[:4]) + keywords
        tokens = [rng.choice(vocab) for _ in range(rng.randint(0, 10))]
        if rng.random() < 0.5:
            at = rng.randint(0, len(tokens))
            tokens[at:at] = rng.choice(variants)
        if rng.random() < 0.2:
            context.append(rng.choice(context))
        if rng.random() < 0.1:
            context.append("84TVS")
        if rng.random() >= 0.95:
            context = None
        corpus.append(Utterance(f"n{i:05d}", tuple(tokens), context_callsigns=context))
    return corpus


# sha256 of every output file, recorded on the expansion-based matcher that
# preceded the tail-anchored one; the matching refactor must keep them
OUTPUT_PINS = {
    ("filter", False): "ddb9e39c446eb24398df1ebdb1ef7c1fde9bc54104af85e933019ddd7e466ad3",
    ("filter", True): "1cc116bc92091611121c4466cb7a5896cbac6bdf169e2a8432c488bf2abc3cd3",
    ("keywords-first", False): [
        "114ecf6aea08624a21afd2eff028cbe56ed6c5e13b741e4a9f61c81bf12e3906",
        "33c62924e02b8c2927c81d1cf9e35513c1dbaa6214f8255c8f3924a9a7ba4091",
        "46850613f3bcf77ab4eace6b493df23e360d78daef8007b3c65c63a538629319",
    ],
    ("keywords-first", True): [
        "b90d7f04e740bfc46597b16e0848605f9892e6942f77e1254e904d7704e0756c",
        "1a407a536f1867ebb7b6f508f97e97ce106fe8bf8446b962e970b97c4ada017d",
        "919ae04b2ff97a026c91a8681fcd80625b0f0f7e09a5db3718f1d3a7d079ad5e",
    ],
    ("callsign-first", False): [
        "04a12815c2a35db476a4a7430ed86f68f94ccf4bca93765e8f1c58ed6c91a3ae",
        "5cad229cd7700aadfd31a610b1fd585583daf87ab4a9d5ec812626a08912226f",
        "af272e676606b3dd5559b727cdd5c84df2ff4b905b04d503e34201860a46a678",
    ],
    ("callsign-first", True): [
        "5b56b9c5dd0545d1d4d5b95515460bdf6f1fa339dbe9a0a07006224e85208477",
        "93487b2efe822fcd4966ec1d08ec7f7766be3d902fc318376c8997803a6bb2ab",
        "1c23944972148d266c7378b61ea4360d0e11451de6b52ff59a9ab2251ba9eafe",
    ],
}


class TestOutputPins:
    """filter and classify on the seeded pin corpus: pinned files, explained manifests."""

    @pytest.fixture(scope="class")
    def corpus_file(self, tmp_path_factory, telephony, role_lexicon):
        path = tmp_path_factory.mktemp("pins") / "corpus.jsonl"
        write_corpus(pin_corpus(telephony, role_lexicon), path)
        return path

    @staticmethod
    def digest(path):
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    def test_filter_manifest_explains_drops(self, tmp_path, capsys, corpus_file):
        out = tmp_path / "kept.jsonl"
        argv = ["filter", "--corpus", str(corpus_file), "--out", str(out)]
        code, manifest, printed = run_cli(capsys, argv)
        assert code == 0
        stats = manifest["result"]["stats"]
        assert stats["dropped"] == stats["no_context"] + stats["no_match"]
        assert min(stats["no_context"], stats["no_match"]) > 0
        kept = [json.loads(line) for line in out.read_text().splitlines()]
        kinds = Counter(m["variant_kind"] for record in kept for m in record["matches"])
        assert stats["matches_by_kind"] == {kind.value: kinds[kind.value] for kind in VariantKind}
        assert run_cli(capsys, argv)[2] == printed

    def test_classify_manifest_explains_labels(self, tmp_path, capsys, corpus_file):
        prefix = str(tmp_path / "split")
        argv = ["classify", "--corpus", str(corpus_file), "--out-prefix", prefix]
        code, manifest, printed = run_cli(capsys, argv)
        assert code == 0
        traces = [json.loads(line) for line in Path(prefix + ".traces.jsonl").read_text().splitlines()]
        result = manifest["result"]
        fired = Counter(t["rule"] for t in traces)
        assert result["rules"] == {rule.value: fired[rule.value] for rule in FiredRule}
        assert min(result["rules"].values()) > 0
        assert result["low_confidence"] == sum(t["low_confidence"] for t in traces) > 0
        assert run_cli(capsys, argv)[2] == printed

    def test_classify_manifest_counts_callsign_evidence_by_kind(self, tmp_path, capsys, corpus_file):
        prefix = str(tmp_path / "split")
        code, manifest, _ = run_cli(capsys, ["classify", "--corpus", str(corpus_file), "--out-prefix", prefix])
        assert code == 0
        traces = [json.loads(line) for line in Path(prefix + ".traces.jsonl").read_text().splitlines()]
        kinds = Counter(t["evidence"]["variant_kind"] for t in traces if t["rule"] == "callsign_early")
        by_kind = manifest["result"]["evidence_by_kind"]
        assert by_kind == {kind.value: kinds[kind.value] for kind in VariantKind}
        assert sum(by_kind.values()) == manifest["result"]["rules"]["callsign_early"] > 0

    @pytest.mark.parametrize("icao", [False, True], ids=["plain", "icao"])
    def test_filter_manifest_counts_equal_the_full_expansion(self, tmp_path, capsys, corpus_file, telephony, icao):
        argv = ["filter", "--corpus", str(corpus_file), "--out", str(tmp_path / "kept.jsonl")]
        code, manifest, _ = run_cli(capsys, argv + ["--icao-digits"] * icao)
        assert code == 0
        want = FilterStats()
        for utt in read_corpus(corpus_file):
            if not utt.context_callsigns:
                want.no_context += 1
                continue
            matches = find_matches(utt, expand_context_callsigns(utt.context_callsigns, telephony, want, icao))
            want.no_match += not matches
            for m in matches:
                want.matches_by_kind[m.variant.kind.value] += 1
        keys = ("malformed_callsigns", "no_context", "no_match", "matches_by_kind")
        assert {key: manifest["result"]["stats"][key] for key in keys} == {key: getattr(want, key) for key in keys}
        assert min(want.malformed_callsigns, want.no_context, want.no_match) > 0

    @pytest.mark.parametrize("icao", [False, True], ids=["plain", "icao"])
    def test_filter_kept_file(self, tmp_path, capsys, corpus_file, icao):
        out = tmp_path / "kept.jsonl"
        argv = ["filter", "--corpus", str(corpus_file), "--out", str(out)] + ["--icao-digits"] * icao
        code, _, _ = run_cli(capsys, argv)
        assert code == 0
        assert self.digest(out) == OUTPUT_PINS[("filter", icao)]

    @pytest.mark.parametrize("icao", [False, True], ids=["plain", "icao"])
    @pytest.mark.parametrize("order", RULE_ORDERS)
    def test_classify_files(self, tmp_path, capsys, corpus_file, order, icao):
        prefix = str(tmp_path / "split")
        argv = ["classify", "--corpus", str(corpus_file), "--out-prefix", prefix, "--rule-order", order]
        code, _, _ = run_cli(capsys, argv + ["--icao-digits"] * icao)
        assert code == 0
        digests = [self.digest(f"{prefix}.{name}.jsonl") for name in ("atco", "pilot", "traces")]
        assert digests == OUTPUT_PINS[(order, icao)]


class TestEvaluate:
    def make_files(self, tmp_path, tp, fn, fp, tn):
        gold, pred = [], []
        i = 0
        for n, p_role, g_role in (
            (tp, "atco", "atco"),
            (fn, "pilot", "atco"),
            (fp, "atco", "pilot"),
            (tn, "pilot", "pilot"),
        ):
            for _ in range(n):
                gold.append(json.dumps({"id": f"u{i}", "role": g_role}))
                pred.append(json.dumps({"id": f"u{i}", "role": p_role}))
                i += 1
        gold_path, pred_path = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
        write_lines(gold_path, gold)
        write_lines(pred_path, pred)
        return gold_path, pred_path

    def test_reference_counts_round_to_expected_rates(self, tmp_path, capsys):
        gold, pred = self.make_files(tmp_path, 856, 204, 188, 1092)
        code, manifest, out = run_cli(capsys, ["evaluate", "--gold", str(gold), "--pred", str(pred)])
        assert code == 0
        result = manifest["result"]
        assert result["matrix"] == {"tp": 856, "fn": 204, "fp": 188, "tn": 1092}
        assert round(result["rates"]["tpr"], 2) == 0.81
        assert round(result["rates"]["tnr"], 2) == 0.85
        assert "tpr 0.81" in out and "tnr 0.85" in out  # aligned table
        assert "856" in out

    def test_id_mismatch_is_a_data_error(self, tmp_path, capsys):
        gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
        write_lines(gold, [json.dumps({"id": "a", "role": "atco"})])
        write_lines(pred, [json.dumps({"id": "b", "role": "atco"})])
        code, manifest, _ = run_cli(capsys, ["evaluate", "--gold", str(gold), "--pred", str(pred)])
        assert code == 1
        assert manifest["error"] == "CorpusFormatError"

    @pytest.mark.parametrize(
        "bad_file,gold_lines,pred_lines",
        [
            ("gold", ['{"id": "a", "role": "atco"}', '{"id": "a", "role": "pilot"}'],
             ['{"id": "a", "role": "atco"}']),
            ("pred", ['{"id": "a", "role": "atco"}'], ['{"id": "a", "role": "atco"}', '{"id": "b"}']),
        ],
        ids=["duplicate_id_in_gold", "missing_role_in_pred"],
    )
    def test_bad_label_record_is_a_data_error(self, tmp_path, capsys, bad_file, gold_lines, pred_lines):
        gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
        write_lines(gold, gold_lines)
        write_lines(pred, pred_lines)
        code, manifest, _ = run_cli(capsys, ["evaluate", "--gold", str(gold), "--pred", str(pred)])
        assert code == 1
        assert manifest["error"] == "CorpusFormatError"
        bad = gold if bad_file == "gold" else pred
        assert manifest["message"].startswith(f"{bad}:2: ")

    def test_round_trip_matches_in_process_run(self, tmp_path, capsys, telephony, role_lexicon):
        rng = random.Random(83)
        cases = branch_cases(rng, 10, role_lexicon, telephony)
        corpus = []
        for case in cases:
            utt = case["utterance"]
            corpus.append(
                Utterance(utt.id, utt.tokens, gold_role=case["label"], context_callsigns=utt.context_callsigns)
            )
        # in-process confusion matrix
        pairs = [
            (label, utt.gold_role)
            for utt, label, _ in classify_corpus(iter(corpus), role_lexicon, telephony)
        ]
        in_process = accumulate(pairs)
        # through the CLI: classify, then evaluate traces against gold
        src = tmp_path / "corpus.jsonl"
        write_corpus(corpus, src)
        prefix = str(tmp_path / "out")
        run_cli(capsys, ["classify", "--corpus", str(src), "--out-prefix", prefix])
        code, manifest, _ = run_cli(
            capsys, ["evaluate", "--gold", str(src), "--pred", prefix + ".traces.jsonl"]
        )
        assert code == 0
        assert manifest["result"]["matrix"] == in_process.to_json()


class TestWerCli:
    def test_breakdown(self, tmp_path, capsys):
        ref, hyp = tmp_path / "ref.txt", tmp_path / "hyp.txt"
        write_lines(ref, ["turn left heading two five zero", "climb"])
        write_lines(hyp, ["turn left heading two five", "descend now"])
        code, manifest, _ = run_cli(capsys, ["wer", "--ref", str(ref), "--hyp", str(hyp)])
        assert code == 0
        result = manifest["result"]
        assert result["deletions"] == 1
        assert result["substitutions"] == 1
        assert result["insertions"] == 1
        assert result["ref_words"] == 7
        assert result["wer"] == pytest.approx(3 / 7)

    def test_line_count_mismatch_is_a_data_error(self, tmp_path, capsys):
        ref, hyp = tmp_path / "ref.txt", tmp_path / "hyp.txt"
        write_lines(ref, ["a b"])
        write_lines(hyp, ["a b", "c"])
        code, manifest, _ = run_cli(capsys, ["wer", "--ref", str(ref), "--hyp", str(hyp)])
        assert code == 1
        assert manifest["error"] == "CorpusFormatError"

    def test_only_newlines_end_lines(self, tmp_path, capsys):
        ref, hyp = tmp_path / "ref.txt", tmp_path / "hyp.txt"
        ref.write_text("eight four\x0cjuliett\n", encoding="utf-8")
        hyp.write_text("eight four juliett\n", encoding="utf-8")
        code, manifest, _ = run_cli(capsys, ["wer", "--ref", str(ref), "--hyp", str(hyp)])
        assert code == 0
        assert (manifest["result"]["wer"], manifest["result"]["utterances"]) == (0.0, 1)

    def test_lone_carriage_return_stays_in_its_line(self, tmp_path, capsys):
        ref, hyp = tmp_path / "ref.txt", tmp_path / "hyp.txt"
        ref.write_bytes(b"one two\rthree\nfour")
        hyp.write_bytes(b"one two three\nfour")
        code, manifest, _ = run_cli(capsys, ["wer", "--ref", str(ref), "--hyp", str(hyp)])
        assert code == 0
        assert (manifest["result"]["wer"], manifest["result"]["utterances"]) == (0.0, 2)

    def test_empty_reference_line_reported(self, tmp_path, capsys):
        ref, hyp = tmp_path / "ref.txt", tmp_path / "hyp.txt"
        write_lines(ref, [""])
        write_lines(hyp, ["something"])
        code, manifest, _ = run_cli(capsys, ["wer", "--ref", str(ref), "--hyp", str(hyp)])
        assert code == 1
        assert manifest["error"] == "EmptyReference"

    def test_non_utf8_input_is_a_data_error(self, tmp_path, capsys):
        ref, hyp = tmp_path / "ref.txt", tmp_path / "hyp.txt"
        ref.write_bytes(b"turn left \xff\xfe\n")
        write_lines(hyp, ["turn left"])
        code, manifest, _ = run_cli(capsys, ["wer", "--ref", str(ref), "--hyp", str(hyp)])
        assert code == 1
        assert manifest["error"] == "UnicodeDecodeError"


SINGLE_TRACE = [
    2.1972245773362213,
    2.871905223654811,
    3.4170094910351603,
    3.8600902085172875,
    4.221902139569769,
    4.518651349000507,
]


# with "--n-symbols 3 --learning-rate 1e308" one step overflows the logits
DIVERGENT_RECORDS = [
    json.dumps(r)
    for r in (
        {"task": 1, "symbols": [0, 1, 2], "words": ["ba"]},
        {"task": 1, "symbols": [1, 1, 1], "words": ["ba"]},
        {"task": 2, "symbols": [0, 1, 0, 0], "words": ["ab"]},
        {"task": 2, "symbols": [2, 2, 0, 1], "words": ["ba"]},
    )
]


def test_crlf_inputs_give_the_outputs_of_their_lf_twins(tmp_path, capsys, telephony, role_lexicon):
    corpus = tmp_path / "pin.jsonl"
    write_corpus(pin_corpus(telephony, role_lexicon), corpus)
    data = Path(atckit.__file__).parent / "data"
    texts = {
        "corpus.jsonl": corpus.read_text(encoding="utf-8"),
        "telephony.tsv": (data / "telephony.tsv").read_text(encoding="utf-8"),
        "roles.txt": (data / "role_words.txt").read_text(encoding="utf-8"),
        "ref.txt": "turn left heading two five zero\nclimb\nhold short\ncontact tower\n",
        "hyp.txt": "turn left heading two five\ndescend now\nhello\ncontact tower\n",
        "gold.jsonl": '{"id": "a", "role": "atco"}\n{"id": "b", "role": "pilot"}\n',
        "pred.jsonl": '{"id": "b", "role": "atco"}\n\n{"id": "a", "role": "atco"}\n',
        "train.jsonl": '{"task": 1, "symbols": [0, 0, 1, 1], "words": ["ab"]}\n'
        '{"task": 2, "symbols": [1, 1, 0, 0], "words": ["ba"]}\n',
        "phones.tsv": "# word<TAB>phones\nab\ta b\nba\tb a\n",
    }
    commands = [
        ["filter", "--corpus", "{d}/corpus.jsonl", "--telephony", "{d}/telephony.tsv", "--out", "{d}/kept.jsonl"],
        ["classify", "--corpus", "{d}/corpus.jsonl", "--telephony", "{d}/telephony.tsv",
         "--lexicon", "{d}/roles.txt", "--out-prefix", "{d}/split"],
        ["evaluate", "--gold", "{d}/gold.jsonl", "--pred", "{d}/pred.jsonl"],
        ["wer", "--ref", "{d}/ref.txt", "--hyp", "{d}/hyp.txt"],
        ["mmi-train", "--corpus", "{d}/train.jsonl", "--lexicon", "{d}/phones.tsv", "--n-symbols", "2",
         "--steps", "3", "--out", "{d}/model.npz"],
    ]
    outputs = ["kept.jsonl", "split.atco.jsonl", "split.pilot.jsonl", "split.traces.jsonl", "model.npz"]
    runs = {}
    for twin, ending in (("lf", "\n"), ("crlf", "\r\n")):
        d = tmp_path / twin
        d.mkdir()
        for name, text in texts.items():
            (d / name).write_bytes(text.replace("\n", ending).encode("utf-8"))
        results = []
        for argv in commands:
            code, manifest, _ = run_cli(capsys, [arg.format(d=d) for arg in argv])
            results.append((code, manifest.get("result")))
        runs[twin] = results, [(d / name).read_bytes() for name in outputs]
    assert runs["crlf"] == runs["lf"]
    assert all(code == 0 for code, _ in runs["lf"][0])


class TestMmiCli:
    def test_check_passes_and_reports_each_check(self, capsys):
        code, manifest, _ = run_cli(
            capsys,
            ["mmi-check", "--seed", "3"],
        )
        assert code == 0
        result = manifest["result"]
        assert result["all_passed"] is True
        names = {c["name"] for c in result["checks"]}
        assert names == {
            "forward_vs_enumeration",
            "gradient_vs_finite_differences",
            "matched_graphs_zero",
            "single_task_reduction",
            "batched_vs_generic",
        }

    @staticmethod
    def write_training_files(tmp_path):
        corpus = tmp_path / "train.jsonl"
        lexicon = tmp_path / "lexicon.tsv"
        records = [
            {"task": 1, "symbols": [0, 0, 1, 1], "words": ["ab"]},
            {"task": 1, "symbols": [1, 1, 0, 0], "words": ["ba"]},
            {"task": 2, "symbols": [1, 1, 0, 0], "words": ["ab"]},
            {"task": 2, "symbols": [0, 0, 1, 1], "words": ["ba"]},
        ]
        write_lines(corpus, [json.dumps(r) for r in records])
        lexicon.write_text("ab\ta b\nba\tb a\n", encoding="utf-8")
        return corpus, lexicon

    @pytest.mark.parametrize("mode", ["single", "pooled", "multitask"])
    def test_train_modes_run(self, tmp_path, capsys, mode):
        corpus, lexicon = self.write_training_files(tmp_path)
        out = tmp_path / "model.npz"
        code, manifest, _ = run_cli(
            capsys,
            ["mmi-train", "--corpus", str(corpus), "--lexicon", str(lexicon), "--n-symbols", "2",
             "--mode", mode, "--steps", "5", "--learning-rate", "0.05", "--out", str(out)],
        )
        assert code == 0
        runs = manifest["result"]["runs"]
        assert len(runs) == (2 if mode == "single" else 1)
        for run in runs:
            assert len(run["trace"]) == 6
            assert run["final_objective"] >= run["initial_objective"]
        assert out.exists()

    @pytest.mark.parametrize(
        "mode,keys,traces",
        [
            (
                "single",
                {"task1_shared", "task1_bias", "task2_shared", "task2_bias"},
                {
                    (1,): SINGLE_TRACE,
                    (2,): SINGLE_TRACE,
                },
            ),
            ("pooled", {"shared", "bias_0"}, {(0,): [4.394449154672441] * 6}),
            (
                "multitask",
                {"shared", "bias_1", "bias_2"},
                {
                    (1, 2): [
                        2.1972245773362213,
                        2.3727050469694184,
                        2.5392656451698663,
                        2.6974329745825987,
                        2.847693546191445,
                        2.9904976768032356,
                    ]
                },
            ),
        ],
    )
    def test_train_modes_pin_arrays_and_traces(self, tmp_path, capsys, mode, keys, traces):
        corpus, lexicon = self.write_training_files(tmp_path)
        out = tmp_path / "model.npz"
        code, manifest, _ = run_cli(
            capsys,
            ["mmi-train", "--corpus", str(corpus), "--lexicon", str(lexicon), "--n-symbols", "2",
             "--mode", mode, "--steps", "5", "--learning-rate", "0.05", "--out", str(out)],
        )
        assert code == 0
        runs = {tuple(run["task_ids"]): run["trace"] for run in manifest["result"]["runs"]}
        assert runs.keys() == traces.keys()
        for task_ids, trace in traces.items():
            assert runs[task_ids] == pytest.approx(trace, rel=1e-9)
        with np.load(out) as arrays:
            assert set(arrays.files) == keys
            assert all(arrays[k].shape == (2, 2) for k in keys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lexicon.tsv", "model.npz", "train.jsonl"]

    @pytest.mark.parametrize("mode", ["single", "pooled", "multitask"])
    def test_train_records_gradient_size_per_step(self, tmp_path, capsys, mode):
        corpus, lexicon = self.write_training_files(tmp_path)
        code, manifest, _ = run_cli(
            capsys,
            ["mmi-train", "--corpus", str(corpus), "--lexicon", str(lexicon), "--n-symbols", "2",
             "--mode", mode, "--steps", "4", "--learning-rate", "0.05"],
        )
        assert code == 0
        for run in manifest["result"]["runs"]:
            assert len(run["grad_max_abs"]) == 4
            assert all(0.0 <= v < math.inf for v in run["grad_max_abs"])
            if mode == "multitask":
                assert all(v > 0.0 for v in run["grad_max_abs"])

    def run_train(self, capsys, corpus, lexicon, *extra, n_symbols="3"):
        return run_cli(
            capsys,
            ["mmi-train", "--corpus", str(corpus), "--lexicon", str(lexicon), "--steps", "3",
             "--n-symbols", n_symbols, *extra],
        )

    def test_negative_symbol_is_a_data_error(self, tmp_path, capsys):
        corpus, lexicon = self.write_training_files(tmp_path)
        with corpus.open("a", encoding="utf-8") as stream:
            stream.write('{"task": 1, "symbols": [0, -1, 1], "words": ["ab"]}\n')
        code, manifest, _ = self.run_train(capsys, corpus, lexicon)
        assert code == 1
        assert manifest["error"] == "CorpusFormatError"
        assert f"{corpus}:5:" in manifest["message"]

    def test_symbol_beyond_inventory_is_a_data_error(self, tmp_path, capsys):
        corpus, lexicon = self.write_training_files(tmp_path)
        code, manifest, _ = self.run_train(capsys, corpus, lexicon, n_symbols="1")
        assert code == 1
        assert manifest["error"] == "CorpusFormatError"
        assert f"{corpus}:1:" in manifest["message"]

    def test_n_symbols_is_required(self, tmp_path, capsys):
        # the inventory is never sized from the data: one huge symbol id
        # cannot make training allocate a huge emission table
        corpus, lexicon = self.write_training_files(tmp_path)
        with corpus.open("a", encoding="utf-8") as stream:
            stream.write(json.dumps({"task": 1, "symbols": [0, 10**12], "words": ["ab"]}) + "\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["mmi-train", "--corpus", str(corpus), "--lexicon", str(lexicon), "--steps", "1"])
        assert excinfo.value.code == 2
        assert "--n-symbols" in capsys.readouterr().err
        code, manifest, _ = self.run_train(capsys, corpus, lexicon, n_symbols="30")
        assert code == 1
        assert manifest["error"] == "CorpusFormatError"
        assert f"{corpus}:5:" in manifest["message"]

    def test_divergent_training_is_a_data_error(self, tmp_path, capsys):
        corpus, lexicon = self.write_training_files(tmp_path)
        write_lines(corpus, DIVERGENT_RECORDS)
        # one huge step overflows the logits and the objective leaves the finite
        # range; the error says so, numpy's floating-point warnings must not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, manifest, _ = self.run_train(capsys, corpus, lexicon, "--learning-rate", "1e308")
        assert code == 1
        assert manifest["error"] == "DivergenceDetected"
        assert "result" not in manifest

    @pytest.mark.parametrize(
        "record",
        [
            '{"task": "1", "symbols": [0, 1], "words": ["ab"]}',
            '{"task": true, "symbols": [0, 1], "words": ["ab"]}',
            '{"task": 1, "symbols": "01", "words": ["ab"]}',
            '{"task": 1, "symbols": [0, true], "words": ["ab"]}',
            '{"task": 1, "symbols": [0, 1.0], "words": ["ab"]}',
            '{"task": 1, "symbols": [0, 1], "words": "ab"}',
            '{"task": 1, "symbols": [0, 1], "words": [7]}',
            '{"task": 1, "symbols": [0, 1]}',
            '{"task": 1, "symbols": [0, 1], "words": ["ab"]',
        ],
    )
    def test_bad_training_record_is_a_data_error(self, tmp_path, capsys, record):
        corpus, lexicon = self.write_training_files(tmp_path)
        with corpus.open("a", encoding="utf-8") as stream:
            stream.write("\n" + record + "\n")
        code, manifest, _ = self.run_train(capsys, corpus, lexicon)
        assert code == 1
        assert manifest["error"] == "CorpusFormatError"
        assert f"{corpus}:6:" in manifest["message"]

    def test_repeated_lexicon_word_is_a_data_error(self, tmp_path, capsys):
        corpus, lexicon = self.write_training_files(tmp_path)
        write_lines(lexicon, ["ab\ta b", "ba\tb a", "ab\ta"])
        code, manifest, _ = self.run_train(capsys, corpus, lexicon)
        assert code == 1
        assert manifest["error"] == "CorpusFormatError"
        assert manifest["message"].startswith(f"{lexicon}:3: repeated word")

    def test_empty_lexicon_is_a_data_error(self, tmp_path, capsys):
        corpus, lexicon = self.write_training_files(tmp_path)
        lexicon.write_text("# no entries\n", encoding="utf-8")
        code, manifest, _ = self.run_train(capsys, corpus, lexicon)
        assert code == 1
        assert manifest["error"] == "CorpusFormatError"

    @pytest.mark.parametrize(
        "argv",
        [
            ["mmi-train", "--alpha", "-0.5"],
            ["mmi-train", "--steps", "-1"],
            ["mmi-train", "--n-symbols", "-3"],
            # "=" keeps argparse from reading "-inf" as an option
            ["mmi-train", "--learning-rate=nan"],
            ["mmi-train", "--learning-rate=inf"],
            ["mmi-train", "--learning-rate=-inf"],
            ["mmi-train", "--alpha=inf"],
        ],
        ids=lambda argv: argv[1].lstrip("-"),
    )
    def test_negative_value_is_a_usage_error(self, tmp_path, capsys, argv):
        option = argv[1].split("=")[0]
        wanted = "a finite number" if option == "--learning-rate" else "a non-negative"
        corpus, lexicon = self.write_training_files(tmp_path)
        # argparse refuses the bad value first, before it reads these
        argv = argv + ["--corpus", str(corpus), "--lexicon", str(lexicon), "--n-symbols", "2"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and f"argument {option}: must be {wanted}" in err

    def test_oversized_symbol_count_is_a_usage_error(self, tmp_path, capsys):
        # no host holds emission tables this wide; the parser refuses it before any array exists
        corpus, lexicon = self.write_training_files(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["mmi-train", "--corpus", str(corpus), "--lexicon", str(lexicon), "--n-symbols", str(10**15)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "argument --n-symbols: must be a non-negative finite number at most 2147483647" in err

    def test_out_of_memory_is_a_data_error(self, tmp_path, capsys, monkeypatch):
        # a stand-in for an allocation too large for the host, which a test must not make
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 14.6 TiB for an array")

        monkeypatch.setattr(cli, "toy_train", out_of_memory)
        corpus, lexicon = self.write_training_files(tmp_path)
        code, manifest, _ = self.run_train(capsys, corpus, lexicon, n_symbols="2")
        assert code == 1
        assert manifest["error"] == "MemoryError"
        assert manifest["message"] == "Unable to allocate 14.6 TiB for an array"
        assert "result" not in manifest

    def test_train_calls_toy_train_as_bound_on_the_module(self, tmp_path, capsys, monkeypatch):
        # perfbench's tracer replaces cli.toy_train to record training spans
        calls = []
        original = cli.toy_train

        def counting(*args, **kwargs):
            calls.append(args[1].keys())
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "toy_train", counting)
        corpus, lexicon = self.write_training_files(tmp_path)
        code, _, _ = self.run_train(capsys, corpus, lexicon, "--mode", "single", n_symbols="2")
        assert code == 0
        assert [sorted(tasks) for tasks in calls] == [[1], [2]]

    def test_train_oov_word_is_a_data_error(self, tmp_path, capsys):
        corpus, lexicon = self.write_training_files(tmp_path)
        corpus.write_text('{"task": 1, "symbols": [0], "words": ["zz"]}\n', encoding="utf-8")
        code, manifest, _ = run_cli(
            capsys, ["mmi-train", "--corpus", str(corpus), "--lexicon", str(lexicon), "--n-symbols", "2"]
        )
        assert code == 1
        assert manifest["error"] == "OovWord"

    def test_transcripts_too_long_for_their_utterances_are_named(self, tmp_path, capsys, caplog):
        corpus, lexicon = self.write_training_files(tmp_path)
        with corpus.open("a", encoding="utf-8") as stream:
            stream.write('{"task": 1, "symbols": [0], "words": ["ab"]}\n')
            stream.write('{"task": 2, "symbols": [1, 0, 1], "words": ["ba", "ab"]}\n')
        code, manifest, _ = self.run_train(capsys, corpus, lexicon, "--mode", "multitask", n_symbols="2")
        assert code == 1
        assert manifest["error"] == "DivergenceDetected"
        assert manifest["message"] == (
            "objective is -inf after 0 steps: "
            "2 transcripts need more frames than their utterances have: ab; ba ab"
        )
        (record,) = caplog.records
        assert record.getMessage().startswith("2 transcripts need more frames than their utterances have, which")
        assert record.getMessage().endswith(": ab; ba ab")

    def test_empty_transcript_is_named_empty(self, tmp_path, capsys, caplog):
        # a one-state numerator fits no frame, so it needs fewer frames, not more
        corpus, lexicon = self.write_training_files(tmp_path)
        corpus.write_text('{"task": 1, "symbols": [0, 1], "words": []}\n', encoding="utf-8")
        code, manifest, _ = self.run_train(capsys, corpus, lexicon, n_symbols="2")
        assert code == 1
        assert manifest["error"] == "DivergenceDetected"
        assert manifest["message"] == "objective is -inf after 0 steps: 1 transcript is empty and fits no frame"
        assert "needs more frames" not in manifest["message"]
        (record,) = caplog.records
        assert record.getMessage() == (
            "1 transcript is empty and fits no frame, which adds -inf to the objective and nothing to the gradient"
        )


class TestHarness:
    def test_unknown_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_missing_required_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["expand"])
        assert excinfo.value.code == 2

    def test_module_entry_point(self):
        proc = run_fresh(["-m", "atckit", "expand", "--callsign", "TVS84J"])
        assert proc.returncode == 0
        manifest = json.loads(proc.stdout.splitlines()[0])
        assert manifest["subcommand"] == "expand"

    def test_config_hash_differs_across_configs(self, capsys):
        _, m1, _ = run_cli(capsys, ["expand", "--callsign", "TVS84J"])
        _, m2, _ = run_cli(capsys, ["expand", "--callsign", "TVS84J", "--icao-digits"])
        assert m1["config_hash"] != m2["config_hash"]

    def test_threads_option_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["filter", "--threads", "2", "--corpus", str(tmp_path / "c"), "--out", str(tmp_path / "o")])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["filter", "--corpus", "{d}/c", "--out", "{d}/o"],
            ["classify", "--corpus", "{d}/c", "--out-prefix", "{d}/o"],
            ["evaluate", "--gold", "{d}/g", "--pred", "{d}/p"],
            ["wer", "--ref", "{d}/r", "--hyp", "{d}/h"],
            ["mmi-check"],
            ["mmi-train", "--corpus", "{d}/c", "--lexicon", "{d}/l", "--n-symbols", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_pretty_option_only_on_expand(self, tmp_path, argv):
        with pytest.raises(SystemExit) as excinfo:
            main([arg.format(d=tmp_path) for arg in argv] + ["--pretty"])
        assert excinfo.value.code == 2

    def test_benchmark_tracer_names_resolve(self):
        # perfbench wraps module-level names of the program; dropping one of
        # them breaks traced benchmark runs
        spans = perfbench_spans()
        originals = (cli.read_corpus, cli.toy_train, classifier.classify, classifier.find_matches)
        spans.uninstall(spans.install(spans.Tracer()))
        assert (cli.read_corpus, cli.toy_train, classifier.classify, classifier.find_matches) == originals

    def test_benchmark_arc_frames_count_graph_arcs(self):
        # perfbench counts mmi.objective.arc_frames as len(graph.arcs) times
        # frames per recursion: two per occupancy call, one per forward call
        spans = perfbench_spans()
        tasks, batches, em = random_instance(random.Random(5), n_tasks=2)
        task = tasks[0]
        symbols = batches[task.task_id][0].symbols
        graphs = [
            (t, utt, graph)
            for t in tasks
            for utt in batches[t.task_id]
            for graph in (t.den_graph, t.numerator_graph(utt.words))
        ]
        tracer = spans.Tracer()
        undo = spans.install(tracer)
        try:
            for t, utt, graph in graphs:
                objective.emission_occupancy(graph, em.log_probs(t.task_id), utt.symbols)
            objective.forward_logprob(task.den_graph, em, task.task_id, symbols)
        finally:
            spans.uninstall(undo)
        occupancy = sum(2 * len(graph.arcs) * len(utt.symbols) for _, utt, graph in graphs)
        counts = tracer.counts[0]
        assert counts["mmi.objective.arc_frames"] == occupancy + len(task.den_graph.arcs) * len(symbols)
        assert counts["mmi.objective.nopath"] == 0

    def test_benchmark_traces_every_training_step(self):
        # perfbench/run.py takes max() of the step times, which it reads off
        # the gradient and objective spans directly under toy_train
        spans = perfbench_spans()
        tasks, batches, _ = random_instance(random.Random(6), n_tasks=2)
        tracer = spans.Tracer()
        undo = spans.install(tracer)
        try:
            cli.toy_train(tasks, batches, n_symbols=4, steps=2, learning_rate=0.01)
        finally:
            spans.uninstall(undo)
        names = [tracer.names[i] for i in tracer.name]
        (top,) = [i for i, name in enumerate(names) if name == "mmi.train.toy_train"]
        children = [name for name, parent in zip(names, tracer.parent) if parent == top]
        objective_spans = [name for name in children if name.startswith("mmi.objective.")]
        gradient, evaluation = "mmi.objective.mmi_gradient", "mmi.objective.multitask_objective"
        assert objective_spans == [gradient, gradient, evaluation]
        table = spans.SpanTable(tracer.names, tracer.name, tracer.parent, tracer.start, tracer.end)
        assert len(table.steps("mmi.train.toy_train", gradient, evaluation)) == 1

    def test_program_bug_is_not_reported_as_a_data_error(self, tmp_path, monkeypatch):
        def broken(path):
            raise ValueError("a bug, not bad data")

        monkeypatch.setattr(cli, "read_corpus", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["filter", "--corpus", str(tmp_path / "c"), "--out", str(tmp_path / "o")])

    def test_manifest_names_the_package_version(self, capsys):
        pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
        declared = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE).group(1)
        _, manifest, _ = run_cli(capsys, ["expand", "--callsign", "TVS84J"])
        assert manifest["version"] == atckit.__version__ == declared


# reports, after importing atckit.cli and after each cli.main(argv), which of
# the lazily loaded modules are in sys.modules
_LOADED_SCRIPT = """
import contextlib, io, json, sys
from atckit import cli

def loaded():
    return [name for name in ("numpy", "atckit.mmi") if name in sys.modules]

report = [["import", 0, loaded()]]
cli.toy_train
report.append(["toy_train", 0, loaded()])
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    report.append([argv[0], code, loaded()])
print(json.dumps(report))
"""


class TestFreshProcess:
    """Runs in a new interpreter, where nothing has imported numpy or the MMI
    engine yet; in this process pytest already has."""

    def test_only_the_mmi_subcommands_load_numpy(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        write_lines(corpus, [
            json.dumps({"id": "u1", "text": "skytravel eight four juliett climb", "callsigns": ["TVS84J"]}),
            json.dumps({"id": "u2", "text": "wilco", "callsigns": ["TVS84J"]}),
        ])
        labels = tmp_path / "labels.jsonl"
        write_lines(labels, [json.dumps({"id": "u1", "role": "atco"}), json.dumps({"id": "u2", "role": "pilot"})])
        text = tmp_path / "text.txt"
        write_lines(text, ["climb flight level one two zero"])
        train_corpus, phones = TestMmiCli.write_training_files(tmp_path)
        runs = [
            ["expand", "--callsign", "TVS84J"],
            ["filter", "--corpus", str(corpus), "--out", str(tmp_path / "kept.jsonl")],
            ["classify", "--corpus", str(corpus), "--out-prefix", str(tmp_path / "split")],
            ["evaluate", "--gold", str(labels), "--pred", str(labels)],
            ["wer", "--ref", str(text), "--hyp", str(text)],
            ["mmi-train", "--corpus", str(train_corpus), "--lexicon", str(phones), "--n-symbols", "2",
             "--steps", "1"],
        ]
        proc = run_fresh(["-c", _LOADED_SCRIPT, json.dumps(runs)])
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        steps = [("import", 0), ("toy_train", 0)] + [(argv[0], 0) for argv in runs]  # toy_train: a lookup
        assert [(name, code) for name, code, _ in report] == steps
        assert [modules for _, _, modules in report] == [[]] * 7 + [["numpy", "atckit.mmi"]]

    @pytest.mark.parametrize("case", ["oov", "divergent"])
    def test_mmi_train_data_error_prints_one_manifest(self, tmp_path, case):
        corpus, lexicon = TestMmiCli.write_training_files(tmp_path)
        argv = ["-m", "atckit", "mmi-train", "--corpus", str(corpus), "--lexicon", str(lexicon), "--steps", "3"]
        if case == "oov":
            write_lines(corpus, [json.dumps({"task": 1, "symbols": [0], "words": ["zz"]})])
            argv += ["--n-symbols", "2"]
            error = "OovWord"
        else:
            write_lines(corpus, DIVERGENT_RECORDS)
            argv += ["--n-symbols", "3", "--learning-rate", "1e308"]
            error = "DivergenceDetected"
        proc = run_fresh(argv)
        assert proc.returncode == 1
        assert len(proc.stdout.splitlines()) == 1
        assert strict_manifest(proc.stdout)["error"] == error
        assert proc.stderr == ""

    def test_closed_stdout_exits_1_without_a_traceback(self):
        # as in `atckit expand ... | true`: the reader is gone before the manifest is written
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "atckit", "expand", "--callsign", "TVS84J", "--pretty"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=300,
                env=dict(os.environ, PYTHONPATH=SRC_DIR),
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""


# ----------------------------------------------------------- CLI contract

_json_leaf = st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=6)
_json_value = st.recursive(
    _json_leaf,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)
# records carry every key a subcommand reads; _json_value dicts cover missing keys
_record = st.fixed_dictionaries(
    {
        "id": st.sampled_from(["u1", "u2", "u3"]) | _json_value,
        "text": st.sampled_from(["wilco", "skytravel eight four juliett climb", ""]) | _json_value,
        "role": st.sampled_from(["atco", "pilot"]) | _json_value,
        "task": st.integers(0, 2) | _json_value,
        "symbols": st.lists(st.integers(-1, 11), min_size=1, max_size=8) | _json_value,
        "words": st.lists(st.sampled_from(["ab", "ba", "zz"]), max_size=2) | _json_value,
    },
    optional={"callsigns": st.lists(st.sampled_from(["TVS84J", "LUF189AF", "84TVS"]), max_size=2) | _json_value},
)
_other_line = st.one_of(
    _json_value.map(json.dumps),
    st.sampled_from(["[atco]", "[pilot]", "wilco", "ab\ta b", "ba\tb a # note", "TVS\tsky travel", "# c", ""]),
    st.text(max_size=12),
)
_line = st.one_of(_record.map(json.dumps), _other_line)
_file = st.one_of(
    st.binary(max_size=40),
    st.lists(_line, max_size=5).map(lambda lines: "\n".join(lines).encode("utf-8")),
)

# (arguments, a well-formed second input used when the example draws none)
_CONTRACT = {
    "filter": (["--corpus", "{a}", "--telephony", "{b}", "--out", "{d}/kept.jsonl"], "TVS\tskytravel\n"),
    "classify": (["--corpus", "{a}", "--lexicon", "{b}", "--out-prefix", "{d}/split"],
                 "[atco]\nclimb\n[pilot]\nwilco\n"),
    "evaluate": (["--gold", "{a}", "--pred", "{b}"], None),
    "wer": (["--ref", "{a}", "--hyp", "{b}"], None),
    # an explicit inventory keeps arbitrary symbol ids from sizing the model
    "mmi-train": (["--corpus", "{a}", "--lexicon", "{b}", "--steps", "1", "--n-symbols", "10"],
                  "ab\ta b\nba\tb a\n"),
}


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@pytest.mark.parametrize("command", sorted(_CONTRACT))
@settings(max_examples=20, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(a=_file, b=st.none() | _file)
def test_any_input_gets_one_strict_manifest_and_a_known_exit_code(contract_dir, command, a, b):
    template, companion = _CONTRACT[command]
    if b is None:  # a well-formed companion, or the first input again
        b = a if companion is None else companion.encode("utf-8")
    for name, data in (("a", a), ("b", b)):
        (contract_dir / name).write_bytes(data)
    argv = [command] + [arg.format(a=contract_dir / "a", b=contract_dir / "b", d=contract_dir) for arg in template]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 1, 2)
    manifest = strict_manifest(out.getvalue())
    assert manifest["subcommand"] == command
    assert manifest["version"] == atckit.__version__
    assert ("error" in manifest) == (code == 1)
