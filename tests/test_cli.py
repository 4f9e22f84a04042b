import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from atckit import cli
from atckit.cli import main
from atckit.classifier import classify_corpus
from atckit.corpus import Utterance, write_corpus
from atckit.evaluation import accumulate

from synth import branch_cases, make_planted_corpus, safe_fillers

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_manifest(out):
    """The first stdout line, parsed as strict JSON (no NaN or Infinity)."""
    return json.loads(out.splitlines()[0], parse_constant=_reject_constant)


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
            [Utterance.from_text("u1", "wilco skytravel eight four juliett", callsigns=["TVS84J"])],
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


class TestMmiCli:
    def test_check_passes_and_reports_each_check(self, capsys):
        code, manifest, _ = run_cli(
            capsys,
            ["mmi-check", "--seed", "3", "--enum-instances", "10", "--fd-instances", "4",
             "--zero-instances", "3"],
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
        }

    def write_training_files(self, tmp_path):
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
            ["mmi-train", "--corpus", str(corpus), "--lexicon", str(lexicon),
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
            ["mmi-train", "--corpus", str(corpus), "--lexicon", str(lexicon),
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

    def run_train(self, capsys, corpus, lexicon, *extra):
        return run_cli(
            capsys, ["mmi-train", "--corpus", str(corpus), "--lexicon", str(lexicon), "--steps", "3", *extra]
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
        code, manifest, _ = self.run_train(capsys, corpus, lexicon, "--n-symbols", "1")
        assert code == 1
        assert manifest["error"] == "CorpusFormatError"
        assert f"{corpus}:1:" in manifest["message"]

    def test_divergent_training_is_a_data_error(self, tmp_path, capsys):
        corpus, lexicon = self.write_training_files(tmp_path)
        records = [
            {"task": 1, "symbols": [0, 1, 2], "words": ["ba"]},
            {"task": 1, "symbols": [1, 1, 1], "words": ["ba"]},
            {"task": 2, "symbols": [0, 1, 0, 0], "words": ["ab"]},
            {"task": 2, "symbols": [2, 2, 0, 1], "words": ["ba"]},
        ]
        write_lines(corpus, [json.dumps(r) for r in records])
        # one huge step overflows the logits and the objective leaves the finite range
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
            ["mmi-check", "--enum-instances", "-1"],
            ["mmi-check", "--fd-instances", "-1"],
            ["mmi-check", "--zero-instances", "-1"],
        ],
        ids=lambda argv: argv[1].lstrip("-"),
    )
    def test_negative_value_is_a_usage_error(self, tmp_path, capsys, argv):
        if argv[0] == "mmi-train":
            corpus, lexicon = self.write_training_files(tmp_path)
            argv = argv + ["--corpus", str(corpus), "--lexicon", str(lexicon)]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and f"argument {argv[1]}: must be a non-negative" in err

    def test_train_oov_word_is_a_data_error(self, tmp_path, capsys):
        corpus, lexicon = self.write_training_files(tmp_path)
        corpus.write_text('{"task": 1, "symbols": [0], "words": ["zz"]}\n', encoding="utf-8")
        code, manifest, _ = run_cli(
            capsys, ["mmi-train", "--corpus", str(corpus), "--lexicon", str(lexicon)]
        )
        assert code == 1
        assert manifest["error"] == "OovWord"


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
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        proc = subprocess.run(
            [sys.executable, "-m", "atckit", "expand", "--callsign", "TVS84J"],
            capture_output=True,
            text=True,
            env=env,
        )
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

    def test_program_bug_is_not_reported_as_a_data_error(self, tmp_path, monkeypatch):
        def broken(path):
            raise ValueError("a bug, not bad data")

        monkeypatch.setattr(cli, "read_corpus", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["filter", "--corpus", str(tmp_path / "c"), "--out", str(tmp_path / "o")])


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
    assert ("error" in manifest) == (code == 1)
