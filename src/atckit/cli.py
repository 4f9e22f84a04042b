"""Single entry point exposing the pipeline as composable subcommands.

Every invocation prints exactly one single-line strict-JSON manifest to
stdout (inputs, outputs, config hash, counts and metrics); data files
between stages are JSON lines, so stages compose through files or pipes.
Output files are written atomically (temp files, then renames). Exit
codes: 0 on success, 1 on a data error (the error name lands in the
manifest), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from contextlib import ExitStack
from pathlib import Path
from typing import IO, Callable, Sequence

from . import __version__
from .callsign import (
    MalformedCallsign,
    VariantKind,
    default_telephony_lexicon,
    expand_callsign,
    load_telephony_lexicon,
    parse_callsign,
)
from .classifier import FiredRule, classify_corpus, default_role_lexicon, load_role_lexicon, RULE_ORDERS
from .corpus import CorpusFormatError, RoleLabel, iter_jsonl, open_input, parse_role, read_corpus, tokenize
from .evaluation import EmptyReference, accumulate, rates, wer_corpus
from .matcher import filter_corpus
from .mmi_base import DEFAULT_TASK_WEIGHT, DivergenceDetected, NoPath, OovWord

# bad input, never a program bug: each of these maps to exit code 1
_DATA_ERRORS = (
    MalformedCallsign, CorpusFormatError, EmptyReference, OovWord, NoPath, DivergenceDetected,
    OSError, UnicodeDecodeError, MemoryError,
)


def toy_train(*args, **kwargs):
    """atckit.mmi.train.toy_train, imported on the first call, as the engine imports
    numpy; mmi-train calls it by this name, so a wrapper bound here sees each run."""
    from .mmi.train import toy_train
    return toy_train(*args, **kwargs)


def _config_hash(args: argparse.Namespace) -> str:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "handler"}
    blob = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _write_atomic(paths: Sequence[Path], write: Callable[..., None], binary: bool = False) -> None:
    """Call ``write`` with one temp file per path; rename them all into place
    only once it has returned, and remove every temp file on any error."""
    mode, encoding = ("wb", None) if binary else ("w", "utf-8")
    tmps: list[str] = []
    try:
        with ExitStack() as stack:
            streams = []
            for path in paths:
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".")
                tmps.append(tmp)
                streams.append(stack.enter_context(os.fdopen(fd, mode, encoding=encoding)))
            write(*streams)
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _telephony(args: argparse.Namespace):
    if args.telephony:
        return load_telephony_lexicon(args.telephony)
    return default_telephony_lexicon()


def _role_lexicon(args: argparse.Namespace):
    if args.lexicon:
        return load_role_lexicon(args.lexicon)
    return default_role_lexicon()


def _read_labels(path: str) -> dict[str, RoleLabel]:
    """id -> role from any JSONL whose records carry both fields, each id once."""
    labels: dict[str, RoleLabel] = {}

    def label(obj: dict) -> tuple[str, RoleLabel]:
        if "id" not in obj or "role" not in obj:
            raise CorpusFormatError("every record needs 'id' and 'role'")
        uid = str(obj["id"])
        if uid in labels:  # records before this one are stored: iter_jsonl is lazy
            raise CorpusFormatError(f"duplicate id {uid!r}")
        return uid, parse_role(obj["role"])

    with open_input(path) as stream:
        for uid, role in iter_jsonl(stream, path, label):
            labels[uid] = role
    return labels


# ----------------------------------------------------------------- handlers


def _cmd_expand(args, manifest: dict) -> int:
    cs = parse_callsign(args.callsign)
    variants = expand_callsign(cs, _telephony(args), icao_digits=args.icao_digits)
    manifest["result"] = {
        "callsign": {
            "airline_code": cs.airline_code,
            "number_part": cs.number_part,
            "suffix": cs.suffix,
        },
        "variants": [{"kind": v.kind.value, "text": v.text} for v in variants],
    }
    if args.pretty:
        manifest["pretty"] = [f"{v.kind.value}: {v.text}" for v in variants]
    return 0


def _cmd_filter(args, manifest: dict) -> int:
    kept, stats = filter_corpus(read_corpus(args.corpus), _telephony(args), icao_digits=args.icao_digits)

    def write(stream: IO[str]) -> None:
        for utt, matches in kept:
            record = utt.to_json()
            record["matches"] = [
                {
                    "callsign": m.callsign.raw,
                    "variant_kind": m.variant.kind._value_,
                    "start": m.start_index,
                    "end": m.end_index,
                }
                for m in matches
            ]
            stream.write(json.dumps(record) + "\n")

    _write_atomic([Path(args.out)], write)
    manifest["outputs"] = {"kept": args.out}
    manifest["result"] = {"stats": stats.to_json()}
    return 0


def _cmd_classify(args, manifest: dict) -> int:
    names = ("atco", "pilot", "traces")
    paths = [Path(f"{args.out_prefix}.{name}.jsonl") for name in names]
    counts = {"atco": 0, "pilot": 0}
    rules = {rule.value: 0 for rule in FiredRule}
    evidence_by_kind = {kind.value: 0 for kind in VariantKind}  # callsign_early decisions per variant kind
    stream = classify_corpus(
        read_corpus(args.corpus),
        _role_lexicon(args),
        _telephony(args),
        rule_order=args.rule_order,
        icao_digits=args.icao_digits,
    )

    def write(atco: IO[str], pilot: IO[str], traces: IO[str]) -> None:
        halves = {"atco": atco, "pilot": pilot}
        for utt, label, trace in stream:
            counts[label._value_] += 1
            rules[trace.fired_rule._value_] += 1
            if trace.fired_rule is FiredRule.CALLSIGN_EARLY:
                evidence_by_kind[trace.evidence.variant.kind._value_] += 1
            halves[label._value_].write(json.dumps(utt.to_json()) + "\n")
            traces.write(json.dumps({"id": utt.id, "role": label._value_, **trace.to_json()}) + "\n")

    # the marker exists only while the three files come from one run
    done = Path(f"{args.out_prefix}.done")
    done.unlink(missing_ok=True)
    _write_atomic(paths, write)
    done.touch()
    manifest["outputs"] = {**{name: str(path) for name, path in zip(names, paths)}, "done": str(done)}
    manifest["result"] = {
        "counts": {**counts, "total": counts["atco"] + counts["pilot"]},
        "rules": rules,
        "evidence_by_kind": evidence_by_kind,
        "low_confidence": rules[FiredRule.CALLSIGN_LATE_OR_ABSENT.value],
    }
    return 0


def _cmd_evaluate(args, manifest: dict) -> int:
    gold = _read_labels(args.gold)
    pred = _read_labels(args.pred)
    missing = sorted(set(gold) - set(pred))
    extra = sorted(set(pred) - set(gold))
    if missing or extra:
        raise CorpusFormatError(
            f"gold/pred ids differ (missing {missing[:3]}, extra {extra[:3]})"
        )
    cm = accumulate((pred[uid], gold[uid]) for uid in gold)
    r = rates(cm)
    manifest["result"] = {"matrix": cm.to_json(), "rates": r.to_json(), "total": cm.total}
    manifest["table"] = cm.pretty_table(r).splitlines()
    return 0


def _cmd_wer(args, manifest: dict) -> int:
    with open_input(args.ref) as ref, open_input(args.hyp) as hyp:
        # only a newline ends a line, as in open_input (str.splitlines also breaks at \x0c, U+2028, ...)
        ref_lines, hyp_lines = ([line.removesuffix("\n") for line in lines] for lines in (ref, hyp))
    if len(ref_lines) != len(hyp_lines):
        raise CorpusFormatError(
            f"line counts differ: {len(ref_lines)} references, {len(hyp_lines)} hypotheses"
        )
    breakdown = wer_corpus(
        (tokenize(ref), tokenize(hyp)) for ref, hyp in zip(ref_lines, hyp_lines)
    )
    manifest["result"] = {**breakdown.to_json(), "utterances": len(ref_lines)}
    return 0


def _cmd_mmi_check(args, manifest: dict) -> int:
    from .mmi.check import run_verification

    checks = run_verification(seed=args.seed)
    all_passed = all(c.passed for c in checks)
    manifest["result"] = {"checks": [c.to_json() for c in checks], "all_passed": all_passed}
    return 0 if all_passed else 1


def _cmd_mmi_train(args, manifest: dict) -> int:
    import numpy as np

    from .mmi.train import POOLED_TASK_ID, build_tasks, load_phone_lexicon, load_training_corpus, pool_corpus

    corpus = load_training_corpus(args.corpus, n_symbols=args.n_symbols)
    if not corpus:
        raise CorpusFormatError(f"{args.corpus}: no training utterances")
    lexicon = load_phone_lexicon(args.lexicon)
    # one run per model: (its corpus, task weight, shared array name, task id -> bias array name)
    if args.mode == "multitask":
        plan = [(corpus, args.alpha, "shared", {tid: f"bias_{tid}" for tid in sorted(corpus)})]
    elif args.mode == "pooled":
        plan = [(pool_corpus(corpus), 1.0, "shared", {POOLED_TASK_ID: f"bias_{POOLED_TASK_ID}"})]
    else:  # single: one independent model per task
        plan = [
            ({tid: corpus[tid]}, 1.0, f"task{tid}_shared", {tid: f"task{tid}_bias"})
            for tid in sorted(corpus)
        ]
    runs, arrays = [], {}
    for batches, alpha, shared_name, bias_names in plan:
        result = toy_train(
            build_tasks(batches, lexicon, alpha=alpha), batches,
            n_symbols=args.n_symbols, steps=args.steps, learning_rate=args.learning_rate,
        )
        runs.append({
            "task_ids": sorted(batches),
            "initial_objective": result.initial_objective,
            "final_objective": result.final_objective,
            "trace": result.objective_trace,
            "grad_max_abs": result.grad_max_abs,
        })
        arrays[shared_name] = result.model.shared
        arrays.update({name: result.model.bias[tid] for tid, name in bias_names.items()})
    if args.out:
        _write_atomic([Path(args.out)], lambda stream: np.savez(stream, **arrays), binary=True)
        manifest["outputs"] = {"model": args.out}
    manifest["result"] = {"mode": args.mode, "n_symbols": args.n_symbols, "runs": runs}
    return 0


# ------------------------------------------------------------------ parser


def _number(convert, non_negative: bool = True, at_most: float = math.inf):
    """argparse type: ``convert(text)``, refused with a usage error when not finite
    (nan, inf, -inf), above ``at_most`` or, with ``non_negative``, below zero."""
    wanted = "a non-negative finite number" if non_negative else "a finite number"
    wanted += f" at most {at_most}" if at_most < math.inf else ""

    def parse(text: str):
        value = convert(text)
        # comparisons never overflow on large ints, and nan fails both
        if not (-math.inf < value < math.inf) or value > at_most or (non_negative and value < 0):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value" messages
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="atckit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand a callsign into spoken variants")
    p.add_argument("--callsign", required=True)
    p.add_argument("--telephony", help="telephony lexicon TSV (default: packaged)")
    p.add_argument("--icao-digits", action="store_true", help="use tree/fife/niner digit words")
    p.add_argument("--pretty", action="store_true", help="add human-readable output")
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser("filter", help="keep utterances mentioning a context callsign")
    p.add_argument("--corpus", required=True)
    p.add_argument("--telephony")
    p.add_argument("--icao-digits", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_filter)

    p = sub.add_parser("classify", help="split a corpus into ATCO and pilot halves")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicon", help="role keyword file (default: packaged)")
    p.add_argument("--telephony")
    p.add_argument("--rule-order", choices=RULE_ORDERS, default="keywords-first")
    p.add_argument("--icao-digits", action="store_true")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("evaluate", help="score predicted roles against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("wer", help="word error rate of hypothesis vs reference")
    p.add_argument("--ref", required=True)
    p.add_argument("--hyp", required=True)
    p.set_defaults(handler=_cmd_wer)

    p = sub.add_parser("mmi-check", help="verify objective numerics against oracles")
    p.add_argument("--seed", type=int, default=12345)
    p.set_defaults(handler=_cmd_mmi_check)

    p = sub.add_parser("mmi-train", help="toy gradient-ascent training")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicon", required=True, help="word<TAB>phones TSV")
    p.add_argument("--mode", choices=("single", "pooled", "multitask"), default="multitask")
    p.add_argument("--steps", type=_number(int), default=200)
    p.add_argument("--learning-rate", type=_number(float, non_negative=False), default=0.1)
    p.add_argument("--alpha", type=_number(float), default=DEFAULT_TASK_WEIGHT, help="task weight (multitask mode)")
    p.add_argument("--n-symbols", type=_number(int, at_most=2**31 - 1), required=True, help="symbol inventory size")
    p.add_argument("--out", help="write trained parameters as .npz")
    p.set_defaults(handler=_cmd_mmi_train)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    manifest: dict = {
        "subcommand": args.command,
        "inputs": {
            k: v
            for k, v in vars(args).items()
            if k in ("callsign", "corpus", "telephony", "lexicon", "gold", "pred", "ref", "hyp")
            and v is not None
        },
        "outputs": {},
        "config_hash": _config_hash(args),
        "version": __version__,
    }
    try:
        code = args.handler(args, manifest)
    except _DATA_ERRORS as exc:
        manifest["error"] = type(exc).__name__
        manifest["message"] = str(exc)
        code = 1
    text = [line for key in ("table", "pretty") for line in manifest.pop(key, None) or ()]
    try:
        print("\n".join([json.dumps(manifest, sort_keys=True, allow_nan=False), *text]), flush=True)
    except BrokenPipeError:
        # the reader is gone; stdout goes to devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
