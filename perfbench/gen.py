"""Seeded input generator for the benchmark workloads.

Everything here runs in the benchmark's own process; the program under
test only ever sees the files written by ``generate``. The same workload
and seed always give byte-identical files.

The text corpora follow the planted-corpus pattern of ``tests/synth.py``:
filler words that can never form a spoken callsign variant, with a
variant of one of the utterance's own context callsigns planted into a
known subset. The planted ids are therefore exactly the ids ``filter``
must keep. No-context and malformed context entries keep the shares the
test generators use (5 % each).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from atckit.callsign import default_telephony_lexicon, expand_callsign, parse_callsign
from atckit.classifier import default_role_lexicon

from synth import random_callsign_raw, safe_fillers

# Shape of each workload's inputs. Both workloads run the same session of
# subcommands; they differ in how much the context callsigns repeat and in
# the classifier's rule order, which decides how the matching layers are used.
#
# Where a value comes from:
#   given   - the workload definition: pool, context sizes, planted share,
#             rule order, the MMI task/utterance/phone/symbol/frame counts;
#   synth   - the patterns in tests/synth.py (no-context and malformed shares);
#   fitted  - no source; chosen so that the stage throughputs match the
#             reference figures for a 20k-utterance sector corpus on the
#             unchanged code (filter ~20k utt/s, classify ~14k utt/s,
#             wer ~16k pairs/s, mmi-train ~7k frames/s);
#   choice  - no source; an unverified choice.
SHAPES = {
    "sector_repeat": {
        "utterances": 20000,  # given: the reference corpus size
        "pool": 50,  # given: callsigns on frequency; every context draws from them
        "context": (5, 30),  # given
        "planted_share": 0.6,  # given
        "rule_order": "keywords-first",  # given
        "wer_pairs": 6000,  # choice: enough pairs for a wer stage of about 0.4 s
    },
    "sector_cold": {
        # choice: half the reference size, so a run holds several rounds; the
        # expansion cache still makes most of the peak RSS
        "utterances": 10000,
        "pool": None,  # given: every context entry is a fresh random callsign
        "context": (5, 30),
        "planted_share": 0.6,
        "rule_order": "callsign-first",
        "wer_pairs": 6000,
    },
}

MMI_SHAPE = {
    "tasks": 3,  # given
    "utterances_per_task": 40,  # given
    "phones": 20,  # given
    "symbols": 30,  # given
    "words": 24,  # choice: more words than phones, so every phone occurs
    "frames_per_phone": (2, 4),  # given: about 3 on average
    "steps": 2,  # fitted: ~6.3k frames/s (4 steps: 7.2-8.2k); 2 keeps a round short
    "learning_rate": 0.01,  # choice: 0.05 let the pooled objective fall on some seeds
    "modes": ("single", "pooled", "multitask"),  # given
}

NO_CONTEXT_SHARE = 0.05  # synth: make_planted_corpus
MALFORMED_SHARE = 0.05  # synth: make_planted_corpus
FILLERS = (2, 10)  # fitted: filler words per utterance (synth uses 0-8)
OWN_KEYWORD_SHARE = 0.30  # fitted: decides how often keywords-first reaches the matcher
OTHER_KEYWORD_SHARE = 0.08  # choice: keywords of the other role, so keyword rules can be wrong
EDGE_CALLSIGN_SHARE = 0.75  # choice: planted callsigns at the controller's open or pilot's close
WER_SUB, WER_DEL, WER_INS = 0.08, 0.05, 0.05  # choice: substitution, deletion, insertion rates
# fitted: wer references are the planted (kept) utterances, the transcripts a
# corpus build scores; all utterances gave ~23k pairs/s


@dataclass
class Inputs:
    """Paths of the generated files plus what the benchmark needs to check outputs."""

    corpus: Path
    ref: Path
    hyp: Path
    train: Path
    phones: Path
    rule_order: str
    utterances: int
    kept_ids: list[str] = field(default_factory=list)
    wer_pairs: int = 0
    mmi_frames: int = 0


def _malformed(rng: random.Random) -> str:
    # digits before letters never parse as an ICAO callsign
    return f"{rng.randint(1, 9999)}{''.join(rng.choice('ABCDEFGHJKLMNPRSTUVWXYZ') for _ in range(3))}"


def _text_corpus(rng: random.Random, shape: dict) -> tuple[list[dict], list[str]]:
    telephony = default_telephony_lexicon()
    roles = default_role_lexicon()
    fillers = safe_fillers(roles, telephony)
    keywords = {"atco": sorted(roles.atco_words), "pilot": sorted(roles.pilot_words)}
    pool = None
    if shape["pool"]:
        pool = sorted({random_callsign_raw(rng, telephony) for _ in range(shape["pool"])})
    records, kept = [], []
    lo, hi = shape["context"]
    for i in range(shape["utterances"]):
        uid = f"u{i:06d}"
        role = "atco" if rng.random() < 0.5 else "pilot"
        k = rng.randint(lo, hi)
        if pool is not None:
            context = rng.sample(pool, min(k, len(pool)))
        else:
            context = [random_callsign_raw(rng, telephony) for _ in range(k)]
        tokens = [rng.choice(fillers) for _ in range(rng.randint(*FILLERS))]
        roll = rng.random()
        if roll < OWN_KEYWORD_SHARE:
            tokens.insert(rng.randint(0, len(tokens)), rng.choice(keywords[role]))
        elif roll < OWN_KEYWORD_SHARE + OTHER_KEYWORD_SHARE:
            other = "pilot" if role == "atco" else "atco"
            tokens.insert(rng.randint(0, len(tokens)), rng.choice(keywords[other]))
        planted = rng.random() < shape["planted_share"]
        if planted:
            target = parse_callsign(rng.choice(context))
            variant = rng.choice(sorted(expand_callsign(target, telephony), key=lambda v: v.text))
            # controllers open with the callsign, pilots tend to close with it
            if rng.random() < EDGE_CALLSIGN_SHARE:
                at = rng.randint(0, min(2, len(tokens))) if role == "atco" else len(tokens)
            else:
                at = rng.randint(0, len(tokens))
            tokens[at:at] = list(variant.tokens)
            kept.append(uid)
        else:
            roll = rng.random()
            if roll < NO_CONTEXT_SHARE:
                context = None
            elif roll < NO_CONTEXT_SHARE + MALFORMED_SHARE:
                context.insert(rng.randint(0, len(context)), _malformed(rng))
        record = {"id": uid, "text": " ".join(tokens), "role": role}
        if context is not None:
            record["callsigns"] = context
        records.append(record)
    return records, kept


def _wer_pairs(rng: random.Random, records: list[dict], n: int) -> tuple[list[str], list[str]]:
    vocab = sorted({tok for r in records for tok in r["text"].split()})
    refs, hyps = [], []
    for i in range(n):
        ref = records[i % len(records)]["text"].split()
        hyp = []
        for tok in ref:
            roll = rng.random()
            if roll < WER_SUB:
                hyp.append(rng.choice(vocab))
            elif roll >= WER_SUB + WER_DEL:
                hyp.append(tok)
            if rng.random() < WER_INS:
                hyp.append(rng.choice(vocab))
        refs.append(" ".join(ref))
        hyps.append(" ".join(hyp))
    return refs, hyps


def _mmi_corpus(rng: random.Random) -> tuple[list[str], list[dict]]:
    s = MMI_SHAPE
    phones = [f"p{i:02d}" for i in range(s["phones"])]
    order = phones[:]
    rng.shuffle(order)
    words = {}
    # words outnumber phones and each opens with the next phone of a shuffled
    # order, so every phone appears and build_tasks sees the full inventory
    for w in range(s["words"]):
        seq = [order[w % len(order)]] + [rng.choice(phones) for _ in range(rng.randint(1, 3))]
        words[f"w{w:02d}"] = seq
    lexicon = [f"{w}\t{' '.join(seq)}" for w, seq in sorted(words.items())]
    names = sorted(words)
    records = []
    for task in range(1, s["tasks"] + 1):
        # each task has its own preferred symbol per phone, so tasks differ
        prefer = {p: rng.randrange(s["symbols"]) for p in phones}
        for _ in range(s["utterances_per_task"]):
            transcript = [rng.choice(names) for _ in range(rng.randint(1, 3))]
            symbols = []
            for word in transcript:
                for p in words[word]:
                    for _ in range(rng.randint(*s["frames_per_phone"])):
                        symbols.append(prefer[p] if rng.random() < 0.6 else rng.randrange(s["symbols"]))
            records.append({"task": task, "symbols": symbols, "words": transcript})
    return lexicon, records


def _write_lines(path: Path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def generate(workload: str, seed: int, out_dir: Path) -> Inputs:
    """Write every input file of one workload and return what the checks need."""
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    records, kept = _text_corpus(rng, shape)
    by_id = {r["id"]: r for r in records}
    refs, hyps = _wer_pairs(rng, [by_id[uid] for uid in kept], shape["wer_pairs"])
    lexicon, train = _mmi_corpus(rng)
    inputs = Inputs(
        corpus=out_dir / "corpus.jsonl",
        ref=out_dir / "ref.txt",
        hyp=out_dir / "hyp.txt",
        train=out_dir / "train.jsonl",
        phones=out_dir / "phones.tsv",
        rule_order=shape["rule_order"],
        utterances=len(records),
        kept_ids=kept,
        wer_pairs=len(refs),
        mmi_frames=sum(len(r["symbols"]) for r in train),
    )
    _write_lines(inputs.corpus, (json.dumps(r) for r in records))
    _write_lines(inputs.ref, refs)
    _write_lines(inputs.hyp, hyps)
    _write_lines(inputs.train, (json.dumps(r) for r in train))
    _write_lines(inputs.phones, lexicon)
    return inputs
