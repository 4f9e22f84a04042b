"""atckit benchmark: seeded corpus-building sessions timed through the CLI.

One measurement:

    python3 perfbench/run.py --workload sector_repeat --seed 1 --seconds 40 --trace 0

The benchmark generates the workload's inputs from the seed, then starts
the program in a worker process of its own (``worker.py``) and sends it
the session's subcommands one after another, round after round, until
``--seconds`` of session time have passed. Every operation's output is
checked. With ``--trace 0`` the last line of stdout reports the end-to-end
metrics; with ``--trace 1`` the rounds alternate between untraced and
traced, and the last line reports the per-layer metrics and the tracing
overhead. A full record with provenance and per-metric quartiles goes to
``.perfbench_work/results/``.

The workloads, metric names, units and directions are read from
``BENCHMARK.json`` at the repository root; the input shapes are in
``gen.py``. ``python3 -m pytest perfbench`` runs the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".perfbench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SETUP_STARTS = 7  # fresh processes timed per run; setup_s is their median
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
WALL_LIMIT_S = 150.0  # stop starting rounds past this, so a run ends within 180 s
WORKER_TIMEOUT_S = 120.0

sys.path.insert(0, str(HERE))


class WorkerDied(Exception):
    pass


class Worker:
    """One program process; ``call`` runs one CLI argv in it and waits for the reply."""

    def __init__(self, log, cpu: int | None) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
            env=env,
            cwd=str(ROOT),
        )
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})
        if json.loads(self._read() or "null") != {"ready": True}:
            self.close()
            raise WorkerDied("worker did not start")
        self.setup_s = time.perf_counter() - start

    def _read(self) -> str:
        return self.proc.stdout.readline()

    def _send(self, request: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise WorkerDied("worker exited") from None
        line = self._read()
        if not line:
            raise WorkerDied(f"worker exited with {self.proc.wait(timeout=WORKER_TIMEOUT_S)}")
        return json.loads(line)

    def call(self, argv: list[str], trace: bool, round_: int) -> tuple[int, str, float]:
        start = time.perf_counter()
        reply = self._send({"argv": argv, "trace": trace, "round": round_})
        return reply["code"], reply["out"], time.perf_counter() - start

    def finish(self, spans_prefix: str | None) -> int:
        reply = self._send({"finish": spans_prefix})
        self.proc.wait(timeout=WORKER_TIMEOUT_S)
        return reply["maxrss_kib"]

    def close(self) -> None:
        """End the process: EOF on stdin ends its loop; kill it if that does not."""
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except BrokenPipeError:
                pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


@dataclass
class Op:
    stage: str
    argv: list[str]
    check: Callable[[dict], None]
    files: list[Path] = field(default_factory=list)

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def session_ops(inputs, oracle, out: Path) -> list[Op]:
    import gen

    kept = out / "kept.jsonl"
    prefix = str(out / "split")
    traces = Path(prefix + ".traces.jsonl")
    mmi = gen.MMI_SHAPE
    ops = [
        Op("filter", ["filter", "--corpus", str(inputs.corpus), "--out", str(kept)],
           lambda m: oracle.check_filter(m, kept), [kept]),
        Op("classify",
           ["classify", "--corpus", str(kept), "--out-prefix", prefix, "--rule-order", inputs.rule_order],
           lambda m: oracle.check_classify(m, kept, prefix),
           [Path(f"{prefix}.{name}.jsonl") for name in ("atco", "pilot", "traces")]),
        Op("evaluate", ["evaluate", "--gold", str(kept), "--pred", str(traces)],
           lambda m: oracle.check_evaluate(m, kept, traces)),
        Op("wer", ["wer", "--ref", str(inputs.ref), "--hyp", str(inputs.hyp)], oracle.check_wer),
    ]
    for mode in mmi["modes"]:
        argv = [
            "mmi-train", "--corpus", str(inputs.train), "--lexicon", str(inputs.phones), "--mode", mode,
            "--steps", str(mmi["steps"]), "--learning-rate", str(mmi["learning_rate"]),
            "--n-symbols", str(mmi["symbols"]),
        ]
        ops.append(Op(f"mmi_{mode}", argv,
                      lambda m, mode=mode: oracle.check_mmi_train(m, mode, mmi["steps"], mmi["tasks"])))
    return ops


def check_op(op: Op, code: int, out: str) -> str | None:
    """None when the operation passed, else why it failed."""
    from checks import CheckFailed, parse_manifest

    if code != 0:
        return f"{op.stage}: exit {code}: {out[-400:]}"
    try:
        op.check(parse_manifest(out, op.subcommand))
    except (CheckFailed, KeyError, TypeError, OSError) as exc:
        return f"{op.stage}: {type(exc).__name__}: {exc}"
    return None


def summarize(values: list[float], unit: str, better: str) -> dict:
    """Median, quartiles, the highest percentile with at least ten samples beyond it, and n."""
    ordered = sorted(values)
    n = len(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if n >= 2 else ordered * 3
    tail = None
    for pct in range(99, 49, -1):
        beyond = n - math.ceil(n * pct / 100)
        if beyond >= 10:
            tail = {"pct": pct, "value": statistics.quantiles(ordered, n=100)[pct - 1]}
            break
    return {
        "median": statistics.median(ordered), "q1": q1, "q3": q3, "tail": tail,
        "n": n, "unit": unit, "better": better,
    }


def _exact(value: float) -> float | int:
    """Counts stay integers in the result line."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def provenance() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "atckit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
    }


def end_to_end_round(times: dict, inputs) -> dict:
    import gen

    mmi = gen.MMI_SHAPE
    mmi_s = sum(times[f"mmi_{mode}"] for mode in mmi["modes"])
    return {
        "pipeline_utt_per_s": inputs.utterances / (times["filter"] + times["classify"] + times["evaluate"]),
        "filter_utt_per_s": inputs.utterances / times["filter"],
        "classify_utt_per_s": len(inputs.kept_ids) / times["classify"],
        "wer_pairs_per_s": inputs.wer_pairs / times["wer"],
        "mmi_train_frames_per_s": len(mmi["modes"]) * inputs.mmi_frames * mmi["steps"] / mmi_s,
    }


def per_layer(rounds: list[dict], spans_prefix: str) -> tuple[dict, bool]:
    """Per-layer samples from the traced rounds; also whether counts repeated exactly."""
    import layers
    from spans import SpanTable

    with open(spans_prefix + ".counts.json", encoding="utf-8") as stream:
        counts = json.load(stream)
    samples: dict[str, list[float]] = {}
    steps: list[float] = []
    for r in rounds:
        if not r["trace"]:
            continue
        table = SpanTable.load(spans_prefix + ".npz", r["index"])
        values = layers.round_metrics(table, counts.get(str(r["index"]), {}), r["keep"], r["bytes"])
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
        steps.extend(layers.step_times(table))
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    repeat = all(len(set(v)) == 1 for n, v in samples.items() if units[n] in ("count", "bytes"))
    samples["mmi.train.step_s.median"] = steps
    tail = summarize(steps, "s", "lower")["tail"]
    samples["mmi.train.step_s.tail"] = [tail["value"] if tail else max(steps)]
    walls = {t: statistics.median(r["wall"] for r in rounds if r["trace"] == t) for t in (False, True)}
    samples["trace.overhead_s"] = [walls[True] - walls[False]]
    samples["trace.overhead_ratio"] = [(walls[True] - walls[False]) / walls[False]]
    return samples, repeat


def split_cpus() -> int | None:
    """Give the program the last CPU of this process's set and keep the rest for the benchmark.

    The generator and the checks then never share a CPU with the program,
    and neither do the other processes that run on the first CPU. With a
    single CPU nothing is pinned.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, set(cpus[:-1]))
    return cpus[-1]


def run(args) -> int:
    import gen
    import layers
    from checks import Oracle

    base = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    (base / "out").mkdir(parents=True)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    inputs = gen.generate(args.workload, args.seed, base / "in")
    oracle = Oracle(inputs)
    ops = session_ops(inputs, oracle, base / "out")
    failures: list[str] = []
    attempted = 0
    rounds: list[dict] = []
    spans_prefix = str(base / "spans") if args.trace else None

    prov = provenance()  # before split_cpus, so nproc counts every CPU this run may use
    prov["program_cpu"] = split_cpus()
    with open(base / "worker.log", "w") as log:
        setup = []
        worker = None
        try:
            Worker(log, prov["program_cpu"]).close()  # warm the page cache and bytecode before timing starts
            for _ in range(SETUP_STARTS):
                if worker is not None:
                    worker.close()
                worker = Worker(log, prov["program_cpu"])
                setup.append(worker.setup_s)
            session_s = 0.0
            need = MIN_TRACED_ROUNDS * 2 if args.trace else MIN_ROUNDS
            while len(rounds) < need or session_s < args.seconds:
                if rounds and time.perf_counter() - started > WALL_LIMIT_S:
                    break
                index = len(rounds)
                traced = bool(args.trace) and index % 2 == 1
                times = {}
                keep = (0, 0)
                for op in ops:
                    code, out, seconds = worker.call(op.argv, traced, index)
                    attempted += 1
                    times[op.stage] = seconds
                    problem = check_op(op, code, out)
                    if problem:
                        failures.append(f"round {index}: {problem}")
                    elif op.stage == "filter":
                        stats = json.loads(out)["result"]["stats"]
                        keep = (stats["kept"], stats["total"])
                wall = sum(times.values())
                session_s += wall
                written = sum(p.stat().st_size for op in ops for p in op.files if p.exists())
                rounds.append({"index": index, "trace": traced, "times": times, "wall": wall,
                               "keep": keep, "bytes": written})
            maxrss_kib = worker.finish(spans_prefix)
            worker.close()
            # mmi-check runs in a process of its own, so peak_rss_mb covers the session only
            worker = Worker(log, prov["program_cpu"])
            code, out, _ = worker.call(["mmi-check", "--seed", str(args.seed)], False, len(rounds))
            attempted += 1
            problem = check_op(Op("mmi_check", ["mmi-check"], Oracle.check_mmi_check), code, out)
            if problem:
                failures.append(problem)
        except WorkerDied as exc:
            failures.append(f"worker: {exc}")
            print(f"perfbench: {exc}; see {base / 'worker.log'}", file=sys.stderr)
            maxrss_kib = 0
        finally:
            if worker is not None:
                worker.close()

    samples: dict[str, list[float]] = {}
    # a throughput is the run's total work over its total time; single rounds
    # swing by 20 % on a shared host, and their median flips with them
    throughputs: dict[str, float] = {}
    repeat = None
    if rounds and not failures:
        if args.trace:
            samples, repeat = per_layer(rounds, spans_prefix)
        else:
            for r in rounds:
                for name, value in end_to_end_round(r["times"], inputs).items():
                    samples.setdefault(name, []).append(value)
            mean_times = {stage: statistics.fmean(r["times"][stage] for r in rounds) for stage in rounds[0]["times"]}
            throughputs = end_to_end_round(mean_times, inputs)
            samples["setup_s"] = setup
            samples["peak_rss_mb"] = [maxrss_kib / 1024]

    metric_spec = SPEC["per_layer" if args.trace else "end_to_end"]
    stats = {}
    for m in metric_spec:
        if samples.get(m["name"]):
            stats[m["name"]] = summarize(samples[m["name"]], m["unit"], m["better"])
            stats[m["name"]]["value"] = throughputs.get(m["name"], stats[m["name"]]["median"])
            if m["name"] in layers.RATIO_BASES:
                stats[m["name"]]["base"] = layers.RATIO_BASES[m["name"]]

    failed = len(failures)
    # a traced run is only correct if every count repeated exactly from round to round
    correct = bool(rounds) and not failures and len(stats) == len(metric_spec) and repeat is not False
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "provenance": prov, "rounds": len(rounds), "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0, "failures": failures[:20],
        "counts_repeat": repeat, "round_times": [r["times"] for r in rounds], "metrics": stats,
    }
    result_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if correct:
        shutil.rmtree(base, ignore_errors=True)

    for name, s in stats.items():
        tail = f" p{s['tail']['pct']} {s['tail']['value']:.6g}" if s["tail"] else ""
        base_note = f" (base: {s['base']})" if "base" in s else ""
        print(f"{name:44s} {s['value']:.6g} {s['unit']} [{s['better']} is better; median {s['median']:.6g} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g}{tail} n {s['n']}]{base_note}")
    print(f"{'failed_ratio':44s} {record['failed_ratio']:.6g} ratio [lower is better] "
          f"(base: {attempted} operations attempted)")
    if args.trace:
        print(f"{'counts_repeat':44s} {repeat} (every count equal in every traced round)")
    for failure in failures[:5]:
        print("FAILED", failure)
    print("provenance", json.dumps(record["provenance"], sort_keys=True))
    print("record", result_path.relative_to(ROOT))
    metrics = {name: {"value": _exact(s["value"]), "unit": s["unit"]} for name, s in stats.items()}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "atckit" / "cli.py").is_file() or not (TESTS / "synth.py").is_file():
        print(f"perfbench: atckit sources not found under {ROOT} (need src/atckit and tests/synth.py)",
              file=sys.stderr)
        return 2
    sys.path[1:1] = [str(SRC), str(TESTS)]
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
