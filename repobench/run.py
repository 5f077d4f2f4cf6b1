"""Repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 repobench/run.py --workload curate-batch --seed 7 --seconds 10 --trace 0

Workloads: ``curate-batch``, ``annotate-interactive``, ``score-exec`` (see
``scenarios.py``).  With ``--trace 0`` the last line of stdout carries every
end-to-end metric, each the mean over the run's rounds; with ``--trace 1``
it carries the per-layer metrics of one traced round, whose untraced twin
runs first in the same process.

The process structure keeps inputs byte-identical whatever the caller's
``PYTHONHASHSEED``:

* this (parent) process starts a child with ``PYTHONHASHSEED`` pinned from
  ``--seed`` and waits for it;
* the child first builds the workload's fixed SQL corpus in a process of its
  own, pinned to the corpus's hash seed (``scenarios.CORPUS_HASH_SEED``); the
  seed then orders the work (see ``scenarios.py``);
* the child records a SHA-256 digest of the inputs and of the outputs, and
  this process compares them with every earlier run of the same seed and the
  same code (``.bench_state/ledger``): a disagreement fails the run.

``--seconds`` sets the amount of work, not a time limit: the number of rounds
is ``--seconds`` divided by the workload's nominal round length, so a slow
host runs the same rounds as a fast one.  Each end-to-end metric is computed
per round and reported as the mean over rounds, scaled to the nominal host
(see :class:`HostSpeed`).  Exit status is 0 only when every
output check passed and a result line was printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("curate-batch", "annotate-interactive", "score-exec")
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "commit_ms_p50": "ms",
    "commit_ms_p90": "ms",
}
CHILD_TIMEOUT_S = 170
BENCH_DIR = Path(__file__).resolve().parent
STATE_DIR = Path(".bench_state")


def hash_seed_for(seed: int) -> int:
    """The PYTHONHASHSEED a run with this ``--seed`` is pinned to."""
    return seed % 4294967296


def code_id(root: Path) -> str:
    """Digest of the program and the benchmark sources (keys the ledger)."""
    digest = hashlib.sha256()
    for base in (root / "src", BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


#: Iterations of the host reference loop, and its time on the nominal host.
REFERENCE_ITERATIONS = 60_000
NOMINAL_REFERENCE_MS = 7.0


class HostSpeed:
    """A fixed pure-Python loop timed between rounds, throughout the run.

    Its median tells a slow host from a slow program.  The speed of the
    shared hosts this runs on drifts by up to 2x over minutes and switches
    between a fast and a slow mode within seconds, so reported times are
    scaled to the nominal host: time x NOMINAL / mean loop time (the mean,
    because the share of slow-mode time is what slows the workload), and
    throughput the other way.  Over ten seeds this cut the throughput spread
    of every workload (curate-batch 0.11 to 0.09, annotate-interactive 0.29
    to 0.22, score-exec 0.26 to 0.19).  The raw values stay in the run record.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, count: int = 9) -> None:
        for _ in range(count):
            started = time.perf_counter()
            accumulator = 0
            for value in range(REFERENCE_ITERATIONS):
                accumulator += value * value % 7
            self.samples.append((time.perf_counter() - started) * 1000)

    @property
    def reference_ms(self) -> float:
        return statistics.median(self.samples)

    @property
    def slowdown(self) -> float:
        """How much slower than nominal this host ran (above 1 = slower)."""
        return statistics.fmean(self.samples) / NOMINAL_REFERENCE_MS

    def normalise(self, value: float, unit: str) -> float:
        if unit in ("s", "ms"):
            return value / self.slowdown
        if unit == "1/s":
            return value * self.slowdown
        return value


# ----------------------------------------------------------------------
# child: the measured process
# ----------------------------------------------------------------------


def percentile(samples: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    value = ordered[rank - 1]
    return value, len(ordered) - rank


def round_metrics(result) -> dict:
    metrics = {
        "setup_s": result.setup_s,
        "throughput_per_s": (result.ops - result.failed) / result.wall_s,
    }
    for prefix, samples in (("latency_ms", result.latency_s), ("commit_ms", result.commit_s)):
        for label, q in (("p50", 0.5), ("p90", 0.9)):
            value, beyond = percentile(samples, q)
            metrics[f"{prefix}_{label}"] = value * 1000
            metrics[f"{prefix}_{label}.beyond"] = beyond
    return metrics


def load_corpus(workload: str, profile_name: str, workdir: Path) -> dict:
    """Build the workload's fixed corpus in its own hash-pinned process."""
    import scenarios

    path = workdir / "corpus.pickle"
    env = dict(os.environ, PYTHONHASHSEED=str(scenarios.CORPUS_HASH_SEED))
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--emit-corpus", str(path),
         "--workload", workload, "--profile", profile_name],
        env=env, check=True, timeout=CHILD_TIMEOUT_S,
    )
    with open(path, "rb") as handle:
        corpus = pickle.load(handle)  # written by the corpus process above
    path.unlink()
    return corpus


def emit_corpus(path: str, workload: str, profile_name: str) -> None:
    import scenarios

    corpus = scenarios.WORKLOADS[workload].build_corpus(scenarios.PROFILES[profile_name])
    with open(path, "wb") as handle:
        pickle.dump(corpus, handle)


def child(args) -> int:
    import scenarios

    profile = scenarios.PROFILES[args.profile]
    workload = scenarios.WORKLOADS[args.workload]
    workdir = STATE_DIR / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    rounds = max(1, round(args.seconds / profile.round_seconds[args.workload]))

    started = time.perf_counter()
    corpus = load_corpus(args.workload, args.profile, workdir)
    inputs = workload.build_inputs(args.seed, profile, corpus)
    input_s = time.perf_counter() - started
    digest_in = scenarios.input_digest(args.workload, inputs)

    checks: dict[str, bool] = {}
    notes: list[str] = []
    reference = None
    if args.workload == "curate-batch":
        reference = scenarios.curate_reference(inputs, workdir)

    def check_round(result) -> None:
        for key, ok in result.checks.items():
            checks[key] = checks.get(key, True) and ok
        if reference is not None:
            checks["matches_sequential_reference"] = (
                checks.get("matches_sequential_reference", True)
                and result.output_digest == reference)

    record: dict = {"trace": None}
    speed = HostSpeed()
    speed.sample()
    if args.trace:
        import layers
        import spans
        from repro.obs import Telemetry

        # A discarded first round, so process warm-up does not land on the
        # twin and inflate the overhead ratio.
        warmup = workload.run_round(inputs, profile, workdir)
        check_round(warmup)
        twin = workload.run_round(inputs, profile, workdir)
        speed.sample()
        check_round(twin)
        recorder = spans.SpanRecorder()
        telemetry = Telemetry()
        undo = layers.install(recorder)
        try:
            traced = workload.run_round(inputs, profile, workdir, rec=recorder,
                                        telemetry=telemetry)
        finally:
            layers.uninstall(undo)
        speed.sample()
        check_round(traced)
        checks["traced_output_matches_twin"] = traced.output_digest == twin.output_digest
        checks["traced_inputs_unchanged"] = (
            scenarios.input_digest(args.workload, inputs) == digest_in)
        values, detail = layers.per_layer_metrics(recorder, traced, twin, telemetry)
        checks.update(detail["checks"])
        results = [warmup, twin, traced]
        raw = {name: values[name] for name in layers.PER_LAYER_UNITS}
        metrics = {name: {"value": speed.normalise(values[name], unit), "unit": unit}
                   for name, unit in layers.PER_LAYER_UNITS.items()}
        record["trace"] = detail
    else:
        results = []
        for _ in range(rounds):
            results.append(workload.run_round(inputs, profile, workdir))
            speed.sample()
        for result in results:
            check_round(result)
        per_round = [round_metrics(result) for result in results]
        raw = {}
        for name in END_TO_END_UNITS:
            values = [entry[name] for entry in per_round]
            if any(math.isinf(value) for value in values):
                checks[f"{name}_defined"] = False
                notes.append(f"{name}: at least 10% of ops failed in a round")
                values = [value for value in values if not math.isinf(value)] or [0.0]
            # The mean, not the median, over rounds: the host alternates
            # between a fast and a slow mode, so a round's value lands near
            # one of two levels and the median of a few rounds flips between
            # them (annotate-interactive latency_ms_p50 spread over ten
            # seeds: 0.27 with the median, 0.13 with the mean).
            raw[name] = statistics.fmean(values)
        metrics = {name: {"value": speed.normalise(raw[name], unit), "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        record["per_round"] = per_round
        record["samples_beyond"] = {
            name: min(entry[f"{name}.beyond"] for entry in per_round)
            for name in END_TO_END_UNITS if f"{name}.beyond" in per_round[0]
        }
        notes.extend(
            f"{name}: only {beyond} samples beyond it in some round"
            for name, beyond in record["samples_beyond"].items()
            if name.endswith("p90") and beyond < 10
        )

    digests_out = {r.output_digest for r in results}
    checks["outputs_identical_across_rounds"] = len(digests_out) == 1
    breached = [r.extra.get("breached") for r in results]
    if args.workload == "score-exec":
        checks["breached_set_identical_across_rounds"] = all(b == breached[0] for b in breached)
    record.update({
        "workload": args.workload,
        "profile": args.profile,
        "seed": args.seed,
        "rounds": len(results),
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "git_sha": git_sha(Path.cwd()),
            "hash_seed": os.environ.get("PYTHONHASHSEED"),
            "reference_loop_ms": speed.reference_ms,
            "reference_samples": len(speed.samples),
            "slowdown_vs_nominal": speed.slowdown,
        },
        "raw_metrics": raw,
        "shape": results[0].shape,
        "input_s": input_s,
        "input_digest": digest_in,
        "output_digest": results[0].output_digest,
        "breached": breached[0],
        "checks": checks,
        "notes": notes,
        "attempted": sum(r.ops for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    })
    record["host"]["code_id"] = code_id(Path.cwd())
    shutil.rmtree(workdir, ignore_errors=True)
    print("RUN_RECORD " + json.dumps(record, default=str), flush=True)
    return 0


# ----------------------------------------------------------------------
# parent: pin the hash seed, supervise the child, check the ledger
# ----------------------------------------------------------------------


def print_table(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  rounds {record['rounds']}"
          f"  attempted {record['attempted']}  failed {record['failed']}")
    print(f"host {json.dumps(record['host'])}")
    print(f"shape {json.dumps(record['shape'])}")
    print(f"input_digest {record['input_digest']}")
    print(f"output_digest {record['output_digest']}")
    print(f"  {'metric':34s} {'reported':>14s} {'raw':>14s}")
    for name, entry in record["metrics"].items():
        print(f"  {name:34s} {entry['value']:14.6f} {record['raw_metrics'][name]:14.6f} "
              f"{entry['unit']}")
    beyond = record.get("samples_beyond")
    if beyond:
        print(f"samples beyond each percentile (min over rounds): {json.dumps(beyond)}")
    for name, ok in record["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")


def ledger_check(root: Path, record: dict) -> list[str]:
    """Compare this run's digests with earlier runs of the same seed and code."""
    ledger = STATE_DIR / "ledger" / code_id(root)
    ledger.mkdir(parents=True, exist_ok=True)
    path = ledger / f"{record['workload']}-{record['profile']}-seed{record['seed']}.json"
    mine = {
        "input_digest": record["input_digest"],
        "output_digest": record["output_digest"],
        "breached": record["breached"],
    }
    if not path.exists():
        path.write_text(json.dumps(mine, sort_keys=True))
        return []
    earlier = json.loads(path.read_text())
    return [f"{key} differs from an earlier run of this seed"
            for key in mine if earlier.get(key) != mine[key]]


def parent(args) -> int:
    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print("error: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed_for(args.seed))
    env["PYTHONPATH"] = str(root / "src")
    command = [sys.executable, str(Path(__file__).resolve()), "--child",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--profile", args.profile]
    # A session of its own, so a timeout stops the corpus process too.
    proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"error: run exceeded {CHILD_TIMEOUT_S}s", file=sys.stderr)
        return 1
    record = None
    for line in out.splitlines():
        if line.startswith("RUN_RECORD "):
            record = json.loads(line[len("RUN_RECORD "):])
        else:
            print(line)
    if proc.returncode != 0 or record is None:
        print(f"error: benchmark child failed (exit {proc.returncode})", file=sys.stderr)
        return 1
    problems = ledger_check(root, record)
    record["checks"]["agrees_with_earlier_runs_of_seed"] = not problems
    record["notes"].extend(problems)
    runs = STATE_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (runs / f"{record['workload']}-seed{record['seed']}-trace{args.trace}-{stamp}"
            f"-{os.getpid()}.json").write_text(json.dumps(record, indent=1, default=str))
    print_table(record)
    for note in record["notes"]:
        print(f"note: {note}")
    correct = all(record["checks"].values())
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "tiny"), default="full")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--emit-corpus", metavar="PATH", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        parser.error("--workload is required")
    if args.emit_corpus:
        emit_corpus(args.emit_corpus, args.workload, args.profile)
        return 0
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return child(args) if args.child else parent(args)


if __name__ == "__main__":
    sys.exit(main())
