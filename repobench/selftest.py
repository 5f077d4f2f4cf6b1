"""Self-tests of the repository benchmark.

Run from the repository root (takes about a minute)::

    python3 repobench/selftest.py

* span arithmetic on a synthetic tree: self time, the union of overlapping
  children on two threads, traced thread time and unattributed share; and on
  spans recorded from real threads, including an opaque simulator span;
* the comparison guard: allocation cap, wall clock, and a breach passing
  through ``except Exception``;
* input determinism: the same ``--seed`` gives the same input digest under
  two different caller hash seeds, while an unpinned build does not;
* every workload at the ``tiny`` profile emits every end-to-end metric
  untraced and every per-layer metric traced, with all checks passing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import spans as sp  # noqa: E402


def _span(span_id, parent, layer, start, end, thread, name="x"):
    return [span_id, parent, layer, name, start, end, thread, 1]


class SpanArithmetic(unittest.TestCase):
    def test_synthetic_tree(self):
        tree = [
            _span(1, None, sp.GLUE, 0.0, 10.0, "main"),
            _span(2, 1, "service", 1.0, 9.0, "main"),
            _span(3, 2, "scheduler", 2.0, 8.0, "main"),
            _span(4, 3, "pipeline", 2.5, 6.0, "worker-a"),
            _span(5, 3, "pipeline", 3.0, 7.5, "worker-b"),
            _span(6, 4, "sql", 3.0, 4.0, "worker-a"),
        ]
        own = sp.self_times(tree)
        self.assertAlmostEqual(own[1], 2.0)
        self.assertAlmostEqual(own[2], 2.0)
        # Two overlapping waves on two threads cover [2.5, 7.5] of [2, 8].
        self.assertAlmostEqual(own[3], 1.0)
        self.assertAlmostEqual(own[4], 2.5)
        self.assertAlmostEqual(own[5], 4.5)
        self.assertAlmostEqual(own[6], 1.0)
        self.assertAlmostEqual(sum(own.values()), 13.0)
        self.assertAlmostEqual(sp.traced_thread_time(tree), 13.0)
        self.assertAlmostEqual(sp.unattributed_share(tree), 2.0 / 13.0)
        layers = sp.layer_self_times(tree)
        self.assertAlmostEqual(layers["pipeline"], 7.0)

    def test_union_length(self):
        self.assertAlmostEqual(sp.union_length([(0, 2), (1, 3), (5, 6)]), 4.0)
        self.assertAlmostEqual(sp.union_length([]), 0.0)
        self.assertAlmostEqual(sp.union_length([(0, 4), (1, 2)]), 4.0)

    def test_recorded_threads_add_up(self):
        recorder = sp.SpanRecorder()
        parse = recorder.wrap("sql", "parse", lambda: time.sleep(0.002))
        simulate = recorder.wrap("llm_sim", "generate", lambda: (parse(), time.sleep(0.003)),
                                 opaque=True)

        def wave():
            parse()
            simulate()
            time.sleep(0.004)

        wave = recorder.wrap("pipeline", "run_next_wave", wave)

        def run_all():
            workers = [threading.Thread(target=wave) for _ in range(2)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=5)
                self.assertFalse(worker.is_alive())

        run_all = recorder.wrap("scheduler", "run_all", run_all, ambient=True)
        with recorder.root("op"):
            run_all()
        spans = recorder.spans
        names = sp.call_counts(spans)
        # The parse inside the opaque simulator span is not recorded.
        self.assertEqual(names["sql.parse"], 2)
        self.assertEqual(names["llm_sim.generate"], 2)
        self.assertEqual(len({s[sp.REQUEST] for s in spans}), 1)
        total = sum(sp.self_times(spans).values())
        self.assertAlmostEqual(total, sp.traced_thread_time(spans), places=9)
        self.assertGreater(sp.layer_self_times(spans)["llm_sim"], 0.005)


class Guard(unittest.TestCase):
    def setUp(self):
        import scenarios

        self.scenarios = scenarios

    def test_allocation_cap(self):
        guard = self.scenarios.ComparisonGuard(wall_s=30.0, gc_triggers=20)
        with guard, self.assertRaises(self.scenarios.GuardBreach):
            guard.run(lambda: [(i,) for i in range(200_000)])
        self.assertEqual(guard.reason, "allocation")

    def test_wall_clock_through_except_exception(self):
        def spin():
            try:
                deadline = time.perf_counter() + 5
                while time.perf_counter() < deadline:
                    pass
            except Exception:  # the engine's handlers must not swallow it
                return "swallowed"
            return "finished"

        guard = self.scenarios.ComparisonGuard(wall_s=0.05, gc_triggers=10**9)
        with guard, self.assertRaises(self.scenarios.GuardBreach):
            guard.run(spin)
        self.assertEqual(guard.reason, "wall")

    def test_normal_call_returns(self):
        guard = self.scenarios.ComparisonGuard(wall_s=5.0, gc_triggers=1000)
        with guard:
            self.assertEqual(guard.run(sum, [1, 2, 3]), 6)


def run_bench(workload: str, seed: int, trace: int, caller_hash_seed: str = "0"):
    env = dict(os.environ, PYTHONHASHSEED=caller_hash_seed)
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--profile", "tiny"],
        capture_output=True, text=True, timeout=300, env=env, cwd=ROOT,
    )
    return proc


def _digest(proc, key: str) -> str:
    for line in proc.stdout.splitlines():
        if line.startswith(key + " "):
            return line.split()[1]
    raise AssertionError(f"no {key} line in:\n{proc.stdout}\n{proc.stderr}")


class InputDeterminism(unittest.TestCase):
    def test_pinned_inputs_ignore_caller_hash_seed(self):
        for workload in ("annotate-interactive", "score-exec"):
            first = run_bench(workload, 11, 0, caller_hash_seed="1")
            second = run_bench(workload, 11, 0, caller_hash_seed="2")
            self.assertEqual(first.returncode, 0, first.stderr)
            self.assertEqual(second.returncode, 0, second.stderr)
            self.assertEqual(_digest(first, "input_digest"), _digest(second, "input_digest"))
            self.assertEqual(_digest(first, "output_digest"), _digest(second, "output_digest"))

    def test_unpinned_build_depends_on_hash_seed(self):
        code = (
            "import hashlib,json;from repro.workloads import build_benchmark;"
            "w=build_benchmark('Spider',seed=3,row_scale=0.0015,query_count=4);"
            "print(hashlib.sha256(json.dumps(w.query_sql).encode()).hexdigest())"
        )
        digests = set()
        for hash_seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(ROOT / "src"))
            out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                 text=True, env=env, timeout=120, check=True)
            digests.add(out.stdout.strip())
        self.assertGreater(len(digests), 1)


class TinyProfile(unittest.TestCase):
    def _metrics(self, workload: str, trace: int) -> dict:
        proc = run_bench(workload, 4, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout[-3000:] + proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        return result["metrics"]

    def test_every_metric_emitted(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    metrics = self._metrics(workload, trace)
                    self.assertEqual(list(metrics), [m["name"] for m in declared])
                    for entry in declared:
                        self.assertEqual(metrics[entry["name"]]["unit"], entry["unit"])
                        self.assertIsInstance(metrics[entry["name"]]["value"], (int, float))


if __name__ == "__main__":
    unittest.main(verbosity=2)
