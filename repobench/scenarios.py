"""The three repository workloads: inputs, system set-up, timed rounds, checks.

Every workload follows the same shape:

* ``build_corpus(profile)`` generates the fixed SQL corpus (and table rows)
  from ``repro.workloads``; ``build_inputs(seed, profile, corpus)`` turns it
  into everything the system receives — work order, feedback plan — from the
  seed.  Nothing the system builds (databases, services, archives) is part
  of the inputs.
* ``run_round(inputs, profile, rec)`` does one round: the system's own
  set-up (timed as ``setup_s``), then a fixed amount of timed work, then the
  output checks.  It returns a :class:`RoundResult` with per-op samples and
  the round's output digest.  ``rec`` is the span recorder of a traced round
  (``None`` when untraced); it only wraps each op in a root span.

A round is a fixed amount of work: the number of rounds comes from the
profile and ``--seconds`` (see ``run.py``), never from a clock, so a slow host
runs exactly the same work as a fast one.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import random
import shutil
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core import (
    AnnotationPipeline,
    AnnotationService,
    EventJournal,
    Feedback,
    FeedbackAction,
    TaskConfig,
)
from repro.engine import Database, StoredColumn
from repro.evaluation.text2sql_models import (
    GENERAL_MODELS,
    SimulatedText2SQLModel,
    best_model_for,
)
from repro.llm import LLMClient, SimulatedLLM
from repro.metrics import execution
from repro.workloads import BENCHMARK_NAMES, build_benchmark

#: Row scale every workload is generated at (fraction of the paper's rows).
ROW_SCALE = 0.0015
#: Every workload's SQL corpus is fixed: generator seed, and the
#: PYTHONHASHSEED it is generated under (``run.py`` builds it in a process of
#: its own, since the generator's output depends on the hash seed).
#: ``--seed`` sets the order of the work and the annotator's feedback.  A
#: corpus per seed made the metrics a property of the seed: curate-batch
#: throughput ranged 47-71 jobs/s over ten seeds on a steady host, and
#: score-exec's runaway candidates ranged from 0 to 17 per 128 comparisons.
CORPUS_SEED = 0
CORPUS_HASH_SEED = 0
#: Capacity of the engine's LRU statement cache (``Database`` default).
STATEMENT_CACHE_CAPACITY = 256


@dataclass(frozen=True)
class Profile:
    """Sizes of one benchmark profile.  ``full`` is what BENCHMARK.json runs."""

    curate_jobs_per_tenant: int
    curate_llm_delay_s: float
    interactive_warm_examples: int
    interactive_queries: int
    score_queries_per_family: int
    #: Nominal seconds of timed work per round; ``--seconds`` divided by this
    #: gives the (host-independent) number of rounds.
    round_seconds: dict = field(default_factory=dict)
    #: Candidate-comparison guard: wall clock and allocation cap.  The cap
    #: counts garbage-collector triggers (one per 700 net container
    #: allocations), a deterministic stand-in for memory growth.
    guard_wall_s: float = 2.0
    guard_gc_triggers: int = 100


PROFILES = {
    "full": Profile(
        curate_jobs_per_tenant=28,
        curate_llm_delay_s=0.020,
        interactive_warm_examples=200,
        interactive_queries=100,
        score_queries_per_family=18,
        round_seconds={"curate-batch": 1.67, "annotate-interactive": 2.0, "score-exec": 1.43},
    ),
    "tiny": Profile(
        curate_jobs_per_tenant=3,
        curate_llm_delay_s=0.002,
        interactive_warm_examples=12,
        interactive_queries=6,
        score_queries_per_family=2,
        round_seconds={"curate-batch": 1.0, "annotate-interactive": 1.0, "score-exec": 1.0},
    ),
}


@dataclass
class RoundResult:
    """Samples and checks of one round."""

    ops: int = 0
    failed: int = 0
    setup_s: float = 0.0
    wall_s: float = 0.0
    latency_s: list = field(default_factory=list)
    commit_s: list = field(default_factory=list)
    output_digest: str = ""
    checks: dict = field(default_factory=dict)
    shape: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def sha256_json(value: object) -> str:
    """Digest of a JSON-serialisable value (keys sorted, compact)."""
    data = json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def workload_digest(workload) -> dict:
    """SQL text and table rows of one generated workload, as hashable data."""
    return {
        "name": workload.name,
        "sql": [query.sql for query in workload.queries],
        "gold_nl": [query.gold_nl for query in workload.queries],
        "tables": [
            [table.name, table.column_names, [list(row) for row in table.rows]]
            for table in workload.database.tables()
        ],
    }


def _root(rec, name: str):
    return rec.root(name) if rec is not None else contextlib.nullcontext()


def _settle() -> None:
    """Start each round's timed work from the same collector state.

    Earlier rounds leave garbage behind; collecting it here keeps a full
    collection of one round's leftovers out of the next round's timings.
    """
    gc.collect()


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# curate-batch
# ----------------------------------------------------------------------


class InjectedLatencyLLM(LLMClient):
    """Wraps the simulated backend with a fixed sleep per round trip.

    The sleep stands in for API latency; it is the only thing added, so the
    candidates (and therefore the records) are those of the wrapped model.
    """

    def __init__(self, inner: SimulatedLLM, delay_s: float) -> None:
        self.inner = inner
        self.name = inner.name
        self.delay_s = delay_s
        self.example_content_sensitive = inner.example_content_sensitive

    @property
    def usage(self):
        return self.inner.usage

    def wait(self) -> None:
        """The injected round-trip delay."""
        time.sleep(self.delay_s)

    def generate(self, prompt):
        self.wait()
        return self.inner.generate(prompt)

    def generate_batch(self, prompts):
        if not prompts:
            return []
        self.wait()
        return self.inner.generate_batch(prompts)

    def backtranslate(self, description: str, schema_text: str = ""):
        return self.inner.backtranslate(description, schema_text)


def curate_corpus(profile: Profile) -> dict:
    tenants = {}
    for name in BENCHMARK_NAMES:
        workload = build_benchmark(
            name, seed=CORPUS_SEED, row_scale=ROW_SCALE,
            query_count=profile.curate_jobs_per_tenant,
        )
        tenants[name] = {"schema": workload.schema, "sql": workload.query_sql,
                         "digest": workload_digest(workload)}
    return {"tenants": tenants}


def curate_inputs(seed: int, profile: Profile, corpus: dict) -> dict:
    """Each tenant's log in this seed's submission order."""
    rng = random.Random(f"curate-batch:{seed}")
    tenants = {}
    for name, tenant in corpus["tenants"].items():
        sql = list(tenant["sql"])
        rng.shuffle(sql)
        tenants[name] = dict(tenant, sql=sql)
    return {"tenants": tenants}


def _curate_service(inputs: dict, directory: Path, delay_s: float,
                    concurrency: int, telemetry=None) -> AnnotationService:
    service = AnnotationService.open_durable(
        directory, fsync="batch", max_concurrency=concurrency, telemetry=telemetry,
    )
    for name, tenant in inputs["tenants"].items():
        service.register_project(
            name, tenant["schema"],
            llm=InjectedLatencyLLM(SimulatedLLM("gpt-4o", schema=tenant["schema"]), delay_s),
        )
    return service


def _records_digest(completed) -> str:
    return sha256_json([
        [item.job.project, item.job.job_id, item.error,
         None if item.record is None else vars(item.record)]
        for item in completed
    ])


def curate_reference(inputs: dict, workdir: Path) -> str:
    """Records digest of a sequential (concurrency 1) drain, no injected delay."""
    directory = _fresh_dir(workdir / "curate-reference")
    service = _curate_service(inputs, directory, 0.0, concurrency=1)
    for name, tenant in inputs["tenants"].items():
        service.submit_many(tenant["sql"], project=name)
    digest = _records_digest(service.drain())
    service.close()
    shutil.rmtree(directory, ignore_errors=True)
    return digest


def curate_round(inputs: dict, profile: Profile, workdir: Path, rec=None,
                 telemetry=None) -> RoundResult:
    result = RoundResult()
    directory = _fresh_dir(workdir / "curate")
    started = time.perf_counter()
    service = _curate_service(inputs, directory, profile.curate_llm_delay_s,
                              concurrency=2, telemetry=telemetry)
    result.setup_s = time.perf_counter() - started
    for name, tenant in inputs["tenants"].items():
        service.submit_many(tenant["sql"], project=name)
    jobs = service.pending_count

    # Commit instants (the journal append of each annotation_committed
    # record) and per-job commit durations, observed on the live objects.
    commit_times: list[float] = []
    journal = service.journal
    journal_append = journal.append

    def timed_append(event_type, payload):
        offset = journal_append(event_type, payload)
        if event_type == "annotation_committed":
            commit_times.append(time.perf_counter())
        return offset

    journal.append = timed_append
    for name in service.project_names:
        pipeline = service.pipeline(name)
        submit = pipeline.submit_feedback

        def timed_submit(*args, _submit=submit, **kwargs):
            t0 = time.perf_counter()
            record = _submit(*args, **kwargs)
            result.commit_s.append(time.perf_counter() - t0)
            return record

        pipeline.submit_feedback = timed_submit

    _settle()
    with _root(rec, "curate.drain"):
        drain_started = time.perf_counter()
        completed = service.drain()
        result.wall_s = time.perf_counter() - drain_started
    result.ops = jobs
    result.failed = sum(1 for item in completed if item.failed) + (jobs - len(completed))
    # A job that did not commit misses every latency limit.
    result.latency_s = [t - drain_started for t in commit_times] + [math.inf] * result.failed
    result.output_digest = _records_digest(completed)
    result.extra["regenerated"] = service.stats.regenerated_queries
    live_state = sha256_json(service.capture_state(include_accounting=False))
    service.close()

    with _root(rec, "curate.recover"):
        recover_started = time.perf_counter()
        recovered = AnnotationService.recover(directory / "journal.bin", fsync="batch")
        result.extra["recovery_s"] = time.perf_counter() - recover_started
    result.extra["events_replayed"] = recovered.journal.record_count
    recovered_state = sha256_json(recovered.capture_state(include_accounting=False))
    recovered.close()
    result.checks["recovered_equals_live"] = recovered_state == live_state
    result.checks["no_quarantine"] = result.failed == 0
    result.shape = {
        "tenants": len(inputs["tenants"]),
        "jobs": jobs,
        "llm_delay_ms": profile.curate_llm_delay_s * 1000,
        "fsync": "batch",
        "max_concurrency": 2,
    }
    shutil.rmtree(directory, ignore_errors=True)
    return result


# ----------------------------------------------------------------------
# annotate-interactive
# ----------------------------------------------------------------------

#: Seeded feedback mix of the annotator: (action, weight).
FEEDBACK_MIX = (("accept", 0.45), ("pick", 0.2), ("edit", 0.2), ("regenerate", 0.15))
PRIORITIES = (
    "mention every filter value",
    "name the aggregated columns",
    "describe the grouping first",
    "keep it to one sentence",
)


def interactive_corpus(profile: Profile) -> dict:
    total = profile.interactive_warm_examples + profile.interactive_queries
    workload = build_benchmark("Beaver", seed=CORPUS_SEED, row_scale=ROW_SCALE,
                               query_count=total)
    return {
        "schema": workload.schema,
        "queries": [(q.query_id, q.sql, q.gold_nl) for q in workload.queries],
        "terms": sorted(workload.spec.domain_terms.items()),
        "digest": workload_digest(workload),
    }


def interactive_inputs(seed: int, profile: Profile, corpus: dict) -> dict:
    """The warm archive, then the live queries in this seed's order, each
    with the annotator's seeded feedback."""
    queries = corpus["queries"]
    warm = queries[: profile.interactive_warm_examples]
    live = list(queries[profile.interactive_warm_examples:])
    rng = random.Random(f"annotate-interactive:{seed}")
    rng.shuffle(live)
    actions = [name for name, _ in FEEDBACK_MIX]
    weights = [weight for _, weight in FEEDBACK_MIX]
    plan = []
    for query_id, sql, _ in live:
        plan.append({
            "query_id": query_id,
            "sql": sql,
            "action": rng.choices(actions, weights)[0],
            "pick": rng.random(),
            "term": list(rng.choice(corpus["terms"])),
            "priority": rng.choice(PRIORITIES),
        })
    return {
        "schema": corpus["schema"],
        "warm": [(sql, nl) for _, sql, nl in warm],
        "plan": plan,
        "digest": corpus["digest"],
    }


def _feedback_for(step: dict, candidates: list[str]) -> Feedback:
    action = step["action"]
    if action == "pick" and len(candidates) > 1:
        index = 1 + int(step["pick"] * (len(candidates) - 1))
        return Feedback(action=FeedbackAction.ACCEPT, selected_index=index)
    if action == "edit":
        term, explanation = step["term"]
        return Feedback(
            action=FeedbackAction.EDIT,
            edited_text=f"{candidates[0]} ({term}: {explanation})",
            knowledge=[(term, explanation)],
        )
    if action == "regenerate":
        return Feedback(action=FeedbackAction.REGENERATE, new_priorities=[step["priority"]])
    return Feedback(action=FeedbackAction.ACCEPT, selected_index=0)


def interactive_round(inputs: dict, profile: Profile, workdir: Path, rec=None,
                      telemetry=None) -> RoundResult:
    result = RoundResult()
    directory = _fresh_dir(workdir / "interactive")
    started = time.perf_counter()
    pipeline = AnnotationPipeline(inputs["schema"], config=TaskConfig(), dataset_name="Beaver")
    if telemetry is not None:
        pipeline.attach_telemetry(telemetry)
    journal = EventJournal(directory / "journal.bin", fsync="batch")
    if telemetry is not None:
        journal.telemetry = telemetry
    pipeline.attach_journal(journal, project="Beaver")
    for sql, nl in inputs["warm"]:
        pipeline.retriever.record_annotation(sql, nl, dataset="Beaver")
    result.setup_s = time.perf_counter() - started
    archive_at_start = pipeline.example_count

    def commit(candidate_set, feedback, query_id):
        t0 = time.perf_counter()
        record = pipeline.submit_feedback(candidate_set, feedback, query_id=query_id)
        journal.commit()
        result.commit_s.append(time.perf_counter() - t0)
        return record

    records = []
    _settle()
    round_started = time.perf_counter()
    for step in inputs["plan"]:
        with _root(rec, "interactive.query"):
            t0 = time.perf_counter()
            candidate_set = pipeline.generate_candidates(step["sql"], query_id=step["query_id"])
            result.latency_s.append(time.perf_counter() - t0)
            record = commit(candidate_set, _feedback_for(step, candidate_set.candidates),
                            step["query_id"])
            if record is None:  # regeneration requested: redraft, then accept
                t0 = time.perf_counter()
                candidate_set = pipeline.generate_candidates(
                    step["sql"], query_id=step["query_id"])
                result.latency_s.append(time.perf_counter() - t0)
                record = commit(candidate_set,
                                Feedback(action=FeedbackAction.ACCEPT, selected_index=0),
                                step["query_id"])
            records.append(vars(record))
    result.wall_s = time.perf_counter() - round_started
    journal.close()
    result.ops = len(inputs["plan"])
    result.output_digest = sha256_json(records)
    result.checks["every_query_committed"] = len(records) == result.ops
    result.shape = {
        "archive_examples_at_start": archive_at_start,
        "queries": result.ops,
        "drafts": len(result.latency_s),
        "commits": len(result.commit_s),
        "fsync": "batch",
    }
    result.extra["archive_examples_at_start"] = archive_at_start
    shutil.rmtree(directory, ignore_errors=True)
    return result


# ----------------------------------------------------------------------
# score-exec
# ----------------------------------------------------------------------


class GuardBreach(BaseException):
    """A comparison exceeded the guard.  A ``BaseException`` so that the
    engine's and the metric's ``except Exception`` handlers let it through."""


class ComparisonGuard:
    """Wall-clock guard and allocation cap around one comparison.

    A ``SIGALRM`` timer ticks every ``tick_s`` while a comparison runs; the
    handler breaches when the wall clock passes ``wall_s`` or when the
    garbage collector has run ``gc_triggers`` times.  Generation-0
    collections fire once per 700 net container allocations, so the count is
    a deterministic measure of how much the comparison allocated; collecting
    generation 0 just before the comparison resets the allocation counter,
    so the count does not depend on what ran before.  The handler keeps
    ticking until the comparison returns, so a breach raised where Python
    cannot propagate it (a finaliser) is raised again on the next tick.
    Only the main thread can be interrupted this way.
    """

    def __init__(self, wall_s: float, gc_triggers: int, tick_s: float = 0.01) -> None:
        self.wall_s = wall_s
        self.gc_triggers = gc_triggers
        self.tick_s = tick_s
        self.reason = ""
        self._deadline = 0.0
        self._gc_base = 0

    @staticmethod
    def _collections() -> int:
        return sum(generation["collections"] for generation in gc.get_stats())

    def _breach_reason(self) -> str:
        if self._collections() - self._gc_base >= self.gc_triggers:
            return "allocation"
        if time.perf_counter() >= self._deadline:
            return "wall"
        return ""

    def _on_tick(self, signum, frame) -> None:
        reason = self._breach_reason()
        if reason:
            self.reason = reason
            raise GuardBreach(reason)

    def __enter__(self) -> "ComparisonGuard":
        self._previous = signal.signal(signal.SIGALRM, self._on_tick)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def run(self, fn, *args):
        """``fn(*args)``; raises :class:`GuardBreach` past either limit."""
        gc.collect(0)
        self.reason = ""
        self._gc_base = self._collections()
        self._deadline = time.perf_counter() + self.wall_s
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        try:
            value = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if self._collections() - self._gc_base >= self.gc_triggers:
            self.reason = "allocation"
            raise GuardBreach("allocation")
        return value


def score_corpus(profile: Profile) -> dict:
    """Tables, gold SQL and model candidates of the fixed scoring corpus.

    Plain data only, so the corpus process can hand it over as a pickle.
    ``predict_s`` is the simulated text-to-SQL models' time (``eval_sim``).
    """
    families = {}
    comparisons = []
    predict_s = 0.0
    for name in BENCHMARK_NAMES:
        workload = build_benchmark(
            name, seed=CORPUS_SEED, row_scale=ROW_SCALE,
            query_count=profile.score_queries_per_family,
        )
        models = list(GENERAL_MODELS)
        best = best_model_for(name)
        if best not in models:
            models.append(best)
        families[name] = {
            "models": models,
            "tables": [
                (table.name, [(c.name, c.data_type, c.not_null, c.primary_key, c.unique)
                              for c in table.columns], list(table.rows))
                for table in workload.database.tables()
            ],
            "digest": workload_digest(workload),
        }
        for model_name in models:
            started = time.perf_counter()
            model = SimulatedText2SQLModel.for_workload(model_name, workload)
            for query in workload.queries:
                comparisons.append((name, model_name, query.query_id, query.sql,
                                    model.predict(query.gold_nl, query.sql)))
            predict_s += time.perf_counter() - started
    return {"families": families, "comparisons": comparisons, "predict_s": predict_s}


def score_inputs(seed: int, profile: Profile, corpus: dict) -> dict:
    """The corpus in this seed's scoring order (models interleaved per family)."""
    rng = random.Random(f"score-exec:{seed}")
    ordered = []
    for family in corpus["families"]:
        pairs = [c for c in corpus["comparisons"] if c[0] == family]
        rng.shuffle(pairs)
        ordered.extend(pairs)
    return {"families": corpus["families"], "comparisons": ordered,
            "predict_s": corpus["predict_s"]}


def load_database(name: str, tables) -> Database:
    """Build a fresh engine database from generated table rows."""
    database = Database(name)
    for table_name, columns, rows in tables:
        database.create_table(table_name, [
            StoredColumn(name=c, data_type=t, not_null=nn, primary_key=pk, unique=u)
            for c, t, nn, pk, u in columns
        ])
        database.insert(table_name, rows)
    return database


def score_round(inputs: dict, profile: Profile, workdir: Path, rec=None,
                telemetry=None) -> RoundResult:
    result = RoundResult()
    started = time.perf_counter()
    databases = {
        family: load_database(family, entry["tables"])
        for family, entry in inputs["families"].items()
    }
    verdicts_db = Database("verdicts")
    verdicts_db.execute(
        "CREATE TABLE verdicts (family VARCHAR, model VARCHAR, query_id VARCHAR, "
        "verdict VARCHAR, gold_rows INT, predicted_rows INT)")
    result.setup_s = time.perf_counter() - started

    gold_caches = {family: execution.GoldResultCache(db) for family, db in databases.items()}
    verdicts = []
    breached = []
    statements = set()
    _settle()
    with ComparisonGuard(profile.guard_wall_s, profile.guard_gc_triggers) as guard:
        round_started = time.perf_counter()
        for family, model, query_id, gold, candidate in inputs["comparisons"]:
            database = databases[family]
            with _root(rec, "score.compare"):
                t0 = time.perf_counter()
                try:
                    comparison = guard.run(
                        execution.compare_execution, database, gold, candidate,
                        gold_caches[family],
                    )
                except GuardBreach:
                    comparison = None
                elapsed = time.perf_counter() - t0
                if comparison is None:
                    result.failed += 1
                    result.latency_s.append(math.inf)
                    breached.append([family, model, query_id, guard.reason])
                    row = (family, model, query_id, "breach:" + guard.reason, None, None)
                else:
                    result.latency_s.append(elapsed)
                    verdict = "match" if comparison.match else (
                        "error" if not comparison.predicted_executed else "mismatch")
                    row = (family, model, query_id, verdict,
                           comparison.gold_rows, comparison.predicted_rows)
                insert = "INSERT INTO verdicts VALUES ({})".format(", ".join(
                    "NULL" if value is None else
                    str(value) if isinstance(value, int) else f"'{value}'"
                    for value in row))
                t0 = time.perf_counter()
                verdicts_db.execute(insert)
                result.commit_s.append(time.perf_counter() - t0)
            verdicts.append(list(row))
            statements.add((family, gold))
            if candidate:
                statements.add((family, candidate))
        result.wall_s = time.perf_counter() - round_started
    result.ops = len(inputs["comparisons"])
    result.output_digest = sha256_json(verdicts)
    result.extra["breached"] = breached
    result.extra["gold_hits"] = sum(c.hits for c in gold_caches.values())
    result.extra["gold_misses"] = sum(c.misses for c in gold_caches.values())
    result.extra["statement_cache_hits"] = sum(
        db.statement_cache_hits for db in databases.values())
    result.extra["statement_cache_misses"] = sum(
        db.statement_cache_misses for db in databases.values())
    # Executor.plan_cache_hits is public on the executor, which Database
    # keeps private; it is only read here.
    result.extra["plan_cache_hits"] = sum(
        db._executor.plan_cache_hits for db in databases.values())
    result.extra["predict_s"] = inputs["predict_s"]
    result.checks["verdict_rows_committed"] = len(verdicts_db.table("verdicts")) == result.ops
    per_family = {}
    for family, _ in statements:
        per_family[family] = per_family.get(family, 0) + 1
    result.shape = {
        "comparisons": result.ops,
        "families": len(inputs["families"]),
        "models_per_family": {f: len(e["models"]) for f, e in inputs["families"].items()},
        "distinct_statements": len(statements),
        "distinct_statements_per_database": per_family,
        "statement_cache_capacity": STATEMENT_CACHE_CAPACITY,
        "guard_wall_s": profile.guard_wall_s,
        "guard_gc_triggers": profile.guard_gc_triggers,
        "guard_allocations": profile.guard_gc_triggers * gc.get_threshold()[0],
    }
    return result


@dataclass(frozen=True)
class Workload:
    build_corpus: object
    build_inputs: object
    run_round: object


#: Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "curate-batch": Workload(curate_corpus, curate_inputs, curate_round),
    "annotate-interactive": Workload(interactive_corpus, interactive_inputs,
                                     interactive_round),
    "score-exec": Workload(score_corpus, score_inputs, score_round),
}


def input_digest(name: str, inputs: dict) -> str:
    """SHA-256 over the workload's SQL text and table rows, in this seed's order."""
    if name == "curate-batch":
        payload = {n: [t["digest"], t["sql"]] for n, t in inputs["tenants"].items()}
    elif name == "annotate-interactive":
        payload = {"workload": inputs["digest"], "plan": inputs["plan"]}
    else:
        payload = {
            "families": {n: f["digest"] for n, f in inputs["families"].items()},
            "comparisons": inputs["comparisons"],
        }
    return sha256_json(payload)
