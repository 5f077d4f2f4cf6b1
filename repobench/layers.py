"""Which public functions belong to which layer, and the per-layer metrics.

:func:`install` wraps every entry in :data:`TARGETS` with a span of its layer
for the length of one traced round; :func:`uninstall` puts the originals
back.  Methods are wrapped on their class, so every instance (and every
subclass that inherits the method) is traced; module-level functions are
replaced in every ``repro`` module that imported them by name.  Nothing
under ``src/`` changes.

Layers follow the package layout.  ``llm`` is the client wrapper (retry,
hedge, breaker) that every backend inherits; ``llm_sim`` is the simulated
backend and ``llm_wait`` the benchmark's injected round-trip delay, both
charged apart from the system.  ``eval_sim`` (the simulated text-to-SQL
model) runs in the score-exec corpus process and is timed there.
"""

from __future__ import annotations

import importlib
import sys

import spans as sp

#: (layer, module, attribute path, opaque, ambient)
TARGETS = [
    ("service", "repro.core.service", "AnnotationService.drain", False, False),
    ("service", "repro.core.service", "AnnotationService.submit", False, False),
    ("service", "repro.core.service", "AnnotationService.register_project", False, False),
    ("service", "repro.core.service", "AnnotationService.recover", False, False),
    ("service", "repro.core.service", "AnnotationService.open_durable", False, False),
    ("service", "repro.core.service", "AnnotationService.capture_state", False, False),
    ("service", "repro.core.service", "AnnotationService.close", False, False),
    ("scheduler", "repro.core.scheduler", "WaveScheduler.run_all", False, True),
    ("pipeline", "repro.core.pipeline", "WaveRun.run_next_wave", False, False),
    ("pipeline", "repro.core.pipeline", "AnnotationPipeline.generate_candidates", False, False),
    ("pipeline", "repro.core.pipeline", "AnnotationPipeline.submit_feedback", False, False),
    ("pipeline", "repro.core.pipeline", "AnnotationPipeline.annotate", False, False),
    ("feedback", "repro.core.feedback", "FeedbackLoop.apply", False, False),
    ("journal", "repro.core.journal", "EventJournal.__init__", False, False),
    ("journal", "repro.core.journal", "EventJournal.append", False, False),
    ("journal", "repro.core.journal", "EventJournal.commit", False, False),
    ("journal", "repro.core.journal", "EventJournal.close", False, False),
    ("journal", "repro.core.journal", "EventJournal.events", False, False),
    ("sql", "repro.sql.parser", "parse", False, False),
    ("sql", "repro.sql.parser", "parse_select", False, False),
    ("sql", "repro.sql.parser", "parse_many", False, False),
    ("sql", "repro.sql.lexer", "Lexer.tokenize", False, False),
    ("sql", "repro.sql.normalizer", "lexical_normalize", False, False),
    ("sql", "repro.sql.normalizer", "query_skeleton", False, False),
    ("sql", "repro.sql.normalizer", "normalize_sql", False, False),
    ("sql", "repro.sql.analyzer", "analyze_query", False, False),
    ("sql", "repro.sql.analyzer", "count_keywords", False, False),
    ("sql", "repro.sql.analyzer", "count_tokens", False, False),
    ("sql", "repro.sql.decompose", "decompose", False, False),
    ("sql", "repro.sql.recompose", "recompose", False, False),
    ("sql", "repro.sql.printer", "print_select", False, False),
    ("retrieval", "repro.retrieval.retriever", "ContextRetriever.retrieve", False, False),
    ("retrieval", "repro.retrieval.retriever", "ContextRetriever.retrieve_batch", False, False),
    ("retrieval", "repro.retrieval.retriever", "ContextRetriever.record_annotation", False, False),
    ("retrieval", "repro.retrieval.retriever", "ContextRetriever.example_count", False, False),
    ("retrieval", "repro.retrieval.example_store", "ExampleStore.add", False, False),
    ("retrieval", "repro.retrieval.example_store", "ExampleStore.retrieve", False, False),
    ("retrieval", "repro.retrieval.example_store", "ExampleStore.retrieve_many", False, False),
    ("retrieval", "repro.retrieval.example_store", "ExampleStore.retrieve_count", False, False),
    ("retrieval", "repro.retrieval.vector_store", "ShardedVectorStore.add", False, False),
    ("retrieval", "repro.retrieval.vector_store", "ShardedVectorStore.search", False, False),
    ("retrieval", "repro.retrieval.vector_store", "ShardedVectorStore.search_ids", False, False),
    ("retrieval", "repro.retrieval.vector_store", "ShardedVectorStore.search_batch", False, False),
    ("retrieval", "repro.retrieval.embedding", "EmbeddingModel.embed", False, False),
    ("retrieval", "repro.retrieval.embedding", "EmbeddingModel.embed_batch", False, False),
    ("retrieval", "repro.retrieval.embedding", "EmbeddingModel.observe", False, False),
    ("retrieval", "repro.schema.linking", "link_sql_to_schema", False, False),
    ("llm", "repro.llm.base", "LLMClient.generate_with_retry", False, False),
    ("llm", "repro.llm.base", "LLMClient.generate_batch_with_retry", False, False),
    ("llm_sim", "repro.llm.simulated", "SimulatedLLM.generate", True, False),
    ("llm_sim", "repro.llm.simulated", "SimulatedLLM.generate_batch", True, False),
    ("llm_sim", "repro.llm.simulated", "SimulatedLLM.backtranslate", True, False),
    ("llm_wait", "scenarios", "InjectedLatencyLLM.wait", True, False),
    ("engine", "repro.engine.database", "Database.execute", False, False),
    ("engine", "repro.engine.database", "Database.execute_statement", False, False),
    ("engine", "repro.engine.database", "Database.parse_cached", False, False),
    ("engine", "repro.engine.database", "Database.create_table", False, False),
    ("engine", "repro.engine.database", "Database.insert", False, False),
    ("scoring", "repro.metrics.execution", "compare_execution", False, False),
    ("scoring", "repro.metrics.execution", "execute_safely", False, False),
    ("scoring", "repro.metrics.execution", "results_match", False, False),
    ("scoring", "repro.metrics.execution", "GoldResultCache.get", False, False),
    ("scoring", "repro.metrics.execution", "GoldResultCache.put", False, False),
]

#: Every per-layer metric, as in BENCHMARK.json, with its unit.
PER_LAYER_UNITS = {
    "service.self_ms_per_op": "ms",
    "recovery.replay_ms": "ms",
    "recovery.events_replayed": "count",
    "scheduler.rounds": "count",
    "scheduler.wave_wait_ms_per_wave": "ms",
    "scheduler.busy_threads_mean": "threads",
    "pipeline.self_ms_per_op": "ms",
    "pipeline.waves": "count",
    "pipeline.wave_size_mean": "count",
    "pipeline.fixups_per_job": "ratio",
    "feedback.self_ms_per_op": "ms",
    "journal.self_ms_per_op": "ms",
    "journal.appends_per_op": "count",
    "journal.bytes_per_op": "bytes",
    "journal.fsyncs": "count",
    "sql.self_ms_per_op": "ms",
    "sql.parses_per_op": "count",
    "sql.lexes_per_op": "count",
    "retrieval.self_ms_per_op": "ms",
    "retrieval.searches_per_op": "count",
    "retrieval.embed_cache_hit_rate": "ratio",
    "retrieval.archive_examples": "count",
    "llm.client_self_ms_per_op": "ms",
    "llm.round_trips_per_op": "count",
    "llm.retries": "count",
    "llm.wait_ms_per_op": "ms",
    "llm_sim.cpu_ms_per_op": "ms",
    "engine.self_ms_per_op": "ms",
    "engine.executions_per_op": "count",
    "engine.statement_cache_hit_rate": "ratio",
    "engine.plan_cache_hits": "count",
    "scoring.self_ms_per_op": "ms",
    "scoring.gold_cache_hit_rate": "ratio",
    "scoring.guard_breaches": "count",
    "eval_sim.predict_ms_per_op": "ms",
    "trace.unattributed_share": "ratio",
    "trace.overhead_ratio": "ratio",
}

_PARSE_ENTRIES = ("sql.parse", "sql.parse_select", "sql.parse_many")
#: Root spans that mark one op of each workload (see ``scenarios.py``).
OP_ROOTS = ("curate.drain", "interactive.query", "score.compare")


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(recorder: sp.SpanRecorder) -> list:
    """Wrap every target; returns what :func:`uninstall` needs to undo it.

    Also records every :class:`~repro.retrieval.embedding.EmbeddingModel`
    created while installed in ``recorder.embedding_models``, so the round's
    embedding-cache counters can be read from their public ``cache_info``.
    """
    undo = []
    from repro.retrieval.embedding import EmbeddingModel

    recorder.embedding_models = []
    embedding_init = EmbeddingModel.__dict__["__init__"]

    def remember(self, *args, **kwargs):
        embedding_init(self, *args, **kwargs)
        recorder.embedding_models.append(self)

    EmbeddingModel.__init__ = remember
    undo.append((EmbeddingModel, "__init__", embedding_init))
    for layer, module_name, path, opaque, ambient in TARGETS:
        owner, attribute = _resolve(module_name, path)
        name = path.rsplit(".", 1)[-1]
        if isinstance(owner, type):
            raw = owner.__dict__[attribute]
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    recorder.wrap(layer, name, raw.__func__, opaque, ambient))
            else:
                wrapped = recorder.wrap(layer, name, raw, opaque, ambient)
            setattr(owner, attribute, wrapped)
            undo.append((owner, attribute, raw))
            continue
        original = getattr(owner, attribute)
        wrapped = recorder.wrap(layer, name, original, opaque, ambient)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            module_name_ = getattr(module, "__name__", "") or ""
            if namespace is None or not module_name_.startswith("repro"):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapped
                    undo.append((module, key, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, attribute, original in reversed(undo):
        if isinstance(owner, type):
            setattr(owner, attribute, original)
        else:
            owner.__dict__[attribute] = original


def _counter(metrics: dict, name: str) -> float:
    family = metrics.get(name)
    return sum(series["value"] for series in family["series"]) if family else 0.0


def _histogram(metrics: dict, name: str) -> tuple[float, float]:
    family = metrics.get(name)
    if not family:
        return 0.0, 0.0
    return (sum(series["count"] for series in family["series"]),
            sum(series["sum"] for series in family["series"]))


def per_layer_metrics(recorder: sp.SpanRecorder, traced, twin,
                      telemetry) -> tuple[dict, dict]:
    """Per-layer metrics of one traced round, plus the arithmetic checks.

    Only spans of the round's ops count: those whose request began at an op
    root (set-up and the curate-batch recovery are left out).  Counters read
    from the telemetry registry cover the round from service open on, so for
    curate-batch they include each job's submit.
    """
    roots = {s[sp.ID]: s[sp.NAME] for s in recorder.spans if s[sp.PARENT] is None}
    spans = [s for s in recorder.spans if roots.get(s[sp.REQUEST]) in OP_ROOTS]
    embed_hits = embed_misses = 0
    for model in recorder.embedding_models:
        info = model.cache_info()
        embed_hits += info["hits"]
        embed_misses += info["misses"]
    ops = max(1, traced.ops)
    own = sp.layer_self_times(spans)
    counts = sp.call_counts(spans)
    metrics = telemetry.metrics_dict()

    def ms_per_op(layer: str) -> float:
        return own.get(layer, 0.0) * 1000 / ops

    def count(*keys: str) -> int:
        return sum(counts.get(key, 0) for key in keys)

    run_all = [s for s in spans if s[sp.LAYER] == "scheduler"]
    waves = [s for s in spans if s[sp.NAME] == "run_next_wave"]
    busy = 0.0
    for scheduler_span in run_all:
        busy += sum(
            min(w[sp.END], scheduler_span[sp.END]) - max(w[sp.START], scheduler_span[sp.START])
            for w in waves if w[sp.PARENT] == scheduler_span[sp.ID]
        )
    scheduler_wall = sum(s[sp.END] - s[sp.START] for s in run_all)
    wave_wait_count, wave_wait_sum = _histogram(metrics, "pipeline_wave_queue_wait_seconds")
    wave_size_count, wave_size_sum = _histogram(metrics, "pipeline_wave_size")
    extra = traced.extra
    statement_hits = extra.get("statement_cache_hits", 0)
    statement_total = statement_hits + extra.get("statement_cache_misses", 0)
    gold_hits = extra.get("gold_hits", 0)
    gold_total = gold_hits + extra.get("gold_misses", 0)

    values = {
        "service.self_ms_per_op": ms_per_op("service"),
        "recovery.replay_ms": twin.extra.get("recovery_s", 0.0) * 1000,
        "recovery.events_replayed": twin.extra.get("events_replayed", 0),
        "scheduler.rounds": _counter(metrics, "scheduler_rounds_total"),
        "scheduler.wave_wait_ms_per_wave":
            wave_wait_sum * 1000 / wave_wait_count if wave_wait_count else 0.0,
        "scheduler.busy_threads_mean": busy / scheduler_wall if scheduler_wall else 0.0,
        "pipeline.self_ms_per_op": ms_per_op("pipeline"),
        "pipeline.waves": len(waves),
        "pipeline.wave_size_mean": wave_size_sum / wave_size_count if wave_size_count else 0.0,
        "pipeline.fixups_per_job": extra.get("regenerated", 0) / ops,
        "feedback.self_ms_per_op": ms_per_op("feedback"),
        "journal.self_ms_per_op": ms_per_op("journal"),
        "journal.appends_per_op": _counter(metrics, "journal_appends_total") / ops,
        "journal.bytes_per_op": _counter(metrics, "journal_bytes_total") / ops,
        "journal.fsyncs": _counter(metrics, "journal_fsyncs_total"),
        "sql.self_ms_per_op": ms_per_op("sql"),
        "sql.parses_per_op": count(*_PARSE_ENTRIES) / ops,
        "sql.lexes_per_op": count("sql.tokenize") / ops,
        "retrieval.self_ms_per_op": ms_per_op("retrieval"),
        "retrieval.searches_per_op": _counter(metrics, "retrieval_searches_total") / ops,
        "retrieval.embed_cache_hit_rate":
            embed_hits / (embed_hits + embed_misses) if embed_hits + embed_misses else 0.0,
        "retrieval.archive_examples": extra.get("archive_examples_at_start", 0),
        "llm.client_self_ms_per_op": ms_per_op("llm"),
        "llm.round_trips_per_op":
            count("llm.generate_with_retry", "llm.generate_batch_with_retry") / ops,
        "llm.retries": _counter(metrics, "llm_retries_total"),
        "llm.wait_ms_per_op": ms_per_op("llm_wait"),
        "llm_sim.cpu_ms_per_op": ms_per_op("llm_sim"),
        "engine.self_ms_per_op": ms_per_op("engine"),
        "engine.executions_per_op": count("engine.execute_statement") / ops,
        "engine.statement_cache_hit_rate":
            statement_hits / statement_total if statement_total else 0.0,
        "engine.plan_cache_hits": extra.get("plan_cache_hits", 0),
        "scoring.self_ms_per_op": ms_per_op("scoring"),
        "scoring.gold_cache_hit_rate": gold_hits / gold_total if gold_total else 0.0,
        "scoring.guard_breaches": len(extra.get("breached", [])),
        "eval_sim.predict_ms_per_op": extra.get("predict_s", 0.0) * 1000 / ops,
        "trace.unattributed_share": sp.unattributed_share(spans),
        "trace.overhead_ratio": traced.wall_s / twin.wall_s if twin.wall_s else 0.0,
    }
    total_self = sum(own.values())
    thread_time = sp.traced_thread_time(spans)
    checks = {
        "self_times_add_up": abs(total_self - thread_time) <= 1e-6 * max(1.0, thread_time),
    }
    detail = {
        "spans": len(spans),
        "requests": len({s[sp.REQUEST] for s in spans}),
        "layer_self_ms": {k: round(v * 1000, 3) for k, v in sorted(own.items())},
        "traced_thread_ms": round(thread_time * 1000, 3),
        "calls": dict(sorted(counts.items())),
        "checks": checks,
    }
    return values, detail
