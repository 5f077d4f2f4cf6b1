"""Engine throughput — compiled closures + hash joins vs the interpreter.

Runs a join/aggregate-heavy workload (50+ queries over 1k+-row tables) through
both executor modes of the same database:

* ``interpreted``: the original per-row tree-walking evaluator with the
  original single-key-only equi hash join,
* ``compiled``: expression-to-closure compilation, multi-key hash joins and
  the statement/plan caches.

Both modes must produce bit-identical results (asserted query-for-query
before timing); the compiled path must then clear the ISSUE's >= 3x speedup
bar on the full profile.  Results are written to ``BENCH_engine.json`` at the
repo root in machine-readable form so CI can track regressions.

Set ``ENGINE_BENCH_PROFILE=smoke`` for the CI-sized run: smaller tables and a
relaxed speedup floor, same query shapes.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

import pytest

from repro.engine import Database

#: Benchmark profiles: table sizes and the speedup the run must clear.
PROFILES = {
    "full": {"customers": 1000, "orders": 2000, "rates": 60, "min_speedup": 3.0},
    "smoke": {"customers": 150, "orders": 300, "rates": 24, "min_speedup": 1.2},
}

PROFILE = os.environ.get("ENGINE_BENCH_PROFILE", "full")
#: Timed passes over the whole query list per mode (caches stay warm).
REPEATS = 2
SEED = 13

STATUSES = ("open", "closed", "pending", "shipped")
SEGMENTS = ("enterprise", "smb", "consumer", "public")
ZONES = ("north", "south", "east", "west")


def build_database(profile: dict) -> Database:
    """Deterministically build the join/aggregate benchmark database."""
    rng = random.Random(SEED)
    database = Database("engine-bench")
    database.create_table(
        "regions", [("id", "INT"), ("name", "TEXT"), ("zone", "TEXT")], primary_key=["id"]
    )
    database.create_table(
        "customers",
        [("id", "INT"), ("region_id", "INT"), ("segment", "TEXT"), ("score", "REAL"),
         ("active", "BOOLEAN"), ("name", "TEXT")],
        primary_key=["id"],
    )
    database.create_table(
        "orders",
        [("id", "INT"), ("customer_id", "INT"), ("region_id", "INT"), ("status", "TEXT"),
         ("amount", "REAL"), ("quantity", "INT")],
        primary_key=["id"],
    )
    database.create_table(
        "rates",
        [("region_id", "INT"), ("status", "TEXT"), ("fee", "REAL")],
    )

    region_count = 40
    database.table("regions").insert_rows(
        [(i + 1, f"region_{i + 1}", ZONES[i % len(ZONES)]) for i in range(region_count)]
    )
    database.table("customers").insert_rows(
        [
            (
                i + 1,
                rng.randint(1, region_count),
                rng.choice(SEGMENTS),
                round(rng.uniform(0, 100), 2),
                rng.random() < 0.8,
                f"customer_{i + 1}",
            )
            for i in range(profile["customers"])
        ]
    )
    database.table("orders").insert_rows(
        [
            (
                i + 1,
                rng.randint(1, profile["customers"]),
                rng.randint(1, region_count) if rng.random() > 0.05 else None,
                rng.choice(STATUSES),
                round(rng.uniform(1, 5000), 2),
                rng.randint(1, 20),
            )
            for i in range(profile["orders"])
        ]
    )
    database.table("rates").insert_rows(
        [
            (rng.randint(1, region_count), rng.choice(STATUSES), round(rng.uniform(0.5, 9.5), 2))
            for _ in range(profile["rates"])
        ]
    )
    return database


def build_queries() -> list[str]:
    """50+ join/aggregate-heavy queries with varied literals."""
    queries: list[str] = []
    # scans with compiled-friendly predicates
    for threshold in (250, 750, 1500, 2500, 3500, 4500):
        queries.append(
            f"SELECT id, amount * 1.07 FROM orders WHERE amount > {threshold} "
            f"AND status IN ('open', 'shipped') ORDER BY amount DESC LIMIT 50"
        )
    for pattern in ("customer_1%", "customer_2%", "customer_3%"):
        queries.append(
            f"SELECT name, score FROM customers WHERE name LIKE '{pattern}' AND active = TRUE"
        )
    # single-key equi joins + aggregation
    for threshold in (250, 500, 1000, 1500, 2000, 3000, 4000):
        queries.append(
            "SELECT c.segment, COUNT(*), SUM(o.amount), AVG(o.quantity) "
            "FROM orders o JOIN customers c ON o.customer_id = c.id "
            f"WHERE o.amount > {threshold} GROUP BY c.segment "
            "HAVING COUNT(*) >= 1 ORDER BY 3 DESC"
        )
    for status in STATUSES:
        queries.append(
            "SELECT r.zone, COUNT(*), SUM(o.amount) "
            "FROM orders o JOIN regions r ON o.region_id = r.id "
            f"WHERE o.status = '{status}' GROUP BY r.zone ORDER BY 2 DESC"
        )
    # three-table join chains
    for segment in SEGMENTS:
        queries.append(
            "SELECT r.zone, COUNT(*), AVG(o.amount) "
            "FROM orders o JOIN customers c ON o.customer_id = c.id "
            "JOIN regions r ON c.region_id = r.id "
            f"WHERE c.segment = '{segment}' GROUP BY r.zone ORDER BY 3 DESC"
        )
    # multi-key hash joins (AND-of-equalities; interpreted mode nested-loops)
    for threshold in (100, 1000, 2500):
        queries.append(
            "SELECT o.id, t.fee, o.amount * t.fee / 100 "
            "FROM orders o JOIN rates t ON o.region_id = t.region_id AND o.status = t.status "
            f"WHERE o.amount > {threshold} ORDER BY 3 DESC LIMIT 25"
        )
    queries.append(
        "SELECT t.status, COUNT(*), SUM(o.amount * t.fee) "
        "FROM orders o JOIN rates t ON o.region_id = t.region_id AND o.status = t.status "
        "GROUP BY t.status ORDER BY 1"
    )
    # equality keys plus residual conjuncts
    queries.append(
        "SELECT COUNT(*) FROM orders o JOIN rates t "
        "ON o.region_id = t.region_id AND o.status = t.status AND o.amount > t.fee * 100"
    )
    # outer joins with equality keys plus a residual conjunct
    for threshold in (1000, 3000):
        queries.append(
            "SELECT t.status, COUNT(o.id) FROM rates t "
            "LEFT JOIN orders o ON o.region_id = t.region_id AND o.status = t.status "
            f"AND o.amount > {threshold} GROUP BY t.status ORDER BY 2 DESC, 1"
        )
    queries.append(
        "SELECT c.segment, COUNT(o.id) FROM customers c "
        "LEFT JOIN orders o ON o.customer_id = c.id "
        "GROUP BY c.segment ORDER BY 2 DESC, 1"
    )
    # grouping on expressions, CASE projections
    for divisor in (500, 1000):
        queries.append(
            f"SELECT CAST(amount / {divisor} AS INT) AS bucket, COUNT(*), AVG(quantity) "
            f"FROM orders GROUP BY CAST(amount / {divisor} AS INT) ORDER BY 1"
        )
    queries.append(
        "SELECT CASE WHEN amount > 2500 THEN 'big' WHEN amount > 500 THEN 'mid' ELSE 'small' END AS band, "
        "COUNT(*) FROM orders "
        "GROUP BY CASE WHEN amount > 2500 THEN 'big' WHEN amount > 500 THEN 'mid' ELSE 'small' END "
        "ORDER BY 2 DESC"
    )
    # subqueries (uncorrelated: cached; correlated scalar: per-row)
    queries.append(
        "SELECT id, amount FROM orders WHERE amount > (SELECT AVG(amount) FROM orders) "
        "ORDER BY amount DESC LIMIT 30"
    )
    queries.append(
        "SELECT name FROM customers WHERE id IN "
        "(SELECT customer_id FROM orders WHERE amount > 4000) ORDER BY name"
    )
    queries.append(
        "SELECT segment, COUNT(*) FROM customers WHERE score > "
        "(SELECT AVG(score) FROM customers) GROUP BY segment ORDER BY 2 DESC"
    )
    # IN membership: uncorrelated IN / NOT IN subqueries (hash-probed cached
    # results; orders.region_id holds NULL members) and literal IN lists
    for zone in ZONES:
        queries.append(
            "SELECT o.id, c.name FROM orders o JOIN customers c ON o.customer_id = c.id "
            f"WHERE o.region_id IN (SELECT id FROM regions WHERE zone = '{zone}') "
            "ORDER BY o.id LIMIT 40"
        )
    for threshold in (1000, 4000):
        queries.append(
            "SELECT COUNT(*) FROM customers WHERE region_id NOT IN "
            f"(SELECT region_id FROM orders WHERE amount > {threshold})"
        )
    queries.append(
        "SELECT status, COUNT(*) FROM orders WHERE customer_id NOT IN "
        "(SELECT * FROM customers WHERE segment = 'smb') GROUP BY status ORDER BY 1"
    )
    queries.append(
        "SELECT id FROM orders WHERE quantity IN (1, 3, 5, 7, 11) "
        "AND region_id IN (2, '4', 8.0, 16, NULL) ORDER BY id"
    )
    queries.append(
        "SELECT COUNT(*) FROM customers WHERE segment NOT IN ('smb', 'public') "
        "AND region_id IN (1, 2, 3, 5, 8, 13, 21, 34)"
    )
    # set operations and DISTINCT
    queries.append(
        "SELECT DISTINCT status FROM orders UNION SELECT DISTINCT segment FROM customers ORDER BY 1"
    )
    queries.append("SELECT DISTINCT region_id FROM orders INTERSECT SELECT region_id FROM customers")
    # CTE over an aggregate
    queries.append(
        "WITH totals AS (SELECT customer_id, SUM(amount) AS total FROM orders GROUP BY customer_id) "
        "SELECT COUNT(*), AVG(total) FROM totals"
    )
    # USING join
    queries.append(
        "SELECT COUNT(*) FROM orders JOIN customers USING (region_id)"
    )
    # BETWEEN / IS NULL / arithmetic ordering
    for low, high in ((100, 900), (500, 1500), (1000, 2000), (1500, 3000), (2000, 4000), (2500, 4900)):
        queries.append(
            f"SELECT id, quantity FROM orders WHERE amount BETWEEN {low} AND {high} "
            "AND region_id IS NOT NULL ORDER BY quantity * amount DESC LIMIT 20"
        )
    queries.append("SELECT COUNT(*) FROM orders WHERE region_id IS NULL")
    # per-status scan + expression ordering variations
    for status in STATUSES:
        queries.append(
            f"SELECT id, amount - quantity * 2 FROM orders WHERE status = '{status}' "
            "ORDER BY 2 DESC LIMIT 15"
        )
    return queries


def assert_bit_identical(database: Database, queries: list[str]) -> None:
    """Every query must return identical results (values and types) in both modes."""
    for sql in queries:
        database.executor_mode = "compiled"
        compiled = database.execute(sql)
        database.executor_mode = "interpreted"
        interpreted = database.execute(sql)
        assert compiled.columns == interpreted.columns, sql
        assert compiled.rows == interpreted.rows, sql
        for compiled_row, interpreted_row in zip(compiled.rows, interpreted.rows):
            assert [type(v) for v in compiled_row] == [type(v) for v in interpreted_row], sql


def timed_pass(database: Database, queries: list[str], mode: str, repeats: int) -> float:
    database.executor_mode = mode
    started = time.perf_counter()
    for _ in range(repeats):
        for sql in queries:
            database.execute(sql)
    return time.perf_counter() - started


def emit_report(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def test_engine_throughput_compiled_beats_interpreter(benchmark):
    profile = PROFILES[PROFILE]
    database = build_database(profile)
    queries = build_queries()
    assert len(queries) >= 50
    assert len(database.table("orders")) >= (1000 if PROFILE == "full" else 100)

    # Correctness first: the speedup claim is only meaningful if both modes
    # agree bit-for-bit.  This pass also warms the statement/plan caches so
    # the timed passes measure steady-state execution.
    assert_bit_identical(database, queries)

    interpreted_elapsed = timed_pass(database, queries, "interpreted", REPEATS)
    compiled_elapsed = timed_pass(database, queries, "compiled", REPEATS)
    # One extra compiled pass under the harness so the shared benchmark
    # reporting stays comparable with the other bench_* files.
    benchmark.pedantic(
        timed_pass, args=(database, queries, "compiled", 1), rounds=1, iterations=1
    )

    executions = len(queries) * REPEATS
    interpreted_qps = executions / interpreted_elapsed
    compiled_qps = executions / compiled_elapsed
    speedup = interpreted_elapsed / compiled_elapsed

    print()
    print(f"profile: {PROFILE}  queries: {len(queries)}  repeats: {REPEATS}")
    print(
        f"rows: orders={len(database.table('orders'))} "
        f"customers={len(database.table('customers'))} rates={len(database.table('rates'))}"
    )
    print(f"interpreted: {interpreted_elapsed:7.3f}s  {interpreted_qps:8.1f} q/s")
    print(f"compiled:    {compiled_elapsed:7.3f}s  {compiled_qps:8.1f} q/s")
    print(f"speedup:     {speedup:0.2f}x (floor {profile['min_speedup']}x)")

    emit_report(
        Path(__file__).resolve().parents[1] / "BENCH_engine.json",
        {
            "benchmark": "engine_throughput",
            "profile": PROFILE,
            "queries": len(queries),
            "repeats": REPEATS,
            "table_rows": {
                name: len(database.table(name))
                for name in ("regions", "customers", "orders", "rates")
            },
            "interpreted": {
                "seconds": round(interpreted_elapsed, 4),
                "ops_per_sec": round(interpreted_qps, 2),
            },
            "compiled": {
                "seconds": round(compiled_elapsed, 4),
                "ops_per_sec": round(compiled_qps, 2),
            },
            "speedup_vs_interpreter": round(speedup, 3),
            "min_speedup": profile["min_speedup"],
        },
    )

    assert speedup >= profile["min_speedup"], (
        f"compiled path {speedup:0.2f}x vs interpreter; "
        f"{PROFILE} profile requires >= {profile['min_speedup']}x"
    )
