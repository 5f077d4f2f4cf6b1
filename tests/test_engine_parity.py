"""Compiled/interpreted/planned parity suite.

Runs every query the workload generator produces — plus a battery of join
edge cases — through all three executor modes and asserts *bit-identical*
results: same columns, same rows in the same order, same Python value types
cell-for-cell.  This is the contract the compiled and planned hot paths must
uphold: they may only be faster than the interpreter, never different.
"""

from __future__ import annotations

import pytest

from repro.engine import Database
from repro.errors import ExecutionError, ReproError

#: The interpreter is the semantic reference; the other two must match it.
PARITY_MODES = ("interpreted", "compiled", "planned")


def run_all_modes(database: Database, sql: str) -> dict:
    """Execute ``sql`` in every executor mode on one database.

    Returns a mode -> outcome dict where each outcome is either a
    QueryResult or the raised engine error.
    """
    outcomes = {}
    original_mode = database.executor_mode
    try:
        for mode in PARITY_MODES:
            database.executor_mode = mode
            try:
                outcomes[mode] = database.execute(sql)
            except ReproError as exc:
                outcomes[mode] = exc
    finally:
        database.executor_mode = original_mode
    return outcomes


def run_both_modes(database: Database, sql: str):
    """Back-compat helper: ``(compiled, interpreted)`` outcomes."""
    outcomes = run_all_modes(database, sql)
    return outcomes["compiled"], outcomes["interpreted"]


def assert_parity(database: Database, sql: str) -> None:
    """Assert every mode produces bit-identical results (or every mode fails)."""
    outcomes = run_all_modes(database, sql)
    reference = outcomes["interpreted"]
    for mode in PARITY_MODES:
        if mode == "interpreted":
            continue
        outcome = outcomes[mode]
        if isinstance(reference, Exception):
            assert isinstance(outcome, Exception), (
                f"interpreted raised {reference!r} but {mode} succeeded for: {sql}"
            )
            continue
        assert not isinstance(outcome, Exception), (
            f"{mode} raised {outcome!r} but interpreted succeeded for: {sql}"
        )
        assert outcome.columns == reference.columns, f"[{mode}] {sql}"
        assert len(outcome.rows) == len(reference.rows), f"[{mode}] {sql}"
        for mode_row, reference_row in zip(outcome.rows, reference.rows):
            assert mode_row == reference_row, f"[{mode}] {sql}"
            assert [type(value) for value in mode_row] == [
                type(value) for value in reference_row
            ], f"value types diverge in {mode} for: {sql}"


# ---------------------------------------------------------------------------
# generated workloads: every query through both paths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload_fixture", ["tiny_spider", "tiny_beaver", "tiny_bird"])
def test_generated_workload_parity(workload_fixture, request):
    workload = request.getfixturevalue(workload_fixture)
    assert workload.queries, "workload generated no queries"
    for query in workload.queries:
        assert_parity(workload.database, query.sql)


# ---------------------------------------------------------------------------
# join edge cases
# ---------------------------------------------------------------------------


@pytest.fixture()
def join_database() -> Database:
    """Two small tables with duplicated column names and NULL join keys."""
    database = Database("joins")
    database.execute(
        "CREATE TABLE orders (id INT PRIMARY KEY, customer_id INT, region_id INT, amount REAL, status TEXT)"
    )
    database.execute(
        "CREATE TABLE customers (id INT PRIMARY KEY, region_id INT, name TEXT, tier TEXT)"
    )
    database.execute(
        "INSERT INTO customers (id, region_id, name, tier) VALUES "
        "(1, 10, 'Acme', 'gold'), (2, 20, 'Globex', 'silver'), "
        "(3, NULL, 'Initech', 'gold'), (4, 10, 'Umbrella', 'bronze')"
    )
    database.execute(
        "INSERT INTO orders (id, customer_id, region_id, amount, status) VALUES "
        "(100, 1, 10, 250.0, 'open'), (101, 1, 20, 80.0, 'closed'), "
        "(102, 2, 20, 99.5, 'open'), (103, NULL, 10, 10.0, 'open'), "
        "(104, 3, NULL, 500.0, 'closed'), (105, 9, 99, 1.0, 'open')"
    )
    return database


JOIN_EDGE_QUERIES = [
    # single-key equi joins (compiled and interpreted both hash)
    "SELECT o.id, c.name FROM orders o JOIN customers c ON o.customer_id = c.id",
    "SELECT o.id, c.name FROM orders o LEFT JOIN customers c ON o.customer_id = c.id",
    # multi-key AND-of-equalities: compiled hash join vs interpreted nested loop
    "SELECT o.id, c.name FROM orders o JOIN customers c "
    "ON o.customer_id = c.id AND o.region_id = c.region_id",
    "SELECT o.id, c.name FROM orders o LEFT JOIN customers c "
    "ON o.customer_id = c.id AND o.region_id = c.region_id",
    "SELECT o.id, c.name FROM orders o RIGHT JOIN customers c "
    "ON o.customer_id = c.id AND o.region_id = c.region_id",
    "SELECT o.id, c.name FROM orders o FULL JOIN customers c "
    "ON o.customer_id = c.id AND o.region_id = c.region_id",
    # equality keys mixed with a non-equality residual conjunct
    "SELECT o.id, c.name FROM orders o JOIN customers c "
    "ON o.customer_id = c.id AND o.amount > 50",
    "SELECT o.id, c.name FROM orders o LEFT JOIN customers c "
    "ON o.customer_id = c.id AND c.tier = 'gold' AND o.amount > 50",
    "SELECT o.id, c.name FROM orders o FULL JOIN customers c "
    "ON o.customer_id = c.id AND c.tier = 'gold'",
    # ambiguous unqualified column (id and region_id exist on both sides)
    "SELECT o.id FROM orders o JOIN customers c ON customer_id = id",
    # NULL keys on both sides must never match
    "SELECT o.id, c.id FROM orders o JOIN customers c ON o.region_id = c.region_id",
    "SELECT o.id, c.id FROM orders o FULL JOIN customers c ON o.region_id = c.region_id",
    # USING join
    "SELECT o.id, c.name FROM orders o JOIN customers c USING (region_id)",
    # cross join via condition-free nested loop
    "SELECT COUNT(*) FROM orders CROSS JOIN customers",
    # non-equality-only condition: nested loop in both modes
    "SELECT o.id, c.id FROM orders o JOIN customers c ON o.amount > c.id * 50",
    # join feeding aggregation / ordering
    "SELECT c.tier, COUNT(*), SUM(o.amount) FROM orders o "
    "JOIN customers c ON o.customer_id = c.id GROUP BY c.tier "
    "HAVING COUNT(*) >= 1 ORDER BY 3 DESC",
]


@pytest.mark.parametrize("sql", JOIN_EDGE_QUERIES)
def test_join_edge_case_parity(join_database, sql):
    assert_parity(join_database, sql)


def test_multi_key_join_uses_hash_path(join_database):
    """The AND-of-equalities condition must produce correct multi-key matches."""
    join_database.executor_mode = "compiled"
    result = join_database.execute(
        "SELECT o.id, c.name FROM orders o JOIN customers c "
        "ON o.customer_id = c.id AND o.region_id = c.region_id ORDER BY o.id"
    )
    # orders 100/102 match their customer on both keys; 101 matches on id but
    # not region; 104 has a NULL region key and must not match customer 3's NULL.
    assert result.rows == [(100, "Acme"), (102, "Globex")]


def test_cross_type_multi_key_join_parity():
    """Join-key equality is bucket equality in every mode and join strategy:
    values are normalised via hashable_key and compared with Python ``==``,
    so ``1`` never joins ``'1'`` — exactly like the single-key hash path —
    and multi-key conditions stay on the hash plan regardless of types."""
    database = Database("cross-type")
    database.create_table("t1", [("a", "INT"), ("b", "TEXT")])
    database.create_table("t2", [("c", "TEXT"), ("d", "TEXT")])
    database.table("t1").insert_rows([(1, "x"), (2, "y")])
    database.table("t2").insert_rows([("1", "x"), ("2", "z")])
    multi = "SELECT * FROM t1 JOIN t2 ON t1.a = t2.c AND t1.b = t2.d"
    single = "SELECT * FROM t1 JOIN t2 ON t1.a = t2.c"
    assert_parity(database, multi)
    assert_parity(database, single)
    for mode in PARITY_MODES:
        database.executor_mode = mode
        # INT 1 and TEXT '1' hash apart, in multi-key and single-key joins alike.
        assert database.execute(multi).rows == []
        assert database.execute(single).rows == []


def test_integral_float_keys_join_across_types():
    """hashable_key folds integral floats to int, so 1.0 joins 1 everywhere."""
    database = Database("float-keys")
    database.create_table("t1", [("a", "INT"), ("b", "INT")])
    database.create_table("t2", [("c", "REAL"), ("d", "INT")])
    database.table("t1").insert_rows([(1, 5), (2, 6)])
    database.table("t2").insert_rows([(1.0, 5), (2.0, 7)])
    sql = "SELECT t1.a, t2.d FROM t1 JOIN t2 ON t1.a = t2.c AND t1.b = t2.d"
    assert_parity(database, sql)
    database.executor_mode = "compiled"
    assert database.execute(sql).rows == [(1, 5)]


def test_homogeneous_multi_key_join_still_hashes(join_database):
    """Type-safe key columns keep the fast path; results stay identical."""
    sql = (
        "SELECT o.id, c.name FROM orders o JOIN customers c "
        "ON o.customer_id = c.id AND o.region_id = c.region_id"
    )
    assert_parity(join_database, sql)


def test_right_and_full_unmatched_rows(join_database):
    join_database.executor_mode = "compiled"
    full = join_database.execute(
        "SELECT o.id, c.id FROM orders o FULL JOIN customers c "
        "ON o.customer_id = c.id AND o.region_id = c.region_id"
    )
    left_ids = {row[0] for row in full.rows}
    right_ids = {row[1] for row in full.rows}
    # every unmatched order appears null-padded on the right...
    assert left_ids >= {100, 101, 102, 103, 104, 105}
    # ...and every unmatched customer appears null-padded on the left.
    assert right_ids >= {1, 2, 3, 4}
    assert (100, 1) in full.rows
    assert (101, None) in full.rows
    assert (None, 3) in full.rows
    assert (None, 4) in full.rows


# ---------------------------------------------------------------------------
# expression / clause parity on a hand-built database
# ---------------------------------------------------------------------------


EXPRESSION_QUERIES = [
    "SELECT name, salary * 1.1 FROM employees WHERE salary > 80000",
    "SELECT name FROM employees WHERE dept_id IS NULL",
    "SELECT name FROM employees WHERE dept_id IS NOT NULL AND salary BETWEEN 70000 AND 130000",
    "SELECT name FROM employees WHERE name LIKE 'A%' OR name LIKE '%k'",
    "SELECT name FROM employees WHERE dept_id IN (1, 3)",
    "SELECT name FROM employees WHERE dept_id NOT IN (1, 3)",
    "SELECT UPPER(name), LENGTH(name) FROM employees ORDER BY 2 DESC, 1 ASC",
    "SELECT CASE WHEN salary >= 100000 THEN 'high' WHEN salary >= 80000 THEN 'mid' ELSE 'low' END AS band, name FROM employees ORDER BY band, name",
    "SELECT CAST(salary AS INT) FROM employees ORDER BY 1",
    "SELECT dept_id, COUNT(*), AVG(salary) FROM employees GROUP BY dept_id HAVING COUNT(*) > 1",
    "SELECT COUNT(DISTINCT dept_id) FROM employees",
    "SELECT name FROM employees WHERE salary > (SELECT AVG(salary) FROM employees)",
    "SELECT name FROM employees e WHERE EXISTS (SELECT 1 FROM departments d WHERE d.dept_id = e.dept_id AND d.budget > 250000)",
    "SELECT name FROM employees WHERE dept_id IN (SELECT dept_id FROM departments WHERE budget >= 300000)",
    "SELECT d.dept_name, (SELECT COUNT(*) FROM employees e WHERE e.dept_id = d.dept_id) AS headcount FROM departments d ORDER BY headcount DESC, dept_name",
    "SELECT DISTINCT dept_id FROM employees ORDER BY dept_id",
    "SELECT name FROM employees ORDER BY salary DESC LIMIT 2 OFFSET 1",
    "SELECT name FROM employees WHERE salary > 100000 UNION SELECT dept_name FROM departments ORDER BY 1",
    "SELECT dept_id FROM employees INTERSECT SELECT dept_id FROM departments",
    "SELECT dept_id FROM departments EXCEPT SELECT dept_id FROM employees WHERE dept_id IS NOT NULL",
    "WITH rich AS (SELECT dept_id, COUNT(*) AS n FROM employees WHERE salary > 80000 GROUP BY dept_id) SELECT * FROM rich ORDER BY n DESC",
    "SELECT name || '-' || dept_id FROM employees WHERE dept_id IS NOT NULL ORDER BY 1",
    "SELECT -salary, +salary, NOT (salary > 90000) FROM employees ORDER BY 1",
    "SELECT COALESCE(dept_id, -1), IFNULL(dept_id, 0) FROM employees ORDER BY 1",
    "SELECT salary / 0 FROM employees",
    "SELECT salary % 2 FROM employees ORDER BY 1",
]


@pytest.mark.parametrize("sql", EXPRESSION_QUERIES)
def test_expression_parity(hr_database, sql):
    assert_parity(hr_database, sql)


def test_error_parity_for_bad_queries(hr_database):
    for sql in (
        "SELECT nope FROM employees",
        "SELECT UNKNOWN_FN(salary) FROM employees",
        "SELECT * FROM missing_table",
        "SELECT SUM(salary) FROM employees WHERE SUM(salary) > 1",
    ):
        outcomes = run_all_modes(hr_database, sql)
        reference = outcomes["interpreted"]
        assert isinstance(reference, ReproError), sql
        for mode in PARITY_MODES:
            assert isinstance(outcomes[mode], ReproError), f"[{mode}] {sql}"
            assert type(outcomes[mode]) is type(reference), f"[{mode}] {sql}"
            assert str(outcomes[mode]) == str(reference), f"[{mode}] {sql}"


def test_parity_after_dml(hr_database):
    """Caches must not leak stale results into either mode after inserts."""
    sql = "SELECT dept_id, COUNT(*) FROM employees GROUP BY dept_id"
    assert_parity(hr_database, sql)
    hr_database.execute(
        "INSERT INTO employees (emp_id, name, salary, dept_id, hire_date) VALUES "
        "(7, 'Grace', 101000, 3, '2023-01-01')"
    )
    assert_parity(hr_database, sql)
    compiled, _ = run_both_modes(hr_database, "SELECT COUNT(*) FROM employees")
    assert compiled.rows == [(7,)]


def test_using_join_missing_column_raises_execution_error(hr_database):
    """Regression: a USING column absent from one side must raise a proper
    ExecutionError naming the column, not a bare StopIteration."""
    with pytest.raises(ExecutionError, match="USING column 'budget'.*left side"):
        hr_database.execute(
            "SELECT * FROM employees JOIN departments USING (budget)"
        )
    hr_database.executor_mode = "interpreted"
    with pytest.raises(ExecutionError, match="USING column 'budget'"):
        hr_database.execute(
            "SELECT * FROM employees JOIN departments USING (budget)"
        )


# ---------------------------------------------------------------------------
# IN membership: compiled hash probes against the interpreter's scan
# ---------------------------------------------------------------------------


@pytest.fixture()
def membership_database() -> Database:
    """Typed columns whose values collide across types under compare_values."""
    database = Database("membership")
    database.create_table(
        "nums", [("id", "INT"), ("i", "INT"), ("r", "REAL"), ("flag", "BOOLEAN"), ("grp", "TEXT")]
    )
    database.create_table("texts", [("t", "TEXT"), ("grp", "TEXT")])
    database.create_table("reals", [("r", "REAL"), ("note", "TEXT")])
    database.table("nums").insert_rows(
        [
            (1, 1, 1.0, True, "a"),
            (2, 2, 2.5, False, "a"),
            (3, 3, 3.0, True, "b"),
            (4, None, None, None, "b"),
            (5, 0, -0.0, False, None),
            (6, 10, 10.0, True, "c"),
        ]
    )
    database.table("texts").insert_rows(
        [("1", "a"), ("2.5", "a"), ("3.0", "b"), ("True", "b"), (None, "c"), ("x", None), ("0", "c")]
    )
    database.table("reals").insert_rows(
        [(1.0, "one"), (2.5, "frac"), (None, "null"), (float("nan"), "nan")]
    )
    return database


MEMBERSHIP_QUERIES = [
    # int vs string, string members with a NULL
    "SELECT id, i IN (SELECT t FROM texts) FROM nums ORDER BY id",
    "SELECT id, i NOT IN (SELECT t FROM texts) FROM nums ORDER BY id",
    "SELECT id FROM nums WHERE i NOT IN (SELECT t FROM texts WHERE t IS NOT NULL) ORDER BY id",
    # float vs string: 3.0 matches '3.0', 1.0 does not match '1'
    "SELECT id, r IN (SELECT t FROM texts), r NOT IN (SELECT t FROM texts) FROM nums ORDER BY id",
    # int vs float, both directions
    "SELECT id, i IN (SELECT r FROM reals WHERE note <> 'nan') FROM nums ORDER BY id",
    "SELECT r, r IN (SELECT i FROM nums), r NOT IN (SELECT i FROM nums) FROM reals "
    "WHERE note <> 'nan' ORDER BY note",
    # bool vs string ('True') and bool vs int (never equal)
    "SELECT id, flag IN (SELECT t FROM texts), flag IN (SELECT i FROM nums) FROM nums ORDER BY id",
    "SELECT id, i IN (SELECT flag FROM nums) FROM nums ORDER BY id",
    # NULL probe gives NULL (and filters out) for IN and NOT IN
    "SELECT id FROM nums WHERE i IN (SELECT i FROM nums) ORDER BY id",
    "SELECT id FROM nums WHERE i NOT IN (SELECT i FROM nums WHERE id > 3) ORDER BY id",
    "SELECT id, r IN (SELECT r FROM reals WHERE note <> 'nan') FROM nums ORDER BY id",
    # NaN member matches every number; NaN probe likewise
    "SELECT id, i IN (SELECT r FROM reals), r NOT IN (SELECT r FROM reals) FROM nums ORDER BY id",
    "SELECT id, CAST('nan' AS FLOAT) IN (SELECT i FROM nums WHERE id = 2) FROM nums ORDER BY id",
    "SELECT note, r IN (SELECT t FROM texts) FROM reals ORDER BY note",
    # correlated IN subquery (per-row result, scanned)
    "SELECT n.id FROM nums n WHERE n.i IN (SELECT m.i FROM nums m WHERE m.grp = n.grp AND m.id <> n.id) ORDER BY n.id",
    "SELECT n.id, CAST(n.i AS TEXT) IN (SELECT t.t FROM texts t WHERE t.grp = n.grp) FROM nums n ORDER BY n.id",
    # multi-column subquery: the first column is matched
    "SELECT id FROM nums WHERE i IN (SELECT * FROM nums WHERE flag = TRUE) ORDER BY id",
    "SELECT id FROM nums WHERE id NOT IN (SELECT * FROM nums WHERE flag = TRUE) ORDER BY id",
    # IN inside aggregation, HAVING and CASE
    "SELECT grp, COUNT(*) FROM nums WHERE i IN (SELECT t FROM texts) GROUP BY grp ORDER BY grp",
    "SELECT grp, SUM(i) FROM nums GROUP BY grp HAVING grp IN (SELECT grp FROM texts) ORDER BY grp",
    "SELECT id, CASE WHEN i IN (SELECT i FROM nums WHERE flag = FALSE) THEN 'f' ELSE 'other' END "
    "FROM nums ORDER BY id",
    # literal IN lists (indexed at compile time), mixed types and NULL members
    "SELECT id, i IN (1, '2', 3.0, NULL), i NOT IN (1, '2', 3.0, NULL) FROM nums ORDER BY id",
    "SELECT id, r IN ('1.0', 2.5, 'x'), flag IN ('True', 0) FROM nums ORDER BY id",
    "SELECT id, r IN (CAST('nan' AS FLOAT), 'x'), 'nan' IN (CAST('nan' AS FLOAT)) FROM nums ORDER BY id",
]


@pytest.mark.parametrize("sql", MEMBERSHIP_QUERIES)
def test_in_membership_parity(membership_database, sql):
    assert_parity(membership_database, sql)


def test_in_membership_reference_values(membership_database):
    """Spot-check the documented IN semantics, identical in every mode."""
    database = membership_database
    for mode in PARITY_MODES:
        database.executor_mode = mode
        # 1 = '1', 0 = '0'; NULL probe -> NULL; 2/3/10 have no string twin.
        assert database.query("SELECT id, i IN (SELECT t FROM texts) FROM nums ORDER BY id") == [
            (1, True), (2, False), (3, False), (4, None), (5, True), (6, False)
        ]
        # NOT IN is TRUE despite the NULL member.
        assert database.query(
            "SELECT id FROM nums WHERE i NOT IN (SELECT t FROM texts) ORDER BY id"
        ) == [(2,), (3,), (6,)]
        # A NaN member equals every number.
        assert database.query(
            "SELECT COUNT(*) FROM nums WHERE i IN (SELECT r FROM reals)"
        ) == [(5,)]


def _bird_like_database(rows: int = 240) -> Database:
    """Three-way join whose post-filter is ``key IN (SELECT * FROM t ...)``."""
    database = Database("bird-like")
    database.create_table("movie", [("movie_key", "INT"), ("player_key", "INT")])
    database.create_table("school", [("school_key", "INT"), ("movie_key", "INT")])
    database.create_table(
        "client",
        [("client_key", "INT"), ("school_key", "INT"), ("rate", "REAL"), ("card_key", "INT")],
    )
    database.create_table("card", [("card_key", "INT"), ("movie_key", "INT"), ("rank", "BOOLEAN")])
    database.table("movie").insert_rows([(m, m * 7 % 50) for m in range(rows // 4)])
    database.table("school").insert_rows([(s, s % (rows // 4)) for s in range(rows // 2)])
    database.table("client").insert_rows(
        [(c, c % (rows // 2), float(c * 37 % 1000), c % 90 if c % 11 else None) for c in range(rows)]
    )
    database.table("card").insert_rows([(k, k % (rows // 4), k % 3 == 0) for k in range(90)])
    return database


BIRD_LIKE_SQL = (
    "SELECT player_key FROM movie JOIN school ON school.movie_key = movie.movie_key "
    "JOIN client ON client.school_key = school.school_key "
    "WHERE (rate > 200) AND card_key IN (SELECT * FROM card WHERE rank = TRUE)"
)


def test_bird_like_in_subquery_parity():
    database = _bird_like_database()
    assert_parity(database, BIRD_LIKE_SQL)
    assert_parity(database, BIRD_LIKE_SQL.replace(" IN (", " NOT IN ("))
    assert_parity(database, BIRD_LIKE_SQL + " ORDER BY 1 LIMIT 5")


@pytest.mark.parametrize("mode", ["compiled", "planned"])
def test_bird_like_explain_analyze_counts_membership_work(mode):
    """One index build per cached subquery result, one probe per row."""
    database = _bird_like_database()
    database.executor_mode = mode
    cold = database.explain(BIRD_LIKE_SQL, analyze=True)["analyze"]
    filtered = next(
        op for op in cold["operators"]
        if op["depth"] == 0 and op["op"] in ("filter", "planned_source")
    )
    work = cold["subqueries"]
    assert work["membership_index_builds"] == 1
    assert work["membership_scans"] == 0
    # Every joined row with rate > 200 and a non-NULL key probes the index;
    # the first probe executes the subquery, later ones hit its cached result.
    probes = work["membership_probes"]
    assert 0 < probes <= filtered["rows_in"]
    assert work["cache_hits"] == probes - 1
    # Warm: the cached result keeps its index.
    warm = database.explain(BIRD_LIKE_SQL, analyze=True)["analyze"]["subqueries"]
    assert warm["membership_index_builds"] == 0
    assert warm["membership_probes"] == warm["cache_hits"] == probes
    # DML moves the data version: the result and its index are rebuilt once.
    database.execute("INSERT INTO card (card_key, movie_key, rank) VALUES (1000, 1, TRUE)")
    rebuilt = database.explain(BIRD_LIKE_SQL, analyze=True)["analyze"]["subqueries"]
    assert rebuilt["membership_index_builds"] == 1
    assert rebuilt["membership_probes"] == probes


def test_explain_analyze_counts_correlated_membership_scans(membership_database):
    membership_database.executor_mode = "compiled"
    analyze = membership_database.explain(
        "SELECT n.id FROM nums n WHERE n.i IN "
        "(SELECT m.i FROM nums m WHERE m.grp = n.grp AND m.id <> n.id)",
        analyze=True,
    )["analyze"]
    work = analyze["subqueries"]
    # Five rows have a non-NULL probe; each runs its own per-row result.
    assert work["membership_scans"] == 5
    assert work["membership_index_builds"] == work["membership_probes"] == 0
